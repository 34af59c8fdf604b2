//! The socket front end: listeners, per-connection handlers, and a small
//! blocking client.
//!
//! The daemon listens on a TCP or Unix-domain endpoint (`tcp:host:port`,
//! `unix:/path`). Each connection is served by its own thread speaking the
//! line protocol of [`crate::protocol`]; a `shutdown` command stops the
//! accept loop (in-flight sessions finish, queued ones persist for the next
//! daemon's recovery).

use crate::engine::Engine;
use crate::error::ServeError;
use crate::protocol::{self, Request};
use crate::session::SessionResult;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// A parsed listen/connect endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `tcp:host:port` (bind with port 0 to let the OS pick).
    Tcp(String),
    /// `unix:/path/to/socket`.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:host:port` or `unix:/path`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on any other shape.
    pub fn parse(text: &str) -> Result<Endpoint, ServeError> {
        if let Some(addr) = text.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(ServeError::protocol(format!(
                    "tcp endpoint needs host:port, got `{addr}`"
                )));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::protocol("unix endpoint needs a path"));
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else {
            Err(ServeError::protocol(format!(
                "endpoint must be tcp:host:port or unix:/path, got `{text}`"
            )))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A bound listener plus the accept loop.
pub struct Server {
    listener: ListenerKind,
    local: Endpoint,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the endpoint. For `tcp:…:0` the reported
    /// [`Server::local_endpoint`] carries the OS-assigned port; a stale
    /// Unix socket file is replaced.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] on bind failure.
    pub fn bind(endpoint: &Endpoint) -> Result<Server, ServeError> {
        let (listener, local) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| ServeError::storage(PathBuf::from(format!("tcp:{addr}")), e))?;
                let actual = l
                    .local_addr()
                    .map_err(|e| ServeError::storage(PathBuf::from(format!("tcp:{addr}")), e))?;
                (ListenerKind::Tcp(l), Endpoint::Tcp(actual.to_string()))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| ServeError::storage(path, e))?;
                }
                let l = UnixListener::bind(path).map_err(|e| ServeError::storage(path, e))?;
                (ListenerKind::Unix(l), Endpoint::Unix(path.clone()))
            }
        };
        Ok(Server {
            listener,
            local,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound endpoint (resolves `tcp:…:0`).
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    /// Accepts and serves connections until a `shutdown` command arrives.
    /// Each connection runs on its own thread against `engine`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] if accepting fails.
    pub fn run(&self, engine: &Arc<Engine>) -> Result<(), ServeError> {
        loop {
            let conn: Box<dyn Connection> = match &self.listener {
                ListenerKind::Tcp(l) => {
                    let (stream, _) = l
                        .accept()
                        .map_err(|e| ServeError::storage(PathBuf::from("tcp-accept"), e))?;
                    Box::new(stream)
                }
                ListenerKind::Unix(l) => {
                    let (stream, _) = l
                        .accept()
                        .map_err(|e| ServeError::storage(PathBuf::from("unix-accept"), e))?;
                    Box::new(stream)
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&self.stop);
            let local = self.local.clone();
            thread::spawn(move || {
                // A connection error (client gone mid-stream) only ends
                // that connection.
                let _ = serve_connection(conn, &engine, &stop, &local);
            });
        }
        if let Endpoint::Unix(path) = &self.local {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// A bidirectional stream that can be split into reader and writer halves.
trait Connection: Send {
    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
}

impl Connection for TcpStream {
    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let reader = self.try_clone()?;
        Ok((Box::new(reader), Box::new(*self)))
    }
}

impl Connection for UnixStream {
    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let reader = self.try_clone()?;
        Ok((Box::new(reader), Box::new(*self)))
    }
}

/// Serves one connection: read a line, dispatch, answer, repeat until EOF
/// or shutdown.
fn serve_connection(
    conn: Box<dyn Connection>,
    engine: &Arc<Engine>,
    stop: &AtomicBool,
    local: &Endpoint,
) -> std::io::Result<()> {
    let (reader, mut writer) = conn.split()?;
    let reader = BufReader::new(reader);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let shutdown = matches!(
            handle_request(&line, engine, &mut writer)?,
            Disposition::Shutdown
        );
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            poke(local);
            break;
        }
    }
    Ok(())
}

enum Disposition {
    Continue,
    Shutdown,
}

fn respond(writer: &mut (impl Write + ?Sized), frame: &str) -> std::io::Result<()> {
    writer.write_all(frame.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_request(
    line: &str,
    engine: &Arc<Engine>,
    writer: &mut (impl Write + ?Sized),
) -> std::io::Result<Disposition> {
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            respond(writer, &protocol::error_frame(&e))?;
            return Ok(Disposition::Continue);
        }
    };
    match request {
        Request::Ping => respond(writer, &protocol::ok_frame(|_| {}))?,
        Request::Shutdown => {
            respond(writer, &protocol::ok_frame(|_| {}))?;
            return Ok(Disposition::Shutdown);
        }
        Request::Status { tenant, session } => match engine.status(&tenant, &session) {
            Ok(state) => respond(writer, &protocol::state_frame(&state))?,
            Err(e) => respond(writer, &protocol::error_frame(&e))?,
        },
        Request::List => respond(writer, &protocol::list_frame(&engine.list()))?,
        Request::Wait { tenant, session } => {
            respond_result(writer, engine.wait(&tenant, &session))?;
        }
        Request::Submit { spec, wait, stream } => {
            let tenant = spec.tenant.clone();
            let session = spec.session.clone();
            let (events, rx) = if stream {
                let (tx, rx) = mpsc::channel();
                (Some(tx), Some(rx))
            } else {
                (None, None)
            };
            match engine.submit(*spec, events) {
                Err(e) => respond(writer, &protocol::error_frame(&e))?,
                Ok(state) => {
                    respond(writer, &protocol::state_frame(&state))?;
                    if let Some(rx) = rx {
                        // The engine drops the sender when the session
                        // completes, ending this loop.
                        while let Ok(event) = rx.recv() {
                            respond(writer, &protocol::event_frame(&event))?;
                        }
                    }
                    if wait || stream {
                        respond_result(writer, engine.wait(&tenant, &session))?;
                    }
                }
            }
        }
    }
    Ok(Disposition::Continue)
}

fn respond_result(
    writer: &mut (impl Write + ?Sized),
    result: Result<SessionResult, ServeError>,
) -> std::io::Result<()> {
    match result {
        Ok(manifest) => respond(writer, &protocol::finished_frame(&manifest)),
        Err(e) => respond(writer, &protocol::error_frame(&e)),
    }
}

/// Opens and immediately drops a connection to `endpoint` so a blocked
/// `accept` observes the stop flag.
fn poke(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
        Endpoint::Unix(path) => drop(UnixStream::connect(path)),
    }
}

/// A small blocking client for the line protocol, used by the `cmmf-serve`
/// client subcommands and the integration tests.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] on connection failure.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ServeError> {
        let conn: Box<dyn Connection> = match endpoint {
            Endpoint::Tcp(addr) => Box::new(
                TcpStream::connect(addr)
                    .map_err(|e| ServeError::storage(PathBuf::from(format!("tcp:{addr}")), e))?,
            ),
            Endpoint::Unix(path) => {
                Box::new(UnixStream::connect(path).map_err(|e| ServeError::storage(path, e))?)
            }
        };
        let (reader, writer) = conn
            .split()
            .map_err(|e| ServeError::storage(PathBuf::from(endpoint.to_string()), e))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] on write failure.
    pub fn send(&mut self, line: &str) -> Result<(), ServeError> {
        let io = |e| ServeError::storage(PathBuf::from("client-send"), e);
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.writer.flush().map_err(io)
    }

    /// Receives one response frame; `None` at EOF.
    ///
    /// # Errors
    ///
    /// [`ServeError::Storage`] on read failure.
    pub fn recv(&mut self) -> Result<Option<String>, ServeError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ServeError::storage(PathBuf::from("client-recv"), e))?;
        if n == 0 {
            Ok(None)
        } else {
            Ok(Some(line.trim_end().to_string()))
        }
    }

    /// Sends a request and returns the first response frame (EOF is a
    /// protocol error).
    ///
    /// # Errors
    ///
    /// Transport errors as [`ServeError::Storage`]; EOF as
    /// [`ServeError::Protocol`].
    pub fn round_trip(&mut self, line: &str) -> Result<String, ServeError> {
        self.send(line)?;
        self.recv()?
            .ok_or_else(|| ServeError::protocol("connection closed before a response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        for bad in ["tcp:", "tcp:no-port", "unix:", "http:x", ""] {
            assert!(Endpoint::parse(bad).is_err(), "accepted `{bad}`");
        }
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:8080").unwrap().to_string(),
            "tcp:127.0.0.1:8080"
        );
    }
}
