//! The serve workload: a spawned `cmmf-serve` daemon driven over a Unix
//! socket by two client connections, each a closed loop that sends the next
//! `submit` only after the previous session's terminal frame arrives. The
//! connections wait for each other at the end of every round, where the
//! host's speed is probed with the daemon idle.
//!
//! Sessions are small (the quick profile, eight steps), so admission,
//! `job.json` persistence, per-step checkpoint and journal I/O, protocol
//! framing and result manifests weigh as much as the optimizer itself.

use crate::attribution::{attribute, Event, Stamp};
use crate::campaign::{build_problems, front_problem, repeat_setup};
use crate::metrics::{peak_rss_mb, Outcome, TracedPass, UntracedPass};
use crate::speed;
use crate::stats::paced_wall;
use crate::workload::{Session, WorkSet, Workload};
use cmmf_hls::cmmf::Optimizer;
use cmmf_hls::serve::{Client, Endpoint, JobSpec, SessionResult};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use trace::json::{self, JsonValue};
use trace::Stopwatch;

/// Client connections, and daemon workers to serve them.
const CLIENTS: usize = 2;

/// Every this-many-th session is re-run directly in process and its result
/// manifest compared with the daemon's.
const VERIFY_EVERY: usize = 20;

/// A scratch directory removed, with everything in it, when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only litter.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon, killed and reaped when dropped.
struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    /// Spawns the daemon and waits until it answers a `ping`.
    fn spawn(bin: &Path, root: &Path, socket: &Path) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("daemon")
            .arg("--root")
            .arg(root)
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--workers", &CLIENTS.to_string()])
            .args(["--cap", "64", "--no-recover"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        // The guard owns the child from here on: an early return kills it.
        let mut daemon = Daemon {
            child,
            endpoint: Endpoint::Unix(socket.to_path_buf()),
        };
        let stdout = daemon
            .child
            .stdout
            .take()
            .ok_or("daemon stdout was not captured")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's readiness line: {e}"))?;
        if !line.starts_with("listening on ") {
            return Err(format!("daemon did not start: {line:?}"));
        }
        let pong = Client::connect(&daemon.endpoint)
            .and_then(|mut c| c.round_trip(r#"{"cmd": "ping"}"#))
            .map_err(|e| format!("ping: {e}"))?;
        if !cmmf_hls::serve::protocol::frame_is_ok(&pong) {
            return Err(format!("ping answered {pong}"));
        }
        Ok(daemon)
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        Client::connect(&self.endpoint)
            .and_then(|mut c| c.round_trip(r#"{"cmd": "shutdown"}"#))
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already exited after a shutdown: both calls then fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One session as its client saw it.
struct SessionRun {
    /// Seconds from sending `submit` to reading the terminal frame.
    latency_s: f64,
    /// The result manifest of the terminal frame.
    result: Result<SessionResult, String>,
    /// The ack and, when streamed, every event frame, stamped on arrival.
    stamps: Vec<Stamp>,
}

/// Submits `spec` and reads frames until the terminal one; with `stream`
/// the session's events come back as frames and are stamped too.
fn submit(client: &mut Client, spec: &JobSpec, stream: bool) -> SessionRun {
    let request = format!(
        "{{\"cmd\": \"submit\", \"job\": {}, \"{}\": true}}",
        spec.to_json(),
        if stream { "stream" } else { "wait" }
    );
    let clock = Stopwatch::start();
    let mut stamps = Vec::new();
    match exchange(client, &request, &clock, &mut stamps) {
        Ok((result, latency_s)) => SessionRun {
            latency_s,
            result: Ok(result),
            stamps,
        },
        Err(e) => SessionRun {
            latency_s: clock.seconds(),
            result: Err(e),
            stamps,
        },
    }
}

/// The frames of one `submit`: the manifest and the terminal frame's
/// arrival time.
fn exchange(
    client: &mut Client,
    request: &str,
    clock: &Stopwatch,
    stamps: &mut Vec<Stamp>,
) -> Result<(SessionResult, f64), String> {
    let ack = client.round_trip(request).map_err(|e| e.to_string())?;
    stamps.push(Stamp {
        at: clock.seconds(),
        event: Event::Admitted,
    });
    let doc = json::parse(&ack).map_err(|e| format!("ack: {e}"))?;
    if doc.get("state").and_then(JsonValue::as_str) != Some("queued") {
        return Err(format!("submit was not admitted: {ack}"));
    }
    loop {
        let frame = client
            .recv()
            .map_err(|e| e.to_string())?
            .ok_or("connection closed mid-session")?;
        let at = clock.seconds();
        let doc = json::parse(&frame).map_err(|e| format!("frame: {e}"))?;
        if let Some(event) = doc.get("event") {
            if let Some(event) = Event::from_json(event) {
                stamps.push(Stamp { at, event });
            }
            continue;
        }
        if doc.get("state").and_then(JsonValue::as_str) != Some("finished") {
            return Err(format!("session did not finish: {frame}"));
        }
        let result = doc.get("result").ok_or("terminal frame has no result")?;
        return SessionResult::from_json(result)
            .map(|r| (r, at))
            .map_err(|e| e.to_string());
    }
}

/// Every session's untraced run and, in a traced pass, its streamed twin
/// (same tenant and seed under another session name, so the same result).
type Runs = Vec<(SessionRun, Option<SessionRun>)>;

/// Drives `sessions` through the daemon from [`CLIENTS`] connections, one
/// round at a time. Untraced, the host's speed is probed on all hardware
/// threads (the daemon's sessions use them all) before the first round and
/// after each one, while the daemon is idle. Returns the runs in session
/// order, and the probes.
fn drive(
    endpoint: &Endpoint,
    sessions: &[Session],
    trace: bool,
) -> Result<(Runs, Vec<f64>), String> {
    let mut conns = (0..CLIENTS)
        .map(|_| Client::connect(endpoint).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let probe = || speed::probe(speed::hardware_threads());
    let mut probes = Vec::new();
    if !trace {
        probes.push(probe());
    }
    let mut runs = Vec::with_capacity(sessions.len());
    for round in sessions.chunk_by(|a, b| a.round == b.round) {
        runs.extend(drive_round(&mut conns, round, trace)?);
        if !trace {
            probes.push(probe());
        }
    }
    Ok((runs, probes))
}

/// Drives one round's `sessions`, each connection taking the next unsent
/// session when its previous one finishes.
fn drive_round(conns: &mut [Client], sessions: &[Session], trace: bool) -> Result<Runs, String> {
    let next = AtomicUsize::new(0);
    let client = |conn: &mut Client| {
        let mut done = Vec::new();
        loop {
            // The counter only hands out indices; it publishes no other data.
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(Session { spec, .. }) = sessions.get(k) else {
                return done;
            };
            let plain = submit(conn, spec, false);
            let streamed = trace.then(|| {
                let mut twin = spec.clone();
                twin.session = format!("{}-traced", spec.session);
                submit(conn, &twin, true)
            });
            done.push((k, plain, streamed));
        }
    };
    let client = &client;
    let per_client: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| s.spawn(move || client(conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect()
    });
    let mut runs: Vec<Option<(SessionRun, Option<SessionRun>)>> =
        (0..sessions.len()).map(|_| None).collect();
    for done in per_client {
        for (k, plain, streamed) in done? {
            runs[k] = Some((plain, streamed));
        }
    }
    runs.into_iter()
        .enumerate()
        .map(|(k, r)| r.ok_or_else(|| format!("session {k} was never sent")))
        .collect()
}

/// Runs the serve workload against the daemon executable `bin`, keeping the
/// daemon's storage root and socket under `scratch` (removed afterwards).
///
/// # Errors
///
/// A set-up failure, or a daemon that cannot be driven at all.
pub fn run(bin: &Path, scratch: &Path, set: WorkSet, trace: bool) -> Result<Outcome, String> {
    let workload = Workload::ServeQuick;
    let dir = ScratchDir(scratch.join(format!("serve-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let root = dir.0.join("sessions");
    let socket = dir.0.join("daemon.sock");

    let benches = workload.benchmarks(set.scale);
    let mut daemon: Option<Daemon> = None;
    let (problems, setup) = repeat_setup(set.scale, || {
        if let Some(previous) = daemon.take() {
            previous.shutdown()?;
        }
        let wall = Stopwatch::start();
        let (built, mut times) = build_problems(&benches)?;
        let t = Stopwatch::start();
        daemon = Some(Daemon::spawn(bin, &root, &socket)?);
        times.spawn_s = t.seconds();
        times.wall_s = wall.seconds();
        Ok((built, times))
    })?;
    let daemon = daemon.ok_or("no daemon was started")?;

    let sessions = workload.sessions(set);
    let (runs, probes) = drive(&daemon.endpoint, &sessions, trace)?;
    let rss = peak_rss_mb(Some(daemon.child.id()))?;
    daemon.shutdown()?;

    let mut out = Outcome {
        attempted: runs.len() * if trace { 2 } else { 1 },
        ..Outcome::default()
    };
    let adrs_clock = Stopwatch::start();
    let mut adrs = Vec::new();
    let mut sim_s = Vec::new();
    for (k, (session, (plain, streamed))) in sessions.iter().zip(&runs).enumerate() {
        for run in std::iter::once(plain).chain(streamed) {
            if let Err(e) = &run.result {
                out.fail(format!("session {k} failed: {e}"));
            }
        }
        let Ok(manifest) = &plain.result else {
            continue;
        };
        let pareto: Vec<[f64; 3]> = manifest
            .pareto_bits
            .iter()
            .map(|p| p.map(f64::from_bits))
            .collect();
        let front = &problems[session.problem].front;
        let a = front.adrs_of(&pareto);
        let cfg = session.spec.to_config();
        if let Some(why) = front_problem(front, &pareto) {
            out.mismatches.push(format!("session {k}: {why}"));
        }
        if !a.is_finite() || manifest.evaluated != cfg.n_init + cfg.n_iter {
            out.mismatches
                .push(format!("session {k}: implausible result manifest"));
        }
        adrs.push(a);
        sim_s.push(f64::from_bits(manifest.sim_seconds_bits));
        if let Some(Ok(twin)) = streamed.as_ref().map(|s| &s.result) {
            if twin != manifest {
                out.mismatches
                    .push(format!("session {k}: streamed result differs from waited"));
            }
        }
    }
    let adrs_s = adrs_clock.seconds();

    // A sample of sessions re-run in process, outside the measured window.
    for k in (0..sessions.len()).step_by(VERIFY_EVERY) {
        let session = &sessions[k];
        if let Ok(manifest) = &runs[k].0.result {
            let p = &problems[session.problem];
            match Optimizer::new(session.spec.to_config()).run(&p.space, &p.sim) {
                Ok(r) if SessionResult::from_run(&r) == *manifest => {}
                Ok(_) => out.mismatches.push(format!(
                    "session {k}: daemon result differs from a direct run"
                )),
                Err(e) => out
                    .mismatches
                    .push(format!("session {k}: direct run failed: {e}")),
            }
        }
    }

    let plain_walls: Vec<f64> = runs.iter().map(|(p, _)| p.latency_s).collect();
    if trace {
        let streamed: Vec<&SessionRun> = runs.iter().filter_map(|(_, s)| s.as_ref()).collect();
        let breakdowns: Vec<_> = streamed
            .iter()
            .map(|s| attribute(&s.stamps, s.latency_s))
            .collect();
        let traced_walls: Vec<f64> = streamed.iter().map(|s| s.latency_s).collect();
        TracedPass {
            setup,
            jobs: &breakdowns,
            traced_walls: &traced_walls,
            untraced_walls: &plain_walls,
            adrs_s,
        }
        .record(&mut out);
    } else {
        let paced: Vec<(usize, f64)> = sessions
            .iter()
            .zip(&plain_walls)
            .map(|(s, &w)| {
                (
                    s.round,
                    speed::at_reference(w, probes[s.round], probes[s.round + 1]),
                )
            })
            .collect();
        let pass = UntracedPass {
            setup,
            measured_s: plain_walls.iter().sum(),
            wall_s: paced_wall(&paced, CLIENTS),
            probes: &probes,
            adrs: &adrs,
            sim_s: &sim_s,
            peak_rss_mb: rss,
        };
        eprintln!("{}", pass.note());
        pass.record(&mut out);
    }
    Ok(out)
}
