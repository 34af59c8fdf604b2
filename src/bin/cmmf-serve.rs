//! `cmmf-serve` — the multi-tenant DSE session daemon and its client.
//!
//! ```text
//! cmmf-serve daemon   --root DIR [--listen EP] [--workers N] [--cap N] [--no-recover]
//! cmmf-serve ping     --connect EP
//! cmmf-serve submit   --connect EP --tenant T --session S
//!                     (--benchmark NAME | --spec FILE)
//!                     [--iters N] [--seed S] [--variant ours|fpl18]
//!                     [--divergence D] [--batch Q] [--async-slots K]
//!                     [--quick] [--wait] [--stream]
//! cmmf-serve status   --connect EP --tenant T --session S
//! cmmf-serve wait     --connect EP --tenant T --session S
//! cmmf-serve list     --connect EP
//! cmmf-serve shutdown --connect EP
//! ```
//!
//! Endpoints are `tcp:host:port` (bind port 0 to let the OS pick — the
//! daemon prints the actual endpoint as `listening on <EP>` on stdout) or
//! `unix:/path`. The daemon recovers unfinished sessions from `--root` on
//! start (`--no-recover` disables), accepts jobs over the line protocol
//! documented in ARCHITECTURE.md ("cmmf-serve"), and persists every session
//! under `<root>/<tenant>/<session>/`. A killed daemon restarted on the
//! same root resumes each interrupted session from its last checkpoint,
//! bit-identically.
//!
//! Client subcommands print the daemon's response frames to stdout, one per
//! line, and exit 0 only if every frame reports `"ok": true`. The shared
//! job-shaping flags are exactly `cmmf-dse`'s (see `cmmf_hls::cli`), with
//! the same validation; `--quick` applies the fast smoke profile used by CI
//! and the soak tests.

use cmmf_hls::cli::{ArgStream, CliError, JobFlags};
use cmmf_hls::serve::{
    protocol, Client, Endpoint, Engine, EngineConfig, JobSpec, Overrides, Problem, Request, Server,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: cmmf-serve <daemon|ping|submit|status|wait|list|shutdown> [flags]\n\
  daemon   --root DIR [--listen EP] [--workers N] [--cap N] [--no-recover]\n\
  ping     --connect EP\n\
  submit   --connect EP --tenant T --session S (--benchmark NAME | --spec FILE)\n\
           [--iters N] [--seed S] [--variant ours|fpl18] [--divergence D]\n\
           [--batch Q] [--async-slots K] [--quick] [--wait] [--stream]\n\
  status   --connect EP --tenant T --session S\n\
  wait     --connect EP --tenant T --session S\n\
  list     --connect EP\n\
  shutdown --connect EP\n\
--batch Q runs Q picks per decision as one group; --async-slots K keeps up to K groups in flight\n\
endpoints: tcp:host:port | unix:/path";

fn usage_err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

struct DaemonArgs {
    root: PathBuf,
    listen: Endpoint,
    workers: usize,
    cap: usize,
    recover: bool,
}

struct SubmitArgs {
    connect: Endpoint,
    spec: JobSpec,
    wait: bool,
    stream: bool,
}

struct AddressArgs {
    connect: Endpoint,
    tenant: String,
    session: String,
}

enum Parsed {
    Help,
    Daemon(DaemonArgs),
    Ping(Endpoint),
    Submit(Box<SubmitArgs>),
    Status(AddressArgs),
    Wait(AddressArgs),
    List(Endpoint),
    Shutdown(Endpoint),
}

fn parse_endpoint(raw: &str) -> Result<Endpoint, CliError> {
    Endpoint::parse(raw).map_err(|e| usage_err(e.to_string()))
}

fn reject_unknown(arg: &str) -> CliError {
    usage_err(format!("unknown flag `{arg}`"))
}

fn parse_daemon(mut args: ArgStream) -> Result<Parsed, CliError> {
    let mut root = None;
    let mut listen = Endpoint::Tcp("127.0.0.1:0".to_string());
    let mut workers = 2;
    let mut cap = 16;
    let mut recover = true;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(args.value_of("--root")?)),
            "--listen" => listen = parse_endpoint(&args.value_of("--listen")?)?,
            "--workers" => {
                workers = args.parsed("--workers")?;
                if workers == 0 {
                    return Err(usage_err("--workers must be at least 1"));
                }
            }
            "--cap" => {
                cap = args.parsed("--cap")?;
                if cap == 0 {
                    return Err(usage_err("--cap must be at least 1"));
                }
            }
            "--no-recover" => {
                args.flag_once("--no-recover")?;
                recover = false;
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(reject_unknown(other)),
        }
    }
    let root = root.ok_or_else(|| usage_err("daemon needs --root DIR"))?;
    Ok(Parsed::Daemon(DaemonArgs {
        root,
        listen,
        workers,
        cap,
        recover,
    }))
}

/// Parses `--connect` plus optional `--tenant`/`--session`; used by every
/// client subcommand.
struct ClientCommon {
    connect: Option<Endpoint>,
    tenant: Option<String>,
    session: Option<String>,
}

impl ClientCommon {
    fn try_consume(&mut self, arg: &str, args: &mut ArgStream) -> Result<bool, CliError> {
        match arg {
            "--connect" => self.connect = Some(parse_endpoint(&args.value_of("--connect")?)?),
            "--tenant" => self.tenant = Some(args.value_of("--tenant")?),
            "--session" => self.session = Some(args.value_of("--session")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn connect(self) -> Result<Endpoint, CliError> {
        self.connect
            .ok_or_else(|| usage_err("missing --connect EP"))
    }

    fn address(self) -> Result<AddressArgs, CliError> {
        let tenant = self
            .tenant
            .clone()
            .ok_or_else(|| usage_err("missing --tenant T"))?;
        let session = self
            .session
            .clone()
            .ok_or_else(|| usage_err("missing --session S"))?;
        Ok(AddressArgs {
            connect: self.connect()?,
            tenant,
            session,
        })
    }
}

fn parse_connect_only(mut args: ArgStream) -> Result<Endpoint, CliError> {
    let mut common = ClientCommon {
        connect: None,
        tenant: None,
        session: None,
    };
    while let Some(arg) = args.next_arg() {
        if common.try_consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => return Err(usage_err("help")),
            other => return Err(reject_unknown(other)),
        }
    }
    common.connect()
}

fn parse_addressed(mut args: ArgStream) -> Result<AddressArgs, CliError> {
    let mut common = ClientCommon {
        connect: None,
        tenant: None,
        session: None,
    };
    while let Some(arg) = args.next_arg() {
        if common.try_consume(&arg, &mut args)? {
            continue;
        }
        return Err(reject_unknown(&arg));
    }
    common.address()
}

fn parse_submit(mut args: ArgStream) -> Result<Parsed, CliError> {
    let mut common = ClientCommon {
        connect: None,
        tenant: None,
        session: None,
    };
    let mut job = JobFlags::default();
    let mut benchmark = None;
    let mut spec_file = None;
    let mut quick = false;
    let mut wait = false;
    let mut stream = false;
    while let Some(arg) = args.next_arg() {
        if common.try_consume(&arg, &mut args)? || job.try_consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--benchmark" => benchmark = Some(args.value_of("--benchmark")?),
            "--spec" => spec_file = Some(PathBuf::from(args.value_of("--spec")?)),
            "--quick" => {
                args.flag_once("--quick")?;
                quick = true;
            }
            "--wait" => {
                args.flag_once("--wait")?;
                wait = true;
            }
            "--stream" => {
                args.flag_once("--stream")?;
                stream = true;
            }
            other => return Err(reject_unknown(other)),
        }
    }
    let divergence_given = args.was_seen("--divergence");
    let address = common.address()?;
    let problem = match (benchmark, spec_file) {
        (Some(name), None) => {
            let b = cmmf_hls::serve::job::benchmark_by_name(&name)
                .ok_or_else(|| usage_err(format!("unknown benchmark `{name}`")))?;
            Problem::Benchmark(b)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| usage_err(format!("cannot read {}: {e}", path.display())))?;
            Problem::SpecText(text)
        }
        _ => {
            return Err(usage_err(
                "exactly one of --benchmark NAME or --spec FILE is required",
            ))
        }
    };
    let mut spec = JobSpec::new(address.tenant, address.session, problem);
    spec.iters = job.iters;
    spec.seed = job.seed;
    spec.variant = job.variant;
    spec.divergence = divergence_given.then_some(job.divergence);
    spec.batch = job.batch;
    spec.async_slots = job.async_slots;
    if quick {
        spec.overrides = Overrides::quick();
    }
    spec.validate().map_err(|e| usage_err(e.to_string()))?;
    Ok(Parsed::Submit(Box::new(SubmitArgs {
        connect: address.connect,
        spec,
        wait,
        stream,
    })))
}

fn parse_args(mut tokens: Vec<String>) -> Result<Parsed, CliError> {
    if tokens.is_empty() {
        return Err(usage_err("missing command"));
    }
    let command = tokens.remove(0);
    let args = ArgStream::new(tokens);
    match command.as_str() {
        "daemon" => parse_daemon(args),
        "ping" => Ok(Parsed::Ping(parse_connect_only(args)?)),
        "submit" => parse_submit(args),
        "status" => Ok(Parsed::Status(parse_addressed(args)?)),
        "wait" => Ok(Parsed::Wait(parse_addressed(args)?)),
        "list" => Ok(Parsed::List(parse_connect_only(args)?)),
        "shutdown" => Ok(Parsed::Shutdown(parse_connect_only(args)?)),
        "--help" | "-h" | "help" => Ok(Parsed::Help),
        other => Err(usage_err(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1).collect()) {
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(parsed) => match dispatch(parsed) {
            Ok(all_ok) => {
                if all_ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(parsed: Parsed) -> Result<bool, String> {
    match parsed {
        Parsed::Help => Ok(true),
        Parsed::Daemon(args) => run_daemon(&args).map(|()| true),
        Parsed::Ping(ep) => one_shot(&ep, &Request::Ping),
        Parsed::List(ep) => one_shot(&ep, &Request::List),
        Parsed::Shutdown(ep) => one_shot(&ep, &Request::Shutdown),
        Parsed::Status(a) => one_shot(
            &a.connect,
            &Request::Status {
                tenant: a.tenant,
                session: a.session,
            },
        ),
        Parsed::Wait(a) => one_shot(
            &a.connect,
            &Request::Wait {
                tenant: a.tenant,
                session: a.session,
            },
        ),
        Parsed::Submit(args) => run_submit(*args),
    }
}

fn run_daemon(args: &DaemonArgs) -> Result<(), String> {
    let engine = Engine::start(EngineConfig {
        root: args.root.clone(),
        workers: args.workers,
        capacity: args.cap,
    })
    .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    if args.recover {
        let recovered = engine.recover().map_err(|e| e.to_string())?;
        if !recovered.is_empty() {
            eprintln!("recovered {} unfinished session(s)", recovered.len());
            for (tenant, session) in &recovered {
                eprintln!("  {tenant}/{session}");
            }
        }
    }
    let server = Server::bind(&args.listen).map_err(|e| e.to_string())?;
    // The readiness line integration tests and scripts key on; must hit
    // stdout before the first accept.
    println!("listening on {}", server.local_endpoint());
    if std::io::stdout().flush().is_err() {
        // A closed stdout is not fatal for a daemon.
    }
    server.run(&engine).map_err(|e| e.to_string())?;
    engine.shutdown();
    eprintln!("daemon stopped");
    Ok(())
}

/// Prints one frame to stdout. Returns `false` when stdout is gone (the
/// consumer closed the pipe, e.g. `… | head`); unlike `println!`, that must
/// end output quietly, not panic.
fn print_frame(line: &str) -> bool {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    out.write_all(line.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush())
        .is_ok()
}

/// Sends one request, prints every response frame, and reports whether all
/// frames were `ok`.
fn one_shot(endpoint: &Endpoint, request: &Request) -> Result<bool, String> {
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    let frame = client
        .round_trip(&request.to_json())
        .map_err(|e| e.to_string())?;
    print_frame(&frame);
    Ok(protocol::frame_is_ok(&frame))
}

fn run_submit(args: SubmitArgs) -> Result<bool, String> {
    let holds_connection = args.wait || args.stream;
    let request = Request::Submit {
        spec: Box::new(args.spec),
        wait: args.wait,
        stream: args.stream,
    };
    let mut client = Client::connect(&args.connect).map_err(|e| e.to_string())?;
    let ack = client
        .round_trip(&request.to_json())
        .map_err(|e| e.to_string())?;
    let mut stdout_open = print_frame(&ack);
    let mut all_ok = protocol::frame_is_ok(&ack);
    if all_ok && holds_connection {
        // Event frames stream until the terminal frame; EOF before a
        // terminal frame means the daemon died mid-run. A closed stdout
        // only stops printing — the wait for the terminal frame (and the
        // exit code) still stand.
        let mut saw_terminal = false;
        while let Some(frame) = client.recv().map_err(|e| e.to_string())? {
            if stdout_open {
                stdout_open = print_frame(&frame);
            }
            all_ok &= protocol::frame_is_ok(&frame);
            if !protocol::frame_is_event(&frame) {
                saw_terminal = true;
                break;
            }
        }
        all_ok &= saw_terminal;
    }
    Ok(all_ok)
}
