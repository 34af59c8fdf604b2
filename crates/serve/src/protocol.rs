//! The daemon's wire protocol: line-delimited JSON, one request line in,
//! one or more response frames out.
//!
//! ## Grammar
//!
//! ```text
//! request   = json-object "\n"
//! cmd       = "ping" | "submit" | "status" | "list" | "wait" | "shutdown"
//!
//! {"cmd": "ping"}
//! {"cmd": "submit", "job": <job-spec>, "wait": bool?, "stream": bool?}
//! {"cmd": "status", "tenant": s, "session": s}
//! {"cmd": "list"}
//! {"cmd": "wait", "tenant": s, "session": s}
//! {"cmd": "shutdown"}
//!
//! response  = ok-frame | error-frame
//! ok-frame  = {"ok": true, ...}            # command-specific fields
//! error     = {"ok": false, "error": {"kind": s, "message": s}}
//!
//! {"ok": true}                                       # ping, shutdown
//! {"ok": true, "state": s, "message": s?}            # submit, status
//! {"ok": true, "sessions": [{"tenant": s, "session": s, "state": s}, ...]}
//! ```
//!
//! A streaming `submit` (`"stream": true`) emits zero or more
//! `{"ok": true, "event": <trace-event>}` frames — the run's `TraceEvent`s
//! as they happen — before the final frame. A waiting `submit`
//! (`"wait": true`) or a `wait` command finishes with
//! `{"ok": true, "state": "finished", "result": <manifest>}`.
//!
//! Requests may be spaced freely. Every frame the daemon sends, and every
//! request [`Request::to_json`] writes, is one compact line written by
//! [`JsonWriter`] (the spacing above is for reading only).
//!
//! Error `kind`s are the stable [`ServeError::kind`] discriminants; in
//! particular `admission-rejected` carries `active` and `cap` so clients
//! can implement informed backoff.

use crate::engine::SessionKey;
use crate::error::ServeError;
use crate::job::JobSpec;
use crate::session::{SessionResult, SessionState};
use trace::json::{self, JsonValue, JsonWriter};
use trace::TraceEvent;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job; optionally stream its events and/or wait for its
    /// result on this connection.
    Submit {
        /// The job (boxed: a spec is much larger than the other variants).
        spec: Box<JobSpec>,
        /// Hold the connection until the session finishes and send the
        /// result in the final frame.
        wait: bool,
        /// Stream the session's `TraceEvent`s as event frames (implies
        /// holding the connection like `wait`).
        stream: bool,
    },
    /// Query a session's lifecycle state.
    Status {
        /// Tenant name.
        tenant: String,
        /// Session name.
        session: String,
    },
    /// List the engine's sessions and states.
    List,
    /// Block until a session finishes and return its result manifest.
    Wait {
        /// Tenant name.
        tenant: String,
        /// Session name.
        session: String,
    },
    /// Stop the daemon (current sessions finish, queued ones persist).
    Shutdown,
}

impl Request {
    /// The request's `cmd` name.
    fn cmd(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::List => "list",
            Request::Wait { .. } => "wait",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serializes the request as one line (no trailing newline);
    /// [`parse_request`] inverts it. False `wait`/`stream` flags are left
    /// out, as the parser defaults them.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("cmd").str(self.cmd());
        match self {
            Request::Submit { spec, wait, stream } => {
                spec.write_json(w.key("job"));
                if *wait {
                    w.key("wait").bool(true);
                }
                if *stream {
                    w.key("stream").bool(true);
                }
            }
            Request::Status { tenant, session } | Request::Wait { tenant, session } => {
                w.key("tenant").str(tenant);
                w.key("session").str(session);
            }
            Request::Ping | Request::List | Request::Shutdown => {}
        }
        w.end_object();
        w.finish()
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed JSON or an unknown command;
/// [`ServeError::InvalidJob`] if a `submit`'s job fails validation.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc =
        json::parse(line).map_err(|e| ServeError::protocol(format!("request is not JSON: {e}")))?;
    let cmd = doc
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::protocol("missing `cmd`"))?;
    let addressed = |doc: &JsonValue| -> Result<(String, String), ServeError> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServeError::protocol(format!("missing `{key}`")))
        };
        Ok((field("tenant")?, field("session")?))
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let job = doc
                .get("job")
                .ok_or_else(|| ServeError::protocol("missing `job`"))?;
            let flag = |key: &str| doc.get(key).and_then(JsonValue::as_bool).unwrap_or(false);
            Ok(Request::Submit {
                spec: Box::new(JobSpec::from_json(job)?),
                wait: flag("wait"),
                stream: flag("stream"),
            })
        }
        "status" => {
            let (tenant, session) = addressed(&doc)?;
            Ok(Request::Status { tenant, session })
        }
        "list" => Ok(Request::List),
        "wait" => {
            let (tenant, session) = addressed(&doc)?;
            Ok(Request::Wait { tenant, session })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::protocol(format!("unknown command `{other}`"))),
    }
}

/// `{"ok": true}` followed by the fields `fields` writes.
pub fn ok_frame(fields: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("ok").bool(true);
    fields(&mut w);
    w.end_object();
    w.finish()
}

/// The error frame for `e`: stable `kind`, human `message`, and (for
/// admission rejections) the `active`/`cap` numbers for client backoff.
pub fn error_frame(e: &ServeError) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ok").bool(false);
    w.key("error").begin_object();
    w.key("kind").str(e.kind());
    w.key("message").str(&e.to_string());
    if let ServeError::AdmissionRejected { active, cap } = e {
        w.key("active").usize(*active);
        w.key("cap").usize(*cap);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// The frame reporting a session's state (the answer to `submit` and
/// `status`); a failed session also carries its message.
pub(crate) fn state_frame(state: &SessionState) -> String {
    ok_frame(|w| {
        w.key("state").str(state.name());
        if let SessionState::Failed { message } = state {
            w.key("message").str(message);
        }
    })
}

/// The answer to `list`: one row per session.
pub(crate) fn list_frame(sessions: &[(SessionKey, SessionState)]) -> String {
    ok_frame(|w| {
        w.key("sessions").begin_array();
        for ((tenant, session), state) in sessions {
            w.begin_object();
            w.key("tenant").str(tenant);
            w.key("session").str(session);
            w.key("state").str(state.name());
            w.end_object();
        }
        w.end_array();
    })
}

/// An event frame wrapping one streamed `TraceEvent`.
pub fn event_frame(event: &TraceEvent) -> String {
    ok_frame(|w| event.write_json(w.key("event")))
}

/// Whether a response frame reports success (`"ok": true`). Unparsable
/// frames count as failures.
pub fn frame_is_ok(line: &str) -> bool {
    json::parse(line)
        .ok()
        .and_then(|doc| doc.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

/// Whether a response frame is a streamed event frame (as opposed to an
/// ack or a terminal frame).
pub fn frame_is_event(line: &str) -> bool {
    json::parse(line)
        .ok()
        .is_some_and(|doc| doc.get("event").is_some())
}

/// The terminal frame of a successful `wait`/waiting `submit`.
pub fn finished_frame(result: &SessionResult) -> String {
    ok_frame(|w| {
        w.key("state").str("finished");
        result.write_json(w.key("result"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Problem;
    use hls_model::benchmarks::Benchmark;

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request(r#"{"cmd": "ping"}"#).unwrap(), Request::Ping);
        // What `Request::to_json` writes is the compact spelling of the same
        // line (the fuzz suite in `tests/parsers.rs` round-trips every kind).
        assert_eq!(Request::Ping.to_json(), r#"{"cmd":"ping"}"#);
        assert_eq!(parse_request(r#"{"cmd": "list"}"#).unwrap(), Request::List);
        assert_eq!(
            parse_request(r#"{"cmd": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        let req = parse_request(
            r#"{"cmd": "submit", "wait": true, "job": {"tenant": "t", "session": "s", "benchmark": "GEMM", "iters": 3}}"#,
        )
        .unwrap();
        match req {
            Request::Submit { spec, wait, stream } => {
                assert_eq!(spec.tenant, "t");
                assert_eq!(spec.problem, Problem::Benchmark(Benchmark::Gemm));
                assert_eq!(spec.iters, 3);
                assert!(wait);
                assert!(!stream);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"cmd": "status", "tenant": "t", "session": "s"}"#).unwrap(),
            Request::Status {
                tenant: "t".into(),
                session: "s".into()
            }
        );
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"cmd": "frobnicate"}"#,
            r#"{"cmd": "submit"}"#,
            r#"{"cmd": "status", "tenant": "t"}"#,
            r#"{"cmd": "submit", "job": {"tenant": "t", "session": "s", "benchmark": "GEMM", "iters": 0}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn frames_are_compact_and_parsable() {
        let err = ServeError::AdmissionRejected { active: 4, cap: 4 };
        let frame = error_frame(&err);
        let doc = json::parse(&frame).unwrap();
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
        let e = doc.get("error").unwrap();
        assert_eq!(
            e.get("kind").and_then(JsonValue::as_str),
            Some("admission-rejected")
        );
        assert_eq!(e.get("active").and_then(JsonValue::as_usize), Some(4));
        assert_eq!(e.get("cap").and_then(JsonValue::as_usize), Some(4));

        assert_eq!(ok_frame(|_| {}), r#"{"ok":true}"#);
        assert_eq!(
            state_frame(&SessionState::Queued),
            r#"{"ok":true,"state":"queued"}"#
        );
        let failed = SessionState::Failed {
            message: "a \"quoted\" reason".into(),
        };
        assert_eq!(
            state_frame(&failed),
            r#"{"ok":true,"state":"failed","message":"a \"quoted\" reason"}"#
        );
        let rows = [
            (("t".to_string(), "a".to_string()), SessionState::Running),
            (("t".to_string(), "b".to_string()), SessionState::Finished),
        ];
        assert_eq!(
            list_frame(&rows),
            r#"{"ok":true,"sessions":[{"tenant":"t","session":"a","state":"running"},{"tenant":"t","session":"b","state":"finished"}]}"#
        );
        assert_eq!(list_frame(&[]), r#"{"ok":true,"sessions":[]}"#);

        let event = TraceEvent::StepStarted {
            step: 1,
            observed: [8, 5, 3],
        };
        let ev = event_frame(&event);
        assert_eq!(ev, format!(r#"{{"ok":true,"event":{}}}"#, event.to_json()));
        assert!(frame_is_ok(&ev) && frame_is_event(&ev));

        let result = SessionResult {
            evaluated: 2,
            sim_seconds_bits: 7,
            pareto_bits: vec![[1, 2, 3]],
        };
        let done = finished_frame(&result);
        assert!(frame_is_ok(&done) && !frame_is_event(&done));
        let doc = json::parse(&done).unwrap();
        assert_eq!(
            SessionResult::from_json(doc.get("result").unwrap()).unwrap(),
            result
        );
    }
}
