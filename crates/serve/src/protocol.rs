//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Grammar (one request object per line, one response object per
//! line; all tokens are opaque strings):
//!
//! ```text
//! request  := hello | submit | status | poll | result | cancel
//!           | suspend | resume | stats | shutdown
//! hello    := {"op":"hello","admin":TOK,"tenant":{"name":S,
//!              "weight"?:N,"max_queued"?:N,"max_shards"?:N,
//!              "scenario_budget"?:N}}
//! submit   := {"op":"submit","tenant":TOK,"job":JOBSPEC}
//! status   := {"op":"status","tenant":TOK,"job":TOK}
//! poll     := {"op":"poll","tenant":TOK,"job":TOK,"from"?:N}
//! result   := {"op":"result","tenant":TOK,"job":TOK}   (blocks)
//! cancel   := {"op":"cancel","tenant":TOK,"job":TOK}
//! suspend  := {"op":"suspend","tenant":TOK,"job":TOK}
//! resume   := {"op":"resume","tenant":TOK,"job":TOK}
//! stats    := {"op":"stats","admin":TOK}
//! shutdown := {"op":"shutdown","admin":TOK}
//!
//! response := {"ok":true, ...} | {"ok":false,"code":C,"error":S}
//! ```
//!
//! `JOBSPEC` may carry an optional `"monitors"` string — a
//! [`ams_monitor::MonitorSpec`] property list whose channels name
//! circuit nodes. Monitored jobs fold the spec text into their job
//! fingerprint (topology caching still keys on the circuit alone), and
//! `status`/`poll` responses gain a `"monitors"` object with running
//! `pass`/`fail`/`vacuous` verdict counts. `stats` returns the whole
//! metrics registry grouped as `counters`/`gauges`/`histograms` in
//! stable name order.
//!
//! Failure codes are [`ServeError::code`] values (`auth`,
//! `backpressure`, `quota`, `invalid`, `shutdown`, `failed`,
//! `cancelled`, `sweep`, `too_large`). The handler is a pure
//! request→response function over a [`ServeHandle`], so the whole
//! protocol is testable without a socket; [`crate::daemon`] adds the
//! TCP framing. A request line longer than
//! [`MAX_LINE`](crate::daemon::MAX_LINE) bytes (newline excluded) is
//! never buffered whole: the daemon answers it once with `too_large`,
//! counts `serve.conn.too_large` and closes the connection.

use crate::handle::{JobStatus, ServeHandle};
use crate::model::JobSpec;
use crate::sched::TenantConfig;
use crate::ServeError;
use ams_sweep::json::{parse, report_to_json, Json};

/// Outcome of one request: the response line, plus whether the request
/// asked the daemon to shut down (the transport acts on it after
/// sending the response).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Rendered response object (no trailing newline).
    pub line: String,
    /// `true` for an authorized `shutdown` request.
    pub shutdown: bool,
}

impl Reply {
    fn ok(mut fields: Vec<(String, Json)>) -> Reply {
        let mut all = vec![("ok".to_string(), Json::Bool(true))];
        all.append(&mut fields);
        Reply {
            line: Json::Obj(all).render(),
            shutdown: false,
        }
    }

    pub(crate) fn err(e: &ServeError) -> Reply {
        Reply {
            line: Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("code".into(), Json::Str(e.code().into())),
                ("error".into(), Json::Str(e.to_string())),
            ])
            .render(),
            shutdown: false,
        }
    }
}

fn status_fields(status: &JobStatus) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("state".to_string(), Json::Str(status.state.tag().into())),
        (
            "completed".to_string(),
            Json::from_u64(status.completed as u64),
        ),
        ("total".to_string(), Json::from_u64(status.total as u64)),
    ];
    if let Some(m) = &status.monitors {
        fields.push((
            "monitors".to_string(),
            Json::Obj(vec![
                ("pass".into(), Json::from_u64(m.pass)),
                ("fail".into(), Json::from_u64(m.fail)),
                ("vacuous".into(), Json::from_u64(m.vacuous)),
            ]),
        ));
    }
    if let crate::handle::JobState::Failed(msg) = &status.state {
        fields.push(("error".to_string(), Json::Str(msg.clone())));
    }
    fields
}

/// Handles one request line against the service. Malformed JSON and
/// unknown ops produce `{"ok":false,...}` responses, never panics —
/// the daemon must survive hostile input.
pub fn handle_request(handle: &ServeHandle, line: &str) -> Reply {
    match dispatch(handle, line) {
        Ok(reply) => reply,
        Err(e) => Reply::err(&e),
    }
}

fn dispatch(handle: &ServeHandle, line: &str) -> Result<Reply, ServeError> {
    let req = parse(line).map_err(ServeError::Invalid)?;
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::invalid("request needs an \"op\""))?;
    let tok = |key: &str| {
        req.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::invalid(format!("{op:?} needs a {key:?} token")))
    };
    match op {
        "hello" => {
            let admin = tok("admin")?;
            let t = req
                .get("tenant")
                .ok_or_else(|| ServeError::invalid("hello needs a \"tenant\" object"))?;
            let name = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ServeError::invalid("tenant needs a \"name\""))?;
            let mut config = TenantConfig::named(name);
            if let Some(w) = t.get("weight").and_then(Json::as_u64) {
                config.weight = w;
            }
            if let Some(q) = t.get("max_queued").and_then(Json::as_usize) {
                config.max_queued = q;
            }
            if let Some(s) = t.get("max_shards").and_then(Json::as_usize) {
                config.max_concurrent_shards = s;
            }
            if let Some(b) = t.get("scenario_budget").and_then(Json::as_u64) {
                config.scenario_budget = b;
            }
            let token = handle.register_tenant(&admin, config)?;
            Ok(Reply::ok(vec![("tenant_token".into(), Json::Str(token))]))
        }
        "submit" => {
            let tenant = tok("tenant")?;
            let job = JobSpec::from_json(
                req.get("job")
                    .ok_or_else(|| ServeError::invalid("submit needs a \"job\""))?,
            )?;
            let scenarios = job.scenario_count() as u64;
            // Topology identity, deliberately distinct from job identity:
            // two jobs that differ only in monitor specs share cached
            // factorisations, and this field advertises that sharing.
            let fingerprint = job.circuit.fingerprint();
            let token = handle.submit(&tenant, job)?;
            Ok(Reply::ok(vec![
                ("job_token".into(), Json::Str(token)),
                ("scenarios".into(), Json::from_u64(scenarios)),
                ("topology".into(), Json::Str(format!("{fingerprint:016x}"))),
            ]))
        }
        "status" => {
            let status = handle.status(&tok("tenant")?, &tok("job")?)?;
            Ok(Reply::ok(status_fields(&status)))
        }
        "poll" => {
            let from = req.get("from").and_then(Json::as_usize).unwrap_or(0);
            let (events, status) = handle.poll(&tok("tenant")?, &tok("job")?, from)?;
            let mut fields = vec![(
                "events".to_string(),
                Json::Arr(
                    events
                        .into_iter()
                        .map(|(index, row)| {
                            Json::Obj(vec![
                                ("index".into(), Json::from_u64(index as u64)),
                                (
                                    "metrics".into(),
                                    Json::Arr(row.iter().map(|v| Json::from_f64(*v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )];
            fields.extend(status_fields(&status));
            Ok(Reply::ok(fields))
        }
        "result" => {
            let report = handle.wait(&tok("tenant")?, &tok("job")?)?;
            Ok(Reply::ok(vec![
                (
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", report.fingerprint())),
                ),
                ("report".into(), report_to_json(&report)),
            ]))
        }
        "cancel" => {
            handle.cancel(&tok("tenant")?, &tok("job")?)?;
            Ok(Reply::ok(Vec::new()))
        }
        "suspend" => {
            handle.suspend(&tok("tenant")?, &tok("job")?)?;
            Ok(Reply::ok(Vec::new()))
        }
        "resume" => {
            handle.resume(&tok("tenant")?, &tok("job")?)?;
            Ok(Reply::ok(Vec::new()))
        }
        "stats" => {
            if tok("admin")? != handle.admin_token() {
                return Err(ServeError::Auth);
            }
            // The whole registry, grouped by kind in name order —
            // every counter, gauge and full histogram summary, not a
            // hand-picked subset.
            let metrics = handle.metrics();
            Ok(Reply::ok(vec![(
                "metrics".into(),
                ams_sweep::json::metrics_to_json(&metrics),
            )]))
        }
        "shutdown" => {
            if tok("admin")? != handle.admin_token() {
                return Err(ServeError::Auth);
            }
            handle.shutdown();
            Ok(Reply {
                line: Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("draining".into(), Json::Bool(true)),
                ])
                .render(),
                shutdown: true,
            })
        }
        other => Err(ServeError::invalid(format!("unknown op {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ServeConfig;

    fn service() -> (ServeHandle, String, String) {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: Vec::new(),
            ..ServeConfig::default()
        });
        let admin = handle.admin_token().to_string();
        let hello = format!(r#"{{"op":"hello","admin":"{admin}","tenant":{{"name":"lab"}}}}"#);
        let reply = handle_request(&handle, &hello);
        let token = parse(&reply.line)
            .unwrap()
            .get("tenant_token")
            .and_then(Json::as_str)
            .expect("tenant token")
            .to_string();
        (handle, admin, token)
    }

    #[test]
    fn submit_poll_result_round_trip() {
        let (handle, _admin, tenant) = service();
        let job_json = JobSpec::demo_rc(3, 0x77).to_json().render();
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"submit","tenant":"{tenant}","job":{job_json}}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(true), "{obj:?}");
        let job = obj
            .get("job_token")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(obj.get("scenarios").and_then(Json::as_u64), Some(3));

        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"result","tenant":"{tenant}","job":"{job}"}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(true));
        let wire_fp = obj.get("fingerprint").and_then(Json::as_str).unwrap();
        let report =
            ams_sweep::json::report_from_json(obj.get("report").unwrap()).expect("valid report");
        assert_eq!(format!("{:016x}", report.fingerprint()), wire_fp);
        assert_eq!(report.scenarios.len(), 3);

        // Poll after completion replays the full stream.
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"poll","tenant":"{tenant}","job":"{job}","from":"1"}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("events").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(obj.get("state").and_then(Json::as_str), Some("done"));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn monitored_jobs_surface_verdict_counts_and_full_stats() {
        let (handle, admin, tenant) = service();
        let job_json = JobSpec::demo_rc_monitored(4, 0x51).to_json().render();
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"submit","tenant":"{tenant}","job":{job_json}}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(true), "{obj:?}");
        let job = obj
            .get("job_token")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // The topology field advertises the *circuit* identity, which
        // an unmonitored job over the same netlist shares.
        assert_eq!(
            obj.get("topology").and_then(Json::as_str).unwrap(),
            format!("{:016x}", JobSpec::demo_rc(4, 0x51).circuit.fingerprint())
        );

        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"result","tenant":"{tenant}","job":"{job}"}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        let report =
            ams_sweep::json::report_from_json(obj.get("report").unwrap()).expect("valid report");
        assert_eq!(report.monitor_names.len(), 3);

        // Status carries the verdict tallies.
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"status","tenant":"{tenant}","job":"{job}"}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        let monitors = obj.get("monitors").expect("monitored status object");
        let total = ["pass", "fail", "vacuous"]
            .iter()
            .map(|k| monitors.get(k).and_then(Json::as_u64).unwrap())
            .sum::<u64>();
        assert_eq!(total, 4 * 3);

        // Stats exports the whole registry, grouped and ordered.
        let reply = handle_request(&handle, &format!(r#"{{"op":"stats","admin":"{admin}"}}"#));
        let obj = parse(&reply.line).unwrap();
        let metrics = obj.get("metrics").expect("metrics object");
        let counters = metrics.get("counters").expect("counters group");
        assert_eq!(
            counters.get("serve.monitor.jobs").and_then(Json::as_u64),
            Some(1)
        );
        let monitor_total = ["pass", "fail", "vacuous"]
            .iter()
            .map(|k| {
                counters
                    .get(&format!("serve.monitor.{k}"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            })
            .sum::<u64>();
        assert_eq!(monitor_total, 4 * 3);
        assert!(metrics.get("gauges").is_some());
        assert!(metrics.get("histograms").is_some());
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn suspend_and_resume_ops_are_wired() {
        let (handle, _admin, tenant) = service();
        let job_json = JobSpec::demo_rc(2, 3).to_json().render();
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"submit","tenant":"{tenant}","job":{job_json}}}"#),
        );
        let job = parse(&reply.line)
            .unwrap()
            .get("job_token")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // Block until done, then exercise the verbs: suspending a done
        // job is a no-op success, resuming one is an invalid request.
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"result","tenant":"{tenant}","job":"{job}"}}"#),
        );
        assert!(reply.line.contains("\"ok\":true"));
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"suspend","tenant":"{tenant}","job":"{job}"}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(true));
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"resume","tenant":"{tenant}","job":"{job}"}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(obj.get("code").and_then(Json::as_str), Some("invalid"));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn hostile_input_gets_error_responses() {
        let (handle, admin, tenant) = service();
        for bad in [
            "not json at all",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"submit","tenant":"forged-token","job":{}}"#,
            r#"{"op":"shutdown","admin":"wrong"}"#,
        ] {
            let reply = handle_request(&handle, bad);
            let obj = parse(&reply.line).expect("error replies are valid JSON");
            assert_eq!(obj.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(!reply.shutdown);
        }
        // A forged tenant token is an auth failure, not a parse failure.
        let job_json = JobSpec::demo_rc(1, 0).to_json().render();
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"submit","tenant":"tenant-bad","job":{job_json}}}"#),
        );
        let obj = parse(&reply.line).unwrap();
        assert_eq!(obj.get("code").and_then(Json::as_str), Some("auth"));
        let _ = tenant;
        // Authorized shutdown flips the flag.
        let reply = handle_request(
            &handle,
            &format!(r#"{{"op":"shutdown","admin":"{admin}"}}"#),
        );
        assert!(reply.shutdown);
        handle.join();
    }
}
