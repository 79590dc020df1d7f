//! Client for the simulation service daemon.
//!
//! Registers a tenant, submits the demo Monte-Carlo RC-ladder job, and
//! streams results. With `--parity` it runs the full acceptance check
//! for the warm topology cache:
//!
//! 1. run the job *directly* in-process (no daemon, no cache) at 1 and
//!    4 workers — the reference fingerprints;
//! 2. submit the same job to the daemon twice — a cold run (populates
//!    the cache) and a warm run (hits it);
//! 3. assert all four `SweepReport` fingerprints are bit-identical and
//!    that the warm run performed **zero** symbolic analyses and
//!    **zero** lint passes (from the daemon's `serve.*` metrics).
//!
//! With `--suspend-resume` it exercises suspend and resume over the
//! wire: submit a deliberately slow job, suspend it mid-run (the
//! daemon keeps the completed scenarios in the job's record), resume
//! it (only the unfinished scenarios run again), and assert the
//! stitched-together report's fingerprint is bit-identical to an
//! uninterrupted in-process run — with the `serve.checkpoint.*`
//! metrics confirming finished scenarios were actually kept and
//! restored.
//!
//! ```text
//! cargo run --release --example serve_client -- --addr HOST:PORT
//!     --admin TOKEN [--scenarios N] [--seed N] [--parity]
//!     [--suspend-resume] [--shutdown] [--lint-only]
//!     [--lint-space [RANGES]] [--monitor SPEC]
//! ```
//!
//! `--monitor SPEC` attaches an `ams-monitor` property list to the
//! submitted job (channels name the demo ladder's nodes `n1`…`n4`),
//! e.g. `--monitor 'over:overshoot(max=1.05)@n4;fin:finite()@n4'`.
//! The daemon validates the spec at submit, folds it into the job
//! fingerprint, and reports per-property verdict tallies which this
//! client prints alongside the result.
//!
//! `--lint-only` and `--lint-space` need no daemon (and no
//! `--addr`/`--admin`): they run the same checks the daemon's admission
//! gate applies to the demo job — concrete lint, or the interval pass
//! over the job's whole parameter box — and exit. A rejection printed
//! here is exactly what `submit` would answer.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use systemc_ams::sweep::json::{parse, Json};

const USAGE: &str = "cargo run --example serve_client -- --addr HOST:PORT --admin TOKEN \
                     [--scenarios N] [--seed N] [--parity] [--suspend-resume] \
                     [--shutdown] [--lint-only] [--lint-space [RANGES]] \
                     [--monitor SPEC]";

/// One newline-delimited JSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn request(&mut self, line: &str) -> Result<Json, Box<dyn std::error::Error>> {
        // One write per request: a newline sent on its own would wait
        // for the daemon's delayed acknowledgement of the line.
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        let obj = parse(reply.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
        if obj.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "request failed [{}]: {}",
                obj.get("code").and_then(Json::as_str).unwrap_or("?"),
                obj.get("error").and_then(Json::as_str).unwrap_or("?"),
            )
            .into());
        }
        Ok(obj)
    }

    fn submit(
        &mut self,
        tenant: &str,
        job: &systemc_ams::serve::JobSpec,
    ) -> Result<String, Box<dyn std::error::Error>> {
        let submit = format!(
            r#"{{"op":"submit","tenant":"{tenant}","job":{}}}"#,
            job.to_json().render()
        );
        let reply = self.request(&submit)?;
        Ok(reply
            .get("job_token")
            .and_then(Json::as_str)
            .ok_or("submit reply lacks job_token")?
            .to_string())
    }

    /// One `status` round-trip: (state tag, completed scenarios).
    fn status(
        &mut self,
        tenant: &str,
        token: &str,
    ) -> Result<(String, u64), Box<dyn std::error::Error>> {
        let reply = self.request(&format!(
            r#"{{"op":"status","tenant":"{tenant}","job":"{token}"}}"#
        ))?;
        let state = reply
            .get("state")
            .and_then(Json::as_str)
            .ok_or("status reply lacks state")?
            .to_string();
        let completed = reply.get("completed").and_then(Json::as_u64).unwrap_or(0);
        Ok((state, completed))
    }

    /// Blocks on `result` for an already-submitted job; returns the
    /// server's fingerprint string.
    fn result(&mut self, tenant: &str, token: &str) -> Result<String, Box<dyn std::error::Error>> {
        let reply = self.request(&format!(
            r#"{{"op":"result","tenant":"{tenant}","job":"{token}"}}"#
        ))?;
        // Round-trip the report (this also verifies its embedded
        // fingerprint) and cross-check the top-level field.
        let report = systemc_ams::sweep::json::report_from_json(
            reply.get("report").ok_or("result reply lacks report")?,
        )?;
        let fp = reply
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("result reply lacks fingerprint")?
            .to_string();
        assert_eq!(fp, format!("{:016x}", report.fingerprint()));
        Ok(fp)
    }

    /// Submits `job` and blocks for its report; returns the server's
    /// fingerprint string.
    fn run_job(
        &mut self,
        tenant: &str,
        job: &systemc_ams::serve::JobSpec,
    ) -> Result<String, Box<dyn std::error::Error>> {
        let token = self.submit(tenant, job)?;
        self.result(tenant, &token)
    }

    fn counter(&mut self, admin: &str, name: &str) -> Result<u64, Box<dyn std::error::Error>> {
        let reply = self.request(&format!(r#"{{"op":"stats","admin":"{admin}"}}"#))?;
        // `stats` groups the registry: counters, gauges, histograms.
        Ok(reply
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = String::new();
    let mut admin = String::new();
    let mut scenarios = 64usize;
    let mut seed = 0xF1u64;
    let mut parity = false;
    let mut suspend_resume = false;
    let mut shutdown = false;
    let mut lint_only = false;
    let mut lint_space = false;
    let mut space_ranges: Option<String> = None;
    let mut monitor_text: Option<String> = None;
    let (_scope, rest) = systemc_ams::scope::args::scope_args()?;
    let mut args = rest.into_iter().peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--admin" => admin = args.next().ok_or("--admin needs a token")?,
            "--scenarios" => {
                scenarios = args.next().ok_or("--scenarios needs a value")?.parse()?;
            }
            "--seed" => seed = args.next().ok_or("--seed needs a value")?.parse()?,
            "--parity" => parity = true,
            "--suspend-resume" => suspend_resume = true,
            "--shutdown" => shutdown = true,
            "--lint-only" => lint_only = true,
            "--lint-space" => {
                lint_space = true;
                // Optional NAME=LO:HI[,…] token; flags keep their `--`.
                if args.peek().is_some_and(|t| !t.starts_with("--")) {
                    space_ranges = args.next();
                }
            }
            "--monitor" => {
                monitor_text = Some(args.next().ok_or("--monitor needs a property spec")?);
            }
            other => return Err(format!("unknown argument {other:?}\nusage: {USAGE}").into()),
        }
    }

    let mut job = systemc_ams::serve::JobSpec::demo_rc(scenarios, seed);
    job.monitors = monitor_text;

    if lint_only || lint_space {
        let built = job.circuit.build()?;
        if lint_only {
            systemc_ams::lint::exit_lint_only(&[systemc_ams::lint::lint_circuit(
                "serve_client",
                &built.circuit,
            )]);
        }
        let mut sspec = job.space_spec();
        if let Some(s) = &space_ranges {
            sspec.ranges = systemc_ams::lint::space::parse_ranges(s)?;
        }
        systemc_ams::lint::exit_space_lint(&systemc_ams::lint::lint_space(
            "serve_client",
            &built.circuit,
            &sspec,
        ));
    }

    if addr.is_empty() || admin.is_empty() {
        return Err(format!("--addr and --admin are required\nusage: {USAGE}").into());
    }
    let mut client = Client::connect(&addr)?;
    let reply = client.request(&format!(
        r#"{{"op":"hello","admin":"{admin}","tenant":{{"name":"client","max_shards":"4","scenario_budget":"100000"}}}}"#
    ))?;
    let tenant = reply
        .get("tenant_token")
        .and_then(Json::as_str)
        .ok_or("hello reply lacks tenant_token")?
        .to_string();

    if parity {
        // References: direct in-process runs, no daemon involved.
        let direct1 = format!("{:016x}", job.direct_run(1)?.fingerprint());
        let direct4 = format!("{:016x}", job.direct_run(4)?.fingerprint());

        let lint_before = client.counter(&admin, "serve.lint.runs")?;
        let sym_before = client.counter(&admin, "serve.lu.symbolic_analyses")?;
        let cold = client.run_job(&tenant, &job)?;
        let sym_after_cold = client.counter(&admin, "serve.lu.symbolic_analyses")?;
        let lint_after_cold = client.counter(&admin, "serve.lint.runs")?;
        let warm = client.run_job(&tenant, &job)?;
        let sym_after_warm = client.counter(&admin, "serve.lu.symbolic_analyses")?;
        let lint_after_warm = client.counter(&admin, "serve.lint.runs")?;

        println!("direct@1 {direct1}\ndirect@4 {direct4}\ncold     {cold}\nwarm     {warm}");
        if !(direct1 == direct4 && direct1 == cold && cold == warm) {
            return Err("fingerprint parity FAILED".into());
        }
        if sym_after_cold == sym_before {
            return Err("cold run performed no symbolic analysis — check is vacuous".into());
        }
        if sym_after_warm != sym_after_cold {
            return Err(format!(
                "warm run performed {} symbolic analyses (want 0)",
                sym_after_warm - sym_after_cold
            )
            .into());
        }
        if lint_after_warm != lint_after_cold || lint_after_cold != lint_before + 1 {
            return Err("lint pass accounting FAILED (want exactly 1 cold lint, 0 warm)".into());
        }
        println!("parity OK: warm cache is bit-identical with 0 symbolic analyses, 0 lint passes");
    } else if suspend_resume {
        // A deliberately slow variant of the demo job (100× finer step)
        // so the suspend lands while scenarios are still pending.
        let mut slow = job.clone();
        slow.h /= 100.0;
        let direct = format!("{:016x}", slow.direct_run(2)?.fingerprint());

        let stored_before = client.counter(&admin, "serve.checkpoint.stored")?;
        let token = client.submit(&tenant, &slow)?;
        // Let at least one scenario land so there is something to
        // checkpoint, then ask for suspension.
        loop {
            let (state, completed) = client.status(&tenant, &token)?;
            if completed >= 1 || state == "done" {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        client.request(&format!(
            r#"{{"op":"suspend","tenant":"{tenant}","job":"{token}"}}"#
        ))?;
        let suspended = loop {
            let (state, completed) = client.status(&tenant, &token)?;
            match state.as_str() {
                "suspended" => break true,
                // The job beat the suspension to the finish line;
                // nothing was checkpointed, which is a legal outcome —
                // rerun with more --scenarios to widen the window.
                "done" => break false,
                _ => {
                    println!("waiting: {state}, {completed} scenarios done");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            }
        };
        if suspended {
            let stored = client.counter(&admin, "serve.checkpoint.stored")?;
            if stored != stored_before + 1 {
                return Err("suspension stored no checkpoint".into());
            }
            let restored_before = client.counter(&admin, "serve.checkpoint.restored")?;
            client.request(&format!(
                r#"{{"op":"resume","tenant":"{tenant}","job":"{token}"}}"#
            ))?;
            let fp = client.result(&tenant, &token)?;
            let restored = client.counter(&admin, "serve.checkpoint.restored")?;
            println!("direct   {direct}\nresumed  {fp}");
            if fp != direct {
                return Err("suspend/resume fingerprint parity FAILED".into());
            }
            if restored != restored_before + 1 {
                return Err("resume restored no checkpoint".into());
            }
            let n = client.counter(&admin, "serve.checkpoint.scenarios_restored")?;
            println!(
                "suspend/resume OK: resumed report is bit-identical \
                 ({n} scenarios served from the checkpoint so far)"
            );
        } else {
            let fp = client.result(&tenant, &token)?;
            println!("job finished before suspension landed, fingerprint {fp}");
        }
    } else {
        let token = client.submit(&tenant, &job)?;
        let reply = client.request(&format!(
            r#"{{"op":"result","tenant":"{tenant}","job":"{token}"}}"#
        ))?;
        let report = systemc_ams::sweep::json::report_from_json(
            reply.get("report").ok_or("result reply lacks report")?,
        )?;
        println!("job complete, fingerprint {:016x}", report.fingerprint());
        if !report.monitor_names.is_empty() {
            for s in report.monitor_summary() {
                println!(
                    "monitor {}: {} pass, {} fail, {} vacuous",
                    s.name, s.pass, s.fail, s.vacuous
                );
            }
            println!(
                "yield: {}/{} scenarios pass all properties",
                report.passing_scenarios(),
                report.scenarios.len()
            );
            let monitored_jobs = client.counter(&admin, "serve.monitor.jobs")?;
            println!("daemon has served {monitored_jobs} monitored job(s)");
        }
    }

    if shutdown {
        client.request(&format!(r#"{{"op":"shutdown","admin":"{admin}"}}"#))?;
        println!("daemon draining");
    }
    Ok(())
}
