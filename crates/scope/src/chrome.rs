//! Chrome `trace_event` export (Perfetto / `chrome://tracing`).
//!
//! The export is an array-of-events JSON document in the Trace Event
//! Format: `"B"`/`"E"` duration events, `"i"` instants, and `"M"`
//! metadata events naming the tracks. Each tracer becomes one *thread*
//! track (`tid`), grouped into a *process* (`pid`) per worker or shard,
//! so a span is always attributed to the worker that executed it; in
//! sweep runs every event inside a [`SpanKind::Scenario`] span
//! additionally carries the scenario index in its `args`.
//!
//! **Timestamps are simulated time**, converted from femtoseconds to
//! the format's microseconds with exact integer arithmetic — no wall
//! clock, no floats — so the same run (same seed, same worker count)
//! exports a **byte-identical** file. Wall-time profiling lives in
//! [`ScopeReport`](crate::ScopeReport) instead.

use crate::json::JsonStr;
use crate::{Phase, ScopeTrace, SpanKind};
use std::fmt::Write;

/// Serializes a trace to Chrome `trace_event` JSON (one event per
/// line). Deterministic: track order and event order are preserved,
/// timestamps are simulated time only.
pub fn export(trace: &ScopeTrace) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut processes: Vec<&str> = Vec::new();

    for (ti, track) in trace.tracks.iter().enumerate() {
        let pid = match processes.iter().position(|p| *p == track.process) {
            Some(i) => i + 1,
            None => {
                processes.push(&track.process);
                let pid = processes.len();
                push_meta(&mut out, &mut first, "process_name", pid, 0, &track.process);
                pid
            }
        };
        let tid = trace.tracks[..ti]
            .iter()
            .filter(|t| t.process == track.process)
            .count();
        push_meta(&mut out, &mut first, "thread_name", pid, tid, &track.thread);

        // (scenario index, lane width); scalar spans decode to width 1.
        let mut scenario: Option<(u64, usize)> = None;
        for ev in &track.events {
            if ev.kind == SpanKind::Scenario {
                match ev.phase {
                    Phase::Begin => scenario = Some(crate::tracer::scenario_arg_parts(ev.arg)),
                    Phase::End => {}
                    Phase::Instant => {}
                }
            }
            sep(&mut out, &mut first);
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}",
                JsonStr(ev.kind.name()),
                fs_to_us(ev.t_sim_fs),
            );
            if ev.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let arg = (ev.phase != Phase::End && ev.arg != 0 && ev.kind != SpanKind::Scenario)
                .then_some(ev.arg);
            if scenario.is_some() || arg.is_some() {
                out.push_str(",\"args\":{");
                if let Some((s, lanes)) = scenario {
                    let _ = write!(out, "\"scenario\":{s}");
                    if lanes > 1 {
                        // Lane-bundled span: the index is the bundle's
                        // first scenario; `lanes` scenarios share it.
                        let _ = write!(out, ",\"lanes\":{lanes}");
                    }
                    if arg.is_some() {
                        out.push(',');
                    }
                }
                if let Some(a) = arg {
                    let _ = write!(out, "\"arg\":{a}");
                }
                out.push('}');
            }
            out.push('}');
            if ev.kind == SpanKind::Scenario && ev.phase == Phase::End {
                scenario = None;
            }
        }
    }
    out.push_str("\n]\n");
    out
}

fn push_meta(out: &mut String, first: &mut bool, name: &str, pid: usize, tid: usize, value: &str) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\
         \"args\":{{\"name\":{}}}}}",
        JsonStr(value)
    );
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Femtoseconds → the format's microseconds, via exact integer
/// arithmetic (`fs / 1e9` with nine fractional digits).
fn fs_to_us(fs: u64) -> String {
    format!("{}.{:09}", fs / 1_000_000_000, fs % 1_000_000_000)
}

/// Checks that `json` is structurally a Chrome trace: an array of
/// objects, each carrying the required `ph`, `ts`, `pid` and `tid`
/// keys. Returns the number of events.
///
/// This is the Rust-side mirror of the CI schema check — a shape
/// validator, not a JSON parser: it splits top-level objects by brace
/// depth (string-aware) and checks the required keys appear in each.
///
/// # Errors
///
/// A description of the first structural violation.
pub fn validate(json: &str) -> Result<usize, String> {
    let body = json.trim();
    let body = body
        .strip_prefix('[')
        .ok_or("trace must be a JSON array")?
        .strip_suffix(']')
        .ok_or("unterminated JSON array")?;

    let mut count = 0usize;
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| format!("unbalanced braces at byte {i}"))?;
                if depth == 0 {
                    let obj = &body[start.take().ok_or("object without start")?..=i];
                    for key in ["\"ph\"", "\"ts\"", "\"pid\"", "\"tid\""] {
                        if !obj.contains(key) {
                            return Err(format!("event {count} is missing {key}: {obj}"));
                        }
                    }
                    count += 1;
                }
            }
            ',' | '\n' | '\r' | ' ' | '\t' => {}
            other if depth == 0 => {
                return Err(format!("unexpected character {other:?} between events"));
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("truncated event object".into());
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_trace() -> ScopeTrace {
        let mut coord = Tracer::on();
        coord.begin(SpanKind::ClusterIteration, 0);
        coord.instant(SpanKind::DeltaCycle, 500_000, 2);
        coord.end(SpanKind::ClusterIteration, 1_000_000_000);
        let mut worker = Tracer::on();
        worker.begin_with(SpanKind::Scenario, 0, 7);
        worker.begin(SpanKind::MnaFactor, 0);
        worker.end(SpanKind::MnaFactor, 0);
        worker.end(SpanKind::Scenario, 2_000_000_000);
        let mut trace = ScopeTrace::new();
        trace.add_track("coordinator", "exec", coord.take_events());
        trace.add_track("worker-0", "scenarios", worker.take_events());
        trace
    }

    #[test]
    fn export_validates_and_counts_all_events() {
        let trace = sample_trace();
        let json = export(&trace);
        // 4 metadata (2 processes + 2 threads) + 7 events.
        assert_eq!(validate(&json).unwrap(), 4 + trace.event_count());
    }

    #[test]
    fn timestamps_are_simulated_microseconds() {
        let json = export(&sample_trace());
        // 1_000_000_000 fs = 1 µs; 500_000 fs = 0.0005 µs.
        assert!(json.contains("\"ts\":1.000000000"), "{json}");
        assert!(json.contains("\"ts\":0.000500000"), "{json}");
    }

    #[test]
    fn scenario_spans_attribute_their_contents() {
        let json = export(&sample_trace());
        // The Scenario begin and the nested factor span both carry the
        // scenario index.
        let factor_line = json
            .lines()
            .find(|l| l.contains("mna.factor") && l.contains("\"ph\":\"B\""))
            .expect("factor begin present");
        assert!(factor_line.contains("\"scenario\":7"), "{factor_line}");
        let scenario_line = json
            .lines()
            .find(|l| l.contains("sweep.scenario") && l.contains("\"ph\":\"B\""))
            .expect("scenario begin present");
        assert!(scenario_line.contains("\"scenario\":7"), "{scenario_line}");
    }

    #[test]
    fn lane_scenario_spans_carry_the_width() {
        let mut t = Tracer::on();
        t.begin_with(SpanKind::Scenario, 0, crate::scenario_arg(12, 8));
        t.begin(SpanKind::MnaSolve, 0);
        t.end(SpanKind::MnaSolve, 0);
        t.end(SpanKind::Scenario, 1);
        let mut trace = ScopeTrace::new();
        trace.add_track("shard-0", "scenarios", t.take_events());
        let json = export(&trace);
        let begin = json
            .lines()
            .find(|l| l.contains("sweep.scenario") && l.contains("\"ph\":\"B\""))
            .expect("scenario begin");
        assert!(begin.contains("\"scenario\":12"), "{begin}");
        assert!(begin.contains("\"lanes\":8"), "{begin}");
        // The nested solver span inherits both attributions.
        let solve = json
            .lines()
            .find(|l| l.contains("mna.solve") && l.contains("\"ph\":\"B\""))
            .expect("solve begin");
        assert!(solve.contains("\"scenario\":12") && solve.contains("\"lanes\":8"));
        validate(&json).unwrap();
    }

    #[test]
    fn scalar_scenario_spans_export_unchanged() {
        // A plain-index arg must not grow a "lanes" key.
        let json = export(&sample_trace());
        assert!(!json.contains("\"lanes\""), "{json}");
    }

    #[test]
    fn tracks_map_to_processes_and_threads() {
        let json = export(&sample_trace());
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("{\"name\":\"coordinator\"}"));
        assert!(json.contains("{\"name\":\"worker-0\"}"));
        assert!(json.contains("{\"name\":\"scenarios\"}"));
        // Second process gets pid 2.
        assert!(json.contains("\"pid\":2"));
    }

    #[test]
    fn track_names_are_json_escaped() {
        let mut trace = ScopeTrace::new();
        trace.add_track("a\"b", "c\nd\u{1}", Vec::new());
        let json = export(&trace);
        assert!(json.contains(r#"{"name":"a\"b"}"#), "{json}");
        assert!(json.contains(r#"{"name":"c\nd\u0001"}"#), "{json}");
        assert_eq!(validate(&json).unwrap(), 2);
    }

    #[test]
    fn export_is_deterministic() {
        // Same logical events, separate tracers (different wall times):
        // identical bytes.
        let a = export(&sample_trace());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = export(&sample_trace());
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("[{\"ph\":\"B\"}]").is_err()); // missing ts/pid/tid
        assert!(validate("[{\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0}").is_err());
        assert_eq!(validate("[]").unwrap(), 0);
        assert_eq!(
            validate("[{\"ph\":\"i\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"name\":\"x\"}]").unwrap(),
            1
        );
    }

    #[test]
    fn empty_trace_exports_an_empty_array() {
        let json = export(&ScopeTrace::new());
        assert_eq!(validate(&json).unwrap(), 0);
    }
}
