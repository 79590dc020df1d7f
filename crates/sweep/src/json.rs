//! Std-only JSON serialization for sweep specs and reports.
//!
//! The build environment has no `serde`, so this module carries a
//! minimal JSON value type ([`Json`]) with a recursive-descent parser
//! and a deterministic compact writer, plus the mappings for
//! [`SweepSpec`] and [`SweepReport`]. It is the substrate of the
//! `ams-serve` wire protocol and of examples that dump reports to disk.
//!
//! # Encoding conventions
//!
//! * `u64` fields (seeds, counters) are emitted as **decimal strings**,
//!   not JSON numbers — JSON numbers travel as `f64` and lose precision
//!   above 2⁵³, and seeds must round-trip bit-exactly.
//! * `f64` values are emitted with Rust's shortest round-trip formatting
//!   (so `parse ∘ emit` is the identity on finite values); the
//!   non-finite values JSON cannot express are encoded as the strings
//!   `"NaN"`, `"inf"` and `"-inf"`.
//! * Object keys are written in a fixed order, so emission is
//!   byte-deterministic for a given value.

use crate::report::{ScenarioResult, SweepReport};
use crate::spec::SweepSpec;
use crate::SweepError;
use ams_core::ClusterStats;
use ams_exec::ExecStats;
use ams_math::SolveStats;
use ams_monitor::{codes as mon_codes, Verdict};
use ams_scope::json::JsonStr;
use std::fmt::Write as _;
use std::time::Duration;

/// A JSON document: the usual six value kinds. Objects preserve
/// insertion order so rendering is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs (later duplicates win on
    /// lookup, but the builders here never emit duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An `f64` under the conventions above: a JSON number, or one of
    /// the strings `"NaN"` / `"inf"` / `"-inf"`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// A `u64` under the conventions above: a decimal string (exact), or
    /// a JSON number with an exact integer value (convenience for
    /// hand-written requests).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.parse().ok(),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// A `usize` (same lexical forms as [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Wraps an `f64` under the encoding conventions (non-finite values
    /// become strings).
    pub fn from_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else if v.is_nan() {
            Json::Str("NaN".into())
        } else if v > 0.0 {
            Json::Str("inf".into())
        } else {
            Json::Str("-inf".into())
        }
    }

    /// Wraps a `u64` as a decimal string (exact at any magnitude).
    pub fn from_u64(v: u64) -> Json {
        Json::Str(v.to_string())
    }

    /// Renders the value as compact JSON (no whitespace), with the
    /// fixed field order of the underlying object — byte-deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                // Shortest round-trip decimal; JSON has no Infinity/NaN
                // (those are encoded as strings by `from_f64`).
                debug_assert!(v.is_finite(), "non-finite Num: use from_f64");
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => {
                let _ = write!(out, "{}", JsonStr(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:", JsonStr(k));
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A rendered message with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy runs of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // protocol; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape \\{} at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SweepSpec ↔ JSON
// ---------------------------------------------------------------------------

/// Serializes a spec: parameter names, base seed and every scenario's
/// `(index, seed, values)` — explicit rather than re-derivable, so
/// filtered specs ([`SweepSpec::retain`]) round-trip too.
pub fn spec_to_json(spec: &SweepSpec) -> Json {
    let scenarios = spec
        .scenarios()
        .iter()
        .map(|sc| {
            Json::Obj(vec![
                ("index".into(), Json::from_u64(sc.index() as u64)),
                ("seed".into(), Json::from_u64(sc.seed())),
                (
                    "values".into(),
                    Json::Arr(sc.values().iter().map(|&v| Json::from_f64(v)).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "names".into(),
            Json::Arr(spec.names().iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        ("base_seed".into(), Json::from_u64(spec.base_seed())),
        ("scenarios".into(), Json::Arr(scenarios)),
    ])
}

fn field<'j>(value: &'j Json, key: &str) -> Result<&'j Json, SweepError> {
    value
        .get(key)
        .ok_or_else(|| SweepError::invalid(format!("missing field {key:?}")))
}

fn parse_f64(value: &Json, what: &str) -> Result<f64, SweepError> {
    value
        .as_f64()
        .ok_or_else(|| SweepError::invalid(format!("{what} is not a number")))
}

fn parse_u64(value: &Json, what: &str) -> Result<u64, SweepError> {
    value
        .as_u64()
        .ok_or_else(|| SweepError::invalid(format!("{what} is not a u64")))
}

fn parse_strings(value: &Json, what: &str) -> Result<Vec<String>, SweepError> {
    value
        .as_arr()
        .ok_or_else(|| SweepError::invalid(format!("{what} is not an array")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| SweepError::invalid(format!("{what} entry is not a string")))
        })
        .collect()
}

fn parse_f64s(value: &Json, what: &str) -> Result<Vec<f64>, SweepError> {
    value
        .as_arr()
        .ok_or_else(|| SweepError::invalid(format!("{what} is not an array")))?
        .iter()
        .map(|v| parse_f64(v, what))
        .collect()
}

/// Reconstructs a spec serialized by [`spec_to_json`].
///
/// # Errors
///
/// [`SweepError::Invalid`] for missing fields, shape mismatches or an
/// empty scenario list.
pub fn spec_from_json(value: &Json) -> Result<SweepSpec, SweepError> {
    let names = parse_strings(field(value, "names")?, "names")?;
    let base_seed = parse_u64(field(value, "base_seed")?, "base_seed")?;
    let mut parts = Vec::new();
    for sc in field(value, "scenarios")?
        .as_arr()
        .ok_or_else(|| SweepError::invalid("scenarios is not an array"))?
    {
        let index = parse_u64(field(sc, "index")?, "scenario index")? as usize;
        let seed = parse_u64(field(sc, "seed")?, "scenario seed")?;
        let values = parse_f64s(field(sc, "values")?, "scenario values")?;
        if values.len() != names.len() {
            return Err(SweepError::invalid(format!(
                "scenario #{index} has {} values for {} parameters",
                values.len(),
                names.len()
            )));
        }
        parts.push((index, seed, values));
    }
    if parts.is_empty() {
        return Err(SweepError::invalid("spec has no scenarios"));
    }
    Ok(SweepSpec::from_parts(names, base_seed, parts))
}

// ---------------------------------------------------------------------------
// SweepReport ↔ JSON
// ---------------------------------------------------------------------------

fn cluster_stats_to_json(s: &ClusterStats) -> Json {
    Json::Obj(vec![
        ("iterations".into(), Json::from_u64(s.iterations)),
        ("firings".into(), Json::from_u64(s.firings)),
        ("probe_samples".into(), Json::from_u64(s.probe_samples)),
        (
            "newton_iterations".into(),
            Json::from_u64(s.newton_iterations),
        ),
        ("factorizations".into(), Json::from_u64(s.factorizations)),
        (
            "symbolic_analyses".into(),
            Json::from_u64(s.solve.symbolic_analyses),
        ),
        (
            "numeric_refactors".into(),
            Json::from_u64(s.solve.numeric_refactors),
        ),
        ("nnz".into(), Json::from_u64(s.solve.nnz)),
        ("fill_in".into(), Json::from_u64(s.solve.fill_in)),
        (
            "jacobian_reused".into(),
            Json::from_u64(s.solve.jacobian_reused),
        ),
    ])
}

fn cluster_stats_from_json(value: &Json) -> Result<ClusterStats, SweepError> {
    Ok(ClusterStats {
        iterations: parse_u64(field(value, "iterations")?, "iterations")?,
        firings: parse_u64(field(value, "firings")?, "firings")?,
        probe_samples: parse_u64(field(value, "probe_samples")?, "probe_samples")?,
        newton_iterations: parse_u64(field(value, "newton_iterations")?, "newton_iterations")?,
        factorizations: parse_u64(field(value, "factorizations")?, "factorizations")?,
        solve: SolveStats {
            symbolic_analyses: parse_u64(field(value, "symbolic_analyses")?, "symbolic_analyses")?,
            numeric_refactors: parse_u64(field(value, "numeric_refactors")?, "numeric_refactors")?,
            nnz: parse_u64(field(value, "nnz")?, "nnz")?,
            fill_in: parse_u64(field(value, "fill_in")?, "fill_in")?,
            jacobian_reused: parse_u64(field(value, "jacobian_reused")?, "jacobian_reused")?,
        },
    })
}

/// One verdict under the wire conventions: passes and vacuous
/// outcomes are bare strings, failures carry their code and witness
/// point.
fn verdict_to_json(v: &Verdict) -> Json {
    match v {
        Verdict::Pass => Json::Str("pass".into()),
        Verdict::Vacuous => Json::Str("vacuous".into()),
        Verdict::Fail { code, t, value } => Json::Obj(vec![
            ("code".into(), Json::Str((*code).into())),
            ("t".into(), Json::from_f64(*t)),
            ("value".into(), Json::from_f64(*value)),
        ]),
    }
}

fn verdict_from_json(value: &Json) -> Result<Verdict, SweepError> {
    match value {
        Json::Str(s) if s == "pass" => Ok(Verdict::Pass),
        Json::Str(s) if s == "vacuous" => Ok(Verdict::Vacuous),
        Json::Obj(_) => {
            let code = field(value, "code")?
                .as_str()
                .ok_or_else(|| SweepError::invalid("verdict code is not a string"))?;
            // Map the parsed string back onto the static registry so
            // the verdict carries the same `&'static str` a live run
            // would (and unknown codes fail loudly).
            let code = mon_codes::code_number(code)
                .and_then(mon_codes::code_for_number)
                .ok_or_else(|| SweepError::invalid(format!("unknown monitor code {code:?}")))?;
            Ok(Verdict::Fail {
                code,
                t: parse_f64(field(value, "t")?, "verdict t")?,
                value: parse_f64(field(value, "value")?, "verdict value")?,
            })
        }
        _ => Err(SweepError::invalid("verdict is not a string or object")),
    }
}

/// Serializes a report: metric names, per-scenario rows (with solver
/// counters) and the exec-level aggregate. The trace, a measurement
/// rather than a result, is not serialized.
pub fn report_to_json(report: &SweepReport) -> Json {
    let monitored = !report.monitor_names.is_empty();
    let scenarios = report
        .scenarios
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("index".into(), Json::from_u64(r.index as u64)),
                ("label".into(), Json::Str(r.label.clone())),
                (
                    "metrics".into(),
                    Json::Arr(r.metrics.iter().map(|&v| Json::from_f64(v)).collect()),
                ),
                ("stats".into(), cluster_stats_to_json(&r.stats)),
            ];
            if monitored {
                fields.push((
                    "verdicts".into(),
                    Json::Arr(r.verdicts.iter().map(verdict_to_json).collect()),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    let exec = Json::Obj(vec![
        ("windows".into(), Json::from_u64(report.exec.windows)),
        ("barriers".into(), Json::from_u64(report.exec.barriers)),
        (
            "ring_high_water".into(),
            Json::from_u64(report.exec.ring_high_water as u64),
        ),
        (
            "compute_wall_ns".into(),
            Json::from_u64(report.exec.compute_wall.as_nanos() as u64),
        ),
        (
            "sync_wall_ns".into(),
            Json::from_u64(report.exec.sync_wall.as_nanos() as u64),
        ),
        (
            "lint_errors".into(),
            Json::from_u64(report.exec.lint_errors as u64),
        ),
        (
            "lint_warnings".into(),
            Json::from_u64(report.exec.lint_warnings as u64),
        ),
    ]);
    let mut top = vec![
        (
            "metric_names".to_string(),
            Json::Arr(
                report
                    .metric_names
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
        ("scenarios".into(), Json::Arr(scenarios)),
        ("exec".into(), exec),
        ("fingerprint".into(), Json::from_u64(report.fingerprint())),
    ];
    // Lane-batched runs record their shape; scalar documents stay
    // byte-identical to pre-lane serializations.
    if report.lanes > 1 {
        top.push(("lanes".into(), Json::from_u64(report.lanes as u64)));
        top.push(("bundles".into(), Json::from_u64(report.bundles as u64)));
    }
    // Space-gated runs record what was pruned; ungated documents stay
    // byte-identical to pre-space serializations.
    if !report.space_pruned.is_empty() {
        let pruned = report
            .space_pruned
            .iter()
            .map(|(i, code)| {
                Json::Obj(vec![
                    ("index".into(), Json::from_u64(*i as u64)),
                    ("code".into(), Json::Str(code.clone())),
                ])
            })
            .collect();
        top.push(("space_pruned".into(), Json::Arr(pruned)));
    }
    // Prefix-shared runs record the sharing; run-from-zero documents
    // stay byte-identical to pre-checkpoint serializations.
    if report.prefix_forks > 0 {
        top.push(("prefix_forks".into(), Json::from_u64(report.prefix_forks)));
        top.push(("prefix_steps".into(), Json::from_u64(report.prefix_steps)));
    }
    // Monitored runs record their property names; unmonitored documents
    // stay byte-identical to pre-monitor serializations.
    if monitored {
        top.push((
            "monitor_names".into(),
            Json::Arr(
                report
                    .monitor_names
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ));
    }
    Json::Obj(top)
}

/// Reconstructs a report serialized by [`report_to_json`].
///
/// The exec aggregate loses its per-cluster entries (they duplicate the
/// scenario rows) and the trace is always `None`. The fingerprint of
/// the parsed report equals the original's — and when the serialized
/// `"fingerprint"` field disagrees (a corrupted or hand-edited
/// document), parsing fails.
///
/// # Errors
///
/// [`SweepError::Invalid`] for structural violations or a fingerprint
/// mismatch.
pub fn report_from_json(value: &Json) -> Result<SweepReport, SweepError> {
    let metric_names = parse_strings(field(value, "metric_names")?, "metric_names")?;
    let monitor_names = match value.get("monitor_names") {
        Some(v) => parse_strings(v, "monitor_names")?,
        None => Vec::new(),
    };
    let mut scenarios = Vec::new();
    for sc in field(value, "scenarios")?
        .as_arr()
        .ok_or_else(|| SweepError::invalid("scenarios is not an array"))?
    {
        let metrics = parse_f64s(field(sc, "metrics")?, "metrics")?;
        if metrics.len() != metric_names.len() {
            return Err(SweepError::invalid("metric row shape mismatch"));
        }
        let verdicts = if monitor_names.is_empty() {
            Vec::new()
        } else {
            let vs: Vec<Verdict> = field(sc, "verdicts")?
                .as_arr()
                .ok_or_else(|| SweepError::invalid("verdicts is not an array"))?
                .iter()
                .map(verdict_from_json)
                .collect::<Result<_, _>>()?;
            if vs.len() != monitor_names.len() {
                return Err(SweepError::invalid("verdict row shape mismatch"));
            }
            vs
        };
        scenarios.push(ScenarioResult {
            index: parse_u64(field(sc, "index")?, "index")? as usize,
            label: field(sc, "label")?
                .as_str()
                .ok_or_else(|| SweepError::invalid("label is not a string"))?
                .to_string(),
            metrics,
            stats: cluster_stats_from_json(field(sc, "stats")?)?,
            verdicts,
        });
    }
    let ex = field(value, "exec")?;
    let mut exec = ExecStats {
        windows: parse_u64(field(ex, "windows")?, "windows")?,
        barriers: parse_u64(field(ex, "barriers")?, "barriers")?,
        ring_high_water: parse_u64(field(ex, "ring_high_water")?, "ring_high_water")? as usize,
        compute_wall: Duration::from_nanos(parse_u64(
            field(ex, "compute_wall_ns")?,
            "compute_wall_ns",
        )?),
        sync_wall: Duration::from_nanos(parse_u64(field(ex, "sync_wall_ns")?, "sync_wall_ns")?),
        lint_errors: parse_u64(field(ex, "lint_errors")?, "lint_errors")? as usize,
        lint_warnings: parse_u64(field(ex, "lint_warnings")?, "lint_warnings")? as usize,
        ..ExecStats::default()
    };
    for r in &scenarios {
        exec.clusters.push((r.label.clone(), r.stats));
    }
    let lanes = match value.get("lanes") {
        Some(v) => parse_u64(v, "lanes")? as usize,
        None => 1,
    };
    let bundles = match value.get("bundles") {
        Some(v) => parse_u64(v, "bundles")? as usize,
        None => 0,
    };
    let mut space_pruned = Vec::new();
    if let Some(v) = value.get("space_pruned") {
        for entry in v
            .as_arr()
            .ok_or_else(|| SweepError::invalid("space_pruned is not an array"))?
        {
            space_pruned.push((
                parse_u64(field(entry, "index")?, "index")? as usize,
                field(entry, "code")?
                    .as_str()
                    .ok_or_else(|| SweepError::invalid("space_pruned code is not a string"))?
                    .to_string(),
            ));
        }
    }
    let prefix_forks = match value.get("prefix_forks") {
        Some(v) => parse_u64(v, "prefix_forks")?,
        None => 0,
    };
    let prefix_steps = match value.get("prefix_steps") {
        Some(v) => parse_u64(v, "prefix_steps")?,
        None => 0,
    };
    let report = SweepReport {
        metric_names,
        monitor_names,
        scenarios,
        exec,
        trace: None,
        lanes,
        bundles,
        space_pruned,
        prefix_forks,
        prefix_steps,
    };
    if let Some(fp) = value.get("fingerprint") {
        let expected = parse_u64(fp, "fingerprint")?;
        if report.fingerprint() != expected {
            return Err(SweepError::invalid(format!(
                "fingerprint mismatch: document says {expected}, content hashes to {}",
                report.fingerprint()
            )));
        }
    }
    Ok(report)
}

/// Serializes a full [`MetricsRegistry`](ams_scope::MetricsRegistry) — every counter, gauge and
/// histogram — grouped by kind, in registry (name) order, so the
/// rendering is byte-deterministic for a given registry. Histograms
/// expand to `{count, min, max, mean, p50, p95}` objects (empty ones
/// keep the stable key set, with `count` 0 and `"NaN"` statistics);
/// counters follow the module's decimal-string convention for `u64`.
pub fn metrics_to_json(metrics: &ams_scope::MetricsRegistry) -> Json {
    use ams_scope::Metric;
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, metric) in metrics.iter() {
        match metric {
            Metric::Counter(v) => counters.push((name.to_string(), Json::from_u64(*v))),
            Metric::Gauge(v) => gauges.push((name.to_string(), Json::from_f64(*v))),
            Metric::Histogram(h) => histograms.push((
                name.to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::from_u64(h.count())),
                    ("min".into(), Json::from_f64(h.min())),
                    ("max".into(), Json::from_f64(h.max())),
                    ("mean".into(), Json::from_f64(h.mean())),
                    ("p50".into(), Json::from_f64(h.percentile(50.0))),
                    ("p95".into(), Json::from_f64(h.percentile(95.0))),
                ]),
            )),
        }
    }
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("histograms".into(), Json::Obj(histograms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trips() {
        let doc = r#"{"a":[1,2.5,-3e-7],"b":"x\"\\\nA","c":true,"d":null,"e":{}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"\\\nA"));
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"k" 1}"#).is_err());
    }

    #[test]
    fn f64_encoding_is_bit_exact_including_non_finite() {
        for v in [
            0.0,
            -0.0,
            1.5e-300,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let j = Json::from_f64(v);
            let back = parse(&j.render()).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v}");
        }
        assert_eq!(
            Json::from_u64(u64::MAX).render(),
            "\"18446744073709551615\""
        );
        assert_eq!(
            parse("\"18446744073709551615\"").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn spec_round_trips_including_retained_subsets() {
        let mut spec =
            SweepSpec::monte_carlo(&[("r", 0.5, 2.0), ("c", 1e-9, 2e-9)], 16, 0xDEAD_BEEF).unwrap();
        spec.retain(|sc| sc.index() % 3 != 1);
        let json = spec_to_json(&spec);
        let back = spec_from_json(&json).unwrap();
        assert_eq!(back.names(), spec.names());
        assert_eq!(back.base_seed(), spec.base_seed());
        assert_eq!(back.scenarios(), spec.scenarios());
        // Rendering is deterministic.
        assert_eq!(json.render(), spec_to_json(&back).render());
    }

    #[test]
    fn spec_rejects_malformed_documents() {
        let spec = SweepSpec::grid(&[("r", &[1.0, 2.0])], 7).unwrap();
        let mut json = spec_to_json(&spec);
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "base_seed");
        }
        assert!(matches!(spec_from_json(&json), Err(SweepError::Invalid(_))));
        assert!(spec_from_json(
            &parse("{\"names\":[],\"base_seed\":\"0\",\"scenarios\":[]}").unwrap()
        )
        .is_err());
    }

    #[test]
    fn report_round_trips_and_verifies_fingerprint() {
        use ams_core::ClusterStats;
        let report = SweepReport {
            metric_names: vec!["v".into(), "t".into()],
            monitor_names: Vec::new(),
            scenarios: (0..4)
                .map(|i| ScenarioResult {
                    index: i,
                    label: format!("#{i}"),
                    metrics: vec![i as f64 * 1.25, if i == 2 { f64::NAN } else { -1.0 }],
                    verdicts: Vec::new(),
                    stats: ClusterStats {
                        iterations: 100 + i as u64,
                        firings: i as u64,
                        probe_samples: 7,
                        newton_iterations: 3,
                        factorizations: 2,
                        solve: SolveStats {
                            symbolic_analyses: u64::from(i == 0),
                            numeric_refactors: 1,
                            nnz: 33,
                            fill_in: 4,
                            jacobian_reused: 9,
                        },
                    },
                })
                .collect(),
            exec: ExecStats {
                windows: 4,
                barriers: 2,
                ring_high_water: 11,
                compute_wall: Duration::from_nanos(123_456_789),
                sync_wall: Duration::from_nanos(42),
                lint_warnings: 1,
                ..ExecStats::default()
            },
            trace: None,
            lanes: 8,
            bundles: 1,
            space_pruned: vec![(5, "SPC001".into())],
            prefix_forks: 4,
            prefix_steps: 64,
        };

        let doc = report_to_json(&report).render();
        let back = report_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back.fingerprint(), report.fingerprint());
        // The lane shape round-trips; scalar documents omit the keys
        // and parse back to the scalar defaults.
        assert_eq!(back.lanes, 8);
        assert_eq!(back.bundles, 1);
        assert_eq!(back.space_pruned, report.space_pruned);
        assert_eq!(back.prefix_forks, 4);
        assert_eq!(back.prefix_steps, 64);
        let mut scalar = report.clone();
        scalar.lanes = 1;
        scalar.bundles = 0;
        scalar.space_pruned.clear();
        scalar.prefix_forks = 0;
        scalar.prefix_steps = 0;
        let scalar_doc = report_to_json(&scalar).render();
        assert!(!scalar_doc.contains("lanes"), "{scalar_doc}");
        assert!(!scalar_doc.contains("space_pruned"), "{scalar_doc}");
        assert!(!scalar_doc.contains("prefix_forks"), "{scalar_doc}");
        let scalar_back = report_from_json(&parse(&scalar_doc).unwrap()).unwrap();
        assert_eq!(scalar_back.lanes, 1);
        assert_eq!(scalar_back.bundles, 0);
        assert!(scalar_back.space_pruned.is_empty());
        assert_eq!(scalar_back.prefix_forks, 0);
        assert_eq!(back.metric_names, report.metric_names);
        assert_eq!(back.scenarios.len(), report.scenarios.len());
        for (a, b) in report.scenarios.iter().zip(&back.scenarios) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(
                a.metrics.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.metrics.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(back.exec.windows, 4);
        assert_eq!(back.exec.compute_wall, Duration::from_nanos(123_456_789));

        // A tampered metric fails the embedded fingerprint check.
        let tampered = doc.replace("1.25", "1.26");
        assert!(report_from_json(&parse(&tampered).unwrap()).is_err());

        // Without monitors the document never mentions them.
        assert!(!doc.contains("verdicts"), "{doc}");
        assert!(!doc.contains("monitor_names"), "{doc}");
    }

    #[test]
    fn monitor_verdicts_round_trip_with_their_fingerprint() {
        use ams_core::ClusterStats;
        let mut report = SweepReport {
            metric_names: vec!["v".into()],
            monitor_names: vec!["settled".into(), "bounded".into()],
            scenarios: (0..3)
                .map(|i| ScenarioResult {
                    index: i,
                    label: format!("#{i}"),
                    metrics: vec![i as f64],
                    verdicts: vec![
                        if i == 1 {
                            Verdict::Fail {
                                code: mon_codes::MON001,
                                t: 2.5e-6,
                                value: 0.71,
                            }
                        } else {
                            Verdict::Pass
                        },
                        Verdict::Vacuous,
                    ],
                    stats: ClusterStats::default(),
                })
                .collect(),
            exec: ExecStats::default(),
            trace: None,
            lanes: 1,
            bundles: 0,
            space_pruned: Vec::new(),
            prefix_forks: 0,
            prefix_steps: 0,
        };

        let doc = report_to_json(&report).render();
        assert!(doc.contains("\"monitor_names\""), "{doc}");
        assert!(doc.contains("\"MON001\""), "{doc}");
        let back = report_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(back.fingerprint(), report.fingerprint());
        assert_eq!(back.monitor_names, report.monitor_names);
        for (a, b) in report.scenarios.iter().zip(&back.scenarios) {
            assert_eq!(a.verdicts, b.verdicts);
        }

        // A tampered verdict fails the embedded fingerprint check, and
        // an unknown code is rejected before hashing.
        let flipped = doc.replace("\"pass\"", "\"vacuous\"");
        assert!(report_from_json(&parse(&flipped).unwrap()).is_err());
        let unknown = doc.replace("MON001", "MON999");
        assert!(report_from_json(&parse(&unknown).unwrap()).is_err());

        // A verdict row that disagrees with the property count is a
        // shape error.
        report.scenarios[0].verdicts.pop();
        let short = report_to_json(&report).render();
        assert!(report_from_json(&parse(&short).unwrap()).is_err());
    }
}
