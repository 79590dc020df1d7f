//! Diagnostic records, the stable code registry, report rendering
//! (human and JSON) and the enforcement policy.
//!
//! Every analysis in this crate emits [`Diagnostic`]s with a *stable
//! code* (`TDF001`, `MNA003`, …). The same codes are returned by the
//! runtime error types (`SdfError::code`, `NetError::code`,
//! `CoreError::code`), so a problem caught late maps to the same
//! identifier the linter would have reported up front.

use ams_scope::json::JsonStr;
use std::collections::BTreeMap;
use std::fmt;

/// How bad a diagnostic is on its own merits (before policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but simulatable (e.g. a dangling signal).
    Warning,
    /// The model cannot elaborate or cannot be solved.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a [`LintPolicy`] decides to do with a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Suppress entirely.
    Allow,
    /// Report but continue.
    #[default]
    Warn,
    /// Report and refuse to elaborate.
    Deny,
}

/// The stable diagnostic codes. Codes are never renumbered; retired
/// checks leave holes.
pub mod codes {
    /// Inconsistent token rates: the SDF balance equations have no
    /// solution.
    pub const TDF001: &str = "TDF001";
    /// Delay-free cycle: a dependency cycle with no initial samples
    /// deadlocks the static schedule.
    pub const TDF002: &str = "TDF002";
    /// A signal is read (or probed) but no module writes it.
    pub const TDF003: &str = "TDF003";
    /// A signal has more than one writer.
    pub const TDF004: &str = "TDF004";
    /// No module in the cluster declares a timestep.
    pub const TDF005: &str = "TDF005";
    /// Two timestep declarations imply different cluster periods.
    pub const TDF006: &str = "TDF006";
    /// Dangling signal: written but never read and never probed.
    pub const TDF007: &str = "TDF007";
    /// Module (or connected component) unreachable from any
    /// timestep-declaring module; it silently inherits the cluster rate.
    pub const TDF008: &str = "TDF008";
    /// A port declares a zero token rate.
    pub const TDF009: &str = "TDF009";
    /// A stale or out-of-range handle (runtime code).
    pub const TDF010: &str = "TDF010";
    /// A module violated its declared rate at runtime (runtime code).
    pub const TDF011: &str = "TDF011";
    /// The cluster period is not an integer multiple of a module's
    /// firing count, so its timestep would be inexact.
    pub const TDF012: &str = "TDF012";
    /// A module declared a zero timestep.
    pub const TDF013: &str = "TDF013";

    /// Floating node: no DC path to ground through any element.
    pub const MNA001: &str = "MNA001";
    /// Node reaches ground only through capacitors (no resistive DC
    /// path; the operating point rests on gmin).
    pub const MNA002: &str = "MNA002";
    /// Loop of voltage-defined branches (voltage sources, inductors,
    /// VCVS, CCVS).
    pub const MNA003: &str = "MNA003";
    /// Current-source cutset: a subcircuit connected to the rest only
    /// through current sources.
    pub const MNA004: &str = "MNA004";
    /// Structurally singular MNA pattern: the stamp pattern's structural
    /// rank is deficient (maximum bipartite matching < unknowns).
    pub const MNA005: &str = "MNA005";
    /// Nonlinear solve failed to converge (runtime code).
    pub const MNA006: &str = "MNA006";
    /// Unknown node handle (runtime code).
    pub const MNA007: &str = "MNA007";
    /// Unknown element handle (runtime code).
    pub const MNA008: &str = "MNA008";
    /// Element value outside its physical domain (runtime code).
    pub const MNA009: &str = "MNA009";
    /// Underlying numerical failure (runtime code).
    pub const MNA010: &str = "MNA010";

    /// Converter-port timing: the cluster period and a DE clock period
    /// are incommensurate, so TDF samples drift against clock edges.
    pub const CNV001: &str = "CNV001";

    /// Element value range crosses its physical domain for some corner
    /// of the parameter space (space-level, see `ams_lint::space`).
    pub const SPC001: &str = "SPC001";
    /// MNA matrix numerically singular at some corner of the parameter
    /// space (space-level).
    pub const SPC002: &str = "SPC002";
    /// Requested timestep exceeds the interval-Gershgorin safe bound at
    /// the worst corner of the parameter space (space-level).
    pub const SPC003: &str = "SPC003";
    /// A space bind references an unknown element or sweep parameter
    /// (space-level).
    pub const SPC004: &str = "SPC004";
    /// Structural defect of the template netlist, invariant across the
    /// whole parameter space (space-level lift of `MNA001`–`MNA005`).
    pub const SPC005: &str = "SPC005";
    /// Lane bundles may abort mid-bundle: some corners have invalid
    /// element values (space-level).
    pub const SPC006: &str = "SPC006";

    /// The registry: every code with its default severity and a short
    /// title. Used by docs and by the JSON emitter's consumers.
    pub fn registry() -> &'static [(&'static str, super::Severity, &'static str)] {
        use super::Severity::{Error, Warning};
        &[
            (
                TDF001,
                Error,
                "inconsistent token rates (no balance solution)",
            ),
            (
                TDF002,
                Error,
                "delay-free dependency cycle (schedule deadlock)",
            ),
            (TDF003, Error, "signal read or probed but never written"),
            (TDF004, Error, "signal has multiple writers"),
            (TDF005, Error, "no module declares a timestep"),
            (
                TDF006,
                Error,
                "timestep declarations imply different periods",
            ),
            (
                TDF007,
                Warning,
                "dangling signal (written, never read or probed)",
            ),
            (
                TDF008,
                Warning,
                "module unreachable from any timestep-declaring module",
            ),
            (TDF009, Error, "port declares a zero token rate"),
            (TDF010, Error, "stale or out-of-range handle"),
            (TDF011, Error, "declared rate violated at runtime"),
            (
                TDF012,
                Error,
                "cluster period not divisible by firing count",
            ),
            (TDF013, Error, "zero timestep declared"),
            (MNA001, Error, "floating node (no DC path to ground)"),
            (
                MNA002,
                Warning,
                "node reaches ground only through capacitors",
            ),
            (MNA003, Error, "loop of voltage-defined branches"),
            (MNA004, Error, "current-source cutset"),
            (MNA005, Error, "structurally singular MNA pattern"),
            (MNA006, Error, "nonlinear solve failed to converge"),
            (MNA007, Error, "unknown node handle"),
            (MNA008, Error, "unknown element handle"),
            (MNA009, Error, "element value outside its physical domain"),
            (MNA010, Error, "numerical failure"),
            (
                CNV001,
                Warning,
                "cluster period incommensurate with a DE clock",
            ),
            (
                SPC001,
                Error,
                "element value range crosses its physical domain for some corner",
            ),
            (
                SPC002,
                Error,
                "MNA matrix numerically singular at some corner",
            ),
            (
                SPC003,
                Warning,
                "requested timestep exceeds the safe bound at the worst corner",
            ),
            (
                SPC004,
                Error,
                "space bind references an unknown element or parameter",
            ),
            (
                SPC005,
                Error,
                "structural defect invariant across the whole space",
            ),
            (
                SPC006,
                Warning,
                "lane bundles may abort: some corners have invalid values",
            ),
        ]
    }
}

/// One finding: a stable code, a severity, a message, and the offending
/// module/port/node/element names.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Severity before policy is applied.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Names of the offending entities (modules, signals, nodes,
    /// elements — whatever the analysis identifies).
    pub items: Vec<String>,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            items: Vec::new(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            items: Vec::new(),
        }
    }

    /// Attaches offending entity names.
    pub fn with_items<I, S>(mut self, items: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.items = items.into_iter().map(Into::into).collect();
        self
    }

    /// Serializes this diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.items.iter().map(|i| JsonStr(i).to_string()).collect();
        format!(
            "{{\"code\":{},\"severity\":{},\"message\":{},\"items\":[{}]}}",
            JsonStr(self.code),
            JsonStr(&self.severity.to_string()),
            JsonStr(&self.message),
            items.join(",")
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.severity, self.code, self.message)?;
        if !self.items.is_empty() {
            write!(f, " ({})", self.items.join(", "))?;
        }
        Ok(())
    }
}

/// The findings of one lint run over one subject (a TDF graph, a
/// netlist, or a converter boundary).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    /// What was linted (cluster or circuit name).
    pub context: String,
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Creates an empty report for a named subject.
    pub fn new(context: impl Into<String>) -> Self {
        LintReport {
            context: context.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Folds another report's findings into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if any finding carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The human rendering: one line per finding plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}: {d}\n", self.context));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            self.context,
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Serializes the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"context\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[{}]}}",
            JsonStr(&self.context),
            self.error_count(),
            self.warning_count(),
            diags.join(",")
        )
    }
}

/// Maps diagnostics to actions: what severity class is denied, warned
/// or allowed, with optional per-code overrides.
///
/// The default policy denies errors and warns the rest — lint-clean
/// models elaborate exactly as before, structurally broken ones are
/// refused before any solver runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LintPolicy {
    /// Action for error-severity findings.
    pub errors: LintLevel,
    /// Action for warning-severity findings.
    pub warnings: LintLevel,
    overrides: BTreeMap<String, LintLevel>,
}

impl Default for LintPolicy {
    fn default() -> Self {
        LintPolicy {
            errors: LintLevel::Deny,
            warnings: LintLevel::Warn,
            overrides: BTreeMap::new(),
        }
    }
}

impl LintPolicy {
    /// Suppresses everything (lint still runs, nothing is enforced).
    pub fn allow_all() -> Self {
        LintPolicy {
            errors: LintLevel::Allow,
            warnings: LintLevel::Allow,
            overrides: BTreeMap::new(),
        }
    }

    /// Denies warnings too (strict mode).
    pub fn deny_all() -> Self {
        LintPolicy {
            errors: LintLevel::Deny,
            warnings: LintLevel::Deny,
            overrides: BTreeMap::new(),
        }
    }

    /// Overrides the action for one specific code.
    pub fn set_code(&mut self, code: impl Into<String>, level: LintLevel) -> &mut Self {
        self.overrides.insert(code.into(), level);
        self
    }

    /// The action this policy takes for a diagnostic.
    pub fn level_for(&self, d: &Diagnostic) -> LintLevel {
        if let Some(&l) = self.overrides.get(d.code) {
            return l;
        }
        match d.severity {
            Severity::Error => self.errors,
            Severity::Warning => self.warnings,
        }
    }

    /// The findings this policy refuses to elaborate with.
    pub fn denied<'a>(&self, report: &'a LintReport) -> Vec<&'a Diagnostic> {
        report
            .diagnostics
            .iter()
            .filter(|d| self.level_for(d) == LintLevel::Deny)
            .collect()
    }

    /// The findings this policy surfaces without refusing.
    pub fn warned<'a>(&self, report: &'a LintReport) -> Vec<&'a Diagnostic> {
        report
            .diagnostics
            .iter()
            .filter(|d| self.level_for(d) == LintLevel::Warn)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_stable() {
        let reg = codes::registry();
        for (i, (a, _, _)) in reg.iter().enumerate() {
            for (b, _, _) in &reg[i + 1..] {
                assert_ne!(a, b, "duplicate code {a}");
            }
        }
        assert!(reg
            .iter()
            .any(|(c, s, _)| *c == codes::TDF001 && *s == Severity::Error));
        assert!(reg
            .iter()
            .any(|(c, s, _)| *c == codes::CNV001 && *s == Severity::Warning));
    }

    #[test]
    fn report_counts_and_render() {
        let mut r = LintReport::new("demo");
        r.push(Diagnostic::error(codes::TDF001, "rates do not balance").with_items(["a", "b"]));
        r.push(Diagnostic::warning(codes::TDF007, "dangling signal").with_items(["s"]));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has_code("TDF001"));
        assert!(!r.has_code("MNA001"));
        let human = r.render();
        assert!(human.contains("error [TDF001]"));
        assert!(human.contains("(a, b)"));
        assert!(human.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_escapes_and_shape() {
        let mut r = LintReport::new("x\"y");
        r.push(Diagnostic::error(codes::MNA001, "node \"n1\"\nfloats").with_items(["n1"]));
        let j = r.to_json();
        assert!(j.contains("\"context\":\"x\\\"y\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"code\":\"MNA001\""));
        assert!(j.contains("\"items\":[\"n1\"]"));
    }

    #[test]
    fn policy_default_denies_errors_warns_warnings() {
        let p = LintPolicy::default();
        let mut r = LintReport::new("p");
        r.push(Diagnostic::error(codes::TDF001, "e"));
        r.push(Diagnostic::warning(codes::TDF007, "w"));
        assert_eq!(p.denied(&r).len(), 1);
        assert_eq!(p.warned(&r).len(), 1);
    }

    #[test]
    fn policy_overrides_per_code() {
        let mut p = LintPolicy::default();
        p.set_code(codes::TDF007, LintLevel::Deny);
        p.set_code(codes::TDF001, LintLevel::Allow);
        let mut r = LintReport::new("p");
        r.push(Diagnostic::error(codes::TDF001, "e"));
        r.push(Diagnostic::warning(codes::TDF007, "w"));
        let denied = p.denied(&r);
        assert_eq!(denied.len(), 1);
        assert_eq!(denied[0].code, codes::TDF007);
        assert!(p.warned(&r).is_empty());
    }

    #[test]
    fn allow_all_and_deny_all() {
        let mut r = LintReport::new("p");
        r.push(Diagnostic::error(codes::TDF001, "e"));
        r.push(Diagnostic::warning(codes::TDF007, "w"));
        assert!(LintPolicy::allow_all().denied(&r).is_empty());
        assert_eq!(LintPolicy::deny_all().denied(&r).len(), 2);
    }
}
