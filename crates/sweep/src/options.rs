//! The builder options both sweep front ends take, held once.
//!
//! [`NetlistSweep`](crate::NetlistSweep) and [`TdfSweep`](crate::TdfSweep)
//! each keep their public setters (`lint_policy`, `context`, `trace`,
//! `monitors`), but the values and the rules that read them — the lint
//! gate and "an empty monitor spec means no monitors" — live here.

use crate::SweepError;
use ams_lint::{LintPolicy, LintReport};
use ams_monitor::{MonitorBank, MonitorSpec};

/// The options every sweep front end shares.
#[derive(Debug, Clone)]
pub(crate) struct SweepOptions {
    /// Policy gating the topology (and the space pass).
    pub(crate) lint: LintPolicy,
    /// Names the sweep in lint reports and warnings.
    pub(crate) context: String,
    /// Records per-scenario spans into [`SweepReport::trace`](crate::SweepReport::trace).
    pub(crate) trace: bool,
    /// Streaming assertion monitors, as installed (possibly empty).
    pub(crate) monitors: Option<MonitorSpec>,
}

/// A monitor spec resolved against one topology: the prototype (unfed)
/// bank every scenario starts from, and what each bank channel probes
/// (parallel to [`MonitorBank::channels`]).
pub(crate) struct ResolvedMonitors<T> {
    pub(crate) bank: MonitorBank,
    pub(crate) targets: Vec<T>,
}

impl SweepOptions {
    /// Defaults: the default lint policy, no tracing, no monitors.
    pub(crate) fn new(context: &str) -> SweepOptions {
        SweepOptions {
            lint: LintPolicy::default(),
            context: context.into(),
            trace: false,
            monitors: None,
        }
    }

    /// The lint gate, run once per topology: a policy-denied diagnostic
    /// rejects the batch with [`SweepError::Lint`]; otherwise the
    /// warnings are printed and their count returned.
    pub(crate) fn gate(&self, report: LintReport) -> Result<usize, SweepError> {
        if !self.lint.denied(&report).is_empty() {
            return Err(SweepError::Lint(report));
        }
        Ok(self.warn(&report))
    }

    /// Prints `report`'s policy warnings under the sweep's context and
    /// returns how many there were.
    pub(crate) fn warn(&self, report: &LintReport) -> usize {
        let warned = self.lint.warned(report);
        for d in &warned {
            eprintln!("[{}] warning: {d}", self.context);
        }
        warned.len()
    }

    /// The monitor spec in force: an empty spec means no monitors.
    pub(crate) fn monitors(&self) -> Option<&MonitorSpec> {
        self.monitors.as_ref().filter(|s| !s.is_empty())
    }

    /// Compiles the monitor spec in force and resolves each bank channel
    /// with `find`. An unknown channel rejects the batch with
    /// [`SweepError::Invalid`]; `what` says what a channel names (`"node
    /// in the sweep template"`, …).
    pub(crate) fn resolve_monitors<T>(
        &self,
        what: &str,
        find: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<ResolvedMonitors<T>>, SweepError> {
        let Some(spec) = self.monitors() else {
            return Ok(None);
        };
        let bank = MonitorBank::new(spec);
        let targets = bank
            .channels()
            .iter()
            .map(|ch| {
                find(ch).ok_or_else(|| {
                    SweepError::invalid(format!("monitor channel {ch:?} names no {what}"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Some(ResolvedMonitors { bank, targets }))
    }
}
