//! The monitor automaton: one property folded over a sample stream.
//!
//! A [`Monitor`] holds O(1) state regardless of how many samples it
//! sees (the frequency-mask kind holds O(bins)). [`Monitor::feed`]
//! advances the automaton; [`Monitor::finish`] renders the [`Verdict`].
//! The first violation latches its witness point — later samples cannot
//! un-fail a monitor, and feeding a failed monitor is a no-op, so the
//! steady-state cost of a tripped monitor is a single branch.

use crate::codes;
use crate::property::Property;

/// The outcome of one property over one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The property was exercised and held.
    Pass,
    /// The run never exercised the property (window never opened, rise
    /// never armed, no samples): neither evidence for nor against.
    Vacuous,
    /// The property failed, with the first witness point.
    Fail {
        /// Stable violation code (`MON001`–`MON009`).
        code: &'static str,
        /// Simulated time of the first violating sample, seconds.
        t: f64,
        /// The violating value (the excursion or amplitude for ripple
        /// and frequency-mask checks).
        value: f64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// `true` for [`Verdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail { .. })
    }

    /// The violation code, `None` unless failed.
    pub fn code(&self) -> Option<&'static str> {
        match self {
            Verdict::Fail { code, .. } => Some(code),
            _ => None,
        }
    }

    /// Folds the verdict's exact bit pattern into an FNV-style hash
    /// step, for fingerprint-stable aggregation across worker counts:
    /// three words, the status (`0.0` = pass, `-1.0` = vacuous, `n` for
    /// a failure with code `MON00n`), then the witness `t` and `value`
    /// (NaN unless failed), each as its `f64` bit pattern.
    pub fn fold_bits(&self, mut fold: impl FnMut(u64)) {
        let words = match *self {
            Verdict::Pass => [0.0, f64::NAN, f64::NAN],
            Verdict::Vacuous => [-1.0, f64::NAN, f64::NAN],
            Verdict::Fail { code, t, value } => {
                [f64::from(codes::code_number(code).unwrap_or(9)), t, value]
            }
        };
        for w in words {
            fold(w.to_bits());
        }
    }
}

/// Latched first failure.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Failure {
    code: &'static str,
    t: f64,
    value: f64,
}

/// One streaming Goertzel-style bin: direct single-frequency DFT
/// accumulation (exact-angle per sample, so it stays correct under
/// adaptive, non-uniform time steps).
#[derive(Debug, Clone, PartialEq)]
struct Bin {
    f: f64,
    amax: f64,
    cr: f64,
    ci: f64,
}

/// Per-kind incremental state.
#[derive(Debug, Clone, PartialEq)]
enum St {
    /// Settle / overshoot / undershoot / envelope / finite: only need
    /// to know whether the property was ever exercised.
    Window { seen: bool },
    /// Monotone ramp: running peak inside the window.
    Ramp { peak: f64, seen: bool },
    /// Rise time: arm time at the `lo` crossing, completion latch.
    Rise { armed_at: Option<f64>, done: bool },
    /// Ripple: running min/max after the window opens.
    Ripple { min: f64, max: f64, seen: bool },
    /// Frequency mask: one accumulator per bin plus the sample count.
    Freq { bins: Vec<Bin>, n: u64 },
}

impl St {
    fn fresh(p: &Property) -> St {
        match p {
            Property::Settle { .. }
            | Property::Overshoot { .. }
            | Property::Undershoot { .. }
            | Property::Envelope { .. }
            | Property::Finite => St::Window { seen: false },
            Property::Ramp { .. } => St::Ramp {
                peak: f64::NEG_INFINITY,
                seen: false,
            },
            Property::Rise { .. } => St::Rise {
                armed_at: None,
                done: false,
            },
            Property::Ripple { .. } => St::Ripple {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                seen: false,
            },
            Property::FreqMask { bins } => St::Freq {
                bins: bins
                    .iter()
                    .map(|&(f, amax)| Bin {
                        f,
                        amax,
                        cr: 0.0,
                        ci: 0.0,
                    })
                    .collect(),
                n: 0,
            },
        }
    }
}

/// One compiled property: an incremental automaton over `(t, value)`
/// samples of a single channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor {
    channel: usize,
    property: Property,
    failed: Option<Failure>,
    last_t: f64,
    st: St,
}

impl Monitor {
    /// Compiles `property` into an automaton watching bank channel
    /// index `channel`.
    pub fn new(channel: usize, property: Property) -> Monitor {
        let st = St::fresh(&property);
        Monitor {
            channel,
            property,
            failed: None,
            last_t: 0.0,
            st,
        }
    }

    /// The bank channel index this monitor watches.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The property this monitor checks.
    pub fn property(&self) -> &Property {
        &self.property
    }

    /// The timestamp of the last sample fed (0.0 before any sample).
    pub fn last_time(&self) -> f64 {
        self.last_t
    }

    /// Discards all accumulated state (back to the freshly compiled
    /// automaton).
    pub fn reset(&mut self) {
        self.failed = None;
        self.last_t = 0.0;
        self.st = St::fresh(&self.property);
    }

    /// Feeds one sample. O(1); a no-op once a failure has latched.
    pub fn feed(&mut self, t: f64, v: f64) {
        if self.failed.is_some() {
            return;
        }
        self.last_t = t;
        if !v.is_finite() {
            self.failed = Some(Failure {
                code: codes::MON009,
                t,
                value: v,
            });
            return;
        }
        let fail = |code| Some(Failure { code, t, value: v });
        match (&self.property, &mut self.st) {
            (Property::Settle { lo, hi, by }, St::Window { seen }) => {
                if t >= *by {
                    *seen = true;
                    if v < *lo || v > *hi {
                        self.failed = fail(codes::MON001);
                    }
                }
            }
            (Property::Overshoot { max }, St::Window { seen }) => {
                *seen = true;
                if v > *max {
                    self.failed = fail(codes::MON002);
                }
            }
            (Property::Undershoot { min }, St::Window { seen }) => {
                *seen = true;
                if v < *min {
                    self.failed = fail(codes::MON003);
                }
            }
            (Property::Ramp { from, until, tol }, St::Ramp { peak, seen }) => {
                if t >= *from && t <= *until {
                    *seen = true;
                    if v > *peak {
                        *peak = v;
                    } else if v < *peak - *tol {
                        self.failed = fail(codes::MON004);
                    }
                }
            }
            (
                Property::Envelope {
                    lo,
                    hi,
                    from,
                    until,
                },
                St::Window { seen },
            ) => {
                if t >= *from && t <= *until {
                    *seen = true;
                    if v < *lo || v > *hi {
                        self.failed = fail(codes::MON005);
                    }
                }
            }
            (Property::Rise { lo, hi, within }, St::Rise { armed_at, done }) => {
                if !*done {
                    match *armed_at {
                        None => {
                            if v >= *lo {
                                *armed_at = Some(t);
                                if v >= *hi {
                                    *done = true;
                                }
                            }
                        }
                        Some(t0) => {
                            if t - t0 > *within {
                                self.failed = fail(codes::MON006);
                            } else if v >= *hi {
                                *done = true;
                            }
                        }
                    }
                }
            }
            (Property::Ripple { after, max: max_pp }, St::Ripple { min, max, seen }) => {
                if t >= *after {
                    *seen = true;
                    if v < *min {
                        *min = v;
                    }
                    if v > *max {
                        *max = v;
                    }
                    let pp = *max - *min;
                    if pp > *max_pp {
                        self.failed = Some(Failure {
                            code: codes::MON007,
                            t,
                            value: pp,
                        });
                    }
                }
            }
            (Property::FreqMask { .. }, St::Freq { bins, n }) => {
                for bin in bins.iter_mut() {
                    let phase = std::f64::consts::TAU * bin.f * t;
                    bin.cr += v * phase.cos();
                    bin.ci -= v * phase.sin();
                }
                *n += 1;
            }
            (Property::Finite, St::Window { seen }) => {
                *seen = true;
            }
            _ => unreachable!("state always matches property kind"),
        }
    }

    /// Renders the verdict for the samples seen so far. Non-consuming,
    /// so sweeps can snapshot verdicts at a prefix checkpoint and keep
    /// feeding forks.
    pub fn finish(&self) -> Verdict {
        if let Some(f) = self.failed {
            return Verdict::Fail {
                code: f.code,
                t: f.t,
                value: f.value,
            };
        }
        match &self.st {
            St::Window { seen } | St::Ramp { seen, .. } | St::Ripple { seen, .. } => {
                if *seen {
                    Verdict::Pass
                } else {
                    Verdict::Vacuous
                }
            }
            St::Rise { done, .. } => {
                // Armed-but-window-not-elapsed and never-armed both end
                // vacuous: the run produced no counter-evidence.
                if *done {
                    Verdict::Pass
                } else {
                    Verdict::Vacuous
                }
            }
            St::Freq { bins, n } => {
                if *n == 0 {
                    return Verdict::Vacuous;
                }
                let samples = *n as f64;
                for bin in bins {
                    let amp = 2.0 * (bin.cr * bin.cr + bin.ci * bin.ci).sqrt() / samples;
                    if amp > bin.amax {
                        return Verdict::Fail {
                            code: codes::MON008,
                            t: self.last_t,
                            value: amp,
                        };
                    }
                }
                Verdict::Pass
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: Property, samples: &[(f64, f64)]) -> Verdict {
        let mut m = Monitor::new(0, p);
        for &(t, v) in samples {
            m.feed(t, v);
        }
        m.finish()
    }

    #[test]
    fn settle_pass_fail_vacuous() {
        let p = Property::Settle {
            lo: 0.9,
            hi: 1.1,
            by: 1.0,
        };
        assert_eq!(
            run(p.clone(), &[(0.0, 5.0), (1.5, 1.0), (2.0, 1.05)]),
            Verdict::Pass
        );
        assert_eq!(
            run(p.clone(), &[(1.0, 1.0), (2.0, 1.2)]),
            Verdict::Fail {
                code: codes::MON001,
                t: 2.0,
                value: 1.2
            }
        );
        assert_eq!(run(p, &[(0.0, 5.0), (0.5, 2.0)]), Verdict::Vacuous);
    }

    #[test]
    fn bounds_latch_first_witness() {
        let p = Property::Overshoot { max: 1.3 };
        let v = run(p, &[(0.0, 1.0), (1.0, 1.4), (2.0, 1.9)]);
        assert_eq!(
            v,
            Verdict::Fail {
                code: codes::MON002,
                t: 1.0,
                value: 1.4
            }
        );
        let p = Property::Undershoot { min: -0.2 };
        assert_eq!(run(p, &[(0.0, 0.0), (1.0, -0.3)]).code(), Some("MON003"));
    }

    #[test]
    fn ramp_allows_dips_within_tolerance() {
        let p = Property::Ramp {
            from: 0.0,
            until: 10.0,
            tol: 0.1,
        };
        assert_eq!(
            run(
                p.clone(),
                &[(0.0, 0.0), (1.0, 0.5), (2.0, 0.45), (3.0, 1.0)]
            ),
            Verdict::Pass
        );
        assert_eq!(
            run(p, &[(0.0, 0.0), (1.0, 0.5), (2.0, 0.3)]).code(),
            Some("MON004")
        );
    }

    #[test]
    fn envelope_checks_only_inside_window() {
        let p = Property::Envelope {
            lo: -1.0,
            hi: 1.0,
            from: 1.0,
            until: 2.0,
        };
        assert_eq!(run(p.clone(), &[(0.0, 9.0), (1.5, 0.5)]), Verdict::Pass);
        assert_eq!(run(p.clone(), &[(1.5, 1.5)]).code(), Some("MON005"));
        assert_eq!(run(p, &[(0.0, 9.0), (3.0, 9.0)]), Verdict::Vacuous);
    }

    #[test]
    fn rise_time_semantics() {
        let p = Property::Rise {
            lo: 0.1,
            hi: 0.9,
            within: 1.0,
        };
        // Fast rise passes.
        assert_eq!(
            run(p.clone(), &[(0.0, 0.0), (1.0, 0.2), (1.5, 0.95)]),
            Verdict::Pass
        );
        // Deadline elapses before hi: fail.
        assert_eq!(
            run(p.clone(), &[(0.0, 0.2), (2.0, 0.5)]).code(),
            Some("MON006")
        );
        // Never armed: vacuous.
        assert_eq!(run(p.clone(), &[(0.0, 0.0), (1.0, 0.05)]), Verdict::Vacuous);
        // Armed but run ends inside window: vacuous.
        assert_eq!(run(p, &[(0.0, 0.2), (0.5, 0.5)]), Verdict::Vacuous);
    }

    #[test]
    fn ripple_reports_excursion_as_witness() {
        let p = Property::Ripple {
            after: 1.0,
            max: 0.1,
        };
        assert_eq!(
            run(p.clone(), &[(0.0, 9.0), (1.0, 1.0), (2.0, 1.05)]),
            Verdict::Pass
        );
        match run(p, &[(1.0, 1.0), (2.0, 1.2)]) {
            Verdict::Fail { code, t, value } => {
                assert_eq!(code, codes::MON007);
                assert_eq!(t, 2.0);
                assert!((value - 0.2).abs() < 1e-12);
            }
            other => panic!("expected fail, got {other:?}"),
        }
    }

    #[test]
    fn freq_mask_estimates_sine_amplitude() {
        // 0.4 V sine at 100 Hz, sampled at 10 kHz for one full second.
        let f0 = 100.0;
        let samples: Vec<(f64, f64)> = (0..10_000)
            .map(|k| {
                let t = f64::from(k) * 1e-4;
                (t, 0.4 * (std::f64::consts::TAU * f0 * t).sin())
            })
            .collect();
        let tight = Property::FreqMask {
            bins: vec![(f0, 0.3)],
        };
        match run(tight, &samples) {
            Verdict::Fail { code, value, .. } => {
                assert_eq!(code, codes::MON008);
                assert!((value - 0.4).abs() < 0.01, "amp estimate {value}");
            }
            other => panic!("expected fail, got {other:?}"),
        }
        let loose = Property::FreqMask {
            bins: vec![(f0, 0.5), (3.0 * f0, 0.05)],
        };
        assert_eq!(run(loose, &samples), Verdict::Pass);
        assert_eq!(
            run(
                Property::FreqMask {
                    bins: vec![(f0, 0.5)]
                },
                &[]
            ),
            Verdict::Vacuous
        );
    }

    #[test]
    fn non_finite_sample_fails_any_kind_with_mon009() {
        for p in [
            Property::Finite,
            Property::Overshoot { max: 1.0 },
            Property::FreqMask {
                bins: vec![(1.0, 1.0)],
            },
        ] {
            let v = run(p, &[(0.0, 0.5), (1.0, f64::NAN)]);
            assert_eq!(v.code(), Some(codes::MON009));
            match v {
                Verdict::Fail { t, value, .. } => {
                    assert_eq!(t, 1.0);
                    assert!(value.is_nan());
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn fold_bits_hashes_status_then_witness() {
        let words = |v: Verdict| {
            let mut w = Vec::new();
            v.fold_bits(|b| w.push(b));
            w
        };
        let nan = f64::NAN.to_bits();
        assert_eq!(words(Verdict::Pass), [0.0f64.to_bits(), nan, nan]);
        assert_eq!(words(Verdict::Vacuous), [(-1.0f64).to_bits(), nan, nan]);
        let fail = Verdict::Fail {
            code: codes::MON007,
            t: 1.25e-3,
            value: 0.375,
        };
        let want = [7.0, 1.25e-3, 0.375].map(f64::to_bits);
        assert_eq!(words(fail), want);
    }

    #[test]
    fn reset_restores_the_fresh_automaton() {
        let mut m = Monitor::new(3, Property::Overshoot { max: 1.0 });
        m.feed(0.0, 2.0);
        assert!(m.finish().is_fail());
        m.reset();
        assert_eq!(m, Monitor::new(3, Property::Overshoot { max: 1.0 }));
        m.feed(0.0, 0.5);
        assert_eq!(m.finish(), Verdict::Pass);
    }
}
