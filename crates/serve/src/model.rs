//! The declarative wire model: circuits, binds, probes and sweeps as
//! data.
//!
//! The in-process `ams-sweep` API takes closures for parameter
//! application and probing; closures cannot travel over a socket, so
//! the service describes a job entirely as data and compiles it into
//! those closures on the server side:
//!
//! * [`CircuitSpec`] — a netlist of R/L/C and independent sources,
//!   nodes referenced by name (`"0"` is ground);
//! * [`ParamBind`] — which sweep parameter drives which element value,
//!   absolute or relative to the template nominal;
//! * [`MetricSpec`] — a named probe over a node voltage (last / min /
//!   max over the transient);
//! * [`SweepDecl`] — grid or Monte-Carlo scenario generation, seeds
//!   included (the daemon reproduces the exact `SweepSpec` a local run
//!   would build);
//! * [`JobSpec`] — the whole job: circuit + binds + metrics + sweep +
//!   integration settings.
//!
//! [`CircuitSpec::fingerprint`] is the *topology fingerprint*: a stable
//! hash of the element list (kinds, names, terminals, template
//! values). Jobs with equal fingerprints share one cache entry in
//! `ams-serve`'s [`TopologyCache`](crate::TopologyCache) — same
//! elaborated circuit, same lint verdict, same symbolic LU factor.

use crate::ServeError;
use ams_lint::{ParamRange, SpaceBind, SpaceSpec, SpaceTarget};
use ams_monitor::MonitorSpec;
use ams_net::{Circuit, ElementId, IntegrationMethod, NodeId, Waveform};
use ams_scope::fnv::Fnv;
use ams_sweep::json::Json;
use ams_sweep::{
    CancelToken, FactorSink, NetlistSweep, ProgressFn, SweepError, SweepReport, SweepSpec,
};
use std::collections::BTreeMap;

/// An independent-source waveform, as data. The [`Waveform::External`]
/// variant is deliberately absent: externally driven inputs belong to
/// co-simulation, not to a self-contained service job.
#[derive(Debug, Clone, PartialEq)]
pub enum WaveSpec {
    /// Constant value.
    Dc(f64),
    /// `offset + ampl·sin(2π·freq·t + phase)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Phase in radians.
        phase: f64,
    },
    /// Trapezoidal pulse train (SPICE `PULSE` semantics).
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Width at `v2`, seconds.
        width: f64,
        /// Repetition period, seconds (0 = single pulse).
        period: f64,
    },
}

impl WaveSpec {
    fn to_waveform(&self) -> Waveform {
        match *self {
            WaveSpec::Dc(v) => Waveform::Dc(v),
            WaveSpec::Sine {
                offset,
                ampl,
                freq,
                phase,
            } => Waveform::Sine {
                offset,
                ampl,
                freq,
                phase,
            },
            WaveSpec::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            },
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            WaveSpec::Dc(v) => Json::Obj(vec![
                ("kind".into(), Json::Str("dc".into())),
                ("value".into(), Json::from_f64(v)),
            ]),
            WaveSpec::Sine {
                offset,
                ampl,
                freq,
                phase,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("sine".into())),
                ("offset".into(), Json::from_f64(offset)),
                ("ampl".into(), Json::from_f64(ampl)),
                ("freq".into(), Json::from_f64(freq)),
                ("phase".into(), Json::from_f64(phase)),
            ]),
            WaveSpec::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("pulse".into())),
                ("v1".into(), Json::from_f64(v1)),
                ("v2".into(), Json::from_f64(v2)),
                ("delay".into(), Json::from_f64(delay)),
                ("rise".into(), Json::from_f64(rise)),
                ("fall".into(), Json::from_f64(fall)),
                ("width".into(), Json::from_f64(width)),
                ("period".into(), Json::from_f64(period)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<WaveSpec, ServeError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::invalid("waveform needs a \"kind\""))?;
        let f = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| ServeError::invalid(format!("waveform {kind:?} needs {key:?}")))
        };
        match kind {
            "dc" => Ok(WaveSpec::Dc(f("value")?)),
            "sine" => Ok(WaveSpec::Sine {
                offset: f("offset")?,
                ampl: f("ampl")?,
                freq: f("freq")?,
                phase: f("phase")?,
            }),
            "pulse" => Ok(WaveSpec::Pulse {
                v1: f("v1")?,
                v2: f("v2")?,
                delay: f("delay")?,
                rise: f("rise")?,
                fall: f("fall")?,
                width: f("width")?,
                period: f("period")?,
            }),
            other => Err(ServeError::invalid(format!(
                "unknown waveform kind {other:?}"
            ))),
        }
    }

    fn hash_into(&self, h: &mut Fnv) {
        match *self {
            WaveSpec::Dc(v) => {
                h.u64(1);
                h.u64(v.to_bits());
            }
            WaveSpec::Sine {
                offset,
                ampl,
                freq,
                phase,
            } => {
                h.u64(2);
                for v in [offset, ampl, freq, phase] {
                    h.u64(v.to_bits());
                }
            }
            WaveSpec::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                h.u64(3);
                for v in [v1, v2, delay, rise, fall, width, period] {
                    h.u64(v.to_bits());
                }
            }
        }
    }
}

/// What an element is, plus its template (nominal) value.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKindSpec {
    /// Resistor, ohms.
    Resistor(f64),
    /// Capacitor, farads.
    Capacitor(f64),
    /// Inductor, henries.
    Inductor(f64),
    /// Independent voltage source.
    VoltageSource(WaveSpec),
    /// Independent current source (flows p → n through the source).
    CurrentSource(WaveSpec),
}

impl ElementKindSpec {
    fn tag(&self) -> &'static str {
        match self {
            ElementKindSpec::Resistor(_) => "resistor",
            ElementKindSpec::Capacitor(_) => "capacitor",
            ElementKindSpec::Inductor(_) => "inductor",
            ElementKindSpec::VoltageSource(_) => "vsource",
            ElementKindSpec::CurrentSource(_) => "isource",
        }
    }
}

/// One element of a [`CircuitSpec`]: a name (unique within the spec),
/// two terminal node names, and the kind/value.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementSpec {
    /// Element name, unique within the circuit.
    pub name: String,
    /// Positive terminal node name (`"0"` is ground).
    pub p: String,
    /// Negative terminal node name (`"0"` is ground).
    pub n: String,
    /// Kind and template value.
    pub kind: ElementKindSpec,
}

/// A netlist as data. Node names come into existence by being
/// mentioned; `"0"` (or `"gnd"`) is the ground node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CircuitSpec {
    /// The element list, in declaration order (order is part of the
    /// fingerprint: MNA unknown numbering follows it).
    pub elements: Vec<ElementSpec>,
}

/// The elaborated form of a [`CircuitSpec`]: the template circuit plus
/// name→id maps for binds and probes. Cheap to clone (the maps are
/// small; the circuit clones element vectors).
#[derive(Debug, Clone)]
pub struct BuiltCircuit {
    /// The template circuit.
    pub circuit: Circuit,
    /// Element name → id.
    pub elements: BTreeMap<String, ElementId>,
    /// Node name → id (including ground under its given names).
    pub nodes: BTreeMap<String, NodeId>,
}

impl CircuitSpec {
    /// The topology fingerprint: a stable FNV-1a hash over the ordered
    /// element list — kinds, names, terminal names and template values
    /// (bit patterns). Equal fingerprints ⇒ identical elaborated
    /// template ⇒ one shared cache entry.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.elements {
            for field in [e.kind.tag(), &e.name, &e.p, &e.n] {
                hash_str(&mut h, field);
            }
            match &e.kind {
                ElementKindSpec::Resistor(v)
                | ElementKindSpec::Capacitor(v)
                | ElementKindSpec::Inductor(v) => h.u64(v.to_bits()),
                ElementKindSpec::VoltageSource(w) | ElementKindSpec::CurrentSource(w) => {
                    w.hash_into(&mut h);
                }
            }
        }
        h.finish()
    }

    /// The template value of element `name`, `None` unless it is a
    /// resistor, capacitor or inductor of the spec.
    fn nominal(&self, name: &str) -> Option<f64> {
        self.elements.iter().find_map(|e| match &e.kind {
            ElementKindSpec::Resistor(v)
            | ElementKindSpec::Capacitor(v)
            | ElementKindSpec::Inductor(v)
                if e.name == name =>
            {
                Some(*v)
            }
            _ => None,
        })
    }

    /// Elaborates the spec into a [`Circuit`] plus name→id maps.
    ///
    /// # Errors
    ///
    /// Duplicate element names, empty specs, or element-level
    /// rejections from [`Circuit`] (non-positive R/L/C values, …).
    pub fn build(&self) -> Result<BuiltCircuit, ServeError> {
        if self.elements.is_empty() {
            return Err(ServeError::invalid("circuit has no elements"));
        }
        let mut ckt = Circuit::new();
        let mut nodes: BTreeMap<String, NodeId> = BTreeMap::new();
        let mut elements: BTreeMap<String, ElementId> = BTreeMap::new();
        let mut node = |ckt: &mut Circuit, name: &str| -> NodeId {
            if name == "0" || name == "gnd" {
                return Circuit::GROUND;
            }
            *nodes
                .entry(name.to_string())
                .or_insert_with(|| ckt.node(name))
        };
        for e in &self.elements {
            let p = node(&mut ckt, &e.p);
            let n = node(&mut ckt, &e.n);
            let fail = |err: ams_net::NetError| {
                ServeError::invalid(format!("element {:?}: {err}", e.name))
            };
            let id = match &e.kind {
                ElementKindSpec::Resistor(v) => ckt.resistor(&e.name, p, n, *v).map_err(fail)?,
                ElementKindSpec::Capacitor(v) => ckt.capacitor(&e.name, p, n, *v).map_err(fail)?,
                ElementKindSpec::Inductor(v) => ckt.inductor(&e.name, p, n, *v).map_err(fail)?,
                ElementKindSpec::VoltageSource(w) => ckt
                    .voltage_source_wave(&e.name, p, n, w.to_waveform())
                    .map_err(fail)?,
                ElementKindSpec::CurrentSource(w) => ckt
                    .current_source_wave(&e.name, p, n, w.to_waveform())
                    .map_err(fail)?,
            };
            if elements.insert(e.name.clone(), id).is_some() {
                return Err(ServeError::invalid(format!(
                    "duplicate element name {:?}",
                    e.name
                )));
            }
        }
        nodes.insert("0".into(), Circuit::GROUND);
        Ok(BuiltCircuit {
            circuit: ckt,
            elements,
            nodes,
        })
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.elements
                .iter()
                .map(|e| {
                    let mut fields = vec![
                        ("kind".into(), Json::Str(e.kind.tag().into())),
                        ("name".into(), Json::Str(e.name.clone())),
                        ("p".into(), Json::Str(e.p.clone())),
                        ("n".into(), Json::Str(e.n.clone())),
                    ];
                    match &e.kind {
                        ElementKindSpec::Resistor(v)
                        | ElementKindSpec::Capacitor(v)
                        | ElementKindSpec::Inductor(v) => {
                            fields.push(("value".into(), Json::from_f64(*v)));
                        }
                        ElementKindSpec::VoltageSource(w) | ElementKindSpec::CurrentSource(w) => {
                            fields.push(("wave".into(), w.to_json()));
                        }
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    }

    fn from_json(v: &Json) -> Result<CircuitSpec, ServeError> {
        let arr = v
            .as_arr()
            .ok_or_else(|| ServeError::invalid("circuit must be an element array"))?;
        let mut elements = Vec::with_capacity(arr.len());
        for e in arr {
            let s = |key: &str| {
                e.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| ServeError::invalid(format!("element needs string {key:?}")))
            };
            let kind_tag = s("kind")?;
            let value = || {
                e.get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ServeError::invalid(format!("{kind_tag} needs a \"value\"")))
            };
            let wave =
                || {
                    WaveSpec::from_json(e.get("wave").ok_or_else(|| {
                        ServeError::invalid(format!("{kind_tag} needs a \"wave\""))
                    })?)
                };
            let kind = match kind_tag.as_str() {
                "resistor" => ElementKindSpec::Resistor(value()?),
                "capacitor" => ElementKindSpec::Capacitor(value()?),
                "inductor" => ElementKindSpec::Inductor(value()?),
                "vsource" => ElementKindSpec::VoltageSource(wave()?),
                "isource" => ElementKindSpec::CurrentSource(wave()?),
                other => {
                    return Err(ServeError::invalid(format!(
                        "unknown element kind {other:?}"
                    )))
                }
            };
            elements.push(ElementSpec {
                name: s("name")?,
                p: s("p")?,
                n: s("n")?,
                kind,
            });
        }
        Ok(CircuitSpec { elements })
    }
}

/// Which element value a sweep parameter drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindTarget {
    /// `set_resistance` (ohms).
    Resistance,
    /// `set_capacitance` (farads).
    Capacitance,
    /// `set_inductance` (henries).
    Inductance,
}

impl BindTarget {
    fn tag(self) -> &'static str {
        match self {
            BindTarget::Resistance => "resistance",
            BindTarget::Capacitance => "capacitance",
            BindTarget::Inductance => "inductance",
        }
    }
}

/// Maps one sweep parameter to one element value. With `relative`, the
/// parameter is a fractional deviation applied to the element's
/// template value (`v = nominal · (1 + p)` — Monte-Carlo tolerance
/// style); otherwise the parameter *is* the value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBind {
    /// Sweep parameter name (must exist in the [`SweepDecl`]).
    pub param: String,
    /// Element name (must exist in the [`CircuitSpec`]).
    pub element: String,
    /// Which value mutator to apply.
    pub target: BindTarget,
    /// Relative (tolerance) vs absolute application.
    pub relative: bool,
}

/// How a probed node voltage folds into a scalar metric over the
/// transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Value at the final accepted step.
    Last,
    /// Minimum over all accepted steps.
    Min,
    /// Maximum over all accepted steps.
    Max,
}

impl ProbeKind {
    fn tag(self) -> &'static str {
        match self {
            ProbeKind::Last => "last",
            ProbeKind::Min => "min",
            ProbeKind::Max => "max",
        }
    }
}

/// A named scalar metric probing one node's voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name in the report.
    pub name: String,
    /// Probed node name.
    pub node: String,
    /// Folding rule.
    pub probe: ProbeKind,
}

/// Scenario generation, as data. Reproduces exactly the
/// [`SweepSpec`] constructors a local caller would use — including the
/// seed derivation, so a daemon-run job and a local run of the same
/// declaration see identical scenarios.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepDecl {
    /// Full cross-product of per-parameter value lists.
    Grid {
        /// `(parameter, values)` axes.
        params: Vec<(String, Vec<f64>)>,
        /// Base seed for per-scenario PRNG streams.
        seed: u64,
    },
    /// `n` Monte-Carlo samples, uniform per-parameter ranges.
    MonteCarlo {
        /// `(parameter, lo, hi)` ranges.
        params: Vec<(String, f64, f64)>,
        /// Sample count.
        n: usize,
        /// Base seed.
        seed: u64,
    },
}

impl SweepDecl {
    /// Number of scenarios this declaration expands to.
    pub fn scenario_count(&self) -> usize {
        match self {
            SweepDecl::Grid { params, .. } => params.iter().map(|(_, v)| v.len().max(1)).product(),
            SweepDecl::MonteCarlo { n, .. } => *n,
        }
    }

    /// Expands into the concrete [`SweepSpec`].
    ///
    /// # Errors
    ///
    /// The underlying constructor's validation (empty axes, bad
    /// ranges), mapped to [`ServeError::Invalid`].
    pub fn to_spec(&self) -> Result<SweepSpec, ServeError> {
        let spec = match self {
            SweepDecl::Grid { params, seed } => {
                let axes: Vec<(&str, &[f64])> = params
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.as_slice()))
                    .collect();
                SweepSpec::grid(&axes, *seed)
            }
            SweepDecl::MonteCarlo { params, n, seed } => {
                let ranges: Vec<(&str, f64, f64)> = params
                    .iter()
                    .map(|(name, lo, hi)| (name.as_str(), *lo, *hi))
                    .collect();
                SweepSpec::monte_carlo(&ranges, *n, *seed)
            }
        };
        spec.map_err(|e| ServeError::invalid(e.to_string()))
    }

    fn to_json(&self) -> Json {
        match self {
            SweepDecl::Grid { params, seed } => Json::Obj(vec![
                ("kind".into(), Json::Str("grid".into())),
                (
                    "params".into(),
                    Json::Arr(
                        params
                            .iter()
                            .map(|(n, vals)| {
                                Json::Obj(vec![
                                    ("name".into(), Json::Str(n.clone())),
                                    (
                                        "values".into(),
                                        Json::Arr(
                                            vals.iter().map(|v| Json::from_f64(*v)).collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("seed".into(), Json::from_u64(*seed)),
            ]),
            SweepDecl::MonteCarlo { params, n, seed } => Json::Obj(vec![
                ("kind".into(), Json::Str("monte_carlo".into())),
                (
                    "params".into(),
                    Json::Arr(
                        params
                            .iter()
                            .map(|(name, lo, hi)| {
                                Json::Obj(vec![
                                    ("name".into(), Json::Str(name.clone())),
                                    ("lo".into(), Json::from_f64(*lo)),
                                    ("hi".into(), Json::from_f64(*hi)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("n".into(), Json::from_u64(*n as u64)),
                ("seed".into(), Json::from_u64(*seed)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<SweepDecl, ServeError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::invalid("sweep needs a \"kind\""))?;
        let seed = v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeError::invalid("sweep needs a \"seed\""))?;
        let params = v
            .get("params")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::invalid("sweep needs a \"params\" array"))?;
        match kind {
            "grid" => {
                let mut axes = Vec::with_capacity(params.len());
                for p in params {
                    let name = p
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ServeError::invalid("grid param needs a \"name\""))?;
                    let values = p
                        .get("values")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| ServeError::invalid("grid param needs \"values\""))?
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .ok_or_else(|| ServeError::invalid("grid value must be a number"))
                        })
                        .collect::<Result<Vec<f64>, ServeError>>()?;
                    axes.push((name.to_string(), values));
                }
                Ok(SweepDecl::Grid { params: axes, seed })
            }
            "monte_carlo" => {
                let n = v
                    .get("n")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| ServeError::invalid("monte_carlo sweep needs \"n\""))?;
                let mut ranges = Vec::with_capacity(params.len());
                for p in params {
                    let name = p
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ServeError::invalid("mc param needs a \"name\""))?;
                    let lo = p
                        .get("lo")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| ServeError::invalid("mc param needs \"lo\""))?;
                    let hi = p
                        .get("hi")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| ServeError::invalid("mc param needs \"hi\""))?;
                    ranges.push((name.to_string(), lo, hi));
                }
                Ok(SweepDecl::MonteCarlo {
                    params: ranges,
                    n,
                    seed,
                })
            }
            other => Err(ServeError::invalid(format!("unknown sweep kind {other:?}"))),
        }
    }
}

/// A complete service job: what to simulate, how to vary it, what to
/// measure.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The netlist.
    pub circuit: CircuitSpec,
    /// Parameter → element-value binds.
    pub binds: Vec<ParamBind>,
    /// Probed metrics (at least one).
    pub metrics: Vec<MetricSpec>,
    /// Scenario generation.
    pub sweep: SweepDecl,
    /// Optional temporal-assertion monitors, as an `ams-monitor` spec
    /// string (see [`MonitorSpec::parse`]); channels name circuit
    /// nodes. Parsed and validated at submit, folded into the job
    /// fingerprint, and evaluated during every scenario — per-scenario
    /// verdicts land in the report and stream through `poll`.
    pub monitors: Option<String>,
    /// Transient horizon, seconds.
    pub t_end: f64,
    /// Fixed timestep, seconds.
    pub h: f64,
    /// Trapezoidal (true) vs backward-Euler integration.
    pub trapezoidal: bool,
    /// Requested worker shards (the scheduler clamps this to the
    /// tenant's quota and the machine).
    pub workers: usize,
}

/// Everything needed to actually run a [`JobSpec`]: the elaborated
/// template plus binds/probes resolved to ids. Obtained via
/// [`JobSpec::prepare`] (cold) or assembled from a cache entry (warm).
#[derive(Debug, Clone)]
pub struct PreparedJob {
    built: BuiltCircuit,
    /// `(element id, target, nominal, relative, param name)` per bind.
    binds: Vec<(ElementId, BindTarget, f64, bool, String)>,
    /// `(metric name, node id, probe)` per metric.
    probes: Vec<(String, NodeId, ProbeKind)>,
    /// Parsed monitor declaration (channels resolve inside the sweep).
    monitors: Option<MonitorSpec>,
    method: IntegrationMethod,
    t_end: f64,
    h: f64,
}

/// Knobs for [`PreparedJob::run`] that only the service layer sets.
#[derive(Default)]
pub struct RunOpts {
    /// Skip the lint gate (the caller holds a cached verdict).
    pub pre_linted: bool,
    /// Warm symbolic factor to adopt for every scenario.
    pub symbolic_hint: Option<ams_net::SymbolicFactor>,
    /// Cooperative cancellation, checked at bundle boundaries.
    pub cancel: Option<CancelToken>,
    /// Streaming per-scenario delivery.
    pub progress: Option<ProgressFn>,
    /// Receives scenario 0's exported factor on cold runs.
    pub factor_sink: Option<FactorSink>,
}

impl std::fmt::Debug for RunOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOpts")
            .field("pre_linted", &self.pre_linted)
            .field("symbolic_hint", &self.symbolic_hint.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("progress", &self.progress.is_some())
            .field("factor_sink", &self.factor_sink.is_some())
            .finish()
    }
}

impl JobSpec {
    /// Scenario count of the job's sweep declaration.
    pub fn scenario_count(&self) -> usize {
        self.sweep.scenario_count()
    }

    /// The job's identity fingerprint: the topology fingerprint (see
    /// [`CircuitSpec::fingerprint`]) with the monitor spec text folded
    /// on top when present. An unmonitored job's fingerprint equals its
    /// topology fingerprint, so pre-monitor identities are unchanged;
    /// cache keying stays on [`CircuitSpec::fingerprint`] alone
    /// (monitors change what a job *checks*, not what it elaborates).
    pub fn fingerprint(&self) -> u64 {
        match &self.monitors {
            None => self.circuit.fingerprint(),
            Some(m) => {
                let mut h = Fnv::new();
                h.u64(self.circuit.fingerprint());
                hash_str(&mut h, m);
                h.finish()
            }
        }
    }

    /// Parses the job's monitor declaration, when present. An empty
    /// spec string counts as "no monitors".
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] with the parser's message for a
    /// malformed spec.
    pub fn monitor_spec(&self) -> Result<Option<MonitorSpec>, ServeError> {
        match &self.monitors {
            None => Ok(None),
            Some(text) => {
                let spec = MonitorSpec::parse(text)
                    .map_err(|e| ServeError::invalid(format!("monitor spec: {e}")))?;
                Ok((!spec.is_empty()).then_some(spec))
            }
        }
    }

    /// [`JobSpec::monitor_spec`] with every channel checked against the
    /// circuit's nodes.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::monitor_spec`], plus [`ServeError::Invalid`] for a
    /// channel that names no circuit node.
    pub(crate) fn checked_monitor_spec(&self) -> Result<Option<MonitorSpec>, ServeError> {
        let spec = self.monitor_spec()?;
        // Node names exist by being mentioned as element terminals —
        // exactly the nodes `CircuitSpec::build` creates — so a
        // dangling channel is detectable without elaborating.
        let known = |ch: &str| {
            ch == "0" || ch == "gnd" || self.circuit.elements.iter().any(|e| e.p == ch || e.n == ch)
        };
        if let Some(p) = spec
            .iter()
            .flat_map(|ms| &ms.props)
            .find(|p| !known(&p.channel))
        {
            return Err(ServeError::invalid(format!(
                "monitor channel {:?} names no circuit node",
                p.channel
            )));
        }
        Ok(spec)
    }

    /// The job's sweep-space specification: the parameter *box* the
    /// sweep declaration spans (grid axes collapse to `[min, max]`
    /// hulls, Monte-Carlo ranges are taken verbatim) plus the binds in
    /// `ams-lint::space` form. This is what admission proves properties
    /// over before the job touches any queue — see
    /// [`ServeHandle::submit`](crate::ServeHandle::submit).
    ///
    /// A bind naming an element the circuit spec does not declare (or
    /// one without a sweepable value) is carried through with a zero
    /// nominal: the space pass classifies it `SPC004` rather than this
    /// method failing, so admission and library verdicts stay aligned.
    pub fn space_spec(&self) -> SpaceSpec {
        let ranges = match &self.sweep {
            SweepDecl::Grid { params, .. } => params
                .iter()
                .map(|(name, values)| {
                    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    ParamRange::new(name.clone(), lo, hi)
                })
                .collect(),
            SweepDecl::MonteCarlo { params, .. } => params
                .iter()
                .map(|(name, lo, hi)| ParamRange::new(name.clone(), *lo, *hi))
                .collect(),
        };
        let binds = self
            .binds
            .iter()
            .map(|b| SpaceBind {
                param: b.param.clone(),
                element: b.element.clone(),
                target: match b.target {
                    BindTarget::Resistance => SpaceTarget::Resistance,
                    BindTarget::Capacitance => SpaceTarget::Capacitance,
                    BindTarget::Inductance => SpaceTarget::Inductance,
                },
                relative: b.relative,
                nominal: self.circuit.nominal(&b.element).unwrap_or(0.0),
            })
            .collect();
        SpaceSpec::new(ranges, binds).requested_h(self.h)
    }

    /// Elaborates and resolves the job against a freshly built circuit.
    ///
    /// # Errors
    ///
    /// Build failures, unknown element/node names in binds and metrics,
    /// missing metrics, or non-positive integration settings.
    pub fn prepare(&self) -> Result<PreparedJob, ServeError> {
        self.prepare_with(self.circuit.build()?)
    }

    /// [`JobSpec::prepare`] against an already elaborated template —
    /// the warm path, where the build came out of the topology cache.
    ///
    /// # Errors
    ///
    /// Same resolution failures as [`JobSpec::prepare`].
    pub fn prepare_with(&self, built: BuiltCircuit) -> Result<PreparedJob, ServeError> {
        if self.metrics.is_empty() {
            return Err(ServeError::invalid("job needs at least one metric"));
        }
        if !(self.t_end > 0.0 && self.h > 0.0 && self.t_end.is_finite() && self.h.is_finite()) {
            return Err(ServeError::invalid(
                "t_end and h must be positive finite seconds",
            ));
        }
        let mut binds = Vec::with_capacity(self.binds.len());
        for b in &self.binds {
            let id = *built.elements.get(&b.element).ok_or_else(|| {
                ServeError::invalid(format!("bind references unknown element {:?}", b.element))
            })?;
            let nom = self.circuit.nominal(&b.element).ok_or_else(|| {
                ServeError::invalid(format!(
                    "bind target {:?} has no sweepable value",
                    b.element
                ))
            })?;
            binds.push((id, b.target, nom, b.relative, b.param.clone()));
        }
        let mut probes = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let node = *built.nodes.get(&m.node).ok_or_else(|| {
                ServeError::invalid(format!(
                    "metric {:?} probes unknown node {:?}",
                    m.name, m.node
                ))
            })?;
            probes.push((m.name.clone(), node, m.probe));
        }
        let monitors = self.checked_monitor_spec()?;
        Ok(PreparedJob {
            built,
            binds,
            probes,
            monitors,
            method: if self.trapezoidal {
                IntegrationMethod::Trapezoidal
            } else {
                IntegrationMethod::BackwardEuler
            },
            t_end: self.t_end,
            h: self.h,
        })
    }

    /// Cold, cache-free execution — exactly what a local caller without
    /// the service would do. The reference point for warm-vs-cold
    /// fingerprint parity.
    ///
    /// # Errors
    ///
    /// Preparation failures and [`ServeError::Sweep`] run failures.
    pub fn direct_run(&self, workers: usize) -> Result<SweepReport, ServeError> {
        let spec = self.sweep.to_spec()?;
        self.prepare()?.run(&spec, workers, RunOpts::default())
    }

    /// Serializes the job to its wire JSON. The `monitors` field is
    /// emitted only when present, so unmonitored jobs serialize exactly
    /// as they did before monitors existed.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("circuit".into(), self.circuit.to_json()),
            (
                "binds".into(),
                Json::Arr(
                    self.binds
                        .iter()
                        .map(|b| {
                            Json::Obj(vec![
                                ("param".into(), Json::Str(b.param.clone())),
                                ("element".into(), Json::Str(b.element.clone())),
                                ("target".into(), Json::Str(b.target.tag().into())),
                                ("relative".into(), Json::Bool(b.relative)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(m.name.clone())),
                                ("node".into(), Json::Str(m.node.clone())),
                                ("probe".into(), Json::Str(m.probe.tag().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sweep".into(), self.sweep.to_json()),
            ("t_end".into(), Json::from_f64(self.t_end)),
            ("h".into(), Json::from_f64(self.h)),
            ("trapezoidal".into(), Json::Bool(self.trapezoidal)),
            ("workers".into(), Json::from_u64(self.workers as u64)),
        ];
        if let Some(m) = &self.monitors {
            fields.push(("monitors".into(), Json::Str(m.clone())));
        }
        Json::Obj(fields)
    }

    /// Parses a job from its wire JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] naming the malformed field.
    pub fn from_json(v: &Json) -> Result<JobSpec, ServeError> {
        let circuit = CircuitSpec::from_json(
            v.get("circuit")
                .ok_or_else(|| ServeError::invalid("job needs a \"circuit\""))?,
        )?;
        let mut binds = Vec::new();
        if let Some(arr) = v.get("binds").and_then(Json::as_arr) {
            for b in arr {
                let s = |key: &str| {
                    b.get(key)
                        .and_then(Json::as_str)
                        .ok_or_else(|| ServeError::invalid(format!("bind needs string {key:?}")))
                };
                let target = match s("target")? {
                    "resistance" => BindTarget::Resistance,
                    "capacitance" => BindTarget::Capacitance,
                    "inductance" => BindTarget::Inductance,
                    other => {
                        return Err(ServeError::invalid(format!(
                            "unknown bind target {other:?}"
                        )))
                    }
                };
                binds.push(ParamBind {
                    param: s("param")?.to_string(),
                    element: s("element")?.to_string(),
                    target,
                    relative: b.get("relative").and_then(Json::as_bool).unwrap_or(false),
                });
            }
        }
        let metrics_json = v
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::invalid("job needs a \"metrics\" array"))?;
        let mut metrics = Vec::with_capacity(metrics_json.len());
        for m in metrics_json {
            let s = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServeError::invalid(format!("metric needs string {key:?}")))
            };
            let probe = match s("probe")? {
                "last" => ProbeKind::Last,
                "min" => ProbeKind::Min,
                "max" => ProbeKind::Max,
                other => return Err(ServeError::invalid(format!("unknown probe {other:?}"))),
            };
            metrics.push(MetricSpec {
                name: s("name")?.to_string(),
                node: s("node")?.to_string(),
                probe,
            });
        }
        let f = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| ServeError::invalid(format!("job needs number {key:?}")))
        };
        Ok(JobSpec {
            circuit,
            binds,
            metrics,
            sweep: SweepDecl::from_json(
                v.get("sweep")
                    .ok_or_else(|| ServeError::invalid("job needs a \"sweep\""))?,
            )?,
            monitors: v.get("monitors").and_then(Json::as_str).map(str::to_string),
            t_end: f("t_end")?,
            h: f("h")?,
            trapezoidal: v.get("trapezoidal").and_then(Json::as_bool).unwrap_or(true),
            workers: v.get("workers").and_then(Json::as_usize).unwrap_or(1),
        })
    }

    /// A ready-made Monte-Carlo job over the four-stage RC ladder the
    /// `monte_carlo_filter` example uses: ±10% tolerance on every R and
    /// C, probing the final-node settle voltage and its overshoot. Used
    /// by doctests, the daemon smoke tests, and the client example.
    pub fn demo_rc(n: usize, seed: u64) -> JobSpec {
        let mut elements = vec![ElementSpec {
            name: "Vin".into(),
            p: "n0".into(),
            n: "0".into(),
            kind: ElementKindSpec::VoltageSource(WaveSpec::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-6,
                rise: 1e-7,
                fall: 1e-7,
                width: 40e-6,
                period: 0.0,
            }),
        }];
        let mut binds = Vec::new();
        for k in 0..4 {
            elements.push(ElementSpec {
                name: format!("R{k}"),
                p: format!("n{k}"),
                n: format!("n{}", k + 1),
                kind: ElementKindSpec::Resistor(1.6e3),
            });
            elements.push(ElementSpec {
                name: format!("C{k}"),
                p: format!("n{}", k + 1),
                n: "0".into(),
                kind: ElementKindSpec::Capacitor(10e-9),
            });
            binds.push(ParamBind {
                param: "dr".into(),
                element: format!("R{k}"),
                target: BindTarget::Resistance,
                relative: true,
            });
            binds.push(ParamBind {
                param: "dc".into(),
                element: format!("C{k}"),
                target: BindTarget::Capacitance,
                relative: true,
            });
        }
        JobSpec {
            circuit: CircuitSpec { elements },
            binds,
            metrics: vec![
                MetricSpec {
                    name: "v_settle".into(),
                    node: "n4".into(),
                    probe: ProbeKind::Last,
                },
                MetricSpec {
                    name: "v_peak".into(),
                    node: "n4".into(),
                    probe: ProbeKind::Max,
                },
            ],
            sweep: SweepDecl::MonteCarlo {
                params: vec![("dr".into(), -0.1, 0.1), ("dc".into(), -0.1, 0.1)],
                n,
                seed,
            },
            monitors: None,
            t_end: 50e-6,
            h: 50e-9,
            trapezoidal: true,
            workers: 2,
        }
    }

    /// [`JobSpec::demo_rc`] with three temporal assertions on the
    /// output node: a passivity envelope (an RC low-pass of a 0→1 V
    /// pulse can never leave `[0, 1]`, so this property passes in every
    /// scenario), an overshoot bound at the same ceiling, and a
    /// settling-time requirement whose verdict depends on the sampled
    /// component tolerances — the yield-style property sweeps exist to
    /// measure.
    pub fn demo_rc_monitored(n: usize, seed: u64) -> JobSpec {
        let mut job = JobSpec::demo_rc(n, seed);
        job.monitors = Some(
            "bounded:envelope(lo=-0.05,hi=1.05)@n4;\
             over:overshoot(max=1.05)@n4;\
             settled:settle(lo=0.93,hi=1.07,by=4.6e-5)@n4"
                .into(),
        );
        job
    }
}

/// The lane width a served job with two or more scenarios runs at. A
/// one-scenario job runs at width 1: there a bundle's three padding
/// lanes made warm jobs 1.25–1.52× slower, while jobs of 2–8
/// scenarios ran faster bundled or tied, at 1, 2 and 4 leased shards
/// (EXPERIMENTS.md § E12). Served circuits are linear and run at a
/// fixed step, so every width fingerprints like width 1 (see
/// [`NetlistSweep::run_lanes`]): the width is policy, not part of a
/// job's identity.
const SERVE_LANES: usize = 4;

impl PreparedJob {
    /// The elaborated template and maps (for caching).
    pub fn built(&self) -> &BuiltCircuit {
        &self.built
    }

    /// Runs the job's sweep with the service-layer options, compiling
    /// the declarative binds and probes into the `ams-sweep` closures.
    /// Scenarios run lane-bundled, four at a time, once there are two
    /// or more of them; cancellation lands at bundle boundaries.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sweep`] / [`ServeError::Cancelled`] from the
    /// batch engine, [`ServeError::Invalid`] for an unknown parameter
    /// name surfacing at apply time.
    pub fn run(
        &self,
        spec: &SweepSpec,
        workers: usize,
        opts: RunOpts,
    ) -> Result<SweepReport, ServeError> {
        for (_, _, _, _, param) in &self.binds {
            if !spec.names().iter().any(|n| n == param) {
                return Err(ServeError::invalid(format!(
                    "bind references unknown sweep parameter {param:?}"
                )));
            }
        }
        // The service always runs the sparse backend, regardless of
        // circuit size: the topology cache's symbolic-LU reuse (and its
        // `serve.lu.*` accounting) only exists on the sparse path, and
        // warm/cold parity requires every run to pick the same backend.
        let lanes = if spec.len() >= 2 { SERVE_LANES } else { 1 };
        let mut sweep = NetlistSweep::new(self.built.circuit.clone(), self.method)
            .fixed_step(self.t_end, self.h)
            .context("serve")
            .backend(ams_net::SolverBackend::Sparse)
            .lanes(lanes)
            .pre_linted(opts.pre_linted);
        if let Some(hint) = opts.symbolic_hint {
            sweep = sweep.symbolic_hint(hint);
        }
        if let Some(token) = opts.cancel {
            sweep = sweep.cancel_token(token);
        }
        if let Some(progress) = opts.progress {
            sweep = sweep.on_scenario(progress);
        }
        if let Some(sink) = opts.factor_sink {
            sweep = sweep.factor_sink(sink);
        }
        if let Some(monitors) = &self.monitors {
            sweep = sweep.monitors(monitors.clone());
        }
        let metric_names: Vec<&str> = self.probes.iter().map(|(n, _, _)| n.as_str()).collect();
        let report = sweep.run_lanes(
            spec,
            workers.max(1),
            &metric_names,
            |ckt, sc| {
                for (id, target, nominal, relative, param) in &self.binds {
                    let p = sc.value(param);
                    let v = if *relative { nominal * (1.0 + p) } else { p };
                    match target {
                        BindTarget::Resistance => ckt.set_resistance(*id, v)?,
                        BindTarget::Capacitance => ckt.set_capacitance(*id, v)?,
                        BindTarget::Inductance => ckt.set_inductance(*id, v)?,
                    }
                }
                Ok(())
            },
            |tr, m| {
                for (i, (_, node, probe)) in self.probes.iter().enumerate() {
                    let v = tr.voltage(*node);
                    m[i] = match probe {
                        ProbeKind::Last => v,
                        ProbeKind::Min => {
                            if m[i].is_nan() {
                                v
                            } else {
                                m[i].min(v)
                            }
                        }
                        ProbeKind::Max => {
                            if m[i].is_nan() {
                                v
                            } else {
                                m[i].max(v)
                            }
                        }
                    };
                }
            },
        );
        report.map_err(|e: SweepError| e.into())
    }
}

/// Hashes a string behind its length, so adjacent fields do not glue
/// together.
fn hash_str(h: &mut Fnv, s: &str) {
    h.u64(s.len() as u64);
    h.bytes(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let job = JobSpec::demo_rc(16, 0xF1);
        let wire = job.to_json().render();
        let back = JobSpec::from_json(&ams_sweep::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(job, back);
        // The fingerprint survives the wire.
        assert_eq!(job.fingerprint(), back.fingerprint());
        // A monitored job round-trips its property spec too.
        let monitored = JobSpec::demo_rc_monitored(16, 0xF1);
        let wire = monitored.to_json().render();
        let back = JobSpec::from_json(&ams_sweep::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(monitored, back);
        assert_eq!(monitored.fingerprint(), back.fingerprint());
    }

    #[test]
    fn monitors_fold_into_job_identity_but_not_topology() {
        let plain = JobSpec::demo_rc(8, 1);
        let monitored = JobSpec::demo_rc_monitored(8, 1);
        // Same circuit, so the same topology-cache entry …
        assert_eq!(plain.circuit.fingerprint(), monitored.circuit.fingerprint());
        // … but distinct job identities, and distinct again for a
        // different property list.
        assert_ne!(plain.fingerprint(), monitored.fingerprint());
        let mut other = monitored.clone();
        other.monitors = Some("only:finite()@n4".into());
        assert_ne!(other.fingerprint(), monitored.fingerprint());
        // Unmonitored jobs keep the historical identity.
        assert_eq!(plain.fingerprint(), plain.circuit.fingerprint());
    }

    #[test]
    fn monitored_direct_run_yields_verdicts() {
        let job = JobSpec::demo_rc_monitored(6, 0xAB);
        let one = job.direct_run(1).unwrap();
        let four = job.direct_run(4).unwrap();
        assert_eq!(one.fingerprint(), four.fingerprint());
        assert_eq!(one.monitor_names.len(), 3);
        for s in &one.scenarios {
            assert_eq!(s.verdicts.len(), 3);
        }
        // The envelope and overshoot properties hold on every RC
        // scenario of a unit pulse.
        let summary = one.monitor_summary();
        assert_eq!(summary[0].pass, 6, "envelope: {:?}", summary[0]);
        assert_eq!(summary[1].pass, 6, "overshoot: {:?}", summary[1]);
    }

    #[test]
    fn fingerprint_tracks_topology_and_template_values() {
        let a = JobSpec::demo_rc(8, 1);
        let mut b = JobSpec::demo_rc(8, 2);
        // Sweep size and seed are not part of the topology identity.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A template value is.
        if let ElementKindSpec::Resistor(v) = &mut b.circuit.elements[1].kind {
            *v *= 2.0;
        } else {
            panic!("element 1 should be R0");
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
        // So is connectivity.
        let mut c = JobSpec::demo_rc(8, 1);
        c.circuit.elements[2].n = "n3".into();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn build_rejects_bad_specs() {
        assert!(CircuitSpec::default().build().is_err());
        let dup = CircuitSpec {
            elements: vec![
                ElementSpec {
                    name: "R".into(),
                    p: "a".into(),
                    n: "0".into(),
                    kind: ElementKindSpec::Resistor(1.0),
                },
                ElementSpec {
                    name: "R".into(),
                    p: "a".into(),
                    n: "0".into(),
                    kind: ElementKindSpec::Resistor(2.0),
                },
            ],
        };
        assert!(matches!(dup.build(), Err(ServeError::Invalid(_))));
    }

    #[test]
    fn prepare_rejects_dangling_references() {
        let mut job = JobSpec::demo_rc(2, 0);
        job.binds[0].element = "Rnope".into();
        assert!(matches!(job.prepare(), Err(ServeError::Invalid(_))));
        let mut job = JobSpec::demo_rc(2, 0);
        job.metrics[0].node = "nowhere".into();
        assert!(matches!(job.prepare(), Err(ServeError::Invalid(_))));
        let mut job = JobSpec::demo_rc(2, 0);
        job.binds[0].param = "ghost".into();
        let spec = job.sweep.to_spec().unwrap();
        let err = job.prepare().unwrap().run(&spec, 1, RunOpts::default());
        assert!(matches!(err, Err(ServeError::Invalid(_))));
    }

    #[test]
    fn direct_run_is_deterministic_across_workers() {
        let job = JobSpec::demo_rc(6, 0xAB);
        let one = job.direct_run(1).unwrap();
        let four = job.direct_run(4).unwrap();
        assert_eq!(one.fingerprint(), four.fingerprint());
        assert_eq!(one.scenarios.len(), 6);
        // The probes measured something real.
        assert!(one.scenarios.iter().all(|s| s.metrics[0].is_finite()));
        // Max probe dominates the last value.
        for s in &one.scenarios {
            assert!(s.metrics[1] >= s.metrics[0]);
        }
    }
}
