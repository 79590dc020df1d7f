//! Transient (time-domain) analysis of conservative networks: the one
//! transient engine, [`Transient<T>`], generic over the lane scalar.
//!
//! Energy-storage elements are replaced per step by their companion
//! models (Norton/Thévenin equivalents of the integration rule), turning
//! each timestep into a linear — or, with diodes, Newton-iterated — MNA
//! solve. Two execution paths matter for the paper's claims:
//!
//! * **Linear networks** ("Such networks can be simulated using efficient
//!   dedicated algorithms", §3/O5): the system matrix is constant for a
//!   fixed step, so it is factored *once* and only the right-hand side is
//!   rebuilt per step — experiment E5 benchmarks exactly this.
//! * **Stiff/nonlinear networks** (phase 2/3): Newton iteration per step
//!   and local-truncation-error-controlled variable steps
//!   ([`Transient::run_adaptive`]) — experiment E3.

use crate::assembly::{MnaSystem, SolverBackend, Stamp};
use crate::checkpoint::Checkpoint;
use crate::dcop::{diode_iv, DcOptions, GMIN};
use crate::devices::{nmos_linearize, NmosOp};
use crate::mna::{
    stamp_branch_kcl, stamp_branch_voltage, stamp_conductance, stamp_current, stamp_mos,
    stamp_vccs, MnaLayout,
};
use crate::{Circuit, ElementId, ElementKind, InputId, NetError, NodeId, Waveform};
use ams_math::{DVec, F64xK, Lanes, Scalar, SolveStats, SparseLu};
use ams_monitor::MonitorBank;
use ams_scope::{SpanKind, TraceEvent, Tracer};

/// Seconds → femtoseconds, saturating (the tracer's time base).
#[inline]
fn fs(t: f64) -> u64 {
    (t * 1e15) as u64
}

/// Integration rule for the companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrationMethod {
    /// Backward Euler: first order, L-stable, damps switching ringing.
    BackwardEuler,
    /// Trapezoidal: second order, A-stable (SPICE default).
    #[default]
    Trapezoidal,
}

/// Counters accumulated by a transient run. Lane engines count per
/// *bundle*: one step or factorization advances every lane at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Accepted timesteps.
    pub steps: u64,
    /// Steps rejected by the adaptive error controller.
    pub rejected: u64,
    /// Newton iterations across all steps (1 per step for linear
    /// circuits).
    pub newton_iterations: u64,
    /// Matrix factorizations performed (≪ steps on the linear fast path).
    pub factorizations: u64,
    /// Linear-solver counters (sparse symbolic/numeric split, pattern
    /// sizes, reused factorizations).
    pub solve: SolveStats,
}

/// Options controlling [`Transient::run_adaptive`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveOptions {
    /// Relative error tolerance on node voltages/branch currents.
    pub rel_tol: f64,
    /// Absolute error tolerance.
    pub abs_tol: f64,
    /// Minimum step (underflow → error).
    pub min_step: f64,
    /// Maximum step.
    pub max_step: f64,
    /// Initial step.
    pub initial_step: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            rel_tol: 1e-4,
            abs_tol: 1e-7,
            min_step: 1e-15,
            max_step: f64::INFINITY,
            initial_step: 1e-9,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct EnergyState<T> {
    v: T,
    i: T,
}

#[derive(Debug, Clone)]
struct Snapshot<T: Scalar> {
    x: DVec<T>,
    time: f64,
    state: Vec<EnergyState<T>>,
    force_be: u32,
    live: u64,
}

/// Everything the linear-path system matrix depends on: step size,
/// effective integration rule and switch states.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FactorKey {
    h_bits: u64,
    be: bool,
    switches: Vec<bool>,
}

/// A monitor bank per lane bound to the engine's unknown vector:
/// channel `ch` of every bank reads MNA variable `vars[ch]` (`None` =
/// ground, 0 V) in that bank's lane.
#[derive(Debug, Clone)]
struct MonitorTap {
    banks: Vec<MonitorBank>,
    vars: Vec<Option<usize>>,
}

/// An opaque, cloneable symbolic sparse-LU analysis extracted from one
/// engine and adoptable by engines over value-variants of the same
/// circuit topology (same elements, different parameters).
///
/// The batched-sweep amortization primitive: the first scenario of a
/// topology-invariant family pays the symbolic analysis (ordering,
/// pivot sequence, fill pattern); every other scenario adopts it and
/// pays only a numeric refactorization per matrix change. `T` is the
/// lane scalar of the engine that computed it;
/// [`LaneSymbolicFactor<K>`] names the `K`-lane instance.
#[derive(Debug, Clone)]
pub struct SymbolicFactor<T: Scalar = f64>(SparseLu<T>);

/// The symbolic factor of a `K`-lane engine.
pub type LaneSymbolicFactor<const K: usize> = SymbolicFactor<F64xK<K>>;

impl<T: Scalar> SymbolicFactor<T> {
    /// Dimension of the factored system (number of MNA unknowns).
    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// Estimated resident size in bytes. The currency of byte-budgeted
    /// factor caches (`ams-serve`'s topology cache), not an exact
    /// allocation count. Delegates to
    /// [`SparseLu::approx_bytes`], which charges value arrays at their
    /// true scalar width — a `K`-lane factor reports `K×` the value
    /// bytes, so lane factors cannot slip under an LRU byte budget at
    /// scalar prices.
    pub fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }

    /// The same symbolic analysis (ordering, pivot sequence, fill
    /// pattern) re-typed for an engine of another lane width; the
    /// values are left for the adopter's first refactor to fill.
    pub fn cast<U: Scalar>(&self) -> SymbolicFactor<U> {
        SymbolicFactor(self.0.cast_symbolic())
    }
}

/// The transient engine over `T::LANES` topology-identical circuits.
///
/// The engine is written once against [`Lanes`]: `f64` is one lane,
/// [`F64xK`] is `K` *topology-identical* circuits (same nodes, element
/// kinds and connectivity — only parameter values differ) advanced in
/// lockstep through the same assembly, sparse LU and Newton. The two
/// instances have names of their own: [`TransientSolver`] is
/// `Transient<f64>` and [`LaneTransientSolver<K>`] is
/// `Transient<F64xK<K>>`. The one-lane instance runs plain `f64`
/// arithmetic: its lane loops are a single iteration the compiler
/// folds away.
///
/// Semantics that only show at widths above one:
///
/// * **Pivoting.** The sparse pivot *sequence* is pattern-determined
///   and shared by all lanes (the scalar symbolic factor's, when
///   adopted via [`Transient::adopt_scalar_factor`]). Pivot acceptance
///   guards use `modulus` = max across live lanes, so a refactor fails
///   ([`NetError::Singular`]) only when *every* lane is numerically dead
///   at that pivot.
/// * **Newton.** Convergence is checked per lane; a lane whose iterate
///   goes non-finite is masked out (its solution becomes NaN) instead of
///   failing the bundle, and the step errors only when no live lane is
///   left. Live lanes iterate until *all* converge, so a hard corner can
///   add iterations to easy ones — the documented ≤1e-9 deviation source
///   against scalar runs (same fixed point, different iteration count).
/// * **Step control.** [`Transient::run_adaptive`] estimates the local
///   truncation error per lane and accepts on the *maximum* over live
///   lanes: the shared step is the smallest per-lane desired step. A
///   lane that goes non-finite is masked out; at width one that leaves
///   no live lane and the run fails.
/// * **Divergence isolation.** Lanewise arithmetic never mixes lanes, so
///   a NaN corner stays confined to its lane by construction.
///
/// Checkpoints ([`Checkpoint`]) are captured from the scalar instance
/// only; restoring one into a `K`-lane engine broadcasts the snapshot
/// into every lane — the fork of a prefix-shared lane sweep.
///
/// # Example
///
/// RC charging curve on the scalar instance:
///
/// ```
/// use ams_net::{Circuit, IntegrationMethod, TransientSolver};
///
/// # fn main() -> Result<(), ams_net::NetError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let out = ckt.node("out");
/// ckt.voltage_source("V1", a, Circuit::GROUND, 1.0)?;
/// ckt.resistor("R1", a, out, 1e3)?;
/// ckt.capacitor_ic("C1", out, Circuit::GROUND, 1e-6, 0.0)?; // τ = 1 ms
/// let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal)?;
/// tr.initialize_with_ic()?;
/// for _ in 0..1000 {
///     tr.step(1e-6)?; // 1 ms total
/// }
/// let expected = 1.0 - (-1.0f64).exp();
/// assert!((tr.voltage(out) - expected).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
///
/// Four RC curves with different resistors, one instruction stream:
///
/// ```
/// use ams_net::{Circuit, IntegrationMethod, LaneTransientSolver};
///
/// # fn main() -> Result<(), ams_net::NetError> {
/// let build = |r: f64| -> Result<Circuit, ams_net::NetError> {
///     let mut ckt = Circuit::new();
///     let a = ckt.node("a");
///     let out = ckt.node("out");
///     ckt.voltage_source("V1", a, Circuit::GROUND, 1.0)?;
///     ckt.resistor("R1", a, out, r)?;
///     ckt.capacitor_ic("C1", out, Circuit::GROUND, 1e-6, 0.0)?;
///     Ok(ckt)
/// };
/// let circuits: Vec<Circuit> = [0.5e3, 1e3, 2e3, 4e3]
///     .iter()
///     .map(|&r| build(r))
///     .collect::<Result<_, _>>()?;
/// let mut tr =
///     LaneTransientSolver::<4>::new(&circuits, IntegrationMethod::Trapezoidal)?;
/// tr.initialize_with_ic()?;
/// for _ in 0..1000 {
///     tr.step(1e-6)?; // 1 ms total
/// }
/// let out = circuits[0].nodes().nth(2).unwrap();
/// // Lane 1 is the τ = 1 ms circuit: v = 1 − e⁻¹ after one τ.
/// let expected = 1.0 - (-1.0f64).exp();
/// assert!((tr.voltage_lane(out, 1) - expected).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Transient<T: Lanes> {
    /// One circuit per lane (lane `l`'s parameters and waveforms);
    /// `circuits[0]` is the topology every assembly walks.
    circuits: Vec<Circuit>,
    layout: MnaLayout,
    method: IntegrationMethod,
    x: DVec<T>,
    time: f64,
    /// Per-lane external inputs, lane-major (`ext[l][input]`) so each
    /// lane's slice feeds `Waveform::value_at` directly.
    ext: Vec<Vec<f64>>,
    /// Switch states are topology-level events, shared by all lanes.
    switches: Vec<bool>,
    /// Per-element capacitor/inductor history (unused slots default).
    state: Vec<EnergyState<T>>,
    nonlinear: bool,
    /// Steps remaining that are forced to backward Euler (after
    /// discontinuities such as switch toggles).
    force_be: u32,
    /// The backing linear system (pattern, values, cached factors);
    /// created lazily on the first assembly.
    sys: Option<MnaSystem<T>>,
    /// `(h, method, switches)` of the factorization currently cached by
    /// `sys` on the linear fast path.
    factor_key: Option<FactorKey>,
    /// Linear-solver backend selection (dense / sparse / size-based).
    pub backend: SolverBackend,
    /// Set to disable factorization reuse (for benchmarking E5).
    pub reuse_factorization: bool,
    /// A symbolic analysis adopted from a topology-identical sibling,
    /// consumed when the backing system is first created.
    symbolic_hint: Option<SparseLu<T>>,
    /// Lane liveness bits: a lane drops out on divergence instead of
    /// failing the bundle.
    live: u64,
    stats: TransientStats,
    initialized: bool,
    /// The adaptive controller's current step proposal, persisted
    /// across [`Transient::run_adaptive`] calls so a checkpointed run
    /// resumes with the step it would have tried next.
    adaptive_h: Option<f64>,
    /// Span recorder (disabled by default: one branch per hook).
    tracer: Tracer,
    /// Attached streaming assertion monitors (`None` = one branch per
    /// accepted step, the same disabled-cost discipline as `tracer`).
    monitors: Option<MonitorTap>,
}

/// The scalar engine: one circuit, plain `f64` arithmetic.
pub type TransientSolver = Transient<f64>;

/// The lane-bundled engine: `K` parameter corners of one topology per
/// instruction stream.
pub type LaneTransientSolver<const K: usize> = Transient<F64xK<K>>;

/// Bundles field `$field` of the `$kind` element at `$idx` across the
/// lane circuits. Lane 0 takes `$v0`, the value the caller already
/// destructured from the template element, so the one-lane instance
/// never re-matches.
macro_rules! lane_param {
    ($self:ident, $idx:expr, $v0:expr, $kind:ident, $field:ident) => {
        T::from_fn(|l| {
            if l == 0 {
                $v0
            } else {
                match $self.kind(l, $idx) {
                    ElementKind::$kind { $field, .. } => *$field,
                    _ => unreachable!("lane circuits share one topology"),
                }
            }
        })
    };
}

impl<T: Lanes> Transient<T> {
    /// Creates an engine over `circuits`, one per lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidValue`] unless exactly `T::LANES`
    /// circuits are given and they are topology-identical: same node
    /// and element counts, and element-for-element the same kind,
    /// terminals and control references. Parameter *values* (R/L/C,
    /// gains, waveform shapes, initial conditions) are free per lane.
    pub fn from_circuits(
        circuits: Vec<Circuit>,
        method: IntegrationMethod,
    ) -> Result<Self, NetError> {
        if circuits.len() != T::LANES {
            return Err(NetError::InvalidValue {
                element: "lane bundle".to_string(),
                reason: format!("expected {} circuits, got {}", T::LANES, circuits.len()),
            });
        }
        check_topology_identical(&circuits)?;
        let base = &circuits[0];
        let layout = MnaLayout::build(base);
        let nonlinear = base.elements().iter().any(|e| e.is_nonlinear());
        Ok(Transient {
            x: DVec::zeros(layout.n_unknowns),
            ext: vec![vec![0.0; base.external_input_count()]; T::LANES],
            switches: base.initial_switch_states(),
            state: vec![EnergyState::default(); base.element_count()],
            nonlinear,
            layout,
            circuits,
            method,
            time: 0.0,
            force_be: 0,
            sys: None,
            factor_key: None,
            backend: SolverBackend::default(),
            reuse_factorization: true,
            symbolic_hint: None,
            live: Self::ALL_LIVE,
            stats: TransientStats::default(),
            initialized: false,
            adaptive_h: None,
            tracer: Tracer::off(),
            monitors: None,
        })
    }

    /// Every lane's liveness bit set. Liveness is a `u64` mask, so an
    /// engine holds at most 64 lanes; a wider instance fails to compile
    /// here.
    const ALL_LIVE: u64 = u64::MAX >> (64 - T::LANES);

    /// Element `idx`'s kind in lane `l`'s circuit.
    #[inline]
    fn kind(&self, l: usize, idx: usize) -> &ElementKind {
        &self.circuits[l].elements()[idx].kind
    }

    /// Attaches a compiled monitor bank to every lane: channel `ch` of
    /// the bank reads node `nodes[ch]` (pair them with
    /// [`MonitorBank::channels`], resolved via [`Circuit::find_node`]).
    /// Each lane's bank is fed once per *accepted* step — trial and half
    /// steps of the adaptive controller never reach it — replacing any
    /// banks attached earlier.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` does not pair 1:1 with the bank's channels
    /// or names a node outside the circuit.
    pub fn attach_monitors(&mut self, bank: MonitorBank, nodes: &[NodeId]) {
        assert_eq!(
            bank.channels().len(),
            nodes.len(),
            "one node per monitor channel"
        );
        let vars = nodes
            .iter()
            .map(|&n| {
                assert!(n.index() < self.layout.n_nodes, "node out of range");
                self.layout.node_var(n)
            })
            .collect();
        self.monitors = Some(MonitorTap {
            banks: vec![bank; T::LANES],
            vars,
        });
    }

    /// The attached monitor banks, one per lane (empty when none are
    /// attached).
    pub fn monitor_banks(&self) -> &[MonitorBank] {
        self.monitors
            .as_ref()
            .map_or(&[][..], |t| t.banks.as_slice())
    }

    /// Feeds the attached monitors the current solution, each lane's
    /// bank its own lane. One branch when no bank is attached.
    #[inline]
    fn feed_monitors(&mut self) {
        if let Some(tap) = self.monitors.as_mut() {
            let t = self.time;
            for (l, bank) in tap.banks.iter_mut().enumerate() {
                for (ch, var) in tap.vars.iter().enumerate() {
                    let v = var.map_or(0.0, |i| self.x[i].lane(l));
                    bank.feed(ch, t, v);
                }
            }
        }
    }

    /// Enables or disables span tracing: MNA assemble/factor/solve
    /// spans, Newton-solve instants and adaptive accept/reject events,
    /// stamped with simulated time. Disabled (the default), every hook
    /// costs a single branch.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// `true` when span tracing is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Drains the recorded trace events (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    /// Current simulation time in seconds (shared by all lanes).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The lane width.
    pub fn lanes(&self) -> usize {
        T::LANES
    }

    #[inline]
    fn is_live(&self, l: usize) -> bool {
        self.live >> l & 1 == 1
    }

    /// A probe view of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics when `l` is not a lane of this engine.
    pub fn lane_view(&self, l: usize) -> LaneView<'_, T> {
        assert!(l < T::LANES, "lane out of range");
        LaneView {
            solver: self,
            lane: l,
        }
    }

    /// Extracts the sparse symbolic analysis of this engine's transient
    /// system, if one has been computed (sparse backend, at least one
    /// factored step). Engines over value-variants of the same circuit
    /// topology can [adopt](Transient::adopt_symbolic_factor) it to
    /// replace their own symbolic analysis with a numeric refactor.
    pub fn symbolic_factor(&self) -> Option<SymbolicFactor<T>> {
        self.sys
            .as_ref()
            .and_then(|s| s.export_sparse_factor())
            .map(SymbolicFactor)
    }

    /// Adopts a symbolic analysis extracted from an engine of the same
    /// width over the same circuit topology: this engine's first sparse
    /// factorization becomes a numeric refactor (counted in
    /// [`SolveStats::numeric_refactors`], not `symbolic_analyses`). A
    /// hint whose pattern does not match is ignored and a fresh
    /// symbolic analysis happens as usual.
    pub fn adopt_symbolic_factor(&mut self, hint: &SymbolicFactor<T>) {
        self.symbolic_hint = Some(hint.0.clone());
    }

    /// Adopts a *scalar* symbolic analysis (from a [`TransientSolver`]
    /// over the same topology), widened to this engine's lanes. The
    /// pivot sequence is pattern-determined, so each lane replays
    /// exactly the scalar factor's elimination — the op-for-op basis of
    /// lane-vs-scalar parity.
    pub fn adopt_scalar_factor(&mut self, hint: &SymbolicFactor) {
        self.symbolic_hint = Some(hint.0.cast_symbolic());
    }

    /// Accumulated statistics (including the live linear-solver
    /// counters).
    pub fn stats(&self) -> TransientStats {
        let mut s = self.stats;
        if let Some(sys) = &self.sys {
            s.solve.merge(&sys.stats());
        }
        s
    }

    /// Sets an external source input of one lane (takes effect from the
    /// next step).
    ///
    /// # Panics
    ///
    /// Panics if the lane or handle is out of range.
    pub fn set_input_lane(&mut self, input: InputId, lane: usize, value: f64) {
        self.ext[lane][input.index()] = value;
    }

    /// Sets a switch state for **all** lanes (switch events are
    /// topology-level); the next step uses backward Euler once to damp
    /// the discontinuity.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] if `elem` is not a switch.
    pub fn set_switch(&mut self, elem: ElementId, on: bool) -> Result<(), NetError> {
        match self.circuits[0]
            .elements()
            .get(elem.index())
            .map(|e| &e.kind)
        {
            Some(ElementKind::Switch { .. }) => {
                if self.switches[elem.index()] != on {
                    self.switches[elem.index()] = on;
                    self.force_be = 1;
                    self.factor_key = None;
                }
                Ok(())
            }
            _ => Err(NetError::UnknownElement {
                index: elem.index(),
                what: "switch",
            }),
        }
    }

    /// The voltage of a node in lane `l` at the current time.
    ///
    /// # Panics
    ///
    /// Panics for nodes outside the circuit or lanes out of range.
    pub fn voltage_lane(&self, node: NodeId, l: usize) -> f64 {
        assert!(node.index() < self.layout.n_nodes, "node out of range");
        match self.layout.node_var(node) {
            None => 0.0,
            Some(i) => self.x[i].lane(l),
        }
    }

    /// The current through an element in lane `l` at the current time
    /// (branch elements, resistors, switches, capacitors, diodes,
    /// NMOS).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] for unsupported kinds.
    pub fn current_lane(&self, elem: ElementId, l: usize) -> Result<f64, NetError> {
        let e = self.circuits[l]
            .elements()
            .get(elem.index())
            .ok_or(NetError::UnknownElement {
                index: elem.index(),
                what: "current",
            })?;
        if let Some(b) = self.layout.branch_var(elem) {
            return Ok(self.x[b].lane(l));
        }
        let v = self.voltage_lane(e.p, l) - self.voltage_lane(e.n, l);
        match &e.kind {
            ElementKind::Resistor { ohms } => Ok(v / ohms),
            ElementKind::Capacitor { .. } => Ok(self.state[elem.index()].i.lane(l)),
            ElementKind::Switch { r_on, r_off, .. } => {
                let r = if self.switches[elem.index()] {
                    *r_on
                } else {
                    *r_off
                };
                Ok(v / r)
            }
            ElementKind::Diode { is_sat, n } => Ok(diode_iv(v, *is_sat, *n).0 + GMIN * v),
            ElementKind::Nmos {
                gate,
                kp,
                vt,
                lambda,
            } => {
                let vg = self.voltage_lane(*gate, l);
                let vd = self.voltage_lane(e.p, l);
                let vs = self.voltage_lane(e.n, l);
                Ok(nmos_linearize(vg, vd, vs, *kp, *vt, *lambda).id + GMIN * v)
            }
            _ => Err(NetError::UnknownElement {
                index: elem.index(),
                what: "computable branch current",
            }),
        }
    }

    /// Initializes every lane from its own DC operating point (the
    /// paper's consistent quiescent state; one scalar DC solve per
    /// lane), honoring element initial conditions where given.
    ///
    /// # Errors
    ///
    /// Propagates DC solve failures (any lane failing fails
    /// initialization: a consistent start is a precondition, not a
    /// per-lane property).
    pub fn initialize_dc(&mut self) -> Result<(), NetError> {
        let mut x: DVec<T> = DVec::zeros(self.layout.n_unknowns);
        for l in 0..T::LANES {
            let op = self.circuits[l].dc_operating_point_with(&self.ext[l], &self.switches)?;
            for i in 0..self.layout.n_unknowns {
                x[i].set_lane(l, op.x[i]);
            }
        }
        self.x = x;
        self.seed_state_from_solution();
        self.time = 0.0;
        self.initialized = true;
        self.factor_key = None;
        self.adaptive_h = None;
        self.live = Self::ALL_LIVE;
        Ok(())
    }

    /// Initializes using element initial conditions only (SPICE `UIC`),
    /// per lane: capacitors at their `ic` (default 0 V), inductors at
    /// their `ic` (default 0 A); no DC solve is performed.
    ///
    /// # Errors
    ///
    /// Infallible today; reserved for future validation.
    pub fn initialize_with_ic(&mut self) -> Result<(), NetError> {
        self.x = DVec::zeros(self.layout.n_unknowns);
        for idx in 0..self.state.len() {
            let mut st = EnergyState::<T>::default();
            let mut is_storage = false;
            for l in 0..T::LANES {
                match *self.kind(l, idx) {
                    ElementKind::Capacitor { ic, .. } => {
                        is_storage = true;
                        st.v.set_lane(l, ic.unwrap_or(0.0));
                    }
                    ElementKind::Inductor { ic, .. } => {
                        is_storage = true;
                        st.i.set_lane(l, ic.unwrap_or(0.0));
                    }
                    _ => {}
                }
            }
            if is_storage {
                self.state[idx] = st;
            }
        }
        self.time = 0.0;
        self.force_be = 1; // first step from possibly inconsistent state
        self.initialized = true;
        self.factor_key = None;
        self.adaptive_h = None;
        self.live = Self::ALL_LIVE;
        Ok(())
    }

    /// Seeds the companion history from the DC solution, overridden
    /// per lane by element initial conditions.
    fn seed_state_from_solution(&mut self) {
        for idx in 0..self.state.len() {
            let e = &self.circuits[0].elements()[idx];
            match e.kind {
                ElementKind::Capacitor { .. } => {
                    let mut v = self.branch_voltage(e.p, e.n);
                    for l in 0..T::LANES {
                        if let ElementKind::Capacitor { ic: Some(ic), .. } = *self.kind(l, idx) {
                            v.set_lane(l, ic);
                            self.force_be = 1;
                        }
                    }
                    self.state[idx] = EnergyState { v, i: T::ZERO };
                }
                ElementKind::Inductor { .. } => {
                    let mut i = self
                        .layout
                        .branch_var(ElementId(idx))
                        .map_or(T::ZERO, |b| self.x[b]);
                    for l in 0..T::LANES {
                        if let ElementKind::Inductor { ic: Some(ic), .. } = *self.kind(l, idx) {
                            i.set_lane(l, ic);
                            self.force_be = 1;
                        }
                    }
                    self.state[idx] = EnergyState { v: T::ZERO, i };
                }
                _ => {}
            }
        }
    }

    fn branch_voltage(&self, p: NodeId, n: NodeId) -> T {
        node_value(&self.layout, &self.x, p) - node_value(&self.layout, &self.x, n)
    }

    /// Kills lane `l`: marks it dead and poisons its solution and
    /// history with NaN so every later probe reads NaN.
    fn kill_lane(&mut self, l: usize) {
        self.live &= !(1 << l);
        for i in 0..self.x.len() {
            self.x[i].set_lane(l, f64::NAN);
        }
        for st in &mut self.state {
            st.v.set_lane(l, f64::NAN);
            st.i.set_lane(l, f64::NAN);
        }
    }

    /// Advances all live lanes by one step of size `h` seconds.
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidValue`] for a non-positive step.
    /// * [`NetError::NoConvergence`] when the per-step Newton leaves no
    ///   live lane converged (at widths above one, a single lane's
    ///   divergence only masks that lane).
    /// * [`NetError::Singular`] for topology problems (every lane dead
    ///   at some pivot).
    pub fn step(&mut self, h: f64) -> Result<(), NetError> {
        if !self.initialized {
            self.initialize_dc()?;
        }
        if h <= 0.0 || !h.is_finite() {
            return Err(NetError::InvalidValue {
                element: "timestep".to_string(),
                reason: format!("step must be positive and finite, got {h}"),
            });
        }
        let be = self.force_be > 0 || matches!(self.method, IntegrationMethod::BackwardEuler);
        let t_new = self.time + h;
        let n = self.layout.n_unknowns;

        let x_new = if self.nonlinear {
            // Newton loop with per-lane convergence and divergence
            // masks: reassemble and refactor each iteration.
            let mut x_iter = self.x.clone();
            let opts = DcOptions::default();
            let mut done = 0u64;
            let mut iters = 0;
            for _ in 0..opts.max_iter {
                iters += 1;
                self.assemble_and_factor(&x_iter, t_new, h, be, self.reuse_factorization)?;
                if self.tracer.is_enabled() {
                    self.tracer.begin(SpanKind::MnaSolve, fs(t_new));
                }
                let solved = self
                    .sys
                    .as_ref()
                    .expect("system just assembled")
                    .solve_rhs();
                if self.tracer.is_enabled() {
                    self.tracer.end(SpanKind::MnaSolve, fs(t_new));
                }
                let x_next = solved?;
                for l in 0..T::LANES {
                    if !self.is_live(l) {
                        continue;
                    }
                    let mut lane_done = true;
                    let mut lane_finite = true;
                    for i in 0..n {
                        let a = x_next[i].lane(l);
                        let b = x_iter[i].lane(l);
                        if !a.is_finite() {
                            lane_finite = false;
                            break;
                        }
                        let d = (a - b).abs();
                        if d > opts.v_tol + opts.rel_tol * a.abs().max(b.abs()) {
                            lane_done = false;
                        }
                    }
                    if !lane_finite {
                        // Divergence masking: the corner dies, the
                        // bundle lives.
                        self.kill_lane(l);
                    } else if lane_done {
                        done |= 1 << l;
                    } else {
                        done &= !(1 << l);
                    }
                }
                x_iter = x_next;
                // Re-poison dead lanes so NaN keeps flowing through the
                // next assembly instead of a stale finite iterate.
                self.poison_dead(&mut x_iter);
                if self.live & !done == 0 {
                    break;
                }
            }
            self.stats.newton_iterations += iters;
            if self.tracer.is_enabled() {
                self.tracer
                    .instant(SpanKind::NewtonIteration, fs(t_new), iters);
            }
            // Lanes that never converged are masked out; the step fails
            // only when that leaves no live lane.
            for l in 0..T::LANES {
                if self.is_live(l) && done >> l & 1 == 0 {
                    self.kill_lane(l);
                }
            }
            if self.live == 0 {
                return Err(NetError::NoConvergence {
                    analysis: "transient step",
                    iterations: iters as usize,
                });
            }
            self.poison_dead(&mut x_iter);
            x_iter
        } else {
            // Linear fast path: matrix depends only on (h, method, switches).
            let key = FactorKey {
                h_bits: h.to_bits(),
                be,
                switches: self.switches.clone(),
            };
            let cache_ok = self.reuse_factorization
                && self.factor_key.as_ref() == Some(&key)
                && self
                    .sys
                    .as_ref()
                    .is_some_and(|s| s.is_sparse() == self.backend.use_sparse(n));
            if !cache_ok {
                let x = self.x.clone();
                self.assemble_and_factor(&x, t_new, h, be, self.reuse_factorization)?;
                self.factor_key = Some(key);
            }
            // (Re)build only the RHS and reuse the cached factors.
            let mut sys = self.sys.take().expect("system just ensured");
            sys.assemble_rhs(|st| self.assemble_rhs_only(st, t_new, h, be));
            if self.tracer.is_enabled() {
                self.tracer.begin(SpanKind::MnaSolve, fs(t_new));
            }
            let solved = sys.solve_rhs();
            if self.tracer.is_enabled() {
                self.tracer.end(SpanKind::MnaSolve, fs(t_new));
            }
            self.sys = Some(sys);
            self.stats.newton_iterations += 1;
            solved?
        };

        self.commit_step(x_new, t_new, h, be);
        Ok(())
    }

    /// Overwrites the dead lanes of `x` with NaN.
    fn poison_dead(&self, x: &mut DVec<T>) {
        if self.live == Self::ALL_LIVE {
            return;
        }
        for l in (0..T::LANES).filter(|&l| !self.is_live(l)) {
            for i in 0..x.len() {
                x[i].set_lane(l, f64::NAN);
            }
        }
    }

    /// Shared assemble-then-factor step of both the Newton and the
    /// linear paths: lazily creates the backing [`MnaSystem`] (recording
    /// the sparsity pattern once — the stamp sequence is
    /// topology-determined, so any state works), replays the assembly at
    /// iterate `x`, and factors. With `allow_reuse`, bitwise-identical
    /// matrix values provably reuse the cached factors.
    fn assemble_and_factor(
        &mut self,
        x: &DVec<T>,
        t_new: f64,
        h: f64,
        be: bool,
        allow_reuse: bool,
    ) -> Result<(), NetError> {
        let n = self.layout.n_unknowns;
        let use_sparse = self.backend.use_sparse(n);
        let traced = self.tracer.is_enabled();
        if traced {
            self.tracer.begin(SpanKind::MnaAssemble, fs(t_new));
        }
        let mut sys = match self.sys.take() {
            Some(s) if s.is_sparse() == use_sparse => s,
            other => {
                if let Some(old) = other {
                    // Keep the counters of a system we are replacing.
                    self.stats.solve.merge(&old.stats());
                }
                let mut fresh =
                    MnaSystem::new(n, use_sparse, |st| self.assemble(st, x, t_new, h, be));
                if let Some(hint) = self.symbolic_hint.take() {
                    // Adopted from a topology-identical sibling: the
                    // first factor becomes a numeric refactor.
                    fresh.import_sparse_factor(hint);
                }
                fresh
            }
        };
        sys.assemble(|st| self.assemble(st, x, t_new, h, be));
        if traced {
            self.tracer.end(SpanKind::MnaAssemble, fs(t_new));
            self.tracer.begin(SpanKind::MnaFactor, fs(t_new));
        }
        let factored = sys.factor(allow_reuse);
        if traced {
            self.tracer.end(SpanKind::MnaFactor, fs(t_new));
        }
        self.sys = Some(sys);
        if factored? {
            self.stats.factorizations += 1;
        }
        Ok(())
    }

    fn commit_step(&mut self, x_new: DVec<T>, t_new: f64, h: f64, be: bool) {
        self.x = x_new;
        let hh = T::from_f64(h);
        let two = T::from_f64(2.0);
        // Update energy-storage history.
        for (idx, e) in self.circuits[0].elements().iter().enumerate() {
            match &e.kind {
                ElementKind::Capacitor { farads, .. } => {
                    let c = lane_param!(self, idx, *farads, Capacitor, farads);
                    let v_new = self.branch_voltage(e.p, e.n);
                    let st = self.state[idx];
                    let i_new = if be {
                        c / hh * (v_new - st.v)
                    } else {
                        two * c / hh * (v_new - st.v) - st.i
                    };
                    self.state[idx] = EnergyState { v: v_new, i: i_new };
                }
                ElementKind::Inductor { .. } => {
                    let b = self
                        .layout
                        .branch_var(ElementId(idx))
                        .expect("inductor branch");
                    let i_new = self.x[b];
                    let v_new = self.branch_voltage(e.p, e.n);
                    self.state[idx] = EnergyState { v: v_new, i: i_new };
                }
                _ => {}
            }
        }
        self.time = t_new;
        self.stats.steps += 1;
        if self.force_be > 0 {
            self.force_be -= 1;
        }
    }

    /// Evaluates an independent source's waveform per lane at `t`; lane
    /// 0 uses `wave0`, the template element's.
    #[inline]
    fn lane_wave(&self, idx: usize, wave0: &Waveform, t: f64) -> T {
        T::from_fn(|l| {
            let wave = if l == 0 {
                wave0
            } else {
                match self.kind(l, idx) {
                    ElementKind::VoltageSource { wave, .. }
                    | ElementKind::CurrentSource { wave, .. } => wave,
                    _ => unreachable!("lane circuits share one topology"),
                }
            };
            wave.value_at(t, &self.ext[l])
        })
    }

    /// Assembles the full linearized system at candidate solution `x`.
    ///
    /// The stamp-call sequence depends only on the circuit topology (not
    /// on `x`, the time, the step, the switch states or the lane), which
    /// keeps the recorded sparse pattern, the stamp pointers and any
    /// adopted symbolic factor valid across steps and lane widths.
    fn assemble(&self, st: &mut dyn Stamp<T>, x: &DVec<T>, t_new: f64, h: f64, be: bool) {
        let layout = &self.layout;
        let hh = T::from_f64(h);
        let two = T::from_f64(2.0);
        let gmin = T::from_f64(GMIN);
        for (idx, e) in self.circuits[0].elements().iter().enumerate() {
            let eid = ElementId(idx);
            match &e.kind {
                ElementKind::Resistor { ohms } => {
                    let r = lane_param!(self, idx, *ohms, Resistor, ohms);
                    stamp_conductance(layout, st, e.p, e.n, T::ONE / r);
                }
                ElementKind::Capacitor { farads, .. } => {
                    let c = lane_param!(self, idx, *farads, Capacitor, farads);
                    let es = self.state[idx];
                    let (geq, ieq) = if be {
                        let g = c / hh;
                        (g, g * es.v)
                    } else {
                        let g = two * c / hh;
                        (g, g * es.v + es.i)
                    };
                    stamp_conductance(layout, st, e.p, e.n, geq);
                    // Norton source injecting Ieq into p.
                    stamp_current(layout, st, e.n, e.p, ieq);
                }
                ElementKind::Inductor { henries, .. } => {
                    let ind = lane_param!(self, idx, *henries, Inductor, henries);
                    let b = layout.branch_var(eid).expect("inductor branch");
                    let es = self.state[idx];
                    stamp_branch_kcl(layout, st, e.p, e.n, b);
                    stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    let req = if be { ind / hh } else { two * ind / hh };
                    st.mat(b, b, -req);
                    if be {
                        st.rhs(b, -req * es.i);
                    } else {
                        st.rhs(b, -req * es.i - es.v);
                    }
                }
                ElementKind::VoltageSource { wave, .. } => {
                    let b = layout.branch_var(eid).expect("vsource branch");
                    stamp_branch_kcl(layout, st, e.p, e.n, b);
                    stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    st.rhs(b, self.lane_wave(idx, wave, t_new));
                }
                ElementKind::CurrentSource { wave, .. } => {
                    let i = self.lane_wave(idx, wave, t_new);
                    stamp_current(layout, st, e.p, e.n, i);
                }
                ElementKind::Vcvs { cp, cn, gain } => {
                    let gain = lane_param!(self, idx, *gain, Vcvs, gain);
                    let b = layout.branch_var(eid).expect("vcvs branch");
                    stamp_branch_kcl(layout, st, e.p, e.n, b);
                    stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    stamp_branch_voltage(layout, st, b, *cp, *cn, -gain);
                }
                ElementKind::Vccs { cp, cn, gm } => {
                    let gm = lane_param!(self, idx, *gm, Vccs, gm);
                    stamp_vccs(layout, st, e.p, e.n, *cp, *cn, gm);
                }
                ElementKind::Cccs { ctrl, gain } => {
                    let gain = lane_param!(self, idx, *gain, Cccs, gain);
                    let cb = layout.branch_var(*ctrl).expect("validated control");
                    if let Some(ip) = layout.node_var(e.p) {
                        st.mat(ip, cb, gain);
                    }
                    if let Some(in_) = layout.node_var(e.n) {
                        st.mat(in_, cb, -gain);
                    }
                }
                ElementKind::Ccvs { ctrl, r } => {
                    let r = lane_param!(self, idx, *r, Ccvs, r);
                    let b = layout.branch_var(eid).expect("ccvs branch");
                    let cb = layout.branch_var(*ctrl).expect("validated control");
                    stamp_branch_kcl(layout, st, e.p, e.n, b);
                    stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    st.mat(b, cb, -r);
                }
                ElementKind::Diode { .. } => {
                    let v = node_value(layout, x, e.p) - node_value(layout, x, e.n);
                    // The exponential is inherently scalar: linearize
                    // each lane at its own bias.
                    let (mut i, mut g) = (T::ZERO, T::ZERO);
                    for l in 0..T::LANES {
                        if let ElementKind::Diode { is_sat, n } = *self.kind(l, idx) {
                            let (il, gl) = diode_iv(v.lane(l), is_sat, n);
                            i.set_lane(l, il);
                            g.set_lane(l, gl);
                        }
                    }
                    stamp_conductance(layout, st, e.p, e.n, g + gmin);
                    stamp_current(layout, st, e.p, e.n, i - g * v);
                }
                ElementKind::Nmos { gate, .. } => {
                    let vg = node_value(layout, x, *gate);
                    let vd = node_value(layout, x, e.p);
                    let vs = node_value(layout, x, e.n);
                    let mut op = NmosOp::<T>::default();
                    for l in 0..T::LANES {
                        if let ElementKind::Nmos { kp, vt, lambda, .. } = *self.kind(l, idx) {
                            let o =
                                nmos_linearize(vg.lane(l), vd.lane(l), vs.lane(l), kp, vt, lambda);
                            op.id.set_lane(l, o.id);
                            op.a_g.set_lane(l, o.a_g);
                            op.a_d.set_lane(l, o.a_d);
                            op.a_s.set_lane(l, o.a_s);
                        }
                    }
                    stamp_mos(layout, st, e.p, *gate, e.n, &op, vg, vd, vs);
                    stamp_conductance(layout, st, e.p, e.n, gmin);
                }
                ElementKind::Switch { r_on, r_off, .. } => {
                    let r = if self.switches[idx] {
                        lane_param!(self, idx, *r_on, Switch, r_on)
                    } else {
                        lane_param!(self, idx, *r_off, Switch, r_off)
                    };
                    stamp_conductance(layout, st, e.p, e.n, T::ONE / r);
                }
            }
        }
    }

    /// Rebuilds only the RHS (linear fast path).
    fn assemble_rhs_only(&self, st: &mut dyn Stamp<T>, t_new: f64, h: f64, be: bool) {
        let layout = &self.layout;
        let hh = T::from_f64(h);
        let two = T::from_f64(2.0);
        for (idx, e) in self.circuits[0].elements().iter().enumerate() {
            let eid = ElementId(idx);
            match &e.kind {
                ElementKind::Capacitor { farads, .. } => {
                    let c = lane_param!(self, idx, *farads, Capacitor, farads);
                    let es = self.state[idx];
                    let ieq = if be {
                        c / hh * es.v
                    } else {
                        two * c / hh * es.v + es.i
                    };
                    stamp_current(layout, st, e.n, e.p, ieq);
                }
                ElementKind::Inductor { henries, .. } => {
                    let ind = lane_param!(self, idx, *henries, Inductor, henries);
                    let b = layout.branch_var(eid).expect("inductor branch");
                    let es = self.state[idx];
                    if be {
                        st.rhs(b, -(ind / hh) * es.i);
                    } else {
                        st.rhs(b, -(two * ind / hh) * es.i - es.v);
                    }
                }
                ElementKind::VoltageSource { wave, .. } => {
                    let b = layout.branch_var(eid).expect("vsource branch");
                    st.rhs(b, self.lane_wave(idx, wave, t_new));
                }
                ElementKind::CurrentSource { wave, .. } => {
                    let i = self.lane_wave(idx, wave, t_new);
                    stamp_current(layout, st, e.p, e.n, i);
                }
                _ => {}
            }
        }
    }

    fn snapshot(&self) -> Snapshot<T> {
        Snapshot {
            x: self.x.clone(),
            time: self.time,
            state: self.state.clone(),
            force_be: self.force_be,
            live: self.live,
        }
    }

    fn restore(&mut self, s: &Snapshot<T>) {
        self.x = s.x.clone();
        self.time = s.time;
        self.state = s.state.clone();
        self.force_be = s.force_be;
        self.live = s.live;
    }

    /// Runs fixed-step transient until `t_end`, feeding the attached
    /// monitors and invoking `probe` after each step.
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run(
        &mut self,
        t_end: f64,
        h: f64,
        mut probe: impl FnMut(&Transient<T>),
    ) -> Result<(), NetError> {
        if !self.initialized {
            self.initialize_dc()?;
        }
        while self.time < t_end - 1e-18 {
            let step = h.min(t_end - self.time);
            self.step(step)?;
            self.feed_monitors();
            probe(self);
        }
        Ok(())
    }

    /// Runs variable-step transient until `t_end` using step-doubling
    /// local-truncation-error control, feeding the attached monitors and
    /// invoking `probe` after each accepted step. The error estimate is
    /// evaluated per lane and the accept decision uses the maximum over
    /// live lanes; a lane whose half- or full-step solution goes
    /// non-finite is masked out (NaN results) rather than rejecting the
    /// bundle's step.
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidValue`] when the controller underflows
    ///   `min_step`.
    /// * [`NetError::NoConvergence`] when every lane has gone
    ///   non-finite — at width one, any non-finite solution.
    /// * Propagates solver failures.
    pub fn run_adaptive(
        &mut self,
        t_end: f64,
        opts: &AdaptiveOptions,
        mut probe: impl FnMut(&Transient<T>),
    ) -> Result<(), NetError> {
        if !self.initialized {
            self.initialize_dc()?;
        }
        // Resume with the step proposal a previous (checkpointed) run
        // left behind; a fresh engine starts at initial_step.
        let mut h = self.adaptive_h.unwrap_or(opts.initial_step);
        // Step-doubling on an order-p method estimates an O(h^(p+1))
        // local error, so the optimal-step update is
        // h · (safety / err)^(1/(p+1)): exponent 1/3 for trapezoidal
        // (p = 2), 1/2 for backward Euler (p = 1).
        let order_exp = match self.method {
            IntegrationMethod::BackwardEuler => 1.0 / 2.0,
            IntegrationMethod::Trapezoidal => 1.0 / 3.0,
        };
        const SAFETY: f64 = 0.9;
        while self.time < t_end - 1e-18 {
            // Enforce min_step first, then clamp to the remaining span
            // unconditionally: the final step must never overshoot
            // t_end, even when the remaining span is below min_step.
            let remaining = t_end - self.time;
            let h_step = h.max(opts.min_step).min(remaining);
            // `min` returned the span ⇒ this step lands exactly on t_end.
            let final_step = h_step >= remaining;
            let start = self.snapshot();

            // Full step.
            let full_ok = self.step(h_step).is_ok();
            let x_full = self.x.clone();
            self.restore(&start);

            // Two half steps.
            let half_ok =
                full_ok && self.step(h_step / 2.0).is_ok() && self.step(h_step / 2.0).is_ok();

            // Error estimate between the two solutions, per lane; lanes
            // that went non-finite on either attempt are masked out.
            let mut err = 0.0f64;
            if half_ok {
                for l in 0..T::LANES {
                    if !self.is_live(l) {
                        continue;
                    }
                    let mut lane_err = 0.0f64;
                    let mut lane_finite = true;
                    for i in 0..self.x.len() {
                        let (xh, xf) = (self.x[i].lane(l), x_full[i].lane(l));
                        if !xh.is_finite() || !xf.is_finite() {
                            lane_finite = false;
                            break;
                        }
                        let scale = opts.abs_tol + opts.rel_tol * xh.abs().max(xf.abs());
                        lane_err = lane_err.max(((xh - xf) / scale).abs());
                    }
                    if lane_finite {
                        // Shared step = min over lanes ⇔ shared error =
                        // max over lanes.
                        err = err.max(lane_err);
                    } else {
                        self.kill_lane(l);
                    }
                }
                if self.live == 0 {
                    return Err(NetError::NoConvergence {
                        analysis: "adaptive transient step",
                        iterations: 0,
                    });
                }
            }

            if half_ok && err <= 1.0 {
                // Accept the half-step solution (already committed).
                // The two half steps of a span-clamped final step can
                // drift an ulp past t_end; land exactly on the horizon
                // so probes never observe a time beyond it.
                if final_step {
                    self.time = t_end;
                }
                if self.tracer.is_enabled() {
                    self.tracer
                        .instant(SpanKind::StepAccept, fs(self.time), h_step.to_bits());
                }
                self.feed_monitors();
                probe(self);
                let grow = if err > 0.0 {
                    (SAFETY * err.powf(-order_exp)).min(3.0)
                } else {
                    3.0
                };
                h = (h_step * grow).clamp(opts.min_step, opts.max_step);
            } else {
                self.restore(&start);
                self.stats.rejected += 1;
                if self.tracer.is_enabled() {
                    self.tracer
                        .instant(SpanKind::StepReject, fs(self.time), h_step.to_bits());
                }
                // Underflow only when the step just attempted was
                // already at the floor: any larger rejected step earns
                // one retry clamped to min_step. Both reject causes
                // share this predicate — the clamp must never mask the
                // abort, nor the abort skip the retry.
                if h_step <= opts.min_step {
                    return Err(NetError::InvalidValue {
                        element: "adaptive timestep".to_string(),
                        reason: format!("step underflow at t = {}", self.time),
                    });
                }
                h = if half_ok {
                    let shrink = (SAFETY * err.powf(-order_exp)).max(0.1);
                    (h_step * shrink).max(opts.min_step)
                } else {
                    (h_step * 0.25).max(opts.min_step)
                };
            }
            self.adaptive_h = Some(h);
        }
        Ok(())
    }

    /// Restores a [`Checkpoint`] taken from a [`TransientSolver`] over
    /// this circuit or a **value-variant of the same topology** (the CoW
    /// fork: one prefix run, many restored siblings). A `K`-lane engine
    /// receives the snapshot in every lane. Continuing a restored run
    /// reproduces the donor's trajectory bit for bit as long as each
    /// lane's circuit agrees with the donor's on
    /// `[0, checkpoint.time()]`.
    ///
    /// The cached factorization is invalidated — the next step
    /// refactors (a numeric refactor when a [`SymbolicFactor`] was
    /// adopted), which only perturbs fingerprint-excluded policy
    /// counters. The step counters are overwritten with the
    /// checkpoint's, so a continued run accumulates to run-from-zero
    /// totals.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidValue`] when the checkpoint's dimensions
    /// (unknowns, elements, inputs, switches) do not match this
    /// engine's circuit.
    pub fn restore_checkpoint(&mut self, cp: &Checkpoint) -> Result<(), NetError> {
        let mismatch = |what: &str| NetError::InvalidValue {
            element: "checkpoint".to_string(),
            reason: format!("checkpoint/solver {what} mismatch"),
        };
        if cp.x.len() != self.layout.n_unknowns {
            return Err(mismatch("unknown count"));
        }
        if cp.state.len() != self.state.len() {
            return Err(mismatch("element count"));
        }
        if cp.ext.len() != self.ext[0].len() {
            return Err(mismatch("external input count"));
        }
        if cp.switches.len() != self.switches.len() {
            return Err(mismatch("switch count"));
        }
        for (i, &v) in cp.x.iter().enumerate() {
            self.x[i] = T::from_f64(v);
        }
        self.time = cp.time;
        for ext in &mut self.ext {
            ext.copy_from_slice(&cp.ext);
        }
        self.switches.copy_from_slice(&cp.switches);
        for (s, &(v, i)) in self.state.iter_mut().zip(&cp.state) {
            *s = EnergyState {
                v: T::from_f64(v),
                i: T::from_f64(i),
            };
        }
        self.force_be = cp.force_be;
        self.stats = cp.stats;
        self.adaptive_h = cp.adaptive_h;
        self.initialized = cp.initialized;
        self.factor_key = None;
        self.live = Self::ALL_LIVE;
        Ok(())
    }
}

/// Value of `node` in solution `x` (zero for ground).
#[inline]
fn node_value<T: Scalar>(layout: &MnaLayout, x: &DVec<T>, node: NodeId) -> T {
    layout.node_var(node).map_or(T::ZERO, |i| x[i])
}

impl TransientSolver {
    /// Creates the scalar engine for one circuit.
    ///
    /// # Errors
    ///
    /// Currently always succeeds for a valid circuit; returns
    /// [`NetError`] variants for future element kinds that cannot be
    /// simulated in the time domain.
    pub fn new(circuit: &Circuit, method: IntegrationMethod) -> Result<Self, NetError> {
        Self::from_circuits(vec![circuit.clone()], method)
    }

    /// The voltage of a node at the current time.
    ///
    /// # Panics
    ///
    /// Panics for nodes outside the circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltage_lane(node, 0)
    }

    /// The current through an element at the current time (branch
    /// elements, resistors, switches, capacitors, inductors, diodes).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] for unsupported kinds.
    pub fn current(&self, elem: ElementId) -> Result<f64, NetError> {
        self.current_lane(elem, 0)
    }

    /// Sets an external source input (takes effect from the next step).
    ///
    /// # Panics
    ///
    /// Panics if the handle is out of range.
    pub fn set_input(&mut self, input: InputId, value: f64) {
        self.set_input_lane(input, 0, value);
    }

    /// The attached monitor bank, when present.
    pub fn monitor_bank(&self) -> Option<&MonitorBank> {
        self.monitor_banks().first()
    }

    /// Detaches and returns the monitor bank (with all accumulated
    /// automaton state), when present.
    pub fn take_monitors(&mut self) -> Option<MonitorBank> {
        self.monitors
            .take()
            .and_then(|t| t.banks.into_iter().next())
    }

    /// Freezes the engine's dynamic state into a [`Checkpoint`]: the
    /// fork point for copy-on-write scenario forking (run the shared
    /// prefix once, restore per fork — into an engine of any width) and
    /// the suspend point for restartable jobs. The factored matrix is
    /// *not* captured — see the [`checkpoint`](crate::checkpoint)
    /// module docs for exactly what is and is not included.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            x: self.x.iter().copied().collect(),
            time: self.time,
            ext: self.ext[0].clone(),
            switches: self.switches.clone(),
            state: self.state.iter().map(|s| (s.v, s.i)).collect(),
            force_be: self.force_be,
            stats: self.stats,
            adaptive_h: self.adaptive_h,
            initialized: self.initialized,
        }
    }
}

impl<const K: usize> LaneTransientSolver<K> {
    /// Creates a bundled engine over `circuits[0..K]`.
    ///
    /// # Errors
    ///
    /// As [`Transient::from_circuits`]: exactly `K` topology-identical
    /// circuits are required.
    pub fn new(circuits: &[Circuit], method: IntegrationMethod) -> Result<Self, NetError> {
        Self::from_circuits(circuits.to_vec(), method)
    }

    /// Which lanes are still live (not masked out by divergence).
    pub fn active_lanes(&self) -> [bool; K] {
        std::array::from_fn(|l| self.is_live(l))
    }
}

/// The probe surface shared by the scalar [`TransientSolver`] and a
/// [`LaneView`] of any engine: what a sweep's metric-extraction closure
/// is allowed to see after each accepted step.
pub trait ScenarioProbe {
    /// Current simulation time in seconds.
    fn time(&self) -> f64;

    /// The voltage of a node at the current time.
    fn voltage(&self, node: NodeId) -> f64;

    /// The current through an element at the current time.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] for kinds without a
    /// computable branch current.
    fn current(&self, elem: ElementId) -> Result<f64, NetError>;
}

impl ScenarioProbe for TransientSolver {
    fn time(&self) -> f64 {
        Transient::time(self)
    }

    fn voltage(&self, node: NodeId) -> f64 {
        TransientSolver::voltage(self, node)
    }

    fn current(&self, elem: ElementId) -> Result<f64, NetError> {
        TransientSolver::current(self, elem)
    }
}

/// A read-only view of one lane of a [`Transient`] engine, exposing the
/// [`ScenarioProbe`] surface. Sweep observers written against the probe
/// trait work unchanged at every lane width.
#[derive(Clone, Copy)]
pub struct LaneView<'a, T: Lanes> {
    solver: &'a Transient<T>,
    lane: usize,
}

impl<T: Lanes> LaneView<'_, T> {
    /// The lane index this view reads.
    pub fn lane(&self) -> usize {
        self.lane
    }
}

impl<T: Lanes> ScenarioProbe for LaneView<'_, T> {
    fn time(&self) -> f64 {
        self.solver.time()
    }

    fn voltage(&self, node: NodeId) -> f64 {
        self.solver.voltage_lane(node, self.lane)
    }

    fn current(&self, elem: ElementId) -> Result<f64, NetError> {
        self.solver.current_lane(elem, self.lane)
    }
}

/// Verifies that every circuit in `circuits` is a value-variant of
/// `circuits[0]`: identical node/element counts and, per element, the
/// same kind, terminals, control references and switch initial state.
fn check_topology_identical(circuits: &[Circuit]) -> Result<(), NetError> {
    let base = &circuits[0];
    for (l, c) in circuits.iter().enumerate().skip(1) {
        let mismatch = |what: &str| NetError::InvalidValue {
            element: format!("lane {l}"),
            reason: format!("lane circuits must be topology-identical: {what} differs"),
        };
        if c.node_count() != base.node_count() {
            return Err(mismatch("node count"));
        }
        if c.element_count() != base.element_count() {
            return Err(mismatch("element count"));
        }
        if c.external_input_count() != base.external_input_count() {
            return Err(mismatch("external input count"));
        }
        for (a, b) in base.elements().iter().zip(c.elements()) {
            if a.p != b.p || a.n != b.n {
                return Err(mismatch("element terminals"));
            }
            use std::mem::discriminant;
            if discriminant(&a.kind) != discriminant(&b.kind) {
                return Err(mismatch("element kind"));
            }
            let controls_match = match (&a.kind, &b.kind) {
                (
                    ElementKind::Vcvs { cp, cn, .. },
                    ElementKind::Vcvs {
                        cp: cp2, cn: cn2, ..
                    },
                )
                | (
                    ElementKind::Vccs { cp, cn, .. },
                    ElementKind::Vccs {
                        cp: cp2, cn: cn2, ..
                    },
                ) => cp == cp2 && cn == cn2,
                (ElementKind::Cccs { ctrl, .. }, ElementKind::Cccs { ctrl: ctrl2, .. })
                | (ElementKind::Ccvs { ctrl, .. }, ElementKind::Ccvs { ctrl: ctrl2, .. }) => {
                    ctrl == ctrl2
                }
                (ElementKind::Nmos { gate, .. }, ElementKind::Nmos { gate: gate2, .. }) => {
                    gate == gate2
                }
                (
                    ElementKind::Switch { initially_on, .. },
                    ElementKind::Switch {
                        initially_on: on2, ..
                    },
                ) => initially_on == on2,
                _ => true,
            };
            if !controls_match {
                return Err(mismatch("element control references"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;

    fn rc_circuit() -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, out, 1e3).unwrap();
        ckt.capacitor_ic("C1", out, Circuit::GROUND, 1e-6, 0.0)
            .unwrap();
        (ckt, a, out)
    }

    #[test]
    fn rc_charging_matches_analytic() {
        let (ckt, _a, out) = rc_circuit();
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
        ] {
            let mut tr = TransientSolver::new(&ckt, method).unwrap();
            tr.initialize_with_ic().unwrap();
            for _ in 0..2000 {
                tr.step(0.5e-6).unwrap();
            }
            let expected = 1.0 - (-1.0f64).exp();
            let tol = match method {
                IntegrationMethod::BackwardEuler => 5e-4,
                IntegrationMethod::Trapezoidal => 1e-6,
            };
            assert!(
                (tr.voltage(out) - expected).abs() < tol,
                "{method:?}: {} vs {expected}",
                tr.voltage(out)
            );
        }
    }

    #[test]
    fn monitors_fed_on_accepted_steps_only() {
        use ams_monitor::{MonitorBank, MonitorSpec};
        let (ckt, _a, out) = rc_circuit();
        let spec = MonitorSpec::parse(
            "charged:settle(lo=0.6,hi=1.0,by=2e-3)@out;\
             no_over:overshoot(max=1.05)@out;\
             gnd:envelope(lo=0,hi=0)@0",
        )
        .unwrap();
        let bank = MonitorBank::new(&spec);
        let nodes: Vec<NodeId> = bank
            .channels()
            .iter()
            .map(|ch| ckt.find_node(ch).unwrap())
            .collect();
        assert_eq!(nodes[1], Circuit::GROUND);
        // Fixed-step run: every step feeds the bank once per channel.
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        tr.attach_monitors(bank.clone(), &nodes);
        let mut probes = 0u64;
        tr.run(4e-3, 1e-6, |_| probes += 1).unwrap();
        let fed = tr.monitor_bank().unwrap();
        assert_eq!(fed.samples(), probes * nodes.len() as u64);
        let verdicts = fed.finish();
        assert!(verdicts.iter().all(|v| v.is_pass()), "{verdicts:?}");
        // Adaptive run: rejected trial/half steps never reach the bank.
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        tr.attach_monitors(bank, &nodes);
        let mut accepted = 0u64;
        tr.run_adaptive(4e-3, &AdaptiveOptions::default(), |_| accepted += 1)
            .unwrap();
        let taken = tr.take_monitors().unwrap();
        assert_eq!(taken.samples(), accepted * nodes.len() as u64);
        assert!(taken.finish().iter().all(|v| v.is_pass()));
        assert!(tr.monitor_bank().is_none());
        // A property that the waveform violates fires with a witness.
        let spec = MonitorSpec::parse("low:envelope(lo=-0.1,hi=0.1,from=2e-3)@out").unwrap();
        let bank = MonitorBank::new(&spec);
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        tr.attach_monitors(bank, &[out]);
        tr.run(4e-3, 1e-6, |_| {}).unwrap();
        let v = tr.monitor_bank().unwrap().finish();
        assert_eq!(v[0].code(), Some("MON005"));
    }

    #[test]
    fn trapezoidal_is_second_order() {
        let (ckt, _a, out) = rc_circuit();
        let run = |h: f64| {
            let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
            tr.initialize_with_ic().unwrap();
            let steps = (1e-3 / h).round() as usize;
            for _ in 0..steps {
                tr.step(h).unwrap();
            }
            (tr.voltage(out) - (1.0 - (-1.0f64).exp())).abs()
        };
        let ratio = run(2e-6) / run(1e-6);
        assert!((2.5..6.0).contains(&ratio), "order ratio {ratio}");
    }

    #[test]
    fn linear_fast_path_factors_once() {
        let (ckt, _a, _out) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        for _ in 0..100 {
            tr.step(1e-6).unwrap();
        }
        let s = tr.stats();
        assert_eq!(s.steps, 100);
        // One factorization for the forced-BE first step, one for the rest.
        assert!(
            s.factorizations <= 2,
            "factorizations = {}",
            s.factorizations
        );

        // Disable reuse: one factorization per step.
        let mut tr2 = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr2.reuse_factorization = false;
        tr2.initialize_with_ic().unwrap();
        for _ in 0..100 {
            tr2.step(1e-6).unwrap();
        }
        assert_eq!(tr2.stats().factorizations, 100);
    }

    #[test]
    fn rl_current_rise() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 10.0).unwrap();
        let l = ckt
            .inductor_ic("L1", b, Circuit::GROUND, 1e-3, 0.0)
            .unwrap();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        // τ = L/R = 100 µs; simulate 100 µs → i = (V/R)(1 − e^{−1}).
        for _ in 0..1000 {
            tr.step(1e-7).unwrap();
        }
        let expected = 0.1 * (1.0 - (-1.0f64).exp());
        assert!((tr.current(l).unwrap() - expected).abs() < 1e-5);
    }

    #[test]
    fn lc_oscillation_frequency() {
        // LC tank kicked by an initial capacitor voltage.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.capacitor_ic("C1", top, Circuit::GROUND, 1e-6, 1.0)
            .unwrap();
        ckt.inductor("L1", top, Circuit::GROUND, 1e-3).unwrap();
        // Tiny damping keeps the matrix friendly.
        ckt.resistor("Rp", top, Circuit::GROUND, 1e6).unwrap();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        // f₀ = 1/(2π√(LC)) ≈ 5033 Hz; simulate 2 ms and count crossings.
        let mut crossings = 0;
        let mut prev = tr.voltage(top);
        let h = 1e-7;
        let t_end = 2e-3;
        let steps = (t_end / h) as usize;
        for _ in 0..steps {
            tr.step(h).unwrap();
            let v = tr.voltage(top);
            if prev < 0.0 && v >= 0.0 {
                crossings += 1;
            }
            prev = v;
        }
        let freq = crossings as f64 / t_end;
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-6).sqrt());
        assert!((freq - f0).abs() / f0 < 0.02, "freq {freq} vs {f0}");
    }

    #[test]
    fn sine_source_drives_rc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source_wave(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e3,
                phase: 0.0,
            },
        )
        .unwrap();
        ckt.resistor("R1", a, out, 1e3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-6).unwrap();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_dc().unwrap();
        // Cutoff 159 Hz, driven at 1 kHz: expect attenuation ≈ 0.157.
        // Skip the first 10 ms (10·τ) so the startup transient has decayed.
        let mut peak: f64 = 0.0;
        tr.run(15e-3, 1e-6, |s| {
            if s.time() > 10e-3 {
                peak = peak.max(s.voltage(out).abs());
            }
        })
        .unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e-3);
        let expected = 1.0 / (1.0 + (1e3 / f0).powi(2)).sqrt();
        assert!(
            (peak - expected).abs() / expected < 0.03,
            "peak {peak} vs {expected}"
        );
    }

    #[test]
    fn diode_rectifier_clips_negative() {
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let out = ckt.node("out");
        ckt.voltage_source_wave(
            "V1",
            src,
            Circuit::GROUND,
            Waveform::Sine {
                offset: 0.0,
                ampl: 5.0,
                freq: 50.0,
                phase: 0.0,
            },
        )
        .unwrap();
        ckt.diode("D1", src, out, 1e-14, 1.0).unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_dc().unwrap();
        let mut min_v = f64::INFINITY;
        let mut max_v = f64::NEG_INFINITY;
        tr.run(40e-3, 20e-6, |s| {
            min_v = min_v.min(s.voltage(out));
            max_v = max_v.max(s.voltage(out));
        })
        .unwrap();
        assert!(max_v > 4.0, "peak passes: {max_v}");
        assert!(min_v > -0.1, "negative clipped: {min_v}");
    }

    #[test]
    fn switch_toggle_discharges_capacitor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 5.0).unwrap();
        ckt.resistor("R1", a, out, 1e3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-6).unwrap();
        let sw = ckt
            .switch("S1", out, Circuit::GROUND, 1.0, 1e12, false)
            .unwrap();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_dc().unwrap();
        assert!((tr.voltage(out) - 5.0).abs() < 1e-4);
        // Close the switch: capacitor discharges through 1 Ω (τ = 1 µs).
        tr.set_switch(sw, true).unwrap();
        for _ in 0..100 {
            tr.step(1e-7).unwrap();
        }
        assert!(tr.voltage(out).abs() < 0.1, "v = {}", tr.voltage(out));
    }

    #[test]
    fn set_switch_on_non_switch_errors() {
        let (ckt, _, _) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        assert!(tr.set_switch(ElementId(0), true).is_err());
    }

    #[test]
    fn invalid_step_rejected() {
        let (ckt, _, _) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        assert!(tr.step(0.0).is_err());
        assert!(tr.step(-1.0).is_err());
        assert!(tr.step(f64::NAN).is_err());
    }

    #[test]
    fn adaptive_matches_fixed_step_on_rc() {
        let (ckt, _a, out) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        tr.run_adaptive(
            1e-3,
            &AdaptiveOptions {
                rel_tol: 1e-6,
                abs_tol: 1e-9,
                initial_step: 1e-8,
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        let expected = 1.0 - (-1.0f64).exp();
        assert!((tr.voltage(out) - expected).abs() < 1e-4);
        // Far fewer accepted steps than the 1000 fixed steps used above.
        assert!(tr.stats().steps < 3000, "steps = {}", tr.stats().steps);
    }

    #[test]
    fn tracing_records_solver_spans_and_is_free_when_off() {
        let (ckt, _a, _out) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        // Off by default: no events.
        for _ in 0..5 {
            tr.step(1e-6).unwrap();
        }
        assert!(tr.take_trace_events().is_empty());

        tr.set_tracing(true);
        for _ in 0..3 {
            tr.step(1e-6).unwrap();
        }
        let events = tr.take_trace_events();
        // Linear fast path: one MnaSolve begin/end pair per step, the
        // (cached) factorization recorded at most once.
        use ams_scope::Phase;
        let solves = events
            .iter()
            .filter(|e| e.kind == SpanKind::MnaSolve && e.phase == Phase::Begin)
            .count();
        assert_eq!(solves, 3);
        // Simulated timestamps are monotone.
        let times: Vec<u64> = events.iter().map(|e| e.t_sim_fs).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Buffer drained; subsequent steps keep recording.
        tr.step(1e-6).unwrap();
        assert!(!tr.take_trace_events().is_empty());
    }

    #[test]
    fn adaptive_tracing_records_accepts_and_step_sizes() {
        let (ckt, _a, _out) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_with_ic().unwrap();
        tr.set_tracing(true);
        tr.run_adaptive(1e-4, &AdaptiveOptions::default(), |_| {})
            .unwrap();
        let events = tr.take_trace_events();
        let accepts: Vec<f64> = events
            .iter()
            .filter(|e| e.kind == SpanKind::StepAccept)
            .map(|e| f64::from_bits(e.arg))
            .collect();
        assert!(!accepts.is_empty());
        assert!(accepts.iter().all(|h| *h > 0.0 && h.is_finite()));
    }

    #[test]
    fn external_input_varies_over_time() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let inp = ckt.external_input();
        ckt.voltage_source_wave("V1", a, Circuit::GROUND, Waveform::External(inp))
            .unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::BackwardEuler).unwrap();
        tr.initialize_dc().unwrap();
        for k in 0..10 {
            tr.set_input(inp, k as f64);
            tr.step(1e-6).unwrap();
            assert!((tr.voltage(a) - k as f64).abs() < 1e-12);
        }
    }
    #[test]
    fn checkpoint_fork_is_bit_identical_to_run_from_zero() {
        // Sine-driven RC with a power-of-two step: every time sum is
        // exact in f64, so the fork rendezvous at t0 = 64·h is the very
        // value an uninterrupted run passes through.
        let h = 2.0_f64.powi(-20); // ≈ 0.95 µs
        let t0 = 64.0 * h;
        let t_end = 256.0 * h;
        let build = || {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let out = ckt.node("out");
            ckt.voltage_source_wave(
                "V1",
                a,
                Circuit::GROUND,
                Waveform::Sine {
                    offset: 0.0,
                    ampl: 1.0,
                    freq: 5e3,
                    phase: 0.0,
                },
            )
            .unwrap();
            ckt.resistor("R1", a, out, 1e3).unwrap();
            ckt.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
            (ckt, out)
        };

        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
        ] {
            // Reference: one uninterrupted run.
            let (ckt, out) = build();
            let mut reference = TransientSolver::new(&ckt, method).unwrap();
            reference.initialize_dc().unwrap();
            let mut ref_trace = Vec::new();
            reference
                .run(t_end, h, |s| ref_trace.push(s.voltage(out).to_bits()))
                .unwrap();

            // Prefix to t0, checkpoint, fork into a *fresh* solver over
            // an identical circuit, continue to t_end.
            let mut prefix = TransientSolver::new(&ckt, method).unwrap();
            prefix.initialize_dc().unwrap();
            let mut fork_trace = Vec::new();
            prefix
                .run(t0, h, |s| fork_trace.push(s.voltage(out).to_bits()))
                .unwrap();
            let cp = prefix.checkpoint();
            // Round-trip through the wire format on the way.
            let cp = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
            let (ckt2, _) = build();
            let mut fork = TransientSolver::new(&ckt2, method).unwrap();
            fork.restore_checkpoint(&cp).unwrap();
            assert_eq!(fork.time(), t0);
            fork.run(t_end, h, |s| fork_trace.push(s.voltage(out).to_bits()))
                .unwrap();

            assert_eq!(
                ref_trace, fork_trace,
                "fork-at-t0 must reproduce run-from-zero bit for bit ({method:?})"
            );
            // Counters accumulate to run-from-zero totals.
            assert_eq!(fork.stats().steps, reference.stats().steps);
            assert_eq!(
                fork.voltage(out).to_bits(),
                reference.voltage(out).to_bits()
            );
        }
    }

    #[test]
    fn checkpoint_restore_validates_dimensions() {
        let (ckt, _a, _out) = rc_circuit();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_dc().unwrap();
        let cp = tr.checkpoint();

        let mut other = Circuit::new();
        let x = other.node("x");
        other.voltage_source("V", x, Circuit::GROUND, 1.0).unwrap();
        other.resistor("R", x, Circuit::GROUND, 1.0).unwrap();
        let mut wrong = TransientSolver::new(&other, IntegrationMethod::Trapezoidal).unwrap();
        assert!(wrong.restore_checkpoint(&cp).is_err());
    }

    #[test]
    fn adaptive_checkpoint_forks_deterministically() {
        // Two forks restored from the same mid-adaptive-run checkpoint
        // must finish bit-identically (the controller step proposal is
        // part of the checkpoint).
        let (ckt, _a, out) = rc_circuit();
        let opts = AdaptiveOptions::default();
        let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
        tr.initialize_dc().unwrap();
        tr.run_adaptive(0.2e-3, &opts, |_| {}).unwrap();
        let cp = tr.checkpoint();
        assert!(cp.stats().steps > 0);

        let run_fork = || {
            let mut f = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
            f.restore_checkpoint(&cp).unwrap();
            let mut trace = Vec::new();
            f.run_adaptive(1e-3, &opts, |s| {
                trace.push((s.time().to_bits(), s.voltage(out).to_bits()));
            })
            .unwrap();
            (trace, f.stats().steps, f.stats().rejected)
        };
        assert_eq!(run_fork(), run_fork());
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use crate::{Circuit, TransientSolver, Waveform};

    fn rc_ladder(r: f64, c: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, out, r).unwrap();
        ckt.capacitor_ic("C1", out, Circuit::GROUND, c, 0.0)
            .unwrap();
        ckt
    }

    #[test]
    fn bundle_size_and_topology_are_checked() {
        let c = rc_ladder(1e3, 1e-6);
        assert!(LaneTransientSolver::<4>::new(
            &[c.clone(), c.clone()],
            IntegrationMethod::Trapezoidal
        )
        .is_err());
        let mut other = Circuit::new();
        other.node("a");
        other.node("out");
        assert!(
            LaneTransientSolver::<2>::new(&[c.clone(), other], IntegrationMethod::Trapezoidal)
                .is_err()
        );
        assert!(
            LaneTransientSolver::<2>::new(&[c.clone(), c], IntegrationMethod::Trapezoidal).is_ok()
        );
    }

    #[test]
    fn lane_run_matches_scalar_runs() {
        let rs = [0.5e3, 1e3, 2e3, 4e3];
        let circuits: Vec<Circuit> = rs.iter().map(|&r| rc_ladder(r, 1e-6)).collect();
        let mut lane =
            LaneTransientSolver::<4>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
        lane.initialize_with_ic().unwrap();
        lane.run(1e-3, 1e-6, |_| {}).unwrap();
        let out = NodeId(2);
        for (l, ckt) in circuits.iter().enumerate() {
            let mut tr = TransientSolver::new(ckt, IntegrationMethod::Trapezoidal).unwrap();
            tr.initialize_with_ic().unwrap();
            tr.run(1e-3, 1e-6, |_| {}).unwrap();
            let scalar = tr.voltage(out);
            let bundled = lane.voltage_lane(out, l);
            assert!(
                (bundled - scalar).abs() <= 1e-9 * scalar.abs().max(1.0),
                "lane {l}: {bundled} vs {scalar}"
            );
        }
    }

    #[test]
    fn diode_newton_lane_matches_scalar() {
        let build = |ampl: f64| {
            let mut ckt = Circuit::new();
            let src = ckt.node("src");
            let out = ckt.node("out");
            ckt.voltage_source_wave(
                "V1",
                src,
                Circuit::GROUND,
                Waveform::Sine {
                    offset: 0.0,
                    ampl,
                    freq: 50.0,
                    phase: 0.0,
                },
            )
            .unwrap();
            ckt.diode("D1", src, out, 1e-14, 1.0).unwrap();
            ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
            ckt
        };
        let ampls = [2.0, 5.0];
        let circuits: Vec<Circuit> = ampls.iter().map(|&a| build(a)).collect();
        let mut lane =
            LaneTransientSolver::<2>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
        lane.initialize_dc().unwrap();
        lane.run(10e-3, 50e-6, |_| {}).unwrap();
        let out = NodeId(2);
        for (l, ckt) in circuits.iter().enumerate() {
            let mut tr = TransientSolver::new(ckt, IntegrationMethod::Trapezoidal).unwrap();
            tr.initialize_dc().unwrap();
            tr.run(10e-3, 50e-6, |_| {}).unwrap();
            let scalar = tr.voltage(out);
            let bundled = lane.voltage_lane(out, l);
            // Shared Newton iteration counts can move the iterate by a
            // few ulps relative to the scalar runs.
            assert!(
                (bundled - scalar).abs() <= 1e-9 * scalar.abs().max(1.0),
                "lane {l}: {bundled} vs {scalar}"
            );
        }
    }

    #[test]
    fn dead_lane_is_isolated_and_reports_nan() {
        // Lane 1's externally driven source is poisoned with NaN after
        // the run starts; lanes 0 and 2 stay healthy.
        let build = || {
            let mut ckt = Circuit::new();
            let src = ckt.node("src");
            let out = ckt.node("out");
            let inp = ckt.external_input();
            ckt.voltage_source_wave("V1", src, Circuit::GROUND, Waveform::External(inp))
                .unwrap();
            ckt.diode("D1", src, out, 1e-14, 1.0).unwrap();
            ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
            ckt
        };
        let circuits = vec![build(), build(), build()];
        let mut lane =
            LaneTransientSolver::<3>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
        lane.initialize_with_ic().unwrap();
        let inp = crate::InputId(0);
        lane.set_input_lane(inp, 0, 0.8);
        lane.set_input_lane(inp, 1, f64::NAN);
        lane.set_input_lane(inp, 2, 0.7);
        lane.run(1e-4, 1e-6, |_| {}).unwrap();
        let out = NodeId(2);
        assert!(!lane.active_lanes()[1]);
        assert!(lane.voltage_lane(out, 1).is_nan());
        for l in [0usize, 2] {
            assert!(lane.active_lanes()[l], "lane {l} should be live");
            let v = lane.voltage_lane(out, l);
            assert!(v.is_finite() && v > 0.0, "lane {l}: {v}");
        }
    }

    #[test]
    fn adaptive_lane_matches_scalar_within_tolerance() {
        let rs = [0.8e3, 1e3, 1.6e3, 3.2e3];
        let circuits: Vec<Circuit> = rs.iter().map(|&r| rc_ladder(r, 1e-6)).collect();
        let opts = AdaptiveOptions {
            rel_tol: 1e-6,
            abs_tol: 1e-9,
            initial_step: 1e-8,
            ..Default::default()
        };
        let mut lane =
            LaneTransientSolver::<4>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
        lane.initialize_with_ic().unwrap();
        lane.run_adaptive(1e-3, &opts, |_| {}).unwrap();
        let out = NodeId(2);
        for (l, &r) in rs.iter().enumerate() {
            let expected = 1.0 - (-1e-3 / (r * 1e-6)).exp();
            let bundled = lane.voltage_lane(out, l);
            // The shared (min-over-lanes) step keeps every lane at or
            // below its own error target.
            assert!(
                (bundled - expected).abs() < 1e-4,
                "lane {l}: {bundled} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn scalar_factor_adoption_skips_symbolic_analysis() {
        let rs = [0.9e3, 1e3, 1.1e3, 1.2e3];
        let circuits: Vec<Circuit> = rs.iter().map(|&r| rc_ladder(r, 1e-6)).collect();
        // Scalar run provides the symbolic factor.
        let mut tr = TransientSolver::new(&circuits[0], IntegrationMethod::Trapezoidal).unwrap();
        tr.backend = SolverBackend::Sparse;
        tr.initialize_with_ic().unwrap();
        tr.run(1e-5, 1e-6, |_| {}).unwrap();
        let hint = tr.symbolic_factor().expect("sparse factor");

        let mut lane =
            LaneTransientSolver::<4>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
        lane.backend = SolverBackend::Sparse;
        lane.adopt_scalar_factor(&hint);
        lane.initialize_with_ic().unwrap();
        lane.run(1e-5, 1e-6, |_| {}).unwrap();
        let stats = lane.stats();
        assert_eq!(
            stats.solve.symbolic_analyses, 0,
            "adopted factor must turn the first factorization into a refactor: {stats:?}"
        );
        assert!(stats.solve.numeric_refactors >= 1);
        // And the widened factor reports lane-width bytes.
        let lane_factor = lane.symbolic_factor().expect("lane factor");
        assert!(lane_factor.approx_bytes() > hint.approx_bytes());
    }

    #[test]
    fn lane_view_implements_probe_surface() {
        let circuits: Vec<Circuit> = [1e3, 2e3].iter().map(|&r| rc_ladder(r, 1e-6)).collect();
        let mut lane =
            LaneTransientSolver::<2>::new(&circuits, IntegrationMethod::Trapezoidal).unwrap();
        lane.initialize_with_ic().unwrap();
        lane.run(1e-4, 1e-6, |_| {}).unwrap();
        let out = NodeId(2);
        let view = lane.lane_view(0);
        fn probe_voltage(p: &dyn ScenarioProbe, node: NodeId) -> f64 {
            p.voltage(node)
        }
        assert_eq!(probe_voltage(&view, out), lane.voltage_lane(out, 0));
        assert!(view.time() > 0.0);
        // The resistor current is computable through the view too.
        assert!(view.current(ElementId(1)).is_ok());
    }
}
