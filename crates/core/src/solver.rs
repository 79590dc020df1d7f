//! Pluggable continuous-time solvers (design objective O8).
//!
//! "SystemC-AMS … will provide an open architecture in which existing,
//! mature, simulators or solvers may be plugged in and coupled with
//! discrete-time MoCs" (paper §3). [`CtSolver`] is that coupling
//! interface: an object-safe trait any solver can implement. The bundled
//! implementations are
//!
//! * [`LtiCtSolver`] — the linear state-space solver from `ams-lti`
//!   (phase 1: fixed-timestep linear dynamic MoC);
//! * [`NetlistCtSolver`] — the conservative-law MNA solver from
//!   `ams-net`, including its nonlinear Newton and switch support
//!   (phases 2–3);
//!
//! and [`CtModule`] embeds any `Box<dyn CtSolver>` in a TDF cluster as a
//! rate-1 module ("embedded linear DAE's" in the paper's Figure 1).

use crate::module::{AcIo, TdfInit, TdfIo, TdfModule, TdfSetup};
use crate::port::{TdfIn, TdfOut};
use crate::CoreError;
use ams_kernel::SimTime;
use ams_lti::{Discretization, LtiSolver, StateSpace};
use ams_math::{Complex64, DMat};
use ams_net::{Circuit, InputId, IntegrationMethod, NodeId, TransientSolver};

/// An object-safe continuous-time solver that can be scheduled inside a
/// TDF cluster.
///
/// The synchronization contract: [`CtSolver::initialize`] establishes the
/// quiescent state for the DC input values, then
/// [`CtSolver::advance_to`] is called with strictly increasing times —
/// once per TDF sample — holding `inputs` constant over the interval.
///
/// Time crosses this boundary exactly: the end of the interval and its
/// length arrive as kernel [`SimTime`]s, so every step at one TDF rate
/// converts to the same `h` bits and a solver that caches factors per
/// step size keeps them.
///
/// Solvers are `Send` so the embedding [`CtModule`] (and thus its
/// cluster) can run on a worker thread of the parallel execution engine.
pub trait CtSolver: Send {
    /// Number of input channels.
    fn num_inputs(&self) -> usize;

    /// Number of output channels.
    fn num_outputs(&self) -> usize;

    /// Establishes a consistent initial (quiescent) state for constant
    /// `dc_inputs` (the paper's mixed-signal initialization requirement).
    ///
    /// # Errors
    ///
    /// Solver-specific failures (e.g. a DC solve that does not converge).
    fn initialize(&mut self, dc_inputs: &[f64]) -> Result<(), CoreError>;

    /// Advances the internal state over the interval of exact length
    /// `step` that ends at `t`, with `inputs` held constant, and writes
    /// the outputs at `t` into `outputs`.
    ///
    /// # Errors
    ///
    /// Solver-specific failures (Newton divergence, singularities, …).
    fn advance_to(
        &mut self,
        t: SimTime,
        step: SimTime,
        inputs: &[f64],
        outputs: &mut [f64],
    ) -> Result<(), CoreError>;

    /// The small-signal transfer matrix `H(jω)` (outputs × inputs), if
    /// the solver supports frequency-domain analysis. Default: `None`
    /// (the embedding module stamps zeros).
    fn ac_transfer(&self, _omega: f64) -> Option<DMat<Complex64>> {
        None
    }

    /// Counters `(newton_iterations, factorizations)`, if the solver
    /// keeps them. Default: `None` (nothing to report).
    fn newton_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Linear-solver counters (sparse symbolic analyses, numeric
    /// refactorizations, pattern sizes, reused factorizations), if the
    /// solver keeps them. Default: `None`.
    fn solve_stats(&self) -> Option<ams_math::SolveStats> {
        None
    }

    /// Enables or disables span tracing inside the solver (MNA
    /// assemble/factor/solve, Newton iterations, adaptive-step
    /// accept/reject). Default: no-op for solvers without tracing.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Drains trace events recorded since the last call. Default: none.
    fn take_trace_events(&mut self) -> Vec<ams_scope::TraceEvent> {
        Vec::new()
    }
}

/// [`CtSolver`] over a linear time-invariant state-space model.
///
/// Uses fixed-step discretization re-derived whenever the exact TDF
/// step changes, so each TDF sample costs one matrix–vector product.
#[derive(Debug, Clone)]
pub struct LtiCtSolver {
    ss: StateSpace,
    method: Discretization,
    solver: Option<LtiSolver>,
    /// End of the last advance.
    now: SimTime,
}

impl LtiCtSolver {
    /// Wraps a state-space model.
    pub fn new(ss: StateSpace, method: Discretization) -> Self {
        LtiCtSolver {
            ss,
            method,
            solver: None,
            now: SimTime::ZERO,
        }
    }

    /// Wraps a SISO transfer function.
    ///
    /// # Errors
    ///
    /// Returns an error for improper transfer functions.
    pub fn from_transfer_function(
        tf: &ams_lti::TransferFunction,
        method: Discretization,
    ) -> Result<Self, CoreError> {
        let ss = tf
            .to_state_space()
            .map_err(|e| CoreError::solver("lti", e))?;
        Ok(LtiCtSolver::new(ss, method))
    }
}

impl CtSolver for LtiCtSolver {
    fn num_inputs(&self) -> usize {
        self.ss.inputs()
    }

    fn num_outputs(&self) -> usize {
        self.ss.outputs()
    }

    fn initialize(&mut self, dc_inputs: &[f64]) -> Result<(), CoreError> {
        // The step size is unknown until the first advance; discretize
        // lazily but compute the DC state now.
        self.solver = None;
        self.now = SimTime::ZERO;
        // Store DC state by building a provisional solver at a nominal
        // step; the state carries over via set_state on first advance.
        let mut s = LtiSolver::new(self.ss.clone(), 1.0, self.method)
            .map_err(|e| CoreError::solver("lti", e))?;
        if s.initialize_dc(dc_inputs).is_err() {
            // Systems with poles at the origin have no unique DC point;
            // start from zero state instead.
        }
        self.solver = Some(s);
        Ok(())
    }

    fn advance_to(
        &mut self,
        t: SimTime,
        step: SimTime,
        inputs: &[f64],
        outputs: &mut [f64],
    ) -> Result<(), CoreError> {
        if t <= self.now {
            return Err(CoreError::invalid(format!(
                "lti solver asked to advance backwards ({} → {t})",
                self.now
            )));
        }
        let solver = self
            .solver
            .as_mut()
            .ok_or_else(|| CoreError::solver("lti", "advance_to before initialize"))?;
        let h = step.to_seconds();
        if solver.step_size() != h {
            solver
                .set_step_size(h)
                .map_err(|e| CoreError::solver("lti", e))?;
        }
        let y = solver.step(inputs);
        outputs.copy_from_slice(y);
        self.now = t;
        Ok(())
    }

    fn ac_transfer(&self, omega: f64) -> Option<DMat<Complex64>> {
        self.ss.freq_response(omega).ok()
    }
}

/// [`CtSolver`] over a conservative-law netlist: TDF inputs drive
/// designated external source slots, TDF outputs read node voltages.
pub struct NetlistCtSolver {
    solver: TransientSolver,
    inputs: Vec<InputId>,
    outputs: Vec<NodeId>,
    circuit: Circuit,
    op_outputs: Vec<NodeId>,
    /// End of the last advance.
    now: SimTime,
}

impl NetlistCtSolver {
    /// Wraps a circuit. `inputs` are the external-input slots driven by
    /// the TDF input samples (in order); `outputs` the nodes whose
    /// voltages become TDF outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Lint`] when the netlist's structural lint
    /// (floating nodes, voltage-source loops, current-source cutsets,
    /// structural singularity — see the `MNA###` code registry) finds an
    /// error-severity diagnostic, and otherwise propagates
    /// transient-solver construction failures. Use
    /// [`NetlistCtSolver::new_with_policy`] to relax the gate.
    pub fn new(
        circuit: &Circuit,
        method: IntegrationMethod,
        inputs: Vec<InputId>,
        outputs: Vec<NodeId>,
    ) -> Result<Self, CoreError> {
        Self::new_with_policy(
            circuit,
            method,
            inputs,
            outputs,
            &ams_lint::LintPolicy::default(),
        )
    }

    /// [`NetlistCtSolver::new`] with an explicit static-analysis policy
    /// (e.g. [`ams_lint::LintPolicy::allow_all`] to accept a netlist the
    /// structural lint rejects).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Lint`] for diagnostics the policy denies;
    /// otherwise propagates transient-solver construction failures.
    pub fn new_with_policy(
        circuit: &Circuit,
        method: IntegrationMethod,
        inputs: Vec<InputId>,
        outputs: Vec<NodeId>,
        policy: &ams_lint::LintPolicy,
    ) -> Result<Self, CoreError> {
        let report = ams_lint::lint_circuit("netlist", circuit);
        if !policy.denied(&report).is_empty() {
            return Err(CoreError::Lint(report));
        }
        let solver =
            TransientSolver::new(circuit, method).map_err(|e| CoreError::solver("netlist", e))?;
        Ok(NetlistCtSolver {
            solver,
            inputs,
            op_outputs: outputs.clone(),
            outputs,
            circuit: circuit.clone(),
            now: SimTime::ZERO,
        })
    }
}

impl CtSolver for NetlistCtSolver {
    fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    fn initialize(&mut self, dc_inputs: &[f64]) -> Result<(), CoreError> {
        for (slot, &v) in self.inputs.iter().zip(dc_inputs) {
            self.solver.set_input(*slot, v);
        }
        self.solver
            .initialize_dc()
            .map_err(|e| CoreError::solver("netlist", e))?;
        self.now = SimTime::ZERO;
        Ok(())
    }

    fn advance_to(
        &mut self,
        t: SimTime,
        step: SimTime,
        inputs: &[f64],
        outputs: &mut [f64],
    ) -> Result<(), CoreError> {
        if t <= self.now {
            return Err(CoreError::invalid(format!(
                "netlist solver asked to advance backwards ({} → {t})",
                self.now
            )));
        }
        for (slot, &v) in self.inputs.iter().zip(inputs) {
            self.solver.set_input(*slot, v);
        }
        self.solver
            .step(step.to_seconds())
            .map_err(|e| CoreError::solver("netlist", e))?;
        for (o, node) in outputs.iter_mut().zip(&self.outputs) {
            *o = self.solver.voltage(*node);
        }
        self.now = t;
        Ok(())
    }

    fn newton_stats(&self) -> Option<(u64, u64)> {
        let st = self.solver.stats();
        Some((st.newton_iterations, st.factorizations))
    }

    fn solve_stats(&self) -> Option<ams_math::SolveStats> {
        Some(self.solver.stats().solve)
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.solver.set_tracing(enabled);
    }

    fn take_trace_events(&mut self) -> Vec<ams_scope::TraceEvent> {
        self.solver.take_trace_events()
    }

    fn ac_transfer(&self, omega: f64) -> Option<DMat<Complex64>> {
        // Per-input AC transfer: activate each external-input source in
        // turn with unit AC magnitude and read the output nodes. The
        // circuit is linearized at its DC operating point with all
        // external inputs at zero.
        let op = self.circuit.dc_operating_point().ok()?;
        let f = omega / (2.0 * std::f64::consts::PI);
        let mut m = DMat::zeros(self.op_outputs.len(), self.inputs.len());
        for (j, &input) in self.inputs.iter().enumerate() {
            let mut ckt = self.circuit.clone();
            ckt.clear_ac_magnitudes();
            if ckt.set_external_ac_magnitude(input, 1.0) == 0 {
                continue; // slot drives nothing: column stays zero
            }
            let sols = ckt.ac_sweep(&op, &[f]).ok()?;
            let sol = sols.first()?;
            for (i, node) in self.op_outputs.iter().enumerate() {
                m[(i, j)] = sol.voltage(*node);
            }
        }
        Some(m)
    }
}

impl std::fmt::Debug for NetlistCtSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistCtSolver")
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

/// Embeds any [`CtSolver`] as a rate-1 TDF module: one solver step per
/// TDF sample, inputs sampled from TDF signals, outputs written back.
pub struct CtModule {
    name: String,
    solver: Box<dyn CtSolver>,
    inputs: Vec<TdfIn>,
    outputs: Vec<TdfOut>,
    timestep: Option<SimTime>,
    in_buf: Vec<f64>,
    out_buf: Vec<f64>,
    initialized: bool,
}

impl CtModule {
    /// Creates the embedding. `timestep` may be `None` if another module
    /// in the cluster declares one.
    ///
    /// # Panics
    ///
    /// Panics if the port counts do not match the solver's channel
    /// counts.
    pub fn new(
        name: impl Into<String>,
        solver: Box<dyn CtSolver>,
        inputs: Vec<TdfIn>,
        outputs: Vec<TdfOut>,
        timestep: Option<SimTime>,
    ) -> Self {
        assert_eq!(
            inputs.len(),
            solver.num_inputs(),
            "input port count must match solver inputs"
        );
        assert_eq!(
            outputs.len(),
            solver.num_outputs(),
            "output port count must match solver outputs"
        );
        let n_in = inputs.len();
        let n_out = outputs.len();
        CtModule {
            name: name.into(),
            solver,
            inputs,
            outputs,
            timestep,
            in_buf: vec![0.0; n_in],
            out_buf: vec![0.0; n_out],
            initialized: false,
        }
    }
}

impl TdfModule for CtModule {
    fn solver_stats(&self) -> Option<(u64, u64)> {
        self.solver.newton_stats()
    }

    fn solve_stats(&self) -> Option<ams_math::SolveStats> {
        self.solver.solve_stats()
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.solver.set_tracing(enabled);
    }

    fn take_trace_events(&mut self) -> Vec<ams_scope::TraceEvent> {
        self.solver.take_trace_events()
    }

    fn setup(&mut self, cfg: &mut TdfSetup) {
        for &p in &self.inputs {
            cfg.input(p);
        }
        for &p in &self.outputs {
            cfg.output(p);
        }
        if let Some(ts) = self.timestep {
            cfg.set_timestep(ts);
        }
    }

    fn initialize(&mut self, _init: &mut TdfInit<'_>) -> Result<(), CoreError> {
        let zeros = vec![0.0; self.inputs.len()];
        self.solver
            .initialize(&zeros)
            .map_err(|e| CoreError::solver(&self.name, e))?;
        self.initialized = true;
        Ok(())
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        for (slot, &p) in self.inputs.iter().enumerate() {
            self.in_buf[slot] = io.read1(p);
        }
        // Advance to the END of this sample interval so the output at
        // sample k reflects the input held over [t_k, t_k + h).
        let step = io.timestep_exact();
        self.solver
            .advance_to(
                io.time_exact() + step,
                step,
                &self.in_buf,
                &mut self.out_buf,
            )
            .map_err(|e| CoreError::solver(&self.name, e))?;
        for (slot, &p) in self.outputs.iter().enumerate() {
            io.write1(p, self.out_buf[slot]);
        }
        Ok(())
    }

    fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
        if let Some(h) = self.solver.ac_transfer(ac.omega()) {
            for (i, &out) in self.outputs.iter().enumerate() {
                for (j, &inp) in self.inputs.iter().enumerate() {
                    ac.set_gain(inp, out, h[(i, j)]);
                }
            }
        }
    }

    fn reset(&mut self) {
        if self.initialized {
            let zeros = vec![0.0; self.inputs.len()];
            // Initialization succeeded during elaboration; re-running it
            // with the same inputs re-establishes the quiescent state.
            self.solver
                .initialize(&zeros)
                .expect("solver re-initialization after a successful initialize");
        }
    }
}

impl std::fmt::Debug for CtModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtModule")
            .field("name", &self.name)
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TdfGraph;
    use crate::module::{TdfIo, TdfModule, TdfSetup};
    use ams_lti::TransferFunction;

    struct Step {
        out: TdfOut,
        level: f64,
        ts: SimTime,
    }
    impl TdfModule for Step {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.output(self.out);
            cfg.set_timestep(self.ts);
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            io.write1(self.out, self.level);
            Ok(())
        }
        fn ac_processing(&mut self, ac: &mut crate::module::AcIo<'_>) {
            ac.set_source(self.out, Complex64::ONE);
        }
    }

    #[test]
    fn lti_solver_in_cluster_tracks_rc_response() {
        let tf = TransferFunction::low_pass1(1000.0).unwrap(); // τ = 1 ms
        let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh).unwrap();

        let mut g = TdfGraph::new("rc");
        let u = g.signal("u");
        let y = g.signal("y");
        let probe = g.probe(y);
        g.add_module(
            "step",
            Step {
                out: u.writer(),
                level: 1.0,
                ts: SimTime::from_us(10),
            },
        );
        g.add_module(
            "rc",
            CtModule::new(
                "rc",
                Box::new(solver),
                vec![u.reader()],
                vec![y.writer()],
                None,
            ),
        );
        let mut c = g.elaborate().unwrap();
        // 1 τ = 1 ms = 100 iterations of 10 µs.
        c.run_standalone(100).unwrap();
        let last = *probe.values().last().unwrap();
        let expected = 1.0 - (-1.0f64).exp();
        assert!((last - expected).abs() < 1e-3, "{last} vs {expected}");
    }

    /// ZOH is exact for a held input at any step, so the response stays
    /// on `1 − e^(−t/τ)` only if each new exact step re-discretizes.
    #[test]
    fn lti_solver_rediscretizes_when_the_step_changes() {
        let tf = TransferFunction::low_pass1(1000.0).unwrap(); // τ = 1 ms
        let mut solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh).unwrap();
        solver.initialize(&[0.0]).unwrap();
        let mut y = [0.0];
        let mut t = SimTime::ZERO;
        for step in [10, 10, 250, 250, 10, 1000].map(SimTime::from_us) {
            t += step;
            solver.advance_to(t, step, &[1.0], &mut y).unwrap();
            let exact = 1.0 - (-t.to_seconds() / 1e-3).exp();
            assert!((y[0] - exact).abs() < 1e-12, "at {t}: {} vs {exact}", y[0]);
        }
    }

    #[test]
    fn lti_ac_transfer_through_cluster() {
        let w0 = 2.0 * std::f64::consts::PI * 100.0;
        let tf = TransferFunction::low_pass1(w0).unwrap();
        let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Bilinear).unwrap();
        let mut g = TdfGraph::new("acrc");
        let u = g.signal("u");
        let y = g.signal("y");
        g.add_module(
            "src",
            Step {
                out: u.writer(),
                level: 0.0,
                ts: SimTime::from_us(10),
            },
        );
        g.add_module(
            "rc",
            CtModule::new(
                "rc",
                Box::new(solver),
                vec![u.reader()],
                vec![y.writer()],
                None,
            ),
        );
        let mut c = g.elaborate().unwrap();
        let ac = c.ac_analysis(&[100.0]).unwrap();
        let h = ac.response(y)[0];
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn netlist_solver_in_cluster() {
        // RC netlist driven by a TDF step through an external input.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let inp = ckt.external_input();
        ckt.voltage_source_wave("V1", a, Circuit::GROUND, ams_net::Waveform::External(inp))
            .unwrap();
        ckt.resistor("R1", a, out, 1e3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-6).unwrap(); // τ = 1 ms
        let solver =
            NetlistCtSolver::new(&ckt, IntegrationMethod::Trapezoidal, vec![inp], vec![out])
                .unwrap();

        let mut g = TdfGraph::new("net");
        let u = g.signal("u");
        let y = g.signal("y");
        let probe = g.probe(y);
        g.add_module(
            "step",
            Step {
                out: u.writer(),
                level: 2.0,
                ts: SimTime::from_us(10),
            },
        );
        g.add_module(
            "ckt",
            CtModule::new(
                "ckt",
                Box::new(solver),
                vec![u.reader()],
                vec![y.writer()],
                None,
            ),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(500).unwrap(); // 5 ms = 5 τ
        let last = *probe.values().last().unwrap();
        assert!((last - 2.0).abs() < 0.02, "settled to {last}");
    }

    /// The exact step keeps the line on the factor-once fast path: every
    /// step at one TDF rate converts to the same `h` bits, so the
    /// engine's cached factor is reused for the whole run.
    #[test]
    fn netlist_solver_factors_once_per_rate() {
        // The Figure-1 subscriber line, driven at its 1 µs TDF rate.
        let mut ckt = Circuit::new();
        let drive = ckt.node("drive");
        let line = ckt.node("line");
        let sub = ckt.node("subscriber");
        let inp = ckt.external_input();
        ckt.voltage_source_wave(
            "Vdrv",
            drive,
            Circuit::GROUND,
            ams_net::Waveform::External(inp),
        )
        .unwrap();
        ckt.resistor("Rprot", drive, line, 50.0).unwrap();
        ckt.capacitor("Cline", line, Circuit::GROUND, 20e-9)
            .unwrap();
        ckt.resistor("Rline", line, sub, 130.0).unwrap();
        ckt.resistor("Rsub", sub, Circuit::GROUND, 600.0).unwrap();
        ckt.capacitor("Csub", sub, Circuit::GROUND, 10e-9).unwrap();
        let solver =
            NetlistCtSolver::new(&ckt, IntegrationMethod::Trapezoidal, vec![inp], vec![sub])
                .unwrap();

        let mut g = TdfGraph::new("line");
        let u = g.signal("u");
        let y = g.signal("y");
        g.probe(y);
        g.add_module(
            "drive",
            Step {
                out: u.writer(),
                level: 1.0,
                ts: SimTime::from_us(1),
            },
        );
        g.add_module(
            "line",
            CtModule::new(
                "line",
                Box::new(solver),
                vec![u.reader()],
                vec![y.writer()],
                None,
            ),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(10_000).unwrap();
        assert_eq!(c.stats().factorizations, 1);
    }

    /// A hand-written "external" solver proving the O8 plug-in interface:
    /// a simple integrator implemented without any of the bundled crates.
    struct ExternalIntegrator {
        state: f64,
    }
    impl CtSolver for ExternalIntegrator {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn initialize(&mut self, _dc: &[f64]) -> Result<(), CoreError> {
            self.state = 0.0;
            Ok(())
        }
        fn advance_to(
            &mut self,
            _t: SimTime,
            step: SimTime,
            inputs: &[f64],
            outputs: &mut [f64],
        ) -> Result<(), CoreError> {
            self.state += inputs[0] * step.to_seconds();
            outputs[0] = self.state;
            Ok(())
        }
    }

    #[test]
    fn external_solver_plugs_in() {
        let mut g = TdfGraph::new("ext");
        let u = g.signal("u");
        let y = g.signal("y");
        let probe = g.probe(y);
        g.add_module(
            "one",
            Step {
                out: u.writer(),
                level: 1.0,
                ts: SimTime::from_ms(1),
            },
        );
        g.add_module(
            "int",
            CtModule::new(
                "int",
                Box::new(ExternalIntegrator { state: 0.0 }),
                vec![u.reader()],
                vec![y.writer()],
                None,
            ),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(1000).unwrap(); // ∫1 dt over 1 s
        let last = *probe.values().last().unwrap();
        assert!((last - 1.0).abs() < 1e-9, "integral = {last}");
    }

    #[test]
    #[should_panic(expected = "port count")]
    fn mismatched_ports_panic() {
        let tf = TransferFunction::gain(1.0);
        let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh).unwrap();
        let _ = CtModule::new("bad", Box::new(solver), vec![], vec![], None);
    }
}
