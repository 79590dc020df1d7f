//! DC operating-point analysis.
//!
//! Computes the quiescent state the paper requires before any mixed-signal
//! simulation can start ("the synchronization also requires the formal
//! definition of a consistent initial (quiescent) state for the whole
//! mixed-signal system", §3). Capacitors are open, inductors are shorts;
//! nonlinear elements are solved by Newton iteration with SPICE-style
//! junction limiting, falling back to gmin stepping and source stepping
//! when plain Newton fails.

use crate::assembly::{MnaSystem, SolverBackend, Stamp};
use crate::devices::{nmos_linearize, NmosOp};
use crate::mna::{
    stamp_branch_kcl, stamp_branch_voltage, stamp_conductance, stamp_current, stamp_mos,
    stamp_vccs, MnaLayout,
};
use crate::{Circuit, ElementId, ElementKind, NetError, NodeId};
use ams_math::{DVec, SolveStats};

/// Thermal voltage at 300 K.
pub(crate) const VT: f64 = 0.02585;
/// Minimum conductance added across nonlinear junctions.
pub(crate) const GMIN: f64 = 1e-12;

/// Per-diode linearization state used across analyses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiodeOp {
    /// Small-signal conductance at the operating point.
    pub g: f64,
    /// Junction current at the operating point.
    pub i: f64,
}

/// Evaluates the (exponent-limited) Shockley model: returns `(i, g)`.
pub(crate) fn diode_iv(v: f64, is_sat: f64, n: f64) -> (f64, f64) {
    let vt = n * VT;
    // Linearize beyond v_max to avoid overflow; the Newton limiter keeps
    // iterates out of this region in converged solutions.
    let v_max = 40.0 * vt;
    if v <= v_max {
        let e = (v / vt).exp();
        (is_sat * (e - 1.0), is_sat / vt * e)
    } else {
        let e = (v_max / vt).exp();
        let g = is_sat / vt * e;
        (is_sat * (e - 1.0) + g * (v - v_max), g)
    }
}

/// SPICE-style junction voltage limiting (pnjlim).
pub(crate) fn pnjlim(vnew: f64, vold: f64, vt: f64, vcrit: f64) -> f64 {
    if vnew > vcrit && (vnew - vold).abs() > 2.0 * vt {
        if vold > 0.0 {
            let arg = 1.0 + (vnew - vold) / vt;
            if arg > 0.0 {
                vold + vt * arg.ln()
            } else {
                vcrit
            }
        } else {
            vt * (vnew / vt).max(1e-30).ln()
        }
    } else {
        vnew
    }
}

/// The solved DC operating point of a circuit.
///
/// See [`Circuit::dc_operating_point`] for the usual entry point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    pub(crate) circuit: Circuit,
    pub(crate) layout: MnaLayout,
    pub(crate) x: DVec<f64>,
    pub(crate) diode_ops: Vec<Option<DiodeOp>>,
    pub(crate) nmos_ops: Vec<Option<NmosOp>>,
    /// Newton iterations used by the successful attempt.
    pub iterations: usize,
    /// Linear-solver counters accumulated over every attempt (including
    /// failed gmin/source-stepping ones).
    pub solve: SolveStats,
}

impl DcSolution {
    /// The voltage of a node (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        assert!(
            node.index() < self.layout.n_nodes,
            "node {} out of range",
            node.index()
        );
        match self.layout.node_var(node) {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }

    /// The branch current of a voltage-defined element (voltage source,
    /// inductor, VCVS, CCVS), or the computed current for resistors,
    /// capacitors (always 0 at DC), diodes and switches.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] for handles outside the
    /// circuit or for current sources (use the source value directly).
    pub fn current(&self, elem: ElementId) -> Result<f64, NetError> {
        let e = self
            .circuit
            .elements()
            .get(elem.index())
            .ok_or(NetError::UnknownElement {
                index: elem.index(),
                what: "current",
            })?;
        if let Some(b) = self.layout.branch_var(elem) {
            return Ok(self.x[b]);
        }
        let v = self.voltage(e.p) - self.voltage(e.n);
        match &e.kind {
            ElementKind::Resistor { ohms } => Ok(v / ohms),
            ElementKind::Capacitor { .. } => Ok(0.0),
            ElementKind::Switch {
                r_on,
                r_off,
                initially_on,
            } => {
                let r = if *initially_on { *r_on } else { *r_off };
                Ok(v / r)
            }
            ElementKind::Diode { is_sat, n } => Ok(diode_iv(v, *is_sat, *n).0 + GMIN * v),
            ElementKind::Nmos {
                gate,
                kp,
                vt,
                lambda,
            } => {
                let vg = self.voltage(*gate);
                let vd = self.voltage(e.p);
                let vs = self.voltage(e.n);
                Ok(nmos_linearize(vg, vd, vs, *kp, *vt, *lambda).id + GMIN * v)
            }
            _ => Err(NetError::UnknownElement {
                index: elem.index(),
                what: "computable branch current",
            }),
        }
    }

    /// Raw access to the MNA solution vector.
    pub fn unknowns(&self) -> &[f64] {
        self.x.as_slice()
    }
}

/// Options for the DC solve (mostly for tests and the transient solver).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DcOptions {
    pub max_iter: usize,
    pub v_tol: f64,
    pub rel_tol: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iter: 200,
            v_tol: 1e-9,
            rel_tol: 1e-6,
        }
    }
}

impl Circuit {
    /// Solves the DC operating point with all external inputs at 0 and
    /// switches in their initial states.
    ///
    /// # Errors
    ///
    /// * [`NetError::Singular`] for floating nodes or source loops.
    /// * [`NetError::NoConvergence`] if Newton plus gmin/source stepping
    ///   all fail.
    pub fn dc_operating_point(&self) -> Result<DcSolution, NetError> {
        let ext = vec![0.0; self.external_input_count()];
        let switches = self.initial_switch_states();
        self.dc_operating_point_with(&ext, &switches)
    }

    /// Solves the DC operating point with explicit external-input values
    /// and switch states.
    ///
    /// # Errors
    ///
    /// See [`Circuit::dc_operating_point`].
    pub fn dc_operating_point_with(
        &self,
        ext: &[f64],
        switches: &[bool],
    ) -> Result<DcSolution, NetError> {
        self.dc_operating_point_with_backend(ext, switches, SolverBackend::default())
    }

    /// Solves the DC operating point on an explicit solver backend.
    ///
    /// The sparse backend records the MNA sparsity pattern once and
    /// reuses its symbolic analysis across every Newton iteration and
    /// every gmin/source-stepping attempt.
    ///
    /// # Errors
    ///
    /// See [`Circuit::dc_operating_point`].
    pub fn dc_operating_point_with_backend(
        &self,
        ext: &[f64],
        switches: &[bool],
        backend: SolverBackend,
    ) -> Result<DcSolution, NetError> {
        let layout = MnaLayout::build(self);
        let DcPoint {
            x,
            iterations,
            solve,
        } = self.dc_solve(&layout, ext, switches, backend)?;
        Ok(DcSolution {
            diode_ops: compute_diode_ops(self, &layout, &x),
            nmos_ops: compute_nmos_ops(self, &layout, &x),
            circuit: self.clone(),
            layout,
            x,
            iterations,
            solve,
        })
    }

    /// The DC operating point's unknowns alone, over this circuit's
    /// `layout`: the solve behind every `dc_operating_point*`, without
    /// the circuit copy and device operating points a [`DcSolution`]
    /// carries (the transient engine's DC start needs neither).
    pub(crate) fn dc_solve(
        &self,
        layout: &MnaLayout,
        ext: &[f64],
        switches: &[bool],
        backend: SolverBackend,
    ) -> Result<DcPoint, NetError> {
        let opts = DcOptions::default();
        let n = layout.n_unknowns;
        // One system for all attempts: the stamp sequence (hence the
        // pattern) does not depend on the iterate, gmin or source scale.
        let zero = DVec::zeros(n);
        let mut sys = MnaSystem::new(n, backend.use_sparse(n), |st| {
            assemble_dc(self, layout, &zero, ext, switches, 1.0, GMIN, st)
        });

        // Attempt 1: plain Newton from zero.
        if let Ok(sol) = dc_newton(
            self, layout, &mut sys, ext, switches, 1.0, GMIN, None, &opts,
        ) {
            return Ok(sol);
        }
        // Attempt 2: gmin stepping.
        let mut guess: Option<DVec<f64>> = None;
        let mut ok = true;
        for exp in (-12..=-2).rev().map(|e| 10f64.powi(e)) {
            match dc_newton(
                self,
                layout,
                &mut sys,
                ext,
                switches,
                1.0,
                exp,
                guess.take(),
                &opts,
            ) {
                Ok(sol) => {
                    guess = Some(sol.x);
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if let Some(g) = guess {
                if let Ok(sol) = dc_newton(
                    self,
                    layout,
                    &mut sys,
                    ext,
                    switches,
                    1.0,
                    GMIN,
                    Some(g),
                    &opts,
                ) {
                    return Ok(sol);
                }
            }
        }
        // Attempt 3: source stepping.
        let mut guess: Option<DVec<f64>> = None;
        for k in 1..=20 {
            let scale = k as f64 / 20.0;
            match dc_newton(
                self,
                layout,
                &mut sys,
                ext,
                switches,
                scale,
                GMIN,
                guess.take(),
                &opts,
            ) {
                Ok(sol) => guess = Some(sol.x),
                Err(e) => return Err(e),
            }
        }
        dc_newton(
            self, layout, &mut sys, ext, switches, 1.0, GMIN, guess, &opts,
        )
    }

    /// Initial switch states, indexed by element position.
    pub(crate) fn initial_switch_states(&self) -> Vec<bool> {
        self.elements()
            .iter()
            .map(|e| match e.kind {
                ElementKind::Switch { initially_on, .. } => initially_on,
                _ => false,
            })
            .collect()
    }
}

/// A converged DC solve: the unknowns and what they cost.
pub(crate) struct DcPoint {
    /// The MNA unknowns at the operating point.
    pub x: DVec<f64>,
    /// Newton iterations used by the successful attempt.
    pub iterations: usize,
    /// Linear-solver counters accumulated over every attempt.
    pub solve: SolveStats,
}

/// One Newton solve at fixed gmin / source scaling.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dc_newton(
    ckt: &Circuit,
    layout: &MnaLayout,
    sys: &mut MnaSystem<f64>,
    ext: &[f64],
    switches: &[bool],
    source_scale: f64,
    gmin: f64,
    guess: Option<DVec<f64>>,
    opts: &DcOptions,
) -> Result<DcPoint, NetError> {
    let n = layout.n_unknowns;
    let mut x = guess.unwrap_or_else(|| DVec::zeros(n));
    if x.len() != n {
        x = DVec::zeros(n);
    }
    // The junction-limited solution; it trades places with `x` every
    // iteration, so the loop allocates nothing.
    let mut x_lim = DVec::zeros(n);
    let nonlinear = ckt.elements().iter().any(|e| e.is_nonlinear());

    let max_iter = if nonlinear { opts.max_iter } else { 2 };
    for iter in 1..=max_iter {
        sys.assemble(|st| assemble_dc(ckt, layout, &x, ext, switches, source_scale, gmin, st));
        sys.factor(true)?;
        let x_new = sys.solve_rhs()?;

        // Junction limiting on diode voltages (read from the unlimited
        // solution, so diodes sharing a node do not see each other's
        // limiting).
        x_lim.as_mut_slice().copy_from_slice(x_new.as_slice());
        for e in ckt.elements() {
            if let ElementKind::Diode { is_sat, n: nf } = e.kind {
                let vt = nf * VT;
                let vcrit = vt * (vt / (std::f64::consts::SQRT_2 * is_sat)).ln();
                let vold = branch_voltage(layout, &x, e.p, e.n);
                let vnew = branch_voltage(layout, x_new, e.p, e.n);
                let vlim = pnjlim(vnew, vold, vt, vcrit);
                if (vlim - vnew).abs() > 0.0 {
                    // Push the limited voltage back onto the node pair,
                    // preferring the non-ground node.
                    let dv = vlim - vnew;
                    if let Some(ip) = layout.node_var(e.p) {
                        x_lim[ip] += dv;
                    } else if let Some(in_) = layout.node_var(e.n) {
                        x_lim[in_] -= dv;
                    }
                }
            }
        }

        // Convergence: change in unknowns.
        let mut converged = true;
        for i in 0..n {
            let delta = (x_lim[i] - x[i]).abs();
            if delta > opts.v_tol + opts.rel_tol * x_lim[i].abs().max(x[i].abs()) {
                converged = false;
                break;
            }
        }
        let finite = x_lim.is_finite();
        std::mem::swap(&mut x, &mut x_lim);
        if converged && finite && (iter > 1 || !nonlinear) {
            return Ok(DcPoint {
                x,
                iterations: iter,
                solve: sys.stats(),
            });
        }
        if !finite {
            break;
        }
    }
    Err(NetError::NoConvergence {
        analysis: "dc operating point",
        iterations: opts.max_iter,
    })
}

fn branch_voltage(layout: &MnaLayout, x: &DVec<f64>, p: NodeId, n: NodeId) -> f64 {
    let vp = layout.node_var(p).map_or(0.0, |i| x[i]);
    let vn = layout.node_var(n).map_or(0.0, |i| x[i]);
    vp - vn
}

pub(crate) fn compute_nmos_ops(
    ckt: &Circuit,
    layout: &MnaLayout,
    x: &DVec<f64>,
) -> Vec<Option<NmosOp>> {
    ckt.elements()
        .iter()
        .map(|e| match e.kind {
            ElementKind::Nmos {
                gate,
                kp,
                vt,
                lambda,
            } => {
                let vg = layout.node_var(gate).map_or(0.0, |i| x[i]);
                let vd = layout.node_var(e.p).map_or(0.0, |i| x[i]);
                let vs = layout.node_var(e.n).map_or(0.0, |i| x[i]);
                Some(nmos_linearize(vg, vd, vs, kp, vt, lambda))
            }
            _ => None,
        })
        .collect()
}

pub(crate) fn compute_diode_ops(
    ckt: &Circuit,
    layout: &MnaLayout,
    x: &DVec<f64>,
) -> Vec<Option<DiodeOp>> {
    ckt.elements()
        .iter()
        .map(|e| match e.kind {
            ElementKind::Diode { is_sat, n } => {
                let v = branch_voltage(layout, x, e.p, e.n);
                let (i, g) = diode_iv(v, is_sat, n);
                Some(DiodeOp { g, i })
            }
            _ => None,
        })
        .collect()
}

/// Assembles the DC-linearized MNA system at the given iterate.
///
/// The stamp-call sequence is data-independent (it depends only on the
/// circuit topology), which is what makes the recorded sparsity pattern
/// and stamp pointers of the sparse backend valid for every iterate,
/// gmin and source scale.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_dc(
    ckt: &Circuit,
    layout: &MnaLayout,
    x: &DVec<f64>,
    ext: &[f64],
    switches: &[bool],
    source_scale: f64,
    gmin: f64,
    st: &mut dyn Stamp<f64>,
) {
    for (idx, e) in ckt.elements().iter().enumerate() {
        let eid = ElementId(idx);
        match &e.kind {
            ElementKind::Resistor { ohms } => {
                stamp_conductance(layout, st, e.p, e.n, 1.0 / ohms);
            }
            ElementKind::Capacitor { .. } => {
                // Open at DC; tiny gmin keeps otherwise-floating nodes solvable.
                stamp_conductance(layout, st, e.p, e.n, GMIN);
            }
            ElementKind::Inductor { .. } => {
                // Short at DC: branch with V(p) − V(n) = 0.
                let b = layout.branch_var(eid).expect("inductor has a branch");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, 1.0);
            }
            ElementKind::VoltageSource { wave, .. } => {
                let b = layout.branch_var(eid).expect("vsource has a branch");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, 1.0);
                st.rhs(b, source_scale * wave.dc_value(ext));
            }
            ElementKind::CurrentSource { wave, .. } => {
                stamp_current(layout, st, e.p, e.n, source_scale * wave.dc_value(ext));
            }
            ElementKind::Vcvs { cp, cn, gain } => {
                let b = layout.branch_var(eid).expect("vcvs has a branch");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, 1.0);
                stamp_branch_voltage(layout, st, b, *cp, *cn, -*gain);
            }
            ElementKind::Vccs { cp, cn, gm } => {
                stamp_vccs(layout, st, e.p, e.n, *cp, *cn, *gm);
            }
            ElementKind::Cccs { ctrl, gain } => {
                let cb = layout
                    .branch_var(*ctrl)
                    .expect("controlling element validated at construction");
                if let Some(ip) = layout.node_var(e.p) {
                    st.mat(ip, cb, *gain);
                }
                if let Some(in_) = layout.node_var(e.n) {
                    st.mat(in_, cb, -*gain);
                }
            }
            ElementKind::Ccvs { ctrl, r } => {
                let b = layout.branch_var(eid).expect("ccvs has a branch");
                let cb = layout
                    .branch_var(*ctrl)
                    .expect("controlling element validated at construction");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, 1.0);
                st.mat(b, cb, -*r);
            }
            ElementKind::Diode { is_sat, n } => {
                let v = branch_voltage(layout, x, e.p, e.n);
                let (i, g) = diode_iv(v, *is_sat, *n);
                // Companion: i ≈ g·v + (i₀ − g·v₀).
                stamp_conductance(layout, st, e.p, e.n, g + gmin);
                stamp_current(layout, st, e.p, e.n, i - g * v);
            }
            ElementKind::Nmos {
                gate,
                kp,
                vt,
                lambda,
            } => {
                let vg = layout.node_var(*gate).map_or(0.0, |i| x[i]);
                let vd = layout.node_var(e.p).map_or(0.0, |i| x[i]);
                let vs = layout.node_var(e.n).map_or(0.0, |i| x[i]);
                let op = nmos_linearize(vg, vd, vs, *kp, *vt, *lambda);
                stamp_mos(layout, st, e.p, *gate, e.n, &op, vg, vd, vs);
                stamp_conductance(layout, st, e.p, e.n, gmin);
            }
            ElementKind::Switch { r_on, r_off, .. } => {
                let r = if switches.get(idx).copied().unwrap_or(false) {
                    *r_on
                } else {
                    *r_off
                };
                stamp_conductance(layout, st, e.p, e.n, 1.0 / r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V1", vin, Circuit::GROUND, 10.0)
            .unwrap();
        ckt.resistor("R1", vin, out, 6e3).unwrap();
        ckt.resistor("R2", out, Circuit::GROUND, 4e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!((op.voltage(out) - 4.0).abs() < 1e-9);
        assert!((op.voltage(vin) - 10.0).abs() < 1e-12);
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn voltage_source_current() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.voltage_source("V1", a, Circuit::GROUND, 5.0).unwrap();
        let r = ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        // The source supplies 5 mA; the branch current flows p→n inside
        // the source, so it reads −5 mA.
        assert!((op.current(v).unwrap() + 5e-3).abs() < 1e-12);
        assert!((op.current(r).unwrap() - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        let l = ckt.inductor("L1", a, b, 1e-3).unwrap();
        ckt.resistor("R1", b, Circuit::GROUND, 100.0).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
        assert!((op.current(l).unwrap() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::GROUND, 1e-6).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        // No current flows: b sits at the source voltage.
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // 1 mA from ground into a (p = ground, n = a).
        ckt.current_source("I1", Circuit::GROUND, a, 1e-3).unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 2e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!((op.voltage(a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn vcvs_amplifier() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V1", inp, Circuit::GROUND, 0.1).unwrap();
        ckt.vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 50.0)
            .unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!((op.voltage(out) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_transconductor() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V1", inp, Circuit::GROUND, 1.0).unwrap();
        // I(out→gnd) = 1 mS · V(in): pulls current out of node `out`.
        ckt.vccs("G1", out, Circuit::GROUND, inp, Circuit::GROUND, 1e-3)
            .unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!((op.voltage(out) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn cccs_current_mirror() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        let v = ckt
            .voltage_source("Vsense", a, Circuit::GROUND, 1.0)
            .unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        // Branch current of Vsense is −1 mA; mirror ×2 into `out`.
        ckt.cccs("F1", Circuit::GROUND, out, v, 2.0).unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        // The controlling branch current (a→gnd inside Vsense) is −1 mA;
        // F1 injects gain·ictrl into its n terminal (out):
        // V(out) = gain·ictrl·RL = 2·(−1 mA)·1 kΩ = −2 V.
        let ictrl = op.current(v).unwrap();
        assert!((ictrl + 1e-3).abs() < 1e-9);
        assert!((op.voltage(out) - (2.0 * ictrl * 1e3)).abs() < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, 5.0).unwrap();
        ckt.resistor("R1", a, d, 1e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let vd = op.voltage(d);
        // Silicon-ish drop in the 0.6–0.75 V range.
        assert!((0.55..0.8).contains(&vd), "vd = {vd}");
        // Current consistency: (5 − vd)/1k = diode current.
        let i_r = (5.0 - vd) / 1e3;
        let (i_d, _) = diode_iv(vd, 1e-14, 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-4, "i_r={i_r}, i_d={i_d}");
    }

    #[test]
    fn reverse_diode_blocks() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, -5.0).unwrap();
        ckt.resistor("R1", a, d, 1e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        // Nearly the full −5 V appears across the diode.
        assert!(op.voltage(d) < -4.9);
    }

    #[test]
    fn current_source_into_open_node_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // A current source forcing current into a node with no DC path to
        // anywhere: the node-voltage row is all zeros.
        ckt.current_source("I1", Circuit::GROUND, a, 1e-3).unwrap();
        let r = ckt.dc_operating_point();
        assert!(
            matches!(
                r,
                Err(NetError::Singular { .. }) | Err(NetError::NoConvergence { .. })
            ),
            "expected failure, got {r:?}"
        );
    }

    #[test]
    fn dangling_resistor_node_is_still_solvable() {
        // A node reached only through one resistor has a well-defined
        // voltage (no current flows): MNA handles it without gmin tricks.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn switch_states_respected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 10.0).unwrap();
        ckt.switch("S1", a, out, 1.0, 1e9, true).unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op_on = ckt.dc_operating_point().unwrap();
        assert!((op_on.voltage(out) - 10.0 * 1e3 / 1001.0).abs() < 1e-6);

        let switches = vec![false];
        let op_off = ckt.dc_operating_point_with(&[], &switches).unwrap();
        assert!(op_off.voltage(out) < 1e-4);
    }

    #[test]
    fn external_input_drives_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let inp = ckt.external_input();
        ckt.voltage_source_wave("V1", a, Circuit::GROUND, crate::Waveform::External(inp))
            .unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let op = ckt
            .dc_operating_point_with(&[3.3], &ckt.initial_switch_states())
            .unwrap();
        assert!((op.voltage(a) - 3.3).abs() < 1e-12);
    }

    #[test]
    fn bridge_rectifier_dc() {
        // Full diode bridge with DC excitation: classic two-diode drop.
        let mut ckt = Circuit::new();
        let acp = ckt.node("acp");
        let acn = ckt.node("acn");
        let vp = ckt.node("vp");
        let vn = ckt.node("vn");
        ckt.voltage_source("V1", acp, acn, 5.0).unwrap();
        ckt.diode("D1", acp, vp, 1e-14, 1.0).unwrap();
        ckt.diode("D2", acn, vp, 1e-14, 1.0).unwrap();
        ckt.diode("D3", vn, acp, 1e-14, 1.0).unwrap();
        ckt.diode("D4", vn, acn, 1e-14, 1.0).unwrap();
        ckt.resistor("RL", vp, vn, 1e3).unwrap();
        // Reference the floating bridge to ground.
        ckt.resistor("Rref", vn, Circuit::GROUND, 1e6).unwrap();
        ckt.resistor("Rref2", acn, Circuit::GROUND, 1e6).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let vload = op.voltage(vp) - op.voltage(vn);
        assert!((3.0..4.2).contains(&vload), "vload = {vload}");
    }
}
