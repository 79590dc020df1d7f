//! DC operating-point analysis.
//!
//! Computes the quiescent state the paper requires before any mixed-signal
//! simulation can start ("the synchronization also requires the formal
//! definition of a consistent initial (quiescent) state for the whole
//! mixed-signal system", §3). Capacitors are open, inductors are shorts;
//! nonlinear elements are solved by Newton iteration with SPICE-style
//! junction limiting, falling back to gmin stepping and source stepping
//! when plain Newton fails. Each iteration assembles through the real
//! walk every transient step also runs ([`RealWalk`]), with the DC
//! storage models and sources of [`dc_walk`].

use crate::assembly::{MnaSystem, SolverBackend};
use crate::mna::{element_current, node_value, MnaLayout, RealWalk, Sources, Storage};
use crate::{Circuit, ElementId, ElementKind, NetError, NodeId};
use ams_math::{DVec, SolveStats};

/// Thermal voltage at 300 K.
pub(crate) const VT: f64 = 0.02585;
/// Minimum conductance added across nonlinear junctions.
pub(crate) const GMIN: f64 = 1e-12;

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
    /// The switch state of every element the point was solved at
    /// (`false` for non-switches); currents, AC and noise read these.
    pub(crate) switches: Vec<bool>,
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
        node_value(&self.layout, &self.x, node)
    }

    /// The branch current of a voltage-defined element (voltage source,
    /// inductor, VCVS, CCVS), or the computed current for resistors,
    /// capacitors (always 0 at DC), diodes, NMOS transistors and
    /// switches (at the state the point was solved at).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] for handles outside the
    /// circuit or for current sources (use the source value directly).
    pub fn current(&self, elem: ElementId) -> Result<f64, NetError> {
        element_current(
            &self.circuit,
            &self.layout,
            |i| self.x[i],
            &self.switches,
            |_| 0.0,
            elem,
        )
    }

    /// Raw access to the MNA solution vector.
    pub fn unknowns(&self) -> &[f64] {
        self.x.as_slice()
    }
}

/// Newton iteration cap of a DC attempt and of a transient step.
pub(crate) const NEWTON_MAX_ITER: usize = 200;
/// Newton convergence: every unknown moves by at most
/// `NEWTON_V_TOL + NEWTON_REL_TOL × |value|`.
pub(crate) const NEWTON_V_TOL: f64 = 1e-9;
/// See [`NEWTON_V_TOL`].
pub(crate) const NEWTON_REL_TOL: f64 = 1e-6;

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
    /// (one per external input) and switch states (one per element,
    /// `false` for non-switches).
    ///
    /// # Errors
    ///
    /// * [`NetError::InvalidValue`] when `ext` or `switches` does not
    ///   hold exactly one entry per external input or element.
    /// * Otherwise see [`Circuit::dc_operating_point`].
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
    /// See [`Circuit::dc_operating_point_with`].
    pub fn dc_operating_point_with_backend(
        &self,
        ext: &[f64],
        switches: &[bool],
        backend: SolverBackend,
    ) -> Result<DcSolution, NetError> {
        for (what, per, want, got) in [
            (
                "ext",
                "external input",
                self.external_input_count(),
                ext.len(),
            ),
            ("switches", "element", self.element_count(), switches.len()),
        ] {
            if got != want {
                return Err(NetError::InvalidValue {
                    element: what.to_string(),
                    reason: format!("expected one entry per {per} ({want}), got {got}"),
                });
            }
        }
        let layout = MnaLayout::build(self);
        let DcPoint {
            x,
            iterations,
            solve,
        } = self.dc_solve(&layout, ext, switches, backend)?;
        Ok(DcSolution {
            switches: switches.to_vec(),
            circuit: self.clone(),
            layout,
            x,
            iterations,
            solve,
        })
    }

    /// The DC operating point's unknowns alone, over this circuit's
    /// `layout`: the solve behind every `dc_operating_point*`, without
    /// the circuit copy a [`DcSolution`] carries (the transient engine's
    /// DC start does not need it).
    pub(crate) fn dc_solve(
        &self,
        layout: &MnaLayout,
        ext: &[f64],
        switches: &[bool],
        backend: SolverBackend,
    ) -> Result<DcPoint, NetError> {
        let n = layout.n_unknowns;
        // One system for all attempts: the stamp sequence (hence the
        // pattern) does not depend on the iterate, gmin or source scale.
        let zero = DVec::zeros(n);
        let walk = |scale, gmin| dc_walk(self, layout, &zero, ext, switches, scale, gmin);
        let mut sys = MnaSystem::new(n, backend.use_sparse(n), |st| walk(1.0, GMIN).stamp(st));
        let mut newton = |scale, gmin, guess| dc_newton(&mut sys, walk(scale, gmin), guess);

        // Attempt 1: plain Newton from zero.
        if let Ok(sol) = newton(1.0, GMIN, None) {
            return Ok(sol);
        }
        // Attempt 2: gmin stepping.
        let mut guess = None;
        let mut ok = true;
        for exp in (-12..=-2).rev().map(|e| 10f64.powi(e)) {
            match newton(1.0, exp, guess.take()) {
                Ok(sol) => guess = Some(sol.x),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if let Some(g) = guess {
                if let Ok(sol) = newton(1.0, GMIN, Some(g)) {
                    return Ok(sol);
                }
            }
        }
        // Attempt 3: source stepping.
        let mut guess = None;
        for k in 1..=20 {
            guess = Some(newton(k as f64 / 20.0, GMIN, guess.take())?.x);
        }
        newton(1.0, GMIN, guess)
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

/// One Newton solve of `walk`'s DC system (its gmin and source scale
/// fixed) from `guess`; the walk's iterate is replaced by each Newton
/// iterate in turn.
pub(crate) fn dc_newton(
    sys: &mut MnaSystem<f64>,
    walk: RealWalk<'_, f64>,
    guess: Option<DVec<f64>>,
) -> Result<DcPoint, NetError> {
    let (ckt, layout) = (&walk.values[0], walk.layout);
    let n = layout.n_unknowns;
    let mut x = guess.unwrap_or_else(|| DVec::zeros(n));
    if x.len() != n {
        x = DVec::zeros(n);
    }
    // The junction-limited solution; it trades places with `x` every
    // iteration, so the loop allocates nothing.
    let mut x_lim = DVec::zeros(n);
    let nonlinear = ckt.elements().iter().any(|e| e.is_nonlinear());

    let max_iter = if nonlinear { NEWTON_MAX_ITER } else { 2 };
    for iter in 1..=max_iter {
        sys.assemble(|st| RealWalk { x: &x, ..walk }.stamp(st));
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
                let vold = node_value(layout, &x, e.p) - node_value(layout, &x, e.n);
                let vnew = node_value(layout, x_new, e.p) - node_value(layout, x_new, e.n);
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
            if delta > NEWTON_V_TOL + NEWTON_REL_TOL * x_lim[i].abs().max(x[i].abs()) {
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
        iterations: NEWTON_MAX_ITER,
    })
}

/// The real walk of the DC-linearized system at iterate `x`: capacitors
/// leak `GMIN`, inductors are shorts, sources sit at
/// `scale × dc_value(ext)` and junctions leak `gmin`.
pub(crate) fn dc_walk<'a>(
    ckt: &'a Circuit,
    layout: &'a MnaLayout,
    x: &'a DVec<f64>,
    ext: &'a [f64],
    switches: &'a [bool],
    scale: f64,
    gmin: f64,
) -> RealWalk<'a, f64> {
    RealWalk {
        values: std::slice::from_ref(ckt),
        layout,
        x,
        switches,
        storage: Storage::Dc,
        sources: Sources::Dc { scale, ext },
        gmin,
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
        let s1 = ckt.switch("S1", a, out, 1.0, 1e9, true).unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op_on = ckt.dc_operating_point().unwrap();
        assert!((op_on.voltage(out) - 10.0 * 1e3 / 1001.0).abs() < 1e-6);
        assert!((op_on.current(s1).unwrap() - 10.0 / 1001.0).abs() < 1e-12);

        let switches = vec![false, false, false];
        let op_off = ckt.dc_operating_point_with(&[], &switches).unwrap();
        assert!(op_off.voltage(out) < 1e-4);
        // The switch is priced at the state the point was solved at.
        let i_off = op_off.current(s1).unwrap();
        assert!((i_off - 10.0 / (1e9 + 1e3)).abs() < 1e-18, "{i_off}");
    }

    #[test]
    fn slices_of_the_wrong_length_are_invalid() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let inp = ckt.external_input();
        ckt.voltage_source_wave("V1", a, Circuit::GROUND, crate::Waveform::External(inp))
            .unwrap();
        ckt.switch("S1", a, Circuit::GROUND, 1.0, 1e9, false)
            .unwrap();
        for (ext, switches) in [
            (&[][..], &[false, false][..]),
            (&[1.0, 2.0][..], &[false, false][..]),
            (&[1.0][..], &[false][..]),
            (&[1.0][..], &[false, false, false][..]),
        ] {
            let err = ckt.dc_operating_point_with(ext, switches).unwrap_err();
            assert!(
                matches!(err, NetError::InvalidValue { .. }),
                "{ext:?}, {switches:?}: {err}"
            );
        }
        assert!(ckt.dc_operating_point_with(&[1.0], &[false, false]).is_ok());
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
