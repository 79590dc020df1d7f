//! Nonlinear device models beyond the diode: the level-1 (square-law)
//! MOSFET used for behavioural transistor-level blocks in phase 2's
//! "enriched mixed-signal library".

/// Linearization of the NMOS drain current at a bias point (per lane
/// when `T` is a lane bundle).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct NmosOp<T = f64> {
    /// Drain current at the bias point (drain → source), amperes.
    pub id: T,
    /// ∂i/∂v_gate.
    pub a_g: T,
    /// ∂i/∂v_drain.
    pub a_d: T,
    /// ∂i/∂v_source.
    pub a_s: T,
}

/// Forward-mode square-law model: returns `(id, gm, gds)` for
/// `v_gs, v_ds ≥ 0` conventions.
fn nmos_forward(vgs: f64, vds: f64, kp: f64, vt: f64, lambda: f64) -> (f64, f64, f64) {
    let vov = vgs - vt;
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let clm = 1.0 + lambda * vds;
    if vds < vov {
        // Triode.
        let id = kp * (vov - vds / 2.0) * vds * clm;
        let gm = kp * vds * clm;
        let gds = kp * (vov - vds) * clm + kp * (vov - vds / 2.0) * vds * lambda;
        (id, gm, gds)
    } else {
        // Saturation.
        let id = kp / 2.0 * vov * vov * clm;
        let gm = kp * vov * clm;
        let gds = kp / 2.0 * vov * vov * lambda;
        (id, gm, gds)
    }
}

/// Linearizes the NMOS drain current `i(v_g, v_d, v_s)` (positive from
/// drain to source) at the given node voltages, handling reverse mode
/// (`v_ds < 0`) by terminal swap.
pub(crate) fn nmos_linearize(vg: f64, vd: f64, vs: f64, kp: f64, vt: f64, lambda: f64) -> NmosOp {
    if vd >= vs {
        let (id, gm, gds) = nmos_forward(vg - vs, vd - vs, kp, vt, lambda);
        // i(vg, vd, vs): vgs = vg − vs, vds = vd − vs.
        NmosOp {
            id,
            a_g: gm,
            a_d: gds,
            a_s: -(gm + gds),
        }
    } else {
        // Reverse mode: physical source is the drain terminal. Current
        // from the `d` terminal to `s` is −i_fwd(v_g − v_d, v_s − v_d).
        let (id, gm, gds) = nmos_forward(vg - vd, vs - vd, kp, vt, lambda);
        NmosOp {
            id: -id,
            a_g: -gm,
            a_d: gm + gds,
            a_s: -gds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KP: f64 = 2e-3;
    const VT: f64 = 1.0;

    #[test]
    fn cutoff_below_threshold() {
        let op = nmos_linearize(0.5, 5.0, 0.0, KP, VT, 0.0);
        assert_eq!(op.id, 0.0);
        assert_eq!(op.a_g, 0.0);
    }

    #[test]
    fn saturation_current_matches_square_law() {
        // vgs = 3, vds = 5 > vov = 2: saturation.
        let op = nmos_linearize(3.0, 5.0, 0.0, KP, VT, 0.0);
        assert!((op.id - KP / 2.0 * 4.0).abs() < 1e-15);
        assert!((op.a_g - KP * 2.0).abs() < 1e-15); // gm = kp·vov
        assert_eq!(op.a_d, 0.0); // no CLM → flat saturation
    }

    #[test]
    fn triode_current_matches_formula() {
        // vgs = 3, vds = 1 < vov = 2: triode.
        let op = nmos_linearize(3.0, 1.0, 0.0, KP, VT, 0.0);
        let expect = KP * (2.0 - 0.5) * 1.0;
        assert!((op.id - expect).abs() < 1e-15);
        // gds = kp(vov − vds) = kp.
        assert!((op.a_d - KP).abs() < 1e-15);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-7;
        for &(vg, vd, vs, lambda) in &[
            (3.0, 5.0, 0.0, 0.02),
            (3.0, 1.0, 0.0, 0.02),
            (2.0, 0.3, 0.0, 0.0),
            (3.0, -1.0, 0.0, 0.01), // reverse mode
            (4.0, 2.0, 1.0, 0.05),
        ] {
            let f = |vg: f64, vd: f64, vs: f64| nmos_linearize(vg, vd, vs, KP, VT, lambda).id;
            let op = nmos_linearize(vg, vd, vs, KP, VT, lambda);
            let num_g = (f(vg + h, vd, vs) - f(vg - h, vd, vs)) / (2.0 * h);
            let num_d = (f(vg, vd + h, vs) - f(vg, vd - h, vs)) / (2.0 * h);
            let num_s = (f(vg, vd, vs + h) - f(vg, vd, vs - h)) / (2.0 * h);
            assert!((op.a_g - num_g).abs() < 1e-5, "a_g at ({vg},{vd},{vs})");
            assert!((op.a_d - num_d).abs() < 1e-5, "a_d at ({vg},{vd},{vs})");
            assert!((op.a_s - num_s).abs() < 1e-5, "a_s at ({vg},{vd},{vs})");
        }
    }

    #[test]
    fn current_is_continuous_across_triode_saturation_boundary() {
        let lambda = 0.02;
        let vov = 2.0;
        let below = nmos_linearize(VT + vov, vov - 1e-9, 0.0, KP, VT, lambda);
        let above = nmos_linearize(VT + vov, vov + 1e-9, 0.0, KP, VT, lambda);
        assert!((below.id - above.id).abs() < 1e-9);
        assert!((below.a_g - above.a_g).abs() < 1e-6);
    }

    #[test]
    fn reverse_mode_is_antisymmetric_without_clm() {
        // With λ = 0 and symmetric bias, i(d↔s) flips sign.
        let fwd = nmos_linearize(3.0, 2.0, 0.0, KP, VT, 0.0);
        let rev = nmos_linearize(3.0, 0.0, 2.0, KP, VT, 0.0);
        // Reverse: vg − vd' with drain at 0... gate referenced to the
        // physical source (node at 0 V in fwd, node at 0 V = drain in rev):
        // i_rev = −i_fwd only when the gate overdrive matches; here
        // vgs_fwd = 3, vgs_rev (physical) = 3 − 0 = 3 as well.
        assert!((fwd.id + rev.id).abs() < 1e-15, "{} vs {}", fwd.id, rev.id);
    }
}
