//! Failure-injection tests: every malformed model or numerically
//! impossible request must surface as a *typed error*, never a panic —
//! the dependability half of the paper's "executable specification"
//! goal.

use systemc_ams::core::{
    AmsSimulator, CoreError, LtiCtSolver, TdfGraph, TdfIn, TdfIo, TdfModule, TdfOut, TdfSetup,
};
use systemc_ams::kernel::{Kernel, KernelError, SimTime};
use systemc_ams::lti::{Discretization, TransferFunction};
use systemc_ams::math::MathError;
use systemc_ams::net::{Circuit, IntegrationMethod, NetError, TransientSolver};
use systemc_ams::sdf::{schedule, SdfError, SdfGraph};

struct Src {
    out: TdfOut,
    ts: Option<SimTime>,
}
impl TdfModule for Src {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.output(self.out);
        if let Some(ts) = self.ts {
            cfg.set_timestep(ts);
        }
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        io.write1(self.out, 0.0);
        Ok(())
    }
}

struct Pass {
    inp: TdfIn,
    out: TdfOut,
}
impl TdfModule for Pass {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
    }
    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let v = io.read1(self.inp);
        io.write1(self.out, v);
        Ok(())
    }
}

// ---------- numerical layer ------------------------------------------------

#[test]
fn singular_matrix_is_typed() {
    let a = systemc_ams::math::DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    assert!(matches!(
        systemc_ams::math::Lu::factor(&a),
        Err(MathError::SingularMatrix { .. })
    ));
}

#[test]
fn newton_divergence_is_typed() {
    struct NoRoot;
    impl systemc_ams::math::newton::NonlinearSystem for NoRoot {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&mut self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] * x[0] + 1.0;
        }
    }
    let mut x = [0.7];
    let r = systemc_ams::math::newton::solve(
        &mut NoRoot,
        &mut x,
        &systemc_ams::math::newton::NewtonOptions {
            max_iter: 15,
            ..Default::default()
        },
    );
    assert!(r.is_err());
}

#[test]
fn step_size_underflow_is_typed() {
    // An ODE with a finite-time blow-up: ẋ = x², x(0)=1 explodes at t=1.
    let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = x[0] * x[0];
    let rkf = systemc_ams::math::ode::AdaptiveRkf45::new(Default::default());
    let mut x = vec![1.0];
    let r = rkf.integrate(&mut f, 0.0, 2.0, &mut x);
    assert!(
        matches!(r, Err(MathError::StepSizeUnderflow { .. })) || x[0].is_infinite(),
        "blow-up must not loop forever: {r:?}"
    );
}

// ---------- dataflow layer --------------------------------------------------

#[test]
fn inconsistent_rates_are_typed() {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a");
    let b = g.add_actor("b");
    g.connect(a, 1, b, 1, 0).unwrap();
    g.connect(b, 3, a, 2, 0).unwrap();
    assert!(matches!(
        g.repetition_vector(),
        Err(SdfError::InconsistentRates { .. })
    ));
}

#[test]
fn deadlock_is_typed() {
    let mut g = SdfGraph::new();
    let a = g.add_actor("a");
    let b = g.add_actor("b");
    g.connect(a, 1, b, 1, 0).unwrap();
    g.connect(b, 1, a, 1, 0).unwrap();
    assert!(matches!(schedule(&g), Err(SdfError::Deadlock { .. })));
}

// ---------- network layer ----------------------------------------------------

#[test]
fn unsolvable_topology_is_typed() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.current_source("I", Circuit::GROUND, a, 1e-3).unwrap();
    assert!(matches!(
        ckt.dc_operating_point(),
        Err(NetError::Singular { .. }) | Err(NetError::NoConvergence { .. })
    ));
}

#[test]
fn invalid_element_values_are_typed() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    assert!(matches!(
        ckt.resistor("R", a, Circuit::GROUND, -1.0),
        Err(NetError::InvalidValue { .. })
    ));
    assert!(matches!(
        ckt.capacitor("C", a, Circuit::GROUND, 0.0),
        Err(NetError::InvalidValue { .. })
    ));
    assert!(matches!(
        ckt.diode("D", a, Circuit::GROUND, -1e-14, 1.0),
        Err(NetError::InvalidValue { .. })
    ));
}

#[test]
fn bad_timestep_requests_are_typed() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.voltage_source("V", a, Circuit::GROUND, 1.0).unwrap();
    ckt.resistor("R", a, Circuit::GROUND, 1e3).unwrap();
    let mut tr = TransientSolver::new(&ckt, IntegrationMethod::Trapezoidal).unwrap();
    tr.initialize_dc().unwrap();
    assert!(matches!(tr.step(-1e-6), Err(NetError::InvalidValue { .. })));
    assert!(matches!(
        tr.step(f64::NAN),
        Err(NetError::InvalidValue { .. })
    ));
}

// ---------- kernel layer ------------------------------------------------------

#[test]
fn delta_oscillation_is_typed() {
    let mut k = Kernel::new();
    k.set_delta_limit(50);
    let s = k.signal("osc", false);
    let p = k.add_process("toggle", move |ctx| {
        let v = ctx.read(s);
        ctx.write(s, !v);
    });
    k.make_sensitive(p, k.signal_event(s));
    assert!(matches!(
        k.run_until(SimTime::from_ns(1)),
        Err(KernelError::DeltaOverflow { .. })
    ));
}

// ---------- TDF layer -----------------------------------------------------------

#[test]
fn missing_timestep_is_typed() {
    let mut g = TdfGraph::new("no_ts");
    let s = g.signal("s");
    g.add_module(
        "src",
        Src {
            out: s.writer(),
            ts: None,
        },
    );
    assert!(matches!(g.elaborate(), Err(CoreError::NoTimestep)));
}

#[test]
fn zero_timestep_is_typed() {
    let mut g = TdfGraph::new("zero_ts");
    let s = g.signal("s");
    g.add_module(
        "src",
        Src {
            out: s.writer(),
            ts: Some(SimTime::ZERO),
        },
    );
    assert!(matches!(g.elaborate(), Err(CoreError::Invalid { .. })));
}

#[test]
fn unwritten_signal_is_typed() {
    let mut g = TdfGraph::new("nw");
    let a = g.signal("a");
    let b = g.signal("b");
    g.add_module(
        "pass",
        Pass {
            inp: a.reader(),
            out: b.writer(),
        },
    );
    assert!(matches!(g.elaborate(), Err(CoreError::NoWriter { .. })));
}

#[test]
fn double_writer_is_typed() {
    let mut g = TdfGraph::new("dw");
    let s = g.signal("s");
    g.add_module(
        "a",
        Src {
            out: s.writer(),
            ts: Some(SimTime::from_us(1)),
        },
    );
    g.add_module(
        "b",
        Src {
            out: s.writer(),
            ts: Some(SimTime::from_us(1)),
        },
    );
    assert!(matches!(
        g.elaborate(),
        Err(CoreError::MultipleWriters { .. })
    ));
}

#[test]
fn inexact_timestep_is_typed() {
    // 3-token consumer forces q = [3, 1]; a 10 fs period is not divisible
    // by 3.
    struct Take3 {
        inp: TdfIn,
        out: TdfOut,
    }
    impl TdfModule for Take3 {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.input_with(self.inp, 3, 0);
            cfg.output(self.out);
            cfg.set_timestep(SimTime::from_fs(10));
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            let v = io.read(self.inp, 0);
            io.write1(self.out, v);
            Ok(())
        }
    }
    let mut g = TdfGraph::new("inexact");
    let a = g.signal("a");
    let b = g.signal("b");
    g.add_module(
        "src",
        Src {
            out: a.writer(),
            ts: None,
        },
    );
    g.add_module(
        "t3",
        Take3 {
            inp: a.reader(),
            out: b.writer(),
        },
    );
    assert!(matches!(
        g.elaborate(),
        Err(CoreError::InexactTimestep { .. })
    ));
}

#[test]
fn runtime_module_failure_is_typed_and_stops_cluster() {
    struct FailAfter {
        out: TdfOut,
        n: u32,
    }
    impl TdfModule for FailAfter {
        fn setup(&mut self, cfg: &mut TdfSetup) {
            cfg.output(self.out);
            cfg.set_timestep(SimTime::from_us(1));
        }
        fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
            if self.n == 0 {
                return Err(CoreError::solver("fail_after", "injected failure"));
            }
            self.n -= 1;
            io.write1(self.out, 0.0);
            Ok(())
        }
    }
    let mut sim = AmsSimulator::new();
    let mut g = TdfGraph::new("failing");
    let s = g.signal("s");
    g.add_module(
        "f",
        FailAfter {
            out: s.writer(),
            n: 3,
        },
    );
    let handle = sim.add_cluster(g).unwrap();
    let err = sim.run_until(SimTime::from_us(10)).unwrap_err();
    assert!(matches!(err, CoreError::Solver { .. }));
    // The cluster stopped at the failing iteration.
    assert_eq!(handle.iterations(), 3);
}

#[test]
fn ct_solver_backward_time_is_typed() {
    let tf = TransferFunction::low_pass1(10.0).unwrap();
    let mut solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh).unwrap();
    use systemc_ams::core::CtSolver;
    solver.initialize(&[0.0]).unwrap();
    let mut out = [0.0];
    let one = SimTime::from_secs(1);
    solver.advance_to(one, one, &[1.0], &mut out).unwrap();
    let half = SimTime::from_ms(500);
    assert!(solver.advance_to(half, half, &[1.0], &mut out).is_err());
}

#[test]
fn improper_transfer_function_embedding_is_typed() {
    // H(s) = s is improper: no state-space realization.
    let tf = TransferFunction::new(vec![0.0, 1.0], vec![1.0]).unwrap();
    assert!(LtiCtSolver::from_transfer_function(&tf, Discretization::Zoh).is_err());
}

#[test]
fn ac_analysis_empty_frequency_list_is_typed() {
    let mut g = TdfGraph::new("ac");
    let s = g.signal("s");
    g.add_module(
        "src",
        Src {
            out: s.writer(),
            ts: Some(SimTime::from_us(1)),
        },
    );
    let mut c = g.elaborate().unwrap();
    assert!(matches!(c.ac_analysis(&[]), Err(CoreError::Invalid { .. })));
}

#[test]
fn error_display_chain_is_informative() {
    let mut g = TdfGraph::new("diag");
    let s = g.signal("audio_out");
    g.add_module(
        "pass",
        Pass {
            inp: s.reader(),
            out: s.writer(),
        },
    );
    // Self-loop without delay → deadlock mentioning the dataflow layer.
    match g.elaborate() {
        Err(e @ CoreError::Sdf(_)) => {
            let msg = e.to_string();
            assert!(msg.contains("dataflow"), "message: {msg}");
            assert!(std::error::Error::source(&e).is_some());
        }
        other => panic!("expected sdf error, got {other:?}"),
    }
}
