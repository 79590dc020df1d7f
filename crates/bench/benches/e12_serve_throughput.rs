//! E12 — service throughput: what the warm topology cache is worth.
//!
//! The daemon's whole value proposition is amortization across *jobs*
//! (where `ams-sweep` amortizes across scenarios within one job): a
//! repeat job over a known topology skips elaboration, the lint gate,
//! and the sparse symbolic analysis. Measured: end-to-end latency of
//! one Monte-Carlo job through [`ServeHandle`] submit→wait, cold
//! (fresh service per iteration, cache empty) vs warm (persistent
//! service, cache hit), plus the direct in-process run as the no-service
//! baseline — the service tax itself (tokens, queuing, streaming) is
//! the warm-vs-direct gap.

use ams_serve::{
    BindTarget, CircuitSpec, ElementKindSpec, ElementSpec, JobSpec, MetricSpec, ParamBind,
    ProbeKind, ServeConfig, ServeHandle, SweepDecl, TenantConfig, WaveSpec,
};
use criterion::{criterion_group, criterion_main, Criterion};

const STAGES: usize = 192;
const SCENARIOS: usize = 4;
const SEED: u64 = 0xE12;

/// A wide RC ladder: `STAGES` stages are 2·`STAGES` + 1 elements and
/// `STAGES` + 2 MNA unknowns (the nodes plus the source branch), enough
/// that the sparse symbolic analysis (the thing the cache amortizes)
/// is a visible slice of a short job. Scenario count is kept small for
/// the same reason — E10 already covers the many-scenario regime — and
/// fills exactly one of the service's 4-lane bundles.
fn ladder_job() -> JobSpec {
    let mut elements = vec![ElementSpec {
        name: "Vin".into(),
        p: "n0".into(),
        n: "0".into(),
        kind: ElementKindSpec::VoltageSource(WaveSpec::Dc(1.0)),
    }];
    for k in 0..STAGES {
        elements.push(ElementSpec {
            name: format!("R{k}"),
            p: format!("n{k}"),
            n: format!("n{}", k + 1),
            kind: ElementKindSpec::Resistor(100.0),
        });
        elements.push(ElementSpec {
            name: format!("C{k}"),
            p: format!("n{}", k + 1),
            n: "0".into(),
            kind: ElementKindSpec::Capacitor(1e-9),
        });
    }
    JobSpec {
        circuit: CircuitSpec { elements },
        binds: vec![ParamBind {
            param: "dr".into(),
            element: "R0".into(),
            target: BindTarget::Resistance,
            relative: true,
        }],
        metrics: vec![MetricSpec {
            name: "v_out".into(),
            node: format!("n{STAGES}"),
            probe: ProbeKind::Last,
        }],
        sweep: SweepDecl::MonteCarlo {
            params: vec![("dr".into(), -0.05, 0.05)],
            n: SCENARIOS,
            seed: SEED,
        },
        t_end: 2e-6,
        h: 10e-9,
        trapezoidal: true,
        workers: 2,
        monitors: None,
    }
}

fn service() -> (ServeHandle, String) {
    let handle = ServeHandle::start(ServeConfig {
        workers: 4,
        tenants: vec![TenantConfig::named("bench")],
        ..ServeConfig::default()
    });
    let tenant = handle.tenant_token("bench").expect("tenant registered");
    (handle, tenant)
}

fn run_one(handle: &ServeHandle, tenant: &str, job: &JobSpec) -> u64 {
    let token = handle.submit(tenant, job.clone()).expect("submit");
    handle
        .wait(tenant, &token)
        .expect("job completes")
        .fingerprint()
}

fn bench(c: &mut Criterion) {
    let job = ladder_job();
    let mut group = c.benchmark_group("e12_serve_throughput");

    group.bench_function("direct", |b| {
        b.iter(|| job.direct_run(2).expect("direct run").fingerprint());
    });

    group.bench_function("cold_cache", |b| {
        b.iter(|| {
            // A fresh service per iteration: every job pays
            // elaboration + lint + symbolic analysis.
            let (handle, tenant) = service();
            let fp = run_one(&handle, &tenant, &job);
            handle.shutdown();
            handle.join();
            fp
        });
    });

    let (handle, tenant) = service();
    // Populate the cache once; every measured iteration hits it.
    let reference = run_one(&handle, &tenant, &job);
    group.bench_function("warm_cache", |b| {
        b.iter(|| {
            let fp = run_one(&handle, &tenant, &job);
            assert_eq!(fp, reference, "warm runs must be bit-identical");
            fp
        });
    });
    group.finish();

    let metrics = handle.metrics();
    eprintln!(
        "e12: cache hits {} misses {} | symbolic analyses {} | lint runs {}",
        metrics.counter("serve.cache.hits"),
        metrics.counter("serve.cache.misses"),
        metrics.counter("serve.lu.symbolic_analyses"),
        metrics.counter("serve.lint.runs"),
    );
    handle.shutdown();
    handle.join();
}

criterion_group!(benches, bench);
criterion_main!(benches);
