//! Topology-cache behavior through the public [`ServeHandle`] API:
//! hit/miss accounting, LRU eviction under a byte budget, and the
//! acceptance property — a warm job is bit-identical to a cold direct
//! run while performing zero symbolic analyses and zero lint passes.

use ams_serve::{JobSpec, ServeConfig, ServeHandle, TenantConfig};

fn service_with(cache_bytes: usize, workers: usize) -> (ServeHandle, String) {
    let handle = ServeHandle::start(ServeConfig {
        workers,
        cache_bytes,
        tenants: vec![TenantConfig::named("t")],
        ..ServeConfig::default()
    });
    let tenant = handle.tenant_token("t").expect("tenant registered");
    (handle, tenant)
}

fn run(handle: &ServeHandle, tenant: &str, job: &JobSpec) -> u64 {
    let token = handle.submit(tenant, job.clone()).expect("submit");
    handle.wait(tenant, &token).expect("job done").fingerprint()
}

#[test]
fn repeat_jobs_hit_the_cache() {
    let (handle, tenant) = service_with(64 << 20, 2);
    let job = JobSpec::demo_rc(8, 0xCAFE);

    run(&handle, &tenant, &job);
    let m = handle.metrics();
    assert_eq!(m.counter("serve.cache.misses"), 1);
    assert_eq!(m.counter("serve.cache.hits"), 0);
    assert_eq!(m.counter("serve.lint.runs"), 1);

    run(&handle, &tenant, &job);
    run(&handle, &tenant, &job);
    let m = handle.metrics();
    assert_eq!(
        m.counter("serve.cache.misses"),
        1,
        "same topology misses once"
    );
    assert_eq!(m.counter("serve.cache.hits"), 2);
    assert_eq!(
        m.counter("serve.lint.runs"),
        1,
        "lint runs once per topology"
    );
    assert!(m.gauge("serve.cache.entries").unwrap_or(0.0) > 0.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn lru_eviction_respects_byte_budget() {
    // A budget of one byte can hold no second entry: every distinct
    // topology evicts the previous one, so re-running the first job
    // misses again.
    let (handle, tenant) = service_with(1, 1);
    let a = JobSpec::demo_rc(4, 1);
    let mut b = JobSpec::demo_rc(4, 1);
    // Different element value → different topology fingerprint.
    if let ams_serve::ElementKindSpec::Resistor(ohms) = &mut b.circuit.elements[1].kind {
        *ohms *= 2.0;
    } else {
        panic!("demo_rc element 1 should be a resistor");
    }
    assert_ne!(a.circuit.fingerprint(), b.circuit.fingerprint());

    run(&handle, &tenant, &a); // miss, insert a
    run(&handle, &tenant, &b); // miss, insert b, evict a
    run(&handle, &tenant, &a); // miss again: a was evicted
    let m = handle.metrics();
    assert_eq!(m.counter("serve.cache.misses"), 3);
    assert_eq!(m.counter("serve.cache.hits"), 0);
    assert!(m.counter("serve.cache.evictions") >= 2);

    handle.shutdown();
    handle.join();
}

#[test]
fn warm_run_is_bit_identical_to_cold_at_one_and_four_workers() {
    let job = JobSpec::demo_rc(24, 0xBEEF);
    // References: direct runs, no service, no cache.
    let direct1 = job.direct_run(1).expect("direct@1").fingerprint();
    let direct4 = job.direct_run(4).expect("direct@4").fingerprint();
    assert_eq!(direct1, direct4, "sweep engine must be worker-invariant");

    for workers in [1usize, 4] {
        let (handle, tenant) = service_with(64 << 20, workers);
        let cold = run(&handle, &tenant, &job);
        let sym_cold = handle.metrics().counter("serve.lu.symbolic_analyses");
        let lint_cold = handle.metrics().counter("serve.lint.runs");
        assert!(sym_cold >= 1, "cold run must analyze at least once");
        assert_eq!(lint_cold, 1);

        let warm = run(&handle, &tenant, &job);
        let m = handle.metrics();
        assert_eq!(
            m.counter("serve.lu.symbolic_analyses"),
            sym_cold,
            "warm run at {workers} workers must do 0 symbolic analyses"
        );
        assert_eq!(
            m.counter("serve.lint.runs"),
            1,
            "warm run at {workers} workers must do 0 lint passes"
        );
        assert_eq!(cold, direct1, "cold@{workers} differs from direct");
        assert_eq!(warm, direct1, "warm@{workers} differs from direct");

        handle.shutdown();
        handle.join();
    }
}

#[test]
fn negative_lint_verdicts_are_cached() {
    // Two parallel ideal voltage sources close a voltage-defined loop
    // (lint code MNA003) — denied by the default policy. The verdict —
    // not just the passing circuit — is cached, so resubmitting does
    // not re-lint.
    use ams_serve::{CircuitSpec, ElementKindSpec, ElementSpec, WaveSpec};
    let (handle, tenant) = service_with(64 << 20, 1);
    let mut job = JobSpec::demo_rc(4, 7);
    job.circuit = CircuitSpec {
        elements: vec![
            ElementSpec {
                name: "v1".into(),
                p: "top".into(),
                n: "0".into(),
                kind: ElementKindSpec::VoltageSource(WaveSpec::Dc(1.0)),
            },
            ElementSpec {
                name: "v2".into(),
                p: "top".into(),
                n: "0".into(),
                kind: ElementKindSpec::VoltageSource(WaveSpec::Dc(2.0)),
            },
            ElementSpec {
                name: "rload".into(),
                p: "top".into(),
                n: "0".into(),
                kind: ElementKindSpec::Resistor(1e3),
            },
        ],
    };
    job.binds.clear();
    job.metrics[0].node = "top".into();
    job.metrics[1].node = "top".into();

    for round in 0..2 {
        let token = handle.submit(&tenant, job.clone()).expect("submit");
        let err = handle.wait(&tenant, &token).expect_err("lint must reject");
        let msg = err.to_string();
        assert!(msg.contains("lint"), "round {round}: {msg}");
        if round == 1 {
            assert!(
                msg.contains("cached"),
                "round {round} should hit cache: {msg}"
            );
        }
    }
    let m = handle.metrics();
    assert_eq!(
        m.counter("serve.lint.runs"),
        1,
        "verdict cached after round 0"
    );
    assert_eq!(m.counter("serve.cache.hits"), 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn a_cold_lane_job_seeds_warm_jobs_of_every_width() {
    // The cache entry of `demo_rc`'s topology with its factor: the
    // elaborated circuit plus one scalar symbolic analysis.
    const ENTRY_BYTES: f64 = 3158.0;
    let (handle, tenant) = service_with(64 << 20, 2);

    // Cold: one full 4-lane bundle. Its analysis is lane 0's scalar
    // one, so the entry weighs what a one-lane job's entry weighs.
    let cold = JobSpec::demo_rc(4, 0x5EED);
    assert_eq!(
        run(&handle, &tenant, &cold),
        cold.direct_run(1).unwrap().fingerprint()
    );
    let m = handle.metrics();
    assert_eq!(m.counter("serve.cache.misses"), 1);
    assert_eq!(m.counter("serve.lu.symbolic_analyses"), 1);
    assert_eq!(m.gauge("serve.cache.bytes"), Some(ENTRY_BYTES));

    // Warm: a lone scenario (width 1), a short bundle, an exact one and
    // two full bundles plus a padded one, all adopting that factor.
    for n in [1, 3, 4, 9] {
        let job = JobSpec::demo_rc(n, 0xA0 + n as u64);
        assert_eq!(
            run(&handle, &tenant, &job),
            job.direct_run(1).unwrap().fingerprint(),
            "warm {n}-scenario job differs from its direct run"
        );
        let m = handle.metrics();
        assert_eq!(
            m.counter("serve.lu.symbolic_analyses"),
            1,
            "warm {n}-scenario job analyzed"
        );
        assert_eq!(m.gauge("serve.cache.bytes"), Some(ENTRY_BYTES));
    }
    assert_eq!(handle.metrics().counter("serve.cache.hits"), 4);

    handle.shutdown();
    handle.join();
}
