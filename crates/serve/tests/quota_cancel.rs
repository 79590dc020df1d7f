//! Admission control: per-tenant quotas, cooperative cancellation at
//! bundle boundaries, and non-blocking backpressure.

use ams_serve::{JobSpec, ServeConfig, ServeError, ServeHandle, TenantConfig};
use std::time::{Duration, Instant};

/// A job slow enough to still be running when we poke at it: many
/// scenarios, tiny step. One scenario is a few ms of wall clock.
fn slow_job(scenarios: usize) -> JobSpec {
    let mut job = JobSpec::demo_rc(scenarios, 0x510);
    job.workers = 1;
    job
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn over_budget_submission_is_rejected_not_queued() {
    let handle = ServeHandle::start(ServeConfig {
        workers: 2,
        tenants: vec![TenantConfig {
            scenario_budget: 10,
            ..TenantConfig::named("small")
        }],
        ..ServeConfig::default()
    });
    let tenant = handle.tenant_token("small").expect("tenant");

    // 16 scenarios > the tenant's lifetime-budget of 10 in flight.
    let err = handle
        .submit(&tenant, JobSpec::demo_rc(16, 1))
        .expect_err("over-budget job must be rejected at submit");
    assert!(matches!(err, ServeError::Quota(_)), "got {err}");

    // A job inside the budget is admitted and completes.
    let token = handle
        .submit(&tenant, JobSpec::demo_rc(8, 1))
        .expect("fits");
    handle.wait(&tenant, &token).expect("runs fine");

    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_gives_backpressure_without_blocking() {
    let handle = ServeHandle::start(ServeConfig {
        workers: 1,
        tenants: vec![TenantConfig {
            max_queued: 2,
            max_concurrent_shards: 1,
            ..TenantConfig::named("t")
        }],
        ..ServeConfig::default()
    });
    let tenant = handle.tenant_token("t").expect("tenant");

    // One running + two queued fills the tenant's queue. Wait for the
    // first job to leave the queue — dispatch is asynchronous — before
    // topping the queue up.
    let mut tokens = vec![handle.submit(&tenant, slow_job(64)).expect("admitted")];
    assert!(wait_until(Duration::from_secs(10), || {
        handle.status(&tenant, &tokens[0]).expect("status").state != ams_serve::JobState::Queued
    }));
    for _ in 0..2 {
        tokens.push(handle.submit(&tenant, slow_job(64)).expect("admitted"));
    }
    // ...so the next submit must fail *immediately* (no blocking).
    let t0 = Instant::now();
    let err = handle
        .submit(&tenant, slow_job(64))
        .expect_err("queue is full");
    assert!(matches!(err, ServeError::Backpressure), "got {err}");
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "backpressure must not block the submitter ({:?})",
        t0.elapsed()
    );

    // Draining the backlog frees the queue again.
    for token in &tokens {
        handle.wait(&tenant, token).expect("backlog completes");
    }
    handle.submit(&tenant, slow_job(4)).expect("queue drained");

    handle.shutdown();
    handle.join();
}

#[test]
fn quota_capped_tenant_keeps_second_job_queued() {
    let handle = ServeHandle::start(ServeConfig {
        workers: 2,
        tenants: vec![TenantConfig {
            max_concurrent_shards: 1,
            ..TenantConfig::named("capped")
        }],
        ..ServeConfig::default()
    });
    let tenant = handle.tenant_token("capped").expect("tenant");

    let first = handle.submit(&tenant, slow_job(128)).expect("first");
    let second = handle
        .submit(&tenant, slow_job(128))
        .expect("second queued");

    // First job starts; second must stay queued even though a worker
    // slot is free (the tenant's shard quota is 1).
    assert!(wait_until(Duration::from_secs(10), || {
        handle.status(&tenant, &first).expect("status").state == ams_serve::JobState::Running
    }));
    let status = handle.status(&tenant, &second).expect("status");
    assert_eq!(
        status.state,
        ams_serve::JobState::Queued,
        "shard quota must hold the second job back"
    );

    // Cancel both; the queued one is withdrawn without ever running.
    handle.cancel(&tenant, &second).expect("cancel queued");
    assert_eq!(
        handle.status(&tenant, &second).expect("status").state,
        ams_serve::JobState::Cancelled
    );
    handle.cancel(&tenant, &first).expect("cancel running");

    handle.shutdown();
    handle.join();
}

#[test]
fn cancel_stops_within_a_scenario_boundary_and_frees_slots() {
    let handle = ServeHandle::start(ServeConfig {
        workers: 1,
        tenants: vec![TenantConfig::named("t")],
        ..ServeConfig::default()
    });
    let tenant = handle.tenant_token("t").expect("tenant");

    // A long job: 512 scenarios on one worker.
    let victim = handle.submit(&tenant, slow_job(512)).expect("victim");
    assert!(wait_until(Duration::from_secs(10), || {
        handle.status(&tenant, &victim).expect("status").state == ams_serve::JobState::Running
    }));
    handle.cancel(&tenant, &victim).expect("cancel running job");

    // Cooperative cancellation lands at the next bundle boundary (at
    // most 4 scenarios on) — well before the full 512-scenario sweep
    // could have finished.
    let err = handle.wait(&tenant, &victim).expect_err("job cancelled");
    assert!(matches!(err, ServeError::Cancelled), "got {err}");
    let status = handle.status(&tenant, &victim).expect("status");
    assert_eq!(status.state, ams_serve::JobState::Cancelled);
    assert!(
        status.completed < status.total,
        "cancel must land before the sweep finishes ({} of {})",
        status.completed,
        status.total
    );

    // The worker slot is free again: a fresh job runs to completion.
    let next = handle.submit(&tenant, slow_job(4)).expect("slot freed");
    handle
        .wait(&tenant, &next)
        .expect("post-cancel job completes");

    handle.shutdown();
    handle.join();
}
