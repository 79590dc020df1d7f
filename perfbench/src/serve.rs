//! `serve_churn`: rounds of eight jobs through the `ams-serve` daemon
//! over one loopback TCP connection.
//!
//! Each round submits seven warm jobs on the cached 192-stage ladder and
//! one job on a ladder size the cache has not seen. The cache budget
//! holds the warm ladder plus one cold ladder, so every cold insert
//! evicts the previous one: the round exercises the protocol, admission,
//! and both the read and the write path of the topology cache. The
//! daemon has one worker slot and every job asks for one worker.

use crate::layers::Layers;
use crate::{rng, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::Instant;
use systemc_ams::lint::lint_circuit;
use systemc_ams::net::Circuit;
use systemc_ams::scope::MetricsRegistry;
use systemc_ams::serve::{
    serve, BindTarget, CircuitSpec, ElementKindSpec, ElementSpec, JobSpec, MetricSpec, ParamBind,
    ProbeKind, ServeConfig, ServeHandle, SweepDecl, TenantConfig, WaveSpec,
};
use systemc_ams::sweep::json::{parse, Json};

const WARM_STAGES: usize = 192;
const WARM_JOBS: usize = 7;
/// Distinct cold ladder sizes, cycled; one is evicted long before it
/// comes round again.
const COLD_SIZES: usize = 12;
/// Cold sizes are drawn from `[COLD_MIN, COLD_MIN + COLD_SPAN)` stages,
/// so two cold ladders always outweigh the largest one and an insert
/// always evicts.
const COLD_MIN: usize = 128;
const COLD_SPAN: usize = 48;
const SCENARIOS: usize = 4;

/// Never set: the daemon stops when its handle drains.
static NEVER: AtomicBool = AtomicBool::new(false);

/// The E12 ladder job: `stages` RC sections, one relative bind, a
/// four-scenario Monte-Carlo sweep over 200 steps.
fn ladder_job(stages: usize, seed: u64) -> JobSpec {
    let mut elements = vec![ElementSpec {
        name: "Vin".into(),
        p: "n0".into(),
        n: "0".into(),
        kind: ElementKindSpec::VoltageSource(WaveSpec::Dc(1.0)),
    }];
    for k in 0..stages {
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
            node: format!("n{stages}"),
            probe: ProbeKind::Last,
        }],
        sweep: SweepDecl::MonteCarlo {
            params: vec![("dr".into(), -0.05, 0.05)],
            n: SCENARIOS,
            seed,
        },
        monitors: None,
        t_end: 2e-6,
        h: 10e-9,
        trapezoidal: true,
        workers: 1,
    }
}

/// A job ready to send: its wire JSON and the fingerprint a direct
/// in-process run produced.
struct Job {
    json: String,
    fingerprint: String,
}

impl Job {
    fn new(spec: &JobSpec) -> Result<Job, String> {
        let direct = spec.direct_run(1).map_err(|e| e.to_string())?;
        Ok(Job {
            json: spec.to_json().render(),
            fingerprint: format!("{:016x}", direct.fingerprint()),
        })
    }
}

/// One newline-JSON connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Sends one request line and reads the response line.
    fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Parses the last response; a `{"ok":false}` reply is an error.
    fn reply(&self) -> Result<Json, String> {
        let v = parse(self.line.trim_end())?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "serve_churn: request refused: {}",
                self.line.trim_end()
            ));
        }
        Ok(v)
    }
}

/// A daemon on a loopback port plus one client connection to it.
struct Service {
    handle: ServeHandle,
    server: JoinHandle<std::io::Result<()>>,
    client: Client,
    tenant: String,
}

impl Service {
    fn start(cache_bytes: usize) -> Result<Service, String> {
        let handle = ServeHandle::start(ServeConfig {
            workers: 1,
            cache_bytes,
            tenants: vec![TenantConfig::named("bench")],
            ..ServeConfig::default()
        });
        let tenant = handle
            .tenant_token("bench")
            .ok_or("serve_churn: tenant not registered")?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = {
            let handle = handle.clone();
            std::thread::spawn(move || serve(&handle, listener, &NEVER))
        };
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Service {
            handle,
            server,
            client: Client {
                reader,
                writer,
                line: String::new(),
            },
            tenant,
        })
    }

    /// Drains the daemon and waits for its threads.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        drop(self.client);
        self.server
            .join()
            .map_err(|_| "serve_churn: daemon thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        self.handle.join();
        Ok(())
    }

    /// Submit, poll once, fetch the result: one job over the wire.
    /// Returns the result's fingerprint.
    fn run_job(&mut self, job: &Job, cold: bool, layers: &mut Layers) -> Result<String, String> {
        let start = Instant::now();
        let c = &mut self.client;
        let request = |op: &str, tenant: &str, body: &str| {
            format!("{{\"op\":\"{op}\",\"tenant\":\"{tenant}\",{body}}}\n")
        };

        let req = request("submit", &self.tenant, &format!("\"job\":{}", job.json));
        wire(layers, "serve.submit", "serve.request.submit", || {
            c.send(&req)
        })?;
        let token = layers.time("serve.client", || {
            c.reply()?
                .get("job_token")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "serve_churn: submit reply has no job token".to_string())
        })?;
        let job_field = format!("\"job\":\"{token}\"");

        let req = request("poll", &self.tenant, &job_field);
        wire(layers, "serve.poll", "serve.request.poll", || c.send(&req))?;
        layers.time("serve.client", || c.reply())?;

        let req = request("result", &self.tenant, &job_field);
        wire(layers, "serve.result", "serve.request.result", || {
            c.send(&req)
        })?;
        let fp = layers.time("serve.client", || {
            c.reply()?
                .get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "serve_churn: result reply has no fingerprint".to_string())
        })?;
        let kind = if cold {
            "serve.job.cold"
        } else {
            "serve.job.warm"
        };
        layers.sample(kind, start.elapsed().as_secs_f64() * 1e3);
        Ok(fp)
    }
}

/// Times one wire request as self time of `layer` and as a sample of
/// `dist`.
fn wire(
    layers: &mut Layers,
    layer: &'static str,
    dist: &'static str,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    let (r, ns) = layers.wall(f);
    layers.add_self(layer, ns);
    layers.sample(dist, ns as f64 / 1e6);
    r
}

/// The counters one round must move, as a delta of the service
/// registry.
const ROUND_DELTAS: [(&str, u64); 5] = [
    ("serve.cache.hits", WARM_JOBS as u64),
    ("serve.cache.misses", 1),
    ("serve.cache.evictions", 1),
    ("serve.lu.symbolic_analyses", 1),
    ("serve.lint.runs", 1),
];

pub struct ServeChurn {
    svc: Service,
    warm: Vec<Job>,
    cold: Vec<(Job, Circuit)>,
    /// Job order and cold-slot stream.
    order: rng::SplitMix,
    round: usize,
    last: MetricsRegistry,
}

/// Which job each slot of a round holds: `None` is the cold job.
pub struct Round {
    fingerprints: Vec<(Option<usize>, String)>,
    cold: usize,
}

impl ServeChurn {
    pub fn setup(seed: u64, reps: usize) -> Result<(ServeChurn, Vec<f64>), String> {
        let mut sizes = rng::SplitMix(rng::derive(seed, 3));
        let mut cold_sizes: Vec<usize> = Vec::with_capacity(COLD_SIZES);
        while cold_sizes.len() < COLD_SIZES {
            let s = COLD_MIN + sizes.below(COLD_SPAN);
            if !cold_sizes.contains(&s) {
                cold_sizes.push(s);
            }
        }
        let warm_specs: Vec<JobSpec> = (0..WARM_JOBS as u64)
            .map(|k| ladder_job(WARM_STAGES, rng::derive(seed, 10 + k)))
            .collect();
        let cold_specs: Vec<JobSpec> = cold_sizes
            .iter()
            .map(|&s| ladder_job(s, rng::derive(seed, 30)))
            .collect();
        let warm = warm_specs
            .iter()
            .map(Job::new)
            .collect::<Result<Vec<_>, _>>()?;
        let mut cold = Vec::with_capacity(COLD_SIZES);
        for spec in &cold_specs {
            let built = spec.circuit.build().map_err(|e| e.to_string())?;
            cold.push((Job::new(spec)?, built.circuit));
        }

        // Budget: exactly what the warm ladder and the largest cold one
        // occupy once both are cached with their factors.
        let largest = cold_sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| **s)
            .map(|(i, _)| i)
            .expect("cold sizes exist");
        let mut probe = Service::start(64 << 20)?;
        probe.run_job(&warm[0], false, &mut Layers::new(false))?;
        probe.run_job(&cold[largest].0, true, &mut Layers::new(false))?;
        let budget = probe
            .handle
            .metrics()
            .gauge("serve.cache.bytes")
            .ok_or("serve_churn: no cache size gauge")? as usize
            + 1024;
        probe.stop()?;

        // Cold set-up: service start plus cache fill (the warm ladder and
        // the first cold ladder, so every later round evicts one entry).
        let mut setup = Vec::with_capacity(reps);
        let mut svc = None;
        for _ in 0..reps {
            if let Some(old) = svc.take() {
                Service::stop(old)?;
            }
            let t = Instant::now();
            let mut s = Service::start(budget)?;
            let off = &mut Layers::new(false);
            let fp_warm = s.run_job(&warm[0], false, off)?;
            let fp_cold = s.run_job(&cold[0].0, true, off)?;
            setup.push(t.elapsed().as_secs_f64());
            if fp_warm != warm[0].fingerprint || fp_cold != cold[0].0.fingerprint {
                return Err("serve_churn: cache-fill jobs differ from direct runs".into());
            }
            svc = Some(s);
        }
        let svc = svc.ok_or("serve_churn: no set-up repetitions")?;
        let last = svc.handle.metrics();
        Ok((
            ServeChurn {
                svc,
                warm,
                cold,
                order: rng::SplitMix(rng::derive(seed, 5)),
                round: 0,
                last,
            },
            setup,
        ))
    }
}

impl Workload for ServeChurn {
    type Out = Round;

    fn op(&mut self, layers: &mut Layers) -> Result<Round, String> {
        self.round += 1;
        let cold = self.round % COLD_SIZES;
        // The cold job never goes first: the warm ladder must be touched
        // after the previous cold entry, so LRU evicts the cold one.
        let cold_slot = 1 + self.order.below(WARM_JOBS);
        let mut warm_order: Vec<usize> = (0..WARM_JOBS).collect();
        for i in (1..WARM_JOBS).rev() {
            warm_order.swap(i, self.order.below(i + 1));
        }
        warm_order.insert(cold_slot, usize::MAX);
        let mut fingerprints = Vec::with_capacity(WARM_JOBS + 1);
        for slot in warm_order {
            if slot == usize::MAX {
                let fp = self.svc.run_job(&self.cold[cold].0, true, layers)?;
                fingerprints.push((None, fp));
            } else {
                let fp = self.svc.run_job(&self.warm[slot], false, layers)?;
                fingerprints.push((Some(slot), fp));
            }
        }
        Ok(Round { fingerprints, cold })
    }

    fn check(&mut self, out: Round, layers: &mut Layers) -> Result<(), String> {
        for (slot, fp) in &out.fingerprints {
            let want = match slot {
                Some(w) => &self.warm[*w].fingerprint,
                None => &self.cold[out.cold].0.fingerprint,
            };
            if fp != want {
                return Err(format!(
                    "serve_churn: job {slot:?} fingerprint {fp}, direct run {want}"
                ));
            }
        }
        let now = self.svc.handle.metrics();
        for (name, want) in ROUND_DELTAS {
            let got = now.counter(name) - self.last.counter(name);
            if got != want {
                return Err(format!(
                    "serve_churn: {name} moved by {got}, expected {want}"
                ));
            }
            layers.count(name, got as f64);
        }
        self.last = now;
        // The daemon's one cold-path lint pass, checked just above.
        layers.count("lint.runs", 1.0);
        if layers.on() {
            // The daemon lints the cold ladder inside its cold path; the
            // same call, timed here beside the op.
            let t = Instant::now();
            lint_circuit("serve_churn", &self.cold[out.cold].1);
            layers.add_side("lint.circuit", t.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}
