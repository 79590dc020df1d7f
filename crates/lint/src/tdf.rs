//! Static analyses of timed/static dataflow graphs.
//!
//! The checks mirror what `ams-core` elaboration enforces at runtime —
//! balance equations, delay accounting, writer uniqueness, timestep
//! propagation — plus purely advisory structure checks (dangling
//! signals, isolated components). A [`TdfModel`] is a neutral IR built
//! by the framework from module `setup()` declarations; [`lint_sdf`]
//! runs the graph-level subset directly on an `ams-sdf` graph.

use crate::diag::{codes, Diagnostic, LintReport};
use ams_sdf::{SdfError, SdfGraph};

/// One port use: module `module` reads or writes signal `signal` at
/// `rate` tokens per firing, with `delay` initial samples (reads only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortUse {
    /// Index of the module (from [`TdfModel::add_module`]).
    pub module: usize,
    /// Index of the signal (from [`TdfModel::add_signal`]).
    pub signal: usize,
    /// Tokens per firing.
    pub rate: u64,
    /// Initial samples (delays); only meaningful on reads.
    pub delay: u64,
}

/// Neutral pre-elaboration view of a TDF cluster: modules, signals,
/// port declarations, timesteps and probes — everything the static
/// analyses need, nothing executable.
#[derive(Debug, Clone, Default)]
pub struct TdfModel {
    name: String,
    modules: Vec<String>,
    signals: Vec<String>,
    reads: Vec<PortUse>,
    writes: Vec<PortUse>,
    /// Declared timestep per module, in femtoseconds.
    timesteps: Vec<Option<u64>>,
    probed: Vec<bool>,
}

impl TdfModel {
    /// Creates an empty model with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        TdfModel {
            name: name.into(),
            ..TdfModel::default()
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a module; returns its index.
    pub fn add_module(&mut self, name: impl Into<String>) -> usize {
        self.modules.push(name.into());
        self.timesteps.push(None);
        self.modules.len() - 1
    }

    /// Registers a signal; returns its index.
    pub fn add_signal(&mut self, name: impl Into<String>) -> usize {
        self.signals.push(name.into());
        self.probed.push(false);
        self.signals.len() - 1
    }

    /// Declares that `module` reads `signal` at `rate` with `delay`
    /// initial samples.
    pub fn read(&mut self, module: usize, signal: usize, rate: u64, delay: u64) {
        self.reads.push(PortUse {
            module,
            signal,
            rate,
            delay,
        });
    }

    /// Declares that `module` writes `signal` at `rate`.
    pub fn write(&mut self, module: usize, signal: usize, rate: u64) {
        self.writes.push(PortUse {
            module,
            signal,
            rate,
            delay: 0,
        });
    }

    /// Declares `module`'s timestep in femtoseconds.
    pub fn set_timestep_fs(&mut self, module: usize, fs: u64) {
        self.timesteps[module] = Some(fs);
    }

    /// Marks `signal` as probed (an external observer counts as a
    /// reader for dangling-signal purposes).
    pub fn mark_probed(&mut self, signal: usize) {
        self.probed[signal] = true;
    }

    /// The cluster period implied by the declared timesteps and the
    /// balance solution, in femtoseconds — `None` if the model is not
    /// consistent enough to have one.
    pub fn period_fs(&self) -> Option<u64> {
        let edges = self.edges()?;
        let q = repetitions(self.modules.len(), &edges).ok()?;
        self.timesteps
            .iter()
            .zip(&q)
            .find_map(|(&ts, &reps)| ts.and_then(|t| t.checked_mul(reps)))
    }

    /// Dataflow edges derived from (unique-writer) signals; `None` if a
    /// signal has several writers.
    fn edges(&self) -> Option<Vec<Edge>> {
        let mut writer: Vec<Option<&PortUse>> = vec![None; self.signals.len()];
        for w in &self.writes {
            if writer[w.signal].is_some() {
                return None;
            }
            writer[w.signal] = Some(w);
        }
        let mut edges = Vec::new();
        for r in &self.reads {
            if let Some(w) = writer[r.signal] {
                if w.rate > 0 && r.rate > 0 {
                    edges.push(Edge {
                        src: w.module,
                        produce: w.rate,
                        dst: r.module,
                        consume: r.rate,
                        tokens: r.delay,
                        signal: r.signal,
                    });
                }
            }
        }
        Some(edges)
    }
}

/// A dataflow dependency used by the shared graph analyses.
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: usize,
    produce: u64,
    dst: usize,
    consume: u64,
    tokens: u64,
    /// Signal index ([`lint_tdf`]) or edge index ([`lint_sdf`]) for
    /// naming.
    signal: usize,
}

/// Lints a full TDF model: connectivity, rates, cycles and timesteps.
pub fn lint_tdf(m: &TdfModel) -> LintReport {
    let mut r = LintReport::new(m.name.clone());
    let n_mods = m.modules.len();

    // TDF009: zero rates (checked first; zero-rate ports are excluded
    // from the rate analyses below).
    for u in m.reads.iter().chain(&m.writes) {
        if u.rate == 0 {
            r.push(
                Diagnostic::error(
                    codes::TDF009,
                    format!(
                        "module '{}' declares a zero rate on signal '{}'",
                        m.modules[u.module], m.signals[u.signal]
                    ),
                )
                .with_items([m.modules[u.module].as_str(), m.signals[u.signal].as_str()]),
            );
        }
    }

    // Writer map; TDF004 (multiple writers), TDF003 (no writer),
    // TDF007 (dangling).
    let mut writers: Vec<Vec<&PortUse>> = vec![Vec::new(); m.signals.len()];
    for w in &m.writes {
        writers[w.signal].push(w);
    }
    let mut readers: Vec<Vec<&PortUse>> = vec![Vec::new(); m.signals.len()];
    for u in &m.reads {
        readers[u.signal].push(u);
    }
    for (s, ws) in writers.iter().enumerate() {
        if ws.len() > 1 {
            let mut items = vec![m.signals[s].clone()];
            items.extend(ws.iter().map(|w| m.modules[w.module].clone()));
            r.push(
                Diagnostic::error(
                    codes::TDF004,
                    format!("signal '{}' has {} writers", m.signals[s], ws.len()),
                )
                .with_items(items),
            );
        }
        let observed = !readers[s].is_empty() || m.probed[s];
        if ws.is_empty() && observed {
            let mut items = vec![m.signals[s].clone()];
            items.extend(readers[s].iter().map(|u| m.modules[u.module].clone()));
            r.push(
                Diagnostic::error(
                    codes::TDF003,
                    format!("signal '{}' is read but never written", m.signals[s]),
                )
                .with_items(items),
            );
        }
        if ws.len() == 1 && !observed {
            r.push(
                Diagnostic::warning(
                    codes::TDF007,
                    format!(
                        "signal '{}' is written by '{}' but never read or probed",
                        m.signals[s], m.modules[ws[0].module]
                    ),
                )
                .with_items([m.signals[s].as_str(), m.modules[ws[0].module].as_str()]),
            );
        }
    }

    // Rate-dependent analyses need unambiguous edges.
    let edges = match m.edges() {
        Some(e) => e,
        None => return r, // multiple writers already reported
    };

    let name_edge = |e: &Edge| {
        format!(
            "'{}' \u{2192} '{}' via signal '{}'",
            m.modules[e.src], m.modules[e.dst], m.signals[e.signal]
        )
    };
    let q = check_balance(n_mods, &edges, &mut r, |e| {
        (
            name_edge(e),
            vec![
                m.signals[e.signal].clone(),
                m.modules[e.src].clone(),
                m.modules[e.dst].clone(),
            ],
        )
    });
    check_zero_delay_cycles(n_mods, &edges, &m.modules, &mut r);

    // Timestep checks mirror elaboration phase 3.
    let declared: Vec<usize> = (0..n_mods).filter(|&i| m.timesteps[i].is_some()).collect();
    if declared.is_empty() {
        r.push(Diagnostic::error(
            codes::TDF005,
            "no module declares a timestep; the cluster has no time base",
        ));
    }
    for &i in &declared {
        if m.timesteps[i] == Some(0) {
            r.push(
                Diagnostic::error(
                    codes::TDF013,
                    format!("module '{}' declared a zero timestep", m.modules[i]),
                )
                .with_items([m.modules[i].as_str()]),
            );
        }
    }
    if let Some(q) = &q {
        let mut period: Option<(u64, usize)> = None;
        for &i in &declared {
            let ts = m.timesteps[i].expect("declared");
            if ts == 0 {
                continue;
            }
            let implied = match ts.checked_mul(q[i]) {
                Some(p) => p,
                None => continue,
            };
            match period {
                None => period = Some((implied, i)),
                Some((p, first)) if p != implied => {
                    r.push(
                        Diagnostic::error(
                            codes::TDF006,
                            format!(
                                "module '{}' implies a cluster period of {implied} fs, \
                                 but '{}' established {p} fs",
                                m.modules[i], m.modules[first]
                            ),
                        )
                        .with_items([m.modules[i].as_str(), m.modules[first].as_str()]),
                    );
                }
                Some(_) => {}
            }
        }
        if let Some((p, _)) = period {
            for (i, &reps) in q.iter().enumerate() {
                if reps > 0 && p % reps != 0 {
                    r.push(
                        Diagnostic::error(
                            codes::TDF012,
                            format!(
                                "cluster period {p} fs is not divisible by the {reps} \
                                 firings of module '{}'",
                                m.modules[i]
                            ),
                        )
                        .with_items([m.modules[i].as_str()]),
                    );
                }
            }
        }

        // TDF008: components with no timestep declaration inherit the
        // cluster rate silently — usually a forgotten `set_timestep`.
        if !declared.is_empty() {
            let comp = components(n_mods, &edges);
            let n_comps = comp.iter().copied().max().map_or(0, |c| c + 1);
            let mut has_ts = vec![false; n_comps];
            for &i in &declared {
                has_ts[comp[i]] = true;
            }
            for (c, &ts_declared) in has_ts.iter().enumerate() {
                if !ts_declared {
                    let members: Vec<String> = (0..n_mods)
                        .filter(|&i| comp[i] == c)
                        .map(|i| m.modules[i].clone())
                        .collect();
                    r.push(
                        Diagnostic::warning(
                            codes::TDF008,
                            format!(
                                "module(s) {} are not connected to any \
                                 timestep-declaring module and inherit the cluster rate",
                                members
                                    .iter()
                                    .map(|s| format!("'{s}'"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        )
                        .with_items(members),
                    );
                }
            }
        }
    }
    r
}

/// Lints a bare SDF graph: balance equations and zero-delay cycles.
/// The same codes `ams-sdf` scheduling errors map to at runtime.
pub fn lint_sdf(g: &SdfGraph) -> LintReport {
    let mut r = LintReport::new("sdf");
    let names: Vec<String> = (0..g.actor_count())
        .map(|i| {
            // Actor handles are dense indices in creation order.
            g.edges()
                .flat_map(|(_, e)| [e.src, e.dst])
                .find(|a| a.index() == i)
                .map(|a| g.actor_name(a).to_string())
                .unwrap_or_else(|| format!("actor{i}"))
        })
        .collect();
    let edges: Vec<Edge> = g
        .edges()
        .map(|(id, e)| Edge {
            src: e.src.index(),
            produce: e.produce,
            dst: e.dst.index(),
            consume: e.consume,
            tokens: e.initial_tokens,
            signal: id.index(),
        })
        .collect();
    check_balance(g.actor_count(), &edges, &mut r, |e| {
        (
            format!(
                "'{}' \u{2192} '{}' (edge {})",
                names[e.src], names[e.dst], e.signal
            ),
            vec![names[e.src].clone(), names[e.dst].clone()],
        )
    });
    check_zero_delay_cycles(g.actor_count(), &edges, &names, &mut r);
    r
}

/// Solves the balance equations; emits [`codes::TDF001`] on failure.
/// Returns the per-module repetition vector when consistent.
fn check_balance(
    n: usize,
    edges: &[Edge],
    r: &mut LintReport,
    describe: impl Fn(&Edge) -> (String, Vec<String>),
) -> Option<Vec<u64>> {
    match repetitions(n, edges) {
        Ok(q) => Some(q),
        Err(err) => {
            let SdfError::InconsistentRates { edge } = err else {
                unreachable!("lint edges carry non-zero rates: {err}")
            };
            let e = &edges[edge];
            let (name, items) = describe(e);
            r.push(
                Diagnostic::error(
                    codes::TDF001,
                    format!(
                        "token rates do not balance on {name}: \
                         {} produced per source firing vs {} consumed per sink firing \
                         conflicts with the rates established by the rest of the graph",
                        e.produce, e.consume
                    ),
                )
                .with_items(items),
            );
            None
        }
    }
}

/// The repetition vector of `edges`, from `ams-sdf`'s balance solver
/// (the one the runtime scheduler uses).
fn repetitions(n: usize, edges: &[Edge]) -> Result<Vec<u64>, SdfError> {
    ams_sdf::solve_balance(
        n,
        edges.iter().map(|e| (e.src, e.produce, e.dst, e.consume)),
    )
}

/// Undirected connected components over the edge list; returns a dense
/// component index per module.
fn components(n: usize, edges: &[Edge]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in edges {
        let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
        if a != b {
            parent[a] = b;
        }
    }
    let mut dense = vec![usize::MAX; n];
    let mut next = 0;
    let mut out = vec![0; n];
    for (i, slot) in out.iter_mut().enumerate() {
        let root = find(&mut parent, i);
        if dense[root] == usize::MAX {
            dense[root] = next;
            next += 1;
        }
        *slot = dense[root];
    }
    out
}

/// Finds strongly connected components of the zero-initial-token edge
/// subgraph; any non-trivial SCC (or zero-delay self-loop) deadlocks
/// the static schedule — [`codes::TDF002`].
fn check_zero_delay_cycles(n: usize, edges: &[Edge], names: &[String], r: &mut LintReport) {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for e in edges {
        if e.tokens == 0 {
            if e.src == e.dst {
                self_loop[e.src] = true;
            } else {
                adj[e.src].push(e.dst);
            }
        }
    }
    for scc in tarjan_sccs(n, &adj) {
        let cyclic = scc.len() > 1 || self_loop[scc[0]];
        if cyclic {
            let members: Vec<String> = scc.iter().map(|&i| names[i].clone()).collect();
            r.push(
                Diagnostic::error(
                    codes::TDF002,
                    format!(
                        "delay-free cycle through {}: no initial samples break the \
                         dependency, so no module in the cycle can fire first",
                        members
                            .iter()
                            .map(|s| format!("'{s}'"))
                            .collect::<Vec<_>>()
                            .join(" \u{2192} ")
                    ),
                )
                .with_items(members),
            );
        }
    }
}

/// Iterative Tarjan SCC; returns each component as a list of node
/// indices (reverse topological order).
fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc root is on the stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_mod_model(produce: u64, consume: u64) -> TdfModel {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let b = m.add_module("b");
        let s = m.add_signal("s");
        m.write(a, s, produce);
        m.read(b, s, consume, 0);
        m.set_timestep_fs(a, 1_000);
        m
    }

    #[test]
    fn clean_chain() {
        let m = two_mod_model(1, 1);
        let r = lint_tdf(&m);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn multirate_chain_clean() {
        // 2→3: q = [3, 2]; period = 3·ts must divide evenly.
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let b = m.add_module("b");
        let s = m.add_signal("s");
        m.write(a, s, 2);
        m.read(b, s, 3, 0);
        m.set_timestep_fs(a, 1_000);
        let r = lint_tdf(&m);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(m.period_fs(), Some(3_000));
    }

    #[test]
    fn inconsistent_rates_flag_tdf001() {
        // Cycle with a rate gain: a→b at 1:1, b→a at 2:1.
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let b = m.add_module("b");
        let s1 = m.add_signal("s1");
        let s2 = m.add_signal("s2");
        m.write(a, s1, 1);
        m.read(b, s1, 1, 0);
        m.write(b, s2, 2);
        m.read(a, s2, 1, 1);
        m.set_timestep_fs(a, 1_000);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF001), "{}", r.render());
    }

    #[test]
    fn zero_delay_cycle_flags_tdf002() {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let b = m.add_module("b");
        let s1 = m.add_signal("s1");
        let s2 = m.add_signal("s2");
        m.write(a, s1, 1);
        m.read(b, s1, 1, 0);
        m.write(b, s2, 1);
        m.read(a, s2, 1, 0);
        m.set_timestep_fs(a, 1_000);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF002), "{}", r.render());
        // One initial sample on the feedback edge fixes it.
        let mut m2 = TdfModel::new("t");
        let a = m2.add_module("a");
        let b = m2.add_module("b");
        let s1 = m2.add_signal("s1");
        let s2 = m2.add_signal("s2");
        m2.write(a, s1, 1);
        m2.read(b, s1, 1, 0);
        m2.write(b, s2, 1);
        m2.read(a, s2, 1, 1);
        m2.set_timestep_fs(a, 1_000);
        assert!(!lint_tdf(&m2).has_code(codes::TDF002));
    }

    #[test]
    fn zero_delay_self_loop_flags_tdf002() {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let s = m.add_signal("s");
        m.write(a, s, 1);
        m.read(a, s, 1, 0);
        m.set_timestep_fs(a, 1_000);
        assert!(lint_tdf(&m).has_code(codes::TDF002));
    }

    #[test]
    fn no_writer_flags_tdf003() {
        let mut m = TdfModel::new("t");
        let b = m.add_module("b");
        let s = m.add_signal("s");
        m.read(b, s, 1, 0);
        m.set_timestep_fs(b, 1_000);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF003));
        // Probing an unwritten signal is the same error.
        let mut m2 = TdfModel::new("t");
        let a = m2.add_module("a");
        m2.set_timestep_fs(a, 1_000);
        let s2 = m2.add_signal("ghost");
        m2.mark_probed(s2);
        assert!(lint_tdf(&m2).has_code(codes::TDF003));
    }

    #[test]
    fn multiple_writers_flag_tdf004() {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let b = m.add_module("b");
        let s = m.add_signal("s");
        m.write(a, s, 1);
        m.write(b, s, 1);
        m.set_timestep_fs(a, 1_000);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF004));
        assert!(r.diagnostics[0].items.contains(&"s".to_string()));
    }

    #[test]
    fn no_timestep_flags_tdf005() {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let s = m.add_signal("s");
        m.write(a, s, 1);
        m.mark_probed(s);
        assert!(lint_tdf(&m).has_code(codes::TDF005));
    }

    #[test]
    fn conflicting_timesteps_flag_tdf006() {
        let mut m = two_mod_model(1, 1);
        m.set_timestep_fs(1, 2_000); // conflicts with a's 1000 fs
        assert!(lint_tdf(&m).has_code(codes::TDF006));
    }

    #[test]
    fn dangling_signal_flags_tdf007() {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let s = m.add_signal("s");
        m.write(a, s, 1);
        m.set_timestep_fs(a, 1_000);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF007));
        assert_eq!(r.error_count(), 0);
    }

    #[test]
    fn isolated_component_flags_tdf008() {
        let mut m = two_mod_model(1, 1);
        let c = m.add_module("lonely");
        let s2 = m.add_signal("s2");
        m.write(c, s2, 1);
        m.mark_probed(s2);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF008), "{}", r.render());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.items.contains(&"lonely".to_string())));
    }

    #[test]
    fn zero_rate_flags_tdf009() {
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let s = m.add_signal("s");
        m.write(a, s, 0);
        m.mark_probed(s);
        m.set_timestep_fs(a, 1_000);
        assert!(lint_tdf(&m).has_code(codes::TDF009));
    }

    #[test]
    fn inexact_period_flags_tdf012() {
        // q = [3, 2] with ts(b) = 5 fs → period 10 fs, 10 % 3 ≠ 0.
        let mut m = TdfModel::new("t");
        let a = m.add_module("a");
        let b = m.add_module("b");
        let s = m.add_signal("s");
        m.write(a, s, 2);
        m.read(b, s, 3, 0);
        m.set_timestep_fs(b, 5);
        let r = lint_tdf(&m);
        assert!(r.has_code(codes::TDF012), "{}", r.render());
    }

    #[test]
    fn zero_timestep_flags_tdf013() {
        let mut m = two_mod_model(1, 1);
        m.set_timestep_fs(0, 0);
        assert!(lint_tdf(&m).has_code(codes::TDF013));
    }

    #[test]
    fn lint_sdf_matches_graph_analysis() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a");
        let b = g.add_actor("b");
        g.connect(a, 1, b, 1, 0).unwrap();
        g.connect(b, 2, a, 1, 1).unwrap();
        let r = lint_sdf(&g);
        assert!(r.has_code(codes::TDF001));
        // And a clean graph stays clean.
        let mut g2 = SdfGraph::new();
        let a = g2.add_actor("a");
        let b = g2.add_actor("b");
        g2.connect(a, 2, b, 3, 0).unwrap();
        assert!(lint_sdf(&g2).is_clean());
    }

    #[test]
    fn sccs_found_iteratively() {
        // 0→1→2→0 plus 3→4.
        let adj = vec![vec![1], vec![2], vec![0], vec![4], vec![]];
        let sccs = tarjan_sccs(5, &adj);
        let big = sccs.iter().find(|s| s.len() == 3).expect("cycle found");
        let mut sorted = big.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
