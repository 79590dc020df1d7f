//! Sweep-space abstract interpretation: lint over whole parameter
//! spaces.
//!
//! PR 3's `lint_circuit` proves facts about **one** concrete netlist.
//! A sweep, though, runs the same topology over a *box* of parameter
//! values — grid extents or Monte-Carlo bounds — and a single bad
//! sub-region either burns compute on scenarios that were doomed before
//! any transient ran, or aborts a whole lane bundle at runtime. This
//! module lifts the lint gate from points to boxes: element values are
//! propagated as [`Interval`]s through the MNA companion stamps, and
//! each space-level check returns a [`Verdict`]:
//!
//! * [`Verdict::ProvedSafe`] — the property holds at **every** corner of
//!   the box.
//! * [`Verdict::ProvedViolated`] — a witness sub-box is returned that
//!   provably **contains a concrete failing corner** (for `SPC001` the
//!   whole witness box violates; for `SPC002` its midpoint is a
//!   concrete singular matrix).
//! * [`Verdict::Unknown`] — neither could be proved within the
//!   bisection budget; the unresolved sub-boxes are returned so a
//!   caller can refine further or fall back to runtime checks.
//!
//! The abstract domain is plain closed-interval arithmetic
//! ([`ams_math::Interval`]); refinement is bisection on the widest
//! dimension down to a configurable budget of box evaluations.
//!
//! The nonsingularity proof for `SPC002` is the midpoint-preconditioned
//! enclosure test (Rump-style): with `R = A(mid)⁻¹`, if the row-sum
//! norm `‖I − R·A(box)‖∞ < 1` holds in interval arithmetic then every
//! concrete matrix in the box family is nonsingular (the criterion holds
//! for any `R`). The matrices are the solver's own: this module keeps no
//! MNA layout or stamp of its own, and every matrix comes from
//! [`Circuit::stamp_matrix`], the real walk `ams-net` assembles the DC
//! point and every transient step with — at `f64` for `A(mid)` and the
//! witness check, at [`Interval`] for `A(box)`. So `SPC002` decides
//! every linear kind: resistors, capacitors, inductors, independent and
//! controlled sources, and switches. In `A(box)` a switch takes the hull
//! of its on and off resistances, sound in either state; in `A(mid)` and
//! the witness check it stands in its initial state, as the solver
//! starts. A circuit with a diode or MOSFET stays [`Verdict::Unknown`]:
//! a junction's conductance has no finite bound without a bias box.
//!
//! The test is evaluated sparsely, as the MNA runtime solves: once per
//! [`lint_space`] call, one walk records the CSR pattern and a stamp
//! pointer per write; per box, the walk refills `A(box)` and `A(mid)` in
//! place, [`ams_math::SparseLu`] factors `A(mid)`, and row `i` of
//! `R·A(box)` is one transpose solve `A(mid)ᵀ·r = eᵢ` times the sparse
//! `A(box)`. A box costs O(n·(nnz(LU) + nnz(A))) time and O(nnz)
//! memory; no n×n matrix is built for a box the test proves.
//!
//! The witness rule: a box is refuted only when the concrete check
//! [`classify_point`] applies — the dense LU of the point matrix —
//! rejects the box midpoint, and that check runs only when the sparse
//! factorization of the midpoint fails. A box neither proved nor
//! refuted bisects.
//!
//! The `SPC003` timestep bound sums the R/C part of the network; it is
//! `None` when any kind but R, C, L or an independent source couples
//! the nodes.
//!
//! Codes issued here are `SPC001`–`SPC006` in the stable registry
//! ([`crate::codes::registry`]). Consumers: `NetlistSweep` prunes
//! statically-doomed scenarios via [`classify_point`], and `ams-serve`
//! rejects doomed `JobSpec`s at admission, caching the verdict.

use crate::diag::{codes, Diagnostic, LintReport};
use crate::mna::lint_circuit;
use ams_math::{CsrMat, DMat, DVec, Interval, Lu, Scalar, SparseLu, Triplets};
use ams_net::{Circuit, ElementKind};
use std::collections::VecDeque;
use std::sync::Arc;

/// One named parameter with its range over the whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRange {
    /// Sweep parameter name.
    pub name: String,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl ParamRange {
    /// A named range `[lo, hi]`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> ParamRange {
        ParamRange {
            name: name.into(),
            lo: lo.min(hi),
            hi: lo.max(hi),
        }
    }
}

/// Which element value a space bind rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceTarget {
    /// Resistance in ohms.
    Resistance,
    /// Capacitance in farads.
    Capacitance,
    /// Inductance in henries.
    Inductance,
}

impl SpaceTarget {
    /// Whether an element of `kind` carries this value: the one kind
    /// check behind `lint_space`'s and `classify_point`'s `SPC004`.
    fn fits(self, kind: &ElementKind) -> bool {
        matches!(
            (kind, self),
            (ElementKind::Resistor { .. }, SpaceTarget::Resistance)
                | (ElementKind::Capacitor { .. }, SpaceTarget::Capacitance)
                | (ElementKind::Inductor { .. }, SpaceTarget::Inductance)
        )
    }

    fn noun(self) -> &'static str {
        match self {
            SpaceTarget::Resistance => "resistance",
            SpaceTarget::Capacitance => "capacitance",
            SpaceTarget::Inductance => "inductance",
        }
    }
}

/// A declarative binding of one sweep parameter to one element value —
/// the space-level mirror of the sweep's `apply` closure. `relative`
/// means the element takes `nominal * (1 + p)`; otherwise it takes `p`
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceBind {
    /// Sweep parameter name (must appear in the spec's ranges).
    pub param: String,
    /// Element name in the template circuit.
    pub element: String,
    /// Which value of the element is rewritten.
    pub target: SpaceTarget,
    /// Relative (`nominal * (1 + p)`) vs absolute (`p`) binding.
    pub relative: bool,
    /// Nominal value for relative binds (ignored for absolute ones).
    pub nominal: f64,
}

/// A topology-plus-box specification for the space pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// Parameter ranges spanning the box.
    pub ranges: Vec<ParamRange>,
    /// Parameter-to-element bindings.
    pub binds: Vec<SpaceBind>,
    /// Maximum number of box evaluations per check before giving up
    /// with [`Verdict::Unknown`].
    pub budget: usize,
    /// The timestep the sweep intends to run with, for the `SPC003`
    /// interval-Gershgorin bound. `None` skips the check.
    pub requested_h: Option<f64>,
}

impl SpaceSpec {
    /// A spec with the default bisection budget (64 box evaluations).
    pub fn new(ranges: Vec<ParamRange>, binds: Vec<SpaceBind>) -> SpaceSpec {
        SpaceSpec {
            ranges,
            binds,
            budget: 64,
            requested_h: None,
        }
    }

    /// Sets the bisection budget (box evaluations per check, min 1).
    pub fn budget(mut self, budget: usize) -> SpaceSpec {
        self.budget = budget.max(1);
        self
    }

    /// Declares the timestep the sweep will run with (`SPC003`).
    pub fn requested_h(mut self, h: f64) -> SpaceSpec {
        self.requested_h = Some(h);
        self
    }

    /// The full parameter box spanned by the ranges.
    pub fn param_box(&self) -> ParamBox {
        ParamBox {
            names: Arc::new(self.ranges.iter().map(|r| r.name.clone()).collect()),
            intervals: self
                .ranges
                .iter()
                .map(|r| Interval::new(r.lo, r.hi))
                .collect(),
        }
    }

    /// A stable FNV-1a fingerprint over ranges, binds, budget and
    /// requested timestep — the cache key `ams-serve` pairs with the
    /// topology fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut put = |bytes: &[u8]| {
            h ^= bytes.len() as u64;
            h = h.wrapping_mul(0x100000001b3);
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for r in &self.ranges {
            put(r.name.as_bytes());
            put(&r.lo.to_bits().to_le_bytes());
            put(&r.hi.to_bits().to_le_bytes());
        }
        for b in &self.binds {
            put(b.param.as_bytes());
            put(b.element.as_bytes());
            put(&[b.target as u8, b.relative as u8]);
            put(&b.nominal.to_bits().to_le_bytes());
        }
        put(&(self.budget as u64).to_le_bytes());
        put(&self.requested_h.unwrap_or(-1.0).to_bits().to_le_bytes());
        h
    }
}

/// An axis-aligned box in parameter space.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBox {
    names: Arc<Vec<String>>,
    intervals: Vec<Interval>,
}

impl ParamBox {
    /// Parameter names, in axis order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Per-axis intervals, in the same order as [`ParamBox::names`].
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The interval of a named parameter, if present.
    pub fn interval(&self, name: &str) -> Option<Interval> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.intervals[i])
    }

    /// The box center, one value per axis.
    pub fn midpoint(&self) -> Vec<f64> {
        self.intervals.iter().map(|i| i.midpoint()).collect()
    }

    /// Whether the concrete point (axis order) lies inside the box.
    pub fn contains(&self, values: &[f64]) -> bool {
        values.len() == self.intervals.len()
            && self
                .intervals
                .iter()
                .zip(values)
                .all(|(i, &v)| i.contains(v))
    }

    /// Splits on the widest axis. Returns `None` for a zero-dimensional
    /// or degenerate (all-point) box.
    pub fn bisect_widest(&self) -> Option<(ParamBox, ParamBox)> {
        let (dim, w) = self
            .intervals
            .iter()
            .enumerate()
            .map(|(i, iv)| (i, iv.width()))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if w <= 0.0 || !w.is_finite() {
            return None;
        }
        let (l, r) = self.intervals[dim].bisect();
        let mut left = self.clone();
        let mut right = self.clone();
        left.intervals[dim] = l;
        right.intervals[dim] = r;
        Some((left, right))
    }
}

impl std::fmt::Display for ParamBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (n, iv)) in self.names.iter().zip(&self.intervals).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n} ∈ {iv}")?;
        }
        write!(f, "}}")
    }
}

/// The outcome of one space-level check over the whole box.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The property holds at every corner of the box.
    ProvedSafe,
    /// The property fails somewhere: the witness box contains a
    /// concrete failing corner.
    ProvedViolated(ParamBox),
    /// Undecided within the bisection budget; the listed sub-boxes are
    /// the unresolved remainder.
    Unknown(Vec<ParamBox>),
}

impl Verdict {
    /// Short tag for rendering: `proved-safe`, `proved-violated`,
    /// `unknown`.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::ProvedSafe => "proved-safe",
            Verdict::ProvedViolated(_) => "proved-violated",
            Verdict::Unknown(_) => "unknown",
        }
    }
}

/// One check's code paired with its verdict over the space.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceVerdict {
    /// The stable `SPC###` code.
    pub code: &'static str,
    /// The verdict over the whole box.
    pub verdict: Verdict,
}

/// The space pass result: a normal [`LintReport`] (so the existing
/// policy machinery applies unchanged) plus the per-code verdicts and
/// the interval-Gershgorin safe timestep, when one could be bounded.
#[derive(Debug, Clone)]
pub struct SpaceReport {
    /// Diagnostics in the standard report shape — feed to `LintPolicy`.
    pub report: LintReport,
    /// Per-code space verdicts (one entry per check that ran).
    pub verdicts: Vec<SpaceVerdict>,
    /// Provably safe timestep at the worst corner (2/λ̄ from the
    /// interval-Gershgorin bound), when the topology admits one.
    pub safe_h: Option<f64>,
}

impl SpaceReport {
    /// The verdict for a code, if that check ran.
    pub fn verdict(&self, code: &str) -> Option<&Verdict> {
        self.verdicts
            .iter()
            .find(|v| v.code == code)
            .map(|v| &v.verdict)
    }

    /// Human rendering: the lint report followed by one verdict line
    /// per check and the safe-timestep bound.
    pub fn render(&self) -> String {
        let mut out = self.report.render();
        for v in &self.verdicts {
            out.push_str(&format!("space [{}] {}", v.code, v.verdict.tag()));
            match &v.verdict {
                Verdict::ProvedViolated(b) => out.push_str(&format!(" witness {b}\n")),
                Verdict::Unknown(boxes) => {
                    out.push_str(&format!(" ({} sub-boxes unresolved)\n", boxes.len()))
                }
                Verdict::ProvedSafe => out.push('\n'),
            }
        }
        if let Some(h) = self.safe_h {
            out.push_str(&format!("space safe timestep (worst corner): {h:.3e}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Bind resolution
// ---------------------------------------------------------------------

/// A bind resolved against the template: element index + target, with
/// the value map. Later binds to the same (element, target) override
/// earlier ones, mirroring the order the sweep's `apply` runs them in.
struct ResolvedBind {
    elem: usize,
    target: SpaceTarget,
    param: usize,
    relative: bool,
    nominal: f64,
}

impl ResolvedBind {
    /// The element value at parameter `p`: over an interval of the
    /// parameter, or at a point of it.
    fn value<T: Scalar>(&self, p: T) -> T {
        if self.relative {
            (p + T::ONE) * T::from_f64(self.nominal)
        } else {
            p
        }
    }
}

/// Resolves binds, emitting `SPC004` for unknown elements/parameters or
/// target-kind mismatches. On any `SPC004` the value-dependent checks
/// are skipped (there is nothing meaningful to evaluate).
fn resolve_binds(
    ckt: &Circuit,
    spec: &SpaceSpec,
    r: &mut LintReport,
    verdicts: &mut Vec<SpaceVerdict>,
    full: &ParamBox,
) -> Option<Vec<ResolvedBind>> {
    let mut bad: Vec<String> = Vec::new();
    let mut resolved: Vec<ResolvedBind> = Vec::new();
    for b in &spec.binds {
        let Some(param) = spec.ranges.iter().position(|rg| rg.name == b.param) else {
            bad.push(format!("parameter '{}'", b.param));
            continue;
        };
        let Some(elem) = ckt.elements().iter().position(|e| e.name == b.element) else {
            bad.push(format!("element '{}'", b.element));
            continue;
        };
        if !b.target.fits(&ckt.elements()[elem].kind) {
            bad.push(format!(
                "element '{}' has no {}",
                b.element,
                b.target.noun()
            ));
            continue;
        }
        // Later binds override earlier ones on the same value slot.
        resolved.retain(|rb| !(rb.elem == elem && rb.target == b.target));
        resolved.push(ResolvedBind {
            elem,
            target: b.target,
            param,
            relative: b.relative,
            nominal: b.nominal,
        });
    }
    if bad.is_empty() {
        verdicts.push(SpaceVerdict {
            code: codes::SPC004,
            verdict: Verdict::ProvedSafe,
        });
        Some(resolved)
    } else {
        r.push(
            Diagnostic::error(
                codes::SPC004,
                format!(
                    "space bind(s) reference unknown targets: {}",
                    bad.join(", ")
                ),
            )
            .with_items(bad),
        );
        verdicts.push(SpaceVerdict {
            code: codes::SPC004,
            verdict: Verdict::ProvedViolated(full.clone()),
        });
        None
    }
}

// ---------------------------------------------------------------------
// Bisection refinement
// ---------------------------------------------------------------------

/// Trilean result of evaluating one property over one sub-box.
enum BoxEval {
    /// Holds at every corner of the sub-box.
    Safe,
    /// Fails somewhere in the sub-box (the sub-box is a valid witness).
    Violated,
    /// Undecided — bisect further.
    Undecided,
}

/// Breadth-first bisection on the widest axis, up to `budget` box
/// evaluations. Returns the first violated sub-box as witness, safe if
/// every leaf proved safe, unknown (with the unresolved frontier)
/// otherwise.
fn refine(root: ParamBox, budget: usize, mut eval: impl FnMut(&ParamBox) -> BoxEval) -> Verdict {
    let mut queue: VecDeque<ParamBox> = VecDeque::new();
    queue.push_back(root);
    let mut unresolved: Vec<ParamBox> = Vec::new();
    let mut evals = 0usize;
    while let Some(b) = queue.pop_front() {
        if evals >= budget {
            unresolved.push(b);
            unresolved.extend(queue);
            return Verdict::Unknown(unresolved);
        }
        evals += 1;
        match eval(&b) {
            BoxEval::Safe => {}
            BoxEval::Violated => return Verdict::ProvedViolated(b),
            BoxEval::Undecided => match b.bisect_widest() {
                Some((l, r)) => {
                    queue.push_back(l);
                    queue.push_back(r);
                }
                None => unresolved.push(b),
            },
        }
    }
    if unresolved.is_empty() {
        Verdict::ProvedSafe
    } else {
        Verdict::Unknown(unresolved)
    }
}

// ---------------------------------------------------------------------
// Interval MNA assembly
// ---------------------------------------------------------------------

/// Element values over per-axis parameter values: `values[elem]` is
/// `Some` for a bound element and `None` for an unbound one, which keeps
/// its template value. Intervals give the values over a box, `f64`s the
/// values at a point.
fn element_values<T: Scalar>(
    ckt: &Circuit,
    binds: &[ResolvedBind],
    params: &[T],
) -> Vec<Option<T>> {
    let mut v = vec![None; ckt.element_count()];
    for rb in binds {
        v[rb.elem] = Some(rb.value(params[rb.param]));
    }
    v
}

/// Whether the circuit has a diode or MOSFET. Their conductance has no
/// finite bound without a bias box, so `SPC002` leaves such circuits
/// undecided and `classify_point` passes them.
fn nonlinear(ckt: &Circuit) -> bool {
    ckt.elements().iter().any(|e| e.is_nonlinear())
}

/// The concrete singularity check: whether the dense LU rejects the
/// matrix the solver assembles with element values `values`. It is
/// `classify_point`'s `SPC002` test, and an `SPC002` witness box is one
/// whose midpoint it rejects.
fn singular_at(ckt: &Circuit, values: &[Option<f64>], h: Option<f64>) -> bool {
    let mut writes = Vec::with_capacity(4 * ckt.element_count());
    let n = ckt.stamp_matrix(values, h, |i, j, v| writes.push((i, j, v)));
    let mut a: DMat<f64> = DMat::zeros(n, n);
    for (i, j, v) in writes {
        a[(i, j)] += v;
    }
    Lu::factor(&a).is_err()
}

/// The interval MNA matrix of one topology at one step, recorded once
/// per [`lint_space`] call: the CSR pattern of every stamped position and
/// a stamp pointer per write of [`Circuit::stamp_matrix`], as `ams-net`'s
/// `MnaSystem` replays its stamps. Each box refills `A(box)` and
/// `A(mid)` in place through the same call, so both are the matrices the
/// solver assembles: `A(mid)` bit for bit, `A(box)` over the box.
struct IntervalMna<'a> {
    ckt: &'a Circuit,
    h: Option<f64>,
    /// Number of unknowns.
    n: usize,
    /// The pattern, holding the midpoint matrix `A(mid)`.
    mid: CsrMat<f64>,
    /// `A(box)`, slot for slot with `mid`'s values.
    boxed: Vec<Interval>,
    /// `slots[k]`: the slot the walk's `k`-th write adds into.
    slots: Vec<usize>,
}

impl<'a> IntervalMna<'a> {
    fn new(ckt: &'a Circuit, h: Option<f64>) -> IntervalMna<'a> {
        let mut coords = Vec::new();
        let n = ckt.stamp_matrix::<f64>(&[], h, |i, j, _| coords.push((i, j)));
        let mut t = Triplets::new(n, n);
        for &(i, j) in &coords {
            t.push(i, j, 0.0);
        }
        let mid = t.build();
        let slots = coords
            .iter()
            .map(|&(i, j)| mid.position(i, j).expect("recorded coordinate in pattern"))
            .collect();
        IntervalMna {
            ckt,
            h,
            n,
            boxed: vec![Interval::ZERO; mid.nnz()],
            mid,
            slots,
        }
    }

    /// Fills `A(box)` and `A(mid)` for box `b` and returns the element
    /// values at its midpoint. In `A(box)` a switch takes the hull of
    /// its two resistances, sound in either state; in `A(mid)` it
    /// stands in its initial state, as in the witness check.
    fn fill(&mut self, binds: &[ResolvedBind], b: &ParamBox) -> Vec<Option<f64>> {
        let (ckt, h, slots) = (self.ckt, self.h, &self.slots);
        let mut box_values = element_values(ckt, binds, &b.intervals);
        for (v, e) in box_values.iter_mut().zip(ckt.elements()) {
            if let ElementKind::Switch { r_on, r_off, .. } = e.kind {
                *v = Some(Interval::new(r_on, r_off));
            }
        }
        let boxed = &mut self.boxed;
        boxed.fill(Interval::ZERO);
        let mut k = 0;
        ckt.stamp_matrix(&box_values, h, |_, _, v| {
            boxed[slots[k]] += v;
            k += 1;
        });
        let mid_values = element_values(ckt, binds, &b.midpoint());
        let mid = self.mid.values_mut();
        mid.fill(0.0);
        let mut k = 0;
        ckt.stamp_matrix(&mid_values, h, |_, _, v| {
            mid[slots[k]] += v;
            k += 1;
        });
        mid_values
    }

    /// `‖I − R·A(box)‖∞` with `R = A(mid)⁻¹`, in interval arithmetic,
    /// one row of `R` at a time: row `i` of `R` is the transpose solve
    /// `A(mid)ᵀ·r = eᵢ`, and row `i` of `R·A(box)` sums `r_k·A(box)[k, j]`
    /// over the stored entries of each row `k`, `k` ascending, as the
    /// dense product does. O(n·(nnz(LU) + nnz(A))) time and O(n) scratch.
    /// Infinite when a row sum is not finite.
    fn row_sum_norm(&self, lu: &SparseLu<f64>) -> f64 {
        let n = self.n;
        let mut e = DVec::zeros(n);
        let mut scratch = DVec::zeros(n);
        let mut r = DVec::zeros(n);
        let mut row = vec![Interval::ZERO; n];
        let mut worst: f64 = 0.0;
        for i in 0..n {
            e[i] = 1.0;
            if lu.solve_transpose_into(&e, &mut scratch, &mut r).is_err() {
                return f64::INFINITY;
            }
            e[i] = 0.0;
            for (k, &rik) in r.iter().enumerate() {
                if rik != 0.0 {
                    let (cols, _) = self.mid.row(k);
                    for (&j, &akj) in cols.iter().zip(&self.boxed[self.mid.row_range(k)]) {
                        row[j] += akj * rik;
                    }
                }
            }
            let mut row_sum = 0.0f64;
            for (j, cij) in row.iter_mut().enumerate() {
                let eij = if i == j { *cij + (-1.0) } else { *cij };
                row_sum += eij.abs().hi;
                *cij = Interval::ZERO;
            }
            if !row_sum.is_finite() {
                return f64::INFINITY;
            }
            worst = worst.max(row_sum);
        }
        worst
    }

    /// Evaluates SPC002 over one box. The box is safe when `A(mid)`
    /// factors sparsely and the midpoint-preconditioned row-sum norm is
    /// below 1, which certifies every matrix in the box regular for any
    /// `R`. When the sparse factorization fails, the box is a witness
    /// only if the concrete check [`singular_at`] rejects its midpoint
    /// too; anything else is undecided and bisects.
    fn classify(&mut self, binds: &[ResolvedBind], b: &ParamBox) -> BoxEval {
        let mid_values = self.fill(binds, b);
        match SparseLu::factor(&self.mid) {
            Ok(lu) if self.row_sum_norm(&lu) < 1.0 => BoxEval::Safe,
            Ok(_) => BoxEval::Undecided,
            Err(_) if singular_at(self.ckt, &mid_values, self.h) => BoxEval::Violated,
            Err(_) => BoxEval::Undecided,
        }
    }
}

// ---------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------

/// Runs the space pass over a template circuit and a parameter box.
///
/// `context` names the report, exactly like [`lint_circuit`]. The
/// returned [`SpaceReport`] carries standard diagnostics (enforce with
/// the usual `LintPolicy`) plus per-code [`Verdict`]s and the safe
/// timestep bound.
pub fn lint_space(context: impl Into<String>, ckt: &Circuit, spec: &SpaceSpec) -> SpaceReport {
    let mut r = LintReport::new(context);
    let mut verdicts: Vec<SpaceVerdict> = Vec::new();
    let full = spec.param_box();

    // SPC005: structural defects are value-independent — binds rewrite
    // values, never topology — so the concrete verdict on the template
    // lifts to every corner of the space.
    let structural = lint_circuit("space-template", ckt);
    let structural_errors: Vec<String> = structural
        .diagnostics
        .iter()
        .filter(|d| d.severity == crate::diag::Severity::Error)
        .map(|d| d.code.to_string())
        .collect();
    if structural_errors.is_empty() {
        verdicts.push(SpaceVerdict {
            code: codes::SPC005,
            verdict: Verdict::ProvedSafe,
        });
    } else {
        r.push(
            Diagnostic::error(
                codes::SPC005,
                format!(
                    "template netlist is structurally defective at every corner \
                     of the space (value binds cannot repair topology): {}",
                    structural_errors.join(", ")
                ),
            )
            .with_items(structural_errors.clone()),
        );
        verdicts.push(SpaceVerdict {
            code: codes::SPC005,
            verdict: Verdict::ProvedViolated(full.clone()),
        });
    }

    // SPC004 + bind resolution; value-dependent checks need it.
    let Some(binds) = resolve_binds(ckt, spec, &mut r, &mut verdicts, &full) else {
        return SpaceReport {
            report: r,
            verdicts,
            safe_h: None,
        };
    };

    // SPC001: element value ranges vs their physical domain (> 0).
    let mut domain_bad: Vec<String> = Vec::new();
    let mut spc001 = Verdict::ProvedSafe;
    for rb in &binds {
        let name = &ckt.elements()[rb.elem].name;
        let v = refine(full.clone(), spec.budget, |b| {
            let iv = rb.value(b.intervals[rb.param]);
            if iv.hi <= 0.0 {
                BoxEval::Violated
            } else if iv.lo > 0.0 {
                BoxEval::Safe
            } else {
                BoxEval::Undecided
            }
        });
        match v {
            Verdict::ProvedSafe => {}
            Verdict::ProvedViolated(w) => {
                domain_bad.push(name.clone());
                if !matches!(spc001, Verdict::ProvedViolated(_)) {
                    spc001 = Verdict::ProvedViolated(w);
                }
            }
            Verdict::Unknown(boxes) => {
                if matches!(spc001, Verdict::ProvedSafe) {
                    spc001 = Verdict::Unknown(boxes);
                }
            }
        }
    }
    if let Verdict::ProvedViolated(w) = &spc001 {
        r.push(
            Diagnostic::error(
                codes::SPC001,
                format!(
                    "element value(s) of {} leave their physical domain (≤ 0) for \
                     some corner; witness box {w}",
                    domain_bad
                        .iter()
                        .map(|n| format!("'{n}'"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_items(domain_bad.clone()),
        );
        r.push(Diagnostic::warning(
            codes::SPC006,
            "lane bundles over this space may abort mid-bundle: some corners \
             have invalid element values (prune or narrow the ranges)"
                .to_string(),
        ));
        verdicts.push(SpaceVerdict {
            code: codes::SPC006,
            verdict: Verdict::ProvedViolated(w.clone()),
        });
    } else {
        verdicts.push(SpaceVerdict {
            code: codes::SPC006,
            verdict: Verdict::ProvedSafe,
        });
    }
    verdicts.push(SpaceVerdict {
        code: codes::SPC001,
        verdict: spc001.clone(),
    });

    // SPC002: numerical nonsingularity across the box. Only meaningful
    // when the structure is sound and values stay in-domain (a zero
    // crossing already makes some corner singular — but that corner is
    // SPC001's finding, not a new one).
    let decidable =
        matches!(spc001, Verdict::ProvedSafe) && structural_errors.is_empty() && !nonlinear(ckt);
    let spc002 = if decidable {
        let mut mna = IntervalMna::new(ckt, spec.requested_h);
        refine(full.clone(), spec.budget, |b| mna.classify(&binds, b))
    } else {
        // Out-of-domain values, structural defects or junctions:
        // undecided over the whole box rather than a false proof
        // either way.
        Verdict::Unknown(vec![full.clone()])
    };
    if let Verdict::ProvedViolated(w) = &spc002 {
        r.push(Diagnostic::error(
            codes::SPC002,
            format!("the MNA matrix is numerically singular at some corner; witness box {w}"),
        ));
    }
    verdicts.push(SpaceVerdict {
        code: codes::SPC002,
        verdict: spc002,
    });

    // SPC003: interval-Gershgorin timestep bound at the worst corner.
    // For the RC part of the network, every eigenvalue of C⁻¹G lies in
    // a Gershgorin disc of the row-scaled matrix; the worst-corner
    // magnitude is bounded by max_i (Σ_j |G_ij|.hi) / c_ii.lo over
    // capacitive nodes. 2/λ̄ is the trapezoidal stability / accuracy
    // guard band.
    let safe_h = gershgorin_safe_h(ckt, &binds, &full);
    if let (Some(h_req), Some(h_safe)) = (spec.requested_h, safe_h) {
        if h_req > h_safe {
            r.push(Diagnostic::warning(
                codes::SPC003,
                format!(
                    "requested timestep {h_req:.3e} exceeds the interval-Gershgorin \
                     safe bound {h_safe:.3e} at the worst corner"
                ),
            ));
            verdicts.push(SpaceVerdict {
                code: codes::SPC003,
                verdict: Verdict::ProvedViolated(full.clone()),
            });
        } else {
            verdicts.push(SpaceVerdict {
                code: codes::SPC003,
                verdict: Verdict::ProvedSafe,
            });
        }
    }

    SpaceReport {
        report: r,
        verdicts,
        safe_h,
    }
}

/// `2 / λ̄` where `λ̄` bounds the fastest RC eigenvalue over the whole
/// box. `None` when no node carries capacitance (nothing to bound), any
/// needed interval is unusable, or an element outside the R/C/L and
/// independent-source family couples the nodes (the bound sums the R/C
/// part only).
fn gershgorin_safe_h(ckt: &Circuit, binds: &[ResolvedBind], b: &ParamBox) -> Option<f64> {
    let values = element_values(ckt, binds, &b.intervals);
    let n_nodes = ckt.node_count();
    // Per-node capacitance (lo) and conductance row magnitude (hi).
    let mut cap_lo = vec![0.0f64; n_nodes];
    let mut g_hi = vec![0.0f64; n_nodes];
    for (e, iv) in ckt.elements().iter().zip(&values) {
        match e.kind {
            ElementKind::Capacitor { farads, .. } => {
                let c = iv.unwrap_or(Interval::point(farads));
                if c.lo <= 0.0 {
                    return None;
                }
                cap_lo[e.p.index()] += c.lo;
                cap_lo[e.n.index()] += c.lo;
            }
            ElementKind::Resistor { ohms } => {
                let g = iv.unwrap_or(Interval::point(ohms)).recip();
                if !g.hi.is_finite() || g.lo <= 0.0 {
                    return None;
                }
                // Diagonal + off-diagonal magnitude: 2·g.hi per node.
                g_hi[e.p.index()] += 2.0 * g.hi;
                g_hi[e.n.index()] += 2.0 * g.hi;
            }
            ElementKind::Inductor { .. }
            | ElementKind::VoltageSource { .. }
            | ElementKind::CurrentSource { .. } => {}
            _ => return None,
        }
    }
    let ground = Circuit::GROUND.index();
    let mut lambda: f64 = 0.0;
    for i in 0..n_nodes {
        if i == ground || g_hi[i] == 0.0 {
            continue;
        }
        if cap_lo[i] > 0.0 {
            lambda = lambda.max(g_hi[i] / cap_lo[i]);
        }
    }
    (lambda > 0.0).then(|| 2.0 / lambda)
}

// ---------------------------------------------------------------------
// Concrete-point classification (sweep pruning)
// ---------------------------------------------------------------------

/// Classifies one concrete scenario point: `Some(code)` when the corner
/// is statically doomed (`SPC001` out-of-domain element value, `SPC002`
/// singular matrix), `None` when it passes. `names`/`values` are the
/// scenario's parameter row; parameters the binds do not use are
/// ignored, and a bind whose parameter is missing from the row, or
/// whose element is unknown or of the wrong kind, is classified
/// `SPC004`, as [`lint_space`] reports it.
pub fn classify_point(
    ckt: &Circuit,
    spec: &SpaceSpec,
    names: &[String],
    values: &[f64],
) -> Option<&'static str> {
    let value_of =
        |name: &str| -> Option<f64> { names.iter().position(|n| n == name).map(|i| values[i]) };
    // Later binds override earlier ones on the same element.
    let mut elem_values: Vec<Option<f64>> = vec![None; ckt.element_count()];
    for b in &spec.binds {
        let p = match value_of(&b.param) {
            Some(p) => p,
            None => return Some(codes::SPC004),
        };
        let Some(elem) = ckt.elements().iter().position(|e| e.name == b.element) else {
            return Some(codes::SPC004);
        };
        if !b.target.fits(&ckt.elements()[elem].kind) {
            return Some(codes::SPC004);
        }
        elem_values[elem] = Some(if b.relative { b.nominal * (1.0 + p) } else { p });
    }
    if elem_values.iter().flatten().any(|&v| v <= 0.0) {
        return Some(codes::SPC001);
    }
    // Singularity at the concrete point, in the matrix the solver
    // factors.
    (!nonlinear(ckt) && singular_at(ckt, &elem_values, spec.requested_h)).then_some(codes::SPC002)
}

// ---------------------------------------------------------------------
// Range-string parsing (example CLI support)
// ---------------------------------------------------------------------

/// Parses `"dr=-0.1:0.1,dc=-0.2:0.2"` into ranges, for the examples'
/// `--lint-space` flag.
pub fn parse_ranges(s: &str) -> Result<Vec<ParamRange>, String> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (name, rest) = part
            .split_once('=')
            .ok_or_else(|| format!("range '{part}' is not NAME=LO:HI"))?;
        let (lo, hi) = rest
            .split_once(':')
            .ok_or_else(|| format!("range '{part}' is not NAME=LO:HI"))?;
        let lo: f64 = lo
            .parse()
            .map_err(|_| format!("bad lower bound in '{part}'"))?;
        let hi: f64 = hi
            .parse()
            .map_err(|_| format!("bad upper bound in '{part}'"))?;
        out.push(ParamRange::new(name.trim(), lo, hi));
    }
    if out.is_empty() {
        return Err("no ranges given (expected NAME=LO:HI[,NAME=LO:HI…])".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense evaluation the sparse one replaced, kept as an oracle:
    /// `R = A(mid)⁻¹` from a dense LU against identity columns, then the
    /// row-sum norm of `I − R·A(box)` over n×n interval rows. Infinite
    /// when `A(mid)` does not factor or a row sum is not finite.
    fn dense_row_sum_norm(mna: &IntervalMna<'_>) -> f64 {
        let n = mna.n;
        let mut a = vec![vec![Interval::point(0.0); n]; n];
        for (i, ai) in a.iter_mut().enumerate() {
            let (cols, _) = mna.mid.row(i);
            for (&j, &v) in cols.iter().zip(&mna.boxed[mna.mid.row_range(i)]) {
                ai[j] = v;
            }
        }
        let Ok(lu) = Lu::factor(&mna.mid.to_dense()) else {
            return f64::INFINITY;
        };
        let r = lu.solve_mat(&DMat::identity(n)).expect("factored");
        let mut worst: f64 = 0.0;
        for i in 0..n {
            let mut row_sum = 0.0f64;
            for j in 0..n {
                let mut cij = Interval::point(0.0);
                for (k, ak) in a.iter().enumerate() {
                    let rik = r[(i, k)];
                    if rik != 0.0 {
                        cij += ak[j] * rik;
                    }
                }
                let eij = if i == j { cij + (-1.0) } else { cij };
                row_sum += eij.abs().hi;
            }
            if !row_sum.is_finite() {
                return f64::INFINITY;
            }
            worst = worst.max(row_sum);
        }
        worst
    }

    /// The sparse evaluation's norm over one box, infinite when the
    /// sparse factorization of `A(mid)` fails.
    fn sparse_row_sum_norm(mna: &IntervalMna<'_>) -> f64 {
        SparseLu::factor(&mna.mid).map_or(f64::INFINITY, |lu| mna.row_sum_norm(&lu))
    }

    /// The template's concrete R/C/L value for an element.
    fn template_value(kind: &ElementKind) -> Option<f64> {
        match kind {
            ElementKind::Resistor { ohms } => Some(*ohms),
            ElementKind::Capacitor { farads, .. } => Some(*farads),
            ElementKind::Inductor { henries, .. } => Some(*henries),
            _ => None,
        }
    }

    /// A random linear netlist of at most 12 unknowns: `nodes` nodes,
    /// each tied by a resistor to ground or to an earlier node (so every
    /// node has a resistive path to ground), plus `extra` elements of
    /// every modelled kind. A voltage source or inductor that would
    /// close a loop of sources and inductors (singular at DC) is left
    /// out. Values: R 10 Ω–10 kΩ, C 0.1–10 nF, L 10 nH–1 µH.
    fn random_netlist(
        nodes: usize,
        tree: &[(usize, f64)],
        extra: &[(usize, usize, usize, f64)],
    ) -> Circuit {
        let mut ckt = Circuit::new();
        let ids: Vec<_> = std::iter::once(Circuit::GROUND)
            .chain((1..=nodes).map(|k| ckt.node(format!("n{k}"))))
            .collect();
        for k in 1..=nodes {
            let (to, u) = tree[k - 1];
            ckt.resistor(
                format!("T{k}"),
                ids[k],
                ids[to % k],
                10f64.powf(2.0 + 2.0 * u),
            )
            .unwrap();
        }
        let mut group: Vec<usize> = (0..=nodes).collect();
        fn root(group: &mut [usize], mut x: usize) -> usize {
            while group[x] != x {
                x = group[x];
            }
            x
        }
        for (idx, &(kind, p, q, u)) in extra.iter().enumerate() {
            let p = p % (nodes + 1);
            let mut q = q % (nodes + 1);
            if p == q {
                q = (p + 1) % (nodes + 1);
            }
            let name = format!("X{idx}");
            match kind {
                0 => drop(ckt.resistor(name, ids[p], ids[q], 10f64.powf(2.0 + 2.0 * u))),
                1 => drop(ckt.capacitor(name, ids[p], ids[q], 10f64.powf(-9.0 + u))),
                2 => drop(ckt.current_source(name, ids[p], ids[q], 1e-3)),
                _ => {
                    let (rp, rq) = (root(&mut group, p), root(&mut group, q));
                    if rp == rq {
                        continue;
                    }
                    group[rp] = rq;
                    if kind == 3 {
                        drop(ckt.voltage_source(name, ids[p], ids[q], 1.0));
                    } else {
                        drop(ckt.inductor(name, ids[p], ids[q], 10f64.powf(-7.0 + u)));
                    }
                }
            }
        }
        ckt
    }

    proptest! {
        /// The sparse evaluation agrees with the dense oracle on random
        /// linear netlists and boxes. The two compute `R` by different
        /// eliminations, so their norms differ by rounding residue of
        /// order κ(A)·ε. The norms are compared against 1e-9 relative to
        /// the larger norm or to 1 (the threshold), whichever is larger:
        /// a point box has a norm that is only that residue. The
        /// verdicts must agree wherever the norm is not within 1e-9 of 1.
        #[test]
        fn sparse_norm_agrees_with_the_dense_oracle(
            nodes in 1usize..6,
            tree in proptest::collection::vec((0usize..6, -1.0f64..1.0), 5),
            extra in proptest::collection::vec((0usize..5, 0usize..6, 0usize..6, -1.0f64..1.0), 0..8),
            binds in proptest::collection::vec((0usize..64, 0.0f64..0.6, 0.0f64..0.6), 1..4),
            log_h in -9.0f64..-7.0,
        ) {
            let ckt = random_netlist(nodes, &tree, &extra);
            let bindable: Vec<usize> = ckt
                .elements()
                .iter()
                .enumerate()
                .filter(|(_, e)| template_value(&e.kind).is_some())
                .map(|(i, _)| i)
                .collect();
            let mut ranges = Vec::new();
            let mut resolved = Vec::new();
            for (k, &(pick, lo, hi)) in binds.iter().enumerate() {
                let elem = bindable[pick % bindable.len()];
                let kind = &ckt.elements()[elem].kind;
                resolved.push(ResolvedBind {
                    elem,
                    target: match kind {
                        ElementKind::Resistor { .. } => SpaceTarget::Resistance,
                        ElementKind::Capacitor { .. } => SpaceTarget::Capacitance,
                        _ => SpaceTarget::Inductance,
                    },
                    param: k,
                    relative: true,
                    nominal: template_value(kind).unwrap(),
                });
                ranges.push(ParamRange::new(format!("p{k}"), -lo, hi));
            }
            let full = SpaceSpec::new(ranges, Vec::new()).param_box();
            for h in [None, Some(10f64.powf(log_h))] {
                let mut mna = IntervalMna::new(&ckt, h);
                prop_assert!(mna.n <= 12);
                mna.fill(&resolved, &full);
                let sparse = sparse_row_sum_norm(&mna);
                let dense = dense_row_sum_norm(&mna);
                prop_assert!(sparse.is_finite() && dense.is_finite(), "{sparse} vs {dense}");
                prop_assert!(
                    (sparse - dense).abs() <= 1e-9 * sparse.max(dense).max(1.0),
                    "h = {h:?}: sparse {sparse:e}, dense {dense:e}"
                );
                if (dense - 1.0).abs() > 1e-9 {
                    prop_assert_eq!(sparse < 1.0, dense < 1.0);
                }
            }
        }
    }

    /// V source + R ladder + C to ground: the canonical sweep template.
    fn rc_ladder(stages: usize) -> Circuit {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("n0");
        ckt.voltage_source("Vin", prev, Circuit::GROUND, 1.0)
            .unwrap();
        for k in 0..stages {
            let next = ckt.node(format!("n{}", k + 1));
            ckt.resistor(format!("R{k}"), prev, next, 1e3).unwrap();
            ckt.capacitor(format!("C{k}"), next, Circuit::GROUND, 1e-9)
                .unwrap();
            prev = next;
        }
        ckt
    }

    fn spec_rel(dr: (f64, f64), dc: (f64, f64), stages: usize) -> SpaceSpec {
        let mut binds = Vec::new();
        for k in 0..stages {
            binds.push(SpaceBind {
                param: "dr".into(),
                element: format!("R{k}"),
                target: SpaceTarget::Resistance,
                relative: true,
                nominal: 1e3,
            });
            binds.push(SpaceBind {
                param: "dc".into(),
                element: format!("C{k}"),
                target: SpaceTarget::Capacitance,
                relative: true,
                nominal: 1e-9,
            });
        }
        SpaceSpec::new(
            vec![
                ParamRange::new("dr", dr.0, dr.1),
                ParamRange::new("dc", dc.0, dc.1),
            ],
            binds,
        )
        .requested_h(50e-9)
    }

    #[test]
    fn healthy_box_proves_safe() {
        let ckt = rc_ladder(3);
        let rep = lint_space("t", &ckt, &spec_rel((-0.1, 0.1), (-0.1, 0.1), 3));
        assert!(rep.report.is_clean(), "{}", rep.render());
        assert_eq!(rep.verdict(codes::SPC001), Some(&Verdict::ProvedSafe));
        assert_eq!(rep.verdict(codes::SPC005), Some(&Verdict::ProvedSafe));
        assert_eq!(
            rep.verdict(codes::SPC002),
            Some(&Verdict::ProvedSafe),
            "{}",
            rep.render()
        );
        let h = rep.safe_h.expect("RC ladder admits a Gershgorin bound");
        assert!(h > 0.0 && h.is_finite());
    }

    #[test]
    fn domain_crossing_is_proved_violated_with_witness() {
        let ckt = rc_ladder(2);
        // dr reaches -1.2: R = nom·(1+dr) crosses zero inside the box.
        let rep = lint_space("t", &ckt, &spec_rel((-1.2, 0.1), (-0.05, 0.05), 2));
        assert!(rep.report.has_code(codes::SPC001), "{}", rep.render());
        let Some(Verdict::ProvedViolated(w)) = rep.verdict(codes::SPC001) else {
            panic!("expected a witness: {}", rep.render());
        };
        // Every point of the witness box must violate: R(dr) ≤ 0.
        let dr = w.interval("dr").unwrap();
        assert!(
            1e3 * (1.0 + dr.hi) <= 0.0,
            "witness box {w} contains passing corners"
        );
        // The lane-safety warning rides along.
        assert!(rep.report.has_code(codes::SPC006));
    }

    #[test]
    fn unknown_bind_targets_are_spc004() {
        let ckt = rc_ladder(1);
        let mut spec = spec_rel((-0.1, 0.1), (-0.1, 0.1), 1);
        spec.binds.push(SpaceBind {
            param: "dq".into(),
            element: "R9".into(),
            target: SpaceTarget::Resistance,
            relative: true,
            nominal: 1.0,
        });
        let rep = lint_space("t", &ckt, &spec);
        assert!(rep.report.has_code(codes::SPC004), "{}", rep.render());
        assert!(matches!(
            rep.verdict(codes::SPC004),
            Some(Verdict::ProvedViolated(_))
        ));
    }

    #[test]
    fn structural_defects_lift_to_spc005() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.current_source("I1", a, Circuit::GROUND, 1e-3).unwrap();
        let spec = SpaceSpec::new(vec![ParamRange::new("p", 0.0, 1.0)], vec![]);
        let rep = lint_space("t", &ckt, &spec);
        assert!(rep.report.has_code(codes::SPC005), "{}", rep.render());
        assert!(matches!(
            rep.verdict(codes::SPC005),
            Some(Verdict::ProvedViolated(_))
        ));
    }

    #[test]
    fn point_classification_matches_the_space_verdicts() {
        let ckt = rc_ladder(2);
        let spec = spec_rel((-1.2, 0.1), (-0.05, 0.05), 2);
        let names: Vec<String> = vec!["dr".into(), "dc".into()];
        assert_eq!(
            classify_point(&ckt, &spec, &names, &[-1.1, 0.0]),
            Some(codes::SPC001),
            "R = 1e3·(1-1.1) < 0 is out of domain"
        );
        assert_eq!(classify_point(&ckt, &spec, &names, &[0.05, 0.0]), None);
        // Missing bind parameter in the row.
        assert_eq!(
            classify_point(&ckt, &spec, &["dr".to_string()], &[0.0]),
            Some(codes::SPC004)
        );
    }

    #[test]
    fn point_classification_refuses_a_bind_on_the_wrong_kind() {
        let ckt = rc_ladder(2);
        // Farads bound to a resistor: lint_space reports SPC004, and so
        // must the point classifier, rather than stamp 1 nΩ.
        let spec = SpaceSpec::new(
            vec![ParamRange::new("dc", -0.1, 0.1)],
            vec![SpaceBind {
                param: "dc".into(),
                element: "R0".into(),
                target: SpaceTarget::Capacitance,
                relative: true,
                nominal: 1e-9,
            }],
        );
        assert!(lint_space("t", &ckt, &spec).report.has_code(codes::SPC004));
        let names = vec!["dc".to_string()];
        assert_eq!(
            classify_point(&ckt, &spec, &names, &[0.0]),
            Some(codes::SPC004)
        );
    }

    #[test]
    fn requested_timestep_beyond_the_bound_warns_spc003() {
        let ckt = rc_ladder(2);
        let mut spec = spec_rel((-0.1, 0.1), (-0.1, 0.1), 2);
        let base = lint_space("t", &ckt, &spec);
        let safe = base.safe_h.unwrap();
        spec.requested_h = Some(safe * 10.0);
        let rep = lint_space("t", &ckt, &spec);
        assert!(rep.report.has_code(codes::SPC003), "{}", rep.render());
        assert_eq!(rep.report.error_count(), 0, "SPC003 is a warning");
    }

    #[test]
    fn budget_exhaustion_reports_unknown_not_a_false_proof() {
        let ckt = rc_ladder(2);
        // A box that needs refinement (crosses zero) with budget 1.
        let spec = spec_rel((-1.2, 0.1), (-0.05, 0.05), 2).budget(1);
        let rep = lint_space("t", &ckt, &spec);
        match rep.verdict(codes::SPC001) {
            Some(Verdict::Unknown(boxes)) => assert!(!boxes.is_empty()),
            Some(Verdict::ProvedViolated(_)) => {} // budget 1 may still hit a witness first
            other => panic!("budget-starved verdict must not prove safety: {other:?}"),
        }
    }

    /// V source + per stage a series R and L, then C to ground: three
    /// unknowns per stage (two nodes and the inductor's branch current).
    fn rlc_ladder(stages: usize) -> Circuit {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("n0");
        ckt.voltage_source("Vin", prev, Circuit::GROUND, 1.0)
            .unwrap();
        for k in 0..stages {
            let mid = ckt.node(format!("m{k}"));
            let next = ckt.node(format!("n{}", k + 1));
            ckt.resistor(format!("R{k}"), prev, mid, 1e3).unwrap();
            ckt.inductor(format!("L{k}"), mid, next, 1e-6).unwrap();
            ckt.capacitor(format!("C{k}"), next, Circuit::GROUND, 1e-9)
                .unwrap();
            prev = next;
        }
        ckt
    }

    /// One relative ±5 % bind on `R0`, as the service's ladder jobs
    /// declare their space.
    fn spec_r0(h: Option<f64>) -> SpaceSpec {
        let spec = SpaceSpec::new(
            vec![ParamRange::new("dr", -0.05, 0.05)],
            vec![SpaceBind {
                param: "dr".into(),
                element: "R0".into(),
                target: SpaceTarget::Resistance,
                relative: true,
                nominal: 1e3,
            }],
        );
        match h {
            Some(h) => spec.requested_h(h),
            None => spec,
        }
    }

    #[test]
    fn long_rc_ladder_proves_nonsingular_at_dc_and_at_a_step() {
        let ckt = rc_ladder(200);
        for h in [None, Some(10e-9)] {
            let rep = lint_space("t", &ckt, &spec_r0(h));
            assert_eq!(
                rep.verdict(codes::SPC002),
                Some(&Verdict::ProvedSafe),
                "h = {h:?}: {}",
                rep.render()
            );
        }
    }

    #[test]
    fn series_inductor_ladder_proves_nonsingular_at_dc_and_at_a_step() {
        let ckt = rlc_ladder(50);
        for h in [None, Some(10e-9)] {
            let rep = lint_space("t", &ckt, &spec_r0(h));
            assert_eq!(
                rep.verdict(codes::SPC002),
                Some(&Verdict::ProvedSafe),
                "h = {h:?}: {}",
                rep.render()
            );
        }
    }

    /// A source driving 1 kΩ ∥ 1 nF through `R1`, with `R1` bound
    /// absolutely to `[lo, hi]` ohms.
    fn near_short(lo: f64, hi: f64) -> (Circuit, SpaceSpec) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 1.0).unwrap();
        ckt.resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        let spec = SpaceSpec::new(
            vec![ParamRange::new("r1", lo, hi)],
            vec![SpaceBind {
                param: "r1".into(),
                element: "R1".into(),
                target: SpaceTarget::Resistance,
                relative: false,
                nominal: 0.0,
            }],
        )
        .requested_h(10e-9);
        (ckt, spec)
    }

    #[test]
    fn a_numerically_singular_box_is_refuted_with_a_concrete_witness() {
        let (ckt, spec) = near_short(1e-16, 2e-16);
        let rep = lint_space("t", &ckt, &spec);
        let Some(Verdict::ProvedViolated(w)) = rep.verdict(codes::SPC002) else {
            panic!("expected an SPC002 witness: {}", rep.render());
        };
        assert!(rep.report.has_code(codes::SPC002), "{}", rep.render());
        assert_eq!(
            classify_point(&ckt, &spec, w.names(), &w.midpoint()),
            Some(codes::SPC002),
            "the witness midpoint must be a concrete singular point"
        );
    }

    #[test]
    fn an_ill_conditioned_but_regular_box_stays_unknown() {
        let (ckt, spec) = near_short(1e-12, 2e-12);
        let rep = lint_space("t", &ckt, &spec);
        assert!(
            matches!(rep.verdict(codes::SPC002), Some(Verdict::Unknown(_))),
            "{}",
            rep.render()
        );
    }

    /// A VCVS whose output is its own control input, loaded by
    /// 1 kΩ ∥ 1 nF, both bound relatively by ±5 %. Its branch row reads
    /// `(1 − gain)·V(out) = 0`, so the matrix is singular at gain 1 and
    /// regular at any other gain.
    fn vcvs_buffer(gain: f64, h: Option<f64>) -> (Circuit, SpaceSpec) {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.vcvs("E1", out, Circuit::GROUND, out, Circuit::GROUND, gain)
            .unwrap();
        ckt.resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let mut spec = spec_rel((-0.05, 0.05), (-0.05, 0.05), 0);
        for (param, element, target, nominal) in [
            ("dr", "R1", SpaceTarget::Resistance, 1e3),
            ("dc", "C1", SpaceTarget::Capacitance, 1e-9),
        ] {
            spec.binds.push(SpaceBind {
                param: param.into(),
                element: element.into(),
                target,
                relative: true,
                nominal,
            });
        }
        spec.requested_h = h;
        (ckt, spec)
    }

    #[test]
    fn a_regular_vcvs_buffer_proves_safe_at_dc_and_at_a_step() {
        let names = ["dr".to_string(), "dc".to_string()];
        for h in [None, Some(1e-6)] {
            let (ckt, spec) = vcvs_buffer(2.0, h);
            let rep = lint_space("t", &ckt, &spec);
            assert_eq!(
                rep.verdict(codes::SPC002),
                Some(&Verdict::ProvedSafe),
                "h = {h:?}: {}",
                rep.render()
            );
            assert!(rep.report.is_clean(), "h = {h:?}: {}", rep.render());
            assert_eq!(classify_point(&ckt, &spec, &names, &[0.05, -0.05]), None);
        }
    }

    #[test]
    fn a_singular_vcvs_buffer_is_refuted_at_dc_and_at_a_step() {
        let names = ["dr".to_string(), "dc".to_string()];
        for h in [None, Some(1e-6)] {
            let (ckt, spec) = vcvs_buffer(1.0, h);
            let rep = lint_space("t", &ckt, &spec);
            let Some(Verdict::ProvedViolated(w)) = rep.verdict(codes::SPC002) else {
                panic!("h = {h:?}: expected an SPC002 witness: {}", rep.render());
            };
            assert!(rep.report.has_code(codes::SPC002), "{}", rep.render());
            assert_eq!(
                classify_point(&ckt, &spec, w.names(), &w.midpoint()),
                Some(codes::SPC002)
            );
            assert_eq!(
                classify_point(&ckt, &spec, &names, &[0.05, -0.05]),
                Some(codes::SPC002)
            );
        }
        assert!(vcvs_buffer(1.0, None).0.dc_operating_point().is_err());
    }

    /// `vcvs_buffer` at gain 2 with a switch from `out` to ground.
    fn switched_buffer(r_on: f64, r_off: f64, initially_on: bool) -> (Circuit, SpaceSpec) {
        let (mut ckt, spec) = vcvs_buffer(2.0, None);
        let out = ckt.find_node("out").unwrap();
        ckt.switch("S1", out, Circuit::GROUND, r_on, r_off, initially_on)
            .unwrap();
        (ckt, spec)
    }

    #[test]
    fn a_switch_is_proved_in_both_states_or_left_unknown() {
        // 0.9 to 1.1 kΩ: the hull of both states stays well conditioned.
        for on in [false, true] {
            let (ckt, spec) = switched_buffer(900.0, 1.1e3, on);
            let rep = lint_space("t", &ckt, &spec);
            assert_eq!(
                rep.verdict(codes::SPC002),
                Some(&Verdict::ProvedSafe),
                "{}",
                rep.render()
            );
        }
        // 1 Ω to 1 MΩ: no box bisection narrows the switch, so the hull
        // stays too wide to prove, and nothing is refuted either.
        let (ckt, spec) = switched_buffer(1.0, 1e6, false);
        let rep = lint_space("t", &ckt, &spec);
        assert!(
            matches!(rep.verdict(codes::SPC002), Some(Verdict::Unknown(_))),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn junction_circuits_stay_undecided() {
        let (mut ckt, spec) = vcvs_buffer(1.0, None);
        let out = ckt.find_node("out").unwrap();
        ckt.diode("D1", out, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let rep = lint_space("t", &ckt, &spec);
        assert!(
            matches!(rep.verdict(codes::SPC002), Some(Verdict::Unknown(_))),
            "{}",
            rep.render()
        );
        let names = ["dr".to_string(), "dc".to_string()];
        assert_eq!(classify_point(&ckt, &spec, &names, &[0.0, 0.0]), None);
    }

    #[test]
    fn fingerprint_is_value_sensitive() {
        let a = spec_rel((-0.1, 0.1), (-0.1, 0.1), 2);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.ranges[0].hi = 0.2;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn range_parser_round_trips_and_rejects_garbage() {
        let r = parse_ranges("dr=-0.1:0.1,dc=-0.2:0.2").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], ParamRange::new("dr", -0.1, 0.1));
        assert!(parse_ranges("").is_err());
        assert!(parse_ranges("dr=0.1").is_err());
        assert!(parse_ranges("dr=a:b").is_err());
    }
}
