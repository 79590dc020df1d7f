//! Scenario enumeration: parameter grids, explicit lists and Monte
//! Carlo samples, each with a deterministic per-scenario seed.
//!
//! Every scenario is self-describing — `(index, seed, parameter
//! values)` — and its seed depends only on the sweep's base seed and
//! the scenario index, never on which worker runs it or in what order.
//! That property is what makes a parallel sweep bit-identical to a
//! serial one.

use crate::SweepError;
use rand::prelude::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// One point of a sweep: an index into the scenario list, a private
/// PRNG seed, and one value per sweep parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    index: usize,
    seed: u64,
    values: Vec<f64>,
    names: Arc<Vec<String>>,
}

impl Scenario {
    /// Position in the scenario list (also the report row).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The scenario's private seed, derived from `(base_seed, index)`
    /// with a SplitMix64 mix — stable across worker counts and
    /// scheduling order.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Parameter values, in the order of [`Scenario::names`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Parameter names shared by every scenario of the sweep.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The value of parameter `name`.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no such parameter.
    pub fn value(&self, name: &str) -> f64 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => self.values[i],
            None => panic!("sweep has no parameter named {name:?}"),
        }
    }

    /// A fresh deterministic PRNG seeded from [`Scenario::seed`] — for
    /// stimulus variants (noise waveforms, jitter) beyond the swept
    /// parameters. Every call returns an identical stream.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// `"#12 r=1e3 c=2.2e-9"` — for report rows and diagnostics.
    pub fn label(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("#{}", self.index);
        for (n, v) in self.names.iter().zip(&self.values) {
            let _ = write!(s, " {n}={v:.4e}");
        }
        s
    }
}

/// SplitMix64 finalizer: decorrelates consecutive indices into
/// statistically independent seeds.
fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An enumerated scenario list: the input of every sweep run.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    names: Arc<Vec<String>>,
    scenarios: Vec<Scenario>,
    base_seed: u64,
}

impl SweepSpec {
    /// Full-factorial grid over `params`: every combination of every
    /// listed value, in lexicographic order (last parameter fastest).
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] for an empty parameter list or a
    /// parameter with no values.
    pub fn grid(params: &[(&str, &[f64])], base_seed: u64) -> Result<SweepSpec, SweepError> {
        if params.is_empty() {
            return Err(SweepError::invalid(
                "grid sweep needs at least one parameter",
            ));
        }
        for (name, values) in params {
            if values.is_empty() {
                return Err(SweepError::invalid(format!(
                    "grid parameter {name:?} has no values"
                )));
            }
        }
        let names: Vec<String> = params.iter().map(|(n, _)| (*n).to_string()).collect();
        let total: usize = params.iter().map(|(_, v)| v.len()).product();
        let rows = (0..total).map(|mut k| {
            let mut row = vec![0.0; params.len()];
            for (j, (_, values)) in params.iter().enumerate().rev() {
                row[j] = values[k % values.len()];
                k /= values.len();
            }
            row
        });
        Ok(SweepSpec::from_rows(names, rows.collect(), base_seed))
    }

    /// Explicit scenario rows: one value per parameter per row.
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] when a row's length does not match the
    /// parameter list, or the list/rows are empty.
    pub fn list(
        names: &[&str],
        rows: Vec<Vec<f64>>,
        base_seed: u64,
    ) -> Result<SweepSpec, SweepError> {
        if names.is_empty() || rows.is_empty() {
            return Err(SweepError::invalid("list sweep needs parameters and rows"));
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != names.len() {
                return Err(SweepError::invalid(format!(
                    "row {i} has {} values for {} parameters",
                    row.len(),
                    names.len()
                )));
            }
        }
        let names: Vec<String> = names.iter().map(|n| (*n).to_string()).collect();
        Ok(SweepSpec::from_rows(names, rows, base_seed))
    }

    /// `n` Monte-Carlo samples, each parameter drawn uniformly from its
    /// `(name, lo, hi)` range by the scenario's private PRNG. Sample
    /// `k` depends only on `(base_seed, k)`, so any subset of scenarios
    /// can be re-run in isolation and reproduce exactly.
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] for `n = 0`, an empty parameter list, or
    /// a range with `lo >= hi` or non-finite bounds.
    pub fn monte_carlo(
        params: &[(&str, f64, f64)],
        n: usize,
        base_seed: u64,
    ) -> Result<SweepSpec, SweepError> {
        if n == 0 || params.is_empty() {
            return Err(SweepError::invalid(
                "monte carlo sweep needs samples and parameters",
            ));
        }
        for (name, lo, hi) in params {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(SweepError::invalid(format!(
                    "monte carlo range for {name:?} must satisfy lo < hi, got [{lo}, {hi})"
                )));
            }
        }
        let names: Vec<String> = params.iter().map(|(n, _, _)| (*n).to_string()).collect();
        let rows = (0..n)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, k as u64));
                params
                    .iter()
                    .map(|(_, lo, hi)| lo + (hi - lo) * rng.gen::<f64>())
                    .collect()
            })
            .collect();
        Ok(SweepSpec::from_rows(names, rows, base_seed))
    }

    fn from_rows(names: Vec<String>, rows: Vec<Vec<f64>>, base_seed: u64) -> SweepSpec {
        let names = Arc::new(names);
        let scenarios = rows
            .into_iter()
            .enumerate()
            .map(|(index, values)| Scenario {
                index,
                seed: mix_seed(base_seed, index as u64),
                values,
                names: names.clone(),
            })
            .collect();
        SweepSpec {
            names,
            scenarios,
            base_seed,
        }
    }

    /// The scenarios, in index order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` for an empty sweep (builders reject this, but a spec can
    /// be filtered).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Parameter names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The base seed the per-scenario seeds are derived from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Keeps only the scenarios for which `keep` is true, preserving
    /// their original indices and seeds (so a filtered re-run is
    /// bit-compatible with the full sweep).
    pub fn retain(&mut self, mut keep: impl FnMut(&Scenario) -> bool) {
        self.scenarios.retain(|s| keep(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_full_cartesian_product() {
        let spec = SweepSpec::grid(&[("r", &[1.0, 2.0]), ("c", &[10.0, 20.0, 30.0])], 7).unwrap();
        assert_eq!(spec.len(), 6);
        let rows: Vec<Vec<f64>> = spec
            .scenarios()
            .iter()
            .map(|s| s.values().to_vec())
            .collect();
        assert_eq!(rows[0], vec![1.0, 10.0]);
        assert_eq!(rows[1], vec![1.0, 20.0]);
        assert_eq!(rows[2], vec![1.0, 30.0]);
        assert_eq!(rows[3], vec![2.0, 10.0]);
        assert_eq!(rows[5], vec![2.0, 30.0]);
        assert_eq!(spec.scenarios()[4].value("c"), 20.0);
    }

    #[test]
    fn monte_carlo_is_deterministic_and_in_range() {
        let params = [("a", -1.0, 1.0), ("b", 10.0, 20.0)];
        let s1 = SweepSpec::monte_carlo(&params, 64, 42).unwrap();
        let s2 = SweepSpec::monte_carlo(&params, 64, 42).unwrap();
        let s3 = SweepSpec::monte_carlo(&params, 64, 43).unwrap();
        assert_eq!(s1.scenarios(), s2.scenarios());
        assert_ne!(s1.scenarios(), s3.scenarios());
        for s in s1.scenarios() {
            assert!((-1.0..1.0).contains(&s.value("a")));
            assert!((10.0..20.0).contains(&s.value("b")));
        }
        // Sample k is independent of the other samples: a shorter run
        // reproduces the same prefix.
        let short = SweepSpec::monte_carlo(&params, 8, 42).unwrap();
        assert_eq!(short.scenarios(), &s1.scenarios()[..8]);
    }

    #[test]
    fn scenario_rng_streams_are_reproducible_and_distinct() {
        let spec = SweepSpec::monte_carlo(&[("x", 0.0, 1.0)], 4, 9).unwrap();
        let a: f64 = spec.scenarios()[0].rng().gen();
        let b: f64 = spec.scenarios()[0].rng().gen();
        let c: f64 = spec.scenarios()[1].rng().gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn list_validates_row_shape() {
        assert!(SweepSpec::list(&["a"], vec![vec![1.0, 2.0]], 0).is_err());
        assert!(SweepSpec::list(&["a"], vec![], 0).is_err());
        let spec = SweepSpec::list(&["a", "b"], vec![vec![1.0, 2.0], vec![3.0, 4.0]], 0).unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.scenarios()[1].label(), "#1 a=3.0000e0 b=4.0000e0");
    }

    #[test]
    fn retain_preserves_indices_and_seeds() {
        let mut spec = SweepSpec::grid(&[("r", &[1.0, 2.0, 3.0])], 5).unwrap();
        let seed2 = spec.scenarios()[2].seed();
        spec.retain(|s| s.value("r") > 2.5);
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.scenarios()[0].index(), 2);
        assert_eq!(spec.scenarios()[0].seed(), seed2);
    }
}
