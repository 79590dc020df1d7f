//! Stable monitor violation codes.
//!
//! Every property kind fails with exactly one code, plus the shared
//! `MON009` for non-finite samples, which any monitor raises the moment
//! its channel produces NaN or ±inf. Codes are contract: they appear in
//! sweep reports, serve replies and traces, and the table in
//! `DESIGN.md` §6j is pinned to this registry by the `registry_sync`
//! integration test (the same discipline as the `ams-lint` codes).

/// Settling violation: the signal left (or never entered) the target
/// band after the settling deadline.
pub const MON001: &str = "MON001";
/// Overshoot bound exceeded.
pub const MON002: &str = "MON002";
/// Undershoot bound exceeded.
pub const MON003: &str = "MON003";
/// Monotone-ramp violation: the signal dipped below its running peak by
/// more than the tolerance inside the ramp window.
pub const MON004: &str = "MON004";
/// Envelope violation: the signal left the min/max envelope inside the
/// observation window.
pub const MON005: &str = "MON005";
/// Rise-time violation: the signal failed to reach the high threshold
/// within the allowed time after crossing the low threshold.
pub const MON006: &str = "MON006";
/// Steady-state ripple violation: the post-window peak-to-peak
/// excursion exceeded the bound.
pub const MON007: &str = "MON007";
/// Frequency-mask violation: a Goertzel bin's amplitude exceeded its
/// mask ceiling.
pub const MON008: &str = "MON008";
/// Non-finite sample: the monitored channel produced NaN or ±inf.
pub const MON009: &str = "MON009";

/// The complete code registry: `(code, verdict, meaning)`. The verdict
/// column is always `fail` — unlike lint codes, a tripped monitor is
/// never merely advisory. Ordered by code; `DESIGN.md` §6j must list
/// exactly these rows (pinned by `tests/registry_sync.rs`).
pub fn registry() -> &'static [(&'static str, &'static str, &'static str)] {
    &[
        (
            MON001,
            "fail",
            "signal outside settling band after deadline",
        ),
        (MON002, "fail", "overshoot above bound"),
        (MON003, "fail", "undershoot below bound"),
        (MON004, "fail", "non-monotone ramp beyond tolerance"),
        (MON005, "fail", "signal left min/max envelope in window"),
        (MON006, "fail", "rise time above limit"),
        (MON007, "fail", "steady-state ripple above bound"),
        (MON008, "fail", "frequency-mask bin amplitude above ceiling"),
        (MON009, "fail", "non-finite sample (NaN or infinity)"),
    ]
}

/// The numeric suffix of `code` (`"MON004"` → 4), which verdict
/// fingerprints and trace instants carry. `None` for strings outside
/// the registry.
pub fn code_number(code: &str) -> Option<u16> {
    registry()
        .iter()
        .find(|(c, _, _)| *c == code)
        .and_then(|_| code[3..].parse().ok())
}

/// The registry code with numeric suffix `n` (`4` → `"MON004"`).
pub fn code_for_number(n: u16) -> Option<&'static str> {
    registry()
        .iter()
        .map(|(c, _, _)| *c)
        .find(|c| c[3..].parse() == Ok(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_ordered_and_well_formed() {
        let reg = registry();
        for w in reg.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
        for (code, verdict, meaning) in reg {
            assert_eq!(code.len(), 6);
            assert!(code.starts_with("MON"));
            assert!(code[3..].chars().all(|c| c.is_ascii_digit()));
            assert_eq!(*verdict, "fail");
            assert!(!meaning.is_empty());
        }
    }

    #[test]
    fn numbers_round_trip() {
        for (code, _, _) in registry() {
            let n = code_number(code).unwrap();
            assert_eq!(code_for_number(n), Some(*code));
        }
        assert_eq!(code_number("MON999"), None);
        assert_eq!(code_for_number(999), None);
    }
}
