//! Cross-crate invariant auditing: levels, env plumbing, and the typed
//! violation record every structure's `audit` method emits.
//!
//! The incremental structures of this workspace (filter tables, bank
//! membership, DCS counters) each maintain censuses and bitmaps that must
//! stay consistent with a from-scratch recomputation. Historically each
//! crate had a panicking `check_consistency` for tests; the audit layer
//! unifies them behind one dial:
//!
//! * [`AuditLevel::Off`] — no checking (production default);
//! * [`AuditLevel::Cheap`] — O(state) census and subset checks, no oracle
//!   recomputation: pad-lane pinning, `exists ⊆ label_ok`, `d2 ⊆ d1`,
//!   `d2 ⊆ label_ok`, bitmap-vs-census agreement, page popcounts,
//!   stats conservation laws;
//! * [`AuditLevel::Deep`] — everything Cheap checks **plus** the
//!   from-scratch oracles: filter value slab vs a fresh `recompute_into`
//!   per entry, bank membership vs a from-scratch `passes_all` over every
//!   alive edge, DCS `d1`/`d2` vs a fixpoint recomputation, DCS support
//!   counters vs a per-slot neighbour recount, the DCS multiplicity slab
//!   vs a recount of the alive window through the bank membership, and
//!   the expiry ledger vs a recount of the alive embeddings.
//!
//! The level is selected by `TCSM_AUDIT` (`off` | `cheap` | `deep`, read
//! once per process; unknown or empty values fall back to `Off`), and the
//! cadence by `TCSM_AUDIT_EVERY` (audit every Nth stream event, default
//! 64). Engines and the multi-query service read both at construction and
//! run the audit from their step paths; a non-empty violation list is a
//! bug in the incremental maintenance and panics with every violation
//! listed.
//!
//! # Violation catalogue
//!
//! Violations carry a stable kebab-case [`AuditViolation::name`] (asserted
//! by the corruption-seeding negative tests) plus a free-form detail:
//!
//! | name | invariant |
//! |------|-----------|
//! | `filter-pad-lane` | every padded row's trailing lane is pinned to `+∞` |
//! | `filter-exists-outside-label` | `W[u,v] ⊆ label_ok[u,v]` |
//! | `filter-nondefault-census` | `nondefault_count == popcount(nondefault)` |
//! | `filter-existence` | stored existence bit vs fresh recompute |
//! | `filter-value` | stored value row vs fresh recompute |
//! | `filter-nondefault-bit` | non-default bit vs fresh default classification |
//! | `bank-page-census` | per-page set-bit census vs page popcount |
//! | `bank-empty-page` | allocated membership page with zero census |
//! | `bank-pair-census` | `num_pairs == Σ page censuses` |
//! | `bank-member-missing` | pair passes all instances but bit is clear |
//! | `bank-member-stale` | pair fails an instance but bit is set |
//! | `dcs-d2-census` | `d2_count == popcount(d2)` |
//! | `dcs-d2-outside-d1` | `d2 ⊆ d1` |
//! | `dcs-d2-outside-label` | `d2 ⊆ label_ok` (the matcher's assumption) |
//! | `dcs-live-census` | `live_nodes == #{(u,v) : nonzero_slots > 0}` |
//! | `dcs-slot-census` | `nonzero_slots[u,v]` vs counter-row popcount |
//! | `dcs-mult-census` | `mult_groups`/`mult_total` vs multiplicity slab |
//! | `dcs-d1` | `d1` bit vs fixpoint recomputation |
//! | `dcs-d2` | `d2` bit vs fixpoint recomputation |
//! | `dcs-counter` | support counter vs per-slot neighbour recount |
//! | `dcs-mult` | multiplicity slab vs alive-window × membership recount |
//! | `dcs-adjacency-index` | adjacency rows and group records vs multiplicity slab and membership |
//! | `expiry-ledger` | per-edge charges vs a recount of the alive embeddings by minimum edge |
//! | `stats-conservation` | counter laws, incl. `Σ ledger charges = base + occurred − expired` (see `tcsm-core`) |

use std::sync::OnceLock;

/// How much invariant checking the audit layer performs (see module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditLevel {
    /// No checking.
    #[default]
    Off,
    /// Censuses, subset and pinning checks only (no oracle recompute).
    Cheap,
    /// Cheap checks plus every from-scratch oracle comparison.
    Deep,
}

impl AuditLevel {
    /// Parses an `TCSM_AUDIT`-style value. Unknown or empty strings fall
    /// back to `Off`, mirroring `TCSM_KERNEL`'s forgiving parse.
    pub fn parse(s: &str) -> AuditLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "cheap" => AuditLevel::Cheap,
            "deep" => AuditLevel::Deep,
            _ => AuditLevel::Off,
        }
    }

    /// Process-wide level from `TCSM_AUDIT`, read once.
    pub fn from_env() -> AuditLevel {
        static LEVEL: OnceLock<AuditLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            std::env::var("TCSM_AUDIT")
                .map(|v| AuditLevel::parse(&v))
                .unwrap_or(AuditLevel::Off)
        })
    }

    /// Does this level run any checks at all?
    #[inline]
    pub fn enabled(self) -> bool {
        self != AuditLevel::Off
    }

    /// Does this level run the from-scratch oracles?
    #[inline]
    pub fn deep(self) -> bool {
        self == AuditLevel::Deep
    }
}

/// Audit cadence from `TCSM_AUDIT_EVERY` (every Nth stream event; default
/// 64, clamped to ≥ 1), read once per process.
pub fn audit_every_from_env() -> u64 {
    static EVERY: OnceLock<u64> = OnceLock::new();
    *EVERY.get_or_init(|| {
        std::env::var("TCSM_AUDIT_EVERY")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(64)
            .max(1)
    })
}

/// One detected invariant violation: a stable kebab-case name (the typed
/// identity the negative-test corpus asserts on) plus a human-readable
/// detail naming the exact cell/counter and the stored-vs-recomputed pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    name: &'static str,
    detail: String,
}

impl AuditViolation {
    /// Creates a violation. `name` must be one of the catalogue names in
    /// the module docs (stable across releases; tests match on it).
    pub fn new(name: &'static str, detail: impl Into<String>) -> AuditViolation {
        AuditViolation {
            name,
            detail: detail.into(),
        }
    }

    /// The stable kebab-case violation id.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The free-form detail (cell coordinates, stored vs recomputed, …).
    #[inline]
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.name, self.detail)
    }
}

/// Panics listing every violation if `violations` is non-empty — the shared
/// tripwire epilogue for `check_consistency` wrappers and step-path audits.
pub fn expect_clean(context: &str, violations: &[AuditViolation]) {
    if violations.is_empty() {
        return;
    }
    let mut msg = format!(
        "{context}: audit found {} invariant violation(s):\n",
        violations.len()
    );
    for v in violations {
        msg.push_str("  ");
        msg.push_str(&v.to_string());
        msg.push('\n');
    }
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_levels() {
        assert_eq!(AuditLevel::parse("off"), AuditLevel::Off);
        assert_eq!(AuditLevel::parse("cheap"), AuditLevel::Cheap);
        assert_eq!(AuditLevel::parse(" Deep "), AuditLevel::Deep);
        assert_eq!(AuditLevel::parse(""), AuditLevel::Off);
        assert_eq!(AuditLevel::parse("bogus"), AuditLevel::Off);
        assert!(AuditLevel::Deep.deep() && AuditLevel::Deep.enabled());
        assert!(!AuditLevel::Cheap.deep() && AuditLevel::Cheap.enabled());
        assert!(!AuditLevel::Off.enabled());
        assert!(AuditLevel::Off < AuditLevel::Cheap && AuditLevel::Cheap < AuditLevel::Deep);
    }

    #[test]
    fn violation_display_and_name() {
        let v = AuditViolation::new("dcs-counter", "stored 3 recomputed 2 at (u1, v4, slot 0)");
        assert_eq!(v.name(), "dcs-counter");
        assert_eq!(
            v.to_string(),
            "[dcs-counter] stored 3 recomputed 2 at (u1, v4, slot 0)"
        );
    }

    #[test]
    fn expect_clean_passes_on_empty() {
        expect_clean("test", &[]);
    }

    #[test]
    #[should_panic(expected = "dcs-counter")]
    fn expect_clean_panics_with_names() {
        expect_clean("test", &[AuditViolation::new("dcs-counter", "boom")]);
    }
}
