//! Candidate pair sets with blocking provenance.
//!
//! The Pre Graph Cleanup step (paper Section 4.2.1) needs to know *which
//! blocking produced* a positively predicted edge — it removes Token-Overlap
//! edges inside oversized components. So candidate pairs carry a provenance
//! bitmask; a pair found by several blockings keeps all its flags.

use gralmatch_records::{RecordId, RecordPair};
use gralmatch_util::{FromJson, FxHashMap, Json, JsonError, ToJson};

/// Which blocking(s) proposed a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockingKind {
    /// Identifier-code overlap (Section 5.3.1, blocking 1).
    IdOverlap,
    /// Token overlap top-n (blocking 2).
    TokenOverlap,
    /// Issuer match, securities only (blocking 3).
    IssuerMatch,
    /// Sorted-neighborhood baseline (not used by the paper's pipelines).
    SortedNeighborhood,
}

impl BlockingKind {
    /// Bit flag of the kind.
    pub fn flag(&self) -> u8 {
        match self {
            BlockingKind::IdOverlap => 1,
            BlockingKind::TokenOverlap => 2,
            BlockingKind::IssuerMatch => 4,
            BlockingKind::SortedNeighborhood => 8,
        }
    }
}

/// A deduplicated set of candidate pairs with provenance flags.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    pairs: FxHashMap<RecordPair, u8>,
}

impl CandidateSet {
    /// Empty set.
    pub fn new() -> Self {
        CandidateSet::default()
    }

    /// Pre-size for `additional` more pairs (bulk loads: state decode,
    /// set unions).
    pub fn reserve(&mut self, additional: usize) {
        self.pairs.reserve(additional);
    }

    /// Add a pair from a blocking; merges provenance on duplicates.
    pub fn add(&mut self, pair: RecordPair, kind: BlockingKind) {
        *self.pairs.entry(pair).or_insert(0) |= kind.flag();
    }

    /// Bulk-add pairs from one blocking.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = RecordPair>, kind: BlockingKind) {
        for pair in pairs {
            self.add(pair, kind);
        }
    }

    /// Add a pair with a raw provenance bitmask (ORed on duplicates) —
    /// used when re-tagging pairs whose flags were already folded.
    pub fn add_flags(&mut self, pair: RecordPair, flags: u8) {
        if flags != 0 {
            *self.pairs.entry(pair).or_insert(0) |= flags;
        }
    }

    /// Overwrite a pair's provenance bitmask, returning the one it had (0
    /// if absent). A zero bitmask removes the pair — the in-place edit for
    /// callers that recompute a pair's flags from their sources.
    pub fn set_flags(&mut self, pair: RecordPair, flags: u8) -> u8 {
        if flags == 0 {
            self.pairs.remove(&pair).unwrap_or(0)
        } else {
            self.pairs.insert(pair, flags).unwrap_or(0)
        }
    }

    /// Union another set into this one, merging provenance on shared pairs.
    /// Blockers running concurrently each fill a private set; the blocking
    /// stage folds them with this.
    pub fn merge(&mut self, other: &CandidateSet) {
        for (&pair, &flags) in &other.pairs {
            *self.pairs.entry(pair).or_insert(0) |= flags;
        }
    }

    /// Number of distinct candidate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Provenance flags of a pair (0 if absent).
    pub fn provenance(&self, pair: RecordPair) -> u8 {
        self.pairs.get(&pair).copied().unwrap_or(0)
    }

    /// Whether the pair is in the set (proposed by any blocking).
    pub fn contains(&self, pair: RecordPair) -> bool {
        self.pairs.contains_key(&pair)
    }

    /// Keep only the pairs for which `keep(pair, flags)` holds (e.g. drop
    /// pairs touching a retired record when maintaining a set in place).
    pub fn retain(&mut self, mut keep: impl FnMut(RecordPair, u8) -> bool) {
        self.pairs.retain(|&pair, flags| keep(pair, *flags));
    }

    /// Whether a pair was proposed by the given blocking.
    pub fn from_blocking(&self, pair: RecordPair, kind: BlockingKind) -> bool {
        self.provenance(pair) & kind.flag() != 0
    }

    /// Whether a pair was proposed *only* by the given blocking.
    pub fn only_from(&self, pair: RecordPair, kind: BlockingKind) -> bool {
        self.provenance(pair) == kind.flag()
    }

    /// All pairs, sorted for deterministic iteration.
    pub fn pairs_sorted(&self) -> Vec<RecordPair> {
        let mut out: Vec<RecordPair> = self.pairs.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Iterate `(pair, provenance)`.
    pub fn iter(&self) -> impl Iterator<Item = (RecordPair, u8)> + '_ {
        self.pairs.iter().map(|(&p, &f)| (p, f))
    }
}

/// The Section 4.2.1 pre-cleanup removability rule over a provenance
/// bitmask: the pair is Token-Overlap-sourced and **not** protected by an
/// identifier blocking (ID overlap or issuer match). One definition shared
/// by the cleanup stage, the sharded merge, and the incremental engine —
/// the rule is load-bearing for one-shot ≡ incremental exactness, so it
/// must not drift between execution paths.
pub fn text_only_provenance(flags: u8) -> bool {
    flags & BlockingKind::TokenOverlap.flag() != 0
        && flags & BlockingKind::IdOverlap.flag() == 0
        && flags & BlockingKind::IssuerMatch.flag() == 0
}

/// Compact persistence form: a sorted array of `[a, b, flags]` triplets
/// (sorted for deterministic output; the standing candidate sets of a
/// persisted incremental-pipeline state dominate its size, so the flat
/// triplet form beats per-pair objects).
impl ToJson for CandidateSet {
    fn to_json(&self) -> Json {
        let mut entries: Vec<(RecordPair, u8)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(pair, _)| pair);
        Json::Arr(
            entries
                .into_iter()
                .map(|(pair, flags)| {
                    Json::Arr(vec![
                        Json::Num(pair.a.0 as f64),
                        Json::Num(pair.b.0 as f64),
                        Json::Num(flags as f64),
                    ])
                })
                .collect(),
        )
    }
}

impl FromJson for CandidateSet {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let entries = json.as_arr().ok_or_else(|| JsonError {
            message: "expected candidate-set array".into(),
        })?;
        let mut set = CandidateSet::new();
        for entry in entries {
            let triple = entry
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| JsonError {
                    message: "expected [a, b, flags] triplet".into(),
                })?;
            let a = u32::from_json(&triple[0])?;
            let b = u32::from_json(&triple[1])?;
            let flags = u32::from_json(&triple[2])?;
            if flags == 0 || flags > u8::MAX as u32 {
                return Err(JsonError {
                    message: format!("bad provenance flags {flags}"),
                });
            }
            set.add_flags(RecordPair::new(RecordId(a), RecordId(b)), flags as u8);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_records::RecordId;

    fn pair(a: u32, b: u32) -> RecordPair {
        RecordPair::new(RecordId(a), RecordId(b))
    }

    #[test]
    fn dedup_merges_provenance() {
        let mut set = CandidateSet::new();
        set.add(pair(0, 1), BlockingKind::IdOverlap);
        set.add(pair(1, 0), BlockingKind::TokenOverlap);
        assert_eq!(set.len(), 1);
        assert!(set.from_blocking(pair(0, 1), BlockingKind::IdOverlap));
        assert!(set.from_blocking(pair(0, 1), BlockingKind::TokenOverlap));
        assert!(!set.only_from(pair(0, 1), BlockingKind::TokenOverlap));
    }

    #[test]
    fn only_from_single_blocking() {
        let mut set = CandidateSet::new();
        set.add(pair(2, 3), BlockingKind::TokenOverlap);
        assert!(set.only_from(pair(2, 3), BlockingKind::TokenOverlap));
        assert!(!set.from_blocking(pair(2, 3), BlockingKind::IdOverlap));
    }

    #[test]
    fn merge_unions_pairs_and_flags() {
        let mut left = CandidateSet::new();
        left.add(pair(0, 1), BlockingKind::IdOverlap);
        left.add(pair(2, 3), BlockingKind::TokenOverlap);
        let mut right = CandidateSet::new();
        right.add(pair(0, 1), BlockingKind::IssuerMatch);
        right.add(pair(4, 5), BlockingKind::IdOverlap);
        left.merge(&right);
        assert_eq!(left.len(), 3);
        assert!(left.from_blocking(pair(0, 1), BlockingKind::IdOverlap));
        assert!(left.from_blocking(pair(0, 1), BlockingKind::IssuerMatch));
        assert!(left.from_blocking(pair(4, 5), BlockingKind::IdOverlap));
    }

    #[test]
    fn add_flags_preserves_bitmask() {
        let mut set = CandidateSet::new();
        let flags = BlockingKind::IdOverlap.flag() | BlockingKind::IssuerMatch.flag();
        set.add_flags(pair(1, 2), flags);
        set.add_flags(pair(3, 4), 0); // no provenance -> not stored
        assert_eq!(set.provenance(pair(1, 2)), flags);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn set_flags_overwrites_and_removes() {
        let mut set = CandidateSet::new();
        let both = BlockingKind::IdOverlap.flag() | BlockingKind::TokenOverlap.flag();
        assert_eq!(set.set_flags(pair(1, 2), both), 0);
        assert_eq!(
            set.set_flags(pair(1, 2), BlockingKind::IdOverlap.flag()),
            both
        );
        assert!(set.only_from(pair(1, 2), BlockingKind::IdOverlap));
        assert_eq!(set.set_flags(pair(1, 2), 0), BlockingKind::IdOverlap.flag());
        assert!(set.is_empty());
        assert_eq!(set.set_flags(pair(1, 2), 0), 0);
    }

    #[test]
    fn absent_pair_no_provenance() {
        let set = CandidateSet::new();
        assert_eq!(set.provenance(pair(9, 10)), 0);
        assert!(set.is_empty());
    }

    #[test]
    fn sorted_pairs_deterministic() {
        let mut set = CandidateSet::new();
        set.add(pair(5, 1), BlockingKind::IdOverlap);
        set.add(pair(0, 3), BlockingKind::IdOverlap);
        assert_eq!(set.pairs_sorted(), vec![pair(0, 3), pair(1, 5)]);
    }

    #[test]
    fn retain_drops_pairs_touching_a_record() {
        let mut set = CandidateSet::new();
        set.add(pair(0, 1), BlockingKind::IdOverlap);
        set.add(pair(1, 2), BlockingKind::TokenOverlap);
        set.add(pair(3, 4), BlockingKind::TokenOverlap);
        let gone = RecordId(1);
        set.retain(|p, _| p.a != gone && p.b != gone);
        assert_eq!(set.len(), 1);
        assert!(set.contains(pair(3, 4)));
        assert!(!set.contains(pair(0, 1)));
    }

    #[test]
    fn json_round_trip_preserves_pairs_and_flags() {
        let mut set = CandidateSet::new();
        set.add(pair(5, 1), BlockingKind::IdOverlap);
        set.add(pair(5, 1), BlockingKind::TokenOverlap);
        set.add(pair(0, 3), BlockingKind::IssuerMatch);
        let text = gralmatch_util::ToJson::to_json(&set).to_compact_string();
        let back = <CandidateSet as gralmatch_util::FromJson>::from_json(
            &gralmatch_util::Json::parse(&text).unwrap(),
        )
        .unwrap();
        assert_eq!(back.len(), set.len());
        for (p, flags) in set.iter() {
            assert_eq!(back.provenance(p), flags);
        }
        // Deterministic output: serializing twice gives identical text.
        assert_eq!(
            gralmatch_util::ToJson::to_json(&set).to_compact_string(),
            text
        );
    }

    #[test]
    fn json_rejects_malformed_entries() {
        use gralmatch_util::{FromJson, Json};
        assert!(CandidateSet::from_json(&Json::parse("[[1,2]]").unwrap()).is_err());
        assert!(CandidateSet::from_json(&Json::parse("[[1,2,0]]").unwrap()).is_err());
        assert!(CandidateSet::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn flags_are_distinct_bits() {
        let flags = [
            BlockingKind::IdOverlap.flag(),
            BlockingKind::TokenOverlap.flag(),
            BlockingKind::IssuerMatch.flag(),
        ];
        assert_eq!(flags[0] & flags[1], 0);
        assert_eq!(flags[0] & flags[2], 0);
        assert_eq!(flags[1] & flags[2], 0);
    }
}
