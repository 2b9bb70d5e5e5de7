//! Evaluation metrics (paper Sections 5.3.2 and 5.3.3).
//!
//! * **Pairwise metrics** — precision/recall/F1 of a set of predicted pairs
//!   against ground truth, with recall measured against *all* true matches
//!   of the dataset (blocking losses count against recall, exactly as in
//!   Table 4's first column).
//! * **Group metrics** — the same scores over the *implied transitive
//!   closure* of a group assignment, computed per component in O(|c|)
//!   without materializing the quadratic pair set, plus the **Cluster
//!   Purity Score**:
//!
//! ```text
//!   ClPur = (Σᵢ |Vᵢ| · c_TP,i / |Eᵢ|) / Σᵢ |Vᵢ|
//! ```
//!
//! the size-weighted average fraction of correct matches per group.

use crate::groups::count_group_pairs;
use gralmatch_records::{GroundTruth, RecordId, RecordPair};
use std::borrow::Borrow;

/// Precision / recall / F1 with raw counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMetrics {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// Precision in [0, 1].
    pub precision: f64,
    /// Recall in [0, 1].
    pub recall: f64,
    /// F1 in [0, 1].
    pub f1: f64,
}

impl PairMetrics {
    /// Build from counts.
    pub fn from_counts(tp: u64, fp: u64, fn_: u64) -> Self {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PairMetrics {
            tp,
            fp,
            fn_,
            precision,
            recall,
            f1,
        }
    }
}

/// Pairwise metrics of predicted pairs (a slice, or a standing state's
/// [`Predictions`](crate::incremental::Predictions)) against the full
/// ground truth.
pub fn pairwise_metrics<P: Borrow<RecordPair>>(
    predicted: impl IntoIterator<Item = P>,
    gt: &GroundTruth,
) -> PairMetrics {
    let (mut tp, mut total) = (0u64, 0u64);
    for pair in predicted {
        total += 1;
        tp += u64::from(gt.is_match_pair(*pair.borrow()));
    }
    let fp = total - tp;
    let total_true = gt.num_true_pairs();
    let fn_ = total_true.saturating_sub(tp);
    PairMetrics::from_counts(tp, fp, fn_)
}

/// Group-assignment metrics: P/R/F1 over implied closure pairs + purity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupMetrics {
    /// Closure-pair precision/recall/F1.
    pub pairs: PairMetrics,
    /// Cluster Purity Score.
    pub cluster_purity: f64,
}

/// Evaluate a group assignment (component list) against ground truth.
///
/// Singleton groups carry no implied pairs; following the convention that an
/// unmatched record is trivially "pure", they contribute weight |V|=1 with
/// ratio 1 to the purity average.
pub fn group_metrics(groups: &[Vec<RecordId>], gt: &GroundTruth) -> GroupMetrics {
    let mut tp = 0u64;
    let mut total_predicted = 0u64;
    let mut purity_weighted = 0.0f64;
    let mut purity_weight = 0.0f64;
    for group in groups {
        let counts = count_group_pairs(group, gt);
        tp += counts.true_pairs;
        total_predicted += counts.total_pairs;
        let size = group.len() as f64;
        let ratio = if counts.total_pairs == 0 {
            1.0
        } else {
            counts.true_pairs as f64 / counts.total_pairs as f64
        };
        purity_weighted += size * ratio;
        purity_weight += size;
    }
    let fp = total_predicted - tp;
    let fn_ = gt.num_true_pairs().saturating_sub(tp);
    GroupMetrics {
        pairs: PairMetrics::from_counts(tp, fp, fn_),
        cluster_purity: if purity_weight == 0.0 {
            0.0
        } else {
            purity_weighted / purity_weight
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_records::EntityId;

    fn gt_of(assignments: &[(u32, u32)]) -> GroundTruth {
        GroundTruth::from_assignments(assignments.iter().map(|&(r, e)| (RecordId(r), EntityId(e))))
    }

    fn pair(a: u32, b: u32) -> RecordPair {
        RecordPair::new(RecordId(a), RecordId(b))
    }

    #[test]
    fn perfect_pairwise() {
        let gt = gt_of(&[(0, 1), (1, 1), (2, 2)]);
        let metrics = pairwise_metrics([pair(0, 1)], &gt);
        assert_eq!(metrics.precision, 1.0);
        assert_eq!(metrics.recall, 1.0);
        assert_eq!(metrics.f1, 1.0);
    }

    #[test]
    fn blocking_loss_hits_recall() {
        // Two true pairs; only one predicted.
        let gt = gt_of(&[(0, 1), (1, 1), (2, 2), (3, 2)]);
        let metrics = pairwise_metrics([pair(0, 1)], &gt);
        assert_eq!(metrics.precision, 1.0);
        assert_eq!(metrics.recall, 0.5);
    }

    #[test]
    fn false_positive_hits_precision() {
        let gt = gt_of(&[(0, 1), (1, 1), (2, 2)]);
        let metrics = pairwise_metrics([pair(0, 1), pair(0, 2)], &gt);
        assert_eq!(metrics.tp, 1);
        assert_eq!(metrics.fp, 1);
        assert_eq!(metrics.precision, 0.5);
    }

    #[test]
    fn empty_predictions() {
        let gt = gt_of(&[(0, 1), (1, 1)]);
        let metrics = pairwise_metrics(&[] as &[RecordPair], &gt);
        assert_eq!(metrics.precision, 0.0);
        assert_eq!(metrics.recall, 0.0);
        assert_eq!(metrics.f1, 0.0);
    }

    #[test]
    fn group_metrics_pure_groups() {
        let gt = gt_of(&[(0, 1), (1, 1), (2, 2), (3, 2)]);
        let groups = vec![
            vec![RecordId(0), RecordId(1)],
            vec![RecordId(2), RecordId(3)],
        ];
        let metrics = group_metrics(&groups, &gt);
        assert_eq!(metrics.pairs.f1, 1.0);
        assert_eq!(metrics.cluster_purity, 1.0);
    }

    #[test]
    fn one_false_edge_poisons_closure() {
        // Two groups of 3 wrongly merged into one component of 6:
        // closure = 15 pairs, 6 true (3 + 3), purity 6/15.
        let gt = gt_of(&[(0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 2)]);
        let merged = vec![(0..6).map(RecordId).collect::<Vec<_>>()];
        let metrics = group_metrics(&merged, &gt);
        assert_eq!(metrics.pairs.tp, 6);
        assert_eq!(metrics.pairs.fp, 9);
        assert!((metrics.cluster_purity - 0.4).abs() < 1e-9);
        assert!(metrics.pairs.precision < 0.5);
        assert_eq!(metrics.pairs.recall, 1.0);
    }

    #[test]
    fn singletons_count_as_pure() {
        let gt = gt_of(&[(0, 1), (1, 1)]);
        let groups = vec![vec![RecordId(0)], vec![RecordId(1)]];
        let metrics = group_metrics(&groups, &gt);
        assert_eq!(metrics.cluster_purity, 1.0);
        assert_eq!(metrics.pairs.recall, 0.0, "the true pair was missed");
    }

    #[test]
    fn purity_weighted_by_size() {
        // Group A: 4 records all same entity (pure, weight 4).
        // Group B: 2 records of different entities (purity 0, weight 2).
        let gt = gt_of(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, 2), (5, 3)]);
        let groups = vec![
            (0..4).map(RecordId).collect::<Vec<_>>(),
            vec![RecordId(4), RecordId(5)],
        ];
        let metrics = group_metrics(&groups, &gt);
        assert!((metrics.cluster_purity - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn from_counts_degenerate() {
        let metrics = PairMetrics::from_counts(0, 0, 0);
        assert_eq!(metrics.precision, 0.0);
        assert_eq!(metrics.f1, 0.0);
    }
}
