//! Entity groups and the prediction graph.
//!
//! The expected output of entity group matching is "a list of groups of
//! records represented as complete graphs" (paper Section 1): the connected
//! components of the prediction graph, with all transitive matches implied.
//! This module builds the graph from pairwise predictions and extracts
//! groups; the quadratic closure counts are computed per component without
//! materializing pairs (a single 50K-record hairball implies 1.25G pairs).

use gralmatch_graph::{connected_components, Graph};
use gralmatch_records::{GroundTruth, RecordId, RecordPair};
use gralmatch_util::FxHashMap;
use std::borrow::Borrow;

/// Build the prediction graph over `num_records` dense record ids from
/// positively predicted pairs (a slice, or a standing state's
/// [`Predictions`](crate::incremental::Predictions)).
pub fn prediction_graph<P: Borrow<RecordPair>>(
    num_records: usize,
    predicted: impl IntoIterator<Item = P>,
) -> Graph {
    let mut graph = Graph::with_nodes(num_records);
    for pair in predicted {
        let pair = pair.borrow();
        graph.add_edge(pair.a.0, pair.b.0);
    }
    graph
}

/// Extract entity groups (components, largest first) as record-id lists.
/// Singleton groups (unmatched records) are included.
pub fn entity_groups(graph: &Graph) -> Vec<Vec<RecordId>> {
    connected_components(graph)
        .into_iter()
        .map(|component| component.into_iter().map(RecordId).collect())
        .collect()
}

/// Map each record to its group index.
pub fn group_assignment(groups: &[Vec<RecordId>]) -> FxHashMap<RecordId, u32> {
    let mut map = FxHashMap::default();
    for (index, group) in groups.iter().enumerate() {
        for &record in group {
            map.insert(record, index as u32);
        }
    }
    map
}

/// Closure-pair counters of one group against ground truth, computed in
/// O(|group|): true-positive implied pairs and total implied pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPairCounts {
    /// Implied pairs that are true matches.
    pub true_pairs: u64,
    /// All implied pairs: |group|·(|group|−1)/2.
    pub total_pairs: u64,
}

/// Count closure pairs of a group against ground truth.
pub fn count_group_pairs(group: &[RecordId], gt: &GroundTruth) -> GroupPairCounts {
    let size = group.len() as u64;
    let total_pairs = size * size.saturating_sub(1) / 2;
    // Group by entity; unlabeled records can never form true pairs.
    let mut per_entity: FxHashMap<u32, u64> = FxHashMap::default();
    for &record in group {
        if let Some(entity) = gt.entity_of(record) {
            *per_entity.entry(entity.0).or_insert(0) += 1;
        }
    }
    let true_pairs = per_entity.values().map(|&k| k * (k - 1) / 2).sum();
    GroupPairCounts {
        true_pairs,
        total_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gralmatch_records::EntityId;

    fn pair(a: u32, b: u32) -> RecordPair {
        RecordPair::new(RecordId(a), RecordId(b))
    }

    fn gt_of(assignments: &[(u32, u32)]) -> GroundTruth {
        GroundTruth::from_assignments(assignments.iter().map(|&(r, e)| (RecordId(r), EntityId(e))))
    }

    #[test]
    fn graph_and_groups() {
        let graph = prediction_graph(5, [pair(0, 1), pair(1, 2)]);
        let groups = entity_groups(&graph);
        assert_eq!(groups[0], vec![RecordId(0), RecordId(1), RecordId(2)]);
        assert_eq!(groups.len(), 3, "two singletons remain");
    }

    #[test]
    fn assignment_covers_all() {
        let graph = prediction_graph(4, [pair(0, 1)]);
        let groups = entity_groups(&graph);
        let map = group_assignment(&groups);
        assert_eq!(map.len(), 4);
        assert_eq!(map[&RecordId(0)], map[&RecordId(1)]);
        assert_ne!(map[&RecordId(0)], map[&RecordId(2)]);
    }

    #[test]
    fn closure_counts() {
        // Group {0,1,2,3}: 0,1,2 are entity 7; 3 is entity 8.
        let gt = gt_of(&[(0, 7), (1, 7), (2, 7), (3, 8)]);
        let group: Vec<RecordId> = (0..4).map(RecordId).collect();
        let counts = count_group_pairs(&group, &gt);
        assert_eq!(counts.total_pairs, 6);
        assert_eq!(counts.true_pairs, 3);
    }

    #[test]
    fn closure_counts_unlabeled() {
        let gt = gt_of(&[(0, 7)]);
        let group = vec![RecordId(0), RecordId(1)];
        let counts = count_group_pairs(&group, &gt);
        assert_eq!(counts.total_pairs, 1);
        assert_eq!(counts.true_pairs, 0);
    }

    #[test]
    fn singleton_group_counts() {
        let gt = gt_of(&[(0, 1)]);
        let counts = count_group_pairs(&[RecordId(0)], &gt);
        assert_eq!(counts.total_pairs, 0);
        assert_eq!(counts.true_pairs, 0);
    }
}
