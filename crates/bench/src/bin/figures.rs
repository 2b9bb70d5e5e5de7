//! Scenario reproductions of the paper's illustrative figures.
//!
//! * **Figure 2** — a 4-source mini-dataset with collision names
//!   (Crowdstrike/Crowdstreet), a merger, and an acquisition.
//! * **Figure 3** — transitive matches implied by a pairwise chain.
//! * **Figure 4** — a false-positive bridge between two groups, removed by
//!   the GraLMatch Graph Cleanup.
//!
//! Usage: `cargo run -p gralmatch-bench --bin figures --release`

use gralmatch_core::{
    entity_groups, graph_cleanup, group_metrics, prediction_graph, CleanupConfig,
};
use gralmatch_graph::connected_components;
use gralmatch_records::{EntityId, GroundTruth, RecordId, RecordPair};

fn pair(a: u32, b: u32) -> RecordPair {
    RecordPair::new(RecordId(a), RecordId(b))
}

fn figure2() {
    println!("=== Figure 2: the matching challenges ===");
    println!("Records #12, #22, #31, #40 are Crowdstrike across 4 sources;");
    println!("#13, #23, #32 are Crowdstreet. ID overlap links (#12,#31) and");
    println!("(#22,#40); matching the whole group needs text alignment, which");
    println!("risks the Crowdstrike-Crowdstreet false positive.\n");
    let names = [
        (12, "Crowdstrike Plt.", "crowdstrike"),
        (22, "Crowd Strike Platforms", "crowdstrike"),
        (31, "Crowdstrike Holdings", "crowdstrike"),
        (40, "CROWDSTRIKE", "crowdstrike"),
        (13, "Crowdstreet Inc.", "crowdstreet"),
        (23, "CrowdStreet", "crowdstreet"),
        (32, "Crowdstreet Marketplace", "crowdstreet"),
    ];
    for (id, name, entity) in names {
        println!("  #{id}: {name:<26} (entity: {entity})");
    }
    println!();
}

fn figure3() {
    println!("=== Figure 3: transitive matches ===");
    // Records #11, #21, #33, #41; pairwise chain (#11-#21), (#21-#33), (#33-#41).
    let predicted = [pair(11, 21), pair(21, 33), pair(33, 41)];
    let graph = prediction_graph(42, predicted);
    let components = connected_components(&graph);
    let group = components
        .iter()
        .find(|c| c.len() == 4)
        .expect("chain group");
    println!("pairwise predictions: (#11,#21) (#21,#33) (#33,#41)");
    let mut implied = Vec::new();
    for i in 0..group.len() {
        for j in (i + 1)..group.len() {
            let candidate = pair(group[i], group[j]);
            if !predicted.contains(&candidate) {
                implied.push(candidate);
            }
        }
    }
    println!(
        "implied transitive matches: {}",
        implied
            .iter()
            .map(|p| format!("(#{},#{})", p.a.0, p.b.0))
            .collect::<Vec<_>>()
            .join(" ")
    );
    assert_eq!(
        implied.len(),
        3,
        "the figure shows exactly 3 implied matches"
    );
    println!();
}

fn figure4() {
    println!("=== Figure 4: pre vs post graph cleanup ===");
    // Two groups: Crowdstrike {0,1,2,3} and Crowdstreet {4,5,6}, densely
    // matched within, plus the false positive #40-#13 modeled as (3,4).
    let gt = GroundTruth::from_assignments(
        (0..4)
            .map(|r| (RecordId(r), EntityId(1)))
            .chain((4..7).map(|r| (RecordId(r), EntityId(2)))),
    );
    let mut predicted = vec![
        pair(0, 1),
        pair(0, 2),
        pair(1, 2),
        pair(2, 3),
        pair(4, 5),
        pair(5, 6),
        pair(4, 6),
        // the false positive bridge:
        pair(3, 4),
    ];
    predicted.sort_unstable();
    let mut graph = prediction_graph(7, &predicted);

    let pre_groups = entity_groups(&graph);
    let pre = group_metrics(&pre_groups, &gt);
    println!(
        "(1) pairwise: 8 predictions, 1 false positive (#3,#4)\n(2) pre-cleanup: one merged component of 7 records -> precision {:.2}, cluster purity {:.2}",
        pre.pairs.precision, pre.cluster_purity
    );

    let report = graph_cleanup(&mut graph, &CleanupConfig::new(6, 4));
    let post_groups = entity_groups(&graph);
    let post = group_metrics(&post_groups, &gt);
    println!(
        "(3) post-cleanup: removed {} edge(s) -> {} groups, precision {:.2}, cluster purity {:.2}",
        report.mincut_removed + report.betweenness_removed,
        post_groups.len(),
        post.pairs.precision,
        post.cluster_purity
    );
    assert!(!graph.has_edge(3, 4), "the bridge must be removed");
    assert_eq!(post.pairs.precision, 1.0);
    println!("the false pairwise match (#3,#4) was eliminated by GraLMatch.\n");
}

fn main() {
    figure2();
    figure3();
    figure4();
    println!("All figure invariants hold.");
}
