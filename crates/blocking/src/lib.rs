//! Blocking strategies (paper Section 5.3.1).
//!
//! Evaluating all n·(n−1)/2 record pairs is prohibitive, so the pipeline
//! first selects candidate pairs through blockings:
//!
//! * [`SecurityIdOverlap`] / [`CompanyIdOverlap`] — identifier-code
//!   overlap (companies go through their securities' codes),
//! * [`TokenOverlap`] — top-n most token-overlapping records across
//!   sources (text alignment candidates),
//! * [`IssuerMatch`] — securities of previously matched issuers.
//!
//! Candidates carry provenance flags ([`CandidateSet`]) because the Pre
//! Graph Cleanup removes token-overlap edges in oversized components.
//!
//! Every strategy implements the unified [`Blocker`] trait; recipes are
//! `Vec<Box<dyn Blocker<R>>>` lists executed by [`run_blockers`] (or the
//! pipeline engine's blocking stage), which runs independent recipes
//! concurrently on the shared [`WorkerPool`](gralmatch_util::WorkerPool)
//! carried by the [`BlockingContext`]. Identifier-join blockers advertise
//! [`Blocker::cross_shard`] so a sharded pipeline can re-run them globally
//! for boundary candidates; shard-local blockers that can maintain their
//! candidates under record churn offer a [`ShardIndex`]
//! ([`Blocker::shard_index`]) the incremental engine edits per batch.

pub mod candidates;
pub mod id_overlap;
pub mod issuer_match;
pub mod recall;
pub mod sorted_neighborhood;
pub mod strategy;
mod token_index;
pub mod token_overlap;

pub use candidates::{text_only_provenance, BlockingKind, CandidateSet};
pub use id_overlap::{CompanyIdOverlap, SecurityIdOverlap, MAX_CODE_HOLDERS};
pub use issuer_match::{IssuerMatch, MAX_GROUP_SECURITIES};
pub use recall::{blocking_quality, blocking_recall_by_kind, BlockingQuality};
pub use sorted_neighborhood::{SortedNeighborhood, SortedNeighborhoodConfig};
pub use strategy::{
    run_blocker_refs_traced, run_blockers, run_blockers_traced, Blocker, BlockerRun,
    BlockingContext, PairDelta, ShardIndex,
};
pub use token_overlap::{TokenOverlap, TokenOverlapConfig};
