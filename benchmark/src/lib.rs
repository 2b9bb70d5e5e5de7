//! Client-side benchmark of the GraLMatch serve process: three seeded
//! workloads driven over TCP against the repository's real `serve` binary,
//! end-to-end metrics a client sees, and per-layer probes that say which
//! layer owns each of them. See `README.md`.

pub mod client;
pub mod noise;
pub mod probes;
pub mod report;
pub mod scenario;
pub mod server;
pub mod spec;
pub mod stats;
pub mod workload;
