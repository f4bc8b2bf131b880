//! # mha-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (§V) against the simulated substrate:
//!
//! | id | artifact |
//! |----|----------|
//! | `fig3` | LANL per-loop request sizes |
//! | `fig7` | IOR bandwidth, mixed request sizes (read/write) |
//! | `fig8` | per-server I/O time under each scheme |
//! | `fig9` | IOR bandwidth, mixed process counts (read/write) |
//! | `fig10` | IOR bandwidth vs H:S server ratio (read/write) |
//! | `fig11` | HPIO bandwidth vs process count |
//! | `fig12a` | BTIO aggregate bandwidth |
//! | `fig12b` | LANL trace replay |
//! | `fig13a` | LU decomposition replay |
//! | `fig13b` | sparse Cholesky replay |
//! | `fig14` | redirection overhead |
//! | `tab1` | calibrated cost-model parameters (Table I) |
//! | `ovh` | DRT meta-data space overhead (§V-E.2) |
//! | `ablations` | what each MHA design choice is worth |
//! | `sens` | sensitivity to SSD speed and network bandwidth |
//! | `coll` | collective (two-phase) vs independent I/O |
//! | `dyn` | epoch-based dynamic MHA on a drifting workload |
//! | `fault` | degraded-cluster robustness: schemes × fault scenarios |
//! | `online` | plan-while-running vs plan-then-rerun on a phase shift |
//! | `service` | multi-tenant layout service under open-loop arrivals |
//! | `redundancy` | replicated and erasure-coded layouts under server loss |
//! | `straggler` | client-side straggler-aware dispatch vs replanning |
//!
//! [`experiments::EXPERIMENTS`] is the id table. Run
//! `cargo run -p mha-bench --release --bin figures -- all` (add
//! `--quick` for smaller workloads, `--json DIR` to write one
//! `<figure id>.json` per figure, the form of the files in `results/`).
//! Each study asserts its own acceptance bars.

pub mod experiments;
pub mod online;
pub mod redundancy;
pub mod report;
pub mod service;
pub mod straggler;
pub mod workloads;

pub use report::Figure;
