//! # modref-partition
//!
//! Allocation and functional partitioning for hardware-software codesign —
//! the SpecSyn-style substrate that precedes the paper's model-refinement
//! task.
//!
//! * [`component`] — the component library: processors and ASICs with
//!   capacity constraints, grouped into an [`Allocation`].
//! * [`assignment`] — a [`Partition`]: the mapping of behaviors and
//!   variables to allocated components, with inheritance down the behavior
//!   hierarchy and local/global variable classification (the axis of the
//!   paper's Design1/Design2/Design3 experiments).
//! * [`cost`] — partition quality metrics: cross-partition traffic (cut),
//!   load balance, capacity violations.
//! * [`cache`] — the incremental cost engine: a [`CostCache`] precomputes
//!   per-leaf lifetimes, sizes and channel adjacency so single-object
//!   moves are evaluated by delta update instead of full recompute.
//! * [`algorithms`] — automatic partitioners: random seeding, greedy
//!   constructive placement, Kernighan–Lin-style group migration, and
//!   simulated annealing — all driven by the incremental engine.
//! * [`explore`](fn@explore) — parallel multi-start exploration: many seeds ×
//!   algorithms evaluated concurrently with deterministic results.
//! * [`textfmt`] — a line-oriented text format for describing
//!   allocations and partitions in files, used by the `modref` CLI.
//!
//! The paper itself takes the partition as given (its Figure 1(c));
//! this crate exists so the experiments can *produce* Design1/2/3-style
//! partitions and so downstream users get a complete flow.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod assignment;
pub mod cache;
pub mod component;
pub mod cost;
pub mod explore;
pub mod textfmt;

pub use assignment::{Partition, VarClass};
pub use cache::CostCache;
pub use component::{Allocation, Component, ComponentId, ComponentKind};
pub use cost::{partition_cost, CostConfig, CostReport};
pub use explore::{explore, par_map, thread_count, Candidate, ExploreConfig};
pub use textfmt::{parse_partition, render_partition, ParsePartitionError};
