//! # modref-core
//!
//! The model-refinement engine of *Model Refinement for Hardware-Software
//! Codesign* (Gong, Gajski & Bakshi — UCI TR 95-14 / DATE 1996).
//!
//! Given a specification, its derived access graph, an allocation and a
//! partition, [`refine()`](refine()) transforms the *functional model* into an
//! *implementation model*: a new specification that is functionally
//! equivalent but reflects the chosen architecture — memories, buses, bus
//! protocols, arbiters and bus interfaces — under one of the paper's four
//! implementation models ([`ImplModel`]).
//!
//! The refinement procedures are the paper's three classes:
//!
//! * **control-related** ([`control`]) — behaviors moved across partition
//!   boundaries get `B_start`/`B_done` signals, a `B_CTRL` stub at the
//!   original site and a `B_NEW` wrapper (leaf scheme of Figure 4(b) or
//!   non-leaf scheme of Figure 4(c));
//! * **data-related** ([`data`]) — variable accesses become
//!   `MST_receive`/`MST_send` protocol calls against slave memory
//!   behaviors, with temporary registers; transition-guard reads use the
//!   non-leaf scheme of Figure 6;
//! * **architecture-related** ([`arbiter`], [`interface`]) — priority bus
//!   arbiters where several masters share a bus (Figure 7), and Model4's
//!   message-passing bus interfaces (Figure 8).
//!
//! [`plan::BusAssignment`] is the one place buses are named: from each
//! variable's home and local/global class ([`plan::Placement`]) it
//! decides a model's memory modules, its buses in the paper's order and
//! the bus chain of every access. [`plan::RefinePlan`] composes it with
//! the global address map for refinement, and the Figure 9
//! bus-transfer-rate tables ([`rates`]) map each data channel through it
//! directly, one cheap pass per model.
//!
//! ## Example
//!
//! ```
//! use modref_spec::builder::SpecBuilder;
//! use modref_spec::{expr, stmt};
//! use modref_graph::AccessGraph;
//! use modref_partition::{Allocation, Partition};
//! use modref_core::{refine, ImplModel};
//!
//! let mut b = SpecBuilder::new("demo");
//! let x = b.var_int("x", 16, 0);
//! let a = b.leaf("A", vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(5)))]);
//! let top = b.seq_in_order("Top", vec![a]);
//! let spec = b.finish(top)?;
//! let graph = AccessGraph::derive(&spec);
//! let alloc = Allocation::proc_plus_asic();
//! let part = Partition::with_default(alloc.by_name("PROC").unwrap());
//! let refined = refine(&spec, &graph, &alloc, &part, ImplModel::Model1)?;
//! assert!(refined.spec.behavior_by_name("Gmem_p0").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod api;
pub mod arbiter;
pub mod arch;
pub mod control;
pub mod data;
pub mod dot;
pub mod error;
pub mod explore;
pub mod interface;
pub mod lint;
pub mod memory;
pub mod model;
pub mod plan;
pub mod protocol;
pub mod rates;
pub mod refine;
pub mod report;
pub mod serve;
pub mod trace_check;

pub use api::{Codesign, ModrefError};
pub use arch::{bus_name, ArbiterDesc, Architecture, Bus, BusKind, InterfaceDesc, MemoryModule};
pub use error::RefineError;
pub use explore::{DesignPoint, Exploration, Verification, VerifyRecord};
pub use lint::static_reject;
pub use model::ImplModel;
pub use plan::RefinePlan;
pub use rates::{figure9_rates, figure9_row};
pub use refine::{refine, Refined};
pub use report::CostSummary;
pub use trace_check::{check_stuttering_refinement, TraceMismatch};
