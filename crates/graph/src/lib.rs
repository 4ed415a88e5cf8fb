//! # modref-graph
//!
//! Access-graph derivation for SpecCharts-style specifications.
//!
//! The paper (Section 2) observes that *channels* — the data accesses from
//! behaviors to variables and the execution-sequence links between
//! behaviors — are implicit in a specification and must be derived. This
//! crate walks a [`Spec`](modref_spec::Spec) and produces an
//! [`AccessGraph`]: nodes are behaviors and variables, edges are
//! [`Channel`]s.
//!
//! Two channel kinds exist:
//!
//! * **Data channels** connect a behavior to a variable it reads or
//!   writes, annotated with a static *access count* estimate (loop bodies
//!   weighted by trip counts) and the bit-width of one access. These drive
//!   the paper's bus-transfer-rate metric (Figure 9).
//! * **Control channels** connect sibling behaviors along
//!   transition-on-completion arcs — the `A:(x>1,B)` arcs of Figure 1.
//!
//! Accesses that occur in a composite behavior's transition *guards* are
//! attributed to the composite itself; the refinement engine treats these
//! with the non-leaf scheme of the paper's Figure 6.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod channel;
pub mod dot;
pub mod graph;

pub use access::AccessCounts;
pub use channel::{Channel, ChannelId, ChannelKind, Direction};
pub use graph::AccessGraph;
