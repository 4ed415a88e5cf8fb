//! # modref-sim
//!
//! A discrete-event simulator for SpecCharts-style specifications.
//!
//! The paper motivates model refinement partly by *simulatability*: the
//! refined, partitioned specification can be executed to verify that it is
//! functionally equivalent to the original. This crate provides that
//! executor for both: it interprets a [`Spec`](modref_spec::Spec) — leaf
//! statement bodies, sequential composites with guarded
//! transition-on-completion arcs, concurrent composites, signals with
//! `wait until` synchronization, and protocol subroutine calls with
//! per-frame parameter binding (so concurrent masters can execute the same
//! protocol simultaneously).
//!
//! ## Semantics
//!
//! * Ordinary statements take zero simulated time; `delay n` and
//!   `wait for n` advance a process's local clock.
//! * `set sig := e` is immediately visible; processes blocked on
//!   `wait until` re-evaluate when the scheduler next runs them.
//! * Processes are stepped in a deterministic order (ascending process
//!   id within each scheduling round). Three kernels implement the same
//!   semantics. Two share one event scheduler, which wakes blocked
//!   processes from [sensitivity]-indexed waiter lists and a timer heap:
//!   the default [`SimKernel::Compiled`] executes behaviors lowered to
//!   flat bytecode (see [`compile`]), and [`SimKernel::EventDriven`]
//!   tree-walks the AST ([`process`]). [`SimKernel::RoundRobin`] is the
//!   original polling scheduler, retained as an executable reference.
//!   All three produce identical observable results — including step
//!   counts.
//! * The simulation ends when the *root* process (the top behavior)
//!   completes; infinite server loops (memory behaviors, arbiters, bus
//!   interfaces inserted by refinement) are then terminated.
//!
//! ## Example
//!
//! ```
//! use modref_spec::builder::SpecBuilder;
//! use modref_spec::{expr, stmt};
//! use modref_sim::Simulator;
//!
//! let mut b = SpecBuilder::new("tiny");
//! let x = b.var_int("x", 16, 0);
//! let a = b.leaf("A", vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(5)))]);
//! let top = b.seq_in_order("Top", vec![a]);
//! let spec = b.finish(top)?;
//! let result = Simulator::new(&spec).run()?;
//! assert_eq!(result.var_by_name("x"), Some(5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compile;
pub mod error;
pub mod process;
pub mod result;
pub mod sensitivity;
pub mod simulator;
pub mod trace;
pub mod value;
pub mod vcd;

pub use error::SimError;
pub use result::{SchedStats, SimResult};
pub use simulator::{SimConfig, SimKernel, Simulator};
pub use trace::{SimTrace, TraceEvent, TraceId};
