//! The typed codesign API: one facade, one error type, one wire format.
//!
//! This module is the single entry point the `modref` CLI, the
//! `modref serve` server ([`crate::serve`]) and library consumers
//! share:
//!
//! * [`Codesign`] — a session holding one parsed specification and its
//!   lazily derived access graph, with a method per pipeline operation
//!   (`check`, `lint`, `refine`, `estimate`, `rates`, `simulate`,
//!   `explore`, `verify`);
//! * [`ModrefError`] — the unified error every operation fails with,
//!   wrapping the per-crate errors and carrying a stable wire
//!   [`code`](ModrefError::code);
//! * [`Request`] / [`Response`] — the JSONL wire protocol of
//!   `modref serve`, decoded and encoded without panicking;
//! * [`CancelToken`] — cooperative cancellation for the long-running
//!   operations, shared by `cancel` requests and deadlines, which travel
//!   inside the token ([`CancelToken::with_deadline`]).
//!
//! Options structs ([`ExploreOpts`], [`VerifyOpts`], [`LintOpts`],
//! [`SimOpts`]) are `#[non_exhaustive]` builders, so new knobs can be
//! added without breaking callers.
//!
//! ```
//! use modref_core::api::{Codesign, ExploreOpts, VerifyOpts};
//! let cd = Codesign::from_spec(modref_workloads::fig2_spec());
//! let opts = ExploreOpts::new()
//!     .with_seeds(1)
//!     .with_anneal_iterations(40)
//!     .with_migration_passes(2);
//! let out = cd.explore(&opts)?;
//! let verdict = cd.verify(&out, &VerifyOpts::new())?;
//! assert!(verdict.all_equivalent());
//! # Ok::<(), modref_core::api::ModrefError>(())
//! ```

mod error;
mod facade;
mod wire;

pub use error::ModrefError;
pub use facade::{
    CancelToken, Codesign, ExploreOpts, LintOpts, Progress, ProgressFn, SimOpts, SpecStats, Stop,
    VerifyOpts,
};
pub use wire::{
    BatchItem, DiagSummary, PointSummary, ProgressFrame, RecordSummary, Request, RequestOp,
    Response, ResponseBody, SimParams, SpecSource, SubResult,
};

pub(crate) use wire::model_from;
