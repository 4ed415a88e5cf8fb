//! # modref-estimate
//!
//! Quality-metrics estimation for hardware-software codesign, after the
//! estimators the paper builds on: software estimation from executable
//! specifications (Gong, Gajski & Narayan 1994) and channel/bus
//! transfer-rate analysis (Narayan & Gajski, EDAC 1994).
//!
//! Three layers:
//!
//! * [`latency`] — per-statement timing models. A [`TimingModel`] assigns
//!   costs (in nanoseconds) to operations, assignments, branches and memory
//!   accesses; presets model a mid-90s embedded processor
//!   ([`TimingModel::processor`]) and ASIC datapath logic
//!   ([`TimingModel::asic`]).
//! * [`lifetime`] — behavior *lifetime*: the estimated execution time of
//!   one activation of a behavior, the denominator of the paper's channel
//!   transfer rate.
//! * [`rates`] — channel transfer rates
//!   (`rate(ch) = bits_transferred / lifetime(behavior)`) and bus transfer
//!   rates (the sum of the rates of channels mapped to the bus) — the
//!   Figure 9 metric, in Mbit/s.
//!
//! Plus [`memory`]: memory-size and port estimation for the architecture
//! cost discussion in Section 5.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod latency;
pub mod lifetime;
pub mod memory;
pub mod rates;
pub mod report;

pub use latency::TimingModel;
pub use lifetime::{behavior_lifetime, LifetimeConfig, LifetimeTable};
pub use rates::{channel_rate, channel_rate_memo, BusRateTable, MBITS_PER_BIT_PER_NS};
pub use report::estimation_report;
