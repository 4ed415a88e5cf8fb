//! Trace recording: an opt-in event log of everything a run did.
//!
//! When [`SimConfig::trace`](crate::SimConfig) is set, the kernels
//! install a `TraceSink` in the shared state and every variable write,
//! signal write and process wake is recorded as a `(time, seq, id,
//! value)` event (the schema is [`modref_obs::simtrace`], which the VCD
//! exporter and the trace-level refinement check read too). All three
//! kernels record **identical** event sequences for the same
//! specification — the write path is common
//! ([`SharedState`](crate::process) hosts the sink) and wake events are
//! emitted in the deterministic pid order every kernel dispatches in —
//! so a trace is as kernel-independent as the final
//! [`SimResult`](crate::SimResult) itself.
//!
//! When tracing is off (the default) the only cost at each write site is
//! one `Option` discriminant check on a null-pointer-optimized box —
//! the same disabled-fast-path discipline as `modref-obs`.

pub use modref_obs::simtrace::{SimTraceEvent as TraceEvent, SimTraceId as TraceId};

/// The recorded event stream of one simulation run, in execution order.
///
/// Carried on [`SimResult::trace`](crate::SimResult) when the run was
/// traced. Equality is exact event-sequence equality — the
/// kernel-equivalence property extends to traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimTrace {
    /// Events ordered by `seq` (and therefore by `time`).
    pub events: Vec<TraceEvent>,
}

impl SimTrace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the run recorded no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The in-run recorder: current simulated time plus the event log.
/// Boxed inside [`SharedState`](crate::process) so the disabled case is
/// one null check.
#[derive(Debug, Default)]
pub(crate) struct TraceSink {
    now: u64,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Stamps the sink with the kernel's new simulated time; called at
    /// each phase-3 time advance.
    #[inline]
    pub(crate) fn set_time(&mut self, now: u64) {
        self.now = now;
    }

    /// Appends one event; `seq` is the event's position in the log.
    #[inline]
    pub(crate) fn record(&mut self, id: TraceId, value: i64) {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            time: self.now,
            seq,
            id,
            value,
        });
    }

    /// Finishes recording, yielding the immutable trace.
    pub(crate) fn finish(self) -> SimTrace {
        SimTrace {
            events: self.events,
        }
    }
}
