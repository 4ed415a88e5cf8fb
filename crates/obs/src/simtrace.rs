//! Simulation trace events: the `(time, seq, id, value)` schema the
//! simulator's trace sink records.
//!
//! Unlike the recorder events in [`crate::event`] (spans, metrics — the
//! *tooling's* activity), these describe the *simulated design's*
//! activity: every variable update, signal update and process wake of one
//! run. The schema lives here so the kernels, the waveform exporter and
//! the trace-level refinement checker all speak the same event type.

/// What a simulation trace event observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimTraceId {
    /// A write to a scalar variable, by declaration slot.
    Var(u32),
    /// A write to one element of an array variable.
    Elem {
        /// Variable declaration slot.
        var: u32,
        /// Element index within the array.
        index: u32,
    },
    /// A write to a signal, by declaration slot.
    Signal(u32),
    /// A blocked process woke (its wait condition came true, its children
    /// completed, or its sleep elapsed), by process id.
    Wake(u32),
}

/// One recorded simulation event.
///
/// `seq` is the event's position in the run's total order (0-based,
/// dense): events at the same simulated `time` are ordered by `seq`,
/// which is exactly the deterministic execution order — all three
/// kernels record identical sequences for the same specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimTraceEvent {
    /// Simulated time of the event.
    pub time: u64,
    /// Position in the run's total event order (dense, 0-based).
    pub seq: u64,
    /// What was observed.
    pub id: SimTraceId,
    /// The written value (wake events carry the behavior index of the
    /// woken process).
    pub value: i64,
}
