//! Simulation results: final state observation.

use std::collections::BTreeMap;

use modref_spec::Spec;

use crate::process::SharedState;
use crate::trace::SimTrace;
use crate::value::Storage;

/// Scheduler-internal work counters, reported per run so kernel
/// regressions are observable (`modref simulate --stats`).
///
/// These describe *how* the scheduler reached the result, not the result
/// itself: the two schedulers produce identical observable outcomes with very
/// different counter profiles (the event scheduler's `cond_evals` is a
/// small fraction of the round-robin kernel's — the wakeups avoided).
/// They are therefore excluded from [`SimResult`]'s equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduling rounds (delta cycles) executed.
    pub rounds: u64,
    /// `wait until` condition re-evaluations performed by the scheduler.
    pub cond_evals: u64,
    /// Processes woken from `wait until` blocks.
    pub wakeups: u64,
    /// Timer-queue pops (event scheduler) or sleeper-scan passes
    /// (round-robin kernel) performed to advance time.
    pub timer_pops: u64,
    /// Bytecode instructions executed (compiled kernel only; equals
    /// `steps` there, since one instruction is one micro-step).
    pub instrs: u64,
    /// Dispatch-loop entries (compiled kernel only): how many times a
    /// ready process was resumed at its saved program counter.
    pub dispatches: u64,
}

/// Meter slot names — doubling as the global `sim.*` counter names the
/// kernels publish into on completion. Slot order matches the
/// `SLOT_*` indices below.
pub(crate) const METER_NAMES: &[&str] = &[
    "sim.rounds",
    "sim.cond_evals",
    "sim.wakeups",
    "sim.timer_pops",
    "sim.instrs",
    "sim.dispatches",
];
pub(crate) const SLOT_ROUNDS: usize = 0;
pub(crate) const SLOT_COND_EVALS: usize = 1;
pub(crate) const SLOT_WAKEUPS: usize = 2;
pub(crate) const SLOT_TIMER_POPS: usize = 3;
pub(crate) const SLOT_INSTRS: usize = 4;
pub(crate) const SLOT_DISPATCHES: usize = 5;

impl SchedStats {
    /// Builds the per-run stats from the kernel's meter — the *single*
    /// counting site: the same slots are published into the global
    /// `sim.*` counters, so `--stats` output and a trace can never
    /// disagree.
    pub(crate) fn from_meter(meter: &modref_obs::Meter) -> Self {
        Self {
            rounds: meter.get(SLOT_ROUNDS),
            cond_evals: meter.get(SLOT_COND_EVALS),
            wakeups: meter.get(SLOT_WAKEUPS),
            timer_pops: meter.get(SLOT_TIMER_POPS),
            instrs: meter.get(SLOT_INSTRS),
            dispatches: meter.get(SLOT_DISPATCHES),
        }
    }
}

/// The observable outcome of a simulation run.
///
/// Equality compares only the *observable* fields — final time, steps,
/// write counts, variable/signal values and activation profile — so
/// results from different scheduler kernels compare equal when the
/// simulated behavior matched, even though their [`SchedStats`] differ.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final simulated time.
    pub time: u64,
    /// Total micro-steps executed.
    pub steps: u64,
    /// Whether the top behavior completed (always true on `Ok` results;
    /// kept for future partial-run APIs).
    pub completed: bool,
    /// Total variable writes performed.
    pub var_writes: u64,
    /// Total signal writes performed.
    pub signal_writes: u64,
    /// Scheduler work counters (excluded from equality).
    pub sched: SchedStats,
    /// The recorded event trace, present when the run was configured with
    /// [`SimConfig::trace`](crate::SimConfig). Excluded from equality —
    /// [`SimResult`] equality is final-state equality; trace equality is
    /// the (strictly stronger) property the trace tests assert directly.
    pub trace: Option<SimTrace>,
    vars: BTreeMap<String, Storage>,
    signals: BTreeMap<String, i64>,
    activations: BTreeMap<String, u64>,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.steps == other.steps
            && self.completed == other.completed
            && self.var_writes == other.var_writes
            && self.signal_writes == other.signal_writes
            && self.vars == other.vars
            && self.signals == other.signals
            && self.activations == other.activations
    }
}

impl SimResult {
    pub(crate) fn collect(
        spec: &Spec,
        state: &SharedState,
        time: u64,
        steps: u64,
        completed: bool,
        meter: &modref_obs::Meter,
        trace: Option<SimTrace>,
    ) -> Self {
        meter.publish();
        let sched = SchedStats::from_meter(meter);
        let vars = spec
            .variables()
            .map(|(id, v)| (v.name().to_string(), state.vars[id.index()].clone()))
            .collect();
        let signals = spec
            .signals()
            .map(|(id, s)| (s.name().to_string(), state.signals[id.index()]))
            .collect();
        let activations = spec
            .behaviors()
            .map(|(id, b)| (b.name().to_string(), state.activations[id.index()]))
            .collect();
        Self {
            time,
            steps,
            completed,
            var_writes: state.var_writes,
            signal_writes: state.signal_writes,
            sched,
            trace,
            vars,
            signals,
            activations,
        }
    }

    /// How many times the named behavior started executing — the dynamic
    /// activation profile (composites count once per activation of the
    /// composite, children once per visit under the transition schedule).
    pub fn activations_of(&self, name: &str) -> Option<u64> {
        self.activations.get(name).copied()
    }

    /// Iterates `(behavior, activations)` in name order.
    pub fn activations(&self) -> impl Iterator<Item = (&str, u64)> {
        self.activations.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Final value of a scalar variable, by name.
    pub fn var_by_name(&self, name: &str) -> Option<i64> {
        match self.vars.get(name)? {
            Storage::Scalar(v) => Some(*v),
            Storage::Array(_) => None,
        }
    }

    /// Final contents of an array variable, by name.
    pub fn array_by_name(&self, name: &str) -> Option<&[i64]> {
        match self.vars.get(name)? {
            Storage::Array(items) => Some(items),
            Storage::Scalar(_) => None,
        }
    }

    /// Final value of a signal, by name.
    pub fn signal_by_name(&self, name: &str) -> Option<i64> {
        self.signals.get(name).copied()
    }

    /// Iterates `(name, scalar value)` for every scalar variable, in name
    /// order — the state vector equivalence checks compare.
    pub fn scalar_vars(&self) -> impl Iterator<Item = (&str, i64)> {
        self.vars.iter().filter_map(|(k, v)| match v {
            Storage::Scalar(x) => Some((k.as_str(), *x)),
            Storage::Array(_) => None,
        })
    }

    /// Compares this result to another on the variables *common to both*
    /// (by name), returning the names that disagree. Refinement adds
    /// variables (tmp buffers, memory images); equivalence holds when the
    /// original variables agree.
    pub fn diff_common_vars(&self, other: &SimResult) -> Vec<String> {
        let mut diffs = Vec::new();
        for (name, value) in &self.vars {
            if let Some(other_value) = other.vars.get(name) {
                if value != other_value {
                    diffs.push(name.clone());
                }
            }
        }
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    fn run_simple(init: i64) -> SimResult {
        let mut b = SpecBuilder::new("r");
        let x = b.var_int("x", 16, init);
        let a = b.leaf(
            "A",
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        Simulator::new(&spec).run().expect("runs")
    }

    #[test]
    fn reports_final_values() {
        let r = run_simple(10);
        assert_eq!(r.var_by_name("x"), Some(11));
        assert_eq!(r.var_by_name("missing"), None);
        assert!(r.completed);
    }

    #[test]
    fn diff_common_vars_detects_mismatch() {
        let a = run_simple(1);
        let b = run_simple(2);
        assert_eq!(a.diff_common_vars(&b), vec!["x".to_string()]);
        assert!(a.diff_common_vars(&a).is_empty());
    }

    #[test]
    fn scalar_vars_iterates_in_name_order() {
        let r = run_simple(0);
        let names: Vec<&str> = r.scalar_vars().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["x"]);
    }
}
