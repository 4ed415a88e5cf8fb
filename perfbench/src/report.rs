//! The benchmark's output: human-readable lines, then one JSON object as
//! the last line of standard output.

/// End-to-end metrics, printed by every workload's untraced run. Each
/// workload fills every slot; `README.md` says what each slot measures
/// on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("search_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer
/// the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_ratio", "ratio"),
    ("spec.parse_us", "us"),
    ("graph.derive_us", "us"),
    ("partition.search_ms", "ms"),
    ("partition.job_ms_sum", "ms"),
    ("partition.job_ms_max", "ms"),
    ("partition.parallel_eff", "ratio"),
    ("partition.move_evals", "count"),
    ("partition.anneal_accept_ratio", "ratio"),
    ("rates.eval_ms", "ms"),
    ("rates.calls", "count"),
    ("rates.lifetime_hit_ratio", "ratio"),
    ("refine.ms", "ms"),
    ("refine.calls", "count"),
    ("refine.behaviors_out", "count"),
    ("lint_gate.ms", "ms"),
    ("lint_gate.calls", "count"),
    ("lint_gate.reject_ratio", "ratio"),
    ("sim.ms", "ms"),
    ("sim.steps", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.rounds", "count"),
    ("sim.wakeups", "count"),
    ("sim.cond_evals", "count"),
    ("sim.timer_pops", "count"),
    ("sim.signal_writes", "count"),
    ("verify.jobs", "count"),
    ("verify.pass_ratio", "ratio"),
    ("flow.explore_ms", "ms"),
    ("flow.verify_ms", "ms"),
    ("flow.tail_ms", "ms"),
    ("flow.unattributed_ms", "ms"),
    ("flow.parallel_speedup", "ratio"),
    ("obs.overhead_pct", "%"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.r500.p99_ms", "ms"),
    ("serve.r500.queue_us", "us"),
    ("serve.r500.exec_us", "us"),
    ("serve.r500.wire_us", "us"),
    ("serve.r1000.p50_ms", "ms"),
    ("serve.r1000.p99_ms", "ms"),
    ("serve.r1000.queue_us", "us"),
    ("serve.r1000.exec_us", "us"),
    ("serve.r1000.wire_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evicts", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.op.load_spec.p50_ms", "ms"),
    ("serve.op.parse.p50_ms", "ms"),
    ("serve.op.lint.p50_ms", "ms"),
    ("serve.op.estimate.p50_ms", "ms"),
    ("serve.op.refine.p50_ms", "ms"),
    ("serve.op.lint_part.p50_ms", "ms"),
    ("serve.op.explore.p50_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    metrics: Vec<(&'static str, f64)>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Report {
    /// An empty report for a traced (`trace`) or untraced run.
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            metrics: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric by its name in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Prints one human-readable line (never the last line).
    pub fn note(&self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
    }

    /// Records a failed correctness check; the run then reports
    /// `"correct": false`.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// Checks a condition, recording `what` as a problem when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Adds to the attempted and failed operation counts.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Renders the final JSON line. Every metric of the run's set must
    /// be present and finite; a missing one is a bug in the benchmark.
    pub fn json_line(&self) -> Result<String, String> {
        let set = if self.trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(set.len());
        for (name, unit) in set {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_of_the_set() {
        let mut r = Report::new(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.metric(name, 1.5 + i as f64);
        }
        r.count(10, 1);
        let line = r.json_line().expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput_per_s\": {\"value\": 5.5, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn missing_or_unbounded_metrics_are_refused() {
        let mut r = Report::new(false);
        assert!(r.json_line().is_err());
        for (name, _) in END_TO_END {
            r.metric(name, f64::INFINITY);
        }
        assert!(r.json_line().unwrap_err().contains("not finite"));
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let mut r = Report::new(true);
        for (name, _) in PER_LAYER {
            r.metric(name, 0.0);
        }
        r.check(false, || "replay diverged".into());
        assert!(r.json_line().unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
