//! Behavior lifetime estimation.
//!
//! The paper's channel transfer rate is "the rate at which data is sent
//! during the lifetime of the behaviors communicating over the channel".
//! We estimate a behavior's lifetime as the execution time of one
//! activation under a [`TimingModel`], walking the statement body with
//! access counting's own loop trips ([`loop_trips`]) and branch weight
//! ([`BRANCH_WEIGHT`]), and — for composites — summing the lifetimes of
//! children along the sequential schedule.

use modref_graph::access::{loop_trips, BRANCH_WEIGHT};
use modref_spec::stmt::{CallArg, LValue};
use modref_spec::{BehaviorId, BehaviorKind, Expr, Spec, Stmt, WaitCond};

use crate::latency::TimingModel;

/// The synchronization stall charged for a `wait until`. Loop trips and
/// branch weights are not configured here: they come from
/// [`modref_graph::access`], so a channel rate's numerator (access
/// counts) and denominator (lifetime) always weight a statement alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeConfig {
    /// Time charged for a `wait until` (synchronization stall estimate).
    pub wait_until_ns: f64,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        Self {
            wait_until_ns: 1000.0,
        }
    }
}

/// Estimated execution time in nanoseconds of one activation of
/// `behavior` under `model`.
///
/// Composites: sequential composites sum their children in declaration
/// order (one pass); concurrent composites take the maximum child
/// lifetime. Both are per-activation estimates; the transfer-rate layer
/// divides traffic by this number.
pub fn behavior_lifetime(
    spec: &Spec,
    behavior: BehaviorId,
    model: &TimingModel,
    config: &LifetimeConfig,
) -> f64 {
    lifetime_over(spec, behavior, model, config, &mut |c| {
        behavior_lifetime(spec, c, model, config)
    })
}

/// [`behavior_lifetime`] with each child's lifetime taken from `child`.
fn lifetime_over(
    spec: &Spec,
    behavior: BehaviorId,
    model: &TimingModel,
    config: &LifetimeConfig,
    child: &mut dyn FnMut(BehaviorId) -> f64,
) -> f64 {
    match spec.behavior(behavior).kind() {
        BehaviorKind::Leaf { body } => stmts_cost(spec, body, model, config),
        BehaviorKind::Seq { children, .. } => children.iter().map(|&c| child(c)).sum(),
        BehaviorKind::Concurrent { children } => {
            children.iter().map(|&c| child(c)).fold(0.0, f64::max)
        }
    }
}

/// A memoization table for [`behavior_lifetime`].
///
/// Partitioning algorithms evaluate the same `(behavior, timing model)`
/// lifetimes thousands of times while exploring moves; this table computes
/// each pair once and serves the cached value afterwards. Models are told
/// apart by [`TimingModel::fingerprint`], so distinct models (and
/// user-tweaked variants) are cached independently; within a model,
/// lifetimes are indexed by behavior id, so a lookup hashes nothing.
///
/// # Example
///
/// ```
/// use modref_estimate::{LifetimeConfig, LifetimeTable, TimingModel};
/// use modref_spec::builder::SpecBuilder;
/// use modref_spec::{expr, stmt};
///
/// let mut b = SpecBuilder::new("t");
/// let x = b.var_int("x", 16, 0);
/// let leaf = b.leaf("L", vec![stmt::assign(x, expr::lit(1))]);
/// let top = b.seq_in_order("Top", vec![leaf]);
/// let spec = b.finish(top)?;
/// let mut table = LifetimeTable::new(LifetimeConfig::default());
/// let first = table.get(&spec, leaf, &TimingModel::processor());
/// let again = table.get(&spec, leaf, &TimingModel::processor());
/// assert_eq!(first, again);
/// assert_eq!(table.len(), 1);
/// # Ok::<(), modref_spec::SpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeTable {
    config: LifetimeConfig,
    /// Per model fingerprint, the lifetimes by [`BehaviorId::index`].
    models: Vec<(u64, Vec<Option<f64>>)>,
    len: usize,
}

impl LifetimeTable {
    /// Creates an empty table using `config` for every estimate.
    pub fn new(config: LifetimeConfig) -> Self {
        Self {
            config,
            models: Vec::new(),
            len: 0,
        }
    }

    /// The configuration estimates are computed under.
    pub fn config(&self) -> &LifetimeConfig {
        &self.config
    }

    /// The lifetime of `behavior` under `model`, computed on first use and
    /// served from the cache afterwards. Identical to calling
    /// [`behavior_lifetime`] with the table's config.
    pub fn get(&mut self, spec: &Spec, behavior: BehaviorId, model: &TimingModel) -> f64 {
        let fingerprint = model.fingerprint();
        let m = match self.models.iter().position(|(f, _)| *f == fingerprint) {
            Some(m) => m,
            None => {
                self.models.push((fingerprint, Vec::new()));
                self.models.len() - 1
            }
        };
        self.get_in(spec, behavior, model, m)
    }

    /// [`LifetimeTable::get`] for the model at `m`; a composite's
    /// children are looked up (and memoized) in turn.
    fn get_in(&mut self, spec: &Spec, behavior: BehaviorId, model: &TimingModel, m: usize) -> f64 {
        let (hit, miss) = hit_miss_counters();
        if let Some(&Some(v)) = self.models[m].1.get(behavior.index()) {
            hit.inc();
            return v;
        }
        miss.inc();
        let config = self.config;
        let v = lifetime_over(spec, behavior, model, &config, &mut |c| {
            self.get_in(spec, c, model, m)
        });
        let slots = &mut self.models[m].1;
        if slots.len() <= behavior.index() {
            slots.resize(spec.behavior_count().max(behavior.index() + 1), None);
        }
        slots[behavior.index()] = Some(v);
        self.len += 1;
        v
    }

    /// Number of memoized `(behavior, model)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The `lifetime.hit` / `lifetime.miss` counter handles, interned once.
fn hit_miss_counters() -> (modref_obs::Counter, modref_obs::Counter) {
    static CELLS: std::sync::OnceLock<(modref_obs::Counter, modref_obs::Counter)> =
        std::sync::OnceLock::new();
    *CELLS.get_or_init(|| {
        (
            modref_obs::counter("lifetime.hit"),
            modref_obs::counter("lifetime.miss"),
        )
    })
}

fn stmts_cost(spec: &Spec, stmts: &[Stmt], model: &TimingModel, config: &LifetimeConfig) -> f64 {
    stmts
        .iter()
        .map(|s| stmt_cost(spec, s, model, config))
        .sum()
}

fn stmt_cost(spec: &Spec, s: &Stmt, model: &TimingModel, config: &LifetimeConfig) -> f64 {
    match s {
        Stmt::Assign { target, value } => {
            let loads = match target {
                LValue::Index(_, idx) => loads(value) + loads(idx),
                LValue::Var(_) | LValue::Param(_) => loads(value),
            };
            model.assign_ns + model.expr_cost(value.op_count(), loads) + extra_op_cost(value, model)
        }
        Stmt::SignalSet { value, .. } => {
            model.signal_ns + model.expr_cost(value.op_count(), loads(value))
        }
        Stmt::Wait(WaitCond::Until(_)) => config.wait_until_ns,
        Stmt::Wait(WaitCond::For(n)) => *n as f64,
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            model.branch_ns
                + model.expr_cost(cond.op_count(), loads(cond))
                + BRANCH_WEIGHT * stmts_cost(spec, then_body, model, config)
                + BRANCH_WEIGHT * stmts_cost(spec, else_body, model, config)
        }
        Stmt::While { cond, body, .. } => {
            let trips = loop_trips(s);
            let cond_cost = model.expr_cost(cond.op_count(), loads(cond));
            (trips + 1.0) * (cond_cost + model.branch_ns)
                + trips * (stmts_cost(spec, body, model, config) + model.loop_overhead_ns)
        }
        Stmt::For { body, .. } => {
            loop_trips(s) * (stmts_cost(spec, body, model, config) + model.loop_overhead_ns)
        }
        Stmt::Loop { body } => loop_trips(s) * stmts_cost(spec, body, model, config),
        Stmt::Call { sub, args } => {
            let body = spec.subroutine(*sub).body();
            let arg_cost: f64 = args
                .iter()
                .map(|a| match a {
                    CallArg::In(e) => model.expr_cost(e.op_count(), loads(e)),
                    CallArg::Out(_) => model.assign_ns,
                })
                .sum();
            model.call_ns + arg_cost + stmts_cost(spec, body, model, config)
        }
        Stmt::Delay(n) => *n as f64,
        Stmt::Skip => 0.0,
    }
}

/// The variable loads evaluating `e` performs: `e.reads().len()`
/// without collecting the reads.
fn loads(e: &Expr) -> u32 {
    match e {
        Expr::Lit(_) | Expr::Signal(_) | Expr::Param(_) => 0,
        Expr::Var(_) => 1,
        Expr::Index(_, idx) => 1 + loads(idx),
        Expr::Unary(_, e) => loads(e),
        Expr::Binary(_, l, r) => loads(l) + loads(r),
    }
}

fn extra_op_cost(e: &Expr, model: &TimingModel) -> f64 {
    use modref_spec::BinOp;
    match e {
        Expr::Binary(op, l, r) => {
            let extra = match op {
                BinOp::Mul => model.mul_extra_ns,
                BinOp::Div | BinOp::Rem => model.div_extra_ns,
                _ => 0.0,
            };
            extra + extra_op_cost(l, model) + extra_op_cost(r, model)
        }
        Expr::Unary(_, inner) => extra_op_cost(inner, model),
        Expr::Index(_, idx) => extra_op_cost(idx, model),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt};

    #[test]
    fn leaf_lifetime_counts_statements() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![
                stmt::assign(x, expr::lit(1)),
                stmt::assign(x, expr::add(expr::var(x), expr::lit(1))),
            ],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let m = TimingModel::unit();
        let cfg = LifetimeConfig::default();
        // stmt1: assign(1); stmt2: assign(1) + op(1) + load(1) = 3
        assert_eq!(behavior_lifetime(&spec, a, &m, &cfg), 4.0);
    }

    #[test]
    fn seq_sums_and_conc_maxes() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a1 = b.leaf("A1", vec![stmt::assign(x, expr::lit(1))]);
        let a2 = b.leaf(
            "A2",
            vec![stmt::assign(x, expr::lit(1)), stmt::assign(x, expr::lit(2))],
        );
        let s = b.seq_in_order("S", vec![a1, a2]);
        let b1 = b.leaf("B1", vec![stmt::assign(x, expr::lit(1))]);
        let b2 = b.leaf(
            "B2",
            vec![stmt::assign(x, expr::lit(1)), stmt::assign(x, expr::lit(2))],
        );
        let p = b.concurrent("P", vec![b1, b2]);
        let top = b.seq_in_order("Top", vec![s, p]);
        let spec = b.finish(top).expect("valid");
        let m = TimingModel::unit();
        let cfg = LifetimeConfig::default();
        assert_eq!(behavior_lifetime(&spec, s, &m, &cfg), 3.0);
        assert_eq!(behavior_lifetime(&spec, p, &m, &cfg), 2.0);
        assert_eq!(behavior_lifetime(&spec, top, &m, &cfg), 5.0);
    }

    #[test]
    fn while_scales_with_trip_hint() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let small = b.leaf(
            "Small",
            vec![stmt::while_loop_hinted(
                expr::lt(expr::var(x), expr::lit(2)),
                vec![stmt::assign(x, expr::lit(1))],
                2,
            )],
        );
        let big = b.leaf(
            "Big",
            vec![stmt::while_loop_hinted(
                expr::lt(expr::var(x), expr::lit(100)),
                vec![stmt::assign(x, expr::lit(1))],
                100,
            )],
        );
        let top = b.seq_in_order("Top", vec![small, big]);
        let spec = b.finish(top).expect("valid");
        let m = TimingModel::unit();
        let cfg = LifetimeConfig::default();
        let ls = behavior_lifetime(&spec, small, &m, &cfg);
        let lb = behavior_lifetime(&spec, big, &m, &cfg);
        assert!(lb > 20.0 * ls);
    }

    #[test]
    fn multiplies_cost_more_than_adds() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let adds = b.leaf(
            "Adds",
            vec![stmt::assign(x, expr::add(expr::var(x), expr::lit(1)))],
        );
        let muls = b.leaf(
            "Muls",
            vec![stmt::assign(x, expr::mul(expr::var(x), expr::lit(3)))],
        );
        let top = b.seq_in_order("Top", vec![adds, muls]);
        let spec = b.finish(top).expect("valid");
        let m = TimingModel::processor();
        let cfg = LifetimeConfig::default();
        assert!(
            behavior_lifetime(&spec, muls, &m, &cfg) > behavior_lifetime(&spec, adds, &m, &cfg)
        );
    }

    #[test]
    fn table_matches_direct_computation() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![
                stmt::assign(x, expr::mul(expr::var(x), expr::lit(3))),
                stmt::delay(10),
            ],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let cfg = LifetimeConfig::default();
        let mut table = LifetimeTable::new(cfg);
        for behavior in [a, top] {
            for model in [
                TimingModel::processor(),
                TimingModel::asic(),
                TimingModel::unit(),
            ] {
                let direct = behavior_lifetime(&spec, behavior, &model, &cfg);
                assert_eq!(table.get(&spec, behavior, &model), direct);
                // Second lookup hits the cache and returns the same value.
                assert_eq!(table.get(&spec, behavior, &model), direct);
            }
        }
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn table_memoizes_a_composite_s_children() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
        let c = b.leaf("C", vec![stmt::delay(10)]);
        let top = b.seq_in_order("Top", vec![a, c]);
        let spec = b.finish(top).expect("valid");
        let cfg = LifetimeConfig::default();
        let model = TimingModel::processor();
        let mut table = LifetimeTable::new(cfg);
        let direct = behavior_lifetime(&spec, top, &model, &cfg);
        assert_eq!(table.get(&spec, top, &model).to_bits(), direct.to_bits());
        // Top and both children are now memoized.
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.get(&spec, a, &model),
            behavior_lifetime(&spec, a, &model, &cfg)
        );
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn asic_behaviors_run_faster_than_processor() {
        let mut b = SpecBuilder::new("t");
        let x = b.var_int("x", 16, 0);
        let a = b.leaf(
            "A",
            vec![stmt::for_loop(
                x,
                expr::lit(0),
                expr::lit(10),
                vec![stmt::skip()],
            )],
        );
        let top = b.seq_in_order("Top", vec![a]);
        let spec = b.finish(top).expect("valid");
        let cfg = LifetimeConfig::default();
        let on_proc = behavior_lifetime(&spec, a, &TimingModel::processor(), &cfg);
        let on_asic = behavior_lifetime(&spec, a, &TimingModel::asic(), &cfg);
        assert!(on_proc > 10.0 * on_asic);
    }
}
