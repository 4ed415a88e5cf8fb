//! Bus arbiter generation — the paper's Figure 7.
//!
//! When more than one master shares a bus, a priority arbiter behavior is
//! inserted: masters assert their private request line, the arbiter
//! grants the highest-priority requester by raising its acknowledge line,
//! and holds the grant until the master releases its request.

use modref_spec::{expr, stmt, Behavior, BehaviorId, BehaviorKind, Expr, Spec, Stmt};

use crate::protocol::ReqAck;

/// Builds the fixed-priority arbiter of the paper's Figure 7 for `bus`
/// over the masters' request/ack pairs (index 0 is the highest priority)
/// and adds it to `spec` as a server leaf named `Arbiter_{bus}` unless
/// taken. Returns the new behavior's id.
///
/// # Panics
///
/// Panics if `reqacks` has fewer than two masters — a single-master bus
/// needs no arbiter (callers check [`Bus::needs_arbiter`]).
///
/// [`Bus::needs_arbiter`]: crate::arch::Bus::needs_arbiter
pub fn make_arbiter(spec: &mut Spec, bus: &str, reqacks: &[ReqAck]) -> BehaviorId {
    assert!(reqacks.len() >= 2, "arbiter requires at least two masters");

    // wait until (req_0 == 1 || req_1 == 1 || ...)
    let any_request = reqacks
        .iter()
        .map(|ra| expr::eq(expr::signal(ra.req), expr::lit(1)))
        .reduce(expr::or)
        .expect("at least two masters");

    // Priority grant chain: if req_0 {grant 0} else if req_1 {grant 1} ...
    let grant = |ra: &ReqAck| -> Vec<Stmt> {
        vec![
            stmt::set_signal(ra.ack, expr::lit(1)),
            stmt::wait_until(expr::eq(expr::signal(ra.req), expr::lit(0))),
            stmt::set_signal(ra.ack, expr::lit(0)),
        ]
    };
    let mut chain: Vec<Stmt> = grant(reqacks.last().expect("non-empty"));
    for ra in reqacks.iter().rev().skip(1) {
        let cond: Expr = expr::eq(expr::signal(ra.req), expr::lit(1));
        chain = vec![stmt::if_else(cond, grant(ra), chain)];
    }

    let mut body = vec![stmt::wait_until(any_request)];
    body.extend(chain);
    let name = spec.fresh_behavior_name(&format!("Arbiter_{bus}"));
    spec.add_behavior(Behavior::new_server(
        name,
        BehaviorKind::Leaf {
            body: vec![stmt::infinite_loop(body)],
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_sim::Simulator;
    use modref_spec::builder::SpecBuilder;

    /// Three masters contend; the arbiter serializes all transactions and
    /// priority 0 wins ties. We verify mutual exclusion by having each
    /// grant holder check a shared "owner" variable stays theirs.
    #[test]
    fn three_master_arbiter_grants_exclusively() {
        let mut b = SpecBuilder::new("arb3");
        let owner = b.var_int("owner", 16, -1);
        let clashes = b.var_int("clashes", 16, 0);
        let m: Vec<_> = (0..3).map(|i| b.leaf(format!("M{i}"), vec![])).collect();
        let top = b.concurrent("Main", m.clone());
        let mut spec = b.finish_unchecked(top);

        let ras: Vec<ReqAck> = (0..3).map(|i| ReqAck::create(&mut spec, "b1", i)).collect();
        let arb = make_arbiter(&mut spec, "b1", &ras);
        assert!(spec.behavior(arb).is_server());

        for (i, (&mid, ra)) in m.iter().zip(&ras).enumerate() {
            let body = vec![
                // acquire
                stmt::set_signal(ra.req, expr::lit(1)),
                stmt::wait_until(expr::eq(expr::signal(ra.ack), expr::lit(1))),
                // critical section: claim ownership, yield time, verify.
                stmt::assign(owner, expr::lit(i as i64)),
                stmt::delay(5),
                stmt::if_then(
                    expr::ne(expr::var(owner), expr::lit(i as i64)),
                    vec![stmt::assign(
                        clashes,
                        expr::add(expr::var(clashes), expr::lit(1)),
                    )],
                ),
                // release
                stmt::set_signal(ra.req, expr::lit(0)),
                stmt::wait_until(expr::eq(expr::signal(ra.ack), expr::lit(0))),
            ];
            *spec.behavior_mut(mid).body_mut().unwrap() = body;
        }

        let system = spec.add_behavior(modref_spec::Behavior::new(
            "System",
            modref_spec::BehaviorKind::Concurrent {
                children: vec![spec.behavior_by_name("Main").unwrap(), arb],
            },
        ));
        spec.set_top(system);
        modref_spec::validate::check(&spec).unwrap();

        let r = Simulator::new(&spec).run().expect("completes");
        assert_eq!(
            r.var_by_name("clashes"),
            Some(0),
            "mutual exclusion violated"
        );
    }

    #[test]
    #[should_panic(expected = "at least two masters")]
    fn single_master_arbiter_is_rejected() {
        let mut b = SpecBuilder::new("arb1");
        let leaf = b.leaf("L", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let mut spec = b.finish_unchecked(top);
        let ra = ReqAck::create(&mut spec, "b1", 0);
        make_arbiter(&mut spec, "b1", &[ra]);
    }

    #[test]
    fn generated_name_is_fresh() {
        let mut b = SpecBuilder::new("arbname");
        let leaf = b.leaf("Arbiter_b1", vec![]); // collide on purpose
        let top = b.seq_in_order("Top", vec![leaf]);
        let mut spec = b.finish_unchecked(top);
        let ras = vec![
            ReqAck::create(&mut spec, "b1", 0),
            ReqAck::create(&mut spec, "b1", 1),
        ];
        let arb = make_arbiter(&mut spec, "b1", &ras);
        assert_eq!(spec.behavior(arb).name(), "Arbiter_b1_1");
    }
}
