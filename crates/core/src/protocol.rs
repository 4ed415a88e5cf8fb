//! Bus wires and handshake protocol generation — the paper's Figure 5(d).
//!
//! Each bus gets six wires: four control lines (`start`, `done`, `rd`,
//! `wr`), an address bus and a data bus. Masters access memory through
//! `MST_receive`/`MST_send` subroutines encapsulating a four-phase
//! handshake; slaves run a decode-serve loop built by [`slave_loop`].
//! When a bus has several masters, each master's protocol subroutines
//! additionally acquire and release the bus through its private
//! request/acknowledge pair (Figure 7's `Req_i`/`Ack_i`), so one `call`
//! in refined code is one complete arbitrated transaction.

use modref_spec::subroutine::{param_in, param_out, Subroutine};
use modref_spec::{expr, stmt, DataType, Expr, LValue, SignalId, Spec, Stmt, SubroutineId};

/// The six wires of one bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusWires {
    /// Transaction-start control line.
    pub start: SignalId,
    /// Transaction-done control line.
    pub done: SignalId,
    /// Read-request line.
    pub rd: SignalId,
    /// Write-request line.
    pub wr: SignalId,
    /// Address lines.
    pub addr: SignalId,
    /// Data lines.
    pub data: SignalId,
}

impl BusWires {
    /// Declares the wires for bus `bus` in `spec`, named `{bus}_start`
    /// and so on unless `spec` already uses a name.
    pub fn create(spec: &mut Spec, bus: &str, addr_bits: u32, data_bits: u32) -> Self {
        let bit = DataType::Bit;
        let mut wire = |suffix: &str, ty| add_fresh_signal(spec, &format!("{bus}_{suffix}"), ty);
        Self {
            start: wire("start", bit),
            done: wire("done", bit),
            rd: wire("rd", bit),
            wr: wire("wr", bit),
            addr: wire("addr", DataType::uint(addr_bits as u16)),
            data: wire("data", DataType::int(data_bits as u16)),
        }
    }
}

/// Declares a zero-initialised signal under a fresh name based on `base`.
pub(crate) fn add_fresh_signal(spec: &mut Spec, base: &str, ty: DataType) -> SignalId {
    let name = spec.fresh_signal_name(base);
    spec.add_signal(name, ty, 0)
}

/// A master's private request/acknowledge pair on an arbitrated bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqAck {
    /// Request line (master drives).
    pub req: SignalId,
    /// Acknowledge line (arbiter drives).
    pub ack: SignalId,
}

impl ReqAck {
    /// Declares a request/ack pair for master slot `slot` of bus `bus`,
    /// named `{bus}_req_{slot}`/`{bus}_ack_{slot}` unless taken.
    pub fn create(spec: &mut Spec, bus: &str, slot: usize) -> Self {
        Self {
            req: add_fresh_signal(spec, &format!("{bus}_req_{slot}"), DataType::Bit),
            ack: add_fresh_signal(spec, &format!("{bus}_ack_{slot}"), DataType::Bit),
        }
    }
}

fn acquire_stmts(ra: ReqAck) -> Vec<Stmt> {
    vec![
        stmt::set_signal(ra.req, expr::lit(1)),
        stmt::wait_until(expr::eq(expr::signal(ra.ack), expr::lit(1))),
    ]
}

fn release_stmts(ra: ReqAck) -> Vec<Stmt> {
    vec![
        stmt::set_signal(ra.req, expr::lit(0)),
        stmt::wait_until(expr::eq(expr::signal(ra.ack), expr::lit(0))),
    ]
}

/// Builds the `MST_receive` subroutine for a bus: read the word at the
/// `addr` parameter into the `data` out-parameter. `suffix` distinguishes
/// per-master variants on arbitrated buses; `arb` supplies the master's
/// req/ack pair when the bus has an arbiter.
pub fn make_mst_receive(
    spec: &mut Spec,
    bus: &str,
    wires: BusWires,
    addr_bits: u32,
    data_bits: u32,
    suffix: &str,
    arb: Option<ReqAck>,
) -> SubroutineId {
    let mut body = Vec::new();
    if let Some(ra) = arb {
        body.extend(acquire_stmts(ra));
    }
    body.extend([
        stmt::set_signal(wires.addr, expr::param("addr")),
        stmt::set_signal(wires.rd, expr::lit(1)),
        stmt::set_signal(wires.start, expr::lit(1)),
        stmt::wait_until(expr::eq(expr::signal(wires.done), expr::lit(1))),
        Stmt::Assign {
            target: LValue::Param("data".into()),
            value: Expr::Signal(wires.data),
        },
        stmt::set_signal(wires.start, expr::lit(0)),
        stmt::set_signal(wires.rd, expr::lit(0)),
        stmt::wait_until(expr::eq(expr::signal(wires.done), expr::lit(0))),
    ]);
    if let Some(ra) = arb {
        body.extend(release_stmts(ra));
    }
    spec.add_subroutine(Subroutine::new(
        spec.fresh_subroutine_name(&format!("MST_receive_{bus}{suffix}")),
        vec![
            param_in("addr", DataType::uint(addr_bits as u16)),
            param_out("data", DataType::int(data_bits as u16)),
        ],
        body,
    ))
}

/// Builds the `MST_send` subroutine for a bus: write the `data` parameter
/// to the word at the `addr` parameter.
pub fn make_mst_send(
    spec: &mut Spec,
    bus: &str,
    wires: BusWires,
    addr_bits: u32,
    data_bits: u32,
    suffix: &str,
    arb: Option<ReqAck>,
) -> SubroutineId {
    let mut body = Vec::new();
    if let Some(ra) = arb {
        body.extend(acquire_stmts(ra));
    }
    body.extend([
        stmt::set_signal(wires.addr, expr::param("addr")),
        stmt::set_signal(wires.data, expr::param("data")),
        stmt::set_signal(wires.wr, expr::lit(1)),
        stmt::set_signal(wires.start, expr::lit(1)),
        stmt::wait_until(expr::eq(expr::signal(wires.done), expr::lit(1))),
        stmt::set_signal(wires.start, expr::lit(0)),
        stmt::set_signal(wires.wr, expr::lit(0)),
        stmt::wait_until(expr::eq(expr::signal(wires.done), expr::lit(0))),
    ]);
    if let Some(ra) = arb {
        body.extend(release_stmts(ra));
    }
    spec.add_subroutine(Subroutine::new(
        spec.fresh_subroutine_name(&format!("MST_send_{bus}{suffix}")),
        vec![
            param_in("addr", DataType::uint(addr_bits as u16)),
            param_in("data", DataType::int(data_bits as u16)),
        ],
        body,
    ))
}

/// Builds the slave-side `SLV_send` subroutine for a bus: drive the data
/// lines with the `value` parameter — the paper's Figure 5(d) slave half
/// of a read transaction. (The start/done handshake lives in the serve
/// loop, which brackets the whole request.)
pub fn make_slv_send(spec: &mut Spec, bus: &str, wires: BusWires, data_bits: u32) -> SubroutineId {
    spec.add_subroutine(Subroutine::new(
        spec.fresh_subroutine_name(&format!("SLV_send_{bus}")),
        vec![param_in("value", DataType::int(data_bits as u16))],
        vec![stmt::set_signal(wires.data, expr::param("value"))],
    ))
}

/// Builds the slave-side `SLV_receive` subroutine for a bus: latch the
/// data lines into the `value` out-parameter — the slave half of a write
/// transaction.
pub fn make_slv_receive(
    spec: &mut Spec,
    bus: &str,
    wires: BusWires,
    data_bits: u32,
) -> SubroutineId {
    spec.add_subroutine(Subroutine::new(
        spec.fresh_subroutine_name(&format!("SLV_receive_{bus}")),
        vec![param_out("value", DataType::int(data_bits as u16))],
        vec![Stmt::Assign {
            target: LValue::Param("value".into()),
            value: Expr::Signal(wires.data),
        }],
    ))
}

/// Builds a slave's serve loop: wait for a transaction whose address this
/// slave decodes (`decode` over the bus wires), run `on_request`
/// (typically an `if rd {...} if wr {...}` pair), complete the four-phase
/// handshake, repeat forever.
pub fn slave_loop(wires: BusWires, decode: Option<Expr>, on_request: Vec<Stmt>) -> Vec<Stmt> {
    let started = expr::eq(expr::signal(wires.start), expr::lit(1));
    let guard = match decode {
        Some(d) => expr::and(started, d),
        None => started,
    };
    let mut body = vec![stmt::wait_until(guard)];
    body.extend(on_request);
    body.extend([
        stmt::set_signal(wires.done, expr::lit(1)),
        stmt::wait_until(expr::eq(expr::signal(wires.start), expr::lit(0))),
        stmt::set_signal(wires.done, expr::lit(0)),
    ]);
    vec![stmt::infinite_loop(body)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_sim::Simulator;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::stmt::CallArg;

    /// End-to-end protocol check: a master reads and writes one word of a
    /// one-variable memory over generated wires and subroutines.
    #[test]
    fn master_and_slave_complete_a_read_and_write() {
        let mut b = SpecBuilder::new("proto");
        let got = b.var_int("got", 16, 0);
        let client = b.leaf("Client", vec![]);
        let top = b.seq_in_order("Main", vec![client]);
        let mut spec = b.finish_unchecked(top);

        let wires = BusWires::create(&mut spec, "b1", 4, 16);
        let recv = make_mst_receive(&mut spec, "b1", wires, 4, 16, "", None);
        let send = make_mst_send(&mut spec, "b1", wires, 4, 16, "", None);

        // Memory with one word `x` at address 0, initial value 7.
        let mem_behavior = spec.add_behavior(modref_spec::Behavior::new_server(
            "Memory",
            modref_spec::BehaviorKind::Leaf { body: vec![] },
        ));
        let x = spec.add_variable("x", DataType::int(16), 7, Some(mem_behavior));
        let serve = vec![
            stmt::if_then(
                expr::eq(expr::signal(wires.rd), expr::lit(1)),
                vec![stmt::set_signal(wires.data, expr::var(x))],
            ),
            stmt::if_then(
                expr::eq(expr::signal(wires.wr), expr::lit(1)),
                vec![stmt::assign(x, expr::signal(wires.data))],
            ),
        ];
        *spec.behavior_mut(mem_behavior).body_mut().unwrap() = slave_loop(wires, None, serve);

        // Client: got := mem[0]; mem[0] := got * 6.
        *spec.behavior_mut(client).body_mut().unwrap() = vec![
            stmt::call(
                recv,
                vec![CallArg::In(expr::lit(0)), CallArg::Out(LValue::Var(got))],
            ),
            stmt::call(
                send,
                vec![
                    CallArg::In(expr::lit(0)),
                    CallArg::In(expr::mul(expr::var(got), expr::lit(6))),
                ],
            ),
        ];

        let system = spec.add_behavior(modref_spec::Behavior::new(
            "System",
            modref_spec::BehaviorKind::Concurrent {
                children: vec![top, mem_behavior],
            },
        ));
        spec.set_top(system);
        modref_spec::validate::check(&spec).unwrap();

        let r = Simulator::new(&spec).run().expect("protocol completes");
        assert_eq!(r.var_by_name("got"), Some(7));
        assert_eq!(r.var_by_name("x"), Some(42));
    }

    /// Two concurrent masters with arbitration: the bus is serialized so
    /// transfers never tear; the final value is one reachable by a serial
    /// interleaving of the two masters' read-modify-write transactions.
    #[test]
    fn arbitrated_masters_never_tear_transfers() {
        let mut b = SpecBuilder::new("arb");
        let t0 = b.var_int("t0", 16, 0);
        let t1 = b.var_int("t1", 16, 0);
        let m0 = b.leaf("M0", vec![]);
        let m1 = b.leaf("M1", vec![]);
        let top = b.concurrent("Main", vec![m0, m1]);
        let mut spec = b.finish_unchecked(top);

        let wires = BusWires::create(&mut spec, "b1", 4, 16);
        let ra0 = ReqAck::create(&mut spec, "b1", 0);
        let ra1 = ReqAck::create(&mut spec, "b1", 1);
        let recv0 = make_mst_receive(&mut spec, "b1", wires, 4, 16, "_m0", Some(ra0));
        let send0 = make_mst_send(&mut spec, "b1", wires, 4, 16, "_m0", Some(ra0));
        let recv1 = make_mst_receive(&mut spec, "b1", wires, 4, 16, "_m1", Some(ra1));
        let send1 = make_mst_send(&mut spec, "b1", wires, 4, 16, "_m1", Some(ra1));

        let mem_behavior = spec.add_behavior(modref_spec::Behavior::new_server(
            "Memory",
            modref_spec::BehaviorKind::Leaf { body: vec![] },
        ));
        let x = spec.add_variable("x", DataType::int(16), 0, Some(mem_behavior));
        let serve = vec![
            stmt::if_then(
                expr::eq(expr::signal(wires.rd), expr::lit(1)),
                vec![stmt::set_signal(wires.data, expr::var(x))],
            ),
            stmt::if_then(
                expr::eq(expr::signal(wires.wr), expr::lit(1)),
                vec![stmt::assign(x, expr::signal(wires.data))],
            ),
        ];
        *spec.behavior_mut(mem_behavior).body_mut().unwrap() = slave_loop(wires, None, serve);

        // Priority arbiter for two masters (the Figure 7 shape).
        let arb_behavior = spec.add_behavior(modref_spec::Behavior::new_server(
            "Arbiter_b1",
            modref_spec::BehaviorKind::Leaf {
                body: vec![stmt::infinite_loop(vec![
                    stmt::wait_until(expr::or(
                        expr::eq(expr::signal(ra0.req), expr::lit(1)),
                        expr::eq(expr::signal(ra1.req), expr::lit(1)),
                    )),
                    stmt::if_else(
                        expr::eq(expr::signal(ra0.req), expr::lit(1)),
                        vec![
                            stmt::set_signal(ra0.ack, expr::lit(1)),
                            stmt::wait_until(expr::eq(expr::signal(ra0.req), expr::lit(0))),
                            stmt::set_signal(ra0.ack, expr::lit(0)),
                        ],
                        vec![
                            stmt::set_signal(ra1.ack, expr::lit(1)),
                            stmt::wait_until(expr::eq(expr::signal(ra1.req), expr::lit(0))),
                            stmt::set_signal(ra1.ack, expr::lit(0)),
                        ],
                    ),
                ])],
            },
        ));

        // Each master: read x, add its amount, write back — twice.
        let master_body = |recv: SubroutineId, send: SubroutineId, tmp, amount: i64| {
            let mut v = Vec::new();
            for _ in 0..2 {
                v.push(stmt::call(
                    recv,
                    vec![CallArg::In(expr::lit(0)), CallArg::Out(LValue::Var(tmp))],
                ));
                v.push(stmt::call(
                    send,
                    vec![
                        CallArg::In(expr::lit(0)),
                        CallArg::In(expr::add(expr::var(tmp), expr::lit(amount))),
                    ],
                ));
            }
            v
        };
        *spec.behavior_mut(m0).body_mut().unwrap() = master_body(recv0, send0, t0, 1);
        *spec.behavior_mut(m1).body_mut().unwrap() = master_body(recv1, send1, t1, 10);

        let system = spec.add_behavior(modref_spec::Behavior::new(
            "System",
            modref_spec::BehaviorKind::Concurrent {
                children: vec![top, mem_behavior, arb_behavior],
            },
        ));
        spec.set_top(system);
        modref_spec::validate::check(&spec).unwrap();

        let r = Simulator::new(&spec).run().expect("completes");
        // With lost-update (but never torn) semantics, the reachable
        // final values of x are sums a*1 + b*10 with 1 <= a <= 2 and
        // 1 <= b <= 2, or a single master's contribution fully shadowed.
        let x = r.var_by_name("x").unwrap();
        let feasible = [1, 2, 10, 11, 12, 20, 21, 22];
        assert!(feasible.contains(&x), "x = {x} not a serial outcome");
    }
}
