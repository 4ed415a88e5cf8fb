//! Emission: resolve label-form code to absolute program counters and
//! assemble the final [`CompiledSpec`].
//!
//! Lowering emits code append-only, so every instruction's own address
//! is final; only forward-referenced *targets* (in `Jump`/`JumpIfZero`
//! pc fields and in the side tables' `end`/`entry`/transition pcs) hold
//! label ids. This pass patches each of them through the label table.

use super::lower::Lowered;
use super::{CompiledSpec, Instr, Pc};

/// Resolves `lowered`'s labels and assembles the executable program.
///
/// # Panics
///
/// Panics on an unbound label — a lowering bug, not an input condition:
/// every label is created and bound within one construct's emission.
pub(crate) fn emit(lowered: Lowered) -> CompiledSpec {
    let Lowered {
        mut code,
        labels,
        pool,
        terms,
        names,
        waits,
        mut fors,
        mut calls,
        mut trans,
        groups,
        entries,
    } = lowered;

    let resolve = |l: Pc| -> Pc {
        let pc = labels[l as usize];
        assert_ne!(pc, Pc::MAX, "unbound label {l}");
        pc
    };

    for instr in &mut code {
        match instr {
            Instr::Jump(to) | Instr::JumpIfZero { to, .. } => *to = resolve(*to),
            _ => {}
        }
    }
    for site in &mut fors {
        site.end = resolve(site.end);
    }
    for site in &mut calls {
        site.entry = resolve(site.entry);
    }
    for site in &mut trans {
        for (_, action) in site.arcs.iter_mut() {
            action.pc = resolve(action.pc);
        }
        site.default.pc = resolve(site.default.pc);
    }

    CompiledSpec {
        code,
        pool,
        terms,
        names,
        waits,
        fors,
        calls,
        trans,
        groups,
        entries,
    }
}
