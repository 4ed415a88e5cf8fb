//! VCD (Value Change Dump, IEEE 1364) export of a recorded
//! [`SimTrace`], loadable in GTKWave/Surfer.
//!
//! The mapping from specification to waveform is deterministic:
//!
//! * one `$scope module <spec name>` holding every variable and signal,
//!   in declaration order — scalar variables as one wire of their
//!   declared bit width, array variables as one wire per element
//!   (`name[i]`), then signals;
//! * identifier codes are assigned in that same declaration order
//!   (base-94 over the printable ASCII range `!`..`~`, the VCD
//!   identifier alphabet);
//! * the header carries a fixed `$version` string and **no** `$date`,
//!   and when the spec has a [`SourceMap`] a `$comment` block maps each
//!   name to its `line:col` declaration site.
//!
//! The same spec and trace therefore always render to the same bytes —
//! CI diffs waveforms against a golden file, and the kernel-equivalence
//! property extends to VCD output.
//!
//! Values are emitted as binary vectors masked to the declared width
//! (two's-complement for signed types, matching
//! [`wrap_scalar`](crate::value::wrap_scalar) storage semantics). Wake
//! events carry no value and are omitted — waveforms show data, the
//! trace's wake events show scheduling.

use std::fmt::Write as _;

use modref_spec::span::SourceMap;
use modref_spec::{DataType, Spec};

use crate::trace::{SimTrace, TraceId};

/// One declared VCD wire: its identifier code, width and initial value.
struct Wire {
    code: String,
    name: String,
    width: u32,
    init: i64,
}

/// The VCD identifier code for declaration index `n`: little-endian
/// base-94 digits over ASCII `!` (33) .. `~` (126).
fn id_code(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(33 + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            return s;
        }
    }
}

/// A value-change record: `value` masked to `width` bits, as an unsigned
/// binary vector with no leading zeros (two's-complement bit pattern for
/// negative values).
fn bin(value: i64, width: u32) -> String {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    format!("{:b}", (value as u64) & mask)
}

/// Builds the wire table in declaration order: scalar variables, array
/// elements, then signals. Returns the wires plus, for each variable,
/// the index of its first wire (`var_base`) and the signal section's
/// offset (`sig_base`).
fn wires(spec: &Spec) -> (Vec<Wire>, Vec<usize>, usize) {
    let mut out: Vec<Wire> = Vec::new();
    let mut var_base: Vec<usize> = Vec::with_capacity(spec.variable_count());
    for (_, v) in spec.variables() {
        var_base.push(out.len());
        match v.ty() {
            DataType::Array { elem, len } => {
                for i in 0..*len {
                    out.push(Wire {
                        code: id_code(out.len()),
                        name: format!("{}[{i}]", v.name()),
                        width: elem.bit_width(),
                        init: crate::value::wrap_scalar(v.init(), *elem),
                    });
                }
            }
            ty => {
                let scalar = ty.access_scalar();
                out.push(Wire {
                    code: id_code(out.len()),
                    name: v.name().to_string(),
                    width: scalar.bit_width(),
                    init: crate::value::wrap_scalar(v.init(), scalar),
                });
            }
        }
    }
    let sig_base = out.len();
    for (_, s) in spec.signals() {
        let scalar = s.ty().access_scalar();
        out.push(Wire {
            code: id_code(out.len()),
            name: s.name().to_string(),
            width: scalar.bit_width(),
            init: crate::value::wrap_scalar(s.init(), scalar),
        });
    }
    (out, var_base, sig_base)
}

/// Renders `trace` as a complete VCD document.
///
/// `map` contributes a `$comment` block of declaration sites when
/// non-empty; an empty map (builder-produced specs) omits the block, so
/// output stays byte-stable either way.
pub fn export(spec: &Spec, map: &SourceMap, trace: &SimTrace) -> String {
    let (wires, var_base, sig_base) = wires(spec);
    let mut out = String::new();
    out.push_str("$version modref $end\n$timescale 1ns $end\n");
    if !map.is_empty() {
        let mut lines = String::new();
        for (id, v) in spec.variables() {
            if let Some(sp) = map.variable_span(id) {
                let _ = writeln!(lines, "  {} declared at {sp}", v.name());
            }
        }
        for (id, s) in spec.signals() {
            if let Some(sp) = map.signal_span(id) {
                let _ = writeln!(lines, "  {} declared at {sp}", s.name());
            }
        }
        if !lines.is_empty() {
            let _ = write!(out, "$comment\n{lines}$end\n");
        }
    }
    let _ = writeln!(out, "$scope module {} $end", spec.name());
    for w in &wires {
        let _ = writeln!(out, "$var wire {} {} {} $end", w.width, w.code, w.name);
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n#0\n$dumpvars\n");
    for w in &wires {
        let _ = writeln!(out, "b{} {}", bin(w.init, w.width), w.code);
    }
    out.push_str("$end\n");

    let mut now: u64 = 0;
    for e in &trace.events {
        let wire = match e.id {
            TraceId::Var(v) => var_base.get(v as usize).map(|&b| &wires[b]),
            TraceId::Elem { var, index } => var_base
                .get(var as usize)
                .map(|&b| &wires[b + index as usize]),
            TraceId::Signal(s) => wires.get(sig_base + s as usize),
            TraceId::Wake(_) => None,
        };
        let Some(w) = wire else { continue };
        if e.time != now {
            now = e.time;
            let _ = writeln!(out, "#{now}");
        }
        let _ = writeln!(out, "b{} {}", bin(e.value, w.width), w.code);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{SimConfig, SimKernel, Simulator};
    use modref_spec::builder::SpecBuilder;
    use modref_spec::types::ScalarType;
    use modref_spec::{expr, stmt};

    fn traced(spec: &modref_spec::Spec, kernel: SimKernel) -> SimTrace {
        let config = SimConfig {
            kernel,
            trace: true,
            ..SimConfig::default()
        };
        Simulator::with_config(spec, config)
            .run()
            .expect("runs")
            .trace
            .expect("traced")
    }

    fn sample_spec() -> modref_spec::Spec {
        let mut b = SpecBuilder::new("wave");
        let x = b.var_int("x", 8, 1);
        let arr = b.var(
            "mem",
            modref_spec::DataType::array(ScalarType::Uint(4), 2),
            0,
        );
        let s = b.signal("go", modref_spec::DataType::Bit, 0);
        let a = b.leaf(
            "A",
            vec![
                stmt::assign(x, expr::lit(-1)),
                stmt::assign_index(arr, expr::lit(1), expr::lit(9)),
                stmt::set_signal(s, expr::lit(1)),
                stmt::delay(5),
                stmt::assign(x, expr::lit(3)),
            ],
        );
        let top = b.seq_in_order("Top", vec![a]);
        b.finish(top).expect("valid")
    }

    #[test]
    fn id_codes_cover_multi_char_range() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94).len(), 2);
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            assert!(seen.insert(id_code(n)), "code for {n} not unique");
        }
    }

    #[test]
    fn binary_masks_to_declared_width() {
        assert_eq!(bin(-1, 8), "11111111");
        assert_eq!(bin(0, 8), "0");
        assert_eq!(bin(9, 4), "1001");
        assert_eq!(bin(-1, 64), format!("{:b}", u64::MAX));
    }

    #[test]
    fn export_is_deterministic_and_structured() {
        let spec = sample_spec();
        let map = SourceMap::default();
        let trace = traced(&spec, SimKernel::EventDriven);
        let a = export(&spec, &map, &trace);
        let b = export(&spec, &map, &trace);
        assert_eq!(a, b, "same spec + trace must render to the same bytes");
        assert!(a.starts_with("$version modref $end\n$timescale 1ns $end\n"));
        assert!(!a.contains("$date"), "no $date: output must be byte-stable");
        assert!(a.contains("$scope module wave $end\n"));
        assert!(a.contains("$var wire 8 ! x $end\n"));
        assert!(a.contains("$var wire 4 \" mem[0] $end\n"));
        assert!(a.contains("$var wire 4 # mem[1] $end\n"));
        assert!(a.contains("$var wire 1 $ go $end\n"));
        // x := -1 in int<8> dumps as the 8-bit two's-complement pattern.
        assert!(a.contains("b11111111 !\n"));
        // The delay 5 shows up as a #5 time marker before the final write.
        let time_pos = a.find("#5\n").expect("time marker");
        let final_write = a.rfind("b11 !\n").expect("final x := 3");
        assert!(time_pos < final_write);
    }

    #[test]
    fn export_is_kernel_independent() {
        let spec = sample_spec();
        let map = SourceMap::default();
        let event = export(&spec, &map, &traced(&spec, SimKernel::EventDriven));
        let rr = export(&spec, &map, &traced(&spec, SimKernel::RoundRobin));
        let compiled = export(&spec, &map, &traced(&spec, SimKernel::Compiled));
        assert_eq!(event, rr);
        assert_eq!(event, compiled);
    }

    #[test]
    fn source_map_spans_render_as_comment() {
        let spec = sample_spec();
        let mut map = SourceMap::default();
        let (xid, _) = spec.variables().next().expect("has x");
        map.record_variable(xid, modref_spec::span::Span::new(3, 7));
        let trace = traced(&spec, SimKernel::EventDriven);
        let text = export(&spec, &map, &trace);
        assert!(text.contains("$comment\n  x declared at 3:7\n$end\n"));
    }
}
