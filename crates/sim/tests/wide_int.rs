//! 64-bit stores: `int<64>` holds every `i64` unchanged, and `uint<64>`
//! keeps its low 63 bits, identically on all three kernels.

use modref_sim::{SimConfig, SimKernel, SimResult, Simulator};

const KERNELS: [SimKernel; 3] = [
    SimKernel::EventDriven,
    SimKernel::RoundRobin,
    SimKernel::Compiled,
];

fn run(text: &str, kernel: SimKernel) -> SimResult {
    let spec = modref_spec::parser::parse(text).expect("spec parses");
    Simulator::with_config(
        &spec,
        SimConfig {
            kernel,
            ..SimConfig::default()
        },
    )
    .run()
    .expect("simulation completes")
}

#[test]
fn wide_int_store_is_the_identity_on_every_kernel() {
    // 2^62 is the sign bit of a 63-bit register: a store that capped
    // `int<64>` at 63 bits read it back as -2^62.
    let text = "spec wide;\n\
        var x : int<64> = 0;\n\
        var m : int<64> = 0;\n\
        var a : int<64>[2] = 0;\n\
        var u : uint<64> = 0;\n\
        signal s : int<64> = 0;\n\
        behavior L leaf {\n\
          x := 4611686018427387904;\n\
          m := 0 - 9223372036854775807 - 1;\n\
          a[1] := x + x - 1;\n\
          set s := x;\n\
          u := 0 - 1;\n\
        }\n\
        behavior T seq { children { L; } }\n\
        top T;\n";
    for kernel in KERNELS {
        let r = run(text, kernel);
        let k = kernel.name();
        assert_eq!(r.var_by_name("x"), Some(1 << 62), "{k}");
        assert_eq!(r.var_by_name("m"), Some(i64::MIN), "{k}");
        assert_eq!(r.array_by_name("a"), Some(&[0, i64::MAX][..]), "{k}");
        assert_eq!(r.signal_by_name("s"), Some(1 << 62), "{k}");
        // `uint<64>` keeps 63 bits, because values are `i64`.
        assert_eq!(r.var_by_name("u"), Some(i64::MAX), "{k}");
    }
}

#[test]
fn wide_int_initial_value_is_kept_on_every_kernel() {
    let text = "spec wide_init;\n\
        var x : int<64> = 4611686018427387904;\n\
        var y : int<16> = 0;\n\
        behavior L leaf { y := 1; }\n\
        behavior T seq { children { L; } }\n\
        top T;\n";
    for kernel in KERNELS {
        let r = run(text, kernel);
        assert_eq!(r.var_by_name("x"), Some(1 << 62), "{}", kernel.name());
    }
}
