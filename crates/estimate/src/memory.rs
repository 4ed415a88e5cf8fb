//! Memory sizing and pin estimation.
//!
//! Section 5 of the paper weighs design cost by the number of memories,
//! their sizes, and bus interfaces. These helpers size a memory module
//! from the variables mapped into it and estimate the pins a bus consumes
//! on a component boundary.

use modref_spec::{Spec, VarId};

/// Size in bits of a memory holding the given variables.
pub fn memory_bits(spec: &Spec, vars: &[VarId]) -> u64 {
    vars.iter()
        .map(|&v| spec.variable(v).ty().bit_width())
        .sum()
}

/// Number of addressable words in a memory holding the given variables
/// (each scalar is one word; each array element is one word).
pub fn memory_words(spec: &Spec, vars: &[VarId]) -> u64 {
    vars.iter()
        .map(|&v| u64::from(spec.variable(v).ty().element_count()))
        .sum()
}

/// Width in bits of the address needed to select among `words` words.
pub fn address_width(words: u64) -> u32 {
    if words <= 1 {
        1
    } else {
        64 - (words - 1).leading_zeros()
    }
}

/// Width in bits of the widest single access among the given variables —
/// the data-bus width a memory port must provide.
pub fn data_width(spec: &Spec, vars: &[VarId]) -> u32 {
    vars.iter()
        .map(|&v| spec.variable(v).ty().access_width())
        .max()
        .unwrap_or(0)
}

/// Pins one bus occupies on a component boundary: data + address + the
/// four control lines of the paper's Figure 5(d) handshake
/// (`bus_start`, `bus_done`, `bus_rd`, `bus_wr`).
pub fn bus_pins(data_bits: u32, addr_bits: u32) -> u32 {
    data_bits + addr_bits + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::builder::SpecBuilder;
    use modref_spec::types::{DataType, ScalarType};

    #[test]
    fn sizes_accumulate_over_variables() {
        let mut b = SpecBuilder::new("m");
        let x = b.var_int("x", 16, 0);
        let arr = b.var("a", DataType::array(ScalarType::Int(8), 32), 0);
        let leaf = b.leaf("L", vec![]);
        let top = b.seq_in_order("Top", vec![leaf]);
        let spec = b.finish(top).expect("valid");
        assert_eq!(memory_bits(&spec, &[x, arr]), 16 + 256);
        assert_eq!(memory_words(&spec, &[x, arr]), 1 + 32);
        assert_eq!(data_width(&spec, &[x, arr]), 16);
    }

    #[test]
    fn address_width_is_ceil_log2() {
        assert_eq!(address_width(0), 1);
        assert_eq!(address_width(1), 1);
        assert_eq!(address_width(2), 1);
        assert_eq!(address_width(3), 2);
        assert_eq!(address_width(16), 4);
        assert_eq!(address_width(17), 5);
    }

    #[test]
    fn bus_pins_count_handshake_lines() {
        assert_eq!(bus_pins(16, 4), 24);
        assert_eq!(bus_pins(0, 0), 4);
    }
}
