//! Runtime values and fixed-width wrapping.
//!
//! All scalars simulate as `i64`, wrapped into the declared type's range
//! on every store — the way fixed-width registers behave in hardware and
//! the way the refined specification's memory modules store data.

use modref_spec::types::ScalarType;
use modref_spec::DataType;

/// Storage for one variable: a scalar slot or an array of element slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Storage {
    /// A scalar value.
    Scalar(i64),
    /// Array element values.
    Array(Vec<i64>),
}

impl Storage {
    /// Initializes storage for a variable of type `ty` with initial value
    /// `init` (replicated across array elements).
    pub fn init(ty: &DataType, init: i64) -> Self {
        match ty {
            DataType::Array { len, elem } => {
                Storage::Array(vec![wrap_scalar(init, *elem); *len as usize])
            }
            _ => Storage::Scalar(wrap_scalar(init, ty.access_scalar())),
        }
    }

    /// Reads the scalar value.
    ///
    /// # Panics
    ///
    /// Panics if this storage is an array (the validator rejects unindexed
    /// array reads).
    pub fn scalar(&self) -> i64 {
        match self {
            Storage::Scalar(v) => *v,
            Storage::Array(_) => panic!("array storage read as scalar"),
        }
    }
}

/// Wraps `v` into the representable range of `ty` with two's-complement
/// semantics.
///
/// Values are `i64`, so `int<64>` stores every value unchanged, while
/// `uint<64>` keeps 63 bits: its range is `0..=i64::MAX`, and a negative
/// value wraps to its low 63 bits.
pub fn wrap_scalar(v: i64, ty: ScalarType) -> i64 {
    match ty {
        ScalarType::Bit | ScalarType::Bool => i64::from(v != 0),
        // Unsigned widths cap at 63 bits: the mask shifts `i64::MAX` down.
        ScalarType::Uint(w) => {
            let w = u32::from(w).min(63);
            v & (i64::MAX >> (63 - w))
        }
        ScalarType::Int(w) if w >= 64 => v,
        // Below 64 bits `1 << w` fits and the sign extension wraps.
        ScalarType::Int(w) => {
            let w = u32::from(w);
            let masked = v & (i64::MAX >> (63 - w));
            let sign_bit = 1i64 << (w - 1);
            if masked & sign_bit != 0 {
                masked.wrapping_sub(1i64 << w)
            } else {
                masked
            }
        }
    }
}

/// Truth of a simulated value: non-zero is true.
pub fn truthy(v: i64) -> bool {
    v != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_wraps_modulo() {
        assert_eq!(wrap_scalar(256, ScalarType::Uint(8)), 0);
        assert_eq!(wrap_scalar(257, ScalarType::Uint(8)), 1);
        assert_eq!(wrap_scalar(-1, ScalarType::Uint(8)), 255);
    }

    #[test]
    fn int_wraps_twos_complement() {
        assert_eq!(wrap_scalar(128, ScalarType::Int(8)), -128);
        assert_eq!(wrap_scalar(127, ScalarType::Int(8)), 127);
        assert_eq!(wrap_scalar(-129, ScalarType::Int(8)), 127);
        assert_eq!(wrap_scalar(255, ScalarType::Int(8)), -1);
    }

    #[test]
    fn wide_int_sign_extends_without_overflow() {
        // `uint<64>` caps at 63 bits and `int<64>` is the identity; no
        // width may overflow or panic.
        assert_eq!(wrap_scalar(-1, ScalarType::Uint(64)), i64::MAX);
        assert_eq!(wrap_scalar(1 << 62, ScalarType::Int(64)), 1 << 62);
        assert_eq!(wrap_scalar(i64::MIN, ScalarType::Int(64)), i64::MIN);
        assert_eq!(wrap_scalar(i64::MAX, ScalarType::Int(64)), i64::MAX);
        assert_eq!(wrap_scalar(-1, ScalarType::Int(64)), -1);
        assert_eq!(wrap_scalar(1 << 62, ScalarType::Int(63)), -(1 << 62));
        assert_eq!(wrap_scalar(i64::MIN, ScalarType::Int(63)), 0);
    }

    #[test]
    fn bit_collapses_to_zero_one() {
        assert_eq!(wrap_scalar(5, ScalarType::Bit), 1);
        assert_eq!(wrap_scalar(0, ScalarType::Bool), 0);
        assert_eq!(wrap_scalar(-3, ScalarType::Bit), 1);
    }

    #[test]
    fn storage_init_replicates_arrays() {
        let s = Storage::init(&DataType::array(ScalarType::Int(8), 3), 7);
        assert_eq!(s, Storage::Array(vec![7, 7, 7]));
        let s = Storage::init(&DataType::int(8), 300);
        assert_eq!(s.scalar(), 44); // 300 wrapped to int<8>
    }

    #[test]
    fn truthiness() {
        assert!(truthy(1));
        assert!(truthy(-1));
        assert!(!truthy(0));
    }
}
