//! Data types for variables, signals and subroutine parameters.
//!
//! The type system deliberately mirrors the small VHDL subset SpecCharts
//! leaf behaviors use: single bits, booleans, fixed-width signed/unsigned
//! integers, and one-dimensional arrays thereof. Bit-widths matter: the
//! refinement engine sizes memories and the estimator computes channel
//! transfer rates in bits from them.

use std::fmt;

/// The type of a [`Variable`](crate::Variable), [`Signal`](crate::Signal)
/// or subroutine parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// A single wire; values 0 or 1. The usual type for handshake signals.
    Bit,
    /// A boolean; stored as one bit.
    Bool,
    /// A signed two's-complement integer of the given width in bits.
    Int {
        /// Width in bits, 1..=64.
        width: u16,
    },
    /// An unsigned integer of the given width in bits.
    Uint {
        /// Width in bits, 1..=64.
        width: u16,
    },
    /// A one-dimensional array of scalar elements.
    Array {
        /// Element type. Arrays of arrays are not supported, so this is a
        /// scalar described by the same enum (Bit/Bool/Int/Uint).
        elem: ScalarType,
        /// Number of elements.
        len: u32,
    },
}

/// A scalar element type, used inside [`DataType::Array`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// Single bit.
    Bit,
    /// Boolean.
    Bool,
    /// Signed integer of the given bit width.
    Int(u16),
    /// Unsigned integer of the given bit width.
    Uint(u16),
}

impl ScalarType {
    /// Width in bits of one element of this scalar type.
    pub fn bit_width(self) -> u32 {
        match self {
            ScalarType::Bit | ScalarType::Bool => 1,
            ScalarType::Int(w) | ScalarType::Uint(w) => u32::from(w),
        }
    }

    /// Whether the scalar is a signed integer.
    pub fn is_signed(self) -> bool {
        matches!(self, ScalarType::Int(_))
    }

    /// The inclusive range of representable values: the range the
    /// simulator wraps stores into, the way fixed-width hardware registers
    /// do. Values are `i64`, so `uint<64>` keeps 63 bits.
    pub fn value_range(self) -> (i64, i64) {
        match self {
            ScalarType::Bit | ScalarType::Bool => (0, 1),
            ScalarType::Int(w) if w >= 64 => (i64::MIN, i64::MAX),
            ScalarType::Int(w) => {
                let w = u32::from(w);
                (-(1i64 << (w - 1)), (1i64 << (w - 1)) - 1)
            }
            ScalarType::Uint(w) => (0, i64::MAX >> (63 - u32::from(w).min(63))),
        }
    }
}

impl DataType {
    /// Convenience constructor for a signed integer type.
    pub fn int(width: u16) -> Self {
        DataType::Int { width }
    }

    /// Convenience constructor for an unsigned integer type.
    pub fn uint(width: u16) -> Self {
        DataType::Uint { width }
    }

    /// Convenience constructor for an array type.
    pub fn array(elem: ScalarType, len: u32) -> Self {
        DataType::Array { elem, len }
    }

    /// Total storage width in bits. For arrays this is `len * elem_width`;
    /// this is the size a memory module must reserve for a variable of this
    /// type and the amount of data one whole-variable transfer moves. It is
    /// a `u64`: an array of up to `u32::MAX` elements of up to 65,535 bits
    /// each overflows `u32`.
    pub fn bit_width(&self) -> u64 {
        match *self {
            DataType::Array { elem, len } => u64::from(elem.bit_width()) * u64::from(len),
            _ => u64::from(self.access_width()),
        }
    }

    /// Width in bits of a single *access* to this type. For scalars this is
    /// the full width; for arrays it is one element, because leaf behaviors
    /// read and write arrays element-wise.
    pub fn access_width(&self) -> u32 {
        self.access_scalar().bit_width()
    }

    /// The scalar type of one access (the element type for arrays, the type
    /// itself for scalars).
    pub fn access_scalar(&self) -> ScalarType {
        match *self {
            DataType::Bit => ScalarType::Bit,
            DataType::Bool => ScalarType::Bool,
            DataType::Int { width } => ScalarType::Int(width),
            DataType::Uint { width } => ScalarType::Uint(width),
            DataType::Array { elem, .. } => elem,
        }
    }

    /// Whether this is an array type.
    pub fn is_array(&self) -> bool {
        matches!(self, DataType::Array { .. })
    }

    /// Number of addressable elements: `1` for scalars, `len` for arrays.
    pub fn element_count(&self) -> u32 {
        match *self {
            DataType::Array { len, .. } => len,
            _ => 1,
        }
    }
}

impl From<ScalarType> for DataType {
    /// The scalar as a variable type: the type of one array element.
    fn from(scalar: ScalarType) -> Self {
        match scalar {
            ScalarType::Bit => DataType::Bit,
            ScalarType::Bool => DataType::Bool,
            ScalarType::Int(width) => DataType::Int { width },
            ScalarType::Uint(width) => DataType::Uint { width },
        }
    }
}

impl Default for DataType {
    fn default() -> Self {
        DataType::Int { width: 16 }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScalarType::Bit => write!(f, "bit"),
            ScalarType::Bool => write!(f, "bool"),
            ScalarType::Int(w) => write!(f, "int<{w}>"),
            ScalarType::Uint(w) => write!(f, "uint<{w}>"),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DataType::Bit => write!(f, "bit"),
            DataType::Bool => write!(f, "bool"),
            DataType::Int { width } => write!(f, "int<{width}>"),
            DataType::Uint { width } => write!(f, "uint<{width}>"),
            DataType::Array { elem, len } => write!(f, "{elem}[{len}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_widths() {
        assert_eq!(DataType::Bit.bit_width(), 1);
        assert_eq!(DataType::Bool.bit_width(), 1);
        assert_eq!(DataType::int(16).bit_width(), 16);
        assert_eq!(DataType::uint(9).bit_width(), 9);
    }

    #[test]
    fn array_width_is_len_times_elem() {
        let t = DataType::array(ScalarType::Int(8), 32);
        assert_eq!(t.bit_width(), 256);
        assert_eq!(t.access_width(), 8);
        assert_eq!(t.element_count(), 32);
        assert!(t.is_array());
    }

    #[test]
    fn access_width_of_scalar_is_full_width() {
        assert_eq!(DataType::int(12).access_width(), 12);
        assert_eq!(DataType::int(12).element_count(), 1);
    }

    #[test]
    fn scalars_convert_back_from_their_access_scalar() {
        for t in [
            DataType::Bit,
            DataType::Bool,
            DataType::int(12),
            DataType::uint(3),
        ] {
            assert_eq!(DataType::from(t.access_scalar()), t);
        }
        assert_eq!(
            DataType::from(DataType::array(ScalarType::Uint(4), 10).access_scalar()),
            DataType::uint(4)
        );
    }

    #[test]
    fn value_ranges_wrap_like_registers() {
        assert_eq!(ScalarType::Int(8).value_range(), (-128, 127));
        assert_eq!(ScalarType::Uint(8).value_range(), (0, 255));
        assert_eq!(ScalarType::Bit.value_range(), (0, 1));
        assert_eq!(ScalarType::Int(64).value_range(), (i64::MIN, i64::MAX));
        assert_eq!(ScalarType::Uint(64).value_range(), (0, i64::MAX));
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(DataType::int(16).to_string(), "int<16>");
        assert_eq!(
            DataType::array(ScalarType::Uint(4), 10).to_string(),
            "uint<4>[10]"
        );
        assert_eq!(DataType::Bit.to_string(), "bit");
    }

    #[test]
    fn signedness() {
        assert!(ScalarType::Int(4).is_signed());
        assert!(!ScalarType::Uint(4).is_signed());
        assert!(!ScalarType::Bit.is_signed());
    }
}
