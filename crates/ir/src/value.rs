//! Runtime values and array contents shared by the AST interpreter and the
//! execution-driven simulator.

use crate::reg::RegClass;

/// A scalar runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I(i64),
    F(f64),
}

impl Value {
    /// Zero of the given class.
    pub fn zero(class: RegClass) -> Value {
        match class {
            RegClass::Int => Value::I(0),
            RegClass::Flt => Value::F(0.0),
            RegClass::Vec => panic!("vector registers have no scalar value"),
        }
    }

    /// Class of the value.
    pub fn class(self) -> RegClass {
        match self {
            Value::I(_) => RegClass::Int,
            Value::F(_) => RegClass::Flt,
        }
    }

    /// Integer payload (panics on floats).
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => panic!("expected int value, got {v}"),
        }
    }

    /// Raw 64-bit image used by the flat simulated memory.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits(),
        }
    }

    /// Decode a raw 64-bit image as `class`.
    pub fn from_bits(bits: u64, class: RegClass) -> Value {
        match class {
            RegClass::Int => Value::I(bits as i64),
            RegClass::Flt => Value::F(f64::from_bits(bits)),
            RegClass::Vec => panic!("vector registers have no scalar value"),
        }
    }
}

/// Contents of one array.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayVal {
    I(Vec<i64>),
    F(Vec<f64>),
}

impl ArrayVal {
    /// Zero-filled array of `n` elements of `class`.
    pub fn zeros(class: RegClass, n: usize) -> ArrayVal {
        match class {
            RegClass::Int => ArrayVal::I(vec![0; n]),
            RegClass::Flt => ArrayVal::F(vec![0.0; n]),
            // Memory is always scalar-typed; vector ops move groups of
            // consecutive scalar elements.
            RegClass::Vec => panic!("arrays have no vector element class"),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            ArrayVal::I(v) => v.len(),
            ArrayVal::F(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element class.
    pub fn class(&self) -> RegClass {
        match self {
            ArrayVal::I(_) => RegClass::Int,
            ArrayVal::F(_) => RegClass::Flt,
        }
    }

    /// Read element `i`; out-of-range reads return zero (non-excepting).
    pub fn get(&self, i: i64) -> Value {
        if i < 0 || i as usize >= self.len() {
            return Value::zero(self.class());
        }
        match self {
            ArrayVal::I(v) => Value::I(v[i as usize]),
            ArrayVal::F(v) => Value::F(v[i as usize]),
        }
    }

    /// Write element `i`; out-of-range writes are ignored.
    pub fn set(&mut self, i: i64, val: Value) {
        if i < 0 || i as usize >= self.len() {
            return;
        }
        match (self, val) {
            (ArrayVal::I(v), Value::I(x)) => v[i as usize] = x,
            (ArrayVal::F(v), Value::F(x)) => v[i as usize] = x,
            (a, v) => panic!("class mismatch writing {v:?} into {:?} array", a.class()),
        }
    }
}

/// Relative tolerance of a float result against the reference
/// ([`crate::interp::ExecState::compare`]). Expansion transformations
/// reassociate reductions (exactly as the paper's do), so results differ
/// in low-order bits.
pub const FLT_TOL: f64 = 1e-9;

/// Relative difference of two floats, never NaN: 0 when they are equal
/// (`-0.0` and `0.0` included) or both NaN, ∞ when exactly one side is
/// non-finite or they are infinities of opposite sign, else
/// `|x − y| / max(|x|, |y|, 1)`. A NaN here would vanish in the
/// `f64::max` fold the comparator applies and pass any tolerance.
pub fn rel_diff(x: f64, y: f64) -> f64 {
    if x == y || (x.is_nan() && y.is_nan()) {
        0.0
    } else if !x.is_finite() || !y.is_finite() {
        f64::INFINITY
    } else {
        (x - y).abs() / x.abs().max(y.abs()).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let v = Value::F(-3.25);
        assert_eq!(Value::from_bits(v.to_bits(), RegClass::Flt), v);
        let v = Value::I(-7);
        assert_eq!(Value::from_bits(v.to_bits(), RegClass::Int), v);
    }

    #[test]
    fn array_bounds_are_nonexcepting() {
        let mut a = ArrayVal::zeros(RegClass::Flt, 4);
        assert_eq!(a.get(-1), Value::F(0.0));
        assert_eq!(a.get(100), Value::F(0.0));
        a.set(2, Value::F(5.0));
        a.set(100, Value::F(9.0)); // ignored
        assert_eq!(a.get(2), Value::F(5.0));
    }

    #[test]
    fn rel_diff() {
        assert!(super::rel_diff(2.0, 2.0 + 1e-12) < FLT_TOL);
        assert!(super::rel_diff(2.0, 3.0) > 0.3);
    }

    /// NaN and ∞ never pass a tolerance by accident: the old per-element
    /// formula gave NaN for them, which the `f64::max` fold discarded.
    #[test]
    fn rel_diff_of_non_finite_values() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (x, y, want) in [
            (nan, 1.0, f64::INFINITY),
            (1.0, nan, f64::INFINITY),
            (inf, 1.0, f64::INFINITY),
            (-inf, 1.0, f64::INFINITY),
            (inf, -inf, f64::INFINITY),
            (inf, nan, f64::INFINITY),
            (nan, nan, 0.0),
            (inf, inf, 0.0),
            (-inf, -inf, 0.0),
            (-0.0, 0.0, 0.0),
            (-0.0, -0.0, 0.0),
            (2.0, 1.0, 0.5),
        ] {
            assert_eq!(super::rel_diff(x, y), want, "rel_diff({x}, {y})");
        }
    }
}
