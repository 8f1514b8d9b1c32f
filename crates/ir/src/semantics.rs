//! Arithmetic semantics of the modeled machine.
//!
//! One definition shared by the constant folder (`ilpc-opt`) and the
//! simulator's reference oracle (`ilpc_sim::reference`): 64-bit wrapping
//! integer arithmetic, truncating division with `x/0 = x%0 = 0` (the
//! machine's non-excepting divide), shift counts masked to 6 bits, IEEE
//! doubles. The decoded engine computes on raw 64-bit register images
//! with its own copy; a unit test in `ilpc_sim::decoded` holds that copy
//! to these functions, so compile-time evaluation cannot disagree with
//! run-time evaluation.

use crate::op::Opcode;

/// Evaluate an integer ALU/mul/div opcode.
///
/// # Panics
/// Panics if `op` is not an integer computational opcode.
pub fn eval_int(op: Opcode, a: i64, b: i64) -> i64 {
    match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl((b & 63) as u32),
        Opcode::Shr => a.wrapping_shr((b & 63) as u32),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Opcode::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        _ => panic!("eval_int on non-integer opcode {op}"),
    }
}

/// Evaluate a floating point computational opcode.
///
/// # Panics
/// Panics if `op` is not a floating point computational opcode.
pub fn eval_flt(op: Opcode, a: f64, b: f64) -> f64 {
    match op {
        Opcode::FAdd => a + b,
        Opcode::FSub => a - b,
        Opcode::FMul => a * b,
        Opcode::FDiv => a / b,
        _ => panic!("eval_flt on non-float opcode {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_conventions() {
        assert_eq!(eval_int(Opcode::Div, 7, 2), 3);
        assert_eq!(eval_int(Opcode::Div, -7, 2), -3);
        assert_eq!(eval_int(Opcode::Div, 7, 0), 0);
        assert_eq!(eval_int(Opcode::Rem, 7, 0), 0);
        assert_eq!(eval_int(Opcode::Rem, -7, 2), -1);
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(eval_int(Opcode::Shl, 1, 3), 8);
        assert_eq!(eval_int(Opcode::Shl, 1, 64), 1); // count masked
        assert_eq!(eval_int(Opcode::Shr, -8, 1), -4); // arithmetic
    }

    #[test]
    fn wrapping() {
        assert_eq!(eval_int(Opcode::Add, i64::MAX, 1), i64::MIN);
        assert_eq!(eval_int(Opcode::Mul, i64::MAX, 2), -2);
    }

    #[test]
    fn float_ops() {
        assert_eq!(eval_flt(Opcode::FAdd, 1.5, 2.0), 3.5);
        assert_eq!(eval_flt(Opcode::FDiv, 1.0, 0.0), f64::INFINITY);
    }
}
