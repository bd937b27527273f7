//! Conversion between user-facing numeric program inputs and the entry
//! function's typed parameters.
//!
//! PEPPA-X treats a program input as "a set of input arguments" (§4.2.4),
//! all numeric (§3.1.2). We carry inputs as `f64` vectors throughout the
//! search and encode them here: float parameters take the value directly,
//! integer parameters take the rounded value.

use peppa_ir::{Function, Ty};

/// A program input with the wrong number of values for the entry
/// function's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityError {
    pub func: String,
    pub got: usize,
    pub need: usize,
}

impl std::fmt::Display for ArityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "input arity mismatch for {}: got {}, need {}",
            self.func, self.got, self.need
        )
    }
}

impl std::error::Error for ArityError {}

/// Checks that `inputs` has one value per parameter of `func`.
pub fn check_arity(func: &Function, inputs: &[f64]) -> Result<(), ArityError> {
    if inputs.len() == func.params.len() {
        return Ok(());
    }
    Err(ArityError {
        func: func.name.clone(),
        got: inputs.len(),
        need: func.params.len(),
    })
}

/// Encodes a numeric input vector as raw register bits for `func`'s
/// parameters. Panics if the arity does not match; callers taking
/// inputs from a user validate them first with [`check_arity`].
pub fn encode_inputs(func: &Function, inputs: &[f64]) -> Vec<u64> {
    if let Err(e) = check_arity(func, inputs) {
        panic!("{e}");
    }
    inputs
        .iter()
        .zip(&func.params)
        .map(|(&x, &ty)| match ty {
            Ty::F64 => x.to_bits(),
            Ty::I64 => (x.round() as i64) as u64,
            Ty::I32 => ((x.round() as i64) as i32 as i64) as u64,
            Ty::I1 => (x != 0.0) as u64,
            Ty::Ptr => x.round().max(0.0) as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_ir::{Block, Term};

    fn f(params: Vec<Ty>) -> Function {
        Function {
            name: "t".into(),
            value_types: params.clone(),
            params,
            ret: None,
            blocks: vec![Block {
                params: vec![],
                instrs: vec![],
                term: Term::Ret { value: None },
            }],
        }
    }

    #[test]
    fn float_passthrough() {
        let func = f(vec![Ty::F64]);
        assert_eq!(encode_inputs(&func, &[2.5]), vec![2.5f64.to_bits()]);
    }

    #[test]
    fn int_rounding() {
        let func = f(vec![Ty::I64, Ty::I64]);
        assert_eq!(
            encode_inputs(&func, &[2.6, -3.4]),
            vec![3u64, (-3i64) as u64]
        );
    }

    #[test]
    fn i32_wraps_to_sign_extended() {
        let func = f(vec![Ty::I32]);
        assert_eq!(encode_inputs(&func, &[-1.0]), vec![u64::MAX]);
    }

    #[test]
    fn arity_error_is_typed() {
        let func = f(vec![Ty::F64, Ty::I64]);
        assert_eq!(check_arity(&func, &[1.0, 2.0]), Ok(()));
        let e = check_arity(&func, &[1.0]).unwrap_err();
        assert_eq!((e.got, e.need), (1, 2));
        assert_eq!(e.to_string(), "input arity mismatch for t: got 1, need 2");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let func = f(vec![Ty::F64]);
        encode_inputs(&func, &[1.0, 2.0]);
    }
}
