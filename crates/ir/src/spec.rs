//! Launch specialization metadata.
//!
//! Triton JIT-specializes kernels to concrete problem sizes at launch time;
//! the Tawa compiler does the same. A [`LaunchSpec`] binds every function
//! parameter to a concrete value (scalar) or a global tensor shape, and
//! enumerates the CTA classes of the launch (CTAs that observe different
//! `program_id`s and may therefore run different trip counts, e.g. causal
//! attention row tiles). The compiler's constant evaluator folds these
//! bindings through the IR to recover static loop trip counts per class.

use crate::types::DType;

/// Binding for one kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A scalar integer argument (problem sizes, strides).
    Int(i64),
    /// A global tensor (bound to `ptr<T>`/`desc<T>` parameters).
    Global {
        /// Logical shape of the global tensor.
        shape: Vec<usize>,
        /// Element type.
        dtype: DType,
    },
}

/// A set of CTAs that observe the same `program_id` bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecClass {
    /// `program_id(axis)` values for axes 0..3. CTAs whose behaviour does
    /// not depend on a given axis may share a class with a representative
    /// value for it.
    pub pid: [i64; 3],
    /// Number of CTAs represented by this class.
    pub multiplicity: u64,
}

/// Complete launch description for one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpec {
    /// Per-parameter bindings, in function signature order.
    pub params: Vec<ParamValue>,
    /// CTA classes; total grid size is the sum of multiplicities.
    pub classes: Vec<SpecClass>,
    /// Grid extents along the three `program_id` axes (their product equals
    /// the total grid size).
    pub grid_dims: [u64; 3],
    /// Useful FLOPs performed by the launch (for throughput reporting).
    pub useful_flops: f64,
}

impl LaunchSpec {
    /// Total number of CTAs in the launch.
    pub fn grid_size(&self) -> u64 {
        self.classes.iter().map(|c| c.multiplicity).sum()
    }

    /// Single-class helper: a uniform grid of `n` CTAs (axis 0 only) whose
    /// timing behaviour is pid-independent.
    pub fn uniform(params: Vec<ParamValue>, n: u64, useful_flops: f64) -> LaunchSpec {
        LaunchSpec {
            params,
            classes: vec![SpecClass {
                pid: [0, 0, 0],
                multiplicity: n,
            }],
            grid_dims: [n, 1, 1],
            useful_flops,
        }
    }

    /// Integer value of parameter `i`, or `None` if there is no such
    /// parameter or it is not a [`ParamValue::Int`].
    pub fn int(&self, i: usize) -> Option<i64> {
        match self.params.get(i)? {
            ParamValue::Int(v) => Some(*v),
            ParamValue::Global { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spec() {
        let s = LaunchSpec::uniform(vec![ParamValue::Int(8192)], 4096, 1e12);
        assert_eq!(s.grid_size(), 4096);
        assert_eq!(s.int(0), Some(8192));
        assert_eq!(s.classes.len(), 1);
    }

    #[test]
    fn multi_class_grid() {
        let s = LaunchSpec {
            params: vec![],
            classes: vec![
                SpecClass {
                    pid: [0, 0, 0],
                    multiplicity: 10,
                },
                SpecClass {
                    pid: [1, 0, 0],
                    multiplicity: 22,
                },
            ],
            grid_dims: [2, 16, 1],
            useful_flops: 0.0,
        };
        assert_eq!(s.grid_size(), 32);
    }

    #[test]
    fn int_accessor_is_none_on_global() {
        let s = LaunchSpec::uniform(
            vec![ParamValue::Global {
                shape: vec![4, 4],
                dtype: DType::F16,
            }],
            1,
            0.0,
        );
        assert_eq!(s.int(0), None);
        assert_eq!(s.int(1), None);
    }
}
