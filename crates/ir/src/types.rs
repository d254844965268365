//! Type system for the tile IR.
//!
//! The IR is tile-based in the Triton sense: values are either scalars
//! (indices, pointers, flags) or *tiles* — small dense tensors that live in a
//! single CTA and map onto registers / shared memory. Types are cheap,
//! immutable values compared structurally.

use std::fmt;

/// Element data types understood by the tile IR and the simulator.
///
/// `F8E4M3` is the FP8 format used by Hopper WGMMA (e4m3); `BF16` is included
/// for completeness of the frontend even though the paper's evaluation uses
/// FP16 and FP8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 1-bit predicate.
    Bool,
    /// 32-bit signed integer (indices, loop counters).
    I32,
    /// 64-bit signed integer (linear offsets into global memory).
    I64,
    /// IEEE 754 half precision.
    F16,
    /// bfloat16.
    BF16,
    /// FP8 e4m3 (Hopper tensor-core input format).
    F8E4M3,
    /// IEEE 754 single precision (accumulators, softmax arithmetic).
    F32,
}

impl DType {
    /// Size of one element in bytes. `Bool` is stored as one byte.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::Bool => 1,
            DType::F8E4M3 => 1,
            DType::F16 | DType::BF16 => 2,
            DType::I32 | DType::F32 => 4,
            DType::I64 => 8,
        }
    }

    /// True for floating-point element types.
    pub fn is_float(self) -> bool {
        matches!(self, DType::F16 | DType::BF16 | DType::F8E4M3 | DType::F32)
    }

    /// True for integer element types (`Bool` excluded).
    pub fn is_int(self) -> bool {
        matches!(self, DType::I32 | DType::I64)
    }

    /// Parse the textual form used by the printer (`f16`, `i32`, ...).
    pub fn parse(s: &str) -> Option<DType> {
        Some(match s {
            "bool" => DType::Bool,
            "i32" => DType::I32,
            "i64" => DType::I64,
            "f16" => DType::F16,
            "bf16" => DType::BF16,
            "f8e4m3" => DType::F8E4M3,
            "f32" => DType::F32,
            _ => return None,
        })
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Bool => "bool",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::F8E4M3 => "f8e4m3",
            DType::F32 => "f32",
        };
        f.write_str(s)
    }
}

/// A tile shape: up to three dimensions in practice (batched tiles), stored
/// as a small vector of extents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// IR value types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar of the given element type.
    Scalar(DType),
    /// A dense tile with static shape.
    Tensor(Shape, DType),
    /// A pointer into global memory with the given pointee element type.
    Ptr(DType),
    /// A TMA tensor descriptor: an opaque handle describing a (rank-2)
    /// global tensor that the TMA engine can copy tiles out of.
    TensorDesc(DType),
    /// An asynchronous reference channel carrying payloads of the inner
    /// types. A `D`-deep ring of single-slot channels (paper §III-B).
    ///
    /// `Aref(depth, payload)` corresponds to the paper's
    /// `tensor<Dx!tawa.aref<tuple<...>>>`.
    Aref(usize, Vec<Type>),
    /// A token representing completion ordering of asynchronous operations
    /// (used by the fine-grained MMA pipeline before lowering).
    Token,
}

impl Type {
    /// Convenience constructor for a scalar `i32`.
    pub fn i32() -> Type {
        Type::Scalar(DType::I32)
    }

    /// Convenience constructor for a scalar `i64`.
    pub fn i64() -> Type {
        Type::Scalar(DType::I64)
    }

    /// Convenience constructor for a scalar `bool`.
    pub fn bool() -> Type {
        Type::Scalar(DType::Bool)
    }

    /// Convenience constructor for a scalar `f32`.
    pub fn f32() -> Type {
        Type::Scalar(DType::F32)
    }

    /// Convenience constructor for a tensor type.
    pub fn tensor<S: Into<Shape>>(shape: S, dtype: DType) -> Type {
        Type::Tensor(shape.into(), dtype)
    }

    /// Element type of scalars, tensors, pointers and descriptors.
    pub fn elem(&self) -> Option<DType> {
        match self {
            Type::Scalar(d) | Type::Ptr(d) | Type::TensorDesc(d) => Some(*d),
            Type::Tensor(_, d) => Some(*d),
            Type::Aref(..) | Type::Token => None,
        }
    }

    /// Shape if this is a tensor type.
    pub fn shape(&self) -> Option<&Shape> {
        match self {
            Type::Tensor(s, _) => Some(s),
            _ => None,
        }
    }

    /// True if this is any scalar type.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }

    /// True if this is a tensor type.
    pub fn is_tensor(&self) -> bool {
        matches!(self, Type::Tensor(..))
    }

    /// Size in bytes of one instance of this type when materialized in
    /// shared memory (tensors) or registers (scalars). Arefs report the
    /// payload footprint of **all** `D` slots.
    pub fn size_bytes(&self) -> usize {
        match self {
            Type::Scalar(d) => d.size_bytes(),
            Type::Tensor(s, d) => s.numel() * d.size_bytes(),
            Type::Ptr(_) | Type::TensorDesc(_) => 8,
            Type::Aref(depth, payload) => {
                depth * payload.iter().map(Type::size_bytes).sum::<usize>()
            }
            Type::Token => 0,
        }
    }

    /// Result type of a broadcasted elementwise combination of two types:
    /// whichever of the two it equals.
    ///
    /// Scalars broadcast against tensors; tensors must agree in shape.
    /// Returns `None` if the types cannot be combined.
    pub fn broadcast_with<'a>(&'a self, other: &'a Type) -> Option<&'a Type> {
        match (self, other) {
            (Type::Scalar(a), Type::Scalar(b)) if a == b => Some(self),
            (Type::Tensor(_, a), Type::Scalar(b)) if a == b => Some(self),
            (Type::Scalar(a), Type::Tensor(_, b)) if a == b => Some(other),
            (Type::Tensor(s1, a), Type::Tensor(s2, b)) if a == b && s1 == s2 => Some(self),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(d) => write!(f, "{d}"),
            Type::Tensor(s, d) => {
                if s.0.is_empty() {
                    write!(f, "tensor<{d}>")
                } else {
                    write!(f, "tensor<{s}x{d}>")
                }
            }
            Type::Ptr(d) => write!(f, "ptr<{d}>"),
            Type::TensorDesc(d) => write!(f, "desc<{d}>"),
            Type::Aref(depth, payload) => {
                write!(f, "aref<{depth}, tuple<")?;
                for (i, t) in payload.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ">>")
            }
            Type::Token => write!(f, "token"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::F8E4M3.size_bytes(), 1);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }

    #[test]
    fn dtype_classification() {
        assert!(DType::F16.is_float());
        assert!(DType::F8E4M3.is_float());
        assert!(!DType::I32.is_float());
        assert!(DType::I32.is_int());
        assert!(!DType::Bool.is_int());
    }

    #[test]
    fn dtype_display_parse_roundtrip() {
        for d in [
            DType::Bool,
            DType::I32,
            DType::I64,
            DType::F16,
            DType::BF16,
            DType::F8E4M3,
            DType::F32,
        ] {
            assert_eq!(DType::parse(&d.to_string()), Some(d));
        }
        assert_eq!(DType::parse("f64"), None);
    }

    #[test]
    fn shape_numel_and_display() {
        let s = Shape::from(vec![128, 64]);
        assert_eq!(s.numel(), 8192);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.to_string(), "128x64");
        assert_eq!(s.dim(1), 64);
    }

    #[test]
    fn tensor_type_size() {
        let t = Type::tensor(vec![128, 64], DType::F16);
        assert_eq!(t.size_bytes(), 128 * 64 * 2);
        assert_eq!(t.to_string(), "tensor<128x64xf16>");
    }

    #[test]
    fn aref_type_footprint_counts_all_slots() {
        let payload = vec![
            Type::tensor(vec![128, 64], DType::F16),
            Type::tensor(vec![128, 64], DType::F16),
        ];
        let a = Type::Aref(3, payload);
        assert_eq!(a.size_bytes(), 3 * 2 * 128 * 64 * 2);
    }

    #[test]
    fn broadcast_rules() {
        let t = Type::tensor(vec![4, 4], DType::F32);
        let s = Type::f32();
        assert_eq!(t.broadcast_with(&s), Some(&t));
        assert_eq!(s.broadcast_with(&t), Some(&t));
        assert_eq!(t.broadcast_with(&t), Some(&t));
        let u = Type::tensor(vec![8, 4], DType::F32);
        assert_eq!(t.broadcast_with(&u), None);
        let i = Type::i32();
        assert_eq!(t.broadcast_with(&i), None);
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Ptr(DType::F16).to_string(), "ptr<f16>");
        assert_eq!(Type::TensorDesc(DType::F8E4M3).to_string(), "desc<f8e4m3>");
        assert_eq!(Type::Token.to_string(), "token");
        let a = Type::Aref(2, vec![Type::tensor(vec![2, 2], DType::F16)]);
        assert_eq!(a.to_string(), "aref<2, tuple<tensor<2x2xf16>>>");
    }
}
