//! The dense row-major `f32` tensor type.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A dense, row-major tensor of `f32` values.
///
/// This is the single numeric container used throughout the FedCross
/// reproduction: model parameters, gradients, activations, datasets and the
/// flattened parameter vectors exchanged between cloud server and clients are
/// all `Tensor`s.
///
/// Shape-sensitive binary operations panic on mismatch (these are programming
/// errors in a training loop); constructors and reshapes have fallible `try_*`
/// variants for data coming from outside the library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the number of elements implied by
    /// `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Self::try_from_vec(data, dims).expect("data length must match shape")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        // alloc: cold — construction-time zero init; round paths use pooled take_uninit
        let data = vec![0f32; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor with the same shape as `other`, filled with zeros.
    pub fn zeros_like(other: &Tensor) -> Self {
        Self::zeros(other.shape.dims())
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor containing `0, 1, ..., n-1`.
    pub fn arange(n: usize) -> Self {
        Self::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the underlying data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data slice mutably (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its raw data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn get(&self, index: &[usize]) -> f32 {
        let flat = self
            .shape
            .flat_index(index)
            // panic: documented bounds-check contract of get/set
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for shape {}", self.shape));
        self.data[flat]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self
            .shape
            .flat_index(index)
            // panic: documented bounds-check contract of get/set
            .unwrap_or_else(|| panic!("index {index:?} out of bounds for shape {}", self.shape));
        self.data[flat] = value;
    }

    /// Returns the single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.try_reshape(dims).expect("reshape element count must match")
    }

    /// Fallible variant of [`Tensor::reshape`].
    pub fn try_reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::InvalidReshape {
                from: self.numel(),
                to: shape.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Reshapes in place (no data copy).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape element count must match"
        );
        self.shape = shape;
    }

    /// Flattens to a rank-1 tensor.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::new(&[self.numel()]),
            data: self.data.clone(),
        }
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.dims()[1];
        let start = i * cols;
        Tensor::from_vec(self.data[start..start + cols].to_vec(), &[cols])
    }

    /// Copies `values` into row `i` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if shapes do not line up.
    pub fn set_row(&mut self, i: usize, values: &[f32]) {
        assert_eq!(self.rank(), 2, "set_row() requires a rank-2 tensor");
        let cols = self.dims()[1];
        assert_eq!(values.len(), cols, "row length mismatch");
        let start = i * cols;
        self.data[start..start + cols].copy_from_slice(values);
    }

    /// Selects a batch of rows (for rank >= 1, along dimension 0) into a new
    /// tensor; a wrapper over [`Tensor::index_select0_into`].
    pub fn index_select0(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        self.index_select0_into(indices, &mut out);
        out
    }

    /// Selects a batch of rows (for rank >= 1, along dimension 0) into `out`,
    /// resizing its buffer as needed: `out` takes this tensor's trailing
    /// dimensions with dimension 0 replaced by `indices.len()`. When `out`'s
    /// backing capacity already covers the result (e.g. a reused minibatch
    /// gather buffer), no allocation is performed.
    pub fn index_select0_into(&self, indices: &[usize], out: &mut Tensor) {
        assert!(self.rank() >= 1, "index_select0_into requires rank >= 1");
        let dims = self.dims();
        let row_len: usize = dims[1..].iter().product();
        let mut out_dims = [0usize; crate::shape::MAX_RANK];
        out_dims[..dims.len()].copy_from_slice(dims);
        out_dims[0] = indices.len();
        out.data.clear();
        out.data.reserve(indices.len() * row_len);
        for &i in indices {
            assert!(i < dims[0], "index {i} out of bounds for dim0 {}", dims[0]);
            out.data
                .extend_from_slice(&self.data[i * row_len..(i + 1) * row_len]);
        }
        out.shape = Shape::new(&out_dims[..dims.len()]);
    }

    /// Concatenates tensors along dimension 0. All trailing dims must match.
    ///
    /// # Panics
    /// Panics if the list is empty or trailing dimensions differ.
    pub fn concat0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat0 requires at least one tensor");
        let trailing: &[usize] = &parts[0].dims()[1..];
        let mut dim0 = 0usize;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(&p.dims()[1..], trailing, "trailing dimensions must match");
            dim0 += p.dims()[0];
            data.extend_from_slice(p.data());
        }
        let mut dims = vec![dim0];
        dims.extend_from_slice(trailing);
        Tensor::from_vec(data, &dims)
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert!(
            self.shape.same_as(&other.shape),
            "{op}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
    }

    /// Element-wise addition, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction, returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication, returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise division, returning a new tensor.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "div");
        self.zip_map(other, |a, b| a / b)
    }

    /// In-place element-wise addition: `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place element-wise subtraction: `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "sub_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// In-place AXPY: `self += alpha * other`.
    ///
    /// This is the primitive every FL aggregation rule in the workspace is
    /// built from (FedAvg weighted sums, FedCross `α·v_i + (1-α)·v_co`,
    /// SCAFFOLD control-variate corrections).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales all elements in place: `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Returns `self * alpha` as a new tensor.
    pub fn scaled(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Adds a scalar to every element, returning a new tensor.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Fills the tensor with a constant value.
    pub fn fill(&mut self, value: f32) {
        for a in self.data.iter_mut() {
            *a = value;
        }
    }

    /// Applies a function to every element, returning a new tensor; a
    /// wrapper over [`Tensor::map_into`].
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.dims());
        self.map_into(&mut out, f);
        out
    }

    /// Applies a function to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.data.iter_mut() {
            *a = f(*a);
        }
    }

    /// Writes `f` applied to every element into `out`, which takes this
    /// tensor's shape.
    ///
    /// # Panics
    /// Panics if `out` has a different element count.
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32) {
        assert_eq!(self.numel(), out.numel(), "map_into: element count mismatch");
        // alloc: bounded — dims-vector clone, a few usizes
        out.shape = self.shape.clone();
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`, writing into
    /// `out`, which takes this tensor's shape.
    ///
    /// # Panics
    /// Panics on shape mismatch with `other` or element-count mismatch with
    /// `out`.
    pub fn zip_map_into(&self, other: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other, "zip_map_into");
        assert_eq!(
            self.numel(),
            out.numel(),
            "zip_map_into: element count mismatch"
        );
        // alloc: bounded — dims-vector clone, a few usizes
        out.shape = self.shape.clone();
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// Copies another tensor's shape and contents into this one.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(self.numel(), src.numel(), "copy_from: element count mismatch");
        self.shape = src.shape.clone();
        self.data.copy_from_slice(&src.data);
    }

    /// Combines two same-shaped tensors element-wise with `f`, returning a
    /// new tensor; a wrapper over [`Tensor::zip_map_into`].
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.dims());
        self.zip_map_into(other, &mut out, f);
        out
    }

    /// Adds a rank-1 bias vector to every row of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if `self` is not rank-2 or the bias length differs from the
    /// number of columns.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires rank-2 input");
        let cols = self.dims()[1];
        assert_eq!(bias.numel(), cols, "bias length must equal column count");
        let mut out = self.clone();
        for row in out.data.chunks_mut(cols) {
            for (x, b) in row.iter_mut().zip(bias.data()) {
                *x += b;
            }
        }
        out
    }

    /// Adds a rank-1 bias vector to every row of this rank-2 tensor in place.
    /// Bitwise identical to [`Tensor::add_row_broadcast`].
    ///
    /// # Panics
    /// Panics if `self` is not rank-2 or the bias length differs from the
    /// number of columns.
    pub fn add_row_broadcast_assign(&mut self, bias: &Tensor) {
        assert_eq!(self.rank(), 2, "add_row_broadcast_assign requires rank-2 input");
        let cols = self.dims()[1];
        assert_eq!(bias.numel(), cols, "bias length must equal column count");
        for row in self.data.chunks_mut(cols) {
            for (x, b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Clamps every element into `[lo, hi]`, returning a new tensor.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
    }

    #[test]
    fn try_from_vec_rejects_mismatch() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn arange_counts_up() {
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic]
    fn item_panics_on_multi_element() {
        Tensor::zeros(&[2]).item();
    }

    #[test]
    fn set_and_get() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 3.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(12).reshape(&[3, 4]);
        assert_eq!(t.dims(), &[3, 4]);
        let back = t.reshape(&[12]);
        assert_eq!(back.data(), t.data());
        assert!(t.try_reshape(&[5, 5]).is_err());
    }

    #[test]
    fn reshape_in_place_keeps_data() {
        let mut t = Tensor::arange(6);
        t.reshape_in_place(&[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    fn flatten_preserves_order() {
        let t = Tensor::arange(8).reshape(&[2, 2, 2]);
        assert_eq!(t.flatten().dims(), &[8]);
        assert_eq!(t.flatten().data(), t.data());
    }

    #[test]
    fn row_and_set_row() {
        let mut t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.row(1).data(), &[3.0, 4.0, 5.0]);
        t.set_row(0, &[9.0, 8.0, 7.0]);
        assert_eq!(t.row(0).data(), &[9.0, 8.0, 7.0]);
    }

    #[test]
    fn index_select0_gathers_rows() {
        let t = Tensor::arange(12).reshape(&[4, 3]);
        let sel = t.index_select0(&[2, 0]);
        assert_eq!(sel.dims(), &[2, 3]);
        assert_eq!(sel.row(0).data(), &[6.0, 7.0, 8.0]);
        assert_eq!(sel.row(1).data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn concat0_stacks_rows() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = Tensor::arange(3).reshape(&[1, 3]);
        let c = Tensor::concat0(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 3]);
        assert_eq!(c.row(2).data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    #[should_panic]
    fn add_panics_on_shape_mismatch() {
        let _ = Tensor::zeros(&[2]).add(&Tensor::zeros(&[3]));
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn scaled_and_add_scalar() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        assert_eq!(a.scaled(3.0).data(), &[3.0, -6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, 4.0, 9.0], &[3]);
        assert_eq!(a.map(f32::sqrt).data(), &[1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(a.zip_map(&b, |x, y| x - y).data(), &[0.0, 2.0, 6.0]);
        let mut c = a.clone();
        c.map_in_place(|x| x + 1.0);
        assert_eq!(c.data(), &[2.0, 5.0, 10.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_per_row() {
        let x = Tensor::arange(6).reshape(&[2, 3]);
        let bias = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let y = x.add_row_broadcast(&bias);
        assert_eq!(y.row(0).data(), &[10.0, 21.0, 32.0]);
        assert_eq!(y.row(1).data(), &[13.0, 24.0, 35.0]);
    }

    #[test]
    fn clamp_limits_range() {
        let a = Tensor::from_vec(vec![-5.0, 0.5, 5.0], &[3]);
        assert_eq!(a.clamp(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn has_non_finite_detects_nan_and_inf() {
        let ok = Tensor::ones(&[3]);
        assert!(!ok.has_non_finite());
        let bad = Tensor::from_vec(vec![1.0, f32::NAN], &[2]);
        assert!(bad.has_non_finite());
        let inf = Tensor::from_vec(vec![1.0, f32::INFINITY], &[2]);
        assert!(inf.has_non_finite());
    }

    #[test]
    fn zeros_like_matches_shape() {
        let a = Tensor::ones(&[3, 4]);
        let z = Tensor::zeros_like(&a);
        assert_eq!(z.dims(), a.dims());
        assert!(z.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tensor_implements_serde_traits() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<Tensor>();
    }
}
