//! # fedcross-tensor
//!
//! A small, dependency-light dense tensor library that serves as the numerical
//! substrate for the FedCross federated-learning reproduction.
//!
//! The FedCross paper trains convolutional and recurrent classifiers with SGD on
//! every client; no GPU/torch stack is available in this environment, so this
//! crate provides everything the model zoo in `fedcross-nn` needs:
//!
//! * row-major dense [`Tensor`] of `f32` with shape/stride bookkeeping,
//! * element-wise arithmetic and broadcasting against rows/scalars,
//! * parallel matrix multiplication ([`linalg`]),
//! * `im2col`/`col2im` convolution and pooling kernels ([`conv`]),
//! * activations and softmax/log-softmax ([`ops`]),
//! * reductions, norms and cosine similarity ([`stats`]) — cosine similarity is
//!   the model-similarity measure used by FedCross' collaborative-model
//!   selection strategies,
//! * deterministic, seedable weight initialisation ([`init`]).
//!
//! The API is intentionally explicit (no autograd graph): backward passes are
//! implemented per layer in `fedcross-nn`, which keeps every gradient auditable
//! against finite differences in tests.
//!
//! ## Quick example
//!
//! ```
//! use fedcross_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let mut c = Tensor::zeros(&[2, 2]);
//! a.matmul_into(&b, &mut c);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_guard;
pub mod conv;
pub mod error;
pub mod init;
pub mod linalg;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod stats;
mod tensor;

pub use error::TensorError;
pub use pool::TensorPool;
pub use rng::SeededRng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results returned by fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
