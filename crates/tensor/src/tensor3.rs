//! Three-dimensional tensors: input/output volumes `A[z][y][x]`.

use rand::distr::{Distribution, Uniform};
use rand::Rng;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense 3-D tensor indexed `[z][y][x]` (channel, row, column), matching
/// the paper's input-volume convention.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor3 {
    z: usize,
    y: usize,
    x: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Creates a zero-filled tensor.
    pub fn zeros(z: usize, y: usize, x: usize) -> Tensor3 {
        Tensor3 {
            z,
            y,
            x,
            data: vec![0.0; z * y * x],
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn filled(z: usize, y: usize, x: usize, value: f64) -> Tensor3 {
        Tensor3 {
            z,
            y,
            x,
            data: vec![value; z * y * x],
        }
    }

    /// Creates a tensor from a flat row-major `[z][y][x]` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != z·y·x`.
    pub fn from_vec(z: usize, y: usize, x: usize, data: Vec<f64>) -> Tensor3 {
        assert_eq!(
            data.len(),
            z * y * x,
            "buffer length {} does not match {z}x{y}x{x}",
            data.len()
        );
        Tensor3 { z, y, x, data }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn random_uniform<R: Rng + ?Sized>(
        z: usize,
        y: usize,
        x: usize,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Tensor3 {
        let dist = Uniform::new(lo, hi).expect("invalid uniform range");
        let data = (0..z * y * x).map(|_| dist.sample(rng)).collect();
        Tensor3 { z, y, x, data }
    }

    /// Dimensions as `(z, y, x)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.z, self.y, self.x)
    }

    /// Channel count (depth `Az`).
    pub fn depth(&self) -> usize {
        self.z
    }

    /// Row count (height `Ay`).
    pub fn height(&self) -> usize {
        self.y
    }

    /// Column count (width `Ax`).
    pub fn width(&self) -> usize {
        self.x
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn offset(&self, z: usize, y: usize, x: usize) -> usize {
        debug_assert!(z < self.z && y < self.y && x < self.x);
        (z * self.y + y) * self.x + x
    }

    /// Reads an element; returns `None` when out of bounds.
    pub fn get(&self, z: usize, y: usize, x: usize) -> Option<f64> {
        if z < self.z && y < self.y && x < self.x {
            Some(self.data[self.offset(z, y, x)])
        } else {
            None
        }
    }

    /// Reads an element treating out-of-bounds coordinates as zero padding.
    /// Coordinates are signed so callers can index `y − pad` directly.
    pub fn get_padded(&self, z: usize, y: isize, x: isize) -> f64 {
        if y < 0 || x < 0 {
            return 0.0;
        }
        self.get(z, y as usize, x as usize).unwrap_or(0.0)
    }

    /// Writes an element.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, z: usize, y: usize, x: usize, value: f64) {
        let idx = self.offset(z, y, x);
        self.data[idx] = value;
    }

    /// The flat row-major data buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major data buffer, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Applies a function to every element in place.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Applies the ReLU activation in place.
    pub fn relu_inplace(&mut self) {
        self.map_inplace(|v| v.max(0.0));
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Flattens into a vector in `[z][y][x]` order — the FC-layer input view.
    pub fn flatten(&self) -> Vec<f64> {
        self.data.clone()
    }

    /// Maximum elementwise absolute difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor3) -> f64 {
        assert_eq!(self.dims(), other.dims(), "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }
}

impl Index<(usize, usize, usize)> for Tensor3 {
    type Output = f64;
    fn index(&self, (z, y, x): (usize, usize, usize)) -> &f64 {
        &self.data[self.offset(z, y, x)]
    }
}

impl IndexMut<(usize, usize, usize)> for Tensor3 {
    fn index_mut(&mut self, (z, y, x): (usize, usize, usize)) -> &mut f64 {
        let idx = self.offset(z, y, x);
        &mut self.data[idx]
    }
}

impl fmt::Display for Tensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor3[{}x{}x{}]", self.z, self.y, self.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_dims() {
        let t = Tensor3::zeros(2, 3, 4);
        assert_eq!(t.dims(), (2, 3, 4));
        assert_eq!(t.len(), 24);
        assert!(t.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = Tensor3::zeros(2, 3, 4);
        t.set(1, 2, 3, 7.5);
        assert_eq!(t.get(1, 2, 3), Some(7.5));
        assert_eq!(t[(1, 2, 3)], 7.5);
        assert_eq!(t.get(2, 0, 0), None);
    }

    #[test]
    fn row_major_layout() {
        let t = Tensor3::from_vec(1, 2, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t[(0, 0, 2)], 2.0);
        assert_eq!(t[(0, 1, 0)], 3.0);
    }

    #[test]
    fn padded_reads() {
        let t = Tensor3::filled(1, 2, 2, 1.0);
        assert_eq!(t.get_padded(0, -1, 0), 0.0);
        assert_eq!(t.get_padded(0, 0, -1), 0.0);
        assert_eq!(t.get_padded(0, 2, 0), 0.0);
        assert_eq!(t.get_padded(0, 1, 1), 1.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor3::from_vec(1, 1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        t.relu_inplace();
        assert_eq!(t.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn random_uniform_respects_range_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor3::random_uniform(2, 4, 4, -1.0, 1.0, &mut rng);
        assert!(t.iter().all(|&v| (-1.0..1.0).contains(&v)));
        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = Tensor3::random_uniform(2, 4, 4, -1.0, 1.0, &mut rng2);
        assert_eq!(t, t2);
    }

    #[test]
    fn max_abs_and_diff() {
        let a = Tensor3::from_vec(1, 1, 3, vec![1.0, -4.0, 2.0]);
        let b = Tensor3::from_vec(1, 1, 3, vec![1.0, -3.0, 2.5]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn flatten_matches_layout() {
        let t = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.flatten(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = Tensor3::from_vec(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn display_mentions_shape() {
        assert_eq!(Tensor3::zeros(1, 2, 3).to_string(), "Tensor3[1x2x3]");
    }
}
