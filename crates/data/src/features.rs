//! Dense integer feature matrices for GNN and MLP workloads.
//!
//! Integer features keep the simulated PIM arithmetic bit-exact against the
//! CPU references (the paper's INT8/16/32 sensitivity study, §VIII-F, is
//! integer as well).

/// A dense row-major `rows × cols` matrix of `i32` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatI32 {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl MatI32 {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a deterministic pseudo-random matrix with entries in
    /// `[-bound, bound)`.
    pub fn random(rows: usize, cols: usize, bound: i32, seed: u64) -> Self {
        assert!(bound > 0, "bound must be positive");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows * cols {
            let x = (i as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(seed.rotate_left(17))
                ^ seed;
            let mixed = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            data.push(((mixed >> 33) as i32).rem_euclid(2 * bound) - bound);
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[i32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [i32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> i32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: i32) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat backing slice (row-major).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// The flat backing slice, mutably (row-major) — the entry point for
    /// `pim_sim::kernels` decodes straight into the matrix.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
    }

    /// Dense matrix multiply `self × rhs` with wrapping arithmetic (the
    /// same semantics the PE kernels use).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &MatI32) -> MatI32 {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = MatI32::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = out.get(i, j).wrapping_add(a.wrapping_mul(rhs.get(k, j)));
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Serializes the matrix to little-endian bytes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.data.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Deserializes a `rows × cols` matrix from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if the byte length does not match.
    pub fn from_le_bytes(rows: usize, cols: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), rows * cols * 4, "byte length mismatch");
        let data = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Self { rows, cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = MatI32::random(8, 8, 10, 42);
        let b = MatI32::random(8, 8, 10, 42);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-10..10).contains(&v)));
        assert_ne!(a, MatI32::random(8, 8, 10, 43));
    }

    #[test]
    fn matmul_identity() {
        let mut eye = MatI32::zeros(3, 3);
        for i in 0..3 {
            eye.set(i, i, 1);
        }
        let m = MatI32::random(3, 3, 5, 1);
        assert_eq!(m.matmul(&eye), m);
    }

    #[test]
    fn matmul_small_case() {
        let mut a = MatI32::zeros(2, 2);
        a.set(0, 0, 1);
        a.set(0, 1, 2);
        a.set(1, 0, 3);
        a.set(1, 1, 4);
        let b = a.clone();
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 7);
        assert_eq!(c.get(0, 1), 10);
        assert_eq!(c.get(1, 0), 15);
        assert_eq!(c.get(1, 1), 22);
    }

    #[test]
    fn byte_roundtrip() {
        let m = MatI32::random(4, 6, 100, 9);
        let bytes = m.to_le_bytes();
        assert_eq!(MatI32::from_le_bytes(4, 6, &bytes), m);
    }

    #[test]
    fn row_access() {
        let mut m = MatI32::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[7, 8, 9]);
        assert_eq!(m.row(1), &[7, 8, 9]);
        assert_eq!(m.get(1, 2), 9);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
