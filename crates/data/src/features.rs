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
    /// `[-bound, bound)`: element `(r, c)` is
    /// [`entry(r * cols + c, bound, seed)`](Self::entry).
    pub fn random(rows: usize, cols: usize, bound: i32, seed: u64) -> Self {
        assert!(bound > 0, "bound must be positive");
        let data = (0..rows * cols)
            .map(|i| Self::entry(i, bound, seed))
            .collect();
        Self { rows, cols, data }
    }

    /// Element `i` (row-major index) of every [`random`](Self::random)
    /// matrix with this `bound` and `seed`, without building the matrix: a
    /// pure hash of `(i, seed)` in `[-bound, bound)`, so a caller can
    /// generate elements in any order (the MLP generates its weights
    /// straight in the column-major order the PEs receive). `bound` must
    /// be positive.
    pub fn entry(i: usize, bound: i32, seed: u64) -> i32 {
        let x = (i as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(seed.rotate_left(17))
            ^ seed;
        let mixed = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        ((mixed >> 33) as i32).rem_euclid(2 * bound) - bound
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

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> i32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: i32) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major backing slice, mutable — the entry point for
    /// `pim_sim::kernels` decodes straight into the matrix.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.data
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
        assert!((0..8).all(|r| a.row(r).iter().all(|&v| (-10..10).contains(&v))));
        assert_ne!(a, MatI32::random(8, 8, 10, 43));
    }

    #[test]
    fn entry_is_random_element_for_any_shape() {
        for (rows, cols) in [(1, 1), (1, 7), (7, 1), (3, 5), (13, 6), (8, 64)] {
            for (bound, seed) in [(1, 0), (3, 0x6e6e), (4, 0x9a77), (4, 0x9a7b), (100, 9)] {
                let m = MatI32::random(rows, cols, bound, seed);
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(MatI32::entry(r * cols + c, bound, seed), m.get(r, c));
                    }
                }
            }
        }
    }

    #[test]
    fn row_access() {
        let mut m = MatI32::zeros(2, 3);
        m.as_mut_slice()[3..].copy_from_slice(&[7, 8, 9]);
        m.set(0, 1, 5);
        assert_eq!(m.row(1), &[7, 8, 9]);
        assert_eq!(m.row(0), &[0, 5, 0]);
        assert_eq!(m.get(1, 2), 9);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
