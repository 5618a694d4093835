//! Row-major `f32` matrix with the small set of kernels an MLP needs.
//!
//! The networks in this repository are tiny (tens of units per layer,
//! batches of at most a few hundred rows), so the kernels favour clarity
//! over blocking/tiling heroics — but the inner loops are hand-rolled
//! portable SIMD: explicit [`LANES`]-wide chunked lanes (fixed-size
//! array chunks the compiler lowers to vector registers on any target,
//! no `std::simd`, no intrinsics, no dependencies). All dimension
//! mismatches panic — shape errors here are programming bugs, not runtime
//! conditions.
//!
//! Bit-exactness contract: every SIMD kernel accumulates each output
//! element in the *same ascending-K scalar order* as the naive reference
//! loop — lanes only split independent output elements, never one
//! element's accumulation chain. Reordering a dot product would change
//! float rounding, which would re-roll every calibrated training seed
//! downstream; the `simd_*_bit_exact` proptests pin the contract.

use serde::{Deserialize, Serialize};

/// Explicit lane width of the hand-rolled SIMD kernels: 8 × f32 = one
/// AVX2 register (and two NEON/SSE registers — still vectorized, just
/// double-pumped). Chunks are fixed-size arrays so the compiler sees
/// the width at compile time and emits vector code without bounds
/// checks.
const LANES: usize = 8;

/// `out[j] += a * b[j]` over [`LANES`]-wide chunks with a scalar tail.
/// Each `j` is an independent accumulator, so lane-chunking changes no
/// float: this is the axpy at the heart of the ikj matmul kernels.
#[inline]
fn axpy_lanes(out: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), b.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (o, b) in (&mut oc).zip(&mut bc) {
        let o: &mut [f32; LANES] = o.try_into().expect("exact chunk");
        let b: &[f32; LANES] = b.try_into().expect("exact chunk");
        for l in 0..LANES {
            o[l] += a * b[l];
        }
    }
    for (o, &b) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += a * b;
    }
}

/// Dense row-major matrix of `f32`.
///
/// Rows are the batch dimension throughout this crate: a batch of `n`
/// state vectors of width `d` is an `n × d` matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a flat row-major vector. Panics if the length does not
    /// match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec length mismatch");
        Self { rows, cols, data }
    }

    /// Build a single-row matrix from a slice (the common "one state vector"
    /// case on the inference path).
    pub fn from_row(row: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Build from nested slices; all rows must share a length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Overwrite row `r` in place. Lets a caller reuse one stacked-state
    /// buffer across batched inference calls instead of rebuilding the
    /// matrix each step.
    pub fn set_row(&mut self, r: usize, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "Matrix::set_row width mismatch");
        let start = r * self.cols;
        self.data[start..start + self.cols].copy_from_slice(row);
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Element accessor (debug-asserted bounds; row-major).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Reshape in place to `rows × cols`, reusing the backing `Vec`
    /// (contents are unspecified afterwards). The workhorse behind the
    /// `*_into` kernels: a long-lived scratch `Matrix` never reallocates
    /// once it has seen its largest shape.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Gather the given rows of `self` into `out` (reshaped to
    /// `rows.len() × self.cols`), preserving the order of `rows`. Row
    /// indices may repeat. This is the ragged-batching primitive: a
    /// caller holding one stacked `N × d` state matrix extracts an
    /// arbitrary row subset — e.g. the nodes of one hardware profile
    /// group — as a dense batch without touching the source.
    pub fn gather_rows_into(&self, rows: &[usize], out: &mut Matrix) {
        out.reshape(rows.len(), self.cols);
        for (k, &r) in rows.iter().enumerate() {
            assert!(
                r < self.rows,
                "Matrix::gather_rows_into row {r} out of bounds"
            );
            let src = r * self.cols;
            let dst = k * self.cols;
            let (s, d) = (
                &self.data[src..src + self.cols],
                &mut out.data[dst..dst + self.cols],
            );
            d.copy_from_slice(s);
        }
    }

    /// Rows-of-B panel size for the blocked matmul kernels. Each panel
    /// (`K_BLOCK × m` floats of the RHS) stays resident in L1/L2 while it
    /// is streamed against every row of the LHS.
    const K_BLOCK: usize = 64;

    /// `self (n×k) · other (k×m) → n×m`.
    ///
    /// ikj loop order so the innermost loop walks both output row and RHS row
    /// contiguously — lets LLVM vectorize without an explicit transpose.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-provided output (reshaped as
    /// needed). Blocked over K: the kernel walks the RHS in panels of
    /// [`Matrix::K_BLOCK`] rows so each panel is reused across all LHS
    /// rows. Per output element the accumulation still runs in ascending
    /// K order, so the result is bit-identical to the naive ikj loop.
    pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        out.reshape(self.rows, other.cols);
        out.data.fill(0.0);
        self.matmul_acc(other, out);
    }

    /// `out += self · other` (blocked; `out` must already be `n×m`).
    pub(crate) fn matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul output shape"
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        for kb in (0..k).step_by(Self::K_BLOCK) {
            let kend = (kb + Self::K_BLOCK).min(k);
            for i in 0..n {
                let a_row = &self.data[i * k + kb..i * k + kend];
                let out_row = &mut out.data[i * m..(i + 1) * m];
                for (kk, &a) in a_row.iter().enumerate() {
                    let b_row = &other.data[(kb + kk) * m..(kb + kk + 1) * m];
                    axpy_lanes(out_row, a, b_row);
                }
            }
        }
    }

    /// Fused `self · other + bias` (bias broadcast over rows) into `out`.
    ///
    /// Each output row is *initialized* with the bias and then accumulated
    /// in the same blocked ikj order — one pass instead of a matmul
    /// followed by a separate broadcast sweep.
    pub(crate) fn matmul_bias_into(&self, other: &Matrix, bias: &[f32], out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!(bias.len(), other.cols, "bias width mismatch");
        let (n, m) = (self.rows, other.cols);
        out.reshape(n, m);
        for i in 0..n {
            out.data[i * m..(i + 1) * m].copy_from_slice(bias);
        }
        self.matmul_acc(other, out);
    }

    /// Fused `f(self · other + bias)` into `out` — the whole inference
    /// path of a `Linear → Activation` pair in one kernel, with no
    /// intermediate allocation or extra pass for the element-wise map.
    pub(crate) fn matmul_bias_act_into(
        &self,
        other: &Matrix,
        bias: &[f32],
        out: &mut Matrix,
        f: impl Fn(f32) -> f32,
    ) {
        self.matmul_bias_into(other, bias, out);
        for x in &mut out.data {
            *x = f(*x);
        }
    }

    /// `selfᵀ (k×n)ᵀ · other (n×m) → k×m` without materializing the
    /// transpose. Used for weight gradients (`xᵀ · dy`).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out);
        out
    }

    /// `out += selfᵀ · other` (`out` must already be `k×m`). Lets gradient
    /// accumulators take `gw += xᵀ·dy` directly instead of materializing
    /// the product and `axpy`-ing it in.
    pub(crate) fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "t_matmul output shape"
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        for i in 0..n {
            let a_row = &self.data[i * k..(i + 1) * k];
            let b_row = &other.data[i * m..(i + 1) * m];
            for (kk, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[kk * m..(kk + 1) * m];
                axpy_lanes(out_row, a, b_row);
            }
        }
    }

    /// `self (n×k) · otherᵀ (m×k)ᵀ → n×m` without materializing the
    /// transpose. Used for input gradients (`dy · Wᵀ`).
    pub(crate) fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into a caller-provided output. The RHS is
    /// already walked row-wise (it *is* the transposed-B layout), so each
    /// output element is a contiguous dot product. Re-ordering a dot
    /// product's accumulation would change float rounding, so SIMD here
    /// register-blocks **across output columns** instead: four
    /// independent accumulator chains run in parallel, each still a
    /// plain ascending-K scalar chain — bit-identical to the naive loop,
    /// but with instruction-level parallelism the single-chain version
    /// cannot reach (a lone FMA chain is latency-bound).
    pub(crate) fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        let (n, k, m) = (self.rows, self.cols, other.rows);
        out.reshape(n, m);
        const JB: usize = 4;
        for i in 0..n {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * m..(i + 1) * m];
            let mut j = 0;
            while j + JB <= m {
                let b0 = &other.data[j * k..(j + 1) * k];
                let b1 = &other.data[(j + 1) * k..(j + 2) * k];
                let b2 = &other.data[(j + 2) * k..(j + 3) * k];
                let b3 = &other.data[(j + 3) * k..(j + 4) * k];
                let mut acc = [0.0f32; JB];
                for (kk, &a) in a_row.iter().enumerate() {
                    acc[0] += a * b0[kk];
                    acc[1] += a * b1[kk];
                    acc[2] += a * b2[kk];
                    acc[3] += a * b3[kk];
                }
                out_row[j..j + JB].copy_from_slice(&acc);
                j += JB;
            }
            for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
                let b_row = &other.data[jj * k..(jj + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// Column sums (used to reduce bias gradients over the batch).
    pub(crate) fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        out
    }

    /// Element-wise `self += alpha * other` (lane-chunked; element-wise
    /// ops have no accumulation order to preserve).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        axpy_lanes(&mut self.data, alpha, &other.data);
    }

    /// Element-wise product into a new matrix (Hadamard).
    pub(crate) fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Apply `f` to every element in place.
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Apply `f` to every element into a new matrix.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Horizontally concatenate two matrices with equal row counts:
    /// `(n×a) ⧺ (n×b) → n×(a+b)`. Used by the DDPG critic to join the
    /// state-path activations with the action input.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hconcat row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Split a matrix column-wise at `at`: inverse of [`Matrix::hconcat`].
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols, "hsplit out of range");
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }

    /// Mean of all elements; 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_rows_into_preserves_order_and_allows_repeats() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::zeros(0, 0);
        m.gather_rows_into(&[2, 0, 2], &mut out);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        // Reuse across a shrinking gather: stale storage must not leak.
        m.gather_rows_into(&[1], &mut out);
        assert_eq!(out.as_slice(), &[3.0, 4.0]);
        // Empty gathers are legal (a profile group can own zero nodes
        // only transiently, but the primitive should not care).
        m.gather_rows_into(&[], &mut out);
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.5, -1.0, 2.0, 0.0, 3.0]);
        // aᵀ is 2×3; aᵀ·b is 2×2.
        let c = a.t_matmul(&b);
        let at = Matrix::from_vec(2, 3, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        let expected = at.matmul(&b);
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, vec![1.0; 12]);
        let c = a.matmul_t(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 4);
        for r in 0..2 {
            for col in 0..4 {
                let expected: f32 = a.row(r).iter().sum();
                assert!((c.get(r, col) - expected).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 3, vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let joined = a.hconcat(&b);
        assert_eq!(joined.cols(), 5);
        assert_eq!(joined.row(0), &[1.0, 2.0, 5.0, 6.0, 7.0]);
        let (l, r) = joined.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn bias_broadcast_and_col_sums() {
        let m = Matrix::from_vec(3, 2, [1.0, -2.0].repeat(3));
        assert_eq!(m.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn blocked_matmul_matches_naive_beyond_one_k_block() {
        // 2 × 150 · 150 × 3 spans three K-panels; the blocked kernel must
        // agree bit-for-bit with a scalar reference loop (same ascending-K
        // accumulation order per output element).
        let (n, k, m) = (2, 150, 3);
        let a = Matrix::from_vec(n, k, (0..n * k).map(|i| (i as f32).sin()).collect());
        let b = Matrix::from_vec(k, m, (0..k * m).map(|i| (i as f32).cos()).collect());
        let mut reference = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                reference.set(i, j, acc);
            }
        }
        assert_eq!(a.matmul(&b), reference);
    }

    #[test]
    fn into_kernels_reuse_and_reshape_scratch() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(5, 7); // wrong shape + stale contents
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Reuse the same scratch for a fused bias and bias+activation pass.
        a.matmul_bias_into(&b, &[0.5, -0.5], &mut out);
        let bias = [0.5, -0.5].repeat(2);
        let plain = a.matmul(&b);
        let sum = plain.as_slice().iter().zip(&bias).map(|(x, b)| x + b);
        let expected = Matrix::from_vec(2, 2, sum.collect());
        assert_eq!(out, expected);
        a.matmul_bias_act_into(&b, &[0.5, -0.5], &mut out, |x| x.max(0.0));
        assert_eq!(out, expected.map(|x| x.max(0.0)));
    }

    #[test]
    fn acc_kernels_accumulate_on_top() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut out = Matrix::full(2, 2, 10.0);
        a.matmul_acc(&b, &mut out);
        assert_eq!(out.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
        let mut gt = Matrix::full(2, 2, 1.0);
        a.t_matmul_acc(&b, &mut gt);
        let mut expected = a.t_matmul(&b);
        expected.axpy(1.0, &Matrix::full(2, 2, 1.0));
        assert_eq!(gt, expected);
    }

    #[test]
    fn map_and_hadamard() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let relu = a.map(|x| x.max(0.0));
        assert_eq!(relu.as_slice(), &[1.0, 0.0, 3.0]);
        let h = a.hadamard(&relu);
        assert_eq!(h.as_slice(), &[1.0, 0.0, 9.0]);
    }

    // ---- SIMD-vs-scalar bit-exactness ----
    //
    // The lane-chunked kernels must agree with plain scalar reference
    // loops to the last bit, for every shape — including ragged tails
    // that don't divide the lane width or the column block. Proptests
    // sweep shapes around those boundaries.

    mod simd_bit_exact {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic "random" fill: varied exponents/signs, no RNG.
        fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
            let data = (0..rows * cols)
                .map(|i| ((i as f32) + salt as f32 * 0.618).sin() * 3.7)
                .collect();
            Matrix::from_vec(rows, cols, data)
        }

        /// Naive ascending-K matmul — the order contract.
        fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let mut acc = 0.0f32;
                    for kk in 0..a.cols() {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    out.set(i, j, acc);
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            #[test]
            fn simd_matmul_bit_exact(n in 1usize..6, k in 1usize..80, m in 1usize..20, salt in 0u32..100) {
                let a = filled(n, k, salt);
                let b = filled(k, m, salt.wrapping_add(1));
                prop_assert_eq!(
                    a.matmul(&b).as_slice(),
                    naive_matmul(&a, &b).as_slice(),
                    "lane-chunked matmul drifted from the scalar reference"
                );
            }

            #[test]
            fn simd_matmul_t_bit_exact(n in 1usize..6, k in 1usize..40, m in 1usize..20, salt in 0u32..100) {
                let a = filled(n, k, salt);
                let bt = filled(m, k, salt.wrapping_add(2)); // B already transposed: m×k
                // Reference: materialize the transpose and naive-matmul.
                let mut b = Matrix::zeros(k, m);
                for j in 0..m {
                    for kk in 0..k {
                        b.set(kk, j, bt.get(j, kk));
                    }
                }
                prop_assert_eq!(
                    a.matmul_t(&bt).as_slice(),
                    naive_matmul(&a, &b).as_slice(),
                    "register-blocked matmul_t drifted from the scalar reference"
                );
            }

            #[test]
            fn simd_t_matmul_bit_exact(n in 1usize..40, k in 1usize..12, m in 1usize..20, salt in 0u32..100) {
                let a = filled(n, k, salt);
                let b = filled(n, m, salt.wrapping_add(3));
                // Reference: materialize aᵀ and naive-matmul.
                let mut at = Matrix::zeros(k, n);
                for i in 0..n {
                    for kk in 0..k {
                        at.set(kk, i, a.get(i, kk));
                    }
                }
                prop_assert_eq!(
                    a.t_matmul(&b).as_slice(),
                    naive_matmul(&at, &b).as_slice(),
                    "lane-chunked t_matmul drifted from the scalar reference"
                );
            }

            #[test]
            fn simd_axpy_bit_exact(len in 1usize..70, alpha in -3.0f32..3.0, salt in 0u32..100) {
                let mut x = filled(1, len, salt);
                let y = filled(1, len, salt.wrapping_add(4));
                let expected: Vec<f32> = x
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&a, &b)| a + alpha * b)
                    .collect();
                x.axpy(alpha, &y);
                prop_assert_eq!(x.as_slice(), &expected[..]);
            }
        }
    }
}
