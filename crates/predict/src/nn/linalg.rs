//! Vector and (flat row-major) matrix primitives for batch-size-1 training.
//!
//! Every kernel exists in two forms: an allocating reference form (the
//! original scalar implementation, kept for tests and the
//! `use_reference_nn` differential path) and a write-into form taking a
//! `&mut [f64]` output slice for the allocation-free hot loops. The two
//! forms are **bit-identical** by construction: each output element is
//! accumulated as the same ordered sequence of IEEE-754 adds, so the
//! optimized layouts change memory traffic, never rounding.
//!
//! The sequence kernels ([`matvec_colmajor_seq_into`],
//! [`outer_accumulate_seq_rev`]) apply one matrix to every timestep of a
//! window in a single call. They block the output into register tiles —
//! each tile's partial sums live in registers for a whole reduction sweep
//! — but every element still sees exactly the adds its reference
//! counterpart performs, in the same order.

use rand::Rng;

/// y = W·x where `w` is `rows × cols` row-major and `x` has `cols` entries.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec(w: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    let mut y = vec![0.0; rows];
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0;
        for (wv, xv) in row.iter().zip(x) {
            acc += wv * xv;
        }
        *yr = acc;
    }
    y
}

/// Write-into form of [`matvec`]: `y = W·x` into a caller-owned slice.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_into(w: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0;
        for (wv, xv) in row.iter().zip(x) {
            acc += wv * xv;
        }
        *yr = acc;
    }
}

/// `y = W·x` where `wt` stores W in **column-major** order (`wt[c·rows + r]
/// = W[r][c]`, see [`transpose_into`]): the one-step form of
/// [`matvec_colmajor_seq_into`]. Every `y[r]` accumulates `W[r][c]·x[c]`
/// for `c = 0, 1, …` in exactly the order the row-major dot product in
/// [`matvec`] uses, so the result is bit-identical.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_colmajor_into(wt: &[f64], rows: usize, cols: usize, x: &[f64], y: &mut [f64]) {
    assert_eq!(wt.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    matvec_colmajor_seq_into(wt, rows, cols, 1, x, y);
}

/// Output rows per register tile of [`matvec_colmajor_seq_into`]: 32
/// independent accumulator chains are enough to hide the add latency.
const MV_TILE: usize = 32;
/// Smaller tile for the rows left over after the full tiles.
const MV_TAIL_TILE: usize = 8;

/// `y_t = W·x_t` for each of `steps` inputs, where `wt` stores the `rows ×
/// cols` matrix W column-major (`wt[c·rows + r] = W[r][c]`), `xs` holds the
/// inputs back to back (`steps × cols`) and `ys` receives the outputs
/// (`steps × rows`).
///
/// Rows are processed in tiles whose accumulators stay in registers for
/// the whole column sweep: each starts at `0.0` and adds `W[r][c]·x_t[c]`
/// for `c = 0, 1, …` — the float sequence of the row-wise dot product in
/// [`matvec`], so every output is bit-identical to `matvec(W, x_t)`.
/// A row-major `rows × cols` matrix is the column-major store of its
/// transpose, so the same kernel computes `Wᵀ·g` straight from row-major
/// weights (see [`matvec_transposed_into`]).
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_colmajor_seq_into(
    wt: &[f64],
    rows: usize,
    cols: usize,
    steps: usize,
    xs: &[f64],
    ys: &mut [f64],
) {
    assert_eq!(wt.len(), rows * cols, "weight shape mismatch");
    assert_eq!(xs.len(), steps * cols, "input length mismatch");
    assert_eq!(ys.len(), steps * rows, "output length mismatch");
    for t in 0..steps {
        let x = &xs[t * cols..(t + 1) * cols];
        let y = &mut ys[t * rows..(t + 1) * rows];
        let mut r0 = 0;
        while r0 + MV_TILE <= rows {
            colmajor_tile::<MV_TILE>(wt, rows, x, r0, y);
            r0 += MV_TILE;
        }
        while r0 + MV_TAIL_TILE <= rows {
            colmajor_tile::<MV_TAIL_TILE>(wt, rows, x, r0, y);
            r0 += MV_TAIL_TILE;
        }
        while r0 < rows {
            colmajor_tile::<1>(wt, rows, x, r0, y);
            r0 += 1;
        }
    }
}

/// Rows `r0..r0+B` of `y = W·x` with the `B` accumulators in registers.
#[inline(always)]
fn colmajor_tile<const B: usize>(wt: &[f64], rows: usize, x: &[f64], r0: usize, y: &mut [f64]) {
    let mut acc = [0.0_f64; B];
    for (c, &xv) in x.iter().enumerate() {
        let col: &[f64; B] = wt[c * rows + r0..][..B]
            .try_into()
            .expect("tile lies inside the column");
        for (a, &wv) in acc.iter_mut().zip(col) {
            *a += wv * xv;
        }
    }
    y[r0..r0 + B].copy_from_slice(&acc);
}

/// Writes the column-major mirror of the `rows × cols` row-major `w` into
/// `wt` (`wt[c·rows + r] = w[r·cols + c]`). Cells refresh their mirrors
/// after each optimizer step so [`matvec_colmajor_into`] always sees
/// current weights.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn transpose_into(w: &[f64], rows: usize, cols: usize, wt: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(wt.len(), rows * cols, "mirror length mismatch");
    // column by column, so the writes stream through the mirror
    for c in 0..cols {
        let col = &mut wt[c * rows..(c + 1) * rows];
        for (r, wv) in col.iter_mut().enumerate() {
            *wv = w[r * cols + c];
        }
    }
}

/// y = Wᵀ·g where `w` is `rows × cols` row-major and `g` has `rows`
/// entries; used to propagate gradients back through a linear map.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_transposed(w: &[f64], rows: usize, cols: usize, g: &[f64]) -> Vec<f64> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(g.len(), rows, "gradient length mismatch");
    let mut y = vec![0.0; cols];
    matvec_transposed_into(w, rows, cols, g, &mut y);
    y
}

/// Write-into form of [`matvec_transposed`]: `y = Wᵀ·g` into a caller-owned
/// slice. The row-major `w` is the column-major store of `Wᵀ`, so this is
/// [`matvec_colmajor_seq_into`] over one step: each `y[c]` accumulates
/// `W[r][c]·g[r]` in a register over `r = 0, 1, …`, the same order as the
/// reference.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn matvec_transposed_into(w: &[f64], rows: usize, cols: usize, g: &[f64], y: &mut [f64]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(g.len(), rows, "gradient length mismatch");
    assert_eq!(y.len(), cols, "output length mismatch");
    matvec_colmajor_seq_into(w, cols, rows, 1, g, y);
}

/// dW += g ⊗ x (outer product accumulate) for a `rows × cols` gradient
/// buffer.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn outer_accumulate(dw: &mut [f64], g: &[f64], x: &[f64]) {
    assert_eq!(dw.len(), g.len() * x.len(), "gradient shape mismatch");
    for (r, &gr) in g.iter().enumerate() {
        let row = &mut dw[r * x.len()..(r + 1) * x.len()];
        for (d, &xv) in row.iter_mut().zip(x) {
            *d += gr * xv;
        }
    }
}

/// Gradient rows per register tile of [`outer_accumulate_seq_rev`].
const OP_TILE_ROWS: usize = 4;
/// Gradient columns per register tile of [`outer_accumulate_seq_rev`].
const OP_TILE_COLS: usize = 8;

/// `dW += Σ_t g_t ⊗ x_t` over a whole window, for a `rows × cols` gradient
/// buffer: `gs` holds the `steps` row vectors `g_t` back to back (`steps ×
/// rows`) and `xs` the `x_t` (`steps × cols`).
///
/// Each element starts from its current value and adds `g_t[r]·x_t[c]`
/// for `t = steps−1, …, 0` — exactly the adds of calling
/// [`outer_accumulate`]`(dw, g_t, x_t)` once per step in descending `t`,
/// the order backpropagation through time visits the steps. Tiles of
/// `4 × 8` elements hold their running sums in registers across the whole
/// step sweep instead of reloading the buffer every step.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn outer_accumulate_seq_rev(
    dw: &mut [f64],
    rows: usize,
    cols: usize,
    steps: usize,
    gs: &[f64],
    xs: &[f64],
) {
    assert_eq!(dw.len(), rows * cols, "gradient shape mismatch");
    assert_eq!(gs.len(), steps * rows, "gradient sequence length mismatch");
    assert_eq!(xs.len(), steps * cols, "input sequence length mismatch");
    let seq = OuterSeq {
        rows,
        cols,
        steps,
        gs,
        xs,
    };
    let mut r0 = 0;
    while r0 + OP_TILE_ROWS <= rows {
        seq.tile_row::<OP_TILE_ROWS>(dw, r0);
        r0 += OP_TILE_ROWS;
    }
    while r0 < rows {
        seq.tile_row::<1>(dw, r0);
        r0 += 1;
    }
}

/// Shapes and inputs of one [`outer_accumulate_seq_rev`] call.
struct OuterSeq<'a> {
    rows: usize,
    cols: usize,
    steps: usize,
    gs: &'a [f64],
    xs: &'a [f64],
}

impl OuterSeq<'_> {
    /// Gradient rows `r0..r0+R`, swept in column tiles.
    #[inline(always)]
    fn tile_row<const R: usize>(&self, dw: &mut [f64], r0: usize) {
        let mut c0 = 0;
        while c0 + OP_TILE_COLS <= self.cols {
            self.tile::<R, OP_TILE_COLS>(dw, r0, c0);
            c0 += OP_TILE_COLS;
        }
        while c0 < self.cols {
            self.tile::<R, 1>(dw, r0, c0);
            c0 += 1;
        }
    }

    /// The `R × C` tile at `(r0, c0)`, accumulated over every step.
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, dw: &mut [f64], r0: usize, c0: usize) {
        let cols = self.cols;
        let mut acc = [[0.0_f64; C]; R];
        for (i, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&dw[(r0 + i) * cols + c0..][..C]);
        }
        for t in (0..self.steps).rev() {
            let g: &[f64; R] = self.gs[t * self.rows + r0..][..R]
                .try_into()
                .expect("tile lies inside the gradient row");
            let x: &[f64; C] = self.xs[t * cols + c0..][..C]
                .try_into()
                .expect("tile lies inside the input row");
            for (row, &gr) in acc.iter_mut().zip(g) {
                for (d, &xv) in row.iter_mut().zip(x) {
                    *d += gr * xv;
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            dw[(r0 + i) * cols + c0..][..C].copy_from_slice(row);
        }
    }
}

/// Element-wise a += b.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (av, bv) in a.iter_mut().zip(b) {
        *av += bv;
    }
}

/// Xavier/Glorot uniform initialization for a `rows × cols` weight matrix.
pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Vec<f64> {
    let bound = (6.0 / (rows + cols) as f64).sqrt();
    (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_known_result() {
        // [[1,2],[3,4]] · [5,6] = [17, 39]
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(matvec(&w, 2, 2, &[5.0, 6.0]), vec![17.0, 39.0]);
    }

    #[test]
    fn transpose_consistency() {
        // (Wᵀg)·x == g·(Wx) for all g, x
        let w = [0.5, -1.0, 2.0, 0.25, 1.5, -0.75];
        let x = [1.0, 2.0, 3.0];
        let g = [0.3, -0.6];
        let wx = matvec(&w, 2, 3, &x);
        let wtg = matvec_transposed(&w, 2, 3, &g);
        let lhs: f64 = wtg.iter().zip(&x).map(|(a, b)| a * b).sum();
        let rhs: f64 = g.iter().zip(&wx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn outer_accumulate_adds() {
        let mut dw = vec![1.0; 4];
        outer_accumulate(&mut dw, &[2.0, 3.0], &[10.0, 20.0]);
        assert_eq!(dw, vec![21.0, 41.0, 31.0, 61.0]);
    }

    #[test]
    fn add_assign_elementwise() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[3.0, 4.0]);
        assert_eq!(a, vec![4.0, 6.0]);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = xavier(8, 8, &mut rng);
        let bound = (6.0 / 16.0_f64).sqrt();
        assert!(w.iter().all(|v| v.abs() < bound));
        let mut rng2 = StdRng::seed_from_u64(9);
        assert_eq!(w, xavier(8, 8, &mut rng2));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_rejects_bad_shape() {
        let _ = matvec(&[1.0, 2.0], 2, 2, &[1.0, 1.0]);
    }

    /// Awkward rows/cols and values spanning many exponents: the write-into
    /// and column-major forms must be bit-identical to the reference, not
    /// merely close.
    #[test]
    fn into_variants_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        for (rows, cols) in [(1, 1), (3, 5), (128, 32), (128, 1), (7, 13)] {
            let w = xavier(rows, cols, &mut rng);
            let x: Vec<f64> = (0..cols)
                .map(|i| (i as f64 - 2.0) * 1e3_f64.powi(i as i32 % 5 - 2))
                .collect();
            let g: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect();

            let y_ref = matvec(&w, rows, cols, &x);
            let mut y = vec![f64::NAN; rows];
            matvec_into(&w, rows, cols, &x, &mut y);
            assert_eq!(y, y_ref, "matvec_into {rows}x{cols}");

            let mut wt = vec![0.0; rows * cols];
            transpose_into(&w, rows, cols, &mut wt);
            let mut y2 = vec![f64::NAN; rows];
            matvec_colmajor_into(&wt, rows, cols, &x, &mut y2);
            assert_eq!(y2, y_ref, "matvec_colmajor_into {rows}x{cols}");

            let t_ref = matvec_transposed(&w, rows, cols, &g);
            let mut t = vec![f64::NAN; cols];
            matvec_transposed_into(&w, rows, cols, &g, &mut t);
            assert_eq!(t, t_ref, "matvec_transposed_into {rows}x{cols}");
        }
    }

    /// A value for the sequence-kernel tests: mostly finite with exponents
    /// spanning ±150 binary orders (so sums cancel and round, and a
    /// reordered add would show), signed zeros, subnormals, and — with
    /// probability `non_finite` — an infinity or a NaN.
    fn wild_value(rng: &mut StdRng, non_finite: f64) -> f64 {
        if rng.gen_bool(non_finite) {
            return [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
        }
        match rng.gen_range(0..16u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0) / 64.0,
            _ => rng.gen_range(-1.0..1.0) * 2f64.powi(rng.gen_range(-150..150)),
        }
    }

    fn wild_vec(rng: &mut StdRng, n: usize, non_finite: f64) -> Vec<f64> {
        (0..n).map(|_| wild_value(rng, non_finite)).collect()
    }

    /// Bitwise equality, except that any NaN matches any NaN: IEEE-754
    /// leaves NaN payload propagation open and the compiler may commute
    /// an add, so only the NaN-ness of a result is part of the contract.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:e} ({:#x}), reference {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The sequence kernels against per-step calls of the reference
    /// kernels, on random shapes that include 1×1, odd sizes and sizes
    /// that are not multiples of any register tile.
    #[test]
    fn sequence_kernels_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut shapes = vec![
            (1, 1, 1),
            (128, 32, 20),
            (32, 128, 20),
            (128, 1, 20),
            (20, 5, 3),
        ];
        for _ in 0..40 {
            shapes.push((
                rng.gen_range(1..70usize),
                rng.gen_range(1..40usize),
                rng.gen_range(1..9usize),
            ));
        }
        for (rows, cols, steps) in shapes {
            for non_finite in [0.0, 0.02] {
                let what = format!("{rows}x{cols}x{steps} non_finite={non_finite}");
                let w = wild_vec(&mut rng, rows * cols, non_finite);
                let mut wt = vec![0.0; rows * cols];
                transpose_into(&w, rows, cols, &mut wt);
                let xs = wild_vec(&mut rng, steps * cols, non_finite);
                let gs = wild_vec(&mut rng, steps * rows, non_finite);

                // ys_t = W·x_t
                let want: Vec<f64> = xs
                    .chunks(cols)
                    .flat_map(|x| matvec(&w, rows, cols, x))
                    .collect();
                let mut ys = vec![f64::NAN; steps * rows];
                matvec_colmajor_seq_into(&wt, rows, cols, steps, &xs, &mut ys);
                assert_same_bits(&ys, &want, &format!("matvec_colmajor_seq_into {what}"));

                // Wᵀ·g_t straight from the row-major weights
                let want: Vec<f64> = gs
                    .chunks(rows)
                    .flat_map(|g| matvec_transposed(&w, rows, cols, g))
                    .collect();
                let mut ys = vec![f64::NAN; steps * cols];
                matvec_colmajor_seq_into(&w, cols, rows, steps, &gs, &mut ys);
                assert_same_bits(&ys, &want, &format!("transposed seq {what}"));
                let mut y = vec![f64::NAN; cols];
                matvec_transposed_into(&w, rows, cols, &gs[..rows], &mut y);
                assert_same_bits(&y, &want[..cols], &format!("matvec_transposed_into {what}"));

                // dW += Σ g_t ⊗ x_t, t descending, on top of existing sums
                let start = wild_vec(&mut rng, rows * cols, non_finite);
                let mut want = start.clone();
                for t in (0..steps).rev() {
                    let g = &gs[t * rows..(t + 1) * rows];
                    outer_accumulate(&mut want, g, &xs[t * cols..(t + 1) * cols]);
                }
                let mut dw = start;
                outer_accumulate_seq_rev(&mut dw, rows, cols, steps, &gs, &xs);
                assert_same_bits(&dw, &want, &format!("outer_accumulate_seq_rev {what}"));
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let mut wt = [0.0; 6];
        transpose_into(&w, 2, 3, &mut wt);
        assert_eq!(wt, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let mut back = [0.0; 6];
        transpose_into(&wt, 3, 2, &mut back);
        assert_eq!(back, w);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn matvec_into_rejects_bad_output() {
        let mut y = [0.0; 3];
        matvec_into(&[1.0, 2.0, 3.0, 4.0], 2, 2, &[1.0, 1.0], &mut y);
    }
}
