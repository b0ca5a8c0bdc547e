//! An LSTM cell with full backpropagation-through-time.
//!
//! Implements the standard LSTM equations (Hochreiter & Schmidhuber 1997,
//! the paper's citation \[51\]): input/forget/output gates plus a candidate
//! cell update. Caches per-timestep activations so a sequence can be
//! unrolled forward and gradients propagated backward through time.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter};
use crate::nn::adam::Adam;
use crate::nn::dense::clip;
use crate::nn::linalg::{
    matvec, matvec_colmajor_into, matvec_colmajor_seq_into, matvec_transposed,
    matvec_transposed_into, outer_accumulate, outer_accumulate_seq_rev, transpose_into, xavier,
};
use crate::nn::{sigmoid, sigmoid_deriv, tanh_deriv};
use rand::Rng;

/// Hidden/cell state pair carried across timesteps.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden output vector `h`.
    pub h: Vec<f64>,
    /// Cell memory vector `c`.
    pub c: Vec<f64>,
}

impl LstmState {
    /// Zero state for a cell of `hidden` units.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

/// Cached activations for one timestep, needed by the backward pass.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// A single LSTM layer (batch size 1) with trainable input, recurrent and
/// bias parameters, stacked gate-major: `[i, f, g, o]`.
///
/// Two forward/backward APIs share the same weights:
///
/// - the **reference** path ([`forward_step`](Self::forward_step) /
///   [`backward`](Self::backward)) — the original per-step-allocating
///   implementation, kept verbatim as the `with_reference_nn`
///   differential oracle;
/// - the **sequence** path ([`forward_seq`](Self::forward_seq) /
///   [`backward_seq`](Self::backward_seq)) — one call per window over
///   flat preallocated workspace buffers, with zero heap allocation once
///   the workspace has grown to the longest window seen. Only the
///   recurrent `h` path runs inside the time loop: the input projection
///   `Wx·x_t` is computed for every step before the recurrence, and the
///   weight gradients and `dL/dx` for every step after the backward
///   recurrence, each by a register-tiled kernel (`nn::linalg`).
///
/// Both produce bit-identical numbers: every output element accumulates
/// the same ordered sequence of IEEE-754 operations. Hoisting a
/// computation out of the time loop is safe because no element of
/// `Wx·x_t`, `dW`, `db` or `dx_t` feeds the recurrence; each keeps its own
/// per-element order (the gradients still add step `steps−1` first). A
/// cell instance should stick to one path per sequence — activations
/// cached by one are invisible to the other.
#[derive(Debug, Clone)]
pub struct LstmCell {
    input: usize,
    hidden: usize,
    /// Input weights, `(4·hidden) × input`.
    wx: Vec<f64>,
    /// Recurrent weights, `(4·hidden) × hidden`.
    wh: Vec<f64>,
    /// Bias, `4·hidden` (forget-gate bias initialized to 1, the standard
    /// trick to keep memory open early in training).
    b: Vec<f64>,
    dwx: Vec<f64>,
    dwh: Vec<f64>,
    db: Vec<f64>,
    opt_wx: Adam,
    opt_wh: Adam,
    opt_b: Adam,
    cache: Vec<StepCache>,
    /// Column-major mirror of `wx` (refreshed after every optimizer step)
    /// for the forward input projection.
    wx_t: Vec<f64>,
    /// Column-major mirror of `wh` for the forward recurrence.
    wh_t: Vec<f64>,
    /// Timesteps currently cached in the flat workspace.
    steps: usize,
    /// Flat inputs, `steps × input`.
    xs: Vec<f64>,
    /// Flat hidden states, `(steps+1) × hidden`; row `t` is h *before*
    /// step `t` (so row 0 is the zero initial state).
    hs: Vec<f64>,
    /// Flat cell states, same layout as `hs`.
    cs: Vec<f64>,
    /// Flat gates, `steps × 4·hidden`, gate-major `[i, f, g, o]` within
    /// each row. Row `t` holds the input projection `Wx·x_t` until step
    /// `t` of the recurrence turns it into the post-activation gates.
    gate_acts: Vec<f64>,
    /// Flat `tanh(c_t)`, `steps × hidden`.
    tanh_cs: Vec<f64>,
    /// Scratch: recurrent half of the pre-activation (`4·hidden`).
    zh: Vec<f64>,
    /// Flat gate pre-activation gradients, `steps × 4·hidden`, filled by
    /// the backward recurrence and consumed by the deferred kernels.
    dz: Vec<f64>,
    /// Scratch: dL/dh carried to timestep t-1 (`hidden`).
    dh_next: Vec<f64>,
    /// Scratch: dL/dc carried to timestep t-1 (`hidden`).
    dc_next: Vec<f64>,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, lr: f64, rng: &mut R) -> Self {
        assert!(input > 0 && hidden > 0, "dimensions must be positive");
        let gates = 4 * hidden;
        let mut b = vec![0.0; gates];
        for v in b.iter_mut().take(2 * hidden).skip(hidden) {
            *v = 1.0; // forget gate bias
        }
        let wx = xavier(gates, input, rng);
        let wh = xavier(gates, hidden, rng);
        let mut wx_t = vec![0.0; gates * input];
        transpose_into(&wx, gates, input, &mut wx_t);
        let mut wh_t = vec![0.0; gates * hidden];
        transpose_into(&wh, gates, hidden, &mut wh_t);
        LstmCell {
            input,
            hidden,
            wx,
            wh,
            b,
            dwx: vec![0.0; gates * input],
            dwh: vec![0.0; gates * hidden],
            db: vec![0.0; gates],
            opt_wx: Adam::new(gates * input, lr),
            opt_wh: Adam::new(gates * hidden, lr),
            opt_b: Adam::new(gates, lr),
            cache: Vec::new(),
            wx_t,
            wh_t,
            steps: 0,
            xs: Vec::new(),
            hs: vec![0.0; hidden],
            cs: Vec::new(),
            gate_acts: Vec::new(),
            tanh_cs: Vec::new(),
            zh: vec![0.0; gates],
            dz: Vec::new(),
            dh_next: vec![0.0; hidden],
            dc_next: vec![0.0; hidden],
        }
    }

    /// Hidden width of this cell.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width of this cell.
    pub fn input(&self) -> usize {
        self.input
    }

    /// Runs one timestep, caching activations for BPTT, and returns the new
    /// state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn forward_step(&mut self, x: &[f64], prev: &LstmState) -> LstmState {
        assert_eq!(x.len(), self.input, "input width mismatch");
        assert_eq!(prev.h.len(), self.hidden, "state width mismatch");
        let gates = 4 * self.hidden;
        let mut z = matvec(&self.wx, gates, self.input, x);
        let zh = matvec(&self.wh, gates, self.hidden, &prev.h);
        for (zv, (zhv, bv)) in z.iter_mut().zip(zh.iter().zip(&self.b)) {
            *zv += zhv + bv;
        }
        let h = self.hidden;
        let i: Vec<f64> = z[0..h].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f64> = z[h..2 * h].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f64> = z[2 * h..3 * h].iter().map(|&v| v.tanh()).collect();
        let o: Vec<f64> = z[3 * h..4 * h].iter().map(|&v| sigmoid(v)).collect();
        let mut c = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * prev.c[k] + i[k] * g[k];
        }
        let tanh_c: Vec<f64> = c.iter().map(|&v| v.tanh()).collect();
        let mut h_out = vec![0.0; h];
        for k in 0..h {
            h_out[k] = o[k] * tanh_c[k];
        }
        self.cache.push(StepCache {
            x: x.to_vec(),
            h_prev: prev.h.clone(),
            c_prev: prev.c.clone(),
            i,
            f,
            g,
            o,
            tanh_c,
        });
        LstmState { h: h_out, c }
    }

    /// Backpropagates through all cached timesteps.
    ///
    /// `dh_seq[t]` is dL/dh for timestep `t` (zero vectors for timesteps
    /// without direct loss). Accumulates weight gradients, clears the cache
    /// and returns per-timestep input gradients dL/dx.
    ///
    /// # Panics
    ///
    /// Panics if `dh_seq.len()` differs from the number of cached steps.
    pub fn backward(&mut self, dh_seq: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            dh_seq.len(),
            self.cache.len(),
            "need one dh per cached timestep"
        );
        let h = self.hidden;
        let gates = 4 * h;
        let mut dx_seq = vec![vec![0.0; self.input]; dh_seq.len()];
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        for t in (0..self.cache.len()).rev() {
            let cache = &self.cache[t];
            let mut dh = dh_seq[t].clone();
            for (a, b) in dh.iter_mut().zip(&dh_next) {
                *a += b;
            }
            // dL/dc through h = o * tanh(c), plus carry from t+1
            let mut dc = dc_next.clone();
            for k in 0..h {
                dc[k] += dh[k] * cache.o[k] * tanh_deriv(cache.tanh_c[k]);
            }
            // gate pre-activation gradients, stacked [i, f, g, o]
            let mut dz = vec![0.0; gates];
            for k in 0..h {
                dz[k] = dc[k] * cache.g[k] * sigmoid_deriv(cache.i[k]);
                dz[h + k] = dc[k] * cache.c_prev[k] * sigmoid_deriv(cache.f[k]);
                dz[2 * h + k] = dc[k] * cache.i[k] * tanh_deriv(cache.g[k]);
                dz[3 * h + k] = dh[k] * cache.tanh_c[k] * sigmoid_deriv(cache.o[k]);
            }
            outer_accumulate(&mut self.dwx, &dz, &cache.x);
            outer_accumulate(&mut self.dwh, &dz, &cache.h_prev);
            for (d, g) in self.db.iter_mut().zip(&dz) {
                *d += g;
            }
            dx_seq[t] = matvec_transposed(&self.wx, gates, self.input, &dz);
            dh_next = matvec_transposed(&self.wh, gates, h, &dz);
            for k in 0..h {
                dc_next[k] = dc[k] * cache.f[k];
            }
        }
        self.cache.clear();
        dx_seq
    }

    /// Runs a whole window from the zero state, caching activations for
    /// [`backward_seq`](Self::backward_seq). `xs` holds the inputs back to
    /// back (`steps × input`); the hidden states are then available from
    /// [`hidden_seq`](Self::hidden_seq) and
    /// [`last_hidden`](Self::last_hidden). A window cached earlier and
    /// not yet backpropagated is discarded.
    ///
    /// Bit-identical to [`forward_step`](Self::forward_step) from
    /// [`LstmState::zeros`], step by step: the pre-activation is still
    /// `z = Wx·x + (Wh·h_prev + b)`, with `Wx·x_t` computed for all steps
    /// up front (it never depends on `h`) and `Wh·h_prev` with its
    /// accumulators in registers (see [`matvec_colmajor_seq_into`]); every
    /// scalar expression is written in the reference's order.
    /// Allocation-free once the workspace has grown to the longest window
    /// seen.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of the input width.
    pub fn forward_seq(&mut self, xs: &[f64]) {
        let (input, h) = (self.input, self.hidden);
        let gates = 4 * h;
        assert_eq!(xs.len() % input, 0, "input width mismatch");
        let steps = xs.len() / input;
        self.steps = steps;
        self.xs.clear();
        self.xs.extend_from_slice(xs);
        self.hs.clear();
        self.hs.resize((steps + 1) * h, 0.0);
        self.cs.clear();
        self.cs.resize((steps + 1) * h, 0.0);
        self.gate_acts.resize(steps * gates, 0.0);
        self.tanh_cs.resize(steps * h, 0.0);
        matvec_colmajor_seq_into(&self.wx_t, gates, input, steps, xs, &mut self.gate_acts);
        for t in 0..steps {
            matvec_colmajor_into(
                &self.wh_t,
                gates,
                h,
                &self.hs[t * h..(t + 1) * h],
                &mut self.zh,
            );
            let gr = &mut self.gate_acts[t * gates..(t + 1) * gates];
            // z = Wx·x + (Wh·h_prev + b), grouped exactly as the reference
            for ((zv, zhv), bv) in gr.iter_mut().zip(&self.zh).zip(&self.b) {
                *zv += zhv + bv;
            }
            for k in 0..h {
                gr[k] = sigmoid(gr[k]);
                gr[h + k] = sigmoid(gr[h + k]);
                gr[2 * h + k] = gr[2 * h + k].tanh();
                gr[3 * h + k] = sigmoid(gr[3 * h + k]);
            }
            // rows t of cs/hs are the states entering step t, row t+1 the
            // states it produces
            let (c_prev, c_next) = self.cs[t * h..(t + 2) * h].split_at_mut(h);
            for k in 0..h {
                c_next[k] = gr[h + k] * c_prev[k] + gr[k] * gr[2 * h + k];
            }
            let tc = &mut self.tanh_cs[t * h..(t + 1) * h];
            let h_next = &mut self.hs[(t + 1) * h..(t + 2) * h];
            for k in 0..h {
                tc[k] = c_next[k].tanh();
                h_next[k] = gr[3 * h + k] * tc[k];
            }
        }
    }

    /// Hidden states of the cached window, `steps × hidden` (row `t` is
    /// the output of step `t`); empty once the window has been consumed.
    pub fn hidden_seq(&self) -> &[f64] {
        &self.hs[self.hidden..(self.steps + 1) * self.hidden]
    }

    /// Hidden state after the last cached step — the zero initial state
    /// when no window is cached.
    pub fn last_hidden(&self) -> &[f64] {
        &self.hs[self.steps * self.hidden..(self.steps + 1) * self.hidden]
    }

    /// BPTT over the window cached by [`forward_seq`](Self::forward_seq).
    ///
    /// `dh_seq` is the flat `steps × hidden` loss gradient (row `t` is
    /// dL/dh at timestep `t`). When `dx_seq` is `Some`, it is resized to
    /// `steps × input` and receives dL/dx (stacked models need it;
    /// bottom layers pass `None` and skip the work the reference path
    /// always did). Accumulates weight gradients on top of any earlier
    /// ones and consumes the window. Bit-identical to
    /// [`backward`](Self::backward); allocation-free in steady state.
    ///
    /// Only `dz_t`, `dh_next = Whᵀ·dz_t` and `dc_next` run inside the
    /// reverse time loop. Every `dz_t` is stored, and the weight
    /// gradients (`t = steps−1` first, as the reference adds them) and
    /// `dx = Wxᵀ·dz` for all steps follow as register-tiled kernels.
    ///
    /// # Panics
    ///
    /// Panics if `dh_seq.len()` is not `steps × hidden`.
    pub fn backward_seq(&mut self, dh_seq: &[f64], dx_seq: Option<&mut Vec<f64>>) {
        let (input, h) = (self.input, self.hidden);
        let gates = 4 * h;
        let steps = self.steps;
        assert_eq!(dh_seq.len(), steps * h, "need one dh per cached timestep");
        self.dz.resize(steps * gates, 0.0);
        self.dh_next.iter_mut().for_each(|v| *v = 0.0);
        self.dc_next.iter_mut().for_each(|v| *v = 0.0);
        for t in (0..steps).rev() {
            let gr = &self.gate_acts[t * gates..(t + 1) * gates];
            let tc = &self.tanh_cs[t * h..(t + 1) * h];
            let c_prev = &self.cs[t * h..(t + 1) * h];
            let dh_t = &dh_seq[t * h..(t + 1) * h];
            let dz = &mut self.dz[t * gates..(t + 1) * gates];
            for k in 0..h {
                let dh = dh_t[k] + self.dh_next[k];
                // dL/dc through h = o * tanh(c), plus carry from t+1
                let dc = self.dc_next[k] + dh * gr[3 * h + k] * tanh_deriv(tc[k]);
                // gate pre-activation gradients, stacked [i, f, g, o]
                dz[k] = dc * gr[2 * h + k] * sigmoid_deriv(gr[k]);
                dz[h + k] = dc * c_prev[k] * sigmoid_deriv(gr[h + k]);
                dz[2 * h + k] = dc * gr[k] * tanh_deriv(gr[2 * h + k]);
                dz[3 * h + k] = dh * tc[k] * sigmoid_deriv(gr[3 * h + k]);
                self.dc_next[k] = dc * gr[h + k];
            }
            matvec_transposed_into(&self.wh, gates, h, dz, &mut self.dh_next);
        }
        outer_accumulate_seq_rev(&mut self.dwx, gates, input, steps, &self.dz, &self.xs);
        // rows 0..steps of hs are the states entering each step
        outer_accumulate_seq_rev(
            &mut self.dwh,
            gates,
            h,
            steps,
            &self.dz,
            &self.hs[..steps * h],
        );
        for dz in self.dz.chunks_exact(gates).rev() {
            for (d, g) in self.db.iter_mut().zip(dz) {
                *d += g;
            }
        }
        if let Some(dx) = dx_seq {
            dx.clear();
            dx.resize(steps * input, 0.0);
            // the row-major Wx is the column-major store of Wxᵀ
            matvec_colmajor_seq_into(&self.wx, input, gates, steps, &self.dz, dx);
        }
        self.steps = 0;
    }

    /// Applies accumulated gradients with Adam and zeroes accumulators.
    pub fn apply_grads(&mut self, t: u64) {
        clip(&mut self.dwx, 5.0);
        clip(&mut self.dwh, 5.0);
        clip(&mut self.db, 5.0);
        self.opt_wx.step(&mut self.wx, &self.dwx, t);
        self.opt_wh.step(&mut self.wh, &self.dwh, t);
        self.opt_b.step(&mut self.b, &self.db, t);
        self.dwx.iter_mut().for_each(|v| *v = 0.0);
        self.dwh.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
        let gates = 4 * self.hidden;
        transpose_into(&self.wx, gates, self.input, &mut self.wx_t);
        transpose_into(&self.wh, gates, self.hidden, &mut self.wh_t);
    }

    /// Discards cached timesteps without applying gradients (inference).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.steps = 0;
    }

    /// Number of cached (not yet backpropagated) timesteps, whichever
    /// path cached them.
    pub fn cached_steps(&self) -> usize {
        self.cache.len().max(self.steps)
    }

    /// Read-only view of the trainable parameters `(wx, wh, b)` — used by
    /// the reference-vs-optimized differential tests to assert bit
    /// identity after training.
    pub fn weights(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.wx, &self.wh, &self.b)
    }

    /// Serializes dimensions, weights and optimizer state. Gradient
    /// accumulators and activation caches are not saved — a checkpoint is
    /// only taken between training steps, where both are empty.
    pub(crate) fn save_state(&self, w: &mut CkptWriter) {
        w.u32(self.input as u32);
        w.u32(self.hidden as u32);
        w.f64s(&self.wx);
        w.f64s(&self.wh);
        w.f64s(&self.b);
        self.opt_wx.save_state(w);
        self.opt_wh.save_state(w);
        self.opt_b.save_state(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// cell of identical shape. Accumulators are zeroed, caches cleared,
    /// and the column-major weight mirrors refreshed — the same
    /// invariants [`apply_grads`](Self::apply_grads) re-establishes after
    /// every optimizer step.
    pub(crate) fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CheckpointError> {
        if r.u32()? as usize != self.input || r.u32()? as usize != self.hidden {
            return Err(CheckpointError::ModelMismatch("lstm cell dimensions"));
        }
        r.f64s_into(&mut self.wx, "lstm input weights")?;
        r.f64s_into(&mut self.wh, "lstm recurrent weights")?;
        r.f64s_into(&mut self.b, "lstm bias")?;
        self.opt_wx.load_state(r)?;
        self.opt_wh.load_state(r)?;
        self.opt_b.load_state(r)?;
        self.dwx.iter_mut().for_each(|v| *v = 0.0);
        self.dwh.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
        self.clear_cache();
        let gates = 4 * self.hidden;
        transpose_into(&self.wx, gates, self.input, &mut self.wx_t);
        transpose_into(&self.wh, gates, self.hidden, &mut self.wh_t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_sequence(cell: &mut LstmCell, xs: &[f64]) -> Vec<f64> {
        let mut state = LstmState::zeros(cell.hidden());
        let mut last = Vec::new();
        for &x in xs {
            state = cell.forward_step(&[x], &state);
            last = state.h.clone();
        }
        last
    }

    #[test]
    fn forward_produces_bounded_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cell = LstmCell::new(1, 8, 0.01, &mut rng);
        let h = run_sequence(&mut cell, &[0.5, -0.5, 1.0]);
        assert_eq!(h.len(), 8);
        // h = o·tanh(c), both factors bounded
        assert!(h.iter().all(|v| v.abs() <= 1.0));
        assert_eq!(cell.cached_steps(), 3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // full BPTT check: loss = sum(h_T); perturb an input weight
        let mut rng = StdRng::seed_from_u64(2);
        let mut cell = LstmCell::new(1, 4, 0.01, &mut rng);
        let xs = [0.3, -0.7, 0.9];

        // analytic input gradients
        let mut state = LstmState::zeros(4);
        for &x in &xs {
            state = cell.forward_step(&[x], &state);
        }
        let mut dh_seq = vec![vec![0.0; 4]; xs.len()];
        dh_seq[2] = vec![1.0; 4];
        let dx = cell.backward(&dh_seq);

        // numeric input gradient for each timestep
        let h = 1e-6;
        for t in 0..xs.len() {
            let loss = |cell: &mut LstmCell, xs: &[f64]| -> f64 {
                let out = run_sequence(cell, xs);
                cell.clear_cache();
                out.iter().sum()
            };
            let mut xp = xs;
            xp[t] += h;
            let mut xm = xs;
            xm[t] -= h;
            let numeric = (loss(&mut cell, &xp) - loss(&mut cell, &xm)) / (2.0 * h);
            assert!(
                (numeric - dx[t][0]).abs() < 1e-5,
                "t={t}: numeric {numeric} vs analytic {}",
                dx[t][0]
            );
        }
    }

    #[test]
    fn learns_to_remember_first_input() {
        // task: output sign of the first input after 4 steps of noise —
        // requires memory, which is what an LSTM adds over an MLP
        let mut rng = StdRng::seed_from_u64(3);
        let mut cell = LstmCell::new(1, 8, 0.02, &mut rng);
        let mut head = crate::nn::Dense::new(8, 1, 0.02, &mut rng);
        let mut step = 0;
        for epoch in 0..300 {
            let first = if epoch % 2 == 0 { 1.0 } else { -1.0 };
            let xs = [first, 0.1, -0.1, 0.05];
            let mut state = LstmState::zeros(8);
            let mut hs = Vec::new();
            for &x in &xs {
                state = cell.forward_step(&[x], &state);
                hs.push(state.h.clone());
            }
            let y = head.forward(&state.h)[0];
            let err = y - first;
            let dh_last = head.backward(&state.h, &[2.0 * err]);
            let mut dh_seq = vec![vec![0.0; 8]; xs.len()];
            dh_seq[3] = dh_last;
            cell.backward(&dh_seq);
            step += 1;
            cell.apply_grads(step);
            head.apply_grads(step);
        }
        // evaluate
        let mut predict = |first: f64| {
            let xs = [first, 0.1, -0.1, 0.05];
            let out = run_sequence(&mut cell, &xs);
            cell.clear_cache();
            head.forward(&out)[0]
        };
        assert!(predict(1.0) > 0.4, "positive case {}", predict(1.0));
        assert!(predict(-1.0) < -0.4, "negative case {}", predict(-1.0));
    }

    #[test]
    #[should_panic(expected = "one dh per cached timestep")]
    fn backward_requires_matching_length() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cell = LstmCell::new(1, 2, 0.01, &mut rng);
        let s = LstmState::zeros(2);
        cell.forward_step(&[1.0], &s);
        let _ = cell.backward(&[]);
    }

    #[test]
    fn clear_cache_resets() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cell = LstmCell::new(1, 2, 0.01, &mut rng);
        let s = LstmState::zeros(2);
        cell.forward_step(&[1.0], &s);
        cell.clear_cache();
        assert_eq!(cell.cached_steps(), 0);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The sequence path must match the reference path bit for bit —
    /// hidden states, input gradients and post-update weights compared by
    /// `to_bits` over several training rounds. Even rounds backpropagate
    /// two windows of different lengths before one optimizer step, so the
    /// deferred gradient kernels must accumulate, not overwrite.
    #[test]
    fn sequence_path_bit_identical_to_reference() {
        for (input, hidden) in [(1, 32), (32, 32), (3, 5)] {
            for seed in [11u64, 42] {
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                let mut reference = LstmCell::new(input, hidden, 0.01, &mut r1);
                let mut sequence = LstmCell::new(input, hidden, 0.01, &mut r2);
                let mut data = StdRng::seed_from_u64(seed + 1000);
                let mut dx = Vec::new();
                for round in 1..=4u64 {
                    let case = format!("{input}x{hidden} seed={seed} round={round}");
                    for steps in if round % 2 == 0 { 6..8 } else { 7..8 } {
                        let xs: Vec<f64> = (0..steps * input)
                            .map(|_| data.gen_range(-2.0..2.0))
                            .collect();
                        let dh: Vec<f64> = (0..steps * hidden)
                            .map(|_| data.gen_range(-1.0..1.0))
                            .collect();
                        let mut state = LstmState::zeros(hidden);
                        let mut h_ref = Vec::new();
                        for x in xs.chunks(input) {
                            state = reference.forward_step(x, &state);
                            h_ref.extend_from_slice(&state.h);
                        }
                        sequence.forward_seq(&xs);
                        assert_eq!(bits(sequence.hidden_seq()), bits(&h_ref), "h {case}");
                        assert_eq!(
                            bits(sequence.last_hidden()),
                            bits(&state.h),
                            "last h {case}"
                        );
                        let dh_rows: Vec<Vec<f64>> =
                            dh.chunks(hidden).map(<[f64]>::to_vec).collect();
                        let dx_ref = reference.backward(&dh_rows).concat();
                        sequence.backward_seq(&dh, Some(&mut dx));
                        assert_eq!(bits(&dx), bits(&dx_ref), "dx {case}");
                    }
                    reference.apply_grads(round);
                    sequence.apply_grads(round);
                    let (sx, sh, sb) = sequence.weights();
                    let (rx, rh, rb) = reference.weights();
                    assert_eq!(bits(sx), bits(rx), "wx {case}");
                    assert_eq!(bits(sh), bits(rh), "wh {case}");
                    assert_eq!(bits(sb), bits(rb), "b {case}");
                }
            }
        }
    }

    /// `backward_seq(None)` must accumulate the same weight gradients as
    /// with a dx output buffer — the skipped dx kernel feeds nothing else.
    #[test]
    fn backward_seq_without_dx_matches() {
        let mut r1 = StdRng::seed_from_u64(6);
        let mut r2 = StdRng::seed_from_u64(6);
        let mut a = LstmCell::new(1, 4, 0.01, &mut r1);
        let mut b = LstmCell::new(1, 4, 0.01, &mut r2);
        a.forward_seq(&[0.2, -0.4, 0.6]);
        b.forward_seq(&[0.2, -0.4, 0.6]);
        let dh = vec![0.25; 12];
        let mut dx = Vec::new();
        a.backward_seq(&dh, Some(&mut dx));
        b.backward_seq(&dh, None);
        a.apply_grads(1);
        b.apply_grads(1);
        assert_eq!(a.weights(), b.weights());
    }

    /// A window is consumed by backward and dropped by `clear_cache`;
    /// either way the cell reports the zero state as its last output.
    #[test]
    fn sequence_window_lifecycle() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut cell = LstmCell::new(2, 3, 0.01, &mut rng);
        assert_eq!(cell.last_hidden(), &[0.0; 3]);
        cell.forward_seq(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(cell.cached_steps(), 2);
        assert_eq!(cell.hidden_seq().len(), 6);
        assert_eq!(cell.last_hidden(), &cell.hidden_seq()[3..]);
        cell.clear_cache();
        assert_eq!(cell.cached_steps(), 0);
        assert!(cell.hidden_seq().is_empty());
        assert_eq!(cell.last_hidden(), &[0.0; 3]);
        cell.forward_seq(&[0.5, 0.6]);
        cell.backward_seq(&[1.0; 3], None);
        assert_eq!(cell.cached_steps(), 0);
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cell = LstmCell::new(1, 4, 0.01, &mut rng);
            run_sequence(&mut cell, &[0.1, 0.2, 0.3])
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
