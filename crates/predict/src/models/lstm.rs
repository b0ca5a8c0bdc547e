//! The LSTM predictor Fifer adopts (§4.5, §5.1): 2 layers × 32 units,
//! trained for 100 epochs at batch size 1 with time-step prediction.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter, TAG_LSTM};
use crate::models::LagWindow;
use crate::nn::{Dense, LstmCell, LstmState};
use crate::predictor::LoadPredictor;
use crate::train::{
    holdout_split, run_early_stopped, val_error_over, windowed_pairs, Scaler, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stacked-LSTM forecaster with a dense head.
///
/// Supports the paper's §8 extension: "the LSTM model parameters can be
/// constantly updated by retraining in the background with new arrival
/// rates". Enable it with [`LstmPredictor::with_online_retraining`]; the
/// model then keeps a bounded history of observations and runs a few
/// fine-tuning epochs over the recent window every `retrain_every`
/// observations.
#[derive(Debug, Clone)]
pub struct LstmPredictor {
    cfg: TrainConfig,
    layers: Vec<LstmCell>,
    head: Dense,
    scaler: Scaler,
    window: LagWindow,
    trained: bool,
    /// Online-retraining period in observations (0 = disabled).
    retrain_every: usize,
    /// Fine-tuning epochs per retraining round.
    retrain_epochs: usize,
    /// Bounded history of raw observations for retraining.
    history: Vec<f64>,
    observations: usize,
    /// Global Adam step across pretraining and retraining rounds.
    train_step: u64,
    /// Effective pretraining epochs (the restored-best epoch when early
    /// stopping fires, the full budget otherwise).
    epochs_run: usize,
    /// Route through the original per-step-allocating NN path instead of
    /// the flat-workspace one (differential testing; both are
    /// bit-identical).
    use_reference_nn: bool,
    /// Scratch: raw padded lag window.
    raw_buf: Vec<f64>,
    /// Scratch: normalized lag window.
    norm_buf: Vec<f64>,
    /// Scratch: flat `steps × hidden` loss gradient for the layer being
    /// backpropagated.
    dh_flat: Vec<f64>,
    /// Scratch: flat input gradient, ping-ponged with `dh_flat`.
    dx_flat: Vec<f64>,
    /// Scratch: head output (length 1).
    head_out: Vec<f64>,
    /// Scratch: head input gradient (length `hidden`).
    dh_last: Vec<f64>,
    /// Scratch: normalized training series — reused across retraining
    /// rounds so steady-state online retraining allocates nothing.
    train_norm: Vec<f64>,
}

impl LstmPredictor {
    /// Creates a stacked LSTM with `num_layers` layers of `hidden` units.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers` is zero.
    pub fn new(cfg: TrainConfig, hidden: usize, seed: u64, num_layers: usize) -> Self {
        assert!(num_layers > 0, "need at least one LSTM layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let input = if l == 0 { 1 } else { hidden };
            layers.push(LstmCell::new(input, hidden, cfg.lr, &mut rng));
        }
        LstmPredictor {
            head: Dense::new(hidden, 1, cfg.lr, &mut rng),
            layers,
            scaler: Scaler::fit(&[]),
            window: LagWindow::new(cfg.lags),
            cfg,
            trained: false,
            retrain_every: 0,
            retrain_epochs: 2,
            history: Vec::new(),
            observations: 0,
            train_step: 0,
            epochs_run: 0,
            use_reference_nn: false,
            raw_buf: Vec::new(),
            norm_buf: Vec::new(),
            dh_flat: Vec::new(),
            dx_flat: Vec::new(),
            head_out: vec![0.0; 1],
            dh_last: vec![0.0; hidden],
            train_norm: Vec::new(),
        }
    }

    /// The paper's configuration: 2 layers, 32 neurons, 100 epochs. The
    /// learning rate is tuned to 2e-3, where this implementation reaches
    /// its best validation RMSE on the WITS-like trace.
    pub fn paper_default(seed: u64) -> Self {
        let cfg = TrainConfig {
            lr: 2e-3,
            ..TrainConfig::default()
        };
        LstmPredictor::new(cfg, 32, seed, 2)
    }

    /// The production serving configuration: 1 layer, 16 neurons, early
    /// stopping armed with [`TrainConfig::production`]'s knobs. On the
    /// bench's wiki-like replay series this right-sized model matches or
    /// beats the paper configuration's walk-forward accuracy while
    /// pre-training more than an order of magnitude faster — the shape
    /// that kills the 27 s pretrain wall.
    pub fn production(seed: u64) -> Self {
        let cfg = TrainConfig {
            lr: 2e-3,
            ..TrainConfig::production()
        };
        LstmPredictor::new(cfg, 16, seed, 1)
    }

    /// Enables background retraining (§8): every `every` observations the
    /// model fine-tunes for `epochs` passes over the recent history.
    ///
    /// # Panics
    ///
    /// Panics if `every` or `epochs` is zero.
    pub fn with_online_retraining(mut self, every: usize, epochs: usize) -> Self {
        assert!(every > 0, "retraining period must be positive");
        assert!(epochs > 0, "need at least one fine-tuning epoch");
        self.retrain_every = every;
        self.retrain_epochs = epochs;
        self
    }

    /// Routes through the original per-step-allocating NN implementation.
    /// Bit-identical to the default flat-workspace path; kept so the
    /// differential suite (and skeptical users) can check that end to end.
    pub fn with_reference_nn(mut self, reference: bool) -> Self {
        self.use_reference_nn = reference;
        self
    }

    /// Length of the lag window the model forecasts from.
    pub fn lags(&self) -> usize {
        self.cfg.lags
    }

    /// Arms early stopping: pretraining ends after `patience` epochs
    /// without at least `min_delta` of validation-error improvement, and
    /// the best-validation weights are restored.
    pub fn with_early_stopping(mut self, patience: usize, min_delta: f64) -> Self {
        self.cfg = self.cfg.with_early_stopping(patience, min_delta);
        self
    }

    /// Runs `epochs` passes over `series` (normalized with the current
    /// scaler), continuing the global Adam schedule. Returns the number
    /// of epochs actually run (0 when the series is too short to window).
    /// Allocation-free in steady state on the optimized path — the
    /// normalized series lands in a reusable scratch buffer and training
    /// windows are sliced straight out of it.
    fn train_epochs(&mut self, series: &[f64], epochs: usize) -> usize {
        let mut norm = std::mem::take(&mut self.train_norm);
        self.scaler.transform_series_into(series, &mut norm);
        if norm.len() <= self.cfg.lags {
            self.train_norm = norm;
            return 0;
        }
        for _ in 0..epochs {
            self.fit_pass_norm(&norm);
        }
        self.trained = true;
        self.train_norm = norm;
        epochs
    }

    /// One pass over every training window of a pre-normalized series.
    /// The optimized path slices windows directly out of `norm` (zero
    /// allocations); the reference path materializes the window pairs
    /// exactly as the original implementation did. Both are bit-identical.
    fn fit_pass_norm(&mut self, norm: &[f64]) {
        let lags = self.cfg.lags;
        if self.use_reference_nn {
            let pairs = windowed_pairs(norm, lags);
            for (x, target) in &pairs {
                let (per_layer_h, y) = self.run_stack(x, true);
                let derr = 2.0 * (y - target);
                let steps = x.len();
                let top = self.layers.len() - 1;
                let dh_last = self.head.backward(&per_layer_h[top][steps - 1], &[derr]);
                let mut dh_seq = vec![vec![0.0; self.layers[top].hidden()]; steps];
                dh_seq[steps - 1] = dh_last;
                for l in (0..self.layers.len()).rev() {
                    let dx_seq = self.layers[l].backward(&dh_seq);
                    if l > 0 {
                        dh_seq = dx_seq;
                    }
                }
                self.apply_all_grads();
            }
        } else {
            for i in 0..norm.len() - lags {
                let y = self.forward_flat(&norm[i..i + lags], true);
                let derr = 2.0 * (y - norm[i + lags]);
                self.backward_flat_stack(derr);
                self.apply_all_grads();
            }
        }
    }

    /// Advances the global Adam step and applies accumulated gradients on
    /// every layer and the head.
    fn apply_all_grads(&mut self) {
        self.train_step += 1;
        let t = self.train_step;
        for cell in self.layers.iter_mut() {
            cell.apply_grads(t);
        }
        self.head.apply_grads(t);
    }

    /// Production pretraining with early stopping: trains on the full
    /// series, watches validation error on the most recent ~20% of targets
    /// after every epoch, stops when patience runs out, and restores the
    /// best-validation snapshot. The validation tail is deliberately NOT
    /// held out of training — a forecaster must absorb the latest diurnal
    /// phase (a strict holdout costs 7–11 accuracy points on the wiki
    /// replay trace), so the tail metric detects convergence on recent
    /// history rather than gating generalization. Falls back to
    /// fixed-epoch training when the series is too short to validate.
    fn pretrain_early_stopped(&mut self, series: &[f64]) {
        let mut norm = std::mem::take(&mut self.train_norm);
        self.scaler.transform_series_into(series, &mut norm);
        let Some((_, val)) = holdout_split(&norm, self.cfg.lags) else {
            self.train_norm = norm;
            self.epochs_run = self.train_epochs(series, self.cfg.epochs);
            return;
        };
        // the split contract guarantees at least one training window, so
        // the model is trained from the first pass on — and the flag must
        // be set before the first snapshot so restoring it keeps it
        self.trained = true;
        let whole = &norm[..];
        let cfg = self.cfg;
        self.epochs_run = run_early_stopped(self, cfg, |m| {
            m.fit_pass_norm(whole);
            m.val_error_norm(val)
        });
        self.train_norm = norm;
    }

    /// Validation error (normalized MAE) over a normalized slice (`lags` context samples
    /// followed by the targets), evaluated in raw rate space with the
    /// current weights.
    fn val_error_norm(&mut self, val: &[f64]) -> f64 {
        let (lags, scaler) = (self.cfg.lags, self.scaler);
        val_error_over(val, lags, scaler, |x| {
            if self.use_reference_nn {
                self.run_stack(x, false).1
            } else {
                self.forward_flat(x, false)
            }
        })
    }

    /// Validation error (normalized MAE) of the current weights on the tail of a
    /// raw series — the metric early stopping watches. `None` when the
    /// series is too short to hold out a validation slice.
    pub fn validation_error(&mut self, series: &[f64]) -> Option<f64> {
        let norm = self.scaler.transform_series(series);
        let (_, val) = holdout_split(&norm, self.cfg.lags)?;
        Some(self.val_error_norm(val))
    }

    /// Forecasts from a caller-provided raw lag window without touching
    /// the model's own observation window — the primitive behind
    /// [`BatchedForecaster`](crate::BatchedForecaster): many series share
    /// one model's weights and flat workspace. Untrained models fall back
    /// to the window's last value (matching [`LoadPredictor::forecast`]);
    /// an empty window forecasts 0.
    pub fn forecast_window(&mut self, window: &[f64]) -> f64 {
        let Some(&last) = window.last() else {
            return 0.0;
        };
        if !self.trained {
            return last;
        }
        if self.use_reference_nn {
            let x = self.scaler.transform_series(window);
            let (_, y) = self.run_stack(&x, false);
            return self.scaler.inverse(y).max(0.0);
        }
        self.scaler
            .transform_series_into(window, &mut self.norm_buf);
        let x = std::mem::take(&mut self.norm_buf);
        let y = self.forward_flat(&x, false);
        self.norm_buf = x;
        self.scaler.inverse(y).max(0.0)
    }

    /// Serializes the model to checkpoint bytes (DESIGN.md §15): config,
    /// scaler, optimizer schedule, and every layer's weights and Adam
    /// moments.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new(TAG_LSTM);
        w.u64(self.cfg.epochs as u64);
        w.u64(self.cfg.lags as u64);
        w.f64(self.cfg.lr);
        w.u8(u8::from(self.trained));
        w.u64(self.train_step);
        w.u64(self.epochs_run as u64);
        self.scaler.save_state(&mut w);
        w.u32(self.layers.len() as u32);
        for cell in &self.layers {
            cell.save_state(&mut w);
        }
        self.head.save_state(&mut w);
        w.finish()
    }

    /// Restores a checkpoint written by a same-shaped model.
    /// Transactional: on any error, `self` is untouched.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut staged = self.clone();
        let (tag, mut r) = CkptReader::open(bytes)?;
        if tag != TAG_LSTM {
            return Err(CheckpointError::ModelMismatch("not an LSTM checkpoint"));
        }
        let _epochs = r.u64()?;
        let lags = r.u64()? as usize;
        if lags != staged.cfg.lags {
            return Err(CheckpointError::ModelMismatch("lag window length"));
        }
        let _lr = r.f64()?; // informational; Adam state validates lr per buffer
        staged.trained = r.u8()? != 0;
        staged.train_step = r.u64()?;
        staged.epochs_run = r.u64()? as usize;
        staged.scaler = Scaler::load_state(&mut r)?;
        if r.u32()? as usize != staged.layers.len() {
            return Err(CheckpointError::ModelMismatch("LSTM layer count"));
        }
        for cell in staged.layers.iter_mut() {
            cell.load_state(&mut r)?;
        }
        staged.head.load_state(&mut r)?;
        r.expect_end()?;
        *self = staged;
        Ok(())
    }

    /// Reference-path stack: runs over a normalized window; caches
    /// activations when `for_training`, otherwise clears them. Returns
    /// per-layer hidden sequences (needed for BPTT) and the final
    /// prediction.
    fn run_stack(&mut self, x: &[f64], for_training: bool) -> (Vec<Vec<Vec<f64>>>, f64) {
        let mut inputs: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let num_layers = self.layers.len();
        let mut per_layer_h = Vec::with_capacity(num_layers);
        for (l, cell) in self.layers.iter_mut().enumerate() {
            let mut state = LstmState::zeros(cell.hidden());
            let mut hs = Vec::with_capacity(inputs.len());
            for step in &inputs {
                state = cell.forward_step(step, &state);
                hs.push(state.h.clone());
            }
            // the top layer's hidden sequence feeds no further layer —
            // don't clone it just to discard it
            if l + 1 < num_layers {
                inputs = hs.clone();
            }
            per_layer_h.push(hs);
        }
        let last_h = per_layer_h
            .last()
            .and_then(|hs| hs.last())
            .cloned()
            .unwrap_or_default();
        let y = self.head.forward(&last_h)[0];
        if !for_training {
            for cell in self.layers.iter_mut() {
                cell.clear_cache();
            }
        }
        (per_layer_h, y)
    }

    /// Optimized stack forward: each layer runs the whole window in one
    /// [`LstmCell::forward_seq`] call on the hidden sequence of the layer
    /// below, which stays cached for
    /// [`backward_flat_stack`](Self::backward_flat_stack).
    /// Allocation-free in steady state; bit-identical to
    /// [`run_stack`](Self::run_stack).
    fn forward_flat(&mut self, x: &[f64], for_training: bool) -> f64 {
        for l in 0..self.layers.len() {
            let (below, rest) = self.layers.split_at_mut(l);
            let input = below.last().map_or(x, |cell| cell.hidden_seq());
            rest[0].forward_seq(input);
        }
        let top = self.layers.last().expect("at least one layer");
        self.head
            .forward_into(top.last_hidden(), &mut self.head_out);
        let y = self.head_out[0];
        if !for_training {
            for cell in self.layers.iter_mut() {
                cell.clear_cache();
            }
        }
        y
    }

    /// Optimized stack BPTT: seeds the loss at the last timestep of the
    /// top layer, then chains [`LstmCell::backward_seq`] down the stack,
    /// ping-ponging the flat gradient buffers. The bottom layer skips the
    /// dL/dx kernel entirely — the reference path computes and discards it.
    fn backward_flat_stack(&mut self, derr: f64) {
        let top = &self.layers[self.layers.len() - 1];
        let hidden = top.hidden();
        let steps = top.cached_steps();
        self.head
            .backward_into(top.last_hidden(), &[derr], &mut self.dh_last);
        self.dh_flat.clear();
        self.dh_flat.resize(steps * hidden, 0.0);
        self.dh_flat[(steps - 1) * hidden..].copy_from_slice(&self.dh_last);
        for l in (0..self.layers.len()).rev() {
            if l > 0 {
                self.layers[l].backward_seq(&self.dh_flat, Some(&mut self.dx_flat));
                std::mem::swap(&mut self.dh_flat, &mut self.dx_flat);
            } else {
                self.layers[l].backward_seq(&self.dh_flat, None);
            }
        }
    }
}

impl LoadPredictor for LstmPredictor {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
        if self.retrain_every > 0 && rate.is_finite() {
            self.observations += 1;
            self.history.push(rate.max(0.0));
            // bound the retraining history to ~8 retraining rounds
            let cap = self.retrain_every * 8 + self.cfg.lags;
            if self.history.len() > cap {
                let drop = self.history.len() - cap;
                self.history.drain(..drop);
            }
            if self.observations.is_multiple_of(self.retrain_every) {
                // refit the scaler when untrained, or when the live range
                // has drifted outside what the fitted scaler can express —
                // a regime shift would otherwise saturate at the transform
                // clamp and freeze the forecast at the old ceiling. The
                // clamp is the only lossy path, so drift = a value that no
                // longer round-trips through the scaler.
                let drifted = self.history.iter().any(|&v| {
                    let rt = self.scaler.inverse(self.scaler.transform(v));
                    (rt - v).abs() > 0.01 * v.abs().max(1.0)
                });
                if !self.trained || drifted {
                    self.scaler = Scaler::fit(&self.history);
                }
                let history = std::mem::take(&mut self.history);
                let _ = self.train_epochs(&history, self.retrain_epochs);
                self.history = history;
            }
        }
    }

    fn forecast(&mut self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        if self.use_reference_nn {
            let raw = self.window.padded();
            if !self.trained {
                return *raw.last().expect("window is non-empty");
            }
            let x = self.scaler.transform_series(&raw);
            let (_, y) = self.run_stack(&x, false);
            return self.scaler.inverse(y).max(0.0);
        }
        self.window.padded_into(&mut self.raw_buf);
        if !self.trained {
            return *self.raw_buf.last().expect("window is non-empty");
        }
        self.scaler
            .transform_series_into(&self.raw_buf, &mut self.norm_buf);
        let x = std::mem::take(&mut self.norm_buf);
        let y = self.forward_flat(&x, false);
        self.norm_buf = x;
        self.scaler.inverse(y).max(0.0)
    }

    fn pretrain(&mut self, series: &[f64]) {
        self.scaler = Scaler::fit(series);
        if self.cfg.patience == 0 {
            // paper-faithful fixed-epoch path, bit-identical to before
            // early stopping existed
            self.epochs_run = self.train_epochs(series, self.cfg.epochs);
        } else {
            self.pretrain_early_stopped(series);
        }
    }

    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.checkpoint_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.restore_bytes(bytes)
    }

    fn epochs_trained(&self) -> usize {
        self.epochs_run
    }

    fn enable_online_retraining(&mut self, every: usize, epochs: usize) {
        if every > 0 && epochs > 0 {
            self.retrain_every = every;
            self.retrain_epochs = epochs;
        }
    }

    fn reset(&mut self) {
        self.window.clear();
        self.history.clear();
        self.observations = 0;
        for cell in self.layers.iter_mut() {
            cell.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_forecasts_last_observation() {
        let mut p = LstmPredictor::new(TrainConfig::fast(), 4, 1, 2);
        p.observe(25.0);
        assert_eq!(p.forecast(), 25.0);
    }

    #[test]
    fn paper_default_has_two_layers_of_32() {
        let p = LstmPredictor::paper_default(1);
        assert_eq!(p.layers.len(), 2);
        assert_eq!(p.layers[0].hidden(), 32);
        assert_eq!(p.layers[1].input(), 32);
        assert_eq!(p.cfg.epochs, 100);
    }

    #[test]
    fn learns_constant_series() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 15;
        let mut p = LstmPredictor::new(cfg, 8, 2, 1);
        p.pretrain(&vec![60.0; 80]);
        for _ in 0..10 {
            p.observe(60.0);
        }
        let f = p.forecast();
        assert!((f - 60.0).abs() < 12.0, "constant forecast {f}");
    }

    #[test]
    fn inference_leaves_no_cached_steps() {
        let mut p = LstmPredictor::new(TrainConfig::fast(), 4, 3, 2);
        p.pretrain(&(0..40).map(|i| i as f64).collect::<Vec<_>>());
        p.observe(10.0);
        let _ = p.forecast();
        for cell in &p.layers {
            assert_eq!(cell.cached_steps(), 0);
        }
    }

    /// Optimized vs reference NN path: same seed and data must produce
    /// bit-identical forecasts after pretraining.
    #[test]
    fn reference_nn_path_is_bit_identical() {
        let series: Vec<f64> = (0..120)
            .map(|i| 50.0 + 30.0 * (i as f64 * 0.2).sin())
            .collect();
        let mut optimized = LstmPredictor::new(TrainConfig::fast(), 8, 9, 2);
        let mut reference =
            LstmPredictor::new(TrainConfig::fast(), 8, 9, 2).with_reference_nn(true);
        optimized.pretrain(&series);
        reference.pretrain(&series);
        for &v in &series[series.len() - 12..] {
            optimized.observe(v);
            reference.observe(v);
            assert_eq!(optimized.forecast(), reference.forecast());
        }
    }

    #[test]
    #[should_panic(expected = "at least one LSTM layer")]
    fn zero_layers_rejected() {
        let _ = LstmPredictor::new(TrainConfig::fast(), 4, 1, 0);
    }

    #[test]
    fn online_retraining_trains_without_pretrain() {
        // §8 extension: the model becomes useful from observations alone
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 5;
        let mut p = LstmPredictor::new(cfg, 8, 4, 1).with_online_retraining(40, 6);
        for i in 0..200 {
            p.observe(60.0 + 30.0 * (i as f64 * 0.3).sin());
        }
        assert!(p.trained, "retraining rounds must mark the model trained");
        let f = p.forecast();
        assert!(f.is_finite() && f >= 0.0);
        // forecast should sit inside the signal's range, not at the naive
        // last-value fallback semantics
        assert!((10.0..=120.0).contains(&f), "forecast {f}");
    }

    #[test]
    fn online_retraining_adapts_to_level_shift() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 8;
        let series: Vec<f64> = vec![20.0; 120];
        let mut fixed = LstmPredictor::new(cfg, 8, 5, 1);
        fixed.pretrain(&series);
        let mut online = fixed.clone().with_online_retraining(30, 6);
        // regime change: load quadruples
        for _ in 0..120 {
            fixed.observe(80.0);
            online.observe(80.0);
        }
        let err_fixed = (fixed.forecast() - 80.0).abs();
        let err_online = (online.forecast() - 80.0).abs();
        // the fixed model saturates at its old scaler ceiling (~20-ish
        // inverse of the clamp); the refitted online model must land much
        // closer to the new 80 req/s regime
        assert!(
            err_online < err_fixed * 0.5,
            "online ({err_online:.1}) must adapt far better than fixed ({err_fixed:.1})"
        );
    }

    #[test]
    fn retraining_history_is_bounded() {
        let p = LstmPredictor::new(TrainConfig::fast(), 4, 6, 1);
        let mut p = p.with_online_retraining(10, 1);
        for i in 0..1_000 {
            p.observe(i as f64);
        }
        assert!(
            p.history.len() <= 10 * 8 + p.cfg.lags,
            "history {} must stay bounded",
            p.history.len()
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_retrain_period_rejected() {
        let _ = LstmPredictor::new(TrainConfig::fast(), 4, 1, 1).with_online_retraining(0, 1);
    }
}
