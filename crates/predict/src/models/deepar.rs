//! DeepAR-style probabilistic forecaster: an autoregressive LSTM whose head
//! emits a Gaussian `(μ, log σ)` trained by negative log-likelihood —
//! the family GluonTS's `DeepAREstimator` represents in Figure 6a.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter, TAG_DEEPAR};
use crate::models::LagWindow;
use crate::nn::{Dense, LstmCell, LstmState};
use crate::predictor::LoadPredictor;
use crate::train::{
    holdout_split, run_early_stopped, val_error_over, windowed_pairs, Scaler, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Single-layer LSTM with a 2-output Gaussian head.
#[derive(Debug, Clone)]
pub struct DeepArPredictor {
    cfg: TrainConfig,
    cell: LstmCell,
    head: Dense,
    scaler: Scaler,
    window: LagWindow,
    trained: bool,
    /// Global Adam step, persisted across pretrain calls so optimizer
    /// moments and bias correction stay consistent on retraining.
    train_step: u64,
    /// Effective pretraining epochs (the restored-best epoch when early
    /// stopping fires, the full budget otherwise).
    epochs_run: usize,
    /// Forecast quantile expressed in standard deviations above μ; 0 means
    /// the mean forecast. Proactive provisioning can bias high.
    sigma_bias: f64,
    /// Route through the original per-step-allocating NN path
    /// (differential testing; bit-identical to the flat path).
    use_reference_nn: bool,
    /// Scratch: raw padded lag window.
    raw_buf: Vec<f64>,
    /// Scratch: normalized lag window.
    norm_buf: Vec<f64>,
    /// Scratch: head output `(μ, log σ)`.
    head_out: Vec<f64>,
    /// Scratch: dL/dh at the last timestep.
    dh_last: Vec<f64>,
    /// Scratch: flat `steps × hidden` loss gradient.
    dh_flat: Vec<f64>,
}

impl DeepArPredictor {
    /// Creates the model with `hidden` LSTM units.
    pub fn new(cfg: TrainConfig, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        DeepArPredictor {
            cell: LstmCell::new(1, hidden, cfg.lr, &mut rng),
            head: Dense::new(hidden, 2, cfg.lr, &mut rng),
            scaler: Scaler::fit(&[]),
            window: LagWindow::new(cfg.lags),
            cfg,
            trained: false,
            train_step: 0,
            epochs_run: 0,
            sigma_bias: 0.0,
            use_reference_nn: false,
            raw_buf: Vec::new(),
            norm_buf: Vec::new(),
            head_out: vec![0.0; 2],
            dh_last: vec![0.0; hidden],
            dh_flat: Vec::new(),
        }
    }

    /// Paper-scale configuration: 32 hidden units.
    pub fn paper_default(seed: u64) -> Self {
        DeepArPredictor::new(TrainConfig::default(), 32, seed)
    }

    /// Sets the forecast quantile in σ above the mean (e.g. 1.0 ≈ P84).
    pub fn with_sigma_bias(mut self, sigmas: f64) -> Self {
        assert!(sigmas.is_finite(), "sigma bias must be finite");
        self.sigma_bias = sigmas;
        self
    }

    /// Routes through the original per-step-allocating NN implementation.
    /// Bit-identical to the default flat-workspace path.
    pub fn with_reference_nn(mut self, reference: bool) -> Self {
        self.use_reference_nn = reference;
        self
    }

    /// Runs the LSTM over a window and returns `(μ, σ)` in normalized
    /// space, plus the final hidden vector when training.
    fn run(&mut self, x: &[f64], for_training: bool) -> (f64, f64, Vec<f64>) {
        let mut state = LstmState::zeros(self.cell.hidden());
        for &v in x {
            state = self.cell.forward_step(&[v], &state);
        }
        let out = self.head.forward(&state.h);
        let mu = out[0];
        let sigma = out[1].clamp(-6.0, 3.0).exp();
        let h = state.h;
        if !for_training {
            self.cell.clear_cache();
        }
        (mu, sigma, h)
    }

    /// Optimized forward: runs the window through
    /// [`LstmCell::forward_seq`] and evaluates the head in place on the
    /// final hidden vector ([`LstmCell::last_hidden`]). Bit-identical to
    /// [`run`](Self::run).
    fn run_flat(&mut self, x: &[f64], for_training: bool) -> (f64, f64) {
        self.cell.forward_seq(x);
        self.head
            .forward_into(self.cell.last_hidden(), &mut self.head_out);
        let mu = self.head_out[0];
        let sigma = self.head_out[1].clamp(-6.0, 3.0).exp();
        if !for_training {
            self.cell.clear_cache();
        }
        (mu, sigma)
    }

    /// One training pass over every window pair — Gaussian NLL
    /// `0.5·((y−μ)/σ)² + ln σ`. Both paths are bit-identical.
    fn fit_pass(&mut self, pairs: &[(Vec<f64>, f64)]) {
        let hidden = self.cell.hidden();
        for (x, target) in pairs {
            if self.use_reference_nn {
                let (mu, sigma, h) = self.run(x, true);
                let z = (target - mu) / sigma;
                let dmu = -z / sigma;
                let dlog_sigma = 1.0 - z * z;
                let dh = self.head.backward(&h, &[dmu, dlog_sigma]);
                let mut dh_seq = vec![vec![0.0; hidden]; x.len()];
                dh_seq[x.len() - 1] = dh;
                self.cell.backward(&dh_seq);
            } else {
                let (mu, sigma) = self.run_flat(x, true);
                let z = (target - mu) / sigma;
                let dmu = -z / sigma;
                let dlog_sigma = 1.0 - z * z;
                self.head.backward_into(
                    self.cell.last_hidden(),
                    &[dmu, dlog_sigma],
                    &mut self.dh_last,
                );
                self.dh_flat.clear();
                self.dh_flat.resize(x.len() * hidden, 0.0);
                self.dh_flat[(x.len() - 1) * hidden..].copy_from_slice(&self.dh_last);
                self.cell.backward_seq(&self.dh_flat, None);
            }
            self.train_step += 1;
            let t = self.train_step;
            self.cell.apply_grads(t);
            self.head.apply_grads(t);
        }
    }

    /// Validation error (normalized MAE) over a normalized slice, using the same forecast
    /// quantile (`μ + sigma_bias·σ`) the live model serves.
    fn val_error_norm(&mut self, val: &[f64]) -> f64 {
        let (lags, scaler, bias) = (self.cfg.lags, self.scaler, self.sigma_bias);
        val_error_over(val, lags, scaler, |x| {
            let (mu, sigma) = if self.use_reference_nn {
                let (mu, sigma, _) = self.run(x, false);
                (mu, sigma)
            } else {
                self.run_flat(x, false)
            };
            mu + bias * sigma
        })
    }

    /// Serializes the model to checkpoint bytes (DESIGN.md §15).
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new(TAG_DEEPAR);
        w.u64(self.cfg.epochs as u64);
        w.u64(self.cfg.lags as u64);
        w.f64(self.cfg.lr);
        w.u8(u8::from(self.trained));
        w.u64(self.train_step);
        w.u64(self.epochs_run as u64);
        w.f64(self.sigma_bias);
        self.scaler.save_state(&mut w);
        self.cell.save_state(&mut w);
        self.head.save_state(&mut w);
        w.finish()
    }

    /// Restores a checkpoint written by a same-shaped model.
    /// Transactional: on any error, `self` is untouched.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut staged = self.clone();
        let (tag, mut r) = CkptReader::open(bytes)?;
        if tag != TAG_DEEPAR {
            return Err(CheckpointError::ModelMismatch("not a DeepAR checkpoint"));
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
        staged.sigma_bias = r.f64()?;
        staged.scaler = Scaler::load_state(&mut r)?;
        staged.cell.load_state(&mut r)?;
        staged.head.load_state(&mut r)?;
        r.expect_end()?;
        *self = staged;
        Ok(())
    }
}

impl LoadPredictor for DeepArPredictor {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
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
            let (mu, sigma, _) = self.run(&x, false);
            return self.scaler.inverse(mu + self.sigma_bias * sigma).max(0.0);
        }
        self.window.padded_into(&mut self.raw_buf);
        if !self.trained {
            return *self.raw_buf.last().expect("window is non-empty");
        }
        self.scaler
            .transform_series_into(&self.raw_buf, &mut self.norm_buf);
        let x = std::mem::take(&mut self.norm_buf);
        let (mu, sigma) = self.run_flat(&x, false);
        self.norm_buf = x;
        self.scaler.inverse(mu + self.sigma_bias * sigma).max(0.0)
    }

    fn pretrain(&mut self, series: &[f64]) {
        self.scaler = Scaler::fit(series);
        let norm = self.scaler.transform_series(series);
        if self.cfg.patience > 0 {
            if let Some((_, val)) = holdout_split(&norm, self.cfg.lags) {
                // train on the full series and watch validation error on the
                // recent tail: a convergence signal, not a generalization
                // gate — a forecaster must absorb the latest diurnal phase
                // (see the LSTM's pretrain_early_stopped). The flag must be
                // set before the first snapshot so restoring keeps it
                let pairs = windowed_pairs(&norm, self.cfg.lags);
                self.trained = true;
                let cfg = self.cfg;
                self.epochs_run = run_early_stopped(self, cfg, |m| {
                    m.fit_pass(&pairs);
                    m.val_error_norm(val)
                });
                return;
            }
        }
        // paper-faithful fixed-epoch path, bit-identical to before early
        // stopping existed (and the fallback for too-short series)
        let pairs = windowed_pairs(&norm, self.cfg.lags);
        if pairs.is_empty() {
            return;
        }
        for _ in 0..self.cfg.epochs {
            self.fit_pass(&pairs);
        }
        self.trained = true;
        self.epochs_run = self.cfg.epochs;
    }

    fn name(&self) -> &'static str {
        "DeepAREst"
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

    fn reset(&mut self) {
        self.window.clear();
        self.cell.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_forecasts_last_observation() {
        let mut p = DeepArPredictor::new(TrainConfig::fast(), 4, 1);
        p.observe(12.0);
        assert_eq!(p.forecast(), 12.0);
    }

    #[test]
    fn sigma_bias_raises_forecast() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 10;
        let series: Vec<f64> = (0..120)
            .map(|i| 50.0 + 20.0 * (i as f64 * 0.4).sin())
            .collect();
        let mut mean_model = DeepArPredictor::new(cfg, 8, 2);
        mean_model.pretrain(&series);
        let mut high_model = mean_model.clone().with_sigma_bias(2.0);
        for &v in &series[series.len() - 10..] {
            mean_model.observe(v);
            high_model.observe(v);
        }
        assert!(high_model.forecast() > mean_model.forecast());
    }

    #[test]
    fn learns_constant_series() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 15;
        let mut p = DeepArPredictor::new(cfg, 8, 3);
        p.pretrain(&vec![40.0; 80]);
        for _ in 0..10 {
            p.observe(40.0);
        }
        let f = p.forecast();
        assert!((f - 40.0).abs() < 10.0, "constant forecast {f}");
    }

    /// Optimized vs reference NN path: bit-identical forecasts after
    /// pretraining on the same seed and data.
    #[test]
    fn reference_nn_path_is_bit_identical() {
        let series: Vec<f64> = (0..120)
            .map(|i| 40.0 + 25.0 * (i as f64 * 0.3).cos())
            .collect();
        let mut optimized = DeepArPredictor::new(TrainConfig::fast(), 8, 11);
        let mut reference =
            DeepArPredictor::new(TrainConfig::fast(), 8, 11).with_reference_nn(true);
        optimized.pretrain(&series);
        reference.pretrain(&series);
        for &v in &series[series.len() - 12..] {
            optimized.observe(v);
            reference.observe(v);
            assert_eq!(optimized.forecast(), reference.forecast());
        }
    }

    #[test]
    fn sigma_stays_positive_and_finite() {
        let mut p = DeepArPredictor::new(TrainConfig::fast(), 4, 4);
        p.pretrain(&(0..60).map(|i| (i % 7) as f64 * 30.0).collect::<Vec<_>>());
        let x = vec![0.5; 8];
        let (_, sigma, _) = p.run(&x, false);
        assert!(sigma > 0.0 && sigma.is_finite());
    }
}
