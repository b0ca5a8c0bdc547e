//! Tier-1 pin for neural-predictor training.
//!
//! Trains the paper-shaped LSTM (2 layers × 32 units, 20 lags) and the
//! DeepAR-style model for a few epochs on a fixed wiki-like series, then
//! pins the FNV-1a digest of each model's checkpoint bytes (every weight
//! and Adam moment) and the bits of one forecast. The pinned values were
//! recorded with the per-step LSTM kernels that preceded the sequence-level
//! ones, so any kernel change that moves a single rounding fails here, in
//! the fast tier, and not only in the workspace differential suites.

use fifer::predict::train::TrainConfig;
use fifer::predict::{DeepArPredictor, LoadPredictor, LstmPredictor};

/// FNV-1a over the checkpoint bytes: a compact, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// 116 five-minute request-rate maxima shaped like the wiki trace: a
/// diurnal swing, a faster ripple and deterministic jitter from an
/// integer hash (no RNG, so the series never depends on a generator).
fn wiki_like_series() -> Vec<f64> {
    (0..116u64)
        .map(|i| {
            let day = (i as f64 * std::f64::consts::TAU / 96.0).sin();
            let ripple = (i as f64 * 0.9).cos();
            let hash = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let jitter = hash as f64 / (1u64 << 24) as f64 - 0.5;
            1500.0 + 450.0 * day + 120.0 * ripple + 80.0 * jitter
        })
        .collect()
}

fn five_epochs() -> TrainConfig {
    TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    }
}

/// Pretrains `model`, then forecasts from the series' last 20 points.
/// Returns the checkpoint digest and the forecast's bits.
fn train_and_forecast(model: &mut dyn LoadPredictor) -> (u64, u64) {
    let series = wiki_like_series();
    model.pretrain(&series);
    let digest = fnv1a(&model.checkpoint().expect("neural models checkpoint"));
    for &v in &series[series.len() - 20..] {
        model.observe(v);
    }
    (digest, model.forecast().to_bits())
}

#[test]
fn paper_lstm_training_matches_pinned_bits() {
    let mut model = LstmPredictor::new(five_epochs(), 32, 42, 2);
    let (digest, forecast) = train_and_forecast(&mut model);
    assert_eq!(digest, 0x35f6_93a4_5856_09dc, "LSTM checkpoint digest");
    assert_eq!(
        forecast,
        0x409e_30a6_0f65_9a04,
        "LSTM forecast bits ({})",
        f64::from_bits(forecast)
    );
}

#[test]
fn deepar_training_matches_pinned_bits() {
    let mut model = DeepArPredictor::new(five_epochs(), 32, 42);
    let (digest, forecast) = train_and_forecast(&mut model);
    assert_eq!(digest, 0x625a_d6d0_21e8_1de9, "DeepAR checkpoint digest");
    assert_eq!(
        forecast,
        0x409e_f16a_ee9b_54fd,
        "DeepAR forecast bits ({})",
        f64::from_bits(forecast)
    );
}
