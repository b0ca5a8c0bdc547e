//! Criterion benchmarks for the NN substrate underneath the neural
//! predictors: the matvec kernels (reference vs write-into vs the
//! register-tiled column-major kernel the LSTM hot path uses), the
//! LstmCell sequence forward and backward over a 20-step window, a full
//! forward+backward+Adam round, and an end-to-end `train_epochs` round
//! on both NN paths — the microscope behind the `nn` section of
//! `BENCH_simulator.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use fifer_predict::nn::{matvec, matvec_colmajor_into, matvec_into, transpose_into, LstmCell};
use fifer_predict::train::TrainConfig;
use fifer_predict::{LoadPredictor, LstmPredictor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// 4H×H gate-matrix shape at the paper's 32 hidden units.
const ROWS: usize = 128;
const COLS: usize = 32;

fn bench_matvec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let w: Vec<f64> = (0..ROWS * COLS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let x: Vec<f64> = (0..COLS).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut wt = vec![0.0; ROWS * COLS];
    transpose_into(&w, ROWS, COLS, &mut wt);
    let mut y = vec![0.0; ROWS];

    let mut g = c.benchmark_group("matvec_128x32");
    g.bench_function("reference_alloc", |b| {
        b.iter(|| black_box(matvec(black_box(&w), ROWS, COLS, black_box(&x))))
    });
    g.bench_function("into", |b| {
        b.iter(|| matvec_into(black_box(&w), ROWS, COLS, black_box(&x), &mut y))
    });
    g.bench_function("colmajor_into", |b| {
        b.iter(|| matvec_colmajor_into(black_box(&wt), ROWS, COLS, black_box(&x), &mut y))
    });
    g.finish();
}

fn bench_lstm_cell(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut cell = LstmCell::new(1, COLS, 1e-2, &mut rng);
    let xs: Vec<f64> = (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let dh_seq = vec![0.01; 20 * COLS];

    let mut g = c.benchmark_group("lstm_cell_h32");
    g.bench_function("forward_seq20", |b| {
        b.iter(|| {
            cell.forward_seq(black_box(&xs));
            cell.clear_cache();
        })
    });
    g.bench_function("forward_backward_seq20", |b| {
        b.iter(|| {
            cell.forward_seq(black_box(&xs));
            cell.backward_seq(black_box(&dh_seq), None);
        })
    });
    g.bench_function("forward_backward_seq20_adam", |b| {
        let mut t = 0u64;
        b.iter(|| {
            cell.forward_seq(black_box(&xs));
            cell.backward_seq(black_box(&dh_seq), None);
            t += 1;
            cell.apply_grads(t);
        })
    });
    g.finish();
}

fn bench_train_round(c: &mut Criterion) {
    let series: Vec<f64> = (0..80)
        .map(|i| 100.0 + 60.0 * (i as f64 * 0.3).sin())
        .collect();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let mut g = c.benchmark_group("lstm_train_one_epoch");
    g.sample_size(10);
    for (label, reference) in [("optimized", false), ("reference", true)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut p = LstmPredictor::new(cfg, 32, 1, 2).with_reference_nn(reference);
                p.pretrain(black_box(&series));
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matvec, bench_lstm_cell, bench_train_round);
criterion_main!(benches);
