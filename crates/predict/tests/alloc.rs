//! Steady-state allocation test: after one warm-up round, the sequence-
//! level LSTM forward/backward/Adam loop (including its all-steps input
//! projection and `dz` buffers) and a trained model's forecast path must
//! not touch the heap at all. A counting global allocator makes any
//! regression an exact, reproducible failure.
//!
//! This file holds exactly one `#[test]` — the allocation counter is
//! process-global, and a second concurrently-running test would make the
//! delta nondeterministic.

use fifer_predict::nn::LstmCell;
use fifer_predict::train::TrainConfig;
use fifer_predict::{LoadPredictor, LstmPredictor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator, counting every allocation and
/// reallocation (frees are not counted: releasing retained capacity is
/// not the regression this test guards against).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_training_and_forecast_do_not_allocate() {
    // --- cell level: a window forward + backward + Adam, warmed up once ---
    let mut rng = StdRng::seed_from_u64(7);
    let mut cell = LstmCell::new(4, 16, 1e-2, &mut rng);
    let xs: Vec<f64> = (0..12 * 4).map(|i| (i as f64 * 0.13).sin()).collect();
    let dh_seq = vec![0.01_f64; 12 * 16];
    let mut dx = Vec::new();
    let round = |cell: &mut LstmCell, dx: &mut Vec<f64>, t: u64| {
        cell.forward_seq(&xs);
        cell.backward_seq(&dh_seq, Some(dx));
        // a shorter window must reuse the grown buffers
        cell.forward_seq(&xs[..5 * 4]);
        cell.backward_seq(&dh_seq[..5 * 16], None);
        cell.apply_grads(t);
    };
    round(&mut cell, &mut dx, 1); // warm-up: workspace buffers grow to capacity here
    let before = allocations();
    for t in 2..6 {
        round(&mut cell, &mut dx, t);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state LSTM forward/backward/Adam must be allocation-free, saw {delta}"
    );

    // --- model level: a trained predictor's forecast path ---
    let series: Vec<f64> = (0..60)
        .map(|i| 30.0 + 10.0 * (i as f64 * 0.2).sin())
        .collect();
    let mut p = LstmPredictor::new(TrainConfig::fast(), 8, 5, 2);
    p.pretrain(&series);
    for &v in &series[..12] {
        p.observe(v);
    }
    let _ = p.forecast(); // warm-up for the forecast scratch buffers
    let before = allocations();
    for &v in &series[12..24] {
        p.observe(v);
        let f = p.forecast();
        assert!(f.is_finite());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "trained observe/forecast must be allocation-free, saw {delta}"
    );
}
