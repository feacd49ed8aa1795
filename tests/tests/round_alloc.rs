//! Allocation-count regression test for the persistent round plane.
//!
//! PR 2 pinned "a steady-state minibatch *step* allocates nothing"; this
//! binary extends the pin to the round boundary: once the worker pool, the
//! evaluation worker and the server buffers are warm, a whole FedCross
//! communication round — dispatch, K clients of local training, upload,
//! cross-aggregation, global-model generation **and** test-set evaluation —
//! performs **zero full-model-scale heap allocations**. Two secondary pins
//! back that up: the scratch arenas (client workers + eval worker) must serve
//! every steady-state checkout from their free lists (their fresh-allocation
//! counters freeze), and the total per-round allocation count must stay an
//! O(K + batches) bookkeeping constant — orders of magnitude below anything
//! that scales with the model dimension or reallocates per step. (The exact
//! total jitters by a few dozen with the epoch shuffle's interleaving of
//! free-list traffic, so the bound is a ceiling rather than an equality.)
//!
//! "Full-model-scale" is enforced with a size threshold: the test model's
//! parameter vector is ~400 KB while every legitimate per-round temporary
//! (selection indices, job vectors, update metadata) is well under
//! [`LARGE_BYTES`], so any reintroduced model clone, `params_flat()` upload
//! or per-eval activation buffer trips the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations at or above this size count as "full-model-scale".
const LARGE_BYTES: usize = 64 * 1024;

struct CountingAllocator;

static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        if new_size >= LARGE_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn counts() -> (usize, usize) {
    (TOTAL.load(Ordering::Relaxed), LARGE.load(Ordering::Relaxed))
}

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{ClientDataSource, Heterogeneity};
use fedcross_flsim::engine::RoundContext;
use fedcross_flsim::{
    ClientWorkerPool, CommTracker, EvalWorker, FederatedAlgorithm, LocalTrainConfig,
};
use fedcross_nn::layers::{Dropout, Flatten, Linear, Relu};
use fedcross_nn::Sequential;
use fedcross_tensor::SeededRng;

// NOTE: this binary contains exactly one #[test] so no concurrent test
// thread can pollute the global allocation counters.
#[test]
fn steady_state_rounds_and_eval_perform_zero_full_model_allocations() {
    let k = 4usize;
    let mut rng = SeededRng::new(7);
    let data = FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 20,
            test_samples: 40,
            ..Default::default()
        },
        // IID so every client shard has the same size: the arenas then see a
        // fixed set of batch shapes and must freeze after warm-up. (Under
        // Dirichlet skew each new client→slot pairing introduces new batch
        // shapes, which legitimately allocates — the zero-large-allocation
        // pin below still holds there, but the arena-freeze pin would not.)
        Heterogeneity::Iid,
        &mut rng,
    );
    // ~100k parameters (~400 KB as f32) — an order of magnitude above
    // LARGE_BYTES — including a dropout layer so the reseed-on-dispatch path
    // is in the measured loop.
    let template = Sequential::new("alloc-probe")
        .push(Flatten::new())
        .push(Linear::new(3 * 16 * 16, 128, &mut rng))
        .push(Relu::new())
        .push(Dropout::new(0.2, &mut rng))
        .push(Linear::new(128, 10, &mut rng))
        .boxed();
    assert!(
        template.param_count() * 4 >= 4 * LARGE_BYTES,
        "the probe model must dwarf the large-allocation threshold"
    );

    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };
    let mut algorithm = FedCross::new(
        FedCrossConfig {
            alpha: 0.9,
            strategy: SelectionStrategy::LowestSimilarity,
            measure: SimilarityMeasure::Cosine,
            ..Default::default()
        },
        template.params_flat(),
        k,
    );

    // The persistent round plane, exactly as `Simulation` wires it.
    let master = SeededRng::new(99);
    let mut pool = ClientWorkerPool::new();
    let mut eval_worker = EvalWorker::new(template.as_ref());
    let mut global_buf: Vec<f32> = Vec::new();
    let mut comm = CommTracker::new();

    let run_round = |round: usize,
                         algorithm: &mut FedCross,
                         pool: &mut ClientWorkerPool,
                         eval_worker: &mut EvalWorker,
                         global_buf: &mut Vec<f32>,
                         comm: &mut CommTracker| {
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            local,
            k,
            master.fork(round as u64),
            comm,
            pool,
        );
        algorithm.run_round(round, &mut ctx);
        algorithm.global_params_into(global_buf);
        let eval = eval_worker.evaluate_params(global_buf, data.test_set(), 16);
        assert!(eval.loss.is_finite());
    };

    // Warm-up: two rounds populate the worker slots, arenas, upload blocks,
    // velocity buffers, the eval worker and the global buffer. (The second
    // round catches one-time free-list growth, as in the PR 2 test.)
    for round in 0..2 {
        run_round(round, &mut algorithm, &mut pool, &mut eval_worker, &mut global_buf, &mut comm);
    }
    let (_, large_warm) = counts();
    assert!(large_warm > 0, "warm-up must allocate the plane");
    assert_eq!(pool.models_built(), k);

    // Steady state: every subsequent round (training + upload + fusion +
    // global-model generation + evaluation) must perform ZERO
    // full-model-scale allocations, the arenas must serve everything from
    // their free lists, and the total allocation count must stay a small
    // bookkeeping constant.
    let arena_warm = pool.arena_fresh_allocations();
    let eval_arena_warm = eval_worker.arena_fresh_allocations();
    assert!(arena_warm > 0 && eval_arena_warm > 0);
    let mut totals = Vec::new();
    for round in 2..8 {
        let (total_before, large_before) = counts();
        run_round(round, &mut algorithm, &mut pool, &mut eval_worker, &mut global_buf, &mut comm);
        let (total_after, large_after) = counts();
        assert_eq!(
            large_after - large_before,
            0,
            "round {round} performed {} full-model-scale allocation(s)",
            large_after - large_before
        );
        totals.push(total_after - total_before);
    }
    assert_eq!(
        pool.arena_fresh_allocations(),
        arena_warm,
        "worker arenas must serve every steady-state checkout from their free lists"
    );
    assert_eq!(
        eval_worker.arena_fresh_allocations(),
        eval_arena_warm,
        "the eval arena must serve every steady-state checkout from its free lists"
    );
    // Observed steady totals sit around 110–175 (selection indices, job and
    // update vectors, partner lists, per-batch argmax buffers). One stray
    // allocation per SGD step would add K·steps ≈ +32 and a per-batch
    // activation leak ≈ +50, so the ceiling is tight enough to catch
    // per-step regressions while tolerating shuffle-dependent jitter.
    for (i, &total) in totals.iter().enumerate() {
        assert!(
            total <= 256,
            "steady-state round {} performed {total} allocations (ceiling 256): \
             something is allocating per step or per model",
            i + 2
        );
    }
    assert_eq!(
        pool.models_built(),
        k,
        "steady-state rounds must not construct models"
    );
}
