//! Population-scale pins for the sharded lazy client data plane.
//!
//! PR 9 replaced the eager `Vec<Dataset>` federation with
//! [`fedcross_data::ClientDataSource`] + [`fedcross_data::ShardPlane`]: client
//! shards are pure functions of `(task_seed, client_id)`, materialised lazily
//! through a bounded LRU cache fronted by a background prefetcher. This
//! binary pins the three claims that make that refactor safe:
//!
//! 1. **Flat memory at population scale.** A 100 000-client run materialises
//!    at most `capacity + prefetch_depth` shards at once — pinned twice, via
//!    the plane's own resident-set counter *and* via a live-byte counting
//!    global allocator (the structural counter alone could be circular). The
//!    eager equivalent would hold ~7 GB of shards; the pinned budget is a few
//!    megabytes.
//! 2. **Bitwise equivalence.** For every registered [`AlgorithmSpec`], the
//!    sharded engine reproduces the eager engine's trajectory fingerprint
//!    exactly — per-round metrics bits, communication counters and final
//!    global model bits — including under a cache small enough that shards
//!    are evicted and re-materialised mid-run.
//! 3. **Eviction is a bitwise no-op.** A shard checked out after eviction is
//!    a fresh allocation with identical bits.
//!
//! A second test pins `Simulation::config_fingerprint` on the equivalence
//! task for both backends, since checkpoints resume only under an equal one.
//!
//! Shards in the scale phase are sized to cross [`LARGE_BYTES`] (24 samples
//! x 3x16x16 f32 = 72 KiB) while the tiny model, its activations and all
//! engine bookkeeping stay below it, so the live-byte counter sees shard
//! traffic and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Allocations at or above this size count toward the live-byte pin. One
/// scale-phase shard's feature tensor (24 x 3 x 16 x 16 f32 = 73 728 B) is
/// above it; the scale-phase model (~5 K params) and every per-round
/// temporary are below it.
const LARGE_BYTES: usize = 64 * 1024;

struct LiveBytesAllocator;

/// Bytes currently held by live allocations of at least [`LARGE_BYTES`].
static LIVE_LARGE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE_LARGE`].
static PEAK_LARGE: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    if size >= LARGE_BYTES {
        let live = LIVE_LARGE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_LARGE.fetch_max(live, Ordering::Relaxed);
    }
}

fn note_dealloc(size: usize) {
    if size >= LARGE_BYTES {
        LIVE_LARGE.fetch_sub(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LiveBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_dealloc(layout.size());
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: LiveBytesAllocator = LiveBytesAllocator;

/// Every test in this binary holds this lock for its whole body, so no
/// concurrent test thread can pollute the global allocation counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

use fedcross::{build_algorithm, AlgorithmSpec};
use fedcross_bench::determinism::Fnv1a;
use fedcross_data::federated::SynthCifar10Config;
use fedcross_data::{ClientDataSource, Heterogeneity, ShardPlane, ShardPlaneConfig, SynthTaskSource};
use fedcross_flsim::{
    DeviceModel, FaultPlan, LocalTrainConfig, RoundPolicy, Simulation, SimulationConfig,
};
use fedcross_nn::layers::{Flatten, Linear, Relu};
use fedcross_nn::models::{cnn, CnnConfig};
use fedcross_nn::{Model, Sequential};
use fedcross_tensor::SeededRng;

/// Population of the flat-memory phase. Eagerly materialised this would be
/// ~7 GB of shard tensors; the lazy plane must finish inside
/// [`SCALE_BUDGET_BYTES`].
const SCALE_CLIENTS: usize = 100_000;
const SCALE_K: usize = 10;
const SCALE_ROUNDS: usize = 6;
const SCALE_CAPACITY: usize = 16;
const SCALE_PREFETCH: usize = 4;
/// One scale-phase shard's feature tensor.
const SHARD_BYTES: usize = 24 * 3 * 16 * 16 * 4;
/// Live-byte ceiling for the whole scale run: the plane's resident-set bound
/// (`capacity + prefetch_depth` shards) plus the round's `K` checked-out
/// shard refs (an `Arc` can outlive its cache slot until the round ends),
/// doubled for transient generation buffers on the demand and prefetch
/// threads. Observed peak is ~33 shards; eager would be 100 000.
const SCALE_BUDGET_BYTES: usize = (SCALE_CAPACITY + SCALE_PREFETCH + SCALE_K) * SHARD_BYTES * 2;

/// The scale-phase model is a small MLP, deliberately conv-free: a conv
/// layer's im2col scratch (batch x C_in*k^2 x H*W) crosses [`LARGE_BYTES`]
/// and would drown the shard signal in worker-arena noise. Every buffer this
/// model touches — weights (768x16 f32 = 48 KiB), gradients, momentum,
/// activations — stays below the threshold.
fn scale_model(rng: &mut SeededRng) -> Box<dyn Model> {
    Sequential::new("scale-probe")
        .push(Flatten::new())
        .push(Linear::new(3 * 16 * 16, 16, rng))
        .push(Relu::new())
        .push(Linear::new(16, 10, rng))
        .boxed()
}

fn equivalence_model() -> Box<dyn Model> {
    let mut rng = SeededRng::new(7);
    cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (4, 8),
            fc_hidden: 16,
            kernel: 3,
        },
        &mut rng,
    )
}

fn equivalence_source() -> SynthTaskSource {
    SynthTaskSource::cifar10(
        &SynthCifar10Config {
            num_clients: 6,
            samples_per_client: 25,
            test_samples: 60,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        7,
    )
}

fn equivalence_config() -> SimulationConfig {
    SimulationConfig {
        rounds: 2,
        clients_per_round: 3,
        eval_every: 1,
        eval_batch_size: 64,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 11,
    }
}

fn is_buffered(spec: AlgorithmSpec) -> bool {
    matches!(
        spec,
        AlgorithmSpec::BufferedFedAvg { .. } | AlgorithmSpec::BufferedFedCross { .. }
    )
}

/// Runs `spec` on the equivalence task over `sim` (already bound to either
/// the eager federation or a shard plane) and fingerprints the trajectory
/// exactly as the schedule-invariance sanitizer does.
fn run_fingerprint(spec: AlgorithmSpec, mut sim: Simulation<'_>) -> u64 {
    let init = sim.template().params_flat();
    let mut algorithm = build_algorithm(spec, init, 6, 3);
    if is_buffered(spec) {
        sim = sim
            .with_round_policy(RoundPolicy::Buffered {
                goal_k: 2,
                max_staleness: 4,
            })
            .with_devices(DeviceModel::two_tier(0.34, 3.0, 5))
            .with_faults(FaultPlan {
                stall_prob: 0.2,
                ..Default::default()
            });
    }
    let result = sim.run(algorithm.as_mut());

    let mut hash = Fnv1a::new();
    for record in result.history.records() {
        hash.write_u64(record.round as u64);
        hash.write_f32(record.accuracy);
        hash.write_f32(record.test_loss);
        hash.write_f32(record.train_loss);
    }
    hash.write_u64(result.comm.model_download);
    hash.write_u64(result.comm.model_upload);
    hash.write_u64(result.comm.extra_download);
    hash.write_u64(result.comm.extra_upload);
    hash.write_u64(result.comm.client_contacts);
    for &w in &algorithm.global_params() {
        hash.write_f32(w);
    }
    hash.finish()
}

#[test]
fn population_scale_runs_flat_and_bitwise_match_eager() {
    let _serial = serial();
    // ------------------------------------------------------------------
    // Phase 1: 100k-client run under the live-byte pin.
    // ------------------------------------------------------------------
    let source = SynthTaskSource::cifar10(
        &SynthCifar10Config {
            num_clients: SCALE_CLIENTS,
            samples_per_client: 24,
            test_samples: 40,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.3),
        42,
    );
    let plane = ShardPlane::new(
        Arc::new(source),
        ShardPlaneConfig {
            capacity: SCALE_CAPACITY,
            prefetch_depth: SCALE_PREFETCH,
        },
    );
    let mut rng = SeededRng::new(3);
    let template = scale_model(&mut rng);
    let config = SimulationConfig {
        rounds: SCALE_ROUNDS,
        clients_per_round: SCALE_K,
        eval_every: SCALE_ROUNDS,
        eval_batch_size: 16,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.5,
            weight_decay: 0.0,
        },
        seed: 17,
    };
    let init = template.params_flat();
    let mut algorithm = build_algorithm(AlgorithmSpec::FedAvg, init, SCALE_CLIENTS, SCALE_K);

    // Everything allocated so far (test set, model, plane) is the baseline;
    // the pin is on what the *run* adds on top of it.
    let baseline = LIVE_LARGE.load(Ordering::Relaxed);
    PEAK_LARGE.store(baseline, Ordering::Relaxed);

    let result = Simulation::new(config, &plane, template).run(algorithm.as_mut());
    assert!(!result.history.is_empty());

    let peak_delta = PEAK_LARGE.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        peak_delta <= SCALE_BUDGET_BYTES,
        "100k-client run peaked at {peak_delta} live large bytes, \
         budget is {SCALE_BUDGET_BYTES} (eager equivalent: ~{} bytes)",
        SCALE_CLIENTS * SHARD_BYTES
    );

    let stats = plane.stats();
    assert!(
        stats.peak_resident <= SCALE_CAPACITY + SCALE_PREFETCH,
        "peak resident shards {} exceeded capacity {} + prefetch depth {}",
        stats.peak_resident,
        SCALE_CAPACITY,
        SCALE_PREFETCH
    );
    // 6 rounds x 10 fresh clients out of 100k overflow a 16-slot cache.
    assert!(
        stats.evictions > 0,
        "scale run never evicted; the cache bound was not exercised"
    );
    assert!(
        stats.misses + stats.prefetched >= SCALE_K as u64,
        "scale run materialised almost nothing: {stats:?}"
    );

    // ------------------------------------------------------------------
    // Phase 2: evict-then-rematerialise is a bitwise no-op.
    // ------------------------------------------------------------------
    let probe = plane.shard(99_999);
    let bits: Vec<u32> = probe.features().data().iter().map(|v| v.to_bits()).collect();
    drop(probe);
    for client in 0..SCALE_CAPACITY + 1 {
        // Flood the LRU so client 99 999 is evicted.
        plane.shard(client);
    }
    let again = plane.shard(99_999);
    let again_bits: Vec<u32> = again.features().data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, again_bits, "re-materialised shard changed bits");

    // ------------------------------------------------------------------
    // Phase 3: lazy-vs-eager bitwise equivalence for every registered
    // algorithm, with and without mid-run eviction.
    // ------------------------------------------------------------------
    let source = equivalence_source();
    let eager = source.materialize_all();
    let source: Arc<dyn ClientDataSource> = Arc::new(source);
    let mut evicting_total = 0u64;
    for spec in AlgorithmSpec::registered() {
        let fp_eager = run_fingerprint(
            spec,
            Simulation::new(equivalence_config(), &eager, equivalence_model()),
        );

        // A 2-slot cache under K = 3 evicts and re-materialises every round.
        let evicting = ShardPlane::new(
            Arc::clone(&source),
            ShardPlaneConfig {
                capacity: 2,
                prefetch_depth: 2,
            },
        );
        let fp_evicting = run_fingerprint(
            spec,
            Simulation::new(equivalence_config(), &evicting, equivalence_model()),
        );

        // A roomy cache never evicts and runs without a prefetch worker.
        let roomy = ShardPlane::new(
            Arc::clone(&source),
            ShardPlaneConfig {
                capacity: 6,
                prefetch_depth: 0,
            },
        );
        let fp_roomy = run_fingerprint(
            spec,
            Simulation::new(equivalence_config(), &roomy, equivalence_model()),
        );

        assert_eq!(
            fp_eager,
            fp_evicting,
            "{}: sharded (evicting) trajectory diverged from eager",
            spec.label()
        );
        assert_eq!(
            fp_eager,
            fp_roomy,
            "{}: sharded (roomy) trajectory diverged from eager",
            spec.label()
        );
        evicting_total += evicting.stats().evictions;
        assert_eq!(roomy.stats().evictions, 0, "{}: roomy cache evicted", spec.label());
    }
    assert!(
        evicting_total > 0,
        "equivalence phase never evicted; the evicting runs were vacuous"
    );
}

/// A checkpoint resumes only under an equal `config_fingerprint`, so a
/// change that moves either value orphans every checkpoint saved on that
/// backend.
#[test]
fn config_fingerprints_are_pinned_per_backend() {
    let _serial = serial();
    let source = equivalence_source();
    let eager = source.materialize_all();
    let sharded = ShardPlane::with_default_config(Arc::new(source));
    assert_eq!(
        Simulation::new(equivalence_config(), &eager, equivalence_model()).config_fingerprint(),
        "fnv1a:9f3788001ebf0c88"
    );
    assert_eq!(
        Simulation::new(equivalence_config(), &sharded, equivalence_model()).config_fingerprint(),
        "fnv1a:8b6f7ef8cd16464e"
    );
}
