//! The federated round loop.
//!
//! An FL method is an implementation of [`FederatedAlgorithm`]: given a
//! [`RoundContext`] it decides which parameter vectors to dispatch to which
//! clients, receives their [`LocalUpdate`]s and performs its server-side
//! aggregation. The [`Simulation`] drives the algorithm for a configured
//! number of communication rounds, evaluates the deployed global model on the
//! held-out test set and records the learning curve — i.e. it is the piece of
//! the paper's experimental apparatus that is common to FedAvg, FedProx,
//! SCAFFOLD, FedGen, CluSamp and FedCross.

use crate::adversary::{AdversaryModel, Attack};
use crate::availability::AvailabilityModel;
use crate::checkpoint::{AlgorithmState, Checkpoint, StateError, CHECKPOINT_VERSION};
use crate::client::{GradCorrection, LocalTrainConfig, LocalUpdate};
use crate::comm::CommTracker;
use crate::device::DeviceModel;
use crate::eval::EvalWorker;
use crate::faults::{FaultPlan, FaultTally, RoundPolicy};
use crate::history::{RoundRecord, TrainingHistory};
use crate::worker::ClientWorkerPool;
use fedcross_data::{Dataset, FederatedDataset, ShardPlane};
use fedcross_nn::params::ParamBlock;
use fedcross_nn::Model;
use fedcross_tensor::alloc_guard::AllocGuard;
use fedcross_tensor::SeededRng;
use rayon::prelude::*;
use std::sync::Arc;

/// Population size above which [`RoundContext::select_clients`] switches from
/// the dense O(n) sampler to the sparse O(k) Floyd sampler. Every historical
/// fingerprinted config sits far below this threshold, so their selection
/// draws stay bitwise identical; million-client federations sit far above it
/// and never allocate population-sized scratch.
pub const SPARSE_SELECTION_THRESHOLD: usize = 4096;

/// A single allocation of this many bytes or more inside a guarded
/// steady-state region (round or eval) trips the `sanitize-alloc` runtime
/// sanitizer. Matches the large-allocation threshold the runtime pin in
/// tests/tests/round_alloc.rs enforces: full-model buffers sit far above
/// it, per-round bookkeeping far below.
pub const STEADY_LARGE_BYTES: usize = 64 * 1024;

/// The client-data backend a simulation round reads shards from: either the
/// historical fully materialised [`FederatedDataset`] or a bounded
/// [`ShardPlane`] that synthesises shards on demand (see
/// `fedcross_data::source`). All shard bits are identical between the two for
/// equivalent federations — the plane only changes *when* a shard exists in
/// memory, never what it contains.
#[derive(Clone, Copy)]
pub enum DataPlane<'a> {
    /// Every client shard resident for the whole run.
    Eager(&'a FederatedDataset),
    /// Bounded LRU cache + prefetch over a lazy client data source.
    Sharded(&'a ShardPlane),
}

impl<'a> DataPlane<'a> {
    /// Total number of clients in the federation.
    pub fn num_clients(&self) -> usize {
        match self {
            DataPlane::Eager(data) => data.num_clients(),
            DataPlane::Sharded(plane) => plane.num_clients(),
        }
    }

    /// Number of classes in the task.
    pub fn num_classes(&self) -> usize {
        match self {
            DataPlane::Eager(data) => data.num_classes(),
            DataPlane::Sharded(plane) => plane.num_classes(),
        }
    }

    /// The held-out global test set (always resident on both backends).
    pub fn test_set(&self) -> &'a Dataset {
        match self {
            DataPlane::Eager(data) => data.test_set(),
            DataPlane::Sharded(plane) => plane.test_set(),
        }
    }

    /// Client `client`'s training shard. Borrowed on the eager backend;
    /// cache-served (materialising on a miss) on the sharded backend.
    pub fn shard(&self, client: usize) -> ShardRef<'a> {
        match self {
            DataPlane::Eager(data) => ShardRef::Borrowed(data.client(client)),
            DataPlane::Sharded(plane) => ShardRef::Cached(plane.shard(client)),
        }
    }
}

/// A round's handle on one client shard: a plain borrow from the eager
/// dataset, or shared ownership of a cache entry (which keeps the shard alive
/// for the duration of the training job even if the cache evicts it).
pub enum ShardRef<'a> {
    /// Borrowed from a resident [`FederatedDataset`].
    Borrowed(&'a Dataset),
    /// Checked out of a [`ShardPlane`] cache.
    Cached(Arc<Dataset>),
}

impl std::ops::Deref for ShardRef<'_> {
    type Target = Dataset;

    fn deref(&self) -> &Dataset {
        match self {
            ShardRef::Borrowed(data) => data,
            ShardRef::Cached(data) => data,
        }
    }
}

/// One client-training job: dispatch `params` to `client`, optionally with a
/// per-parameter gradient correction applied during its local SGD.
///
/// `params` is a [`ParamBlock`], so building a job from a server-side model
/// is a reference-count bump rather than an `O(d)` copy — the server's models
/// are dispatched by reference, and the client copies the parameters exactly
/// once, into its own model instance.
pub struct TrainJob {
    /// Target client index.
    pub client: usize,
    /// Parameter vector dispatched to the client (shared, copy-on-write).
    pub params: ParamBlock,
    /// Optional gradient correction (FedProx proximal term, SCAFFOLD control
    /// variates).
    pub correction: Option<GradCorrection>,
    /// Auxiliary download payload in scalars (counted on top of the model).
    pub extra_download: usize,
    /// Auxiliary upload payload in scalars.
    pub extra_upload: usize,
}

impl TrainJob {
    /// A plain job with no correction and no auxiliary payload.
    pub fn plain(client: usize, params: impl Into<ParamBlock>) -> Self {
        Self {
            client,
            params: params.into(),
            correction: None,
            extra_download: 0,
            extra_upload: 0,
        }
    }
}

/// Summary of one communication round returned by the algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    /// Number of clients that participated.
    pub participants: usize,
    /// Mean training loss reported by the participants.
    pub mean_train_loss: f32,
    /// Total number of local samples used this round.
    pub total_samples: usize,
}

impl RoundReport {
    /// Builds a report from the round's local updates, in slice order.
    pub fn from_updates(updates: &[LocalUpdate]) -> Self {
        // alloc: bounded — cohort-sized view list, once per round
        let refs: Vec<&LocalUpdate> = updates.iter().collect();
        Self::from_ordered(&refs)
    }

    /// Builds a report from updates in a caller-chosen canonical order. The
    /// f32 loss mean sums in iteration order, so algorithms whose round
    /// result must be independent of upload arrival order (the round-derived
    /// noise plane) report from their canonical client-id/slot order too.
    pub fn from_ordered(ordered: &[&LocalUpdate]) -> Self {
        if ordered.is_empty() {
            return Self::default();
        }
        Self {
            participants: ordered.len(),
            mean_train_loss: ordered.iter().map(|u| u.train_loss).sum::<f32>()
                / ordered.len() as f32,
            total_samples: ordered.iter().map(|u| u.num_samples).sum(),
        }
    }
}

/// The worker plane a [`RoundContext`] trains on: either a pool borrowed
/// from the long-lived simulation (warm across rounds — the steady-state
/// path) or a context-owned pool (one-shot contexts built by tests and
/// benches keep their historical clone-per-round cost profile, with
/// unchanged results).
enum WorkerPlane<'a> {
    Owned(ClientWorkerPool),
    Shared(&'a mut ClientWorkerPool),
}

impl WorkerPlane<'_> {
    fn pool(&mut self) -> &mut ClientWorkerPool {
        match self {
            WorkerPlane::Owned(pool) => pool,
            WorkerPlane::Shared(pool) => pool,
        }
    }
}

/// Everything an algorithm can touch during one communication round.
pub struct RoundContext<'a> {
    data: DataPlane<'a>,
    template: &'a dyn Model,
    local: LocalTrainConfig,
    clients_per_round: usize,
    rng: SeededRng,
    comm: &'a mut CommTracker,
    availability: AvailabilityModel,
    adversary: Option<AdversaryModel>,
    policy: RoundPolicy,
    faults: Option<FaultPlan>,
    devices: Option<DeviceModel>,
    tally: FaultTally,
    round: usize,
    dropped: Vec<usize>,
    plane: WorkerPlane<'a>,
    upload_shuffle: Option<u64>,
    shuffle_calls: u64,
}

/// Reorders `updates` into dispatch order: the position of each update's
/// client in `dispatched` (the job list the algorithm submitted).
///
/// Today's engine already returns updates in dispatch order, so on an
/// unshuffled round this is a bitwise no-op — but an algorithm that sorts
/// with it before aggregating becomes invariant to upload *arrival* order,
/// which the schedule-invariance sanitizer exercises via
/// [`RoundContext::with_upload_shuffle`]. Updates whose client does not
/// appear in `dispatched` (impossible through `local_train_jobs`, possible
/// in hand-built harnesses) sort last, by client id.
pub fn canonicalize_updates(updates: &mut [LocalUpdate], dispatched: &[usize]) {
    let position = |client: usize| -> (usize, usize) {
        match dispatched.iter().position(|&c| c == client) {
            Some(p) => (p, 0),
            None => (dispatched.len(), client),
        }
    };
    updates.sort_by_key(|u| position(u.client));
}

/// What the transport does to one surviving upload under a buffered round
/// policy, derived per `(round, client)` by [`RoundContext::upload_outcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadOutcome {
    /// Client the outcome belongs to.
    pub client: usize,
    /// Rounds after the training round at which the upload arrives at the
    /// server (0 = within its own round). Stalled uploads and slow devices
    /// both contribute.
    pub delay: usize,
    /// Copies the transport delivers (2 for a duplicated upload). The server
    /// must dedupe by client id.
    pub copies: usize,
}

impl<'a> RoundContext<'a> {
    /// Creates a round context over a fully materialised dataset. Normally
    /// done by [`Simulation`]; exposed so tests and custom harnesses can
    /// drive algorithms round by round.
    pub fn new(
        data: &'a FederatedDataset,
        template: &'a dyn Model,
        local: LocalTrainConfig,
        clients_per_round: usize,
        rng: SeededRng,
        comm: &'a mut CommTracker,
    ) -> Self {
        Self::over_plane(
            DataPlane::Eager(data),
            template,
            local,
            clients_per_round,
            rng,
            comm,
        )
    }

    /// Creates a round context over a sharded [`ShardPlane`] backend — the
    /// million-client form of [`RoundContext::new`].
    pub fn new_sharded(
        plane: &'a ShardPlane,
        template: &'a dyn Model,
        local: LocalTrainConfig,
        clients_per_round: usize,
        rng: SeededRng,
        comm: &'a mut CommTracker,
    ) -> Self {
        Self::over_plane(
            DataPlane::Sharded(plane),
            template,
            local,
            clients_per_round,
            rng,
            comm,
        )
    }

    fn over_plane(
        data: DataPlane<'a>,
        template: &'a dyn Model,
        local: LocalTrainConfig,
        clients_per_round: usize,
        rng: SeededRng,
        comm: &'a mut CommTracker,
    ) -> Self {
        assert!(clients_per_round >= 1, "need at least one client per round");
        assert!(
            clients_per_round <= data.num_clients(),
            "clients_per_round ({clients_per_round}) exceeds the federation's {} clients",
            data.num_clients()
        );
        Self {
            data,
            template,
            local,
            clients_per_round,
            rng,
            comm,
            availability: AvailabilityModel::AlwaysOn,
            adversary: None,
            policy: RoundPolicy::Synchronous,
            faults: None,
            devices: None,
            tally: FaultTally::default(),
            round: 0,
            // alloc: bounded — empty drop-list placeholder, cohort-bounded
            dropped: Vec::new(),
            plane: WorkerPlane::Owned(ClientWorkerPool::new()),
            upload_shuffle: None,
            shuffle_calls: 0,
        }
    }

    /// Permutes the arrival order of every training batch's surviving
    /// uploads with a deterministic, `seed`-derived shuffle (default: off —
    /// uploads arrive in dispatch order).
    ///
    /// This is the schedule-invariance sanitizer's fault injector: an
    /// algorithm whose trajectory changes under it depends on upload arrival
    /// order, which a real deployment does not control. It deliberately does
    /// **not** enter [`Simulation::config_fingerprint`] — a correct
    /// algorithm produces the canonical trajectory with or without it.
    pub fn with_upload_shuffle(mut self, seed: u64) -> Self {
        self.upload_shuffle = Some(seed);
        self
    }

    /// Attaches a client-availability model for this round (the round number
    /// is needed by the deterministic straggler patterns). Defaults to
    /// [`AvailabilityModel::AlwaysOn`].
    ///
    /// The model is validated eagerly: an out-of-range dropout probability or
    /// straggler period panics here instead of silently misbehaving at
    /// training time.
    pub fn with_availability(mut self, availability: AvailabilityModel, round: usize) -> Self {
        availability.validate();
        self.availability = availability;
        self.round = round;
        self
    }

    /// Attaches an adversary model for this round: compromised clients train
    /// on poisoned data or tamper with their uploads (see
    /// [`crate::adversary`]). Orthogonal to [`RoundContext::with_availability`]
    /// — a compromised client that drops out never gets to attack. Validated
    /// eagerly, like the availability model.
    pub fn with_adversaries(mut self, adversary: AdversaryModel, round: usize) -> Self {
        adversary.validate();
        self.adversary = Some(adversary);
        self.round = round;
        self
    }

    /// Attaches the fault-tolerance service plane for this round: a
    /// round-closing `policy`, an optional [`FaultPlan`] and an optional
    /// [`DeviceModel`]. With the defaults
    /// (`RoundPolicy::Synchronous`, no faults, no devices) the round is
    /// bitwise identical to a context without this call — the service plane
    /// draws nothing and filters nothing.
    ///
    /// All three are validated eagerly, like the availability model.
    pub fn with_service_plane(
        mut self,
        policy: RoundPolicy,
        faults: Option<FaultPlan>,
        devices: Option<DeviceModel>,
        round: usize,
    ) -> Self {
        policy.validate();
        if let Some(plan) = &faults {
            plan.validate();
        }
        if let Some(model) = &devices {
            model.validate();
        }
        self.policy = policy;
        self.faults = faults;
        self.devices = devices;
        self.round = round;
        self
    }

    /// The round-closing policy this round runs under (the `Buffered*`
    /// algorithms read their buffer goal and staleness bound from here).
    pub fn round_policy(&self) -> RoundPolicy {
        self.policy
    }

    /// Fault accounting accumulated by this round's service plane.
    pub fn fault_tally(&self) -> FaultTally {
        self.tally
    }

    /// Attaches a persistent [`ClientWorkerPool`] that outlives this context,
    /// so the round trains on warm cached models instead of fresh template
    /// clones. For contexts sharing one template (the supported use — see
    /// [`ClientWorkerPool::ensure`] for the exact compatibility contract),
    /// results are bitwise identical either way (see the [`crate::worker`]
    /// module docs); only the allocation profile changes. [`Simulation`]
    /// attaches one pool for its whole run.
    pub fn with_worker_pool(mut self, pool: &'a mut ClientWorkerPool) -> Self {
        self.plane = WorkerPlane::Shared(pool);
        self
    }

    /// Clients whose training job was discarded by the availability model
    /// this round (in job order): they were selected but never responded.
    pub fn dropped_clients(&self) -> &[usize] {
        &self.dropped
    }

    /// Total number of clients in the federation.
    pub fn num_clients(&self) -> usize {
        self.data.num_clients()
    }

    /// Number of clients that participate per round (the paper's `K`).
    /// Validated against the population size at construction, so no silent
    /// per-call clamping happens here.
    pub fn clients_per_round(&self) -> usize {
        self.clients_per_round
    }

    /// The federated dataset (client training shards + global test set).
    ///
    /// # Panics
    /// Panics on a sharded context: whole-federation slice access is exactly
    /// what the sharded plane exists to avoid. Algorithms reach shards
    /// through [`RoundContext::local_train_jobs`] and friends, which work on
    /// both backends.
    pub fn data(&self) -> &FederatedDataset {
        match self.data {
            DataPlane::Eager(data) => data,
            // panic: documented API contract — whole-federation access is
            // exactly what the sharded plane exists to prevent
            DataPlane::Sharded(_) => panic!(
                "RoundContext::data() is unavailable on a sharded data plane; \
                 access shards through the training dispatch instead"
            ),
        }
    }

    /// Number of classes in the federation's task.
    pub fn num_classes(&self) -> usize {
        self.data.num_classes()
    }

    /// The architecture template used to instantiate client models.
    pub fn template(&self) -> &dyn Model {
        self.template
    }

    /// The local-training configuration every client uses.
    pub fn local_config(&self) -> LocalTrainConfig {
        self.local
    }

    /// Mutable access to the round's RNG (client selection, shuffling).
    pub fn rng_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// Samples `clients_per_round` distinct clients uniformly at random
    /// (Algorithm 1, line 4).
    ///
    /// Populations up to [`SPARSE_SELECTION_THRESHOLD`] use the historical
    /// dense Fisher–Yates prefix sampler (bitwise-preserving every existing
    /// fingerprinted trajectory); larger populations switch to Floyd's O(k)
    /// sampler so selection never allocates population-sized scratch.
    pub fn select_clients(&mut self) -> Vec<usize> {
        let n = self.num_clients();
        let k = self.clients_per_round();
        if n > SPARSE_SELECTION_THRESHOLD {
            self.rng.sample_without_replacement_sparse(n, k)
        } else {
            self.rng.sample_without_replacement(n, k)
        }
    }

    /// Samples clients with probability proportional to `weights` (without
    /// replacement), used by the clustered-sampling baseline.
    pub fn select_clients_weighted(&mut self, weights: &[f32]) -> Vec<usize> {
        assert_eq!(weights.len(), self.num_clients(), "one weight per client");
        let k = self.clients_per_round();
        let mut remaining: Vec<usize> = (0..self.num_clients()).collect();
        let mut w: Vec<f32> = weights.to_vec();
        let mut picked = Vec::with_capacity(k);
        for _ in 0..k {
            if remaining.is_empty() {
                break;
            }
            let total: f32 = w.iter().sum();
            let idx = if total <= 0.0 {
                self.rng.below(remaining.len())
            } else {
                self.rng.weighted_index(&w)
            };
            picked.push(remaining.remove(idx));
            w.remove(idx);
        }
        picked
    }

    /// Trains one client on the dispatched parameters and returns its update,
    /// recording the communication.
    ///
    /// Accepts anything convertible into a [`ParamBlock`]: pass a cloned
    /// block (a reference-count bump) to dispatch a server model without
    /// copying it; `&[f32]` / `Vec<f32>` still work and copy once at the
    /// conversion boundary.
    pub fn local_train(&mut self, client: usize, params: impl Into<ParamBlock>) -> LocalUpdate {
        let updates = self.local_train_jobs(vec![TrainJob::plain(client, params)]);
        updates.into_iter().next().expect("one job yields one update")
    }

    /// Trains several clients (in parallel) on plain jobs.
    ///
    /// Accepts any parameter representation convertible into a [`ParamBlock`];
    /// pass `(client, ParamBlock)` pairs (cloned blocks are reference-count
    /// bumps) to dispatch server models without copying them.
    pub fn local_train_batch<P>(&mut self, jobs: &[(usize, P)]) -> Vec<LocalUpdate>
    where
        P: Clone + Into<ParamBlock>,
    {
        self.local_train_jobs(
            jobs.iter()
                // alloc: bounded — cohort-sized job list, once per round
                .map(|(client, params)| TrainJob::plain(*client, params.clone()))
                // alloc: bounded — cohort-sized job list, once per round
                .collect(),
        )
    }

    /// Trains several clients (in parallel), honouring per-job gradient
    /// corrections and auxiliary payload accounting.
    ///
    /// Jobs whose client drops out under the configured
    /// [`AvailabilityModel`] are discarded: they produce no update and no
    /// communication, and the dropped client ids are recorded in
    /// [`RoundContext::dropped_clients`]. Algorithms must therefore tolerate
    /// receiving fewer updates than jobs they submitted.
    pub fn local_train_jobs(&mut self, jobs: Vec<TrainJob>) -> Vec<LocalUpdate> {
        // Apply the availability model before any communication happens: a
        // dropped client never responds to the dispatch.
        let availability = self.availability;
        let round = self.round;
        let jobs: Vec<TrainJob> = jobs
            .into_iter()
            .filter(|job| {
                let available = availability.is_available(round, job.client, &mut self.rng);
                if !available {
                    self.dropped.push(job.client);
                }
                available
            })
            // alloc: bounded — cohort-sized job list, once per round
            .collect();

        // Record communication before training (dispatch + upload of the model,
        // plus any auxiliary payload the algorithm declared).
        for job in &jobs {
            self.comm.record_model_roundtrip(job.params.len());
            if job.extra_download > 0 {
                self.comm.record_extra_download(job.extra_download);
            }
            if job.extra_upload > 0 {
                self.comm.record_extra_upload(job.extra_upload);
            }
        }

        // Derive every job's RNG stream serially, in job order. Safety of the
        // `fork(client + 1)` derivation: `fork` reads only the round RNG's
        // *construction seed* (see `SeededRng::fork`), so two jobs for the
        // same client in the same round would collide — but a round never
        // dispatches the same client twice, and the simulation rebuilds the
        // round RNG from `master.fork(round)` every round, so the (round,
        // client) pair uniquely identifies each stream. The worker pool must
        // preserve exactly this derivation (it does: the reseeding fork below
        // never consumes the job stream).
        let local = self.local;
        let prepared: Vec<(TrainJob, SeededRng)> = jobs
            .into_iter()
            .map(|job| {
                let rng = self.rng.fork(job.client as u64 + 1); // fork: construction-seed
                (job, rng)
            })
            // alloc: bounded — cohort-sized job list, once per round
            .collect();

        // Dispatch onto the persistent worker plane: slot i takes job i,
        // reloads the dispatched parameters into its cached model and rewinds
        // stochastic layer state, which is bitwise identical to the
        // historical clone-per-round preparation — then train in parallel,
        // the paper's "parallel for" block (Algorithm 1, line 6).
        // Resolve the compromised-client mask once per round (it is a pure
        // function of the adversary seed, but there is no reason to rederive
        // it inside the parallel closure). Honest runs skip all of this.
        let adversary = self.adversary;
        let compromised: Vec<bool> = match adversary {
            Some(adv) => adv.compromised(self.data.num_clients()),
            // alloc: bounded — cohort-sized job list, once per round
            None => Vec::new(),
        };

        // Check every job's shard out of the data plane before the parallel
        // section: on the eager backend these are plain borrows; on the
        // sharded backend this is where cache hits/misses happen (serially,
        // in job order — materialisation stays deterministic and the
        // parallel workers below never touch the cache).
        let shards: Vec<ShardRef<'_>> = prepared
            .iter()
            .map(|(job, _)| self.data.shard(job.client))
            // alloc: bounded — cohort-sized job list, once per round
            .collect();

        let template = self.template;
        let workers = self.plane.pool().ensure(prepared.len(), template);
        let work: Vec<_> = prepared
            .into_iter()
            .zip(shards)
            .zip(workers.iter_mut())
            // alloc: bounded — cohort-sized job list, once per round
            .collect();
        let updates = work
            .into_par_iter()
            .map(|(((job, mut rng), shard), worker)| {
                let attacker =
                    adversary.filter(|_| compromised.get(job.client).copied().unwrap_or(false));
                // Data poisoning happens before training (the client trains
                // honestly — on flipped labels); everything else trains on the
                // honest shard and tampers with the upload afterwards. The
                // corrupted upload is a pure function of (round, client,
                // dispatched params), so upload order and restarts cannot
                // change it.
                let mut update = match attacker {
                    Some(adv) if adv.attack == Attack::LabelFlip => {
                        let poisoned = adv.flip_labels(&shard);
                        worker.train(
                            job.client,
                            &job.params,
                            &poisoned,
                            &local,
                            &mut rng,
                            job.correction.as_ref(),
                        )
                    }
                    _ => worker.train(
                        job.client,
                        &job.params,
                        &shard,
                        &local,
                        &mut rng,
                        job.correction.as_ref(),
                    ),
                };
                if let Some(adv) = attacker {
                    adv.corrupt_upload(round, &job.params, &mut update);
                }
                update
            })
            // alloc: bounded — cohort-sized job list, once per round
            .collect::<Vec<LocalUpdate>>();
        let mut updates = self.apply_service_plane(updates);
        self.shuffle_uploads(&mut updates);
        updates
    }

    /// Applies the configured upload-arrival permutation (inert by default).
    /// Each training batch within a round gets its own stream, so two
    /// batches of the same round are permuted independently.
    fn shuffle_uploads(&mut self, updates: &mut [LocalUpdate]) {
        let Some(seed) = self.upload_shuffle else {
            return;
        };
        // Domain-separate the shuffle seed from every other consumer of the
        // master seed so enabling the sanitizer cannot correlate with any
        // trajectory stream.
        const SHUFFLE_DOMAIN: u64 = 0x5AFE_5CED_u64;
        let call = self.shuffle_calls;
        self.shuffle_calls += 1;
        let mut rng = SeededRng::new(seed ^ SHUFFLE_DOMAIN)
            .fork(self.round as u64) // fork: construction-seed
            .fork(call); // fork: construction-seed
        rng.shuffle(updates);
    }

    /// Whether the fault-tolerance service plane has anything to do. With the
    /// default synchronous policy and no fault plan the plane must be
    /// completely inert — not a single extra draw or filter — so historical
    /// trajectories stay bitwise identical.
    fn service_plane_active(&self) -> bool {
        self.policy != RoundPolicy::Synchronous
            || self
                .faults
                .map(|f| f.has_client_faults() || f.server_fail_prob > 0.0)
                .unwrap_or(false)
    }

    /// The transport/server delivery step between client training and the
    /// algorithm's aggregation. Filters the round's updates down to what the
    /// server actually gets to aggregate:
    ///
    /// * crashed uploads never arrive (any policy),
    /// * a round whose server-apply retries are exhausted loses its whole
    ///   upload set (any policy),
    /// * under `Synchronous`, stalled uploads miss the round barrier and are
    ///   lost; duplicates are deduped silently (the synchronous server
    ///   processes each client's upload once),
    /// * under `Deadline`, uploads slower than the budget are additionally
    ///   discarded, except the fastest ones rescued by `min_quorum`,
    /// * under `Buffered`, stalled and slow uploads are **kept** — the
    ///   buffered algorithms fetch their delays via
    ///   [`RoundContext::upload_outcomes`] and buffer them across rounds.
    ///
    /// The surviving updates keep their original job order, so slot-mapping
    /// algorithms (FedCross) are unaffected by the filtering.
    fn apply_service_plane(&mut self, updates: Vec<LocalUpdate>) -> Vec<LocalUpdate> {
        if !self.service_plane_active() {
            return updates;
        }
        let round = self.round;

        // Transient server-apply failure: one fate per round. Exhausted
        // retries abandon the round's upload set — algorithms already
        // tolerate empty rounds via their carry-over paths.
        if let Some(plan) = self.faults {
            match plan.server_apply_attempts(round) {
                Some(attempts) => self.tally.apply_retries += attempts - 1,
                None => {
                    self.tally.rounds_lost += 1;
                    // alloc: bounded — cohort-sized service-plane staging, once per round
                    return Vec::new();
                }
            }
        }

        // Partition by per-upload transport fate, preserving job order.
        // `kept` are deliverable now; `late` missed a deadline budget but can
        // still be rescued by the quorum rule (stalled uploads cannot — their
        // bytes genuinely are not there yet).
        let buffered = matches!(self.policy, RoundPolicy::Buffered { .. });
        // alloc: bounded — cohort-sized service-plane staging, once per round
        let mut kept: Vec<(usize, LocalUpdate)> = Vec::with_capacity(updates.len());
        // alloc: bounded — cohort-sized service-plane staging, once per round
        let mut late: Vec<(f32, usize, LocalUpdate)> = Vec::new();
        for (index, update) in updates.into_iter().enumerate() {
            let fate = self
                .faults
                .map(|plan| plan.fate(round, update.client))
                .unwrap_or_default();
            if fate.crashed {
                self.tally.crashed += 1;
                continue;
            }
            if fate.duplicated {
                self.tally.duplicated += 1;
            }
            if fate.stall.is_some() {
                self.tally.stalled += 1;
                if !buffered {
                    continue;
                }
            }
            match self.policy {
                RoundPolicy::Deadline { budget, .. } => {
                    let latency = self
                        .devices
                        .map(|d| d.latency(round, update.client))
                        .unwrap_or(0.0);
                    if latency <= budget {
                        kept.push((index, update));
                    } else {
                        late.push((latency, index, update));
                    }
                }
                RoundPolicy::Synchronous | RoundPolicy::Buffered { .. } => {
                    kept.push((index, update));
                }
            }
        }

        // Quorum extension: when the deadline left fewer uploads than the
        // server insists on, wait for the fastest stragglers (deterministic
        // order: latency, then client id as the tie-break).
        if let RoundPolicy::Deadline { min_quorum, .. } = self.policy {
            if kept.len() < min_quorum && !late.is_empty() {
                late.sort_by(|a, b| {
                    a.0.total_cmp(&b.0).then_with(|| a.2.client.cmp(&b.2.client))
                });
                let rescue = (min_quorum - kept.len()).min(late.len());
                for (_, index, update) in late.drain(..rescue) {
                    self.tally.quorum_rescued += 1;
                    kept.push((index, update));
                }
                // Restore the original job order after the rescue.
                kept.sort_by_key(|(index, _)| *index);
            }
            self.tally.missed_deadline += late.len();
        }

        // alloc: bounded — cohort-sized service-plane staging, once per round
        kept.into_iter().map(|(_, update)| update).collect()
    }

    /// The transport outcome (arrival delay, delivered copies) of every
    /// update in `updates`, aligned by index. A pure function of
    /// `(round, client)` through the fault plan and device model, so the
    /// buffered algorithms that consume it stay bitwise resumable.
    ///
    /// Under the synchronous and deadline policies every surviving update was
    /// already delivered on time and deduped, so the outcome is always
    /// `{delay: 0, copies: 1}`; under `Buffered`, stalls and device latency
    /// turn into arrival delays and duplicates into `copies: 2`.
    pub fn upload_outcomes(&self, updates: &[LocalUpdate]) -> Vec<UploadOutcome> {
        let round = self.round;
        let buffered = matches!(self.policy, RoundPolicy::Buffered { .. });
        updates
            .iter()
            .map(|update| {
                if !buffered {
                    return UploadOutcome {
                        client: update.client,
                        delay: 0,
                        copies: 1,
                    };
                }
                let fate = self
                    .faults
                    .map(|plan| plan.fate(round, update.client))
                    .unwrap_or_default();
                let device_delay = self
                    .devices
                    .map(|d| d.delay_rounds(round, update.client))
                    .unwrap_or(0);
                UploadOutcome {
                    client: update.client,
                    delay: fate.stall.unwrap_or(0) + device_delay,
                    copies: 1 + usize::from(fate.duplicated),
                }
            })
            // alloc: bounded — cohort-sized outcome list, once per round
            .collect()
    }

    /// Records auxiliary server→client payload outside of a training job
    /// (e.g. a broadcast generator).
    pub fn record_extra_download(&mut self, scalars: usize) {
        self.comm.record_extra_download(scalars);
    }

    /// Records auxiliary client→server payload outside of a training job.
    pub fn record_extra_upload(&mut self, scalars: usize) {
        self.comm.record_extra_upload(scalars);
    }
}

/// A federated-learning method, pluggable into the [`Simulation`].
pub trait FederatedAlgorithm {
    /// Human-readable method name (used in tables and learning-curve labels).
    fn name(&self) -> String;

    /// Executes one communication round.
    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport;

    /// The parameter vector of the model that would be deployed right now
    /// (FedCross generates it on demand from the middleware models; FedAvg
    /// simply returns its global model). The allocating convenience form of
    /// [`FederatedAlgorithm::global_params_into`].
    fn global_params(&self) -> Vec<f32> {
        // alloc: cold — allocating convenience read; the per-round evaluation uses global_params_into
        let mut out = Vec::new();
        self.global_params_into(&mut out);
        out
    }

    /// Writes the deployed parameter vector into `out`, replacing its
    /// contents and reusing its capacity — the allocation-free form the
    /// simulation's evaluation loop uses every round.
    fn global_params_into(&self, out: &mut Vec<f32>);

    /// Captures the algorithm's **complete** training state for a
    /// [`Checkpoint`] — everything a fresh instance needs to continue the
    /// run bitwise identically (FedCross: the middleware list in slot order;
    /// SCAFFOLD: global model plus server and client control variates; ...).
    ///
    /// Algorithms opt in by overriding this together with
    /// [`FederatedAlgorithm::restore_state`]. The default **fails** rather
    /// than guess: silently capturing only the derived global model would
    /// produce checkpoints that save fine every round and turn out to be
    /// unrecoverable at resume time — the failure must surface when the
    /// checkpoint is taken, while the state still exists.
    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        Err(StateError::new(format!(
            "algorithm `{}` does not implement checkpoint snapshot",
            self.name()
        )))
    }

    /// Restores the state captured by [`FederatedAlgorithm::snapshot_state`]
    /// into this (freshly constructed, identically configured) instance.
    ///
    /// Implementations must validate the state's shape (model count, parameter
    /// count, table entries) and fail with a [`StateError`] on any mismatch —
    /// never restore partially. The default implementation always fails:
    /// algorithms that do not opt in to the resume plane cannot be resumed.
    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let _ = state;
        Err(StateError::new(format!(
            "algorithm `{}` does not implement checkpoint restore",
            self.name()
        )))
    }
}

/// Simulation-level configuration (everything outside a single round).
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Number of communication rounds.
    pub rounds: usize,
    /// Clients selected per round (the paper selects 10% of clients).
    pub clients_per_round: usize,
    /// Evaluate the global model every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Batch size used for test-set evaluation.
    pub eval_batch_size: usize,
    /// Client-side local training configuration.
    pub local: LocalTrainConfig,
    /// Master seed; every round derives its own stream from it.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            rounds: 20,
            clients_per_round: 10,
            eval_every: 1,
            eval_batch_size: 64,
            local: LocalTrainConfig::default(),
            seed: 42,
        }
    }
}

/// The result of a full or partial simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Name of the algorithm that was run.
    pub algorithm: String,
    /// Learning curve (one record per evaluated round, absolute indices).
    pub history: TrainingHistory,
    /// Accumulated communication counters.
    pub comm: CommTracker,
    /// Number of scalar parameters of the trained model.
    pub model_params: usize,
    /// Absolute number of communication rounds completed when this result was
    /// produced (equals the configured `rounds` for a full run; less for a
    /// partial [`Simulation::run_segment`] run). This is the round a
    /// checkpoint taken from this result resumes from.
    pub rounds_completed: usize,
    /// Fault accounting for the rounds this result actually executed (all
    /// zeros without a fault plan / non-synchronous policy). Diagnostic only:
    /// the tally is not checkpointed, so a resumed run's tally covers the
    /// resumed segment, not the whole trajectory.
    pub faults: FaultTally,
}

/// Why a [`Simulation::resume`] refused a checkpoint. Every variant is a
/// configuration the resumed run could not reproduce bitwise — resuming
/// anyway would silently change the training trajectory, so the engine fails
/// loudly instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The checkpoint was written by a different format version.
    Version {
        /// Version found in the checkpoint file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The checkpoint belongs to a different algorithm (or the same algorithm
    /// under different hyper-parameters — the name encodes them).
    AlgorithmMismatch {
        /// Algorithm name recorded in the checkpoint.
        checkpoint: String,
        /// Name of the algorithm passed to `resume`.
        resuming: String,
    },
    /// The checkpointed model size does not match the simulation's template.
    ParamCountMismatch {
        /// Parameters per model in the checkpoint.
        checkpoint: usize,
        /// Parameters of the simulation's architecture template.
        template: usize,
    },
    /// The checkpoint was produced under a different master seed.
    SeedMismatch {
        /// Seed recorded in the checkpoint.
        checkpoint: u64,
        /// Seed of the resuming simulation's configuration.
        resuming: u64,
    },
    /// The checkpoint was produced under a different simulation configuration
    /// (per-round schedule, local training hyper-parameters, availability
    /// model, template size or federation shape).
    ConfigMismatch {
        /// Fingerprint recorded in the checkpoint.
        checkpoint: String,
        /// Fingerprint of the resuming simulation.
        resuming: String,
    },
    /// The checkpoint already contains at least as many rounds as the
    /// simulation is configured to run.
    NothingToResume {
        /// Rounds completed per the checkpoint.
        rounds_completed: usize,
        /// Total rounds the simulation is configured for.
        configured_rounds: usize,
    },
    /// The algorithm rejected the checkpointed state (wrong middleware count,
    /// missing table, dimension mismatch, or restore not implemented).
    State(StateError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Version { found, expected } => {
                write!(f, "checkpoint format version {found}, this build reads {expected}")
            }
            ResumeError::AlgorithmMismatch { checkpoint, resuming } => write!(
                f,
                "checkpoint belongs to `{checkpoint}` but the resuming algorithm is `{resuming}`"
            ),
            ResumeError::ParamCountMismatch { checkpoint, template } => write!(
                f,
                "checkpoint stores {checkpoint}-parameter models, the template has {template}"
            ),
            ResumeError::SeedMismatch { checkpoint, resuming } => write!(
                f,
                "checkpoint was trained under seed {checkpoint}, the resuming simulation uses {resuming}"
            ),
            ResumeError::ConfigMismatch { checkpoint, resuming } => write!(
                f,
                "checkpoint config fingerprint {checkpoint} does not match the resuming simulation ({resuming})"
            ),
            ResumeError::NothingToResume {
                rounds_completed,
                configured_rounds,
            } => write!(
                f,
                "checkpoint already holds {rounds_completed} rounds, simulation is configured for {configured_rounds}"
            ),
            ResumeError::State(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<StateError> for ResumeError {
    fn from(err: StateError) -> Self {
        ResumeError::State(err)
    }
}

impl SimulationResult {
    /// Final-round test accuracy in percent.
    pub fn final_accuracy_pct(&self) -> f32 {
        self.history.final_accuracy() * 100.0
    }

    /// Best test accuracy in percent.
    pub fn best_accuracy_pct(&self) -> f32 {
        self.history.best_accuracy() * 100.0
    }
}

/// Drives a [`FederatedAlgorithm`] against a [`DataPlane`] — either a fully
/// materialised [`FederatedDataset`] or a sharded [`ShardPlane`].
pub struct Simulation<'a> {
    config: SimulationConfig,
    data: DataPlane<'a>,
    template: Box<dyn Model>,
    availability: AvailabilityModel,
    adversary: Option<AdversaryModel>,
    policy: RoundPolicy,
    faults: Option<FaultPlan>,
    devices: Option<DeviceModel>,
    upload_shuffle: Option<u64>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation over a fully materialised dataset. `template`
    /// defines the architecture every client and the server-side evaluation
    /// use.
    pub fn new(config: SimulationConfig, data: &'a FederatedDataset, template: Box<dyn Model>) -> Self {
        Self::over_plane(config, DataPlane::Eager(data), template)
    }

    /// Creates a simulation over a sharded data plane: client shards are
    /// materialised lazily through `plane`'s bounded cache, and each round's
    /// predicted cohort is prefetched in the background while the previous
    /// round trains. The trajectory is bitwise identical to
    /// [`Simulation::new`] over the equivalently materialised federation
    /// (pinned by `tests/tests/scale_plane.rs`).
    pub fn new_sharded(
        config: SimulationConfig,
        plane: &'a ShardPlane,
        template: Box<dyn Model>,
    ) -> Self {
        Self::over_plane(config, DataPlane::Sharded(plane), template)
    }

    fn over_plane(config: SimulationConfig, data: DataPlane<'a>, template: Box<dyn Model>) -> Self {
        assert!(config.rounds > 0, "at least one round is required");
        assert!(config.eval_every > 0, "eval_every must be positive");
        assert!(
            config.clients_per_round >= 1,
            "need at least one client per round"
        );
        assert!(
            config.clients_per_round <= data.num_clients(),
            "clients_per_round ({}) exceeds the federation's {} clients",
            config.clients_per_round,
            data.num_clients()
        );
        Self {
            config,
            data,
            template,
            availability: AvailabilityModel::AlwaysOn,
            adversary: None,
            policy: RoundPolicy::Synchronous,
            faults: None,
            devices: None,
            upload_shuffle: None,
        }
    }

    /// Permutes upload arrival order in every round with a deterministic
    /// `seed`-derived shuffle (default: off). See
    /// [`RoundContext::with_upload_shuffle`] — this is the sanitizer's
    /// arrival-order fault injector, and it is deliberately excluded from
    /// [`Simulation::config_fingerprint`]: an algorithm that aggregates in
    /// canonical order produces the bitwise-identical trajectory with or
    /// without it.
    pub fn with_upload_shuffle(mut self, seed: u64) -> Self {
        self.upload_shuffle = Some(seed);
        self
    }

    /// Simulates unreliable clients: selected clients may drop out according
    /// to `availability` (default: every client always responds).
    ///
    /// # Panics
    /// Panics on an invalid model (dropout probability outside `[0, 1)`,
    /// straggler period below 2) — validated eagerly so a misconfiguration
    /// fails at setup instead of silently dropping every client.
    pub fn with_availability(mut self, availability: AvailabilityModel) -> Self {
        availability.validate();
        self.availability = availability;
        self
    }

    /// Simulates a compromised federation: the configured fraction of clients
    /// mounts the configured [`Attack`] every round
    /// (default: every client is honest). Orthogonal to
    /// [`Simulation::with_availability`].
    ///
    /// # Panics
    /// Panics on an invalid model (fraction outside `[0, 1)`, non-finite
    /// attack parameter) — validated eagerly, like the availability model.
    pub fn with_adversaries(mut self, adversary: AdversaryModel) -> Self {
        adversary.validate();
        self.adversary = Some(adversary);
        self
    }

    /// Chooses how rounds close (default: [`RoundPolicy::Synchronous`], the
    /// bitwise-pinned historical behaviour). See [`RoundPolicy`] for the
    /// deadline and buffered semantics.
    ///
    /// # Panics
    /// Panics on an invalid policy (non-positive deadline budget, zero
    /// buffered goal) — validated eagerly, like the availability model.
    pub fn with_round_policy(mut self, policy: RoundPolicy) -> Self {
        policy.validate();
        self.policy = policy;
        self
    }

    /// Injects transport/server faults according to `faults` (default: a
    /// perfectly reliable transport). Composes with availability (a dropped
    /// client never trains, so it cannot crash mid-round) and adversaries (a
    /// corrupted upload stalls and duplicates like any other).
    ///
    /// # Panics
    /// Panics on an invalid plan (probability outside `[0, 1)`) — validated
    /// eagerly.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        faults.validate();
        self.faults = Some(faults);
        self
    }

    /// Simulates heterogeneous device speeds according to `devices` (default:
    /// a homogeneous fleet). Only observable under a deadline or buffered
    /// round policy — the synchronous server blocks on the slowest device.
    ///
    /// # Panics
    /// Panics on an invalid model (fraction outside `[0, 1]`, slowdown below
    /// 1) — validated eagerly.
    pub fn with_devices(mut self, devices: DeviceModel) -> Self {
        devices.validate();
        self.devices = Some(devices);
        self
    }

    /// The architecture template.
    pub fn template(&self) -> &dyn Model {
        self.template.as_ref()
    }

    /// Runs the configured number of rounds of `algorithm`.
    pub fn run(&self, algorithm: &mut dyn FederatedAlgorithm) -> SimulationResult {
        self.run_with_observer(algorithm, |_, _| {})
    }

    /// Runs the simulation, invoking `observer(round, &record)` after every
    /// evaluation — used by the benchmark harness to stream learning curves.
    pub fn run_with_observer(
        &self,
        algorithm: &mut dyn FederatedAlgorithm,
        observer: impl FnMut(usize, &RoundRecord),
    ) -> SimulationResult {
        self.run_segment_with_observer(
            algorithm,
            0,
            self.config.rounds,
            TrainingHistory::new(),
            CommTracker::new(),
            observer,
        )
    }

    /// Runs the **absolute** round range `[start_round, end_round)` of this
    /// configuration's trajectory and returns the (possibly partial) result.
    ///
    /// Every per-round random stream is derived from the absolute round index
    /// (`master.fork(round)`), and the `eval_every` cadence is anchored to
    /// absolute rounds too, so running `[0, R)` and then `[R, rounds)` on a
    /// faithfully restored algorithm is **bitwise identical** to one
    /// uninterrupted `[0, rounds)` run. The forced final evaluation happens
    /// only when the segment reaches the configured last round.
    pub fn run_segment(
        &self,
        algorithm: &mut dyn FederatedAlgorithm,
        start_round: usize,
        end_round: usize,
    ) -> SimulationResult {
        self.run_segment_with_observer(
            algorithm,
            start_round,
            end_round,
            TrainingHistory::new(),
            CommTracker::new(),
            |_, _| {},
        )
    }

    /// Continues a run from absolute round `start_round` to the configured
    /// end, appending to the carried-over `history` and `comm` (typically
    /// restored from a [`Checkpoint`]). See [`Simulation::run_segment`] for
    /// the absolute-round contract; most callers should use
    /// [`Simulation::resume`], which also validates and restores the
    /// checkpoint.
    pub fn run_from(
        &self,
        algorithm: &mut dyn FederatedAlgorithm,
        start_round: usize,
        history: TrainingHistory,
        comm: CommTracker,
    ) -> SimulationResult {
        self.run_segment_with_observer(
            algorithm,
            start_round,
            self.config.rounds,
            history,
            comm,
            |_, _| {},
        )
    }

    /// The full-control form backing every run entry point: absolute round
    /// range, carried-over history/comm, and a per-evaluation observer.
    pub fn run_segment_with_observer(
        &self,
        algorithm: &mut dyn FederatedAlgorithm,
        start_round: usize,
        end_round: usize,
        mut history: TrainingHistory,
        mut comm: CommTracker,
        mut observer: impl FnMut(usize, &RoundRecord),
    ) -> SimulationResult {
        assert!(
            start_round <= end_round && end_round <= self.config.rounds,
            "round segment [{start_round}, {end_round}) must lie within the configured {} rounds",
            self.config.rounds
        );
        let master = SeededRng::new(self.config.seed);
        // Warm the first round's cohort before entering the loop; every later
        // round's cohort is hinted while its predecessor trains.
        self.prefetch_cohort(start_round, end_round, &master);

        // The persistent round plane: one pool of warm client workers shared
        // by every round, one cached evaluation model, and one reusable
        // global-parameter buffer. After the first (warm-up) round a
        // steady-state round — training *and* evaluation — constructs zero
        // models and performs zero full-model heap allocations (pinned by
        // tests/tests/round_alloc.rs). A segment starting mid-trajectory
        // begins with a cold pool, which is bitwise harmless: dispatch
        // reloads parameters and rewinds stochastic state either way (the
        // warm-vs-fresh identity pinned by tests/tests/round_plane.rs).
        let mut plane = ClientWorkerPool::new();
        let mut eval_worker = EvalWorker::new(self.template.as_ref());
        // alloc: cold — eval buffer grown once before the loop; steady rounds reuse capacity
        let mut global_buf: Vec<f32> = Vec::new();
        let mut faults_total = FaultTally::default();
        let mut evals_done = 0usize;

        for round in start_round..end_round {
            // Hint next round's predicted cohort so the prefetch worker
            // materialises those shards while this round trains.
            self.prefetch_cohort(round + 1, end_round, &master);
            // Runtime half of the allocation-discipline plane: after the
            // warm-up round, no single allocation on this thread may reach
            // the large-allocation threshold that round_alloc.rs pins.
            // Thread-local by design — worker-pool allocations are covered
            // by the global counters in the runtime pins; this guard owns
            // the dispatch/aggregation path. No-op unless the
            // `sanitize-alloc` feature is enabled.
            let round_guard = (round > start_round)
                .then(|| AllocGuard::enter("steady-round", STEADY_LARGE_BYTES));
            let report = {
                let mut ctx = RoundContext::over_plane(
                    self.data,
                    self.template.as_ref(),
                    self.config.local,
                    self.config.clients_per_round,
                    master.fork(round as u64), // fork: construction-seed
                    &mut comm,
                )
                .with_availability(self.availability, round)
                .with_service_plane(self.policy, self.faults, self.devices, round)
                .with_worker_pool(&mut plane);
                if let Some(adversary) = self.adversary {
                    ctx = ctx.with_adversaries(adversary, round);
                }
                if let Some(seed) = self.upload_shuffle {
                    ctx = ctx.with_upload_shuffle(seed);
                }
                let report = algorithm.run_round(round, &mut ctx);
                faults_total.absorb(&ctx.fault_tally());
                report
            };
            comm.end_round();
            drop(round_guard);

            let is_last = round + 1 == self.config.rounds;
            if round % self.config.eval_every == 0 || is_last {
                // The first evaluation warms global_buf and the eval
                // worker's scratch; every later one must stay under the
                // large-allocation threshold (same sanitizer as the round
                // guard above).
                let eval_guard = (evals_done > 0)
                    .then(|| AllocGuard::enter("steady-eval", STEADY_LARGE_BYTES));
                algorithm.global_params_into(&mut global_buf);
                let evaluation = eval_worker.evaluate_params(
                    &global_buf,
                    self.data.test_set(),
                    self.config.eval_batch_size,
                );
                drop(eval_guard);
                evals_done += 1;
                let record = RoundRecord {
                    round,
                    accuracy: evaluation.accuracy,
                    test_loss: evaluation.loss,
                    train_loss: report.mean_train_loss,
                };
                history.push(record);
                observer(round, &record);
            }
        }

        SimulationResult {
            algorithm: algorithm.name(),
            history,
            comm,
            model_params: self.template.param_count(),
            rounds_completed: end_round,
            faults: faults_total,
        }
    }

    /// Predicts and warms round `round`'s uniform selection cohort on the
    /// sharded backend. The prediction replays exactly the first draw the
    /// round's context will make (`master.fork(round)` followed by the
    /// k-sample), so for uniformly selecting algorithms every hint becomes a
    /// cache hit. Algorithms that select differently (weighted sampling, or
    /// consuming the round RNG first) just turn the hint into a harmless
    /// extra materialisation — prefetching can never change shard contents,
    /// only when they are synthesised.
    fn prefetch_cohort(&self, round: usize, end_round: usize, master: &SeededRng) {
        let DataPlane::Sharded(plane) = self.data else {
            return;
        };
        if round >= end_round {
            return;
        }
        let mut rng = master.fork(round as u64); // fork: construction-seed
        let n = plane.num_clients();
        let k = self.config.clients_per_round;
        let cohort = if n > SPARSE_SELECTION_THRESHOLD {
            rng.sample_without_replacement_sparse(n, k)
        } else {
            rng.sample_without_replacement(n, k)
        };
        plane.prefetch(&cohort);
    }

    /// Fingerprint of everything that shapes this simulation's trajectory:
    /// the master seed, per-round schedule (`clients_per_round`,
    /// `eval_every`, `eval_batch_size`), the local training
    /// hyper-parameters, the availability model, the adversary model (a
    /// checkpoint from a compromised run must not resume into a clean one or
    /// vice versa), the round policy, fault plan and device model (a
    /// checkpoint from a faulty or deadline run must not resume under
    /// different fault/deadline settings), the template's parameter
    /// count and the federation's shape (client count, per-client shard
    /// sizes, class count, test-set size). Deliberately **excludes** the
    /// total round count, so a checkpointed run may be resumed with a larger
    /// `rounds` to train further — every completed round is still bitwise
    /// identical.
    ///
    /// The dataset enters at shape level only: two federations with
    /// identical shapes but different contents hash the same (hashing every
    /// sample on each checkpoint would be `O(N·samples)`); regenerated
    /// synthetic data is covered because its shape derives from its
    /// generation config, but a caller swapping real datasets of identical
    /// shape must keep that pairing straight themselves.
    pub fn config_fingerprint(&self) -> String {
        // FNV-1a over the trajectory-shaping fields, rendered as hex (a u64
        // survives the JSON number representation only up to 2^53, so the
        // fingerprint travels as a string).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.config.seed);
        mix(self.config.clients_per_round as u64);
        mix(self.config.eval_every as u64);
        mix(self.config.eval_batch_size as u64);
        mix(self.config.local.epochs as u64);
        mix(self.config.local.batch_size as u64);
        mix(self.config.local.lr.to_bits() as u64);
        mix(self.config.local.momentum.to_bits() as u64);
        mix(self.config.local.weight_decay.to_bits() as u64);
        match self.availability {
            AvailabilityModel::AlwaysOn => mix(1),
            AvailabilityModel::RandomDropout { prob } => {
                mix(2);
                mix(prob.to_bits() as u64);
            }
            AvailabilityModel::PeriodicStraggler { period } => {
                mix(3);
                mix(period as u64);
            }
        }
        match self.adversary {
            None => mix(4),
            Some(adv) => {
                mix(5);
                mix(adv.seed);
                mix(adv.fraction.to_bits() as u64);
                match adv.attack {
                    Attack::LabelFlip => mix(6),
                    Attack::SignFlip { scale } => {
                        mix(7);
                        mix(scale.to_bits() as u64);
                    }
                    Attack::ScaledUpdate { factor } => {
                        mix(8);
                        mix(factor.to_bits() as u64);
                    }
                    Attack::Colluding { magnitude } => {
                        mix(9);
                        mix(magnitude.to_bits() as u64);
                    }
                }
            }
        }
        match self.policy {
            RoundPolicy::Synchronous => mix(10),
            RoundPolicy::Deadline { budget, min_quorum } => {
                mix(11);
                mix(budget.to_bits() as u64);
                mix(min_quorum as u64);
            }
            RoundPolicy::Buffered {
                goal_k,
                max_staleness,
            } => {
                mix(12);
                mix(goal_k as u64);
                mix(max_staleness as u64);
            }
        }
        match self.faults {
            None => mix(13),
            Some(plan) => {
                mix(14);
                mix(plan.seed);
                mix(plan.crash_prob.to_bits() as u64);
                mix(plan.stall_prob.to_bits() as u64);
                mix(plan.max_stall as u64);
                mix(plan.duplicate_prob.to_bits() as u64);
                mix(plan.server_fail_prob.to_bits() as u64);
                mix(plan.max_retries as u64);
            }
        }
        match self.devices {
            None => mix(15),
            Some(model) => {
                mix(16);
                mix(model.seed);
                mix(model.straggler_fraction.to_bits() as u64);
                mix(model.slowdown.to_bits() as u64);
                mix(model.jitter.to_bits() as u64);
            }
        }
        mix(self.template.param_count() as u64);
        // Data-plane kind + population shape (tags 17/18, after the service
        // plane's 10–16): a checkpoint must not resume under a different
        // backend or population shape. The eager backend hashes per-client
        // shard sizes (O(n), populations are small by definition); the
        // sharded backend hashes the source's own fingerprint tokens, which
        // cover population size, per-client sample count and every knob that
        // shapes shard contents in O(1).
        match self.data {
            DataPlane::Eager(data) => {
                mix(17);
                mix(data.num_clients() as u64);
                mix(data.num_classes() as u64);
                mix(data.test_set().len() as u64);
                for size in data.client_sizes() {
                    mix(size as u64);
                }
            }
            DataPlane::Sharded(plane) => {
                mix(18);
                for token in plane.source().fingerprint_tokens() {
                    mix(token);
                }
            }
        }
        format!("fnv1a:{hash:016x}")
    }

    /// Captures a [`Checkpoint`] of `algorithm` after the partial (or full)
    /// run that produced `result`, stamping it with this simulation's seed
    /// and configuration fingerprint so [`Simulation::resume`] can verify the
    /// resumed run reproduces the same trajectory.
    ///
    /// # Errors
    /// Fails with the algorithm's [`StateError`] when it does not implement
    /// [`FederatedAlgorithm::snapshot_state`] — at checkpoint time, not
    /// after the crash that would have needed the checkpoint.
    pub fn checkpoint(
        &self,
        algorithm: &dyn FederatedAlgorithm,
        result: &SimulationResult,
    ) -> Result<Checkpoint, StateError> {
        Ok(Checkpoint::new(
            algorithm.name(),
            result.rounds_completed,
            self.config.seed,
            self.config_fingerprint(),
            algorithm.snapshot_state()?,
            result.history.clone(),
            result.comm.clone(),
        ))
    }

    /// Resumes a checkpointed run: validates the checkpoint against this
    /// simulation and the (freshly constructed, identically configured)
    /// `algorithm`, restores the algorithm's training state, and runs the
    /// remaining rounds `[checkpoint.rounds_completed, config.rounds)`.
    ///
    /// The returned result is **bitwise identical** to what the original
    /// uninterrupted run would have produced — same global parameters, same
    /// history records at the same absolute rounds, same communication
    /// totals (pinned by `tests/tests/resume_plane.rs`).
    ///
    /// # Errors
    /// Fails without running anything — and without touching `algorithm` —
    /// when the checkpoint's format version, algorithm name, parameter
    /// count or configuration fingerprint does not match, when there are no
    /// rounds left to run, or when the algorithm rejects the state (e.g. a
    /// FedCross middleware-count mismatch).
    pub fn resume(
        &self,
        checkpoint: &Checkpoint,
        algorithm: &mut dyn FederatedAlgorithm,
    ) -> Result<SimulationResult, ResumeError> {
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(ResumeError::Version {
                found: checkpoint.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let resuming = algorithm.name();
        if checkpoint.algorithm != resuming {
            return Err(ResumeError::AlgorithmMismatch {
                checkpoint: checkpoint.algorithm.clone(),
                resuming,
            });
        }
        let template_params = self.template.param_count();
        if checkpoint.param_count() != template_params {
            return Err(ResumeError::ParamCountMismatch {
                checkpoint: checkpoint.param_count(),
                template: template_params,
            });
        }
        if checkpoint.seed != self.config.seed {
            return Err(ResumeError::SeedMismatch {
                checkpoint: checkpoint.seed,
                resuming: self.config.seed,
            });
        }
        let fingerprint = self.config_fingerprint();
        if checkpoint.config_fingerprint != fingerprint {
            return Err(ResumeError::ConfigMismatch {
                checkpoint: checkpoint.config_fingerprint.clone(),
                resuming: fingerprint,
            });
        }
        if checkpoint.rounds_completed >= self.config.rounds {
            return Err(ResumeError::NothingToResume {
                rounds_completed: checkpoint.rounds_completed,
                configured_rounds: self.config.rounds,
            });
        }
        algorithm.restore_state(&checkpoint.state)?;
        Ok(self.run_from(
            algorithm,
            checkpoint.rounds_completed,
            checkpoint.history.clone(),
            checkpoint.comm.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_params;
    use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
    use fedcross_data::Heterogeneity;
    use fedcross_nn::models::CnnConfig;
    use fedcross_nn::params::average;

    /// The minimal FedAvg used to exercise the engine from inside this crate.
    struct EngineFedAvg {
        global: ParamBlock,
    }

    impl FederatedAlgorithm for EngineFedAvg {
        fn name(&self) -> String {
            "engine-fedavg".to_string()
        }

        fn run_round(&mut self, _round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
            let selected = ctx.select_clients();
            // Zero-copy dispatch: each job shares the global block.
            let jobs: Vec<(usize, ParamBlock)> = selected
                .iter()
                .map(|&c| (c, self.global.clone()))
                .collect();
            let updates = ctx.local_train_batch(&jobs);
            let params: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
            self.global = ParamBlock::from(average(&params));
            RoundReport::from_updates(&updates)
        }

        fn global_params_into(&self, out: &mut Vec<f32>) {
            out.clear();
            out.extend_from_slice(&self.global);
        }

        fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
            Ok(AlgorithmState::single_model(self.global.clone()))
        }

        fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
            self.global = state.expect_single_model(self.global.len())?.clone();
            Ok(())
        }
    }

    fn tiny_setup(seed: u64) -> (FederatedDataset, Box<dyn Model>) {
        let mut rng = SeededRng::new(seed);
        let data = FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: 6,
                samples_per_client: 20,
                test_samples: 60,
                ..Default::default()
            },
            Heterogeneity::Iid,
            &mut rng,
        );
        let template = fedcross_nn::models::cnn(
            (3, 16, 16),
            10,
            CnnConfig {
                conv_channels: (4, 8),
                fc_hidden: 16,
                kernel: 3,
            },
            &mut rng,
        );
        (data, template)
    }

    #[test]
    fn simulation_runs_and_records_history() {
        let (data, template) = tiny_setup(0);
        let mut algo = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let config = SimulationConfig {
            rounds: 3,
            clients_per_round: 3,
            eval_every: 1,
            eval_batch_size: 32,
            local: LocalTrainConfig::fast(),
            seed: 1,
        };
        let sim = Simulation::new(config, &data, template);
        let result = sim.run(&mut algo);
        assert_eq!(result.history.len(), 3);
        assert_eq!(result.algorithm, "engine-fedavg");
        assert!(result.model_params > 0);
        // 3 rounds x 3 clients = 9 model round trips.
        assert_eq!(result.comm.client_contacts, 9);
        assert_eq!(result.comm.rounds, 3);
        assert!(result.final_accuracy_pct() >= 0.0);
    }

    #[test]
    fn eval_every_reduces_history_length_but_keeps_last_round() {
        let (data, template) = tiny_setup(1);
        let mut algo = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let config = SimulationConfig {
            rounds: 5,
            clients_per_round: 2,
            eval_every: 3,
            eval_batch_size: 32,
            local: LocalTrainConfig::fast(),
            seed: 2,
        };
        let sim = Simulation::new(config, &data, template);
        let result = sim.run(&mut algo);
        // Evaluated at rounds 0, 3 and the final round 4.
        let rounds: Vec<usize> = result.history.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 3, 4]);
    }

    #[test]
    fn federated_training_improves_over_initialisation() {
        let mut rng = SeededRng::new(2);
        let data = FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: 6,
                samples_per_client: 50,
                test_samples: 100,
                ..Default::default()
            },
            Heterogeneity::Iid,
            &mut rng,
        );
        let template = fedcross_nn::models::cnn(
            (3, 16, 16),
            10,
            CnnConfig {
                conv_channels: (6, 12),
                fc_hidden: 32,
                kernel: 3,
            },
            &mut rng,
        );
        let init_params = template.params_flat();
        let init_eval = evaluate_params(template.as_ref(), &init_params, data.test_set(), 64);

        let mut algo = EngineFedAvg {
            global: ParamBlock::from(init_params.clone()),
        };
        let config = SimulationConfig {
            rounds: 12,
            clients_per_round: 4,
            eval_every: 3,
            eval_batch_size: 64,
            local: LocalTrainConfig {
                epochs: 3,
                batch_size: 10,
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            seed: 3,
        };
        let sim = Simulation::new(config, &data, template);
        let result = sim.run(&mut algo);
        assert!(
            result.history.best_accuracy() > init_eval.accuracy + 0.1
                && result.history.best_accuracy() > 0.2,
            "federated training should beat random init ({} vs {})",
            result.history.best_accuracy(),
            init_eval.accuracy
        );
    }

    #[test]
    fn observer_sees_every_evaluation() {
        let (data, template) = tiny_setup(3);
        let mut algo = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let config = SimulationConfig {
            rounds: 4,
            clients_per_round: 2,
            eval_every: 2,
            eval_batch_size: 32,
            local: LocalTrainConfig::fast(),
            seed: 4,
        };
        let sim = Simulation::new(config, &data, template);
        let mut seen = Vec::new();
        let _ = sim.run_with_observer(&mut algo, |round, record| {
            assert_eq!(round, record.round);
            seen.push(round);
        });
        assert_eq!(seen, vec![0, 2, 3]);
    }

    #[test]
    fn select_clients_respects_k_and_uniqueness() {
        let (data, template) = tiny_setup(4);
        let mut comm = CommTracker::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            4,
            SeededRng::new(5),
            &mut comm,
        );
        let picked = ctx.select_clients();
        assert_eq!(picked.len(), 4);
        let mut sorted = picked.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(picked.iter().all(|&c| c < ctx.num_clients()));
    }

    #[test]
    fn weighted_selection_prefers_heavy_clients() {
        let (data, template) = tiny_setup(5);
        let mut counts = vec![0usize; data.num_clients()];
        for trial in 0..40 {
            let mut comm = CommTracker::new();
            let mut ctx = RoundContext::new(
                &data,
                template.as_ref(),
                LocalTrainConfig::fast(),
                1,
                SeededRng::new(trial),
                &mut comm,
            );
            let mut weights = vec![0.01f32; data.num_clients()];
            weights[2] = 10.0;
            let picked = ctx.select_clients_weighted(&weights);
            counts[picked[0]] += 1;
        }
        assert!(counts[2] > 25, "client 2 picked only {} / 40 times", counts[2]);
    }

    #[test]
    fn train_jobs_record_extra_payload() {
        let (data, template) = tiny_setup(6);
        let mut comm = CommTracker::new();
        {
            let mut ctx = RoundContext::new(
                &data,
                template.as_ref(),
                LocalTrainConfig::fast(),
                2,
                SeededRng::new(7),
                &mut comm,
            );
            let params = template.params_flat();
            let jobs = vec![
                TrainJob {
                    client: 0,
                    params: params.clone().into(),
                    correction: None,
                    extra_download: 100,
                    extra_upload: 50,
                },
                TrainJob::plain(1, params),
            ];
            let updates = ctx.local_train_jobs(jobs);
            assert_eq!(updates.len(), 2);
        }
        assert_eq!(comm.extra_download, 100);
        assert_eq!(comm.extra_upload, 50);
        assert_eq!(comm.client_contacts, 2);
    }

    #[test]
    fn parallel_batch_matches_expected_client_ids() {
        let (data, template) = tiny_setup(7);
        let mut comm = CommTracker::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            3,
            SeededRng::new(8),
            &mut comm,
        );
        let params = template.params_flat();
        let jobs: Vec<(usize, Vec<f32>)> = vec![(0, params.clone()), (3, params.clone()), (5, params)];
        let updates = ctx.local_train_batch(&jobs);
        let ids: Vec<usize> = updates.iter().map(|u| u.client).collect();
        assert_eq!(ids, vec![0, 3, 5]);
        assert!(updates.iter().all(|u| u.num_samples > 0));
    }

    #[test]
    fn dropout_discards_jobs_and_their_communication() {
        use crate::availability::AvailabilityModel;
        let (data, template) = tiny_setup(9);
        let mut comm = CommTracker::new();
        let updates_len;
        let dropped_len;
        {
            let mut ctx = RoundContext::new(
                &data,
                template.as_ref(),
                LocalTrainConfig::fast(),
                4,
                SeededRng::new(11),
                &mut comm,
            )
            .with_availability(AvailabilityModel::PeriodicStraggler { period: 2 }, 0);
            let params = template.params_flat();
            let jobs: Vec<(usize, Vec<f32>)> =
                (0..4).map(|client| (client, params.clone())).collect();
            let updates = ctx.local_train_batch(&jobs);
            updates_len = updates.len();
            dropped_len = ctx.dropped_clients().len();
            // Period-2 straggler in round 0 drops the even-numbered clients.
            assert_eq!(ctx.dropped_clients(), &[0, 2]);
            assert!(updates.iter().all(|u| u.client % 2 == 1));
        }
        assert_eq!(updates_len, 2);
        assert_eq!(dropped_len, 2);
        // Only the surviving clients were contacted.
        assert_eq!(comm.client_contacts, 2);
    }

    fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn split_segments_reproduce_the_uninterrupted_run_bitwise() {
        let (data, template) = tiny_setup(20);
        let config = SimulationConfig {
            rounds: 6,
            clients_per_round: 3,
            eval_every: 2,
            eval_batch_size: 32,
            local: LocalTrainConfig::fast(),
            seed: 21,
        };

        let mut whole = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let sim = Simulation::new(config, &data, template.clone_model());
        let uninterrupted = sim.run(&mut whole);
        assert_eq!(uninterrupted.rounds_completed, 6);

        // Same trajectory, executed as [0, 3) + [3, 6) with the state handed
        // across the boundary through snapshot/restore.
        let mut first_half = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let sim2 = Simulation::new(config, &data, template);
        let partial = sim2.run_segment(&mut first_half, 0, 3);
        assert_eq!(partial.rounds_completed, 3);
        // Evals at absolute rounds 0 and 2 only — no forced eval mid-run.
        let partial_rounds: Vec<usize> =
            partial.history.records().iter().map(|r| r.round).collect();
        assert_eq!(partial_rounds, vec![0, 2]);

        let mut second_half = EngineFedAvg {
            global: ParamBlock::from(vec![0.0; first_half.global.len()]),
        };
        second_half
            .restore_state(&first_half.snapshot_state().expect("snapshot supported"))
            .expect("state restores");
        let resumed = sim2.run_from(&mut second_half, 3, partial.history, partial.comm);

        assert!(bitwise_eq(&whole.global_params(), &second_half.global_params()));
        assert_eq!(resumed.history, uninterrupted.history);
        assert_eq!(resumed.comm, uninterrupted.comm);
        assert_eq!(resumed.rounds_completed, 6);
    }

    #[test]
    fn resume_validates_and_continues_a_checkpoint() {
        let (data, template) = tiny_setup(22);
        let config = SimulationConfig {
            rounds: 5,
            clients_per_round: 2,
            eval_every: 2,
            eval_batch_size: 32,
            local: LocalTrainConfig::fast(),
            seed: 23,
        };
        let sim = Simulation::new(config, &data, template.clone_model());

        let mut algo = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let partial = sim.run_segment(&mut algo, 0, 2);
        let checkpoint = sim.checkpoint(&algo, &partial).expect("snapshot supported");
        assert_eq!(checkpoint.version, CHECKPOINT_VERSION);
        assert_eq!(checkpoint.rounds_completed, 2);
        assert_eq!(checkpoint.seed, 23);

        // A good resume runs the remaining rounds.
        let mut fresh = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let resumed = sim.resume(&checkpoint, &mut fresh).expect("resume succeeds");
        assert_eq!(resumed.rounds_completed, 5);

        // Version mismatch fails loudly.
        let mut stale = checkpoint.clone();
        stale.version = 1;
        assert!(matches!(
            sim.resume(&stale, &mut fresh),
            Err(ResumeError::Version { found: 1, .. })
        ));

        // Algorithm-name mismatch fails loudly.
        let mut renamed = checkpoint.clone();
        renamed.algorithm = "someone-else".to_string();
        assert!(matches!(
            sim.resume(&renamed, &mut fresh),
            Err(ResumeError::AlgorithmMismatch { .. })
        ));

        // A different master seed is rejected (checked before the broader
        // fingerprint so the error names the actual culprit).
        let mut other_config = config;
        other_config.seed = 99;
        let other_sim = Simulation::new(other_config, &data, template.clone_model());
        assert!(matches!(
            other_sim.resume(&checkpoint, &mut fresh),
            Err(ResumeError::SeedMismatch { checkpoint: 23, resuming: 99 })
        ));

        // Any other configuration drift surfaces as a fingerprint mismatch.
        let mut tampered = checkpoint.clone();
        tampered.config_fingerprint = "fnv1a:0000000000000000".to_string();
        assert!(matches!(
            sim.resume(&tampered, &mut fresh),
            Err(ResumeError::ConfigMismatch { .. })
        ));

        // A fully finished checkpoint has nothing left to run.
        let full = sim.run(&mut EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        });
        let done = sim
            .checkpoint(
                &EngineFedAvg {
                    global: ParamBlock::from(template.params_flat()),
                },
                &full,
            )
            .expect("snapshot supported");
        assert!(matches!(
            sim.resume(&done, &mut fresh),
            Err(ResumeError::NothingToResume { .. })
        ));
    }

    #[test]
    fn default_resume_hooks_fail_loudly() {
        /// An algorithm that never opted in to the resume plane.
        struct NoRestore;
        impl FederatedAlgorithm for NoRestore {
            fn name(&self) -> String {
                "no-restore".to_string()
            }
            fn run_round(&mut self, _round: usize, _ctx: &mut RoundContext<'_>) -> RoundReport {
                RoundReport::default()
            }
            fn global_params_into(&self, out: &mut Vec<f32>) {
                *out = vec![0.0];
            }
        }
        let mut algo = NoRestore;
        // Snapshotting refuses at checkpoint time — a checkpoint that cannot
        // be restored must not be writable in the first place...
        let err = algo.snapshot_state().expect_err("default snapshot must fail");
        assert!(err.to_string().contains("no-restore"));
        // ...and restoring refuses rather than silently losing state.
        let err = algo
            .restore_state(&AlgorithmState::single_model(ParamBlock::from(vec![0.0])))
            .expect_err("default restore must fail");
        assert!(err.to_string().contains("no-restore"));
    }

    #[test]
    fn simulation_with_dropout_still_completes_all_rounds() {
        use crate::availability::AvailabilityModel;
        let (data, template) = tiny_setup(10);
        let mut algo = EngineFedAvg {
            global: ParamBlock::from(template.params_flat()),
        };
        let config = SimulationConfig {
            rounds: 4,
            clients_per_round: 3,
            eval_every: 1,
            eval_batch_size: 32,
            local: LocalTrainConfig::fast(),
            seed: 12,
        };
        let sim = Simulation::new(config, &data, template)
            .with_availability(AvailabilityModel::RandomDropout { prob: 0.4 });
        let result = sim.run(&mut algo);
        assert_eq!(result.history.len(), 4);
        assert!(result.comm.client_contacts <= 12);
        assert!(algo.global_params().iter().all(|p| p.is_finite()));
    }
}
