//! Bounded shard cache + background prefetch pipeline.
//!
//! [`ShardPlane`] fronts a [`ClientDataSource`] with two mechanisms that keep
//! a million-client federation's resident set flat:
//!
//! * a bounded LRU `ShardCache` over materialised shards — at most
//!   `capacity` client datasets live at once, least-recently-used evicted
//!   first (re-materialisation is free of determinism risk because shards are
//!   pure functions of the client id, see [`crate::source`]);
//! * a dataloader-style prefetch pipeline — one background worker thread
//!   receives client-id hints over a channel, materialises shards and parks
//!   them in a bounded ring buffer (at most `prefetch_depth` slots, producer
//!   blocks when full), from which the consumer drains into the cache. The
//!   engine hints next round's cohort while the current round trains.
//!
//! Resident-set invariant: `cache.len() <= capacity` always (eviction happens
//! *before* a miss materialises), and `ring.len() + in_flight <=
//! prefetch_depth` (the worker reserves its slot before materialising), so
//! peak resident shards `<= capacity + prefetch_depth`. `tests/tests/
//! scale_plane.rs` pins this with a counting allocator at 100k clients.
//!
//! Everything here is infrastructure, not trajectory: prefetching only moves
//! *when* a shard is synthesised, never what it contains, so cached, evicted,
//! prefetched and cold runs are all bitwise identical.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::dataset::Dataset;
use crate::source::ClientDataSource;

/// Sizing of a [`ShardPlane`].
#[derive(Debug, Clone, Copy)]
pub struct ShardPlaneConfig {
    /// Maximum number of materialised shards the LRU cache holds.
    pub capacity: usize,
    /// Ring-buffer slots of the background prefetcher; `0` disables the
    /// worker thread entirely (all materialisation happens on demand).
    pub prefetch_depth: usize,
}

impl Default for ShardPlaneConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            prefetch_depth: 8,
        }
    }
}

/// Counters describing how a [`ShardPlane`] behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// `shard()` calls served from the cache.
    pub hits: u64,
    /// `shard()` calls that materialised on demand.
    pub misses: u64,
    /// Shards that arrived through the prefetch ring.
    pub prefetched: u64,
    /// Shards evicted from the cache.
    pub evictions: u64,
    /// Peak simultaneously resident shards (cache + ring + in flight).
    pub peak_resident: usize,
}

/// Bounded LRU map from client id to materialised shard.
#[derive(Debug, Default)]
struct ShardCache {
    /// client id -> (last-use stamp, shard). A `BTreeMap` keeps iteration
    /// deterministic (and eviction scans are O(capacity), which is tiny).
    entries: BTreeMap<usize, (u64, Arc<Dataset>)>,
    stamp: u64,
}

impl ShardCache {
    fn get(&mut self, client: usize) -> Option<Arc<Dataset>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(&client).map(|(used, shard)| {
            *used = stamp;
            Arc::clone(shard)
        })
    }

    fn contains(&self, client: usize) -> bool {
        self.entries.contains_key(&client)
    }

    fn insert(&mut self, client: usize, shard: Arc<Dataset>) {
        self.stamp += 1;
        self.entries.insert(client, (self.stamp, shard));
    }

    /// Evicts least-recently-used entries until at most `max_len` remain.
    /// Returns how many were evicted.
    fn evict_to(&mut self, max_len: usize) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > max_len {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(&client, _)| client)
                .expect("non-empty cache");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Shared state between the consumer and the prefetch worker. One mutex
/// guards the whole plane so the resident-set accounting (`cache + ring +
/// in_flight`) is always observed atomically.
#[derive(Debug, Default)]
struct PlaneState {
    cache: ShardCache,
    /// Prefetched shards awaiting absorption into the cache.
    ring: VecDeque<(usize, Arc<Dataset>)>,
    /// Slots reserved by the worker for shards being materialised right now.
    in_flight: usize,
    /// Hints sent to the worker and not yet landed in the ring.
    queued: BTreeSet<usize>,
    shutdown: bool,
    stats: ShardStats,
}

impl PlaneState {
    fn note_resident(&mut self) {
        let resident = self.cache.len() + self.ring.len() + self.in_flight;
        if resident > self.stats.peak_resident {
            self.stats.peak_resident = resident;
        }
    }

    fn in_ring(&self, client: usize) -> bool {
        self.ring.iter().any(|(id, _)| *id == client)
    }
}

/// A [`ClientDataSource`] behind a bounded LRU cache and an optional
/// background prefetcher. This is the object the sharded engine talks to.
pub struct ShardPlane {
    source: Arc<dyn ClientDataSource>,
    config: ShardPlaneConfig,
    state: Arc<(Mutex<PlaneState>, Condvar)>,
    /// Hint channel to the worker; `None` when prefetching is disabled.
    /// Behind a mutex only because `mpsc::Sender` is not `Sync`.
    requests: Option<Mutex<Sender<usize>>>,
    worker: Option<JoinHandle<()>>,
}

impl ShardPlane {
    /// Builds the plane; spawns the prefetch worker if `prefetch_depth > 0`.
    pub fn new(source: Arc<dyn ClientDataSource>, config: ShardPlaneConfig) -> Self {
        assert!(config.capacity >= 1, "cache capacity must be at least 1");
        let state = Arc::new((Mutex::new(PlaneState::default()), Condvar::new()));
        let (requests, worker) = if config.prefetch_depth > 0 {
            let (tx, rx) = mpsc::channel();
            let handle = Self::spawn_worker(
                Arc::clone(&source),
                Arc::clone(&state),
                rx,
                config.prefetch_depth,
            );
            (Some(Mutex::new(tx)), Some(handle))
        } else {
            (None, None)
        };
        Self {
            source,
            config,
            state,
            requests,
            worker,
        }
    }

    /// Convenience: plane with the default sizing.
    pub fn with_default_config(source: Arc<dyn ClientDataSource>) -> Self {
        Self::new(source, ShardPlaneConfig::default())
    }

    /// The wrapped source.
    pub fn source(&self) -> &Arc<dyn ClientDataSource> {
        &self.source
    }

    /// The plane's sizing.
    pub fn config(&self) -> ShardPlaneConfig {
        self.config
    }

    /// Number of clients in the federation.
    pub fn num_clients(&self) -> usize {
        self.source.num_clients()
    }

    /// Number of classes in the task.
    pub fn num_classes(&self) -> usize {
        self.source.num_classes()
    }

    /// The held-out global test set.
    pub fn test_set(&self) -> &Dataset {
        self.source.test_set()
    }

    /// Task name.
    pub fn name(&self) -> &str {
        self.source.name()
    }

    /// Returns client `client`'s shard, from cache, ring or on-demand
    /// materialisation. Identical bits regardless of which path served it.
    pub fn shard(&self, client: usize) -> Arc<Dataset> {
        let (lock, space) = &*self.state;
        {
            let mut st = lock.lock().expect("shard plane poisoned");
            Self::absorb_ring(&mut st, self.config.capacity);
            space.notify_all();
            if let Some(shard) = st.cache.get(client) {
                st.stats.hits += 1;
                return shard;
            }
            // Make room *before* materialising so the cache never exceeds
            // its capacity, keeping the resident-set bound exact.
            let evicted = st.cache.evict_to(self.config.capacity.saturating_sub(1));
            st.stats.evictions += evicted;
        }
        let shard = self.source.shard(client);
        let mut st = lock.lock().expect("shard plane poisoned");
        st.stats.misses += 1;
        st.cache.insert(client, Arc::clone(&shard));
        st.note_resident();
        shard
    }

    /// Hints that `clients` will be needed soon. No-op without a prefetcher;
    /// already-resident or already-queued ids are skipped. Never blocks the
    /// caller: the worker applies backpressure on its own thread.
    pub fn prefetch(&self, clients: &[usize]) {
        let Some(requests) = &self.requests else {
            return;
        };
        let (lock, _) = &*self.state;
        let mut st = lock.lock().expect("shard plane poisoned");
        let tx = requests.lock().expect("request channel poisoned");
        for &client in clients {
            assert!(client < self.source.num_clients(), "client out of range");
            if st.cache.contains(client) || st.in_ring(client) || st.queued.contains(&client) {
                continue;
            }
            st.queued.insert(client);
            let _ = tx.send(client);
        }
    }

    /// Drains any prefetched shards into the cache and waits until every
    /// outstanding hint has landed. Test/shutdown aid; the engine never needs
    /// it on the hot path.
    pub fn drain(&self) {
        let (lock, space) = &*self.state;
        let mut st = lock.lock().expect("shard plane poisoned");
        loop {
            Self::absorb_ring(&mut st, self.config.capacity);
            space.notify_all();
            if st.queued.is_empty() && st.in_flight == 0 && st.ring.is_empty() {
                return;
            }
            let (next, _) = space
                .wait_timeout(st, std::time::Duration::from_millis(1))
                .expect("shard plane poisoned");
            st = next;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ShardStats {
        let (lock, _) = &*self.state;
        lock.lock().expect("shard plane poisoned").stats
    }

    /// Moves ring entries into the cache (newest-use order), evicting LRU
    /// entries to stay within capacity.
    fn absorb_ring(st: &mut PlaneState, capacity: usize) {
        while let Some((client, shard)) = st.ring.pop_front() {
            if !st.cache.contains(client) {
                st.cache.insert(client, shard);
                st.stats.prefetched += 1;
            }
            let evicted = st.cache.evict_to(capacity);
            st.stats.evictions += evicted;
        }
    }

    fn spawn_worker(
        source: Arc<dyn ClientDataSource>,
        state: Arc<(Mutex<PlaneState>, Condvar)>,
        rx: Receiver<usize>,
        depth: usize,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("shard-prefetch".to_string())
            .spawn(move || {
                while let Ok(client) = rx.recv() {
                    let (lock, space) = &*state;
                    {
                        let mut st = lock.lock().expect("shard plane poisoned");
                        if st.shutdown {
                            return;
                        }
                        if st.cache.contains(client) || st.in_ring(client) {
                            st.queued.remove(&client);
                            space.notify_all();
                            continue;
                        }
                        // Reserve the ring slot before materialising so
                        // ring + in_flight never exceeds the depth.
                        while st.ring.len() + st.in_flight >= depth && !st.shutdown {
                            st = space.wait(st).expect("shard plane poisoned");
                        }
                        if st.shutdown {
                            return;
                        }
                        st.in_flight += 1;
                    }
                    let shard = source.shard(client);
                    let mut st = lock.lock().expect("shard plane poisoned");
                    st.in_flight -= 1;
                    st.ring.push_back((client, shard));
                    st.queued.remove(&client);
                    st.note_resident();
                    space.notify_all();
                }
            })
            .expect("failed to spawn shard prefetch worker")
    }
}

impl Drop for ShardPlane {
    fn drop(&mut self) {
        let (lock, space) = &*self.state;
        {
            let mut st = lock.lock().expect("shard plane poisoned");
            st.shutdown = true;
        }
        space.notify_all();
        // Closing the channel wakes the worker out of `recv`.
        self.requests = None;
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlane")
            .field("source", &self.source.name())
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federated::SynthCifar10Config;
    use crate::partition::Heterogeneity;
    use crate::source::SynthTaskSource;

    fn plane(capacity: usize, prefetch_depth: usize, clients: usize) -> ShardPlane {
        let source = Arc::new(SynthTaskSource::cifar10(
            &SynthCifar10Config {
                num_clients: clients,
                samples_per_client: 5,
                test_samples: 10,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.5),
            9,
        ));
        ShardPlane::new(source, ShardPlaneConfig {
            capacity,
            prefetch_depth,
        })
    }

    #[test]
    fn cache_serves_repeat_access_without_rematerialising() {
        let plane = plane(4, 0, 8);
        let a = plane.shard(3);
        let b = plane.shard(3);
        assert!(Arc::ptr_eq(&a, &b), "repeat access must hit the cache");
        let stats = plane.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn eviction_keeps_cache_bounded_and_rematerialisation_is_bitwise() {
        let plane = plane(2, 0, 10);
        let first = plane.shard(0);
        let before: Vec<f32> = first.features().data().to_vec();
        drop(first);
        // Touch enough other clients to evict client 0.
        for c in 1..10 {
            let _ = plane.shard(c);
        }
        let stats = plane.stats();
        assert!(stats.evictions >= 8, "expected evictions, got {stats:?}");
        assert!(stats.peak_resident <= 2, "cache exceeded capacity: {stats:?}");
        let again = plane.shard(0);
        assert_eq!(
            again.features().data(),
            &before[..],
            "re-materialised shard must be bitwise identical"
        );
    }

    #[test]
    fn prefetched_shards_land_in_cache_and_match_on_demand_bits() {
        let plane = plane(8, 4, 16);
        plane.prefetch(&[2, 5, 7]);
        plane.drain();
        let stats = plane.stats();
        assert_eq!(stats.prefetched, 3, "all hints should land: {stats:?}");
        // Served from cache now.
        let shard = plane.shard(5);
        assert_eq!(plane.stats().hits, 1);
        // Bitwise identical to a cold materialisation.
        let cold = plane.source().materialize(5);
        assert_eq!(shard.features().data(), cold.features().data());
    }

    #[test]
    fn prefetch_respects_ring_depth_bound() {
        let plane = plane(3, 2, 32);
        // Far more hints than ring depth: worker must backpressure, and
        // peak resident never exceeds capacity + depth.
        let hints: Vec<usize> = (0..32).collect();
        plane.prefetch(&hints);
        for c in 0..32 {
            let _ = plane.shard(c);
        }
        plane.drain();
        let stats = plane.stats();
        assert!(
            stats.peak_resident <= 3 + 2,
            "resident shards exceeded capacity + prefetch depth: {stats:?}"
        );
    }

    #[test]
    fn duplicate_hints_are_deduplicated() {
        let plane = plane(8, 4, 8);
        plane.prefetch(&[1, 1, 1, 2]);
        plane.drain();
        let stats = plane.stats();
        assert_eq!(stats.prefetched, 2, "duplicates must collapse: {stats:?}");
    }

    #[test]
    fn zero_depth_disables_prefetching() {
        let plane = plane(4, 0, 8);
        plane.prefetch(&[1, 2, 3]);
        plane.drain();
        assert_eq!(plane.stats().prefetched, 0);
    }
}
