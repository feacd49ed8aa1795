//! Client data sources: the one interface the engine reads client shards
//! through.
//!
//! A [`ClientDataSource`] describes a federation whose shards are *pure
//! functions of the client id*. Three implementations cover every backend:
//!
//! * [`crate::FederatedDataset`] holds every shard resident; `shard` is an
//!   `Arc` clone.
//! * [`SynthTaskSource`] synthesises shards on demand for all five
//!   synthetic benchmark tasks. `materialize(client)` derives a
//!   client-private RNG from the task's construction seed
//!   (`base.fork(...)`, never from consumed state), so evicting and
//!   re-materialising a shard is a bitwise no-op. Per-client label skew
//!   that the eager path expressed as a global-pool Dirichlet *partition*
//!   is expressed here as a per-client Dirichlet class *distribution*, so a
//!   shard never needs its neighbours.
//! * [`crate::shard::ShardPlane`] fronts another source with a bounded LRU
//!   cache and a background prefetcher, which is what lets the engine run
//!   10^5–10^6 client federations in flat memory without giving up the
//!   workspace's bitwise-trajectory guarantees.
//!
//! Determinism contract: every RNG used during materialisation is forked from
//! the *construction seed* of the source (`SeededRng::new(task_seed)`), keyed
//! by disjoint stream domains below. No method takes `&mut self`; a source is
//! a frozen description, safe to share across threads.

use std::sync::Arc;

use crate::dataset::Dataset;
use crate::federated::{
    FederatedDataset, SynthCifar10Config, SynthCifar100Config, SynthFemnistConfig,
    SynthSent140Config, SynthShakespeareConfig,
};
use crate::partition::Heterogeneity;
use crate::synth::images::SynthImages;
use crate::synth::text::{SynthNextChar, SynthSentiment};
use fedcross_tensor::SeededRng;

/// Stream id of the shared generator (prototypes / base language).
const GENERATOR_STREAM: u64 = 1;
/// Stream id of the held-out test set.
const TEST_STREAM: u64 = 2;
/// Base of the per-client materialisation stream domain: client `i` draws
/// from stream `CLIENT_STREAM_BASE + i`. Kept far above the small scalar
/// streams so the domains never collide.
const CLIENT_STREAM_BASE: u64 = 1 << 32;
/// Base of the per-persona test-mixture stream domain (text tasks).
const TEST_PERSONA_STREAM_BASE: u64 = 1 << 33;
/// Number of personas mixed into a text task's test set. Capped so test-set
/// construction stays O(1) in the population size.
const TEST_PERSONA_CAP: usize = 64;

/// A federation whose client shards can be synthesised on demand.
///
/// `materialize(client)` must be a pure function of `(source, client)`: two
/// calls with the same id return bitwise-identical datasets, regardless of
/// what was materialised in between. All shards share the test set's class
/// space.
pub trait ClientDataSource: Send + Sync {
    /// Task name (e.g. `"synth-cifar10-lazy[beta=0.5]"`).
    fn name(&self) -> &str;

    /// Number of clients in the federation.
    fn num_clients(&self) -> usize;

    /// Number of classes in the task.
    fn num_classes(&self) -> usize;

    /// The held-out global test set (always resident).
    fn test_set(&self) -> &Dataset;

    /// Synthesises client `client`'s shard. Pure: same id ⇒ same bits.
    fn materialize(&self, client: usize) -> Dataset;

    /// Shared-ownership form of [`ClientDataSource::materialize`]: the
    /// engine checks every training shard out through this. Sources that
    /// hold or cache their shards override it to hand out an `Arc` clone
    /// instead of a fresh copy.
    fn shard(&self, client: usize) -> Arc<Dataset> {
        // alloc: pooled — shard-cache miss materialization; steady rounds hit the cache
        Arc::new(self.materialize(client))
    }

    /// Hints that `clients` will be checked out through
    /// [`ClientDataSource::shard`] soon. A no-op unless the source can
    /// prepare shards ahead of use; it never changes what `shard` returns.
    fn prefetch(&self, _clients: &[usize]) {}

    /// Tokens mixed into the simulation's config fingerprint so checkpoints
    /// refuse to resume under a different population shape. Must cover the
    /// population size and everything that shapes shard contents.
    fn fingerprint_tokens(&self) -> Vec<u64>;

    /// Materialises the whole federation eagerly. Intended for equivalence
    /// tests and small populations only — this is exactly the O(population)
    /// memory footprint the sharded plane exists to avoid.
    fn materialize_all(&self) -> FederatedDataset {
        let clients = (0..self.num_clients())
            .map(|client| self.materialize(client))
            .collect();
        FederatedDataset::from_parts(self.name().to_string(), clients, self.test_set().clone())
    }
}

/// How a lazy image task assigns classes to a client's samples.
#[derive(Debug, Clone, Copy)]
enum ImageSkew {
    /// Uniform class draw per sample.
    Iid,
    /// Per-client class distribution drawn from `Dir(beta)`.
    Dirichlet(f32),
}

/// The per-task generator a [`SynthTaskSource`] synthesises shards from.
#[derive(Debug, Clone)]
enum Generator {
    /// CIFAR-10/100 stand-ins: label-skew via per-client class distributions.
    Images { gen: SynthImages, skew: ImageSkew },
    /// FEMNIST stand-in: per-writer style offset + class subset.
    Femnist {
        gen: SynthImages,
        classes_per_client: usize,
        style_strength: f32,
    },
    /// Shakespeare stand-in: per-role transition table.
    NextChar(SynthNextChar),
    /// Sent140 stand-in: per-user topic bias.
    Sentiment(SynthSentiment),
}

/// A lazy synthetic benchmark task: shards are synthesised per client from
/// `(task_seed, client_id)` and never stored here.
#[derive(Debug, Clone)]
pub struct SynthTaskSource {
    name: String,
    kind_tag: u64,
    task_seed: u64,
    base: SeededRng,
    num_clients: usize,
    samples_per_client: usize,
    num_classes: usize,
    generator: Generator,
    test: Dataset,
}

impl SynthTaskSource {
    fn base_rng(task_seed: u64) -> SeededRng {
        SeededRng::new(task_seed)
    }

    /// Lazy CIFAR-10 stand-in over `config.num_clients` clients.
    pub fn cifar10(config: &SynthCifar10Config, het: Heterogeneity, task_seed: u64) -> Self {
        Self::image_task(
            "synth-cifar10-lazy",
            1,
            SynthImages::new(
                config.image,
                &mut Self::base_rng(task_seed).fork(GENERATOR_STREAM), // fork: construction-seed
            ),
            config.num_clients,
            config.samples_per_client,
            config.test_samples,
            het,
            task_seed,
        )
    }

    /// Lazy CIFAR-100 stand-in.
    pub fn cifar100(config: &SynthCifar100Config, het: Heterogeneity, task_seed: u64) -> Self {
        Self::image_task(
            "synth-cifar100-lazy",
            2,
            SynthImages::new(
                config.image,
                &mut Self::base_rng(task_seed).fork(GENERATOR_STREAM), // fork: construction-seed
            ),
            config.num_clients,
            config.samples_per_client,
            config.test_samples,
            het,
            task_seed,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn image_task(
        name: &str,
        kind_tag: u64,
        gen: SynthImages,
        num_clients: usize,
        samples_per_client: usize,
        test_samples: usize,
        het: Heterogeneity,
        task_seed: u64,
    ) -> Self {
        assert!(num_clients > 0 && samples_per_client > 0);
        let base = Self::base_rng(task_seed);
        let num_classes = gen.config().num_classes;
        let test = gen.generate(
            test_samples.max(1),
            &mut base.fork(TEST_STREAM), // fork: construction-seed
        );
        let skew = match het {
            Heterogeneity::Iid => ImageSkew::Iid,
            Heterogeneity::Dirichlet(beta) => {
                assert!(beta > 0.0, "beta must be positive");
                ImageSkew::Dirichlet(beta)
            }
        };
        Self {
            name: format!("{name}[{}]", het.label()),
            kind_tag,
            task_seed,
            base,
            num_clients,
            samples_per_client,
            num_classes,
            generator: Generator::Images { gen, skew },
            test,
        }
    }

    /// Lazy FEMNIST stand-in: per-client writer style + class subset, the
    /// same per-client construction as [`FederatedDataset::synth_femnist`]
    /// but derived from `(task_seed, client_id)` on demand.
    pub fn femnist(config: &SynthFemnistConfig, task_seed: u64) -> Self {
        assert!(config.num_clients > 0 && config.samples_per_client > 0);
        assert!(config.classes_per_client >= 1);
        let base = Self::base_rng(task_seed);
        let gen = SynthImages::new(
            config.image,
            &mut base.fork(GENERATOR_STREAM), // fork: construction-seed
        );
        let num_classes = config.image.num_classes;
        let test = gen.generate(
            config.test_samples.max(1),
            &mut base.fork(TEST_STREAM), // fork: construction-seed
        );
        Self {
            name: "synth-femnist-lazy".to_string(),
            kind_tag: 3,
            task_seed,
            base,
            num_clients: config.num_clients,
            samples_per_client: config.samples_per_client,
            num_classes,
            generator: Generator::Femnist {
                gen,
                classes_per_client: config.classes_per_client,
                style_strength: config.style_strength,
            },
            test,
        }
    }

    /// Lazy Shakespeare stand-in: per-role next-character shards.
    pub fn shakespeare(config: &SynthShakespeareConfig, task_seed: u64) -> Self {
        assert!(config.num_clients > 0 && config.samples_per_client > 0);
        let base = Self::base_rng(task_seed);
        let corpus = SynthNextChar::new(
            config.text,
            &mut base.fork(GENERATOR_STREAM), // fork: construction-seed
        );
        let num_classes = config.text.vocab;
        let test = Self::text_test_set(
            &base,
            config.num_clients,
            config.test_samples,
            |persona, n, rng| corpus.generate_for_client(n, persona, rng),
        );
        Self {
            name: "synth-shakespeare-lazy".to_string(),
            kind_tag: 4,
            task_seed,
            base,
            num_clients: config.num_clients,
            samples_per_client: config.samples_per_client,
            num_classes,
            generator: Generator::NextChar(corpus),
            test,
        }
    }

    /// Lazy Sent140 stand-in: per-user sentiment shards.
    pub fn sent140(config: &SynthSent140Config, task_seed: u64) -> Self {
        assert!(config.num_clients > 0 && config.samples_per_client > 0);
        let base = Self::base_rng(task_seed);
        let corpus = SynthSentiment::new(config.text);
        let test = Self::text_test_set(
            &base,
            config.num_clients,
            config.test_samples,
            |persona, n, rng| corpus.generate_for_client(n, persona, rng),
        );
        Self {
            name: "synth-sent140-lazy".to_string(),
            kind_tag: 5,
            task_seed,
            base,
            num_clients: config.num_clients,
            samples_per_client: config.samples_per_client,
            num_classes: 2,
            generator: Generator::Sentiment(corpus),
            test,
        }
    }

    /// Test mixture over at most [`TEST_PERSONA_CAP`] personas, so building
    /// the test set stays O(1) in the population size (the eager text tasks
    /// mix over *every* client — fine at 10^2 clients, fatal at 10^6).
    fn text_test_set(
        base: &SeededRng,
        num_clients: usize,
        test_samples: usize,
        generate: impl Fn(u64, usize, &mut SeededRng) -> Dataset,
    ) -> Dataset {
        let personas = num_clients.min(TEST_PERSONA_CAP);
        let per_persona = (test_samples / personas).max(1);
        let parts: Vec<Dataset> = (0..personas)
            .map(|persona| {
                generate(
                    persona as u64,
                    per_persona,
                    &mut base.fork(TEST_PERSONA_STREAM_BASE + persona as u64), // fork: construction-seed
                )
            })
            .collect();
        let refs: Vec<&Dataset> = parts.iter().collect();
        Dataset::concat(&refs)
    }

    /// The seed this source was constructed from.
    pub fn task_seed(&self) -> u64 {
        self.task_seed
    }
}

impl ClientDataSource for SynthTaskSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn test_set(&self) -> &Dataset {
        &self.test
    }

    fn materialize(&self, client: usize) -> Dataset {
        assert!(client < self.num_clients, "client {client} out of range");
        let mut rng = self.base.fork(CLIENT_STREAM_BASE + client as u64); // fork: construction-seed
        let n = self.samples_per_client;
        match &self.generator {
            Generator::Images { gen, skew } => match skew {
                ImageSkew::Iid => gen.generate(n, &mut rng),
                ImageSkew::Dirichlet(beta) => {
                    let class_weights = rng.dirichlet(self.num_classes, *beta);
                    gen.generate_weighted(n, &class_weights, &mut rng)
                }
            },
            Generator::Femnist {
                gen,
                classes_per_client,
                style_strength,
            } => {
                let style = gen.style_pattern(*style_strength, &mut rng);
                let class_subset = rng.sample_without_replacement(
                    self.num_classes,
                    (*classes_per_client).min(self.num_classes),
                );
                gen.generate_with(n, Some(&class_subset), Some(&style), &mut rng)
            }
            Generator::NextChar(corpus) => corpus.generate_for_client(n, client as u64, &mut rng),
            Generator::Sentiment(corpus) => corpus.generate_for_client(n, client as u64, &mut rng),
        }
    }

    fn fingerprint_tokens(&self) -> Vec<u64> {
        let skew_token = match &self.generator {
            Generator::Images { skew, .. } => match skew {
                ImageSkew::Iid => 0,
                ImageSkew::Dirichlet(beta) => u64::from(beta.to_bits()),
            },
            Generator::Femnist {
                classes_per_client,
                style_strength,
                ..
            } => (*classes_per_client as u64) << 32 | u64::from(style_strength.to_bits()),
            Generator::NextChar(_) | Generator::Sentiment(_) => 0,
        };
        let mut tokens = vec![
            self.kind_tag,
            self.task_seed,
            self.num_clients as u64,
            self.samples_per_client as u64,
            self.num_classes as u64,
            self.test.len() as u64,
            skew_token,
        ];
        // Every field of the generator's own config shapes the shards too.
        let (counts, levels) = match &self.generator {
            Generator::Images { gen, .. } | Generator::Femnist { gen, .. } => {
                let c = gen.config();
                (
                    vec![c.num_classes, c.channels, c.size, c.prototype_grid],
                    [c.noise_std, c.class_distinctness],
                )
            }
            Generator::NextChar(corpus) => {
                let c = corpus.config();
                (vec![c.vocab, c.seq_len], [c.peakedness, c.persona_strength])
            }
            Generator::Sentiment(corpus) => {
                let c = corpus.config();
                (
                    vec![c.vocab, c.seq_len],
                    [c.signal_strength, c.persona_strength],
                )
            }
        };
        tokens.extend(counts.into_iter().map(|n| n as u64));
        tokens.extend(levels.map(|x| u64::from(x.to_bits())));
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::images::SynthImageConfig;
    use crate::synth::text::{NextCharConfig, SentimentConfig};

    fn small_source() -> SynthTaskSource {
        SynthTaskSource::cifar10(
            &SynthCifar10Config {
                num_clients: 12,
                samples_per_client: 8,
                test_samples: 30,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.5),
            42,
        )
    }

    #[test]
    fn materialize_is_a_pure_function_of_the_client_id() {
        let source = small_source();
        let a = source.materialize(5);
        // Materialise other clients in between: must not disturb client 5.
        let _ = source.materialize(0);
        let _ = source.materialize(11);
        let b = source.materialize(5);
        assert_eq!(a.features().data(), b.features().data());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn distinct_clients_get_distinct_shards() {
        let source = small_source();
        let a = source.materialize(0);
        let b = source.materialize(1);
        assert_ne!(a.features().data(), b.features().data());
    }

    #[test]
    fn dirichlet_source_is_label_skewed_vs_iid() {
        let config = SynthCifar10Config {
            num_clients: 16,
            samples_per_client: 40,
            test_samples: 10,
            ..Default::default()
        };
        let skew_of = |source: &SynthTaskSource| {
            let counts: Vec<Vec<usize>> = (0..source.num_clients())
                .map(|c| source.materialize(c).class_counts())
                .collect();
            crate::partition::skew_score(&counts)
        };
        let iid = SynthTaskSource::cifar10(&config, Heterogeneity::Iid, 7);
        let dir = SynthTaskSource::cifar10(&config, Heterogeneity::Dirichlet(0.1), 7);
        assert!(
            skew_of(&dir) > skew_of(&iid) + 0.15,
            "Dirichlet lazy shards should be more skewed than IID"
        );
    }

    #[test]
    fn all_five_tasks_materialize_consistent_shards() {
        let sources: Vec<Box<dyn ClientDataSource>> = vec![
            Box::new(SynthTaskSource::cifar10(
                &SynthCifar10Config {
                    num_clients: 4,
                    samples_per_client: 6,
                    test_samples: 20,
                    ..Default::default()
                },
                Heterogeneity::Dirichlet(0.5),
                3,
            )),
            Box::new(SynthTaskSource::cifar100(
                &SynthCifar100Config {
                    num_clients: 4,
                    samples_per_client: 6,
                    test_samples: 20,
                    ..Default::default()
                },
                Heterogeneity::Iid,
                3,
            )),
            Box::new(SynthTaskSource::femnist(
                &SynthFemnistConfig {
                    num_clients: 4,
                    samples_per_client: 6,
                    test_samples: 20,
                    classes_per_client: 5,
                    ..Default::default()
                },
                3,
            )),
            Box::new(SynthTaskSource::shakespeare(
                &SynthShakespeareConfig {
                    num_clients: 4,
                    samples_per_client: 6,
                    test_samples: 20,
                    ..Default::default()
                },
                3,
            )),
            Box::new(SynthTaskSource::sent140(
                &SynthSent140Config {
                    num_clients: 4,
                    samples_per_client: 6,
                    test_samples: 20,
                    ..Default::default()
                },
                3,
            )),
        ];
        for source in &sources {
            for client in 0..source.num_clients() {
                let shard = source.materialize(client);
                assert_eq!(shard.num_classes(), source.num_classes(), "{}", source.name());
                assert_eq!(shard.len(), 6, "{}", source.name());
                let again = source.materialize(client);
                assert_eq!(
                    shard.features().data(),
                    again.features().data(),
                    "{} client {client} must re-materialise bitwise",
                    source.name()
                );
            }
            assert!(!source.test_set().is_empty());
        }
    }

    #[test]
    fn femnist_lazy_clients_use_restricted_class_subsets() {
        let source = SynthTaskSource::femnist(
            &SynthFemnistConfig {
                num_clients: 8,
                samples_per_client: 30,
                test_samples: 40,
                classes_per_client: 5,
                ..Default::default()
            },
            4,
        );
        for client in 0..source.num_clients() {
            let counts = source.materialize(client).class_counts();
            let used = counts.iter().filter(|&&c| c > 0).count();
            assert!(used <= 5, "client uses {used} classes, expected <= 5");
        }
    }

    #[test]
    fn materialize_all_round_trips_through_eager_source() {
        let source = small_source();
        let eager = source.materialize_all();
        assert_eq!(eager.num_clients(), source.num_clients());
        assert_eq!(eager.num_classes(), source.num_classes());
        for client in 0..source.num_clients() {
            let lazy = source.materialize(client);
            let kept = eager.materialize(client);
            assert_eq!(lazy.features().data(), kept.features().data());
            assert_eq!(lazy.labels(), kept.labels());
        }
        // Eager `shard` is shared ownership, not a copy.
        let a = eager.shard(0);
        let b = eager.shard(0);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fingerprint_tokens_cover_population_shape() {
        let a = small_source().fingerprint_tokens();
        let mut config = SynthCifar10Config {
            num_clients: 12,
            samples_per_client: 8,
            test_samples: 30,
            ..Default::default()
        };
        config.num_clients = 13;
        let b = SynthTaskSource::cifar10(&config, Heterogeneity::Dirichlet(0.5), 42)
            .fingerprint_tokens();
        assert_ne!(a, b, "population size must change the fingerprint");
        let c = small_source();
        let c = SynthTaskSource::cifar10(
            &SynthCifar10Config {
                num_clients: 12,
                samples_per_client: 8,
                test_samples: 30,
                ..Default::default()
            },
            Heterogeneity::Dirichlet(0.1),
            c.task_seed(),
        )
        .fingerprint_tokens();
        assert_ne!(a, c, "skew must change the fingerprint");
    }

    #[test]
    fn fingerprint_tokens_cover_the_generator_config() {
        let cifar10 = |noise_std| {
            let image = SynthImageConfig {
                noise_std,
                ..SynthImageConfig::cifar10()
            };
            let config = SynthCifar10Config {
                image,
                ..Default::default()
            };
            SynthTaskSource::cifar10(&config, Heterogeneity::Iid, 1)
        };
        let (quiet, noisy) = (cifar10(0.4), cifar10(1.5));
        assert_ne!(
            quiet.materialize(0).features().data(),
            noisy.materialize(0).features().data(),
            "the noise level shapes shard contents"
        );
        assert_ne!(quiet.fingerprint_tokens(), noisy.fingerprint_tokens());

        let shakespeare = |peakedness| {
            let text = NextCharConfig {
                peakedness,
                ..Default::default()
            };
            let config = SynthShakespeareConfig {
                text,
                ..Default::default()
            };
            SynthTaskSource::shakespeare(&config, 1).fingerprint_tokens()
        };
        assert_ne!(shakespeare(6.0), shakespeare(2.0));
        let sent140 = |signal_strength| {
            let text = SentimentConfig {
                signal_strength,
                ..Default::default()
            };
            let config = SynthSent140Config {
                text,
                ..Default::default()
            };
            SynthTaskSource::sent140(&config, 1).fingerprint_tokens()
        };
        assert_ne!(sent140(0.8), sent140(0.6));
    }

    #[test]
    #[should_panic]
    fn materialize_rejects_out_of_range_client() {
        let source = small_source();
        let _ = source.materialize(12);
    }
}
