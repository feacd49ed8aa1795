//! Federated dataset assembly: one [`Dataset`] per client plus a global test
//! set, for each of the five benchmark tasks of the paper.

use std::sync::Arc;

use crate::dataset::Dataset;
use crate::partition::{partition, Heterogeneity};
use crate::source::ClientDataSource;
use crate::synth::images::{SynthImageConfig, SynthImages};
use crate::synth::text::{NextCharConfig, SentimentConfig, SynthNextChar, SynthSentiment};
use fedcross_tensor::SeededRng;

/// A federated learning task: per-client training data and a held-out global
/// test set used by the server for evaluation. Every shard stays resident;
/// as a [`ClientDataSource`] it hands them out by `Arc` clone.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    name: String,
    clients: Vec<Arc<Dataset>>,
    test: Dataset,
    num_classes: usize,
}

impl FederatedDataset {
    /// Assembles a federated dataset from already-partitioned client data.
    ///
    /// # Panics
    /// Panics if there are no clients or class counts disagree.
    pub fn from_parts(name: impl Into<String>, clients: Vec<Dataset>, test: Dataset) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        let num_classes = test.num_classes();
        assert!(
            clients.iter().all(|c| c.num_classes() == num_classes),
            "all clients must share the test set's class space"
        );
        Self {
            name: name.into(),
            clients: clients.into_iter().map(Arc::new).collect(),
            test,
            num_classes,
        }
    }

    /// A single client's training data.
    pub fn client(&self, i: usize) -> &Dataset {
        &self.clients[i]
    }

    /// Per-client training sample counts.
    pub fn client_sizes(&self) -> Vec<usize> {
        self.clients.iter().map(|c| c.len()).collect()
    }

    /// Total number of training samples across all clients.
    pub fn total_train_samples(&self) -> usize {
        self.client_sizes().iter().sum()
    }

    /// Per-client per-class sample counts (the data behind the paper's
    /// Figure 3 dot plots).
    pub fn class_count_matrix(&self) -> Vec<Vec<usize>> {
        self.clients
            .iter()
            .map(|c| c.class_counts())
            .collect()
    }

    // ------------------------------------------------------------------
    // Image tasks (CIFAR-10 / CIFAR-100 stand-ins, Dirichlet or IID split)
    // ------------------------------------------------------------------

    fn synth_image_task(
        name: &str,
        image_config: SynthImageConfig,
        num_clients: usize,
        samples_per_client: usize,
        test_samples: usize,
        heterogeneity: Heterogeneity,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(num_clients > 0 && samples_per_client > 0);
        let generator = SynthImages::new(image_config, &mut rng.fork(1)); // fork: construction-seed
        let total = num_clients * samples_per_client;
        let pool = generator.generate(total, &mut rng.fork(2)); // fork: construction-seed
        let shards = partition(
            pool.labels(),
            pool.num_classes(),
            num_clients,
            heterogeneity,
            &mut rng.fork(3), // fork: construction-seed
        );
        let clients = shards.iter().map(|s| pool.subset(s)).collect();
        let test = generator.generate(test_samples.max(1), &mut rng.fork(4)); // fork: construction-seed
        Self::from_parts(format!("{name}[{}]", heterogeneity.label()), clients, test)
    }

    /// CIFAR-10 stand-in, 10 classes, Dirichlet or IID client split.
    pub fn synth_cifar10(
        config: &SynthCifar10Config,
        heterogeneity: Heterogeneity,
        rng: &mut SeededRng,
    ) -> Self {
        Self::synth_image_task(
            "synth-cifar10",
            config.image,
            config.num_clients,
            config.samples_per_client,
            config.test_samples,
            heterogeneity,
            rng,
        )
    }

    /// CIFAR-100 stand-in, 100 classes, Dirichlet or IID client split.
    pub fn synth_cifar100(
        config: &SynthCifar100Config,
        heterogeneity: Heterogeneity,
        rng: &mut SeededRng,
    ) -> Self {
        Self::synth_image_task(
            "synth-cifar100",
            config.image,
            config.num_clients,
            config.samples_per_client,
            config.test_samples,
            heterogeneity,
            rng,
        )
    }

    /// FEMNIST stand-in: naturally non-IID — every client is one writer with
    /// its own style offset and its own subset of character classes.
    pub fn synth_femnist(config: &SynthFemnistConfig, rng: &mut SeededRng) -> Self {
        assert!(config.num_clients > 0 && config.samples_per_client > 0);
        assert!(config.classes_per_client >= 1);
        let generator = SynthImages::new(config.image, &mut rng.fork(1)); // fork: construction-seed
        let num_classes = config.image.num_classes;
        let mut clients = Vec::with_capacity(config.num_clients);
        for client_id in 0..config.num_clients {
            let mut client_rng = rng.fork(100 + client_id as u64); // fork: construction-seed
            let style = generator.style_pattern(config.style_strength, &mut client_rng);
            let class_subset = client_rng.sample_without_replacement(
                num_classes,
                config.classes_per_client.min(num_classes),
            );
            clients.push(generator.generate_with(
                config.samples_per_client,
                Some(&class_subset),
                Some(&style),
                &mut client_rng,
            ));
        }
        // Test set: unstyled samples from the full class space.
        let test = generator.generate(config.test_samples.max(1), &mut rng.fork(2)); // fork: construction-seed
        Self::from_parts("synth-femnist", clients, test)
    }

    /// Shakespeare stand-in: naturally non-IID next-character prediction where
    /// every client is one "role" with its own character transition table.
    pub fn synth_shakespeare(config: &SynthShakespeareConfig, rng: &mut SeededRng) -> Self {
        assert!(config.num_clients > 0 && config.samples_per_client > 0);
        let corpus = SynthNextChar::new(config.text, &mut rng.fork(1)); // fork: construction-seed
        let mut clients = Vec::with_capacity(config.num_clients);
        for client_id in 0..config.num_clients {
            clients.push(corpus.generate_for_client(
                config.samples_per_client,
                client_id as u64,
                &mut rng.fork(100 + client_id as u64), // fork: construction-seed
            ));
        }
        // Test set: a mixture over all personas, matching LEAF's held-out users.
        let per_client_test =
            (config.test_samples / config.num_clients).max(1);
        let test_parts: Vec<Dataset> = (0..config.num_clients)
            .map(|client_id| {
                corpus.generate_for_client(
                    per_client_test,
                    client_id as u64,
                    &mut rng.fork(10_000 + client_id as u64), // fork: construction-seed
                )
            })
            .collect();
        let test_refs: Vec<&Dataset> = test_parts.iter().collect();
        let test = Dataset::concat(&test_refs);
        Self::from_parts("synth-shakespeare", clients, test)
    }

    /// Sent140 stand-in: naturally non-IID binary sentiment where every client
    /// is one user with its own topic/vocabulary bias.
    pub fn synth_sent140(config: &SynthSent140Config, rng: &mut SeededRng) -> Self {
        assert!(config.num_clients > 0 && config.samples_per_client > 0);
        let corpus = SynthSentiment::new(config.text);
        let mut clients = Vec::with_capacity(config.num_clients);
        for client_id in 0..config.num_clients {
            clients.push(corpus.generate_for_client(
                config.samples_per_client,
                client_id as u64,
                &mut rng.fork(100 + client_id as u64), // fork: construction-seed
            ));
        }
        let per_client_test = (config.test_samples / config.num_clients).max(1);
        let test_parts: Vec<Dataset> = (0..config.num_clients)
            .map(|client_id| {
                corpus.generate_for_client(
                    per_client_test,
                    client_id as u64,
                    &mut rng.fork(10_000 + client_id as u64), // fork: construction-seed
                )
            })
            .collect();
        let test_refs: Vec<&Dataset> = test_parts.iter().collect();
        let test = Dataset::concat(&test_refs);
        Self::from_parts("synth-sent140", clients, test)
    }
}

impl ClientDataSource for FederatedDataset {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_clients(&self) -> usize {
        self.clients.len()
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn test_set(&self) -> &Dataset {
        &self.test
    }

    fn materialize(&self, client: usize) -> Dataset {
        // alloc: cold — owned copy on request; rounds check shards out through `shard`
        (*self.clients[client]).clone()
    }

    fn shard(&self, client: usize) -> Arc<Dataset> {
        Arc::clone(&self.clients[client])
    }

    /// Tag 17, then the population shape: client, class and test-set
    /// counts and every client's shard size. Contents are not hashed, so
    /// two federations of equal shape yield equal tokens.
    fn fingerprint_tokens(&self) -> Vec<u64> {
        let mut tokens = vec![
            17,
            self.clients.len() as u64,
            self.num_classes as u64,
            self.test.len() as u64,
        ];
        tokens.extend(self.clients.iter().map(|c| c.len() as u64));
        tokens
    }
}

/// Configuration of the CIFAR-10 stand-in task.
#[derive(Debug, Clone, Copy)]
pub struct SynthCifar10Config {
    /// Number of clients (the paper uses 100).
    pub num_clients: usize,
    /// Training samples generated per client (before Dirichlet skew).
    pub samples_per_client: usize,
    /// Held-out global test samples.
    pub test_samples: usize,
    /// Underlying image distribution.
    pub image: SynthImageConfig,
}

impl Default for SynthCifar10Config {
    fn default() -> Self {
        Self {
            num_clients: 100,
            samples_per_client: 50,
            test_samples: 500,
            image: SynthImageConfig::cifar10(),
        }
    }
}

/// Configuration of the CIFAR-100 stand-in task.
#[derive(Debug, Clone, Copy)]
pub struct SynthCifar100Config {
    /// Number of clients.
    pub num_clients: usize,
    /// Training samples generated per client.
    pub samples_per_client: usize,
    /// Held-out global test samples.
    pub test_samples: usize,
    /// Underlying image distribution.
    pub image: SynthImageConfig,
}

impl Default for SynthCifar100Config {
    fn default() -> Self {
        Self {
            num_clients: 100,
            samples_per_client: 50,
            test_samples: 1000,
            image: SynthImageConfig::cifar100(),
        }
    }
}

/// Configuration of the FEMNIST stand-in task.
#[derive(Debug, Clone, Copy)]
pub struct SynthFemnistConfig {
    /// Number of writer clients (the paper uses 180).
    pub num_clients: usize,
    /// Samples per writer.
    pub samples_per_client: usize,
    /// Held-out global test samples.
    pub test_samples: usize,
    /// Character classes each writer actually uses.
    pub classes_per_client: usize,
    /// Strength of the per-writer style offset.
    pub style_strength: f32,
    /// Underlying image distribution.
    pub image: SynthImageConfig,
}

impl Default for SynthFemnistConfig {
    fn default() -> Self {
        Self {
            num_clients: 180,
            samples_per_client: 40,
            test_samples: 800,
            classes_per_client: 16,
            style_strength: 0.5,
            image: SynthImageConfig::femnist(),
        }
    }
}

/// Configuration of the Shakespeare stand-in task.
#[derive(Debug, Clone, Copy)]
pub struct SynthShakespeareConfig {
    /// Number of role clients (the paper uses 128).
    pub num_clients: usize,
    /// Sequences per role.
    pub samples_per_client: usize,
    /// Held-out test sequences (drawn across all roles).
    pub test_samples: usize,
    /// Underlying language model.
    pub text: NextCharConfig,
}

impl Default for SynthShakespeareConfig {
    fn default() -> Self {
        Self {
            num_clients: 128,
            samples_per_client: 60,
            test_samples: 640,
            text: NextCharConfig::default(),
        }
    }
}

/// Configuration of the Sent140 stand-in task.
#[derive(Debug, Clone, Copy)]
pub struct SynthSent140Config {
    /// Number of user clients (the paper uses 803).
    pub num_clients: usize,
    /// Tweets per user.
    pub samples_per_client: usize,
    /// Held-out test tweets (drawn across all users).
    pub test_samples: usize,
    /// Underlying sentiment distribution.
    pub text: SentimentConfig,
}

impl Default for SynthSent140Config {
    fn default() -> Self {
        Self {
            num_clients: 803,
            samples_per_client: 40,
            test_samples: 800,
            text: SentimentConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::skew_score;

    fn small_cifar_config() -> SynthCifar10Config {
        SynthCifar10Config {
            num_clients: 10,
            samples_per_client: 20,
            test_samples: 50,
            ..Default::default()
        }
    }

    #[test]
    fn cifar10_task_has_expected_structure() {
        let mut rng = SeededRng::new(0);
        let fed = FederatedDataset::synth_cifar10(
            &small_cifar_config(),
            Heterogeneity::Iid,
            &mut rng,
        );
        assert_eq!(fed.num_clients(), 10);
        assert_eq!(fed.num_classes(), 10);
        assert_eq!(fed.total_train_samples(), 200);
        assert_eq!(fed.test_set().len(), 50);
        assert!(fed.name().contains("cifar10"));
        assert!(fed.name().contains("IID"));
    }

    #[test]
    fn dirichlet_split_is_more_skewed_than_iid() {
        let mut rng = SeededRng::new(1);
        let config = SynthCifar10Config {
            num_clients: 20,
            samples_per_client: 50,
            test_samples: 20,
            ..Default::default()
        };
        let iid = FederatedDataset::synth_cifar10(&config, Heterogeneity::Iid, &mut SeededRng::new(2));
        let skewed =
            FederatedDataset::synth_cifar10(&config, Heterogeneity::Dirichlet(0.1), &mut rng);
        let iid_skew = skew_score(&iid.class_count_matrix());
        let dir_skew = skew_score(&skewed.class_count_matrix());
        assert!(
            dir_skew > iid_skew + 0.15,
            "Dirichlet skew {dir_skew} vs IID skew {iid_skew}"
        );
    }

    #[test]
    fn cifar100_has_100_classes() {
        let mut rng = SeededRng::new(3);
        let config = SynthCifar100Config {
            num_clients: 5,
            samples_per_client: 10,
            test_samples: 30,
            ..Default::default()
        };
        let fed = FederatedDataset::synth_cifar100(&config, Heterogeneity::Dirichlet(0.5), &mut rng);
        assert_eq!(fed.num_classes(), 100);
        assert_eq!(fed.num_clients(), 5);
    }

    #[test]
    fn femnist_clients_use_restricted_class_subsets() {
        let mut rng = SeededRng::new(4);
        let config = SynthFemnistConfig {
            num_clients: 8,
            samples_per_client: 30,
            test_samples: 40,
            classes_per_client: 5,
            ..Default::default()
        };
        let fed = FederatedDataset::synth_femnist(&config, &mut rng);
        assert_eq!(fed.num_clients(), 8);
        assert_eq!(fed.num_classes(), 62);
        for counts in fed.class_count_matrix() {
            let used = counts.iter().filter(|&&c| c > 0).count();
            assert!(used <= 5, "client uses {used} classes, expected <= 5");
        }
        // Test set spans more classes than any single client.
        let test_classes = fed.test_set().class_counts().iter().filter(|&&c| c > 0).count();
        assert!(test_classes > 5);
    }

    #[test]
    fn shakespeare_task_structure() {
        let mut rng = SeededRng::new(5);
        let config = SynthShakespeareConfig {
            num_clients: 6,
            samples_per_client: 15,
            test_samples: 30,
            ..Default::default()
        };
        let fed = FederatedDataset::synth_shakespeare(&config, &mut rng);
        assert_eq!(fed.num_clients(), 6);
        assert_eq!(fed.num_classes(), config.text.vocab);
        assert_eq!(fed.client(0).sample_dims(), &[config.text.seq_len]);
        assert!(fed.test_set().len() >= 6);
    }

    #[test]
    fn sent140_task_structure() {
        let mut rng = SeededRng::new(6);
        let config = SynthSent140Config {
            num_clients: 7,
            samples_per_client: 12,
            test_samples: 35,
            ..Default::default()
        };
        let fed = FederatedDataset::synth_sent140(&config, &mut rng);
        assert_eq!(fed.num_clients(), 7);
        assert_eq!(fed.num_classes(), 2);
        assert!(fed.total_train_samples() == 84);
    }

    #[test]
    fn federated_dataset_is_deterministic_per_seed() {
        let config = small_cifar_config();
        let a = FederatedDataset::synth_cifar10(&config, Heterogeneity::Dirichlet(0.5), &mut SeededRng::new(9));
        let b = FederatedDataset::synth_cifar10(&config, Heterogeneity::Dirichlet(0.5), &mut SeededRng::new(9));
        assert_eq!(a.client_sizes(), b.client_sizes());
        assert_eq!(
            a.client(0).features().data(),
            b.client(0).features().data()
        );
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_empty_clients() {
        let test = Dataset::empty(&[4], 2);
        let _ = FederatedDataset::from_parts("x", Vec::new(), test);
    }
}
