//! FL algorithms with compressed uploads.

use crate::codec::Compressor;
use crate::feedback::ErrorFeedback;
use fedcross::server::GlobalModel;
use fedcross_flsim::checkpoint::{decode_u64, encode_u64, AlgorithmState, StateError};
use fedcross_flsim::client::LocalUpdate;
use fedcross_flsim::engine::{FederatedAlgorithm, RoundContext, RoundReport};
use fedcross_flsim::streams::{RoundStreams, StreamDomain};
use fedcross_nn::params::{add_scaled, average, difference};
use serde::{Deserialize, Serialize};

/// Name of the [`AlgorithmState`] record holding the [`UploadStats`]
/// counters: `[raw_scalars, compressed_scalars, uploads]` as decimal strings
/// (the JSON shim's numbers are f64-backed, so numeric u64 would truncate
/// above 2^53).
const UPLOAD_STATS_RECORD: &str = "upload_stats";

/// Name of the [`AlgorithmState`] client table holding the per-client
/// error-feedback residuals.
const RESIDUALS_TABLE: &str = "ef_residuals";

/// Accumulated upload-volume accounting of a compressed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UploadStats {
    /// Scalars the clients would have uploaded without compression.
    pub raw_scalars: u64,
    /// Scalars actually occupied by the compressed encodings.
    pub compressed_scalars: u64,
    /// Number of compressed uploads recorded.
    pub uploads: u64,
}

impl UploadStats {
    /// Overall compression ratio (raw / compressed); 1.0 when nothing was
    /// recorded.
    pub fn ratio(&self) -> f64 {
        if self.compressed_scalars == 0 {
            1.0
        } else {
            self.raw_scalars as f64 / self.compressed_scalars as f64
        }
    }

    /// Upload volume saved, in mebibytes at 4 bytes per scalar.
    pub fn saved_mib(&self) -> f64 {
        (self.raw_scalars.saturating_sub(self.compressed_scalars)) as f64 * 4.0
            / (1024.0 * 1024.0)
    }
}

/// FedAvg whose clients upload compressed parameter deltas.
///
/// Each round: dispatch the global model, train, compress every client's delta
/// with the configured [`Compressor`] (optionally through per-client
/// [`ErrorFeedback`]), decode on the server, average the decoded deltas and
/// apply them to the global model. The exact raw-vs-compressed upload volume is
/// tracked in [`UploadStats`].
///
/// **Resumable.** Stochastic-compression randomness (dithered quantization,
/// random-`k`) derives from a [`RoundStreams`] keyed by
/// `(CompressionDither, seed, absolute round, client id)` — client-side
/// randomness, so client identity is the natural key and the encoding a
/// client produces does not depend on which uploads the server happened to
/// process first. The cross-round state — global model, [`UploadStats`]
/// counters and the per-client error-feedback residuals — is captured by
/// [`FederatedAlgorithm::snapshot_state`].
pub struct CompressedFedAvg {
    global: GlobalModel,
    compressor: Box<dyn Compressor>,
    feedback: Option<ErrorFeedback>,
    stats: UploadStats,
    dither: RoundStreams,
}

impl CompressedFedAvg {
    /// Creates compressed FedAvg. `error_feedback` should be enabled for
    /// biased compressors (top-`k`); `seed` roots the round-derived
    /// stochastic-compression streams.
    pub fn new(
        init_params: Vec<f32>,
        compressor: Box<dyn Compressor>,
        error_feedback: bool,
        seed: u64,
    ) -> Self {
        Self {
            global: GlobalModel::new(init_params),
            compressor,
            feedback: if error_feedback {
                Some(ErrorFeedback::new())
            } else {
                None
            },
            stats: UploadStats::default(),
            dither: RoundStreams::new(StreamDomain::CompressionDither, seed),
        }
    }

    /// The accumulated upload accounting.
    pub fn upload_stats(&self) -> UploadStats {
        self.stats
    }

    /// Whether error feedback is enabled.
    pub fn uses_error_feedback(&self) -> bool {
        self.feedback.is_some()
    }

    /// The server half of one round: compress/decode every upload's delta
    /// (clients would do the compression in a real deployment — the
    /// simulation runs both ends), average the decoded deltas and apply them
    /// to the global model.
    ///
    /// Public so the order-independence contract is testable: updates are
    /// processed in canonical client-id order and each client's compression
    /// stream is keyed by `(round, client)`, so any permutation of `updates`
    /// produces a bitwise-identical model, residual memory and counters.
    pub fn apply_updates(&mut self, round: usize, updates: &[LocalUpdate]) -> RoundReport {
        if updates.is_empty() {
            return RoundReport::default();
        }
        // alloc: bounded — cohort-sized aggregation staging, once per round
        let mut ordered: Vec<&LocalUpdate> = updates.iter().collect();
        ordered.sort_by_key(|update| update.client);

        let round_dither = self.dither.round(round);
        // alloc: bounded — cohort-sized aggregation staging, once per round
        let mut decoded_deltas = Vec::with_capacity(ordered.len());
        for update in &ordered {
            let delta = difference(&update.params, self.global.params());
            let mut rng = round_dither.stream(update.client);
            let (compressed, decoded) = match self.feedback.as_mut() {
                Some(feedback) => feedback.compress_with_feedback(
                    update.client,
                    &delta,
                    self.compressor.as_ref(),
                    &mut rng,
                ),
                None => {
                    let compressed = self.compressor.compress(&delta, &mut rng);
                    let decoded = compressed.decode();
                    (compressed, decoded)
                }
            };
            self.stats.raw_scalars += delta.len() as u64;
            self.stats.compressed_scalars += compressed.payload_scalars() as u64;
            self.stats.uploads += 1;
            decoded_deltas.push(decoded);
        }

        let aggregate = average(&decoded_deltas);
        add_scaled(self.global.params_mut(), &aggregate, 1.0);
        RoundReport::from_updates(&ordered)
    }
}

impl FederatedAlgorithm for CompressedFedAvg {
    fn name(&self) -> String {
        // The dither seed is part of the name: stochastic compressors make
        // the trajectory a function of the seed, so a resume under a
        // different seed would silently splice two dither sequences — the
        // name check rejects it. (Deterministic compressors don't consume
        // the streams, but the generic path cannot tell them apart.)
        let ef = if self.feedback.is_some() { ", EF" } else { "" };
        // alloc: cold — identity string for reporting, built outside the per-round loop
        format!(
            "fedavg+{}, seed={}{}",
            self.compressor.label(),
            self.dither.base_seed(),
            ef
        )
    }

    fn run_round(&mut self, round: usize, ctx: &mut RoundContext<'_>) -> RoundReport {
        let selected = ctx.select_clients();
        let updates = self.global.dispatch(ctx, &selected);
        self.apply_updates(round, &updates)
    }

    fn global_params_into(&self, out: &mut Vec<f32>) {
        self.global.read_into(out);
    }

    fn snapshot_state(&self) -> Result<AlgorithmState, StateError> {
        let mut state = self.global.snapshot().with_record(
            UPLOAD_STATS_RECORD,
            vec![
                encode_u64(self.stats.raw_scalars),
                encode_u64(self.stats.compressed_scalars),
                encode_u64(self.stats.uploads),
            ],
        );
        if let Some(feedback) = &self.feedback {
            state = state.with_client_table(RESIDUALS_TABLE, feedback.snapshot_residuals());
        }
        Ok(state)
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), StateError> {
        let dim = self.global.params().len();
        let record = state.expect_record(UPLOAD_STATS_RECORD, 3)?;
        let stats = UploadStats {
            raw_scalars: decode_u64(&record[0])?,
            compressed_scalars: decode_u64(&record[1])?,
            uploads: decode_u64(&record[2])?,
        };
        // The residual table exists iff error feedback is on: the algorithm
        // name encodes the EF flag, so the engine's name check already rules
        // out a cross-configuration restore — but validate anyway so a
        // hand-edited checkpoint fails loudly. Residual dimensions match the
        // model (the residual of a full-model delta); client ids are bounded
        // by usize::MAX here because the federation size is not known at
        // restore time — the ids only key the memory, they are never indexed.
        let residuals = match &self.feedback {
            Some(_) => Some(state.expect_client_table(RESIDUALS_TABLE, usize::MAX, dim)?),
            None => None,
        };
        self.global.restore(state)?;
        self.stats = stats;
        if let (Some(feedback), Some(table)) = (self.feedback.as_mut(), residuals) {
            feedback.restore_residuals(table);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Identity;
    use crate::quantize::UniformQuantizer;
    use crate::sparsify::TopK;
    use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
    use fedcross_data::{ClientDataSource, Heterogeneity};
    use fedcross_flsim::{LocalTrainConfig, Simulation, SimulationConfig};
    use fedcross_nn::models::{cnn, CnnConfig};
    use fedcross_nn::Model;
    use fedcross_tensor::SeededRng;

    fn tiny_setup(seed: u64) -> (FederatedDataset, Box<dyn Model>) {
        let mut rng = SeededRng::new(seed);
        let data = FederatedDataset::synth_cifar10(
            &SynthCifar10Config {
                num_clients: 6,
                samples_per_client: 30,
                test_samples: 60,
                ..Default::default()
            },
            Heterogeneity::Iid,
            &mut rng,
        );
        let template = cnn(
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

    fn quick_config(rounds: usize) -> SimulationConfig {
        SimulationConfig {
            rounds,
            clients_per_round: 3,
            eval_every: rounds.max(1),
            eval_batch_size: 64,
            local: LocalTrainConfig {
                epochs: 2,
                batch_size: 10,
                lr: 0.1,
                momentum: 0.5,
                weight_decay: 0.0,
            },
            seed: 9,
        }
    }

    #[test]
    fn identity_compression_matches_plain_fedavg_updates() {
        let (data, template) = tiny_setup(0);
        let mut algo = CompressedFedAvg::new(template.params_flat(), Box::new(Identity), false, 1);
        let result = Simulation::new(quick_config(3), &data, template).run(&mut algo);
        // Evaluated at round 0 and at the final round.
        assert_eq!(result.history.len(), 2);
        let stats = algo.upload_stats();
        assert_eq!(stats.raw_scalars, stats.compressed_scalars);
        assert!((stats.ratio() - 1.0).abs() < 1e-9);
        assert_eq!(stats.uploads, 9);
        assert!(!algo.uses_error_feedback());
    }

    #[test]
    fn quantized_uploads_learn_and_shrink_the_payload() {
        let (data, template) = tiny_setup(1);
        let init_acc = fedcross_flsim::EvalWorker::new(template.as_ref())
            .evaluate_params(&template.params_flat(), data.test_set(), 64)
            .accuracy;
        let mut algo = CompressedFedAvg::new(
            template.params_flat(),
            Box::new(UniformQuantizer::new(8, true)),
            false,
            2,
        );
        let result = Simulation::new(quick_config(10), &data, template).run(&mut algo);
        assert!(
            result.history.best_accuracy() > init_acc + 0.1,
            "8-bit quantized FedAvg should learn ({} vs {})",
            result.history.best_accuracy(),
            init_acc
        );
        let stats = algo.upload_stats();
        assert!(stats.ratio() > 3.0, "ratio {}", stats.ratio());
        assert!(stats.saved_mib() > 0.0);
        assert!(algo.name().contains("quant-8bit"));
    }

    #[test]
    fn topk_with_error_feedback_learns() {
        let (data, template) = tiny_setup(2);
        let init_acc = fedcross_flsim::EvalWorker::new(template.as_ref())
            .evaluate_params(&template.params_flat(), data.test_set(), 64)
            .accuracy;
        let mut algo = CompressedFedAvg::new(
            template.params_flat(),
            Box::new(TopK::new(0.25)),
            true,
            3,
        );
        let result = Simulation::new(quick_config(12), &data, template).run(&mut algo);
        assert!(
            result.history.best_accuracy() > init_acc + 0.1,
            "top-k + EF FedAvg should learn ({} vs {})",
            result.history.best_accuracy(),
            init_acc
        );
        assert!(algo.upload_stats().ratio() > 1.8);
        assert!(algo.uses_error_feedback());
        assert!(algo.name().ends_with(", EF"));
    }

    #[test]
    fn empty_stats_have_unit_ratio() {
        let stats = UploadStats::default();
        assert_eq!(stats.ratio(), 1.0);
        assert_eq!(stats.saved_mib(), 0.0);
    }
}
