//! Per-client error-feedback memory (EF-SGD).
//!
//! Biased compressors such as top-`k` drop information every round; error
//! feedback keeps them convergent by having every client remember the residual
//! `delta_sent_for_compression − delta_actually_transmitted` and add it back
//! to its next delta. The memory lives on the client, so it costs no extra
//! communication.

use std::collections::BTreeMap;

use crate::codec::{CompressedUpdate, Compressor};
use fedcross_nn::params::add_scaled;
use fedcross_tensor::SeededRng;

/// Error-feedback residual memory, keyed by client index.
#[derive(Debug, Clone, Default)]
pub struct ErrorFeedback {
    // BTreeMap, not HashMap: snapshot_residuals iterates this map, and D001
    // requires every iterated map on a trajectory path to have a fixed order.
    residuals: BTreeMap<usize, Vec<f32>>,
}

impl ErrorFeedback {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients with a stored residual.
    pub fn tracked_clients(&self) -> usize {
        self.residuals.len()
    }

    /// The residual currently stored for `client`, if any.
    pub fn residual(&self, client: usize) -> Option<&[f32]> {
        self.residuals.get(&client).map(Vec::as_slice)
    }

    /// Compresses `delta` for `client` with error feedback: the stored
    /// residual is added before compression and the new residual (corrected
    /// delta minus what the encoding reconstructs to) is stored for the next
    /// round. Returns the encoding together with its decoding, which the
    /// residual needed anyway, so the server half need not decode it again.
    ///
    /// The client's stored residual buffer is recycled as the working buffer
    /// (`corrected = residual + delta`, then `residual = corrected − decoded`
    /// in place), so the steady-state path performs no full-model
    /// allocations beyond what the codec itself needs.
    pub fn compress_with_feedback(
        &mut self,
        client: usize,
        delta: &[f32],
        compressor: &dyn Compressor,
        rng: &mut SeededRng,
    ) -> (CompressedUpdate, Vec<f32>) {
        // Take the stored residual and reuse its allocation; a missing or
        // stale-dimension residual degrades to a zero vector.
        let mut corrected = match self.residuals.remove(&client) {
            Some(residual) if residual.len() == delta.len() => residual,
            // alloc: bounded — per-upload error-feedback buffer
            _ => vec![0f32; delta.len()],
        };
        // corrected = residual + delta (addition is commutative, so this is
        // numerically identical to the historical delta + residual order).
        add_scaled(&mut corrected, delta, 1.0);
        let compressed = compressor.compress(&corrected, rng);
        let decoded = compressed.decode();
        // residual = corrected - decoded, in place (adding -1 × decoded is
        // exactly subtracting it).
        add_scaled(&mut corrected, &decoded, -1.0);
        self.residuals.insert(client, corrected);
        (compressed, decoded)
    }

    /// Drops all stored residuals.
    pub fn reset(&mut self) {
        self.residuals.clear();
    }

    /// The complete residual memory as a `(client id, residual)` table sorted
    /// by client id — the deterministic shape a checkpoint's client table
    /// requires (`BTreeMap` iteration is already in key order, so no sort is
    /// needed).
    pub fn snapshot_residuals(&self) -> Vec<(usize, Vec<f32>)> {
        self.residuals
            .iter()
            .map(|(&client, residual)| (client, residual.clone()))
            .collect()
    }

    /// Replaces the residual memory with a checkpointed table (validation —
    /// id ranges, dimensions, sortedness — is the checkpoint layer's job;
    /// this is the mechanical restore).
    pub fn restore_residuals(&mut self, table: &[(usize, Vec<f32>)]) {
        self.residuals = table
            .iter()
            .map(|(client, residual)| (*client, residual.clone()))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Identity;
    use crate::quantize::UniformQuantizer;
    use crate::sparsify::TopK;
    use fedcross_nn::params::l2_norm;

    #[test]
    fn identity_compression_leaves_no_residual() {
        let mut feedback = ErrorFeedback::new();
        let delta = vec![1.0, -2.0, 3.0];
        let (update, decoded) =
            feedback.compress_with_feedback(0, &delta, &Identity, &mut SeededRng::new(0));
        assert_eq!(decoded, delta);
        assert_eq!(update.decode(), decoded);
        assert!(l2_norm(feedback.residual(0).unwrap()) < 1e-6);
        assert_eq!(feedback.tracked_clients(), 1);
    }

    #[test]
    fn residual_carries_dropped_coordinates_forward() {
        let mut feedback = ErrorFeedback::new();
        let compressor = TopK::new(0.3); // keeps 1 of 3 coordinates
        let delta = vec![0.1, 10.0, 0.2];
        let (_, first) =
            feedback.compress_with_feedback(7, &delta, &compressor, &mut SeededRng::new(1));
        assert_eq!(first, vec![0.0, 10.0, 0.0]);
        let residual = feedback.residual(7).unwrap().to_vec();
        assert!((residual[0] - 0.1).abs() < 1e-6);
        assert!((residual[2] - 0.2).abs() < 1e-6);

        // A zero delta next round still transmits the remembered residual.
        let (_, decoded) =
            feedback.compress_with_feedback(7, &[0.0, 0.0, 0.0], &compressor, &mut SeededRng::new(2));
        assert!(decoded[2] > 0.0 || decoded[0] > 0.0, "residual must eventually be sent");
    }

    #[test]
    fn accumulated_transmissions_approach_the_accumulated_deltas() {
        // Send the same delta for many rounds through an aggressive top-k
        // compressor with feedback: the sum of the decoded transmissions must
        // track the sum of the raw deltas (the EF-SGD guarantee).
        let mut feedback = ErrorFeedback::new();
        let compressor = TopK::new(0.1);
        let delta: Vec<f32> = (0..50).map(|i| (i as f32 - 25.0) * 0.01).collect();
        let rounds = 120;
        let mut transmitted_sum = vec![0f32; delta.len()];
        let mut rng = SeededRng::new(3);
        let mut gap_half_way = 0f32;
        for round in 0..rounds {
            let (_, decoded) = feedback.compress_with_feedback(1, &delta, &compressor, &mut rng);
            for (t, d) in transmitted_sum.iter_mut().zip(decoded) {
                *t += d;
            }
            if round + 1 == rounds / 2 {
                let target: Vec<f32> = delta.iter().map(|&d| d * (round + 1) as f32).collect();
                let gap: Vec<f32> = transmitted_sum
                    .iter()
                    .zip(&target)
                    .map(|(&t, &g)| t - g)
                    .collect();
                gap_half_way = l2_norm(&gap);
            }
        }
        let target: Vec<f32> = delta.iter().map(|&d| d * rounds as f32).collect();
        let gap: Vec<f32> = transmitted_sum
            .iter()
            .zip(&target)
            .map(|(&t, &g)| t - g)
            .collect();
        let gap_final = l2_norm(&gap);
        // The gap equals the current residual: it must stay bounded (it does
        // not keep growing between the half-way point and the end, unlike the
        // no-feedback case where it grows linearly in the number of rounds)
        // and well below the total dropped mass.
        assert!(
            gap_final <= gap_half_way * 1.25 + 0.1,
            "residual kept growing ({gap_half_way} -> {gap_final})"
        );
        assert!(
            gap_final < 0.2 * rounds as f32 * l2_norm(&delta),
            "error feedback failed to keep the residual bounded (gap {gap_final})"
        );
    }

    #[test]
    fn per_client_residuals_are_independent() {
        let mut feedback = ErrorFeedback::new();
        let compressor = TopK::new(0.5);
        let mut rng = SeededRng::new(4);
        let _ = feedback.compress_with_feedback(0, &[1.0, 0.2, 0.1, 0.9], &compressor, &mut rng);
        let _ = feedback.compress_with_feedback(1, &[0.5, 0.4, 0.3, 0.6], &compressor, &mut rng);
        assert_eq!(feedback.tracked_clients(), 2);
        // Client 0 drops {0.2, 0.1}; client 1 drops {0.4, 0.3}.
        assert_ne!(feedback.residual(0), feedback.residual(1));
        assert!(l2_norm(feedback.residual(0).unwrap()) > 0.0);
        feedback.reset();
        assert_eq!(feedback.tracked_clients(), 0);
        assert!(feedback.residual(0).is_none());
        let _ = UniformQuantizer::new(2, false); // quantizer also usable here
    }

    #[test]
    fn residual_snapshot_is_sorted_and_restores_identically() {
        let mut feedback = ErrorFeedback::new();
        let compressor = TopK::new(0.3);
        let mut rng = SeededRng::new(6);
        // Insert in non-ascending client order; the snapshot must sort.
        for &client in &[9usize, 2, 5] {
            let delta: Vec<f32> = (0..6).map(|i| (client * 6 + i) as f32 * 0.1).collect();
            let _ = feedback.compress_with_feedback(client, &delta, &compressor, &mut rng);
        }
        let table = feedback.snapshot_residuals();
        let ids: Vec<usize> = table.iter().map(|(c, _)| *c).collect();
        assert_eq!(ids, vec![2, 5, 9]);

        let mut restored = ErrorFeedback::new();
        restored.restore_residuals(&table);
        assert_eq!(restored.tracked_clients(), 3);
        for (client, residual) in &table {
            assert_eq!(restored.residual(*client), Some(residual.as_slice()));
        }
        // The restored memory continues exactly like the original.
        let next = vec![0.5f32; 6];
        let (_, a) = feedback.compress_with_feedback(5, &next, &compressor, &mut SeededRng::new(7));
        let (_, b) = restored.compress_with_feedback(5, &next, &compressor, &mut SeededRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn dimension_change_discards_the_stale_residual() {
        let mut feedback = ErrorFeedback::new();
        let compressor = TopK::new(0.5);
        let mut rng = SeededRng::new(5);
        let _ = feedback.compress_with_feedback(0, &[1.0, 2.0, 3.0, 4.0], &compressor, &mut rng);
        // A different dimensionality must not panic and must ignore the old
        // residual.
        let (update, decoded) =
            feedback.compress_with_feedback(0, &[1.0, 1.0], &compressor, &mut rng);
        assert_eq!(update.dim(), 2);
        assert_eq!(decoded.len(), 2);
    }
}
