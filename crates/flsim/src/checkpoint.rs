//! Training checkpoints: save and resume federated runs **bitwise
//! faithfully**.
//!
//! The paper's experiments run for thousands of communication rounds; a
//! production deployment of FedCross needs to survive server restarts without
//! losing the middleware models (which, unlike FedAvg's single global model,
//! are the *only* training state). A [`Checkpoint`] (format
//! [`CHECKPOINT_VERSION`]) persists everything a restart needs:
//!
//! * the complete [`AlgorithmState`] captured by
//!   [`FederatedAlgorithm::snapshot_state`](crate::engine::FederatedAlgorithm::snapshot_state)
//!   — FedCross's middleware list, SCAFFOLD's server and client control
//!   variates, CluSamp's per-client update directions,
//! * the [`TrainingHistory`] with **absolute** round indices and the
//!   [`CommTracker`] counters accumulated so far,
//! * the simulation seed and a configuration fingerprint, so a resume against
//!   a different configuration fails loudly instead of silently changing the
//!   trajectory.
//!
//! Together with the engine's absolute-round RNG derivation
//! ([`Simulation::run_segment`](crate::engine::Simulation::run_segment)), a run
//! checkpointed at round `R` and resumed is **bitwise identical** to the
//! uninterrupted run — same global parameters, same history records, same
//! communication totals (pinned by `tests/tests/resume_plane.rs`).
//!
//! [`Checkpoint::save`] is atomic (temp file + rename): a crash mid-save
//! never corrupts or truncates an existing checkpoint on disk.

use crate::comm::CommTracker;
use crate::history::TrainingHistory;
use fedcross_nn::params::ParamBlock;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Current checkpoint format version. Older versions are no longer readable;
/// loading one fails with a missing-field error. Version 1 was the
/// pre-resume-plane format (no algorithm state, comm counters or config
/// fingerprint); version 2 lacked the [`AlgorithmState::records`] section
/// that the DP accountant and compression counters persist through.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Encodes a `u64` counter for an [`AlgorithmState::records`] entry.
///
/// Counters travel as decimal strings because the serde shim's JSON numbers
/// are `f64`-backed: a numeric `u64` above 2^53 would silently truncate.
pub fn encode_u64(value: u64) -> String {
    value.to_string()
}

/// Decodes a counter written by [`encode_u64`].
pub fn decode_u64(text: &str) -> Result<u64, StateError> {
    text.parse::<u64>()
        .map_err(|_| StateError::new(format!("invalid u64 counter `{text}`")))
}

/// Encodes an `f64` for an [`AlgorithmState::records`] entry, **bitwise**.
///
/// The accountant's spent privacy budget must survive a checkpoint exactly
/// (the resumed run keeps adding to it, and any rounding would make the
/// reported ε diverge from the uninterrupted run), so the value travels as
/// its hex bit pattern rather than a decimal rendering.
pub fn encode_f64(value: f64) -> String {
    format!("f64:{:016x}", value.to_bits())
}

/// Decodes a value written by [`encode_f64`].
pub fn decode_f64(text: &str) -> Result<f64, StateError> {
    let hex = text
        .strip_prefix("f64:")
        .ok_or_else(|| StateError::new(format!("invalid f64 record `{text}` (missing prefix)")))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| StateError::new(format!("invalid f64 record `{text}`")))
}

/// An error while capturing or restoring an [`AlgorithmState`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateError {
    message: String,
}

impl StateError {
    /// Creates a state error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "algorithm state: {}", self.message)
    }
}

impl std::error::Error for StateError {}

/// A per-client vector table: `(client id, vector)` entries sorted by client
/// id. SCAFFOLD's client control variates and CluSamp's update directions
/// are stored in this shape.
pub type ClientTable = Vec<(usize, Vec<f32>)>;

/// The complete server-side training state of a
/// [`FederatedAlgorithm`](crate::engine::FederatedAlgorithm), in a shape
/// every method of the paper fits into:
///
/// * single-model methods (FedAvg, FedProx, FedGen, CluSamp, SCAFFOLD) store
///   their global model as the one entry of [`AlgorithmState::models`];
/// * FedCross stores its `K` middleware models there **in slot order** (the
///   order is part of the training state — cross-aggregation partners are
///   chosen per slot);
/// * model-shaped auxiliary vectors (SCAFFOLD's server control variate) go
///   into [`AlgorithmState::aux`] by name;
/// * per-client tables (SCAFFOLD's client control variates, CluSamp's update
///   directions, compressed FedAvg's error-feedback residuals) go into
///   [`AlgorithmState::client_tables`] by name, sorted by client id so the
///   serialised form is deterministic;
/// * scalar counters and budget records that are not model-shaped (the DP
///   accountant's spent Rényi budget, `UploadStats` totals) go into
///   [`AlgorithmState::records`] by name, each value string-encoded via
///   [`encode_u64`] / [`encode_f64`] so `u64` and `f64` survive the
///   f64-backed JSON number representation losslessly.
///
/// Models are [`ParamBlock`]s: snapshotting FedCross's middleware list is `K`
/// reference-count bumps, not an `O(K·d)` clone storm, and restoring hands
/// the blocks back by reference bump too (copy-on-write duplicates a buffer
/// only when the first post-restore round fuses into it).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmState {
    /// Primary model list (see the type-level docs for the layout contract).
    pub models: Vec<ParamBlock>,
    /// Named model-shaped auxiliary vectors.
    pub aux: Vec<(String, Vec<f32>)>,
    /// Named per-client vector tables, each sorted by client id.
    pub client_tables: Vec<(String, ClientTable)>,
    /// Named string-encoded scalar records ([`encode_u64`] / [`encode_f64`]):
    /// counters and budget accumulators that must survive JSON losslessly.
    pub records: Vec<(String, Vec<String>)>,
}

impl AlgorithmState {
    /// State of a single-model method: just the global model.
    pub fn single_model(global: ParamBlock) -> Self {
        Self {
            models: vec![global],
            ..Self::default()
        }
    }

    /// State of a multi-model method: the model list in slot order.
    pub fn multi_model(models: Vec<ParamBlock>) -> Self {
        Self {
            models,
            ..Self::default()
        }
    }

    /// Adds a named auxiliary vector (builder style).
    pub fn with_aux(mut self, name: impl Into<String>, vector: Vec<f32>) -> Self {
        self.aux.push((name.into(), vector));
        self
    }

    /// Adds a named per-client table (builder style), sorting it by client id
    /// so the serialised form is deterministic regardless of the source
    /// container's iteration order.
    pub fn with_client_table(
        mut self,
        name: impl Into<String>,
        mut table: ClientTable,
    ) -> Self {
        table.sort_by_key(|(client, _)| *client);
        self.client_tables.push((name.into(), table));
        self
    }

    /// Adds a named string-encoded record (builder style). Encode each value
    /// with [`encode_u64`] / [`encode_f64`] so it survives JSON losslessly.
    pub fn with_record(
        mut self,
        name: impl Into<String>,
        values: Vec<String>,
    ) -> Self {
        self.records.push((name.into(), values));
        self
    }

    /// Number of scalar parameters per model, or 0 when no model is stored.
    pub fn param_count(&self) -> usize {
        self.models.first().map_or(0, ParamBlock::len)
    }

    /// The single model of a single-model method, validated against the
    /// expected parameter count.
    pub fn expect_single_model(&self, dim: usize) -> Result<&ParamBlock, StateError> {
        match self.models.as_slice() {
            [model] if model.len() == dim => Ok(model),
            [model] => Err(StateError::new(format!(
                "model has {} parameters, expected {dim}",
                model.len()
            ))),
            models => Err(StateError::new(format!(
                "expected exactly one model, found {}",
                models.len()
            ))),
        }
    }

    /// The model list of a multi-model method, validated against the expected
    /// model count (FedCross's `K`) and per-model parameter count.
    pub fn expect_models(&self, count: usize, dim: usize) -> Result<&[ParamBlock], StateError> {
        if self.models.len() != count {
            return Err(StateError::new(format!(
                "middleware count mismatch: checkpoint has {} models, the resuming algorithm has {count}",
                self.models.len()
            )));
        }
        for (slot, model) in self.models.iter().enumerate() {
            if model.len() != dim {
                return Err(StateError::new(format!(
                    "model {slot} has {} parameters, expected {dim}",
                    model.len()
                )));
            }
        }
        Ok(&self.models)
    }

    /// A named auxiliary vector, validated against the expected length.
    pub fn expect_aux(&self, name: &str, dim: usize) -> Result<&[f32], StateError> {
        let (_, vector) = self
            .aux
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| StateError::new(format!("missing auxiliary vector `{name}`")))?;
        if vector.len() != dim {
            return Err(StateError::new(format!(
                "auxiliary vector `{name}` has {} entries, expected {dim}",
                vector.len()
            )));
        }
        Ok(vector)
    }

    /// A named per-client table, validating every entry's vector length, that
    /// every client id lies below `num_clients`, and that the ids are
    /// strictly increasing (the on-disk format contract — also rules out
    /// duplicate entries, which would otherwise restore last-entry-wins).
    pub fn expect_client_table(
        &self,
        name: &str,
        num_clients: usize,
        dim: usize,
    ) -> Result<&[(usize, Vec<f32>)], StateError> {
        let (_, table) = self
            .client_tables
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| StateError::new(format!("missing client table `{name}`")))?;
        if let Some(pair) = table.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(StateError::new(format!(
                "client table `{name}` is not strictly sorted by client id ({} then {})",
                pair[0].0, pair[1].0
            )));
        }
        for (client, vector) in table {
            if *client >= num_clients {
                return Err(StateError::new(format!(
                    "client table `{name}` references client {client}, federation has {num_clients}"
                )));
            }
            if vector.len() != dim {
                return Err(StateError::new(format!(
                    "client table `{name}` entry for client {client} has {} entries, expected {dim}",
                    vector.len()
                )));
            }
        }
        Ok(table)
    }

    /// A named string record, or `None` when absent. Use for records that an
    /// algorithm only writes once the state exists (e.g. a checkpoint taken
    /// before the first round has no accountant yet).
    pub fn record(&self, name: &str) -> Option<&[String]> {
        self.records
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, values)| values.as_slice())
    }

    /// A named string record, validated against the expected entry count.
    pub fn expect_record(&self, name: &str, len: usize) -> Result<&[String], StateError> {
        let values = self
            .record(name)
            .ok_or_else(|| StateError::new(format!("missing record `{name}`")))?;
        if values.len() != len {
            return Err(StateError::new(format!(
                "record `{name}` has {} entries, expected {len}",
                values.len()
            )));
        }
        Ok(values)
    }
}

/// A resumable snapshot of a federated training run (format
/// [`CHECKPOINT_VERSION`]).
///
/// Build one with [`Simulation::checkpoint`](crate::engine::Simulation::checkpoint)
/// after a partial run, persist it with [`Checkpoint::save`], and hand it to
/// [`Simulation::resume`](crate::engine::Simulation::resume) after a restart.
///
/// Serialisation note: `seed` travels as a **decimal string** (and the
/// fingerprint as hex) because the serde shim's JSON numbers are f64-backed
/// and would silently truncate u64 values above 2^53.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`] when written by this
    /// build); checked on resume.
    pub version: u32,
    /// Name of the algorithm that produced the snapshot; must match the
    /// resuming algorithm exactly (the name encodes the hyper-parameters).
    pub algorithm: String,
    /// Number of communication rounds completed — the **absolute** round the
    /// resumed run continues from.
    pub rounds_completed: usize,
    /// Master seed of the simulation that produced the snapshot.
    pub seed: u64,
    /// Fingerprint of the simulation configuration (seed, per-round schedule,
    /// local training hyper-parameters, availability model, template size);
    /// see `Simulation::config_fingerprint`. A resume against a different
    /// configuration cannot be bitwise faithful and is rejected.
    pub config_fingerprint: String,
    /// The algorithm's complete training state.
    pub state: AlgorithmState,
    /// Learning curve recorded so far (absolute round indices).
    pub history: TrainingHistory,
    /// Communication counters accumulated so far.
    pub comm: CommTracker,
}

impl Serialize for Checkpoint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("version".to_string(), self.version.to_value()),
            ("algorithm".to_string(), self.algorithm.to_value()),
            (
                "rounds_completed".to_string(),
                self.rounds_completed.to_value(),
            ),
            ("seed".to_string(), serde::Value::Str(self.seed.to_string())),
            (
                "config_fingerprint".to_string(),
                self.config_fingerprint.to_value(),
            ),
            ("state".to_string(), self.state.to_value()),
            ("history".to_string(), self.history.to_value()),
            ("comm".to_string(), self.comm.to_value()),
        ])
    }
}

impl Deserialize for Checkpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        use serde::derive_support::field;
        let entries = value.as_object().ok_or_else(|| {
            serde::Error::custom(format!("expected object, found {}", value.kind()))
        })?;
        let seed_text: String = field(entries, "seed")?;
        let seed = seed_text.parse::<u64>().map_err(|_| {
            serde::Error::custom(format!("field `seed`: invalid u64 `{seed_text}`"))
        })?;
        Ok(Self {
            version: field(entries, "version")?,
            algorithm: field(entries, "algorithm")?,
            rounds_completed: field(entries, "rounds_completed")?,
            seed,
            config_fingerprint: field(entries, "config_fingerprint")?,
            state: field(entries, "state")?,
            history: field(entries, "history")?,
            comm: field(entries, "comm")?,
        })
    }
}

impl Checkpoint {
    /// Assembles a [`CHECKPOINT_VERSION`] checkpoint from its parts. Most
    /// callers should
    /// use [`Simulation::checkpoint`](crate::engine::Simulation::checkpoint),
    /// which fills in the seed and configuration fingerprint.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        algorithm: impl Into<String>,
        rounds_completed: usize,
        seed: u64,
        config_fingerprint: impl Into<String>,
        state: AlgorithmState,
        history: TrainingHistory,
        comm: CommTracker,
    ) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            algorithm: algorithm.into(),
            rounds_completed,
            seed,
            config_fingerprint: config_fingerprint.into(),
            state,
            history,
            comm,
        }
    }

    /// Number of scalar parameters of the checkpointed model(s).
    pub fn param_count(&self) -> usize {
        self.state.param_count()
    }

    /// Locates the first non-finite scalar in the checkpoint, if any.
    ///
    /// JSON has no representation for NaN/inf (the serde shim, like real
    /// serde_json's lossy writers, emits `null`), so a checkpoint containing
    /// one would save "successfully" yet be unloadable — and the atomic
    /// rename would have destroyed the last good checkpoint to store it.
    /// [`Checkpoint::save`] therefore refuses such state up front.
    fn first_non_finite(&self) -> Option<String> {
        let scan = |values: &[f32]| values.iter().position(|v| !v.is_finite());
        for (slot, model) in self.state.models.iter().enumerate() {
            if let Some(i) = scan(model) {
                return Some(format!("model {slot}, parameter {i}"));
            }
        }
        for (name, vector) in &self.state.aux {
            if let Some(i) = scan(vector) {
                return Some(format!("auxiliary vector `{name}`, entry {i}"));
            }
        }
        for (name, table) in &self.state.client_tables {
            for (client, vector) in table {
                if let Some(i) = scan(vector) {
                    return Some(format!("client table `{name}`, client {client}, entry {i}"));
                }
            }
        }
        for record in self.history.records() {
            if ![record.accuracy, record.test_loss, record.train_loss]
                .iter()
                .all(|v| v.is_finite())
            {
                return Some(format!("history record for round {}", record.round));
            }
        }
        None
    }

    /// Serialises the checkpoint as pretty JSON to `path` **atomically**,
    /// creating parent directories as needed.
    ///
    /// The bytes are written to a sibling temporary file (`<name>.tmp`),
    /// flushed to disk, and renamed over `path`. A crash at any point leaves
    /// either the previous checkpoint or the new one — never a truncated or
    /// interleaved file. (Concurrent saves to the same path are not
    /// supported; the temp name is deterministic.)
    ///
    /// # Errors
    /// Fails with [`io::ErrorKind::InvalidData`] — without touching the
    /// filesystem — when the checkpoint contains a non-finite scalar, which
    /// JSON cannot represent (see `Checkpoint::first_non_finite`'s
    /// rationale): a diverged run must not overwrite its last good
    /// checkpoint with an unloadable file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        // Refuse before touching the filesystem: a NaN/inf (diverged
        // training) would serialise to JSON `null`, "successfully" replacing
        // the last good checkpoint with an unloadable one.
        if let Some(what) = self.first_non_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("refusing to save checkpoint: non-finite value in {what} (diverged training?)"),
            ));
        }
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let json = serde_json::to_string_pretty(self)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let write_result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(json.as_bytes())?;
            // Flush to stable storage before the rename makes it visible, so
            // the renamed file can never be seen partially written.
            file.sync_all()
        })();
        if let Err(err) = write_result {
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        let renamed = fs::rename(&tmp, path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }

    /// Loads a checkpoint previously written by [`Checkpoint::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundRecord;

    fn sample_history() -> TrainingHistory {
        let mut history = TrainingHistory::new();
        history.push(RoundRecord {
            round: 0,
            accuracy: 0.2,
            test_loss: 2.1,
            train_loss: 2.3,
        });
        history.push(RoundRecord {
            round: 5,
            accuracy: 0.5,
            test_loss: 1.4,
            train_loss: 1.2,
        });
        history
    }

    fn sample_comm() -> CommTracker {
        let mut comm = CommTracker::new();
        comm.record_model_roundtrip(3);
        comm.record_extra_download(7);
        comm.end_round();
        comm
    }

    fn checkpoint_with_state(state: AlgorithmState) -> Checkpoint {
        Checkpoint::new(
            "test-algo",
            6,
            42,
            "fnv1a:0123456789abcdef",
            state,
            sample_history(),
            sample_comm(),
        )
    }

    #[test]
    fn single_model_checkpoint_round_trips_through_json() {
        let state = AlgorithmState::single_model(ParamBlock::from(vec![0.5f32, -1.0, 2.0]));
        let checkpoint = checkpoint_with_state(state);
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-single");
        let path = dir.join("ckpt.json");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored, checkpoint);
        assert_eq!(restored.version, CHECKPOINT_VERSION);
        assert_eq!(restored.param_count(), 3);
        assert_eq!(restored.history.len(), 2);
        assert_eq!(restored.comm, sample_comm());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn multi_model_state_preserves_slot_order_and_aux_tables() {
        let models = vec![
            ParamBlock::from(vec![1.0f32, 2.0]),
            ParamBlock::from(vec![3.0f32, 4.0]),
            ParamBlock::from(vec![5.0f32, 6.0]),
        ];
        let state = AlgorithmState::multi_model(models.clone())
            .with_aux("server_control", vec![0.5, -0.5])
            .with_client_table("controls", vec![(4, vec![1.0, 1.0]), (1, vec![2.0, 2.0])]);
        let checkpoint = checkpoint_with_state(state);
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-multi");
        let path = dir.join("ckpt.json");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored.state.models, models);
        assert_eq!(restored.state.expect_aux("server_control", 2).unwrap(), &[0.5, -0.5]);
        // Builder sorted the table by client id.
        let table = restored.state.expect_client_table("controls", 8, 2).unwrap();
        assert_eq!(table[0].0, 1);
        assert_eq!(table[1].0, 4);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_round_trip_is_bitwise_exact_for_awkward_floats() {
        // Values with no short decimal representation must still round-trip
        // to the exact same f32 bits — the resume plane's core requirement.
        let awkward: Vec<f32> = vec![
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            -0.123_456_79,
            1e-38,
            3.402_823e38,
            -0.0,
        ];
        let state = AlgorithmState::single_model(ParamBlock::from(awkward.clone()))
            .with_aux("aux", awkward.clone());
        let checkpoint = checkpoint_with_state(state);
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-bitwise");
        let path = dir.join("ckpt.json");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        for (a, b) in awkward.iter().zip(restored.state.models[0].as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} changed bits through JSON");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn state_validation_rejects_mismatches() {
        let state = AlgorithmState::multi_model(vec![
            ParamBlock::from(vec![1.0f32, 2.0]),
            ParamBlock::from(vec![3.0f32, 4.0]),
        ])
        .with_aux("teacher", vec![0.0, 0.0])
        .with_client_table("updates", vec![(3, vec![1.0, 1.0])]);

        assert!(state.expect_single_model(2).is_err(), "two models are not one");
        assert!(state.expect_models(3, 2).is_err(), "K mismatch must fail");
        assert!(state.expect_models(2, 5).is_err(), "dim mismatch must fail");
        assert!(state.expect_models(2, 2).is_ok());
        assert!(state.expect_aux("teacher", 3).is_err());
        assert!(state.expect_aux("missing", 2).is_err());
        assert!(state.expect_client_table("updates", 2, 2).is_err(), "client 3 of 2");
        assert!(state.expect_client_table("updates", 8, 3).is_err(), "dim mismatch");
        assert!(state.expect_client_table("updates", 8, 2).is_ok());

        let single = AlgorithmState::single_model(ParamBlock::from(vec![1.0f32, 2.0]));
        assert!(single.expect_single_model(2).is_ok());
        assert!(single.expect_single_model(3).is_err());
    }

    #[test]
    fn u64_fields_survive_json_beyond_2_pow_53() {
        // JSON numbers in the serde shim are f64-backed, so the seed and the
        // communication counters travel as decimal strings; values above
        // 2^53 (where f64 loses integer precision) must round-trip exactly.
        let comm = CommTracker {
            model_download: (1u64 << 60) + 1,
            model_upload: u64::MAX,
            extra_download: 3,
            extra_upload: 4,
            rounds: 5,
            client_contacts: (1u64 << 53) + 1,
        };
        let checkpoint = Checkpoint::new(
            "test-algo",
            1,
            u64::MAX - 2,
            "fnv1a:0123456789abcdef",
            AlgorithmState::single_model(ParamBlock::from(vec![0.0f32])),
            TrainingHistory::new(),
            comm.clone(),
        );
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-u64");
        let path = dir.join("ckpt.json");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored.seed, u64::MAX - 2);
        assert_eq!(restored.comm, comm);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn records_round_trip_losslessly_and_validate() {
        // u64 beyond 2^53 and f64 values with no exact decimal rendering must
        // survive the JSON round trip bit for bit — this is what the DP
        // accountant's spent budget and the upload counters rely on.
        let spent = [1.0f64 / 3.0, f64::MIN_POSITIVE, -0.0, 2.5e-300];
        let state = AlgorithmState::single_model(ParamBlock::from(vec![0.0f32]))
            .with_record("counters", vec![encode_u64(u64::MAX), encode_u64(0)])
            .with_record("budget", spent.iter().copied().map(encode_f64).collect());
        let checkpoint = checkpoint_with_state(state);
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-records");
        let path = dir.join("ckpt.json");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored, checkpoint);

        let counters = restored.state.expect_record("counters", 2).unwrap();
        assert_eq!(decode_u64(&counters[0]).unwrap(), u64::MAX);
        assert_eq!(decode_u64(&counters[1]).unwrap(), 0);
        let budget = restored.state.expect_record("budget", 4).unwrap();
        for (text, original) in budget.iter().zip(spent) {
            assert_eq!(decode_f64(text).unwrap().to_bits(), original.to_bits());
        }

        // Validation: wrong length, missing name, malformed encodings.
        assert!(restored.state.expect_record("counters", 3).is_err());
        assert!(restored.state.expect_record("missing", 1).is_err());
        assert!(restored.state.record("missing").is_none());
        assert!(decode_u64("not a number").is_err());
        assert!(decode_u64("-1").is_err());
        assert!(decode_f64("0.5").is_err(), "missing prefix must be rejected");
        assert!(decode_f64("f64:xyz").is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_client_table_with_duplicate_or_unsorted_ids_is_rejected() {
        // A hand-edited/corrupt checkpoint with two entries for one client
        // would otherwise restore last-entry-wins — silently partial.
        let duplicated = AlgorithmState {
            client_tables: vec![(
                "controls".to_string(),
                vec![(3, vec![1.0]), (3, vec![2.0])],
            )],
            ..Default::default()
        };
        let err = duplicated
            .expect_client_table("controls", 8, 1)
            .expect_err("duplicate ids must fail");
        assert!(err.to_string().contains("strictly sorted"), "{err}");

        let unsorted = AlgorithmState {
            client_tables: vec![(
                "controls".to_string(),
                vec![(5, vec![1.0]), (2, vec![2.0])],
            )],
            ..Default::default()
        };
        assert!(unsorted.expect_client_table("controls", 8, 1).is_err());
    }

    #[test]
    fn save_is_atomic_a_failed_write_never_touches_the_existing_checkpoint() {
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let first = checkpoint_with_state(AlgorithmState::single_model(ParamBlock::from(vec![
            1.0f32, 2.0,
        ])));
        first.save(&path).expect("initial save succeeds");

        // Simulate a crash mid-save: make the temp-file write fail by
        // occupying the (deterministic) temp path with a directory. The
        // existing checkpoint must survive untouched.
        let tmp = dir.join("ckpt.json.tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let second = checkpoint_with_state(AlgorithmState::single_model(ParamBlock::from(vec![
            9.0f32, 9.0,
        ])));
        assert!(second.save(&path).is_err(), "blocked temp write must error");
        let survivor = Checkpoint::load(&path).expect("original checkpoint still loads");
        assert_eq!(survivor, first, "failed save corrupted the original");

        // With the obstruction gone the save goes through and cleans up.
        std::fs::remove_dir_all(&tmp).unwrap();
        second.save(&path).expect("save succeeds");
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        assert!(!tmp.exists(), "temp file must not be left behind");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_non_finite_checkpoint_is_refused_and_the_previous_one_survives() {
        // JSON cannot represent NaN/inf; saving a diverged state must fail
        // up front instead of atomically replacing the last good checkpoint
        // with a file full of `null`s.
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-nonfinite");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let good = checkpoint_with_state(AlgorithmState::single_model(ParamBlock::from(vec![
            1.0f32, 2.0,
        ])));
        good.save(&path).expect("finite checkpoint saves");

        let diverged = checkpoint_with_state(
            AlgorithmState::single_model(ParamBlock::from(vec![1.0f32, f32::NAN]))
                .with_aux("aux", vec![0.0]),
        );
        let err = diverged.save(&path).expect_err("NaN state must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("model 0, parameter 1"), "{err}");
        assert_eq!(Checkpoint::load(&path).unwrap(), good, "previous checkpoint lost");

        let bad_aux = checkpoint_with_state(
            AlgorithmState::single_model(ParamBlock::from(vec![1.0f32]))
                .with_aux("teacher", vec![f32::INFINITY]),
        );
        let err = bad_aux.save(&path).expect_err("inf aux must be refused");
        assert!(err.to_string().contains("auxiliary vector `teacher`"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn loading_a_missing_file_is_an_error() {
        let missing = std::env::temp_dir().join("fedcross-checkpoint-does-not-exist.json");
        assert!(Checkpoint::load(missing).is_err());
    }

    #[test]
    fn loading_corrupt_json_is_an_invalid_data_error() {
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        std::fs::write(&path, "not json at all").unwrap();
        let err = Checkpoint::load(&path).expect_err("corrupt file must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn loading_deeply_nested_json_is_an_invalid_data_error() {
        // An untrusted file nested far past any stack must be refused, not
        // abort the process with a stack overflow.
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-nested");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        std::fs::write(&path, "[".repeat(100_000)).unwrap();
        let err = Checkpoint::load(&path).expect_err("nested file must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn loading_a_version_1_checkpoint_fails_loudly() {
        // The pre-resume-plane format had no version/state/comm fields; it
        // must be rejected as unreadable, not half-restored.
        let dir = std::env::temp_dir().join("fedcross-checkpoint-test-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        std::fs::write(
            &path,
            r#"{"algorithm":"fedavg","rounds_completed":6,"global_params":[0.5],"middleware":null,"history":{"records":[]}}"#,
        )
        .unwrap();
        let err = Checkpoint::load(&path).expect_err("v1 checkpoint must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(dir);
    }
}
