//! Session checkpointing: [`Snapshot`] codecs for the core search types
//! and the on-disk checkpoint container a [`SearchSession`] writes while
//! running and reads back when resuming.
//!
//! A checkpoint captures everything the search loop needs to continue
//! bit-identically after a crash: the configuration (strategy, search
//! parameters, reward), the full evaluated history, the session RNG
//! stream and the controller (weights, Adam moments and baseline — RL
//! only). Files are written atomically via
//! [`SnapshotBuilder::write_atomic`], so a crash mid-write leaves the
//! previous checkpoint intact.
//!
//! [`SearchSession`]: crate::session::SearchSession

use crate::error::Error;
use crate::evaluation::Evaluation;
use crate::reward::{Constraints, NonFiniteMetric, RewardConfig, RewardForm};
use crate::search::{QuarantineEntry, SearchConfig, SearchRecord};
use crate::session::Strategy;
use std::path::{Path, PathBuf};
use yoso_arch::DesignPoint;
use yoso_controller::Controller;
use yoso_persist::{
    ByteReader, ByteWriter, PersistError, Snapshot, SnapshotArchive, SnapshotBuilder,
};

/// The container kind string of session checkpoints.
pub const CHECKPOINT_KIND: &str = "yoso.session";

/// Prefix of checkpoint file names (`ckpt_00000015.snap`).
const CKPT_PREFIX: &str = "ckpt_";
/// Extension of checkpoint file names.
const CKPT_SUFFIX: &str = ".snap";

/// The checkpoint file name for a given iteration count.
pub fn checkpoint_file_name(iteration: usize) -> String {
    format!("{CKPT_PREFIX}{iteration:08}{CKPT_SUFFIX}")
}

/// The newest checkpoint (highest iteration) in a directory, or `None`
/// when the directory holds no checkpoint files.
///
/// # Errors
///
/// Returns [`Error::Persist`] when the directory cannot be read.
pub fn latest_checkpoint(dir: impl AsRef<Path>) -> Result<Option<PathBuf>, Error> {
    let mut best: Option<(String, PathBuf)> = None;
    for entry in std::fs::read_dir(dir.as_ref())? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(CKPT_PREFIX) && name.ends_with(CKPT_SUFFIX) {
            // Zero-padded fixed-width iteration numbers sort lexically.
            if best.as_ref().is_none_or(|(b, _)| name > *b) {
                best = Some((name, entry.path()));
            }
        }
    }
    Ok(best.map(|(_, p)| p))
}

impl Snapshot for Strategy {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            Strategy::Rl => 0,
            Strategy::Evolution => 1,
            Strategy::Random => 2,
        });
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(Strategy::Rl),
            1 => Ok(Strategy::Evolution),
            2 => Ok(Strategy::Random),
            t => Err(PersistError::Malformed(format!("strategy tag {t}"))),
        }
    }
}

impl Snapshot for Evaluation {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.accuracy);
        w.put_f64(self.latency_ms);
        w.put_f64(self.energy_mj);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Evaluation {
            accuracy: r.take_f64()?,
            latency_ms: r.take_f64()?,
            energy_mj: r.take_f64()?,
        })
    }
}

impl Snapshot for SearchRecord {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.iteration);
        self.point.snapshot(w);
        self.eval.snapshot(w);
        w.put_f64(self.reward);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(SearchRecord {
            iteration: r.take_usize()?,
            point: DesignPoint::restore(r)?,
            eval: Evaluation::restore(r)?,
            reward: r.take_f64()?,
        })
    }
}

impl Snapshot for NonFiniteMetric {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            NonFiniteMetric::Accuracy => 0,
            NonFiniteMetric::LatencyMs => 1,
            NonFiniteMetric::EnergyMj => 2,
            NonFiniteMetric::Reward => 3,
        });
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(NonFiniteMetric::Accuracy),
            1 => Ok(NonFiniteMetric::LatencyMs),
            2 => Ok(NonFiniteMetric::EnergyMj),
            3 => Ok(NonFiniteMetric::Reward),
            t => Err(PersistError::Malformed(format!(
                "non-finite-metric tag {t}"
            ))),
        }
    }
}

impl Snapshot for QuarantineEntry {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.iteration);
        self.point.snapshot(w);
        match &self.actions {
            Some(actions) => {
                w.put_bool(true);
                w.put_usize(actions.len());
                for &a in actions {
                    w.put_usize(a);
                }
            }
            None => w.put_bool(false),
        }
        self.eval.snapshot(w);
        self.reason.snapshot(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let iteration = r.take_usize()?;
        let point = DesignPoint::restore(r)?;
        let actions = if r.take_bool()? {
            let n = r.take_usize()?;
            let mut actions = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                actions.push(r.take_usize()?);
            }
            Some(actions)
        } else {
            None
        };
        Ok(QuarantineEntry {
            iteration,
            point,
            actions,
            eval: Evaluation::restore(r)?,
            reason: NonFiniteMetric::restore(r)?,
        })
    }
}

impl Snapshot for SearchConfig {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.iterations);
        w.put_usize(self.rollouts_per_update);
        w.put_u64(self.seed);
        w.put_usize(self.population);
        w.put_usize(self.tournament);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(SearchConfig {
            iterations: r.take_usize()?,
            rollouts_per_update: r.take_usize()?,
            seed: r.take_u64()?,
            population: r.take_usize()?,
            tournament: r.take_usize()?,
        })
    }
}

impl Snapshot for Constraints {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.t_lat_ms);
        w.put_f64(self.t_eer_mj);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Constraints {
            t_lat_ms: r.take_f64()?,
            t_eer_mj: r.take_f64()?,
        })
    }
}

impl Snapshot for RewardForm {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            RewardForm::WeightedProduct => 0,
            RewardForm::Additive => 1,
        });
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(RewardForm::WeightedProduct),
            1 => Ok(RewardForm::Additive),
            t => Err(PersistError::Malformed(format!("reward-form tag {t}"))),
        }
    }
}

impl Snapshot for RewardConfig {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_f64(self.alpha1);
        w.put_f64(self.omega1);
        w.put_f64(self.alpha2);
        w.put_f64(self.omega2);
        self.constraints.snapshot(w);
        self.form.snapshot(w);
        w.put_bool(self.hard_constraints);
        w.put_bool(self.saturate_below_threshold);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(RewardConfig {
            alpha1: r.take_f64()?,
            omega1: r.take_f64()?,
            alpha2: r.take_f64()?,
            omega2: r.take_f64()?,
            constraints: Constraints::restore(r)?,
            form: RewardForm::restore(r)?,
            hard_constraints: r.take_bool()?,
            saturate_below_threshold: r.take_bool()?,
        })
    }
}

/// Everything a [`SearchSession`] needs to continue a run: strategy,
/// configuration, reward, evaluated history, RNG stream and (for RL)
/// the controller.
///
/// [`SearchSession`]: crate::session::SearchSession
pub struct SessionCheckpoint {
    /// Which search algorithm the run uses.
    pub strategy: Strategy,
    /// `Evaluator::name()` of the evaluator the run used; resume
    /// validates it against the newly supplied evaluator.
    pub evaluator: String,
    /// The checkpoint cadence the run was configured with (0 = none).
    pub checkpoint_every: usize,
    /// Search-loop parameters.
    pub config: SearchConfig,
    /// Reward configuration.
    pub reward: RewardConfig,
    /// REINFORCE updates applied so far (RL only; 0 otherwise).
    pub update_index: u64,
    /// Every candidate evaluated so far, in order.
    pub history: Vec<SearchRecord>,
    /// Candidates quarantined for non-finite metrics so far (empty on a
    /// fault-free run; stored as an optional section, so fault-free
    /// checkpoints are byte-identical to pre-fault-tolerance ones).
    pub quarantine: Vec<QuarantineEntry>,
    /// The session RNG stream (xoshiro256++ state).
    pub rng_state: [u64; 4],
    /// The LSTM controller — weights, Adam moments, baseline (RL only).
    pub controller: Option<Controller>,
}

/// A borrowed view of the session state to checkpoint — what the search
/// loop hands to [`CheckpointWriter::write_to`] at each boundary without
/// cloning the history or the controller.
pub struct CheckpointWriter<'a> {
    /// Which search algorithm the run uses.
    pub strategy: Strategy,
    /// `Evaluator::name()` of the running evaluator.
    pub evaluator: &'a str,
    /// The configured checkpoint cadence (0 = none).
    pub checkpoint_every: usize,
    /// Search-loop parameters.
    pub config: &'a SearchConfig,
    /// Reward configuration.
    pub reward: &'a RewardConfig,
    /// REINFORCE updates applied so far.
    pub update_index: u64,
    /// Every candidate evaluated so far.
    pub history: &'a [SearchRecord],
    /// The quarantine ledger (written only when non-empty).
    pub quarantine: &'a [QuarantineEntry],
    /// The session RNG stream.
    pub rng_state: [u64; 4],
    /// The LSTM controller (RL only).
    pub controller: Option<&'a Controller>,
}

impl CheckpointWriter<'_> {
    /// Serializes and writes the checkpoint atomically.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the file cannot be written.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let mut b = SnapshotBuilder::new(CHECKPOINT_KIND);
        b.section("meta", |w| {
            self.strategy.snapshot(w);
            w.put_str(self.evaluator);
            w.put_usize(self.checkpoint_every);
            w.put_u64(self.update_index);
        });
        b.put("config", self.config);
        b.put("reward", self.reward);
        b.section("history", |w| {
            w.put_usize(self.history.len());
            for rec in self.history {
                rec.snapshot(w);
            }
        });
        if !self.quarantine.is_empty() {
            b.section("quarantine", |w| {
                w.put_usize(self.quarantine.len());
                for q in self.quarantine {
                    q.snapshot(w);
                }
            });
        }
        b.section("rng", |w| w.put_u64s(&self.rng_state));
        if let Some(ctrl) = self.controller {
            b.put("controller", ctrl);
        }
        b.write_atomic(path)
    }
}

impl SessionCheckpoint {
    /// Serializes and writes the checkpoint atomically.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the file cannot be written.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        CheckpointWriter {
            strategy: self.strategy,
            evaluator: &self.evaluator,
            checkpoint_every: self.checkpoint_every,
            config: &self.config,
            reward: &self.reward,
            update_index: self.update_index,
            history: &self.history,
            quarantine: &self.quarantine,
            rng_state: self.rng_state,
            controller: self.controller.as_ref(),
        }
        .write_to(path)
    }

    /// Reads a checkpoint back.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on I/O failure, checksum mismatch,
    /// truncation or any malformed section.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let archive = SnapshotArchive::read(path)?;
        if archive.kind() != CHECKPOINT_KIND {
            return Err(PersistError::Malformed(format!(
                "expected a `{CHECKPOINT_KIND}` snapshot, found `{}`",
                archive.kind()
            )));
        }
        let mut meta = archive.section("meta")?;
        let strategy = Strategy::restore(&mut meta)?;
        let evaluator = meta.take_str()?;
        let checkpoint_every = meta.take_usize()?;
        let update_index = meta.take_u64()?;
        let config: SearchConfig = archive.get("config")?;
        let reward: RewardConfig = archive.get("reward")?;
        let mut hist = archive.section("history")?;
        let n = hist.take_usize()?;
        let mut history = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            history.push(SearchRecord::restore(&mut hist)?);
        }
        let mut rng = archive.section("rng")?;
        let rng_state: [u64; 4] = rng
            .take_u64s()?
            .try_into()
            .map_err(|_| PersistError::Malformed("rng state is not 4 words".into()))?;
        let quarantine = if archive.has("quarantine") {
            let mut q = archive.section("quarantine")?;
            let n = q.take_usize()?;
            let mut entries = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                entries.push(QuarantineEntry::restore(&mut q)?);
            }
            entries
        } else {
            Vec::new()
        };
        let controller = if archive.has("controller") {
            Some(archive.get("controller")?)
        } else {
            None
        };
        Ok(SessionCheckpoint {
            strategy,
            evaluator,
            checkpoint_every,
            config,
            reward,
            update_index,
            history,
            quarantine,
            rng_state,
            controller,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_history(n: usize) -> Vec<SearchRecord> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..n)
            .map(|i| SearchRecord {
                iteration: i,
                point: DesignPoint::random(&mut rng),
                eval: Evaluation {
                    accuracy: 0.5 + i as f64 * 1e-3,
                    latency_ms: 1.0 + i as f64,
                    energy_mj: 2.0 + i as f64,
                },
                reward: 0.25 * i as f64,
            })
            .collect()
    }

    fn sample_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            strategy: Strategy::Evolution,
            evaluator: "surrogate".into(),
            checkpoint_every: 5,
            config: SearchConfig::builder().iterations(40).seed(3).build(),
            reward: RewardConfig::balanced(Constraints::paper()),
            update_index: 0,
            history: sample_history(12),
            quarantine: Vec::new(),
            rng_state: [1, 2, 3, 4],
            controller: None,
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("yoso-ckpt-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(checkpoint_file_name(12));
        let ck = sample_checkpoint();
        ck.write_to(&path).unwrap();
        let back = SessionCheckpoint::read_from(&path).unwrap();
        assert_eq!(back.strategy, ck.strategy);
        assert_eq!(back.evaluator, ck.evaluator);
        assert_eq!(back.checkpoint_every, ck.checkpoint_every);
        assert_eq!(back.config, ck.config);
        assert_eq!(back.reward, ck.reward);
        assert_eq!(back.history, ck.history);
        assert_eq!(back.rng_state, ck.rng_state);
        assert!(back.controller.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_with_typed_error() {
        let dir = std::env::temp_dir().join(format!("yoso-ckpt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(checkpoint_file_name(3));
        sample_checkpoint().write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SessionCheckpoint::read_from(&path),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        // Truncation is equally typed, never a panic.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(SessionCheckpoint::read_from(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_section_roundtrips_raw_non_finite_observations() {
        let dir = std::env::temp_dir().join(format!("yoso-ckpt-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(checkpoint_file_name(9));
        let mut rng = StdRng::seed_from_u64(11);
        let mut ck = sample_checkpoint();
        ck.quarantine = vec![
            QuarantineEntry {
                iteration: 3,
                point: DesignPoint::random(&mut rng),
                actions: Some(vec![1, 4, 0, 7]),
                eval: Evaluation {
                    accuracy: 0.9,
                    latency_ms: f64::NAN,
                    energy_mj: f64::INFINITY,
                },
                reason: NonFiniteMetric::LatencyMs,
            },
            QuarantineEntry {
                iteration: 7,
                point: DesignPoint::random(&mut rng),
                actions: None,
                eval: Evaluation {
                    accuracy: 0.8,
                    latency_ms: 1.0,
                    energy_mj: 2.0,
                },
                reason: NonFiniteMetric::Reward,
            },
        ];
        ck.write_to(&path).unwrap();
        let back = SessionCheckpoint::read_from(&path).unwrap();
        // QuarantineEntry equality is bit-exact on the raw evaluation, so
        // NaN/Inf observations survive the disk roundtrip comparably.
        assert_eq!(back.quarantine, ck.quarantine);
        // A fault-free checkpoint omits the section entirely.
        ck.quarantine.clear();
        ck.write_to(&path).unwrap();
        let back = SessionCheckpoint::read_from(&path).unwrap();
        assert!(back.quarantine.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_checkpoint_picks_highest_iteration() {
        let dir = std::env::temp_dir().join(format!("yoso-ckpt-latest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(latest_checkpoint(&dir).unwrap().is_none());
        for it in [5usize, 25, 10] {
            sample_checkpoint()
                .write_to(dir.join(checkpoint_file_name(it)))
                .unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let latest = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(
            latest.file_name().unwrap().to_string_lossy(),
            checkpoint_file_name(25)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = std::env::temp_dir().join(format!("yoso-ckpt-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other.snap");
        let mut b = SnapshotBuilder::new("yoso.other");
        b.section("meta", |w| w.put_u8(0));
        b.write_atomic(&path).unwrap();
        assert!(matches!(
            SessionCheckpoint::read_from(&path),
            Err(PersistError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn core_types_roundtrip_bit_identically() {
        let mut w = ByteWriter::new();
        let cfg = SearchConfig::builder()
            .iterations(123)
            .rollouts_per_update(7)
            .seed(99)
            .population(31)
            .tournament(9)
            .build();
        cfg.snapshot(&mut w);
        let mut rc = RewardConfig::latency_focused(Constraints {
            t_lat_ms: 0.125,
            t_eer_mj: 7.75,
        });
        rc.form = RewardForm::Additive;
        rc.hard_constraints = true;
        rc.snapshot(&mut w);
        Strategy::Random.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(SearchConfig::restore(&mut r).unwrap(), cfg);
        assert_eq!(RewardConfig::restore(&mut r).unwrap(), rc);
        assert_eq!(Strategy::restore(&mut r).unwrap(), Strategy::Random);
        assert_eq!(r.remaining(), 0);
    }
}
