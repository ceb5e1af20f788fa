//! Fixed benchmark configuration: fleet shape, offered rates, the latency
//! limit, and how each workload splits its measured seconds into phases.
//!
//! Everything here is a constant on purpose: two commits are compared on
//! identical settings, and the only run-time inputs are the workload, the
//! seed, the measured seconds and the trace switch.

use std::fmt;

/// PipeStore servers in the loopback fleet.
pub const STORES: usize = 4;
/// Placement replication factor.
pub const REPLICAS: usize = 2;
/// Open-loop generator threads, each owning one `Infer` session.
pub const GEN_THREADS: usize = 2;
/// `NDPIPE_THREADS`, pinned for the whole process.
pub const NDPIPE_THREADS: usize = 1;
/// `ServerConfig::workers` on every store.
pub const SERVER_WORKERS: usize = 2;
/// Upload latency limit for the capacity search (due time to both
/// replicas acked). It sits well above the stalls of up to ~50 ms a
/// shared 2-vCPU VM shows when the hypervisor takes its CPUs away, so the
/// capacity point marks where the fleet saturates and its backlog grows,
/// not where a stall landed.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// A run is reported only when the generator's p99 wake-up lateness in
/// the light phase stays within the latency limit: a generator later than
/// that could not have offered the schedule, so the run is invalid, not
/// slow. (Lateness below it is already inside each request's latency,
/// which counts from the due time.)
pub const MAX_GEN_LATE_MS: f64 = LATENCY_LIMIT_MS;
/// Fleet set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// A run cycles through its workload's main phases this many times, each
/// pass taking 1/ROUNDS of every phase's share, and pools the samples. The
/// host's speed swings over seconds on a shared VM; interleaving spreads a
/// slow spell over all the phases instead of letting it land on one.
pub const ROUNDS: usize = 4;

/// Uploads per second at the light rate, where batches rarely form. It is
/// also the rate `ingest_during_refresh` offers while the fleet refreshes,
/// so it stays below what the fleet sustains then.
pub const LIGHT_RATE: f64 = 80.0;
/// Uploads per second at the busy rate, about 70% of the capacity a
/// quiet fleet reaches on a 2-core host.
pub const BUSY_RATE: f64 = 400.0;
/// Upload rates of the capacity ladder, ascending; each step gets an
/// equal part of the ladder's share.
pub const LADDER: [f64; 8] = [400.0, 550.0, 700.0, 850.0, 1000.0, 1150.0, 1300.0, 1450.0];
/// Reads of earlier photos offered per upload.
pub const READS_PER_UPLOAD: f64 = 1.0;

/// Feature dimension of the served model and of every upload row.
pub const DIM: usize = 64;

/// Sizes of the generated inputs. `full` is what the benchmark runs;
/// `tiny` keeps the package's own tests fast in a debug build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Photos pre-ingested during set-up.
    pub corpus: usize,
    /// Smallest and largest photo blob, bytes (log-uniform between).
    pub blob_bytes: (usize, usize),
    /// Smallest and largest preprocessed sidecar before compression.
    pub sidecar_bytes: (usize, usize),
    /// Classes of the day-0 label space.
    pub classes: usize,
    /// Pool the deployed (outdated) model was trained on.
    pub initial_pool: usize,
    /// Epochs the deployed model was trained for.
    pub initial_epochs: usize,
    /// Days of drift between deployment and the refresh.
    pub drift_days: usize,
    /// Daily drift rate of the class prototypes.
    pub daily_drift: f32,
    /// Class-overlap noise.
    pub noise: f32,
    /// Rows of drifted training data across all shards.
    pub train_rows: usize,
    /// Rows of the held-out drifted test set.
    pub test_rows: usize,
    /// FT-DMP rounds per refresh cycle.
    pub rounds: usize,
    /// FT-DMP pipeline runs per round.
    pub n_run: usize,
    /// Tuner epochs per pipeline run.
    pub epochs_per_run: usize,
    /// Rows per extraction micro-batch.
    pub micro_batch: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            corpus: 1000,
            blob_bytes: (1 << 10, 16 << 10),
            sidecar_bytes: (4 << 10, 16 << 10),
            classes: 32,
            initial_pool: 3200,
            initial_epochs: 10,
            drift_days: 10,
            daily_drift: 0.25,
            noise: 1.0,
            train_rows: 4800,
            test_rows: 2400,
            rounds: 1,
            n_run: 3,
            epochs_per_run: 3,
            micro_batch: 64,
        }
    }

    /// Small sizes for the package's tests.
    pub fn tiny() -> Self {
        Sizes {
            corpus: 60,
            blob_bytes: (256, 2048),
            sidecar_bytes: (512, 2048),
            classes: 16,
            initial_pool: 800,
            initial_epochs: 8,
            drift_days: 10,
            daily_drift: 0.25,
            noise: 1.0,
            train_rows: 800,
            test_rows: 600,
            rounds: 1,
            n_run: 2,
            epochs_per_run: 3,
            micro_batch: 32,
        }
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop uploads and reads on a quiet fleet: light, busy, ladder.
    Ingest,
    /// Back-to-back refresh cycles on a quiet fleet.
    Refresh,
    /// The light upload stream while the refresh loop runs.
    IngestDuringRefresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ingest,
        Workload::Refresh,
        Workload::IngestDuringRefresh,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Refresh => "refresh",
            Workload::IngestDuringRefresh => "ingest_during_refresh",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The main phases, with each one's share of the measured seconds. A
    /// run goes through them [`ROUNDS`] times, each time for 1/ROUNDS of
    /// every share, and pools the samples.
    pub fn phases(self) -> &'static [(Phase, f64)] {
        match self {
            Workload::Ingest => &[(Phase::RefreshLoop, 0.15), (Phase::Light, 0.45)],
            Workload::Refresh => &[(Phase::RefreshLoop, 0.50), (Phase::Light, 0.20)],
            Workload::IngestDuringRefresh => &[(Phase::LightDuringRefresh, 0.65)],
        }
    }

    /// The probe phases, run once after the rounds: the busy rate and the
    /// capacity ladder on a quiet fleet. They store many photos, so they
    /// come last, where the corpus they add cannot slow a refresh cycle
    /// of the main phases.
    pub fn probes(self) -> &'static [(Probe, f64)] {
        match self {
            Workload::Ingest => &[(Probe::Busy, 0.15), (Probe::Ladder, 0.25)],
            Workload::Refresh => &[(Probe::Busy, 0.10), (Probe::Ladder, 0.20)],
            Workload::IngestDuringRefresh => &[(Probe::Busy, 0.15), (Probe::Ladder, 0.20)],
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A main phase of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Uploads and reads at [`LIGHT_RATE`].
    Light,
    /// The light phase while back-to-back refresh cycles run.
    LightDuringRefresh,
    /// Back-to-back refresh cycles with no upload traffic.
    RefreshLoop,
}

/// A probe phase, run once after the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Uploads and reads at [`BUSY_RATE`].
    Busy,
    /// The [`LADDER`] of rising rates, for the capacity point.
    Ladder,
}
