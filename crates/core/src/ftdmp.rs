//! FT-DMP: fine-tuning-based data & model parallelism (§5.1–§5.2).
//!
//! The weight-freeze prefix of the model runs replicated on every
//! PipeStore (data parallelism, no synchronization needed — frozen
//! weights never change), and the trainable tail runs solely on the Tuner
//! (model parallelism with all updates local). The pipelined variant
//! splits the data into `N_run` sub-datasets: while the Tuner trains on
//! run *r*, PipeStores already extract features for run *r + 1*
//! (Fig 10b).
//!
//! One scheduler implements that overlap as a 1F1B-style micro-batch
//! schedule: each run's per-store slice is further split into
//! micro-batches that executors extract (with work stealing across
//! shards), while the Tuner trains runs in order on the caller thread as
//! soon as their features are complete. It is generic over a
//! `ShardSource`: [`ftdmp_fine_tune`] runs it over in-process worker
//! threads, `Cluster::ftdmp_fine_tune_pipelined` over PipeStore peers on
//! sockets. A staleness bound `S` ([`FtdmpConfig::staleness`]) caps how
//! many runs extraction may lead training; `S = 0` degenerates to the
//! run-at-a-time barrier schedule, preserved verbatim as
//! [`ftdmp_fine_tune_reference`] — the oracle the equivalence tests pin
//! the pipeline against. Because features depend only on the *frozen*
//! prefix, any `S` produces bit-identical features; the schedule only
//! changes wall-clock overlap, never results.
//!
//! This module is the *functional* implementation: real forward passes,
//! real feature tensors, real SGD on the Tuner. The wall-clock/energy
//! behaviour of the same orchestration at data-center scale is modeled
//! by `cluster::training` and driven from [`crate::apo`].

use crate::checknrun::ModelDelta;
use crate::npe::engine::EngineConfig;
use crate::pipestore::PipeStore;
use crate::tuner::Tuner;
use dnn::TrainConfig;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;
use tensor::Tensor;

/// Why an FT-DMP job was refused before any work started. The historic
/// `assert!` entry checks of [`ftdmp_fine_tune`] surface here instead,
/// so RPC servers and the CLI propagate a diagnosis rather than
/// unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtdmpError {
    /// No PipeStores to extract from.
    NoStores,
    /// `n_run` was zero.
    ZeroRuns,
    /// A store's shard has fewer examples than `N_run` sub-datasets.
    ShardTooSmall {
        /// Offending store id.
        store: usize,
        /// Its shard size.
        shard_len: usize,
        /// The requested pipeline depth.
        n_run: usize,
    },
    /// A shard's label space exceeds the Tuner model's class count;
    /// widen the Tuner model before fine-tuning on new classes.
    ClassOverflow {
        /// Offending store id.
        store: usize,
        /// Classes present in its shard.
        shard_classes: usize,
        /// Classes the model can emit.
        model_classes: usize,
    },
}

impl std::fmt::Display for FtdmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtdmpError::NoStores => write!(f, "need at least one PipeStore"),
            FtdmpError::ZeroRuns => write!(f, "need at least one run"),
            FtdmpError::ShardTooSmall {
                store,
                shard_len,
                n_run,
            } => write!(
                f,
                "store {store} shard smaller than N_run ({shard_len} < {n_run})"
            ),
            FtdmpError::ClassOverflow {
                store,
                shard_classes,
                model_classes,
            } => write!(
                f,
                "store {store} shard has {shard_classes} classes but the model has \
                 {model_classes}: widen the Tuner model before fine-tuning on new classes"
            ),
        }
    }
}

impl std::error::Error for FtdmpError {}

/// Configuration of one distributed fine-tuning job.
#[derive(Debug, Clone, Copy)]
pub struct FtdmpConfig {
    /// Number of pipeline runs (`N_run`); 1 = unpipelined.
    pub n_run: usize,
    /// Tuner epochs over each run's features.
    pub epochs_per_run: usize,
    /// Rows per extraction micro-batch; `0` = auto (each run slice
    /// splits into up to [`AUTO_MICRO_BATCHES`] micro-batches).
    pub micro_batch: usize,
    /// Staleness bound `S`: extraction may lead training by at most `S`
    /// runs. `S = 0` reproduces the run-at-a-time schedule bit-for-bit.
    pub staleness: usize,
    /// Tuner-side SGD hyper-parameters.
    pub train: TrainConfig,
}

/// Micro-batches each run slice splits into when
/// [`FtdmpConfig::micro_batch`] is `0` (auto).
pub const AUTO_MICRO_BATCHES: usize = 4;

impl Default for FtdmpConfig {
    fn default() -> Self {
        FtdmpConfig {
            n_run: 3,
            epochs_per_run: 10,
            micro_batch: 0,
            staleness: 1,
            train: TrainConfig::default(),
        }
    }
}

impl FtdmpConfig {
    /// Number of micro-batches a slice of `slice_len` rows splits into
    /// under this config (≥ 1; auto mode caps at
    /// [`AUTO_MICRO_BATCHES`]).
    pub fn micro_batches_for(&self, slice_len: usize) -> usize {
        if slice_len == 0 {
            return 1;
        }
        if self.micro_batch == 0 {
            slice_len.min(AUTO_MICRO_BATCHES)
        } else {
            slice_len.div_ceil(self.micro_batch)
        }
    }
}

/// Pipeline-schedule observability for one FT-DMP job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScheduleStats {
    /// Micro-batch extraction tasks executed.
    pub micro_batches: usize,
    /// Tasks claimed away from their home store by an idle worker.
    pub steals: usize,
    /// Micro-batches extracted while training still lagged behind their
    /// run (only possible with `S ≥ 1`).
    pub stale_steps: usize,
    /// Seconds the Tuner spent waiting for a run's features to complete
    /// — the pipeline bubble the schedule exists to shrink.
    pub bubble_secs: f64,
}

/// Outcome of a distributed fine-tuning job.
#[derive(Debug, Clone)]
pub struct FtdmpReport {
    /// Final-epoch training loss of each pipeline run.
    pub run_losses: Vec<f32>,
    /// Feature bytes shipped from PipeStores to the Tuner (f32 payload).
    pub feature_bytes: usize,
    /// Wire bytes of the Check-N-Run model redistribution.
    pub distribution_bytes: usize,
    /// Traffic reduction of delta distribution vs full models (per store).
    pub distribution_reduction: f64,
    /// Number of training examples consumed.
    pub examples: usize,
    /// Micro-batch pipeline counters (all zero on the reference
    /// schedule).
    pub schedule: ScheduleStats,
}

/// Checks one shard of `examples` rows over `classes` labels against the
/// job: it must split into `N_run` non-empty runs and fit the model's
/// label space.
pub(crate) fn check_shard(
    store: usize,
    examples: usize,
    classes: usize,
    tuner: &Tuner,
    config: &FtdmpConfig,
) -> Result<(), FtdmpError> {
    if examples < config.n_run {
        return Err(FtdmpError::ShardTooSmall {
            store,
            shard_len: examples,
            n_run: config.n_run,
        });
    }
    if classes > tuner.model().num_classes() {
        return Err(FtdmpError::ClassOverflow {
            store,
            shard_classes: classes,
            model_classes: tuner.model().num_classes(),
        });
    }
    Ok(())
}

fn validate(
    tuner: &Tuner,
    stores: &[PipeStore],
    config: &FtdmpConfig,
) -> Result<(), FtdmpError> {
    if stores.is_empty() {
        return Err(FtdmpError::NoStores);
    }
    if config.n_run == 0 {
        return Err(FtdmpError::ZeroRuns);
    }
    for s in stores {
        check_shard(
            s.id(),
            s.shard_len(),
            s.shard().num_classes(),
            tuner,
            config,
        )?;
    }
    Ok(())
}

fn phase_hist(phase: &str) -> telemetry::Histogram {
    telemetry::global().histogram_with(
        "ndpipe_ftdmp_phase_seconds",
        &[("phase", phase)],
        "wall time of one FT-DMP phase",
    )
}

/// Counters of one finished in-process job (the socket path counts its
/// rounds as `ndpipe_ftdmp_remote_rounds_total` instead).
fn record_local_job(feature_bytes: usize) {
    if !telemetry::enabled() {
        return;
    }
    let g = telemetry::global();
    g.counter(
        "ndpipe_ftdmp_rounds_total",
        "completed in-process FT-DMP fine-tuning rounds",
    )
    .inc();
    g.counter(
        "ndpipe_ftdmp_feature_bytes_total",
        "feature bytes shipped from PipeStores to the Tuner",
    )
    .add(feature_bytes as u64);
}

fn record_schedule(schedule: &ScheduleStats) {
    if !telemetry::enabled() {
        return;
    }
    let g = telemetry::global();
    g.counter(
        "ndpipe_ftdmp_steals_total",
        "FT-DMP micro-batches re-extracted away from their home store",
    )
    .add(schedule.steals as u64);
    g.counter(
        "ndpipe_ftdmp_stale_steps_total",
        "FT-DMP micro-batches extracted ahead of the Tuner's training run",
    )
    .add(schedule.stale_steps as u64);
    g.histogram(
        "ndpipe_ftdmp_bubble_seconds",
        "seconds the Tuner idled waiting for a run's features",
    )
    .observe(schedule.bubble_secs);
}

/// One micro-batch extraction: micro-batch `mb` of `n_mb` within run
/// `run` of `n_run` over node `node`'s shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slice {
    /// Whose shard (a store index in-process, a placement node over
    /// sockets).
    pub node: usize,
    /// Zero-based run index.
    pub run: usize,
    /// Total pipeline runs.
    pub n_run: usize,
    /// Zero-based micro-batch index within the run slice.
    pub mb: usize,
    /// Micro-batches the run slice splits into.
    pub n_mb: usize,
}

impl Slice {
    /// The rows of a `len`-row shard this micro-batch covers. Micro-batches
    /// partition their run slice contiguously, so concatenating them in
    /// `mb` order reproduces one whole-run extraction bit for bit. Empty
    /// when `n_run` or `n_mb` is zero.
    pub fn rows(&self, len: usize) -> Range<usize> {
        if self.n_run == 0 || self.n_mb == 0 {
            return 0..0;
        }
        let lo = self.run * len / self.n_run;
        let hi = (self.run + 1) * len / self.n_run;
        let span = hi.saturating_sub(lo);
        lo + self.mb * span / self.n_mb..lo + (self.mb + 1) * span / self.n_mb
    }
}

/// One finished extraction, tagged with the executor that ran it.
pub(crate) struct Extracted<F> {
    pub executor: usize,
    /// Features, labels, and the bytes moving them cost.
    pub result: Result<(Tensor, Vec<usize>, usize), F>,
}

/// Where the FT-DMP scheduler gets features and sends deltas: a set of
/// *executors* (cluster peers, in-process worker threads) that extract
/// micro-batches from *nodes'* shards. Every node has a home executor;
/// other executors may serve it when they hold its shard.
pub(crate) trait ShardSource: Send {
    /// Why an executor dropped out of the job.
    type Failure: Send;
    /// Extractions one executor keeps in flight: enough to hide its
    /// round trip, few enough that a steal can rebalance the tail.
    const WINDOW: usize;

    /// Executors are `0..executors()`.
    fn executors(&self) -> usize;
    /// The executor whose own shard `node` is.
    fn home(&self, node: usize) -> usize;
    /// Whether `executor` holds `node`'s shard (its own or a replica).
    fn can_serve(&self, executor: usize, node: usize) -> bool;
    /// Queues `slice` on `executor` without waiting for it. Results come
    /// back through [`ShardSource::next_extracted`], in dispatch order
    /// per executor.
    fn extract_slice(&mut self, executor: usize, slice: Slice) -> Result<(), Self::Failure>;
    /// Blocks for the next finished extraction; `None` once none can
    /// arrive.
    fn next_extracted(&mut self) -> Option<Extracted<Self::Failure>>;
    /// Starts shipping `delta` to `executors` without waiting for acks.
    fn apply_delta(&mut self, delta: &ModelDelta, executors: &[usize]);
    /// Waits for every delta started so far: distribution bytes per
    /// acking executor, a failure per refusing one.
    fn settle_deltas(&mut self) -> Vec<(usize, Result<usize, Self::Failure>)>;
    /// Whether the job may continue with `live` executors after
    /// `failed` failures.
    fn admits(&self, live: usize, failed: usize) -> bool;
    /// The failure recorded when no live executor can serve `node`.
    fn orphaned(&self, node: usize) -> Self::Failure;
}

/// What the scheduler starts from.
pub(crate) struct Plan<F> {
    /// Nodes to train on, ascending, with their shard sizes in rows.
    pub shards: BTreeMap<usize, usize>,
    /// Executors holding the current master, ascending.
    pub live: Vec<usize>,
    /// Failures so far; they count against [`ShardSource::admits`].
    pub failures: Vec<F>,
}

/// A finished schedule.
pub(crate) struct Scheduled<F> {
    pub report: FtdmpReport,
    pub failures: Vec<F>,
    /// Executors still live at the end.
    pub live: Vec<usize>,
    /// Micro-batches served for a node whose home executor was dead.
    pub reroutes: u64,
}

/// Why a schedule stopped early.
pub(crate) enum Aborted<F> {
    /// The job itself is invalid.
    Ftdmp(FtdmpError),
    /// [`ShardSource::admits`] refused the survivors.
    Rejected { ok: usize, failures: Vec<F> },
    /// The source broke its contract.
    Lost(&'static str),
}

/// A queued micro-batch of global run `g` (`round * n_run + run`).
#[derive(Clone, Copy)]
struct Task {
    g: usize,
    slice: Slice,
}

/// Puts a failed micro-batch back on its node's queue, keeping the queue
/// sorted by (run, micro-batch) so the front stays the most urgent work.
fn requeue(queues: &mut BTreeMap<usize, VecDeque<Task>>, task: Task) {
    let q = queues.entry(task.slice.node).or_default();
    let key = |t: &Task| (t.g, t.slice.mb);
    let pos = q
        .iter()
        .position(|t| key(t) > key(&task))
        .unwrap_or(q.len());
    q.insert(pos, task);
}

/// One run's extracted micro-batches, keyed by `(node, micro-batch)`.
type Gathered = BTreeMap<(usize, usize), (Tensor, Vec<usize>)>;

/// The scheduler's books: the task table, what each executor has in
/// flight, and the features gathered so far per run.
struct Pipeline<'s, S: ShardSource> {
    source: &'s mut S,
    staleness: usize,
    /// Runs trained so far; run `g` may be extracted while
    /// `g ≤ trained + staleness`.
    trained: usize,
    queues: BTreeMap<usize, VecDeque<Task>>,
    /// Micro-batches per run not gathered yet.
    remaining: Vec<usize>,
    in_flight: Vec<VecDeque<Task>>,
    slots: Vec<Gathered>,
    live: Vec<usize>,
    failures: Vec<S::Failure>,
    feature_bytes: usize,
    distribution_bytes: usize,
    steals: usize,
    stale_steps: usize,
    reroutes: u64,
}

impl<S: ShardSource> Pipeline<'_, S> {
    /// Dispatches, drops orphaned work and gathers one extraction at a
    /// time until `done` holds after a dispatch.
    fn pump(&mut self, done: impl Fn(&Self) -> bool) -> Result<(), Aborted<S::Failure>> {
        loop {
            self.dispatch();
            self.drop_orphans();
            self.admit()?;
            if done(self) {
                return Ok(());
            }
            self.gather()?;
            self.admit()?;
        }
    }

    /// Fills every live executor's window with eligible work: its home
    /// nodes first, then the deepest backlog it can serve.
    fn dispatch(&mut self) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for p in self.live.clone() {
                if self.in_flight.get(p).is_none_or(|w| w.len() >= S::WINDOW) {
                    continue;
                }
                let source = &*self.source;
                let horizon = self.trained + self.staleness;
                let eligible = |q: &VecDeque<Task>| q.front().is_some_and(|t| t.g <= horizon);
                let mut pick = self
                    .queues
                    .iter()
                    .find(|(&node, q)| source.home(node) == p && eligible(q))
                    .map(|(&node, _)| node);
                if pick.is_none() {
                    let mut best_len = 0;
                    for (&node, q) in &self.queues {
                        if source.home(node) != p
                            && q.len() > best_len
                            && eligible(q)
                            && source.can_serve(p, node)
                        {
                            best_len = q.len();
                            pick = Some(node);
                        }
                    }
                }
                let Some(node) = pick else { continue };
                let Some(task) = self.queues.get_mut(&node).and_then(VecDeque::pop_front) else {
                    continue;
                };
                match self.source.extract_slice(p, task.slice) {
                    Ok(()) => {
                        let home = self.source.home(node);
                        if home != p {
                            if self.live.contains(&home) {
                                self.steals += 1;
                            } else {
                                self.reroutes += 1;
                            }
                        }
                        if task.g > self.trained {
                            self.stale_steps += 1;
                        }
                        if let Some(w) = self.in_flight.get_mut(p) {
                            w.push_back(task);
                        }
                        progressed = true;
                    }
                    Err(failure) => {
                        self.fail(p, failure);
                        if let Some(q) = self.queues.get_mut(&node) {
                            q.push_front(task);
                        }
                    }
                }
            }
        }
    }

    /// Drops the queued work of nodes no live executor can serve
    /// (completed and in-flight micro-batches still train).
    fn drop_orphans(&mut self) {
        let source = &*self.source;
        let orphaned: Vec<usize> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&node, _)| node)
            .filter(|&node| !self.live.iter().any(|&p| source.can_serve(p, node)))
            .collect();
        for node in orphaned {
            if let Some(q) = self.queues.remove(&node) {
                for t in &q {
                    if let Some(r) = self.remaining.get_mut(t.g) {
                        *r = r.saturating_sub(1);
                    }
                }
                self.failures.push(self.source.orphaned(node));
            }
        }
    }

    /// Blocks on one extraction and books it.
    fn gather(&mut self) -> Result<(), Aborted<S::Failure>> {
        let Some(done) = self.source.next_extracted() else {
            return Err(Aborted::Lost("extract reply lane closed"));
        };
        let Some(task) = self
            .in_flight
            .get_mut(done.executor)
            .and_then(VecDeque::pop_front)
        else {
            return Err(Aborted::Lost("unmatched extract reply"));
        };
        match done.result {
            Ok((features, labels, bytes)) => {
                self.feature_bytes += bytes;
                if let Some(slot) = self.slots.get_mut(task.g) {
                    slot.insert((task.slice.node, task.slice.mb), (features, labels));
                }
                if let Some(r) = self.remaining.get_mut(task.g) {
                    *r = r.saturating_sub(1);
                }
            }
            Err(failure) => {
                self.fail(done.executor, failure);
                requeue(&mut self.queues, task);
            }
        }
        Ok(())
    }

    /// Folds every outstanding delta ack into the books.
    fn settle(&mut self) -> Result<(), Aborted<S::Failure>> {
        for (executor, ack) in self.source.settle_deltas() {
            match ack {
                Ok(bytes) => self.distribution_bytes += bytes,
                Err(failure) => self.fail(executor, failure),
            }
        }
        self.admit()
    }

    fn fail(&mut self, executor: usize, failure: S::Failure) {
        self.live.retain(|&p| p != executor);
        self.failures.push(failure);
    }

    /// Whether the source lets the job go on; a refusal hands over the
    /// failures.
    fn admit(&mut self) -> Result<(), Aborted<S::Failure>> {
        if self.source.admits(self.live.len(), self.failures.len()) {
            Ok(())
        } else {
            Err(Aborted::Rejected {
                ok: self.live.len(),
                failures: std::mem::take(&mut self.failures),
            })
        }
    }
}

/// The FT-DMP scheduler: `rounds` back-to-back fine-tuning rounds of
/// `N_run` runs each, with extraction streaming from `source` as
/// micro-batches while the Tuner trains on the caller thread.
///
/// - Global run `g` may be *extracted* only while `g ≤ trained + S`
///   ([`FtdmpConfig::staleness`]). `S = 0` is the run-at-a-time barrier
///   schedule and waits for each round's delta acks; `S ≥ 1` lets
///   extraction and delta distribution run ahead.
/// - Every live executor keeps up to [`ShardSource::WINDOW`] slices in
///   flight: its home nodes first, then the deepest eligible backlog it
///   can serve. Serving a live home's node counts in
///   `schedule.steals`; standing in for a dead one counts as a reroute.
///   While the Tuner trains, a scoped helper thread keeps dispatching
///   and gathering, so the windows stay full.
/// - A failed extraction drops its executor and requeues the slice;
///   work no live executor can serve is dropped as orphaned.
/// - Features gather per run keyed by `(node, micro-batch)`, so training
///   order is deterministic no matter who served what.
/// - Each round ends with a Check-N-Run delta against the round's base
///   model, stamped with the Tuner's version span.
pub(crate) fn schedule<S: ShardSource, R: Rng + ?Sized>(
    source: &mut S,
    plan: Plan<S::Failure>,
    tuner: &mut Tuner,
    config: &FtdmpConfig,
    rounds: usize,
    rng: &mut R,
) -> Result<Scheduled<S::Failure>, Aborted<S::Failure>> {
    let n_run = config.n_run;
    if n_run == 0 {
        return Err(Aborted::Ftdmp(FtdmpError::ZeroRuns));
    }
    let Plan {
        shards,
        live,
        failures,
    } = plan;
    if shards.is_empty() {
        return Err(Aborted::Ftdmp(FtdmpError::NoStores));
    }

    // The task table: every run slice of every node, split into
    // contiguous micro-batches.
    let total_runs = rounds * n_run;
    let mut queues: BTreeMap<usize, VecDeque<Task>> = BTreeMap::new();
    let mut remaining = vec![0usize; total_runs];
    let mut micro_batches = 0usize;
    for (&node, &n) in &shards {
        let mut q = VecDeque::new();
        for (g, rem) in remaining.iter_mut().enumerate() {
            let run = g % n_run;
            let whole = Slice {
                node,
                run,
                n_run,
                mb: 0,
                n_mb: 1,
            };
            let n_mb = config.micro_batches_for(whole.rows(n).len());
            q.extend((0..n_mb).map(|mb| Task {
                g,
                slice: Slice { mb, n_mb, ..whole },
            }));
            *rem += n_mb;
            micro_batches += n_mb;
        }
        queues.insert(node, q);
    }

    let record = telemetry::enabled();
    let executors = source.executors();
    let mut pipe = Pipeline {
        source,
        staleness: config.staleness,
        trained: 0,
        queues,
        remaining,
        in_flight: (0..executors).map(|_| VecDeque::new()).collect(),
        slots: vec![BTreeMap::new(); total_runs],
        live,
        failures,
        feature_bytes: 0,
        distribution_bytes: 0,
        steals: 0,
        stale_steps: 0,
        reroutes: 0,
    };
    let mut run_losses = Vec::with_capacity(total_runs);
    let mut examples = 0usize;
    let mut bubble_secs = 0.0f64;
    let mut round_base = tuner.model().clone();
    let mut round_base_version = tuner.version();
    let mut last_reduction = 1.0f64;

    for g in 0..total_runs {
        let t0 = Instant::now();
        pipe.pump(|p| p.remaining.get(g).is_none_or(|&r| r == 0))?;
        bubble_secs += t0.elapsed().as_secs_f64();

        // Run g's features in (node, micro-batch) order: each micro-batch
        // is a row-major `[labels, width]` matrix, so appending their data
        // stacks the run's rows.
        let gathered = pipe
            .slots
            .get_mut(g)
            .map(std::mem::take)
            .unwrap_or_default();
        let total: usize = gathered.values().map(|(_, l)| l.len()).sum();
        let width = gathered
            .values()
            .filter(|(_, l)| !l.is_empty())
            .find_map(|(f, _)| f.dims().get(1).copied())
            .unwrap_or(0);
        let mut data = Vec::with_capacity(total * width);
        let mut labels = Vec::with_capacity(total);
        for (features, l) in gathered.into_values() {
            if l.is_empty() {
                continue;
            }
            if features.dims() != [l.len(), width] {
                return Err(Aborted::Lost(
                    "extracted features do not match their labels",
                ));
            }
            data.extend_from_slice(features.data());
            labels.extend(l);
        }
        if labels.is_empty() {
            return Err(Aborted::Lost("no features survived for a run"));
        }
        examples += labels.len();
        let features = Tensor::from_vec(data, &[labels.len(), width]);

        // Train run g here while a helper keeps the executors busy with
        // the runs the staleness bound already admits; the helper's
        // Acquire load pairs with the Release store after training.
        let training = AtomicBool::new(true);
        let (loss, pumped) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                pipe.pump(|p| {
                    !training.load(Ordering::Acquire) || p.in_flight.iter().all(VecDeque::is_empty)
                })
            });
            let timer = record.then(|| phase_hist("train").start_timer());
            let loss = tuner.train_on_features(&features, &labels, config.epochs_per_run, rng);
            timer.map(|t| t.observe_and_disarm());
            training.store(false, Ordering::Release);
            (loss, helper.join())
        });
        pumped.map_err(|_| Aborted::Lost("scheduler helper panicked"))??;
        run_losses.push(loss);
        pipe.trained = g + 1;

        // Round boundary: distribute the delta. With S = 0 the schedule
        // waits for every ack (the barrier); otherwise acks settle
        // lazily while the next round's extraction is in flight.
        if pipe.trained.is_multiple_of(n_run) {
            let delta = tuner
                .delta_from(&round_base)
                .with_versions(round_base_version, tuner.version());
            last_reduction = delta.traffic_reduction();
            round_base = tuner.model().clone();
            round_base_version = tuner.version();
            pipe.source.apply_delta(&delta, &pipe.live);
            if config.staleness == 0 {
                pipe.settle()?;
            }
        }
    }
    pipe.settle()?;

    let schedule = ScheduleStats {
        micro_batches,
        steals: pipe.steals,
        stale_steps: pipe.stale_steps,
        bubble_secs,
    };
    record_schedule(&schedule);
    Ok(Scheduled {
        report: FtdmpReport {
            run_losses,
            feature_bytes: pipe.feature_bytes,
            distribution_bytes: pipe.distribution_bytes,
            distribution_reduction: last_reduction,
            examples,
            schedule,
        },
        failures: pipe.failures,
        live: pipe.live,
        reroutes: pipe.reroutes,
    })
}

/// In-process executors: `workers` scoped threads extracting from
/// borrowed stores. Any worker may serve any store; store `i`'s home is
/// worker `i % workers`.
struct LocalSource<'a> {
    stores: &'a [PipeStore],
    jobs: Vec<mpsc::SyncSender<Slice>>,
    done: mpsc::Receiver<Extracted<&'static str>>,
    /// The workers borrow the stores until the job ends, so deltas land
    /// on them after the scope joins.
    deltas: Vec<ModelDelta>,
}

impl<'a> LocalSource<'a> {
    fn spawn<'s>(
        scope: &'s std::thread::Scope<'s, 'a>,
        stores: &'a [PipeStore],
        workers: usize,
    ) -> Self {
        // The scheduler keeps at most WINDOW slices in flight per worker,
        // so neither a job queue nor the reply lane ever blocks.
        let (done_tx, done) = mpsc::sync_channel(workers.max(1) * Self::WINDOW);
        let mut jobs = Vec::with_capacity(workers);
        for executor in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<Slice>(Self::WINDOW);
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                let cfg = EngineConfig::default();
                for slice in rx {
                    let extract = || {
                        let s = stores.get(slice.node).ok_or("no such store")?;
                        let ((f, l), _) =
                            s.extract_features_batched(slice.rows(s.shard_len()), &cfg);
                        let bytes = f.len() * 4;
                        Ok((f, l, bytes))
                    };
                    // A panic must come back as a failure: the scheduler
                    // would otherwise wait for this reply forever.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(extract))
                        .unwrap_or(Err("extraction panicked"));
                    if done_tx.send(Extracted { executor, result }).is_err() {
                        return;
                    }
                }
            });
            jobs.push(tx);
        }
        LocalSource {
            stores,
            jobs,
            done,
            deltas: Vec::new(),
        }
    }
}

impl ShardSource for LocalSource<'_> {
    type Failure = &'static str;
    const WINDOW: usize = 2;

    fn executors(&self) -> usize {
        self.jobs.len()
    }

    fn home(&self, node: usize) -> usize {
        node % self.jobs.len().max(1)
    }

    fn can_serve(&self, _executor: usize, node: usize) -> bool {
        node < self.stores.len()
    }

    fn extract_slice(&mut self, executor: usize, slice: Slice) -> Result<(), &'static str> {
        let job = self.jobs.get(executor).ok_or("no such worker")?;
        job.send(slice).map_err(|_| "extraction worker exited")
    }

    fn next_extracted(&mut self) -> Option<Extracted<&'static str>> {
        self.done.recv().ok()
    }

    fn apply_delta(&mut self, delta: &ModelDelta, _executors: &[usize]) {
        self.deltas.push(delta.clone());
    }

    fn settle_deltas(&mut self) -> Vec<(usize, Result<usize, &'static str>)> {
        Vec::new()
    }

    fn admits(&self, _live: usize, failed: usize) -> bool {
        failed == 0
    }

    fn orphaned(&self, _node: usize) -> &'static str {
        "no worker left for a store"
    }
}

/// Runs FT-DMP fine-tuning across `stores` with the 1F1B micro-batch
/// pipeline, updating the Tuner's master model and redistributing it to
/// every PipeStore as a compressed delta.
///
/// `min(NDPIPE_THREADS, stores)` worker threads extract `(store, run,
/// micro-batch)` slices — each its home stores first, stealing from a
/// backlogged store when those drain — while the caller thread trains
/// runs in order as their features complete, at most
/// [`FtdmpConfig::staleness`] runs behind extraction. Results are
/// bit-identical to [`ftdmp_fine_tune_reference`] at every staleness
/// bound and worker count: features depend only on the frozen prefix
/// and are gathered in deterministic `(store, micro-batch)` order.
///
/// # Errors
///
/// [`FtdmpError`] when `stores` is empty, `n_run` is zero, a shard is
/// smaller than `n_run`, or a shard's label space exceeds the model's.
///
/// # Panics
///
/// Panics if an extraction worker dies mid-job.
pub fn ftdmp_fine_tune<R: Rng + ?Sized>(
    tuner: &mut Tuner,
    stores: &mut [PipeStore],
    config: &FtdmpConfig,
    rng: &mut R,
) -> Result<FtdmpReport, FtdmpError> {
    validate(tuner, stores, config)?;
    let record = telemetry::enabled();

    // 1. Distribute the current master to every store.
    let timer = record.then(|| phase_hist("distribute").start_timer());
    for s in stores.iter_mut() {
        s.install_model(tuner.model().clone());
    }
    timer.map(|t| t.observe_and_disarm());

    // 2. Extract and train on the one scheduler.
    let workers = ndpipe_data::deflate::configured_threads()
        .max(1)
        .min(stores.len());
    let shared: &[PipeStore] = stores;
    let (outcome, deltas) = std::thread::scope(|scope| {
        let mut source = LocalSource::spawn(scope, shared, workers);
        let plan = Plan {
            shards: shared.iter().map(|s| s.shard_len()).enumerate().collect(),
            live: (0..workers).collect(),
            failures: Vec::new(),
        };
        let outcome = schedule(&mut source, plan, tuner, config, 1, rng);
        // Dropping the job senders here lets the workers exit.
        (outcome, source.deltas)
    });
    let mut report = match outcome {
        Ok(done) => done.report,
        Err(Aborted::Ftdmp(e)) => return Err(e),
        Err(Aborted::Rejected { failures, .. }) => {
            panic!("in-process FT-DMP workers failed: {failures:?}")
        }
        Err(Aborted::Lost(why)) => panic!("in-process FT-DMP scheduler: {why}"),
    };

    // 3. Land the Check-N-Run deltas on every replica.
    let timer = record.then(|| phase_hist("redistribute").start_timer());
    for delta in &deltas {
        for s in stores.iter_mut() {
            if let Some(replica) = s.model_mut() {
                if delta.apply(replica).is_ok() {
                    report.distribution_bytes += delta.wire_bytes();
                }
            }
        }
    }
    timer.map(|t| t.observe_and_disarm());
    record_local_job(report.feature_bytes);
    Ok(report)
}

/// The historical run-at-a-time FT-DMP schedule, kept verbatim as the
/// oracle: every run's extraction fully completes (one barrier per run)
/// before the Tuner trains, and no work ever crosses run boundaries.
/// [`ftdmp_fine_tune`] must match this bit-for-bit at any staleness
/// bound; the equivalence tests below and the `ftdmp_pipeline` bench
/// both pin that.
///
/// # Errors
///
/// Same [`FtdmpError`] conditions as [`ftdmp_fine_tune`].
pub fn ftdmp_fine_tune_reference<R: Rng + ?Sized>(
    tuner: &mut Tuner,
    stores: &mut [PipeStore],
    config: &FtdmpConfig,
    rng: &mut R,
) -> Result<FtdmpReport, FtdmpError> {
    validate(tuner, stores, config)?;
    let record = telemetry::enabled();

    // 1. Distribute the current master to every store.
    let timer = record.then(|| phase_hist("distribute").start_timer());
    for s in stores.iter_mut() {
        s.install_model(tuner.model().clone());
    }
    let model_before = tuner.model().clone();
    let version_before = tuner.version();
    timer.map(|t| t.observe_and_disarm());

    // 2. Pipeline runs: extract (parallel) then tune.
    let mut run_losses = Vec::with_capacity(config.n_run);
    let mut feature_bytes = 0usize;
    let mut examples = 0usize;
    let engine_cfg = EngineConfig::default();
    // Concurrent store extractions are capped by NDPIPE_THREADS. Stores
    // are claimed dynamically from the shared worker pool, and each
    // store's features land in its own index slot, so the gathered
    // order is deterministic at any cap.
    let max_concurrent = ndpipe_data::deflate::configured_threads().max(1);
    for run in 0..config.n_run {
        let timer = record.then(|| phase_hist("extract").start_timer());
        let stores_shared: &[PipeStore] = stores;
        let extracted: Vec<(Tensor, Vec<usize>)> =
            tensor::pool::map_indexed(max_concurrent, stores_shared.len(), |i| {
                let s = &stores_shared[i];
                let n = s.shard_len();
                let lo = run * n / config.n_run;
                let hi = (run + 1) * n / config.n_run;
                s.extract_features_batched(lo..hi, &engine_cfg).0
            })
            .unwrap_or_else(|e| panic!("pipestore extraction failed: {e}"));
        timer.map(|t| t.observe_and_disarm());

        // Gather at the Tuner.
        let mut labels = Vec::new();
        let mut rows = Vec::new();
        for (f, l) in &extracted {
            feature_bytes += f.len() * 4;
            for i in 0..l.len() {
                rows.push(f.row(i));
            }
            labels.extend_from_slice(l);
        }
        examples += labels.len();
        let features = Tensor::stack_rows(&rows);

        let timer = record.then(|| phase_hist("train").start_timer());
        let loss = tuner.train_on_features(&features, &labels, config.epochs_per_run, rng);
        timer.map(|t| t.observe_and_disarm());
        run_losses.push(loss);
    }

    // 3. Redistribute the fine-tuned model as Check-N-Run deltas.
    let timer = record.then(|| phase_hist("redistribute").start_timer());
    let delta = tuner
        .delta_from(&model_before)
        .with_versions(version_before, tuner.version());
    let mut distribution_bytes = 0usize;
    for s in stores.iter_mut() {
        if let Some(replica) = s.model_mut() {
            if delta.apply(replica).is_ok() {
                distribution_bytes += delta.wire_bytes();
            }
        }
    }
    timer.map(|t| t.observe_and_disarm());
    record_local_job(feature_bytes);

    Ok(FtdmpReport {
        run_losses,
        feature_bytes,
        distribution_bytes,
        distribution_reduction: delta.traffic_reduction(),
        examples,
        schedule: ScheduleStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::{Mlp, Trainer};
    use ndpipe_data::{ClassUniverse, LabeledDataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(
        rng: &mut StdRng,
        n_stores: usize,
        per_class: usize,
    ) -> (Tuner, Vec<PipeStore>, LabeledDataset) {
        let u = ClassUniverse::new(16, 8, 5, 0.25, rng);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..u.classes() {
            for _ in 0..per_class {
                rows.push(u.sample(c, rng));
                labels.push(c);
            }
        }
        let all = LabeledDataset::new(rows, labels, u.classes()).shuffled(rng);
        let test_rows: Vec<Tensor> = (0..100).map(|i| u.sample(i % 5, rng)).collect();
        let test_labels: Vec<usize> = (0..100).map(|i| i % 5).collect();
        let test = LabeledDataset::new(test_rows, test_labels, 5);

        let model = Mlp::new(&[16, 32, 24, 5], 2, rng);
        let tuner = Tuner::new(
            model,
            TrainConfig {
                batch: 16,
                ..TrainConfig::default()
            },
        );
        let stores = all
            .shards(n_stores)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| PipeStore::new(i, shard))
            .collect();
        (tuner, stores, test)
    }

    fn clone_stores(stores: &[PipeStore]) -> Vec<PipeStore> {
        stores
            .iter()
            .map(|s| PipeStore::new(s.id(), s.shard().clone()))
            .collect()
    }

    #[test]
    fn distributed_fine_tuning_learns() {
        let mut rng = StdRng::seed_from_u64(71);
        let (mut tuner, mut stores, test) = world(&mut rng, 4, 40);
        let before = Trainer::evaluate(tuner.model(), &test);
        let cfg = FtdmpConfig {
            n_run: 1,
            epochs_per_run: 20,
            train: *tuner.config(),
            ..FtdmpConfig::default()
        };
        let report = ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        let after = Trainer::evaluate(tuner.model(), &test);
        assert!(
            after.top1 > before.top1 + 0.2,
            "{:.3} -> {:.3}",
            before.top1,
            after.top1
        );
        assert_eq!(report.examples, 200);
        assert!(report.feature_bytes > 0);
        assert!(report.schedule.micro_batches >= 4);
    }

    #[test]
    fn stores_end_up_with_the_master_model() {
        let mut rng = StdRng::seed_from_u64(72);
        let (mut tuner, mut stores, _) = world(&mut rng, 3, 20);
        let cfg = FtdmpConfig {
            n_run: 2,
            epochs_per_run: 5,
            train: *tuner.config(),
            ..FtdmpConfig::default()
        };
        ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        let x = Tensor::randn(&[4, 16], &mut rng);
        let master = tuner.model().forward(&x);
        for s in &stores {
            let replica = s.model().unwrap().forward(&x);
            for (a, b) in master.data().iter().zip(replica.data()) {
                assert!((a - b).abs() < 0.05, "replica diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn delta_distribution_is_cheap() {
        let mut rng = StdRng::seed_from_u64(73);
        let (mut tuner, mut stores, _) = world(&mut rng, 2, 20);
        let cfg = FtdmpConfig::default();
        let report = ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        assert!(
            report.distribution_reduction > 3.0,
            "reduction {}",
            report.distribution_reduction
        );
    }

    #[test]
    fn pipelined_accuracy_close_to_unpipelined_fig17() {
        let mut rng = StdRng::seed_from_u64(74);
        let (tuner0, stores0, test) = world(&mut rng, 4, 60);

        let accuracy = |n_run: usize, rng: &mut StdRng| {
            let mut tuner = tuner0.clone();
            let mut stores = clone_stores(&stores0);
            let cfg = FtdmpConfig {
                n_run,
                epochs_per_run: 30 / n_run,
                train: *tuner0.config(),
                ..FtdmpConfig::default()
            };
            ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, rng).expect("valid job");
            Trainer::evaluate(tuner.model(), &test).top1
        };
        let a1 = accuracy(1, &mut rng);
        let a3 = accuracy(3, &mut rng);
        assert!((a1 - a3).abs() < 0.08, "N_run=1 {a1:.3} vs N_run=3 {a3:.3}");
    }

    #[test]
    fn new_classes_require_widening_first() {
        let mut rng = StdRng::seed_from_u64(75);
        let (mut tuner, mut stores, _) = world(&mut rng, 2, 10);
        // Pretend a shard saw classes beyond the model's space.
        let wide = stores[0].shard().widened(9);
        stores[0].set_shard(wide);
        let err = ftdmp_fine_tune(&mut tuner, &mut stores, &FtdmpConfig::default(), &mut rng)
            .expect_err("label space exceeds the model");
        assert!(
            matches!(
                err,
                FtdmpError::ClassOverflow {
                    shard_classes: 9,
                    model_classes: 5,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("widen the Tuner model"));
    }

    #[test]
    fn entry_checks_are_typed_errors() {
        let mut rng = StdRng::seed_from_u64(76);
        let (mut tuner, mut stores, _) = world(&mut rng, 2, 10);
        assert_eq!(
            ftdmp_fine_tune(&mut tuner, &mut [], &FtdmpConfig::default(), &mut rng).unwrap_err(),
            FtdmpError::NoStores
        );
        let zero = FtdmpConfig {
            n_run: 0,
            ..FtdmpConfig::default()
        };
        assert_eq!(
            ftdmp_fine_tune(&mut tuner, &mut stores, &zero, &mut rng).unwrap_err(),
            FtdmpError::ZeroRuns
        );
        let deep = FtdmpConfig {
            n_run: 10_000,
            ..FtdmpConfig::default()
        };
        assert!(matches!(
            ftdmp_fine_tune(&mut tuner, &mut stores, &deep, &mut rng).unwrap_err(),
            FtdmpError::ShardTooSmall { n_run: 10_000, .. }
        ));
    }

    /// The pipeline at any staleness bound and micro-batch size must be
    /// bit-identical to the run-at-a-time oracle: identical losses,
    /// identical master model, identical replicas, identical byte
    /// accounting. Features depend only on the frozen prefix and are
    /// gathered in deterministic order, so the schedule cannot leak
    /// into results.
    #[test]
    fn pipelined_schedule_is_bit_identical_to_reference() {
        let mut seed_rng = StdRng::seed_from_u64(77);
        let (tuner0, stores0, _) = world(&mut seed_rng, 4, 30);
        let base = FtdmpConfig {
            n_run: 3,
            epochs_per_run: 4,
            train: *tuner0.config(),
            ..FtdmpConfig::default()
        };

        let mut rng = StdRng::seed_from_u64(7_777);
        let mut ref_tuner = tuner0.clone();
        let mut ref_stores = clone_stores(&stores0);
        let reference =
            ftdmp_fine_tune_reference(&mut ref_tuner, &mut ref_stores, &base, &mut rng)
                .expect("reference job");

        for (staleness, micro_batch) in [(0, 0), (0, 7), (1, 0), (2, 3)] {
            let cfg = FtdmpConfig {
                staleness,
                micro_batch,
                ..base
            };
            let mut rng = StdRng::seed_from_u64(7_777);
            let mut tuner = tuner0.clone();
            let mut stores = clone_stores(&stores0);
            let report =
                ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("pipelined job");
            assert_eq!(
                report.run_losses, reference.run_losses,
                "losses diverged at S={staleness} mb={micro_batch}"
            );
            assert_eq!(report.examples, reference.examples);
            assert_eq!(report.feature_bytes, reference.feature_bytes);
            assert_eq!(
                tuner.model().to_bytes(),
                ref_tuner.model().to_bytes(),
                "master model diverged at S={staleness} mb={micro_batch}"
            );
            for (a, b) in stores.iter().zip(&ref_stores) {
                assert_eq!(
                    a.model().unwrap().to_bytes(),
                    b.model().unwrap().to_bytes(),
                    "replica diverged at S={staleness} mb={micro_batch}"
                );
            }
            if staleness == 0 {
                assert_eq!(report.schedule.stale_steps, 0, "S=0 must never run ahead");
            }
        }
    }

    #[test]
    fn slow_store_converges_and_gets_robbed() {
        let mut rng = StdRng::seed_from_u64(78);
        let (mut tuner, mut stores, _) = world(&mut rng, 4, 20);
        stores[0].set_extract_delay(Some(std::time::Duration::from_micros(200)));
        let cfg = FtdmpConfig {
            n_run: 2,
            epochs_per_run: 3,
            micro_batch: 5,
            staleness: 1,
            train: *tuner.config(),
        };
        let report = ftdmp_fine_tune(&mut tuner, &mut stores, &cfg, &mut rng).expect("valid job");
        assert_eq!(report.run_losses.len(), 2);
        // Steal count depends on available parallelism; with a single
        // worker thread every store is "home", so only assert it when
        // more than one worker could have run.
        if ndpipe_data::deflate::configured_threads() > 1 {
            assert!(
                report.schedule.steals > 0,
                "no steals despite a slow store: {:?}",
                report.schedule
            );
        }
    }

    #[test]
    fn micro_batch_sizing() {
        let auto = FtdmpConfig::default();
        assert_eq!(auto.micro_batches_for(0), 1);
        assert_eq!(auto.micro_batches_for(3), 3);
        assert_eq!(auto.micro_batches_for(100), AUTO_MICRO_BATCHES);
        let fixed = FtdmpConfig {
            micro_batch: 8,
            ..FtdmpConfig::default()
        };
        assert_eq!(fixed.micro_batches_for(7), 1);
        assert_eq!(fixed.micro_batches_for(8), 1);
        assert_eq!(fixed.micro_batches_for(17), 3);
    }
}
