//! The Tuner's cluster control plane: one worker thread per remote
//! PipeStore, parallel fan-out of control operations, per-peer retry,
//! and a [`FailurePolicy`] so an FT-DMP round survives flaky peers.
//!
//! A [`Cluster`] owns its peers, fans every operation out concurrently —
//! the paper's near-linear-scaling claim (§6) assumes the Store stage of
//! every peer runs at once — and gathers *typed* per-peer results
//! ([`Fanout`]) instead of dying on the first [`RpcError`].
//!
//! This file is an ndlint no-panic zone: a flaky peer must surface as a
//! [`PeerFailure`], never as a Tuner-side panic.

use crate::checknrun::ModelDelta;
use crate::ftdmp::{
    check_shard, schedule, Aborted, Extracted, FtdmpConfig, FtdmpError, FtdmpReport, Plan,
    ShardSource, Slice,
};
use crate::placement::PlacementMap;
use crate::rpc::client::{ConnectOptions, RemotePipeStore};
use crate::rpc::wire::{PhotoRecord, Reply, Request, ShardDesc};
use crate::rpc::RpcError;
use crate::tuner::Tuner;
use dnn::Mlp;
use rand::Rng;
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Per-peer job queue depth. A fan-out queues one `Job::Op` per peer and
/// gathers every reply before the next starts; the FT-DMP scheduler
/// queues its two-slice window plus the deltas of rounds not yet acked.
/// The bound keeps the queue from masking a stuck round as silent memory
/// growth: a full queue stalls the Tuner until the peer catches up.
const PEER_JOB_QUEUE_CAP: usize = 4;

/// What the control plane does when peers fail an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Any peer failure aborts the round (the pre-redesign behavior,
    /// minus the lost work: surviving results are still reported).
    Strict,
    /// The round proceeds as long as at least `k` peers stay healthy;
    /// failed peers are excluded and reported as [`PeerFailure`]s.
    Quorum(usize),
}

impl FailurePolicy {
    /// Whether a phase outcome of `ok` healthy peers and `failed`
    /// failures lets the round continue.
    pub fn admits(&self, ok: usize, failed: usize) -> bool {
        match self {
            FailurePolicy::Strict => failed == 0,
            FailurePolicy::Quorum(k) => ok >= *k,
        }
    }
}

impl std::fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailurePolicy::Strict => write!(f, "strict"),
            FailurePolicy::Quorum(k) => write!(f, "quorum({k})"),
        }
    }
}

/// One peer's failure on one operation, with enough context to act on.
#[derive(Debug)]
pub struct PeerFailure {
    /// Position of the peer in the cluster.
    pub index: usize,
    /// Peer address.
    pub peer: String,
    /// Operation that failed.
    pub op: &'static str,
    /// Attempts made (including retries) before giving up.
    pub attempts: u32,
    /// The final error.
    pub error: RpcError,
}

impl std::fmt::Display for PeerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peer #{} ({}) failed {} after {} attempt(s): {}",
            self.index, self.peer, self.op, self.attempts, self.error
        )
    }
}

/// One peer's successful result, with the wire traffic it cost.
#[derive(Debug)]
pub struct PeerResult<T> {
    /// Position of the peer in the cluster.
    pub index: usize,
    /// Peer address.
    pub peer: SocketAddr,
    /// The operation's result.
    pub value: T,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Request bytes this operation put on the wire to this peer.
    pub sent_bytes: u64,
    /// Reply bytes read back from this peer.
    pub recv_bytes: u64,
}

impl<T> PeerResult<T> {
    /// Re-types the value, reporting a reply of the wrong shape as a
    /// failure of `op`.
    fn map_value<U>(
        self,
        op: &'static str,
        map: impl FnOnce(T) -> Option<U>,
    ) -> Result<PeerResult<U>, PeerFailure> {
        let PeerResult {
            index,
            peer,
            value,
            attempts,
            sent_bytes,
            recv_bytes,
        } = self;
        match map(value) {
            Some(value) => Ok(PeerResult {
                index,
                peer,
                value,
                attempts,
                sent_bytes,
                recv_bytes,
            }),
            None => Err(PeerFailure {
                index,
                peer: peer.to_string(),
                op,
                attempts,
                error: RpcError::Protocol("unexpected reply shape"),
            }),
        }
    }
}

/// The gathered outcome of fanning one operation across the cluster:
/// per-peer successes (sorted by peer index, so concatenating them is
/// deterministic) and per-peer failures.
#[derive(Debug)]
pub struct Fanout<T> {
    /// Successful peers, ascending by index.
    pub ok: Vec<PeerResult<T>>,
    /// Failed peers, ascending by index.
    pub failures: Vec<PeerFailure>,
    /// Wall-clock time of the whole fan-out (slowest peer dominates).
    pub elapsed: Duration,
}

impl<T> Fanout<T> {
    /// Values in peer-index order, discarding per-peer bookkeeping.
    pub fn into_values(self) -> Vec<T> {
        self.ok.into_iter().map(|r| r.value).collect()
    }
}

/// Why a cluster-level operation could not complete.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster has no peers.
    NoPeers,
    /// A configuration problem independent of any peer.
    Config(&'static str),
    /// The FT-DMP job itself was invalid before any peer was touched.
    Ftdmp(crate::ftdmp::FtdmpError),
    /// The [`FailurePolicy`] rejected the round.
    Rejected {
        /// The policy that rejected.
        policy: FailurePolicy,
        /// Healthy peers at the point of rejection.
        ok: usize,
        /// Everything that went wrong, across all phases so far.
        failures: Vec<PeerFailure>,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoPeers => write!(f, "cluster has no peers"),
            ClusterError::Config(msg) => write!(f, "cluster misconfigured: {msg}"),
            ClusterError::Ftdmp(e) => write!(f, "invalid FT-DMP job: {e}"),
            ClusterError::Rejected {
                policy,
                ok,
                failures,
            } => {
                write!(
                    f,
                    "failure policy {policy} rejected the round ({ok} healthy, {} failed",
                    failures.len()
                )?;
                match failures.iter().next() {
                    Some(first) => write!(f, "; first: {first})"),
                    None => write!(f, ")"),
                }
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// The Tuner's cluster-wide view after scraping every PipeStore.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Each store's snapshot, tagged with its socket address.
    pub per_peer: Vec<(SocketAddr, telemetry::Snapshot)>,
    /// All peer snapshots folded into one: counters summed, histograms
    /// merged bucket-wise. Peer identity is erased here — use
    /// [`ClusterMetrics::merged_labelled`] to keep it.
    pub merged: telemetry::Snapshot,
}

impl ClusterMetrics {
    /// A merged view that keeps per-store resolution by tagging every
    /// sample with a `peer` label before folding.
    pub fn merged_labelled(&self) -> telemetry::Snapshot {
        let mut out = telemetry::Snapshot::default();
        for (peer, snap) in &self.per_peer {
            out.merge_from(&snap.clone().with_label("peer", &peer.to_string()));
        }
        out
    }
}

/// An FT-DMP round's outcome at cluster granularity: the training report
/// plus which peers contributed and which fell out along the way.
#[derive(Debug)]
pub struct ClusterFtdmpReport {
    /// The usual FT-DMP report, with `feature_bytes` and
    /// `distribution_bytes` measured as *actual wire bytes* (frame
    /// headers included), not uncompressed element counts.
    pub report: FtdmpReport,
    /// Peers that failed (and were excluded) during the round.
    pub failures: Vec<PeerFailure>,
    /// Indices of the peers that completed every phase.
    pub peers_used: Vec<usize>,
    /// Shard extractions that a dead owner's surviving replica served
    /// mid-sweep (always 0 without a placement map).
    pub reroutes: u64,
}

/// How fast [`Cluster::rebalance`] may move data: photos are copied in
/// waves of at most `max_bytes_per_wave`, pausing `wave_pause` between
/// waves so a healing fleet does not starve production reads.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Upper bound on payload bytes copied per wave.
    pub max_bytes_per_wave: u64,
    /// Pause between waves (zero disables pacing entirely).
    pub wave_pause: Duration,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            max_bytes_per_wave: 8 << 20,
            wave_pause: Duration::from_millis(2),
        }
    }
}

/// What one [`Cluster::rebalance`] sweep did.
#[derive(Debug, Default)]
pub struct RebalanceReport {
    /// Photos that gained at least one new replica.
    pub photos_copied: u64,
    /// Payload bytes shipped to backfilling replicas (counted once per
    /// new copy).
    pub bytes_copied: u64,
    /// Pacing waves the sweep was split into.
    pub waves: u64,
    /// Wall-clock time of the whole sweep.
    pub elapsed: Duration,
    /// Per-photo copy failures (the sweep continues past them).
    pub failures: Vec<PeerFailure>,
}

/// A control operation fanned out to peers: a wire request, `Arc`-shared
/// so a blob serialized once is not copied per peer, or a request over
/// the peer's own shard, which names it by the peer's handshake id.
#[derive(Clone)]
enum PeerOp {
    /// Sent as is.
    Call(Arc<Request>),
    /// `DescribeNode` of the peer's own shard.
    DescribeOwn,
    /// `ExtractSlice` of the slice over the peer's own shard, whatever
    /// its `node`.
    ExtractOwn(Slice),
}

impl PeerOp {
    fn call(request: Request) -> Self {
        PeerOp::Call(Arc::new(request))
    }

    /// Metric label; matches `Request::op_name` on the wire layer.
    fn name(&self) -> &'static str {
        match self {
            PeerOp::Call(request) => request.op_name(),
            PeerOp::DescribeOwn => "describe_node",
            PeerOp::ExtractOwn { .. } => "extract_slice",
        }
    }
}

fn ack(reply: Reply) -> Option<()> {
    matches!(reply, Reply::Ack).then_some(())
}

fn shard_info(reply: Reply) -> Option<ShardDesc> {
    match reply {
        Reply::ShardInfo(desc) => Some(desc),
        _ => None,
    }
}

fn photo(reply: Reply) -> Option<PhotoRecord> {
    match reply {
        Reply::Photo(rec) => Some(rec),
        _ => None,
    }
}

/// Features and labels out of an extraction reply.
fn features(reply: Reply) -> Option<(Tensor, Vec<usize>)> {
    match reply {
        Reply::Features { features, labels } => {
            Some((features, labels.into_iter().map(|l| l as usize).collect()))
        }
        _ => None,
    }
}

struct WorkerReply {
    index: usize,
    peer: SocketAddr,
    op: &'static str,
    attempts: u32,
    sent_bytes: u64,
    recv_bytes: u64,
    result: Result<Reply, RpcError>,
}

impl WorkerReply {
    /// The peer's result with its bookkeeping, or the failure it reports.
    fn into_result(self) -> Result<PeerResult<Reply>, PeerFailure> {
        match self.result {
            Ok(value) => Ok(PeerResult {
                index: self.index,
                peer: self.peer,
                value,
                attempts: self.attempts,
                sent_bytes: self.sent_bytes,
                recv_bytes: self.recv_bytes,
            }),
            Err(error) => Err(PeerFailure {
                index: self.index,
                peer: self.peer.to_string(),
                op: self.op,
                attempts: self.attempts,
                error,
            }),
        }
    }
}

enum Job {
    Op {
        op: PeerOp,
        attempts: u32,
        done: mpsc::SyncSender<WorkerReply>,
    },
    Stop,
}

struct PeerSlot {
    addr: SocketAddr,
    tx: mpsc::SyncSender<Job>,
    thread: Option<JoinHandle<RemotePipeStore>>,
}

/// Executes `op` against one peer with bounded retry: transport errors
/// drop the session and reconnect (the peer may have restarted); remote
/// application errors and protocol violations are final. Exhausted
/// retries collapse into [`RpcError::PeerUnavailable`].
fn run_op(
    remote: &mut RemotePipeStore,
    op: &PeerOp,
    max_attempts: u32,
) -> (Result<Reply, RpcError>, u32) {
    // Ending a session that is already gone is a no-op, not a failure,
    // and must not trigger a pointless reconnect.
    if ends_session(op) && !remote.is_connected() {
        return (Ok(Reply::Ack), 0);
    }
    let max = max_attempts.max(1);
    let mut last_io: Option<std::io::Error> = None;
    for attempt in 1..=max {
        if !remote.is_connected() {
            match remote.reconnect() {
                Ok(()) => {}
                Err(RpcError::Io(e)) => {
                    last_io = Some(e);
                    continue;
                }
                Err(RpcError::PeerUnavailable { source, .. }) => {
                    last_io = source;
                    continue;
                }
                // Version skew / handshake refusal: retrying won't help.
                Err(fatal) => return (Err(fatal), attempt),
            }
        }
        match apply(remote, op) {
            Ok(ok) => return (Ok(ok), attempt),
            Err(RpcError::Io(e)) => {
                remote.disconnect();
                last_io = Some(e);
            }
            Err(fatal) => return (Err(fatal), attempt),
        }
    }
    (
        Err(RpcError::PeerUnavailable {
            peer: remote.peer().to_string(),
            attempts: max,
            source: last_io,
        }),
        max,
    )
}

fn ends_session(op: &PeerOp) -> bool {
    matches!(op, PeerOp::Call(request) if matches!(**request, Request::Shutdown))
}

fn apply(remote: &mut RemotePipeStore, op: &PeerOp) -> Result<Reply, RpcError> {
    let own = remote.store_id();
    match op {
        _ if ends_session(op) => remote.end_session().map(|()| Reply::Ack),
        PeerOp::Call(request) => remote.call(request),
        PeerOp::DescribeOwn => remote.call(&Request::DescribeNode(own)),
        PeerOp::ExtractOwn(slice) => remote.call(&extract_request(own, slice)),
    }
}

fn extract_request(node: u64, slice: &Slice) -> Request {
    Request::ExtractSlice {
        node,
        run: slice.run as u32,
        n_run: slice.n_run as u32,
        mb: slice.mb as u32,
        n_mb: slice.n_mb as u32,
    }
}

/// Bumps the shard-reroute counter: a read or feature extraction that
/// could not be served by its primary replica and fell through to a
/// surviving one.
fn count_reroutes(n: u64) {
    if n > 0 && telemetry::enabled() {
        telemetry::global()
            .counter(
                "ndpipe_shard_reroutes_total",
                "reads and extractions rerouted from a dead replica to a survivor",
            )
            .add(n);
    }
}

fn worker_main(
    index: usize,
    mut remote: RemotePipeStore,
    rx: mpsc::Receiver<Job>,
) -> RemotePipeStore {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Op { op, attempts, done } => {
                let (sent_before, recv_before) = remote.wire_totals();
                let (result, attempts) = run_op(&mut remote, &op, attempts);
                let (sent_after, recv_after) = remote.wire_totals();
                let reply = WorkerReply {
                    index,
                    peer: remote.peer(),
                    op: op.name(),
                    attempts,
                    sent_bytes: sent_after.saturating_sub(sent_before),
                    recv_bytes: recv_after.saturating_sub(recv_before),
                    result,
                };
                if done.send(reply).is_err() {
                    // The gathering side went away; nothing left to do
                    // for this job.
                }
            }
            Job::Stop => break,
        }
    }
    remote
}

/// Configures and connects a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterBuilder {
    connect: ConnectOptions,
    policy: FailurePolicy,
    op_attempts: u32,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            connect: ConnectOptions::default(),
            policy: FailurePolicy::Strict,
            op_attempts: 2,
        }
    }
}

impl ClusterBuilder {
    /// Starts from the defaults: [`FailurePolicy::Strict`], default
    /// [`ConnectOptions`], 2 attempts per operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the failure policy for every subsequent round.
    #[must_use]
    pub fn policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Connection policy used both at construction and for worker-side
    /// reconnects.
    #[must_use]
    pub fn connect_options(mut self, opts: ConnectOptions) -> Self {
        self.connect = opts;
        self
    }

    /// Attempts per fanned-out operation (clamped to ≥ 1); transport
    /// errors reconnect and retry up to this bound.
    #[must_use]
    pub fn op_attempts(mut self, attempts: u32) -> Self {
        self.op_attempts = attempts.max(1);
        self
    }

    /// Connects to every address in parallel and builds the cluster.
    /// Under [`FailurePolicy::Quorum`], peers that are down get detached
    /// slots (their workers keep trying to reconnect per-operation) as
    /// long as the quorum holds; under [`FailurePolicy::Strict`] any
    /// connect failure is an error.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoPeers`] for an empty list,
    /// [`ClusterError::Config`] for unresolvable addresses, or
    /// [`ClusterError::Rejected`] when the policy does not admit the
    /// surviving set.
    pub fn connect<S: AsRef<str>>(self, addrs: &[S]) -> Result<Cluster, ClusterError> {
        if addrs.is_empty() {
            return Err(ClusterError::NoPeers);
        }
        if let FailurePolicy::Quorum(k) = self.policy {
            if k > addrs.len() {
                return Err(ClusterError::Config("quorum exceeds peer count"));
            }
        }
        let mut resolved = Vec::with_capacity(addrs.len());
        for a in addrs {
            match a.as_ref().to_socket_addrs().ok().and_then(|mut i| i.next()) {
                Some(sa) => resolved.push(sa),
                None => return Err(ClusterError::Config("unresolvable peer address")),
            }
        }
        let opts = self.connect;
        let results: Vec<Result<RemotePipeStore, RpcError>> = std::thread::scope(|s| {
            let handles: Vec<_> = resolved
                .iter()
                .map(|&sa| s.spawn(move || RemotePipeStore::connect_with(sa, opts)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => Err(RpcError::Protocol("peer connect thread panicked")),
                })
                .collect()
        });
        let mut remotes = Vec::with_capacity(resolved.len());
        let mut failures = Vec::new();
        for (index, (result, sa)) in results.into_iter().zip(resolved).enumerate() {
            match result {
                Ok(r) => remotes.push(r),
                Err(error) => {
                    failures.push(PeerFailure {
                        index,
                        peer: sa.to_string(),
                        op: "connect",
                        attempts: opts.max_attempts.max(1),
                        error,
                    });
                    remotes.push(RemotePipeStore::detached(sa, opts));
                }
            }
        }
        let healthy = remotes.iter().filter(|r| r.is_connected()).count();
        if !self.policy.admits(healthy, failures.len()) {
            return Err(ClusterError::Rejected {
                policy: self.policy,
                ok: healthy,
                failures,
            });
        }
        self.adopt_with_failures(remotes, failures)
    }

    /// Builds a cluster around already-connected handles. Order is
    /// preserved: peer `i` of the cluster is `remotes[i]`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoPeers`] for an empty vector, or
    /// [`ClusterError::Config`] if a worker thread cannot be spawned.
    pub fn adopt(self, remotes: Vec<RemotePipeStore>) -> Result<Cluster, ClusterError> {
        self.adopt_with_failures(remotes, Vec::new())
    }

    fn adopt_with_failures(
        self,
        remotes: Vec<RemotePipeStore>,
        initial_failures: Vec<PeerFailure>,
    ) -> Result<Cluster, ClusterError> {
        if remotes.is_empty() {
            return Err(ClusterError::NoPeers);
        }
        if let FailurePolicy::Quorum(k) = self.policy {
            if k > remotes.len() {
                return Err(ClusterError::Config("quorum exceeds peer count"));
            }
        }
        let mut peers = Vec::with_capacity(remotes.len());
        for (index, remote) in remotes.into_iter().enumerate() {
            // ndlint: policy(block, reason = "a lagging peer stalls the Tuner's fan-out wave instead of queueing unbounded jobs; failover marks it dead after op_attempts")
            let (tx, rx) = mpsc::sync_channel(PEER_JOB_QUEUE_CAP);
            let addr = remote.peer();
            let thread = std::thread::Builder::new()
                .name(format!("ndpipe-peer-{index}"))
                .spawn(move || worker_main(index, remote, rx))
                .map_err(|_| ClusterError::Config("failed to spawn peer worker thread"))?;
            peers.push(PeerSlot {
                addr,
                tx,
                thread: Some(thread),
            });
        }
        Ok(Cluster {
            peers,
            policy: self.policy,
            op_attempts: self.op_attempts,
            initial_failures,
        })
    }
}

/// The Tuner's handle to a fleet of PipeStores: owns one worker thread
/// per peer and fans control operations out concurrently, so the wall
/// clock of a phase is the slowest peer, not the sum of all peers.
///
/// ```no_run
/// use ndpipe::rpc::{Cluster, FailurePolicy};
/// # fn demo() -> Result<(), ndpipe::rpc::ClusterError> {
/// let cluster = Cluster::builder()
///     .policy(FailurePolicy::Quorum(2))
///     .connect(&["10.0.0.1:7401", "10.0.0.2:7401", "10.0.0.3:7401"])?;
/// let metrics = cluster.scrape_metrics()?;
/// println!("fleet requests: {:?}",
///          metrics.merged.counter_value("ndpipe_rpc_server_requests_total"));
/// cluster.shutdown();
/// # Ok(()) }
/// ```
pub struct Cluster {
    peers: Vec<PeerSlot>,
    policy: FailurePolicy,
    op_attempts: u32,
    initial_failures: Vec<PeerFailure>,
}

impl Cluster {
    /// Entry point: `Cluster::builder().policy(..).connect(&addrs)`.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Number of peers (healthy or not).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the cluster has no peers (never true for a built cluster).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The failure policy rounds run under.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Peer addresses in index order.
    pub fn peer_addrs(&self) -> Vec<SocketAddr> {
        self.peers.iter().map(|p| p.addr).collect()
    }

    /// Connect-time failures (peers admitted as detached slots under a
    /// quorum policy; their workers reconnect per-operation).
    pub fn initial_failures(&self) -> &[PeerFailure] {
        &self.initial_failures
    }

    /// Fans `op` out to the peers at `indices` and gathers every reply.
    fn fanout_on(&self, indices: &[usize], op: PeerOp) -> Fanout<Reply> {
        let op_name = op.name();
        let t0 = Instant::now();
        // Each targeted peer sends exactly one reply per fan-out, so a
        // bound of `indices.len()` means workers never block on `done`.
        // ndlint: policy(block, reason = "capacity equals the reply count, so the blocking case is unreachable by construction")
        let (tx, rx) = mpsc::sync_channel(indices.len().max(1));
        let mut failures = Vec::new();
        for &index in indices {
            if let Err(f) = self.send(index, op.clone(), &tx) {
                failures.push(f);
            }
        }
        drop(tx);
        let mut ok = Vec::new();
        for reply in rx {
            match reply.into_result() {
                Ok(r) => ok.push(r),
                Err(f) => failures.push(f),
            }
        }
        ok.sort_by_key(|r| r.index);
        failures.sort_by_key(|f| f.index);
        let elapsed = t0.elapsed();
        if telemetry::enabled() {
            let m = telemetry::global();
            m.histogram_with(
                "ndpipe_cluster_fanout_seconds",
                &[("op", op_name)],
                "wall time of one cluster-wide fan-out (slowest peer)",
            )
            .observe(elapsed.as_secs_f64());
            if !failures.is_empty() {
                m.counter_with(
                    "ndpipe_cluster_peer_failures_total",
                    &[("op", op_name)],
                    "peer operations that failed after retries",
                )
                .add(failures.len() as u64);
            }
        }
        Fanout {
            ok,
            failures,
            elapsed,
        }
    }

    /// Queues `op` on peer `index`'s worker, its reply bound for `done`.
    fn send(
        &self,
        index: usize,
        op: PeerOp,
        done: &mpsc::SyncSender<WorkerReply>,
    ) -> Result<(), PeerFailure> {
        let op_name = op.name();
        let job = Job::Op {
            op,
            attempts: self.op_attempts,
            done: done.clone(),
        };
        match self.peers.get(index) {
            Some(slot) if slot.tx.send(job).is_ok() => Ok(()),
            Some(_) => Err(self.lost(index, op_name, "peer worker is gone")),
            None => Err(self.lost(index, op_name, "peer index out of range")),
        }
    }

    /// A failure of peer `index` that no attempt reached the wire for.
    fn lost(&self, index: usize, op: &'static str, why: &'static str) -> PeerFailure {
        PeerFailure {
            index,
            peer: match self.peers.get(index) {
                Some(slot) => slot.addr.to_string(),
                None => "<out of range>".to_string(),
            },
            op,
            attempts: 0,
            error: RpcError::Protocol(why),
        }
    }

    fn fanout_all(&self, op: PeerOp) -> Fanout<Reply> {
        let indices: Vec<usize> = (0..self.peers.len()).collect();
        self.fanout_on(&indices, op)
    }

    /// Re-types a raw fanout, converting unexpected reply shapes into
    /// failures rather than panicking (this file is a no-panic zone).
    fn typed<T>(
        raw: Fanout<Reply>,
        op: &'static str,
        mut map: impl FnMut(Reply) -> Option<T>,
    ) -> Fanout<T> {
        let mut ok = Vec::with_capacity(raw.ok.len());
        let mut failures = raw.failures;
        for r in raw.ok {
            match r.map_value(op, &mut map) {
                Ok(r) => ok.push(r),
                Err(f) => failures.push(f),
            }
        }
        failures.sort_by_key(|f| f.index);
        Fanout {
            ok,
            failures,
            elapsed: raw.elapsed,
        }
    }

    /// Installs a model replica on every peer. The model is serialized
    /// once and the bytes shared across workers.
    pub fn install_model(&self, model: &Mlp) -> Fanout<()> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::InstallModel(model.to_bytes()))),
            "install_model",
            ack,
        )
    }

    /// Extracts features for pipeline run `run` of `n_run` of every
    /// peer's own shard concurrently — the fan-out that carries the
    /// paper's scaling claim.
    pub fn extract_features(&self, run: u32, n_run: u32) -> Fanout<(Tensor, Vec<usize>)> {
        Self::typed(
            self.fanout_all(PeerOp::ExtractOwn(Slice {
                node: 0,
                run: run as usize,
                n_run: n_run as usize,
                mb: 0,
                n_mb: 1,
            })),
            "extract_slice",
            features,
        )
    }

    /// Runs near-data offline inference on every peer.
    pub fn offline_infer(&self) -> Fanout<Vec<(u64, u32)>> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::OfflineInfer)),
            "offline_infer",
            |ok| match ok {
                Reply::Labels(pairs) => Some(pairs),
                _ => None,
            },
        )
    }

    /// Ships a Check-N-Run delta to every peer (serialized once).
    pub fn apply_delta(&self, delta: &ModelDelta) -> Fanout<()> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::ApplyDelta(delta.to_bytes()))),
            "apply_delta",
            ack,
        )
    }

    /// Fetches every peer's [`ShardDesc`]: example/class counts plus the
    /// math policy and kernel family its FE paths run under — the
    /// fleet-uniformity audit input (mixing features extracted under
    /// different policies silently degrades fine-tuning).
    pub fn describe(&self) -> Fanout<ShardDesc> {
        Self::typed(
            self.fanout_all(PeerOp::DescribeOwn),
            "describe_node",
            shard_info,
        )
    }

    /// Scrapes every peer's telemetry registry concurrently.
    pub fn scrape(&self) -> Fanout<telemetry::Snapshot> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::Metrics)),
            "metrics",
            |ok| match ok {
                Reply::Metrics(snap) => Some(snap),
                _ => None,
            },
        )
    }

    /// Scrapes the fleet and folds the snapshots into a cluster-wide
    /// [`ClusterMetrics`] view, subject to the failure policy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] when too few peers answered.
    pub fn scrape_metrics(&self) -> Result<ClusterMetrics, ClusterError> {
        let fan = self.scrape();
        if !self.policy.admits(fan.ok.len(), fan.failures.len()) {
            return Err(ClusterError::Rejected {
                policy: self.policy,
                ok: fan.ok.len(),
                failures: fan.failures,
            });
        }
        let per_peer: Vec<(SocketAddr, telemetry::Snapshot)> =
            fan.ok.into_iter().map(|r| (r.peer, r.value)).collect();
        let merged = telemetry::Snapshot::merged(per_peer.iter().map(|(_, s)| s));
        Ok(ClusterMetrics { per_peer, merged })
    }

    /// Fetches the placement map every peer currently holds (peers with
    /// no map installed report a failure).
    pub fn placement(&self) -> Fanout<PlacementMap> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::Placement)),
            "placement",
            |ok| match ok {
                Reply::Placement(map) => Some(map),
                _ => None,
            },
        )
    }

    /// Publishes `map` cluster-wide. Peers holding a newer epoch reject
    /// the install (reported as per-peer failures); equal epochs are
    /// idempotent acks. The map is serialized once and shared.
    pub fn publish_placement(&self, map: &PlacementMap) -> Fanout<()> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::InstallPlacement(map.clone()))),
            "install_placement",
            ack,
        )
    }

    /// Replicated write: stores `rec` on every live replica `map`
    /// assigns its photo id. Peer index `i` is placement node `i`.
    pub fn put_photo(&self, map: &PlacementMap, rec: &PhotoRecord) -> Fanout<()> {
        let indices: Vec<usize> = map
            .replicas_for(rec.id)
            .into_iter()
            .map(|n| n as usize)
            .collect();
        Self::typed(
            self.fanout_on(&indices, PeerOp::call(Request::PutPhoto(rec.clone()))),
            "put_photo",
            ack,
        )
    }

    /// Read with failover: tries the replicas `map` ranks for `id` in
    /// order and returns the first copy that answers. Every replica
    /// skipped on the way counts into `ndpipe_shard_reroutes_total`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] when the map ranks no live replica,
    /// [`ClusterError::Rejected`] when every ranked replica failed.
    pub fn get_photo(&self, map: &PlacementMap, id: u64) -> Result<PhotoRecord, ClusterError> {
        let replicas = map.replicas_for(id);
        if replicas.is_empty() {
            return Err(ClusterError::Config("placement map ranks no live replica"));
        }
        let mut failures = Vec::new();
        for (rank, &node) in replicas.iter().enumerate() {
            let fan = self.fanout_on(&[node as usize], PeerOp::call(Request::GetPhoto(id)));
            failures.extend(fan.failures);
            for r in fan.ok {
                match r.map_value("get_photo", photo) {
                    Ok(r) => {
                        count_reroutes(rank as u64);
                        return Ok(r.value);
                    }
                    Err(f) => failures.push(f),
                }
            }
        }
        Err(self.reject(0, failures))
    }

    /// Lists the photo ids each peer holds (its own shard plus any
    /// replicas parked on it).
    pub fn list_photos(&self) -> Fanout<Vec<u64>> {
        Self::typed(
            self.fanout_all(PeerOp::call(Request::ListPhotos)),
            "list_photos",
            |ok| match ok {
                Reply::PhotoIds(ids) => Some(ids),
                _ => None,
            },
        )
    }

    /// Self-healing sweep after a membership change: publishes `new`
    /// cluster-wide, then copies exactly the photos whose replica set
    /// differs between `old` and `new` onto the replicas that lack
    /// them, in bounded-rate waves. Payload bytes land in
    /// `ndpipe_rebalance_bytes_total`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] when publishing the map or listing
    /// current holders falls below the failure policy; per-photo copy
    /// failures are reported in the returned report instead.
    pub fn rebalance(
        &self,
        old: &PlacementMap,
        new: &PlacementMap,
        config: &RebalanceConfig,
    ) -> Result<RebalanceReport, ClusterError> {
        let t0 = Instant::now();
        let mut report = RebalanceReport::default();

        // Publish first: reads and writes flip to the new epoch
        // immediately, and the copy loop below backfills under it.
        let fan = self.publish_placement(new);
        let published = fan.ok.len();
        report.failures.extend(fan.failures);
        if !self.policy.admits(published, report.failures.len()) {
            return Err(self.reject(published, report.failures));
        }

        // Who holds what right now (ground truth beats the old map:
        // a crashed-and-wiped peer shows up empty here).
        let fan = self.list_photos();
        let listed = fan.ok.len();
        let mut holders: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for r in fan.ok {
            for id in r.value {
                holders.entry(id).or_default().push(r.index);
            }
        }
        report.failures.extend(fan.failures);
        if !self.policy.admits(listed, report.failures.len()) {
            return Err(self.reject(listed, report.failures));
        }

        let mut wave_bytes = 0u64;
        for (&id, holding) in &holders {
            if !PlacementMap::replica_set_changed(old, new, id) {
                continue;
            }
            let missing: Vec<usize> = new
                .replicas_for(id)
                .into_iter()
                .map(|n| n as usize)
                .filter(|i| !holding.contains(i))
                .collect();
            if missing.is_empty() {
                continue;
            }
            // Fetch one copy from any current holder.
            let mut rec = None;
            for &h in holding {
                let fan = self.fanout_on(&[h], PeerOp::call(Request::GetPhoto(id)));
                report.failures.extend(fan.failures);
                if let Some(p) = fan.ok.into_iter().next().and_then(|r| photo(r.value)) {
                    rec = Some(p);
                    break;
                }
            }
            let Some(rec) = rec else {
                // Every holder refused; the photo keeps its old copies.
                continue;
            };
            let copy_bytes = rec.transfer_bytes() as u64;
            let put = PeerOp::call(Request::PutPhoto(rec));
            let fan = Self::typed(self.fanout_on(&missing, put), "put_photo", ack);
            let stored = fan.ok.len() as u64;
            report.failures.extend(fan.failures);
            if stored == 0 {
                continue;
            }
            report.photos_copied += 1;
            let shipped = copy_bytes * stored;
            report.bytes_copied += shipped;
            wave_bytes += shipped;
            if wave_bytes >= config.max_bytes_per_wave {
                report.waves += 1;
                wave_bytes = 0;
                if !config.wave_pause.is_zero() {
                    std::thread::sleep(config.wave_pause);
                }
            }
        }
        if wave_bytes > 0 || report.photos_copied == 0 {
            report.waves += 1;
        }
        if telemetry::enabled() && report.bytes_copied > 0 {
            telemetry::global()
                .counter(
                    "ndpipe_rebalance_bytes_total",
                    "payload bytes copied to backfilling replicas by rebalance sweeps",
                )
                .add(report.bytes_copied);
        }
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Runs `rounds` back-to-back FT-DMP fine-tuning rounds across the
    /// cluster on the one FT-DMP scheduler ([`crate::ftdmp`]):
    /// extraction streams Store→Tuner as micro-batches
    /// (`ExtractSlice`) under a bounded-staleness window, idle
    /// peers steal a straggler's remaining micro-batches through the
    /// placement map, and each round's Check-N-Run delta distribution
    /// overlaps the next round's extraction (safe because features depend
    /// only on the *frozen* prefix, which deltas never touch).
    ///
    /// - Before any model moves, every peer describes its own shard;
    ///   one the job cannot use is a recorded failure, not a panic.
    ///   Peers that fail a phase drop out, and the [`FailurePolicy`]
    ///   decides after each phase whether the survivors suffice.
    /// - With a placement map the shards to train on come from the map:
    ///   a peer that is dead (at start or mid-sweep) stops being a
    ///   transport, but its shard is still trained on through a surviving
    ///   replica. Without one, every live peer serves its own shard.
    /// - Staleness `S = 0` with `micro_batch: usize::MAX` is the
    ///   run-at-a-time barrier schedule, bit-identical to
    ///   [`crate::ftdmp::ftdmp_fine_tune_reference`].
    /// - A steal from a *live* owner counts in `schedule.steals`; a
    ///   micro-batch served for a dead owner counts in `reroutes` and in
    ///   `ndpipe_shard_reroutes_total`. `feature_bytes` and
    ///   `distribution_bytes` are actual wire bytes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Ftdmp`] for an invalid job,
    /// [`ClusterError::Rejected`] when the [`FailurePolicy`] gives up.
    pub fn ftdmp_fine_tune_pipelined<R: Rng + ?Sized>(
        &self,
        tuner: &mut Tuner,
        config: &FtdmpConfig,
        rounds: usize,
        rng: &mut R,
        placement: Option<&PlacementMap>,
    ) -> Result<ClusterFtdmpReport, ClusterError> {
        if self.peers.is_empty() {
            return Err(ClusterError::NoPeers);
        }
        if config.n_run == 0 {
            return Err(ClusterError::Ftdmp(FtdmpError::ZeroRuns));
        }
        if rounds == 0 {
            return Err(ClusterError::Config("need at least one round"));
        }
        let mut failures: Vec<PeerFailure> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        let mut sized: BTreeMap<usize, usize> = BTreeMap::new();
        let mut unfit: Vec<usize> = Vec::new();

        // 0. Every reachable peer describes its own shard.
        let fan = self.describe();
        failures.extend(fan.failures);
        for r in fan.ok {
            let (n, classes) = (r.value.examples as usize, r.value.classes as usize);
            match check_shard(r.index, n, classes, tuner, config) {
                Ok(()) => {
                    sized.insert(r.index, n);
                    live.push(r.index);
                }
                Err(e) => {
                    unfit.push(r.index);
                    failures.push(PeerFailure {
                        index: r.index,
                        peer: r.peer.to_string(),
                        op: "describe_node",
                        attempts: r.attempts,
                        error: RpcError::Remote {
                            peer: r.peer.to_string(),
                            op: "describe_node",
                            msg: e.to_string(),
                        },
                    });
                }
            }
        }
        self.admit(&live, &mut failures)?;

        // 1. Distribute the current master model (serialized once).
        let install = PeerOp::call(Request::InstallModel(tuner.model().to_bytes()));
        let fan = Self::typed(self.fanout_on(&live, install), "install_model", ack);
        live = fan.ok.iter().map(|r| r.index).collect();
        failures.extend(fan.failures);
        self.admit(&live, &mut failures)?;

        // 2. Extract, train and redistribute on the one scheduler.
        // With a placement map, a node dead at connect is sized through
        // a live holder of its replica.
        let shards = match placement {
            Some(map) => map
                .nodes()
                .iter()
                .map(|n| n.id as usize)
                .filter(|i| !unfit.contains(i))
                .filter_map(|i| {
                    let n = sized.get(&i).copied();
                    Some((
                        i,
                        n.or_else(|| self.size_replica(map, i, &live, tuner, config))?,
                    ))
                })
                .collect(),
            None => live
                .iter()
                .filter_map(|i| sized.get(i).map(|&n| (*i, n)))
                .collect(),
        };
        let plan = Plan {
            shards,
            live,
            failures,
        };
        let mut source = ClusterSource::new(self, placement);
        let done =
            schedule(&mut source, plan, tuner, config, rounds, rng).map_err(|e| match e {
                Aborted::Ftdmp(e) => ClusterError::Ftdmp(e),
                Aborted::Rejected { ok, failures } => self.reject(ok, failures),
                Aborted::Lost(why) => ClusterError::Config(why),
            })?;
        count_reroutes(done.reroutes);
        if telemetry::enabled() {
            telemetry::global()
                .counter(
                    "ndpipe_ftdmp_remote_rounds_total",
                    "completed remote FT-DMP fine-tuning rounds",
                )
                .add(rounds as u64);
        }
        Ok(ClusterFtdmpReport {
            report: done.report,
            failures: done.failures,
            peers_used: done.live,
            reroutes: done.reroutes,
        })
    }

    /// Sizes `node`'s shard through the first live peer holding a
    /// replica of it that describes a shard the job can use.
    fn size_replica(
        &self,
        map: &PlacementMap,
        node: usize,
        live: &[usize],
        tuner: &Tuner,
        config: &FtdmpConfig,
    ) -> Option<usize> {
        let describe = PeerOp::call(Request::DescribeNode(node as u64));
        map.shard_holders(node as u64)
            .into_iter()
            .map(|h| h as usize)
            .filter(|h| live.contains(h))
            .find_map(|h| {
                let fan = Self::typed(
                    self.fanout_on(&[h], describe.clone()),
                    "describe_node",
                    shard_info,
                );
                let desc = fan.ok.into_iter().next()?.value;
                let n = desc.examples as usize;
                check_shard(node, n, desc.classes as usize, tuner, config)
                    .is_ok()
                    .then_some(n)
            })
    }

    /// Whether the policy lets a round go on with `live` after
    /// `failures`; a refusal hands the failures to the error.
    fn admit(&self, live: &[usize], failures: &mut Vec<PeerFailure>) -> Result<(), ClusterError> {
        if self.policy.admits(live.len(), failures.len()) {
            Ok(())
        } else {
            Err(self.reject(live.len(), std::mem::take(failures)))
        }
    }

    fn reject(&self, ok: usize, failures: Vec<PeerFailure>) -> ClusterError {
        ClusterError::Rejected {
            policy: self.policy,
            ok,
            failures,
        }
    }

    /// Ends every peer session cleanly, then stops and joins the worker
    /// threads. Per-peer shutdown failures are reported, not fatal.
    pub fn shutdown(mut self) -> Fanout<()> {
        let indices: Vec<usize> = (0..self.peers.len()).collect();
        let fan = Self::typed(
            self.fanout_on(&indices, PeerOp::call(Request::Shutdown)),
            "shutdown",
            ack,
        );
        self.stop_and_join();
        fan
    }

    /// Stops the workers and returns the underlying per-peer handles in
    /// index order (sessions intact), e.g. for direct per-peer calls
    /// after the fan-out phase of a round is done.
    pub fn into_remotes(mut self) -> Vec<RemotePipeStore> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Vec<RemotePipeStore> {
        for slot in &self.peers {
            let _ = slot.tx.send(Job::Stop);
        }
        let mut out = Vec::with_capacity(self.peers.len());
        for slot in self.peers.iter_mut() {
            if let Some(thread) = slot.thread.take() {
                if let Ok(remote) = thread.join() {
                    out.push(remote);
                }
            }
        }
        out
    }
}

/// The cluster as a [`ShardSource`]: executors are peers, a node's home
/// is the peer of the same index, and a peer may also serve every node
/// whose shard the placement map replicates onto it. Extractions ride
/// the per-peer workers and come back on one shared reply lane.
struct ClusterSource<'c> {
    cluster: &'c Cluster,
    placement: Option<&'c PlacementMap>,
    lane_tx: mpsc::SyncSender<WorkerReply>,
    lane_rx: mpsc::Receiver<WorkerReply>,
    /// One ack receiver per delta distributed and not yet settled.
    acks: Vec<mpsc::Receiver<WorkerReply>>,
}

impl<'c> ClusterSource<'c> {
    fn new(cluster: &'c Cluster, placement: Option<&'c PlacementMap>) -> Self {
        // ndlint: policy(block, reason = "capacity equals peers times the per-peer in-flight cap, the most extract jobs the dispatch window allows, so the blocking case is unreachable by construction")
        let (lane_tx, lane_rx) = mpsc::sync_channel(cluster.peers.len().max(1) * Self::WINDOW);
        ClusterSource {
            cluster,
            placement,
            lane_tx,
            lane_rx,
            acks: Vec::new(),
        }
    }
}

impl ShardSource for ClusterSource<'_> {
    type Failure = PeerFailure;
    const WINDOW: usize = 2;

    fn executors(&self) -> usize {
        self.cluster.peers.len()
    }

    fn home(&self, node: usize) -> usize {
        node
    }

    fn can_serve(&self, peer: usize, node: usize) -> bool {
        peer == node
            || self
                .placement
                .is_some_and(|m| m.shard_holders(node as u64).contains(&(peer as u64)))
    }

    fn extract_slice(&mut self, peer: usize, slice: Slice) -> Result<(), PeerFailure> {
        // A peer serving its own shard names it by its handshake id, so
        // store ids need not match connect order without a placement map.
        let op = if peer == slice.node {
            PeerOp::ExtractOwn(slice)
        } else {
            PeerOp::call(extract_request(slice.node as u64, &slice))
        };
        self.cluster.send(peer, op, &self.lane_tx)
    }

    fn next_extracted(&mut self) -> Option<Extracted<PeerFailure>> {
        let reply = self.lane_rx.recv().ok()?;
        let executor = reply.index;
        let result = reply
            .into_result()
            .and_then(|r| r.map_value("extract_slice", features))
            .map(|r| (r.value.0, r.value.1, r.recv_bytes as usize));
        Some(Extracted { executor, result })
    }

    fn apply_delta(&mut self, delta: &ModelDelta, peers: &[usize]) {
        let op = PeerOp::call(Request::ApplyDelta(delta.to_bytes()));
        // Each targeted peer sends exactly one ack, so a bound of
        // `peers.len()` means workers never block.
        // ndlint: policy(block, reason = "capacity equals the reply count, so the blocking case is unreachable by construction")
        let (tx, rx) = mpsc::sync_channel::<WorkerReply>(peers.len().max(1));
        for &p in peers {
            // A peer whose worker is gone sends no ack; the extract path
            // reports it.
            let _ = self.cluster.send(p, op.clone(), &tx);
        }
        self.acks.push(rx);
    }

    fn settle_deltas(&mut self) -> Vec<(usize, Result<usize, PeerFailure>)> {
        self.acks
            .drain(..)
            .flatten()
            .map(|reply| {
                let index = reply.index;
                let ack = reply
                    .into_result()
                    .and_then(|r| r.map_value("apply_delta", ack))
                    .map(|r| r.sent_bytes as usize);
                (index, ack)
            })
            .collect()
    }

    fn admits(&self, live: usize, failed: usize) -> bool {
        self.cluster.policy.admits(live, failed)
    }

    fn orphaned(&self, node: usize) -> PeerFailure {
        self.cluster
            .lost(node, "extract_slice", "no surviving replica for shard")
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Best-effort: unblock workers; shutdown()/into_remotes() join.
        for slot in &self.peers {
            let _ = slot.tx.send(Job::Stop);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("peers", &self.peer_addrs())
            .field("policy", &self.policy)
            .field("op_attempts", &self.op_attempts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_admission_rules() {
        assert!(FailurePolicy::Strict.admits(3, 0));
        assert!(!FailurePolicy::Strict.admits(3, 1));
        assert!(FailurePolicy::Quorum(2).admits(2, 1));
        assert!(!FailurePolicy::Quorum(2).admits(1, 2));
        assert!(FailurePolicy::Quorum(0).admits(0, 5));
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let addrs: [&str; 0] = [];
        assert!(matches!(
            Cluster::builder().connect(&addrs),
            Err(ClusterError::NoPeers)
        ));
        assert!(matches!(
            Cluster::builder().adopt(Vec::new()),
            Err(ClusterError::NoPeers)
        ));
    }

    #[test]
    fn strict_connect_to_dead_peers_fails_with_peer_failures() {
        let opts = ConnectOptions::new()
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(1));
        let err = Cluster::builder()
            .connect_options(opts)
            .connect(&["127.0.0.1:1", "127.0.0.1:1"])
            .err()
            .expect("dead peers must not connect");
        match err {
            ClusterError::Rejected { ok, failures, .. } => {
                assert_eq!(ok, 0);
                assert_eq!(failures.len(), 2);
                assert!(failures
                    .iter()
                    .all(|f| matches!(f.error, RpcError::PeerUnavailable { .. })));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn quorum_zero_admits_all_dead_peers_as_detached() {
        let opts = ConnectOptions::new()
            .retries(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(1));
        let cluster = Cluster::builder()
            .connect_options(opts)
            .policy(FailurePolicy::Quorum(0))
            .connect(&["127.0.0.1:1"])
            .expect("quorum(0) admits anything");
        assert_eq!(cluster.len(), 1);
        assert_eq!(cluster.initial_failures().len(), 1);
        // Operations fail per-peer instead of erroring the whole call.
        let fan = cluster.describe();
        assert!(fan.ok.is_empty());
        assert_eq!(fan.failures.len(), 1);
        // Quorum(0) admits an empty surviving set, so the scrape
        // "succeeds" with zero peers rather than rejecting.
        let metrics = cluster.scrape_metrics().expect("quorum(0) admits");
        assert!(metrics.per_peer.is_empty());
        let fan = cluster.shutdown();
        // Nothing to end on a detached peer; shutdown is clean.
        assert!(fan.failures.is_empty());
    }
}
