//! One benchmark run: set the fleet up (several times, for `setup_s`),
//! replay the workload's phases, check every output, and turn the
//! measurements into the end-to-end and per-layer metrics.

use crate::config::{
    Phase, Probe, Sizes, Workload, BUSY_RATE, LADDER, LATENCY_LIMIT_MS, LIGHT_RATE,
    MAX_GEN_LATE_MS, REPLICAS, ROUNDS, SETUP_REPEATS,
};
use crate::fleet::Fleet;
use crate::gen::{fingerprint, Inputs, Schedule};
use crate::host;
use crate::ingest::{self, IngestCtx, OpCounts, PhaseOutcome, BACKLOG_SPAN};
use crate::metrics::{self, E2eDef, LayerDef};
use crate::refresh::{self, CycleOutcome};
use crate::stats::{median, quantile};
use crate::trace::{Span, Tracer};
use dnn::Mlp;
use ndpipe::rpc::wire::ShardDesc;
use ndpipe::rpc::{ConnectOptions, RemotePipeStore};
use ndpipe::LabelDb;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{HistogramSnapshot, SampleValue, Snapshot};

/// NDPipe must beat the outdated model by at least this much top-1.
pub const ACCURACY_MARGIN: f64 = 0.05;
/// How far NDPipe may score above Base: the store replica carries 8-bit
/// quantized deltas, and on a finite test set that perturbation can gain
/// a few samples as well as lose them.
pub const QUANT_TOLERANCE: f64 = 0.005;
/// Planning figure for one refresh cycle: a phase with refresh cycles
/// runs a fixed number of them, its share of the run over this, so the
/// work a run does never depends on how fast it went.
const CYCLE_PLAN_S: f64 = 0.2;
/// Seconds of unmeasured light-rate traffic after the warm-up refresh
/// cycle, so allocator and connection state settle before timing.
const WARMUP_S: f64 = 2.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds, split over the workload's phases.
    pub seconds: f64,
    /// Also run a traced pass for the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Fleet set-ups whose median is `setup_s`.
    pub setup_repeats: usize,
}

impl Options {
    /// The benchmark's options for one workload, seed and duration.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::full(),
            setup_repeats: SETUP_REPEATS,
        }
    }
}

/// Everything one pass over the workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds of each fleet set-up.
    pub setup_s: Vec<f64>,
    /// Unmeasured light-rate traffic before the measured phases.
    pub warmup: PhaseOutcome,
    /// Light-rate phase, pooled over the rounds.
    pub light: PhaseOutcome,
    /// Busy-rate phase.
    pub busy: PhaseOutcome,
    /// Ladder steps, ascending rate.
    pub ladder: Vec<PhaseOutcome>,
    /// Measured refresh cycles.
    pub cycles: Vec<CycleOutcome>,
    /// Held-out top-1 of the deployed model.
    pub outdated_top1: f64,
    /// Store descriptions (policy and kernel) read back from the fleet.
    pub describe: Vec<ShardDesc>,
    /// Photos each store held at shutdown.
    pub store_photos: Vec<usize>,
    /// Photos acknowledged by both replicas (corpus included).
    pub stored: u64,
    /// Program CPU seconds of the main phases: process CPU time less the
    /// generator's own input making and output checking.
    pub work_cpu_s: f64,
    /// Program CPU seconds of the probes (busy rate and ladder), likewise.
    pub probe_cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured phases, percent.
    pub steal_pct: f64,
    /// Process-global telemetry before and after the measured phases.
    pub global: (Snapshot, Snapshot),
    /// Merged fleet telemetry before and after the measured phases.
    pub fleet: (Snapshot, Snapshot),
    /// Recorded spans (traced pass only).
    pub spans: Vec<Span>,
    /// Failed output checks.
    pub failures: Vec<String>,
}

impl Pass {
    /// Every upload phase's outcome.
    pub fn upload_phases(&self) -> impl Iterator<Item = &PhaseOutcome> {
        [&self.warmup, &self.light, &self.busy]
            .into_iter()
            .chain(&self.ladder)
    }

    /// Sent/succeeded/failed per operation.
    pub fn counts(&self) -> Vec<(&'static str, OpCounts)> {
        let mut up = OpCounts::default();
        let mut rd = OpCounts::default();
        for p in self.upload_phases() {
            up.merge(&p.uploads);
            rd.merge(&p.reads);
        }
        let mut cyc = OpCounts::default();
        for c in &self.cycles {
            cyc.sent += 1;
            if c.errors.is_empty() {
                cyc.ok += 1;
            } else {
                cyc.failed += 1;
            }
        }
        vec![("upload", up), ("read", rd), ("refresh_cycle", cyc)]
    }
}

/// Runs the workload once (tracing on or off) on a freshly set-up fleet.
///
/// # Errors
///
/// A message when the fleet cannot be set up or driven at all.
pub fn pass(inputs: &Inputs, opts: &Options, tracer: &Tracer) -> Result<Pass, String> {
    let mut out = Pass::default();
    let mut fleet = None;
    for _ in 0..opts.setup_repeats.max(1) {
        if let Some(f) = fleet.take() {
            Fleet::shutdown(f)?;
        }
        let t = Instant::now();
        fleet = Some(Fleet::boot(inputs)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("at least one set-up ran");
    out.describe = fleet.describe()?;
    out.outdated_top1 = refresh::outdated_top1(inputs);

    let stored = AtomicU64::new(inputs.corpus.len() as u64);
    let labels = LabelDb::new();
    let fingerprints: Mutex<HashMap<u64, u64>> = Mutex::new(
        inputs
            .corpus
            .iter()
            .map(|r| (r.id, fingerprint(&r.blob, &r.sidecar)))
            .collect(),
    );

    // Warm-up cycle, not measured: fills caches and records the model
    // sequence every later cycle must reproduce.
    let quiet = Tracer::new(false);
    let warm = refresh::cycle(
        &fleet.cluster,
        &fleet.map,
        inputs,
        &stored,
        0,
        &mut quiet.local(0),
    );
    if !warm.errors.is_empty() {
        return Err(format!("warm-up refresh cycle: {}", warm.errors.join("; ")));
    }
    let all_served: Vec<Mlp> = warm.served.clone();
    let final_model: Vec<Mlp> = warm.served.last().cloned().into_iter().collect();

    let mut sessions = Vec::new();
    for _ in 0..crate::config::GEN_THREADS {
        let s = RemotePipeStore::connect_with(fleet.addr(0), ConnectOptions::new())
            .map_err(|e| format!("generator session: {e}"))?;
        sessions.push(s);
    }

    let mut next_id = inputs.corpus.len() as u64;
    let mut schedule_index = 0u64;
    let mut schedule = |rate: f64, secs: f64, next_id: &mut u64| {
        schedule_index += 1;
        let s = Schedule::poisson(inputs.seed, schedule_index, rate, secs, *next_id, *next_id);
        *next_id = s.next_id;
        s
    };
    let quiet_ctx = IngestCtx {
        inputs,
        cluster: &fleet.cluster,
        map: &fleet.map,
        labels: &labels,
        fingerprints: &fingerprints,
        stored: &stored,
        served: &final_model,
        tracer,
    };
    let s = schedule(LIGHT_RATE, WARMUP_S, &mut next_id);
    let warm_ctx = IngestCtx {
        tracer: &quiet,
        ..quiet_ctx
    };
    out.warmup = ingest::replay(&warm_ctx, &s, &mut sessions);

    out.global.0 = telemetry::global().snapshot();
    out.fleet.0 = fleet
        .cluster
        .scrape_metrics()
        .map_err(|e| format!("scrape: {e}"))?
        .merged;
    let steal0 = host::steal_ticks();

    // While the refresh loop runs, a store may serve any model of the
    // cycle's sequence.
    let refresh_ctx = IngestCtx {
        served: &all_served,
        ..quiet_ctx
    };
    let cycle_seq = AtomicU64::new(1);
    let run_cycles = |done: &dyn Fn(usize) -> bool| -> Vec<CycleOutcome> {
        let mut local = tracer.local(0);
        let mut cycles = Vec::new();
        while !done(cycles.len()) {
            let seq = cycle_seq.fetch_add(1, Ordering::Relaxed);
            let c = refresh::cycle(&fleet.cluster, &fleet.map, inputs, &stored, seq, &mut local);
            let failed = !c.errors.is_empty();
            cycles.push(c);
            if failed {
                break;
            }
        }
        cycles
    };

    let cpu0 = host::cpu_time();
    for _ in 0..ROUNDS {
        for &(phase, share) in opts.workload.phases() {
            let secs = share * opts.seconds / ROUNDS as f64;
            match phase {
                Phase::Light => {
                    let s = schedule(LIGHT_RATE, secs, &mut next_id);
                    out.light
                        .merge(ingest::replay(&quiet_ctx, &s, &mut sessions));
                }
                Phase::LightDuringRefresh => {
                    let s = schedule(LIGHT_RATE, secs, &mut next_id);
                    let planned = planned_cycles(secs);
                    let (light, cycles) = std::thread::scope(|scope| {
                        let h = scope.spawn(|| run_cycles(&|n| n >= planned));
                        let light = ingest::replay(&refresh_ctx, &s, &mut sessions);
                        h.join().map(|cycles| (light, cycles))
                    })
                    .map_err(|_| "refresh thread panicked".to_string())?;
                    out.light.merge(light);
                    out.cycles.extend(cycles);
                }
                Phase::RefreshLoop => {
                    let planned = planned_cycles(secs);
                    out.cycles.extend(run_cycles(&|n| n >= planned));
                }
            }
        }
    }
    out.work_cpu_s = (host::cpu_time() - cpu0).as_secs_f64() - out.light.bench_cpu_s;
    let t = Instant::now();
    tracer.local(0).record(PROBES_MARK, 0, 0, t, t);
    let cpu0 = host::cpu_time();
    for &(phase, share) in opts.workload.probes() {
        let secs = share * opts.seconds;
        match phase {
            Probe::Busy => {
                let s = schedule(BUSY_RATE, secs, &mut next_id);
                out.busy = ingest::replay(&quiet_ctx, &s, &mut sessions);
            }
            Probe::Ladder => {
                let step_s = secs / LADDER.len() as f64;
                for rate in LADDER {
                    let s = schedule(rate, step_s, &mut next_id);
                    out.ladder
                        .push(ingest::replay(&quiet_ctx, &s, &mut sessions));
                }
            }
        }
    }

    let probe_bench: f64 = [&out.busy]
        .into_iter()
        .chain(&out.ladder)
        .map(|p| p.bench_cpu_s)
        .sum();
    out.probe_cpu_s = (host::cpu_time() - cpu0).as_secs_f64() - probe_bench;
    let steal1 = host::steal_ticks();
    out.steal_pct = 100.0 * steal1.0.saturating_sub(steal0.0) as f64
        / steal1.1.saturating_sub(steal0.1).max(1) as f64;
    out.global.1 = telemetry::global().snapshot();
    out.fleet.1 = fleet
        .cluster
        .scrape_metrics()
        .map_err(|e| format!("scrape: {e}"))?
        .merged;
    for s in sessions {
        let _ = s.shutdown();
    }
    out.stored = stored.load(Ordering::Relaxed);
    out.store_photos = fleet.shutdown()?;
    out.spans = tracer.spans();
    check(&mut out, &warm);
    Ok(out)
}

fn planned_cycles(secs: f64) -> usize {
    ((secs / CYCLE_PLAN_S).round() as usize).max(1)
}

/// A ladder step meets the limit when no upload failed, its upload p99 is
/// within [`LATENCY_LIMIT_MS`], and its backlog did not grow past it.
pub fn step_passes(step: &PhaseOutcome) -> bool {
    step.uploads.failed == 0
        && quantile(&step.upload_ms, 0.99) <= LATENCY_LIMIT_MS
        && step.backlog_ms <= LATENCY_LIMIT_MS
}

/// The highest ladder rate meeting the limit, interpolated on p99 toward
/// the next step. A failing step below a passing one was a transient
/// stall, not saturation, so the highest passing step counts.
pub fn capacity(ladder: &[PhaseOutcome]) -> f64 {
    let Some(i) = ladder.iter().rposition(step_passes) else {
        return 0.0;
    };
    let step = &ladder[i];
    let Some(next) = ladder.get(i + 1) else {
        return step.rate;
    };
    let p0 = quantile(&step.upload_ms, 0.99);
    let p1 = quantile(&next.upload_ms, 0.99).max(next.backlog_ms);
    if p1.is_finite() && p1 > p0 && next.uploads.failed == 0 {
        let f = ((LATENCY_LIMIT_MS - p0) / (p1 - p0)).clamp(0.0, 1.0);
        step.rate + f * (next.rate - step.rate)
    } else {
        step.rate
    }
}

fn check(out: &mut Pass, warm: &CycleOutcome) {
    let mut f = Vec::new();
    for (op, c) in out.counts() {
        if c.failed > 0 {
            f.push(format!("{} of {} {op} operations failed", c.failed, c.sent));
        }
    }
    for p in out.upload_phases() {
        if p.label_mismatches > 0 {
            f.push(format!(
                "{} upload labels differ from Mlp::forward",
                p.label_mismatches
            ));
        }
        if p.read_mismatches > 0 {
            f.push(format!(
                "{} reads returned other bytes than written",
                p.read_mismatches
            ));
        }
        f.extend(p.errors.iter().cloned());
    }
    let want = warm.served.last().map(Mlp::to_bytes);
    for c in &out.cycles {
        f.extend(c.errors.iter().cloned());
        if c.errors.is_empty() && c.served.last().map(Mlp::to_bytes) != want {
            f.push("a refresh cycle trained a different model than the first".into());
        }
        if c.reroutes > 0 {
            f.push(format!(
                "{} FT-DMP shard reroutes on a healthy fleet",
                c.reroutes
            ));
        }
    }
    if out.cycles.is_empty() {
        f.push("no refresh cycle completed".into());
    }
    let (base, ndp, old) = (warm.base_top1, warm.ndpipe_top1, out.outdated_top1);
    if !accuracy_ok(base, ndp, old) {
        f.push(format!(
            "accuracy: need Base {base:.4} + {QUANT_TOLERANCE} >= NDPipe {ndp:.4} > Outdated {old:.4}, \
             Base < 1 and NDPipe - Outdated >= {ACCURACY_MARGIN}"
        ));
    }
    let g = &out.global;
    for (name, what) in [
        ("ndpipe_cluster_peer_failures_total", "peer failures"),
        ("ndpipe_shard_reroutes_total", "placement reroutes"),
    ] {
        let n = counter_diff(&g.1, &g.0, name);
        if n > 0 {
            f.push(format!("{n} {what} on a healthy fleet"));
        }
    }
    let errs = counter_diff(&out.fleet.1, &out.fleet.0, "ndpipe_npe_stage_errors_total");
    if errs > 0 {
        f.push(format!("{errs} NPE stage errors"));
    }
    let photos: usize = out.store_photos.iter().sum();
    if photos as u64 != out.stored * REPLICAS as u64 {
        f.push(format!(
            "stores hold {photos} photos, expected {} x R={REPLICAS}",
            out.stored
        ));
    }
    for d in &out.describe {
        if d.math != tensor::MathPolicy::Deterministic {
            f.push(format!("a store runs math policy {:?}", d.math));
        }
    }
    out.failures.extend(f);
}

/// The accuracy ordering on the held-out drifted test set: Base (the
/// Tuner's master) ≥ NDPipe (the served replica, within
/// [`QUANT_TOLERANCE`]) > Outdated (the deployed model) by at least
/// [`ACCURACY_MARGIN`], and Base below 100% so the ordering is not a tie
/// at the ceiling.
pub fn accuracy_ok(base: f64, ndpipe: f64, outdated: f64) -> bool {
    base + QUANT_TOLERANCE >= ndpipe && ndpipe - outdated >= ACCURACY_MARGIN && base < 1.0
}

/// Why a pass cannot be reported: the generator fell behind schedule.
pub fn invalid_reason(p: &Pass) -> Option<String> {
    let late = quantile(&p.light.late_ms, 0.99);
    (late > MAX_GEN_LATE_MS)
        .then(|| format!("generator woke {late:.2} ms late at p99 (limit {MAX_GEN_LATE_MS} ms)"))
}

fn counter_diff(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    after
        .counter_value(name)
        .unwrap_or(0)
        .saturating_sub(before.counter_value(name).unwrap_or(0))
}

fn hist_sum(s: &Snapshot, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for sample in &s.samples {
        let matches = sample.name == name
            && labels
                .iter()
                .all(|(k, v)| sample.labels.iter().any(|(sk, sv)| sk == k && sv == v));
        if let (true, SampleValue::Histogram(x)) = (matches, &sample.value) {
            h.merge_from(x);
        }
    }
    h
}

/// The observations `after` holds beyond `before` (same histogram, two
/// points in time). The bounds become the edges of the first and last
/// non-empty log2 bucket (a bucket's lower edge is half its upper).
fn hist_diff(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = Vec::new();
    for &(upper, n) in &after.buckets {
        let was = before
            .buckets
            .iter()
            .find(|(u, _)| *u == upper)
            .map_or(0, |b| b.1);
        if n > was {
            buckets.push((upper, n - was));
        }
    }
    let count = buckets.iter().map(|b| b.1).sum();
    let min = buckets.first().map_or(0.0, |b| b.0 / 2.0);
    let max = buckets.last().map_or(0.0, |b| b.0.min(after.max));
    HistogramSnapshot {
        count,
        sum: after.sum - before.sum,
        min,
        max,
        buckets,
    }
}

fn window(p: &Pass, fleet: bool, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    let (before, after) = if fleet { &p.fleet } else { &p.global };
    hist_diff(
        &hist_sum(after, name, labels),
        &hist_sum(before, name, labels),
    )
}

fn gauge_sum(s: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    match s.find_with(name, labels).map(|x| &x.value) {
        Some(SampleValue::Gauge(v)) => *v,
        _ => 0.0,
    }
}

/// The end-to-end metrics of a pass.
pub fn e2e_metrics(p: &Pass) -> Vec<(&'static E2eDef, f64)> {
    let values = [
        ("setup_s", median(&p.setup_s)),
        ("work_cpu_s", p.work_cpu_s),
        (
            "refresh_top1_pct",
            cycle_median(p, |c| c.ndpipe_top1 * 100.0),
        ),
        (
            "wire_mb_per_refresh",
            cycle_median(p, |c| (c.feature_bytes + c.distribution_bytes) as f64 / 1e6),
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];
    values
        .into_iter()
        .map(|(n, v)| (metrics::e2e(n).expect("every value is a defined metric"), v))
        .collect()
}

fn cycle_median(p: &Pass, f: fn(&CycleOutcome) -> f64) -> f64 {
    median(&p.cycles.iter().map(f).collect::<Vec<_>>())
}

/// Span durations (ms) by span name.
fn span_ms(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut m: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        m.entry(s.name).or_default().push(s.ms());
    }
    m
}

/// Zero-length span marking where the probes start; the accounting covers
/// the main phases before it.
const PROBES_MARK: &str = "probes.start";

/// How the client-visible wall time of the main phases (upload, read and
/// refresh-cycle root spans) splits: the share the layer spans under the
/// roots explain, the share spent waiting in the generator backlog, and
/// the unexplained remainder, all in percent, plus the total in seconds.
pub fn accounting(spans: &[Span]) -> (f64, f64, f64, f64) {
    let cut = spans
        .iter()
        .find(|s| s.name == PROBES_MARK)
        .map_or(f64::INFINITY, |s| s.start_us);
    let roots: HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name != PROBES_MARK && s.start_us < cut)
        .map(|s| s.id)
        .collect();
    let (mut root_ms, mut layer_ms, mut backlog_ms) = (0.0, 0.0, 0.0);
    for s in spans {
        if roots.contains(&s.id) {
            root_ms += s.ms();
        } else if roots.contains(&s.parent) {
            if s.name == BACKLOG_SPAN {
                backlog_ms += s.ms();
            } else {
                layer_ms += s.ms();
            }
        }
    }
    if root_ms <= 0.0 {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let pct = |x: f64| 100.0 * x / root_ms;
    (
        pct(layer_ms),
        pct(backlog_ms),
        pct((root_ms - layer_ms - backlog_ms).max(0.0)),
        root_ms / 1e3,
    )
}

/// The per-layer metrics of a traced pass.
pub fn layer_metrics(p: &Pass) -> Vec<(&'static LayerDef, f64)> {
    let sp = span_ms(&p.spans);
    let span_q = |name: &str, q: f64| sp.get(name).map_or(f64::NAN, |v| quantile(v, q));
    let server = |op: &str| window(p, true, "ndpipe_rpc_server_op_seconds", &[("op", op)]);
    let fanout = |op: &str| window(p, false, "ndpipe_cluster_fanout_seconds", &[("op", op)]);
    let npe_busy = |stage: &str| {
        window(
            p,
            true,
            "ndpipe_npe_stage_busy_seconds",
            &[("stage", stage)],
        )
        .sum
    };
    let per_cycle =
        |f: fn(&CycleOutcome) -> f64| median(&p.cycles.iter().map(f).collect::<Vec<_>>());
    let g = &p.global;
    let gflop = counter_diff(&g.1, &g.0, "ndpipe_gemm_flops_total") as f64 / 1e9;
    let fe_busy = npe_busy("fe");
    let late: Vec<f64> = p.upload_phases().flat_map(|x| x.late_ms.clone()).collect();
    let sidecar = p
        .fleet
        .1
        .counter_value("ndpipe_store_sidecar_bytes_total")
        .unwrap_or(0) as f64;
    let preproc = p
        .fleet
        .1
        .counter_value("ndpipe_store_preproc_bytes_total")
        .unwrap_or(0) as f64;
    let server_infer = server("infer");
    let server_put = server("put_photo");
    let probe_uploads: u64 = [&p.busy]
        .into_iter()
        .chain(&p.ladder)
        .map(|x| x.uploads.ok)
        .sum();
    let values: Vec<(&str, f64)> = vec![
        (
            "upload_cpu_ms",
            1e3 * p.probe_cpu_s / probe_uploads.max(1) as f64,
        ),
        ("deflate.compress_ms_p50", span_q("deflate.compress", 0.5)),
        ("client.infer_ms_p50", span_q("client.infer", 0.5)),
        ("client.infer_ms_p99", span_q("client.infer", 0.99)),
        ("cluster.put_photo_ms_p50", span_q("cluster.put_photo", 0.5)),
        (
            "cluster.put_photo_ms_p99",
            span_q("cluster.put_photo", 0.99),
        ),
        ("cluster.get_photo_ms_p50", span_q("cluster.get_photo", 0.5)),
        (
            "cluster.get_photo_ms_p99",
            span_q("cluster.get_photo", 0.99),
        ),
        ("cluster.install_model_s", per_cycle(|c| c.install_s)),
        ("cluster.ftdmp_s", per_cycle(|c| c.ftdmp_s)),
        ("cluster.offline_infer_s", per_cycle(|c| c.offline_s)),
        ("server.infer_ms_p50", server_infer.quantile(0.5) * 1e3),
        ("server.infer_ms_p99", server_infer.quantile(0.99) * 1e3),
        (
            "server.batch_rows_mean",
            window(p, true, "ndpipe_rpc_batch_size", &[]).mean(),
        ),
        ("server.put_photo_ms_p50", server_put.quantile(0.5) * 1e3),
        (
            "server.get_photo_ms_p50",
            server("get_photo").quantile(0.5) * 1e3,
        ),
        (
            "server.extract_slice_ms_p50",
            server("extract_slice").quantile(0.5) * 1e3,
        ),
        (
            "server.offline_infer_ms_p50",
            server("offline_infer").quantile(0.5) * 1e3,
        ),
        (
            "wire.infer_ms",
            span_q("client.infer", 0.5) - server_infer.quantile(0.5) * 1e3,
        ),
        (
            "wire.put_photo_ms",
            span_q("cluster.put_photo", 0.5) - server_put.quantile(0.5) * 1e3,
        ),
        (
            "wire.bytes_out_mb",
            counter_diff(&g.1, &g.0, "ndpipe_rpc_client_bytes_written_total") as f64 / 1e6,
        ),
        (
            "wire.bytes_in_mb",
            counter_diff(&g.1, &g.0, "ndpipe_rpc_client_bytes_read_total") as f64 / 1e6,
        ),
        (
            "cluster.fanout_ms_p99.put_photo",
            fanout("put_photo").quantile(0.99) * 1e3,
        ),
        (
            "cluster.fanout_ms_p99.get_photo",
            fanout("get_photo").quantile(0.99) * 1e3,
        ),
        (
            "cluster.fanout_ms_p99.install_model",
            fanout("install_model").quantile(0.99) * 1e3,
        ),
        (
            "cluster.fanout_ms_p99.offline_infer",
            fanout("offline_infer").quantile(0.99) * 1e3,
        ),
        (
            "cluster.peer_failures",
            counter_diff(&g.1, &g.0, "ndpipe_cluster_peer_failures_total") as f64,
        ),
        (
            "placement.reroutes",
            counter_diff(&g.1, &g.0, "ndpipe_shard_reroutes_total") as f64,
        ),
        ("ftdmp.bubble_s", per_cycle(|c| c.bubble_s)),
        ("ftdmp.tuner_busy_s", per_cycle(|c| c.ftdmp_s - c.bubble_s)),
        ("ftdmp.micro_batches", per_cycle(|c| c.micro_batches as f64)),
        ("ftdmp.steals", per_cycle(|c| c.steals as f64)),
        ("ftdmp.stale_steps", per_cycle(|c| c.stale_steps as f64)),
        (
            "ftdmp.feature_mb",
            per_cycle(|c| c.feature_bytes as f64 / 1e6),
        ),
        (
            "checknrun.delta_kb",
            per_cycle(|c| c.delta_bytes as f64 / 1e3),
        ),
        ("checknrun.reduction_x", per_cycle(|c| c.reduction_x)),
        ("npe.load_busy_s", npe_busy("load")),
        ("npe.decode_busy_s", npe_busy("decode")),
        ("npe.fe_busy_s", fe_busy),
        (
            "npe.queue_depth_mean.in",
            gauge_sum(
                &p.fleet.1,
                "ndpipe_npe_queue_depth_mean",
                &[("queue", "in")],
            ) / crate::config::STORES as f64,
        ),
        (
            "npe.queue_depth_mean.mid",
            gauge_sum(
                &p.fleet.1,
                "ndpipe_npe_queue_depth_mean",
                &[("queue", "mid")],
            ) / crate::config::STORES as f64,
        ),
        (
            "npe.stage_errors",
            counter_diff(&p.fleet.1, &p.fleet.0, "ndpipe_npe_stage_errors_total") as f64,
        ),
        ("tensor.gemm_gflop", gflop),
        (
            "tensor.gemm_gflops_per_s",
            if fe_busy > 0.0 { gflop / fe_busy } else { 0.0 },
        ),
        (
            "store.sidecar_ratio",
            if preproc > 0.0 {
                sidecar / preproc
            } else {
                0.0
            },
        ),
        ("store.photos", p.store_photos.iter().sum::<usize>() as f64),
        ("gen.late_ms_p99", quantile(&late, 0.99)),
        ("trace.explained_pct", accounting(&p.spans).0),
    ];
    let mut out = wall_metrics(p);
    out.extend(values.into_iter().map(|(n, v)| {
        (
            metrics::layer(n).expect("every value is a defined metric"),
            v,
        )
    }));
    out
}

/// The [`metrics::WALL`] metrics: wall-clock latencies and rates, pooled
/// over the rounds.
pub fn wall_metrics(p: &Pass) -> Vec<(&'static LayerDef, f64)> {
    [
        ("upload_p50_ms", median(&p.light.upload_ms)),
        ("upload_p99_ms", quantile(&p.light.upload_ms, 0.99)),
        ("upload_busy_p99_ms", quantile(&p.busy.upload_ms, 0.99)),
        ("upload_capacity_per_s", capacity(&p.ladder)),
        ("read_p50_ms", median(&p.light.read_ms)),
        ("read_p99_ms", quantile(&p.light.read_ms, 0.99)),
        ("refresh_s", cycle_median(p, |c| c.wall_s)),
        (
            "train_samples_per_s",
            cycle_median(p, |c| c.trained as f64 / c.ftdmp_s),
        ),
        (
            "relabel_photos_per_s",
            cycle_median(p, |c| c.photos as f64 / c.offline_s),
        ),
    ]
    .into_iter()
    .map(|(n, v)| {
        (
            metrics::layer(n).expect("every value is a defined metric"),
            v,
        )
    })
    .collect()
}
