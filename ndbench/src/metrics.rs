//! Names, units and directions of every reported metric, and for each
//! per-layer metric the end-to-end metric and workload it should move.
//! `BENCHMARK.json` lists the same names; the package's tests keep the
//! two in step.

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E2eDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric a change in this layer should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub workload: &'static str,
}

const fn e(name: &'static str, unit: &'static str, better: &'static str) -> E2eDef {
    E2eDef { name, unit, better }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
        workload,
    }
}

/// Every end-to-end metric; each run prints all of them. The performance
/// metrics are CPU costs: on a shared VM the hypervisor's steal time moves
/// every wall-clock figure by more than any bound an end-to-end metric may
/// have, while the CPU time the program itself uses stays put.
pub const E2E: [E2eDef; 5] = [
    e("setup_s", "s", "lower"),
    e("work_cpu_s", "s", "lower"),
    e("refresh_top1_pct", "%", "higher"),
    e("wire_mb_per_refresh", "MB", "lower"),
    e("peak_rss_mb", "MB", "lower"),
];

/// The user-visible wall-clock metrics. Every run measures and prints
/// them, but they carry no bound: their run-to-run spread follows the
/// hypervisor's steal time. Per-layer metrics may name them as the metric
/// they move.
pub const WALL: [&str; 9] = [
    "upload_p50_ms",
    "upload_p99_ms",
    "upload_busy_p99_ms",
    "upload_capacity_per_s",
    "read_p50_ms",
    "read_p99_ms",
    "refresh_s",
    "train_samples_per_s",
    "relabel_photos_per_s",
];

const ING: &str = "ingest";
const REF: &str = "refresh";

/// Every per-layer metric; each traced run prints all of them.
#[rustfmt::skip]
pub const LAYERS: [LayerDef; 57] = [
    // The WALL metrics; each is its own target.
    l("upload_p50_ms", "ms", "lower", "upload_p50_ms", ING),
    l("upload_p99_ms", "ms", "lower", "upload_p99_ms", ING),
    l("upload_busy_p99_ms", "ms", "lower", "upload_busy_p99_ms", ING),
    l("upload_capacity_per_s", "1/s", "higher", "upload_capacity_per_s", ING),
    l("read_p50_ms", "ms", "lower", "read_p50_ms", ING),
    l("read_p99_ms", "ms", "lower", "read_p99_ms", ING),
    l("refresh_s", "s", "lower", "refresh_s", REF),
    l("train_samples_per_s", "1/s", "higher", "train_samples_per_s", REF),
    l("relabel_photos_per_s", "1/s", "higher", "relabel_photos_per_s", REF),
    // CPU per upload over the probes; its spread follows steal time too
    // closely for a bound, and `work_cpu_s` carries the upload path's cost.
    l("upload_cpu_ms", "ms", "lower", "work_cpu_s", ING),
    // Bench-side timers around public calls.
    l("deflate.compress_ms_p50", "ms", "lower", "work_cpu_s", ING),
    l("client.infer_ms_p50", "ms", "lower", "upload_p50_ms", ING),
    l("client.infer_ms_p99", "ms", "lower", "upload_p99_ms", ING),
    l("cluster.put_photo_ms_p50", "ms", "lower", "upload_p50_ms", ING),
    l("cluster.put_photo_ms_p99", "ms", "lower", "upload_p99_ms", ING),
    l("cluster.get_photo_ms_p50", "ms", "lower", "read_p50_ms", ING),
    l("cluster.get_photo_ms_p99", "ms", "lower", "read_p99_ms", ING),
    l("cluster.install_model_s", "s", "lower", "refresh_s", REF),
    l("cluster.ftdmp_s", "s", "lower", "refresh_s", REF),
    l("cluster.offline_infer_s", "s", "lower", "refresh_s", REF),
    // rpc::server, scraped through Cluster::scrape_metrics.
    l("server.infer_ms_p50", "ms", "lower", "upload_p50_ms", ING),
    l("server.infer_ms_p99", "ms", "lower", "upload_p99_ms", ING),
    l("server.batch_rows_mean", "rows", "higher", "work_cpu_s", ING),
    l("server.put_photo_ms_p50", "ms", "lower", "upload_p50_ms", ING),
    l("server.get_photo_ms_p50", "ms", "lower", "read_p50_ms", ING),
    l("server.extract_slice_ms_p50", "ms", "lower", "refresh_s", REF),
    l("server.offline_infer_ms_p50", "ms", "lower", "relabel_photos_per_s", REF),
    // rpc::wire and rpc::client.
    l("wire.infer_ms", "ms", "lower", "upload_p50_ms", ING),
    l("wire.put_photo_ms", "ms", "lower", "upload_p50_ms", ING),
    l("wire.bytes_out_mb", "MB", "lower", "upload_p50_ms", ING),
    l("wire.bytes_in_mb", "MB", "lower", "wire_mb_per_refresh", REF),
    // rpc::cluster and placement.
    l("cluster.fanout_ms_p99.put_photo", "ms", "lower", "upload_p99_ms", ING),
    l("cluster.fanout_ms_p99.get_photo", "ms", "lower", "read_p99_ms", ING),
    l("cluster.fanout_ms_p99.install_model", "ms", "lower", "refresh_s", REF),
    l("cluster.fanout_ms_p99.offline_infer", "ms", "lower", "relabel_photos_per_s", REF),
    l("cluster.peer_failures", "count", "lower", "upload_p99_ms", ING),
    l("placement.reroutes", "count", "lower", "read_p99_ms", ING),
    // ftdmp and tuner, from ClusterFtdmpReport (per cycle).
    l("ftdmp.bubble_s", "s", "lower", "refresh_s", REF),
    l("ftdmp.tuner_busy_s", "s", "lower", "train_samples_per_s", REF),
    l("ftdmp.micro_batches", "count", "lower", "train_samples_per_s", REF),
    l("ftdmp.steals", "count", "lower", "refresh_s", REF),
    l("ftdmp.stale_steps", "count", "higher", "refresh_s", REF),
    l("ftdmp.feature_mb", "MB", "lower", "wire_mb_per_refresh", REF),
    // checknrun.
    l("checknrun.delta_kb", "KB", "lower", "wire_mb_per_refresh", REF),
    l("checknrun.reduction_x", "x", "higher", "wire_mb_per_refresh", REF),
    // npe::engine, from ndpipe_npe_*.
    l("npe.load_busy_s", "s", "lower", "work_cpu_s", REF),
    l("npe.decode_busy_s", "s", "lower", "work_cpu_s", REF),
    l("npe.fe_busy_s", "s", "lower", "work_cpu_s", REF),
    l("npe.queue_depth_mean.in", "items", "lower", "relabel_photos_per_s", REF),
    l("npe.queue_depth_mean.mid", "items", "lower", "relabel_photos_per_s", REF),
    l("npe.stage_errors", "count", "lower", "relabel_photos_per_s", REF),
    // tensor.
    l("tensor.gemm_gflop", "GFLOP", "lower", "work_cpu_s", REF),
    l("tensor.gemm_gflops_per_s", "GFLOP/s", "higher", "train_samples_per_s", REF),
    // pipestore and data::deflate.
    l("store.sidecar_ratio", "ratio", "lower", "upload_p50_ms", ING),
    l("store.photos", "count", "higher", "relabel_photos_per_s", REF),
    // Process and generator.
    l("gen.late_ms_p99", "ms", "lower", "upload_p99_ms", ING),
    l("trace.explained_pct", "%", "higher", "upload_p50_ms", ING),
];

/// Looks up an end-to-end metric.
pub fn e2e(name: &str) -> Option<&'static E2eDef> {
    E2E.iter().find(|d| d.name == name)
}

/// Looks up a per-layer metric.
pub fn layer(name: &str) -> Option<&'static LayerDef> {
    LAYERS.iter().find(|d| d.name == name)
}
