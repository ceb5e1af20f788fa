//! Printing: the pinned-config line, per-op counts, the end-to-end and
//! per-layer tables, and the one-line JSON result the last stdout line
//! carries.

use crate::config::{
    Workload, BUSY_RATE, GEN_THREADS, LADDER, LATENCY_LIMIT_MS, LIGHT_RATE, NDPIPE_THREADS,
    READS_PER_UPLOAD, REPLICAS, ROUNDS, SERVER_WORKERS, STORES,
};
use crate::host;
use crate::metrics::{E2eDef, LayerDef};
use crate::run::{step_passes, Pass};
use crate::stats::quantile;
use std::fmt::Write as _;

/// A JSON number with every digit; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn list(v: &[f64]) -> String {
    v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
}

/// The host fingerprint and every pinned setting, as one JSON object.
pub fn config_json(workload: Workload, seed: u64, seconds: f64, trace: bool, p: &Pass) -> String {
    let (cpus, simd) = host::cpus_and_simd();
    let desc = p.describe.first();
    let simd: Vec<String> = simd.iter().map(|s| format!("\"{s}\"")).collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \
         \"cpus\": {cpus}, \"simd\": [{}], \"math\": \"{}\", \"kernel\": \"{}\", \
         \"ndpipe_threads\": {NDPIPE_THREADS}, \"server_workers\": {SERVER_WORKERS}, \
         \"stores\": {STORES}, \"replicas\": {REPLICAS}, \"gen_threads\": {GEN_THREADS}, \
         \"light_rate\": {}, \"busy_rate\": {}, \"ladder\": [{}], \"reads_per_upload\": {}, \
         \"latency_limit_ms\": {}, \"rounds\": {ROUNDS}, \"steal_pct\": {}, \"commit\": \"{}\"}}",
        num(seconds),
        simd.join(", "),
        desc.map_or("unknown", |d| d.math.as_str()),
        desc.map_or("unknown", |d| d.kernel.as_str()),
        num(LIGHT_RATE),
        num(BUSY_RATE),
        list(&LADDER),
        num(READS_PER_UPLOAD),
        num(LATENCY_LIMIT_MS),
        num(p.steal_pct),
        host::commit(),
    )
}

/// Human-readable table of end-to-end values.
pub fn e2e_table(values: &[(&E2eDef, f64)]) -> String {
    let mut s = String::new();
    for (d, v) in values {
        let _ = writeln!(
            s,
            "e2e {:<24} {:>14.4} {:<6} ({} is better)",
            d.name, v, d.unit, d.better
        );
    }
    s
}

/// Human-readable table of per-layer values with their map, each line
/// starting with `label`.
pub fn layer_table(label: &str, values: &[(&LayerDef, f64)]) -> String {
    let mut s = String::new();
    for (d, v) in values {
        let _ = writeln!(
            s,
            "{label} {:<38} {:>12.4} {:<8} ({} is better; moves {} on {})",
            d.name, v, d.unit, d.better, d.moves, d.workload
        );
    }
    s
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Latency at each offered rate: one line per upload phase and ladder
/// step, then the refresh cycles.
pub fn phase_table(p: &Pass) -> String {
    let mut s = String::new();
    let named = [("light", &p.light), ("busy", &p.busy)]
        .into_iter()
        .chain(p.ladder.iter().map(|x| ("ladder", x)));
    for (name, ph) in named {
        if ph.uploads.sent == 0 {
            continue;
        }
        let q = |v: &[f64], x: f64| quantile(v, x);
        let _ = writeln!(
            s,
            "phase {name:<7} rate {:>6.1}/s uploads {:>5} p50 {:>7.3} p90 {:>7.3} p95 {:>7.3} p98 {:>7.3} p99 {:>7.3} max {:>8.3} ms | \
             reads {:>5} p50 {:>6.3} p99 {:>7.3} ms | late p99 {:>6.3} ms backlog {:>7.3} ms{}",
            ph.rate,
            ph.uploads.sent,
            q(&ph.upload_ms, 0.5),
            q(&ph.upload_ms, 0.9),
            q(&ph.upload_ms, 0.95),
            q(&ph.upload_ms, 0.98),
            q(&ph.upload_ms, 0.99),
            q(&ph.upload_ms, 1.0),
            ph.reads.sent,
            q(&ph.read_ms, 0.5),
            q(&ph.read_ms, 0.99),
            q(&ph.late_ms, 0.99),
            ph.backlog_ms,
            if name == "ladder" && !step_passes(ph) { " (misses limit)" } else { "" },
        );
    }
    let walls: Vec<f64> = p.cycles.iter().map(|c| c.wall_s).collect();
    if !walls.is_empty() {
        let _ = writeln!(
            s,
            "cycles {} wall p50 {:.4} min {:.4} max {:.4} s | outdated top1 {:.4}",
            walls.len(),
            quantile(&walls, 0.5),
            quantile(&walls, 0.0),
            quantile(&walls, 1.0),
            p.outdated_top1
        );
    }
    s
}
