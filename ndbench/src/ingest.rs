//! The open-loop upload front end. Generator threads (at most one per
//! core, each with its own `Infer` session) replay a seeded schedule:
//! each request is timed from its due time, so a stall also counts
//! against the requests queued behind it.
//!
//! An upload compresses the preprocessed sidecar, asks a store to label
//! the photo, records the label and writes the photo to both replicas; a
//! read fetches an earlier photo through the placement map.

use crate::config::REPLICAS;
use crate::gen::{fingerprint, Inputs, OpKind, Schedule, Upload};
use crate::host;
use crate::trace::{Local, Tracer};
use dnn::Mlp;
use ndpipe::rpc::{Cluster, RemotePipeStore};
use ndpipe::{LabelDb, PlacementMap};
use ndpipe_data::{deflate, PhotoId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Trace ids: uploads and reads carry their photo id under a tag bit so
/// they never collide with refresh-cycle trace ids.
pub const UPLOAD_TRACE: u64 = 1 << 62;
/// Tag bit of read trace ids (plus a per-run sequence number).
pub const READ_TRACE: u64 = 1 << 61;

/// Span of the time a due request waited for a free generator thread,
/// i.e. for the program to finish earlier requests. It is queueing, not
/// a layer, and the accounting line reports it apart.
pub const BACKLOG_SPAN: &str = "gen.backlog";

/// Shared state the generator threads use.
pub struct IngestCtx<'a> {
    /// Seeded inputs.
    pub inputs: &'a Inputs,
    /// The Tuner's fleet handle (puts and reads).
    pub cluster: &'a Cluster,
    /// The published placement map.
    pub map: &'a PlacementMap,
    /// The front end's label database.
    pub labels: &'a LabelDb,
    /// Fingerprint of every photo written so far, by id.
    pub fingerprints: &'a Mutex<HashMap<u64, u64>>,
    /// Photos acknowledged by both replicas.
    pub stored: &'a AtomicU64,
    /// Models a store may be serving while this phase runs; an upload's
    /// label must be the in-process argmax of one of them.
    pub served: &'a [Mlp],
    /// Span recorder.
    pub tracer: &'a Tracer,
}

/// Sent, succeeded and failed counts of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Requests sent.
    pub sent: u64,
    /// Requests that succeeded.
    pub ok: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
}

impl OpCounts {
    fn add(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Sums two counts.
    pub fn merge(&mut self, o: &OpCounts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
    }
}

/// What one schedule replay measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    /// Offered upload rate.
    pub rate: f64,
    /// Upload latency, due time to both replicas acked, ms; a failed
    /// upload is `+∞` so it misses every limit.
    pub upload_ms: Vec<f64>,
    /// Read latency from due time, ms (`+∞` when failed).
    pub read_ms: Vec<f64>,
    /// Upload counts.
    pub uploads: OpCounts,
    /// Read counts.
    pub reads: OpCounts,
    /// How late an idle generator thread woke for a due request, ms.
    pub late_ms: Vec<f64>,
    /// How late the last request started, ms: a growing backlog.
    pub backlog_ms: f64,
    /// Uploads whose label is no served model's argmax.
    pub label_mismatches: u64,
    /// Reads that returned other bytes than were written.
    pub read_mismatches: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// CPU seconds the generator spent on the benchmark's own work
    /// (making inputs, checking outputs), to leave out of program CPU.
    pub bench_cpu_s: f64,
}

impl PhaseOutcome {
    /// Pools another replay of the same phase (or ladder rate) into this
    /// one.
    pub fn merge(&mut self, o: PhaseOutcome) {
        self.rate = o.rate;
        self.upload_ms.extend(o.upload_ms);
        self.read_ms.extend(o.read_ms);
        self.uploads.merge(&o.uploads);
        self.reads.merge(&o.reads);
        self.late_ms.extend(o.late_ms);
        self.backlog_ms = self.backlog_ms.max(o.backlog_ms);
        self.label_mismatches += o.label_mismatches;
        self.bench_cpu_s += o.bench_cpu_s;
        self.read_mismatches += o.read_mismatches;
        for e in o.errors {
            if self.errors.len() < 4 {
                self.errors.push(e);
            }
        }
    }
}

/// Replays `sched` with one generator thread per session and waits for
/// every request to finish.
pub fn replay(
    ctx: &IngestCtx<'_>,
    sched: &Schedule,
    sessions: &mut [RemotePipeStore],
) -> PhaseOutcome {
    let next = AtomicUsize::new(0);
    let reads_seq = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out = PhaseOutcome {
        rate: sched.upload_rate,
        ..PhaseOutcome::default()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(tid, session)| {
                let (next, reads_seq) = (&next, &reads_seq);
                s.spawn(move || {
                    let mut local = ctx.tracer.local(tid as u32 + 1);
                    worker(ctx, sched, t0, session, next, reads_seq, &mut local)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => out.merge(part),
                Err(_) => out.errors.push("generator thread panicked".into()),
            }
        }
    });
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A due request with its inputs made ahead of time.
enum Prepared {
    Upload(Upload),
    Read(u64),
}

fn worker(
    ctx: &IngestCtx<'_>,
    sched: &Schedule,
    t0: Instant,
    session: &mut RemotePipeStore,
    next: &AtomicUsize,
    reads_seq: &AtomicU64,
    local: &mut Local<'_>,
) -> PhaseOutcome {
    let mut out = PhaseOutcome {
        rate: sched.upload_rate,
        ..PhaseOutcome::default()
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(op) = sched.ops.get(i) else { break };
        let due = t0 + Duration::from_micros(op.due_us);
        let b0 = host::thread_cpu_time();
        let prepared = match op.kind {
            OpKind::Upload(id) => Prepared::Upload(ctx.inputs.upload(id)),
            OpKind::Read(id) => Prepared::Read(id),
        };
        out.bench_cpu_s += (host::thread_cpu_time() - b0).as_secs_f64();
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            out.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
        }
        let start = Instant::now();
        if i + 1 == sched.ops.len() {
            out.backlog_ms = ms(start.saturating_duration_since(due));
        }
        match prepared {
            Prepared::Upload(up) => upload(ctx, session, up, due, start, &mut out, local),
            Prepared::Read(id) => {
                let seq = reads_seq.fetch_add(1, Ordering::Relaxed);
                read(ctx, id, READ_TRACE | seq, due, start, &mut out, local);
            }
        }
    }
    out
}

/// One upload: compress the sidecar, label the photo, record the label,
/// write both replicas; then check the label and remember the bytes.
fn upload(
    ctx: &IngestCtx<'_>,
    session: &mut RemotePipeStore,
    up: Upload,
    due: Instant,
    start: Instant,
    out: &mut PhaseOutcome,
    local: &mut Local<'_>,
) {
    let id = up.id;
    let root = local.reserve();
    let trace = UPLOAD_TRACE | id;
    let sidecar = deflate::compress_chunked(&up.preproc, deflate::DEFAULT_CHUNK_SIZE);
    let c1 = Instant::now();
    let label = match session.infer(&up.row) {
        Ok(label) => Some(label),
        Err(e) => {
            note(out, format!("infer {id}: {e}"));
            None
        }
    };
    let c2 = Instant::now();
    let mut stored = None;
    if let Some(label) = label {
        ctx.labels.put(PhotoId(id), label as usize, 0);
        let c3 = Instant::now();
        let rec = up.record(sidecar);
        let fan = ctx.cluster.put_photo(ctx.map, &rec);
        if fan.failures.is_empty() && fan.ok.len() == REPLICAS {
            stored = Some((label, rec, c3));
        } else {
            note(out, format!("put {id}: {:?}", fan.failures));
        }
    }
    let end = Instant::now();
    if local.on() {
        if start > due {
            local.record(BACKLOG_SPAN, trace, root, due, start);
        }
        local.record("deflate.compress", trace, root, start, c1);
        local.record("client.infer", trace, root, c1, c2);
        if let Some((_, _, c3)) = &stored {
            local.record("labeldb.put", trace, root, c2, *c3);
            local.record("cluster.put_photo", trace, root, *c3, end);
        }
        local.record_as(root, "upload", trace, 0, due, end);
    }
    out.uploads.add(stored.is_some());
    let Some((label, rec, _)) = stored else {
        out.upload_ms.push(f64::INFINITY);
        return;
    };
    out.upload_ms.push(ms(end - due));
    ctx.stored.fetch_add(1, Ordering::Relaxed);
    let b0 = host::thread_cpu_time();
    if !label_matches(ctx.served, &up.row, label) {
        out.label_mismatches += 1;
        note(
            out,
            format!("upload {id}: label {label} is no served model's argmax"),
        );
    }
    let print = fingerprint(&rec.blob, &rec.sidecar);
    ctx.fingerprints
        .lock()
        .expect("fingerprint table poisoned")
        .insert(id, print);
    out.bench_cpu_s += (host::thread_cpu_time() - b0).as_secs_f64();
}

/// One read through the placement map, checked against the bytes written.
fn read(
    ctx: &IngestCtx<'_>,
    id: u64,
    trace: u64,
    due: Instant,
    start: Instant,
    out: &mut PhaseOutcome,
    local: &mut Local<'_>,
) {
    let got = ctx.cluster.get_photo(ctx.map, id);
    let end = Instant::now();
    if local.on() {
        let root = local.reserve();
        if start > due {
            local.record(BACKLOG_SPAN, trace, root, due, start);
        }
        local.record("cluster.get_photo", trace, root, start, end);
        local.record_as(root, "read", trace, 0, due, end);
    }
    out.reads.add(got.is_ok());
    match got {
        Ok(rec) => {
            out.read_ms.push(ms(end - due));
            let b0 = host::thread_cpu_time();
            let want = ctx
                .fingerprints
                .lock()
                .expect("fingerprint table poisoned")
                .get(&id)
                .copied();
            if rec.id != id || want != Some(fingerprint(&rec.blob, &rec.sidecar)) {
                out.read_mismatches += 1;
                note(out, format!("read {id}: bytes differ from the write"));
            }
            out.bench_cpu_s += (host::thread_cpu_time() - b0).as_secs_f64();
        }
        Err(e) => {
            out.read_ms.push(f64::INFINITY);
            note(out, format!("read {id}: {e}"));
        }
    }
}

fn note(out: &mut PhaseOutcome, msg: String) {
    if out.errors.len() < 4 {
        out.errors.push(msg);
    }
}

/// Whether `label` is the argmax of `row` under one of `served`.
pub fn label_matches(served: &[Mlp], row: &[f32], label: u32) -> bool {
    let x = Tensor::from_vec(row.to_vec(), &[1, row.len()]);
    served
        .iter()
        .any(|m| m.forward(&x).argmax() == label as usize)
}
