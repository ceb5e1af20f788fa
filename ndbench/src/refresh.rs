//! The daily continuous-training cycle, driven through the `Cluster`:
//! reinstall the deployed model, fine-tune it with pipelined FT-DMP (each
//! round ends in a Check-N-Run delta to every store), relabel every
//! stored photo near the data, and score the replica the stores serve.

use crate::config::{Sizes, REPLICAS};
use crate::gen::Inputs;
use crate::trace::Local;
use dnn::{Mlp, TrainConfig, Trainer};
use ndpipe::ftdmp::FtdmpConfig;
use ndpipe::rpc::Cluster;
use ndpipe::{ModelDelta, PlacementMap, Tuner};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Tag bit of refresh-cycle trace ids.
pub const CYCLE_TRACE: u64 = 1 << 60;

/// The FT-DMP job of one round: pipelined, staleness 1.
pub fn ftdmp_config(s: &Sizes) -> FtdmpConfig {
    FtdmpConfig {
        n_run: s.n_run,
        epochs_per_run: s.epochs_per_run,
        micro_batch: s.micro_batch,
        staleness: 1,
        train: TrainConfig {
            lr: 0.05,
            batch: 32,
            ..TrainConfig::default()
        },
    }
}

/// What one refresh cycle did and how long each step took.
#[derive(Debug, Clone, Default)]
pub struct CycleOutcome {
    /// Whole cycle, seconds.
    pub wall_s: f64,
    /// `Cluster::install_model`, seconds.
    pub install_s: f64,
    /// All FT-DMP rounds, seconds.
    pub ftdmp_s: f64,
    /// `Cluster::offline_infer`, seconds.
    pub offline_s: f64,
    /// Examples × epochs trained.
    pub trained: u64,
    /// Labels `offline_infer` returned (one per stored copy).
    pub labels: u64,
    /// Distinct photos relabelled.
    pub photos: u64,
    /// Photos acknowledged before the cycle began.
    pub stored_before: u64,
    /// FT-DMP feature bytes on the wire.
    pub feature_bytes: u64,
    /// Check-N-Run delta distribution bytes on the wire.
    pub distribution_bytes: u64,
    /// Tuner idle time waiting for features, seconds.
    pub bubble_s: f64,
    /// Micro-batches extracted.
    pub micro_batches: u64,
    /// Micro-batches stolen by a replica holder.
    pub steals: u64,
    /// Micro-batches extracted ahead of training.
    pub stale_steps: u64,
    /// Shard extractions rerouted away from a dead owner.
    pub reroutes: u64,
    /// Compressed delta payload bytes per round.
    pub delta_bytes: u64,
    /// Full-model bytes over delta bytes.
    pub reduction_x: f64,
    /// Held-out top-1 of the Tuner's master model.
    pub base_top1: f64,
    /// Held-out top-1 of the replica the stores serve.
    pub ndpipe_top1: f64,
    /// Every model the stores served during the cycle, in order: per
    /// round the Tuner's master the job installs (the deployed model in
    /// the first round), then the replica its delta produces.
    pub served: Vec<Mlp>,
    /// Failures, when any step failed.
    pub errors: Vec<String>,
}

/// Runs one refresh cycle.
pub fn cycle(
    cluster: &Cluster,
    map: &PlacementMap,
    inputs: &Inputs,
    stored: &AtomicU64,
    seq: u64,
    local: &mut Local<'_>,
) -> CycleOutcome {
    let trace = CYCLE_TRACE | seq;
    let root = local.reserve();
    let mut out = CycleOutcome {
        stored_before: stored.load(Ordering::Relaxed),
        ..CycleOutcome::default()
    };
    let deployed = &inputs.drift.deployed;
    let t0 = Instant::now();

    let fan = cluster.install_model(deployed);
    let t1 = Instant::now();
    local.record("cluster.install_model", trace, root, t0, t1);
    out.install_s = (t1 - t0).as_secs_f64();
    if !fan.failures.is_empty() {
        out.errors
            .push(format!("install_model: {:?}", fan.failures));
        return out;
    }

    let cfg = ftdmp_config(&inputs.sizes);
    let mut tuner = Tuner::new(deployed.clone(), cfg.train);
    let mut rng = inputs.tuner_rng();
    let mut replica = deployed.clone();
    let ft = local.reserve();
    for _ in 0..inputs.sizes.rounds {
        let r0 = Instant::now();
        // Each job first installs the Tuner's master on every store, then
        // ends its round with a Check-N-Run delta against that master.
        let base = tuner.model().clone();
        out.served.push(base.clone());
        let res = cluster.ftdmp_fine_tune_pipelined(&mut tuner, &cfg, 1, &mut rng, Some(map));
        let r1 = Instant::now();
        local.record("cluster.ftdmp_round", trace, ft, r0, r1);
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                out.errors.push(format!("ftdmp: {e}"));
                return out;
            }
        };
        if !rep.failures.is_empty() {
            out.errors.push(format!("ftdmp peers: {:?}", rep.failures));
        }
        let r = &rep.report;
        out.trained += (r.examples * cfg.epochs_per_run) as u64;
        out.feature_bytes += r.feature_bytes as u64;
        out.distribution_bytes += r.distribution_bytes as u64;
        out.bubble_s += r.schedule.bubble_secs;
        out.micro_batches += r.schedule.micro_batches as u64;
        out.steals += r.schedule.steals as u64;
        out.stale_steps += r.schedule.stale_steps as u64;
        out.reroutes += rep.reroutes;
        // The delta the round distributed, applied the way each store
        // applies it: the served replica, not the Tuner's master.
        let delta = ModelDelta::between(&base, tuner.model());
        out.delta_bytes = delta.wire_bytes() as u64;
        out.reduction_x = delta.traffic_reduction();
        replica = base;
        if let Err(e) = delta.apply(&mut replica) {
            out.errors.push(format!("delta apply: {e:?}"));
            return out;
        }
        out.served.push(replica.clone());
    }
    let t2 = Instant::now();
    local.record_as(ft, "cluster.ftdmp", trace, root, t1, t2);
    out.ftdmp_s = (t2 - t1).as_secs_f64();

    let fan = cluster.offline_infer();
    let t3 = Instant::now();
    local.record("cluster.offline_infer", trace, root, t2, t3);
    out.offline_s = (t3 - t2).as_secs_f64();
    if !fan.failures.is_empty() {
        out.errors
            .push(format!("offline_infer: {:?}", fan.failures));
        return out;
    }
    let mut ids = HashSet::new();
    for pairs in fan.into_values() {
        out.labels += pairs.len() as u64;
        ids.extend(pairs.into_iter().map(|(id, _)| id));
    }
    out.photos = ids.len() as u64;

    out.base_top1 = Trainer::evaluate(tuner.model(), &inputs.drift.test).top1;
    out.ndpipe_top1 = Trainer::evaluate(&replica, &inputs.drift.test).top1;
    let t4 = Instant::now();
    local.record("eval.top1", trace, root, t3, t4);
    local.record_as(root, "refresh_cycle", trace, 0, t0, t4);
    out.wall_s = (t4 - t0).as_secs_f64();

    // One label per stored copy: with no concurrent uploads the counts
    // are exact; under concurrent uploads at least every photo stored
    // before the cycle began is relabelled.
    let now_stored = stored.load(Ordering::Relaxed);
    if out.photos < out.stored_before || out.photos > now_stored {
        out.errors.push(format!(
            "offline_infer relabelled {} photos, {}..={} were stored",
            out.photos, out.stored_before, now_stored
        ));
    }
    if out.labels != out.photos * REPLICAS as u64 && out.stored_before == now_stored {
        out.errors.push(format!(
            "offline_infer returned {} labels for {} photos at R={REPLICAS}",
            out.labels, out.photos
        ));
    }
    out
}

/// Held-out top-1 of the deployed model: the Outdated line.
pub fn outdated_top1(inputs: &Inputs) -> f64 {
    Trainer::evaluate(&inputs.drift.deployed, &inputs.drift.test).top1
}
