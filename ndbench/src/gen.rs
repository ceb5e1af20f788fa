//! Seeded input generation. Everything the program under test sees is
//! made here from the workload seed: the drifted training shards, the
//! held-out test set, the deployed model, the pre-ingested corpus, every
//! upload's photo bytes and feature row, and the open-loop request
//! schedule. The same seed gives byte-identical inputs.

use crate::config::{Sizes, DIM, READS_PER_UPLOAD, STORES};
use dnn::{Mlp, TrainConfig, Trainer};
use ndpipe::rpc::wire::PhotoRecord;
use ndpipe_data::deflate;
use ndpipe_data::photo::preprocessed_binary;
use ndpipe_data::{ClassUniverse, DatasetSpec, DriftScenario, LabeledDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream ids that keep the seeded generators independent of each other.
const STREAM_DRIFT: u64 = 1;
const STREAM_PHOTO: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;
const STREAM_TUNER: u64 = 4;

/// splitmix64 finaliser: decorrelates `(seed, stream, index)` triples.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed ^ stream.rotate_left(48)) ^ index))
}

/// 64-bit fingerprint of a photo's blob and compressed sidecar, used to
/// check that a read returns exactly what was written.
pub fn fingerprint(blob: &[u8], sidecar: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ (blob.len() as u64).rotate_left(32);
    for part in [blob, sidecar] {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            h = mix(h ^ w);
        }
        for &b in chunks.remainder() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ part.len() as u64);
    }
    h
}

/// The drifted day the refresh workload trains and scores on.
#[derive(Debug, Clone)]
pub struct DriftData {
    /// Drifted training rows, one shard per store.
    pub shards: Vec<LabeledDataset>,
    /// Held-out drifted test set.
    pub test: LabeledDataset,
    /// The deployed model: trained on day 0, widened to today's classes.
    pub deployed: Mlp,
    /// Today's class distribution, used to draw uploads.
    pub universe: ClassUniverse,
    /// Class of every pool item, uploads sample from it.
    pub class_mix: Vec<usize>,
}

/// One upload as the front end receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct Upload {
    /// Photo id (the placement key).
    pub id: u64,
    /// Ground-truth class.
    pub class: u32,
    /// Feature row sent to `Infer`.
    pub row: Vec<f32>,
    /// The photo blob.
    pub blob: Vec<u8>,
    /// The preprocessed binary, compressed into the sidecar on upload.
    pub preproc: Vec<u8>,
}

impl Upload {
    /// The replicated record once the sidecar is compressed.
    pub fn record(&self, sidecar: Vec<u8>) -> PhotoRecord {
        PhotoRecord {
            id: self.id,
            class: self.class,
            day: 0,
            preproc_bytes: self.preproc.len() as u32,
            blob: self.blob.clone(),
            sidecar,
        }
    }
}

/// What one scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Upload the photo with this id.
    Upload(u64),
    /// Read back the photo with this id.
    Read(u64),
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Due time, microseconds after the phase start.
    pub due_us: u64,
    /// What to do.
    pub kind: OpKind,
}

/// An open-loop schedule for one phase (or one ladder step).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Requests sorted by due time.
    pub ops: Vec<Op>,
    /// Offered upload rate, per second.
    pub upload_rate: f64,
    /// First upload id past this schedule's uploads.
    pub next_id: u64,
}

impl Schedule {
    /// Poisson arrivals of uploads at `upload_rate` and reads at
    /// `upload_rate × READS_PER_UPLOAD` for `seconds`. Uploads take
    /// consecutive ids from `first_id`; reads pick uniformly among the
    /// ids below `read_pool`, which were all written before this
    /// schedule starts.
    pub fn poisson(
        seed: u64,
        index: u64,
        upload_rate: f64,
        seconds: f64,
        first_id: u64,
        read_pool: u64,
    ) -> Schedule {
        let mut rng = rng_for(seed, STREAM_SCHEDULE, index);
        let end_us = (seconds * 1e6) as u64;
        let mut ops = Vec::new();
        let mut next_id = first_id;
        for (rate, upload) in [(upload_rate, true), (upload_rate * READS_PER_UPLOAD, false)] {
            if rate <= 0.0 || (!upload && read_pool == 0) {
                continue;
            }
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / rate;
                let due_us = (t * 1e6) as u64;
                if due_us >= end_us {
                    break;
                }
                let kind = if upload {
                    next_id += 1;
                    OpKind::Upload(next_id - 1)
                } else {
                    OpKind::Read(rng.gen_range(0..read_pool))
                };
                ops.push(Op { due_us, kind });
            }
        }
        // Stable sort keeps uploads in id order among equal due times.
        ops.sort_by_key(|o| o.due_us);
        Schedule {
            ops,
            upload_rate,
            next_id,
        }
    }
}

/// Every seeded input of a run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// The sizes the inputs were made at.
    pub sizes: Sizes,
    /// The drifted day.
    pub drift: DriftData,
    /// Pre-ingested photos, ids `0..sizes.corpus`.
    pub corpus: Vec<PhotoRecord>,
}

impl Inputs {
    /// Makes every input from `seed`.
    pub fn generate(seed: u64, sizes: Sizes) -> Inputs {
        let drift = drift_data(seed, &sizes);
        let mut inputs = Inputs {
            seed,
            sizes,
            drift,
            corpus: Vec::new(),
        };
        inputs.corpus = (0..sizes.corpus as u64)
            .map(|id| {
                let up = inputs.upload(id);
                let sidecar = deflate::compress_chunked(&up.preproc, deflate::DEFAULT_CHUNK_SIZE);
                up.record(sidecar)
            })
            .collect();
        inputs
    }

    /// The upload with photo id `id`; a pure function of seed and id.
    pub fn upload(&self, id: u64) -> Upload {
        let mut rng = rng_for(self.seed, STREAM_PHOTO, id);
        let mix = &self.drift.class_mix;
        let class = mix[rng.gen_range(0..mix.len())];
        let row = self.drift.universe.sample(class, &mut rng).into_vec();
        let blob_len = log_uniform(&mut rng, self.sizes.blob_bytes);
        let mut blob = Vec::with_capacity(blob_len);
        // JPEG-like header, then incompressible entropy-coded payload.
        blob.extend_from_slice(&[0xFF, 0xD8, 0xFF, 0xE0]);
        blob.extend_from_slice(&id.to_le_bytes());
        while blob.len() < blob_len {
            blob.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
        }
        blob.truncate(blob_len);
        let preproc_len = log_uniform(&mut rng, self.sizes.sidecar_bytes);
        let preproc = preprocessed_binary(preproc_len, &mut rng);
        Upload {
            id,
            class: class as u32,
            row,
            blob,
            preproc,
        }
    }

    /// The rng every refresh cycle's Tuner starts from, so every cycle of
    /// a run trains the same model sequence.
    pub fn tuner_rng(&self) -> StdRng {
        rng_for(self.seed, STREAM_TUNER, 0)
    }
}

fn log_uniform(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    let (l, h) = ((lo.max(1) as f64).ln(), (hi.max(lo) as f64).ln());
    (rng.gen_range(l..=h).exp() as usize).clamp(lo, hi)
}

fn drift_data(seed: u64, s: &Sizes) -> DriftData {
    let mut rng = rng_for(seed, STREAM_DRIFT, 0);
    const DRAW: usize = 200;
    let spec = DatasetSpec {
        name: "ndbench",
        input_dim: DIM,
        latent_dim: 16,
        initial_classes: s.classes,
        noise_sigma: s.noise,
        test_samples: DRAW,
        daily_drift: s.daily_drift,
    };
    let mut scenario = DriftScenario::new(spec, s.initial_pool, &mut rng);
    let mut deployed = Mlp::new(&[DIM, DIM, DIM, s.classes], 2, &mut rng);
    Trainer::new(TrainConfig {
        lr: 0.05,
        batch: 64,
        max_epochs: s.initial_epochs,
        ..TrainConfig::default()
    })
    .fit(&mut deployed, &scenario.train_set(), None, 0, &mut rng);
    for _ in 0..s.drift_days {
        scenario.advance_day(&mut rng);
    }
    if scenario.current_classes() > deployed.num_classes() {
        deployed.widen_classes(scenario.current_classes(), &mut rng);
    }
    let draw = |rows: usize, rng: &mut StdRng| {
        let parts: Vec<LabeledDataset> = (0..rows.div_ceil(DRAW))
            .map(|_| scenario.test_set(rng))
            .collect();
        let all = LabeledDataset::concat(&parts);
        all.select(&(0..rows).collect::<Vec<_>>())
            .widened(scenario.current_classes())
    };
    let train = draw(s.train_rows, &mut rng);
    let test = draw(s.test_rows, &mut rng);
    let class_mix = (0..scenario.pool_size())
        .map(|i| scenario.pool_item(i).0)
        .collect();
    DriftData {
        shards: train.shards(STORES),
        test,
        deployed,
        universe: scenario.universe().clone(),
        class_mix,
    }
}
