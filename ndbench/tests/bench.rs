//! The benchmark's own tests: a tiny run of every workload passes its
//! output checks, the same seed makes byte-identical inputs, and the
//! metric names, units and per-layer map agree with `BENCHMARK.json`.

use ndbench::config::{Sizes, Workload};
use ndbench::gen::{Inputs, Schedule};
use ndbench::metrics::{E2E, LAYERS, WALL};
use ndbench::run::{self, Options};
use ndbench::trace::Tracer;
use std::collections::BTreeMap;

fn tiny(workload: Workload) -> Options {
    Options {
        sizes: Sizes::tiny(),
        setup_repeats: 1,
        ..Options::new(workload, 7, 1.5, true)
    }
}

#[test]
fn tiny_run_of_every_workload_passes_its_checks_and_emits_every_metric() {
    for workload in Workload::ALL {
        let opts = tiny(workload);
        let inputs = Inputs::generate(opts.seed, opts.sizes);
        let tracer = Tracer::new(true);
        let pass = run::pass(&inputs, &opts, &tracer).expect("tiny pass runs");
        assert!(
            pass.failures.is_empty(),
            "{workload}: checks failed: {:?}",
            pass.failures
        );
        for (op, c) in pass.counts() {
            assert!(c.sent > 0, "{workload}: no {op} was sent");
            assert_eq!(c.failed, 0, "{workload}: {op} failed");
        }
        let e2e = run::e2e_metrics(&pass);
        let names: Vec<&str> = e2e.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, E2E.iter().map(|d| d.name).collect::<Vec<_>>());
        for (d, v) in &e2e {
            assert!(v.is_finite() && *v >= 0.0, "{workload}: {} = {v}", d.name);
        }
        let layers = run::layer_metrics(&pass);
        let names: Vec<&str> = layers.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, LAYERS.iter().map(|d| d.name).collect::<Vec<_>>());
        assert!(
            !pass.spans.is_empty(),
            "{workload}: traced pass recorded no spans"
        );
        telemetry::export::validate_json(&tracer.chrome_json()).expect("valid Chrome trace");
    }
}

#[test]
fn same_seed_makes_byte_identical_inputs() {
    let a = Inputs::generate(42, Sizes::tiny());
    let b = Inputs::generate(42, Sizes::tiny());
    let c = Inputs::generate(43, Sizes::tiny());
    let drift_bytes = |i: &Inputs| {
        let mut v: Vec<u8> = i.drift.deployed.to_bytes();
        for d in i.drift.shards.iter().chain([&i.drift.test]) {
            v.extend(d.features().data().iter().flat_map(|x| x.to_le_bytes()));
            v.extend(d.labels().iter().flat_map(|l| (*l as u64).to_le_bytes()));
        }
        v
    };
    assert_eq!(drift_bytes(&a), drift_bytes(&b), "drift data differs");
    assert_ne!(
        drift_bytes(&a),
        drift_bytes(&c),
        "seed does not reach the drift data"
    );
    assert_eq!(a.corpus, b.corpus, "corpus photos differ");
    assert_ne!(a.corpus, c.corpus);
    for id in [0, 5, 1000, 123_456] {
        assert_eq!(a.upload(id), b.upload(id), "upload {id} differs");
        assert_ne!(a.upload(id).blob, c.upload(id).blob);
    }
    for index in 0..4 {
        let s = |seed| Schedule::poisson(seed, index, 200.0, 1.0, 100, 100);
        assert_eq!(s(42), s(42), "schedule {index} differs");
        assert_ne!(s(42), s(43));
        assert!(s(42).ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    }
}

/// A minimal JSON reader for `BENCHMARK.json` (numbers, strings,
/// arrays and objects are all it uses).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(s: &str) -> Json {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing data in JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.b[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    assert_ne!(
                        self.b[self.i], b'\\',
                        "escapes are not used in BENCHMARK.json"
                    );
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).expect("utf8"))
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).expect("utf8");
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

#[test]
fn benchmark_json_names_every_metric_and_maps_every_layer() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let e2e = b.get("end_to_end").arr();
    assert_eq!(e2e.len(), E2E.len());
    let mut max_bound = 0.0f64;
    for (j, d) in e2e.iter().zip(E2E) {
        assert_eq!(j.get("name").str(), d.name);
        assert_eq!(j.get("unit").str(), d.unit, "{}", d.name);
        assert_eq!(j.get("better").str(), d.better, "{}", d.name);
        let Json::Num(bound) = j.get("bound") else {
            panic!("bound")
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "{}", d.name);
        max_bound = max_bound.max(*bound);
    }
    let setup = e2e
        .iter()
        .find(|j| j.get("name").str() == "setup_s")
        .expect("setup_s");
    assert_eq!(
        setup.get("bound"),
        &Json::Num(max_bound),
        "setup_s has the largest bound"
    );

    let layers = b.get("per_layer").arr();
    assert_eq!(layers.len(), LAYERS.len());
    for (j, d) in layers.iter().zip(LAYERS) {
        assert_eq!(j.get("name").str(), d.name);
        assert_eq!(j.get("unit").str(), d.unit, "{}", d.name);
        assert_eq!(j.get("better").str(), d.better, "{}", d.name);
        assert!(
            E2E.iter().any(|e| e.name == d.moves) || WALL.contains(&d.moves),
            "{} moves unknown {}",
            d.name,
            d.moves
        );
        assert!(
            workloads.contains(&d.workload),
            "{} names unknown workload",
            d.name
        );
    }
}
