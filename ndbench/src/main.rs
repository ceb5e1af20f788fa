//! `ndbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the pinned configuration, per-op counts and every end-to-end
//! metric; with `--trace 1` it also runs a traced pass and prints the
//! per-layer table, the accounting line and the tracing overhead, and
//! writes a Chrome trace under `ndbench/out/`. The last stdout line is
//! the JSON result. Exits 1 when an output check fails and 3 when the
//! generator fell behind its schedule (the run is invalid).

use ndbench::config::{Workload, NDPIPE_THREADS};
use ndbench::gen::Inputs;
use ndbench::report;
use ndbench::run::{self, Options};
use ndbench::trace::Tracer;
use std::process::ExitCode;
use tensor::MathPolicy;

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Options::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    // Pinned before any kernel or pool reads them, so an inherited
    // environment cannot change kernels or thread counts between runs.
    std::env::set_var("NDPIPE_THREADS", NDPIPE_THREADS.to_string());
    std::env::set_var("NDPIPE_MATH", MathPolicy::Deterministic.as_str());
    tensor::set_default_math_policy(MathPolicy::Deterministic);

    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ndbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(opts.seed, opts.sizes);
    let untraced = match run::pass(&inputs, &opts, &Tracer::new(false)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ndbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(reason) = run::invalid_reason(&untraced) {
        eprintln!("ndbench: invalid run, not reported: {reason}");
        return ExitCode::from(3);
    }
    println!(
        "config {}",
        report::config_json(
            opts.workload,
            opts.seed,
            opts.seconds,
            opts.trace,
            &untraced
        )
    );
    let mut attempted = 0;
    let mut failed = 0;
    for (op, c) in untraced.counts() {
        println!(
            "ops {op:<14} sent {:>7} ok {:>7} failed {:>4}",
            c.sent, c.ok, c.failed
        );
        attempted += c.sent;
        failed += c.failed;
    }
    print!("{}", report::phase_table(&untraced));
    let e2e = run::e2e_metrics(&untraced);
    print!("{}", report::e2e_table(&e2e));
    let wall = run::wall_metrics(&untraced);
    print!("{}", report::layer_table("wall", &wall));
    let mut failures = untraced.failures.clone();
    for (d, v) in &e2e {
        if !(v.is_finite() && *v > 0.0) {
            failures.push(format!("{} is {v}", d.name));
        }
    }

    let mut result: Vec<(&str, &str, f64)> =
        e2e.iter().map(|(d, v)| (d.name, d.unit, *v)).collect();
    if opts.trace {
        let tracer = Tracer::new(true);
        let traced_opts = Options {
            setup_repeats: 1,
            ..opts
        };
        let traced = match run::pass(&inputs, &traced_opts, &tracer) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("ndbench: traced pass: {e}");
                return ExitCode::from(1);
            }
        };
        failures.extend(traced.failures.iter().map(|f| format!("traced pass: {f}")));
        let layers = run::layer_metrics(&traced);
        print!("{}", report::layer_table("layer", &layers));
        for (d, v) in &layers {
            if !v.is_finite() {
                failures.push(format!("{} is {v}", d.name));
            }
        }
        let (layers_pct, backlog_pct, rest_pct, total_s) = run::accounting(&traced.spans);
        println!(
            "accounting {}: of {total_s:.2} s client-visible wall time in the main phases, the listed layers explain \
             {layers_pct:.1}%, generator backlog {backlog_pct:.1}%, unexplained {rest_pct:.1}%",
            opts.workload
        );
        let plain = e2e.iter().map(|(d, v)| (d.name, d.unit, *v));
        let plain = plain.chain(wall.iter().map(|(d, v)| (d.name, d.unit, *v)));
        let traced_e2e = run::e2e_metrics(&traced);
        let traced_v = traced_e2e.iter().map(|(_, v)| *v);
        let traced_v = traced_v.chain(run::wall_metrics(&traced).into_iter().map(|(_, v)| v));
        for ((name, unit, plain), traced_v) in plain.zip(traced_v) {
            println!(
                "overhead {name:<24} traced {traced_v:>12.4} untraced {plain:>12.4} diff {:>+10.4} {unit}",
                traced_v - plain
            );
        }
        let path = format!("ndbench/out/trace-{}-seed{}.json", opts.workload, opts.seed);
        let written = std::fs::create_dir_all("ndbench/out")
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!("trace {path} ({} spans)", traced.spans.len()),
            Err(e) => failures.push(format!("writing {path}: {e}")),
        }
        result = layers.iter().map(|(d, v)| (d.name, d.unit, *v)).collect();
    }

    for f in &failures {
        println!("FAIL {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &result)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
