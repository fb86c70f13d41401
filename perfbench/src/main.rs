//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <lookup|ingest|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs once with observability off and the
//! last line of stdout is a JSON object holding every end-to-end metric.
//! With `--trace 1` it runs twice on the same seed — untraced, then
//! traced (engine observability on, plus the benchmark's own timed calls
//! into each layer) — and the JSON holds every per-layer metric plus
//! `overhead.<metric>`, traced minus untraced, for each end-to-end metric.
//! Human-readable lines (seed, sizes, sample counts) precede the JSON.
//!
//! A read that returns a wrong value makes the process exit non-zero.

mod ingest;
mod layers;
mod lookup;
mod serve;
mod util;

use std::process::ExitCode;

use util::{json_number, metric, ratio, Metric, Pass};

/// Every end-to-end metric, with its unit, in print order.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("serve_p50_us", "us"),
    ("serve_p95_us", "us"),
    ("device_us_per_op", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("index_bytes", "B"),
    ("ok_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_pass(args: &Args, traced: bool) -> Result<Pass, String> {
    let mut pass = match args.workload.as_str() {
        "lookup" => lookup::run(args.seed, args.seconds, traced)?,
        "ingest" => ingest::run(args.seed, args.seconds, traced)?,
        "serve" => serve::run(args.seed, args.seconds, traced)?,
        other => return Err(format!("unknown workload {other} (lookup, ingest, serve)")),
    };
    let bad = (pass.failed + pass.wrong) as f64;
    pass.e2e.push(metric(
        "ok_frac",
        1.0 - ratio(bad, pass.attempted as f64),
        "ratio",
    ));
    let got: Vec<(&str, &str)> = pass.e2e.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    assert_eq!(
        got, E2E_METRICS,
        "workload reported the wrong end-to-end set"
    );
    Ok(pass)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    for m in metrics {
        let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("{title} {:<42} {:>16.4} {}{n}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = (|| -> Result<(Pass, Vec<Metric>), String> {
        let untraced = run_pass(&args, false)?;
        if !args.trace {
            let metrics = untraced.e2e.clone();
            return Ok((untraced, metrics));
        }
        let traced = run_pass(&args, true)?;
        let mut metrics = traced.layers.clone();
        for (t, u) in traced.e2e.iter().zip(&untraced.e2e) {
            metrics.push(metric(
                &format!("overhead.{}", t.name),
                t.value - u.value,
                t.unit,
            ));
        }
        let combined = Pass {
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            wrong: untraced.wrong + traced.wrong,
            e2e: traced.e2e,
            layers: Vec::new(),
        };
        print_metrics("untraced", &untraced.e2e);
        Ok((combined, metrics))
    })();
    let (pass, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    print_metrics(if args.trace { "traced" } else { "result" }, &metrics);
    if pass.wrong > 0 || pass.failed > 0 {
        println!(
            "perfbench: {} wrong value(s), {} failed op(s) of {} attempted",
            pass.wrong, pass.failed, pass.attempted
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.wrong == 0,
        pass.attempted,
        pass.failed + pass.wrong,
        body.join(", ")
    );
    if pass.wrong > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
