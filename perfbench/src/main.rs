//! `perfbench` — the end-to-end standing-query benchmark.
//!
//! ```text
//! perfbench --workload <mix_p1|mix_p2|wire_p1> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of timed work, checks every window
//! result against an independent re-evaluation, prints each metric by
//! name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around every call into the engine and reports the
//! per-layer ledger instead. `perfbench --noise-floor <seconds>` times a
//! bare memory walk instead, to show what the host alone adds. See
//! `perfbench/README.md`.

mod gen;
mod harness;
mod measure;
mod mix;
mod reference;
mod replay;
mod sys;
mod trace;
mod wire;

use harness::{Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["mix_p1", "mix_p2", "wire_p1"];

const USAGE: &str =
    "usage: perfbench --workload <mix_p1|mix_p2|wire_p1> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 || args.seconds > 600 {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(args)
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The host's own noise floor: a random walk over a 64 MiB cyclic
/// permutation, timed in one-second slices. Nothing of the engine runs;
/// the spread of these rates is what the machine adds to every metric.
fn noise_floor(slices: usize) {
    const LEN: usize = 1 << 24;
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut rng = gen::Rng::new(42, 0);
    for i in (1..LEN).rev() {
        // Sattolo's shuffle: one cycle through every slot.
        let j = usize::try_from(rng.next_u64() % i as u64).expect("index fits");
        next.swap(i, j);
    }
    let mut rates = Vec::with_capacity(slices);
    let mut at = 0u32;
    for _ in 0..slices {
        let t = std::time::Instant::now();
        let mut steps = 0u64;
        while t.elapsed() < std::time::Duration::from_secs(1) {
            for _ in 0..10_000 {
                at = next[at as usize];
            }
            steps += 10_000;
        }
        rates.push(steps as f64 / t.elapsed().as_secs_f64());
    }
    std::hint::black_box(at);
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    let med = measure::quantile(&sorted, 0.5);
    let (q1, q3) = (measure::quantile(&sorted, 0.25), measure::quantile(&sorted, 0.75));
    println!("memory walk, {slices} one-second slices, cores={}", sys::cores());
    for r in &rates {
        println!("  {:.4} Msteps/s", r / 1e6);
    }
    println!(
        "  median {:.4} Msteps/s, quartile spread {:.3}, swing {:+.3}/{:+.3}",
        med / 1e6,
        (q3 - q1) / med,
        sorted[0] / med - 1.0,
        sorted[sorted.len() - 1] / med - 1.0
    );
}

fn main() -> ExitCode {
    // The engine reads DATACELL_* variables as overrides; a run must be
    // configured by this program's setters alone.
    let env: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("DATACELL_")).collect();
    if !env.is_empty() {
        eprintln!("perfbench: refusing to run with {} set; unset them first", env.join(", "));
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--noise-floor") {
        match argv.get(2).and_then(|n| n.parse().ok()).filter(|&n: &usize| n > 0 && n <= 600) {
            Some(n) => {
                noise_floor(n);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("usage: perfbench --noise-floor <seconds>");
                return ExitCode::from(2);
            }
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let trace_out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.csv", args.workload, args.seed));
    let secs = args.seconds as f64;
    let (steal0, wall0) = (sys::steal_s(), std::time::Instant::now());
    let res = match args.workload.as_str() {
        "mix_p1" => mix::run(1, args.seed, secs, args.trace, &trace_out),
        "mix_p2" => mix::run(2, args.seed, secs, args.trace, &trace_out),
        _ => wire::run(args.seed, secs, args.trace, &trace_out),
    };
    let out: Outcome = match res {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cores()
    );
    let e2e = out.e2e.metrics();
    let label = if args.trace { " (traced)" } else { "" };
    for m in &e2e {
        println!("  {:<28} {:>16.4} {}{label}", m.name, m.value, m.unit);
    }
    println!("  latency_p99_ms (ungated)     {:>16.4} ms{label}", out.e2e.latency_p99_ms);
    println!("  rows_per_s unscaled          {:>16.4} rows/s{label}", out.e2e.raw_rows_per_s);
    println!("  latency_p50_ms unscaled      {:>16.4} ms{label}", out.e2e.raw_latency_p50_ms);
    println!("  setup_s unscaled             {:>16.6} s{label}", out.e2e.raw_setup_s);
    println!("  host probe (median)          {:>16.4} us{label}", out.e2e.probe_us);
    println!("  latency samples              {:>16}", out.e2e.samples);
    let layers = out.layers.metrics();
    if args.trace {
        for m in &layers {
            println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("  spans written to {}", trace_out.display());
    }
    let steal = (sys::steal_s() - steal0) / wall0.elapsed().as_secs_f64() / sys::cores() as f64;
    println!("  host steal during the run    {:>16.2} % of the cores", steal * 100.0);
    println!("  windows attempted={} failed={}", out.attempted, out.failed);
    for n in &out.notes {
        println!("  note: {n}");
    }
    let metrics = if args.trace { layers } else { e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
