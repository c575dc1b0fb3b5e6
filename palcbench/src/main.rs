//! End-to-end and per-layer benchmark of the palc pipeline.
//!
//! ```text
//! cargo run --release --manifest-path palcbench/Cargo.toml -- \
//!     --workload drive_by --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints progress and diagnostics on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. Exits nonzero when any correctness check
//! fails. See README.md for the workloads and metrics.

mod closed;
mod drive_by;
mod gateway;
mod host;
mod indoor_array;
mod loadgen;
mod pipeline;
mod report;
mod stats;
mod trace;

use report::Report;
use std::time::Instant;

/// Times one build of a workload's inputs: returns it and the seconds it
/// took. Each run times three builds spread over the run (the host's speed
/// changes within seconds) and reports their median as `setup_s`.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = build();
    (built, t.elapsed().as_secs_f64())
}

/// The end-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_ms_p10", "ms"),
    ("pass_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("capacity_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every `--trace 1` run. A layer a
/// workload does not run reads zero there.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("channel.static_field_ms", "ms"),
    ("channel.delta_build_ms", "ms"),
    ("channel.kernel_build_ms", "ms"),
    ("channel.tick_ns_per_sample", "ns"),
    ("channel.self_share", "ratio"),
    ("channel.tables_built", "count"),
    ("channel.tables_interned", "count"),
    ("channel.table_bytes", "bytes"),
    ("frontend.ns_per_sample", "ns"),
    ("frontend.self_share", "ratio"),
    ("impair.ns_per_sample", "ns"),
    ("impair.self_share", "ratio"),
    ("stream.ns_per_sample", "ns"),
    ("stream.self_share", "ratio"),
    ("stream.packets", "count"),
    ("stream.rejects.no_preamble", "count"),
    ("stream.rejects.bad_preamble", "count"),
    ("stream.rejects.manchester", "count"),
    ("sweep.shard_ms_max", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("fusion.us_per_pass", "us"),
    ("fusion.events", "count"),
    ("server.feed_us_p50", "us"),
    ("server.feed_us_p99", "us"),
    ("server.poll_us_p50", "us"),
    ("server.worker_busy_share", "ratio"),
    ("server.worker_ns_per_sample", "ns"),
    ("server.overhead_ns_per_sample", "ns"),
    ("server.backlog_samples", "samples"),
    ("server.stats_latency_p99_us", "us"),
    ("loadgen.lag_ms_p99", "ms"),
    ("host.cores", "count"),
    ("host.calib_ns", "ns"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["drive_by", "indoor_array", "gateway"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(0), seconds, trace: trace.unwrap_or(false) })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of item `index` of input list `list`, derived from the run's
/// seed: the same `--seed` gives the same inputs.
pub fn seed_for(seed: u64, list: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ splitmix64((list << 32) | index))
}

/// Writes the traced run's spans next to the benchmark's sources, in
/// `out/` (best effort: the numbers are already in memory).
pub fn write_spans(args: &Args, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("palcbench: {e}");
            eprintln!(
                "usage: palcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let calib = host::Calibrator::new();
    let mut readings = vec![calib.read()];
    let mut report = Report::default();
    {
        let mut midpoint = || readings.push(calib.read());
        match args.workload.as_str() {
            "drive_by" => drive_by::run(&args, &mut report, &mut midpoint),
            "indoor_array" => indoor_array::run(&args, &mut report, &mut midpoint),
            _ => gateway::run_workload(&args, &mut report, &mut midpoint),
        }
    }
    readings.push(calib.read());
    eprintln!(
        "{} seed {} trace {}: host.calib_ns {:?} on {} cores, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        readings.iter().map(|r| (r * 100.0).round() / 100.0).collect::<Vec<_>>(),
        host::cores(),
        started.elapsed().as_secs_f64()
    );
    if args.trace {
        report.metric("host.cores", host::cores() as f64, "count");
        report.metric("host.calib_ns", stats::median(&readings), "ns");
        let have: Vec<String> = report.names().map(str::to_string).collect();
        for (name, unit) in PER_LAYER {
            if !have.iter().any(|h| h == name) {
                report.metric(name, 0.0, unit);
            }
        }
    } else {
        match host::peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
            None => report.errors.push("VmHWM unreadable".into()),
        }
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let names: Vec<String> = report.names().map(str::to_string).collect();
    report.check(
        names.len() == expected.len() && expected.iter().all(|e| names.iter().any(|n| n == e)),
        || format!("reported metrics {names:?} differ from the declared {expected:?}"),
    );
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload gateway --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "gateway".into(), seed: 7, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload drive_by --trace 2")).is_err());
        assert!(parse_args(&argv("--workload drive_by --seconds")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        assert_eq!(seed_for(1, 2, 3), seed_for(1, 2, 3));
        assert_ne!(seed_for(1, 2, 3), seed_for(2, 2, 3));
        assert_ne!(seed_for(1, 2, 3), seed_for(1, 3, 3));
        assert_ne!(seed_for(1, 2, 3), seed_for(1, 2, 4));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // The string values of `key` inside the `section` array.
        let values = |section: &str, key: &str| -> Vec<String> {
            let body = &json[json.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split(&format!("\"{key}\":"))
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("string value").to_string())
                .collect()
        };
        let column = |t: &[(&str, &str)], i: usize| -> Vec<String> {
            t.iter().map(|e| if i == 0 { e.0 } else { e.1 }.to_string()).collect()
        };
        assert_eq!(values("end_to_end", "name"), column(&END_TO_END, 0));
        assert_eq!(values("end_to_end", "unit"), column(&END_TO_END, 1));
        assert_eq!(values("per_layer", "name"), column(&PER_LAYER, 0));
        assert_eq!(values("per_layer", "unit"), column(&PER_LAYER, 1));
        assert_eq!(values("workloads", "name"), WORKLOADS.map(str::to_string).to_vec());
    }
}
