//! Records the channel sampler's samples/sec baseline.
//!
//! ```text
//! cargo run --release -p palc_bench --bin channel_throughput \
//!     [-- [--smoke] [--check] [--verbose] [out.json [reps]]]
//! ```
//!
//! Writes `BENCH_channel.json` (or the given path) and prints it.
//! `--smoke` is the CI bit-rot guard: one rep per scenario, results
//! printed but written only when a path is given explicitly — a smoke
//! run never clobbers the recorded baseline. `--verbose` prints the
//! kernel build statistics (tables built vs interned, pool bytes, the
//! culled/parked/mover split) for every fleet scaling point. `--check`
//! asserts the ROADMAP performance floors on the freshly measured
//! numbers (indoor staged ≥ 5×, outdoor incremental ≥ 3×, the
//! footprint-kernel floors, and the fleet sublinearity floor: the
//! 1000-object per-tick cost within 3× of the 100-object cost) and
//! exits non-zero on any violation, so CI fails on a perf regression
//! instead of letting the ledger erode silently. With `--check` the
//! whole measurement runs three times and each ratio is gated at its
//! median: a single measurement's ratio wobbles ~10 % on a noisy
//! 2-core runner, enough to dip below a floor it clears on the next
//! one, while a real regression moves the median.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let verbose = args.iter().any(|a| a == "--verbose");
    let rest: Vec<&String> = args
        .iter()
        .filter(|a| !matches!(a.as_str(), "--smoke" | "--check" | "--verbose"))
        .collect();
    let path = rest.first().map(|s| s.as_str());
    let reps: u64 = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(if smoke { 1 } else { 5 });

    // `--check` gates the median of three measurements (see above).
    let measurements = if check { 3 } else { 1 };
    let mut runs = Vec::with_capacity(measurements);
    let mut sweeps = Vec::with_capacity(measurements);
    for k in 1..=measurements {
        if measurements > 1 {
            println!("measurement {k} of {measurements}");
        }
        let results = palc_bench::throughput::channel_throughput(reps);
        print_results(&results);
        let scaling = palc_bench::throughput::scaling_sweep(reps);
        print_scaling(&scaling, verbose);
        runs.push(results);
        sweeps.push(scaling);
    }
    let json = palc_bench::throughput::to_json(&runs[0], &sweeps[0]);
    // A smoke run only writes when a path was given explicitly, so it can
    // never clobber the recorded baseline.
    match path.or(if smoke { None } else { Some("BENCH_channel.json") }) {
        Some(p) => {
            std::fs::write(p, &json).unwrap_or_else(|e| panic!("writing {p}: {e}"));
            println!("\nwrote {p}");
        }
        None => println!("\nsmoke run: nothing written"),
    }
    if check {
        let mut violations = palc_bench::throughput::check_floors(&runs);
        violations.extend(palc_bench::throughput::check_scaling_floors(&sweeps));
        if violations.is_empty() {
            println!("all performance floors hold (median of {measurements} measurements)");
        } else {
            for v in &violations {
                eprintln!("FLOOR VIOLATED: {v}");
            }
            std::process::exit(1);
        }
    }
}

fn print_results(results: &[palc_bench::throughput::ChannelThroughput]) {
    for r in results {
        println!(
            "{:<18} kernel {:>10.0}/s | incr {:>10.0}/s | staged {:>10.0}/s | full {:>10.0}/s | staged/full {:>5.2}x | incr/staged {:>5.2}x | kernel/staged {:>5.2}x | array×{} {:>10.0}/s | run_batch {:>4.2}x on {} threads",
            r.scenario,
            r.kernel_samples_per_s,
            r.incremental_samples_per_s,
            r.staged_samples_per_s,
            r.full_samples_per_s,
            r.speedup,
            r.incremental_speedup,
            r.kernel_speedup,
            r.array_receivers,
            r.array_samples_per_s,
            r.batch_parallel_speedup,
            r.batch_threads,
        );
    }
}

fn print_scaling(scaling: &[palc_bench::throughput::ScalingPoint], verbose: bool) {
    for p in scaling {
        println!(
            "{:<18} {:>4} objects ({} movers) | {:>8.0} ns/tick over {} samples",
            p.scenario, p.objects, p.movers, p.per_tick_ns, p.trace_samples,
        );
        if verbose {
            println!(
                "{:<18} tables: {} built, {} interned, {} bytes | objects: {} culled, {} parked, {} movers",
                "",
                p.stats.tables_built,
                p.stats.tables_interned,
                p.stats.table_bytes,
                p.stats.objects_culled,
                p.stats.objects_parked,
                p.stats.objects_movers,
            );
        }
    }
}
