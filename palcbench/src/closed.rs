//! The closed loop both pass workloads share, and the per-layer ledger
//! their traced runs report.

use crate::pipeline::{DecodeTally, KernelTally};
use crate::report::{Report, Tally};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTiming {
    /// Which pass of the list this was.
    pub item: usize,
    /// From sampler build to the decoder's last event or the verdict.
    pub wall_ms: f64,
    /// From pass start to the moment the expected packet or verdict was
    /// returned; a pass that returned none counts until its end.
    pub latency_ms: f64,
    /// Samples the pass pushed through its decoders.
    pub samples: usize,
}

/// Runs passes `0, 1, …` of an `items`-long list in order, wrapping
/// around, until `seconds` have passed and every item has run at least
/// once. `pass(i)` returns its timing, whether it succeeded, and a
/// digest of its output; `midpoint` runs once, halfway through.
pub fn run_loop(
    items: usize,
    seconds: f64,
    mut midpoint: impl FnMut(),
    mut pass: impl FnMut(usize) -> (PassTiming, bool, u64),
) -> (Vec<PassTiming>, Tally) {
    let start = Instant::now();
    let mut tally = Tally::new(items);
    let mut timings = Vec::new();
    let mut mid_done = false;
    let mut i = 0;
    while !(tally.complete() && start.elapsed().as_secs_f64() >= seconds) {
        let (timing, ok, digest) = pass(i % items);
        tally.record(i % items, ok, digest);
        timings.push(PassTiming { item: i % items, ..timing });
        i += 1;
        if !mid_done && start.elapsed().as_secs_f64() >= seconds / 2.0 {
            midpoint();
            mid_done = true;
        }
    }
    (timings, tally)
}

/// Each pass's fastest repeat: `(wall_ms, latency_ms, samples)` per pass
/// of the list. Every pass repeats many times across the run, so its
/// fastest repeat falls in a stretch of the host's fast speed; statistics
/// over the list then reflect the inputs and the code, not how much of
/// the run the host spent slow.
pub fn fastest(timings: &[PassTiming], items: usize) -> Vec<(f64, f64, usize)> {
    let mut best = vec![(f64::INFINITY, f64::INFINITY, 0); items];
    for t in timings {
        let b = &mut best[t.item];
        *b = (b.0.min(t.wall_ms), b.1.min(t.latency_ms), t.samples);
    }
    best
}

/// Failure accounting of the untraced loop: every distinct pass once, and
/// every repeat identical to its first run.
pub fn report_tally(report: &mut Report, tally: &Tally) {
    report.attempted = tally.attempted();
    report.failed = tally.failed();
    report.check(tally.mismatches() == 0, || {
        format!("{} repeated passes decoded differently from their first run", tally.mismatches())
    });
}

/// The traced run must decode every pass exactly as the untraced one.
pub fn check_traced(report: &mut Report, untraced: &Tally, traced: &Tally) {
    let differing = (0..untraced.len()).filter(|&i| traced.digest(i) != untraced.digest(i)).count();
    report.check(differing == 0 && traced.mismatches() == 0, || {
        format!("traced run decoded {differing} passes differently from the untraced run")
    });
}

/// The end-to-end metrics of a closed loop over an `items`-long list,
/// from each pass's fastest repeat.
pub fn report_e2e(report: &mut Report, timings: &[PassTiming], items: usize, threads: usize) {
    let best = fastest(timings, items);
    let wall: Vec<f64> = best.iter().map(|b| b.0).collect();
    let latency: Vec<f64> = best.iter().map(|b| b.1).collect();
    report.metric_or_error("pass_ms_p10", percentile(&wall, 0.1), "ms");
    report.metric_or_error("pass_ms_p90", percentile(&wall, 0.9), "ms");
    report.metric_or_error("latency_ms_p50", percentile(&latency, 0.5), "ms");
    report.metric_or_error("latency_ms_p90", percentile(&latency, 0.9), "ms");
    // Samples a pass pushes through its decoders per second of its
    // threads' time, at the 90th percentile over the list: the rate the
    // threads sustain in the host's fast stretches.
    let rates: Vec<f64> = best
        .iter()
        .map(|&(ms, _, samples)| samples as f64 / (ms * 1e-3 * threads as f64))
        .collect();
    report.metric_or_error("capacity_samples_per_s", percentile(&rates, 0.9), "samples/s");
}

/// Per-layer counts of the traced run. Samples and kernels are summed
/// over every traced pass; decode outcomes and fused events over the
/// first traced cycle of the pass list only, so they repeat exactly.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Distinct passes in the cycle the outcomes are counted over.
    pub passes: u64,
    pub samples: u64,
    pub impaired_samples: u64,
    pub kernels: KernelTally,
    pub decodes: DecodeTally,
    pub fused_events: u64,
}

/// The traced run's ledger for a pass workload: per-layer costs and
/// shares from the spans, the counts, and the closure checks.
pub fn report_ledger(
    report: &mut Report,
    tracer: &Tracer,
    counts: &LayerCounts,
    untraced: &[PassTiming],
    threads: usize,
) {
    let by_name = tracer.self_by_name();
    let by_layer = tracer.self_by_layer();
    let total: u64 = by_layer.values().sum();
    let name_ns = |n: &str| by_name.get(n).copied().unwrap_or(0) as f64;
    let layer_share = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64 / total.max(1) as f64;
    let median_ms = |n: &str| {
        let d: Vec<f64> = tracer.durations(n).iter().map(|&ns| ns as f64 / 1e6).collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let per_sample = |ns: f64, samples: u64| if samples == 0 { 0.0 } else { ns / samples as f64 };

    report.metric("channel.static_field_ms", median_ms("channel.static_field"), "ms");
    report.metric("channel.delta_build_ms", median_ms("channel.delta_build"), "ms");
    report.metric("channel.kernel_build_ms", median_ms("channel.kernel_build"), "ms");
    report.metric(
        "channel.tick_ns_per_sample",
        per_sample(name_ns("channel.tick"), counts.samples),
        "ns",
    );
    report.metric("channel.self_share", layer_share("channel"), "ratio");
    let k = &counts.kernels;
    report.metric("channel.tables_built", k.per_kernel(k.tables_built), "count");
    report.metric("channel.tables_interned", k.per_kernel(k.tables_interned), "count");
    report.metric("channel.table_bytes", k.per_kernel(k.table_bytes), "bytes");
    report.metric(
        "frontend.ns_per_sample",
        per_sample(name_ns("frontend.step"), counts.samples),
        "ns",
    );
    report.metric("frontend.self_share", layer_share("frontend"), "ratio");
    report.metric(
        "impair.ns_per_sample",
        per_sample(name_ns("impair.apply"), counts.impaired_samples),
        "ns",
    );
    report.metric("impair.self_share", layer_share("impair"), "ratio");
    report.metric(
        "stream.ns_per_sample",
        per_sample(name_ns("stream.decode"), counts.samples),
        "ns",
    );
    report.metric("stream.self_share", layer_share("stream"), "ratio");
    report_decode_counts(report, &counts.decodes);

    // Sharding: the slowest shard sets the pass time.
    let mut shards: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for span in tracer.spans().iter().filter(|s| s.name == "sweep.shard") {
        shards
            .entry(span.parent.expect("shards run under a pass"))
            .or_default()
            .push(span.dur_ns());
    }
    let mut shard_max = Vec::new();
    let mut shard_sum = 0u64;
    let mut pass_sum = 0u64;
    for (pass, durations) in &shards {
        shard_max.push(*durations.iter().max().expect("non-empty") as f64 / 1e6);
        shard_sum += durations.iter().sum::<u64>();
        pass_sum += tracer.spans()[*pass].dur_ns();
    }
    report.metric(
        "sweep.shard_ms_max",
        if shard_max.is_empty() { 0.0 } else { median(&shard_max) },
        "ms",
    );
    report.metric(
        "sweep.parallel_efficiency",
        if pass_sum == 0 { 0.0 } else { shard_sum as f64 / (threads as f64 * pass_sum as f64) },
        "ratio",
    );
    let fusion = tracer.durations("fusion.vote");
    report.metric(
        "fusion.us_per_pass",
        fusion.iter().sum::<u64>() as f64 / 1e3 / fusion.len().max(1) as f64,
        "us",
    );
    report.metric(
        "fusion.events",
        counts.fused_events as f64 / counts.passes.max(1) as f64,
        "count",
    );

    // Ledger closure: the layers' self time against everything traced
    // (the remainder is the benchmark's own glue in the pass spans).
    report.metric("trace.coverage", 1.0 - layer_share("pass"), "ratio");
    let traced: Vec<f64> = tracer.durations("pass").iter().map(|&ns| ns as f64 / 1e6).collect();
    let untraced: Vec<f64> = untraced.iter().map(|t| t.wall_ms).collect();
    match (percentile(&traced, 0.1), percentile(&untraced, 0.1)) {
        (Ok(t), Ok(u)) => report.metric("trace.overhead", t / u, "ratio"),
        (t, u) => report.errors.push(format!("trace.overhead: traced {t:?}, untraced {u:?}")),
    }
}

/// The decoder outcome counts.
pub fn report_decode_counts(report: &mut Report, decodes: &DecodeTally) {
    report.metric("stream.packets", decodes.get("packets") as f64, "count");
    for kind in ["no_preamble", "bad_preamble", "manchester"] {
        let name = format!("rejects.{kind}");
        report.metric(&format!("stream.{name}"), decodes.get(&name) as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_takes_each_items_best_repeat() {
        let t = |item, wall_ms, latency_ms| PassTiming { item, wall_ms, latency_ms, samples: 7 };
        let timings =
            [t(0, 3.0, 2.0), t(1, 6.0, 5.0), t(0, 2.0, 1.5), t(1, 4.0, 3.0), t(0, 2.5, 1.0)];
        assert_eq!(fastest(&timings, 2), vec![(2.0, 1.0, 7), (4.0, 3.0, 7)]);
    }

    #[test]
    fn loop_covers_the_list_and_counts_each_item_once() {
        let mut runs = 0;
        let mut mid = 0;
        let (timings, tally) = run_loop(
            5,
            0.0,
            || mid += 1,
            |i| {
                runs += 1;
                (PassTiming::default(), i != 3, i as u64)
            },
        );
        assert_eq!(runs, 5);
        assert_eq!(mid, 1);
        assert_eq!(timings.iter().map(|t| t.item).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!((tally.attempted(), tally.failed()), (5, 1));
    }
}
