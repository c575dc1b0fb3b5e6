//! The `channel_throughput` kernel: samples/sec through the channel
//! simulator for the three paper scenario families, staged sampler vs the
//! full per-tick integral, plus `run_batch` multi-core scaling on a
//! figure-style seed sweep.
//!
//! The binary `channel_throughput` records these numbers to
//! `BENCH_channel.json` so every later PR has a perf trajectory.

use palc::channel::{ReceiverPose, Scenario};
use palc::decode::AdaptiveDecoder;
use palc::fusion::FusionCenter;
use palc::stream::{StreamingDecoder, StreamingTwoPhase};
use palc::sweep::{ArrayReceiver, SweepRunner};
use palc::vehicle::TwoPhaseDecoder;
use palc_optics::source::Sun;
use palc_phy::Packet;
use palc_scene::CarModel;
use std::time::Instant;

/// Throughput measurement for one scenario family.
#[derive(Debug, Clone)]
pub struct ChannelThroughput {
    /// Scenario family id (`indoor_bench`, `ceiling_office`,
    /// `outdoor_car`, `outdoor_car_long`).
    pub scenario: String,
    /// Samples per trace at this scenario's ADC rate.
    pub trace_samples: usize,
    /// Kernel sampler (FootprintKernel geometry tables, the default
    /// tier) throughput, samples/sec.
    pub kernel_samples_per_s: f64,
    /// Incremental sampler (DeltaField, kernel disabled) throughput,
    /// samples/sec.
    pub incremental_samples_per_s: f64,
    /// Staged sampler (static-field reuse, kernel and incremental
    /// disabled) throughput, samples/sec.
    pub staged_samples_per_s: f64,
    /// Full per-tick integral throughput, samples/sec.
    pub full_samples_per_s: f64,
    /// staged / full.
    pub speedup: f64,
    /// incremental / staged — the O(boundary) win.
    pub incremental_speedup: f64,
    /// kernel / staged — the transcendental-free-tick win over the
    /// staged walk (the `ceiling_office` headline).
    pub kernel_speedup: f64,
    /// Streaming decode throughput: the staged sampler piped straight
    /// into a push-based decoder (live-receiver path), samples/sec.
    pub streaming_decode_samples_per_s: f64,
    /// Array-sharding throughput: one shared scene fanned across
    /// `array_receivers` staggered poses on the `SweepRunner`, each
    /// shard owning its pose-relative static/delta fields and a push
    /// decoder, detections fused online — total samples across all
    /// shards per second of wall clock.
    pub array_samples_per_s: f64,
    /// Receiver poses in the array-sharding measurement.
    pub array_receivers: usize,
    /// Wall-clock speedup of `run_batch` over the same seeds serially.
    pub batch_parallel_speedup: f64,
    /// Worker threads `run_batch` used.
    pub batch_threads: usize,
}

fn scenarios() -> Vec<(String, Scenario)> {
    vec![
        (
            "indoor_bench".into(),
            Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20),
        ),
        (
            "ceiling_office".into(),
            Scenario::ceiling_office(Packet::from_bits("10").unwrap(), 0.03, 500.0),
        ),
        (
            "outdoor_car".into(),
            Scenario::outdoor_car(
                CarModel::volvo_v40(),
                Some(Packet::from_bits("00").unwrap()),
                0.75,
                Sun::cloudy_noon(1),
            ),
        ),
        (
            // A traffic-jam crawl past a gate reader (5 km/h): the car
            // sits inside the footprint for most of the run, which is
            // where O(covered area) vs O(boundary) per tick shows.
            "outdoor_car_long".into(),
            Scenario::outdoor_car_pass(
                CarModel::volvo_v40(),
                Some(Packet::from_bits("00").unwrap()),
                0.75,
                Sun::cloudy_noon(1),
                palc_scene::Trajectory::Constant { speed_mps: 1.4 },
                1.0,
            ),
        ),
    ]
}

/// The pre-refactor batch path — the same reference implementation the
/// golden-equivalence tests pin against.
fn full_integral_run(sc: &Scenario, seed: u64) -> usize {
    sc.run_full_integral(seed).len()
}

/// Local `black_box` so the decoder's event count is observably used.
fn palc_bench_black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

fn time_reps(mut f: impl FnMut(u64) -> usize, reps: u64) -> (f64, usize) {
    let t = Instant::now();
    let mut n = 0usize;
    for seed in 0..reps {
        n = f(seed);
    }
    (t.elapsed().as_secs_f64(), n)
}

/// Measures the three scenario families. `reps` runs per measurement
/// (≥ 1); higher values smooth scheduler noise.
pub fn channel_throughput(reps: u64) -> Vec<ChannelThroughput> {
    let reps = reps.max(1);
    scenarios()
        .into_iter()
        .map(|(name, sc)| {
            // Warm-up: populates the scenario's static-field cache path
            // and faults code in.
            let _ = sc.run(0);
            let _ = full_integral_run(&sc, 0);

            // Scenario::run rides the kernel (FootprintKernel) tier by
            // default; the lower tiers are measured with the upper ones
            // disabled (`without_kernel` → incremental,
            // `without_incremental` → staged).
            debug_assert!(sc.sampler(0).is_kernel(), "kernel tier must engage on every family");
            let (kernel_s, n) = time_reps(|seed| sc.run(seed).len(), reps);
            let (incremental_s, _) =
                time_reps(|seed| sc.sampler(seed).without_kernel().into_trace().len(), reps);
            let (staged_s, _) =
                time_reps(|seed| sc.sampler(seed).without_incremental().into_trace().len(), reps);
            let (full_s, _) = time_reps(|seed| full_integral_run(&sc, seed), reps);
            let total = (n as u64 * reps) as f64;
            let kernel_rate = total / kernel_s;
            let incremental_rate = total / incremental_s;
            let staged_rate = total / staged_s;
            let full_rate = total / full_s;

            // Streaming decode: sampler → push-based decoder, no trace
            // materialised — the live-receiver end-to-end path.
            let fs = sc.channel().frontend.sample_rate_hz();
            let (stream_s, _) = time_reps(
                |seed| {
                    if name == "outdoor_car" {
                        let cfg = TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2);
                        let mut dec = StreamingTwoPhase::new(cfg, fs);
                        let mut count = 0usize;
                        for sample in sc.sampler(seed) {
                            if dec.push(sample).is_some() {
                                count += 1;
                            }
                            while dec.poll().is_some() {
                                count += 1;
                            }
                        }
                        count += dec.finish().len();
                        palc_bench_black_box(count);
                        n
                    } else {
                        let cfg = AdaptiveDecoder::default().with_expected_bits(2);
                        let mut dec = StreamingDecoder::new(cfg, fs);
                        let mut count = 0usize;
                        for sample in sc.sampler(seed) {
                            if dec.push(sample).is_some() {
                                count += 1;
                            }
                            while dec.poll().is_some() {
                                count += 1;
                            }
                        }
                        count += dec.finish().len();
                        palc_bench_black_box(count);
                        n
                    }
                },
                reps,
            );
            let streaming_rate = total / stream_s;

            // Array sharding: the same scene fanned across three
            // staggered receiver poses (one worker per pose, online
            // fusion). Offsets are scaled to each family's footprint so
            // every shard still sees the pass.
            let z = sc.channel().receiver_z_m;
            let dx = if name.starts_with("outdoor") { 0.5 } else { 0.02 };
            let poses = [
                ReceiverPose::new(-dx, 0.0, z),
                ReceiverPose::origin(z),
                ReceiverPose::new(dx, 0.0, z),
            ];
            let receivers: Vec<ArrayReceiver> = poses
                .iter()
                .enumerate()
                .map(|(i, &pose)| ArrayReceiver { id: i as u32, pose, seed: i as u64 })
                .collect();
            let array_samples: usize =
                poses.iter().map(|&p| (sc.shard_duration_for(p) * fs).ceil() as usize).sum();
            let runner = SweepRunner::new();
            let t = Instant::now();
            for _ in 0..reps {
                let run = if name.starts_with("outdoor") {
                    sc.run_array_streaming_on(&runner, &receivers, FusionCenter::default(), |_| {
                        StreamingTwoPhase::new(
                            TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2),
                            fs,
                        )
                    })
                } else {
                    sc.run_array_streaming_on(&runner, &receivers, FusionCenter::default(), |_| {
                        StreamingDecoder::new(AdaptiveDecoder::default().with_expected_bits(2), fs)
                    })
                };
                palc_bench_black_box(run.fused.len() + run.outcomes.len());
            }
            let array_rate = (array_samples as u64 * reps) as f64 / t.elapsed().as_secs_f64();

            // run_batch scaling on a figure-style seed sweep.
            let seeds: Vec<u64> = (0..(4 * runner.threads() as u64).max(8)).collect();
            let t = Instant::now();
            let serial: Vec<_> = seeds.iter().map(|&s| sc.run(s)).collect();
            let serial_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let parallel = sc.run_batch_on(&runner, &seeds);
            let parallel_s = t.elapsed().as_secs_f64();
            assert_eq!(serial.len(), parallel.len());

            ChannelThroughput {
                scenario: name,
                trace_samples: n,
                kernel_samples_per_s: kernel_rate,
                incremental_samples_per_s: incremental_rate,
                staged_samples_per_s: staged_rate,
                full_samples_per_s: full_rate,
                speedup: staged_rate / full_rate,
                incremental_speedup: incremental_rate / staged_rate,
                kernel_speedup: kernel_rate / staged_rate,
                streaming_decode_samples_per_s: streaming_rate,
                array_samples_per_s: array_rate,
                array_receivers: receivers.len(),
                batch_parallel_speedup: serial_s / parallel_s,
                batch_threads: runner.threads(),
            }
        })
        .collect()
}

/// One point of the fleet scaling sweep: per-tick cost of the default
/// (kernel) sampler on a `parking_structure` scene at one object count,
/// plus the kernel's build-time statistics. Sublinearity across points —
/// the 1000-object tick costing ≤ 3× the 100-object tick — is the floor
/// `--check` gates on.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Scenario family id (`parking_structure`).
    pub scenario: String,
    /// Total objects in the scene.
    pub objects: usize,
    /// Moving objects among them.
    pub movers: usize,
    /// Samples per trace at the family's ADC rate.
    pub trace_samples: usize,
    /// Wall-clock nanoseconds per sample, end to end (sampler build
    /// amortised over the trace).
    pub per_tick_ns: f64,
    /// Kernel build stats at this object count.
    pub stats: palc::KernelStats,
}

/// Measures the default sampler's per-tick cost on the
/// `parking_structure` family at 10, 100 and 1000 objects (3 movers
/// each; the movers, the footprint and the run duration are identical
/// across points, so any cost growth is attributable to scene size).
pub fn scaling_sweep(reps: u64) -> Vec<ScalingPoint> {
    let reps = reps.max(1);
    [10usize, 100, 1000]
        .iter()
        .map(|&n| {
            let sc = Scenario::parking_structure(n, 3, Some(Packet::from_bits("10").unwrap()));
            let _ = sc.run(0); // warm-up
            let sampler = sc.sampler(0);
            debug_assert!(sampler.is_kernel(), "fleet family must ride the kernel tier");
            let stats = sampler.kernel_stats().expect("kernel stats");
            let (secs, samples) = time_reps(|seed| sc.run(seed).len(), reps);
            ScalingPoint {
                scenario: "parking_structure".into(),
                objects: n,
                movers: 3,
                trace_samples: samples,
                per_tick_ns: secs * 1e9 / (samples as u64 * reps) as f64,
                stats,
            }
        })
        .collect()
}

/// Renders the measurements as the `BENCH_channel.json` document.
pub fn to_json(results: &[ChannelThroughput], scaling: &[ScalingPoint]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"channel_throughput\",\n  \"unit\": \"samples/sec\",\n  \"host_cores\": {},\n  \"scenarios\": [\n",
        host_cores()
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"trace_samples\": {},\n",
                "      \"kernel_samples_per_s\": {:.0},\n",
                "      \"incremental_samples_per_s\": {:.0},\n",
                "      \"staged_samples_per_s\": {:.0},\n",
                "      \"full_integral_samples_per_s\": {:.0},\n",
                "      \"staged_speedup\": {:.2},\n",
                "      \"incremental_speedup\": {:.2},\n",
                "      \"kernel_speedup\": {:.2},\n",
                "      \"streaming_decode_samples_per_s\": {:.0},\n",
                "      \"array_shard_samples_per_s\": {:.0},\n",
                "      \"array_receivers\": {},\n",
                "      \"run_batch_parallel_speedup\": {:.2},\n",
                "      \"run_batch_threads\": {}\n",
                "    }}{}\n"
            ),
            r.scenario,
            r.trace_samples,
            r.kernel_samples_per_s,
            r.incremental_samples_per_s,
            r.staged_samples_per_s,
            r.full_samples_per_s,
            r.speedup,
            r.incremental_speedup,
            r.kernel_speedup,
            r.streaming_decode_samples_per_s,
            r.array_samples_per_s,
            r.array_receivers,
            r.batch_parallel_speedup,
            r.batch_threads,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"objects\": {},\n",
                "      \"movers\": {},\n",
                "      \"trace_samples\": {},\n",
                "      \"per_tick_ns\": {:.1},\n",
                "      \"tables_built\": {},\n",
                "      \"tables_interned\": {},\n",
                "      \"table_bytes\": {},\n",
                "      \"objects_culled\": {},\n",
                "      \"objects_parked\": {},\n",
                "      \"objects_movers\": {}\n",
                "    }}{}\n"
            ),
            p.scenario,
            p.objects,
            p.movers,
            p.trace_samples,
            p.per_tick_ns,
            p.stats.tables_built,
            p.stats.tables_interned,
            p.stats.table_bytes,
            p.stats.objects_culled,
            p.stats.objects_parked,
            p.stats.objects_movers,
            if i + 1 < scaling.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Every floor one family's measurement is gated on, as `(ratio name,
/// measured ratio, floor)`: the ROADMAP invariants (indoor staged/full
/// ≥ 5×, outdoor incremental/staged ≥ 3×) plus the footprint-kernel
/// floors (`ceiling_office` kernel/staged ≥ 20× — the wide-FoV family
/// the kernel was built for — and kernel ≥ 6× incremental on every
/// family). The prefix-sum kernel's lowest ratios over five 2-core smoke
/// runs were 34.9× and 10.5×; the kernel floors sit at most 60 % of
/// those.
fn floor_ratios(r: &ChannelThroughput) -> Vec<(String, f64, f64)> {
    let mut ratios = Vec::new();
    match r.scenario.as_str() {
        "indoor_bench" => ratios.push(("indoor_bench staged/full".into(), r.speedup, 5.0)),
        "ceiling_office" => {
            ratios.push(("ceiling_office kernel/staged".into(), r.kernel_speedup, 20.0))
        }
        "outdoor_car" | "outdoor_car_long" => {
            ratios.push((format!("{} incremental/staged", r.scenario), r.incremental_speedup, 3.0))
        }
        _ => {}
    }
    ratios.push((
        format!("{} kernel/incremental", r.scenario),
        r.kernel_samples_per_s / r.incremental_samples_per_s,
        6.0,
    ));
    ratios
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The performance floors `--check` asserts (see `floor_ratios`), over
/// repeated measurements of the same families: each ratio is gated at
/// its median across `runs`. One measurement whose ratio dips below a
/// floor (the host changed speed between the two timed tiers) is
/// outvoted when the others clear it; a real regression moves the
/// median and fails.
///
/// Returns every violated floor, empty when all hold — so a perf
/// regression fails the build instead of silently eroding
/// `BENCH_channel.json`.
pub fn check_floors(runs: &[Vec<ChannelThroughput>]) -> Vec<String> {
    let mut ratios: Vec<(String, Vec<f64>, f64)> = Vec::new();
    for r in runs.iter().flatten() {
        for (name, value, floor) in floor_ratios(r) {
            match ratios.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, values, _)) => values.push(value),
                None => ratios.push((name, vec![value], floor)),
            }
        }
    }
    ratios
        .into_iter()
        .filter_map(|(name, values, floor)| {
            let n = values.len();
            let m = median(values);
            (m < floor).then(|| format!("{name} {m:.2}x < {floor}x (median of {n})"))
        })
        .collect()
}

/// The scaling floors `--check` asserts on the fleet sweep, over
/// repeated sweeps: the median per-tick cost ratio of 1000 to 100
/// objects stays within 3× (the sublinearity gate — a per-object tick
/// loop would blow through this at ~10×), and the 1000-object kernel
/// actually exercises the scaling machinery (tables interned,
/// out-of-footprint objects culled) in every sweep.
pub fn check_scaling_floors(runs: &[Vec<ScalingPoint>]) -> Vec<String> {
    let mut pairs = Vec::new();
    for points in runs {
        let at = |n: usize| points.iter().find(|p| p.objects == n);
        match (at(100), at(1000)) {
            (Some(mid), Some(big)) => pairs.push((mid, big)),
            _ => return vec!["scaling sweep missing the 100- or 1000-object point".into()],
        }
    }
    let mut violations = Vec::new();
    let n = pairs.len();
    let ratio = median(pairs.iter().map(|(mid, big)| big.per_tick_ns / mid.per_tick_ns).collect());
    if ratio > 3.0 {
        violations.push(format!(
            "parking_structure per-tick cost 1000 vs 100 objects {ratio:.2}x > 3x (median of {n})"
        ));
    }
    if pairs.iter().any(|(_, big)| big.stats.tables_interned == 0) {
        violations.push("1000-object kernel interned no tables".into());
    }
    if pairs.iter().any(|(_, big)| big.stats.objects_culled == 0) {
        violations.push("1000-object kernel culled no objects".into());
    }
    violations
}

/// Logical cores of the measuring host, recorded next to its numbers.
fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ChannelThroughput {
        ChannelThroughput {
            scenario: "indoor_bench".into(),
            trace_samples: 1300,
            kernel_samples_per_s: 9876543.0,
            incremental_samples_per_s: 654321.0,
            staged_samples_per_s: 123456.0,
            full_samples_per_s: 12345.0,
            speedup: 10.0,
            incremental_speedup: 5.3,
            kernel_speedup: 8.0,
            streaming_decode_samples_per_s: 98765.0,
            array_samples_per_s: 222333.0,
            array_receivers: 3,
            batch_parallel_speedup: 3.5,
            batch_threads: 8,
        }
    }

    fn sample_scaling() -> Vec<ScalingPoint> {
        let stats = |built, interned, culled, parked| palc::KernelStats {
            tables_built: built,
            tables_interned: interned,
            table_bytes: 1234,
            objects_culled: culled,
            objects_parked: parked,
            objects_movers: 3,
        };
        vec![
            ScalingPoint {
                scenario: "parking_structure".into(),
                objects: 10,
                movers: 3,
                trace_samples: 13000,
                per_tick_ns: 400.0,
                stats: stats(10, 8, 0, 7),
            },
            ScalingPoint {
                scenario: "parking_structure".into(),
                objects: 100,
                movers: 3,
                trace_samples: 13000,
                per_tick_ns: 420.0,
                stats: stats(10, 20, 80, 17),
            },
            ScalingPoint {
                scenario: "parking_structure".into(),
                objects: 1000,
                movers: 3,
                trace_samples: 13000,
                per_tick_ns: 450.0,
                stats: stats(10, 20, 980, 17),
            },
        ]
    }

    #[test]
    fn json_shape_is_stable() {
        let json = to_json(&[sample_result()], &sample_scaling());
        assert!(json.contains("\"scenario\": \"indoor_bench\""));
        assert!(json.contains(&format!("\"host_cores\": {}", host_cores())));
        assert!(json.contains("\"staged_speedup\": 10.00"));
        assert!(json.contains("\"kernel_samples_per_s\": 9876543"));
        assert!(json.contains("\"incremental_samples_per_s\": 654321"));
        assert!(json.contains("\"incremental_speedup\": 5.30"));
        assert!(json.contains("\"kernel_speedup\": 8.00"));
        assert!(json.contains("\"streaming_decode_samples_per_s\": 98765"));
        assert!(json.contains("\"array_shard_samples_per_s\": 222333"));
        assert!(json.contains("\"array_receivers\": 3"));
        assert!(json.contains("\"scaling\": ["));
        assert!(json.contains("\"objects\": 1000"));
        assert!(json.contains("\"per_tick_ns\": 450.0"));
        assert!(json.contains("\"tables_interned\": 20"));
        assert!(json.contains("\"objects_culled\": 980"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn scaling_floors_pass_and_fail_where_expected() {
        assert!(check_scaling_floors(&[sample_scaling()]).is_empty());

        let mut linear = sample_scaling();
        linear[2].per_tick_ns = 10.0 * linear[1].per_tick_ns;
        let v = check_scaling_floors(&[linear]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("per-tick cost"), "{v:?}");

        let mut no_intern = sample_scaling();
        no_intern[2].stats.tables_interned = 0;
        no_intern[2].stats.objects_culled = 0;
        let v = check_scaling_floors(&[no_intern]);
        assert_eq!(v.len(), 2, "{v:?}");

        let v = check_scaling_floors(&[sample_scaling()[..1].to_vec()]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("missing"), "{v:?}");
    }

    #[test]
    fn floors_pass_and_fail_where_expected() {
        assert!(check_floors(&[vec![sample_result()]]).is_empty());

        let mut slow_staged = sample_result();
        slow_staged.speedup = 4.2;
        let v = check_floors(&[vec![slow_staged]]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("staged/full"), "{v:?}");

        let mut slow_kernel = sample_result();
        slow_kernel.scenario = "ceiling_office".into();
        slow_kernel.kernel_speedup = 2.1;
        slow_kernel.kernel_samples_per_s = slow_kernel.incremental_samples_per_s; // 1.0x
        let v = check_floors(&[vec![slow_kernel]]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("kernel/staged")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("kernel/incremental")), "{v:?}");

        let mut slow_outdoor = sample_result();
        slow_outdoor.scenario = "outdoor_car_long".into();
        slow_outdoor.incremental_speedup = 2.4;
        let v = check_floors(&[vec![slow_outdoor]]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("incremental/staged"), "{v:?}");
    }

    #[test]
    fn floors_gate_the_median_of_repeated_measurements() {
        let run = |speedup: f64| {
            let mut r = sample_result();
            r.speedup = speedup;
            vec![r]
        };
        // One measurement below the floor is outvoted by the other two.
        assert!(check_floors(&[run(4.2), run(5.5), run(6.0)]).is_empty());
        // Two of three below it: the median fails, and says so.
        let v = check_floors(&[run(4.2), run(4.9), run(6.0)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("4.90x") && v[0].contains("median of 3"), "{v:?}");

        let sweep = |big_ns: f64| {
            let mut points = sample_scaling();
            points[2].per_tick_ns = big_ns;
            points
        };
        assert!(check_scaling_floors(&[sweep(4000.0), sweep(450.0), sweep(500.0)]).is_empty());
        let v = check_scaling_floors(&[sweep(4000.0), sweep(1300.0), sweep(500.0)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("per-tick cost"), "{v:?}");
    }

    /// Every tier must agree with every lower tier on every bench
    /// scenario family — the guard that keeps the recorded speedups
    /// honest (a fast-but-wrong kernel fails here first).
    #[test]
    fn kernel_agrees_with_incremental_and_staged_on_every_family() {
        for (name, sc) in scenarios() {
            let seed = 42;
            let sampler = sc.sampler(seed);
            assert!(sampler.is_kernel(), "{name}: kernel tier must engage");
            assert!(sampler.is_incremental(), "{name}: incremental tier must engage");
            let kernel: Vec<f64> = sampler.collect();
            let incremental: Vec<f64> = sc.sampler(seed).without_kernel().collect();
            let staged: Vec<f64> = sc.sampler(seed).without_incremental().collect();
            assert_eq!(kernel.len(), incremental.len(), "{name}");
            assert_eq!(kernel.len(), staged.len(), "{name}");
            for (i, ((k, a), b)) in kernel.iter().zip(&incremental).zip(&staged).enumerate() {
                assert!((k - a).abs() <= 1e-9, "{name}: sample {i}: kernel {k} vs incremental {a}");
                assert!((a - b).abs() <= 1e-9, "{name}: sample {i}: incremental {a} vs staged {b}");
            }
        }
    }
}
