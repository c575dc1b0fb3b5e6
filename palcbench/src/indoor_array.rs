//! `indoor_array`: the paper's Sec. 4 indoor bench (lamp and photodiode
//! at 20 cm, a "10" tag of 3 cm symbols on a cart) seen by four offset
//! receivers. Each pass shards the receivers through a `SweepRunner`;
//! every shard builds its own static field, delta field and kernel,
//! decodes with a live `StreamingDecoder`, and the shards' detections are
//! voted on online by a `FusionStream`. A closed loop.

use crate::closed::{self, LayerCounts, PassTiming};
use crate::pipeline::{KernelTally, Shard};
use crate::report::{fnv1a, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{seed_for, Args};
use palc::channel::ReceiverPose;
use palc::sweep::{ArrayOutcome, ArrayReceiver, SweepRunner};
use palc::{AdaptiveDecoder, Detection, FusedEvent, FusionCenter, FusionStream, ImpairmentStack};
use palc::{Scenario, StreamingDecoder};
use palc_phy::Packet;
use std::time::Instant;

/// Passes in the seeded list the loop cycles through.
const PASSES: usize = 100;
/// Receiver offsets along the tag's travel, metres: at 8 cm/s the
/// receivers see the pass up to 1.1 s apart.
const OFFSETS_M: [f64; 4] = [0.0, 0.03, 0.06, 0.09];
/// Shard threads. The runner runs the shards inline on this thread: with
/// two shard threads, runs swung by 25 to 42 % (quartile spread over ten
/// seeds) as other tenants came and went on the second vCPU, against 2 to
/// 6 % on one thread (interleaved runs).
const THREADS: usize = 1;
const PAYLOAD: &str = "10";

/// A fusion window covering the receivers' stagger, as the library
/// requires for arrival-order fusion.
fn center() -> FusionCenter {
    FusionCenter { window_s: 2.0, straggler_slack_s: 0.25 }
}

struct Setup {
    scenario: Scenario,
    passes: Vec<Vec<ArrayReceiver>>,
    decoder: AdaptiveDecoder,
    clean: ImpairmentStack,
}

fn build(seed: u64) -> Setup {
    let scenario =
        Scenario::indoor_bench(Packet::from_bits(PAYLOAD).expect("valid payload"), 0.03, 0.20);
    let z = scenario.channel().receiver_z_m;
    let passes = (0..PASSES)
        .map(|p| {
            OFFSETS_M
                .iter()
                .enumerate()
                .map(|(i, &x)| ArrayReceiver {
                    id: i as u32,
                    pose: ReceiverPose::new(x, 0.0, z),
                    seed: seed_for(seed, 3, (p * OFFSETS_M.len() + i) as u64),
                })
                .collect()
        })
        .collect();
    Setup {
        scenario,
        passes,
        decoder: AdaptiveDecoder::default().with_expected_bits(2),
        clean: ImpairmentStack::clean(),
    }
}

impl Setup {
    fn fs(&self) -> f64 {
        self.scenario.channel().frontend.sample_rate_hz()
    }

    fn shard(&self, r: &ArrayReceiver) -> Shard<'_> {
        Shard {
            channel: self.scenario.channel(),
            pose: r.pose,
            duration_s: self.scenario.shard_duration_for(r.pose),
            seed: r.seed,
            stack: &self.clean,
        }
    }

    fn samples(&self, pass: usize) -> usize {
        self.passes[pass].iter().map(|r| self.shard(r).samples()).sum()
    }
}

fn verdict_ok(fused: &[FusedEvent]) -> bool {
    fused.len() == 1 && fused[0].payload.to_string() == PAYLOAD
}

/// Every shard's event log bit for bit, plus the fused verdicts. Fused
/// times and support are sums in cross-thread arrival order, so only the
/// order-free fields of a verdict enter the digest.
fn digest(outcomes: &[ArrayOutcome], fused: &[FusedEvent]) -> u64 {
    let verdicts: Vec<String> =
        fused.iter().map(|f| format!("{}:{}/{}", f.payload, f.agreeing, f.receivers)).collect();
    fnv1a(format!("{outcomes:?}{verdicts:?}").as_bytes())
}

fn fuse(outcomes: &[ArrayOutcome]) -> Vec<FusedEvent> {
    let mut detections: Vec<Detection> =
        outcomes.iter().flat_map(ArrayOutcome::detections).collect();
    detections
        .sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.receiver_id.cmp(&b.receiver_id)));
    let mut stream = FusionStream::new(center());
    let mut fused: Vec<FusedEvent> =
        detections.into_iter().filter_map(|d| stream.push(d)).collect();
    fused.extend(stream.flush());
    fused
}

pub fn run(args: &Args, report: &mut Report, midpoint: &mut dyn FnMut()) {
    let (setup, first) = crate::timed(|| build(args.seed));
    // Set-up is timed again halfway through the window and after it.
    let mut setup_s = vec![first];
    let runner = SweepRunner::with_threads(THREADS);
    let fs = setup.fs();
    let window = if args.trace { args.seconds / 2.0 } else { args.seconds };

    let (timings, tally) = closed::run_loop(
        PASSES,
        window,
        || {
            midpoint();
            setup_s.push(crate::timed(|| build(args.seed)).1);
        },
        |i| {
            let start = Instant::now();
            let run =
                setup.scenario.run_array_streaming_on(&runner, &setup.passes[i], center(), |_| {
                    StreamingDecoder::new(setup.decoder.clone(), fs)
                });
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            // The fused verdict is returned with the run.
            let timing =
                PassTiming { item: i, wall_ms, latency_ms: wall_ms, samples: setup.samples(i) };
            (timing, verdict_ok(&run.fused), digest(&run.outcomes, &run.fused))
        },
    );
    closed::report_tally(report, &tally);

    if !args.trace {
        setup_s.push(crate::timed(|| build(args.seed)).1);
        report.metric("setup_s", median(&setup_s), "s");
        closed::report_e2e(report, &timings, PASSES, THREADS);
        return;
    }

    let mut tracer = Tracer::new(Instant::now());
    let epoch = tracer.epoch();
    let mut counts = LayerCounts { passes: PASSES as u64, ..LayerCounts::default() };
    let mut traced = 0;
    let (_, traced_tally) = closed::run_loop(
        PASSES,
        window,
        || {},
        |i| {
            let pass = i as u64;
            let root = tracer.open("pass", None, pass);
            let shards = runner.map(&setup.passes[i], |r| {
                let mut local = Tracer::new(epoch);
                let mut kernels = KernelTally::default();
                let span = local.open("sweep.shard", None, pass);
                let decoder = StreamingDecoder::new(setup.decoder.clone(), fs);
                let events =
                    setup.shard(r).run_traced(decoder, &mut local, Some(span), pass, &mut kernels);
                local.close(span);
                (local, kernels, ArrayOutcome { receiver: *r, events })
            });
            let mut outcomes = Vec::with_capacity(shards.len());
            for (local, kernels, outcome) in shards {
                tracer.merge(local, Some(root));
                counts.kernels.merge(kernels);
                outcomes.push(outcome);
            }
            let fused = tracer.span("fusion.vote", Some(root), pass, || fuse(&outcomes));
            tracer.close(root);
            counts.samples += setup.samples(i) as u64;
            traced += 1;
            if traced <= PASSES {
                for o in &outcomes {
                    counts.decodes.add(&o.events);
                }
                counts.fused_events += fused.len() as u64;
            }
            let timing = PassTiming::default();
            (timing, verdict_ok(&fused), digest(&outcomes, &fused))
        },
    );
    closed::check_traced(report, &tally, &traced_tally);
    closed::report_ledger(report, &tracer, &counts, &timings, THREADS);
    crate::write_spans(args, &tracer);
}
