//! `drive_by`: the paper's headline case (Sec. 5). A Volvo V40 with a
//! roof tag passes an RX-LED receiver at 18 km/h under a cloudy sun,
//! sampled at 2 kS/s; each pass goes through the mild impairment stack
//! into a live two-phase decoder. A closed loop on one thread.

use crate::closed::{self, LayerCounts, PassTiming};
use crate::pipeline::{self, Shard};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{seed_for, Args};
use palc::impair::{Impairment, Jitter};
use palc::stream::StreamingTwoPhase;
use palc::vehicle::TwoPhaseDecoder;
use palc::{ImpairmentStack, Scenario};
use palc_optics::Sun;
use palc_phy::Packet;
use palc_scene::CarModel;
use std::time::Instant;

/// Passes in the seeded list the loop cycles through.
const PASSES: usize = 128;
/// Distinct cloudy skies the passes are spread over.
const SKIES: usize = 4;
/// The impairment severity the conformance harness calls mild.
pub const MILD: f64 = 0.25;
/// The payload every pass carries.
const PAYLOAD: &str = "00";

/// A drive-by under the cloudy sky drawn from `sky_seed`.
pub fn car_pass(packet: &str, sky_seed: u64) -> Scenario {
    Scenario::outdoor_car(
        CarModel::volvo_v40(),
        Some(Packet::from_bits(packet).expect("valid payload")),
        0.75,
        Sun::cloudy_noon(sky_seed),
    )
}

/// One of the conformance harness's impairment cells, clamped to the
/// ADC's code range.
pub fn mild_stack(victim: &Scenario, layer: impl Into<Impairment>) -> ImpairmentStack {
    let max_code = f64::from(victim.channel().frontend.adc.max_code());
    ImpairmentStack::clean().with(layer).with_rails(0.0, max_code)
}

/// Samples per symbol of a drive-by: 10 cm symbols at 18 km/h, 2 kS/s.
const CAR_SAMPLES_PER_SYMBOL: f64 = 2000.0 * 0.10 / 5.0;

struct Pass {
    sky: usize,
    seed: u64,
}

struct Setup {
    skies: Vec<(Scenario, ImpairmentStack)>,
    passes: Vec<Pass>,
    decoder: TwoPhaseDecoder,
}

fn build(seed: u64) -> Setup {
    let skies = (0..SKIES)
        .map(|s| {
            let victim = car_pass(PAYLOAD, seed_for(seed, 1, s as u64));
            // The mild (0.25) jitter cell: on the noisy RSS stream it fails
            // about a fifth of the passes (18 to 29 of 128 over six seeds),
            // clear of the 10 % that `latency_ms_p90` sits on; the dropout
            // cell fails 10 to 24, on both sides of it.
            let stack = mild_stack(&victim, Jitter::with_severity(MILD, CAR_SAMPLES_PER_SYMBOL));
            (victim, stack)
        })
        .collect();
    let passes =
        (0..PASSES).map(|i| Pass { sky: i % SKIES, seed: seed_for(seed, 2, i as u64) }).collect();
    Setup { skies, passes, decoder: TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2) }
}

impl Setup {
    fn shard(&self, i: usize) -> Shard<'_> {
        let pass = &self.passes[i];
        let (scenario, stack) = &self.skies[pass.sky];
        let channel = scenario.channel();
        Shard {
            channel,
            pose: channel.pose(),
            duration_s: scenario.duration_s(),
            seed: pass.seed,
            stack,
        }
    }

    fn decoder(&self, shard: &Shard<'_>) -> StreamingTwoPhase {
        StreamingTwoPhase::new(self.decoder.clone(), shard.channel.frontend.sample_rate_hz())
    }
}

fn delivered(events: &[palc::sweep::TimedEvent]) -> bool {
    pipeline::payloads(events).iter().any(|p| p == PAYLOAD)
}

pub fn run(args: &Args, report: &mut Report, midpoint: &mut dyn FnMut()) {
    let (setup, first) = crate::timed(|| build(args.seed));
    // Set-up is timed again halfway through the window and after it.
    let mut setup_s = vec![first];
    let window = if args.trace { args.seconds / 2.0 } else { args.seconds };

    let (timings, tally) = closed::run_loop(
        PASSES,
        window,
        || {
            midpoint();
            setup_s.push(crate::timed(|| build(args.seed)).1);
        },
        |i| {
            let shard = setup.shard(i);
            let start = Instant::now();
            let mut packet_at = None;
            let events = shard.run(setup.decoder(&shard), || {
                packet_at.get_or_insert_with(Instant::now);
            });
            let end = Instant::now();
            let ok = delivered(&events);
            let returned = if ok { packet_at.unwrap_or(end) } else { end };
            let timing = PassTiming {
                item: i,
                wall_ms: (end - start).as_secs_f64() * 1e3,
                latency_ms: (returned - start).as_secs_f64() * 1e3,
                samples: shard.samples(),
            };
            (timing, ok, pipeline::digest(&events))
        },
    );
    closed::report_tally(report, &tally);

    if !args.trace {
        setup_s.push(crate::timed(|| build(args.seed)).1);
        report.metric("setup_s", median(&setup_s), "s");
        closed::report_e2e(report, &timings, PASSES, 1);
        return;
    }

    let mut tracer = Tracer::new(Instant::now());
    let mut counts = LayerCounts { passes: PASSES as u64, ..LayerCounts::default() };
    let mut traced = 0;
    let (_, traced_tally) = closed::run_loop(
        PASSES,
        window,
        || {},
        |i| {
            let shard = setup.shard(i);
            let root = tracer.open("pass", None, i as u64);
            let events = shard.run_traced(
                setup.decoder(&shard),
                &mut tracer,
                Some(root),
                i as u64,
                &mut counts.kernels,
            );
            tracer.close(root);
            counts.samples += shard.samples() as u64;
            counts.impaired_samples += shard.samples() as u64;
            traced += 1;
            if traced <= PASSES {
                counts.decodes.add(&events);
            }
            (PassTiming::default(), delivered(&events), pipeline::digest(&events))
        },
    );
    closed::check_traced(report, &tally, &traced_tally);
    closed::report_ledger(report, &tracer, &counts, &timings, 1);
    crate::write_spans(args, &tracer);
}
