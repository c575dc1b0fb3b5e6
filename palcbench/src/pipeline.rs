//! One receiver's pass through the pipeline, two ways.
//!
//! Untraced: the library's own composition — `sampler_at_pose` (static
//! field, tier tables and frontend built inside), the impairment stack
//! wrapped around it, and a push decoder drained sample by sample.
//!
//! Traced: the same pass re-run one layer at a time through the public
//! pieces the sampler composes, one span per call: static field, delta
//! field and kernel builds, every kernel tick, the frontend, the
//! impairment stack, then the decoder. Both ways must decode the same
//! events bit for bit.

use crate::report::fnv1a;
use crate::trace::Tracer;
use palc::channel::{FootprintKernel, PassiveChannel, ReceiverPose, StaticField};
use palc::decode::DecodeError;
use palc::stream::{DecodeEvent, PushDecoder};
use palc::sweep::TimedEvent;
use palc::ImpairmentStack;
use palc_frontend::Frontend;
use std::collections::BTreeMap;
use std::sync::Arc;

#[cfg(palc_delta_field)]
type Delta = palc::channel::DeltaField;
/// Without the incremental tier no delta field is ever built.
#[cfg(not(palc_delta_field))]
type Delta = std::convert::Infallible;

#[cfg(palc_delta_field)]
fn build_delta(ch: &PassiveChannel, field: Option<Arc<StaticField>>) -> Option<Delta> {
    field.and_then(|f| ch.delta_field(f))
}

#[cfg(not(palc_delta_field))]
fn build_delta(_: &PassiveChannel, _: Option<Arc<StaticField>>) -> Option<Delta> {
    None
}

#[cfg(palc_delta_field)]
fn delta_tick(delta: &mut Delta, ch: &PassiveChannel, t: f64) -> f64 {
    delta.illuminance(ch, t)
}

#[cfg(not(palc_delta_field))]
fn delta_tick(delta: &mut Delta, _: &PassiveChannel, _: f64) -> f64 {
    match *delta {}
}

/// One receiver's pass: where it sits, how long it samples, its noise
/// seed, and the impairments between its frontend and its decoder.
pub struct Shard<'a> {
    pub channel: &'a PassiveChannel,
    pub pose: ReceiverPose,
    pub duration_s: f64,
    pub seed: u64,
    pub stack: &'a ImpairmentStack,
}

impl Shard<'_> {
    fn fs(&self) -> f64 {
        self.channel.frontend.sample_rate_hz()
    }

    /// Samples this pass produces.
    pub fn samples(&self) -> usize {
        (self.duration_s * self.fs()).ceil() as usize
    }

    /// The live path: the library's sampler through the stack into
    /// `decoder`; `on_packet` runs the moment a packet is returned.
    pub fn run<D: PushDecoder>(&self, decoder: D, on_packet: impl FnMut()) -> Vec<TimedEvent> {
        let sampler = self.channel.sampler_at_pose(self.duration_s, self.seed, self.pose);
        drain_timed(self.stack.apply(self.seed, sampler), self.fs(), decoder, on_packet)
    }

    /// The layer-at-a-time path with one span per call, under `parent`.
    pub fn run_traced<D: PushDecoder>(
        &self,
        decoder: D,
        tracer: &mut Tracer,
        parent: Option<usize>,
        pass: u64,
        kernels: &mut KernelTally,
    ) -> Vec<TimedEvent> {
        let ch = self.channel;
        let fs = self.fs();
        let field = tracer.span("channel.static_field", parent, pass, || {
            ch.static_field_at(self.pose).map(Arc::new)
        });
        let mut delta =
            tracer.span("channel.delta_build", parent, pass, || build_delta(ch, field.clone()));
        let mut kernel = tracer.span("channel.kernel_build", parent, pass, || {
            field.clone().and_then(|f| ch.footprint_kernel(f))
        });
        kernels.add(kernel.as_ref());
        let n = self.samples();
        let lux: Vec<f64> = tracer.span("channel.tick", parent, pass, || {
            (0..n)
                .map(|i| {
                    let t = i as f64 / fs;
                    // The sampler's tier order: kernel, delta, staged, full.
                    match (&mut kernel, &mut delta, &field) {
                        (Some(k), _, _) => k.illuminance(ch, t),
                        (None, Some(d), _) => delta_tick(d, ch, t),
                        (None, None, Some(f)) => ch.illuminance_staged(f, t),
                        (None, None, None) => ch.illuminance_at_pose(self.pose, t),
                    }
                })
                .collect()
        });
        let codes: Vec<f64> = tracer.span("frontend.step", parent, pass, || {
            let mut fe = Frontend::new(ch.frontend.receiver.clone(), ch.frontend.adc, self.seed);
            fe.amplifier = ch.frontend.amplifier;
            let mut state = fe.streamer(ch.source.spectrum());
            lux.iter().map(|&x| state.step_f64(x)).collect()
        });
        let codes = if *self.stack == ImpairmentStack::clean() {
            codes
        } else {
            tracer.span("impair.apply", parent, pass, || self.stack.apply_slice(self.seed, &codes))
        };
        tracer.span("stream.decode", parent, pass, || {
            drain_timed(codes.into_iter(), fs, decoder, || {})
        })
    }
}

/// Feeds `samples` into `decoder`, stamping each event with the stream
/// time (samples pushed so far / `fs`) exactly as the library's array
/// shards and decode server do, then ends the stream.
fn drain_timed<D: PushDecoder>(
    samples: impl Iterator<Item = f64>,
    fs: f64,
    mut decoder: D,
    mut on_packet: impl FnMut(),
) -> Vec<TimedEvent> {
    let mut events = Vec::new();
    let mut pushed = 0usize;
    let mut record = |time_s: f64, event: DecodeEvent, events: &mut Vec<TimedEvent>| {
        if matches!(event, DecodeEvent::Packet(_)) {
            on_packet();
        }
        events.push(TimedEvent { time_s, event });
    };
    for x in samples {
        let first = decoder.push_sample(x);
        pushed += 1;
        let time_s = pushed as f64 / fs;
        if let Some(event) = first {
            record(time_s, event, &mut events);
        }
        while let Some(event) = decoder.poll_event() {
            record(time_s, event, &mut events);
        }
    }
    let time_s = pushed as f64 / fs;
    for event in decoder.finish_stream() {
        record(time_s, event, &mut events);
    }
    events
}

/// Digest of an event log: every field of every event, floats by their
/// exact decimal form, so equal digests mean byte-identical outputs.
pub fn digest(events: &[TimedEvent]) -> u64 {
    fnv1a(format!("{events:?}").as_bytes())
}

/// The payloads of the decoded packets, in order.
pub fn payloads(events: &[TimedEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match &e.event {
            DecodeEvent::Packet(p) => Some(p.payload.to_string()),
            _ => None,
        })
        .collect()
}

/// Decoder outcomes by kind: `packets` and each `DecodeError` kind.
#[derive(Debug, Default)]
pub struct DecodeTally(pub BTreeMap<&'static str, u64>);

impl DecodeTally {
    /// Adds one event log.
    pub fn add(&mut self, events: &[TimedEvent]) {
        for e in events {
            let kind = match &e.event {
                DecodeEvent::Packet(_) => "packets",
                DecodeEvent::Reject(DecodeError::NoPreamble { .. }) => "rejects.no_preamble",
                DecodeEvent::Reject(DecodeError::BadPreamble { .. }) => "rejects.bad_preamble",
                DecodeEvent::Reject(DecodeError::Manchester(_)) => "rejects.manchester",
                _ => continue,
            };
            *self.0.entry(kind).or_insert(0) += 1;
        }
    }

    /// Count of one kind.
    pub fn get(&self, kind: &str) -> u64 {
        self.0.get(kind).copied().unwrap_or(0)
    }
}

/// Build statistics of the kernels the traced run built.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTally {
    pub kernels: u64,
    pub tables_built: u64,
    pub tables_interned: u64,
    pub table_bytes: u64,
}

impl KernelTally {
    fn add(&mut self, kernel: Option<&FootprintKernel>) {
        if let Some(k) = kernel {
            let s = k.stats();
            self.kernels += 1;
            self.tables_built += s.tables_built as u64;
            self.tables_interned += s.tables_interned as u64;
            self.table_bytes += s.table_bytes as u64;
        }
    }

    /// Adds another tally (from a shard thread).
    pub fn merge(&mut self, other: KernelTally) {
        self.kernels += other.kernels;
        self.tables_built += other.tables_built;
        self.tables_interned += other.tables_interned;
        self.table_bytes += other.table_bytes;
    }

    /// Mean per kernel of one statistic.
    pub fn per_kernel(&self, total: u64) -> f64 {
        total as f64 / self.kernels.max(1) as f64
    }
}
