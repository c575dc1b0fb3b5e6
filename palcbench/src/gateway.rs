//! `gateway`: the live serving path. A `DecodeServer` with one worker
//! decodes a few hundred persistent, re-arming sessions; one feeder
//! thread (this one) sends them 64-sample chunks on a fixed open-loop
//! schedule at a constant offered rate and polls for decoded packets.
//! The sessions replay impaired indoor and drive-by passes recorded at
//! set-up, so no channel simulation runs in the timed window.

use crate::drive_by::{car_pass, mild_stack, MILD};
use crate::loadgen::{backlog_grew, latency_ms, Schedule};
use crate::pipeline::DecodeTally;
use crate::report::{fnv1a, Report};
use crate::stats::{median, percentile};
use crate::{host, seed_for, Args};
use palc::impair::Dropout;
use palc::server::{DecodeServer, ServerConfig, SessionConfig, SessionEvent, SessionId};
use palc::stream::{DecodeEvent, PushDecoder};
use palc::sweep::TimedEvent;
use palc::vehicle::TwoPhaseDecoder;
use palc::{AdaptiveDecoder, Scenario, StreamingDecoder, StreamingTwoPhase};
use palc_phy::Packet;
use palc_scene::CarModel;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Recorded passes; every fourth is an indoor bench pass, the rest are
/// drive-bys. The two-phase decoder returns its packets about 100 µs
/// after their last chunk and the indoor decoder about 20 µs after, so a
/// fixed majority of drive-by packets keeps both latency percentiles
/// inside one of the two clusters whatever the seed.
const RECORDINGS: usize = 160;
/// Sessions replaying each recording. They receive identical streams and
/// differ only in their place in the send schedule.
const PER_RECORDING: usize = 4;
const SESSIONS: usize = RECORDINGS * PER_RECORDING;
/// Samples per chunk.
const CHUNK: usize = 64;
/// Offered load, samples per second: the worker is about half busy on
/// the reference 2-core host, so that the host's slow stretches (when it
/// decodes some 1.7x slower) do not build queues.
const OFFERED_SAMPLES_PER_S: f64 = 2.0e6;
/// How long the feeder keeps polling for packets after the last send.
const GRACE_S: f64 = 2.0;
/// Interval between backlog and worker-CPU readings.
const READ_EVERY_S: f64 = 0.05;
/// The server's worker thread name (see `palc::server`).
const WORKER: &str = "palc-server-worker";
/// Distinct cloudy skies the drive-by recordings are spread over.
const SKIES: u64 = 4;

/// A recorded pass and where its sessions start replaying it.
struct Recording {
    samples: Vec<f64>,
    fs: f64,
    indoor: bool,
    offset: usize,
}

impl Recording {
    /// Sample `j` of the looped replay.
    fn at(&self, j: usize) -> f64 {
        self.samples[(self.offset + j) % self.samples.len()]
    }

    fn decoder(&self) -> Box<dyn PushDecoder + Send> {
        if self.indoor {
            Box::new(StreamingDecoder::new(
                AdaptiveDecoder::default().with_expected_bits(2),
                self.fs,
            ))
        } else {
            Box::new(StreamingTwoPhase::new(
                TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2),
                self.fs,
            ))
        }
    }
}

fn record(seed: u64) -> Vec<Recording> {
    let indoor =
        Scenario::indoor_bench(Packet::from_bits("10").expect("valid payload"), 0.03, 0.20);
    let skies: Vec<Scenario> = (0..SKIES).map(|k| car_pass("00", seed_for(seed, 5, k))).collect();
    (0..RECORDINGS)
        .map(|r| {
            let s = seed_for(seed, 4, r as u64);
            let is_indoor = r % 4 == 0;
            let victim = if is_indoor { &indoor } else { &skies[r % SKIES as usize] };
            // The mild (0.25) dropout cell decodes nearly every recording,
            // so the mix of indoor and drive-by packets, which sets the
            // pass-time percentiles, barely moves with the seed.
            let stack = mild_stack(victim, Dropout::with_severity(MILD));
            let samples: Vec<f64> = stack.apply(s, victim.sampler(s)).collect();
            // Spread the recordings' packets over the schedule.
            let offset = (s % samples.len() as u64) as usize;
            let fs = victim.channel().frontend.sample_rate_hz();
            Recording { samples, fs, indoor: is_indoor, offset }
        })
        .collect()
}

/// A packet the bare-decoder reference decode emitted.
struct Expected {
    /// Index of the stream sample whose push emitted it.
    sample: usize,
    /// Index of the first sample of the recorded pass it came from.
    pass_start: usize,
    /// The packet's place in its recording: the same packet recurs once
    /// per replay cycle on every session of the recording.
    item: usize,
    /// Digest of the event, every field in exact decimal form.
    digest: u64,
}

/// A server, its sessions, and what each session must decode.
struct Rig {
    server: DecodeServer,
    ids: Vec<SessionId>,
    expected: Vec<Vec<Expected>>,
    items: usize,
    schedule: Schedule,
    window_chunks: usize,
    bare_ns_per_sample: f64,
    decodes: DecodeTally,
}

impl Rig {
    fn build(recs: &[Recording], window_s: f64) -> Rig {
        let schedule = Schedule::offering(OFFERED_SAMPLES_PER_S, CHUNK, SESSIONS);
        let window_chunks = schedule.chunks_in(window_s) / SESSIONS;
        let n = window_chunks * CHUNK;
        // The reference: every recording's stream through a bare decoder.
        let mut decodes = DecodeTally::default();
        let mut items = BTreeMap::new();
        let start = Instant::now();
        let expected: Vec<Vec<Expected>> = recs
            .iter()
            .enumerate()
            .map(|(r, rec)| {
                let len = rec.samples.len();
                let mut dec = rec.decoder();
                let mut out = Vec::new();
                let mut log = Vec::new();
                for j in 0..n {
                    let first = dec.push_sample(rec.at(j));
                    let time_s = (j + 1) as f64 / rec.fs;
                    for event in first.into_iter().chain(std::iter::from_fn(|| dec.poll_event())) {
                        if matches!(event, DecodeEvent::Packet(_)) {
                            let place = (rec.offset + j) % len;
                            let next = items.len();
                            let te = TimedEvent { time_s, event: event.clone() };
                            out.push(Expected {
                                sample: j,
                                pass_start: j.saturating_sub(place),
                                item: *items.entry((r, place)).or_insert(next),
                                digest: fnv1a(format!("{te:?}").as_bytes()),
                            });
                        }
                        log.push(TimedEvent { time_s, event });
                    }
                }
                decodes.add(&log);
                out
            })
            .collect();
        let bare_ns_per_sample = start.elapsed().as_nanos() as f64 / (n * recs.len()).max(1) as f64;
        let server = DecodeServer::new(ServerConfig::default().with_workers(1));
        let ids = (0..SESSIONS)
            .map(|s| {
                let rec = &recs[s % RECORDINGS];
                server.create_session(rec.decoder(), SessionConfig::new(rec.fs))
            })
            .collect();
        Rig {
            server,
            ids,
            expected,
            items: items.len(),
            schedule,
            window_chunks,
            bare_ns_per_sample,
            decodes,
        }
    }
}

/// What one run of a rig measured.
#[derive(Default)]
struct Window {
    /// Per packet item, its fastest latency over its repeats, ms.
    latency_ms: Vec<f64>,
    /// Per packet item, its fastest time from pass start to return, ms.
    pass_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    feed_us: Vec<f64>,
    poll_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Digest of every session's received packets.
    digest: u64,
    backlog: Vec<u64>,
    /// Samples decoded per worker CPU-second, per reading interval.
    rates: Vec<f64>,
    window_decoded: u64,
    window_cpu_ns: u64,
    window_s: f64,
    worker_threads: usize,
    stats_latency_p99_us: f64,
}

/// Per-session receive state.
struct Inbox {
    next: usize,
    awaiting: bool,
    /// Digest chain of the packets received, in order.
    got: u64,
}

fn run(rig: &Rig, recs: &[Recording], timed: bool, midpoint: &mut dyn FnMut()) -> Window {
    let sched = rig.schedule;
    let total = rig.window_chunks * SESSIONS;
    let mut w = Window {
        latency_ms: vec![f64::INFINITY; rig.items],
        pass_ms: vec![f64::INFINITY; rig.items],
        ..Window::default()
    };
    let mut inbox: Vec<Inbox> =
        (0..SESSIONS).map(|_| Inbox { next: 0, awaiting: false, got: 0 }).collect();
    let mut sent = vec![0usize; SESSIONS];
    let mut awaiting: VecDeque<usize> = VecDeque::new();
    let mut buf = [0f64; CHUNK];
    let mut rr = 0;
    let mut next_read = 0.0;
    let mut mid_done = false;
    let t0 = Instant::now();

    // Takes a session's pollable events and matches its packets against
    // the reference, in order, timing each.
    let poll = |s: usize, w: &mut Window, inbox: &mut [Inbox]| {
        let tp = Instant::now();
        let events = rig.server.poll_events(rig.ids[s]).expect("persistent session stays open");
        let returned = t0.elapsed().as_secs_f64();
        if timed {
            w.poll_us.push(tp.elapsed().as_nanos() as f64 / 1e3);
        }
        let expected = &rig.expected[s % RECORDINGS];
        for e in &events {
            let SessionEvent::Decode(te) = e else { continue };
            if !matches!(te.event, DecodeEvent::Packet(_)) {
                continue;
            }
            let digest = fnv1a(format!("{te:?}").as_bytes());
            let ib = &mut inbox[s];
            match expected.get(ib.next) {
                Some(x) => {
                    if x.digest != digest {
                        w.failed += 1;
                    }
                    let due = sched.due_of(s, x.sample / CHUNK);
                    let start = sched.due_of(s, x.pass_start / CHUNK);
                    w.latency_ms[x.item] =
                        w.latency_ms[x.item].min(latency_ms(due, Some(returned), 0.0));
                    w.pass_ms[x.item] =
                        w.pass_ms[x.item].min(latency_ms(start, Some(returned), 0.0));
                    ib.next += 1;
                }
                // A packet the reference never decoded.
                None => {
                    w.attempted += 1;
                    w.failed += 1;
                }
            }
            ib.got = fnv1a(&[ib.got.to_le_bytes(), digest.to_le_bytes()].concat());
        }
    };
    let due_pending = |s: usize, inbox: &[Inbox], sent: &[usize]| {
        rig.expected[s % RECORDINGS].get(inbox[s].next).is_some_and(|x| x.sample / CHUNK < sent[s])
    };
    let fill = |buf: &mut [f64; CHUNK], s: usize, j: usize| {
        let rec = &recs[s % RECORDINGS];
        for (k, x) in buf.iter_mut().enumerate() {
            *x = rec.at(j * CHUNK + k);
        }
    };

    let stats0 = rig.server.stats();
    let (cpu0, _) = host::thread_cpu_ns(WORKER);
    let mut last = (stats0.samples_decoded, cpu0);
    let mut g = 0;
    while g < total {
        let now = t0.elapsed().as_secs_f64();
        let due = sched.due_s(g);
        if now >= due {
            let (s, j) = sched.locate(g);
            fill(&mut buf, s, j);
            let tf = Instant::now();
            rig.server.feed_samples(rig.ids[s], &buf).expect("persistent session stays open");
            if timed {
                w.feed_us.push(tf.elapsed().as_nanos() as f64 / 1e3);
            }
            w.lag_ms.push((now - due) * 1e3);
            sent[s] = j + 1;
            if !inbox[s].awaiting && due_pending(s, &inbox, &sent) {
                inbox[s].awaiting = true;
                awaiting.push_back(s);
            }
            g += 1;
            continue;
        }
        if now >= next_read {
            let st = rig.server.stats();
            let (cpu, _) = host::thread_cpu_ns(WORKER);
            w.backlog.push(st.samples_ingested - st.samples_decoded);
            if cpu > last.1 {
                w.rates.push((st.samples_decoded - last.0) as f64 / ((cpu - last.1) as f64 * 1e-9));
            }
            last = (st.samples_decoded, cpu);
            next_read += READ_EVERY_S;
        }
        if !mid_done && g >= total / 2 {
            midpoint();
            mid_done = true;
        }
        // Sessions owed a packet are polled first; the rest round-robin so
        // their event queues stay drained.
        let s = awaiting.pop_front().unwrap_or_else(|| {
            rr = (rr + 1) % SESSIONS;
            rr
        });
        poll(s, &mut w, &mut inbox);
        inbox[s].awaiting = due_pending(s, &inbox, &sent);
        if inbox[s].awaiting && !awaiting.contains(&s) {
            awaiting.push_back(s);
        }
    }
    w.window_s = t0.elapsed().as_secs_f64();
    let stats1 = rig.server.stats();
    let (cpu1, _) = host::thread_cpu_ns(WORKER);
    w.window_decoded = stats1.samples_decoded - stats0.samples_decoded;
    w.window_cpu_ns = cpu1.saturating_sub(cpu0);

    // Grace: collect the packets still owed.
    let mut owed: VecDeque<usize> =
        (0..SESSIONS).filter(|&s| due_pending(s, &inbox, &sent)).collect();
    let grace_end = t0.elapsed().as_secs_f64() + GRACE_S;
    while let Some(s) = owed.pop_front() {
        if t0.elapsed().as_secs_f64() >= grace_end {
            break;
        }
        poll(s, &mut w, &mut inbox);
        if due_pending(s, &inbox, &sent) {
            owed.push_back(s);
        }
    }
    let gave_up = t0.elapsed().as_secs_f64();
    for (s, ib) in inbox.iter().enumerate() {
        let expected = &rig.expected[s % RECORDINGS];
        w.attempted += expected.len() as u64;
        // A packet still owed missed every latency limit, and so does
        // its item, however fast its other repeats were.
        for x in &expected[ib.next..] {
            w.failed += 1;
            w.latency_ms[x.item] = latency_ms(sched.due_of(s, x.sample / CHUNK), None, gave_up);
            w.pass_ms[x.item] = latency_ms(sched.due_of(s, x.pass_start / CHUNK), None, gave_up);
        }
    }
    w.worker_threads = host::thread_cpu_ns(WORKER).1;
    w.stats_latency_p99_us = rig.server.stats().latency.p99_us as f64;
    let chains: Vec<u64> = inbox.iter().map(|ib| ib.got).collect();
    w.digest = fnv1a(format!("{chains:?}").as_bytes());
    w
}

/// Checks common to every window.
fn check(report: &mut Report, w: &Window) {
    report.check(w.worker_threads == 1, || {
        format!("expected one server worker, found {}", w.worker_threads)
    });
    report.check(!backlog_grew(&w.backlog, (SESSIONS * CHUNK) as u64), || {
        format!("server backlog grew during the open-loop window: {:?}", w.backlog)
    });
    report.check(w.latency_ms.iter().all(|x| x.is_finite()), || {
        "a packet item was never timed".into()
    });
}

pub fn run_workload(args: &Args, report: &mut Report, midpoint: &mut dyn FnMut()) {
    if !args.trace {
        let build = || {
            let recs = record(args.seed);
            let rig = Rig::build(&recs, args.seconds);
            (recs, rig)
        };
        let ((recs, rig), first) = crate::timed(build);
        let w = run(&rig, &recs, false, midpoint);
        check(report, &w);
        report.attempted = w.attempted;
        report.failed = w.failed;
        report.metric_or_error("pass_ms_p10", percentile(&w.pass_ms, 0.1), "ms");
        report.metric_or_error("pass_ms_p90", percentile(&w.pass_ms, 0.9), "ms");
        report.metric_or_error("latency_ms_p50", percentile(&w.latency_ms, 0.5), "ms");
        report.metric_or_error("latency_ms_p90", percentile(&w.latency_ms, 0.9), "ms");
        // Capacity in the host's fast stretches: the 90th percentile over
        // the reading intervals, as the pass workloads take each pass's
        // fastest repeat.
        report.metric_or_error("capacity_samples_per_s", percentile(&w.rates, 0.9), "samples/s");
        eprintln!(
            "gateway: {} packet items, window capacity {:.4e} samples/s at {:.2} busy",
            rig.items,
            w.window_decoded as f64 / (w.window_cpu_ns as f64 * 1e-9),
            w.window_cpu_ns as f64 * 1e-9 / w.window_s
        );
        // Set-up is timed twice more after the window: rebuilding halfway
        // through it would stall the open-loop schedule.
        drop((recs, rig));
        let setup_s = [first, crate::timed(build).1, crate::timed(build).1];
        report.metric("setup_s", median(&setup_s), "s");
        return;
    }

    // Traced: an untraced window, then the same load with every feed and
    // poll call timed; both must receive the same packets.
    let recs = record(args.seed);
    let window = args.seconds / 2.0;
    let plain = run(&Rig::build(&recs, window), &recs, false, midpoint);
    let rig = Rig::build(&recs, window);
    let w = run(&rig, &recs, true, &mut || {});
    check(report, &plain);
    check(report, &w);
    report.check(plain.digest == w.digest, || "traced window decoded different packets".into());
    report.attempted = w.attempted;
    report.failed = w.failed;

    let worker_ns = w.window_cpu_ns as f64 / w.window_decoded.max(1) as f64;
    report.metric("stream.ns_per_sample", rig.bare_ns_per_sample, "ns");
    report.metric("stream.self_share", rig.bare_ns_per_sample / worker_ns, "ratio");
    crate::closed::report_decode_counts(report, &rig.decodes);
    report.metric_or_error("server.feed_us_p50", percentile(&w.feed_us, 0.5), "us");
    report.metric_or_error("server.feed_us_p99", percentile(&w.feed_us, 0.99), "us");
    report.metric_or_error("server.poll_us_p50", percentile(&w.poll_us, 0.5), "us");
    report.metric("server.worker_busy_share", w.window_cpu_ns as f64 * 1e-9 / w.window_s, "ratio");
    report.metric("server.worker_ns_per_sample", worker_ns, "ns");
    report.metric("server.overhead_ns_per_sample", worker_ns - rig.bare_ns_per_sample, "ns");
    report.metric(
        "server.backlog_samples",
        w.backlog.iter().copied().max().unwrap_or(0) as f64,
        "samples",
    );
    report.metric("server.stats_latency_p99_us", w.stats_latency_p99_us, "us");
    report.metric_or_error("loadgen.lag_ms_p99", percentile(&w.lag_ms, 0.99), "ms");
    // The feeder's ledger: its time inside the server's API against the
    // window; the rest is the load generator's own bookkeeping.
    let api_s = (w.feed_us.iter().sum::<f64>() + w.poll_us.iter().sum::<f64>()) * 1e-6;
    report.metric("trace.coverage", api_s / w.window_s, "ratio");
    match (percentile(&w.pass_ms, 0.1), percentile(&plain.pass_ms, 0.1)) {
        (Ok(t), Ok(u)) => report.metric("trace.overhead", t / u, "ratio"),
        (t, u) => report.errors.push(format!("trace.overhead: traced {t:?}, untraced {u:?}")),
    }
}
