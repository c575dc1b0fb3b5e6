//! Fault-tolerant multi-session decode server.
//!
//! The ROADMAP's end state is "heavy traffic from millions of users":
//! many tags decoded by many receivers, continuously. The push decoders
//! ([`crate::stream`]) are O(1)-memory state machines and the fusion
//! stream ([`crate::fusion::FusionStream`]) is online, so the missing
//! piece is a *session layer* — something that multiplexes thousands of
//! independent receiver streams over a bounded worker pool without one
//! bad stream taking the rest down. [`DecodeServer`] is that layer:
//!
//! * **Sessions** ([`DecodeServer::create_session`]): each session owns
//!   a private [`PushDecoder`] and an ingress queue. Producers call
//!   [`DecodeServer::feed_samples`]; consumers call
//!   [`DecodeServer::poll_events`] for timestamped decode events (the
//!   same [`TimedEvent`]s [`crate::channel::Scenario::run_streaming`]
//!   produces — a single-session server replays it byte-identically).
//! * **Supervised worker pool**: a fixed set of threads (the
//!   [`crate::sweep::SweepRunner`] worker shape — plain `std::thread`,
//!   no async runtime; the blocking API is deliberately small so an
//!   async transport can be bolted on later) services ready sessions
//!   round-robin. A worker that dies outside the panic fence is
//!   respawned, so the pool never quietly shrinks to zero.
//! * **Panic isolation**: every decoder call runs under
//!   [`std::panic::catch_unwind`]. A session whose decoder unwinds is
//!   *quarantined* — its decoder is dropped, its queue cleared, and its
//!   event stream ends with [`SessionEvent::SessionFault`] — while every
//!   sibling session keeps decoding. (Contrast the batch sweep, where
//!   one worker panic cancels the whole run.)
//! * **Bounded queues + explicit backpressure**: each ingress queue has
//!   a hard capacity and a [`BackpressurePolicy`] — [`Block`] makes
//!   `feed_samples` wait for room (lossless), [`ShedOldest`] drops the
//!   oldest queued samples, counts them, and surfaces
//!   [`SessionEvent::Overloaded`] so a slow consumer degrades visibly
//!   instead of growing unbounded.
//! * **Stale-session reaping**: sessions idle past
//!   [`ServerConfig::idle_deadline`] are flushed and closed with
//!   [`SessionEvent::Reaped`] — the session-layer mirror of the
//!   decoders' stale-lock recovery.
//! * **Fusion routing**: sessions created with a [`GroupId`] have every
//!   decoded packet forwarded as a [`Detection`] into that group's
//!   online [`FusionStream`]; [`DecodeServer::poll_fused`] returns the
//!   fused verdicts. A packet reaches its group before the samples that
//!   carried it count as decoded, so once `close_and_drain` returns for
//!   every member, [`DecodeServer::flush_group`] sees all their votes.
//!
//! [`Block`]: BackpressurePolicy::Block
//! [`ShedOldest`]: BackpressurePolicy::ShedOldest
//!
//! ```
//! use palc::decode::AdaptiveDecoder;
//! use palc::server::{DecodeServer, ServerConfig, SessionConfig};
//! use palc::stream::StreamingDecoder;
//! use palc::channel::Scenario;
//! use palc_phy::Packet;
//!
//! let scenario = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
//! let fs = scenario.channel().frontend.sample_rate_hz();
//! let server = DecodeServer::new(ServerConfig::default());
//! let decoder = AdaptiveDecoder::default().with_expected_bits(2);
//! let id = server.create_session(
//!     StreamingDecoder::new(decoder, fs),
//!     SessionConfig::new(fs),
//! );
//! for chunk in scenario.run(7).samples().chunks(256) {
//!     server.feed_samples(id, chunk).unwrap();
//! }
//! let events = server.close_and_drain(id).unwrap();
//! assert!(events.iter().any(|e| e.packet().is_some_and(|p| p.payload.to_string() == "10")));
//! ```

use crate::decode::DecodedPacket;
use crate::fusion::{Detection, FusedEvent, FusionCenter, FusionStream};
use crate::stream::{DecodeEvent, PushDecoder};
use crate::sweep::TimedEvent;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
// palc_lint: allow(determinism) -- Instant is confined to SystemClock below; everything else reads time through the Clock trait
use std::time::{Duration, Instant};

/// Locks poison-tolerantly: a panic while a previous holder had the
/// guard leaves plain-old-data state that is still internally
/// consistent (every critical section here either fully commits a queue
/// operation or is a read), so the right response to poison is to keep
/// serving sibling sessions, not to cascade the panic through every
/// thread that touches the lock. The decoder itself is never behind a
/// shared lock while it can unwind — it is checked *out* of the session
/// before being driven, so a mid-decode panic cannot publish a
/// half-updated decoder.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Time source for the server's idle/reap and latency bookkeeping.
///
/// The server never reads the wall clock directly: every timestamp is a
/// [`Duration`] since the clock's epoch, obtained through this trait.
/// Production uses [`SystemClock`]; tests drive a [`MockClock`] so
/// stale-session reaping is exercised deterministically, without
/// wall-clock sleeps.
pub trait Clock: Send + Sync {
    /// Monotonic time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
}

/// The default wall clock: a monotonic [`Instant`] anchored when the
/// clock is created.
#[derive(Debug)]
pub struct SystemClock {
    // palc_lint: allow(determinism) -- this is the one sanctioned wall-clock read; everything else goes through Clock
    epoch: Instant,
}

impl SystemClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        // palc_lint: allow(determinism) -- anchoring the sanctioned wall clock
        SystemClock { epoch: Instant::now() }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A manually-advanced clock for deterministic tests: time moves only
/// when [`MockClock::advance`] is called. Clones share the same time.
#[derive(Debug, Clone, Default)]
pub struct MockClock(Arc<AtomicU64>);

impl MockClock {
    /// A mock clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::SeqCst))
    }
}

/// Handle to one receiver session on a [`DecodeServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

/// Handle to one fusion group on a [`DecodeServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(u64);

/// What [`DecodeServer::feed_samples`] does when a session's ingress
/// queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the worker pool drains room. Lossless:
    /// every accepted sample is decoded.
    #[default]
    Block,
    /// Drop the *oldest* queued samples to make room, count them
    /// ([`FeedReport::shed`], [`ServerStats::samples_shed`]) and surface
    /// an [`SessionEvent::Overloaded`] marker in the event stream. The
    /// producer never blocks; a slow consumer loses the stalest signal
    /// first.
    ShedOldest,
}

/// Per-session configuration for [`DecodeServer::create_session`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// ADC rate of this session's sample stream, Hz — the time base for
    /// every emitted [`TimedEvent`] (stream time = samples pushed / fs,
    /// exactly like [`crate::channel::Scenario::run_streaming`]).
    pub sample_rate_hz: f64,
    /// Ingress queue capacity, samples. Feeds beyond it invoke the
    /// [`BackpressurePolicy`].
    pub queue_capacity: usize,
    /// What to do when the ingress queue is full.
    pub policy: BackpressurePolicy,
    /// Route this session's decoded packets into a fusion group
    /// (created with [`DecodeServer::create_group`]) as [`Detection`]s.
    pub group: Option<GroupId>,
    /// Receiver identity stamped onto fused [`Detection`]s. Defaults to
    /// the low bits of the session id when `None`.
    pub receiver_id: Option<u32>,
}

impl SessionConfig {
    /// A default session at `sample_rate_hz`: 8192-sample queue,
    /// blocking backpressure, no fusion routing.
    pub fn new(sample_rate_hz: f64) -> Self {
        SessionConfig {
            sample_rate_hz,
            queue_capacity: 8192,
            policy: BackpressurePolicy::Block,
            group: None,
            receiver_id: None,
        }
    }

    /// Sets the ingress queue capacity in samples (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, samples: usize) -> Self {
        self.queue_capacity = samples.max(1);
        self
    }

    /// Sets the backpressure policy.
    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Routes decoded packets into `group`, voting as `receiver_id`.
    pub fn with_group(mut self, group: GroupId, receiver_id: u32) -> Self {
        self.group = Some(group);
        self.receiver_id = Some(receiver_id);
        self
    }
}

/// Server-wide configuration for [`DecodeServer::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Worker threads. `0` (the default) sizes the pool to the machine
    /// like [`crate::sweep::SweepRunner::new`], but never below 2 so
    /// one wedged session cannot starve the pool on a 1-core host.
    pub workers: usize,
    /// Reap sessions idle (no feed, empty queue) for at least this
    /// long: they are flushed and closed with [`SessionEvent::Reaped`].
    /// `None` (the default) disables reaping.
    pub idle_deadline: Option<Duration>,
}

impl ServerConfig {
    /// Sets the worker-thread count (0 = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables stale-session reaping at `deadline`.
    pub fn with_idle_deadline(mut self, deadline: Duration) -> Self {
        self.idle_deadline = Some(deadline);
        self
    }
}

/// One observable step of a session's life, in emission order.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// A decoder event, stamped with the session's stream time — the
    /// same values [`crate::channel::Scenario::run_streaming`] logs.
    Decode(TimedEvent),
    /// The [`BackpressurePolicy::ShedOldest`] policy dropped queued
    /// samples. Consecutive shed episodes coalesce into one marker (the
    /// count accumulates), so a never-polled session's event queue stays
    /// bounded by its signal content, not by the overload's duration.
    Overloaded {
        /// Samples dropped since the last poll observed this marker.
        shed_samples: u64,
    },
    /// The session's decoder panicked and the session was quarantined.
    /// Always the final event of a faulted session; sibling sessions
    /// are unaffected.
    SessionFault {
        /// Stream time of the fault (samples decoded so far / fs).
        time_s: f64,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The session sat idle past [`ServerConfig::idle_deadline`] and
    /// was flushed; a [`SessionEvent::Closed`] follows.
    Reaped {
        /// How long the session had been idle when the reaper ran.
        idle_s: f64,
    },
    /// The session ended cleanly (explicit [`DecodeServer::close`] or
    /// reaping): the decoder's end-of-stream events precede this.
    /// Always the final event of a non-faulted session.
    Closed {
        /// Stream time at close (total samples decoded / fs).
        time_s: f64,
    },
}

impl SessionEvent {
    /// The decoded packet, when this is a packet event.
    pub fn packet(&self) -> Option<&DecodedPacket> {
        match self {
            SessionEvent::Decode(TimedEvent { event: DecodeEvent::Packet(p), .. }) => Some(p),
            _ => None,
        }
    }

    /// Whether this event terminates the session's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(self, SessionEvent::SessionFault { .. } | SessionEvent::Closed { .. })
    }
}

/// Why a [`DecodeServer`] call could not touch a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// No such session: never created, or already terminal and fully
    /// drained (terminal sessions are removed once their last event is
    /// polled).
    UnknownSession,
    /// The session is closing or closed; it accepts no more samples.
    Closed,
    /// The session was quarantined after a decoder panic; it accepts no
    /// more samples. Its final events (ending in
    /// [`SessionEvent::SessionFault`]) are still pollable.
    Faulted,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession => write!(f, "unknown session"),
            SessionError::Closed => write!(f, "session closed"),
            SessionError::Faulted => write!(f, "session quarantined after decoder fault"),
        }
    }
}

impl std::error::Error for SessionError {}

/// External view of a session's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Accepting samples.
    Active,
    /// Close requested (or reap pending); draining queued samples.
    Draining,
    /// Quarantined after a decoder panic.
    Faulted,
    /// Cleanly closed; events may still be pollable.
    Closed,
}

/// What one [`DecodeServer::feed_samples`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedReport {
    /// Samples accepted into the queue (always the full slice for
    /// [`BackpressurePolicy::Block`]).
    pub accepted: u64,
    /// Older queued samples shed to make room
    /// ([`BackpressurePolicy::ShedOldest`] only).
    pub shed: u64,
}

/// A snapshot of server-wide counters ([`DecodeServer::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Sessions that ended cleanly (close or reap).
    pub sessions_closed: u64,
    /// Sessions quarantined after a decoder panic.
    pub sessions_faulted: u64,
    /// Sessions reaped for idling past the deadline (also counted in
    /// `sessions_closed`).
    pub sessions_reaped: u64,
    /// Worker threads respawned by the supervisor after an unexpected
    /// death outside the per-session panic fence.
    pub workers_respawned: u64,
    /// Samples accepted across all sessions.
    pub samples_ingested: u64,
    /// Samples actually pushed through decoders.
    pub samples_decoded: u64,
    /// Samples shed by [`BackpressurePolicy::ShedOldest`] queues.
    pub samples_shed: u64,
    /// Decode events emitted across all sessions.
    pub events_emitted: u64,
    /// Decoded packets among those events.
    pub packets_emitted: u64,
    /// Feed-to-visibility latency distribution: for every
    /// [`DecodeServer::feed_samples`] call, the delay until every event
    /// its samples produced became pollable.
    pub latency: LatencyStats,
}

/// Percentiles of the feed-to-visibility latency histogram. Values are
/// upper bounds of power-of-two microsecond buckets (a ≤ 2× resolution,
/// plenty for a p99 trend line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Feed calls measured.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Largest observed bucket, microseconds.
    pub max_us: u64,
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// Samples a worker decodes per scheduling turn. Small enough that a
/// thousand ready sessions round-robin with bounded per-turn latency,
/// large enough that the scheduling overhead per sample is noise.
const BATCH_SAMPLES: usize = 1024;

/// Internal lifecycle state. `Reaping` carries the observed idle time
/// so the flush can report it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Active,
    Draining,
    Reaping { idle_s: f64 },
    Faulted,
    Closed,
}

impl Status {
    fn is_terminal(self) -> bool {
        matches!(self, Status::Faulted | Status::Closed)
    }

    fn is_draining(self) -> bool {
        matches!(self, Status::Draining | Status::Reaping { .. })
    }
}

/// Everything mutable about one session, behind its mutex.
struct SessionCore {
    /// The decoder, present unless checked out by a worker (`running`)
    /// or the session is terminal.
    decoder: Option<Box<dyn PushDecoder + Send>>,
    ingress: VecDeque<f64>,
    outbox: VecDeque<SessionEvent>,
    status: Status,
    /// Samples pushed through the decoder so far (the time base).
    pushed: u64,
    /// Samples accepted by `feed_samples` so far.
    ingested: u64,
    /// Samples shed so far ([`BackpressurePolicy::ShedOldest`]).
    shed: u64,
    /// Session is queued in the ready list (dedup guard).
    scheduled: bool,
    /// A worker currently holds the decoder.
    running: bool,
    /// Feed watermarks for the latency histogram: `(ingested_mark,
    /// enqueue_time)`; resolved when decode progress passes the mark.
    /// Times are [`Clock`] readings (durations since the clock epoch).
    feed_marks: VecDeque<(u64, Duration)>,
    last_activity: Duration,
}

struct Session {
    id: u64,
    cfg: SessionConfig,
    state: Mutex<SessionCore>,
    /// Signalled on queue drain, terminal transitions, and worker
    /// check-in — wakes blocked feeders and `close_and_drain`.
    cv: Condvar,
}

struct Group {
    stream: Mutex<FusionStream>,
    outbox: Mutex<Vec<FusedEvent>>,
}

#[derive(Default)]
struct Counters {
    sessions_created: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_faulted: AtomicU64,
    sessions_reaped: AtomicU64,
    workers_respawned: AtomicU64,
    samples_ingested: AtomicU64,
    samples_decoded: AtomicU64,
    samples_shed: AtomicU64,
    events_emitted: AtomicU64,
    packets_emitted: AtomicU64,
}

/// Power-of-two microsecond histogram (lock-free).
struct Histogram {
    buckets: [AtomicU64; 40],
}

impl Histogram {
    fn new() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn record(&self, d: Duration) {
        let us = d.as_micros() as u64;
        let b = (64 - us.leading_zeros() as usize).min(39);
        // invariant: b is clamped to ..=39 and buckets has 40 entries.
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyStats {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return LatencyStats::default();
        }
        // Bucket b holds latencies in [2^(b-1), 2^b) µs; report the
        // upper bound.
        let upper = |b: usize| if b == 0 { 0 } else { 1u64 << b };
        let percentile = |p: f64| {
            let target = (p * total as f64).ceil() as u64;
            let mut seen = 0u64;
            for (b, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return upper(b);
                }
            }
            upper(39)
        };
        let max_b = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        LatencyStats {
            count: total,
            p50_us: percentile(0.50),
            p99_us: percentile(0.99),
            max_us: upper(max_b),
        }
    }
}

struct Inner {
    workers: usize,
    idle_deadline: Option<Duration>,
    /// How long an idle worker sleeps before re-checking the ready list
    /// and running a reap scan.
    tick: Duration,
    shutdown: std::sync::atomic::AtomicBool,
    /// Ordered maps so every registry iteration (reap scans, Debug,
    /// draining) visits sessions in id order — no run-to-run scramble.
    sessions: Mutex<BTreeMap<u64, Arc<Session>>>,
    groups: Mutex<BTreeMap<u64, Arc<Group>>>,
    clock: Arc<dyn Clock>,
    ready: Mutex<VecDeque<u64>>,
    ready_cv: Condvar,
    next_session: AtomicU64,
    next_group: AtomicU64,
    /// Respawn budget for the worker supervisor — a backstop against a
    /// respawn storm if a scheduler bug ever panicked outside the
    /// per-session fence.
    respawns_left: AtomicUsize,
    stats: Counters,
    latency: Histogram,
}

/// The multi-session decode server. See the [module docs](self).
///
/// Dropping the server shuts the pool down: workers finish their
/// current batch and exit; undrained sessions are discarded.
pub struct DecodeServer {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DecodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeServer")
            .field("workers", &self.inner.workers)
            .field("sessions", &lock_recover(&self.inner.sessions).len())
            .finish()
    }
}

/// Re-spawns a replacement worker if the running one unwinds outside
/// the per-session panic fence (a scheduler bug, not a decoder fault) —
/// the pool must never quietly shrink. Budgeted by
/// [`Inner::respawns_left`] so a deterministic crash loop cannot spawn
/// threads forever.
struct RespawnGuard {
    inner: Arc<Inner>,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() || self.inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let budget = &self.inner.respawns_left;
        if budget.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok() {
            self.inner.stats.workers_respawned.fetch_add(1, Ordering::Relaxed);
            let inner = self.inner.clone();
            // The replacement is detached: it exits on shutdown like
            // its siblings; `DecodeServer::drop` only joins the
            // original handles.
            let _ = std::thread::Builder::new()
                .name("palc-server-worker".into())
                .spawn(move || worker_loop(inner));
        }
    }
}

impl DecodeServer {
    /// Starts a server with `config`'s worker pool on the wall clock.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Starts a server reading time from `clock` — the deterministic
    /// entry point: tests pass a [`MockClock`] and advance it manually
    /// instead of sleeping past [`ServerConfig::idle_deadline`].
    pub fn with_clock(config: ServerConfig, clock: Arc<dyn Clock>) -> Self {
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2)
        };
        // Idle workers wake at least 4× per deadline so a stale session
        // overshoots its deadline by at most ~25%.
        let tick = config
            .idle_deadline
            .map(|d| (d / 4).clamp(Duration::from_millis(5), Duration::from_millis(200)))
            .unwrap_or(Duration::from_millis(100));
        let inner = Arc::new(Inner {
            workers,
            idle_deadline: config.idle_deadline,
            tick,
            shutdown: std::sync::atomic::AtomicBool::new(false),
            sessions: Mutex::new(BTreeMap::new()),
            groups: Mutex::new(BTreeMap::new()),
            clock,
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            next_session: AtomicU64::new(0),
            next_group: AtomicU64::new(0),
            respawns_left: AtomicUsize::new(workers * 4),
            stats: Counters::default(),
            latency: Histogram::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name("palc-server-worker".into())
                    .spawn(move || worker_loop(inner))
                    // invariant: construction-time failure, before any
                    // session exists — the panic propagates straight to
                    // the constructing caller, no sibling session or
                    // worker can be cascaded into. The runtime respawn
                    // path (RespawnGuard) tolerates spawn failure.
                    .expect("spawning a server worker thread")
            })
            .collect();
        DecodeServer { inner, handles }
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.inner.workers
    }

    /// Sessions currently registered (active, draining, or terminal but
    /// not yet drained).
    pub fn session_count(&self) -> usize {
        lock_recover(&self.inner.sessions).len()
    }

    /// Snapshot of the server-wide counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.inner.stats;
        ServerStats {
            sessions_created: c.sessions_created.load(Ordering::Relaxed),
            sessions_closed: c.sessions_closed.load(Ordering::Relaxed),
            sessions_faulted: c.sessions_faulted.load(Ordering::Relaxed),
            sessions_reaped: c.sessions_reaped.load(Ordering::Relaxed),
            workers_respawned: c.workers_respawned.load(Ordering::Relaxed),
            samples_ingested: c.samples_ingested.load(Ordering::Relaxed),
            samples_decoded: c.samples_decoded.load(Ordering::Relaxed),
            samples_shed: c.samples_shed.load(Ordering::Relaxed),
            events_emitted: c.events_emitted.load(Ordering::Relaxed),
            packets_emitted: c.packets_emitted.load(Ordering::Relaxed),
            latency: self.inner.latency.snapshot(),
        }
    }

    /// Registers a new session around `decoder`.
    pub fn create_session(
        &self,
        decoder: impl PushDecoder + Send + 'static,
        cfg: SessionConfig,
    ) -> SessionId {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session {
            id,
            cfg,
            state: Mutex::new(SessionCore {
                decoder: Some(Box::new(decoder)),
                ingress: VecDeque::new(),
                outbox: VecDeque::new(),
                status: Status::Active,
                pushed: 0,
                ingested: 0,
                shed: 0,
                scheduled: false,
                running: false,
                feed_marks: VecDeque::new(),
                last_activity: self.inner.clock.now(),
            }),
            cv: Condvar::new(),
        });
        lock_recover(&self.inner.sessions).insert(id, session);
        self.inner.stats.sessions_created.fetch_add(1, Ordering::Relaxed);
        SessionId(id)
    }

    /// Creates a fusion group: sessions configured with
    /// [`SessionConfig::with_group`] route decoded packets here as
    /// [`Detection`]s, and [`DecodeServer::poll_fused`] returns the
    /// fused events.
    ///
    /// Detections reach the group in cross-session *arrival* order, so
    /// `center.window_s` must cover the sessions' relative stagger —
    /// the same hard requirement as
    /// [`Scenario::run_array_streaming_on`](crate::channel::Scenario::run_array_streaming_on).
    pub fn create_group(&self, center: FusionCenter) -> GroupId {
        let id = self.inner.next_group.fetch_add(1, Ordering::Relaxed);
        let group = Arc::new(Group {
            stream: Mutex::new(FusionStream::new(center)),
            outbox: Mutex::new(Vec::new()),
        });
        lock_recover(&self.inner.groups).insert(id, group);
        GroupId(id)
    }

    /// Feeds samples into a session's ingress queue, applying its
    /// [`BackpressurePolicy`] when the queue is full.
    pub fn feed_samples(&self, id: SessionId, samples: &[f64]) -> Result<FeedReport, SessionError> {
        let session = self.session(id)?;
        let mut report = FeedReport::default();
        let mut offset = 0usize;
        let mut st = lock_recover(&session.state);
        while offset < samples.len() {
            match st.status {
                Status::Active => {}
                Status::Faulted => return Err(SessionError::Faulted),
                _ => return Err(SessionError::Closed),
            }
            let cap = session.cfg.queue_capacity;
            let room = cap.saturating_sub(st.ingress.len());
            if room == 0 {
                match session.cfg.policy {
                    BackpressurePolicy::Block => {
                        // A feed larger than the queue fills it before
                        // the end-of-feed scheduling below runs — make
                        // sure a worker is coming to drain before we
                        // sleep, or nobody ever wakes us.
                        if !st.scheduled && !st.running {
                            st.scheduled = true;
                            drop(st);
                            self.enqueue_ready(session.id);
                            st = lock_recover(&session.state);
                            continue;
                        }
                        st = session.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                        continue;
                    }
                    BackpressurePolicy::ShedOldest => {
                        // Make room for this entire feed (bounded by the
                        // queue capacity) by dropping the stalest
                        // samples first.
                        let need = (samples.len() - offset).min(cap);
                        let mut dropped = 0u64;
                        for _ in 0..need {
                            if st.ingress.pop_front().is_none() {
                                break;
                            }
                            dropped += 1;
                        }
                        st.shed += dropped;
                        report.shed += dropped;
                        self.inner.stats.samples_shed.fetch_add(dropped, Ordering::Relaxed);
                        // Coalesce with a trailing Overloaded marker so
                        // sustained overload cannot grow the outbox.
                        match st.outbox.back_mut() {
                            Some(SessionEvent::Overloaded { shed_samples }) => {
                                *shed_samples += dropped
                            }
                            _ => st
                                .outbox
                                .push_back(SessionEvent::Overloaded { shed_samples: dropped }),
                        }
                        continue;
                    }
                }
            }
            let take = room.min(samples.len() - offset);
            // invariant: take = room.min(samples.len() - offset), so
            // offset + take <= samples.len().
            st.ingress.extend(samples[offset..offset + take].iter().copied());
            offset += take;
            report.accepted += take as u64;
        }
        st.ingested += report.accepted;
        st.last_activity = self.inner.clock.now();
        if report.accepted > 0 {
            let mark = st.ingested + st.shed;
            let at = st.last_activity;
            st.feed_marks.push_back((mark, at));
            self.inner.stats.samples_ingested.fetch_add(report.accepted, Ordering::Relaxed);
        }
        let schedule = !st.scheduled && !st.running && !st.ingress.is_empty();
        if schedule {
            st.scheduled = true;
        }
        drop(st);
        if schedule {
            self.enqueue_ready(session.id);
        }
        Ok(report)
    }

    /// Drains the session's pollable events. A terminal session whose
    /// final event ([`SessionEvent::Closed`] /
    /// [`SessionEvent::SessionFault`]) has been returned is removed;
    /// later calls return [`SessionError::UnknownSession`].
    pub fn poll_events(&self, id: SessionId) -> Result<Vec<SessionEvent>, SessionError> {
        let session = self.session(id)?;
        let mut st = lock_recover(&session.state);
        let events: Vec<SessionEvent> = st.outbox.drain(..).collect();
        let done = st.status.is_terminal() && !st.running;
        drop(st);
        if done && events.iter().any(SessionEvent::is_terminal) {
            lock_recover(&self.inner.sessions).remove(&session.id);
        }
        Ok(events)
    }

    /// The session's lifecycle state.
    pub fn status(&self, id: SessionId) -> Result<SessionStatus, SessionError> {
        let session = self.session(id)?;
        let st = lock_recover(&session.state);
        Ok(match st.status {
            Status::Active => SessionStatus::Active,
            Status::Draining | Status::Reaping { .. } => SessionStatus::Draining,
            Status::Faulted => SessionStatus::Faulted,
            Status::Closed => SessionStatus::Closed,
        })
    }

    /// Samples this session has shed under
    /// [`BackpressurePolicy::ShedOldest`].
    pub fn shed_samples(&self, id: SessionId) -> Result<u64, SessionError> {
        let session = self.session(id)?;
        let st = lock_recover(&session.state);
        Ok(st.shed)
    }

    /// Requests an orderly close: queued samples are still decoded,
    /// then the decoder's end-of-stream events and a
    /// [`SessionEvent::Closed`] are emitted. Idempotent; poll (or
    /// [`DecodeServer::close_and_drain`]) to observe the final events.
    pub fn close(&self, id: SessionId) -> Result<(), SessionError> {
        let session = self.session(id)?;
        let mut st = lock_recover(&session.state);
        if st.status == Status::Active {
            st.status = Status::Draining;
            let schedule = !st.scheduled && !st.running;
            if schedule {
                st.scheduled = true;
            }
            drop(st);
            session.cv.notify_all();
            if schedule {
                self.enqueue_ready(session.id);
            }
        }
        Ok(())
    }

    /// [`DecodeServer::close`], then blocks until the session is
    /// terminal and returns every remaining event (ending in
    /// [`SessionEvent::Closed`], or [`SessionEvent::SessionFault`] for
    /// a quarantined session). The session is removed afterwards.
    pub fn close_and_drain(&self, id: SessionId) -> Result<Vec<SessionEvent>, SessionError> {
        self.close(id)?;
        let session = self.session(id)?;
        let mut st = lock_recover(&session.state);
        while !st.status.is_terminal() || st.running {
            // The timeout is liveness insurance, not the wake path: the
            // worker's check-in notify is.
            let (guard, _) = session
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
        drop(st);
        self.poll_events(id)
    }

    /// Fused events a group has resolved since the last poll.
    pub fn poll_fused(&self, group: GroupId) -> Result<Vec<FusedEvent>, SessionError> {
        let g = self.group(group)?;
        let fused = std::mem::take(&mut *lock_recover(&g.outbox));
        Ok(fused)
    }

    /// Flushes a group's open fusion cluster and returns every pending
    /// fused event — call once the member sessions are done feeding.
    /// After [`DecodeServer::close_and_drain`] has returned for every
    /// member, the flush includes every packet they decoded.
    pub fn flush_group(&self, group: GroupId) -> Result<Vec<FusedEvent>, SessionError> {
        let g = self.group(group)?;
        let flushed = lock_recover(&g.stream).flush();
        let mut out = std::mem::take(&mut *lock_recover(&g.outbox));
        out.extend(flushed);
        Ok(out)
    }

    /// Reaps every session idle past `deadline` *now*, regardless of
    /// [`ServerConfig::idle_deadline`] — the deterministic handle the
    /// tests and the soak harness use; the background scan calls the
    /// same routine on the worker tick.
    pub fn reap_idle(&self, deadline: Duration) -> usize {
        self.inner.reap_scan(deadline)
    }

    fn session(&self, id: SessionId) -> Result<Arc<Session>, SessionError> {
        lock_recover(&self.inner.sessions).get(&id.0).cloned().ok_or(SessionError::UnknownSession)
    }

    fn group(&self, id: GroupId) -> Result<Arc<Group>, SessionError> {
        lock_recover(&self.inner.groups).get(&id.0).cloned().ok_or(SessionError::UnknownSession)
    }

    fn enqueue_ready(&self, id: u64) {
        self.inner.enqueue_ready(id);
    }
}

impl Drop for DecodeServer {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.ready_cv.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked outside the fence already spawned
            // its replacement; its own handle just reports the panic,
            // which must not abort the server's drop.
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(inner: Arc<Inner>) {
    let _guard = RespawnGuard { inner: inner.clone() };
    loop {
        let next = {
            let mut ready = lock_recover(&inner.ready);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = ready.pop_front() {
                    break Some(id);
                }
                let (guard, timeout) = inner
                    .ready_cv
                    .wait_timeout(ready, inner.tick)
                    .unwrap_or_else(|p| p.into_inner());
                ready = guard;
                if timeout.timed_out() {
                    break None;
                }
            }
        };
        match next {
            Some(id) => inner.service(id),
            None => {
                if let Some(deadline) = inner.idle_deadline {
                    inner.reap_scan(deadline);
                }
            }
        }
    }
}

impl Inner {
    fn enqueue_ready(&self, id: u64) {
        lock_recover(&self.ready).push_back(id);
        self.ready_cv.notify_one();
    }

    /// Marks every idle-past-deadline session for reaping and schedules
    /// it; the regular service path performs the flush. Returns how
    /// many sessions were newly marked.
    fn reap_scan(&self, deadline: Duration) -> usize {
        let now = self.clock.now();
        let sessions: Vec<Arc<Session>> = lock_recover(&self.sessions).values().cloned().collect();
        let mut reaped = 0usize;
        for session in sessions {
            let mut st = lock_recover(&session.state);
            let idle = now.saturating_sub(st.last_activity);
            if st.status == Status::Active
                && !st.running
                && st.ingress.is_empty()
                && idle >= deadline
            {
                st.status = Status::Reaping { idle_s: idle.as_secs_f64() };
                let schedule = !st.scheduled;
                st.scheduled = true;
                drop(st);
                session.cv.notify_all();
                if schedule {
                    self.enqueue_ready(session.id);
                }
                reaped += 1;
            }
        }
        reaped
    }

    /// Services one scheduling turn of one session: checks the decoder
    /// out, decodes up to [`BATCH_SAMPLES`] queued samples behind the
    /// panic fence, posts the events, and either re-schedules (more
    /// input waiting), finishes the stream (draining and empty), or
    /// quarantines (the decoder unwound).
    fn service(&self, id: u64) {
        let Some(session) = lock_recover(&self.sessions).get(&id).cloned() else {
            return;
        };
        let fs = session.cfg.sample_rate_hz;
        let mut st = lock_recover(&session.state);
        st.scheduled = false;
        if st.running || st.status.is_terminal() {
            return;
        }
        let Some(mut decoder) = st.decoder.take() else {
            return;
        };
        let batch: Vec<f64> = {
            let take = st.ingress.len().min(BATCH_SAMPLES);
            st.ingress.drain(..take).collect()
        };
        let base = st.pushed;
        st.running = true;
        drop(st);

        // --- The panic fence: everything the decoder itself runs. ---
        let decoded = catch_unwind(AssertUnwindSafe(|| {
            let mut events: Vec<TimedEvent> = Vec::new();
            for (k, &sample) in batch.iter().enumerate() {
                let time_s = (base + k as u64 + 1) as f64 / fs;
                if let Some(event) = decoder.push_sample(sample) {
                    events.push(TimedEvent { time_s, event });
                }
                while let Some(event) = decoder.poll_event() {
                    events.push(TimedEvent { time_s, event });
                }
            }
            events
        }));

        match decoded {
            Ok(events) => {
                let mut st = lock_recover(&session.state);
                st.pushed += batch.len() as u64;
                let packets = self.post_events(&session, &mut st, events);
                // Fuse before the batch's progress is visible: whoever
                // sees these samples decoded (`samples_decoded`, a
                // returning `close_and_drain`) finds their packets in the
                // group already.
                self.route_group(&session, packets);
                self.stats.samples_decoded.fetch_add(batch.len() as u64, Ordering::Relaxed);
                self.resolve_feed_marks(&mut st);
                // Re-read the status: a close may have landed mid-batch.
                let finish = st.status.is_draining() && st.ingress.is_empty();
                let more = !st.ingress.is_empty();
                if finish {
                    self.finish_session(&session, st, decoder);
                } else {
                    st.decoder = Some(decoder);
                    st.running = false;
                    if more && !st.scheduled {
                        st.scheduled = true;
                        drop(st);
                        session.cv.notify_all();
                        self.enqueue_ready(session.id);
                    } else {
                        drop(st);
                        session.cv.notify_all();
                    }
                }
            }
            Err(payload) => self.quarantine(&session, payload),
        }
    }

    /// Ends a draining session: runs `finish_stream` behind the fence,
    /// posts its events plus the `Reaped`/`Closed` trailers. Takes the
    /// locked state to keep the terminal transition atomic with the
    /// decoder's removal.
    fn finish_session(
        &self,
        session: &Arc<Session>,
        st: MutexGuard<'_, SessionCore>,
        mut decoder: Box<dyn PushDecoder + Send>,
    ) {
        let fs = session.cfg.sample_rate_hz;
        let time_s = st.pushed as f64 / fs;
        let reaped = match st.status {
            Status::Reaping { idle_s } => Some(idle_s),
            _ => None,
        };
        drop(st);
        let finished = catch_unwind(AssertUnwindSafe(|| decoder.finish_stream()));
        match finished {
            Ok(events) => {
                let mut st = lock_recover(&session.state);
                let timed = events
                    .into_iter()
                    .map(|event| TimedEvent { time_s, event })
                    .collect::<Vec<_>>();
                let packets = self.post_events(session, &mut st, timed);
                // Fused before the session turns terminal (see `service`).
                self.route_group(session, packets);
                self.resolve_feed_marks(&mut st);
                if let Some(idle_s) = reaped {
                    st.outbox.push_back(SessionEvent::Reaped { idle_s });
                    self.stats.sessions_reaped.fetch_add(1, Ordering::Relaxed);
                }
                st.outbox.push_back(SessionEvent::Closed { time_s });
                st.status = Status::Closed;
                st.running = false;
                self.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                drop(st);
                session.cv.notify_all();
            }
            Err(payload) => self.quarantine(session, payload),
        }
    }

    /// Quarantines a session whose decoder unwound: the decoder is
    /// gone (consumed by the fence), the queue is cleared, and the
    /// event stream ends with a [`SessionEvent::SessionFault`].
    fn quarantine(&self, session: &Arc<Session>, payload: Box<dyn std::any::Any + Send>) {
        let message = panic_message(payload);
        let mut st = lock_recover(&session.state);
        let time_s = st.pushed as f64 / fs_of(session);
        st.decoder = None;
        st.ingress.clear();
        st.feed_marks.clear();
        st.status = Status::Faulted;
        st.running = false;
        st.outbox.push_back(SessionEvent::SessionFault { time_s, message });
        self.stats.sessions_faulted.fetch_add(1, Ordering::Relaxed);
        self.stats.events_emitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        session.cv.notify_all();
    }

    /// Appends decode events to the outbox (with stats) and returns the
    /// packets that need fusion routing.
    fn post_events(
        &self,
        session: &Arc<Session>,
        st: &mut SessionCore,
        events: Vec<TimedEvent>,
    ) -> Vec<(f64, DecodedPacket)> {
        let mut packets = Vec::new();
        self.stats.events_emitted.fetch_add(events.len() as u64, Ordering::Relaxed);
        for te in events {
            if let DecodeEvent::Packet(p) = &te.event {
                self.stats.packets_emitted.fetch_add(1, Ordering::Relaxed);
                if session.cfg.group.is_some() {
                    packets.push((te.time_s, p.clone()));
                }
            }
            st.outbox.push_back(SessionEvent::Decode(te));
        }
        packets
    }

    /// Resolves feed watermarks the decode progress has passed into the
    /// latency histogram. Shed samples count as progress: their feed's
    /// events (none) are fully visible.
    fn resolve_feed_marks(&self, st: &mut SessionCore) {
        let progress = st.pushed + st.shed;
        let now = self.clock.now();
        while let Some(&(mark, enqueued)) = st.feed_marks.front() {
            if mark > progress {
                break;
            }
            let _ = st.feed_marks.pop_front();
            self.latency.record(now.saturating_sub(enqueued));
        }
    }

    /// Pushes a session's decoded packets into its fusion group. Runs
    /// with the session's state locked; it takes the group locks after
    /// that one, and nothing takes a session lock while holding a group
    /// lock.
    fn route_group(&self, session: &Arc<Session>, packets: Vec<(f64, DecodedPacket)>) {
        if packets.is_empty() {
            return;
        }
        let Some(GroupId(gid)) = session.cfg.group else {
            return;
        };
        let Some(group) = lock_recover(&self.groups).get(&gid).cloned() else {
            return;
        };
        let receiver_id = session.cfg.receiver_id.unwrap_or(session.id as u32);
        let mut stream = lock_recover(&group.stream);
        let mut fused = Vec::new();
        for (time_s, p) in &packets {
            fused.extend(stream.push(Detection::from_packet(receiver_id, *time_s, p)));
        }
        drop(stream);
        if !fused.is_empty() {
            lock_recover(&group.outbox).extend(fused);
        }
    }
}

fn fs_of(session: &Arc<Session>) -> f64 {
    session.cfg.sample_rate_hz
}

/// Renders a panic payload for the fault event: the `&str` / `String`
/// payloads `panic!` produces, or a placeholder for exotic ones.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Scenario;
    use crate::decode::AdaptiveDecoder;
    use crate::stream::StreamingDecoder;
    use palc_phy::Packet;

    fn indoor() -> Scenario {
        Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20)
    }

    fn server() -> DecodeServer {
        DecodeServer::new(ServerConfig::default().with_workers(2))
    }

    fn streaming(sc: &Scenario) -> (StreamingDecoder, f64) {
        let fs = sc.channel().frontend.sample_rate_hz();
        (StreamingDecoder::new(AdaptiveDecoder::default().with_expected_bits(2), fs), fs)
    }

    /// A decoder that panics on the `at`-th pushed sample — the fault
    /// injector for quarantine tests.
    struct PanicAfter {
        inner: StreamingDecoder,
        pushed: usize,
        at: usize,
    }

    impl PushDecoder for PanicAfter {
        fn push_sample(&mut self, sample: f64) -> Option<DecodeEvent> {
            self.pushed += 1;
            assert!(self.pushed < self.at, "injected decoder fault at sample {}", self.at);
            self.inner.push_sample(sample)
        }
        fn poll_event(&mut self) -> Option<DecodeEvent> {
            self.inner.poll_event()
        }
        fn finish_stream(&mut self) -> Vec<DecodeEvent> {
            self.inner.finish_stream()
        }
    }

    fn decode_events(events: &[SessionEvent]) -> Vec<&TimedEvent> {
        events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Decode(te) => Some(te),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_session_decodes_a_packet() {
        let sc = indoor();
        let srv = server();
        let (dec, fs) = streaming(&sc);
        let id = srv.create_session(dec, SessionConfig::new(fs));
        for chunk in sc.run(7).samples().chunks(300) {
            srv.feed_samples(id, chunk).unwrap();
        }
        let events = srv.close_and_drain(id).unwrap();
        assert!(
            events.iter().any(|e| e.packet().is_some_and(|p| p.payload.to_string() == "10")),
            "no packet decoded: {events:?}"
        );
        assert!(matches!(events.last(), Some(SessionEvent::Closed { .. })));
        // Fully drained terminal session is removed.
        assert!(matches!(srv.poll_events(id), Err(SessionError::UnknownSession)));
        assert_eq!(srv.session_count(), 0);
        let stats = srv.stats();
        assert_eq!(stats.sessions_created, 1);
        assert_eq!(stats.sessions_closed, 1);
        assert_eq!(stats.sessions_faulted, 0);
        assert_eq!(stats.samples_ingested, stats.samples_decoded);
        assert!(stats.packets_emitted >= 1);
        assert!(stats.latency.count > 0, "feed marks must resolve into the histogram");
    }

    #[test]
    fn quarantined_session_faults_without_touching_siblings() {
        let sc = indoor();
        let srv = server();
        let trace = sc.run(7);
        let (dec, fs) = streaming(&sc);
        let good = srv.create_session(dec, SessionConfig::new(fs));
        let (inner, _) = streaming(&sc);
        let bad =
            srv.create_session(PanicAfter { inner, pushed: 0, at: 100 }, SessionConfig::new(fs));
        for chunk in trace.samples().chunks(64) {
            srv.feed_samples(good, chunk).unwrap();
            // The faulted session starts rejecting feeds once the panic
            // lands; that must not disturb the healthy sibling.
            match srv.feed_samples(bad, chunk) {
                Ok(_) | Err(SessionError::Faulted) => {}
                other => panic!("unexpected feed result {other:?}"),
            }
        }
        let events = srv.close_and_drain(good).unwrap();
        assert!(
            events.iter().any(|e| e.packet().is_some_and(|p| p.payload.to_string() == "10")),
            "sibling session lost its packet"
        );
        // The faulted session's stream ends in SessionFault with the
        // injected panic message, and close_and_drain does not hang.
        let fault_events = srv.close_and_drain(bad).unwrap();
        match fault_events.last() {
            Some(SessionEvent::SessionFault { message, .. }) => {
                assert!(message.contains("injected decoder fault"), "{message}");
            }
            other => panic!("faulted session must end in SessionFault, got {other:?}"),
        }
        assert_eq!(srv.stats().sessions_faulted, 1);
    }

    #[test]
    fn block_policy_loses_nothing_through_a_tiny_queue() {
        let sc = indoor();
        let srv = server();
        let (dec, fs) = streaming(&sc);
        let id = srv.create_session(dec, SessionConfig::new(fs).with_queue_capacity(64));
        let trace = sc.run(3);
        for chunk in trace.samples().chunks(256) {
            srv.feed_samples(id, chunk).unwrap(); // blocks as needed
        }
        let events = srv.close_and_drain(id).unwrap();
        let n = decode_events(&events).len();
        assert!(n > 0);
        let stats = srv.stats();
        assert_eq!(stats.samples_decoded, trace.samples().len() as u64);
        assert_eq!(stats.samples_shed, 0);
    }

    /// A decoder whose first sample parks the worker until the test lets
    /// it go: it reports that it holds the worker on `held`, then waits
    /// on `release`.
    struct Gate {
        inner: StreamingDecoder,
        held: Option<std::sync::mpsc::Sender<()>>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl PushDecoder for Gate {
        fn push_sample(&mut self, sample: f64) -> Option<DecodeEvent> {
            if let Some(held) = self.held.take() {
                let _ = held.send(());
                let _ = self.release.recv();
            }
            self.inner.push_sample(sample)
        }
        fn poll_event(&mut self) -> Option<DecodeEvent> {
            self.inner.poll_event()
        }
        fn finish_stream(&mut self) -> Vec<DecodeEvent> {
            self.inner.finish_stream()
        }
    }

    #[test]
    fn shed_oldest_sheds_counts_and_coalesces_overload_markers() {
        let srv = DecodeServer::new(ServerConfig::default().with_workers(1));
        let sc = indoor();
        let (inner, fs) = streaming(&sc);
        let (held_tx, held) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let gate = Gate { inner, held: Some(held_tx), release: release_rx };
        let id = srv.create_session(
            gate,
            SessionConfig::new(fs)
                .with_queue_capacity(32)
                .with_policy(BackpressurePolicy::ShedOldest),
        );
        // The first feed goes to the only worker, which the gate then
        // holds: every later feed lands on a queue nothing drains.
        let mut shed = srv.feed_samples(id, &[0.5; 32]).unwrap().shed;
        held.recv().unwrap();
        // Hammer far past capacity in one burst: the second feed fills
        // the queue, and each of the other 198 sheds one queue's worth.
        for _ in 1..200 {
            shed += srv.feed_samples(id, &[0.5; 32]).unwrap().shed;
        }
        release.send(()).unwrap();
        assert!(shed > 0, "a 6400-sample burst through a 32-slot queue must shed");
        assert_eq!(shed, 198 * 32, "exactly the samples no queue slot could hold");
        assert_eq!(srv.shed_samples(id).unwrap(), shed);
        let events = srv.close_and_drain(id).unwrap();
        let overload: u64 = events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Overloaded { shed_samples } => Some(*shed_samples),
                _ => None,
            })
            .sum();
        assert_eq!(overload, shed, "Overloaded markers must account for every shed sample");
        let markers =
            events.iter().filter(|e| matches!(e, SessionEvent::Overloaded { .. })).count();
        assert!(markers <= 3, "consecutive shed episodes must coalesce, got {markers}");
        assert_eq!(srv.stats().samples_shed, shed);
    }

    #[test]
    fn idle_sessions_are_reaped_and_closed() {
        // A mock clock makes the idle measurement exact: no wall-clock
        // sleeps, no scheduler-dependent flakiness.
        let clock = MockClock::new();
        let srv = DecodeServer::with_clock(
            ServerConfig::default().with_workers(2),
            Arc::new(clock.clone()),
        );
        let sc = indoor();
        let (dec, fs) = streaming(&sc);
        let id = srv.create_session(dec, SessionConfig::new(fs));
        srv.feed_samples(id, &[0.5; 100]).unwrap();
        // Let the pool drain the feed first — reaping requires an empty
        // ingress queue and a parked decoder. Pure synchronisation, no
        // timing dependence.
        while srv.stats().samples_decoded < 100 {
            std::thread::yield_now();
        }
        let deadline = Duration::from_millis(20);
        // One nanosecond short of the deadline: nothing is stale yet.
        clock.advance(deadline - Duration::from_nanos(1));
        assert_eq!(srv.reap_idle(deadline), 0, "deadline not yet crossed");
        // Crossing the deadline reaps exactly this session.
        clock.advance(Duration::from_nanos(1));
        assert_eq!(srv.reap_idle(deadline), 1, "idle session must be marked");
        // The flush itself runs on a worker; wait for the transition.
        loop {
            match srv.status(id) {
                Ok(SessionStatus::Closed) | Err(SessionError::UnknownSession) => break,
                _ => std::thread::yield_now(),
            }
        }
        let events = srv.poll_events(id).unwrap();
        let has_reaped = events.iter().any(|e| matches!(e, SessionEvent::Reaped { .. }));
        assert!(has_reaped, "reaped session must log Reaped: {events:?}");
        assert!(matches!(events.last(), Some(SessionEvent::Closed { .. })));
        assert_eq!(srv.stats().sessions_reaped, 1);
        assert_eq!(srv.stats().sessions_closed, 1);
    }

    #[test]
    fn fusion_group_fuses_across_sessions() {
        let sc = indoor();
        let srv = server();
        let trace = sc.run(11);
        let group = srv.create_group(FusionCenter { window_s: 5.0, straggler_slack_s: 0.25 });
        let ids: Vec<SessionId> = (0..3)
            .map(|rx| {
                let (dec, fs) = streaming(&sc);
                srv.create_session(dec, SessionConfig::new(fs).with_group(group, rx))
            })
            .collect();
        for chunk in trace.samples().chunks(500) {
            for &id in &ids {
                srv.feed_samples(id, chunk).unwrap();
            }
        }
        // Two workers decode the sessions in any interleaving; returning
        // from close_and_drain means every packet of that session has
        // reached the group, so the flush below sees all three votes.
        for &id in &ids {
            srv.close_and_drain(id).unwrap();
        }
        let fused = srv.flush_group(group).unwrap();
        assert_eq!(fused.len(), 1, "{fused:?}");
        assert_eq!(fused[0].payload.to_string(), "10");
        assert_eq!(fused[0].receivers, 3, "one vote per session receiver id");
    }

    #[test]
    fn feed_and_close_surface_session_errors() {
        let sc = indoor();
        let srv = server();
        let (dec, fs) = streaming(&sc);
        let id = srv.create_session(dec, SessionConfig::new(fs));
        srv.close(id).unwrap();
        // Draining/closed sessions reject new samples.
        assert!(matches!(srv.feed_samples(id, &[0.0]), Err(SessionError::Closed)));
        srv.close_and_drain(id).unwrap();
        assert!(matches!(srv.feed_samples(id, &[0.0]), Err(SessionError::UnknownSession)));
        assert!(matches!(srv.close(SessionId(999)), Err(SessionError::UnknownSession)));
        assert!(matches!(srv.poll_fused(GroupId(999)), Err(SessionError::UnknownSession)));
    }

    #[test]
    fn boxed_decoders_drive_sessions_too() {
        // The blanket Box<D: PushDecoder> impl: a heterogeneous fleet
        // behind one session type.
        let sc = indoor();
        let srv = server();
        let (dec, fs) = streaming(&sc);
        let boxed: Box<dyn PushDecoder + Send> = Box::new(dec);
        let id = srv.create_session(boxed, SessionConfig::new(fs));
        srv.feed_samples(id, sc.run(7).samples()).unwrap();
        let events = srv.close_and_drain(id).unwrap();
        assert!(events.iter().any(|e| e.packet().is_some()));
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let h = Histogram::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                h.record(Duration::from_micros(us));
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50_us <= s.p99_us && s.p99_us <= s.max_us);
        assert!(s.max_us >= 10_000);
    }
}
