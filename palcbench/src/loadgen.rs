//! Open-loop load generation: a fixed send schedule, lateness against it,
//! and backlog growth.
//!
//! Every chunk has a due time fixed before the run starts. A chunk sent
//! late is still timed from when it was due, so a stall in the server or
//! the generator charges its wait to every request queued behind it.

/// A round-robin schedule: `sessions` sessions each send one chunk every
/// `sessions · period_s` seconds, phase-shifted by `period_s` from each
/// other, so the whole generator sends one chunk every `period_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Seconds between consecutive chunks of the whole generator.
    pub period_s: f64,
    /// Sessions the chunks rotate over.
    pub sessions: usize,
}

impl Schedule {
    /// The schedule that offers `samples_per_s` in chunks of
    /// `chunk_samples` over `sessions` sessions.
    pub fn offering(samples_per_s: f64, chunk_samples: usize, sessions: usize) -> Self {
        Schedule { period_s: chunk_samples as f64 / samples_per_s, sessions }
    }

    /// Due time of global chunk `g`, seconds from the window start.
    pub fn due_s(&self, g: usize) -> f64 {
        g as f64 * self.period_s
    }

    /// `(session, chunk index within that session)` of global chunk `g`.
    pub fn locate(&self, g: usize) -> (usize, usize) {
        (g % self.sessions, g / self.sessions)
    }

    /// Due time of `session`'s chunk number `chunk`.
    pub fn due_of(&self, session: usize, chunk: usize) -> f64 {
        self.due_s(chunk * self.sessions + session)
    }

    /// Global chunks that fit in a window of `window_s`.
    pub fn chunks_in(&self, window_s: f64) -> usize {
        (window_s / self.period_s).floor() as usize
    }
}

/// Latency of one expected result, milliseconds: from `due_s` to the
/// moment it was returned. A result never returned counts as returned at
/// `gave_up_s`, when the generator stopped waiting, so it misses every
/// latency limit up to that wait.
pub fn latency_ms(due_s: f64, returned_s: Option<f64>, gave_up_s: f64) -> f64 {
    (returned_s.unwrap_or(gave_up_s) - due_s).max(0.0) * 1e3
}

/// Whether the backlog grew over the window: the mean of the last quarter
/// of the readings exceeds twice the mean of the first quarter plus
/// `slack` (the backlog a burst of due chunks can leave for an instant).
pub fn backlog_grew(readings: &[u64], slack: u64) -> bool {
    let q = readings.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let head = mean(&readings[..q]);
    let tail = mean(&readings[readings.len() - q..]);
    tail > 2.0 * head + slack as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_rotates_sessions_at_a_fixed_rate() {
        let s = Schedule::offering(1000.0, 10, 4);
        assert!((s.period_s - 0.01).abs() < 1e-15);
        assert_eq!(s.locate(0), (0, 0));
        assert_eq!(s.locate(5), (1, 1));
        assert!((s.due_of(1, 1) - s.due_s(5)).abs() < 1e-15);
        // Each session sends every sessions · period.
        assert!((s.due_of(2, 3) - s.due_of(2, 2) - 0.04).abs() < 1e-12);
        assert_eq!(s.chunks_in(1.0), 100);
    }

    #[test]
    fn lateness_is_charged_from_the_due_time() {
        // Sent 3 ms late, answered 1 ms after sending: 4 ms.
        assert!((latency_ms(0.100, Some(0.104), 9.0) - 4.0).abs() < 1e-9);
        // Never answered: counted until the generator gave up.
        assert!((latency_ms(0.100, None, 2.100) - 2000.0).abs() < 1e-9);
        // Clock skew cannot make a latency negative.
        assert_eq!(latency_ms(0.2, Some(0.1), 1.0), 0.0);
    }

    #[test]
    fn backlog_growth_is_detected() {
        let flat = [64, 0, 128, 64, 0, 64, 128, 0];
        assert!(!backlog_grew(&flat, 256));
        let growing: Vec<u64> = (0..40).map(|i| i * 1000).collect();
        assert!(backlog_grew(&growing, 256));
        assert!(!backlog_grew(&[5, 6, 7], 0));
    }
}
