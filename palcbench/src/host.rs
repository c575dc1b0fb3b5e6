//! Host readings: peak memory, per-thread CPU time, and the host-speed
//! indicator.

use std::fs;
use std::time::Instant;

/// `VmHWM` (peak resident set) from the text of `/proc/<pid>/status`, MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

/// Time spent on the CPU, nanoseconds: the first field of a
/// `/proc/<pid>/task/<tid>/schedstat` line.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Whether a thread's `comm` names it `name`. The kernel keeps at most
/// 15 bytes of a thread name, so a longer name matches by its prefix.
pub fn comm_matches(comm: &str, name: &str) -> bool {
    let comm = comm.trim_end_matches('\n');
    let cut = name.len().min(15);
    !comm.is_empty() && comm == &name[..cut]
}

/// Summed on-CPU time of this process's live threads named `name`, ns,
/// and how many such threads there are.
pub fn thread_cpu_ns(name: &str) -> (u64, usize) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let mut total = 0;
    let mut threads = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else { continue };
        if !comm_matches(&comm, name) {
            continue;
        }
        if let Some(ns) =
            fs::read_to_string(dir.join("schedstat")).ok().as_deref().and_then(parse_schedstat_ns)
        {
            total += ns;
            threads += 1;
        }
    }
    (total, threads)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Words in the host-speed reference loop's buffer (2 MiB). The host's
/// slow speed shows most in pointer chasing through the shared last-level
/// cache, so the loop walks a random cycle over more lines than the
/// private caches hold.
const CALIB_WORDS: usize = 1 << 19;
const CALIB_STEPS: usize = 60_000;

/// The host-speed reference loop: a fixed pointer chase, written here and
/// calling no repository code. Returns nanoseconds per step. Readings
/// identify runs made in the host's slow speed; they never normalise a
/// metric.
pub struct Calibrator {
    next: Vec<u32>,
}

impl Calibrator {
    /// Builds the fixed random cycle (same on every run).
    pub fn new() -> Self {
        let n = CALIB_WORDS;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; n];
        for k in 0..n {
            next[order[k] as usize] = order[(k + 1) % n];
        }
        Calibrator { next }
    }

    /// One reading, ns per step: an untimed walk brings its lines into the
    /// shared cache, then the same walk is timed (a few milliseconds of
    /// work in all).
    pub fn read(&self) -> f64 {
        let walk = |steps: usize| {
            let mut p = 0u32;
            for _ in 0..steps {
                p = self.next[p as usize];
            }
            std::hint::black_box(p)
        };
        walk(CALIB_STEPS);
        let t = Instant::now();
        walk(CALIB_STEPS);
        t.elapsed().as_nanos() as f64 / CALIB_STEPS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_in_mib() {
        let status = "Name:\tpalcbench\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat_ns("123456789 2000 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn comm_is_truncated_to_fifteen_bytes() {
        assert!(comm_matches("palc-server-wor\n", "palc-server-worker"));
        assert!(comm_matches("main\n", "main"));
        assert!(!comm_matches("palc-server-wo\n", "palc-server-worker"));
        assert!(!comm_matches("\n", ""));
    }

    #[test]
    fn live_readings_are_plausible() {
        let mb = peak_rss_mb().expect("VmHWM");
        assert!(mb > 0.1 && mb < 100_000.0);
        let ns = Calibrator::new().read();
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn named_thread_cpu_is_found() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("palcbench-probe-thread".into())
            .spawn(move || {
                let mut x = 0u64;
                for i in 0..200_000u64 {
                    x = x.wrapping_mul(31).wrapping_add(i);
                }
                std::hint::black_box(x);
                ready_tx.send(()).unwrap();
                rx.recv().unwrap();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let (ns, threads) = thread_cpu_ns("palcbench-probe-thread");
        tx.send(()).unwrap();
        h.join().unwrap();
        assert_eq!(threads, 1);
        assert!(ns > 0);
    }
}
