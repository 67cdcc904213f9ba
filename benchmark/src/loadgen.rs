//! The open-loop request generator: requests are due on a fixed schedule
//! whatever the server does, and each is timed from its due time, so a
//! stall is charged to every request that had to wait behind it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A request sent this long after its due time counts as late.
pub const LATE: Duration = Duration::from_millis(1);

/// The last stretch before a due time is spun, not slept: a sleeping
/// thread on this kind of box often wakes a millisecond or more late.
const SPIN: Duration = Duration::from_millis(1);

#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per request, completion minus due time, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Requests sent more than [`LATE`] after they were due.
    pub late: u64,
    /// Requests whose `op` reported failure, plus those abandoned.
    pub failed: u64,
    /// Scheduled requests never sent because the generator had fallen a
    /// whole `duration` behind: the backlog was growing without bound.
    pub abandoned: u64,
    /// Trailing entries of `latency_ns` that are lower bounds: requests
    /// already due when `stop` was raised but still queued behind a slow
    /// one. Each is recorded with the wait it had run up, so that stopping
    /// does not hide the backlog.
    pub censored: u64,
}

impl OpenLoop {
    pub fn sent(&self) -> u64 {
        self.latency_ns.len() as u64
    }
}

/// Sends request `i` at `start + i / rate` (or at once if that has passed)
/// until `duration` worth of requests are sent or `stop` is raised. `op`
/// performs request `i` and says whether it succeeded. One thread, one
/// request in flight: a slow response delays the next send, and the delay
/// shows in that request's latency, not in a thinner schedule. If the
/// generator falls a whole `duration` behind, the rest of the schedule is
/// abandoned and counted as failed rather than sent at an unbounded delay.
pub fn open_loop(
    rate_per_s: f64,
    duration: Duration,
    stop: &AtomicBool,
    mut op: impl FnMut(u64) -> bool,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let start = Instant::now();
    let due_at = |i: u64| Duration::from_secs_f64(i as f64 / rate_per_s);
    for i in 0u64.. {
        let offset = due_at(i);
        if offset >= duration {
            break;
        }
        if stop.load(Ordering::Relaxed) {
            let waited = start.elapsed();
            for late in (i..).map(due_at).take_while(|&d| d < waited && d < duration) {
                out.latency_ns.push((waited - late).as_nanos() as u64);
                out.censored += 1;
            }
            break;
        }
        let due = start + offset;
        if Instant::now().saturating_duration_since(due) >= duration {
            out.abandoned = (duration.as_secs_f64() * rate_per_s).ceil() as u64 - i;
            out.failed += out.abandoned;
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.saturating_sub(SPIN));
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        if Instant::now().duration_since(due) > LATE {
            out.late += 1;
        }
        if !op(i) {
            out.failed += 1;
        }
        out.latency_ns.push(Instant::now().duration_since(due).as_nanos() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let never = AtomicBool::new(false);
        let stall = Duration::from_millis(60);
        let run = open_loop(1000.0, Duration::from_millis(250), &never, |i| {
            if i == 20 {
                std::thread::sleep(stall);
            }
            i != 30
        });
        // Every scheduled request is sent: the schedule is not thinned.
        assert_eq!(run.sent(), 250);
        assert_eq!(run.failed, 1);
        // Request 21 was due 1 ms after request 20 and waited out the stall.
        assert!(run.latency_ns[20] >= stall.as_nanos() as u64);
        assert!(run.latency_ns[21] >= (stall - Duration::from_millis(2)).as_nanos() as u64);
        // A closed loop would have timed request 40 from its send: ~0. Here
        // it was due during the stall and still carries most of it.
        assert!(run.latency_ns[40] >= Duration::from_millis(30).as_nanos() as u64);
        // The generator reports how late it ran: at least the requests due
        // inside the stall window.
        assert!(run.late >= 50, "late = {}", run.late);
        // Before the stall nothing queued.
        assert!(run.latency_ns[5] < Duration::from_millis(20).as_nanos() as u64);
    }

    #[test]
    fn a_backlog_that_only_grows_is_abandoned_and_counted_failed() {
        let never = AtomicBool::new(false);
        // 1000 rps offered, 100 rps served: after 50 ms the generator is a
        // whole window behind.
        let run = open_loop(1000.0, Duration::from_millis(50), &never, |_| {
            std::thread::sleep(Duration::from_millis(10));
            true
        });
        assert!(run.sent() < 20, "sent {}", run.sent());
        assert_eq!(run.sent() + run.abandoned, 50);
        assert_eq!(run.failed, run.abandoned);
    }

    #[test]
    fn stops_when_asked() {
        let stop = AtomicBool::new(false);
        let run = open_loop(200.0, Duration::from_secs(30), &stop, |i| {
            if i == 9 {
                stop.store(true, Ordering::Relaxed);
            }
            true
        });
        assert_eq!(run.sent(), 10);
        assert_eq!(run.censored, 0, "nothing was queued when the stop came");
    }

    #[test]
    fn requests_queued_at_the_stop_are_kept_as_lower_bounds() {
        let stop = AtomicBool::new(false);
        // Request 2 takes 50 ms and raises the stop: requests 3.. that fell
        // due meanwhile (one per ms) are recorded with their wait so far.
        let run = open_loop(1000.0, Duration::from_secs(30), &stop, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::Relaxed);
            }
            true
        });
        assert!(run.censored >= 45, "censored = {}", run.censored);
        assert_eq!(run.sent(), 3 + run.censored);
        let first_queued = run.latency_ns[3];
        assert!(first_queued >= Duration::from_millis(45).as_nanos() as u64);
        assert!(run.latency_ns.last().unwrap() < &first_queued);
    }
}
