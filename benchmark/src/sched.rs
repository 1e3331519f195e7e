//! The open-loop sender's schedule.
//!
//! Request `k` is due at `start + k · batch / rate`, computed from `k`
//! alone — never from when the previous response arrived — so a slow
//! response makes later requests *late* (which the latency, timed from the
//! due time, then shows) instead of silently lowering the offered load.

use std::time::{Duration, Instant};

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= t_ns` (returns at once when already past).
    fn sleep_until(&self, t_ns: u64);
}

/// Wall clock; plain sleeps, because a spinning sender would take a core
/// from the daemon under test on a two-core box.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start_ns: u64,
    /// Events per request.
    batch: u64,
    /// Offered load in events per second.
    rate: u64,
}

impl Schedule {
    pub fn new(start_ns: u64, batch: u64, rate: u64) -> Schedule {
        assert!(batch > 0 && rate > 0);
        Schedule {
            start_ns,
            batch,
            rate,
        }
    }

    /// Due time of request `k`; one division per call, so rounding never
    /// accumulates.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns
            + ((k as u128 * self.batch as u128 * 1_000_000_000) / self.rate as u128) as u64
    }

    pub fn interval_ns(&self) -> u64 {
        self.due_ns(1) - self.start_ns
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Sample {
    /// What a user waiting on the schedule sees: due time to response.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator itself ran.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Sends `n` requests on `sched`; `request(k)` sends request `k` and blocks
/// until its response is read.
pub fn drive(
    clock: &impl Clock,
    sched: &Schedule,
    n: u64,
    mut request: impl FnMut(u64),
) -> Vec<Sample> {
    (0..n)
        .map(|k| {
            let due_ns = sched.due_ns(k);
            clock.sleep_until(due_ns);
            let sent_ns = clock.now_ns();
            request(k);
            Sample {
                due_ns,
                sent_ns,
                done_ns: clock.now_ns(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn due_times_do_not_drift_with_response_times() {
        let clock = FakeClock(Cell::new(1_000));
        // 64 events per request at 64 000 events/s: one request per ms.
        let sched = Schedule::new(1_000, 64, 64_000);
        assert_eq!(sched.interval_ns(), 1_000_000);
        // Request 1 stalls for 3.5 intervals; the rest answer in 0.1 ms.
        let service = |k: u64| if k == 1 { 3_500_000 } else { 100_000 };
        let samples = drive(&clock, &sched, 8, |k| {
            clock.0.set(clock.0.get() + service(k));
        });
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.due_ns, 1_000 + k as u64 * 1_000_000, "request {k}");
        }
        // The stall is charged to the requests it delayed, from their due
        // times: 2, 3 and 4 were due during it and are sent back to back.
        assert_eq!(samples[1].latency_ns(), 3_500_000);
        assert_eq!(samples[2].lag_ns(), 2_500_000);
        assert_eq!(samples[2].latency_ns(), 2_600_000);
        assert_eq!(samples[3].latency_ns(), 1_700_000);
        assert_eq!(samples[4].latency_ns(), 800_000);
        // Caught up: back on schedule, no lag.
        assert_eq!(samples[5].lag_ns(), 0);
        assert_eq!(samples[7].latency_ns(), 100_000);
    }

    #[test]
    fn odd_rates_round_per_request_not_cumulatively() {
        let sched = Schedule::new(0, 64, 30_000);
        // 64/30000 s = 2 133 333.33… ns; request 3 000 000 is due at exactly
        // 6 400 s, which a summed rounded interval would miss by a
        // millisecond.
        assert_eq!(sched.due_ns(3_000_000), 6_400_000_000_000);
        assert_eq!(sched.interval_ns(), 2_133_333);
    }
}
