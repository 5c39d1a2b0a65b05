//! The open-loop request schedule and its due-time accounting.
//!
//! Request `i` is due at `i / rate` after the phase starts, whatever
//! happened to earlier requests. One connection carries one request at a
//! time, so a request can go out at its due time or, when the previous
//! response came back later than that, as soon as it did. Latency counts
//! from the due time: a stall of the server is charged to every request
//! that queued behind it, not only to the one that hit it.
//!
//! The generator itself can send late — its timer wake-up overshoots,
//! by more than a millisecond for about one send in ten on a busy
//! two-vCPU machine. That lateness is not the server's: it is left out of
//! the latency and reported on its own as lag. This holds for the
//! requests queued behind a late send too: the next request may go out
//! once the connection would have been free had the late one been sent
//! on time, and any wait beyond that is lag as well.

use std::time::Duration;

/// A fixed-rate schedule of `len` requests.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period: Duration,
    len: usize,
}

impl OpenLoop {
    /// `rate` requests per second for `window`.
    pub fn new(rate: f64, window: Duration) -> OpenLoop {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let len = (window.as_secs_f64() * rate).floor() as usize;
        OpenLoop { period: Duration::from_secs_f64(1.0 / rate), len }
    }

    /// Number of requests in the schedule.
    pub fn len(&self) -> usize {
        self.len
    }

    /// When request `i` is due, as an offset from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        #[allow(clippy::cast_possible_truncation)]
        let i = i as u32;
        self.period * i
    }

    /// When request `i` can go out on its connection, given when the
    /// connection would have been free had the previous request been sent
    /// without lag ([`Timing::free_on_time`]).
    pub fn send_at(&self, i: usize, prev_free: Duration) -> Duration {
        self.due(i).max(prev_free)
    }
}

/// When one request was due, could go out ([`OpenLoop::send_at`]), was
/// sent, and was answered (offsets from the start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due: Duration,
    pub send_at: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency as the user sees it: the wait behind earlier requests
    /// (from the due time until the connection was free) plus the round
    /// trip.
    pub fn latency(&self) -> Duration {
        self.send_at.saturating_sub(self.due) + self.service()
    }

    /// Round trip on the wire: from sending to the answer.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }

    /// How late the generator sent after the request could go out.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.send_at)
    }

    /// When the answer would have come had the request gone out without
    /// lag: when the connection is free for the next request.
    pub fn free_on_time(&self) -> Duration {
        self.done.saturating_sub(self.lag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// Drives the schedule over one connection whose round trips take
    /// `service[i]` and whose sends wake up `late[i]` after they could
    /// go out (and never before the previous answer), exactly as the load
    /// generator sends.
    fn simulate(plan: &OpenLoop, service: &[Duration], late: &[Duration]) -> Vec<Timing> {
        let mut prev: Option<Timing> = None;
        (0..plan.len())
            .map(|i| {
                let send_at = plan.send_at(i, prev.map_or(Duration::ZERO, |p| p.free_on_time()));
                let sent = send_at.max(prev.map_or(Duration::ZERO, |p| p.done)) + late[i];
                let t = Timing { due: plan.due(i), send_at, sent, done: sent + service[i] };
                prev = Some(t);
                t
            })
            .collect()
    }

    #[test]
    fn schedule_spaces_requests_by_the_period() {
        let plan = OpenLoop::new(100.0, Duration::from_secs(2));
        assert_eq!(plan.len(), 200);
        assert_eq!(plan.due(0), Duration::ZERO);
        assert_eq!(plan.due(150), Duration::from_millis(1500));
    }

    #[test]
    fn fast_answers_leave_no_lag() {
        let plan = OpenLoop::new(100.0, ms(50));
        let t = simulate(&plan, &[ms(1); 5], &[Duration::ZERO; 5]);
        assert!(t.iter().all(|t| t.lag().is_zero() && t.latency() == ms(1)));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // 10 ms period; request 1 stalls for 35 ms.
        let plan = OpenLoop::new(100.0, ms(60));
        let service = [ms(1), ms(35), ms(1), ms(1), ms(1), ms(1)];
        let t = simulate(&plan, &service, &[Duration::ZERO; 6]);
        assert_eq!(t[1].latency(), ms(35));
        // Request 2 was due at 20 ms but could only go out at 45 ms.
        assert_eq!(t[2].sent, ms(45));
        assert_eq!(t[2].lag(), Duration::ZERO, "waiting for the connection is not lag");
        assert_eq!(t[2].latency(), ms(26));
        assert_eq!(t[2].service(), ms(1));
        // Request 3 (due 30 ms) follows at 46 ms; request 5 (due 50 ms)
        // is back on schedule.
        assert_eq!(t[3].latency(), ms(17));
        assert_eq!(t[4].latency(), ms(8));
        assert_eq!(t[5].lag(), Duration::ZERO);
        assert_eq!(t[5].latency(), ms(1));
    }

    #[test]
    fn a_late_generator_is_reported_as_lag_not_latency() {
        let plan = OpenLoop::new(100.0, ms(30));
        let t = simulate(&plan, &[ms(1); 3], &[ms(0), ms(4), ms(0)]);
        assert_eq!(t[1].sent, ms(14));
        assert_eq!(t[1].lag(), ms(4));
        assert_eq!(t[1].latency(), ms(1));
        assert_eq!(t[2].latency(), ms(1));
    }

    #[test]
    fn lag_longer_than_the_period_stays_lag_for_the_requests_behind_it() {
        // 10 ms period; the send of request 1 wakes up 25 ms late, so
        // requests 2 and 3 can only go out once it is answered at 36 ms.
        let plan = OpenLoop::new(100.0, ms(50));
        let t = simulate(&plan, &[ms(1); 5], &[ms(0), ms(25), ms(0), ms(0), ms(0)]);
        assert_eq!(t[1].done, ms(36));
        assert_eq!(t[1].free_on_time(), ms(11));
        assert_eq!(t[2].send_at, ms(20));
        assert_eq!(t[2].sent, ms(36));
        assert_eq!(t[2].lag(), ms(16));
        assert_eq!(t[3].lag(), ms(7));
        assert!(t.iter().all(|t| t.latency() == ms(1)), "lag leaked into latency: {t:?}");
    }
}
