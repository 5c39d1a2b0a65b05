//! A bounded multi-producer/multi-consumer queue built on
//! `Mutex` + `Condvar` (the workspace is std-only). Its user is serve's
//! connection queue, between the accept loop and the HTTP workers.
//!
//! Two properties matter:
//!
//! * **backpressure** — [`BoundedQueue::push`] *blocks* once the queue
//!   holds `capacity` items, so a fast producer (the accept loop) can
//!   never run ahead of stalled consumers by more than a bounded amount
//!   of memory;
//! * **close-to-drain shutdown** — [`BoundedQueue::close`] wakes every
//!   blocked producer and consumer, after which consumers keep draining
//!   the remaining items and only then observe `None`. Nothing already
//!   accepted is ever dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use telemetry::sync::lock_or_recover;

/// A blocking bounded FIFO shared by reference between threads.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// Telemetry histogram observed with the queue depth on every push.
    depth_metric: &'static str,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, depth_metric: &'static str) -> Self {
        assert!(capacity > 0, "a zero-capacity queue cannot make progress");
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::with_capacity(capacity), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            depth_metric,
        }
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue was closed (shutdown) before it
    /// could be accepted.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = lock_or_recover(&self.state);
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.capacity {
                break;
            }
            st = self.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.items.push_back(item);
        let tel = telemetry::global();
        #[allow(clippy::cast_precision_loss)]
        let depth = st.items.len() as f64;
        tel.observe(self.depth_metric, depth);
        self.publish_depth(&tel, depth);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Mirrors the instantaneous depth into a live gauge (`<metric>.now`)
    /// for dashboards. Only pays the name allocation when telemetry is
    /// enabled.
    fn publish_depth(&self, tel: &telemetry::Telemetry, depth: f64) {
        if tel.is_enabled() {
            tel.gauge(&format!("{}.now", self.depth_metric), depth);
        }
    }

    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `None` only once the queue is closed *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock_or_recover(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                let tel = telemetry::global();
                #[allow(clippy::cast_precision_loss)]
                self.publish_depth(&tel, st.items.len() as f64);
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        lock_or_recover(&self.state).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_or_recover(&self.state).items.len()
    }

    /// True if nothing is queued right now.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backpressure bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(4, "test.depth");
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_blocks_at_capacity_instead_of_growing() {
        // The backpressure contract: a producer shoving far more items
        // than `capacity` at a stalled consumer must block, not OOM.
        let q = Arc::new(BoundedQueue::new(2, "test.depth"));
        let pushed = Arc::new(AtomicUsize::new(0));
        let producer = {
            let (q, pushed) = (Arc::clone(&q), Arc::clone(&pushed));
            std::thread::spawn(move || {
                for i in 0..50 {
                    q.push(i).unwrap();
                    pushed.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // With no consumer, progress must stop at exactly `capacity`.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pushed.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pushed.load(Ordering::SeqCst), 2, "producer must block at capacity");
        assert_eq!(q.len(), 2);
        // Draining un-blocks it and every item arrives in order.
        for i in 0..50 {
            assert_eq!(q.pop(), Some(i));
        }
        producer.join().unwrap();
        assert_eq!(pushed.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn close_drains_remaining_items_then_stops() {
        let q = BoundedQueue::new(8, "test.depth");
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "push after close hands the item back");
        assert_eq!(q.pop(), Some(1), "accepted items survive the close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn depth_gauge_tracks_live_queue_depth() {
        // With a registry-backed global handle, push/pop mirror the
        // instantaneous depth into a `<metric>.now` gauge.
        let reg = Arc::new(telemetry::MetricsRegistry::new());
        telemetry::set_global(telemetry::Telemetry::with_registry(
            telemetry::VecSink::new(),
            Arc::clone(&reg),
        ));
        let q = BoundedQueue::new(8, "gaugetest.depth");
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!((reg.snapshot().gauge("gaugetest.depth.now") - 2.0).abs() < 1e-12);
        let _ = q.pop();
        assert!((reg.snapshot().gauge("gaugetest.depth.now") - 1.0).abs() < 1e-12);
        telemetry::set_global(telemetry::Telemetry::disabled());
        // On the disabled handle the gauge path is a no-op and pushes still
        // work.
        q.push(3).unwrap();
        assert!((reg.snapshot().gauge("gaugetest.depth.now") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(2, "test.depth"));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn close_while_many_consumers_blocked_wakes_all_and_drains_exactly_once() {
        // The server's shutdown path: several workers are parked in `pop`
        // on a non-empty-then-empty queue when `close` lands. Every one of
        // them must wake (no deadlocked thread left behind), the remaining
        // items must each be delivered to exactly one consumer, and every
        // consumer must eventually observe `None`.
        for round in 0..20 {
            let q = Arc::new(BoundedQueue::<u32>::new(8, "test.depth"));
            let consumers: Vec<_> = (0..6)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Some(item) = q.pop() {
                            got.push(item);
                        }
                        got
                    })
                })
                .collect();
            // Let the consumers park, then race a few items against close.
            // Varying the pre-close sleep across rounds shifts the
            // interleaving between "all parked" and "mid-drain".
            std::thread::sleep(Duration::from_micros(200 * round));
            for i in 0..5 {
                q.push(i).unwrap();
            }
            q.close();
            let mut delivered: Vec<u32> = Vec::new();
            for c in consumers {
                delivered.extend(c.join().expect("no consumer may deadlock or panic"));
            }
            delivered.sort_unstable();
            assert_eq!(delivered, vec![0, 1, 2, 3, 4], "each item drains exactly once");
        }
    }
}
