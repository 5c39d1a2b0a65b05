//! In-process event fan-out: a [`Sink`] that forwards [`Record::Event`]s
//! to live subscribers over bounded channels.
//!
//! The serve subsystem streams per-trial progress to HTTP clients while
//! the same records land in the trace file; [`EventBus`] is the tee
//! point. Design constraints, in order:
//!
//! * **Emitters never block.** Forwarding uses `try_send` on a bounded
//!   channel; a slow or stalled subscriber loses *its own* events (the
//!   drop is counted under [`EVENTS_DROPPED_COUNTER`]) rather than
//!   stalling the tuning loop that emitted them.
//! * **Subscribers self-clean.** A dropped [`EventSub`] disconnects its
//!   channel; the bus prunes disconnected senders on the next publish.
//! * **Events only.** Spans, counters, and histograms stay in the trace
//!   file; live consumers want the domain event stream.

use crate::record::Record;
use crate::sink::Sink;
use crate::sync::lock_or_recover;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Counter bumped once per event dropped because a subscriber's channel
/// was full.
pub const EVENTS_DROPPED_COUNTER: &str = "bus.events.dropped";

/// Per-subscriber channel capacity. Generous enough for a burst of
/// per-trial events between two client reads, small enough to bound a
/// stalled subscriber's memory.
const SUB_CAPACITY: usize = 1024;

/// A cloneable fan-out hub; install it as (part of) a telemetry sink and
/// hand [`EventBus::subscribe`] ends to consumers.
#[derive(Debug, Clone, Default)]
pub struct EventBus {
    subs: Arc<Mutex<Vec<SyncSender<Record>>>>,
}

/// One subscriber's receiving end; dropping it unsubscribes.
#[derive(Debug)]
pub struct EventSub {
    rx: Receiver<Record>,
}

impl EventBus {
    /// An empty bus with no subscribers.
    #[must_use]
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Registers a new subscriber receiving every event published from
    /// now on.
    #[must_use]
    pub fn subscribe(&self) -> EventSub {
        let (tx, rx) = sync_channel(SUB_CAPACITY);
        lock_or_recover(&self.subs).push(tx);
        EventSub { rx }
    }

    /// Subscribers currently registered (disconnected ones may linger
    /// until the next publish prunes them).
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        lock_or_recover(&self.subs).len()
    }

    fn publish(&self, rec: &Record) {
        let mut subs = lock_or_recover(&self.subs);
        let mut dropped = 0u64;
        subs.retain(|tx| match tx.try_send(rec.clone()) {
            Ok(()) => true,
            Err(std::sync::mpsc::TrySendError::Full(_)) => {
                dropped += 1;
                true
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => false,
        });
        drop(subs);
        if dropped > 0 {
            crate::global().count(EVENTS_DROPPED_COUNTER, dropped);
        }
    }
}

impl Sink for EventBus {
    fn record(&self, rec: &Record) {
        if matches!(rec, Record::Event { .. }) {
            self.publish(rec);
        }
    }

    fn flush(&self) {}
}

/// Outcome of [`EventSub::recv_timeout`].
#[derive(Debug)]
pub enum BusRecv {
    /// An event arrived.
    Event(Record),
    /// Nothing within the timeout; the bus is still alive — poll again.
    Timeout,
    /// Every bus clone was dropped — the stream is over.
    Closed,
}

impl EventSub {
    /// Blocks up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> BusRecv {
        match self.rx.recv_timeout(timeout) {
            Ok(rec) => BusRecv::Event(rec),
            Err(RecvTimeoutError::Timeout) => BusRecv::Timeout,
            Err(RecvTimeoutError::Disconnected) => BusRecv::Closed,
        }
    }

    /// Drains everything immediately available without blocking.
    #[must_use]
    pub fn try_drain(&self) -> Vec<Record> {
        let mut out = Vec::new();
        while let Ok(rec) = self.rx.try_recv() {
            out.push(rec);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn event(name: &str) -> Record {
        Record::Event { name: name.into(), span: None, t_us: 0, fields: json!({}) }
    }

    #[test]
    fn subscribers_receive_events_and_only_events() {
        let bus = EventBus::new();
        let sub = bus.subscribe();
        bus.record(&event("trial"));
        bus.record(&Record::Counter { name: "n".into(), value: 1 });
        bus.record(&Record::Schema { version: 2 });
        bus.record(&event("done"));
        let got = sub.try_drain();
        assert_eq!(got.len(), 2, "non-events are filtered out");
        assert_eq!(got[0].name(), "trial");
        assert_eq!(got[1].name(), "done");
    }

    #[test]
    fn dropped_subscriber_is_pruned_and_full_subscriber_never_blocks() {
        let bus = EventBus::new();
        let gone = bus.subscribe();
        drop(gone);
        let full = bus.subscribe();
        assert_eq!(bus.subscriber_count(), 2, "stale sender lingers until next publish");
        // Overfill: the publisher must not block, and the live subscriber
        // keeps the first SUB_CAPACITY events.
        for i in 0..(SUB_CAPACITY + 10) {
            bus.record(&event(&format!("e{i}")));
        }
        assert_eq!(bus.subscriber_count(), 1, "disconnected sender pruned");
        assert_eq!(full.try_drain().len(), SUB_CAPACITY, "overflow dropped, not blocked");
    }

    #[test]
    fn recv_timeout_distinguishes_idle_from_closed() {
        let bus = EventBus::new();
        let sub = bus.subscribe();
        assert!(
            matches!(sub.recv_timeout(Duration::from_millis(5)), BusRecv::Timeout),
            "idle, bus alive"
        );
        bus.record(&event("x"));
        assert!(matches!(sub.recv_timeout(Duration::from_millis(5)), BusRecv::Event(_)));
        drop(bus);
        assert!(matches!(sub.recv_timeout(Duration::from_millis(5)), BusRecv::Closed), "bus gone");
    }
}
