//! [`DevicePool`]: N simulated device slots with fair-share allocation.
//!
//! Runner workers acquire a device lease before measuring, exactly like
//! AutoTVM runners attaching to boards on an RPC tracker. The pool adds
//! two behaviors on top of plain slot handout:
//!
//! * **fair share across tasks** — leases are tagged (by task name); when
//!   several tasks compete for the pool, a task already holding its fair
//!   share (`ceil(devices / active_tags)`) yields to a waiting task
//!   instead of monopolizing the pool. The cap is *soft*: a surplus of
//!   free devices, or the absence of any other waiter, lets a task exceed
//!   it, so devices never idle while exactly one task wants them.
//! * **hard per-tag quotas** — [`DevicePool::set_tag_cap`] pins an
//!   absolute ceiling on the devices one tag may hold at once. Unlike the
//!   soft fair-share cap it is never exceeded, even when the rest of the
//!   pool sits idle: a serving deployment uses it as the per-tenant device
//!   quota, so one tenant's burst cannot occupy another tenant's share.
//! * **occupancy emulation** — an optional real-time hold keeps the
//!   device (and its runner) busy for a configurable duration per lease,
//!   standing in for the device-side round-trip a simulator otherwise
//!   lacks. Results are unaffected; only wall-clock occupancy is modeled.
//!
//! Fairness can transiently leave a free device idle when every waiting
//! tag is at its cap; the next lease release re-evaluates, so stalls are
//! bounded by a single measurement. Telemetry: per-device acquire/busy
//! counters (`exec.device.N.*`) and a pool-wide busy histogram.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use telemetry::sync::lock_or_recover;

/// A pool of simulated device slots shared by runner workers.
#[derive(Debug)]
pub struct DevicePool {
    state: Mutex<PoolState>,
    freed: Condvar,
    devices: usize,
    hold: Duration,
}

#[derive(Debug)]
struct PoolState {
    /// Free device ids (LIFO: hot devices are reused first).
    free: Vec<usize>,
    /// Per-tag accounting; entries are removed once a tag goes idle.
    tags: BTreeMap<String, TagState>,
    /// Hard per-tag ceilings ([`DevicePool::set_tag_cap`]). Kept separate
    /// from `tags` so a quota outlives the tag going idle.
    caps: BTreeMap<String, usize>,
}

#[derive(Debug, Default)]
struct TagState {
    in_use: usize,
    waiting: usize,
}

impl DevicePool {
    /// A pool of `devices` slots with no occupancy emulation.
    #[must_use]
    pub fn new(devices: usize) -> Arc<Self> {
        Self::with_hold(devices, Duration::ZERO)
    }

    /// A pool of `devices` slots whose leases each occupy their device for
    /// at least `hold` of real time.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    #[must_use]
    pub fn with_hold(devices: usize, hold: Duration) -> Arc<Self> {
        assert!(devices > 0, "a device pool needs at least one device");
        Arc::new(DevicePool {
            state: Mutex::new(PoolState {
                free: (0..devices).rev().collect(),
                tags: BTreeMap::new(),
                caps: BTreeMap::new(),
            }),
            freed: Condvar::new(),
            devices,
            hold,
        })
    }

    /// Number of device slots.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Devices currently free (diagnostic).
    #[must_use]
    pub fn free_now(&self) -> usize {
        lock_or_recover(&self.state).free.len()
    }

    /// Sets (or with `None` clears) a *hard* ceiling on the devices `tag`
    /// may hold concurrently. The quota composes with the soft fair-share
    /// cap: a tag is eligible only when it is under both. A cap of zero is
    /// clamped to one — a zero quota would block that tag's `acquire`
    /// forever. Already-held leases are unaffected; the quota bites on the
    /// next acquisition.
    pub fn set_tag_cap(&self, tag: &str, cap: Option<usize>) {
        let mut st = lock_or_recover(&self.state);
        match cap {
            Some(c) => {
                st.caps.insert(tag.to_string(), c.max(1));
            }
            None => {
                st.caps.remove(tag);
            }
        }
        drop(st);
        // A raised/cleared quota may make a blocked waiter eligible.
        self.freed.notify_all();
    }

    /// The hard quota currently set for `tag`, if any.
    #[must_use]
    pub fn tag_cap(&self, tag: &str) -> Option<usize> {
        lock_or_recover(&self.state).caps.get(tag).copied()
    }

    /// Blocks until a device is available to `tag` under fair share, then
    /// leases it. The lease releases its device on drop.
    #[must_use]
    pub fn acquire(self: &Arc<Self>, tag: &str) -> DeviceLease {
        let mut st = lock_or_recover(&self.state);
        st.tags.entry(tag.to_string()).or_default().waiting += 1;
        loop {
            if let Some(id) = self.try_take(&mut st, tag) {
                // aal-lint: allow(unwrap, reason = "the tag was registered earlier in this function")
                let me = st.tags.get_mut(tag).expect("tag registered above");
                me.waiting -= 1;
                me.in_use += 1;
                drop(st);
                let tel = telemetry::global();
                tel.count("exec.device.acquires", 1);
                tel.count(&format!("exec.device.{id}.acquires"), 1);
                #[allow(clippy::cast_precision_loss)]
                let busy = (self.devices - self.free_now()) as f64;
                tel.observe("exec.device.pool_busy", busy);
                if tel.is_enabled() {
                    tel.gauge("exec.devices.busy.now", busy);
                    tel.gauge(&format!("exec.device.{id}.busy.now"), 1.0);
                }
                return DeviceLease {
                    pool: Arc::clone(self),
                    id,
                    tag: tag.to_string(),
                    // aal-lint: allow(wall-clock, reason = "device lease hold-time metric; observability only")
                    acquired: Instant::now(),
                };
            }
            st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pops a free device for `tag` if fair share allows it right now.
    fn try_take(&self, st: &mut PoolState, tag: &str) -> Option<usize> {
        if st.free.is_empty() {
            return None;
        }
        let active = st.tags.values().filter(|t| t.in_use + t.waiting > 0).count().max(1);
        let cap = self.devices.div_ceil(active);
        // aal-lint: allow(unwrap, reason = "acquire registers the tag before try_take can run")
        let me = st.tags.get(tag).expect("tag registered before try_take");
        // A hard quota is absolute: at the ceiling the tag is ineligible no
        // matter how idle the rest of the pool is.
        if let Some(&hard) = st.caps.get(tag) {
            if me.in_use >= hard {
                return None;
            }
        }
        let other_waiters =
            st.tags.iter().filter(|(name, t)| name.as_str() != tag && t.waiting > 0).count();
        // Under the cap: always eligible. Over it: only when no other tag
        // is waiting, or enough free devices remain for every other
        // waiting tag to take one anyway.
        let eligible = me.in_use < cap || other_waiters == 0 || st.free.len() > other_waiters;
        if eligible {
            st.free.pop()
        } else {
            None
        }
    }

    /// Returns `id` to the pool (lease drop).
    fn release(&self, id: usize, tag: &str) {
        let mut st = lock_or_recover(&self.state);
        st.free.push(id);
        if let Some(me) = st.tags.get_mut(tag) {
            me.in_use = me.in_use.saturating_sub(1);
            if me.in_use == 0 && me.waiting == 0 {
                st.tags.remove(tag);
            }
        }
        drop(st);
        self.freed.notify_all();
    }
}

/// An exclusive hold on one device slot; releases on drop.
#[derive(Debug)]
pub struct DeviceLease {
    pool: Arc<DevicePool>,
    id: usize,
    tag: String,
    acquired: Instant,
}

impl DeviceLease {
    /// The leased device id, `0..pool.devices()`.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for DeviceLease {
    fn drop(&mut self) {
        // Occupancy emulation: pad the lease to the configured hold, as if
        // the device were still crunching the kernel's timed repeats.
        let elapsed = self.acquired.elapsed();
        if self.pool.hold > elapsed {
            std::thread::sleep(self.pool.hold - elapsed);
        }
        let busy = self.acquired.elapsed();
        let tel = telemetry::global();
        #[allow(clippy::cast_possible_truncation)]
        let busy_us = busy.as_micros() as u64;
        tel.count(&format!("exec.device.{}.busy_us", self.id), busy_us);
        #[allow(clippy::cast_precision_loss)]
        tel.observe("exec.device.busy_us", busy_us as f64);
        self.pool.release(self.id, &self.tag);
        if tel.is_enabled() {
            tel.gauge(&format!("exec.device.{}.busy.now", self.id), 0.0);
            #[allow(clippy::cast_precision_loss)]
            let busy = (self.pool.devices - self.pool.free_now()) as f64;
            tel.gauge("exec.devices.busy.now", busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn leases_hand_out_distinct_devices_and_release_on_drop() {
        let pool = DevicePool::new(2);
        let a = pool.acquire("t1");
        let b = pool.acquire("t1");
        assert_ne!(a.id(), b.id());
        assert_eq!(pool.free_now(), 0);
        drop(a);
        assert_eq!(pool.free_now(), 1);
        let c = pool.acquire("t1");
        drop(b);
        drop(c);
        assert_eq!(pool.free_now(), 2);
    }

    #[test]
    fn single_tag_can_use_the_whole_pool() {
        // The cap is soft: with nobody else waiting, one task takes all.
        let pool = DevicePool::new(3);
        let leases: Vec<_> = (0..3).map(|_| pool.acquire("only")).collect();
        assert_eq!(pool.free_now(), 0);
        drop(leases);
    }

    #[test]
    fn fair_share_lets_a_waiting_tag_in() {
        // Tag A holds both devices; when A releases one while B waits, B
        // must get it even if A asked again first.
        let pool = DevicePool::new(2);
        let a1 = pool.acquire("a");
        let a2 = pool.acquire("a");
        let b_got = Arc::new(AtomicUsize::new(usize::MAX));
        let waiter = {
            let (pool, b_got) = (Arc::clone(&pool), Arc::clone(&b_got));
            std::thread::spawn(move || {
                let lease = pool.acquire("b");
                b_got.store(lease.id(), Ordering::SeqCst);
                lease
            })
        };
        // Give the waiter time to register, then free one device. A is at
        // its fair-share cap (ceil(2/2) = 1) while B waits, so the freed
        // device must go to B even though this thread could also re-ask.
        while lock_or_recover(&pool.state).tags.get("b").map_or(0, |t| t.waiting) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(a1);
        let b_lease = waiter.join().unwrap();
        assert_ne!(b_got.load(Ordering::SeqCst), usize::MAX);
        // With B holding one and A holding one, a fresh A request is over
        // cap only if B waits again; B is satisfied, so A may proceed.
        drop(a2);
        let a3 = pool.acquire("a");
        drop(a3);
        drop(b_lease);
        assert_eq!(pool.free_now(), 2);
    }

    #[test]
    fn occupancy_hold_pads_short_leases() {
        let pool = DevicePool::with_hold(1, Duration::from_millis(30));
        let t0 = Instant::now();
        drop(pool.acquire("t"));
        assert!(t0.elapsed() >= Duration::from_millis(30), "lease must hold the device");
    }

    #[test]
    fn hard_cap_binds_even_on_an_idle_pool() {
        // Unlike the soft fair-share cap, a quota holds with zero
        // contention: the tag blocks at its ceiling while devices idle.
        let pool = DevicePool::new(4);
        pool.set_tag_cap("tenant", Some(2));
        assert_eq!(pool.tag_cap("tenant"), Some(2));
        let a = pool.acquire("tenant");
        let b = pool.acquire("tenant");
        assert_eq!(pool.free_now(), 2);
        let blocked = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.acquire("tenant"))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!blocked.is_finished(), "third lease must block at the quota");
        // Another tag is unaffected by tenant's quota.
        let other = pool.acquire("other");
        drop(a);
        let c = blocked.join().unwrap();
        drop(b);
        drop(c);
        drop(other);
        // Clearing the quota lifts the ceiling.
        pool.set_tag_cap("tenant", None);
        let all: Vec<_> = (0..4).map(|_| pool.acquire("tenant")).collect();
        assert_eq!(pool.free_now(), 0);
        drop(all);
        // A zero cap is clamped to one instead of deadlocking acquire.
        pool.set_tag_cap("z", Some(0));
        assert_eq!(pool.tag_cap("z"), Some(1));
        drop(pool.acquire("z"));
    }
}

#[cfg(test)]
mod quota_properties {
    use super::*;
    use proptest::prelude::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tracks the concurrent high-water mark of leases per tag.
    struct HighWater {
        now: AtomicUsize,
        max: AtomicUsize,
    }

    impl HighWater {
        fn new() -> Self {
            HighWater { now: AtomicUsize::new(0), max: AtomicUsize::new(0) }
        }

        fn enter(&self) {
            let n = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(n, Ordering::SeqCst);
        }

        fn exit(&self) {
            self.now.fetch_sub(1, Ordering::SeqCst);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Fair share under quotas, ≥3 concurrent tags, panicking workers:
        /// no tag ever holds more devices than its hard cap, and every
        /// lease — including those dropped during a panic unwind — returns
        /// to the pool (no leaks: the pool ends fully free).
        #[test]
        fn quotas_hold_and_leases_never_leak_under_panics(
            devices in 1usize..6,
            caps in proptest::collection::vec(1usize..4, 3..5),
            leases_per_tag in 2usize..8,
            panic_mask in 0u32..64,
        ) {
            let pool = DevicePool::new(devices);
            let tags: Vec<String> = (0..caps.len()).map(|i| format!("tenant-{i}")).collect();
            for (tag, &cap) in tags.iter().zip(&caps) {
                pool.set_tag_cap(tag, Some(cap));
            }
            let water: Vec<Arc<HighWater>> =
                tags.iter().map(|_| Arc::new(HighWater::new())).collect();
            let workers: Vec<_> = tags
                .iter()
                .enumerate()
                .map(|(i, tag)| {
                    let pool = Arc::clone(&pool);
                    let water = Arc::clone(&water[i]);
                    let tag = tag.clone();
                    std::thread::spawn(move || {
                        for n in 0..leases_per_tag {
                            // A panicking worker must still release its
                            // lease through the unwind.
                            let panics = panic_mask & (1 << ((i * leases_per_tag + n) % 6)) != 0;
                            let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                let lease = pool.acquire(&tag);
                                water.enter();
                                std::thread::sleep(Duration::from_micros(200));
                                water.exit();
                                assert!(!panics, "injected worker panic");
                                drop(lease);
                            }));
                            let _ = attempt;
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            for (i, (&cap, hw)) in caps.iter().zip(&water).enumerate() {
                let seen = hw.max.load(Ordering::SeqCst);
                prop_assert!(
                    seen <= cap.min(devices),
                    "tag {i} held {seen} devices concurrently, cap {cap}, pool {devices}"
                );
            }
            prop_assert_eq!(pool.free_now(), devices, "leases leaked (panic unwind?)");
        }
    }
}
