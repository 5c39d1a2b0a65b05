//! The workspace's one fan-out: run many independent work items
//! concurrently while returning results in a deterministic order.
//!
//! It tunes several `TuningTask`s at once, measures each batch of an
//! [`crate::Executor`], and runs BS's bootstrap fits and BTED's batches:
//! each item is claimed in index order by a bounded pool of scoped
//! threads and the calling thread, and the result vector is assembled by
//! index, so callers observe exactly the output of the serial loop
//! regardless of completion order. Fair-share *device* allocation between
//! concurrent tasks happens in [`crate::DevicePool`], keyed by the task
//! name each measurement batch carries.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock, PoisonError};
use telemetry::sync::lock_or_recover;

/// The CPUs this process may run on, read once per process.
///
/// [`std::thread::available_parallelism`] honours the affinity mask
/// (`taskset`) and, on Linux, reads cgroup quota files, which is too slow
/// for a per-step call.
#[must_use]
pub fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

thread_local! {
    /// The calling thread's CPU share, when something narrowed it.
    static CPU_SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The CPUs the calling thread may keep busy with CPU-bound work of its
/// own, such as the bootstrap fits of one BAO step; callers size an inner
/// [`run_ordered`] with it, and a share of one makes that a plain
/// in-thread loop.
///
/// All of [`available_cpus`] unless narrowed: each `run_ordered` worker
/// gets an even split of its caller's share (at least one), so nested
/// fan-out, such as concurrent tasks each fitting concurrently, runs no
/// more busy threads than there are CPUs.
#[must_use]
pub fn cpu_share() -> usize {
    CPU_SHARE.with(Cell::get).unwrap_or_else(available_cpus)
}

/// Narrows the calling thread's [`cpu_share`] to `cpus` (at least one),
/// for a long-lived worker thread that runs beside others of its kind.
pub fn set_cpu_share(cpus: usize) {
    CPU_SHARE.with(|share| share.set(Some(cpus.max(1))));
}

/// Restores the thread's [`cpu_share`] when dropped, panics included.
struct ShareGuard(Option<usize>);

impl ShareGuard {
    /// Narrows the calling thread's share to `cpus` until the guard drops.
    fn narrow(cpus: usize) -> Self {
        ShareGuard(CPU_SHARE.with(|share| share.replace(Some(cpus.max(1)))))
    }
}

impl Drop for ShareGuard {
    fn drop(&mut self) {
        CPU_SHARE.with(|share| share.set(self.0));
    }
}

/// Runs `f` over every item on up to `concurrency` threads, the calling
/// thread included, returning results in item order (index `i` of the
/// output is item `i`'s result, as if the loop had run serially).
///
/// Items are claimed in index order, so an item may wait for an earlier
/// one that never waits itself without risking deadlock.
///
/// `concurrency <= 1` degrades to a plain in-thread loop — no threads are
/// spawned, so the serial path is bit-for-bit the pre-parallel behavior.
/// Otherwise `concurrency - 1` workers are spawned and the calling thread
/// claims items beside them; each of them, the caller included while it
/// runs items, gets the caller's [`cpu_share`] split evenly.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn run_ordered<T, R, F>(items: Vec<T>, concurrency: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let concurrency = concurrency.clamp(1, n.max(1));
    if concurrency <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let share = (cpu_share() / concurrency).max(1);
    let work = Mutex::new(items.into_iter().enumerate());
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let drain = || {
        let _share = ShareGuard::narrow(share);
        loop {
            // Claim the next item in index order; drop the lock before the
            // (long) call so claims never serialize the work.
            let claimed = lock_or_recover(&work).next();
            let Some((i, item)) = claimed else { break };
            let r = f(i, item);
            *lock_or_recover(&results[i]) = Some(r);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..concurrency {
            scope.spawn(drain);
        }
        drain();
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // aal-lint: allow(unwrap, reason = "scoped join guarantees every claimed slot was filled")
                .expect("scope join guarantees every claimed slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_item_order_for_any_concurrency() {
        let items: Vec<usize> = (0..37).collect();
        let serial = run_ordered(items.clone(), 1, |i, x| (i, x * x));
        for workers in [2, 4, 16] {
            let parallel = run_ordered(items.clone(), workers, |i, x| (i, x * x));
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = run_ordered((0..100).collect(), 8, |_, x: i32| {
            hits.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn nested_workers_split_the_callers_cpu_share() {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                set_cpu_share(8);
                assert_eq!(cpu_share(), 8);
                // The in-thread loop keeps the caller's share.
                assert_eq!(run_ordered(vec![()], 4, |_, ()| cpu_share()), vec![8]);
                assert_eq!(run_ordered(vec![(); 4], 2, |_, ()| cpu_share()), vec![4; 4]);
                // Three workers on eight CPUs get two each, and a split
                // below one CPU still leaves every worker one.
                assert_eq!(run_ordered(vec![(); 3], 3, |_, ()| cpu_share()), vec![2; 3]);
                assert_eq!(run_ordered(vec![(); 16], 16, |_, ()| cpu_share()), vec![1; 16]);
                // Nesting splits the worker's share again.
                let nested = run_ordered(vec![(); 2], 2, |_, ()| {
                    run_ordered(vec![(); 2], 2, |_, ()| cpu_share())
                });
                assert_eq!(nested, vec![vec![2; 2]; 2]);
            });
        });
    }

    #[test]
    fn the_calling_thread_runs_items_beside_its_workers() {
        // Both items block until both run, so with one spawned worker the
        // caller must take the other.
        let both = std::sync::Barrier::new(2);
        let ids = run_ordered(vec![(); 2], 2, |_, ()| {
            both.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&std::thread::current().id()), "caller ran no item: {ids:?}");
    }

    #[test]
    fn the_callers_share_is_restored_after_running_items() {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                set_cpu_share(8);
                let shares = run_ordered(vec![(); 8], 2, |_, ()| cpu_share());
                assert_eq!(shares, vec![4; 8]);
                assert_eq!(cpu_share(), 8);
                let panicked = std::panic::catch_unwind(|| {
                    run_ordered(vec![0, 1, 2, 3], 2, |_, x: i32| assert!(x < 0, "item {x}"))
                });
                assert!(panicked.is_err());
                assert_eq!(cpu_share(), 8, "a panicking item must not leak the narrowed share");
            });
        });
    }

    #[test]
    fn concurrency_is_clamped_to_item_count() {
        // 1000 workers over 3 items must not spawn 1000 threads or hang.
        let out = run_ordered(vec![1, 2, 3], 1000, |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert!(run_ordered(Vec::<u8>::new(), 4, |_, x| x).is_empty());
    }
}
