//! The workspace's single lock-poisoning policy.
//!
//! Every `Mutex`/`RwLock` acquisition in the stack goes through these three
//! helpers instead of `.lock().unwrap()` at the call site (enforced by
//! aal-lint's `lock-unwrap` rule). The policy is **observe and recover**:
//! a poisoned lock yields its inner data instead of cascading the panic.
//!
//! Why recovery is sound here, uniformly:
//!
//! * Guarded state is either monotone (counters, histograms, append-only
//!   record vectors) or re-derivable (fault attempt counters, progress
//!   journals, device free-lists), so a write interrupted by a panic leaves data that
//!   is stale at worst, never load-bearing-corrupt.
//! * Durability never depends on in-memory state surviving a panic: the
//!   crash-safety discipline (append-before-apply, `durable::replace`)
//!   treats *process death* as the failure model, which subsumes panics.
//! * The panicking thread still unwinds: worker panics surface at `join`
//!   in the executor, so recovery cannot mask a failure — it only keeps
//!   telemetry shutdown paths and sibling workers from dying in sympathy.
//!
//! If a future structure violates these assumptions (a multi-step update
//! whose intermediate state must never be seen), it needs its own explicit
//! handling — not a fourth helper here.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquires `m`, recovering the data if a previous holder panicked.
pub fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-acquires `l`, recovering the data if a writer panicked.
pub fn read_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-acquires `l`, recovering the data if a previous holder panicked.
pub fn write_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_or_recover(&m), 1);
        *lock_or_recover(&m) = 2;
        assert_eq!(*lock_or_recover(&m), 2);
    }

    #[test]
    fn recovers_a_poisoned_rwlock() {
        let l = Arc::new(RwLock::new(7u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*read_or_recover(&l), 7);
        *write_or_recover(&l) = 8;
        assert_eq!(*read_or_recover(&l), 8);
    }

    #[test]
    fn plain_acquisition_passes_through() {
        let m = Mutex::new(Vec::<u8>::new());
        lock_or_recover(&m).push(3);
        assert_eq!(*lock_or_recover(&m), vec![3]);
    }
}
