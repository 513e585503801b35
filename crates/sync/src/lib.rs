//! Deadlock-auditing lock wrappers: one lock hierarchy, enforced where
//! locks are taken.
//!
//! [`DebugMutex`] and [`DebugRwLock`] are drop-in replacements for the
//! plain `Mutex` / `RwLock` the workspace holds its shared state in
//! (cache-affinity router, near-storage caches, connector registry,
//! pushdown monitor, metrics registry, object store). Every lock is built
//! with a **class** and a **rank** ([`DebugMutex::named`]), which must
//! match its row in `LOCK_ORDER.md` at the repo root (`xtask lint` checks
//! the call sites against the table). In release builds without the
//! `lock-audit` feature the wrappers compile down to `std::sync`
//! primitives with poison recovery and nothing else; class and rank are
//! ignored.
//!
//! Under `cfg(debug_assertions)` **or** the `lock-audit` feature, every
//! acquisition is audited *before it can block* against a **per-thread
//! lockset** (see [`audit`]):
//!
//! * a reentrant acquire (guaranteed deadlock on `std` locks) panics with
//!   the thread's lock path instead of hanging;
//! * nesting two instances of one class panics (another thread nesting
//!   them the other way around would deadlock);
//! * acquiring a lock whose rank is not strictly above every lock the
//!   thread holds panics as a lock-order inversion.
//!
//! Because the audit runs in every debug build, the entire test suite
//! doubles as a deadlock regression harness: one out-of-order nesting on
//! any tested path fails the first test that runs it, even when the two
//! acquisitions sit in different functions.

#![warn(missing_docs)]

use std::fmt;
use std::sync::{self, MutexGuard as StdMutexGuard};
use std::sync::{RwLockReadGuard as StdReadGuard, RwLockWriteGuard as StdWriteGuard};

#[cfg(any(debug_assertions, feature = "lock-audit"))]
pub mod audit;

#[cfg(any(debug_assertions, feature = "lock-audit"))]
use audit::{AcquireMode, HeldToken, LockMeta};

/// True when acquisitions are being audited in this build.
pub const fn audit_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "lock-audit"))
}

/// A mutex audited for lock-order inversions and reentrant acquires.
///
/// `lock()` never returns a poison error (a poisoned lock is recovered
/// transparently, matching the `parking_lot` API the workspace migrated
/// from).
pub struct DebugMutex<T: ?Sized> {
    #[cfg(any(debug_assertions, feature = "lock-audit"))]
    meta: LockMeta,
    inner: sync::Mutex<T>,
}

impl<T> DebugMutex<T> {
    /// An audited mutex of lock class `class` (one class per *role*,
    /// shared by every instance constructed with the same name) at
    /// position `rank` in the hierarchy; both as declared in
    /// `LOCK_ORDER.md`.
    pub fn named(class: &str, rank: u32, value: T) -> DebugMutex<T> {
        #[cfg(not(any(debug_assertions, feature = "lock-audit")))]
        let _ = (class, rank);
        DebugMutex {
            #[cfg(any(debug_assertions, feature = "lock-audit"))]
            meta: LockMeta::named(class, rank),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> DebugMutex<T> {
    /// Acquire the lock (audited first, so a would-be deadlock panics
    /// with the ranks and the thread's lock path instead of blocking
    /// forever).
    #[cfg_attr(any(debug_assertions, feature = "lock-audit"), track_caller)]
    pub fn lock(&self) -> DebugMutexGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-audit"))]
        let token = audit::acquire(&self.meta, AcquireMode::Exclusive);
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        DebugMutexGuard {
            inner,
            #[cfg(any(debug_assertions, feature = "lock-audit"))]
            _token: token,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DebugMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("DebugMutex");
        match self.inner.try_lock() {
            Ok(guard) => d.field("data", &&*guard),
            Err(_) => d.field("data", &"<locked>"),
        };
        d.finish()
    }
}

/// Guard returned by [`DebugMutex::lock`].
pub struct DebugMutexGuard<'a, T: ?Sized> {
    inner: StdMutexGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lock-audit"))]
    _token: HeldToken,
}

impl<T: ?Sized> std::ops::Deref for DebugMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for DebugMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DebugMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock audited for lock-order inversions and reentrant
/// acquires (a same-thread `read` inside `read` is flagged too: with a
/// queued writer in between it deadlocks on `std::sync::RwLock`).
pub struct DebugRwLock<T: ?Sized> {
    #[cfg(any(debug_assertions, feature = "lock-audit"))]
    meta: LockMeta,
    inner: sync::RwLock<T>,
}

impl<T> DebugRwLock<T> {
    /// An audited rwlock of lock class `class` at position `rank` (see
    /// [`DebugMutex::named`]).
    pub fn named(class: &str, rank: u32, value: T) -> DebugRwLock<T> {
        #[cfg(not(any(debug_assertions, feature = "lock-audit")))]
        let _ = (class, rank);
        DebugRwLock {
            #[cfg(any(debug_assertions, feature = "lock-audit"))]
            meta: LockMeta::named(class, rank),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> DebugRwLock<T> {
    /// Acquire a shared read guard (audited first).
    #[cfg_attr(any(debug_assertions, feature = "lock-audit"), track_caller)]
    pub fn read(&self) -> DebugReadGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-audit"))]
        let token = audit::acquire(&self.meta, AcquireMode::Shared);
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        DebugReadGuard {
            inner,
            #[cfg(any(debug_assertions, feature = "lock-audit"))]
            _token: token,
        }
    }

    /// Acquire an exclusive write guard (audited first).
    #[cfg_attr(any(debug_assertions, feature = "lock-audit"), track_caller)]
    pub fn write(&self) -> DebugWriteGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lock-audit"))]
        let token = audit::acquire(&self.meta, AcquireMode::Exclusive);
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        DebugWriteGuard {
            inner,
            #[cfg(any(debug_assertions, feature = "lock-audit"))]
            _token: token,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DebugRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("DebugRwLock");
        match self.inner.try_read() {
            Ok(guard) => d.field("data", &&*guard),
            Err(_) => d.field("data", &"<locked>"),
        };
        d.finish()
    }
}

/// Shared guard returned by [`DebugRwLock::read`].
pub struct DebugReadGuard<'a, T: ?Sized> {
    inner: StdReadGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lock-audit"))]
    _token: HeldToken,
}

impl<T: ?Sized> std::ops::Deref for DebugReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DebugReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive guard returned by [`DebugRwLock::write`].
pub struct DebugWriteGuard<'a, T: ?Sized> {
    inner: StdWriteGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lock-audit"))]
    _token: HeldToken,
}

impl<T: ?Sized> std::ops::Deref for DebugWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for DebugWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DebugWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_lock_unlock() {
        let m = DebugMutex::named("test.basic", 10, 41);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_readers_then_writer() {
        let l = DebugRwLock::named("test.rw", 10, vec![1, 2, 3]);
        {
            let r = l.read();
            assert_eq!(r.len(), 3);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn get_mut_bypasses_the_lock() {
        let mut m = DebugMutex::named("test.get_mut", 10, 1u64);
        *m.get_mut() += 1;
        assert_eq!(*m.lock(), 2);
        let mut l = DebugRwLock::named("test.get_mut.rw", 10, 0u32);
        *l.get_mut() += 3;
        assert_eq!(*l.read(), 3);
    }

    #[test]
    fn concurrent_counting() {
        let m = Arc::new(DebugMutex::named("test.concurrent", 10, 0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn consistent_nesting_is_fine() {
        // outer (rank 10) -> inner (rank 20) in many threads concurrently:
        // a legal hierarchy, never flagged.
        let a = Arc::new(DebugMutex::named("test.nest.outer", 10, ()));
        let b = Arc::new(DebugMutex::named("test.nest.inner", 20, 0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..100 {
                        let _ga = a.lock();
                        *b.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*b.lock(), 400);
    }

    #[cfg(any(debug_assertions, feature = "lock-audit"))]
    mod audited {
        use super::*;

        #[test]
        #[should_panic(expected = "reentrant acquire")]
        fn reentrant_mutex_panics_instead_of_deadlocking() {
            let m = DebugMutex::named("test.reentrant", 10, ());
            let _g = m.lock();
            let _g2 = m.lock();
        }

        #[test]
        #[should_panic(expected = "reentrant acquire")]
        fn reentrant_read_panics() {
            let l = DebugRwLock::named("test.reentrant.rw", 10, ());
            let _r1 = l.read();
            // With a writer queued between the two reads this deadlocks on
            // std::sync::RwLock, so the auditor treats it as an error.
            let _r2 = l.read();
        }

        #[test]
        #[should_panic(expected = "lock-order inversion")]
        fn single_out_of_rank_nesting_panics() {
            // The reverse order (a -> b) never runs: the ranks alone say
            // that b -> a can deadlock against it.
            let a = DebugMutex::named("test.single.a", 10, ());
            let b = DebugMutex::named("test.single.b", 20, ());
            let _gb = b.lock();
            let _ga = a.lock();
        }

        #[test]
        #[should_panic(expected = "lock-order inversion")]
        fn deliberate_inversion_is_caught() {
            // Establish a -> b, then acquire b -> a. Single-threaded, yet
            // two threads interleaving these paths can deadlock.
            let a = DebugMutex::named("test.inv.a", 10, ());
            let b = DebugMutex::named("test.inv.b", 20, ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            let _gb = b.lock();
            let _ga = a.lock(); // inversion: panics with both ranks
        }

        #[test]
        #[should_panic(expected = "lock-order inversion")]
        fn cross_thread_inversion_is_caught_without_interleaving() {
            // Thread 1 takes x then y and finishes completely before the
            // main thread takes y then x: no timing ever deadlocks this
            // run, but the second order breaks the ranks.
            let x = Arc::new(DebugMutex::named("test.cross.x", 10, ()));
            let y = Arc::new(DebugMutex::named("test.cross.y", 20, ()));
            let (x1, y1) = (x.clone(), y.clone());
            std::thread::spawn(move || {
                let _gx = x1.lock();
                let _gy = y1.lock();
            })
            .join()
            .ok();
            let _gy = y.lock();
            let _gx = x.lock();
        }

        #[test]
        #[should_panic(expected = "lock-order inversion")]
        fn three_lock_cycle_is_caught() {
            let a = DebugMutex::named("test.tri.a", 10, ());
            let b = DebugMutex::named("test.tri.b", 20, ());
            let c = DebugMutex::named("test.tri.c", 30, ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _gc = c.lock();
            }
            let _gc = c.lock();
            let _ga = a.lock(); // would close the a -> b -> c -> a cycle
        }

        #[test]
        #[should_panic(expected = "while holding a lock of the same class")]
        fn same_class_instances_nested_panics() {
            // Two instances sharing one class nested: safe in this exact
            // order, but another thread nesting them the other way around
            // deadlocks, so class-level analysis rejects it.
            let a = DebugMutex::named("test.sameclass", 10, 1);
            let b = DebugMutex::named("test.sameclass", 10, 2);
            let _ga = a.lock();
            let _gb = b.lock();
        }

        #[test]
        #[should_panic(expected = "while holding a lock of the same class")]
        fn same_class_readers_nested_panics() {
            // Shared reads of two instances of one class nest no better: a
            // writer queued on each turns them into the same deadlock.
            let a = DebugRwLock::named("test.sameclass.rw", 10, ());
            let b = DebugRwLock::named("test.sameclass.rw", 10, ());
            let _ra = a.read();
            let _rb = b.read();
        }

        #[test]
        fn lockset_reports_current_thread_path() {
            let a = DebugMutex::named("test.path.outer", 10, ());
            let b = DebugMutex::named("test.path.inner", 20, ());
            assert_eq!(audit::held_lock_names(), Vec::<String>::new());
            let _ga = a.lock();
            let _gb = b.lock();
            assert_eq!(
                audit::held_lock_names(),
                vec!["test.path.outer".to_string(), "test.path.inner".into()]
            );
            drop(_gb);
            assert_eq!(
                audit::held_lock_names(),
                vec!["test.path.outer".to_string()]
            );
        }

        #[test]
        fn out_of_order_guard_drops_release_correctly() {
            let a = DebugMutex::named("test.ooo.a", 10, ());
            let b = DebugMutex::named("test.ooo.b", 20, ());
            let ga = a.lock();
            let gb = b.lock();
            drop(ga); // release the *outer* guard first
            assert_eq!(audit::held_lock_names(), vec!["test.ooo.b".to_string()]);
            drop(gb);
            assert!(audit::held_lock_names().is_empty());
        }
    }
}
