//! The lockset / lock-rank auditor behind [`crate::DebugMutex`] and
//! [`crate::DebugRwLock`].
//!
//! Compiled only under `cfg(debug_assertions)` or the `lock-audit`
//! feature. One data structure: a **thread-local lockset** — the locks
//! the current thread holds, pushed on acquire and removed (by instance
//! id, so guards may drop out of order) on guard drop.
//!
//! Every lock carries the rank it was declared with (`LOCK_ORDER.md`).
//! An acquisition is legal only when its rank is strictly above the rank
//! of every lock the thread already holds, so any single out-of-order
//! nesting panics the first time it runs — no second, reverse-order
//! acquisition has to be seen first, and the two halves of an inversion
//! may sit in different functions.
//!
//! Checks run at **acquire** time (lockdep-style), not at guard drop:
//! detecting the violation before the lock can block turns a potential
//! hang into an immediate, attributable panic.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a lock is being acquired (shown in diagnostics; shared reads and
/// exclusive writes obey the same ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireMode {
    /// `RwLock::read`.
    Shared,
    /// `Mutex::lock` / `RwLock::write`.
    Exclusive,
}

impl AcquireMode {
    fn label(self) -> &'static str {
        match self {
            AcquireMode::Shared => "read",
            AcquireMode::Exclusive => "lock",
        }
    }
}

#[derive(Debug)]
struct MetaInner {
    /// Unique per lock instance (reentrancy is per instance).
    id: u64,
    /// Lock class: shared across instances constructed with the same
    /// [`crate::DebugMutex::named`] name.
    class: String,
    /// Position in the lock hierarchy; nested acquisitions must climb.
    rank: u32,
}

/// Identity of one lock instance, shared with its guards.
#[derive(Debug, Clone)]
pub struct LockMeta(Arc<MetaInner>);

// RELAXED: a pure id allocator — ids only need uniqueness, no ordering
// with any other memory access.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl LockMeta {
    pub(crate) fn named(class: &str, rank: u32) -> LockMeta {
        LockMeta(Arc::new(MetaInner {
            id: next_id(),
            class: class.to_string(),
            rank,
        }))
    }
}

thread_local! {
    static LOCKSET: RefCell<Vec<LockMeta>> = const { RefCell::new(Vec::new()) };
}

/// The classes the current thread holds, outermost first. Exposed for
/// tests and for embedding in panic messages.
pub fn held_lock_names() -> Vec<String> {
    LOCKSET.with_borrow(|set| set.iter().map(|h| h.0.class.clone()).collect())
}

fn lock_path() -> String {
    let names = held_lock_names();
    if names.is_empty() {
        "<none>".to_string()
    } else {
        names.join(" -> ")
    }
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .unwrap_or("<unnamed>")
        .to_string()
}

/// Panic for acquiring `lock` while `held` is held, naming the rule it
/// breaks (both carry `#[track_caller]`, so the panic points at the
/// offending `lock()`/`read()`/`write()` call).
#[track_caller]
fn violation(held: &MetaInner, lock: &MetaInner, mode: AcquireMode) -> ! {
    if held.id == lock.id {
        panic!(
            "sync audit: reentrant acquire of `{}` on thread '{}' \
             (std locks deadlock here); lock path: {}",
            lock.class,
            thread_name(),
            lock_path(),
        );
    }
    if held.class == lock.class {
        panic!(
            "sync audit: thread '{}' {}s `{}` while holding a lock of the same class \
             (another thread nesting two `{}` instances in the opposite order would \
             deadlock); lock path: {}",
            thread_name(),
            mode.label(),
            lock.class,
            lock.class,
            lock_path(),
        );
    }
    panic!(
        "sync audit: lock-order inversion (potential deadlock)\n  \
         thread '{}' {}s `{}` (rank {}) while holding `{}` (rank {})\n  \
         a thread may only acquire a lock ranked strictly above every lock \
         it holds (LOCK_ORDER.md); lock path: {}",
        thread_name(),
        mode.label(),
        lock.class,
        lock.rank,
        held.class,
        held.rank,
        lock_path(),
    );
}

/// Audit one acquisition. Runs **before** the underlying lock can block;
/// panics on reentrancy, same-class nesting, or a rank that does not
/// climb. The returned token removes the lockset entry when the guard
/// drops.
#[track_caller]
pub(crate) fn acquire(meta: &LockMeta, mode: AcquireMode) -> HeldToken {
    let lock = &meta.0;
    let offender = LOCKSET.with_borrow(|set| {
        set.iter()
            .find(|h| h.0.id == lock.id || h.0.class == lock.class || h.0.rank >= lock.rank)
            .cloned()
    });
    if let Some(held) = offender {
        violation(&held.0, lock, mode);
    }
    LOCKSET.with_borrow_mut(|set| set.push(meta.clone()));
    HeldToken { id: lock.id }
}

/// Removes its lockset entry on drop (guards may drop out of order, so
/// removal is by instance id, not a stack pop).
#[derive(Debug)]
pub struct HeldToken {
    id: u64,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        LOCKSET.with_borrow_mut(|set| {
            if let Some(pos) = set.iter().rposition(|h| h.0.id == self.id) {
                set.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_render_for_diagnostics() {
        assert_eq!(AcquireMode::Shared.label(), "read");
        assert_eq!(AcquireMode::Exclusive.label(), "lock");
    }
}
