//! The lockset / lock-order auditor behind [`crate::DebugMutex`] and
//! [`crate::DebugRwLock`].
//!
//! Compiled only under `cfg(debug_assertions)` or the `lock-audit`
//! feature. Two data structures:
//!
//! * a **thread-local lockset** — the stack of locks the current thread
//!   holds, pushed on acquire and removed (by instance id, so guards may
//!   drop out of order) on guard drop;
//! * a **global order graph** — one directed edge `held-class →
//!   acquired-class` per observed pair, with the acquiring thread's name
//!   and full lock path remembered as the edge's example. Before a new
//!   edge `A → B` is inserted, a reachability check runs; if `B` can
//!   already reach `A`, two threads interleaving the two acquisition
//!   paths can deadlock, and the auditor panics *before blocking on the
//!   lock*, printing both paths.
//!
//! Checks run at **acquire** time (lockdep-style), not at guard drop:
//! detecting the inversion before the lock can block turns a potential
//! hang into an immediate, attributable panic.
//!
//! The common case — acquiring with an empty lockset — touches only the
//! thread-local stack; the global graph mutex is taken just when a lock
//! is acquired while others are held, and edge insertion is idempotent.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a lock is being acquired (shown in diagnostics; shared reads and
/// exclusive writes feed the same order graph).
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
    /// [`crate::DebugMutex::named`] name (order analysis is per class).
    class: String,
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
    pub(crate) fn anonymous() -> LockMeta {
        let id = next_id();
        LockMeta(Arc::new(MetaInner {
            id,
            class: format!("anon#{id}"),
        }))
    }

    pub(crate) fn named(name: &str) -> LockMeta {
        LockMeta(Arc::new(MetaInner {
            id: next_id(),
            class: name.to_string(),
        }))
    }
}

impl Default for LockMeta {
    fn default() -> LockMeta {
        LockMeta::anonymous()
    }
}

struct Held {
    id: u64,
    class: String,
}

thread_local! {
    static LOCKSET: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

/// The classes the current thread holds, outermost first. Exposed for
/// tests and for embedding in panic messages.
pub fn held_lock_names() -> Vec<String> {
    LOCKSET.with(|s| s.borrow().iter().map(|h| h.class.clone()).collect())
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

/// One remembered example of an order-graph edge.
#[derive(Debug, Clone)]
struct EdgeExample {
    thread: String,
    path: String,
}

#[derive(Debug, Default)]
struct Graph {
    /// class -> classes observed acquired while it was held.
    successors: BTreeMap<String, BTreeSet<String>>,
    /// (held, acquired) -> first acquisition that created the edge.
    examples: BTreeMap<(String, String), EdgeExample>,
}

impl Graph {
    /// Is `to` reachable from `from`? Returns the path when it is.
    fn find_path(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let mut stack = vec![vec![from.to_string()]];
        let mut seen = BTreeSet::new();
        seen.insert(from.to_string());
        while let Some(path) = stack.pop() {
            let Some(last) = path.last() else { continue };
            if last == to {
                return Some(path);
            }
            if let Some(next) = self.successors.get(last.as_str()) {
                for n in next {
                    if seen.insert(n.clone()) {
                        let mut p = path.clone();
                        p.push(n.clone());
                        stack.push(p);
                    }
                }
            }
        }
        None
    }
}

static GRAPH: Mutex<Option<Graph>> = Mutex::new(None);

fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    let mut slot = match GRAPH.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(slot.get_or_insert_with(Graph::default))
}

/// Record edge `held.class -> acquired.class`, panicking if the reverse
/// direction is already reachable.
fn add_edge(held: &Held, acquired: &MetaInner, mode: AcquireMode) {
    if held.class == acquired.class {
        panic!(
            "sync audit: thread '{}' {}s `{}` while holding a lock of the same class \
             (another thread nesting two `{}` instances in the opposite order would \
             deadlock); lock path: {}",
            thread_name(),
            mode.label(),
            acquired.class,
            acquired.class,
            lock_path(),
        );
    }
    let inserted = with_graph(|g| {
        if g.successors
            .get(held.class.as_str())
            .is_some_and(|s| s.contains(acquired.class.as_str()))
        {
            return false; // edge already known, and known to be acyclic
        }
        if let Some(rev) = g.find_path(&acquired.class, &held.class) {
            // Reconstruct the earlier acquisition that established the
            // first hop of the reverse path.
            let first_hop = match (rev.first(), rev.get(1)) {
                (Some(a), Some(b)) => Some((a.clone(), b.clone())),
                _ => None,
            };
            let earlier = first_hop.and_then(|hop| g.examples.get(&hop).cloned());
            let (e_thread, e_path) = match earlier {
                Some(e) => (e.thread, e.path),
                None => ("<unknown>".to_string(), "<unknown>".to_string()),
            };
            panic!(
                "sync audit: lock-order inversion (potential deadlock)\n  \
                 thread '{}' is acquiring `{}` while holding: {}\n  \
                 but the opposite order `{}` was established earlier by \
                 thread '{}' (lock path: {})\n  \
                 cycle: {} -> {}",
                thread_name(),
                acquired.class,
                lock_path(),
                rev.join(" -> "),
                e_thread,
                e_path,
                held.class,
                rev.join(" -> "),
            );
        }
        g.successors
            .entry(held.class.clone())
            .or_default()
            .insert(acquired.class.clone());
        g.examples.insert(
            (held.class.clone(), acquired.class.clone()),
            EdgeExample {
                thread: thread_name(),
                path: format!("{} ; acquiring {}", lock_path(), acquired.class),
            },
        );
        true
    });
    // Fire the observer outside the graph mutex: it may do its own
    // (lock-free) bookkeeping and must never nest under our lock.
    if inserted {
        crate::notify_audit_edge(&held.class, &acquired.class);
    }
}

/// Audit one acquisition. Runs **before** the underlying lock can block;
/// panics on reentrancy or on a lock-order cycle. The returned token
/// removes the lockset entry when the guard drops.
pub(crate) fn acquire(meta: &LockMeta, mode: AcquireMode) -> HeldToken {
    let inner = &meta.0;
    // Reentrancy: same instance already held by this thread.
    let reentrant = LOCKSET.with(|s| s.borrow().iter().any(|h| h.id == inner.id));
    if reentrant {
        panic!(
            "sync audit: reentrant acquire of `{}` on thread '{}' \
             (std locks deadlock here); lock path: {}",
            inner.class,
            thread_name(),
            lock_path(),
        );
    }
    // Order graph: one edge per lock currently held.
    LOCKSET.with(|s| {
        for held in s.borrow().iter() {
            add_edge(held, inner, mode);
        }
    });
    LOCKSET.with(|s| {
        s.borrow_mut().push(Held {
            id: inner.id,
            class: inner.class.clone(),
        })
    });
    HeldToken { id: inner.id }
}

/// Removes its lockset entry on drop (guards may drop out of order, so
/// removal is by instance id, not a stack pop).
#[derive(Debug)]
pub struct HeldToken {
    id: u64,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        LOCKSET.with(|s| {
            let mut set = s.borrow_mut();
            if let Some(pos) = set.iter().rposition(|h| h.id == self.id) {
                set.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_path_walks_transitive_edges() {
        let mut g = Graph::default();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("x", "d")] {
            g.successors
                .entry(a.to_string())
                .or_default()
                .insert(b.to_string());
        }
        assert_eq!(
            g.find_path("a", "d"),
            Some(vec![
                "a".to_string(),
                "b".to_string(),
                "c".to_string(),
                "d".to_string()
            ])
        );
        assert_eq!(g.find_path("d", "a"), None);
        assert_eq!(g.find_path("a", "a"), Some(vec!["a".to_string()]));
    }

    #[test]
    fn modes_render_for_diagnostics() {
        assert_eq!(AcquireMode::Shared.label(), "read");
        assert_eq!(AcquireMode::Exclusive.label(), "lock");
    }
}
