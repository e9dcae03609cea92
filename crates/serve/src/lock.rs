//! Serve's lock rule: a thread holds at most one serve lock at a time,
//! and holds none at a blocking point.
//!
//! The serve locks are the model registry, the audit slot, the audit
//! sink, the accuracy map and the scheduler's tickets, each a [`Mutex`]
//! or [`RwLock`] of this module. A guard marks its thread as holding a
//! serve lock until it drops. In debug builds a thread panics when it
//! takes a second guard, or when it reaches a [`blocking`] point — a
//! frame write, `Scheduler::submit` (which runs the request's codec
//! work) or an audit append — while holding one. A thread that never
//! holds two serve locks cannot close a lock-order cycle, so the locks
//! need no ranks. Release builds compile the check out.
//!
//! Every critical section leaves its data consistent at each step, so a
//! lock poisoned by a panicking holder is recovered, not propagated.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Condvar, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

thread_local! {
    /// Whether this thread holds a serve lock.
    static HELD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as about to block on `what`. Debug builds
/// panic when the thread holds a serve lock: every thread queued on that
/// lock would wait with it.
pub(crate) fn blocking(what: &str) {
    #[cfg(debug_assertions)]
    HELD.with(|held| assert!(!held.get(), "{what} under a serve lock"));
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// The calling thread's mark: set before its lock is taken, cleared
/// after its guard is released.
struct Held;

impl Held {
    fn take() -> Self {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            assert!(
                !held.replace(true),
                "a second serve lock taken under a held one"
            );
        });
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(false));
    }
}

/// A serve lock's guard. Fields drop in order: the lock is released,
/// then the thread's mark.
pub(crate) struct Guard<G> {
    guard: G,
    held: Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<'a, T> Guard<MutexGuard<'a, T>> {
    /// Waits on `turn` while `condition` holds. The lock is released for
    /// the wait, and the thread keeps its mark: it takes no other serve
    /// lock while it waits.
    pub(crate) fn wait_while(self, turn: &Condvar, condition: impl FnMut(&mut T) -> bool) -> Self {
        let Self { guard, held } = self;
        let guard = turn
            .wait_while(guard, condition)
            .unwrap_or_else(PoisonError::into_inner);
        Self { guard, held }
    }
}

/// A mutex under the serve lock rule.
#[derive(Default)]
pub(crate) struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> Guard<MutexGuard<'_, T>> {
        let held = Held::take();
        let guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        Guard { guard, held }
    }
}

/// A reader-writer lock under the serve lock rule.
#[derive(Debug, Default)]
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    pub(crate) fn read(&self) -> Guard<RwLockReadGuard<'_, T>> {
        let held = Held::take();
        let guard = self.0.read().unwrap_or_else(PoisonError::into_inner);
        Guard { guard, held }
    }

    pub(crate) fn write(&self) -> Guard<RwLockWriteGuard<'_, T>> {
        let held = Held::take();
        let guard = self.0.write().unwrap_or_else(PoisonError::into_inner);
        Guard { guard, held }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Op, ResponseFrame};
    use crate::{AuditSink, Scheduler, SchedulerConfig};

    #[test]
    fn guards_taken_in_turn_pass() {
        let (count, total) = (Mutex::new(1), RwLock::new(0));
        *count.lock() += 1;
        let n = *count.lock();
        *total.write() += n;
        blocking("a test wait");
        assert_eq!(*total.read(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a second serve lock")]
    fn a_second_lock_under_a_guard_panics() {
        let (registry, slot) = (RwLock::new(()), RwLock::new(()));
        let _models = registry.read();
        let _sink = slot.read();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a frame write under a serve lock")]
    fn a_frame_write_under_a_guard_panics() {
        let slot = RwLock::new(());
        let _slot = slot.write();
        let reply = ResponseFrame::ok(Op::Ping, 1, Vec::new());
        let _ = crate::protocol::write_response(&mut Vec::new(), &reply);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an audit append under a serve lock")]
    fn an_audit_append_under_a_guard_panics() {
        let accuracy = RwLock::new(());
        let sink = AuditSink::from_writer(Box::new(std::io::sink()));
        let _map = accuracy.read();
        let _ = sink.append(&crate::audit::tests::sample_record());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Scheduler::submit under a serve lock")]
    fn a_submit_under_a_guard_panics() {
        let metrics = fxrz_telemetry::MetricsRegistry::new();
        let scheduler = Scheduler::new(SchedulerConfig::default(), &metrics);
        let registry = RwLock::new(());
        let _models = registry.read();
        let trace = fxrz_telemetry::TraceIdGen::new(1).next();
        scheduler.submit(Op::Ping as u8, 1, 0, trace, |_| {
            ResponseFrame::ok(Op::Ping, 1, Vec::new())
        });
    }
}
