//! Admission gate of the serve daemon (policy in the crate docs): each
//! `/query` executes on its connection's thread while holding a [`Slot`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Bounds how many requests execute at once and how many wait.
pub(crate) struct Gate {
    counts: Mutex<Counts>,
    freed: Condvar,
    closed: AtomicBool,
    workers: usize,
    capacity: usize,
}

#[derive(Default)]
struct Counts {
    waiting: usize,
    running: usize,
}

/// Why [`Gate::enter`] gave no slot.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// `capacity` requests already wait; shed this one.
    Full,
    /// The gate is closed for shutdown.
    Closed,
    /// The deadline had passed when a slot came free.
    Expired,
}

/// The right to execute one request; dropping it frees the slot.
pub(crate) struct Slot<'g> {
    gate: &'g Gate,
}

impl Gate {
    /// A gate running at most `workers` requests at once while at most
    /// `capacity` more wait.
    pub(crate) fn new(workers: usize, capacity: usize) -> Gate {
        Gate {
            counts: Mutex::new(Counts::default()),
            freed: Condvar::new(),
            closed: AtomicBool::new(false),
            workers,
            capacity,
        }
    }

    /// Admit one request and block until it may execute. The deadline is
    /// checked once the slot is taken, so a request that waited out its
    /// budget costs a clock read, not an evaluation; its slot passes
    /// straight on to the next waiter.
    pub(crate) fn enter(&self, deadline: Instant) -> Result<Slot<'_>, Refused> {
        if self.is_closed() {
            return Err(Refused::Closed);
        }
        let mut counts = self.lock();
        if counts.waiting >= self.capacity {
            return Err(Refused::Full);
        }
        counts.waiting += 1;
        while counts.running >= self.workers {
            counts = self.freed.wait(counts).unwrap_or_else(PoisonError::into_inner);
        }
        counts.waiting -= 1;
        counts.running += 1;
        drop(counts);
        let slot = Slot { gate: self };
        if Instant::now() >= deadline {
            return Err(Refused::Expired);
        }
        Ok(slot)
    }

    /// Requests admitted and waiting for a slot (`/stats` `queue_depth`).
    pub(crate) fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// Refuse every later request; admitted ones still execute.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// True once [`Gate::close`] ran: the daemon is shutting down.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn lock(&self) -> MutexGuard<'_, Counts> {
        // Nothing that can panic runs under this lock, and each update
        // leaves both counts valid, so a poisoned guard is still sound.
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut counts = self.gate.lock();
        counts.running -= 1;
        let wake = counts.waiting > 0;
        drop(counts);
        if wake {
            self.gate.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn later() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Spin until `n` requests wait: the waiter has registered under the
    /// lock, so it takes the next freed slot whether or not it is
    /// already blocked.
    fn await_waiting(gate: &Gate, n: usize) {
        while gate.waiting() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let gate = Gate::new(4, 0);
        assert_eq!(gate.enter(later()).err(), Some(Refused::Full));
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn full_waiting_line_sheds() {
        let gate = Gate::new(1, 1);
        let held = gate.enter(later()).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.enter(later()).map(drop));
            await_waiting(&gate, 1);
            assert_eq!(gate.enter(later()).err(), Some(Refused::Full));
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(()));
        });
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn slot_is_freed_on_drop_and_during_unwinding() {
        let gate = Gate::new(1, 1);
        drop(gate.enter(later()).unwrap());
        let panicked = std::panic::catch_unwind(|| {
            let _slot = gate.enter(later()).unwrap();
            panic!("request failed while holding its slot");
        });
        assert!(panicked.is_err());
        // Both slots came back: with one worker, a leaked slot would
        // leave this enter waiting forever.
        drop(gate.enter(later()).unwrap());
        assert_eq!(gate.lock().running, 0);
    }

    #[test]
    fn waiter_takes_a_freed_slot() {
        let gate = Gate::new(2, 4);
        let (a, b) = (gate.enter(later()).unwrap(), gate.enter(later()).unwrap());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                gate.enter(later()).map(|slot| {
                    let running = gate.lock().running;
                    drop(slot);
                    running
                })
            });
            await_waiting(&gate, 1);
            drop(a);
            // The waiter runs beside the slot still held.
            assert_eq!(waiter.join().unwrap(), Ok(2));
        });
        drop(b);
        assert_eq!(gate.lock().running, 0);
    }

    #[test]
    fn expired_deadline_frees_the_slot_it_took() {
        let gate = Gate::new(1, 1);
        assert_eq!(gate.enter(Instant::now()).err(), Some(Refused::Expired));
        drop(gate.enter(later()).unwrap());
    }

    #[test]
    fn closed_gate_refuses_new_entries_but_runs_admitted_waiters() {
        let gate = Gate::new(1, 4);
        let held = gate.enter(later()).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.enter(later()).map(drop));
            await_waiting(&gate, 1);
            gate.close();
            assert!(gate.is_closed());
            assert_eq!(gate.enter(later()).err(), Some(Refused::Closed));
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(()));
        });
    }
}
