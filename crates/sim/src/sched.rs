//! Virtual-time cooperative scheduler.
//!
//! The paper's HighLight runs several cooperating processes: the
//! application, the regular cleaner, the migrator, the kernel-request
//! service process, and the I/O server (Figure 5). Here each is an
//! [`Actor`]: a state machine that performs some simulated work per step
//! and reports when it next wants to run. The [`Scheduler`] always resumes
//! the actor with the smallest local time, which makes the interleaving —
//! and therefore device contention — deterministic.
//!
//! Runnable actors sit in a binary-heap run queue keyed
//! `(local time, spawn index)`: exactly one entry per runnable actor that
//! is not currently running, so picking the next actor costs O(log n),
//! and ties at equal times go to the earliest-spawned actor.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::time::SimTime;

/// The result of stepping an [`Actor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The actor has more work; resume it no earlier than the given time.
    Yield(SimTime),
    /// The actor is waiting on an event: it will not be stepped again
    /// until some other actor (or the embedding code) wakes it through a
    /// [`Waker`]. A wake delivered while the actor is running is latched,
    /// so a `Park` that races a wake resumes immediately (no lost
    /// wakeups).
    Park,
    /// The actor has finished; it will not be stepped again.
    Done,
}

/// A stable handle to a spawned actor, used as a wake target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(usize);

/// A cloneable wake handle onto a [`Scheduler`].
///
/// Completion events are the one thing a purely time-ordered scheduler
/// cannot express: an actor that drains a queue must not busy-poll for
/// work, and the actor that *fills* the queue knows exactly when work
/// arrived. `Waker::wake(id, at)` makes a parked actor runnable at
/// virtual time `at`. Waking an actor that is not parked latches the
/// wake: its next `Step::Park` converts into `Yield(at)`.
///
/// Waking a parked actor at a time *earlier* than where it parked is
/// allowed and rewinds its local clock: a parked server was idle, and an
/// out-of-order request (enqueued by a caller whose virtual clock lags
/// the server's last completion) finds it idle *at the caller's time*.
/// Physical serialization still holds because the device models book
/// their own busy horizons.
#[derive(Clone, Debug)]
pub struct Waker {
    shared: Rc<WakeShared>,
}

/// State a [`Scheduler`] shares with its [`Waker`] handles.
#[derive(Debug)]
struct WakeShared {
    /// Wakes posted since the scheduler last drained them.
    inbox: RefCell<Vec<(ActorId, SimTime)>>,
    /// The local time of the step running now (or of the last step run).
    now: Cell<SimTime>,
}

impl Waker {
    /// Requests that actor `id` be woken at virtual time `at`.
    pub fn wake(&self, id: ActorId, at: SimTime) {
        self.shared.inbox.borrow_mut().push((id, at));
    }

    /// Wakes actor `id` at the time of the scheduler step running now:
    /// the completion-event form, for code that learns *that* something
    /// happened but not *when* (a ticket resolving inside some other
    /// actor's step). Outside a step it uses the last step's time.
    pub fn wake_now(&self, id: ActorId) {
        self.wake(id, self.shared.now.get());
    }

    /// Wakes every actor in `ids` at virtual time `at` (wake-all).
    ///
    /// This is the I/O-server pool's dispatch policy: work pushed onto a
    /// shared queue wakes every lane, each lane takes what its scheduling
    /// rules allow, and lanes with nothing eligible simply re-park. The
    /// alternative — wake-one targeted at the "best" lane — saves a few
    /// no-op steps but forces the producer to reimplement the scheduler's
    /// eligibility rules; wake-all keeps dispatch decisions in exactly
    /// one place and stays deterministic (wakes are drained in order).
    pub fn wake_many(&self, ids: &[ActorId], at: SimTime) {
        let mut inbox = self.shared.inbox.borrow_mut();
        for &id in ids {
            inbox.push((id, at));
        }
    }
}

/// A cooperatively scheduled activity over a shared world `W`.
///
/// `W` is whatever mutable state the actors share: typically the device
/// stack and filesystem under test. Actors receive `&mut W` one at a time,
/// so no locking is needed (the real system's processes synchronized
/// through the kernel; ours synchronize through the scheduler).
pub trait Actor<W> {
    /// Performs one unit of work at local time `now` and says when to
    /// resume. Yielding a time earlier than `now` is treated as `now`.
    fn step(&mut self, world: &mut W, now: SimTime) -> Step;

    /// A short label for traces and error messages.
    fn name(&self) -> &str {
        "actor"
    }
}

struct Slot<W> {
    actor: Box<dyn Actor<W>>,
    local: SimTime,
    done: bool,
    parked: bool,
    /// A wake that arrived while the actor was runnable (or running):
    /// consumed by the next `Step::Park` so the wakeup is never lost.
    wake_pending: Option<SimTime>,
    /// Where this actor's park/wake activity is recorded, if anywhere.
    tracer: Option<hl_trace::Tracer>,
}

/// Runs a set of [`Actor`]s to completion in virtual-time order.
///
/// # Examples
///
/// ```
/// use hl_sim::{Actor, Scheduler, Step};
///
/// struct Ticker { left: u32, period: u64 }
/// impl Actor<Vec<u64>> for Ticker {
///     fn step(&mut self, log: &mut Vec<u64>, now: u64) -> Step {
///         log.push(now);
///         self.left -= 1;
///         if self.left == 0 { Step::Done } else { Step::Yield(now + self.period) }
///     }
/// }
///
/// let mut sched = Scheduler::new();
/// sched.spawn_at(0, Ticker { left: 2, period: 10 });
/// sched.spawn_at(5, Ticker { left: 2, period: 10 });
/// let mut log = Vec::new();
/// sched.run(&mut log);
/// assert_eq!(log, vec![0, 5, 10, 15]);
/// ```
pub struct Scheduler<W> {
    slots: Vec<Slot<W>>,
    /// The run queue: one `(local, index)` entry per runnable slot that
    /// is not running. A runnable slot's `local` changes only while it
    /// runs (popped), so no entry ever goes stale.
    runq: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Wake inbox and step clock shared with [`Waker`] handles.
    shared: Rc<WakeShared>,
    /// Drain buffer swapped with the inbox, reused across iterations.
    wake_buf: Vec<(ActorId, SimTime)>,
    /// Safety valve against actors that never advance time.
    max_steps: u64,
    /// Actor steps taken over the scheduler's lifetime.
    steps: u64,
}

impl<W> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Scheduler<W> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            runq: BinaryHeap::new(),
            shared: Rc::new(WakeShared {
                inbox: RefCell::new(Vec::new()),
                now: Cell::new(0),
            }),
            wake_buf: Vec::new(),
            max_steps: 500_000_000,
            steps: 0,
        }
    }

    /// Records actor `id`'s park/wake activity in `tracer`: every actual
    /// park (the actor going idle) and every wake of it while parked.
    /// Actors never given a tracer are not recorded.
    pub fn trace_actor(&mut self, id: ActorId, tracer: hl_trace::Tracer) {
        self.slots[id.0].tracer = Some(tracer);
    }

    /// A wake handle for this scheduler's actors. Cloneable; actors (or
    /// shared state they hold) keep one to signal each other.
    pub fn waker(&self) -> Waker {
        Waker {
            shared: self.shared.clone(),
        }
    }

    /// Actor steps taken so far, over every `run`/`run_until` call.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Overrides the runaway-actor step limit (default 5·10⁸).
    pub fn with_max_steps(mut self, max: u64) -> Self {
        self.max_steps = max;
        self
    }

    /// Adds an actor that first runs at time `at`. The returned
    /// [`ActorId`] is the actor's wake target.
    pub fn spawn_at<A: Actor<W> + 'static>(&mut self, at: SimTime, actor: A) -> ActorId {
        let id = self.spawn(at, false, Box::new(actor));
        self.runq.push(Reverse((at, id.0)));
        id
    }

    /// Adds an actor in the parked state: it runs only once woken.
    pub fn spawn_parked<A: Actor<W> + 'static>(&mut self, actor: A) -> ActorId {
        self.spawn(0, true, Box::new(actor))
    }

    fn spawn(&mut self, local: SimTime, parked: bool, actor: Box<dyn Actor<W>>) -> ActorId {
        self.slots.push(Slot {
            actor,
            local,
            done: false,
            parked,
            wake_pending: None,
            tracer: None,
        });
        ActorId(self.slots.len() - 1)
    }

    /// Returns how many actors have not yet finished.
    pub fn live_actors(&self) -> usize {
        self.slots.iter().filter(|s| !s.done).count()
    }

    /// Returns how many actors are parked awaiting a wake.
    pub fn parked_actors(&self) -> usize {
        self.slots.iter().filter(|s| !s.done && s.parked).count()
    }

    /// Applies queued wakes to their target slots.
    fn drain_wakes(&mut self) {
        if self.shared.inbox.borrow().is_empty() {
            return;
        }
        std::mem::swap(&mut *self.shared.inbox.borrow_mut(), &mut self.wake_buf);
        for &(id, at) in &self.wake_buf {
            let Some(slot) = self.slots.get_mut(id.0) else {
                continue;
            };
            if slot.done {
                continue;
            }
            if slot.parked {
                slot.parked = false;
                // A parked actor was idle; it resumes at the waker's
                // time even if that rewinds its local clock (devices
                // enforce their own busy horizons).
                slot.local = at;
                self.runq.push(Reverse((at, id.0)));
                if let Some(t) = &slot.tracer {
                    t.wake(at, slot.actor.name());
                }
            } else {
                slot.wake_pending = Some(match slot.wake_pending {
                    Some(t) => t.min(at),
                    None => at,
                });
            }
        }
        self.wake_buf.clear();
    }

    /// Runs until every actor is done *or parked* (quiescence). Returns
    /// the final virtual time (the largest local time reached by any
    /// runnable actor).
    ///
    /// # Panics
    ///
    /// Panics if the step limit is exceeded, which indicates an actor that
    /// yields without ever advancing its local time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until all actors are done or parked, or the next runnable
    /// actor's local time exceeds `horizon`. Returns the furthest local
    /// time reached.
    ///
    /// # Panics
    ///
    /// Panics if the step limit is exceeded (a stuck actor).
    pub fn run_until(&mut self, world: &mut W, horizon: SimTime) -> SimTime {
        let first = self.steps;
        let mut furthest: SimTime = 0;
        loop {
            self.drain_wakes();
            let Some(&Reverse((now, idx))) = self.runq.peek() else {
                return furthest;
            };
            if now > horizon {
                return furthest;
            }
            self.runq.pop();
            self.shared.now.set(now);
            furthest = furthest.max(now);
            self.steps += 1;
            assert!(
                self.steps - first <= self.max_steps,
                "scheduler exceeded {} steps; actor `{}` appears stuck at t={}",
                self.max_steps,
                self.slots[idx].actor.name(),
                now
            );
            let slot = &mut self.slots[idx];
            match slot.actor.step(world, now) {
                Step::Yield(t) => {
                    slot.local = t.max(now);
                    self.runq.push(Reverse((slot.local, idx)));
                }
                Step::Park => match slot.wake_pending.take() {
                    // A wake raced the park: stay runnable. The wake time
                    // may legitimately precede `now` (see [`Waker`]).
                    Some(t) => {
                        slot.local = t;
                        self.runq.push(Reverse((t, idx)));
                    }
                    None => {
                        slot.parked = true;
                        if let Some(t) = &slot.tracer {
                            t.park(now, slot.actor.name());
                        }
                    }
                },
                Step::Done => {
                    slot.done = true;
                    furthest = furthest.max(slot.local);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Once(SimTime);
    impl Actor<Vec<(SimTime, SimTime)>> for Once {
        fn step(&mut self, log: &mut Vec<(SimTime, SimTime)>, now: SimTime) -> Step {
            log.push((self.0, now));
            Step::Done
        }
    }

    #[test]
    fn runs_in_time_order() {
        let mut s = Scheduler::new();
        s.spawn_at(30, Once(30));
        s.spawn_at(10, Once(10));
        s.spawn_at(20, Once(20));
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![(10, 10), (20, 20), (30, 30)]);
    }

    struct Backwards;
    impl Actor<()> for Backwards {
        fn step(&mut self, _w: &mut (), now: SimTime) -> Step {
            if now >= 5 {
                Step::Done
            } else {
                // Tries to travel back in time; scheduler must clamp.
                Step::Yield(now.saturating_sub(10).max(now + 1))
            }
        }
    }

    #[test]
    fn yield_in_past_is_clamped() {
        let mut s = Scheduler::new();
        s.spawn_at(0, Backwards);
        s.run(&mut ());
    }

    struct Stuck;
    impl Actor<()> for Stuck {
        fn step(&mut self, _w: &mut (), now: SimTime) -> Step {
            Step::Yield(now)
        }
        fn name(&self) -> &str {
            "stuck"
        }
    }

    #[test]
    #[should_panic(expected = "stuck")]
    fn runaway_actor_panics() {
        let mut s = Scheduler::new().with_max_steps(100);
        s.spawn_at(0, Stuck);
        s.run(&mut ());
    }

    struct Ticker {
        left: u32,
    }
    impl Actor<()> for Ticker {
        fn step(&mut self, _w: &mut (), now: SimTime) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            Step::Yield(now + 100)
        }
    }

    #[test]
    fn horizon_stops_early() {
        let mut s = Scheduler::new();
        s.spawn_at(0, Ticker { left: 1000 });
        let t = s.run_until(&mut (), 250);
        assert_eq!(t, 200);
        assert_eq!(s.live_actors(), 1);
        // Resuming continues from where we stopped.
        let t = s.run(&mut ());
        assert_eq!(t, 100_000);
        assert_eq!(s.live_actors(), 0);
    }

    /// Parks forever; records each time it is stepped.
    struct Server;
    impl Actor<Vec<SimTime>> for Server {
        fn step(&mut self, log: &mut Vec<SimTime>, now: SimTime) -> Step {
            log.push(now);
            Step::Park
        }
    }

    #[test]
    fn parked_actor_runs_only_when_woken() {
        let mut s = Scheduler::new();
        let server = s.spawn_parked(Server);
        let mut log = Vec::new();
        // Quiescence with nothing runnable returns immediately.
        s.run(&mut log);
        assert!(log.is_empty());
        assert_eq!(s.parked_actors(), 1);

        s.waker().wake(server, 42);
        s.run(&mut log);
        assert_eq!(log, vec![42]);
        assert_eq!(s.parked_actors(), 1);

        // A wake earlier than the previous run rewinds the idle server.
        s.waker().wake(server, 7);
        s.run(&mut log);
        assert_eq!(log, vec![42, 7]);
    }

    /// Wakes `target` at `now + 1` on its first step, then finishes.
    struct Poker {
        target: ActorId,
        waker: Waker,
    }
    impl Actor<Vec<SimTime>> for Poker {
        fn step(&mut self, _log: &mut Vec<SimTime>, now: SimTime) -> Step {
            self.waker.wake(self.target, now + 1);
            Step::Done
        }
    }

    #[test]
    fn wake_from_another_actor_is_delivered() {
        let mut s = Scheduler::new();
        let server = s.spawn_parked(Server);
        let waker = s.waker();
        s.spawn_at(10, Poker {
            target: server,
            waker,
        });
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![11]);
    }

    /// Parks after its first step; a wake posted *before* it parks must
    /// not be lost.
    struct RacyParker {
        stepped: u32,
    }
    impl Actor<Vec<SimTime>> for RacyParker {
        fn step(&mut self, log: &mut Vec<SimTime>, now: SimTime) -> Step {
            log.push(now);
            self.stepped += 1;
            if self.stepped >= 2 {
                Step::Done
            } else {
                Step::Park
            }
        }
    }

    #[test]
    fn wake_before_park_is_latched() {
        let mut s = Scheduler::new();
        let id = s.spawn_at(5, RacyParker { stepped: 0 });
        // Wake posted while the actor is still runnable: its upcoming
        // Park must convert into an immediate resume at t=9.
        s.waker().wake(id, 9);
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![5, 9]);
    }
}
