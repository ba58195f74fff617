//! Property suite for the resident hot-path optimizations (DESIGN.md
//! §6j): every raw-speed structure must be *behaviour-identical* to the
//! slow reference it replaced.
//!
//! - The Bloom-guarded [`ReplicaSet`] must never produce a false
//!   negative versus a plain `HashMap` reference directory, under any
//!   interleaving of `add` / `forget` / `forget_volume` (each forget
//!   rebuilds the filter — the "scrub" path).
//! - A [`Ticket`] must lose no wakeups: every surviving clone of a
//!   completed ticket observes the one outcome, whichever handles were
//!   dropped.
//! - The open-addressed [`SegDir`] must agree with a `HashMap` oracle
//!   under random fill / eject / rekey churn (the segment cache's op
//!   mix), including tombstone-heavy histories.
//! - The scheduler's heap run queue must pick exactly what a linear scan
//!   over every slot picks (lowest local time, then lowest spawn index),
//!   under random actor programs: yields into the past, parks, wakes
//!   that rewind or advance a parked actor, wakes latched while the
//!   target is runnable, late `spawn_parked`, and `run_until` horizons.
//! - A watched [`Ticket`] wakes each watcher exactly once, at the time
//!   of the step that resolved it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use highlight::{Bloom, Outcome, ReplicaSet, SegDir, Ticket, UniformMap};
use hl_sim::{Actor, ActorId, Scheduler, SimTime, Step, Waker};
use proptest::prelude::*;

/// A small uniform map: 8 disk segments, 4 volumes × 16 slots. Tertiary
/// segment numbers start at `nsegs_disk`.
fn tiny_map() -> UniformMap {
    UniformMap::new(2, 16, 8, 4, 16)
}

/// Reference replica directory: the `HashMap<SegNo, Vec<(vol, slot)>>`
/// the Bloom-guarded set replaced.
#[derive(Default)]
struct RefDir {
    extra: HashMap<u32, Vec<(u32, u32)>>,
}

impl RefDir {
    fn add(&mut self, seg: u32, vol: u32, slot: u32) {
        let homes = self.extra.entry(seg).or_default();
        if !homes.contains(&(vol, slot)) {
            homes.push((vol, slot));
        }
    }
    fn forget(&mut self, seg: u32) {
        self.extra.remove(&seg);
    }
    fn forget_volume(&mut self, vol: u32) {
        for homes in self.extra.values_mut() {
            homes.retain(|&(v, _)| v != vol);
        }
        self.extra.retain(|_, h| !h.is_empty());
    }
    fn extras(&self, seg: u32) -> Vec<(u32, u32)> {
        self.extra.get(&seg).cloned().unwrap_or_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random add/forget/forget_volume histories: the Bloom guard may
    /// skip directory probes, but `homes` must stay exactly equal to
    /// the reference — in particular, never a false negative.
    #[test]
    fn bloom_guarded_replicas_never_false_negative(
        ops in prop::collection::vec((0u8..4, 0u32..64, 0u32..4, 0u32..16), 1..200),
    ) {
        let map = tiny_map();
        let mut fast = ReplicaSet::new();
        let mut slow = RefDir::default();
        for (kind, seg_off, vol, slot) in ops {
            // Tertiary segment numbers live above the disk range.
            let seg = map.nsegs_disk + seg_off;
            match kind {
                0 | 1 => {
                    fast.add(seg, vol, slot);
                    slow.add(seg, vol, slot);
                }
                2 => {
                    fast.forget(seg);
                    slow.forget(seg);
                }
                _ => {
                    fast.forget_volume(vol);
                    slow.forget_volume(vol);
                }
            }
            // Primary home comes from the address map for both sides;
            // compare the extras directly.
            let got: Vec<(u32, u32)> = fast
                .homes(&map, seg)
                .iter()
                .copied()
                .filter(|&h| Some(h) != map.vol_slot(seg))
                .collect();
            prop_assert_eq!(&got, &slow.extras(seg), "extras diverged for seg {}", seg);
            // No false negatives anywhere, not just the touched key.
            for (&s, homes) in &slow.extra {
                prop_assert_eq!(
                    !homes.is_empty(),
                    fast.has_extras(s),
                    "false negative for seg {}", s
                );
            }
        }
    }

    /// The filter itself: forgetting keys (rebuild) must never forget a
    /// *kept* key.
    #[test]
    fn bloom_rebuild_keeps_every_surviving_key(
        raw_keys in prop::collection::vec(0u64..10_000, 1..256),
        drop_mod in 2u64..7,
    ) {
        let mut keys = raw_keys;
        keys.sort_unstable();
        keys.dedup();
        let mut filter = Bloom::with_capacity(keys.len(), 16, 0x6a);
        for &k in &keys {
            filter.insert(k);
        }
        let kept: Vec<u64> = keys.iter().copied().filter(|k| k % drop_mod != 0).collect();
        filter.rebuild(kept.iter().copied());
        for &k in &kept {
            prop_assert!(filter.maybe_contains(k), "false negative after rebuild: {}", k);
        }
    }

    /// N tickets with random clone fan-out, completion order, and a
    /// random subset of handles dropped (before or after completion,
    /// the original included): every surviving clone sees the one
    /// posted outcome — zero lost wakeups, whichever handles went first.
    #[test]
    fn ticket_clones_lose_no_wakeups(
        fanout in prop::collection::vec(1usize..5, 1..64),
        complete_first in any::<bool>(),
        drop_mask in prop::collection::vec(any::<bool>(), 0..384),
    ) {
        let mut all: Vec<Vec<Ticket>> = Vec::new();
        for (i, &n) in fanout.iter().enumerate() {
            let t = Ticket::new();
            let mut handles: Vec<Ticket> = (0..n).map(|_| t.clone()).collect();
            if complete_first || i % 2 == 0 {
                t.complete_for_test(Outcome::Eject(i % 3 == 0));
            }
            handles.insert(0, t);
            all.push(handles);
        }
        // Drop a random subset of each ticket's handles, keeping at
        // least one survivor.
        let mut mask = drop_mask.into_iter();
        for handles in all.iter_mut() {
            let survivor = handles.pop().expect("at least one handle");
            handles.retain(|_| !mask.next().unwrap_or(false));
            handles.push(survivor);
        }
        for (i, handles) in all.iter().enumerate() {
            if !handles[0].is_done() {
                handles[0].complete_for_test(Outcome::Eject(i % 3 == 0));
            }
            for h in handles {
                prop_assert!(h.is_done(), "clone lost its wakeup");
                prop_assert_eq!(h.eject_result(), i % 3 == 0);
            }
        }
    }

    /// Random fill/eject/rekey churn: the open-addressed directory and
    /// a `HashMap` oracle must agree on every lookup, length, and the
    /// full key set — tombstones included.
    #[test]
    fn segdir_matches_hashmap_oracle_under_churn(
        ops in prop::collection::vec((0u8..4, 0u32..96, 0u32..96), 1..400),
    ) {
        let mut fast: SegDir<u64> = SegDir::new();
        let mut slow: HashMap<u32, u64> = HashMap::new();
        for (i, (kind, a, b)) in ops.into_iter().enumerate() {
            match kind {
                // Fill: insert/overwrite a line.
                0 | 1 => {
                    let v = i as u64;
                    prop_assert_eq!(fast.insert(a, v), slow.insert(a, v));
                }
                // Eject: remove a line.
                2 => {
                    prop_assert_eq!(fast.remove(a), slow.remove(&a));
                }
                // Rekey: move a line to a new key (end-of-medium path).
                _ => {
                    let f = fast.remove(a);
                    let s = slow.remove(&a);
                    prop_assert_eq!(f, s);
                    if let Some(v) = f {
                        prop_assert_eq!(fast.insert(b, v), slow.insert(b, v));
                    }
                }
            }
            prop_assert_eq!(fast.len(), slow.len());
            prop_assert_eq!(fast.get(a).copied(), slow.get(&a).copied());
            prop_assert_eq!(fast.contains_key(b), slow.contains_key(&b));
        }
        let mut fast_keys: Vec<u32> = fast.keys().collect();
        let mut slow_keys: Vec<u32> = slow.keys().copied().collect();
        fast_keys.sort_unstable();
        slow_keys.sort_unstable();
        prop_assert_eq!(fast_keys, slow_keys);
    }
}

// ---- Run-queue equivalence ---------------------------------------------

/// One step of a scripted actor: wakes to post (target index, signed
/// offset from `now`), then what the step returns.
#[derive(Clone, Debug)]
struct ScriptStep {
    wakes: Vec<(usize, i64)>,
    then: Then,
}

#[derive(Clone, Copy, Debug)]
enum Then {
    /// `Yield(now + offset)`; a negative offset yields into the past.
    Yield(i64),
    Park,
    Done,
}

/// Posts a wake by target index; the real scheduler and the model each
/// supply their own.
type Post = Rc<dyn Fn(usize, SimTime)>;

/// Replays a script, logging `(actor, now)` on every step.
struct Scripted {
    me: usize,
    steps: Vec<ScriptStep>,
    pc: usize,
    post: Post,
}

fn offset(now: SimTime, by: i64) -> SimTime {
    (now as i64 + by).max(0) as SimTime
}

impl Actor<Vec<(usize, SimTime)>> for Scripted {
    fn step(&mut self, log: &mut Vec<(usize, SimTime)>, now: SimTime) -> Step {
        log.push((self.me, now));
        let Some(s) = self.steps.get(self.pc) else {
            return Step::Done;
        };
        self.pc += 1;
        for &(target, by) in &s.wakes {
            (self.post)(target, offset(now, by));
        }
        match s.then {
            Then::Yield(by) => Step::Yield(offset(now, by)),
            Then::Park => Step::Park,
            Then::Done => Step::Done,
        }
    }
}

/// The reference: the scheduler's semantics with the linear scan over
/// every slot (`min_by_key`, first minimum wins) that the heap replaced.
struct ModelSlot {
    actor: Box<dyn Actor<Vec<(usize, SimTime)>>>,
    local: SimTime,
    done: bool,
    parked: bool,
    wake_pending: Option<SimTime>,
}

#[derive(Default)]
struct Model {
    slots: Vec<ModelSlot>,
    inbox: Rc<RefCell<Vec<(usize, SimTime)>>>,
}

impl Model {
    fn spawn(&mut self, actor: Scripted, at: Option<SimTime>) {
        self.slots.push(ModelSlot {
            actor: Box::new(actor),
            local: at.unwrap_or(0),
            done: false,
            parked: at.is_none(),
            wake_pending: None,
        });
    }

    fn run_until(&mut self, log: &mut Vec<(usize, SimTime)>, horizon: SimTime) -> SimTime {
        let mut furthest = 0;
        loop {
            let wakes: Vec<(usize, SimTime)> = self.inbox.borrow_mut().drain(..).collect();
            for (id, at) in wakes {
                let slot = &mut self.slots[id];
                if slot.done {
                    continue;
                }
                if slot.parked {
                    slot.parked = false;
                    slot.local = at;
                } else {
                    slot.wake_pending = Some(slot.wake_pending.map_or(at, |t| t.min(at)));
                }
            }
            let next = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done && !s.parked)
                .min_by_key(|(_, s)| s.local)
                .map(|(i, s)| (i, s.local));
            let Some((idx, now)) = next else {
                return furthest;
            };
            if now > horizon {
                return furthest;
            }
            furthest = furthest.max(now);
            let slot = &mut self.slots[idx];
            match slot.actor.step(log, now) {
                Step::Yield(t) => slot.local = t.max(now),
                Step::Park => match slot.wake_pending.take() {
                    Some(t) => slot.local = t,
                    None => slot.parked = true,
                },
                Step::Done => {
                    slot.done = true;
                    furthest = furthest.max(slot.local);
                }
            }
        }
    }
}

fn script_strategy() -> impl Strategy<Value = Vec<ScriptStep>> {
    prop::collection::vec(
        (
            prop::collection::vec((0usize..8, -12i64..12), 0..3),
            0u8..10,
            -6i64..10,
        ),
        0..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(wakes, kind, by)| ScriptStep {
                wakes,
                then: match kind {
                    0..=4 => Then::Yield(by),
                    5..=8 => Then::Park,
                    _ => Then::Done,
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random actor programs under random external wakes, late parked
    /// spawns and `run_until` horizons: the heap run queue and the
    /// linear-scan model step the same `(actor, time)` sequence and
    /// report the same furthest times.
    #[test]
    fn run_queue_matches_linear_scan_model(
        actors in prop::collection::vec(
            (script_strategy(), any::<bool>(), 0u64..20),
            1..8,
        ),
        phases in prop::collection::vec(
            (prop::collection::vec((0usize..8, 0u64..60), 0..3), 0u64..80, any::<bool>()),
            1..6,
        ),
    ) {
        // Actors spawned later (parked, between phases) start at the
        // back; the first is always spawned up front.
        let (early, late): (Vec<_>, Vec<_>) = actors
            .into_iter()
            .enumerate()
            .partition(|(i, (_, up_front, _))| *i == 0 || *up_front);
        let mut late = late.into_iter();

        let mut sched: Scheduler<Vec<(usize, SimTime)>> = Scheduler::new();
        let ids: Rc<RefCell<Vec<ActorId>>> = Rc::default();
        let waker = sched.waker();
        let real_post: Post = {
            let ids = ids.clone();
            Rc::new(move |target, at| {
                if let Some(&id) = ids.borrow().get(target) {
                    waker.wake(id, at);
                }
            })
        };
        let mut model = Model::default();
        let model_post: Post = {
            let inbox = model.inbox.clone();
            let count = ids.clone();
            Rc::new(move |target, at| {
                if target < count.borrow().len() {
                    inbox.borrow_mut().push((target, at));
                }
            })
        };
        let spawn = |sched: &mut Scheduler<_>, model: &mut Model, steps: Vec<ScriptStep>, at: Option<SimTime>| {
            let me = ids.borrow().len();
            let make = |post: &Post| Scripted { me, steps: steps.clone(), pc: 0, post: post.clone() };
            let id = match at {
                Some(t) => sched.spawn_at(t, make(&real_post)),
                None => sched.spawn_parked(make(&real_post)),
            };
            model.spawn(make(&model_post), at);
            ids.borrow_mut().push(id);
        };
        for (_, (steps, _, at)) in early {
            spawn(&mut sched, &mut model, steps, Some(at));
        }

        let (mut real_log, mut model_log) = (Vec::new(), Vec::new());
        for (wakes, horizon, spawn_one) in phases {
            if spawn_one {
                if let Some((_, (steps, _, _))) = late.next() {
                    spawn(&mut sched, &mut model, steps, None);
                }
            }
            let n = ids.borrow().len();
            for (target, at) in wakes {
                let target = target % n;
                sched.waker().wake(ids.borrow()[target], at);
                model.inbox.borrow_mut().push((target, at));
            }
            let real = sched.run_until(&mut real_log, horizon);
            let reference = model.run_until(&mut model_log, horizon);
            prop_assert_eq!(real, reference, "furthest time at horizon {}", horizon);
            prop_assert_eq!(&real_log, &model_log);
        }
        let real = sched.run(&mut real_log);
        let reference = model.run_until(&mut model_log, SimTime::MAX);
        prop_assert_eq!(real, reference);
        prop_assert_eq!(&real_log, &model_log);
        prop_assert_eq!(sched.steps(), real_log.len() as u64);
        let model_parked = model.slots.iter().filter(|s| !s.done && s.parked).count();
        prop_assert_eq!(sched.parked_actors(), model_parked);
    }
}

// ---- Ticket completion wakers ------------------------------------------

/// The times a [`Watcher`] was stepped at.
type WakeLog = Rc<RefCell<Vec<SimTime>>>;

/// Parks until woken; logs `now` on every step.
struct Watcher {
    log: WakeLog,
}

impl Actor<()> for Watcher {
    fn step(&mut self, _: &mut (), now: SimTime) -> Step {
        self.log.borrow_mut().push(now);
        Step::Park
    }
}

/// Resolves `ticket` in its one step, at its spawn time.
struct Resolver {
    ticket: Ticket,
}

impl Actor<()> for Resolver {
    fn step(&mut self, _: &mut (), _now: SimTime) -> Step {
        self.ticket.complete_for_test(Outcome::Eject(true));
        Step::Done
    }
}

fn watcher(sched: &mut Scheduler<()>) -> (ActorId, WakeLog) {
    let log = WakeLog::default();
    let id = sched.spawn_parked(Watcher { log: log.clone() });
    (id, log)
}

#[test]
fn watcher_wakes_once_at_the_resolving_step() {
    let mut sched: Scheduler<()> = Scheduler::new();
    let (id, log) = watcher(&mut sched);
    let ticket = Ticket::new();
    let waker: Waker = sched.waker();
    ticket.watch(&waker, id);
    sched.spawn_at(
        700,
        Resolver {
            ticket: ticket.clone(),
        },
    );
    sched.run(&mut ());
    assert_eq!(*log.borrow(), vec![700]);
    assert!(ticket.is_done());
    // Nothing left registered: a later run delivers no second wake.
    sched.run(&mut ());
    assert_eq!(log.borrow().len(), 1);
}

#[test]
fn watching_a_resolved_ticket_registers_nothing() {
    let mut sched: Scheduler<()> = Scheduler::new();
    let (id, log) = watcher(&mut sched);
    let ticket = Ticket::new();
    ticket.complete_for_test(Outcome::Eject(false));
    ticket.watch(&sched.waker(), id);
    sched.run(&mut ());
    assert!(
        log.borrow().is_empty(),
        "woken by an already-resolved ticket"
    );
    assert_eq!(sched.parked_actors(), 1);
}

#[test]
fn coalesced_clones_wake_every_watcher() {
    let mut sched: Scheduler<()> = Scheduler::new();
    let (a, log_a) = watcher(&mut sched);
    let (b, log_b) = watcher(&mut sched);
    let ticket = Ticket::new();
    let (ca, cb) = (ticket.clone(), ticket.clone());
    let waker = sched.waker();
    ca.watch(&waker, a);
    cb.watch(&waker, b);
    drop((ca, cb));
    sched.spawn_at(42, Resolver { ticket });
    sched.run(&mut ());
    assert_eq!(*log_a.borrow(), vec![42]);
    assert_eq!(*log_b.borrow(), vec![42]);
}

/// Finishes on its first step.
struct Quitter;

impl Actor<()> for Quitter {
    fn step(&mut self, _: &mut (), _now: SimTime) -> Step {
        Step::Done
    }
}

#[test]
fn wake_aimed_at_a_finished_actor_is_harmless() {
    let mut sched: Scheduler<()> = Scheduler::new();
    let gone = sched.spawn_at(0, Quitter);
    let ticket = Ticket::new();
    ticket.watch(&sched.waker(), gone);
    sched.run(&mut ());
    assert_eq!(sched.live_actors(), 0);
    sched.spawn_at(
        9,
        Resolver {
            ticket: ticket.clone(),
        },
    );
    let end = sched.run(&mut ());
    assert_eq!(end, 9);
    assert!(ticket.is_done());
    assert_eq!(sched.live_actors(), 0);
    assert_eq!(sched.steps(), 2, "the finished actor never stepped again");
}
