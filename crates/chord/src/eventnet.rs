//! An asynchronous, message-level Chord simulation.
//!
//! [`crate::Network`] delivers RPCs synchronously — good for protocol
//! logic, blind to *time*. This module models the network the paper
//! defers to ("requires implementation on a real network"): every
//! message takes `latency` time units, nodes act only on message
//! delivery or timer expiry, routing is **recursive** (each hop forwards
//! `FindSuccessor`; the owner replies directly to the origin), failures
//! silently eat messages, and periodic stabilize/notify timers repair
//! the ring exactly as in the Chord paper.
//!
//! What this adds over the synchronous substrate:
//!
//! * lookup **latency** in time units (≈ hops × latency + reply),
//! * genuinely concurrent joins/failures between maintenance rounds,
//! * message loss on dead nodes and the resulting lookup timeouts.
//!
//! Finger tables come only from [`EventNet::rewire_ground_truth`]; an
//! entry clears when stabilization finds that node dead as the
//! successor. There is no finger refresh over the wire: with a fixed
//! per-message latency and no bandwidth model, a background lookup can
//! delay no other message, so only the lookups a caller issues (joins,
//! [`EventNet::lookup`]) ride the queue.
//!
//! Deliveries wait in one `EventQueue` (`queue.rs`), a timing wheel
//! over a payload slab: almost every delay here is short (latency,
//! stabilize period, substrate tick), so almost every event lands in a
//! per-time FIFO bucket instead of being sifted through a heap.
//! First-attempt lookup deadlines wait in a sorted FIFO beside it, and
//! each step takes the earlier of the two by `(at, seq)`, the order one
//! heap over every event would give.
//!
//! A delivery finds its recipient in the node table once, by id, and the
//! handler reaches the node by that position: no handler changes
//! membership, so the position holds until it returns. The recipient's
//! successor and predecessor are looked for next to it first
//! (`IdTable::position_near`); only a miss, or a finger, costs a
//! search. In-flight lookups sit in one buffer indexed by request id,
//! oldest first, and carry their own `watched` flag.

use crate::fault::{FaultPlan, FaultState};
use crate::fingers::Fingers;
use crate::messages::MessageStats;
use crate::queue::EventQueue;
use crate::table::IdTable;
use autobal_id::{ring, Id};
use autobal_telemetry::{MessageStatus, Trace};
use rand::Rng;
use std::collections::VecDeque;

/// Tunables for the event-driven overlay.
#[derive(Debug, Clone, Copy)]
pub struct EventConfig {
    /// One-way message latency in time units.
    pub latency: u64,
    /// Interval between a node's stabilize timer firings.
    pub stabilize_every: u64,
    /// How long the origin waits for a lookup reply before declaring
    /// failure.
    pub lookup_timeout: u64,
    /// Successor-list length.
    pub successor_list_len: usize,
    /// Safety cap on forwarding hops.
    pub max_hops: u32,
}

impl Default for EventConfig {
    fn default() -> EventConfig {
        EventConfig {
            latency: 10,
            stabilize_every: 100,
            lookup_timeout: 2_000,
            successor_list_len: 5,
            max_hops: 256,
        }
    }
}

/// Application-level payloads carried over the overlay's wire: the
/// strategy vocabulary (load probes, invitations) the event-time
/// substrate sends between vnodes. These ride the same queue, latency,
/// and fault machinery as protocol traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppMsg {
    /// "How many task keys do you hold?" (billed like the sync probe).
    LoadQuery,
    /// Cross-checking relay probe: "how many task keys does `target`
    /// hold, as far as you can tell?" Billed like a direct probe; the
    /// *relay* answers from its replica knowledge, so a Byzantine relay
    /// distorts the answer while the target stays out of the loop.
    LoadQueryAbout { target: Id },
    /// Reply to a `LoadQuery` or `LoadQueryAbout`.
    LoadReply { load: u64 },
    /// Overload announcement from worker `inviter` (billed).
    Invitation { inviter: u64 },
    /// Reply to an `Invitation`: can the recipient's owner help, and at
    /// what current load?
    InviteReply { can: bool, load: u64 },
    /// Delivery failure bounce: the recipient was dead. Never sent in
    /// response to another `Nack`, so bounces cannot loop.
    Nack,
}

/// What [`EventNet::run_until_app`] surfaces to the embedding
/// substrate: an application message arriving at a live node, an
/// application timer firing, or a watched lookup completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// `msg` arrived at live node `at` (sent by `from` under `req`).
    Msg {
        at: Id,
        from: Id,
        req: u64,
        msg: AppMsg,
    },
    /// An application timer armed via
    /// [`EventNet::schedule_app_timer`] fired.
    Timer { token: u64 },
    /// A lookup registered with [`EventNet::watch_lookup`] (or started
    /// by [`EventNet::join_tracked`]) finished.
    LookupDone(AsyncLookup),
}

/// Protocol messages (and local timers).
#[derive(Debug, Clone)]
enum Msg {
    /// Recursive routing step for `key`; the eventual owner replies to
    /// `origin` with `FoundSuccessor`.
    FindSuccessor {
        key: Id,
        origin: Id,
        req: u64,
        hops: u32,
    },
    /// Routing reply delivered to the origin.
    FoundSuccessor {
        key: Id,
        owner: Id,
        req: u64,
        hops: u32,
    },
    /// Stabilize probe: "who is your predecessor?"
    GetPredecessor { from: Id },
    /// Stabilize reply with the successor's predecessor + list.
    PredecessorIs {
        of: Id,
        pred: Option<Id>,
        succ_list: Vec<Id>,
    },
    /// Chord notify.
    Notify { from: Id },
    /// Local periodic timer (self-addressed).
    StabilizeTimer,
    /// Local timeout check for a pending lookup.
    LookupTimeout { req: u64 },
    /// Application message between vnodes (strategy traffic).
    App { from: Id, req: u64, app: AppMsg },
    /// Application timer (substrate tick/check cadence); delivered to
    /// the embedding substrate, not to any node.
    AppTimer { token: u64 },
}

/// Per-node state (message-level variant).
#[derive(Debug, Clone)]
struct ENode {
    id: Id,
    successors: Vec<Id>,
    predecessor: Option<Id>,
    /// Set only by [`EventNet::rewire_ground_truth`]; an entry clears
    /// when its node is found dead as this node's successor.
    fingers: Fingers,
}

impl ENode {
    fn new(id: Id) -> ENode {
        ENode {
            id,
            successors: vec![id],
            predecessor: None,
            fingers: Fingers::new(),
        }
    }

    fn successor(&self) -> Id {
        self.successors.first().copied().unwrap_or(self.id)
    }
}

/// Outcome of an asynchronous lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncLookup {
    pub req: u64,
    pub key: Id,
    /// `Some(owner)` on success, `None` on timeout.
    pub owner: Option<Id>,
    /// Time units from request to reply (or to timeout).
    pub latency: u64,
    pub hops: u32,
}

/// An in-flight lookup: what was asked, when, by whom, how many times
/// it has been (re)issued, and whether its completion surfaces as an
/// [`AppEvent::LookupDone`].
#[derive(Debug, Clone, Copy)]
struct PendingLookup {
    key: Id,
    sent_at: u64,
    origin: Id,
    attempts: u32,
    watched: bool,
}

/// A queued delivery: `msg` for `dst`. Its `(at, seq)` key lives in
/// the [`EventQueue`] slot that holds it, so the payload takes part in
/// no comparison and moves only on push and pop.
struct Scheduled {
    dst: Id,
    msg: Msg,
}

/// The event-driven overlay.
pub struct EventNet {
    cfg: EventConfig,
    time: u64,
    seq: u64,
    /// Every scheduled delivery but first-attempt lookup deadlines.
    queue: EventQueue<Scheduled>,
    /// First-attempt lookup deadlines as `(at, seq, req)`. Each is armed
    /// at `time + lookup_timeout` with a fresh `seq`, and time never runs
    /// backwards, so pushes arrive sorted and need no heap. A lookup
    /// that finishes first leaves its entry to be skipped on pop,
    /// without ever being delivered.
    timeouts: VecDeque<(u64, u64, u64)>,
    /// Every live node, in ascending id order.
    nodes: IdTable<ENode>,
    /// In-flight lookups by request id: slot `req - oldest` holds
    /// lookup `req`, or `None` once it finished or when `req` named an
    /// application request. Request ids are handed out in order, so a
    /// lookup appends its slot and finished slots leave from the front.
    /// A lookup whose origin dies before it finishes keeps its slot,
    /// since a reply may still reach the origin if that id rejoins.
    pending: VecDeque<Option<PendingLookup>>,
    /// The request id of `pending`'s front slot.
    oldest: u64,
    completed: Vec<AsyncLookup>,
    next_req: u64,
    /// Messages that died with their recipient. A first-attempt lookup
    /// timeout whose lookup already finished is never delivered, so it
    /// is not counted here even when its origin has died.
    pub dropped: u64,
    /// Delivered-message counters by kind (reusing the sync taxonomy).
    pub stats: MessageStats,
    /// Armed fault plan (inert unless [`EventNet::set_fault_plan`]).
    faults: FaultState,
    /// High-water mark for already-applied scheduled crashes.
    crash_clock: u64,
    /// Flight recorder (inert unless [`EventNet::enable_trace`]);
    /// stamped with event time, never wall-clock.
    trace: Trace,
    /// Reusable buffer for successor-list rebuilds during stabilize —
    /// the per-message hot path — swapped with the node's previous
    /// vector so steady-state stabilization never allocates.
    succ_scratch: Vec<Id>,
    /// Cleared buffers for `PredecessorIs` successor lists: a reply
    /// takes one and its receiver hands it back once merged, so steady
    /// stabilization allocates no payload.
    succ_lists: Vec<Vec<Id>>,
    /// Application events (messages, timers, watched-lookup results)
    /// ready for the embedding substrate to consume.
    app_events: VecDeque<AppEvent>,
    /// Events delivered to a handler (for events/s accounting). A
    /// first-attempt lookup timeout whose lookup already finished is
    /// skipped, not delivered, and is not counted.
    pub wire_events: u64,
}

/// Telemetry label for a wire message: lookups are traced end-to-end,
/// maintenance traffic is grouped by purpose.
fn wire_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::FindSuccessor { .. } | Msg::FoundSuccessor { .. } | Msg::LookupTimeout { .. } => {
            "lookup"
        }
        Msg::StabilizeTimer | Msg::GetPredecessor { .. } | Msg::PredecessorIs { .. } => "stabilize",
        Msg::Notify { .. } => "notify",
        Msg::App { app, .. } => match app {
            AppMsg::LoadQuery | AppMsg::LoadQueryAbout { .. } | AppMsg::LoadReply { .. } => {
                "load_query"
            }
            AppMsg::Invitation { .. } | AppMsg::InviteReply { .. } => "invitation",
            AppMsg::Nack => "app",
        },
        Msg::AppTimer { .. } => "timer",
    }
}

impl EventNet {
    fn empty(cfg: EventConfig) -> EventNet {
        EventNet {
            cfg,
            time: 0,
            seq: 0,
            queue: EventQueue::new(),
            timeouts: VecDeque::new(),
            nodes: IdTable::default(),
            pending: VecDeque::new(),
            oldest: 0,
            completed: Vec::new(),
            next_req: 0,
            dropped: 0,
            stats: MessageStats::new(),
            faults: FaultState::inert(),
            crash_clock: 0,
            trace: Trace::default(),
            succ_scratch: Vec::new(),
            succ_lists: Vec::new(),
            app_events: VecDeque::new(),
            wire_events: 0,
        }
    }

    /// A fully stabilized ring of `n` random nodes with timers armed.
    pub fn bootstrap<R: rand::Rng + ?Sized>(cfg: EventConfig, n: usize, rng: &mut R) -> EventNet {
        EventNet::from_ids(cfg, &Id::distinct_random(n, rng))
    }

    /// A fully stabilized ring over the given node ids (duplicates
    /// collapse), with timers armed — the differential hook the
    /// event-time substrate uses to mirror a synchronous `Network`.
    pub fn from_ids(cfg: EventConfig, ids: &[Id]) -> EventNet {
        let mut net = EventNet::empty(cfg);
        net.nodes = IdTable::from_ids(ids, ENode::new);
        net.finish_bootstrap();
        net
    }

    fn finish_bootstrap(&mut self) {
        // Ground-truth wiring (paper: the network starts stable).
        self.rewire_ground_truth();
        // Stagger stabilize timers so the network does not thunder.
        let every = self.cfg.stabilize_every.max(1);
        for i in 0..self.nodes.len() {
            let jitter = (i as u64 * 7) % every;
            let at = self.time + jitter + 1;
            self.send_at(at, self.nodes.id_at(i), Msg::StabilizeTimer);
        }
    }

    /// Rewires every live node's successor list, predecessor, and
    /// finger table from ground truth — as if stabilization had fully
    /// converged this instant. The degenerate event-substrate
    /// configuration calls this after each membership change
    /// ("stabilize-before-check" ordering), which is what makes its
    /// decision trace bit-comparable to the synchronous substrate's.
    pub fn rewire_ground_truth(&mut self) {
        let slen = self.cfg.successor_list_len;
        self.nodes.wire(slen, 1, |node, succ, pred, fingers| {
            node.successors.clear();
            node.successors.extend_from_slice(succ);
            node.predecessor = pred.first().copied();
            node.fingers.clone_from(fingers);
        });
    }

    /// Arms a fault plan for the rest of the run. Scheduled crash times
    /// earlier than the current clock are considered already consumed.
    /// The default plan is inert, so untouched networks behave exactly
    /// as they did before the fault plane existed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(plan);
        self.crash_clock = self.time;
    }

    /// The currently armed plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// Arms the flight recorder: lookup completions, timeouts (with
    /// their retry counts), and wire-level drops are recorded from now
    /// on, stamped with event time.
    pub fn enable_trace(&mut self, seed: u64) {
        let mut trace = Trace::new(true);
        trace.run_start(self.time, "eventnet", "none", seed);
        self.trace = trace;
    }

    /// The recorded trace (empty unless [`EventNet::enable_trace`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.time
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node_ids(&self) -> Vec<Id> {
        self.nodes.keys().copied().collect()
    }

    /// Ground-truth owner (oracle; used by tests).
    pub fn owner_of(&self, key: Id) -> Option<Id> {
        self.nodes.owner(&key)
    }

    /// Kills a node instantly; in-flight messages to it are dropped at
    /// delivery time.
    pub fn fail(&mut self, id: Id) -> bool {
        self.nodes.remove(&id).is_some()
    }

    /// A new node joins through `contact`: its own-id lookup resolves
    /// asynchronously; until then it only knows the contact.
    pub fn join(&mut self, id: Id, contact: Id) -> bool {
        self.join_tracked(id, contact).is_some()
    }

    /// [`EventNet::join`], but the join's own-id lookup is watched: its
    /// completion surfaces as an [`AppEvent::LookupDone`] carrying the
    /// returned request id, so the embedding substrate can block on it.
    pub fn join_tracked(&mut self, id: Id, contact: Id) -> Option<u64> {
        if self.nodes.contains_key(&id) || !self.nodes.contains_key(&contact) {
            return None;
        }
        let mut node = ENode::new(id);
        node.successors = vec![contact];
        self.nodes.insert(id, node);
        let req = self.start_lookup_from(id, id);
        self.watch_lookup(req);
        let t = self.time + 1;
        self.send_at(t, id, Msg::StabilizeTimer);
        Some(req)
    }

    /// Issues an asynchronous lookup from `origin`; returns the request
    /// id. Results arrive in [`EventNet::drain_completed`] once the run
    /// advances far enough.
    pub fn lookup(&mut self, origin: Id, key: Id) -> Option<u64> {
        if !self.nodes.contains_key(&origin) {
            return None;
        }
        Some(self.start_lookup_from(origin, key))
    }

    fn start_lookup_from(&mut self, origin: Id, key: Id) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        if self.pending.is_empty() {
            self.oldest = req;
        }
        // Application requests since the last lookup leave empty slots.
        self.pending.resize((req - self.oldest) as usize, None);
        self.pending.push_back(Some(PendingLookup {
            key,
            sent_at: self.time,
            origin,
            attempts: 1,
            watched: false,
        }));
        // Self-delivery kicks off routing locally at +0 latency.
        self.deliver_local(
            origin,
            Msg::FindSuccessor {
                key,
                origin,
                req,
                hops: 0,
            },
        );
        let at = self.time + self.cfg.lookup_timeout;
        let seq = self.next_seq();
        debug_assert!(
            self.timeouts
                .back()
                .is_none_or(|&(a, s, _)| (a, s) < (at, seq)),
            "lookup deadlines arrive in (at, seq) order"
        );
        self.timeouts.push_back((at, seq, req));
        req
    }

    /// Drains finished lookups in completion order. The buffer stays
    /// with the wire for the next ones.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, AsyncLookup> {
        self.completed.drain(..)
    }

    /// Registers interest in a pending lookup: when it completes (or
    /// times out), an [`AppEvent::LookupDone`] surfaces through
    /// [`EventNet::run_until_app`].
    /// A request that already finished, or that is no lookup, is
    /// ignored.
    pub fn watch_lookup(&mut self, req: u64) {
        if let Some(p) = self.pending_mut(req) {
            p.watched = true;
        }
    }

    /// Sends an application request from vnode `from` to vnode `dst`
    /// over the real wire (latency, loss, partitions, duplication all
    /// apply). Requests are billed to [`EventNet::stats`] by kind
    /// before the fault draw, mirroring the synchronous substrate's
    /// bill-then-maybe-drop `try_message`. Returns the request id the
    /// eventual reply (or `Nack`) will carry.
    pub fn send_app(&mut self, from: Id, dst: Id, app: AppMsg) -> u64 {
        use crate::messages::MessageKind as MK;
        match app {
            AppMsg::LoadQuery | AppMsg::LoadQueryAbout { .. } => self.stats.record(MK::LoadQuery),
            AppMsg::Invitation { .. } => self.stats.record(MK::Invitation),
            _ => {}
        }
        let req = self.next_req;
        self.next_req += 1;
        self.send(from, dst, Msg::App { from, req, app });
        req
    }

    /// Sends an application reply (unbilled — the request already paid)
    /// through the same wire machinery.
    pub fn reply_app(&mut self, from: Id, dst: Id, req: u64, app: AppMsg) {
        self.send(from, dst, Msg::App { from, req, app });
    }

    /// Arms an application timer that fires at absolute time `at` as an
    /// [`AppEvent::Timer`]. Timers are local to the embedding substrate
    /// (no node address, no faults) but share the queue, so they
    /// interleave deterministically with wire traffic.
    pub fn schedule_app_timer(&mut self, at: u64, token: u64) {
        let at = at.max(self.time);
        self.send_at(at, Id::ZERO, Msg::AppTimer { token });
    }

    /// Runs the event loop until `deadline` (inclusive) or queue
    /// exhaustion. Returns events delivered to a handler.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        let before = self.wire_events;
        while self.step(deadline) {}
        self.apply_due_crashes(deadline);
        self.time = self.time.max(deadline);
        self.wire_events - before
    }

    /// Runs the event loop until the next application event (message
    /// arrival, timer firing, watched-lookup completion), `deadline`,
    /// or queue exhaustion — whichever comes first. Protocol traffic
    /// (stabilize, notify, routing) is processed inline, so
    /// application events genuinely race stabilization.
    ///
    /// A `deadline` of `u64::MAX` means "wait for the next app event":
    /// the clock is left at the last processed event rather than being
    /// catapulted to the horizon when the queue drains.
    pub fn run_until_app(&mut self, deadline: u64) -> Option<AppEvent> {
        loop {
            if let Some(ev) = self.app_events.pop_front() {
                return Some(ev);
            }
            if !self.step(deadline) {
                break;
            }
        }
        if deadline != u64::MAX {
            self.apply_due_crashes(deadline);
            self.time = self.time.max(deadline);
        }
        None
    }

    // ---- internals --------------------------------------------------

    /// The one "next event" step both loops share: takes the earlier of
    /// the queue's head and the timeout FIFO front by `(at, seq)`, if it
    /// is due by `deadline`, and delivers it to [`EventNet::handle`] —
    /// or skips it undelivered when it is a finished lookup's timeout.
    /// Returns `false` when nothing is due.
    fn step(&mut self, deadline: u64) -> bool {
        let head = self.queue.peek(self.time);
        let fifo = self.timeouts.front().map(|&(at, seq, _)| (at, seq));
        let (at, from_fifo) = match (head, fifo) {
            (Some(h), Some(f)) if f < (h.at, h.seq) => (f.0, true),
            (Some(h), _) => (h.at, false),
            (None, Some(f)) => (f.0, true),
            (None, None) => return false,
        };
        if at > deadline {
            return false;
        }
        self.apply_due_crashes(at);
        let (dst, msg) = if from_fifo {
            let Some((_, _, req)) = self.timeouts.pop_front() else {
                return false;
            };
            let Some(p) = self.pending(req) else {
                return true;
            };
            (p.origin, Msg::LookupTimeout { req })
        } else {
            let Some(e) = head.and_then(|h| self.queue.pop(h)) else {
                return false;
            };
            (e.dst, e.msg)
        };
        self.time = self.time.max(at);
        self.wire_events += 1;
        self.handle(dst, msg);
        true
    }

    /// `pending`'s slot for request `req`, if `req` is not older than
    /// its front.
    fn slot(&self, req: u64) -> Option<usize> {
        req.checked_sub(self.oldest).map(|d| d as usize)
    }

    /// The in-flight lookup `req`, if it has not finished.
    fn pending(&self, req: u64) -> Option<&PendingLookup> {
        self.pending.get(self.slot(req)?)?.as_ref()
    }

    fn pending_mut(&mut self, req: u64) -> Option<&mut PendingLookup> {
        let slot = self.slot(req)?;
        self.pending.get_mut(slot)?.as_mut()
    }

    /// Finishes the in-flight lookup `req`: empties its slot, then drops
    /// the empty slots at the front.
    fn take_pending(&mut self, req: u64) -> Option<PendingLookup> {
        let slot = self.slot(req)?;
        let p = self.pending.get_mut(slot)?.take();
        while self.pending.front().is_some_and(Option::is_none) {
            self.pending.pop_front();
            self.oldest += 1;
        }
        p
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Executes scheduled crash events whose time has come, picking
    /// victims from the fault stream. Always leaves at least one node.
    fn apply_due_crashes(&mut self, upto: u64) {
        if self.faults.plan().crashes.is_empty() || upto <= self.crash_clock {
            return;
        }
        let due = self.faults.crashes_due(self.crash_clock, upto);
        self.crash_clock = upto;
        for _ in 0..due {
            if self.nodes.len() <= 1 {
                break;
            }
            // Same victim the old `node_ids()[gen_range(..)]` picked —
            // the idx-th node in id order — without collecting the ids.
            let len = self.nodes.len();
            let idx = self.faults.rng().gen_range(0..len);
            if let Some(victim) = self.nodes.keys().nth(idx).copied() {
                self.nodes.remove(&victim);
            }
        }
    }

    fn send_at(&mut self, at: u64, dst: Id, msg: Msg) {
        let seq = self.next_seq();
        self.queue.push(self.time, at, seq, Scheduled { dst, msg });
    }

    /// A real wire message from `from` to `dst`: subject to loss,
    /// duplication, extra delay, and partitions. Local timers bypass
    /// this and use [`EventNet::send_at`] directly — a node can always
    /// talk to itself.
    fn send(&mut self, from: Id, dst: Id, msg: Msg) {
        let mut at = self.time + self.cfg.latency;
        if self.faults.is_active() {
            if self.faults.partitioned(self.time, from, dst) || self.faults.lose_message() {
                self.stats.dropped += 1;
                self.trace
                    .message(self.time, wire_kind(&msg), MessageStatus::Dropped, 0);
                return;
            }
            at += self.faults.extra_delay();
            if self.faults.duplicate_message() {
                self.send_at(at + 1, dst, msg.clone());
            }
        }
        self.send_at(at, dst, msg);
    }

    fn deliver_local(&mut self, dst: Id, msg: Msg) {
        let t = self.time;
        self.send_at(t, dst, msg);
    }

    fn handle(&mut self, dst: Id, msg: Msg) {
        // Application timers belong to the embedding substrate, not to
        // any node — they fire regardless of ring membership.
        if let Msg::AppTimer { token } = msg {
            self.app_events.push_back(AppEvent::Timer { token });
            return;
        }
        let Some(at) = self.nodes.position(&dst) else {
            // Recipient died; the message evaporates.
            self.dropped += 1;
            self.trace
                .message(self.time, wire_kind(&msg), MessageStatus::Dropped, 0);
            // Application *requests* to a corpse bounce, so a blocking
            // caller learns `Unreachable` instead of waiting out its
            // timeout. Replies and bounces die silently — a `Nack` is
            // never Nacked, so bounces cannot loop between two corpses.
            if let Msg::App { from, req, app } = msg {
                if matches!(
                    app,
                    AppMsg::LoadQuery | AppMsg::LoadQueryAbout { .. } | AppMsg::Invitation { .. }
                ) {
                    self.send(
                        dst,
                        from,
                        Msg::App {
                            from: dst,
                            req,
                            app: AppMsg::Nack,
                        },
                    );
                }
            }
            return;
        };
        // A handler never changes membership, so `at` stays the
        // recipient's position until it returns, and its successor and
        // predecessor sit next to it when the ring is consistent.
        let (succ_at, pred_at) = (at + 1, self.nodes.back(at, 1));
        use crate::messages::MessageKind as MK;
        match msg {
            Msg::AppTimer { .. } => {
                // Intercepted above; unreachable here, but the match
                // must stay exhaustive without a catch-all.
            }
            Msg::App { from, req, app } => {
                self.app_events.push_back(AppEvent::Msg {
                    at: dst,
                    from,
                    req,
                    msg: app,
                });
            }
            Msg::FindSuccessor {
                key,
                origin,
                req,
                hops,
            } => {
                self.stats.record(MK::FindSuccessorHop);
                if hops >= self.cfg.max_hops {
                    return; // let the origin's timeout fire
                }
                let node = self.nodes.at(at);
                let succ = node.successor();
                let pred_owns = node.predecessor.is_some_and(|p| ring::in_arc(p, dst, key));
                if ring::in_arc(dst, succ, key)
                    && self.nodes.position_near(&succ, succ_at).is_some()
                {
                    // The successor owns it; reply straight to origin.
                    self.send(
                        dst,
                        origin,
                        Msg::FoundSuccessor {
                            key,
                            owner: succ,
                            req,
                            hops: hops + 1,
                        },
                    );
                } else if pred_owns {
                    self.send(
                        dst,
                        origin,
                        Msg::FoundSuccessor {
                            key,
                            owner: dst,
                            req,
                            hops,
                        },
                    );
                } else {
                    let next = node
                        .fingers
                        .closest_preceding(dst, &node.successors, key)
                        .filter(|n| self.nodes.contains_key(n))
                        .unwrap_or(succ);
                    if next == dst {
                        self.send(
                            dst,
                            origin,
                            Msg::FoundSuccessor {
                                key,
                                owner: dst,
                                req,
                                hops,
                            },
                        );
                    } else {
                        self.send(
                            dst,
                            next,
                            Msg::FindSuccessor {
                                key,
                                origin,
                                req,
                                hops: hops + 1,
                            },
                        );
                    }
                }
            }
            Msg::FoundSuccessor {
                key,
                owner,
                req,
                hops,
            } => {
                if let Some(p) = self.take_pending(req) {
                    debug_assert_eq!(p.key, key);
                    self.trace.message(
                        self.time,
                        "lookup",
                        MessageStatus::Delivered,
                        u64::from(p.attempts.saturating_sub(1)),
                    );
                    let done = AsyncLookup {
                        req,
                        key,
                        owner: Some(owner),
                        latency: self.time - p.sent_at,
                        hops,
                    };
                    self.completed.push(done);
                    if p.watched {
                        self.app_events.push_back(AppEvent::LookupDone(done));
                    }
                    // A lookup for one's own id is a join completing:
                    // adopt the owner as successor.
                    if key == dst && owner != dst {
                        let node = self.nodes.at_mut(at);
                        node.successors.retain(|&s| s != owner);
                        node.successors.insert(0, owner);
                        node.successors.truncate(self.cfg.successor_list_len);
                        self.send(dst, owner, Msg::Notify { from: dst });
                    }
                }
            }
            Msg::LookupTimeout { req } => {
                let Some(p) = self.pending(req).copied() else {
                    return;
                };
                debug_assert_eq!(p.origin, dst, "a lookup's deadlines go to its origin");
                // Under an active fault plan the reply may simply have
                // been eaten: re-issue the lookup with exponential
                // backoff until the attempt budget runs out. Without
                // faults, a timeout means routing truly failed (dead
                // nodes), and retrying would only repeat it.
                let budget = self.faults.plan().max_attempts.max(1);
                if self.faults.is_active() && p.attempts < budget {
                    self.stats.retries += 1;
                    if let Some(p) = self.pending_mut(req) {
                        p.attempts += 1;
                    }
                    self.deliver_local(
                        p.origin,
                        Msg::FindSuccessor {
                            key: p.key,
                            origin: p.origin,
                            req,
                            hops: 0,
                        },
                    );
                    // Wait twice as long before the next check.
                    let wait = self.cfg.lookup_timeout << p.attempts.min(16);
                    let at = self.time + wait;
                    self.send_at(at, p.origin, Msg::LookupTimeout { req });
                    return;
                }
                self.take_pending(req);
                self.stats.timeouts += 1;
                self.trace.message(
                    self.time,
                    "lookup",
                    MessageStatus::TimedOut,
                    u64::from(p.attempts.saturating_sub(1)),
                );
                let done = AsyncLookup {
                    req,
                    key: p.key,
                    owner: None,
                    latency: self.time - p.sent_at,
                    hops: 0,
                };
                self.completed.push(done);
                if p.watched {
                    self.app_events.push_back(AppEvent::LookupDone(done));
                }
            }
            Msg::StabilizeTimer => {
                self.stats.record(MK::Stabilize);
                // A node cannot test successor liveness locally; dead
                // entries are detected below, when the probe to `succ`
                // finds nobody home, and skipped on the next timer.
                let succ = self.nodes.at(at).successor();
                if succ != dst && self.nodes.position_near(&succ, succ_at).is_some() {
                    self.send(dst, succ, Msg::GetPredecessor { from: dst });
                } else if succ != dst {
                    // Successor dead: fall to the next list entry.
                    let node = self.nodes.at_mut(at);
                    node.successors.retain(|&s| s != succ);
                    node.fingers.forget(succ);
                    if node.successors.is_empty() {
                        node.successors.push(dst);
                    }
                }
                // Re-arm the timer.
                let at = self.time + self.cfg.stabilize_every;
                self.send_at(at, dst, Msg::StabilizeTimer);
            }
            Msg::GetPredecessor { from } => {
                let node = self.nodes.at(at);
                let mut succ_list = self.succ_lists.pop().unwrap_or_default();
                succ_list.extend_from_slice(&node.successors);
                let reply = Msg::PredecessorIs {
                    of: dst,
                    pred: node.predecessor,
                    succ_list,
                };
                self.send(dst, from, reply);
            }
            Msg::PredecessorIs {
                of,
                pred,
                mut succ_list,
            } => {
                let cap = self.cfg.successor_list_len;
                // stabilize: adopt x = succ.pred if it lies between
                // (`dst` doubles as the node's own id: map key == id);
                // such an x would be the node's new successor.
                let adopt = pred.filter(|&x| {
                    x != dst
                        && self.nodes.position_near(&x, succ_at).is_some()
                        && ring::in_open_arc(dst, of, x)
                });
                // Build the new list in the reusable scratch buffer, then
                // swap it with the node's old vector — contents identical
                // to the fresh-`Vec` construction, but the steady state
                // recycles two buffers forever.
                let mut list = std::mem::take(&mut self.succ_scratch);
                list.clear();
                if let Some(x) = adopt {
                    list.push(x);
                }
                list.push(of);
                list.extend(succ_list.iter().filter(|&&s| s != dst));
                succ_list.clear();
                self.succ_lists.push(succ_list);
                list.dedup();
                list.truncate(cap);
                let node = self.nodes.at_mut(at);
                std::mem::swap(&mut node.successors, &mut list);
                self.succ_scratch = list;
                let new_succ = node.successor();
                if new_succ != dst {
                    self.stats.record(MK::Notify);
                    self.send(dst, new_succ, Msg::Notify { from: dst });
                }
            }
            Msg::Notify { from } => {
                // The notifier is usually the recipient's predecessor.
                if self.nodes.position_near(&from, pred_at).is_none() {
                    return;
                }
                let accept = match self.nodes.at(at).predecessor {
                    None => true,
                    Some(p) => {
                        self.nodes.position_near(&p, pred_at).is_none()
                            || ring::in_open_arc(p, dst, from)
                    }
                };
                if accept {
                    self.nodes.at_mut(at).predecessor = Some(from);
                }
            }
        }
    }

    /// Checks every live node's successor pointer against ground truth.
    pub fn is_ring_consistent(&self) -> bool {
        if self.nodes.len() < 2 {
            return true;
        }
        for (&id, node) in &self.nodes {
            if Some(node.successor()) != self.nodes.successor(&id) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_id::sha1::sha1_id_of_u64;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn drain_app_lookups(net: &mut EventNet, reqs: &[u64]) -> Vec<AsyncLookup> {
        net.drain_completed()
            .filter(|l| reqs.contains(&l.req))
            .collect()
    }

    #[test]
    fn trace_records_lookup_outcomes_in_event_time() {
        use autobal_telemetry::summarize;
        let mut net = EventNet::bootstrap(EventConfig::default(), 64, &mut rng(40));
        assert!(net.trace().is_empty(), "tracing is strictly opt-in");
        net.enable_trace(40);
        net.set_fault_plan(FaultPlan::lossy(40, 0.15));
        let origin = net.node_ids()[0];
        let mut reqs = Vec::new();
        for i in 0..20u64 {
            reqs.push(net.lookup(origin, sha1_id_of_u64(i)).unwrap());
        }
        net.run_until(60_000);
        let done = drain_app_lookups(&mut net, &reqs);
        assert_eq!(done.len(), 20);
        let s = summarize(net.trace().records());
        assert_eq!(s.substrate, "eventnet");
        // Every lookup ends as exactly one Delivered or TimedOut
        // record; loss shows up as drops/retries.
        let resolved = s.messages.delivered + s.messages.timed_out;
        assert!(resolved >= 20, "at least the app lookups resolved");
        assert!(
            s.messages.dropped > 0,
            "15% loss must surface as Dropped records"
        );
        assert!(s.last_time <= net.now(), "virtual time only");
        for r in net.trace().records() {
            assert!(r.time <= net.now());
        }
    }

    /// Lookups interleaved with application requests, which take
    /// request ids of their own, all finish; only the watched lookup
    /// surfaces as `LookupDone`, once, while watching an application
    /// request does nothing; and the pending buffer drains to empty.
    #[test]
    fn pending_lookups_skip_application_request_ids() {
        let mut net = EventNet::bootstrap(EventConfig::default(), 16, &mut rng(30));
        let ids = net.node_ids();
        let mut reqs = Vec::new();
        for i in 0..12 {
            net.send_app(ids[0], ids[1 + i % 15], AppMsg::LoadQuery);
            reqs.push(net.lookup(ids[i], sha1_id_of_u64(i as u64)).unwrap());
        }
        net.watch_lookup(reqs[5]);
        net.watch_lookup(reqs[5] - 1);
        let mut surfaced = Vec::new();
        while let Some(ev) = net.run_until_app(5_000) {
            if let AppEvent::LookupDone(l) = ev {
                surfaced.push(l.req);
            }
        }
        assert_eq!(surfaced, vec![reqs[5]]);
        let mut done: Vec<u64> = net.drain_completed().map(|l| l.req).collect();
        done.sort_unstable();
        assert_eq!(done, reqs);
        assert!(net.pending.is_empty());
    }

    #[test]
    fn async_lookup_resolves_to_oracle_owner() {
        let mut net = EventNet::bootstrap(EventConfig::default(), 64, &mut rng(1));
        let origin = net.node_ids()[0];
        let mut reqs = Vec::new();
        let mut truths = Vec::new();
        for i in 0..20u64 {
            let key = sha1_id_of_u64(i);
            truths.push(net.owner_of(key).unwrap());
            reqs.push(net.lookup(origin, key).unwrap());
        }
        net.run_until(5_000);
        let done = drain_app_lookups(&mut net, &reqs);
        assert_eq!(done.len(), 20);
        for l in &done {
            let idx = reqs.iter().position(|r| *r == l.req).unwrap();
            assert_eq!(l.owner, Some(truths[idx]), "req {}", l.req);
        }
    }

    #[test]
    fn latency_scales_with_hops() {
        let cfg = EventConfig::default();
        let mut net = EventNet::bootstrap(cfg, 128, &mut rng(2));
        let origin = net.node_ids()[0];
        let mut reqs = Vec::new();
        for i in 0..30u64 {
            reqs.push(net.lookup(origin, sha1_id_of_u64(i)).unwrap());
        }
        net.run_until(10_000);
        let done = drain_app_lookups(&mut net, &reqs);
        assert_eq!(done.len(), 30);
        for l in done {
            assert!(l.owner.is_some());
            // Recursive routing: some forwards plus one reply, each
            // costing `latency`; hop counting differs by ±1 across the
            // terminal branches, so bound rather than pin.
            assert!(l.latency >= cfg.latency, "at least the reply hop");
            assert_eq!(l.latency % cfg.latency, 0, "whole message hops");
            assert!(
                l.latency <= (l.hops as u64 + 2) * cfg.latency,
                "hops {} latency {}",
                l.hops,
                l.latency
            );
        }
    }

    #[test]
    fn lookup_after_failure_times_out_or_resolves() {
        let cfg = EventConfig::default();
        let mut net = EventNet::bootstrap(cfg, 32, &mut rng(8));
        let ids = net.node_ids();
        let origin = ids[0];
        // Kill a third of the ring with no stabilization time.
        for id in ids.iter().skip(1).step_by(3) {
            net.fail(*id);
        }
        let mut reqs = Vec::new();
        for i in 0..20u64 {
            reqs.push(net.lookup(origin, sha1_id_of_u64(i)).unwrap());
        }
        net.run_until(30_000);
        let done = drain_app_lookups(&mut net, &reqs);
        assert_eq!(done.len(), 20, "every lookup completes or times out");
        // At least some succeed even mid-carnage (stale fingers route
        // around corpses via live entries).
        let ok = done.iter().filter(|l| l.owner.is_some()).count();
        assert!(ok >= 5, "resolved lookups mid-carnage: {ok}");
        // Without a fault plan nothing retries: a timed-out lookup fired
        // exactly at its first-attempt deadline from the timeout FIFO.
        let timed_out: Vec<_> = done.iter().filter(|l| l.owner.is_none()).collect();
        assert!(!timed_out.is_empty(), "some lookups die with the carnage");
        for l in timed_out {
            assert_eq!(l.latency, cfg.lookup_timeout, "req {}", l.req);
        }
        assert_eq!(net.stats.retries, 0);
        assert!(net.dropped > 0, "messages to dead nodes are dropped");
    }

    #[test]
    fn stabilization_repairs_the_ring_after_failures() {
        let cfg = EventConfig::default();
        let mut net = EventNet::bootstrap(cfg, 48, &mut rng(4));
        let ids = net.node_ids();
        for id in ids.iter().skip(2).step_by(8) {
            net.fail(*id);
        }
        assert!(!net.is_ring_consistent());
        // Run a generous number of stabilize rounds.
        let t = net.now();
        net.run_until(t + cfg.stabilize_every * 40);
        assert!(
            net.is_ring_consistent(),
            "stabilize/notify must repair successor pointers"
        );
    }

    #[test]
    fn join_converges_to_correct_position() {
        let cfg = EventConfig::default();
        let mut net = EventNet::bootstrap(cfg, 32, &mut rng(5));
        let contact = net.node_ids()[0];
        let mut r = rng(6);
        for _ in 0..5 {
            assert!(net.join(Id::random(&mut r), contact));
        }
        let t = net.now();
        net.run_until(t + cfg.stabilize_every * 60);
        assert_eq!(net.len(), 37);
        assert!(net.is_ring_consistent(), "joins integrate via notify");
    }

    #[test]
    fn join_duplicate_or_bad_contact_rejected() {
        let mut net = EventNet::bootstrap(EventConfig::default(), 8, &mut rng(7));
        let existing = net.node_ids()[0];
        assert!(!net.join(existing, existing));
        assert!(!net.join(Id::from(42u64), Id::from(43u64)));
    }

    #[test]
    fn timers_keep_firing() {
        let mut net = EventNet::bootstrap(EventConfig::default(), 16, &mut rng(8));
        let before = net.stats.stabilize;
        net.run_until(1_000);
        let after = net.stats.stabilize;
        // 16 nodes × 10 intervals ≈ 160 firings.
        assert!(
            after - before >= 100,
            "stabilize fired {} times",
            after - before
        );
    }

    #[test]
    fn lossy_links_are_survived_by_lookup_retries() {
        use crate::fault::FaultPlan;
        let mut net = EventNet::bootstrap(EventConfig::default(), 64, &mut rng(20));
        net.set_fault_plan(FaultPlan {
            loss_rate: 0.20,
            dup_rate: 0.10,
            delay_rate: 0.20,
            extra_delay: 25,
            seed: 77,
            // A whole recursive chain must survive per attempt; at 20%
            // loss that is ~40% per try, so give the budget headroom.
            max_attempts: 5,
            ..FaultPlan::default()
        });
        let origin = net.node_ids()[0];
        let mut reqs = Vec::new();
        let mut truths = Vec::new();
        for i in 0..40u64 {
            let key = sha1_id_of_u64(i);
            truths.push(net.owner_of(key).unwrap());
            reqs.push(net.lookup(origin, key).unwrap());
        }
        // Generous horizon: retries back off exponentially, so five
        // attempts need 2000·(1+2+4+8+16) = 62k time units plus slack.
        net.run_until(80_000);
        let done = drain_app_lookups(&mut net, &reqs);
        assert_eq!(done.len(), 40, "every lookup completes or times out");
        let ok = done.iter().filter(|l| l.owner.is_some()).count();
        assert!(ok >= 33, "resolved under 20% loss with retries: {ok}/40");
        for l in done.iter().filter(|l| l.owner.is_some()) {
            let idx = reqs.iter().position(|r| *r == l.req).unwrap();
            assert_eq!(l.owner, Some(truths[idx]), "correct despite faults");
        }
        assert!(net.stats.dropped > 0, "the plan really dropped messages");
        assert!(net.stats.retries > 0, "timeouts triggered re-issues");
    }

    #[test]
    fn scheduled_crashes_fire_and_ring_recovers() {
        use crate::fault::{CrashEvent, FaultPlan};
        let cfg = EventConfig::default();
        let mut net = EventNet::bootstrap(cfg, 48, &mut rng(21));
        net.set_fault_plan(FaultPlan {
            crashes: vec![
                CrashEvent { at: 500, count: 3 },
                CrashEvent {
                    at: 1_500,
                    count: 3,
                },
            ],
            seed: 5,
            ..FaultPlan::default()
        });
        net.run_until(400);
        assert_eq!(net.len(), 48, "nothing crashes early");
        net.run_until(1_000);
        assert_eq!(net.len(), 45, "first crash wave");
        net.run_until(cfg.stabilize_every * 50);
        assert_eq!(net.len(), 42, "second crash wave");
        assert!(net.is_ring_consistent(), "stabilization healed the ring");
    }

    #[test]
    fn partition_window_splits_then_heals() {
        use crate::fault::{FaultPlan, Partition};
        let cfg = EventConfig::default();
        let mut net = EventNet::bootstrap(cfg, 32, &mut rng(22));
        net.set_fault_plan(FaultPlan {
            partitions: vec![Partition {
                start: 0,
                end: 3_000,
            }],
            seed: 9,
            ..FaultPlan::default()
        });
        // During the cut plenty of traffic dies.
        net.run_until(3_000);
        let dropped_during = net.stats.dropped;
        assert!(dropped_during > 0, "cross-cut traffic is eaten");
        // After healing, stabilization repairs any damage.
        net.run_until(3_000 + cfg.stabilize_every * 40);
        assert!(net.is_ring_consistent(), "ring heals after the window");
    }

    #[test]
    fn identical_fault_seeds_replay_identically() {
        use crate::fault::{CrashEvent, FaultPlan};
        let plan = FaultPlan {
            loss_rate: 0.15,
            dup_rate: 0.05,
            crashes: vec![CrashEvent { at: 800, count: 2 }],
            seed: 31,
            ..FaultPlan::default()
        };
        let run = |p: FaultPlan| {
            let mut net = EventNet::bootstrap(EventConfig::default(), 40, &mut rng(23));
            net.set_fault_plan(p);
            let origin = net.node_ids()[0];
            for i in 0..30u64 {
                net.lookup(origin, sha1_id_of_u64(i));
            }
            net.run_until(15_000);
            let mut done: Vec<_> = net.drain_completed().collect();
            done.sort_by_key(|l| l.req);
            (done, net.node_ids(), net.stats.clone())
        };
        let (a_done, a_ids, a_stats) = run(plan.clone());
        let (b_done, b_ids, b_stats) = run(plan);
        assert_eq!(a_done, b_done);
        assert_eq!(a_ids, b_ids, "same crash victims");
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn empty_and_single_node_edge_cases() {
        let mut net = EventNet::bootstrap(EventConfig::default(), 1, &mut rng(9));
        assert_eq!(net.len(), 1);
        let id = net.node_ids()[0];
        let req = net.lookup(id, Id::from(5u64)).unwrap();
        net.run_until(3_000);
        let done: Vec<_> = net.drain_completed().collect();
        let mine: Vec<_> = done.iter().filter(|l| l.req == req).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].owner, Some(id));
        assert!(net.is_ring_consistent());
    }

    /// Ground-truth owner over a sorted id list, by linear scan.
    fn brute_owner(sorted: &[Id], key: Id) -> Option<Id> {
        sorted
            .iter()
            .find(|&&x| x >= key)
            .or(sorted.first())
            .copied()
    }

    /// `len` neighbours of `sorted[i]`, nearest first, one way round
    /// the ring (`step` 1 clockwise, `n - 1` counter-clockwise): at most
    /// one per other id, and at least one.
    fn brute_list(sorted: &[Id], i: usize, len: usize, step: usize) -> Vec<Id> {
        let n = sorted.len();
        let len = len.min(n.saturating_sub(1).max(1));
        let list: Vec<Id> = (1..=len).map(|k| sorted[(i + k * step) % n]).collect();
        if list.is_empty() {
            vec![sorted[i]]
        } else {
            list
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Both overlays come up wired exactly as a brute force over a
        /// sorted `Vec<Id>` wires them (successor list, predecessor list
        /// or the event wire's single predecessor, every finger), and
        /// their `owner_of` agrees with it, on rings of 1 to 64 ids that
        /// are uniform, packed just below `Id::MAX`, packed just above
        /// `Id::ZERO`, or packed at both ends.
        #[test]
        fn ground_truth_wiring_matches_brute_force(
            seed in any::<u64>(),
            lens in (0usize..8, 0usize..8),
        ) {
            use crate::table::tests::pooled_id;
            use crate::{NetConfig, Network};
            let mut rng = rng(seed);
            let placements: [&[u8]; 4] = [&[], &[4], &[5], &[4, 5]];
            for n in [1usize, 2, 3, 5, 6, 64] {
                for pools in placements {
                    let ids: Vec<Id> = if pools.is_empty() {
                        Id::distinct_random(n, &mut rng)
                    } else {
                        let x: u64 = rng.gen();
                        let mut ids = std::collections::BTreeSet::new();
                        for j in 0..4096 {
                            if ids.len() == n {
                                break;
                            }
                            let pool = pools[j % pools.len()];
                            ids.insert(pooled_id(pool, x.wrapping_add(j as u64)));
                        }
                        ids.into_iter().collect()
                    };
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(sorted.len(), n);
                    let fingers = |i: usize| -> Vec<Option<Id>> {
                        (0..autobal_id::ID_BITS)
                            .map(|k| brute_owner(&sorted, sorted[i].wrapping_add(Id::pow2(k))))
                            .collect()
                    };
                    let cfg = NetConfig {
                        successor_list_len: lens.0,
                        predecessor_list_len: lens.1,
                        ..NetConfig::default()
                    };
                    let sync = Network::from_ids(cfg, &ids).unwrap();
                    let ecfg = EventConfig { successor_list_len: lens.0, ..EventConfig::default() };
                    let wire = EventNet::from_ids(ecfg, &ids);
                    for (i, id) in sorted.iter().enumerate() {
                        let node = sync.node(*id).unwrap();
                        prop_assert_eq!(&node.successors, &brute_list(&sorted, i, lens.0, 1));
                        prop_assert_eq!(
                            &node.predecessors,
                            &brute_list(&sorted, i, lens.1, n - 1)
                        );
                        prop_assert_eq!(node.fingers.iter().collect::<Vec<_>>(), fingers(i));
                        let enode = wire.nodes.get(id).unwrap();
                        prop_assert_eq!(&enode.successors, &brute_list(&sorted, i, lens.0, 1));
                        prop_assert_eq!(enode.predecessor, Some(sorted[(i + n - 1) % n]));
                        prop_assert_eq!(enode.fingers.iter().collect::<Vec<_>>(), fingers(i));
                    }
                    let probes = sorted.iter().flat_map(|&id| {
                        [id, id.wrapping_sub(Id::ONE), id.wrapping_add(Id::ONE)]
                    });
                    for key in probes.chain([Id::ZERO, Id::MAX, Id::random(&mut rng)]) {
                        prop_assert_eq!(sync.owner_of(key), brute_owner(&sorted, key));
                        prop_assert_eq!(wire.owner_of(key), brute_owner(&sorted, key));
                    }
                }
            }
        }
    }
}
