//! The simulation ring: virtual nodes in a struct-of-arrays layout, and
//! the planned tick work phase.
//!
//! This is the fast substrate the tick simulator runs on (the
//! protocol-level Chord implementation lives in `autobal-chord`; see
//! DESIGN.md for why the simulator uses an oracle ring — identical
//! placement semantics, none of the per-message overhead, exactly like
//! the paper's own simulator).
//!
//! Every virtual node owns the clockwise arc `(predecessor, self]` and
//! holds the keys of the *remaining* tasks in that arc. Joins split the
//! successor's task queue; departures merge into the successor.
//!
//! [`Ring`] holds its virtual nodes as one ordered id→slot index next
//! to parallel `owners`/`tasks` columns, so the hot tick loop walks
//! dense vectors. A vnode keeps its slot for its whole lifetime, so
//! `Slot` is a stable handle the simulator uses to reach a vnode's
//! queue without searching the index at all.
//!
//! ## The vnode index
//!
//! Vnode ids are uniform hashes, so an id's top bits predict its rank
//! in the ring. The index is an ordered linear-probing table: one array
//! of `(id, slot)` entries (`EMPTY` marks a free one) with `2^b ≥
//! 2·len` homes, where `home(id)` is the top `b` bits of the id's
//! 64-bit prefix `(hi << 32) | (mid >> 32)`. Three invariants hold:
//! occupied entries ascend along the array, each sits at or after its
//! home, and no empty entry lies between an entry's home and the entry.
//!
//! So one scan from `home(id)` past the occupied entries `< id` stops
//! at the boundary of the ring order: every entry before the stop is
//! `< id` and every entry from it on is `≥ id`. The successor is the
//! first occupied entry from the stop on (wrapping to the table's first
//! entry) and the predecessor the last one before it (wrapping to the
//! last); the table keeps the positions of both, so a wrap never walks
//! the empty entries at the array's ends. An insert shifts the run from
//! the stop to the next empty entry right by one; a remove shifts each
//! following entry that sits past its home left by one. When an insert
//! would pass load ½ the table doubles, rebuilt in one ordered pass; it
//! never shrinks.
//!
//! Ids that share their top bits share a home and form one long run.
//! Ids packed just below `Id::MAX` all crowd the last home, and doubling
//! would never give their run room, so a run that reaches the array's
//! end extends the tail past `2^b` instead; only the load factor grows
//! the table. Such rings stay correct, only slower: a probe walks the
//! run.
//!
//! Structural operations probe the index once: an insert's stop is both
//! its split victim (the successor; an exact hit is
//! [`RingError::Occupied`]) and its insert position, and a remove's stop
//! is both the entry it unfiles and, after the shift, its successor.
//! Both hand the successor's owner back to the caller, so `Sim` settles
//! its load caches without another lookup.
//!
//! ## The key arena
//!
//! Task keys never change; only the vnode holding them does. So
//! [`Ring::assign_tasks`] sorts the keys once into an arena, and every
//! queue holds `u32` arena positions instead of 24-byte ids. Arena
//! order is key order, so with `pos(x)` the count of arena keys `≤ x`
//! (exact with duplicate keys), the arc `(a, b]` is the position range
//! `pos(a) <= i < pos(b)`, or `i >= pos(a) || i < pos(b)` when it wraps.
//! A split compares `u32`s, never ids.
//!
//! Each slot caches its vnode's `pos(id)` (filled by `assign_tasks`,
//! or by the split that created the vnode; a sentinel marks one not yet
//! computed). An insert whose split victim is idle — most Sybils — never
//! touches the arena. Otherwise the newcomer's position is galloped down
//! from the victim's cached one (from the arena's end when the arc
//! wraps), so a split reads only the arena near the victim's arc.
//!
//! A queue's element order is all the pop stream sees, and positions
//! sort like their keys, so every pop, split and merge keeps exactly
//! the order an id-keyed queue would: `src/reference.rs` keeps the
//! id-keyed ring as the differential anchor.
//!
//! ## The work phase
//!
//! A tick's pops must draw the xorshift64* pop generator's states in
//! the order a one-at-a-time loop would: workers in index order, and
//! each worker's vnodes in its own order. Each vnode's pop count for a
//! tick (`min(remaining capacity, vnode load)`) is known before any pop
//! happens, so the work phase takes one of two paths, both drawing each
//! state as it pops:
//!
//! - **Planned** (every strategy and churn ring): `Sim`'s planning pass
//!   walks the worker table and records each popping vnode's `(slot,
//!   count)` in that order; `Ring::run_pops` replays the plan.
//! - **Detached** (a drain with no strategy, no churn and one vnode per
//!   worker): a slot's queue length is its owner's load, so
//!   `Ring::pop_detached` walks the `live` slots, kept in owner
//!   order, and pops each one in place. Slots that drain leave `live`
//!   in the same pass, so a drain's long tail touches only the slots
//!   still loaded.

use crate::worker::WorkerId;
use autobal_id::{ring as arc, Id};

/// Owner sentinel marking a freed slot in the struct-of-arrays columns.
const FREE_OWNER: WorkerId = usize::MAX;

/// Cached-position sentinel: this slot's `pos(id)` is not computed yet.
/// An arena of exactly `u32::MAX` keys can hold a true `u32::MAX`; it
/// reads as "not computed" and is searched again, never misused.
const NO_POS: u32 = u32::MAX;

/// Most task keys one ring holds: queues store `u32` arena positions.
pub(crate) const MAX_TASKS: u64 = u32::MAX as u64;

/// How many retired task queues the ring keeps around for reuse.
/// Splits and merges alternate under churn, so a handful of warm
/// buffers absorbs the steady state without hoarding memory.
const POOL_CAP: usize = 32;

/// Slot sentinel marking a free entry of the vnode index.
const EMPTY: u32 = u32::MAX;

/// A free entry of the vnode index.
const FREE_ENTRY: (Id, u32) = (Id::ZERO, EMPTY);

/// The vnode index's smallest table: `2^MIN_BITS` homes.
const MIN_BITS: u32 = 3;

/// Initial xorshift state for the pop generator.
const POP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// A virtual node already sits at this exact id.
    Occupied(Id),
    /// No virtual node at this id.
    Unknown(Id),
    /// Removing the last virtual node would strand its tasks.
    LastVNode,
    /// Assigning would leave the ring more than `u32::MAX` task keys.
    TooManyTasks(u64),
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Occupied(id) => write!(f, "position {id} already occupied"),
            RingError::Unknown(id) => write!(f, "no virtual node at {id}"),
            RingError::LastVNode => write!(f, "cannot remove the last virtual node"),
            RingError::TooManyTasks(n) => write!(
                f,
                "{n} task keys exceed the ring's limit of {MAX_TASKS} (u32 key positions)"
            ),
        }
    }
}

impl std::error::Error for RingError {}

/// Stable handle to one virtual node's storage: its slot in the ring's
/// columns. Valid from the insert that returned it to the removal of
/// the same vnode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(u32);

/// What removing a virtual node did: the slot it freed, its owner, how
/// many tasks merged into its successor, and that successor's id and
/// owner (the vnode itself and its own owner when it was the last one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Removal {
    pub(crate) slot: Slot,
    pub(crate) owner: WorkerId,
    pub(crate) moved: u64,
    pub(crate) succ: Id,
    pub(crate) succ_owner: WorkerId,
}

/// One planned vnode of a tick: pop `count` tasks from `slot`.
#[derive(Debug, Clone, Copy)]
struct PlannedPops {
    slot: u32,
    count: u32,
}

/// The ring order: every vnode's `(id, slot)` in an ordered
/// linear-probing table keyed on the id's top bits (see the module
/// docs for the layout and its invariants).
#[derive(Debug, Clone, Default)]
struct VnodeIndex {
    /// Entries in ascending id order with `EMPTY` ones between: `2^bits`
    /// homes, plus any tail a run pushed past the last home.
    entries: Vec<(Id, u32)>,
    bits: u32,
    len: usize,
    /// Positions of the first and last occupied entries (stale while
    /// the table is empty), so a search that wraps skips the empty
    /// entries at either end of the array — all of them past the
    /// largest id while a ring is built in ascending id order.
    first: usize,
    last: usize,
}

impl VnodeIndex {
    /// The entry an id's probe starts at: the top `bits` bits of its
    /// 64-bit prefix, monotone in the id.
    #[inline]
    fn home(&self, id: Id) -> usize {
        let [_, mid, hi] = id.limbs();
        ((hi << 32) | (mid >> 32))
            .checked_shr(64 - self.bits)
            .unwrap_or(0) as usize
    }

    /// Where the ring order splits at `id`: every entry before the
    /// returned position is `< id`, every occupied one from it on `≥ id`.
    #[inline]
    fn stop(&self, id: Id) -> usize {
        let mut at = self.home(id);
        while let Some(&(e, slot)) = self.entries.get(at) {
            if slot == EMPTY || e >= id {
                break;
            }
            at += 1;
        }
        at
    }

    /// The slot filed at `at`, when that entry holds `id`.
    #[inline]
    fn hit(&self, at: usize, id: Id) -> Option<usize> {
        match self.entries.get(at) {
            Some(&(e, slot)) if slot != EMPTY && e == id => Some(slot as usize),
            _ => None,
        }
    }

    /// The slot of the vnode at `id`, if present.
    fn find(&self, id: Id) -> Option<usize> {
        self.hit(self.stop(id), id)
    }

    /// The first occupied entry at or after `at`, wrapping to the
    /// table's first entry.
    #[inline]
    fn first_from(&self, at: usize) -> Option<(Id, usize)> {
        if self.len == 0 {
            return None;
        }
        let at = if at > self.last { self.first } else { at };
        self.entries
            .get(at..)?
            .iter()
            .find(|e| e.1 != EMPTY)
            .map(|&(id, slot)| (id, slot as usize))
    }

    /// The last occupied entry before `at`, wrapping to the table's
    /// last entry.
    fn last_before(&self, at: usize) -> Option<Id> {
        if self.len == 0 {
            return None;
        }
        let at = if at <= self.first { self.last + 1 } else { at };
        self.entries
            .get(..at)?
            .iter()
            .rev()
            .find(|e| e.1 != EMPTY)
            .map(|&(id, _)| id)
    }

    /// Files `id` → `slot` at `at`, the stop of an `id` absent from the
    /// table. The run from `at` up to the next empty entry shifts right
    /// by one; a run that reaches the array's end extends the tail.
    fn insert(&mut self, at: usize, id: Id, slot: u32) {
        let at = if (self.len + 1) * 2 > 1usize << self.bits {
            self.grow();
            self.stop(id)
        } else {
            at
        };
        let gap = self.entries.get(at..).unwrap_or_default();
        let end = match gap.iter().position(|e| e.1 == EMPTY) {
            Some(off) => at + off,
            None => {
                self.entries.push(FREE_ENTRY);
                self.entries.len() - 1
            }
        };
        if let Some(run) = self.entries.get_mut(at..=end) {
            run.rotate_right(1);
            if let Some(e) = run.first_mut() {
                *e = (id, slot);
            }
        }
        // The shift fills exactly one entry more: `end`.
        if self.len == 0 {
            (self.first, self.last) = (end, end);
        } else {
            self.first = self.first.min(end);
            self.last = self.last.max(end);
        }
        self.len += 1;
    }

    /// Unfiles `id`, handing back its slot and its stop, which then
    /// holds (or precedes) its successor. Backward-shift deletion: each
    /// following entry that sits past its home moves left by one.
    fn remove(&mut self, id: Id) -> Option<(usize, usize)> {
        let at = self.stop(id);
        let slot = self.hit(at, id)?;
        let mut end = at + 1;
        while let Some(&(e, s)) = self.entries.get(end) {
            if s == EMPTY || self.home(e) >= end {
                break;
            }
            end += 1;
        }
        if let Some(run) = self.entries.get_mut(at..end) {
            run.rotate_left(1);
            if let Some(e) = run.last_mut() {
                *e = FREE_ENTRY;
            }
        }
        self.len -= 1;
        // The shift frees exactly one entry: `end - 1`.
        let occupied = |e: &(Id, u32)| e.1 != EMPTY;
        if self.len > 0 && end - 1 == self.first {
            let after = self.entries.get(end..).unwrap_or_default();
            self.first = end + after.iter().position(occupied).unwrap_or(0);
        }
        if self.len > 0 && end - 1 == self.last {
            let before = self.entries.get(..end - 1).unwrap_or_default();
            self.last = before.iter().rposition(occupied).unwrap_or(0);
        }
        Some((slot, at))
    }

    /// Doubles the table (at least to `2^MIN_BITS` homes) and refiles
    /// every entry in one ordered pass: each at its new home, or right
    /// after the previous entry when that one sits at or past it.
    fn grow(&mut self) {
        let mut bits = self.bits.max(MIN_BITS - 1) + 1;
        while (self.len + 1) * 2 > 1usize << bits {
            bits += 1;
        }
        let old = std::mem::replace(&mut self.entries, vec![FREE_ENTRY; 1usize << bits]);
        self.bits = bits;
        let mut next = 0;
        for (id, slot) in old.into_iter().filter(|e| e.1 != EMPTY) {
            let at = self.home(id).max(next);
            match self.entries.get_mut(at) {
                Some(e) => *e = (id, slot),
                None => self.entries.push((id, slot)),
            }
            if next == 0 {
                self.first = at;
            }
            self.last = at;
            next = at + 1;
        }
    }

    /// Every `(id, slot)` in ring (ascending id) order.
    fn iter(&self) -> impl Iterator<Item = (Id, usize)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.1 != EMPTY)
            .map(|&(id, slot)| (id, slot as usize))
    }

    /// Verifies the table's own invariants: entries ascend, each sits
    /// at or after its home with no empty entry in between, the stored
    /// length and ends match, and the load stays at most ½.
    fn check(&self) -> Result<(), String> {
        let homes = 1usize << self.bits;
        if self.len > 0 && (self.entries.len() < homes || self.len * 2 > homes) {
            return Err(format!(
                "index holds {} ids in {} entries for {homes} homes",
                self.len,
                self.entries.len()
            ));
        }
        let mut prev: Option<Id> = None;
        let mut last_empty: Option<usize> = None;
        let mut counted = 0usize;
        for (at, &(id, slot)) in self.entries.iter().enumerate() {
            if slot == EMPTY {
                last_empty = Some(at);
                continue;
            }
            counted += 1;
            if prev.is_some_and(|p| p >= id) {
                return Err(format!("index entry {at} ({id}) out of order"));
            }
            prev = Some(id);
            let home = self.home(id);
            if home > at {
                return Err(format!("index entry {at} ({id}) before its home {home}"));
            }
            if last_empty.is_some_and(|e| e >= home) {
                return Err(format!(
                    "index entry {at} ({id}) past an empty entry after its home {home}"
                ));
            }
        }
        if counted != self.len {
            return Err(format!("index stores len {} but holds {counted}", self.len));
        }
        let occupied = |e: &(Id, u32)| e.1 != EMPTY;
        let ends = (
            self.entries.iter().position(occupied),
            self.entries.iter().rposition(occupied),
        );
        if self.len > 0 && ends != (Some(self.first), Some(self.last)) {
            return Err(format!(
                "index marks entries {}..={} as its ends, not {ends:?}",
                self.first, self.last
            ));
        }
        Ok(())
    }
}

/// The ring of virtual nodes in struct-of-arrays layout (see the module
/// docs for the key arena and the work phase).
#[derive(Debug, Clone)]
pub struct Ring {
    /// Id → slot index in ring order: an ordered linear-probing table
    /// homed on the id's top bits, so a search is one array probe plus
    /// a short scan (see the module docs).
    index: VnodeIndex,
    /// Slot → owning worker (`FREE_OWNER` when the slot is free).
    owners: Vec<WorkerId>,
    /// Slot → remaining tasks as positions into `keys`, in no
    /// particular order. Consumption removes a uniformly random
    /// element, so the remaining keys stay uniformly spread over the
    /// arc — the property Sybil splits rely on.
    tasks: Vec<Vec<u32>>,
    /// Slot → cached `pos(id)` of its vnode, or `NO_POS`.
    ends: Vec<u32>,
    /// Every key of the last `assign_tasks`, sorted. Consumed keys stay
    /// (no queue holds their positions), so positions never move.
    keys: Vec<Id>,
    /// Free slot list (slots keep their columns; queues are recycled
    /// through `pool` instead).
    free: Vec<usize>,
    /// `(slot, owner)` pairs for slots with a nonempty task queue, in
    /// ascending owner order — the detached pops' working set. Valid
    /// only while `live_epoch` matches `muts` (rebuilt by
    /// `refresh_live`); pruned in place as queues drain, so tail-of-run
    /// ticks touch only the handful of still-loaded slots instead of
    /// every column.
    live: Vec<(u32, u32)>,
    /// This tick's planned vnodes (reused buffer; emptied by replay).
    plan: Vec<PlannedPops>,
    total_tasks: u64,
    /// xorshift state for uniform task consumption (deterministic).
    pop_rng: u64,
    /// Reusable split buffer: holds the newcomer's positions during
    /// `insert_vnode` so steady-state splits never allocate.
    scratch: Vec<u32>,
    /// Retired task queues, recycled as newcomer queues on the next
    /// split.
    pool: Vec<Vec<u32>>,
    /// Structural mutation counter: every insert/remove/assign/single
    /// pop bumps it, invalidating the `live` working set.
    muts: u64,
    /// Value of `muts` when `live` was last rebuilt; detached pops
    /// prune the set in place without bumping `muts`, so between
    /// structural mutations the rebuild is skipped entirely.
    live_epoch: u64,
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

impl Ring {
    /// A new empty ring.
    pub fn new() -> Ring {
        Ring {
            index: VnodeIndex::default(),
            owners: Vec::new(),
            tasks: Vec::new(),
            ends: Vec::new(),
            keys: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            plan: Vec::new(),
            total_tasks: 0,
            pop_rng: POP_SEED,
            scratch: Vec::new(),
            pool: Vec::new(),
            muts: 1,
            live_epoch: 0,
        }
    }

    /// Brings the live working set up to date with the columns; a
    /// no-op between structural mutations.
    fn refresh_live(&mut self) {
        if self.live_epoch == self.muts {
            return;
        }
        let Ring {
            owners,
            tasks,
            live,
            ..
        } = self;
        live.clear();
        live.reserve(owners.len());
        for (slot, (&owner, tv)) in owners.iter().zip(tasks.iter()).enumerate() {
            if owner != FREE_OWNER && !tv.is_empty() {
                live.push((slot as u32, owner as u32));
            }
        }
        // Owner order is the order detached pops draw their states in;
        // slots keep insertion order, which removals and reuse permute.
        live.sort_unstable_by_key(|&(_, owner)| owner);
        debug_assert!(
            live.is_sorted_by(|a, b| a.1 < b.1),
            "a detached ring holds one vnode per owner"
        );
        self.live_epoch = self.muts;
    }

    /// Number of virtual nodes.
    pub fn len(&self) -> usize {
        self.index.len
    }

    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Total remaining tasks across the ring.
    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    fn queue(&self, id: Id) -> Option<&Vec<u32>> {
        self.tasks.get(self.index.find(id)?)
    }

    fn queue_mut(&mut self, id: Id) -> Option<&mut Vec<u32>> {
        self.tasks.get_mut(self.index.find(id)?)
    }

    pub fn contains(&self, id: Id) -> bool {
        self.index.find(id).is_some()
    }

    /// Remaining tasks at one virtual node.
    pub fn load(&self, id: Id) -> u64 {
        self.queue(id).map_or(0, |q| q.len() as u64)
    }

    /// The worker controlling the vnode at `id`, if present.
    pub fn vnode_owner(&self, id: Id) -> Option<WorkerId> {
        self.owners.get(self.index.find(id)?).copied()
    }

    /// The virtual node whose arc contains `key` (first id ≥ key,
    /// wrapping to the smallest id).
    pub fn owner_of_key(&self, key: Id) -> Option<Id> {
        self.next_entry(key, true).map(|(id, _)| id)
    }

    /// Clockwise neighbor of `id` (excluding itself; `id` itself when it
    /// is the only node). `id` need not be present.
    pub fn successor_of(&self, id: Id) -> Option<Id> {
        self.next_entry(id, false).map(|(id, _)| id)
    }

    /// The first vnode clockwise from `id` (at `id` itself too when
    /// `inclusive`) as `(id, slot)`: one index probe, wrapping to the
    /// first entry when it runs off the end.
    fn next_entry(&self, id: Id, inclusive: bool) -> Option<(Id, usize)> {
        let mut at = self.index.stop(id);
        if !inclusive && self.index.hit(at, id).is_some() {
            at += 1;
        }
        self.index.first_from(at)
    }

    /// Counter-clockwise neighbor of `id` (excluding itself).
    pub fn predecessor_of(&self, id: Id) -> Option<Id> {
        self.index.last_before(self.index.stop(id))
    }

    /// Up to `k` distinct clockwise successors of `id`, nearest first,
    /// stopping early if the walk wraps back to `id`, written over the
    /// contents of `out`.
    pub fn successors(&self, id: Id, k: usize, out: &mut Vec<Id>) {
        out.clear();
        let mut cur = id;
        for _ in 0..k {
            match self.successor_of(cur) {
                Some(next) if next != id => {
                    out.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
    }

    /// Inserts a virtual node at `id` for `owner`, splitting the
    /// successor's task set: keys in `(old predecessor, id]` move to the
    /// newcomer. Returns how many tasks were acquired.
    pub fn insert_vnode(&mut self, id: Id, owner: WorkerId) -> Result<u64, RingError> {
        self.insert_slotted(id, owner)
            .map(|(_, acquired, _)| acquired)
    }

    /// [`Ring::insert_vnode`], also handing back the newcomer's stable
    /// [`Slot`] handle and the owner of the successor it split (its own
    /// `owner` when the ring was empty). One index probe finds both the
    /// split victim — an exact hit is the `Occupied` case — and the
    /// entry the newcomer is filed at.
    pub(crate) fn insert_slotted(
        &mut self,
        id: Id,
        owner: WorkerId,
    ) -> Result<(Slot, u64, WorkerId), RingError> {
        self.muts = self.muts.wrapping_add(1);
        let mut tasks = Vec::new();
        let mut end = NO_POS;
        let mut succ_owner = owner;
        let at = self.index.stop(id);
        if let Some((succ, succ_slot)) = self.index.first_from(at) {
            if succ == id {
                return Err(RingError::Occupied(id));
            }
            let Ring {
                owners,
                tasks: columns,
                ends,
                keys,
                scratch,
                pool,
                ..
            } = self;
            let (Some(tv), Some(&victim), Some(succ_end)) = (
                columns.get_mut(succ_slot),
                owners.get(succ_slot),
                ends.get_mut(succ_slot),
            ) else {
                return Err(RingError::Unknown(succ));
            };
            succ_owner = victim;
            scratch.clear();
            // An idle victim has nothing to split, so the arena stays
            // untouched and the newcomer's position stays uncomputed.
            if !tv.is_empty() {
                if *succ_end == NO_POS {
                    *succ_end = keys.partition_point(|&k| k <= succ) as u32;
                }
                let pb = *succ_end;
                // Below the victim, the newcomer's position is at most
                // the victim's; above it (the wrap arc), at most the
                // arena's end.
                let pa = if id < succ {
                    pos_below(keys, pb as usize, id)
                } else {
                    pos_below(keys, keys.len(), id)
                } as u32;
                end = pa;
                // The victim keeps its keys in (id, succ]: positions
                // [pa, pb), wrapping through the arena's end when the
                // arc does. As an offset from pa that is one compare;
                // the one arc it cannot express, a wrap with pa == pb,
                // holds every key, so nothing moves. `retain` is a
                // stable in-place partition: keepers compact down in
                // order while the scratch buffer collects the
                // newcomer's positions in their original order.
                if id < succ || pa != pb {
                    let width = pb.wrapping_sub(pa);
                    tv.retain(|&i| {
                        let keep = i.wrapping_sub(pa) < width;
                        if !keep {
                            scratch.push(i);
                        }
                        keep
                    });
                }
            }
            tasks = pool.pop().unwrap_or_default();
            tasks.extend_from_slice(scratch);
        }
        let acquired = tasks.len() as u64;
        // File the newcomer into a free (or fresh) slot.
        let slot = match self.free.pop() {
            Some(s) if s < self.owners.len() => s,
            _ => {
                self.owners.push(FREE_OWNER);
                self.tasks.push(Vec::new());
                self.ends.push(NO_POS);
                self.owners.len() - 1
            }
        };
        let (Some(o), Some(tv), Some(e)) = (
            self.owners.get_mut(slot),
            self.tasks.get_mut(slot),
            self.ends.get_mut(slot),
        ) else {
            return Err(RingError::Unknown(id));
        };
        *o = owner;
        *tv = tasks;
        *e = end;
        self.index.insert(at, id, slot as u32);
        Ok((Slot(slot as u32), acquired, succ_owner))
    }

    /// Removes the virtual node at `id`, merging its remaining tasks
    /// into its successor. Returns `(owner, tasks_moved, successor)`.
    pub fn remove_vnode(&mut self, id: Id) -> Result<(WorkerId, u64, Id), RingError> {
        self.remove_slotted(id).map(|r| (r.owner, r.moved, r.succ))
    }

    /// [`Ring::remove_vnode`], handing back the whole [`Removal`]: one
    /// index probe unfiles the vnode, and the probe's stop then leads to
    /// the successor its tasks go to.
    pub(crate) fn remove_slotted(&mut self, id: Id) -> Result<Removal, RingError> {
        self.muts = self.muts.wrapping_add(1);
        // A lone vnode holds every task, so it may leave only once the
        // ring is drained.
        if self.len() == 1 && self.total_tasks > 0 {
            return Err(if self.contains(id) {
                RingError::LastVNode
            } else {
                RingError::Unknown(id)
            });
        }
        let Some((slot, at)) = self.index.remove(id) else {
            return Err(RingError::Unknown(id));
        };
        let (Some(o), Some(tv), Some(e)) = (
            self.owners.get_mut(slot),
            self.tasks.get_mut(slot),
            self.ends.get_mut(slot),
        ) else {
            return Err(RingError::Unknown(id));
        };
        let owner = std::mem::replace(o, FREE_OWNER);
        let tasks = std::mem::take(tv);
        *e = NO_POS;
        self.free.push(slot);
        let moved = tasks.len() as u64;
        let (succ, succ_owner) = match self.index.first_from(at) {
            Some((succ, succ_slot)) => {
                if let Some(tv) = self.tasks.get_mut(succ_slot) {
                    tv.extend_from_slice(&tasks);
                }
                let succ_owner = self.owners.get(succ_slot).copied();
                (succ, succ_owner.unwrap_or(FREE_OWNER))
            }
            // The last vnode left idle: it was its own successor.
            None => (id, owner),
        };
        self.recycle(tasks);
        Ok(Removal {
            slot: Slot(slot as u32),
            owner,
            moved,
            succ,
            succ_owner,
        })
    }

    /// Parks a retired task queue for reuse by a later split.
    fn recycle(&mut self, mut tasks: Vec<u32>) {
        if self.pool.len() < POOL_CAP && tasks.capacity() > 0 {
            tasks.clear();
            self.pool.push(tasks);
        }
    }

    /// Distributes a batch of task keys onto their owning virtual nodes.
    /// Keys may arrive in any order. They are sorted in place and the
    /// vector becomes the key arena, so placement allocates only the
    /// queues; one sweep over the ring order hands each vnode its
    /// position range. A ring that still holds tasks folds its
    /// remaining keys into the new arena first, so after any assign
    /// every queue is in key order.
    ///
    /// Refuses, leaving the ring unchanged, when the ring would hold
    /// more than `u32::MAX` keys.
    pub fn assign_tasks(&mut self, mut keys: Vec<Id>) -> Result<(), RingError> {
        debug_assert!(!self.is_empty(), "assign_tasks on empty ring");
        let total = arena_len(self.total_tasks, keys.len())?;
        self.muts = self.muts.wrapping_add(1);
        let Ring {
            index,
            tasks,
            ends,
            keys: arena,
            total_tasks,
            ..
        } = self;
        if *total_tasks > 0 {
            keys.reserve(*total_tasks as usize);
            for q in tasks.iter_mut() {
                keys.extend(q.drain(..).filter_map(|i| arena.get(i as usize).copied()));
            }
        }
        keys.sort_unstable();
        *arena = keys;
        *total_tasks = total;
        ends.fill(NO_POS);
        // For consecutive vnode ids a < b, b owns positions
        // [pos(a), pos(b)). The smallest vnode also picks up the wrap:
        // keys > last ∪ keys ≤ first. `start` carries pos(a). `start`
        // only moves forward, so scanning on from it reads the arena
        // once, in order: linear, like the sort above, where a binary
        // search per vnode would miss cache on most probes.
        let mut start = 0usize;
        let mut first = None;
        for (b, slot) in index.iter() {
            let end = start
                + arena
                    .get(start..)
                    .map_or(0, |tail| tail.iter().take_while(|&&k| k <= b).count());
            if let Some(e) = ends.get_mut(slot) {
                *e = end as u32;
            }
            if first.is_none() {
                first = Some(slot);
            } else if let Some(q) = tasks.get_mut(slot) {
                q.extend(start as u32..end as u32);
            }
            start = end;
        }
        // Wrap chunk: keys ≤ first id, then keys > last id — the first
        // vnode's queue stays in key order.
        if let (Some(q), Some(&head_end)) = (
            first.and_then(|slot| tasks.get_mut(slot)),
            first.and_then(|slot| ends.get(slot)),
        ) {
            q.extend(0..head_end);
            q.extend(start as u32..arena.len() as u32);
        }
        Ok(())
    }

    /// Consumes one uniformly random task from the virtual node,
    /// drawing the next state of the shared pop stream. Returns `false`
    /// if the node is absent or idle.
    pub fn pop_task(&mut self, id: Id) -> bool {
        let state = advance_pop_state(self.pop_rng);
        let Some(tv) = self.queue_mut(id).filter(|tv| !tv.is_empty()) else {
            return false;
        };
        tv.swap_remove(pop_index(state, tv.len()));
        self.pop_rng = state;
        self.total_tasks -= 1;
        self.muts = self.muts.wrapping_add(1);
        true
    }
    /// Remaining tasks at the vnode behind a handle.
    #[inline]
    pub(crate) fn queue_len(&self, h: Slot) -> u64 {
        self.tasks.get(h.0 as usize).map_or(0, |t| t.len() as u64)
    }

    /// Plans `count` pops from the vnode behind `h` this tick. The
    /// planning pass plans vnodes in the order the sequential per-pop
    /// loop would pop them — the contract [`Ring::run_pops`] relies on
    /// to reproduce it exactly.
    #[inline]
    pub(crate) fn plan_pops(&mut self, h: Slot, count: u32) {
        self.plan.push(PlannedPops { slot: h.0, count });
    }

    /// The work phase of one tick, after a planning pass has planned
    /// `total` pops: replays the plan in order, drawing each pop's
    /// state as it pops, so every planned slot pops its count with
    /// exactly the states the sequential per-pop loop would have drawn
    /// for it.
    pub(crate) fn run_pops(&mut self, total: u64) {
        let Ring {
            tasks,
            plan,
            pop_rng,
            ..
        } = self;
        let mut s = *pop_rng;
        let mut done = 0u64;
        for p in plan.iter() {
            let Some(tv) = tasks.get_mut(p.slot as usize) else {
                continue;
            };
            done += pop_up_to(tv, p.count as usize, &mut s);
        }
        plan.clear();
        *pop_rng = s;
        debug_assert_eq!(done, total, "replay popped a different count");
        self.total_tasks -= done;
    }

    /// The work phase of one tick for ticks where nothing observes
    /// per-worker loads (see `Sim::run`) and every worker holds exactly
    /// one vnode: each live slot's queue length *is* its owner's load,
    /// so pop counts are read straight off the dense columns without
    /// touching the worker table. `caps[w]` is worker `w`'s per-tick
    /// capacity.
    ///
    /// `live` ascends by owner, so walking it pops in worker-index
    /// order — the order the sequential loop pops in — drawing each
    /// state as it pops. Slots drained this tick leave the working set
    /// in the same pass. Returns the tick's pop count.
    pub(crate) fn pop_detached(&mut self, caps: &[u32]) -> u64 {
        self.refresh_live();
        let Ring {
            tasks,
            live,
            pop_rng,
            ..
        } = self;
        let mut s = *pop_rng;
        let mut done = 0u64;
        live.retain(|&(slot, owner)| {
            let Some(tv) = tasks.get_mut(slot as usize) else {
                return false;
            };
            let cap = caps.get(owner as usize).map_or(0, |&c| c as usize);
            done += pop_up_to(tv, cap, &mut s);
            !tv.is_empty()
        });
        *pop_rng = s;
        self.total_tasks -= done;
        done
    }

    /// The ring-order median of a virtual node's remaining task keys:
    /// the key with half the node's tasks at or below it along the
    /// clockwise arc from its predecessor. `None` when the node is
    /// absent or idle. A Sybil planted *at* this key acquires half the
    /// victim's remaining work exactly — the §VII chosen-ID extension.
    pub fn median_task_key(&self, id: Id) -> Option<Id> {
        let q = self.queue(id).filter(|q| !q.is_empty())?;
        let mut keys: Vec<Id> = self.keys_of(q).collect();
        let pred = self.predecessor_of(id).unwrap_or(id);
        let mid = keys.len() / 2;
        keys.select_nth_unstable_by_key(mid, |k| k.wrapping_sub(pred));
        keys.get(mid).copied()
    }

    /// Per-owner total loads, for snapshot assertions.
    pub fn loads_by_owner(&self, workers: usize) -> Vec<u64> {
        let mut out = vec![0u64; workers];
        for (_, owner, q) in self.vnodes_in_order() {
            if let Some(o) = out.get_mut(owner) {
                *o += q.len() as u64;
            }
        }
        out
    }

    /// Remaining task keys at one virtual node, in internal queue order.
    pub fn tasks(&self, id: Id) -> Option<impl Iterator<Item = Id> + '_> {
        Some(self.keys_of(self.queue(id)?))
    }

    /// A queue's positions mapped back to their keys.
    fn keys_of<'a>(&'a self, q: &'a [u32]) -> impl Iterator<Item = Id> + 'a {
        q.iter().filter_map(|&i| self.keys.get(i as usize).copied())
    }

    /// Every vnode as `(id, owner, queue)` in ring (ascending id) order.
    fn vnodes_in_order(&self) -> impl Iterator<Item = (Id, WorkerId, &[u32])> + '_ {
        self.index.iter().map(|(id, slot)| {
            let owner = self.owners.get(slot).copied().unwrap_or(FREE_OWNER);
            let queue = self
                .tasks
                .get(slot)
                .map_or(Default::default(), Vec::as_slice);
            (id, owner, queue)
        })
    }

    /// `(id, owner, tasks)` for every vnode in ring order.
    pub fn rows(&self) -> Vec<(Id, WorkerId, Vec<Id>)> {
        self.vnodes_in_order()
            .map(|(id, owner, q)| (id, owner, self.keys_of(q).collect()))
            .collect()
    }

    /// `(id, load)` for every vnode in ring order.
    pub fn vnode_loads(&self) -> Vec<(Id, u64)> {
        self.vnodes_in_order()
            .map(|(id, _, q)| (id, q.len() as u64))
            .collect()
    }

    /// Verifies internal invariants: a well-formed vnode index whose
    /// slots are exactly the owned ones, a sorted arena, every queued
    /// position in bounds and held by exactly one queue, keys within
    /// their owner arcs, cached positions that match a fresh search,
    /// live slots and an accurate total. Test/debug helper; O(arena).
    pub fn check_invariants(&self) -> Result<(), String> {
        let keys = &self.keys;
        if let Some(at) = keys
            .iter()
            .zip(keys.iter().skip(1))
            .position(|(a, b)| a > b)
        {
            return Err(format!("key arena unsorted at position {at}"));
        }
        self.index.check()?;
        let mut held = vec![false; keys.len()];
        let mut indexed = vec![false; self.owners.len()];
        let mut counted = 0u64;
        // Each vnode's predecessor is the one before it in ring order;
        // the first one's is the last.
        let mut pred = self.index.iter().last().map_or(Id::ZERO, |(id, _)| id);
        for (id, slot) in self.index.iter() {
            let (Some(&owner), Some(q), Some(&end), Some(seen)) = (
                self.owners.get(slot),
                self.tasks.get(slot),
                self.ends.get(slot),
                indexed.get_mut(slot),
            ) else {
                return Err(format!("vnode {id} points past the columns (slot {slot})"));
            };
            if owner == FREE_OWNER {
                return Err(format!("vnode {id} points at a freed slot"));
            }
            if std::mem::replace(seen, true) {
                return Err(format!("slot {slot} indexed twice (again at {id})"));
            }
            let fresh = keys.partition_point(|&k| k <= id);
            if end != NO_POS && end as usize != fresh {
                return Err(format!("vnode {id} caches position {end}, not {fresh}"));
            }
            counted += q.len() as u64;
            for &i in q {
                let (Some(&k), Some(h)) = (keys.get(i as usize), held.get_mut(i as usize)) else {
                    return Err(format!("vnode {id} holds position {i} past the arena"));
                };
                if std::mem::replace(h, true) {
                    return Err(format!("position {i} held twice (again at {id})"));
                }
                if pred != id && !arc::in_arc(pred, id, k) {
                    return Err(format!("key {k} at {id} outside arc ({pred}, {id}]"));
                }
            }
            pred = id;
        }
        let owned = self.owners.iter().filter(|&&o| o != FREE_OWNER).count();
        if owned != self.len() {
            return Err(format!("{} vnodes but {owned} owned slots", self.len()));
        }
        if counted != self.total_tasks {
            return Err(format!(
                "total_tasks {} but counted {counted}",
                self.total_tasks
            ));
        }
        Ok(())
    }
}

/// The arena length after assigning `new` keys to a ring holding
/// `held`, refused past [`MAX_TASKS`] so positions never wrap.
fn arena_len(held: u64, new: usize) -> Result<u64, RingError> {
    let total = held.saturating_add(new as u64);
    if total > MAX_TASKS {
        return Err(RingError::TooManyTasks(total));
    }
    Ok(total)
}

/// `pos(x)`, the count of keys `≤ x`, given that every key at or past
/// `hi` exceeds `x`. Gallops down from `hi` — 1, 2, 4, … keys back —
/// and finishes with a binary search, so a position near `hi` costs a
/// few reads of the arena near `hi` instead of a search from its top.
fn pos_below(keys: &[Id], hi: usize, x: Id) -> usize {
    let mut hi = hi.min(keys.len());
    let mut step = 1;
    while hi > 0 {
        let lo = hi.saturating_sub(step);
        match keys.get(lo) {
            Some(&k) if k > x => {
                hi = lo;
                step *= 2;
            }
            // keys[lo] ≤ x < keys[hi]: the answer is in (lo, hi].
            _ => {
                let gap = keys.get(lo + 1..hi).unwrap_or_default();
                return lo + 1 + gap.partition_point(|&k| k <= x);
            }
        }
    }
    0
}

/// One xorshift64 step of the pop generator. The state evolution is
/// independent of the vector lengths being popped; [`pop_index`] maps
/// each state to an index.
#[inline]
fn advance_pop_state(state: u64) -> u64 {
    let mut x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Pops `min(count, tv.len())` uniformly random elements of `tv`,
/// advancing `state` once per pop, and returns how many it popped.
#[inline]
fn pop_up_to(tv: &mut Vec<u32>, count: usize, state: &mut u64) -> u64 {
    let count = count.min(tv.len());
    for _ in 0..count {
        *state = advance_pop_state(*state);
        tv.swap_remove(pop_index(*state, tv.len()));
    }
    count as u64
}

/// Maps an advanced state word to an index in `0..len` (the `*` finisher
/// of xorshift64*, reduced modulo the vector length).
#[inline]
fn pop_index(state: u64, len: usize) -> usize {
    debug_assert!(len > 0);
    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % len as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn id(v: u128) -> Id {
        Id::from(v)
    }

    fn ring_with(ids: &[u128]) -> Ring {
        let mut r = Ring::new();
        for (i, &v) in ids.iter().enumerate() {
            r.insert_vnode(id(v), i).unwrap();
        }
        r
    }

    #[test]
    fn empty_ring_basics() {
        let r = Ring::default();
        assert!(r.is_empty());
        assert_eq!(r.total_tasks(), 0);
        assert_eq!(r.owner_of_key(id(5)), None);
        assert_eq!(r.successor_of(id(5)), None);
        assert_eq!(r.predecessor_of(id(5)), None);
    }

    #[test]
    fn owner_of_key_wraps() {
        let r = ring_with(&[100, 200, 300]);
        assert_eq!(r.owner_of_key(id(150)), Some(id(200)));
        assert_eq!(r.owner_of_key(id(200)), Some(id(200)));
        assert_eq!(r.owner_of_key(id(301)), Some(id(100)));
        assert_eq!(r.owner_of_key(id(50)), Some(id(100)));
    }

    #[test]
    fn successor_predecessor_wrap() {
        let r = ring_with(&[100, 200, 300]);
        assert_eq!(r.successor_of(id(300)), Some(id(100)));
        assert_eq!(r.predecessor_of(id(100)), Some(id(300)));
        assert_eq!(r.successor_of(id(250)), Some(id(300)));
        assert_eq!(r.predecessor_of(id(250)), Some(id(200)));
    }

    #[test]
    fn successors_list_stops_at_wrap() {
        let r = ring_with(&[100, 200, 300]);
        let mut out = vec![id(999)];
        r.successors(id(100), 5, &mut out);
        assert_eq!(out, vec![id(200), id(300)]);
        r.successors(id(100), 1, &mut out);
        assert_eq!(out, vec![id(200)]);
    }

    #[test]
    fn assign_tasks_places_keys_in_arcs() {
        let mut r = ring_with(&[100, 200, 300]);
        r.assign_tasks(vec![id(150), id(250), id(50), id(350), id(200)])
            .unwrap();
        // (100,200] -> 150, 200 ; (200,300] -> 250 ; wrap (300,100] -> 50, 350.
        assert_eq!(r.load(id(200)), 2);
        assert_eq!(r.load(id(300)), 1);
        assert_eq!(r.load(id(100)), 2);
        assert_eq!(r.total_tasks(), 5);
        r.check_invariants().unwrap();
    }

    #[test]
    fn insert_vnode_splits_successor() {
        let mut r = ring_with(&[100, 300]);
        r.assign_tasks(vec![id(150), id(250), id(280)]).unwrap();
        assert_eq!(r.load(id(300)), 3);
        // New vnode at 260 takes keys in (100, 260] = {150, 250}.
        let got = r.insert_vnode(id(260), 9).unwrap();
        assert_eq!(got, 2);
        assert_eq!(r.load(id(260)), 2);
        assert_eq!(r.load(id(300)), 1);
        assert_eq!(r.vnode_owner(id(260)), Some(9));
        r.check_invariants().unwrap();
    }

    #[test]
    fn insert_vnode_in_wrap_arc() {
        let mut r = ring_with(&[100, 300]);
        // Wrap arc (300, 100] holds 350 and 50.
        r.assign_tasks(vec![id(350), id(50)]).unwrap();
        assert_eq!(r.load(id(100)), 2);
        // Split at 400: takes (300, 400] = {350}.
        let got = r.insert_vnode(id(400), 7).unwrap();
        assert_eq!(got, 1);
        assert_eq!(r.load(id(400)), 1);
        assert_eq!(r.load(id(100)), 1);
        r.check_invariants().unwrap();
    }

    #[test]
    fn insert_occupied_position_errors() {
        let mut r = ring_with(&[100]);
        assert_eq!(
            r.insert_vnode(id(100), 1),
            Err(RingError::Occupied(id(100)))
        );
    }

    #[test]
    fn remove_vnode_merges_into_successor() {
        let mut r = ring_with(&[100, 200, 300]);
        r.assign_tasks(vec![id(150), id(160), id(250)]).unwrap();
        let (owner, moved, succ) = r.remove_vnode(id(200)).unwrap();
        assert_eq!(owner, 1);
        assert_eq!(moved, 2);
        assert_eq!(succ, id(300));
        assert_eq!(r.load(id(300)), 3);
        assert_eq!(r.total_tasks(), 3);
        r.check_invariants().unwrap();
    }

    #[test]
    fn remove_vnode_merge_across_wrap() {
        let mut r = ring_with(&[100, 300]);
        r.assign_tasks(vec![id(350), id(50), id(250)]).unwrap();
        // Remove 300 (holds 250): merges into 100 across the wrap.
        let (_, moved, succ) = r.remove_vnode(id(300)).unwrap();
        assert_eq!(moved, 1);
        assert_eq!(succ, id(100));
        assert_eq!(r.load(id(100)), 3);
        r.check_invariants().unwrap();
    }

    #[test]
    fn remove_unknown_and_last() {
        let mut r = Ring::new();
        let at = id(42);
        r.insert_vnode(at, 0).unwrap();
        r.assign_tasks(vec![id(7)]).unwrap();
        assert_eq!(r.remove_vnode(id(5)), Err(RingError::Unknown(id(5))));
        assert_eq!(r.remove_vnode(at), Err(RingError::LastVNode));
        assert!(r.pop_task(at));
        assert_eq!(r.remove_vnode(at), Ok((0, 0, at)));
        assert!(r.is_empty());
        assert_eq!(r.remove_vnode(at), Err(RingError::Unknown(at)));
    }

    #[test]
    fn pop_task_consumes() {
        let mut r = ring_with(&[100]);
        r.assign_tasks(vec![id(1), id(2)]).unwrap();
        assert!(r.pop_task(id(100)));
        assert_eq!(r.total_tasks(), 1);
        assert!(r.pop_task(id(100)));
        assert!(!r.pop_task(id(100)));
        assert!(!r.pop_task(id(999)));
        assert_eq!(r.total_tasks(), 0);
    }

    #[test]
    fn loads_by_owner_sums_vnodes() {
        let mut r = Ring::new();
        r.insert_vnode(id(100), 0).unwrap();
        r.insert_vnode(id(200), 1).unwrap();
        r.insert_vnode(id(300), 0).unwrap(); // second vnode for worker 0
        r.assign_tasks(vec![id(150), id(250), id(260), id(50)])
            .unwrap();
        let loads = r.loads_by_owner(2);
        // worker0: vnode100 (wrap: 50) + vnode300 (250, 260) = 3.
        assert_eq!(loads, vec![3, 1]);
    }

    #[test]
    fn median_task_key_bisects_remaining_work() {
        let mut r = ring_with(&[1000]);
        r.assign_tasks((1..=9u128).map(|v| id(v * 100)).collect())
            .unwrap();
        let m = r.median_task_key(id(1000)).unwrap();
        // 9 keys 100..900; ring order from pred (=self, full ring) wraps,
        // but all keys < 1000 so ring order = integer order: median 500.
        assert_eq!(m, id(500));
        // Splitting there gives the newcomer 5 tasks (100..=500).
        let got = r.insert_vnode(m, 7).unwrap();
        assert_eq!(got, 5);
    }

    #[test]
    fn median_task_key_respects_ring_order_across_wrap() {
        let mut r = ring_with(&[100, 300]);
        // Wrap arc (300, 100]: keys 400, 500, 50 in ring order.
        r.assign_tasks(vec![id(400), id(500), id(50)]).unwrap();
        let m = r.median_task_key(id(100)).unwrap();
        assert_eq!(m, id(500), "ring-order median, not integer median");
    }

    #[test]
    fn median_task_key_edge_cases() {
        let mut r = ring_with(&[100]);
        assert_eq!(r.median_task_key(id(100)), None, "idle node");
        assert_eq!(r.median_task_key(id(999)), None, "absent node");
        r.assign_tasks(vec![id(42)]).unwrap();
        assert_eq!(r.median_task_key(id(100)), Some(id(42)));
    }

    #[test]
    fn pos_below_matches_a_full_search() {
        let keys: Vec<Id> = [1u128, 3, 3, 3, 5, 8, 8, 13, 21, 21]
            .into_iter()
            .map(id)
            .collect();
        for x in 0..25u128 {
            let full = keys.partition_point(|&k| k <= id(x));
            // Every start at or past the answer satisfies the contract.
            for hi in full..=keys.len() {
                assert_eq!(pos_below(&keys, hi, id(x)), full, "x {x} hi {hi}");
            }
        }
        assert_eq!(pos_below(&[], 0, id(4)), 0);
    }

    #[test]
    fn assign_refuses_more_keys_than_u32_positions() {
        assert_eq!(arena_len(0, u32::MAX as usize), Ok(MAX_TASKS));
        assert_eq!(
            arena_len(1, u32::MAX as usize),
            Err(RingError::TooManyTasks(MAX_TASKS + 1))
        );
        let mut r = ring_with(&[100, 200]);
        r.assign_tasks(vec![id(150)]).unwrap();
        // A ring already at the limit refuses one more key and stays
        // as it was.
        r.total_tasks = MAX_TASKS;
        let before = r.rows();
        assert_eq!(
            r.assign_tasks(vec![id(50)]),
            Err(RingError::TooManyTasks(MAX_TASKS + 1))
        );
        assert_eq!(r.rows(), before);
        assert!(RingError::TooManyTasks(MAX_TASKS + 1)
            .to_string()
            .contains("4294967295"));
    }

    #[test]
    fn idle_victims_leave_positions_uncached_until_loaded() {
        let mut r = ring_with(&[0x400, 0x800, 0xC00]);
        r.assign_tasks((0x410..0x7F0u128).step_by(0x20).map(id).collect())
            .unwrap();
        // 0xC00 is idle: the newcomer at 0xA00 splits nothing and its
        // position stays uncomputed; so does 0x900's, split off it.
        insert_checked(&mut r, id(0xA00), 3);
        insert_checked(&mut r, id(0x900), 4);
        let slot = |r: &Ring, v: u128| r.index.find(id(v)).unwrap();
        assert_eq!(r.ends.get(slot(&r, 0x900)), Some(&NO_POS));
        // 0x800 leaves: its keys merge into 0x900, which a later split
        // then fills lazily and gallops from.
        remove_checked(&mut r, id(0x800));
        assert_eq!(r.load(id(0x900)), 31);
        assert_eq!(insert_checked(&mut r, id(0x600), 5), 16);
        assert_eq!(r.ends.get(slot(&r, 0x900)), Some(&31));
        assert_eq!(insert_checked(&mut r, id(0x700), 6), 8);
        // Above the largest id, the wrap arc's victim 0x400 is idle.
        assert_eq!(insert_checked(&mut r, id(0xF00), 7), 0);
    }

    #[test]
    fn reassigning_a_loaded_ring_keeps_queues_in_key_order() {
        let mut r = ring_with(&[100, 300]);
        r.assign_tasks(vec![id(350), id(50), id(250), id(150), id(260)])
            .unwrap();
        assert!(r.pop_task(id(300)));
        r.assign_tasks(vec![id(250), id(20), id(290)]).unwrap();
        assert_eq!(r.total_tasks(), 7);
        for (_, _, keys) in r.rows() {
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        }
        // The arena now holds the live keys only.
        assert_eq!(r.keys.len(), 7);
        r.check_invariants().unwrap();
    }

    #[test]
    fn insert_split_respects_consumed_state() {
        // After consumption removes random keys, a later split still
        // moves exactly the remaining keys of the new arc.
        let mut r = ring_with(&[1000]);
        r.assign_tasks((1..=10u128).map(|v| id(v * 10)).collect())
            .unwrap();
        for _ in 0..3 {
            assert!(r.pop_task(id(1000)));
        }
        let remaining_low = r.tasks(id(1000)).unwrap().filter(|&k| k <= id(45)).count() as u64;
        let got = r.insert_vnode(id(45), 5).unwrap();
        assert_eq!(got, remaining_low);
        assert_eq!(r.load(id(45)) + r.load(id(1000)), 7);
        r.check_invariants().unwrap();
    }

    #[test]
    fn pop_task_is_roughly_uniform_over_the_arc() {
        // Consume half the tasks of one big arc; the survivors should
        // not be concentrated at either end.
        let mut r = ring_with(&[1_000_000]);
        r.assign_tasks((1..=1000u128).map(|v| id(v * 100)).collect())
            .unwrap();
        for _ in 0..500 {
            assert!(r.pop_task(id(1_000_000)));
        }
        let survivors = r.tasks(id(1_000_000)).unwrap();
        let low = survivors.filter(|&k| k <= id(50_000)).count();
        // Expect ≈ 250 below the midpoint; fail only on gross bias.
        assert!((150..=350).contains(&low), "low-half survivors: {low}");
    }

    #[test]
    fn ring_error_display() {
        let id = Id::from(5u64);
        assert!(RingError::Occupied(id).to_string().contains("occupied"));
        assert!(RingError::Unknown(id)
            .to_string()
            .contains("no virtual node"));
        assert!(RingError::LastVNode.to_string().contains("last"));
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RingError::LastVNode);
    }

    #[test]
    fn slots_are_stable_and_reused_after_removal() {
        let mut r = Ring::new();
        let (a, _, _) = r.insert_slotted(id(100), 0).unwrap();
        let (b, _, _) = r.insert_slotted(id(200), 1).unwrap();
        assert_ne!(a, b);
        r.assign_tasks(vec![id(150), id(160)]).unwrap();
        assert_eq!(r.queue_len(b), 2);
        // Removing a vnode frees its slot; the next insert takes it
        // over, the surviving handle is untouched.
        let gone = r.remove_slotted(id(200)).unwrap();
        assert_eq!((gone.slot, gone.owner, gone.moved), (b, 1, 2));
        assert_eq!(r.queue_len(a), 2);
        let (c, _, _) = r.insert_slotted(id(210), 2).unwrap();
        assert_eq!(c, b);
        assert_eq!(r.queue_len(c), 2);
    }

    /// Inserts through the one-search path and checks the owner it hands
    /// back against separate `successor_of` + `vnode_owner` lookups.
    fn insert_checked(r: &mut Ring, at: Id, owner: WorkerId) -> u64 {
        let (_, acquired, succ_owner) = r.insert_slotted(at, owner).unwrap();
        let succ = r.successor_of(at).unwrap();
        assert_eq!(Some(succ_owner), r.vnode_owner(succ), "insert at {at}");
        r.check_invariants().unwrap();
        acquired
    }

    /// Removes through the one-search path and checks the successor it
    /// hands back against lookups made before the removal.
    fn remove_checked(r: &mut Ring, at: Id) -> Removal {
        let succ = r.successor_of(at).unwrap();
        let succ_owner = r.vnode_owner(succ).unwrap();
        let gone = r.remove_slotted(at).unwrap();
        assert_eq!(
            (gone.succ, gone.succ_owner),
            (succ, succ_owner),
            "remove {at}"
        );
        r.check_invariants().unwrap();
        gone
    }

    #[test]
    fn insert_into_wrap_arc_hands_back_the_smallest_vnode() {
        let mut r = ring_with(&[100, 300]);
        r.assign_tasks(vec![id(350), id(50), id(250)]).unwrap();
        // Above the largest id: the split victim is vnode 100 (owner 0).
        assert_eq!(insert_checked(&mut r, id(400), 9), 1);
    }

    #[test]
    fn removing_the_largest_id_wraps_to_the_smallest() {
        let mut r = ring_with(&[100, 200, 300]);
        r.assign_tasks(vec![id(250), id(260), id(50)]).unwrap();
        let gone = remove_checked(&mut r, id(300));
        assert_eq!((gone.owner, gone.moved), (2, 2));
        assert_eq!((gone.succ, gone.succ_owner), (id(100), 0));
        assert_eq!(r.load(id(100)), 3);
    }

    #[test]
    fn removing_the_last_vnode_loaded_then_idle() {
        let at = id(42);
        let mut r = Ring::new();
        assert_eq!(insert_checked(&mut r, at, 3), 0);
        r.assign_tasks(vec![id(7)]).unwrap();
        let before = r.rows();
        assert_eq!(r.remove_slotted(at), Err(RingError::LastVNode));
        assert_eq!(r.rows(), before);
        assert!(r.pop_task(at));
        let gone = remove_checked(&mut r, at);
        assert_eq!((gone.owner, gone.moved), (3, 0));
        assert_eq!((gone.succ, gone.succ_owner), (at, 3));
        assert!(r.is_empty());
    }

    #[test]
    fn occupied_insert_leaves_the_ring_unchanged() {
        let mut r = ring_with(&[100, 500, 600]);
        r.assign_tasks((0..8u128).map(|v| id(v * 90 + 9)).collect())
            .unwrap();
        let before = r.rows();
        for (w, at) in [100u128, 600].into_iter().enumerate() {
            assert_eq!(
                r.insert_slotted(id(at), 9 + w),
                Err(RingError::Occupied(id(at)))
            );
        }
        assert_eq!(r.rows(), before);
        assert_eq!((r.len(), r.total_tasks()), (3, 8));
        r.check_invariants().unwrap();
    }

    /// Ids packed just below `Id::MAX` all share the last home, so
    /// their run extends the array's tail; only the load factor grows
    /// the table, which stays below 4× their count.
    #[test]
    fn ids_packed_at_the_top_extend_the_tail_not_the_table() {
        let n = 10_000u64;
        let mut r = Ring::new();
        for v in 0..n {
            r.insert_vnode(Id::MAX.wrapping_sub(Id::from(v * 3)), v as usize)
                .unwrap();
        }
        let homes = 1u64 << r.index.bits;
        assert!(homes < 4 * n, "{homes} homes for {n} ids");
        assert!(r.index.entries.len() as u64 <= homes + n);
        r.check_invariants().unwrap();
        assert_eq!(r.successor_of(Id::MAX), r.successor_of(Id::ZERO));
        assert_eq!(
            r.predecessor_of(Id::ZERO),
            Some(Id::MAX),
            "the wrap from the first home reaches the tail"
        );
        for v in (0..n).step_by(2) {
            r.remove_vnode(Id::MAX.wrapping_sub(Id::from(v * 3)))
                .unwrap();
        }
        assert_eq!(r.len(), n as usize / 2);
        assert_eq!(
            r.predecessor_of(Id::ZERO),
            Some(Id::MAX.wrapping_sub(Id::from(3u64)))
        );
        r.check_invariants().unwrap();
    }

    /// `check_invariants` catches an index broken in each way its
    /// invariants forbid.
    #[test]
    fn check_invariants_catches_a_broken_index() {
        let spread = |v: u64| Id::from_limbs(0, 0, v << 28);
        let mut r = Ring::new();
        for v in [1, 2, 9] {
            r.insert_vnode(spread(v), v as usize).unwrap();
        }
        r.check_invariants().unwrap();
        let broken = |f: fn(&mut VnodeIndex)| {
            let mut b = r.clone();
            f(&mut b.index);
            b.check_invariants().unwrap_err()
        };
        // Two neighbours swapped: out of order.
        let err = broken(|ix| {
            let at = ix.stop(Id::from_limbs(0, 0, 1 << 28));
            ix.entries.swap(at, at + 1);
        });
        assert!(
            err.contains("before its home") || err.contains("out of order"),
            "{err}"
        );
        // An entry moved one left of its home.
        let err = broken(|ix| {
            let at = ix.stop(Id::from_limbs(0, 0, 9 << 28));
            ix.entries.swap(at - 1, at);
        });
        assert!(err.contains("before its home"), "{err}");
        // An entry moved past an empty entry after its home.
        let err = broken(|ix| {
            let at = ix.stop(Id::from_limbs(0, 0, 9 << 28));
            ix.entries.swap(at, at + 2);
        });
        assert!(err.contains("past an empty entry"), "{err}");
        // A stale length.
        let err = broken(|ix| ix.len += 1);
        assert!(err.contains("stores len"), "{err}");
        // One slot filed twice, another not at all.
        let err = broken(|ix| {
            let at = ix.stop(Id::from_limbs(0, 0, 2 << 28));
            if let Some(e) = ix.entries.get_mut(at) {
                e.1 = 0;
            }
        });
        assert!(err.contains("indexed twice"), "{err}");
    }

    /// A planned tick — per-vnode pop counts, replayed in plan order
    /// while drawing each state as it pops — pops exactly what the same
    /// draws made one at a time would, with capacity spilling across
    /// each owner's vnodes.
    #[test]
    fn planned_pops_match_sequential_pops() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ids: Vec<Id> = (0..30).map(|_| Id::random(&mut rng)).collect();
        let keys: Vec<Id> = (0..900).map(|_| Id::random(&mut rng)).collect();
        let mut seq = Ring::new();
        let mut planned = Ring::new();
        let mut slots = Vec::new();
        for (v, &at) in ids.iter().enumerate() {
            seq.insert_vnode(at, v / 3).unwrap();
            slots.push(planned.insert_slotted(at, v / 3).unwrap().0);
        }
        seq.assign_tasks(keys.clone()).unwrap();
        planned.assign_tasks(keys).unwrap();
        for _tick in 0..5 {
            // Every owner's three vnodes share a capacity of 4.
            let mut total = 0u64;
            for (hs, at) in slots.chunks(3).zip(ids.chunks(3)) {
                let mut left = 4u64;
                for (&h, &v) in hs.iter().zip(at) {
                    let p = left.min(planned.queue_len(h));
                    if p > 0 {
                        planned.plan_pops(h, p as u32);
                    }
                    total += p;
                    left -= p;
                    for _ in 0..p {
                        assert!(seq.pop_task(v));
                    }
                }
            }
            planned.run_pops(total);
            assert_eq!(seq.total_tasks(), planned.total_tasks());
            assert_eq!(seq.rows(), planned.rows());
        }
        planned.check_invariants().unwrap();
    }

    /// A detached tick pops exactly what one-at-a-time `pop_task` calls
    /// in owner-index order pop, even after removals and re-inserts
    /// have reused slots so that slot order is no longer owner order,
    /// and after a structural change mid-drain rebuilds the live set.
    #[test]
    fn detached_pops_match_sequential_pops_in_owner_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut at: Vec<Id> = (0..40).map(|_| Id::random(&mut rng)).collect();
        let mut r = Ring::new();
        for (owner, &v) in at.iter().enumerate() {
            r.insert_vnode(v, owner).unwrap();
        }
        r.assign_tasks((0..1_200).map(|_| Id::random(&mut rng)).collect())
            .unwrap();
        // Freed slots are reused by later owners, out of owner order.
        for gone in [3usize, 11, 17, 29] {
            r.remove_vnode(at[gone]).unwrap();
        }
        for _ in 0..4 {
            at.push(Id::random(&mut rng));
            r.insert_vnode(*at.last().unwrap(), at.len() - 1).unwrap();
        }
        let owners: Vec<WorkerId> = r
            .owners
            .iter()
            .copied()
            .filter(|&o| o != FREE_OWNER)
            .collect();
        assert!(
            owners.windows(2).any(|w| w[0] > w[1]),
            "slot order must differ from owner order"
        );
        let caps: Vec<u32> = (0..at.len() as u32 + 1).map(|w| 1 + w % 4).collect();
        let mut seq = r.clone();
        for tick in 0..400 {
            if tick == 3 {
                // A departure mid-drain: both rings merge the same queue.
                for ring in [&mut r, &mut seq] {
                    ring.remove_vnode(at[8]).unwrap();
                }
            }
            let mut want = 0u64;
            for (owner, &v) in at.iter().enumerate() {
                if seq.vnode_owner(v) != Some(owner) {
                    continue;
                }
                let n = (caps[owner] as u64).min(seq.load(v));
                for _ in 0..n {
                    assert!(seq.pop_task(v));
                }
                want += n;
            }
            assert_eq!(r.pop_detached(&caps), want, "tick {tick}");
            assert_eq!(r.total_tasks(), seq.total_tasks(), "tick {tick}");
            assert_eq!(r.rows(), seq.rows(), "tick {tick}");
            if seq.total_tasks() == 0 {
                break;
            }
        }
        assert_eq!(r.total_tasks(), 0, "the drain finished");
        assert!(r.live.is_empty(), "drained slots left the live set");
        r.check_invariants().unwrap();
    }
}
