//! The event wire's scheduler: a timing wheel over one payload slab.
//!
//! Every delay the event wire schedules is short and bounded (message
//! latency, stabilize period, substrate tick), which is the case timing
//! wheels were built for (Varghese & Lauck, *Hashed and Hierarchical
//! Timing Wheels*, SOSP 1987). [`EventQueue`] files an event due fewer
//! than [`WHEEL`] units ahead in that time's FIFO bucket of a fixed
//! wheel, and keeps a binary heap of `(at, seq)` keys only for events
//! further out. Both hold `u32` indices into one slab of `(seq, item)`
//! slots: a bucket is a list linked through the slots, freed slots form
//! an intrusive free list, and an occupancy bitmap finds the first
//! non-empty bucket. A warm queue allocates nothing, and no heap sift
//! moves a payload.
//!
//! Pops come out in exactly the `(at, seq)` order of one heap over
//! every event:
//!
//! * the caller never schedules into the past and never moves its
//!   clock past a queued event, so every queued event has `now <= at`;
//!   a wheel event, filed with `at < now + WHEEL`, therefore stays
//!   within one turn of the wheel, and each bucket holds one `at`;
//! * `seq` only grows, so a bucket's FIFO order is its `seq` order;
//! * the earliest bucket is the first occupied one from `now` round the
//!   wheel, and [`EventQueue::peek`] takes the smaller of its front and
//!   the heap's top by `(at, seq)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wheel width in time units, a power of two. Events due at least this
/// far ahead wait in the heap.
pub(crate) const WHEEL: u64 = 256;

/// Occupancy bitmap words.
const WORDS: usize = (WHEEL / 64) as usize;

/// The null slot index: an empty bucket, the end of a list.
const NIL: u32 = u32::MAX;

/// One slab entry: a queued item, or a link in the free list.
struct Slot<T> {
    seq: u64,
    /// The next slot in the same bucket or in the free list.
    next: u32,
    /// `None` while the slot is free.
    item: Option<T>,
}

/// One time's FIFO of wheel events, as first and last slot.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// The earliest queued event, as [`EventQueue::peek`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    /// The wheel bucket it leads, or `None` for the heap's top.
    bucket: Option<usize>,
}

/// A priority queue of items keyed by a unique, growing `seq` and a due
/// time `at`, popped in `(at, seq)` order (see the module doc for the
/// conditions on `now`).
pub(crate) struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list.
    free: u32,
    /// `WHEEL` buckets; the bucket of time `at` is `at % WHEEL`.
    buckets: Vec<Bucket>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Events due `WHEEL` or more units after the time they were pushed.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY; WHEEL as usize],
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
        }
    }

    /// Queues `item` for time `at`. `now` is the caller's clock: no
    /// greater than `at`, and no greater than any queued event's time.
    pub(crate) fn push(&mut self, now: u64, at: u64, seq: u64, item: T) {
        debug_assert!(now <= at, "an event is never scheduled in the past");
        let slot = self.alloc(seq, item);
        if at.saturating_sub(now) >= WHEEL {
            self.far.push(Reverse((at, seq, slot)));
            return;
        }
        let b = (at % WHEEL) as usize;
        let Some(bucket) = self.buckets.get_mut(b) else {
            return;
        };
        match self.slots.get_mut(bucket.tail as usize) {
            Some(last) => last.next = slot,
            None => {
                bucket.head = slot;
                if let Some(word) = self.occupied.get_mut(b / 64) {
                    *word |= 1 << (b % 64);
                }
            }
        }
        bucket.tail = slot;
    }

    /// The earliest queued event by `(at, seq)`, if any, for a clock at
    /// `now` (the same bound as [`EventQueue::push`]'s).
    pub(crate) fn peek(&self, now: u64) -> Option<Head> {
        let wheel = self.first_bucket(now).and_then(|b| {
            let seq = self.slots.get(self.buckets.get(b)?.head as usize)?.seq;
            // The bucket's one time lies in `[now, now + WHEEL)`.
            let at = now + (b as u64).wrapping_sub(now) % WHEEL;
            Some(Head {
                at,
                seq,
                bucket: Some(b),
            })
        });
        let far = self.far.peek().map(|&Reverse((at, seq, _))| Head {
            at,
            seq,
            bucket: None,
        });
        match (wheel, far) {
            (Some(w), Some(f)) if (f.at, f.seq) < (w.at, w.seq) => Some(f),
            (w, f) => w.or(f),
        }
    }

    /// Removes the event `head` names and returns its item. `head` must
    /// come from [`EventQueue::peek`] with no push or pop since.
    pub(crate) fn pop(&mut self, head: Head) -> Option<T> {
        let slot = match head.bucket {
            Some(b) => {
                let bucket = self.buckets.get_mut(b)?;
                let slot = bucket.head;
                bucket.head = self.slots.get(slot as usize)?.next;
                if bucket.head == NIL {
                    bucket.tail = NIL;
                    if let Some(word) = self.occupied.get_mut(b / 64) {
                        *word &= !(1 << (b % 64));
                    }
                }
                slot
            }
            None => self.far.pop()?.0 .2,
        };
        let freed = self.slots.get_mut(slot as usize)?;
        debug_assert_eq!(freed.seq, head.seq, "pop follows its own peek");
        freed.next = self.free;
        self.free = slot;
        freed.item.take()
    }

    /// A slot holding `item`: the head of the free list, or a new one.
    fn alloc(&mut self, seq: u64, item: T) -> u32 {
        let filled = Slot {
            seq,
            next: NIL,
            item: Some(item),
        };
        let slot = self.free;
        match self.slots.get_mut(slot as usize) {
            Some(s) => {
                self.free = s.next;
                *s = filled;
                slot
            }
            None => {
                let slot = self.slots.len();
                assert!(slot < NIL as usize, "more than u32::MAX queued events");
                self.slots.push(filled);
                slot as u32
            }
        }
    }

    /// The first non-empty bucket from `now`'s round the wheel: the rest
    /// of `now`'s bitmap word, the other words, then the start of
    /// `now`'s word.
    fn first_bucket(&self, now: u64) -> Option<usize> {
        let start = (now % WHEEL) as usize;
        let (first, bit) = (start / 64, start % 64);
        for i in 0..=WORDS {
            let w = (first + i) % WORDS;
            let bits = self.occupied.get(w).copied().unwrap_or(0);
            let bits = match i {
                0 => bits & (!0 << bit),
                WORDS => bits & !(!0 << bit),
                _ => bits,
            };
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Delays that sit on the wheel's edges: now, one, a message
    /// latency, the last wheel bucket, the first heap time and one past
    /// it, and far out.
    const DELAYS: [u64; 7] = [0, 1, 10, WHEEL - 1, WHEEL, WHEEL + 1, 5_000];

    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `now + DELAYS[d]` (the last choice adds `x`).
        Push(usize, u64),
        /// Pop the earliest event and move the clock to its time.
        Pop,
        /// Move the clock forward short of the next event, as a
        /// `run_until` deadline does, by a share `x` of the gap.
        Jump(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..9, 0..DELAYS.len(), 0u64..100_000).prop_map(|(tag, d, x)| match tag {
            0..=3 => Op::Push(d, x),
            4..=6 => Op::Pop,
            _ => Op::Jump(x),
        })
    }

    /// The order `EventQueue` must keep: one heap over every event.
    type Reference = BinaryHeap<(Reverse<u64>, Reverse<u64>, u64)>;

    /// Pops both queues once and checks they agree on the event and its
    /// payload; returns the event's time.
    fn pop_both(
        queue: &mut EventQueue<u64>,
        reference: &mut Reference,
        now: u64,
    ) -> Result<Option<u64>, TestCaseError> {
        let head = queue.peek(now);
        let Some((Reverse(at), Reverse(seq), payload)) = reference.pop() else {
            prop_assert_eq!(head, None);
            return Ok(None);
        };
        let Some(head) = head else {
            return Err(TestCaseError::Fail(format!(
                "queue empty, expected {at}/{seq}"
            )));
        };
        prop_assert_eq!((head.at, head.seq), (at, seq));
        prop_assert_eq!(queue.pop(head), Some(payload));
        Ok(Some(at))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `EventQueue` pops the same `(at, seq, payload)` stream as a
        /// binary heap keyed by `(at, seq)`, under pushes on either side
        /// of the wheel's edge and clock moves to each popped event or
        /// to a deadline short of the next one, then drains equal too.
        #[test]
        fn event_queue_matches_binary_heap(
            start in 0u64..1_000,
            ops in proptest::collection::vec(arb_op(), 0..200),
        ) {
            let mut queue = EventQueue::new();
            let mut reference = Reference::new();
            let (mut now, mut seq) = (start, 0u64);
            for op in ops {
                match op {
                    Op::Push(d, x) => {
                        let delay = DELAYS[d] + if d == DELAYS.len() - 1 { x } else { 0 };
                        let payload = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x;
                        queue.push(now, now + delay, seq, payload);
                        reference.push((Reverse(now + delay), Reverse(seq), payload));
                        seq += 1;
                    }
                    Op::Pop => {
                        if let Some(at) = pop_both(&mut queue, &mut reference, now)? {
                            prop_assert!(at >= now);
                            now = at;
                        }
                    }
                    Op::Jump(x) => {
                        let gap = match reference.peek() {
                            Some(&(Reverse(at), _, _)) => at - now,
                            None => x + 1,
                        };
                        if gap > 0 {
                            now += x % gap;
                        }
                    }
                }
            }
            while let Some(at) = pop_both(&mut queue, &mut reference, now)? {
                now = at;
            }
            prop_assert!(queue.slots.iter().all(|s| s.item.is_none()));
            prop_assert_eq!(queue.occupied, [0; WORDS]);
        }
    }

    #[test]
    fn same_time_events_pop_in_push_order_across_the_wheel_edge() {
        let mut queue = EventQueue::new();
        // Pushed at 0 for time 300 (heap), then at 100 for 300 (wheel).
        queue.push(0, 300, 0, "far");
        queue.push(100, 300, 1, "near");
        queue.push(100, 299, 2, "first");
        let mut popped = Vec::new();
        while let Some(head) = queue.peek(100) {
            popped.push((head.at, queue.pop(head)));
        }
        assert_eq!(
            popped,
            [
                (299, Some("first")),
                (300, Some("far")),
                (300, Some("near"))
            ]
        );
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut queue = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..4 {
                queue.push(round, round + i, round * 4 + i, i);
            }
            while let Some(head) = queue.peek(round) {
                queue.pop(head);
            }
        }
        assert_eq!(queue.slots.len(), 4);
    }
}
