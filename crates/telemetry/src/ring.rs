//! The one overwrite-on-wrap ring buffer behind the span tracer and the
//! flight recorder.
//!
//! Storage is preallocated at construction: until the ring is full a push
//! fills the next slot of a `Vec` whose capacity is already reserved, and
//! after that it overwrites the oldest record in place. Neither allocates.
//! Owners keep their own counters (records closed, records dropped) from
//! what [`Ring::push`] returns.

#[derive(Debug)]
pub(crate) struct Ring<T> {
    slots: Vec<T>,
    capacity: usize,
    /// The oldest record once the ring is full (and the slot the next push
    /// overwrites); 0 until then.
    head: usize,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` records (must be positive).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    /// Appends `record`; returns whether it overwrote the oldest one.
    #[inline]
    pub(crate) fn push(&mut self, record: T) -> bool {
        if self.slots.len() < self.capacity {
            self.slots.push(record);
            return false;
        }
        self.slots[self.head] = record;
        self.head = (self.head + 1) % self.capacity;
        true
    }

    /// Records held (at most the capacity).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The most records the ring holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Held records, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Drops every held record; the capacity stays reserved.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
    }
}
