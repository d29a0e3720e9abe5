//! The timestamp-LRU cache model [`CacheSim`](super::CacheSim) replaced,
//! kept verbatim as the oracle of the differential test in `super::tests`:
//! two parallel arrays (`tags`, `stamps`), hit = refresh the stamp, miss =
//! first invalid way, else the minimum stamp.

use super::{AccessResult, LINE};

#[derive(Clone, Debug)]
pub struct TimestampLru {
    /// `tags[set * ways + way]` holds the line address (address >> 6) plus
    /// one, so that zero means "invalid".
    tags: Vec<u64>,
    /// LRU timestamps parallel to `tags`.
    stamps: Vec<u64>,
    ways: usize,
    set_mask: u64,
    tick: u64,
}

impl TimestampLru {
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / LINE as usize;
        let s = (lines / ways).max(1);
        // Round the set count down to a power of two for mask indexing.
        let sets = if s.is_power_of_two() {
            s
        } else {
            s.next_power_of_two() / 2
        };
        Self {
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            ways,
            set_mask: (sets - 1) as u64,
            tick: 0,
        }
    }

    pub fn touch(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = (addr / LINE) + 1;
        let set = ((line - 1) & self.set_mask) as usize;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        // Hit path: refresh the LRU stamp.
        if let Some(i) = slots.iter().position(|&t| t == line) {
            self.stamps[base + i] = self.tick;
            return true;
        }
        // Miss path: evict the least recently used way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, &s) in self.stamps[base..base + self.ways].iter().enumerate() {
            if self.tags[base + i] == 0 {
                victim = i;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = i;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }

    pub fn access(&mut self, addr: u64, len: usize) -> AccessResult {
        let mut r = AccessResult::default();
        if len == 0 {
            return r;
        }
        let first = addr / LINE;
        let last = (addr + len as u64 - 1) / LINE;
        for line in first..=last {
            if self.touch(line * LINE) {
                r.hits += 1;
            } else {
                r.misses += 1;
            }
        }
        r
    }

    pub fn probe(&self, addr: u64) -> bool {
        let line = (addr / LINE) + 1;
        let set = ((line - 1) & self.set_mask) as usize;
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    pub fn invalidate(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr / LINE;
        let last = (addr + len as u64 - 1) / LINE;
        for line_no in first..=last {
            let line = line_no + 1;
            let set = ((line - 1) & self.set_mask) as usize;
            let base = set * self.ways;
            for i in 0..self.ways {
                if self.tags[base + i] == line {
                    self.tags[base + i] = 0;
                    self.stamps[base + i] = 0;
                }
            }
        }
    }

    pub fn clear(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = 0);
        self.stamps.iter_mut().for_each(|s| *s = 0);
        self.tick = 0;
    }
}
