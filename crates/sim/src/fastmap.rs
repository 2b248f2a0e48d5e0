//! A minimal open-addressed `u64 → u64` hash map for the checker's version
//! tracking.
//!
//! The system probes its `memory_versions`/`latest_versions` maps on every
//! bus transaction. `std::collections::HashMap` pays SipHash per probe —
//! measurable on the snoop hot path, and pure overhead for the common
//! unchecked experiment runs where both maps stay empty. `FastMap` instead
//! uses a Fibonacci-multiplicative hash (one `wrapping_mul` plus a shift)
//! over linear probing, and an empty map answers [`FastMap::get`] without
//! touching any table storage at all.
//!
//! Scope: exactly the two operations the checker needs — [`FastMap::insert`]
//! (overwrite semantics, like `HashMap::insert`) and [`FastMap::get`].
//! There is no removal, so no tombstones; slots only ever go empty → full.

/// Sentinel marking an empty slot. The real key `u64::MAX` cannot collide
/// with it observably: it is stored out of line in `max_key_value`.
const EMPTY: u64 = u64::MAX;

/// Initial table capacity on first insert (power of two).
const INITIAL_CAPACITY: usize = 16;

/// Open-addressed insert-only `u64 → u64` map. See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct FastMap {
    /// Slot keys; `EMPTY` marks a free slot. Length is a power of two
    /// (zero until the first insert).
    keys: Vec<u64>,
    /// Slot values, parallel to `keys`.
    values: Vec<u64>,
    /// Occupied slot count (excluding the out-of-line `u64::MAX` entry).
    len: usize,
    /// Value stored under the key `u64::MAX`, which the table itself uses
    /// as its empty sentinel.
    max_key_value: Option<u64>,
}

impl FastMap {
    /// Creates an empty map; no storage is allocated until the first
    /// insert.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Entries stored.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len + usize::from(self.max_key_value.is_some())
    }

    /// `true` when nothing has been inserted.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fibonacci-multiplicative start slot for `key` in a table of
    /// `self.keys.len()` (a power of two) slots: sequential keys — the
    /// common unit-address pattern — scatter across the table instead of
    /// clustering into one probe run.
    fn start_slot(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Looks up `key`.
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        if key == EMPTY {
            return self.max_key_value;
        }
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.start_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(self.values[slot]);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts or overwrites `key → value`.
    pub(crate) fn insert(&mut self, key: u64, value: u64) {
        if key == EMPTY {
            self.max_key_value = Some(value);
            return;
        }
        // Grow at 1/2 occupancy: with linear probing, miss lookups scan to
        // the next empty slot, and the snoop path issues more misses than
        // hits — a low load factor buys short runs for 16 bytes/slot.
        if self.keys.is_empty() || (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.start_slot(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                self.values[slot] = value;
                return;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.values[slot] = value;
                self.len += 1;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and rehashes every
    /// occupied slot.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(INITIAL_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_values = std::mem::take(&mut self.values);
        self.values = vec![0; new_cap];
        let mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_values) {
            if k == EMPTY {
                continue;
            }
            let mut slot = self.start_slot(k);
            while self.keys[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.keys[slot] = k;
            self.values[slot] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_answers_none_without_allocating() {
        let m = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(42), None);
        assert_eq!(m.keys.capacity(), 0, "no table until the first insert");
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let mut m = FastMap::new();
        m.insert(0, 10);
        m.insert(7, 70);
        assert_eq!(m.get(0), Some(10));
        assert_eq!(m.get(7), Some(70));
        assert_eq!(m.get(8), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_overwrites_like_hashmap() {
        let mut m = FastMap::new();
        m.insert(5, 1);
        m.insert(5, 2);
        assert_eq!(m.get(5), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn key_zero_is_an_ordinary_key() {
        let mut m = FastMap::new();
        m.insert(0, 99);
        assert_eq!(m.get(0), Some(99));
    }

    #[test]
    fn sentinel_key_is_storable() {
        let mut m = FastMap::new();
        assert_eq!(m.get(u64::MAX), None);
        m.insert(u64::MAX, 3);
        assert_eq!(m.get(u64::MAX), Some(3));
        assert_eq!(m.len(), 1);
        m.insert(u64::MAX, 4);
        assert_eq!(m.get(u64::MAX), Some(4));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut m = FastMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 3, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 3), Some(k), "key {}", k * 3);
        }
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn matches_std_hashmap_on_a_mixed_workload() {
        use std::collections::HashMap;
        let mut fast = FastMap::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        // Deterministic xorshift key stream with frequent overwrites.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 8192; // collide often
            fast.insert(key, i);
            std_map.insert(key, i);
        }
        assert_eq!(fast.len(), std_map.len());
        for key in 0..8192u64 {
            assert_eq!(fast.get(key), std_map.get(&key).copied(), "key {key}");
        }
    }
}
