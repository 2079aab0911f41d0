//! Bounded least-recently-used map keyed by `u64` ids.
//!
//! Both of the router's prefix-lineage directories need the same thing:
//! "what do we know about lineage `g`" plus eviction of the lineage
//! noted longest ago once the directory is full. [`LruMap`] does every
//! operation in O(1): a hash index maps each key to a slot of a slab, and
//! the slots form an intrusive doubly linked list in recency order, so
//! eviction unlinks the tail instead of scanning for the oldest stamp.
//!
//! Both are allocated at the bound when the map is built and never
//! resized. The index is an open-addressing table of 4-byte slot numbers
//! at most half full, probed linearly; a removal shifts the entries
//! behind it back instead of leaving a tombstone, so churn never forces
//! a rehash (std's `HashMap` grows once its tombstones use up the spare
//! room, even at a fixed key count).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Slab index meaning "no slot" (also an empty index bucket).
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    value: V,
    /// The index bucket `key`'s probe starts at, so moving or removing
    /// the key never hashes it again.
    home: u32,
    /// Neighbour toward the most recently used end.
    newer: u32,
    /// Neighbour toward the least recently used end.
    older: u32,
}

/// A map holding at most `cap` keys. [`LruMap::upsert`] counts as a use;
/// [`LruMap::get`] does not. Inserting a new key into a full map first
/// evicts the key upserted longest ago.
#[derive(Debug)]
pub(crate) struct LruMap<V, S = RandomState> {
    /// Slab slot of each key, at the bucket its hash's top bits pick or
    /// the first free one after it; `NIL` marks a free bucket.
    index: Box<[u32]>,
    /// `64 - log2(index.len())`: a hash shifted right by this is a bucket.
    shift: u32,
    hasher: S,
    nodes: Vec<Node<V>>,
    newest: u32,
    oldest: u32,
    cap: usize,
}

impl<V: Copy, S: BuildHasher + Default> LruMap<V, S> {
    /// An empty map bounded at `cap` keys, with its index and slab
    /// allocated at that bound.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or does not fit a slab index.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0 && cap < (NIL / 2) as usize, "LRU capacity {cap}");
        let buckets = (2 * cap).next_power_of_two();
        LruMap {
            index: vec![NIL; buckets].into_boxed_slice(),
            shift: 64 - buckets.trailing_zeros(),
            hasher: S::default(),
            nodes: Vec::with_capacity(cap),
            newest: NIL,
            oldest: NIL,
            cap,
        }
    }
}

impl<V: Copy, S: Clone> Clone for LruMap<V, S> {
    /// A copy with the same bound, its slab allocated at it too.
    fn clone(&self) -> Self {
        let mut nodes = Vec::with_capacity(self.cap);
        nodes.extend_from_slice(&self.nodes);
        LruMap {
            index: self.index.clone(),
            shift: self.shift,
            hasher: self.hasher.clone(),
            nodes,
            newest: self.newest,
            oldest: self.oldest,
            cap: self.cap,
        }
    }
}

impl<V: Copy, S: BuildHasher> LruMap<V, S> {
    /// The value stored for `key`, without touching recency.
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        let slot = self.find(self.home(key), key)?;
        Some(self.nodes[slot as usize].value)
    }

    /// Keys currently held (never more than the capacity).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Sets `key`'s value to `update(previous)` and marks it most
    /// recently used, evicting the least recently used key first if `key`
    /// is new and the map is full. Returns the previous value.
    pub(crate) fn upsert(&mut self, key: u64, update: impl FnOnce(Option<V>) -> V) -> Option<V> {
        let home = self.home(key);
        if let Some(i) = self.find(home, key) {
            let node = &mut self.nodes[i as usize];
            let prev = node.value;
            node.value = update(Some(prev));
            if i != self.newest {
                self.unlink(i);
                self.link_newest(i);
            }
            return Some(prev);
        }
        let value = update(None);
        let slot = if self.nodes.len() >= self.cap {
            let slot = self.oldest;
            self.unindex(slot);
            self.unlink(slot);
            let node = &mut self.nodes[slot as usize];
            node.key = key;
            node.value = value;
            node.home = home as u32;
            slot
        } else {
            self.nodes.push(Node {
                key,
                value,
                home: home as u32,
                newer: NIL,
                older: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        let mut b = home;
        while self.index[b] != NIL {
            b = self.next(b);
        }
        self.index[b] = slot;
        self.link_newest(slot);
        None
    }

    /// The bucket `key`'s probe starts at.
    fn home(&self, key: u64) -> usize {
        (self.hasher.hash_one(key) >> self.shift) as usize
    }

    fn next(&self, bucket: usize) -> usize {
        (bucket + 1) & (self.index.len() - 1)
    }

    /// The slab slot holding `key`, whose home bucket is `home`, if held.
    fn find(&self, home: usize, key: u64) -> Option<u32> {
        let mut b = home;
        loop {
            match self.index[b] {
                NIL => return None,
                slot if self.nodes[slot as usize].key == key => return Some(slot),
                _ => b = self.next(b),
            }
        }
    }

    /// Drops `slot` from the index, moving back each later entry of its
    /// probe run that may take the freed bucket, so every held key stays
    /// reachable from its home bucket without tombstones.
    fn unindex(&mut self, slot: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.nodes[slot as usize].home as usize;
        while self.index[hole] != slot {
            hole = self.next(hole);
        }
        let mut b = self.next(hole);
        while self.index[b] != NIL {
            let moved = self.index[b];
            let home = self.nodes[moved as usize].home as usize;
            // The entry may move to the hole when the hole lies on its
            // probe path, from its home bucket up to where it sits.
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = moved;
                hole = b;
            }
            b = self.next(b);
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, i: u32) {
        let Node { newer, older, .. } = self.nodes[i as usize];
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o as usize].newer = newer,
        }
    }

    fn link_newest(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.newer = NIL;
        node.older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.nodes[n as usize].newer = i,
        }
        self.newest = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<V: Copy, S: BuildHasher> LruMap<V, S> {
        /// Keys from least to most recently used.
        fn keys_oldest_first(&self) -> Vec<u64> {
            let mut keys = Vec::new();
            let mut i = self.oldest;
            while i != NIL {
                keys.push(self.nodes[i as usize].key);
                i = self.nodes[i as usize].newer;
            }
            keys
        }
    }

    #[test]
    fn evicts_least_recently_upserted() {
        let mut m: LruMap<u32> = LruMap::new(3);
        for k in 1..=3 {
            assert_eq!(m.upsert(k, |_| k as u32 * 10), None);
        }
        // Reading does not refresh; writing does.
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.upsert(2, |v| v.unwrap() + 1), Some(20));
        assert_eq!(m.keys_oldest_first(), vec![1, 3, 2]);
        m.upsert(4, |_| 40);
        assert_eq!(m.get(1), None);
        assert_eq!(m.keys_oldest_first(), vec![3, 2, 4]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.nodes.len(), 3);
    }

    /// One step of Knuth's MMIX linear congruential generator.
    fn lcg(z: &mut u64) -> u64 {
        *z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *z >> 33
    }

    #[test]
    fn storage_is_allocated_once() {
        let mut m: LruMap<u32> = LruMap::new(256);
        let (index, slab) = (m.index.as_ptr(), m.nodes.as_ptr());
        assert_eq!((m.index.len(), m.nodes.capacity()), (512, 256));
        assert_eq!(m.clone().nodes.capacity(), 256, "a copy keeps the bound");
        // Fill past the bound, then churn over keys from four times the
        // bound, so upserts both refresh held keys and evict.
        let mut z = 1;
        for i in 0..200_000 {
            m.upsert(lcg(&mut z) % 1024, |v| v.map_or(0, |v| v + 1));
            assert_eq!(m.nodes.capacity(), 256, "slab capacity after {i} upserts");
        }
        assert_eq!(m.len(), 256);
        assert_eq!((m.index.as_ptr(), m.nodes.as_ptr()), (index, slab));
        assert_eq!(m.index.iter().filter(|&&s| s != NIL).count(), 256);
    }

    /// Sends key `k` to one of the last `k % 3 + 1` buckets, so probe
    /// runs are long and wrap past the end of the index.
    #[derive(Default)]
    struct Clustered(u64);

    impl std::hash::Hasher for Clustered {
        fn finish(&self) -> u64 {
            u64::MAX - ((self.0 % 3) << 60)
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("keys are u64")
        }
        fn write_u64(&mut self, k: u64) {
            self.0 = k;
        }
    }

    #[test]
    fn matches_a_reference_lru_under_collisions() {
        type Map = LruMap<u64, std::hash::BuildHasherDefault<Clustered>>;
        let cap = 24;
        let mut m = Map::new(cap);
        // Keys, least recently upserted first.
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut z = 7;
        for step in 0..20_000 {
            let key = lcg(&mut z) % 60;
            let held = reference.iter().position(|&(k, _)| k == key);
            let prev = held.map(|at| reference.remove(at).1);
            if prev.is_none() && reference.len() == cap {
                reference.remove(0);
            }
            reference.push((key, step));
            assert_eq!(m.upsert(key, |_| step), prev, "step {step}");
            for k in 0..60 {
                let want = reference.iter().find(|&&(r, _)| r == k).map(|&(_, v)| v);
                assert_eq!(m.get(k), want, "key {k} after step {step}");
            }
        }
        let keys: Vec<u64> = reference.iter().map(|&(k, _)| k).collect();
        assert_eq!(m.keys_oldest_first(), keys);
    }

    #[test]
    fn capacity_one_replaces_in_place() {
        let mut m: LruMap<u32> = LruMap::new(1);
        m.upsert(5, |_| 1);
        assert_eq!(m.upsert(5, |_| 2), Some(1));
        m.upsert(6, |_| 3);
        assert_eq!((m.get(5), m.get(6)), (None, Some(3)));
        assert_eq!(m.keys_oldest_first(), vec![6]);
    }
}
