//! Bounded least-recently-used map keyed by `u64` ids.
//!
//! Both of the router's prefix-lineage directories need the same thing:
//! "what do we know about lineage `g`" plus eviction of the lineage
//! noted longest ago once the directory is full. [`LruMap`] does every
//! operation in O(1): a hash index maps each key to a slot of a slab that
//! never grows past the capacity, and the slots form an intrusive doubly
//! linked list in recency order, so eviction unlinks the tail instead of
//! scanning for the oldest stamp.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Slab index meaning "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    value: V,
    /// Neighbour toward the most recently used end.
    newer: u32,
    /// Neighbour toward the least recently used end.
    older: u32,
}

/// A map holding at most `cap` keys. [`LruMap::upsert`] counts as a use;
/// [`LruMap::get`] does not. Inserting a new key into a full map first
/// evicts the key upserted longest ago.
#[derive(Debug, Clone)]
pub(crate) struct LruMap<V, S = RandomState> {
    index: HashMap<u64, u32, S>,
    nodes: Vec<Node<V>>,
    newest: u32,
    oldest: u32,
    cap: usize,
}

impl<V: Copy, S: BuildHasher + Default> LruMap<V, S> {
    /// An empty map bounded at `cap` keys. Storage grows on demand up to
    /// that bound.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or does not fit a slab index.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0 && cap < NIL as usize, "LRU capacity {cap}");
        LruMap {
            index: HashMap::default(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
            cap,
        }
    }
}

impl<V: Copy, S: BuildHasher> LruMap<V, S> {
    /// The value stored for `key`, without touching recency.
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        self.index.get(&key).map(|&i| self.nodes[i as usize].value)
    }

    /// Keys currently held (never more than the capacity).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Sets `key`'s value to `update(previous)` and marks it most
    /// recently used, evicting the least recently used key first if `key`
    /// is new and the map is full. Returns the previous value.
    pub(crate) fn upsert(&mut self, key: u64, update: impl FnOnce(Option<V>) -> V) -> Option<V> {
        let recycle = self.nodes.len() >= self.cap;
        let slot = if recycle {
            self.oldest
        } else {
            self.nodes.len() as u32
        };
        match self.index.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                let node = &mut self.nodes[i as usize];
                let prev = node.value;
                node.value = update(Some(prev));
                if i != self.newest {
                    self.unlink(i);
                    self.link_newest(i);
                }
                Some(prev)
            }
            Entry::Vacant(e) => {
                let value = update(None);
                e.insert(slot);
                if recycle {
                    let node = &mut self.nodes[slot as usize];
                    let victim = std::mem::replace(&mut node.key, key);
                    node.value = value;
                    self.index.remove(&victim);
                    self.unlink(slot);
                } else {
                    self.nodes.push(Node {
                        key,
                        value,
                        newer: NIL,
                        older: NIL,
                    });
                }
                self.link_newest(slot);
                None
            }
        }
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
