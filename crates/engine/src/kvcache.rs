//! Paged KV-cache block manager (PagedAttention-style accounting).
//!
//! vLLM's PagedAttention \[27\] allocates KV cache in fixed-size blocks of
//! token positions, eliminating external fragmentation. The engines here
//! don't hold real tensors, but they account for memory exactly the same
//! way: a request of `n` tokens consumes `ceil(n / block_size)` blocks of
//! the instance's pool, and admission control asks this manager before
//! scheduling. The difference between requested tokens and occupied block
//! space is the *internal* fragmentation PagedAttention still pays.

use std::collections::HashMap;

use distserve_workload::RequestId;

/// Errors from the block manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free blocks to satisfy an allocation.
    OutOfBlocks {
        /// Blocks requested.
        requested: u64,
        /// Blocks free.
        free: u64,
    },
    /// The request already holds an allocation.
    AlreadyAllocated(RequestId),
    /// The request holds no allocation.
    NotAllocated(RequestId),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfBlocks { requested, free } => {
                write!(f, "requested {requested} blocks, {free} free")
            }
            KvError::AlreadyAllocated(id) => write!(f, "{id} already allocated"),
            KvError::NotAllocated(id) => write!(f, "{id} not allocated"),
        }
    }
}

impl std::error::Error for KvError {}

/// PagedAttention block size of every simulated KV pool, tokens.
pub const BLOCK_TOKENS: u32 = 16;

/// Block-granular KV pool for one instance.
///
/// # Examples
///
/// ```
/// use distserve_engine::KvBlockManager;
/// use distserve_workload::RequestId;
///
/// let mut kv = KvBlockManager::new(100, 16);
/// // 130 tokens round up to 9 blocks.
/// kv.alloc(RequestId(0), 130).unwrap();
/// assert_eq!(kv.blocks_in_use(), 9);
/// kv.free(RequestId(0)).unwrap();
/// assert_eq!(kv.blocks_in_use(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct KvBlockManager {
    total_blocks: u64,
    block_size: u32,
    allocations: HashMap<RequestId, u64>,
    in_use: u64,
}

impl KvBlockManager {
    /// Creates a pool of `total_blocks` blocks of `block_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(total_blocks: u64, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        KvBlockManager {
            total_blocks,
            block_size,
            allocations: HashMap::new(),
            in_use: 0,
        }
    }

    /// Sizes a pool from a byte budget: `pool_bytes` of KV memory with
    /// `bytes_per_token` per token position.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_token` or `block_size` is zero.
    #[must_use]
    pub fn from_bytes(pool_bytes: u64, bytes_per_token: u64, block_size: u32) -> Self {
        assert!(bytes_per_token > 0, "bytes per token must be positive");
        let block_bytes = bytes_per_token * u64::from(block_size);
        KvBlockManager::new(pool_bytes / block_bytes, block_size)
    }

    /// Blocks needed for `tokens` token positions.
    #[must_use]
    pub fn blocks_for(&self, tokens: u32) -> u64 {
        u64::from(tokens).div_ceil(u64::from(self.block_size))
    }

    /// Whether an allocation of `tokens` would succeed right now.
    #[must_use]
    pub fn fits(&self, tokens: u32) -> bool {
        self.blocks_for(tokens) <= self.free_blocks()
    }

    /// Allocates blocks for a request spanning `tokens` positions.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfBlocks`] when the pool is exhausted,
    /// [`KvError::AlreadyAllocated`] on double allocation.
    pub fn alloc(&mut self, id: RequestId, tokens: u32) -> Result<(), KvError> {
        if self.allocations.contains_key(&id) {
            return Err(KvError::AlreadyAllocated(id));
        }
        let need = self.blocks_for(tokens);
        let free = self.free_blocks();
        if need > free {
            return Err(KvError::OutOfBlocks {
                requested: need,
                free,
            });
        }
        self.allocations.insert(id, need);
        self.in_use += need;
        Ok(())
    }

    /// Frees a request's blocks, returning how many were released.
    ///
    /// # Errors
    ///
    /// [`KvError::NotAllocated`] if the request holds nothing.
    pub fn free(&mut self, id: RequestId) -> Result<u64, KvError> {
        let blocks = self
            .allocations
            .remove(&id)
            .ok_or(KvError::NotAllocated(id))?;
        debug_assert!(self.in_use >= blocks, "accounting underflow");
        self.in_use -= blocks;
        Ok(blocks)
    }

    /// Whether the request currently holds blocks.
    #[must_use]
    pub fn holds(&self, id: RequestId) -> bool {
        self.allocations.contains_key(&id)
    }

    /// Total blocks in the pool.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Blocks currently allocated.
    #[must_use]
    pub fn blocks_in_use(&self) -> u64 {
        self.in_use
    }

    /// Blocks currently free.
    #[must_use]
    pub fn free_blocks(&self) -> u64 {
        self.total_blocks - self.in_use
    }

    /// Token capacity of the whole pool.
    #[must_use]
    pub fn token_capacity(&self) -> u64 {
        self.total_blocks * u64::from(self.block_size)
    }

    /// Pool utilization in blocks, `0.0..=1.0`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.total_blocks == 0 {
            return 1.0;
        }
        self.in_use as f64 / self.total_blocks as f64
    }

    /// Number of live allocations.
    #[must_use]
    pub fn num_allocations(&self) -> usize {
        self.allocations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> RequestId {
        RequestId(n)
    }

    #[test]
    fn rounding_up_to_blocks() {
        let kv = KvBlockManager::new(10, 16);
        assert_eq!(kv.blocks_for(1), 1);
        assert_eq!(kv.blocks_for(16), 1);
        assert_eq!(kv.blocks_for(17), 2);
        assert_eq!(kv.blocks_for(0), 0);
    }

    #[test]
    fn from_bytes_sizing() {
        // 1 GiB pool, 1 MiB per token, 16-token blocks → 64 blocks.
        let kv = KvBlockManager::from_bytes(1 << 30, 1 << 20, 16);
        assert_eq!(kv.total_blocks(), 64);
        assert_eq!(kv.token_capacity(), 1024);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut kv = KvBlockManager::new(8, 16);
        kv.alloc(id(1), 100).unwrap(); // 7 blocks.
        assert_eq!(kv.blocks_in_use(), 7);
        assert!(kv.holds(id(1)));
        assert!(!kv.fits(32));
        assert!(kv.fits(16));
        assert_eq!(kv.free(id(1)).unwrap(), 7);
        assert_eq!(kv.blocks_in_use(), 0);
        assert!(!kv.holds(id(1)));
    }

    #[test]
    fn exhaustion_and_double_alloc_rejected() {
        let mut kv = KvBlockManager::new(4, 16);
        kv.alloc(id(1), 64).unwrap();
        assert_eq!(
            kv.alloc(id(2), 1),
            Err(KvError::OutOfBlocks {
                requested: 1,
                free: 0
            })
        );
        assert_eq!(kv.alloc(id(1), 1), Err(KvError::AlreadyAllocated(id(1))));
        assert_eq!(kv.free(id(9)), Err(KvError::NotAllocated(id(9))));
    }

    #[test]
    fn utilization_tracks_allocations() {
        let mut kv = KvBlockManager::new(10, 16);
        assert_eq!(kv.utilization(), 0.0);
        kv.alloc(id(1), 80).unwrap(); // 5 blocks.
        assert!((kv.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(kv.num_allocations(), 1);
    }

    #[test]
    fn empty_pool_is_fully_utilized() {
        let kv = KvBlockManager::new(0, 16);
        assert_eq!(kv.utilization(), 1.0);
        assert!(!kv.fits(1));
        assert!(kv.fits(0));
    }
}
