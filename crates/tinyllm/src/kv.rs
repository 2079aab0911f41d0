//! A real paged KV cache (the PagedAttention memory layout).
//!
//! Key/value vectors live in fixed-size *blocks* of `block_size` token
//! positions; each sequence owns a *block table* mapping its logical
//! positions to physical blocks. Allocation takes blocks from a free
//! list; freeing a sequence returns them. This is the same structure
//! `distserve-engine`'s block manager accounts for — here it holds actual
//! bf16 values that the attention kernel reads back, at the same
//! `2 · layers · hidden` elements per token position.
//!
//! An append writes one position's full-width K and V rows. A row of any
//! other width is refused with a typed error in every build: blocks are
//! recycled without zeroing, so a partial write would leave a previous
//! owner's values in the dims attention reads.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::tensor::Bf16;

/// A sequence identifier.
pub type SeqId = u64;

/// Errors from the paged cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagedKvError {
    /// The free list is empty.
    OutOfBlocks,
    /// The sequence is unknown.
    UnknownSeq(SeqId),
    /// Position written out of order (must append densely).
    NonContiguousWrite {
        /// Sequence being written.
        seq: SeqId,
        /// Expected next position.
        expected: usize,
        /// Position given.
        got: usize,
    },
    /// A K or V row is not `hidden` elements wide.
    WidthMismatch {
        /// The cache's hidden size.
        expected: usize,
        /// Elements given.
        got: usize,
    },
}

impl std::fmt::Display for PagedKvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedKvError::OutOfBlocks => write!(f, "KV pool exhausted"),
            PagedKvError::UnknownSeq(s) => write!(f, "unknown sequence {s}"),
            PagedKvError::NonContiguousWrite { seq, expected, got } => {
                write!(f, "seq {seq}: expected append at {expected}, got {got}")
            }
            PagedKvError::WidthMismatch { expected, got } => {
                write!(f, "K/V row of {got} elements, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PagedKvError {}

/// Paged K/V storage for one model.
///
/// Physical layout per `(block, layer)`: `block_size` position-major
/// value slots (`hidden` elements each), followed by the block's keys
/// stored dim-major as a *transposed key panel* (`kt[dim][slot]`,
/// `hidden × block_size` elements). Each block holds `block_size`
/// consecutive token positions for *all* layers. Every key and value is
/// stored exactly once, as bf16 rounded on append, so a position costs
/// `2 × hidden` two-byte elements per layer ([`Self::bytes_per_token`]);
/// readers widen the stored values to f32. Attention's score pass reads
/// the panel, so the per-head dot products vectorize across a whole
/// block of positions (contiguous in the position index); its value pass
/// reads the slots.
#[derive(Debug)]
pub struct PagedKv {
    layers: usize,
    hidden: usize,
    block_size: usize,
    /// [`Bf16`] bit patterns. Plain `u16` so the pool is allocated as
    /// zeroed memory, which the OS maps in only as blocks are first
    /// written: a newtype element would be written out in full, making
    /// the whole pool resident at construction.
    ///
    /// Behind an [`Arc`] so the worker pool can hand attention workers a
    /// `'static` read handle without copying the pool or using `unsafe`.
    /// Writers reclaim exclusive access via [`Self::storage_mut`] once
    /// all workers have dropped their clones (they do so before
    /// signaling completion).
    storage: Arc<Vec<u16>>,
    free: Vec<usize>,
    tables: HashMap<SeqId, Table>,
    /// Per-block reference counts. A freshly allocated block has count 1
    /// (its owning sequence); [`Self::fork_prefix`] and
    /// [`Self::retain_block`] bump counts for shared prefix blocks, and a
    /// block only returns to the free list when its count reaches zero.
    ref_counts: Vec<u32>,
}

impl Clone for PagedKv {
    /// Deep copy: the clone gets its own storage allocation, never a
    /// shared handle — two caches must not see each other's writes, and
    /// a shared handle would also pin `Self::storage_mut`'s
    /// exclusivity check.
    fn clone(&self) -> Self {
        PagedKv {
            layers: self.layers,
            hidden: self.hidden,
            block_size: self.block_size,
            storage: Arc::new(self.storage.as_ref().clone()),
            free: self.free.clone(),
            tables: self.tables.clone(),
            ref_counts: self.ref_counts.clone(),
        }
    }
}

#[derive(Debug, Clone)]
struct Table {
    blocks: Vec<usize>,
    len: usize,
}

impl PagedKv {
    /// Creates a pool of `num_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(layers: usize, hidden: usize, block_size: usize, num_blocks: usize) -> Self {
        assert!(layers > 0 && hidden > 0 && block_size > 0 && num_blocks > 0);
        let block_elems = layers * block_size * 2 * hidden;
        PagedKv {
            layers,
            hidden,
            block_size,
            storage: Arc::new(vec![0; block_elems * num_blocks]),
            free: (0..num_blocks).rev().collect(),
            tables: HashMap::new(),
            ref_counts: vec![0; num_blocks],
        }
    }

    /// Positions per block.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// A cheap `'static` read handle to the backing bf16 bits, for
    /// farming attention rows out to pool workers. Callers must drop the
    /// handle before the next append (workers drop theirs before
    /// signaling completion).
    pub(crate) fn storage_arc(&self) -> Arc<Vec<u16>> {
        Arc::clone(&self.storage)
    }

    /// The block table and stored length of `seq`, for staging worker
    /// attention jobs.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is not registered.
    pub(crate) fn table_parts(&self, seq: SeqId) -> (&[usize], usize) {
        let table = self.tables.get(&seq).expect("sequence registered");
        (&table.blocks, table.len)
    }

    /// `(hidden, block_size, block_elems, layer_base)` for `layer` —
    /// everything [`KvLayerView::from_parts`] needs besides the table.
    pub(crate) fn geometry(&self, layer: usize) -> (usize, usize, usize, usize) {
        (
            self.hidden,
            self.block_size,
            self.layers * self.layer_stride(),
            layer * self.layer_stride(),
        )
    }

    /// Exclusive access to the backing bits. Normally the handle count
    /// is already 1 (workers drop their clones before completion is
    /// observed); if a stale handle somehow survives, the storage is
    /// copied out from under it rather than blocking — readers of the
    /// old allocation see a consistent snapshot.
    fn storage_mut(&mut self) -> &mut Vec<u16> {
        if Arc::get_mut(&mut self.storage).is_none() {
            self.storage = Arc::new(self.storage.as_ref().clone());
        }
        Arc::get_mut(&mut self.storage).expect("freshly copied storage is unshared")
    }

    /// Registers a new sequence with an empty block table.
    pub fn register(&mut self, seq: SeqId) {
        self.tables.entry(seq).or_insert(Table {
            blocks: Vec::new(),
            len: 0,
        });
    }

    /// Number of tokens stored for `seq` (0 if unknown).
    #[must_use]
    pub fn seq_len(&self, seq: SeqId) -> usize {
        self.tables.get(&seq).map_or(0, |t| t.len)
    }

    /// Free blocks remaining.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Total blocks in the pool.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.storage.len() / (self.layers * self.layer_stride())
    }

    /// Elements per `(block, layer)` region: the value slots plus the
    /// transposed key panel.
    fn layer_stride(&self) -> usize {
        self.block_size * 2 * self.hidden
    }

    /// Bytes of K/V storage one token position takes across all layers,
    /// derived from the block layout — comparable with the simulators'
    /// `ModelArch::kv_bytes_per_token`.
    #[must_use]
    pub fn bytes_per_token(&self) -> usize {
        self.layers * self.layer_stride() / self.block_size * std::mem::size_of::<Bf16>()
    }

    /// Appends the K and V vectors of one token position for one layer,
    /// each element rounded to bf16. This is the one place K/V are
    /// rounded; every reader widens the stored values. Layers must be
    /// written for the same position before advancing (position advances
    /// when layer 0 is written).
    ///
    /// # Errors
    ///
    /// [`PagedKvError`] on K or V rows that are not `hidden` wide (checked
    /// before anything is written), unknown sequences, pool exhaustion, or
    /// out-of-order writes.
    pub fn append(
        &mut self,
        seq: SeqId,
        layer: usize,
        pos: usize,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), PagedKvError> {
        for got in [k.len(), v.len()] {
            if got != self.hidden {
                return Err(PagedKvError::WidthMismatch {
                    expected: self.hidden,
                    got,
                });
            }
        }
        assert!(layer < self.layers, "layer {layer} of {}", self.layers);
        let block_size = self.block_size;
        let table = self
            .tables
            .get_mut(&seq)
            .ok_or(PagedKvError::UnknownSeq(seq))?;
        // Layer 0 drives the logical length; other layers fill the same
        // position. A repeated layer-0 write to the newest position
        // rewrites it (a step re-run at the same position), not an
        // advance.
        if layer == 0 {
            if pos == table.len {
                if pos == table.blocks.len() * block_size {
                    let block = self.free.pop().ok_or(PagedKvError::OutOfBlocks)?;
                    self.ref_counts[block] = 1;
                    let table = self.tables.get_mut(&seq).expect("just present");
                    table.blocks.push(block);
                    table.len += 1;
                } else {
                    table.len += 1;
                }
            } else if pos + 1 != table.len {
                return Err(PagedKvError::NonContiguousWrite {
                    seq,
                    expected: table.len,
                    got: pos,
                });
            }
        } else if pos >= table.len {
            return Err(PagedKvError::NonContiguousWrite {
                seq,
                expected: table.len.saturating_sub(1),
                got: pos,
            });
        }
        let table = self.tables.get(&seq).expect("present");
        let block = table.blocks[pos / block_size];
        // Copy-on-write invariant: writes land only in exclusively owned
        // blocks. Forks are block-aligned, so a forked sequence's appends
        // always start a fresh block and never mutate shared prefix data.
        debug_assert_eq!(
            self.ref_counts[block], 1,
            "write to shared block {block} (seq {seq} pos {pos})"
        );
        let slot = pos % block_size;
        let h = self.hidden;
        let region = (block * self.layers + layer) * self.layer_stride();
        // The value goes to the position's slot; the key only to this
        // position's column of each dim's row in the panel.
        let vb = region + slot * h;
        let kt = region + h * block_size;
        let storage = self.storage_mut();
        for (dst, &vval) in storage[vb..vb + h].iter_mut().zip(v) {
            *dst = Bf16::from_f32(vval).to_bits();
        }
        for (j, &kval) in k.iter().enumerate() {
            storage[kt + j * block_size + slot] = Bf16::from_f32(kval).to_bits();
        }
        Ok(())
    }

    /// The K vector at `(seq, layer, pos)`, widened to f32 and gathered
    /// from its block's transposed key panel into an owned row (keys are
    /// stored only dim-major; attention reads the panel in place).
    ///
    /// # Panics
    ///
    /// Panics on unknown sequence or out-of-range position — attention
    /// must never read unwritten cache.
    #[must_use]
    pub fn key(&self, seq: SeqId, layer: usize, pos: usize) -> Vec<f32> {
        self.layer_view(seq, layer)
            .key_dims(pos, 0..self.hidden)
            .collect()
    }

    /// The V vector at `(seq, layer, pos)`, widened to f32.
    ///
    /// # Panics
    ///
    /// Panics on unknown sequence or out-of-range position.
    #[must_use]
    pub fn value(&self, seq: SeqId, layer: usize, pos: usize) -> Vec<f32> {
        self.layer_view(seq, layer)
            .value_dims(pos, 0..self.hidden)
            .collect()
    }

    /// A read view of one `(seq, layer)` pair that resolves the block
    /// table once; the attention inner loop then indexes positions with
    /// plain arithmetic instead of a hash lookup per position.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is not registered.
    #[must_use]
    pub fn layer_view(&self, seq: SeqId, layer: usize) -> KvLayerView<'_> {
        assert!(layer < self.layers, "layer {layer} of {}", self.layers);
        let table = self.tables.get(&seq).expect("sequence registered");
        KvLayerView {
            storage: &self.storage[..],
            blocks: &table.blocks,
            len: table.len,
            block_size: self.block_size,
            hidden: self.hidden,
            block_elems: self.layers * self.layer_stride(),
            layer_base: layer * self.layer_stride(),
        }
    }

    /// Drops one reference from each of a sequence's blocks and removes
    /// the sequence; blocks whose count reaches zero return to the free
    /// list. Blocks still pinned by a prefix cache or another forked
    /// sequence stay allocated.
    ///
    /// # Errors
    ///
    /// [`PagedKvError::UnknownSeq`] when the sequence is not registered.
    pub fn release(&mut self, seq: SeqId) -> Result<(), PagedKvError> {
        let table = self
            .tables
            .remove(&seq)
            .ok_or(PagedKvError::UnknownSeq(seq))?;
        for block in table.blocks {
            self.release_block(block);
        }
        Ok(())
    }

    /// Registers `seq` whose first `shared.len() * block_size` positions
    /// are the already-filled blocks `shared`, bumping each block's
    /// reference count. The forked sequence reads the shared prefix
    /// through its block table exactly as if it had prefilled it; its own
    /// appends start at the first position past the shared blocks, in
    /// fresh blocks (the fork is block-aligned by construction, which is
    /// what keeps shared blocks copy-on-write without any copying).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is already registered or a shared block is free.
    pub fn fork_prefix(&mut self, seq: SeqId, shared: &[usize]) {
        assert!(
            !self.tables.contains_key(&seq),
            "fork_prefix: seq {seq} already registered"
        );
        for &block in shared {
            assert!(
                self.ref_counts[block] > 0,
                "fork_prefix: block {block} is not live"
            );
            self.ref_counts[block] += 1;
        }
        self.tables.insert(
            seq,
            Table {
                blocks: shared.to_vec(),
                len: shared.len() * self.block_size,
            },
        );
    }

    /// Adds one reference to `block`, pinning it against release. Used by
    /// the prefix cache to take ownership of blocks it indexes.
    ///
    /// # Panics
    ///
    /// Panics if the block is on the free list (count zero).
    pub fn retain_block(&mut self, block: usize) {
        assert!(
            self.ref_counts[block] > 0,
            "retain_block: block {block} is not live"
        );
        self.ref_counts[block] += 1;
    }

    /// Drops one reference from `block`; at zero the block returns to the
    /// free list.
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero.
    pub fn release_block(&mut self, block: usize) {
        let rc = &mut self.ref_counts[block];
        assert!(*rc > 0, "release_block: block {block} already free");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(block);
        }
    }

    /// The current reference count of `block` (0 = free).
    #[must_use]
    pub fn block_ref_count(&self, block: usize) -> u32 {
        self.ref_counts[block]
    }

    /// The physical block ids backing `seq`, in position order (`None`
    /// if the sequence is unknown). The prefix cache reads this after
    /// prefill to index the prompt's full blocks.
    #[must_use]
    pub fn block_table(&self, seq: SeqId) -> Option<&[usize]> {
        self.tables.get(&seq).map(|t| t.blocks.as_slice())
    }
}

/// Borrowed read access to one sequence's K/V at one layer (see
/// [`PagedKv::layer_view`]).
#[derive(Debug, Clone, Copy)]
pub struct KvLayerView<'a> {
    storage: &'a [u16],
    blocks: &'a [usize],
    len: usize,
    block_size: usize,
    hidden: usize,
    block_elems: usize,
    layer_base: usize,
}

impl<'a> KvLayerView<'a> {
    /// Reassembles a view from staged parts on a pool worker thread —
    /// the same fields [`PagedKv::layer_view`] resolves, but with the
    /// storage borrowed from an `Arc` handle and the block table from a
    /// staged copy.
    pub(crate) fn from_parts(
        storage: &'a [u16],
        blocks: &'a [usize],
        len: usize,
        block_size: usize,
        hidden: usize,
        block_elems: usize,
        layer_base: usize,
    ) -> Self {
        KvLayerView {
            storage,
            blocks,
            len,
            block_size,
            hidden,
            block_elems,
            layer_base,
        }
    }

    /// Tokens stored for the sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence has no tokens yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element offset of the `(block, layer)` region holding `pos`,
    /// and `pos`'s slot within that block. Checked in every build: a
    /// read past the stored length would return whatever the block's
    /// previous owner left there.
    #[inline]
    fn locate(&self, pos: usize) -> (usize, usize) {
        assert!(pos < self.len, "read past KV length {} at {pos}", self.len);
        let block = self.blocks[pos / self.block_size];
        (
            block * self.block_elems + self.layer_base,
            pos % self.block_size,
        )
    }

    /// Dims `dims` of the K vector at `pos`, widened to f32 as they are
    /// read in place down `pos`'s column of its block's transposed key
    /// panel (the token-at-a-time reference tier's score pass).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the stored length or `dims` past `hidden`.
    #[inline]
    pub fn key_dims(&self, pos: usize, dims: Range<usize>) -> impl Iterator<Item = f32> + 'a {
        let (region, slot) = self.locate(pos);
        let bs = self.block_size;
        let panel = &self.storage[region + self.hidden * bs..region + 2 * self.hidden * bs];
        dims.map(move |l| Bf16::from_bits(panel[l * bs + slot]).to_f32())
    }

    /// Dims `dims` of the V vector at `pos`, widened to f32 as they are
    /// read (the reference tier's value pass).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the stored length or `dims` past `hidden`.
    #[inline]
    pub fn value_dims(&self, pos: usize, dims: Range<usize>) -> impl Iterator<Item = f32> + 'a {
        let (region, slot) = self.locate(pos);
        let slot = &self.storage[region + slot * self.hidden..][..self.hidden];
        slot[dims].iter().map(|&b| Bf16::from_bits(b).to_f32())
    }

    /// Positions per block.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The value-slot regions covering positions `0..ctx`, one per block
    /// in order, each paired with its count of valid slots. A region is
    /// the block's `block_size × hidden` position-major V elements, as
    /// [`Bf16`] bits; slot `s`'s V vector starts at `s * hidden`. Hot
    /// loops index slots with plain arithmetic on the region instead of
    /// driving a per-position iterator, widening values as they load them.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is past the stored length.
    pub fn slot_regions(&self, ctx: usize) -> impl Iterator<Item = (&'a [u16], usize)> {
        assert!(ctx <= self.len, "read past KV length {} at {ctx}", self.len);
        let storage = self.storage;
        let region = self.hidden * self.block_size;
        let (bs, bf, lb) = (self.block_size, self.block_elems, self.layer_base);
        self.blocks
            .iter()
            .take(ctx.div_ceil(bs))
            .enumerate()
            .map(move |(bi, &b)| {
                let base = b * bf + lb;
                (&storage[base..base + region], (ctx - bi * bs).min(bs))
            })
    }

    /// The dim-major transposed key panels covering positions `0..ctx`,
    /// one per block in order, as [`Bf16`] bits: dim `l`'s row spans the
    /// panel's `[l * block_size, (l + 1) * block_size)` — that dim's key
    /// value at each of the block's positions, contiguous in the position
    /// index (attention's score pass vectorizes over it). The last panel
    /// may extend past `ctx`; its trailing columns are unwritten garbage
    /// the caller must ignore.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is past the stored length.
    pub fn key_panels(&self, ctx: usize) -> impl Iterator<Item = &'a [u16]> {
        assert!(ctx <= self.len, "read past KV length {} at {ctx}", self.len);
        let storage = self.storage;
        let panel = self.hidden * self.block_size;
        let (bf, lb) = (self.block_elems, self.layer_base);
        self.blocks
            .iter()
            .take(ctx.div_ceil(self.block_size))
            .map(move |&b| {
                let base = b * bf + lb + panel;
                &storage[base..base + panel]
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv() -> PagedKv {
        PagedKv::new(2, 4, 4, 8)
    }

    #[test]
    fn roundtrip_single_token() {
        let mut kv = kv();
        kv.register(1);
        let k = [1.0, 2.0, 3.0, 4.0];
        let v = [5.0, 6.0, 7.0, 8.0];
        kv.append(1, 0, 0, &k, &v).unwrap();
        kv.append(1, 1, 0, &[9.0; 4], &[10.0; 4]).unwrap();
        assert_eq!(kv.key(1, 0, 0), &k);
        assert_eq!(kv.value(1, 0, 0), &v);
        assert_eq!(kv.key(1, 1, 0), &[9.0; 4]);
        assert_eq!(kv.seq_len(1), 1);
    }

    #[test]
    fn blocks_allocated_on_boundaries() {
        let mut kv = kv(); // Block size 4, 8 blocks.
        kv.register(1);
        for pos in 0..4 {
            kv.append(1, 0, pos, &[pos as f32; 4], &[0.0; 4]).unwrap();
        }
        assert_eq!(kv.free_blocks(), 7);
        kv.append(1, 0, 4, &[4.0; 4], &[0.0; 4]).unwrap();
        assert_eq!(kv.free_blocks(), 6);
        // Values readable across the block boundary.
        assert_eq!(kv.key(1, 0, 3), &[3.0; 4]);
        assert_eq!(kv.key(1, 0, 4), &[4.0; 4]);
    }

    #[test]
    fn release_returns_blocks() {
        let mut kv = kv();
        kv.register(1);
        for pos in 0..8 {
            kv.append(1, 0, pos, &[0.0; 4], &[0.0; 4]).unwrap();
        }
        assert_eq!(kv.free_blocks(), 6);
        kv.release(1).unwrap();
        assert_eq!(kv.free_blocks(), 8);
        assert_eq!(kv.release(1), Err(PagedKvError::UnknownSeq(1)));
    }

    #[test]
    fn exhaustion_reported() {
        let mut kv = PagedKv::new(1, 4, 2, 1);
        kv.register(1);
        kv.append(1, 0, 0, &[0.0; 4], &[0.0; 4]).unwrap();
        kv.append(1, 0, 1, &[0.0; 4], &[0.0; 4]).unwrap();
        assert_eq!(
            kv.append(1, 0, 2, &[0.0; 4], &[0.0; 4]),
            Err(PagedKvError::OutOfBlocks)
        );
    }

    #[test]
    fn out_of_order_write_rejected() {
        let mut kv = kv();
        kv.register(1);
        assert!(matches!(
            kv.append(1, 0, 3, &[0.0; 4], &[0.0; 4]),
            Err(PagedKvError::NonContiguousWrite { .. })
        ));
    }

    #[test]
    fn interleaved_sequences_stay_separate() {
        let mut kv = kv();
        kv.register(1);
        kv.register(2);
        kv.append(1, 0, 0, &[1.0; 4], &[1.5; 4]).unwrap();
        kv.append(2, 0, 0, &[2.0; 4], &[2.5; 4]).unwrap();
        kv.append(1, 0, 1, &[3.0; 4], &[3.5; 4]).unwrap();
        assert_eq!(kv.key(1, 0, 0), &[1.0; 4]);
        assert_eq!(kv.key(2, 0, 0), &[2.0; 4]);
        assert_eq!(kv.value(1, 0, 1), &[3.5; 4]);
    }

    /// Stored bf16 bits, widened.
    fn widen(bits: &[u16]) -> Vec<f32> {
        bits.iter().map(|&b| Bf16::from_bits(b).to_f32()).collect()
    }

    #[test]
    fn layer_view_matches_point_reads() {
        let mut kv = kv();
        kv.register(3);
        // Distinct values per (layer, pos, dim, K/V), each exact in bf16:
        // keys count up from 0, values down from -1.
        let row = |base: usize| -> Vec<f32> { (0..4).map(|d| (base + d) as f32).collect() };
        let neg = |base: usize| -> Vec<f32> { row(base).iter().map(|k| -1.0 - k).collect() };
        for pos in 0..6 {
            kv.append(3, 0, pos, &row(pos * 10), &neg(pos * 10))
                .unwrap();
            kv.append(3, 1, pos, &row(100 + pos * 10), &neg(100 + pos * 10))
                .unwrap();
        }
        for layer in 0..2 {
            let view = kv.layer_view(3, layer);
            assert_eq!(view.len(), 6);
            assert!(!view.is_empty());
            for pos in 0..6 {
                let key: Vec<f32> = view.key_dims(pos, 0..4).collect();
                assert_eq!(key, row(layer * 100 + pos * 10));
                assert_eq!(key, kv.key(3, layer, pos));
                let mid: Vec<f32> = view.key_dims(pos, 1..3).collect();
                assert_eq!(mid, key[1..3]);
                let value: Vec<f32> = view.value_dims(pos, 0..4).collect();
                assert_eq!(value, neg(layer * 100 + pos * 10));
                assert_eq!(value, kv.value(3, layer, pos));
                let mid: Vec<f32> = view.value_dims(pos, 1..3).collect();
                assert_eq!(mid, value[1..3]);
            }
            // The value-slot regions agree with point reads at every
            // prefix length (block_size is 4, so ctx 5..6 spans a block
            // boundary).
            for ctx in 0..=6 {
                let mut pos = 0;
                for (region, take) in view.slot_regions(ctx) {
                    assert_eq!(region.len(), 4 * 4);
                    for s in 0..take {
                        assert_eq!(widen(&region[s * 4..(s + 1) * 4]), kv.value(3, layer, pos));
                        pos += 1;
                    }
                }
                assert_eq!(pos, ctx);
            }
        }
    }

    #[test]
    fn append_rounds_each_element_to_bf16_once() {
        let mut kv = kv();
        kv.register(1);
        let k = [0.1f32, -1.0 / 3.0, 1.0 + f32::EPSILON, 1e-20];
        let v = [std::f32::consts::PI, -2.5e7, 0.0, -0.0];
        kv.append(1, 0, 0, &k, &v).unwrap();
        let rounded =
            |xs: &[f32]| -> Vec<f32> { xs.iter().map(|&x| Bf16::from_f32(x).to_f32()).collect() };
        assert_eq!(kv.key(1, 0, 0), rounded(&k));
        assert_eq!(kv.value(1, 0, 0), rounded(&v));
        assert_ne!(
            kv.key(1, 0, 0),
            k,
            "values that need more than bf16 are rounded"
        );
        assert!(
            kv.value(1, 0, 0)[3].is_sign_negative(),
            "-0.0 keeps its sign"
        );
    }

    #[test]
    fn key_panels_transpose_appended_keys() {
        let mut kv = kv(); // 2 layers, hidden 4, block size 4.
        kv.register(3);
        let key = |layer: usize, pos: usize| -> Vec<f32> {
            (0..4)
                .map(|d| (layer * 100 + pos * 10 + d) as f32)
                .collect()
        };
        for pos in 0..6 {
            kv.append(3, 0, pos, &key(0, pos), &[0.0; 4]).unwrap();
            kv.append(3, 1, pos, &key(1, pos), &[1.0; 4]).unwrap();
        }
        for layer in 0..2 {
            let view = kv.layer_view(3, layer);
            for ctx in 1..=6 {
                let panels: Vec<&[u16]> = view.key_panels(ctx).collect();
                assert_eq!(panels.len(), ctx.div_ceil(4));
                for pos in 0..ctx {
                    let (pan, slot) = (widen(panels[pos / 4]), pos % 4);
                    for (d, &k) in key(layer, pos).iter().enumerate() {
                        assert_eq!(pan[d * 4 + slot], k, "layer {layer} pos {pos} dim {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn stores_two_hidden_bf16_per_position_per_layer() {
        // Each key and value is stored once, two bytes each: V slots plus
        // the key panel.
        let kv = kv(); // 2 layers, hidden 4, block size 4, 8 blocks.
        assert_eq!(kv.storage.len(), 8 * 4 * 2 * (2 * 4));
        assert_eq!(kv.bytes_per_token(), 2 * (2 * 4) * 2);
    }

    /// One position written into a 4-slot block: slots 1..4 of the block
    /// are allocated but past the stored length.
    fn one_position() -> PagedKv {
        let mut kv = kv();
        kv.register(1);
        kv.append(1, 0, 0, &[1.0; 4], &[2.0; 4]).unwrap();
        kv
    }

    #[test]
    #[should_panic(expected = "read past KV length")]
    fn value_read_past_length_panics() {
        let kv = one_position();
        let _ = kv.layer_view(1, 0).value_dims(1, 0..4);
    }

    #[test]
    #[should_panic(expected = "read past KV length")]
    fn key_read_past_length_panics() {
        let kv = one_position();
        let _ = kv.layer_view(1, 0).key_dims(1, 0..4);
    }

    #[test]
    #[should_panic(expected = "read past KV length")]
    fn slot_regions_past_length_panic() {
        let kv = one_position();
        let _ = kv.layer_view(1, 0).slot_regions(2);
    }

    #[test]
    #[should_panic(expected = "read past KV length")]
    fn key_panels_past_length_panic() {
        let kv = one_position();
        let _ = kv.layer_view(1, 0).key_panels(2);
    }

    #[test]
    fn append_refuses_rows_of_the_wrong_width() {
        // Checked in every build and before the table is touched: a short
        // row stored in part would leave a recycled block's stale dims
        // where attention reads them.
        let mut kv = one_position(); // Hidden 4, one position stored.
        for (k, v, got) in [
            (&[0.0; 3][..], &[0.0; 4][..], 3),
            (&[0.0; 4][..], &[0.0; 2][..], 2),
            (&[0.0; 5][..], &[0.0; 5][..], 5),
        ] {
            for layer in 0..2 {
                assert_eq!(
                    kv.append(1, layer, 1, k, v),
                    Err(PagedKvError::WidthMismatch { expected: 4, got })
                );
            }
        }
        assert_eq!(kv.seq_len(1), 1);
        assert_eq!(kv.free_blocks(), 7);
        assert_eq!(kv.value(1, 0, 0), &[2.0; 4]);
    }

    #[test]
    fn fork_prefix_shares_blocks_and_reads_back() {
        let mut kv = kv(); // 2 layers, hidden 4, block size 4, 8 blocks.
        kv.register(1);
        for pos in 0..8 {
            for layer in 0..2 {
                kv.append(1, layer, pos, &[pos as f32; 4], &[layer as f32; 4])
                    .unwrap();
            }
        }
        let shared: Vec<usize> = kv.block_table(1).unwrap().to_vec();
        assert_eq!(shared.len(), 2);
        kv.fork_prefix(2, &shared);
        assert_eq!(kv.seq_len(2), 8);
        assert_eq!(kv.free_blocks(), 6); // No new blocks consumed.
        for pos in 0..8 {
            assert_eq!(kv.key(2, 0, pos), kv.key(1, 0, pos));
            assert_eq!(kv.value(2, 1, pos), kv.value(1, 1, pos));
        }
        // The fork appends into a fresh block, not the shared ones.
        kv.append(2, 0, 8, &[99.0; 4], &[0.0; 4]).unwrap();
        assert_eq!(kv.free_blocks(), 5);
        assert_eq!(kv.key(2, 0, 8), &[99.0; 4]);
        assert_eq!(kv.key(1, 0, 7), &[7.0; 4]); // Parent untouched.
    }

    #[test]
    fn release_respects_shared_refcounts() {
        let mut kv = kv();
        kv.register(1);
        for pos in 0..4 {
            kv.append(1, 0, pos, &[1.0; 4], &[1.0; 4]).unwrap();
        }
        let shared: Vec<usize> = kv.block_table(1).unwrap().to_vec();
        kv.fork_prefix(2, &shared);
        kv.release(1).unwrap();
        // Block still held by seq 2.
        assert_eq!(kv.free_blocks(), 7);
        assert_eq!(kv.key(2, 0, 3), &[1.0; 4]);
        kv.release(2).unwrap();
        assert_eq!(kv.free_blocks(), 8);
    }

    #[test]
    fn retain_block_pins_against_release() {
        let mut kv = kv();
        kv.register(1);
        for pos in 0..4 {
            kv.append(1, 0, pos, &[2.0; 4], &[2.0; 4]).unwrap();
        }
        let block = kv.block_table(1).unwrap()[0];
        kv.retain_block(block);
        assert_eq!(kv.block_ref_count(block), 2);
        kv.release(1).unwrap();
        assert_eq!(kv.free_blocks(), 7); // Pinned by the extra reference.
        kv.release_block(block);
        assert_eq!(kv.free_blocks(), 8);
        assert_eq!(kv.block_ref_count(block), 0);
    }

    #[test]
    fn unknown_sequence_append_fails() {
        let mut kv = kv();
        assert_eq!(
            kv.append(9, 0, 0, &[0.0; 4], &[0.0; 4]),
            Err(PagedKvError::UnknownSeq(9))
        );
    }
}
