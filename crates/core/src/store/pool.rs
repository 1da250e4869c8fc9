//! A pinned buffer pool for page-granular snapshot access.
//!
//! [`crate::backend::SnapshotBackend`] reads DXTS **v2** snapshots
//! through this pool instead of slurping the file into RAM: the v2
//! format (see [`crate::backend::paged`]) splits every store column
//! into fixed-size pages, and the pool keeps at most
//! `budget / page_size` of them resident at once. The design is the
//! classic database buffer manager:
//!
//! * pages are addressed by [`BlockId`] and faulted in from a
//!   [`PageSource`] on first touch;
//! * a successful [`BufferPool::pin`] hands back a [`PageRef`] — the
//!   page cannot be evicted while any `PageRef` to it is live, and the
//!   ref must be returned through [`BufferPool::unpin`];
//! * when every frame is occupied, an unpinned victim is chosen by the
//!   pluggable [`Replacer`] policy ([`LruReplacer`] by default) and its
//!   frame is recycled — after writing the page back through the source
//!   if it was dirtied via [`BufferPool::data_mut`];
//! * [`PoolStats`] counts hits/misses/evictions and tracks the peak
//!   resident byte count, which the scaling bench gate
//!   (`benches/paged.rs`) asserts never exceeds the configured budget.
//!
//! Frames are allocated lazily, so a large budget over a small file
//! costs only what the file needs. A budget smaller than one page is
//! rejected up front — a pool that cannot hold a single page cannot
//! serve any read.

use crate::error::DogmatixError;
use std::collections::HashMap;
use std::fmt;

fn pool_err(message: impl Into<String>) -> DogmatixError {
    DogmatixError::Snapshot {
        message: message.into(),
    }
}

/// Identifies one fixed-size page of a paged snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {}", self.0)
    }
}

/// Where the pool faults pages in from (and writes dirty pages back to).
///
/// Implementations verify their own integrity on read — the v2 snapshot
/// source checks the per-page checksum from the file header before
/// handing a page to the pool, so a byte flip anywhere in the data
/// region surfaces as a [`DogmatixError::Snapshot`] at fault-in time.
pub trait PageSource: fmt::Debug + Send {
    /// The fixed page size, in bytes. Every page, including the last
    /// one of a section, occupies exactly this many bytes on disk.
    fn page_size(&self) -> usize;

    /// Total number of pages the source holds; valid blocks are
    /// `0..page_count`.
    fn page_count(&self) -> u32;

    /// Reads page `block` into `buf` (`buf.len() == page_size()`),
    /// verifying integrity.
    fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError>;

    /// Writes page `block` back from `buf`. Sources backing immutable
    /// snapshots are read-only and keep this default, which refuses the
    /// write; the pool only calls it for pages dirtied through
    /// [`BufferPool::data_mut`].
    fn write_page(&mut self, block: BlockId, _buf: &[u8]) -> Result<(), DogmatixError> {
        Err(pool_err(format!(
            "page source is read-only: cannot write back dirty {block}"
        )))
    }
}

/// Eviction policy over frame indices: decides which unpinned frame is
/// recycled when the pool is full.
///
/// The pool drives the protocol: [`Replacer::resize`] once at
/// construction, [`Replacer::set_evictable`]`(f, false)` whenever frame
/// `f` gains its first pin, `(f, true)` when its last pin is released,
/// [`Replacer::record_access`] on every pin, and [`Replacer::victim`]
/// when a frame must be recycled. A frame marked non-evictable must
/// never be returned as a victim.
pub trait Replacer: fmt::Debug + Send {
    /// Declares the frame-index universe `0..frames`.
    fn resize(&mut self, frames: usize);
    /// Notes that `frame` was touched (pin or re-pin).
    fn record_access(&mut self, frame: usize);
    /// Marks `frame` as a legal (`true`) or illegal (`false`) victim.
    fn set_evictable(&mut self, frame: usize, evictable: bool);
    /// Picks the frame to recycle, or `None` if every frame is pinned.
    fn victim(&mut self) -> Option<usize>;
}

/// Strict least-recently-used eviction: the victim is the evictable
/// frame with the oldest access stamp.
#[derive(Debug, Default)]
pub struct LruReplacer {
    stamps: Vec<u64>,
    evictable: Vec<bool>,
    clock: u64,
}

impl LruReplacer {
    /// An empty replacer; the pool sizes it via [`Replacer::resize`].
    pub fn new() -> LruReplacer {
        LruReplacer::default()
    }
}

impl Replacer for LruReplacer {
    fn resize(&mut self, frames: usize) {
        self.stamps.resize(frames, 0);
        self.evictable.resize(frames, false);
    }

    fn record_access(&mut self, frame: usize) {
        if let Some(s) = self.stamps.get_mut(frame) {
            self.clock += 1;
            *s = self.clock;
        }
    }

    fn set_evictable(&mut self, frame: usize, evictable: bool) {
        if let Some(e) = self.evictable.get_mut(frame) {
            *e = evictable;
        }
    }

    fn victim(&mut self) -> Option<usize> {
        let victim = self
            .stamps
            .iter()
            .enumerate()
            .filter(|&(f, _)| self.evictable.get(f).copied().unwrap_or(false))
            .min_by_key(|&(_, &stamp)| stamp)
            .map(|(f, _)| f)?;
        self.evictable[victim] = false;
        Some(victim)
    }
}

/// Counters the pool maintains; snapshot via [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from an already-resident frame.
    pub hits: u64,
    /// Pins that faulted the page in from the source.
    pub misses: u64,
    /// Frames recycled to make room for a faulting page.
    pub evictions: u64,
    /// Dirty pages written back through the source.
    pub writebacks: u64,
    /// Total [`BufferPool::pin`] calls that succeeded.
    pub pins: u64,
    /// Total [`BufferPool::unpin`] calls.
    pub unpins: u64,
    /// Bytes currently held in allocated frames.
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` — the number the scaling
    /// bench holds under the configured memory budget.
    pub peak_resident_bytes: usize,
}

/// A live pin on one page. Obtained from [`BufferPool::pin`], consumed
/// by [`BufferPool::unpin`]; while any `PageRef` to a page exists, the
/// page cannot be evicted. Deliberately neither `Copy` nor `Clone`, so
/// pins and unpins balance by construction.
#[derive(Debug)]
#[must_use = "a pinned page must be returned via BufferPool::unpin"]
pub struct PageRef {
    frame: usize,
    block: BlockId,
}

impl PageRef {
    /// The page this pin holds.
    pub fn block(&self) -> BlockId {
        self.block
    }
}

#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    block: BlockId,
    pin_count: u32,
    dirty: bool,
}

/// A budget-bounded pool of page frames over a [`PageSource`]. See the
/// [module docs](self) for the pin/unpin/eviction protocol.
#[derive(Debug)]
pub struct BufferPool {
    source: Box<dyn PageSource>,
    replacer: Box<dyn Replacer>,
    frames: Vec<Frame>,
    /// block id → frame index, for every resident page.
    table: HashMap<u32, usize>,
    capacity: usize,
    page_size: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool over `source` holding at most `budget_bytes` of page
    /// frames, with [`LruReplacer`] eviction. Fails if the budget does
    /// not admit even one page.
    pub fn new(
        source: Box<dyn PageSource>,
        budget_bytes: usize,
    ) -> Result<BufferPool, DogmatixError> {
        BufferPool::with_replacer(source, budget_bytes, Box::new(LruReplacer::new()))
    }

    /// [`BufferPool::new`] with an explicit eviction policy.
    pub fn with_replacer(
        source: Box<dyn PageSource>,
        budget_bytes: usize,
        mut replacer: Box<dyn Replacer>,
    ) -> Result<BufferPool, DogmatixError> {
        let page_size = source.page_size();
        if page_size == 0 {
            return Err(pool_err("page source reports a zero page size"));
        }
        if budget_bytes / page_size == 0 {
            return Err(pool_err(format!(
                "memory budget of {budget_bytes} B does not admit a single \
                 {page_size} B page — raise the budget"
            )));
        }
        // More frames than the source has pages would never be filled;
        // capping here also keeps replacer bookkeeping proportional to
        // the file, so an effectively unbounded budget costs nothing.
        let capacity = (budget_bytes / page_size).min(source.page_count().max(1) as usize);
        replacer.resize(capacity);
        Ok(BufferPool {
            source,
            replacer,
            frames: Vec::new(),
            table: HashMap::new(),
            capacity,
            page_size,
            stats: PoolStats::default(),
        })
    }

    /// The fixed page size, in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Maximum number of frames the budget admits.
    pub fn capacity_frames(&self) -> usize {
        self.capacity
    }

    /// Current counters (copied out).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pin count of `block`, or 0 if the page is not resident. Test and
    /// audit hook; detection code holds [`PageRef`]s instead.
    pub fn pin_count(&self, block: BlockId) -> u32 {
        self.table
            .get(&block.0)
            .and_then(|&f| self.frames.get(f))
            .map_or(0, |frame| frame.pin_count)
    }

    /// Number of pages currently resident in frames.
    pub fn resident_pages(&self) -> usize {
        self.table.len()
    }

    /// Pins `block`, faulting it in from the source if needed. Fails if
    /// the block is out of range, the source rejects the read (e.g. a
    /// per-page checksum mismatch), or every frame is pinned.
    pub fn pin(&mut self, block: BlockId) -> Result<PageRef, DogmatixError> {
        if block.0 >= self.source.page_count() {
            return Err(pool_err(format!(
                "{block} out of range: source holds {} pages",
                self.source.page_count()
            )));
        }
        if let Some(&frame_ix) = self.table.get(&block.0) {
            self.stats.hits += 1;
            self.stats.pins += 1;
            let frame = &mut self.frames[frame_ix];
            frame.pin_count += 1;
            if frame.pin_count == 1 {
                self.replacer.set_evictable(frame_ix, false);
            }
            self.replacer.record_access(frame_ix);
            return Ok(PageRef {
                frame: frame_ix,
                block,
            });
        }

        let frame_ix = self.free_frame()?;
        // Fault the page in before publishing it in the table, so a
        // failed read leaves the frame empty rather than half-filled.
        if let Err(e) = self
            .source
            .read_page(block, &mut self.frames[frame_ix].data)
        {
            self.replacer.set_evictable(frame_ix, true);
            return Err(e);
        }
        self.stats.misses += 1;
        self.stats.pins += 1;
        let frame = &mut self.frames[frame_ix];
        frame.block = block;
        frame.pin_count = 1;
        frame.dirty = false;
        self.table.insert(block.0, frame_ix);
        self.replacer.set_evictable(frame_ix, false);
        self.replacer.record_access(frame_ix);
        Ok(PageRef {
            frame: frame_ix,
            block,
        })
    }

    /// Finds a frame for a faulting page: allocate a new one while
    /// under budget, otherwise evict an unpinned victim (writing it
    /// back first if dirty).
    fn free_frame(&mut self) -> Result<usize, DogmatixError> {
        if self.frames.len() < self.capacity {
            let frame_ix = self.frames.len();
            self.frames.push(Frame {
                data: vec![0u8; self.page_size].into_boxed_slice(),
                block: BlockId(u32::MAX),
                pin_count: 0,
                dirty: false,
            });
            self.stats.resident_bytes += self.page_size;
            self.stats.peak_resident_bytes = self
                .stats
                .peak_resident_bytes
                .max(self.stats.resident_bytes);
            return Ok(frame_ix);
        }
        let victim = self.replacer.victim().ok_or_else(|| {
            pool_err(format!(
                "buffer pool exhausted: all {} frames pinned (budget {} B) — \
                 raise --mem-budget or unpin pages",
                self.capacity,
                self.capacity * self.page_size
            ))
        })?;
        let frame = &mut self.frames[victim];
        if frame.pin_count != 0 {
            // A replacer returning a pinned frame is a policy bug;
            // refuse rather than corrupt a live pin.
            return Err(pool_err(format!(
                "eviction policy chose pinned frame {victim} — refusing to evict"
            )));
        }
        if frame.dirty {
            self.source.write_page(frame.block, &frame.data)?;
            self.frames[victim].dirty = false;
            self.stats.writebacks += 1;
        }
        let old_block = self.frames[victim].block;
        self.table.remove(&old_block.0);
        self.stats.evictions += 1;
        Ok(victim)
    }

    /// Read access to a pinned page.
    pub fn data(&self, page: &PageRef) -> &[u8] {
        &self.frames[page.frame].data
    }

    /// Write access to a pinned page; marks it dirty for write-back on
    /// eviction or [`BufferPool::flush`].
    pub fn data_mut(&mut self, page: &PageRef) -> &mut [u8] {
        let frame = &mut self.frames[page.frame];
        frame.dirty = true;
        &mut frame.data
    }

    /// Releases one pin. When the last pin on a page drops, the page
    /// becomes a legal eviction victim (its contents stay resident
    /// until the frame is actually recycled).
    pub fn unpin(&mut self, page: PageRef) {
        self.stats.unpins += 1;
        let frame = &mut self.frames[page.frame];
        frame.pin_count = frame.pin_count.saturating_sub(1);
        if frame.pin_count == 0 {
            self.replacer.set_evictable(page.frame, true);
        }
    }

    /// Writes every dirty resident page back through the source.
    pub fn flush(&mut self) -> Result<(), DogmatixError> {
        for frame in &mut self.frames {
            if frame.dirty {
                self.source.write_page(frame.block, &frame.data)?;
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory source: page i is filled with byte `i as u8`, and
    /// writes are remembered so write-back is observable.
    #[derive(Debug)]
    struct VecSource {
        pages: Vec<Vec<u8>>,
        page_size: usize,
        reads: usize,
        writes: usize,
    }

    impl VecSource {
        fn new(page_count: u32, page_size: usize) -> VecSource {
            VecSource {
                pages: (0..page_count).map(|i| vec![i as u8; page_size]).collect(),
                page_size,
                reads: 0,
                writes: 0,
            }
        }
    }

    impl PageSource for VecSource {
        fn page_size(&self) -> usize {
            self.page_size
        }
        fn page_count(&self) -> u32 {
            self.pages.len() as u32
        }
        fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
            self.reads += 1;
            buf.copy_from_slice(&self.pages[block.0 as usize]);
            Ok(())
        }
        fn write_page(&mut self, block: BlockId, buf: &[u8]) -> Result<(), DogmatixError> {
            self.writes += 1;
            self.pages[block.0 as usize].copy_from_slice(buf);
            Ok(())
        }
    }

    fn pool(pages: u32, frames: usize) -> BufferPool {
        BufferPool::new(Box::new(VecSource::new(pages, 64)), frames * 64).unwrap()
    }

    #[test]
    fn budget_below_one_page_is_rejected() {
        let err = BufferPool::new(Box::new(VecSource::new(4, 64)), 63).unwrap_err();
        assert!(err.to_string().contains("does not admit"), "{err}");
    }

    #[test]
    fn pin_faults_in_and_rereads_are_hits() {
        let mut p = pool(4, 2);
        let a = p.pin(BlockId(3)).unwrap();
        assert_eq!(p.data(&a), &[3u8; 64][..]);
        let b = p.pin(BlockId(3)).unwrap();
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.pin_count(BlockId(3)), 2);
        p.unpin(a);
        p.unpin(b);
        assert_eq!(p.pin_count(BlockId(3)), 0);
    }

    #[test]
    fn out_of_range_block_is_rejected() {
        let mut p = pool(4, 2);
        let err = p.pin(BlockId(4)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn eviction_respects_pins_and_lru_order() {
        let mut p = pool(8, 2);
        let a = p.pin(BlockId(0)).unwrap();
        let b = p.pin(BlockId(1)).unwrap();
        // Full and everything pinned: a third page must fail.
        let err = p.pin(BlockId(2)).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        // Unpin page 0 only — it becomes the (only legal) victim.
        p.unpin(a);
        let c = p.pin(BlockId(2)).unwrap();
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.pin_count(BlockId(0)), 0);
        assert!(!p.table.contains_key(&0), "page 0 must have been evicted");
        assert_eq!(p.data(&b), &[1u8; 64][..]);
        assert_eq!(p.data(&c), &[2u8; 64][..]);
        p.unpin(b);
        p.unpin(c);
        // LRU: 1 is now older than 2, so faulting 3 evicts 1.
        let d = p.pin(BlockId(3)).unwrap();
        assert!(!p.table.contains_key(&1), "LRU victim must be page 1");
        assert!(p.table.contains_key(&2));
        p.unpin(d);
    }

    #[test]
    fn peak_residency_stays_within_budget() {
        let mut p = pool(16, 3);
        for round in 0..4u32 {
            for i in 0..16u32 {
                let r = p.pin(BlockId((i * 7 + round) % 16)).unwrap();
                p.unpin(r);
            }
        }
        let stats = p.stats();
        assert!(stats.peak_resident_bytes <= 3 * 64);
        assert_eq!(stats.resident_bytes, 3 * 64);
        assert_eq!(stats.pins, stats.unpins);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn lazy_allocation_never_exceeds_the_working_set() {
        let mut p = pool(16, 8);
        let a = p.pin(BlockId(5)).unwrap();
        let b = p.pin(BlockId(6)).unwrap();
        p.unpin(a);
        p.unpin(b);
        // Only two distinct pages were touched: two frames allocated.
        assert_eq!(p.stats().resident_bytes, 2 * 64);
        assert_eq!(p.resident_pages(), 2);
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_flush() {
        let mut p = pool(4, 1);
        let a = p.pin(BlockId(0)).unwrap();
        p.data_mut(&a)[0] = 0xAB;
        p.unpin(a);
        // Single frame: faulting page 1 evicts dirty page 0 → write-back.
        let b = p.pin(BlockId(1)).unwrap();
        assert_eq!(p.stats().writebacks, 1);
        p.data_mut(&b)[1] = 0xCD;
        p.unpin(b);
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 2);
        // Re-reading page 0 sees the written-back byte.
        let c = p.pin(BlockId(0)).unwrap();
        assert_eq!(p.data(&c)[0], 0xAB);
        p.unpin(c);
    }

    #[test]
    fn read_only_sources_refuse_write_back() {
        #[derive(Debug)]
        struct ReadOnly;
        impl PageSource for ReadOnly {
            fn page_size(&self) -> usize {
                8
            }
            fn page_count(&self) -> u32 {
                1
            }
            fn read_page(&mut self, _: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
                buf.fill(7);
                Ok(())
            }
        }
        let mut p = BufferPool::new(Box::new(ReadOnly), 8).unwrap();
        let a = p.pin(BlockId(0)).unwrap();
        p.data_mut(&a)[0] = 1;
        p.unpin(a);
        let err = p.flush().unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
    }

    #[test]
    fn failed_reads_leave_the_pool_reusable() {
        #[derive(Debug)]
        struct Flaky {
            fail_next: bool,
        }
        impl PageSource for Flaky {
            fn page_size(&self) -> usize {
                8
            }
            fn page_count(&self) -> u32 {
                2
            }
            fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
                if self.fail_next {
                    self.fail_next = false;
                    return Err(DogmatixError::Snapshot {
                        message: "checksum mismatch".into(),
                    });
                }
                buf.fill(block.0 as u8);
                Ok(())
            }
        }
        let mut p = BufferPool::new(Box::new(Flaky { fail_next: true }), 8).unwrap();
        let err = p.pin(BlockId(0)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The frame the failed read claimed is reusable.
        let a = p.pin(BlockId(1)).unwrap();
        assert_eq!(p.data(&a), &[1u8; 8][..]);
        p.unpin(a);
    }
}
