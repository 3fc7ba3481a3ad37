//! Pluggable storage engines behind the KVS front-end.
//!
//! The seed's KVS hard-wired memcached's static slab classes; this
//! module is the production storage tier grown on top of it, behind
//! one [`StorageEngine`] seam:
//!
//! - [`SlabEngine`] — the original slab/LRU store, now with an
//!   optional **slab rebalancer**: per-class hit/eviction windows
//!   decide, in maintenance passes only, when to reassign a whole 1 MiB
//!   slab from a cold class to a starved ("calcified") one, relocating
//!   the donor slab's live items to sibling slabs first (memcached's
//!   slab automover).
//! - [`SegmentEngine`] — a TTL-centric append-only segment store
//!   (Pelikan Segcache's design): items append into per-TTL-bucket
//!   segments, whole segments whose every item has expired are
//!   reclaimed in O(segment), and memory pressure is relieved by
//!   *merge-based eviction* — compact a bucket's oldest segments,
//!   keeping the most-requested survivors.
//!
//! Both engines keep the paper's §5.1 split: hash-chain/LRU/expiry
//! metadata lives in the clear metadata space; keys, values and their
//! sizes live in the secure data space, every access charged through
//! [`DataSpace`].
//!
//! Engine upkeep has two hooks and no modes. [`StorageEngine::fence`]
//! runs at every sub-batch boundary and only publishes counters.
//! [`StorageEngine::maintenance_tick`] does the byte-work: rebalance
//! moves and window decay, segment expiry sweeps and proactive merges.
//! Where the tick runs is the caller's placement choice, made once in
//! [`Kvs`](crate::kvs::Kvs): inline on the serving thread right after
//! each fence (charged to `maint_stall_cycles`), or on the maintenance
//! plane's core — the Eleos move of taking stall-inducing work off the
//! serving threads. Either way the engine makes the same decisions.

use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::{Stats, MAX_STORAGE_CLASSES};

use crate::param_server::hash64;
use crate::slab::{SlabPool, SLAB_BYTES};
use crate::space::DataSpace;

/// Metadata record size (shared by both engines' index nodes).
pub(crate) const META_BYTES: usize = 48;

// Slab-engine metadata record layout.
const M_NEXT: u64 = 0;
const M_LRU_PREV: u64 = 8;
const M_LRU_NEXT: u64 = 16;
const M_KV_ADDR: u64 = 24;
const M_KV_CLASS: u64 = 32;
const M_EXPIRY: u64 = 36;
const M_VERSION: u64 = 40;

// Segment-engine index node layout (same 48-byte records, no LRU
// links — segment eviction is merge-based, not LRU-based).
const S_NEXT: u64 = 0;
const S_ITEM: u64 = 8;
const S_SEG: u64 = 16;
const S_FREQ: u64 = 20;
const S_EXPIRY: u64 = 24;
const S_FLAGS: u64 = 28;
const S_VERSION: u64 = 32;

// Segment-record roles (`S_FLAGS`): ordinary records, the chained
// pieces of a value too large for one segment, and the head record
// holding the spill descriptor.
const FLAG_PLAIN: u32 = 0;
const FLAG_PART: u32 = 1;
const FLAG_HEAD: u32 = 2;

/// Sanity marker in a spill head's 16-byte descriptor ("SPLL").
const SPILL_MAGIC: u32 = 0x5350_4C4C;

/// Free segments the maintenance tick tries to keep on hand so the
/// serving-path allocator almost never reclaims inline.
const SEG_FREE_RESERVE: usize = 2;

/// The derived key of spill part `i` of `key`: a reserved `0xFF`
/// prefix keeps part keys out of the client namespace.
fn spill_part_key(key: &[u8], i: u32) -> Vec<u8> {
    let mut pk = Vec::with_capacity(key.len() + 5);
    pk.push(0xFF);
    pk.extend_from_slice(key);
    pk.extend_from_slice(&i.to_le_bytes());
    pk
}

/// Null metadata pointer.
pub(crate) const NIL: u64 = 0;

/// Simulated wall-clock seconds on the calling core.
pub(crate) fn now_secs(ctx: &ThreadCtx) -> u32 {
    (ctx.now() as f64 / eleos_sim::costs::CPU_HZ) as u32
}

/// Fixed-size allocator for metadata records in the (clear) metadata
/// space.
pub(crate) struct MetaPool {
    space: DataSpace,
    free: Vec<u64>,
    block: usize,
}

impl MetaPool {
    pub(crate) fn new(space: DataSpace) -> Self {
        Self {
            space,
            free: Vec::new(),
            block: 64 << 10,
        }
    }

    pub(crate) fn alloc(&mut self) -> u64 {
        if let Some(a) = self.free.pop() {
            return a;
        }
        let base = self.space.alloc(self.block);
        let n = self.block / META_BYTES;
        for i in (1..n).rev() {
            self.free.push(base + (i * META_BYTES) as u64);
        }
        // Never hand out address 0 as a record (0 is the NIL marker);
        // the first record of the first block is skipped if it would
        // be 0.
        let first = base;
        if first == NIL {
            return self.free.pop().expect("block has >1 record");
        }
        first
    }

    pub(crate) fn free(&mut self, addr: u64) {
        self.free.push(addr);
    }
}

/// Which storage engine a server runs, with its tuning.
#[derive(Debug, Clone)]
pub enum EngineConfig {
    /// The memcached slab/LRU engine; `rebalance: None` is bit- and
    /// cycle-identical to the seed's store.
    Slab {
        /// Slab rebalancer tuning; `None` disables it entirely.
        rebalance: Option<RebalanceConfig>,
    },
    /// The TTL-bucketed append-only segment engine.
    Segment(SegmentConfig),
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::Slab { rebalance: None }
    }
}

impl EngineConfig {
    /// Short label used in experiment headers and JSON output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EngineConfig::Slab { rebalance: None } => "slab",
            EngineConfig::Slab { rebalance: Some(_) } => "slab-rebal",
            EngineConfig::Segment(_) => "segment",
        }
    }
}

/// Slab rebalancer tuning.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// A class is *starved* when its free chunks drop below
    /// `chunks_per_slab / starve_frac` (minimum 1).
    pub starve_frac: usize,
    /// Upper bound on whole-slab moves per maintenance pass.
    pub max_moves_per_fence: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            starve_frac: 8,
            max_moves_per_fence: 1,
        }
    }
}

/// Segment-store tuning.
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Bytes per append-only segment.
    pub segment_bytes: usize,
    /// Upper TTL bound (seconds) of each TTL bucket; one extra bucket
    /// catches longer-lived and never-expiring items. Must be
    /// ascending.
    pub ttl_bounds: Vec<u32>,
    /// Sealed segments compacted per merge pass (survivors are ranked
    /// by request frequency and repacked into one segment fewer).
    pub merge_segments: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 128 << 10,
            ttl_bounds: vec![16, 256, 4096],
            merge_segments: 4,
        }
    }
}

/// One storage engine behind the KVS front-end.
///
/// The item callback `StorageEngine::for_each` feeds:
/// `(key, value, version, expiry)`.
pub type ItemVisitor<'a> = dyn FnMut(&[u8], &[u8], u64, u32) + 'a;

/// `expiry` is an absolute deadline in simulated seconds (0 = never);
/// `version` is the caller's write stamp (the fleet tier's fence-epoch
/// interval) used for last-writer-wins restore merges.
pub trait StorageEngine: Send {
    /// Short label for stats and experiment output.
    fn label(&self) -> &'static str;

    /// One-time index initialization (zeroes the bucket heads).
    fn init(&self, ctx: &mut ThreadCtx);

    /// Inserts or replaces `key`. Returns whether it stored: an engine
    /// may refuse a SET it can never find room for, leaving the store
    /// untouched.
    fn set(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool;

    /// Looks `key` up. Expired items are lazily deleted and read as
    /// misses.
    fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>>;

    /// Deletes `key`; returns whether it existed.
    fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool;

    /// The write stamp of `key`'s current copy, if indexed (expiry is
    /// *not* checked — restore merges compare stamps even on items
    /// about to lapse).
    fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64>;

    /// Number of indexed items.
    fn len(&self) -> u64;

    /// Whether no items are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted under memory pressure so far.
    fn evictions(&self) -> u64;

    /// Items dropped because their TTL deadline passed.
    fn expired(&self) -> u64;

    /// Bytes of secure pool acquired from the data space.
    fn pool_bytes(&self) -> u64;

    /// Sub-batch fence hook: publishes the engine's gauges. Never
    /// called mid-batch, and never does byte-work.
    fn fence(&mut self, ctx: &mut ThreadCtx);

    /// Visits every live, unexpired item (index order) with
    /// `(key, value, version, expiry)`.
    fn for_each(&self, ctx: &mut ThreadCtx, f: &mut ItemVisitor);

    /// Engine-specific metadata for the snapshot's `storage-meta`
    /// section (layout parameters a restore-side can sanity-check).
    fn meta_blob(&self) -> Vec<u8>;

    /// One maintenance pass: the engine's byte-work (rebalance moves,
    /// expiry sweeps, merges), on whatever core `ctx` is placed.
    /// Returns whether any work ran.
    fn maintenance_tick(&mut self, _ctx: &mut ThreadCtx) -> bool {
        false
    }
}

/// Builds the configured engine over the given spaces.
#[must_use]
pub fn build_engine(
    cfg: &EngineConfig,
    meta_space: DataSpace,
    data_space: DataSpace,
    mem_limit: u64,
    buckets: u64,
) -> Box<dyn StorageEngine> {
    match cfg {
        EngineConfig::Slab { rebalance } => Box::new(SlabEngine::new(
            meta_space,
            data_space,
            mem_limit,
            buckets,
            rebalance.clone(),
        )),
        EngineConfig::Segment(seg) => Box::new(SegmentEngine::new(
            meta_space,
            data_space,
            mem_limit,
            buckets,
            seg.clone(),
        )),
    }
}

// ====================================================================
// Slab engine
// ====================================================================

/// Per-class feedback window (host-side bookkeeping only — reading it
/// costs no simulated cycles).
#[derive(Debug, Default, Clone, Copy)]
struct ClassWindow {
    sets: u64,
    hits: u64,
    evictions: u64,
}

/// The memcached slab/LRU engine (the seed's store) with an optional
/// fence-time slab rebalancer.
pub struct SlabEngine {
    meta: MetaPool,
    meta_space: DataSpace,
    slab: SlabPool,
    buckets: u64,
    heads: u64,
    lru_head: u64,
    lru_tail: u64,
    items: u64,
    evictions: u64,
    expired: u64,
    rebalance: Option<RebalanceConfig>,
    /// Decaying per-class demand windows (only maintained when the
    /// rebalancer is on).
    window: Vec<ClassWindow>,
    /// Cumulative per-class totals, published as gauges at fences.
    totals: Vec<ClassWindow>,
}

impl SlabEngine {
    fn new(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        rebalance: Option<RebalanceConfig>,
    ) -> Self {
        let buckets = buckets.next_power_of_two();
        let heads = meta_space.alloc((buckets * 8) as usize);
        let slab = SlabPool::new(data_space, mem_limit);
        let n = slab.class_count();
        Self {
            meta: MetaPool::new(meta_space.clone()),
            meta_space,
            slab,
            buckets,
            heads,
            lru_head: NIL,
            lru_tail: NIL,
            items: 0,
            evictions: 0,
            expired: 0,
            rebalance,
            window: vec![ClassWindow::default(); n],
            totals: vec![ClassWindow::default(); n],
        }
    }

    fn bucket_addr(&self, key: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        self.heads + (hash64(h) & (self.buckets - 1)) * 8
    }

    fn key_matches(&self, ctx: &mut ThreadCtx, kv_addr: u64, key: &[u8]) -> bool {
        let klen = self.slab.space().read_u32(ctx, kv_addr) as usize;
        if klen != key.len() {
            return false;
        }
        let mut stored = vec![0u8; klen];
        self.slab.space().read(ctx, kv_addr + 8, &mut stored);
        stored == key
    }

    fn find(&self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<(u64, u64)> {
        let bucket = self.bucket_addr(key);
        let mut prev = NIL;
        let mut node = self.meta_space.read_u64(ctx, bucket);
        while node != NIL {
            let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
            if self.key_matches(ctx, kv, key) {
                return Some((node, prev));
            }
            prev = node;
            node = self.meta_space.read_u64(ctx, node + M_NEXT);
        }
        None
    }

    fn lru_unlink(&mut self, ctx: &mut ThreadCtx, node: u64) {
        let prev = self.meta_space.read_u64(ctx, node + M_LRU_PREV);
        let next = self.meta_space.read_u64(ctx, node + M_LRU_NEXT);
        if prev != NIL {
            self.meta_space.write_u64(ctx, prev + M_LRU_NEXT, next);
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.meta_space.write_u64(ctx, next + M_LRU_PREV, prev);
        } else {
            self.lru_tail = prev;
        }
    }

    fn lru_push_front(&mut self, ctx: &mut ThreadCtx, node: u64) {
        self.meta_space.write_u64(ctx, node + M_LRU_PREV, NIL);
        self.meta_space
            .write_u64(ctx, node + M_LRU_NEXT, self.lru_head);
        if self.lru_head != NIL {
            self.meta_space
                .write_u64(ctx, self.lru_head + M_LRU_PREV, node);
        }
        self.lru_head = node;
        if self.lru_tail == NIL {
            self.lru_tail = node;
        }
    }

    fn chain_unlink(&mut self, ctx: &mut ThreadCtx, key: &[u8], node: u64, prev: u64) {
        let next = self.meta_space.read_u64(ctx, node + M_NEXT);
        if prev == NIL {
            self.meta_space.write_u64(ctx, self.bucket_addr(key), next);
        } else {
            self.meta_space.write_u64(ctx, prev + M_NEXT, next);
        }
    }

    /// Removes the LRU tail item to reclaim a chunk.
    fn evict_one(&mut self, ctx: &mut ThreadCtx) -> bool {
        let victim = self.lru_tail;
        if victim == NIL {
            return false;
        }
        let kv = self.meta_space.read_u64(ctx, victim + M_KV_ADDR);
        let class = self.meta_space.read_u32(ctx, victim + M_KV_CLASS) as usize;
        // Need the key to unlink from its chain.
        let klen = self.slab.space().read_u32(ctx, kv) as usize;
        let mut key = vec![0u8; klen];
        self.slab.space().read(ctx, kv + 8, &mut key);
        let (node, prev) = self.find(ctx, &key).expect("LRU item must be chained");
        debug_assert_eq!(node, victim);
        self.chain_unlink(ctx, &key, node, prev);
        self.lru_unlink(ctx, victim);
        self.slab.free(class, kv);
        self.meta.free(victim);
        self.items -= 1;
        self.evictions += 1;
        if self.rebalance.is_some() {
            self.window[class].evictions += 1;
            self.totals[class].evictions += 1;
        }
        true
    }

    fn write_record(&mut self, ctx: &mut ThreadCtx, kv: u64, key: &[u8], value: &[u8]) {
        let mut rec = Vec::with_capacity(8 + key.len() + value.len());
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        rec.extend_from_slice(value);
        self.slab.space().write(ctx, kv, &rec);
    }

    /// Host-side accounting of a set/hit against the class serving
    /// `record_len` (no simulated reads — `class_of` is pure).
    fn note(&mut self, record_len: usize, hit: bool) {
        if self.rebalance.is_none() {
            return;
        }
        if let Some(c) = self.slab.class_of(record_len) {
            if hit {
                self.window[c].hits += 1;
                self.totals[c].hits += 1;
            } else {
                self.window[c].sets += 1;
                self.totals[c].sets += 1;
            }
        }
    }

    // --- The rebalancer -------------------------------------------

    /// Whether class `c` is starved: demand in the current window and
    /// fewer free chunks than a fraction of one slab's worth.
    fn starved(&self, c: usize) -> bool {
        let cfg = self.rebalance.as_ref().expect("rebalancer on");
        let threshold = (self.slab.chunks_per_slab(c) / cfg.starve_frac).max(1);
        let w = &self.window[c];
        (w.sets + w.evictions) > 0 && self.slab.free_chunks(c) < threshold
    }

    /// Picks `(donor_class, slab_base)` able to give a whole slab to
    /// `needy`: the donor must be able to absorb the victim slab's
    /// live items into its *other* free chunks. Prefers the donor with
    /// the least window demand, then the emptiest slab.
    fn pick_donor(&self, needy: usize) -> Option<(usize, u64)> {
        let mut best: Option<(u64, usize, usize, u64)> = None; // (demand, live, class, base)
        for d in 0..self.slab.class_count() {
            if d == needy || self.starved(d) {
                continue;
            }
            let w = &self.window[d];
            let demand = w.sets + w.evictions + w.hits;
            for base in self.slab.slabs_in(d) {
                let free_in = self.slab.free_chunks_in_slab(d, base);
                let live = self.slab.chunks_per_slab(d) - free_in;
                // Survivors must fit in the donor's remaining free
                // chunks outside this slab.
                if live > self.slab.free_chunks(d) - free_in {
                    continue;
                }
                let cand = (demand, live, d, base);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
        }
        best.map(|(_, _, d, base)| (d, base))
    }

    /// Relocates every live item of class `donor` inside the moving
    /// slab to sibling chunks, updating its metadata pointer. Returns
    /// the number relocated.
    fn relocate_out(&mut self, ctx: &mut ThreadCtx, donor: usize, base: u64) -> u64 {
        let end = base + SLAB_BYTES as u64;
        let mut moved = 0u64;
        for b in 0..self.buckets {
            let mut node = self.meta_space.read_u64(ctx, self.heads + b * 8);
            while node != NIL {
                let class = self.meta_space.read_u32(ctx, node + M_KV_CLASS) as usize;
                let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
                if class == donor && kv >= base && kv < end {
                    let dst = self
                        .slab
                        .alloc_in_class(donor)
                        .expect("donor guaranteed spare chunks");
                    // Copy the whole record (sizes + key + value).
                    let klen = self.slab.space().read_u32(ctx, kv) as usize;
                    let vlen = self.slab.space().read_u32(ctx, kv + 4) as usize;
                    let mut rec = vec![0u8; 8 + klen + vlen];
                    self.slab.space().read(ctx, kv, &mut rec);
                    self.slab.space().write(ctx, dst, &rec);
                    self.meta_space.write_u64(ctx, node + M_KV_ADDR, dst);
                    self.slab.retire_chunk();
                    moved += 1;
                }
                node = self.meta_space.read_u64(ctx, node + M_NEXT);
            }
        }
        moved
    }

    /// One rebalance attempt: find the most-starved class and a donor
    /// slab, strip + relocate + adopt. Returns whether a move ran.
    fn try_rebalance(&mut self, ctx: &mut ThreadCtx) -> bool {
        let needy = (0..self.slab.class_count())
            .filter(|&c| self.starved(c))
            .max_by_key(|&c| (self.window[c].evictions, self.window[c].sets));
        let Some(needy) = needy else {
            return false;
        };
        let Some((donor, base)) = self.pick_donor(needy) else {
            return false;
        };
        // Order matters: strip the old class's free chunks *first* so
        // it can never hand out a chunk inside the departing slab
        // (the no-stranded-chunk invariant), then relocate survivors,
        // then re-carve under the new class.
        self.slab.remove_slab_free_chunks(donor, base);
        let moved = self.relocate_out(ctx, donor, base);
        self.slab.adopt_slab(needy, base);
        ctx.compute(ctx.machine.cfg.costs.slab_move);
        Stats::bump(&ctx.machine.stats.slab_moves);
        Stats::add(&ctx.machine.stats.slab_items_relocated, moved);
        true
    }

    /// Exponential decay keeps the windows tracking *recent* demand,
    /// so a long-cold class eventually looks like a donor. Runs after
    /// the moves of a maintenance pass so the rebalancer always acts
    /// on pre-decay demand.
    fn decay_windows(&mut self) {
        for w in &mut self.window {
            w.sets /= 2;
            w.hits /= 2;
            w.evictions /= 2;
        }
    }

    /// Publishes the cumulative per-class totals as gauges.
    fn publish_gauges(&self, ctx: &ThreadCtx) {
        let st = &ctx.machine.stats.storage;
        for (c, t) in self.totals.iter().enumerate().take(MAX_STORAGE_CLASSES) {
            Stats::set(&st.hits[c], t.hits);
            Stats::set(&st.evictions[c], t.evictions);
            Stats::set(&st.sets[c], t.sets);
        }
    }
}

impl StorageEngine for SlabEngine {
    fn label(&self) -> &'static str {
        if self.rebalance.is_some() {
            "slab-rebal"
        } else {
            "slab"
        }
    }

    fn init(&self, ctx: &mut ThreadCtx) {
        let zeros = vec![0u8; 4096];
        let len = self.buckets * 8;
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(4096);
            self.meta_space.write(ctx, self.heads + off, &zeros[..n]);
            off += n as u64;
        }
    }

    fn set(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool {
        let record_len = 8 + key.len() + value.len();
        self.note(record_len, false);
        if !self.slab.can_hold(record_len) {
            // No chunk of this class exists or can be carved, so even
            // evicting the whole store would free none: refuse.
            return false;
        }
        if let Some((node, prev)) = self.find(ctx, key) {
            let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
            let class = self.meta_space.read_u32(ctx, node + M_KV_CLASS) as usize;
            if self.slab.chunk_size(class) >= record_len {
                // Overwrite in place.
                self.write_record(ctx, kv, key, value);
                self.meta_space.write_u32(ctx, node + M_EXPIRY, expiry);
                self.meta_space.write_u64(ctx, node + M_VERSION, version);
                self.lru_unlink(ctx, node);
                self.lru_push_front(ctx, node);
                return true;
            }
            // Wrong class: drop and reinsert.
            self.chain_unlink(ctx, key, node, prev);
            self.lru_unlink(ctx, node);
            self.slab.free(class, kv);
            self.meta.free(node);
            self.items -= 1;
        }
        // Allocate, evicting LRU victims if the pool is full.
        let (class, kv) = loop {
            match self.slab.alloc(record_len) {
                Some(x) => break x,
                None => {
                    assert!(self.evict_one(ctx), "pool exhausted and LRU empty");
                }
            }
        };
        self.write_record(ctx, kv, key, value);
        let node = self.meta.alloc();
        let bucket = self.bucket_addr(key);
        let head = self.meta_space.read_u64(ctx, bucket);
        self.meta_space.write_u64(ctx, node + M_NEXT, head);
        self.meta_space.write_u64(ctx, node + M_KV_ADDR, kv);
        self.meta_space
            .write_u32(ctx, node + M_KV_CLASS, class as u32);
        self.meta_space.write_u32(ctx, node + M_EXPIRY, expiry);
        self.meta_space.write_u64(ctx, node + M_VERSION, version);
        self.meta_space.write_u64(ctx, bucket, node);
        self.lru_push_front(ctx, node);
        self.items += 1;
        true
    }

    fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        let (node, prev) = self.find(ctx, key)?;
        let expiry = self.meta_space.read_u32(ctx, node + M_EXPIRY);
        if expiry != 0 && now_secs(ctx) >= expiry {
            let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
            let class = self.meta_space.read_u32(ctx, node + M_KV_CLASS) as usize;
            self.chain_unlink(ctx, key, node, prev);
            self.lru_unlink(ctx, node);
            self.slab.free(class, kv);
            self.meta.free(node);
            self.items -= 1;
            self.expired += 1;
            Stats::bump(&ctx.machine.stats.expired_items);
            return None;
        }
        let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
        let vlen = self.slab.space().read_u32(ctx, kv + 4) as usize;
        let mut value = vec![0u8; vlen];
        self.slab
            .space()
            .read(ctx, kv + 8 + key.len() as u64, &mut value);
        self.lru_unlink(ctx, node);
        self.lru_push_front(ctx, node);
        self.note(8 + key.len() + vlen, true);
        Some(value)
    }

    fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        let Some((node, prev)) = self.find(ctx, key) else {
            return false;
        };
        let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
        let class = self.meta_space.read_u32(ctx, node + M_KV_CLASS) as usize;
        self.chain_unlink(ctx, key, node, prev);
        self.lru_unlink(ctx, node);
        self.slab.free(class, kv);
        self.meta.free(node);
        self.items -= 1;
        true
    }

    fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64> {
        let (node, _) = self.find(ctx, key)?;
        Some(self.meta_space.read_u64(ctx, node + M_VERSION))
    }

    fn len(&self) -> u64 {
        self.items
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn expired(&self) -> u64 {
        self.expired
    }

    fn pool_bytes(&self) -> u64 {
        self.slab.slab_bytes
    }

    fn fence(&mut self, ctx: &mut ThreadCtx) {
        // Rebalancer off: the fence is free (bit- and cycle-identical
        // to the seed's store).
        if self.rebalance.is_some() {
            self.publish_gauges(ctx);
        }
    }

    fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        let Some(cfg) = self.rebalance.clone() else {
            return false;
        };
        let mut did = false;
        for _ in 0..cfg.max_moves_per_fence {
            if !self.try_rebalance(ctx) {
                break;
            }
            did = true;
        }
        self.decay_windows();
        did
    }

    fn for_each(&self, ctx: &mut ThreadCtx, f: &mut ItemVisitor) {
        let now = now_secs(ctx);
        for b in 0..self.buckets {
            let mut node = self.meta_space.read_u64(ctx, self.heads + b * 8);
            while node != NIL {
                let kv = self.meta_space.read_u64(ctx, node + M_KV_ADDR);
                let version = self.meta_space.read_u64(ctx, node + M_VERSION);
                let expiry = self.meta_space.read_u32(ctx, node + M_EXPIRY);
                if expiry == 0 || now < expiry {
                    let klen = self.slab.space().read_u32(ctx, kv) as usize;
                    let vlen = self.slab.space().read_u32(ctx, kv + 4) as usize;
                    let mut key = vec![0u8; klen];
                    self.slab.space().read(ctx, kv + 8, &mut key);
                    let mut value = vec![0u8; vlen];
                    self.slab
                        .space()
                        .read(ctx, kv + 8 + klen as u64, &mut value);
                    f(&key, &value, version, expiry);
                }
                node = self.meta_space.read_u64(ctx, node + M_NEXT);
            }
        }
    }

    fn meta_blob(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&self.slab.slab_bytes.to_le_bytes());
        blob.extend_from_slice(&(self.slab.class_count() as u32).to_le_bytes());
        blob
    }
}

// ====================================================================
// Segment engine
// ====================================================================

/// Host-side descriptor of one append-only segment.
#[derive(Debug, Clone)]
struct Segment {
    base: u64,
    /// Append offset (bytes written so far).
    write: usize,
    /// Records appended (live + dead).
    appended: u64,
    /// Records still referenced by the index.
    live: u64,
    /// Latest expiry deadline among appended items (only meaningful
    /// while `all_ttl`).
    max_expiry: u32,
    /// Whether *every* appended item carries a TTL — only then can the
    /// whole segment be reclaimed by deadline alone.
    all_ttl: bool,
    sealed: bool,
}

impl Segment {
    fn fresh(base: u64) -> Self {
        Self {
            base,
            write: 0,
            appended: 0,
            live: 0,
            max_expiry: 0,
            all_ttl: true,
            sealed: false,
        }
    }
}

/// Per-TTL-bucket state: the open segment plus the sealed chain
/// (oldest first).
#[derive(Debug, Default, Clone)]
struct TtlBucket {
    active: Option<usize>,
    chain: Vec<usize>,
}

/// The TTL-bucketed append-only segment store (Pelikan Segcache's
/// design): no LRU, no per-item free lists — items append, whole
/// segments expire, and merge passes compact the oldest sealed
/// segments of a bucket under memory pressure.
pub struct SegmentEngine {
    meta: MetaPool,
    meta_space: DataSpace,
    data_space: DataSpace,
    cfg: SegmentConfig,
    mem_limit: u64,
    buckets: u64,
    heads: u64,
    segments: Vec<Segment>,
    free_segs: Vec<usize>,
    ttl: Vec<TtlBucket>,
    items: u64,
    evictions: u64,
    expired: u64,
    /// Indexed nodes that are spill *parts* (excluded from `len`).
    spill_parts: u64,
}

impl SegmentEngine {
    fn new(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        cfg: SegmentConfig,
    ) -> Self {
        assert!(
            cfg.ttl_bounds.windows(2).all(|w| w[0] < w[1]),
            "ttl_bounds must ascend"
        );
        assert!(
            mem_limit as usize >= (cfg.ttl_bounds.len() + 2) * cfg.segment_bytes,
            "mem_limit too small for one segment per TTL bucket"
        );
        let buckets = buckets.next_power_of_two();
        let heads = meta_space.alloc((buckets * 8) as usize);
        let n_ttl = cfg.ttl_bounds.len() + 1;
        Self {
            meta: MetaPool::new(meta_space.clone()),
            meta_space,
            data_space,
            cfg,
            mem_limit,
            buckets,
            heads,
            segments: Vec::new(),
            free_segs: Vec::new(),
            ttl: vec![TtlBucket::default(); n_ttl],
            items: 0,
            evictions: 0,
            expired: 0,
            spill_parts: 0,
        }
    }

    fn bucket_addr(&self, key: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        self.heads + (hash64(h) & (self.buckets - 1)) * 8
    }

    fn key_matches(&self, ctx: &mut ThreadCtx, item: u64, key: &[u8]) -> bool {
        let klen = self.data_space.read_u32(ctx, item) as usize;
        if klen != key.len() {
            return false;
        }
        let mut stored = vec![0u8; klen];
        self.data_space.read(ctx, item + 8, &mut stored);
        stored == key
    }

    fn find(&self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<(u64, u64)> {
        let bucket = self.bucket_addr(key);
        let mut prev = NIL;
        let mut node = self.meta_space.read_u64(ctx, bucket);
        while node != NIL {
            let item = self.meta_space.read_u64(ctx, node + S_ITEM);
            if self.key_matches(ctx, item, key) {
                return Some((node, prev));
            }
            prev = node;
            node = self.meta_space.read_u64(ctx, node + S_NEXT);
        }
        None
    }

    fn chain_unlink(&mut self, ctx: &mut ThreadCtx, key: &[u8], node: u64, prev: u64) {
        let next = self.meta_space.read_u64(ctx, node + S_NEXT);
        if prev == NIL {
            self.meta_space.write_u64(ctx, self.bucket_addr(key), next);
        } else {
            self.meta_space.write_u64(ctx, prev + S_NEXT, next);
        }
    }

    /// The TTL bucket an item with `expiry` belongs to *now*.
    fn ttl_bucket_of(&self, ctx: &ThreadCtx, expiry: u32) -> usize {
        if expiry == 0 {
            return self.cfg.ttl_bounds.len();
        }
        let remaining = expiry.saturating_sub(now_secs(ctx));
        self.cfg
            .ttl_bounds
            .iter()
            .position(|&b| remaining <= b)
            .unwrap_or(self.cfg.ttl_bounds.len())
    }

    /// Acquires a fresh (empty, unsealed) segment, reclaiming under
    /// memory pressure.
    fn alloc_segment(&mut self, ctx: &mut ThreadCtx) -> usize {
        loop {
            if let Some(id) = self.free_segs.pop() {
                let base = self.segments[id].base;
                self.segments[id] = Segment::fresh(base);
                return id;
            }
            let next_bytes = ((self.segments.len() + 1) * self.cfg.segment_bytes) as u64;
            if next_bytes <= self.mem_limit {
                let base = self.data_space.alloc(self.cfg.segment_bytes);
                self.segments.push(Segment::fresh(base));
                return self.segments.len() - 1;
            }
            // Inline reclamation stalls the set that triggered it; the
            // maintenance tick's free-segment reserve makes this path
            // rare.
            let t0 = ctx.now();
            self.reclaim(ctx);
            Stats::add(&ctx.machine.stats.maint_stall_cycles, ctx.now() - t0);
        }
    }

    /// Appends `(key, value)` into TTL bucket `tb`, returning
    /// `(segment_id, item_addr)`.
    fn append(
        &mut self,
        ctx: &mut ThreadCtx,
        tb: usize,
        key: &[u8],
        value: &[u8],
        expiry: u32,
    ) -> (usize, u64) {
        let record_len = 8 + key.len() + value.len();
        assert!(
            record_len <= self.cfg.segment_bytes,
            "record larger than a segment"
        );
        let need_new = match self.ttl[tb].active {
            Some(id) => self.segments[id].write + record_len > self.cfg.segment_bytes,
            None => true,
        };
        if need_new {
            if let Some(old) = self.ttl[tb].active.take() {
                self.segments[old].sealed = true;
                self.ttl[tb].chain.push(old);
            }
            let id = self.alloc_segment(ctx);
            self.ttl[tb].active = Some(id);
        }
        let id = self.ttl[tb].active.expect("active segment");
        let seg = &mut self.segments[id];
        let item = seg.base + seg.write as u64;
        seg.write += record_len;
        seg.appended += 1;
        seg.live += 1;
        if expiry == 0 {
            seg.all_ttl = false;
        } else {
            seg.max_expiry = seg.max_expiry.max(expiry);
        }
        let mut rec = Vec::with_capacity(record_len);
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        rec.extend_from_slice(value);
        self.data_space.write(ctx, item, &rec);
        (id, item)
    }

    /// Drops the index's reference into `seg` (the record bytes stay
    /// until the segment is expired or merged away).
    fn dead_mark(&mut self, seg: usize) {
        self.segments[seg].live -= 1;
    }

    /// Unlinks `node` from `key`'s chain by walking node addresses
    /// (no key-byte reads — safe while a merge is rewriting segment
    /// regions other index entries still point into).
    fn unlink_node(&mut self, ctx: &mut ThreadCtx, key: &[u8], node: u64) {
        let bucket = self.bucket_addr(key);
        let mut prev = NIL;
        let mut cur = self.meta_space.read_u64(ctx, bucket);
        while cur != NIL && cur != node {
            prev = cur;
            cur = self.meta_space.read_u64(ctx, cur + S_NEXT);
        }
        assert_eq!(cur, node, "node must be chained");
        let next = self.meta_space.read_u64(ctx, node + S_NEXT);
        if prev == NIL {
            self.meta_space.write_u64(ctx, bucket, next);
        } else {
            self.meta_space.write_u64(ctx, prev + S_NEXT, next);
        }
    }

    /// Unlinks and frees the index node of an expired item.
    fn drop_expired(&mut self, ctx: &mut ThreadCtx, key: &[u8], node: u64, prev: u64, seg: usize) {
        if self.meta_space.read_u32(ctx, node + S_FLAGS) == FLAG_PART {
            self.spill_parts -= 1;
        }
        self.chain_unlink(ctx, key, node, prev);
        self.meta.free(node);
        self.dead_mark(seg);
        self.items -= 1;
        self.expired += 1;
        Stats::bump(&ctx.machine.stats.expired_items);
    }

    /// Reclaims whole segments whose every item has expired. An active
    /// segment past its deadline is sealed first so it qualifies too.
    /// Returns the number of segments recycled.
    fn expire_segments(&mut self, ctx: &mut ThreadCtx) -> usize {
        let now = now_secs(ctx);
        let mut reclaimed = 0usize;
        for tb in 0..self.ttl.len() {
            if let Some(id) = self.ttl[tb].active {
                let s = &self.segments[id];
                if s.appended > 0 && s.all_ttl && s.max_expiry <= now {
                    self.ttl[tb].active = None;
                    self.segments[id].sealed = true;
                    self.ttl[tb].chain.push(id);
                }
            }
        }
        for tb in 0..self.ttl.len() {
            let victims: Vec<usize> = self.ttl[tb]
                .chain
                .iter()
                .copied()
                .filter(|&id| self.segments[id].all_ttl && self.segments[id].max_expiry <= now)
                .collect();
            for id in victims {
                self.retire_segment(ctx, id, true);
                self.ttl[tb].chain.retain(|&s| s != id);
                self.free_segs.push(id);
                reclaimed += 1;
                Stats::bump(&ctx.machine.stats.seg_expired_segments);
            }
        }
        reclaimed
    }

    /// Walks `seg`'s records and unlinks every index entry still
    /// pointing into it. `expiring` classifies the drops as expiry
    /// (whole-segment deadline) rather than eviction.
    fn retire_segment(&mut self, ctx: &mut ThreadCtx, seg: usize, expiring: bool) {
        let base = self.segments[seg].base;
        let end = self.segments[seg].write;
        let mut off = 0usize;
        while off < end {
            let item = base + off as u64;
            let klen = self.data_space.read_u32(ctx, item) as usize;
            let vlen = self.data_space.read_u32(ctx, item + 4) as usize;
            let mut key = vec![0u8; klen];
            self.data_space.read(ctx, item + 8, &mut key);
            if let Some((node, prev)) = self.find(ctx, &key) {
                // Only drop the index entry if it still points at
                // *this* copy (a newer set may live elsewhere).
                if self.meta_space.read_u64(ctx, node + S_ITEM) == item {
                    if self.meta_space.read_u32(ctx, node + S_FLAGS) == FLAG_PART {
                        self.spill_parts -= 1;
                    }
                    self.chain_unlink(ctx, &key, node, prev);
                    self.meta.free(node);
                    self.items -= 1;
                    if expiring {
                        self.expired += 1;
                        Stats::bump(&ctx.machine.stats.expired_items);
                    } else {
                        self.evictions += 1;
                    }
                }
            }
            off += 8 + klen + vlen;
        }
        self.segments[seg].live = 0;
    }

    /// Merge-based eviction: compact the longest sealed chain's oldest
    /// segments, keep the most-requested survivors in one segment
    /// fewer, evict the overflow.
    fn merge(&mut self, ctx: &mut ThreadCtx) {
        // Choose the TTL bucket with the most sealed segments; seal
        // active segments first if nothing is sealed anywhere.
        let pick = |this: &Self| -> Option<usize> {
            (0..this.ttl.len())
                .filter(|&tb| !this.ttl[tb].chain.is_empty())
                .max_by_key(|&tb| this.ttl[tb].chain.len())
        };
        let tb = match pick(self) {
            Some(tb) => tb,
            None => {
                for tb in 0..self.ttl.len() {
                    if let Some(id) = self.ttl[tb].active.take() {
                        self.segments[id].sealed = true;
                        self.ttl[tb].chain.push(id);
                    }
                }
                pick(self).expect("segment pool exhausted with no sealed segments")
            }
        };
        let take = self.cfg.merge_segments.min(self.ttl[tb].chain.len()).max(1);
        let victims: Vec<usize> = self.ttl[tb].chain.drain(..take).collect();
        let now = now_secs(ctx);

        // Collect the live, unexpired survivors with their index state.
        struct Survivor {
            key: Vec<u8>,
            value: Vec<u8>,
            node: u64,
            expiry: u32,
            freq: u32,
            flags: u32,
        }
        let mut survivors: Vec<Survivor> = Vec::new();
        for &seg in &victims {
            let base = self.segments[seg].base;
            let end = self.segments[seg].write;
            let mut off = 0usize;
            while off < end {
                let item = base + off as u64;
                let klen = self.data_space.read_u32(ctx, item) as usize;
                let vlen = self.data_space.read_u32(ctx, item + 4) as usize;
                let mut key = vec![0u8; klen];
                self.data_space.read(ctx, item + 8, &mut key);
                if let Some((node, prev)) = self.find(ctx, &key) {
                    if self.meta_space.read_u64(ctx, node + S_ITEM) == item {
                        let expiry = self.meta_space.read_u32(ctx, node + S_EXPIRY);
                        if expiry != 0 && now >= expiry {
                            self.drop_expired(ctx, &key, node, prev, seg);
                        } else {
                            let freq = self.meta_space.read_u32(ctx, node + S_FREQ);
                            let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
                            let mut value = vec![0u8; vlen];
                            self.data_space
                                .read(ctx, item + 8 + klen as u64, &mut value);
                            survivors.push(Survivor {
                                key,
                                value,
                                node,
                                expiry,
                                freq,
                                flags,
                            });
                        }
                    }
                }
                off += 8 + klen + vlen;
            }
            self.segments[seg].live = 0;
        }

        // Repack the most-requested survivors directly into at most
        // `take - 1` of the reclaimed segments (NOT through the append
        // path — appending could recurse into another merge and
        // invalidate the survivor list). Whatever doesn't fit is
        // evicted, so the merge always nets at least one free segment.
        survivors.sort_by_key(|s| std::cmp::Reverse(s.freq));
        let mut spare = victims;
        let max_targets = take.saturating_sub(1);
        let mut repacked: Vec<usize> = Vec::new();
        let mut cur: Option<usize> = None;
        for s in survivors {
            let len = 8 + s.key.len() + s.value.len();
            let mut fits =
                cur.is_some_and(|id| self.segments[id].write + len <= self.cfg.segment_bytes);
            if !fits && repacked.len() < max_targets {
                let id = spare.pop().expect("victim segment spare");
                self.segments[id] = Segment::fresh(self.segments[id].base);
                self.segments[id].sealed = true;
                repacked.push(id);
                cur = Some(id);
                fits = true;
            }
            if !fits {
                // Evicted by the merge: unlink its index entry. By
                // node address, not key lookup — pending survivors
                // still point into victim regions the repack is
                // overwriting, so key comparison would read clobbered
                // bytes.
                if s.flags == FLAG_PART {
                    self.spill_parts -= 1;
                }
                self.unlink_node(ctx, &s.key, s.node);
                self.meta.free(s.node);
                self.items -= 1;
                self.evictions += 1;
                continue;
            }
            let id = cur.expect("open repack target");
            let seg = &mut self.segments[id];
            let item = seg.base + seg.write as u64;
            seg.write += len;
            seg.appended += 1;
            seg.live += 1;
            if s.expiry == 0 {
                seg.all_ttl = false;
            } else {
                seg.max_expiry = seg.max_expiry.max(s.expiry);
            }
            let mut rec = Vec::with_capacity(len);
            rec.extend_from_slice(&(s.key.len() as u32).to_le_bytes());
            rec.extend_from_slice(&(s.value.len() as u32).to_le_bytes());
            rec.extend_from_slice(&s.key);
            rec.extend_from_slice(&s.value);
            self.data_space.write(ctx, item, &rec);
            self.meta_space.write_u64(ctx, s.node + S_ITEM, item);
            self.meta_space.write_u32(ctx, s.node + S_SEG, id as u32);
        }
        // Repacked segments rejoin the head of the chain (they hold
        // the bucket's oldest surviving items); untouched victims are
        // free for reuse.
        for (i, id) in repacked.iter().enumerate() {
            self.ttl[tb].chain.insert(i, *id);
        }
        self.free_segs.extend(spare);
        ctx.compute(ctx.machine.cfg.costs.seg_merge);
        Stats::bump(&ctx.machine.stats.seg_merges);
    }

    /// Relieves memory pressure: whole-segment expiry first (free),
    /// merge-based eviction otherwise.
    fn reclaim(&mut self, ctx: &mut ThreadCtx) {
        if self.expire_segments(ctx) > 0 {
            return;
        }
        self.merge(ctx);
    }

    // --- Spill chaining (values larger than one segment) ----------

    /// The plain single-record insert/overwrite path (the pre-spill
    /// `set`), parameterized by the record's role flag.
    fn insert_or_update(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
        flags: u32,
    ) {
        let tb = self.ttl_bucket_of(ctx, expiry);
        let (seg, item) = self.append(ctx, tb, key, value, expiry);
        // Look the key up *after* appending: the append may have run a
        // merge that relocated (or evicted) the previous copy, so any
        // earlier index probe would be stale.
        match self.find(ctx, key) {
            Some((node, _)) => {
                let old_seg = self.meta_space.read_u32(ctx, node + S_SEG) as usize;
                self.dead_mark(old_seg);
                self.meta_space.write_u64(ctx, node + S_ITEM, item);
                self.meta_space.write_u32(ctx, node + S_SEG, seg as u32);
                self.meta_space.write_u32(ctx, node + S_EXPIRY, expiry);
                self.meta_space.write_u32(ctx, node + S_FLAGS, flags);
                self.meta_space.write_u64(ctx, node + S_VERSION, version);
            }
            None => {
                let node = self.meta.alloc();
                let bucket = self.bucket_addr(key);
                let head = self.meta_space.read_u64(ctx, bucket);
                self.meta_space.write_u64(ctx, node + S_NEXT, head);
                self.meta_space.write_u64(ctx, node + S_ITEM, item);
                self.meta_space.write_u32(ctx, node + S_SEG, seg as u32);
                self.meta_space.write_u32(ctx, node + S_FREQ, 0);
                self.meta_space.write_u32(ctx, node + S_EXPIRY, expiry);
                self.meta_space.write_u32(ctx, node + S_FLAGS, flags);
                self.meta_space.write_u64(ctx, node + S_VERSION, version);
                self.meta_space.write_u64(ctx, bucket, node);
                self.items += 1;
                if flags == FLAG_PART {
                    self.spill_parts += 1;
                }
            }
        }
    }

    /// Stores a value too large for one segment: the value is split
    /// into parts under reserved derived keys, each appended like any
    /// record, and the client-visible key maps to a 16-byte descriptor
    /// (`total_len u64 ‖ nparts u32 ‖ magic u32`).
    fn set_spill(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) {
        self.drop_spill_parts_of(ctx, key);
        let part_cap = self
            .cfg
            .segment_bytes
            .checked_sub(8 + key.len() + 5)
            .filter(|&c| c > 0)
            .expect("key too large to spill across segments");
        for (i, chunk) in value.chunks(part_cap).enumerate() {
            let pk = spill_part_key(key, i as u32);
            self.insert_or_update(ctx, &pk, chunk, expiry, version, FLAG_PART);
        }
        let nparts = value.len().div_ceil(part_cap) as u32;
        let mut desc = Vec::with_capacity(16);
        desc.extend_from_slice(&(value.len() as u64).to_le_bytes());
        desc.extend_from_slice(&nparts.to_le_bytes());
        desc.extend_from_slice(&SPILL_MAGIC.to_le_bytes());
        self.insert_or_update(ctx, key, &desc, expiry, version, FLAG_HEAD);
    }

    /// Reads a spill head's descriptor `(total_len, nparts)`.
    fn read_spill_desc(&mut self, ctx: &mut ThreadCtx, key: &[u8], node: u64) -> (u64, u32) {
        let item = self.meta_space.read_u64(ctx, node + S_ITEM);
        let mut desc = vec![0u8; 16];
        self.data_space
            .read(ctx, item + 8 + key.len() as u64, &mut desc);
        let total = u64::from_le_bytes(desc[..8].try_into().expect("desc"));
        let nparts = u32::from_le_bytes(desc[8..12].try_into().expect("desc"));
        let magic = u32::from_le_bytes(desc[12..16].try_into().expect("desc"));
        assert_eq!(magic, SPILL_MAGIC, "corrupt spill descriptor");
        (total, nparts)
    }

    /// If `key` currently maps to a spill head, deletes its parts (the
    /// head itself is left for the caller to overwrite or remove).
    fn drop_spill_parts_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) {
        let Some((node, _)) = self.find(ctx, key) else {
            return;
        };
        if self.meta_space.read_u32(ctx, node + S_FLAGS) != FLAG_HEAD {
            return;
        }
        let (_, nparts) = self.read_spill_desc(ctx, key, node);
        for i in 0..nparts {
            self.delete(ctx, &spill_part_key(key, i));
        }
    }

    /// Reassembles a spill from its parts. A missing part (evicted by
    /// a merge under pressure) makes the whole spill unreadable: the
    /// remnants are deleted and the read misses.
    fn read_spill(&mut self, ctx: &mut ThreadCtx, key: &[u8], node: u64) -> Option<Vec<u8>> {
        let (total, nparts) = self.read_spill_desc(ctx, key, node);
        let mut out = Vec::with_capacity(total as usize);
        for i in 0..nparts {
            match self.get(ctx, &spill_part_key(key, i)) {
                Some(chunk) => out.extend_from_slice(&chunk),
                None => {
                    self.delete(ctx, key);
                    return None;
                }
            }
        }
        debug_assert_eq!(out.len() as u64, total, "spill reassembly length");
        Some(out)
    }

    /// Read-only spill reassembly from the head's descriptor bytes
    /// (for `for_each`, which cannot take `&mut self`). Returns
    /// `None` when a part is missing (broken spill).
    fn reassemble_spill(&self, ctx: &mut ThreadCtx, key: &[u8], desc: &[u8]) -> Option<Vec<u8>> {
        let total = u64::from_le_bytes(desc[..8].try_into().expect("desc"));
        let nparts = u32::from_le_bytes(desc[8..12].try_into().expect("desc"));
        let magic = u32::from_le_bytes(desc[12..16].try_into().expect("desc"));
        assert_eq!(magic, SPILL_MAGIC, "corrupt spill descriptor");
        let mut out = Vec::with_capacity(total as usize);
        for i in 0..nparts {
            let pk = spill_part_key(key, i);
            let (node, _) = self.find(ctx, &pk)?;
            let item = self.meta_space.read_u64(ctx, node + S_ITEM);
            let vlen = self.data_space.read_u32(ctx, item + 4) as usize;
            let mut chunk = vec![0u8; vlen];
            self.data_space
                .read(ctx, item + 8 + pk.len() as u64, &mut chunk);
            out.extend_from_slice(&chunk);
        }
        Some(out)
    }
}

impl StorageEngine for SegmentEngine {
    fn label(&self) -> &'static str {
        "segment"
    }

    fn init(&self, ctx: &mut ThreadCtx) {
        let zeros = vec![0u8; 4096];
        let len = self.buckets * 8;
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(4096);
            self.meta_space.write(ctx, self.heads + off, &zeros[..n]);
            off += n as u64;
        }
    }

    fn set(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        expiry: u32,
        version: u64,
    ) -> bool {
        let record_len = 8 + key.len() + value.len();
        if record_len > self.cfg.segment_bytes {
            self.set_spill(ctx, key, value, expiry, version);
            return true;
        }
        // A plain set over a spill head must take the old parts along.
        self.drop_spill_parts_of(ctx, key);
        self.insert_or_update(ctx, key, value, expiry, version, FLAG_PLAIN);
        true
    }

    fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        let (node, prev) = self.find(ctx, key)?;
        let expiry = self.meta_space.read_u32(ctx, node + S_EXPIRY);
        if expiry != 0 && now_secs(ctx) >= expiry {
            let seg = self.meta_space.read_u32(ctx, node + S_SEG) as usize;
            self.drop_expired(ctx, key, node, prev, seg);
            return None;
        }
        let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
        let freq = self.meta_space.read_u32(ctx, node + S_FREQ);
        self.meta_space
            .write_u32(ctx, node + S_FREQ, freq.saturating_add(1));
        if flags == FLAG_HEAD {
            return self.read_spill(ctx, key, node);
        }
        let item = self.meta_space.read_u64(ctx, node + S_ITEM);
        let vlen = self.data_space.read_u32(ctx, item + 4) as usize;
        let mut value = vec![0u8; vlen];
        self.data_space
            .read(ctx, item + 8 + key.len() as u64, &mut value);
        Some(value)
    }

    fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        let Some((node, _)) = self.find(ctx, key) else {
            return false;
        };
        let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
        if flags == FLAG_HEAD {
            // Parts first; they live in other hash chains, but if one
            // shares the head's bucket the head's `prev` would go
            // stale, so re-find the head afterwards.
            let (_, nparts) = self.read_spill_desc(ctx, key, node);
            for i in 0..nparts {
                self.delete(ctx, &spill_part_key(key, i));
            }
        } else if flags == FLAG_PART {
            self.spill_parts -= 1;
        }
        let (node, prev) = self.find(ctx, key).expect("key still indexed");
        let seg = self.meta_space.read_u32(ctx, node + S_SEG) as usize;
        self.chain_unlink(ctx, key, node, prev);
        self.meta.free(node);
        self.dead_mark(seg);
        self.items -= 1;
        true
    }

    fn version_of(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<u64> {
        let (node, _) = self.find(ctx, key)?;
        Some(self.meta_space.read_u64(ctx, node + S_VERSION))
    }

    fn len(&self) -> u64 {
        self.items - self.spill_parts
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn expired(&self) -> u64 {
        self.expired
    }

    fn pool_bytes(&self) -> u64 {
        (self.segments.len() * self.cfg.segment_bytes) as u64
    }

    fn fence(&mut self, ctx: &mut ThreadCtx) {
        // Publish per-TTL-bucket live-segment counts as class gauges.
        let st = &ctx.machine.stats.storage;
        for (tb, b) in self.ttl.iter().enumerate().take(MAX_STORAGE_CLASSES) {
            let segs = b.chain.len() as u64 + u64::from(b.active.is_some());
            Stats::set(&st.sets[tb], segs);
        }
    }

    fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        // Proactive whole-segment expiry: the host-side deadline check
        // costs nothing; actual reclamation does simulated work.
        let mut did = self.expire_segments(ctx) > 0;
        // Merge proactively to keep a reserve of free segments, so the
        // serving-path allocator almost never reclaims inline. Only
        // buckets with at least two sealed segments are compacted —
        // merging a lone segment would evict everything in it.
        loop {
            let grown =
                ((self.segments.len() + 1) * self.cfg.segment_bytes) as u64 > self.mem_limit;
            let mergeable = self.ttl.iter().any(|b| b.chain.len() >= 2);
            if !grown || self.free_segs.len() >= SEG_FREE_RESERVE || !mergeable {
                break;
            }
            let before = self.free_segs.len();
            self.merge(ctx);
            Stats::bump(&ctx.machine.stats.bg_merges);
            did = true;
            if self.free_segs.len() <= before {
                break;
            }
        }
        did
    }

    fn for_each(&self, ctx: &mut ThreadCtx, f: &mut ItemVisitor) {
        let now = now_secs(ctx);
        for b in 0..self.buckets {
            let mut node = self.meta_space.read_u64(ctx, self.heads + b * 8);
            while node != NIL {
                let item = self.meta_space.read_u64(ctx, node + S_ITEM);
                let version = self.meta_space.read_u64(ctx, node + S_VERSION);
                let expiry = self.meta_space.read_u32(ctx, node + S_EXPIRY);
                let flags = self.meta_space.read_u32(ctx, node + S_FLAGS);
                // Spill parts are an encoding detail: heads are
                // visited with their reassembled value, so snapshots
                // stay engine-neutral.
                if flags != FLAG_PART && (expiry == 0 || now < expiry) {
                    let klen = self.data_space.read_u32(ctx, item) as usize;
                    let vlen = self.data_space.read_u32(ctx, item + 4) as usize;
                    let mut key = vec![0u8; klen];
                    self.data_space.read(ctx, item + 8, &mut key);
                    let mut value = vec![0u8; vlen];
                    self.data_space
                        .read(ctx, item + 8 + klen as u64, &mut value);
                    if flags == FLAG_HEAD {
                        // A broken spill chain is skipped entirely.
                        if let Some(full) = self.reassemble_spill(ctx, &key, &value) {
                            f(&key, &full, version, expiry);
                        }
                    } else {
                        f(&key, &value, version, expiry);
                    }
                }
                node = self.meta_space.read_u64(ctx, node + S_NEXT);
            }
        }
    }

    fn meta_blob(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&(self.cfg.segment_bytes as u64).to_le_bytes());
        blob.extend_from_slice(&(self.cfg.ttl_bounds.len() as u32).to_le_bytes());
        for &b in &self.cfg.ttl_bounds {
            blob.extend_from_slice(&b.to_le_bytes());
        }
        blob.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        blob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn rig() -> (Arc<SgxMachine>, ThreadCtx, DataSpace) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let space = DataSpace::Untrusted(Arc::clone(&m));
        (m, t, space)
    }

    fn slab_engine(limit: u64, rebalance: Option<RebalanceConfig>) -> (SlabEngine, ThreadCtx) {
        let (_m, mut t, space) = rig();
        let eng = SlabEngine::new(space.clone(), space, limit, 1024, rebalance);
        eng.init(&mut t);
        (eng, t)
    }

    fn segment_engine(limit: u64) -> (SegmentEngine, ThreadCtx) {
        let (_m, mut t, space) = rig();
        let eng = SegmentEngine::new(space.clone(), space, limit, 1024, SegmentConfig::default());
        eng.init(&mut t);
        (eng, t)
    }

    #[test]
    fn engine_labels() {
        assert_eq!(EngineConfig::default().label(), "slab");
        assert_eq!(
            EngineConfig::Slab {
                rebalance: Some(RebalanceConfig::default())
            }
            .label(),
            "slab-rebal"
        );
        assert_eq!(
            EngineConfig::Segment(SegmentConfig::default()).label(),
            "segment"
        );
    }

    #[test]
    fn segment_set_get_delete() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        eng.set(&mut t, b"hello", b"world", 0, 1);
        assert_eq!(eng.get(&mut t, b"hello").unwrap(), b"world");
        assert_eq!(eng.get(&mut t, b"missing"), None);
        eng.set(&mut t, b"hello", b"again", 0, 2);
        assert_eq!(eng.get(&mut t, b"hello").unwrap(), b"again");
        assert_eq!(eng.len(), 1);
        assert_eq!(eng.version_of(&mut t, b"hello"), Some(2));
        assert!(eng.delete(&mut t, b"hello"));
        assert!(!eng.delete(&mut t, b"hello"));
        assert_eq!(eng.len(), 0);
        t.exit();
    }

    #[test]
    fn segment_survives_many_keys_and_merges() {
        let (mut eng, mut t) = segment_engine(1 << 20); // tight: merges must run
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        for i in 0..6000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 200 + (i as usize % 200)];
            eng.set(&mut t, key.as_bytes(), &value, 0, 1);
        }
        assert!(eng.evictions() > 0, "tight pool must evict");
        let d = m.stats.snapshot();
        assert!(d.seg_merges > 0, "eviction must be merge-based");
        // Recent keys survive with correct bytes.
        let mut present = 0;
        for i in 5900..6000u32 {
            let key = format!("key-{i:05}");
            if let Some(v) = eng.get(&mut t, key.as_bytes()) {
                assert_eq!(v, vec![(i % 251) as u8; 200 + (i as usize % 200)]);
                present += 1;
            }
        }
        assert!(present > 50, "most recent keys should survive a merge");
        assert!(eng.pool_bytes() <= 1 << 20, "memory limit respected");
        t.exit();
    }

    #[test]
    fn segment_merge_keeps_hot_items() {
        let (mut eng, mut t) = segment_engine(1 << 20);
        // Insert a hot key, touch it a lot, then overflow the pool.
        eng.set(&mut t, b"hot", &[1u8; 200], 0, 1);
        for _ in 0..50 {
            assert!(eng.get(&mut t, b"hot").is_some());
        }
        for i in 0..5000u32 {
            eng.set(&mut t, format!("cold-{i}").as_bytes(), &[0u8; 300], 0, 1);
        }
        assert!(eng.evictions() > 0);
        assert!(
            eng.get(&mut t, b"hot").is_some(),
            "frequency-ranked merge must keep the hot item"
        );
        t.exit();
    }

    #[test]
    fn segment_whole_segment_expiry() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        // Everything in one short-TTL bucket.
        for i in 0..200u32 {
            eng.set(&mut t, format!("eph-{i}").as_bytes(), &[9u8; 800], 5, 1);
        }
        let pool_before = eng.pool_bytes();
        assert!(pool_before >= 128 << 10);
        // Cross the deadline; a maintenance pass reclaims sealed
        // segments whole.
        t.compute(8 * 3_400_000_000);
        eng.maintenance_tick(&mut t);
        let d = m.stats.snapshot();
        assert!(d.seg_expired_segments > 0, "whole segments must expire");
        assert!(d.expired_items > 0);
        // All lapsed: gets all miss (the active segment expires lazily).
        for i in (0..200u32).step_by(13) {
            assert_eq!(eng.get(&mut t, format!("eph-{i}").as_bytes()), None);
        }
        assert_eq!(eng.len(), 0);
        t.exit();
    }

    #[test]
    fn rebalancer_moves_slabs_to_starved_class() {
        // 4 MiB pool, phase A fills small items, phase B needs big
        // chunks: without moves the small class calcifies the pool.
        let (mut eng, mut t) = slab_engine(4 << 20, Some(RebalanceConfig::default()));
        let m = Arc::clone(&t.machine);
        m.reset_counters();
        for i in 0..20_000u32 {
            eng.set(&mut t, format!("a-{i}").as_bytes(), &[1u8; 100], 0, 1);
        }
        // Phase B: large values; deletes drain phase A.
        for i in 0..20_000u32 {
            eng.delete(&mut t, format!("a-{i}").as_bytes());
        }
        for i in 0..2_000u32 {
            eng.set(&mut t, format!("b-{i}").as_bytes(), &[2u8; 1200], 0, 1);
            if i % 64 == 0 {
                eng.fence(&mut t);
                eng.maintenance_tick(&mut t);
            }
        }
        let d = m.stats.snapshot();
        assert!(d.slab_moves > 0, "the rebalancer must move slabs");
        // Everything in phase B's recent window still reads correctly.
        for i in 1_500..2_000u32 {
            if let Some(v) = eng.get(&mut t, format!("b-{i}").as_bytes()) {
                assert_eq!(v, vec![2u8; 1200]);
            }
        }
        t.exit();
    }

    #[test]
    fn segment_spills_values_larger_than_a_segment() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        // 300 KiB value vs 128 KiB segments: must chain across spills.
        let big: Vec<u8> = (0..300 << 10).map(|i: u32| (i % 241) as u8).collect();
        eng.set(&mut t, b"big", &big, 0, 1);
        assert_eq!(eng.len(), 1, "spill parts are an encoding detail");
        assert_eq!(eng.get(&mut t, b"big").unwrap(), big);
        assert_eq!(eng.version_of(&mut t, b"big"), Some(1));
        // Overwrite with a different large value, then shrink to small.
        let big2: Vec<u8> = (0..200 << 10).map(|i: u32| (i % 13) as u8).collect();
        eng.set(&mut t, b"big", &big2, 0, 2);
        assert_eq!(eng.get(&mut t, b"big").unwrap(), big2);
        assert_eq!(eng.len(), 1);
        eng.set(&mut t, b"big", b"small", 0, 3);
        assert_eq!(eng.get(&mut t, b"big").unwrap(), b"small");
        assert_eq!(eng.len(), 1);
        // Spills re-grow and delete cleanly, parts included.
        eng.set(&mut t, b"big", &big, 0, 4);
        assert!(eng.delete(&mut t, b"big"));
        assert!(eng.get(&mut t, b"big").is_none());
        assert_eq!(eng.len(), 0);
        t.exit();
    }

    #[test]
    fn segment_spill_round_trips_through_for_each() {
        let (mut eng, mut t) = segment_engine(8 << 20);
        let big: Vec<u8> = (0..160 << 10).map(|i: u32| (i % 239) as u8).collect();
        eng.set(&mut t, b"wide", &big, 0, 5);
        eng.set(&mut t, b"narrow", b"v", 0, 6);
        let mut seen: Vec<(Vec<u8>, Vec<u8>, u64)> = Vec::new();
        eng.for_each(&mut t, &mut |k: &[u8], v: &[u8], ver, _| {
            seen.push((k.to_vec(), v.to_vec(), ver));
        });
        seen.sort();
        assert_eq!(seen.len(), 2, "spill parts must not be visited");
        assert_eq!(seen[0], (b"narrow".to_vec(), b"v".to_vec(), 6));
        assert_eq!(seen[1].0, b"wide".to_vec());
        assert_eq!(seen[1].1, big, "heads are visited reassembled");
        assert_eq!(seen[1].2, 5);
        t.exit();
    }

    #[test]
    fn rebalancer_off_fence_is_free() {
        let (mut eng, mut t) = slab_engine(4 << 20, None);
        eng.set(&mut t, b"k", b"v", 0, 1);
        let before = t.now();
        eng.fence(&mut t);
        assert_eq!(t.now(), before, "disabled rebalancer must charge nothing");
        t.exit();
    }

    #[test]
    fn relocated_items_read_back_exactly() {
        let (mut eng, mut t) = slab_engine(4 << 20, Some(RebalanceConfig::default()));
        // Live small items that will be relocated when their slabs
        // donate to the large class.
        for i in 0..500u32 {
            eng.set(&mut t, format!("keep-{i}").as_bytes(), &[7u8; 120], 0, 1);
        }
        for i in 0..2_500u32 {
            eng.set(&mut t, format!("fill-{i}").as_bytes(), &[3u8; 1200], 0, 1);
            if i % 64 == 0 {
                eng.fence(&mut t);
                eng.maintenance_tick(&mut t);
            }
        }
        // Any keep-* item still indexed must read back exactly.
        for i in 0..500u32 {
            if let Some(v) = eng.get(&mut t, format!("keep-{i}").as_bytes()) {
                assert_eq!(v, vec![7u8; 120]);
            }
        }
        t.exit();
    }
}
