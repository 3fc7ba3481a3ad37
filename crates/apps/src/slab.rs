//! A memcached-style slab allocator over a [`DataSpace`].
//!
//! memcached carves memory into 1 MiB slabs assigned to size classes
//! that grow by a constant factor; each class keeps a free list of
//! fixed-size chunks. The KVS port (§5.1) keeps this allocator and
//! simply points its memory pool at SUVM — "the memory pool in SUVM is
//! managed by the memcached original allocator, while SUVM
//! transparently takes care of demand paging".

use crate::space::DataSpace;

/// Slab size (memcached's default).
pub const SLAB_BYTES: usize = 1 << 20;
/// Smallest chunk.
pub const MIN_CHUNK: usize = 96;
/// Size-class growth factor (memcached's default 1.25).
pub const GROWTH: f64 = 1.25;

struct SizeClass {
    chunk: usize,
    free: Vec<u64>,
}

/// A carved slab: which class currently owns the 1 MiB region.
struct Slab {
    base: u64,
    class: usize,
}

/// The allocator.
pub struct SlabPool {
    space: DataSpace,
    classes: Vec<SizeClass>,
    slabs: Vec<Slab>,
    /// Bytes of slabs acquired from the space.
    pub slab_bytes: u64,
    /// Cap on slab acquisition (the `-m` memory limit).
    limit: u64,
    used_chunks: u64,
}

impl SlabPool {
    /// Creates a pool over `space`, capped at `limit` bytes.
    #[must_use]
    pub fn new(space: DataSpace, limit: u64) -> Self {
        let mut classes = Vec::new();
        let mut chunk = MIN_CHUNK;
        while chunk < SLAB_BYTES {
            classes.push(SizeClass {
                chunk,
                free: Vec::new(),
            });
            chunk = (((chunk as f64) * GROWTH) as usize + 7) & !7;
        }
        classes.push(SizeClass {
            chunk: SLAB_BYTES,
            free: Vec::new(),
        });
        Self {
            space,
            classes,
            slabs: Vec::new(),
            slab_bytes: 0,
            limit,
            used_chunks: 0,
        }
    }

    /// The size class index serving `len` bytes.
    #[must_use]
    pub fn class_of(&self, len: usize) -> Option<usize> {
        self.classes.iter().position(|c| c.chunk >= len)
    }

    /// Chunk size of class `idx`.
    #[must_use]
    pub fn chunk_size(&self, idx: usize) -> usize {
        self.classes[idx].chunk
    }

    /// Allocates a chunk for `len` bytes, returning
    /// `(class, address)`. `None` means the memory limit is reached
    /// and the caller must evict (memcached's LRU kicks in).
    pub fn alloc(&mut self, len: usize) -> Option<(usize, u64)> {
        let idx = self.class_of(len)?;
        if let Some(addr) = self.classes[idx].free.pop() {
            self.used_chunks += 1;
            return Some((idx, addr));
        }
        // Carve a new slab.
        if self.slab_bytes + SLAB_BYTES as u64 > self.limit {
            return None;
        }
        let slab = self.space.alloc(SLAB_BYTES);
        self.slab_bytes += SLAB_BYTES as u64;
        self.slabs.push(Slab {
            base: slab,
            class: idx,
        });
        let chunk = self.classes[idx].chunk;
        let n = SLAB_BYTES / chunk;
        for i in (0..n).rev() {
            self.classes[idx].free.push(slab + (i * chunk) as u64);
        }
        let addr = self.classes[idx].free.pop().expect("fresh slab");
        self.used_chunks += 1;
        Some((idx, addr))
    }

    /// Whether a `len`-byte item can ever get a chunk: its class has a
    /// free chunk, owns a slab (evicting that class's items frees
    /// chunks), or a new slab still fits the limit. When this is
    /// `false`, evicting every item would free no chunk of the class.
    #[must_use]
    pub fn can_hold(&self, len: usize) -> bool {
        let Some(idx) = self.class_of(len) else {
            return false;
        };
        !self.classes[idx].free.is_empty()
            || self.slabs.iter().any(|s| s.class == idx)
            || self.slab_bytes + SLAB_BYTES as u64 <= self.limit
    }

    /// Returns a chunk to its class.
    pub fn free(&mut self, class: usize, addr: u64) {
        self.classes[class].free.push(addr);
        self.used_chunks -= 1;
    }

    /// Live chunks.
    #[must_use]
    pub fn used_chunks(&self) -> u64 {
        self.used_chunks
    }

    /// Number of size classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Chunks a full slab yields for class `idx`.
    #[must_use]
    pub fn chunks_per_slab(&self, idx: usize) -> usize {
        SLAB_BYTES / self.classes[idx].chunk
    }

    /// Free chunks currently parked on class `idx`'s free list.
    #[must_use]
    pub fn free_chunks(&self, idx: usize) -> usize {
        self.classes[idx].free.len()
    }

    /// Base addresses of slabs currently assigned to class `idx`.
    #[must_use]
    pub fn slabs_in(&self, idx: usize) -> Vec<u64> {
        self.slabs
            .iter()
            .filter(|s| s.class == idx)
            .map(|s| s.base)
            .collect()
    }

    /// Free chunks of class `idx` living inside the slab at `base`.
    #[must_use]
    pub fn free_chunks_in_slab(&self, idx: usize, base: u64) -> usize {
        let end = base + SLAB_BYTES as u64;
        self.classes[idx]
            .free
            .iter()
            .filter(|&&a| a >= base && a < end)
            .count()
    }

    /// Strips every free chunk inside the slab at `base` off class
    /// `idx`'s free list, returning how many were removed. First step
    /// of a slab move: after this the old class can never hand out a
    /// chunk from the departing slab.
    pub fn remove_slab_free_chunks(&mut self, idx: usize, base: u64) -> usize {
        let end = base + SLAB_BYTES as u64;
        let before = self.classes[idx].free.len();
        self.classes[idx].free.retain(|&a| a < base || a >= end);
        before - self.classes[idx].free.len()
    }

    /// Pops a free chunk of class `idx` without carving a new slab.
    /// Used during a slab move to relocate survivors.
    pub fn alloc_in_class(&mut self, idx: usize) -> Option<u64> {
        let addr = self.classes[idx].free.pop()?;
        self.used_chunks += 1;
        Some(addr)
    }

    /// Drops a live chunk without returning it to any free list — the
    /// region it occupied is being reassigned wholesale.
    pub fn retire_chunk(&mut self) {
        self.used_chunks -= 1;
    }

    /// Reassigns the slab at `base` to class `idx` and carves its
    /// chunks onto the new class's free list. The caller must have
    /// already relocated live items and stripped the old class's free
    /// chunks via [`SlabPool::remove_slab_free_chunks`].
    pub fn adopt_slab(&mut self, idx: usize, base: u64) {
        let slab = self
            .slabs
            .iter_mut()
            .find(|s| s.base == base)
            .expect("adopt_slab: unknown slab base");
        slab.class = idx;
        let chunk = self.classes[idx].chunk;
        let n = SLAB_BYTES / chunk;
        for i in (0..n).rev() {
            self.classes[idx].free.push(base + (i * chunk) as u64);
        }
    }

    /// The backing space.
    #[must_use]
    pub fn space(&self) -> &DataSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn pool(limit: u64) -> SlabPool {
        let m = SgxMachine::new(MachineConfig::tiny());
        SlabPool::new(DataSpace::Untrusted(m), limit)
    }

    #[test]
    fn classes_grow_geometrically() {
        let p = pool(8 << 20);
        let mut prev = 0usize;
        for c in &p.classes {
            assert!(c.chunk > prev);
            prev = c.chunk;
        }
        assert_eq!(p.classes.last().unwrap().chunk, SLAB_BYTES);
    }

    #[test]
    fn alloc_returns_right_class() {
        let mut p = pool(8 << 20);
        let (c1, a1) = p.alloc(100).unwrap();
        assert!(p.chunk_size(c1) >= 100);
        let (c2, a2) = p.alloc(5000).unwrap();
        assert!(p.chunk_size(c2) >= 5000);
        assert!(c2 > c1);
        assert_ne!(a1, a2);
        assert_eq!(p.used_chunks(), 2);
    }

    #[test]
    fn chunks_within_a_slab_are_disjoint() {
        let mut p = pool(8 << 20);
        let mut addrs = Vec::new();
        for _ in 0..100 {
            let (c, a) = p.alloc(200).unwrap();
            let sz = p.chunk_size(c) as u64;
            for &(b, bs) in &addrs {
                assert!(a + sz <= b || b + bs <= a, "chunk overlap");
            }
            addrs.push((a, sz));
        }
    }

    #[test]
    fn limit_forces_eviction_signal() {
        let mut p = pool(SLAB_BYTES as u64); // one slab only
        let (c, a) = p.alloc(SLAB_BYTES).unwrap();
        assert!(p.alloc(SLAB_BYTES).is_none(), "limit must bite");
        p.free(c, a);
        assert!(p.alloc(SLAB_BYTES).is_some(), "freed chunk reusable");
    }

    #[test]
    fn free_list_reuse_is_lifo() {
        let mut p = pool(8 << 20);
        let (c, a) = p.alloc(100).unwrap();
        p.free(c, a);
        let (_, b) = p.alloc(100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slab_registry_tracks_carves() {
        let mut p = pool(8 << 20);
        let (c1, _) = p.alloc(100).unwrap();
        let (c2, _) = p.alloc(5000).unwrap();
        assert_eq!(p.slabs_in(c1).len(), 1);
        assert_eq!(p.slabs_in(c2).len(), 1);
        assert_eq!(p.free_chunks(c1), p.chunks_per_slab(c1) - 1);
    }

    #[test]
    fn slab_move_leaves_no_stranded_free_chunks() {
        let mut p = pool(8 << 20);
        // Carve a donor slab with two live chunks.
        let (donor, _a0) = p.alloc(100).unwrap();
        let (_, _a1) = p.alloc(100).unwrap();
        let base = p.slabs_in(donor)[0];
        // Pick a needy class to receive the slab.
        let (needy, _) = p.alloc(5000).unwrap();
        assert_ne!(donor, needy);
        let stripped = p.remove_slab_free_chunks(donor, base);
        assert_eq!(stripped, p.chunks_per_slab(donor) - 2);
        // The two live chunks are dropped (in the engine they'd be
        // relocated to sibling slabs), then the slab changes class.
        p.retire_chunk();
        p.retire_chunk();
        p.adopt_slab(needy, base);
        // Regression: the old class must hold zero chunks inside the
        // moved slab, and the new class must own the whole region.
        assert_eq!(p.free_chunks_in_slab(donor, base), 0);
        assert_eq!(p.free_chunks_in_slab(needy, base), p.chunks_per_slab(needy));
        assert_eq!(p.slabs_in(needy).len(), 2);
        assert!(p.slabs_in(donor).is_empty());
    }

    #[test]
    fn alloc_in_class_never_carves() {
        let mut p = pool(8 << 20);
        let (c, a) = p.alloc(100).unwrap();
        p.free(c, a);
        let slabs_before = p.slab_bytes;
        assert!(p.alloc_in_class(c).is_some());
        assert_eq!(p.slab_bytes, slabs_before);
        // Drain the free list: alloc_in_class must refuse to carve.
        while p.alloc_in_class(c).is_some() {}
        assert_eq!(p.free_chunks(c), 0);
        assert_eq!(p.slab_bytes, slabs_before);
    }
}
