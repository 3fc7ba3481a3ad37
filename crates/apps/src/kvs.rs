//! A memcached-style key-value store (paper §5.1).
//!
//! The port mirrors the paper's 75-line memcached modification: the
//! original slab allocator keeps managing the pool, but the pool's
//! *location* is a [`DataSpace`]; item **metadata** (hash-chain and LRU
//! pointers, slab class) is security-insensitive and lives in a clear
//! metadata space, while the **keys, values and their sizes** live in
//! the secure data space (SUVM in the Eleos configuration).
//!
//! The store itself is now a thin protocol/snapshot front-end over a
//! pluggable [`StorageEngine`] (see [`crate::storage`]): the default
//! [`EngineConfig::Slab`] engine is the seed's slab/LRU store
//! (optionally with the fence-time slab rebalancer), and
//! [`EngineConfig::Segment`] swaps in the TTL-bucketed append-only
//! segment store. The batch handlers call [`Kvs::fence`] at sub-batch
//! boundaries; the store's one placement flag
//! ([`Kvs::set_background`]) decides whether the engine's maintenance
//! pass runs right there on the serving thread or is left to
//! [`Kvs::maintenance_tick`] on another core.
//!
//! The *version* is a caller-managed write stamp (the fleet tier sets
//! it to its fence-epoch interval): every `set` stamps the item, and
//! [`Kvs::restore`] merges last-writer-wins on it, so a snapshot
//! re-imported after bouncing through another replica can never clobber
//! a fresher value (see `fleet_io`'s fence protocol).

use eleos_core::{Snapshot, SnapshotBuilder};
use eleos_crypto::Sealer;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;

use crate::io::ServerIo;
use crate::space::DataSpace;
use crate::storage::{build_engine, now_secs, EngineConfig, StorageEngine};

/// Per-operation parsing/hashing compute, in cycles.
const OP_CYCLES: u64 = 120;

/// Name of the item-log section in a portable [`Snapshot`].
const KVS_SECTION: &str = "kvs-items";

/// Name of the engine-metadata section in a portable [`Snapshot`]:
/// `label_len u8 || label || item_count u64 || engine blob`. Carried so
/// a restore side can cross-check the item log against the sealing
/// engine's view (and log which engine produced it).
const STORAGE_META_SECTION: &str = "storage-meta";

/// The key-value store: protocol parsing, write-stamping and
/// snapshot/restore over a pluggable [`StorageEngine`].
pub struct Kvs {
    engine: Box<dyn StorageEngine>,
    version: u64,
    /// Placement of engine maintenance: `false` runs it inline at every
    /// fence, `true` leaves it to [`Self::maintenance_tick`].
    background: bool,
}

impl Kvs {
    /// Creates a store with a `mem_limit`-byte value pool in
    /// `data_space` and chains/heads in `meta_space`, running the
    /// default slab engine (no rebalancer) — byte- and cycle-identical
    /// to the seed's store.
    #[must_use]
    pub fn new(meta_space: DataSpace, data_space: DataSpace, mem_limit: u64, buckets: u64) -> Self {
        Self::with_engine(
            meta_space,
            data_space,
            mem_limit,
            buckets,
            &EngineConfig::default(),
        )
    }

    /// Creates a store running the configured engine.
    #[must_use]
    pub fn with_engine(
        meta_space: DataSpace,
        data_space: DataSpace,
        mem_limit: u64,
        buckets: u64,
        cfg: &EngineConfig,
    ) -> Self {
        Self {
            engine: build_engine(cfg, meta_space, data_space, mem_limit, buckets),
            version: 0,
            background: false,
        }
    }

    /// The engine's short label (`"slab"`, `"slab-rebal"`,
    /// `"segment"`).
    #[must_use]
    pub fn engine_label(&self) -> &'static str {
        self.engine.label()
    }

    /// Sets the write stamp. The fleet tier advances this to its fence
    /// epoch after every fence, which is what makes the versioned
    /// restore merge ([`Self::restore`]) last-writer-wins across
    /// arbitrary kill/respawn schedules: two stores only ever hold the
    /// same stamp for a key when they hold the same value.
    pub fn set_write_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Zeroes the bucket heads.
    pub fn init(&self, ctx: &mut ThreadCtx) {
        self.engine.init(ctx);
    }

    /// Number of live items.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.engine.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engine.len() == 0
    }

    /// Items evicted under memory pressure so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.engine.evictions()
    }

    /// Items dropped because their TTL deadline passed.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.engine.expired()
    }

    /// Bytes of secure pool acquired from the data space.
    #[must_use]
    pub fn pool_bytes(&self) -> u64 {
        self.engine.pool_bytes()
    }

    /// Inserts or replaces `key` with `value` (no expiry). Returns
    /// whether it stored (see [`StorageEngine::set`]).
    pub fn set(&mut self, ctx: &mut ThreadCtx, key: &[u8], value: &[u8]) -> bool {
        self.set_with_ttl(ctx, key, value, 0)
    }

    /// Inserts or replaces `key` with `value`, expiring after
    /// `ttl_secs` of simulated time (0 = never) — memcached's
    /// `exptime` semantics with lazy expiration. Returns whether it
    /// stored.
    pub fn set_with_ttl(
        &mut self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        value: &[u8],
        ttl_secs: u32,
    ) -> bool {
        ctx.compute(OP_CYCLES);
        let expiry = if ttl_secs == 0 {
            0
        } else {
            now_secs(ctx).saturating_add(ttl_secs)
        };
        self.engine.set(ctx, key, value, expiry, self.version)
    }

    /// Looks `key` up. Expired items are lazily deleted and read as
    /// misses (memcached semantics).
    pub fn get(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        ctx.compute(OP_CYCLES);
        self.engine.get(ctx, key)
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&mut self, ctx: &mut ThreadCtx, key: &[u8]) -> bool {
        ctx.compute(OP_CYCLES);
        self.engine.delete(ctx, key)
    }

    /// Sub-batch fence: the engine publishes its gauges and, with
    /// inline placement, runs its maintenance pass (slab rebalancing,
    /// segment expiry and merges) right here on the serving thread,
    /// charging it to `maint_stall_cycles`. The batch handlers call it
    /// after every non-empty batch; serving loops that bypass them
    /// must call it between batches themselves.
    pub fn fence(&mut self, ctx: &mut ThreadCtx) {
        self.engine.fence(ctx);
        if !self.background {
            let t0 = ctx.now();
            self.engine.maintenance_tick(ctx);
            Stats::add(&ctx.machine.stats.maint_stall_cycles, ctx.now() - t0);
        }
    }

    /// Places engine maintenance: inline at every [`Self::fence`] (the
    /// default) or, when `on`, in [`Self::maintenance_tick`] calls made
    /// from another core. The engine's decisions are the same either
    /// way; only the core that pays for them changes.
    pub fn set_background(&mut self, on: bool) {
        self.background = on;
    }

    /// One engine maintenance pass on whatever core `ctx` is placed —
    /// the background placement's half of [`Self::fence`]. Returns
    /// whether any work ran.
    pub fn maintenance_tick(&mut self, ctx: &mut ThreadCtx) -> bool {
        self.engine.maintenance_tick(ctx)
    }

    /// Visits every live, unexpired item (index order) with
    /// `(key, value)`.
    pub fn for_each_item(&self, ctx: &mut ThreadCtx, mut f: impl FnMut(&[u8], &[u8])) {
        self.engine
            .for_each(ctx, &mut |key, value, _version, _expiry| f(key, value));
    }

    /// Encodes every live, unexpired item whose write stamp is
    /// `>= base` as the snapshot plaintext: `count u64 || (klen u32,
    /// vlen u32, version u64, expiry u32, key, value)*` in index order.
    /// `base = 0` encodes everything. Absolute expiry deadlines travel
    /// with the items, so a restore preserves each item's remaining
    /// TTL.
    fn encode_items_since(&self, ctx: &mut ThreadCtx, base: u64) -> Vec<u8> {
        let mut body = Vec::new();
        let mut count = 0u64;
        self.engine
            .for_each(ctx, &mut |key, value, version, expiry| {
                if version < base {
                    return;
                }
                body.extend_from_slice(&(key.len() as u32).to_le_bytes());
                body.extend_from_slice(&(value.len() as u32).to_le_bytes());
                body.extend_from_slice(&version.to_le_bytes());
                body.extend_from_slice(&expiry.to_le_bytes());
                body.extend_from_slice(key);
                body.extend_from_slice(value);
                count += 1;
            });
        let mut plain = Vec::with_capacity(8 + body.len());
        plain.extend_from_slice(&count.to_le_bytes());
        plain.extend_from_slice(&body);
        plain
    }

    /// Merges an item log produced by [`Self::encode_items_since`]:
    /// last-writer-wins on the per-item write stamp. An absent key is
    /// inserted (keeping the log's stamp); a present key is overwritten
    /// only when the log's stamp is strictly newer — a store only ever
    /// carries a *stale* copy of a key it no longer serves at a stamp
    /// strictly below the current owner's, so equality means equal
    /// bytes and skipping is safe. Items whose expiry deadline already
    /// passed are dropped on the floor. Returns the number applied.
    fn decode_items(&mut self, ctx: &mut ThreadCtx, plain: &[u8]) -> u64 {
        let count = u64::from_le_bytes(plain[..8].try_into().expect("count"));
        let mut off = 8usize;
        let mut applied = 0u64;
        let now = now_secs(ctx);
        for _ in 0..count {
            let klen = u32::from_le_bytes(plain[off..off + 4].try_into().expect("klen")) as usize;
            let vlen =
                u32::from_le_bytes(plain[off + 4..off + 8].try_into().expect("vlen")) as usize;
            let version = u64::from_le_bytes(plain[off + 8..off + 16].try_into().expect("version"));
            let expiry = u32::from_le_bytes(plain[off + 16..off + 20].try_into().expect("expiry"));
            off += 20;
            let key = plain[off..off + klen].to_vec();
            off += klen;
            let value = plain[off..off + vlen].to_vec();
            off += vlen;
            if expiry != 0 && now >= expiry {
                continue;
            }
            if let Some(stored) = self.engine.version_of(ctx, &key) {
                if stored >= version {
                    continue;
                }
            }
            ctx.compute(OP_CYCLES);
            if self.engine.set(ctx, &key, &value, expiry, version) {
                applied += 1;
            }
        }
        applied
    }

    /// Captures every live item as the `"kvs-items"` section of a
    /// portable [`Snapshot`] (plus a `"storage-meta"` section carrying
    /// the engine's layout fingerprint), sealed through the shared
    /// [`Sealer`] seam. `domain`/`epoch` scope the nonces (see
    /// [`SnapshotBuilder::new`]); the fleet passes the sealing
    /// enclave's id and its failover epoch.
    ///
    /// Callers whose data space is SUVM-backed should
    /// [`quiesce`](eleos_core::Suvm::quiesce) the instance first —
    /// this runs at a fence, and a fence means dirty pages are sealed
    /// home.
    #[must_use]
    pub fn snapshot(
        &self,
        ctx: &mut ThreadCtx,
        sealer: &dyn Sealer,
        domain: u32,
        epoch: u64,
    ) -> Snapshot {
        let items = self.encode_items_since(ctx, 0);
        self.seal_items(ctx, sealer, domain, epoch, items)
    }

    /// Incremental flavor of [`Self::snapshot`]: captures only the
    /// items written at stamp `>= base`, so a receiver that already
    /// holds everything below `base` can catch up from the delta
    /// alone. `base = 0` carries every item. The `"storage-meta"`
    /// section carries the *delta* item count, so [`Self::restore`]
    /// applies unchanged. This is what every fleet transfer ships;
    /// each item pays `snapshot_delta_item` for the stamp filter and
    /// is counted in `snapshot_delta_items`.
    #[must_use]
    pub fn snapshot_since(
        &self,
        ctx: &mut ThreadCtx,
        sealer: &dyn Sealer,
        domain: u32,
        epoch: u64,
        base: u64,
    ) -> Snapshot {
        let items = self.encode_items_since(ctx, base);
        let count = u64::from_le_bytes(items[..8].try_into().expect("count"));
        ctx.compute(count * ctx.machine.cfg.costs.snapshot_delta_item);
        Stats::add(&ctx.machine.stats.snapshot_delta_items, count);
        self.seal_items(ctx, sealer, domain, epoch, items)
    }

    /// Seals an encoded item log plus its `"storage-meta"` section
    /// (engine label, the log's item count, the engine's layout blob)
    /// into a portable [`Snapshot`].
    fn seal_items(
        &self,
        ctx: &mut ThreadCtx,
        sealer: &dyn Sealer,
        domain: u32,
        epoch: u64,
        items: Vec<u8>,
    ) -> Snapshot {
        let count = u64::from_le_bytes(items[..8].try_into().expect("count"));
        let label = self.engine.label().as_bytes();
        let mut meta = Vec::with_capacity(1 + label.len() + 8);
        meta.push(label.len() as u8);
        meta.extend_from_slice(label);
        meta.extend_from_slice(&count.to_le_bytes());
        meta.extend_from_slice(&self.engine.meta_blob());
        SnapshotBuilder::new(domain, epoch)
            .section(KVS_SECTION, items)
            .section(STORAGE_META_SECTION, meta)
            .seal(ctx, sealer)
    }

    /// Restores items from a portable [`Snapshot`] captured by
    /// [`Self::snapshot`] (possibly by a different enclave — snapshots
    /// are sealed under a shared key precisely so a replica can
    /// restore a dead sibling's state, and possibly by a *different
    /// engine* — the item log is engine-neutral). The merge is
    /// last-writer-wins on the per-item write stamp, so a stale copy
    /// re-imported after bouncing through another replica never
    /// clobbers a fresher value. Returns the number of items applied
    /// (inserted or overwritten).
    ///
    /// # Panics
    /// Panics when the snapshot lacks the `"kvs-items"` section, fails
    /// authentication, or its `"storage-meta"` item count disagrees
    /// with the item log (a mis-assembled snapshot).
    pub fn restore(&mut self, ctx: &mut ThreadCtx, sealer: &dyn Sealer, snap: &Snapshot) -> u64 {
        let plain = snap.open(ctx, sealer, KVS_SECTION);
        if snap.has_section(STORAGE_META_SECTION) {
            let meta = snap.open(ctx, sealer, STORAGE_META_SECTION);
            let label_len = meta[0] as usize;
            let declared = u64::from_le_bytes(
                meta[1 + label_len..1 + label_len + 8]
                    .try_into()
                    .expect("storage-meta count"),
            );
            let logged = u64::from_le_bytes(plain[..8].try_into().expect("count"));
            assert_eq!(
                declared, logged,
                "storage-meta item count disagrees with the item log"
            );
        }
        self.decode_items(ctx, &plain)
    }

    /// Serializes every item into a sealed snapshot blob
    /// (`AES-GCM(count || (klen,vlen,version,expiry,key,value)*)`),
    /// suitable for writing to the untrusted host filesystem for warm
    /// restarts.
    #[must_use]
    pub fn sealed_snapshot(
        &self,
        ctx: &mut ThreadCtx,
        cipher: &eleos_crypto::gcm::AesGcm128,
        nonce: &eleos_crypto::gcm::Nonce,
    ) -> Vec<u8> {
        let mut blob = self.encode_items_since(ctx, 0);
        ctx.compute(ctx.machine.cfg.costs.crypto(blob.len()));
        let tag = cipher.seal(nonce, b"kvs-snapshot", &mut blob);
        let mut out = Vec::with_capacity(12 + 16 + blob.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(&tag);
        out.extend_from_slice(&blob);
        out
    }

    /// Restores items from a sealed snapshot produced by
    /// [`Self::sealed_snapshot`]. Returns the number of items loaded.
    ///
    /// # Panics
    /// Panics if the snapshot fails authentication (tampered file).
    pub fn restore_snapshot(
        &mut self,
        ctx: &mut ThreadCtx,
        cipher: &eleos_crypto::gcm::AesGcm128,
        blob: &[u8],
    ) -> u64 {
        assert!(blob.len() >= 28, "short snapshot");
        let nonce: eleos_crypto::gcm::Nonce = blob[..12].try_into().expect("nonce");
        let tag: eleos_crypto::gcm::Tag = blob[12..28].try_into().expect("tag");
        let mut plain = blob[28..].to_vec();
        cipher
            .open(&nonce, b"kvs-snapshot", &mut plain, &tag)
            .expect("KVS snapshot failed authentication: file tampered");
        ctx.compute(ctx.machine.cfg.costs.crypto(plain.len()));
        self.decode_items(ctx, &plain)
    }

    /// Handles one protocol request. Returns `false` when the socket
    /// queue is drained.
    ///
    /// Request plaintext: `[op u8][key_len u16][val_len u32][key][value]`
    /// with op 0 = GET, 1 = SET, 2 = SET-with-TTL (a `ttl u32` in
    /// seconds follows `val_len`, shifting the key to offset 11).
    /// Response: GET → `[1][val_len][value]` or `[0]`; SET and
    /// SET-with-TTL → `[1]`, or `[0]` when the engine refused to store
    /// the item.
    pub fn handle_request(&mut self, ctx: &mut ThreadCtx, io: &ServerIo) -> bool {
        let Some(plain) = io.recv_msg(ctx) else {
            return false;
        };
        let resp = self.process(ctx, &plain);
        io.send_msg(ctx, &resp);
        true
    }

    /// Handles up to `io.cfg.batch` protocol requests as one
    /// pipelined batch: receives posted together, the whole reap
    /// decrypted in one batched crypto pass, lookups run back-to-back,
    /// responses batch-encrypted and sent together — on the RPC path
    /// each I/O stage is a single amortized ring submission instead of
    /// per-message handoffs. The batch boundary is a storage fence.
    /// Returns the number of requests handled.
    pub fn handle_batch(&mut self, ctx: &mut ThreadCtx, io: &ServerIo) -> usize {
        let requests = io.recv_batch(ctx);
        let replies: Vec<Vec<u8>> = requests
            .iter()
            .map(|plain| self.process(ctx, plain))
            .collect();
        io.send_batch(ctx, &replies);
        if !requests.is_empty() {
            self.fence(ctx);
        }
        requests.len()
    }

    /// [`Self::handle_batch`] over a shard subset: reaps only the
    /// `active` shards (a fleet replica's owned slice of the shared
    /// socket set), serves, and sends. Returns the number of requests
    /// handled.
    pub fn handle_batch_on(
        &mut self,
        ctx: &mut ThreadCtx,
        io: &ServerIo,
        active: &[usize],
    ) -> usize {
        let requests = io.recv_batch_on(ctx, active);
        let replies: Vec<Vec<u8>> = requests
            .iter()
            .map(|plain| self.process(ctx, plain))
            .collect();
        io.send_batch(ctx, &replies);
        if !requests.is_empty() {
            self.fence(ctx);
        }
        requests.len()
    }

    /// Executes one decrypted binary-protocol request, returning the
    /// response plaintext.
    fn process(&mut self, ctx: &mut ThreadCtx, plain: &[u8]) -> Vec<u8> {
        let op = plain[0];
        let klen = u16::from_le_bytes(plain[1..3].try_into().expect("short header")) as usize;
        let vlen = u32::from_le_bytes(plain[3..7].try_into().expect("short header")) as usize;
        let key = &plain[7..7 + klen];
        match op {
            0 => match self.get(ctx, key) {
                Some(value) => {
                    let mut resp = Vec::with_capacity(5 + value.len());
                    resp.push(1u8);
                    resp.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    resp.extend_from_slice(&value);
                    resp
                }
                None => vec![0u8],
            },
            1 => {
                let value = &plain[7 + klen..7 + klen + vlen];
                vec![u8::from(self.set(ctx, key, value))]
            }
            2 => {
                let ttl = u32::from_le_bytes(plain[7..11].try_into().expect("short header"));
                let key = &plain[11..11 + klen];
                let value = &plain[11 + klen..11 + klen + vlen];
                vec![u8::from(self.set_with_ttl(ctx, key, value, ttl))]
            }
            other => panic!("unknown KVS opcode {other}"),
        }
    }
}

/// Builds a GET request plaintext.
#[must_use]
pub fn build_get(key: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(7 + key.len());
    p.push(0u8);
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(&0u32.to_le_bytes());
    p.extend_from_slice(key);
    p
}

/// Builds a SET request plaintext.
#[must_use]
pub fn build_set(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(7 + key.len() + value.len());
    p.push(1u8);
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(&(value.len() as u32).to_le_bytes());
    p.extend_from_slice(key);
    p.extend_from_slice(value);
    p
}

/// Builds a SET-with-TTL request plaintext (`ttl_secs = 0` never
/// expires — same convention as [`Kvs::set_with_ttl`]).
#[must_use]
pub fn build_set_ttl(key: &[u8], value: &[u8], ttl_secs: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(11 + key.len() + value.len());
    p.push(2u8);
    p.extend_from_slice(&(key.len() as u16).to_le_bytes());
    p.extend_from_slice(&(value.len() as u32).to_le_bytes());
    p.extend_from_slice(&ttl_secs.to_le_bytes());
    p.extend_from_slice(key);
    p.extend_from_slice(value);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_core::{Suvm, SuvmConfig};
    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    use crate::storage::SegmentConfig;

    fn untrusted_kvs(limit: u64) -> (Kvs, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let kvs = Kvs::new(space.clone(), space, limit, 1024);
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (kvs, t)
    }

    fn untrusted_kvs_with(limit: u64, cfg: &EngineConfig) -> (Kvs, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let kvs = Kvs::with_engine(space.clone(), space, limit, 1024, cfg);
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (kvs, t)
    }

    #[test]
    fn set_get_delete() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set(&mut t, b"hello", b"world");
        assert_eq!(kvs.get(&mut t, b"hello").unwrap(), b"world");
        assert_eq!(kvs.get(&mut t, b"missing"), None);
        kvs.set(&mut t, b"hello", b"again");
        assert_eq!(kvs.get(&mut t, b"hello").unwrap(), b"again");
        assert_eq!(kvs.len(), 1);
        assert!(kvs.delete(&mut t, b"hello"));
        assert!(!kvs.delete(&mut t, b"hello"));
        assert!(kvs.is_empty());
        t.exit();
    }

    #[test]
    fn many_keys_survive_collisions() {
        let (mut kvs, mut t) = untrusted_kvs(32 << 20);
        kvs.init(&mut t);
        for i in 0..2000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 100 + (i as usize % 300)];
            kvs.set(&mut t, key.as_bytes(), &value);
        }
        for i in 0..2000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 100 + (i as usize % 300)];
            assert_eq!(kvs.get(&mut t, key.as_bytes()).unwrap(), value, "{key}");
        }
        t.exit();
    }

    #[test]
    fn lru_evicts_coldest_under_memory_pressure() {
        // Limit = 2 slabs; 1 KiB values -> eviction must kick in.
        let (mut kvs, mut t) = untrusted_kvs(2 << 20);
        kvs.init(&mut t);
        let value = vec![7u8; 1024];
        for i in 0..4000u32 {
            kvs.set(&mut t, format!("k{i}").as_bytes(), &value);
        }
        assert!(kvs.evictions() > 0, "LRU must have evicted");
        // The most recent keys are present; the oldest are gone.
        assert!(kvs.get(&mut t, b"k3999").is_some());
        assert!(kvs.get(&mut t, b"k0").is_none());
        t.exit();
    }

    #[test]
    fn value_resize_moves_class() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set(&mut t, b"k", &[1u8; 64]);
        kvs.set(&mut t, b"k", &vec![2u8; 8000]);
        assert_eq!(kvs.get(&mut t, b"k").unwrap(), vec![2u8; 8000]);
        assert_eq!(kvs.len(), 1);
        t.exit();
    }

    #[test]
    fn suvm_backed_kvs_with_clear_metadata() {
        // The paper's split: metadata clear, kv pairs in SUVM.
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 16 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let suvm = Suvm::new(
            &t0,
            SuvmConfig {
                epcpp_bytes: 1 << 20,
                backing_bytes: 16 << 20,
                ..SuvmConfig::tiny()
            },
        );
        let mut kvs = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::suvm(&suvm),
            8 << 20,
            1024,
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        kvs.init(&mut t);
        // Working set (8 MiB) >> EPC++ (1 MiB): SUVM pages for us.
        for i in 0..1500u32 {
            kvs.set(
                &mut t,
                format!("key-{i}").as_bytes(),
                &vec![(i % 250) as u8; 4096],
            );
        }
        for i in (0..1500u32).step_by(97) {
            assert_eq!(
                kvs.get(&mut t, format!("key-{i}").as_bytes()).unwrap(),
                vec![(i % 250) as u8; 4096]
            );
        }
        let s = m.stats.snapshot();
        assert!(s.suvm_evictions > 0, "SUVM must have paged");
        assert_eq!(s.enclave_exits, 0, "no exits during pure KVS ops");
        t.exit();
    }

    #[test]
    fn ttl_expiry_is_lazy_and_correct() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        // ~2 simulated seconds of TTL; the clock only moves when we
        // charge cycles.
        kvs.set_with_ttl(&mut t, b"ephemeral", b"soon gone", 2);
        kvs.set(&mut t, b"durable", b"stays");
        assert_eq!(kvs.get(&mut t, b"ephemeral").unwrap(), b"soon gone");
        // Advance simulated time past the deadline (3.4e9 cycles/sec).
        t.compute(3 * 3_400_000_000);
        assert_eq!(kvs.get(&mut t, b"ephemeral"), None, "expired");
        assert_eq!(kvs.len(), 1, "lazy delete reclaimed the item");
        assert_eq!(kvs.expired(), 1);
        assert_eq!(kvs.get(&mut t, b"durable").unwrap(), b"stays");
        // Re-inserting after expiry works.
        kvs.set(&mut t, b"ephemeral", b"back");
        assert_eq!(kvs.get(&mut t, b"ephemeral").unwrap(), b"back");
        t.exit();
    }

    #[test]
    fn segment_engine_serves_the_same_api() {
        let cfg = EngineConfig::Segment(SegmentConfig::default());
        let (mut kvs, mut t) = untrusted_kvs_with(8 << 20, &cfg);
        kvs.init(&mut t);
        assert_eq!(kvs.engine_label(), "segment");
        for i in 0..500u32 {
            kvs.set(&mut t, format!("s-{i}").as_bytes(), &[(i % 97) as u8; 64]);
        }
        for i in (0..500u32).step_by(7) {
            assert_eq!(
                kvs.get(&mut t, format!("s-{i}").as_bytes()).unwrap(),
                vec![(i % 97) as u8; 64]
            );
        }
        assert!(kvs.delete(&mut t, b"s-0"));
        assert_eq!(kvs.len(), 499);
        kvs.fence(&mut t);
        t.exit();
    }

    #[test]
    fn snapshot_restores_across_engines() {
        // Seal from a slab store, restore into a segment store: the
        // item log is engine-neutral.
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set_with_ttl(&mut t, b"short", b"lived", 300);
        kvs.set(&mut t, b"forever", b"kept");
        let sealer = AesGcm128::new(&[0x44u8; 16]);
        let snap = kvs.snapshot(&mut t, &sealer, 9, 1);
        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut seg = Kvs::with_engine(
            space.clone(),
            space,
            8 << 20,
            1024,
            &EngineConfig::Segment(SegmentConfig::default()),
        );
        seg.init(&mut t);
        assert_eq!(seg.restore(&mut t, &sealer, &snap), 2);
        assert_eq!(seg.get(&mut t, b"short").unwrap(), b"lived");
        assert_eq!(seg.get(&mut t, b"forever").unwrap(), b"kept");
        t.exit();
    }

    #[test]
    fn portable_snapshot_restores_into_a_different_store() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        for i in 0..150u32 {
            kvs.set(
                &mut t,
                format!("item-{i}").as_bytes(),
                &vec![(i % 200) as u8; 32 + i as usize],
            );
        }
        let sealer = AesGcm128::new(&[0x33u8; 16]);
        let snap = kvs.snapshot(&mut t, &sealer, 7, 42);
        assert_eq!(snap.epoch(), 42);
        // Round-trip through the byte form a cross-enclave channel
        // would carry; the payload is ciphertext end-to-end.
        let bytes = snap.to_bytes();
        assert!(!bytes.windows(6).any(|w| w == b"item-1"));
        let reread = eleos_core::Snapshot::from_bytes(&bytes);

        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs2 = Kvs::new(space.clone(), space, 8 << 20, 1024);
        kvs2.init(&mut t);
        assert_eq!(kvs2.restore(&mut t, &sealer, &reread), 150);
        for i in (0..150u32).step_by(17) {
            assert_eq!(
                kvs2.get(&mut t, format!("item-{i}").as_bytes()).unwrap(),
                vec![(i % 200) as u8; 32 + i as usize]
            );
        }
        // Restore merges on top of existing state — the failover heir
        // keeps its own items, and a re-import of the same snapshot
        // applies nothing (every entry is stale-or-equal by stamp).
        kvs2.set(&mut t, b"heir-own", b"survives");
        assert_eq!(kvs2.restore(&mut t, &sealer, &reread), 0);
        assert_eq!(kvs2.get(&mut t, b"heir-own").unwrap(), b"survives");
        assert_eq!(kvs2.len(), 151);
        t.exit();
    }

    #[test]
    fn sealed_snapshot_roundtrip_via_host_fs() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        for i in 0..200u32 {
            kvs.set(
                &mut t,
                format!("snap-{i}").as_bytes(),
                &vec![i as u8; 64 + i as usize],
            );
        }
        let cipher = AesGcm128::new(&[0x51u8; 16]);
        let blob = kvs.sealed_snapshot(&mut t, &cipher, &[7u8; 12]);
        // The snapshot is sealed: no key material visible.
        assert!(!blob.windows(6).any(|w| w == b"snap-1"));

        // Write it to the host filesystem through the syscall layer
        // and read it back (as a warm-restarting server would).
        let m = Arc::clone(&t.machine);
        let mut ut = ThreadCtx::untrusted(&m, 1);
        let fd = m.fs.open(&mut ut, "/var/kvs.snapshot");
        let staging = m.alloc_untrusted(blob.len().next_power_of_two());
        ut.write_untrusted(staging, &blob);
        assert_eq!(
            m.fs.write(&mut ut, fd, staging, blob.len()).unwrap(),
            blob.len()
        );
        m.fs.seek(&mut ut, fd, 0).unwrap();
        let n = m.fs.read(&mut ut, fd, staging, blob.len()).unwrap();
        assert_eq!(n, blob.len());
        let mut reread = vec![0u8; n];
        ut.read_untrusted(staging, &mut reread);

        // A fresh store restores everything.
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs2 = Kvs::new(space.clone(), space, 8 << 20, 1024);
        kvs2.init(&mut t);
        assert_eq!(kvs2.restore_snapshot(&mut t, &cipher, &reread), 200);
        for i in (0..200u32).step_by(23) {
            assert_eq!(
                kvs2.get(&mut t, format!("snap-{i}").as_bytes()).unwrap(),
                vec![i as u8; 64 + i as usize]
            );
        }

        // A tampered snapshot is rejected.
        let mut bad = reread.clone();
        bad[40] ^= 1;
        let mut kvs3 = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::Untrusted(Arc::clone(&m)),
            8 << 20,
            1024,
        );
        kvs3.init(&mut t);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kvs3.restore_snapshot(&mut t, &cipher, &bad)
        }));
        assert!(r.is_err(), "tampered snapshot accepted");
        t.exit();
    }

    #[test]
    fn snapshot_preserves_remaining_ttl() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set_with_ttl(&mut t, b"ttl-10", b"v", 10);
        kvs.set(&mut t, b"no-ttl", b"w");
        let sealer = AesGcm128::new(&[0x66u8; 16]);
        let snap = kvs.snapshot(&mut t, &sealer, 1, 1);

        // Restore 4 simulated seconds later: 6 seconds remain.
        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut kvs2 = Kvs::new(space.clone(), space, 8 << 20, 1024);
        kvs2.init(&mut t);
        t.compute(4 * 3_400_000_000);
        assert_eq!(kvs2.restore(&mut t, &sealer, &snap), 2);
        assert_eq!(kvs2.get(&mut t, b"ttl-10").unwrap(), b"v");
        // Past the original deadline the item is gone, proving the
        // absolute expiry (not a fresh TTL) was restored.
        t.compute(7 * 3_400_000_000);
        assert_eq!(kvs2.get(&mut t, b"ttl-10"), None, "deadline preserved");
        assert_eq!(kvs2.get(&mut t, b"no-ttl").unwrap(), b"w");

        // A snapshot restored *after* the deadline drops the item
        // entirely instead of resurrecting it.
        let mut kvs3 = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::Untrusted(Arc::clone(&m)),
            8 << 20,
            1024,
        );
        kvs3.init(&mut t);
        assert_eq!(kvs3.restore(&mut t, &sealer, &snap), 1, "expired dropped");
        assert_eq!(kvs3.len(), 1);
        t.exit();
    }

    #[test]
    fn for_each_item_skips_expired() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        kvs.set_with_ttl(&mut t, b"gone-soon", b"x", 2);
        kvs.set(&mut t, b"stays", b"y");
        let mut seen = Vec::new();
        kvs.for_each_item(&mut t, |k, _| seen.push(k.to_vec()));
        assert_eq!(seen.len(), 2);
        t.compute(3 * 3_400_000_000);
        seen.clear();
        kvs.for_each_item(&mut t, |k, _| seen.push(k.to_vec()));
        assert_eq!(seen, vec![b"stays".to_vec()], "expired item visited");
        t.exit();
    }

    #[test]
    fn protocol_requests() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        let m = Arc::clone(&t.machine);
        let wire = Arc::new(crate::wire::Session::established([3u8; 16]));
        let fd = m.host.socket(&t, 64 << 10);
        let io = crate::io::ServerIoConfig::with_buf_len(32 << 10).build(
            &t,
            &[fd],
            crate::io::IoPath::Ocall,
            Arc::clone(&wire),
        );
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_set(b"alpha", b"beta")));
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_get(b"alpha")));
        assert!(kvs.handle_request(&mut t, &io));
        assert!(kvs.handle_request(&mut t, &io));
        assert!(!kvs.handle_request(&mut t, &io), "queue drained");
        // SET ack then GET hit.
        assert_eq!(wire.decrypt(&m.host.pop_response(fd).unwrap()), &[1u8]);
        let get_resp = wire.decrypt(&m.host.pop_response(fd).unwrap());
        assert_eq!(get_resp[0], 1);
        assert_eq!(&get_resp[5..], b"beta");
        t.exit();
    }

    #[test]
    fn protocol_set_with_ttl_expires_client_visible() {
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        let m = Arc::clone(&t.machine);
        let wire = Arc::new(crate::wire::Session::established([3u8; 16]));
        let fd = m.host.socket(&t, 64 << 10);
        let io = crate::io::ServerIoConfig::with_buf_len(32 << 10).build(
            &t,
            &[fd],
            crate::io::IoPath::Ocall,
            Arc::clone(&wire),
        );
        m.host.push_request(
            &t,
            fd,
            &wire.encrypt(&build_set_ttl(b"session", b"token", 5)),
        );
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_get(b"session")));
        assert!(kvs.handle_request(&mut t, &io));
        assert!(kvs.handle_request(&mut t, &io));
        assert_eq!(wire.decrypt(&m.host.pop_response(fd).unwrap()), &[1u8]);
        let hit = wire.decrypt(&m.host.pop_response(fd).unwrap());
        assert_eq!(hit[0], 1);
        assert_eq!(&hit[5..], b"token");
        // Past the deadline the same GET misses.
        t.compute(6 * 3_400_000_000);
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_get(b"session")));
        assert!(kvs.handle_request(&mut t, &io));
        assert_eq!(
            wire.decrypt(&m.host.pop_response(fd).unwrap()),
            &[0u8],
            "TTL'd item must expire"
        );
        t.exit();
    }

    /// Calcifies a rebalancing store on small items, then shifts to
    /// large ones with a fence every 64 sets; `tick` runs after each
    /// fence (the background placement's maintenance pass).
    fn shift_sizes(kvs: &mut Kvs, t: &mut ThreadCtx, mut tick: impl FnMut(&mut Kvs)) {
        kvs.init(t);
        for i in 0..20_000u32 {
            kvs.set(t, format!("a-{i}").as_bytes(), &[1u8; 100]);
        }
        for i in 0..20_000u32 {
            kvs.delete(t, format!("a-{i}").as_bytes());
        }
        for i in 0..2_000u32 {
            kvs.set(t, format!("b-{i}").as_bytes(), &[2u8; 1200]);
            if i % 64 == 0 {
                kvs.fence(t);
                tick(kvs);
            }
        }
    }

    #[test]
    fn inline_placement_moves_slabs_at_the_fence_as_stall() {
        let cfg = EngineConfig::Slab {
            rebalance: Some(crate::storage::RebalanceConfig::default()),
        };
        let (mut kvs, mut t) = untrusted_kvs_with(4 << 20, &cfg);
        let m = Arc::clone(&t.machine);
        shift_sizes(&mut kvs, &mut t, |_| {});
        let d = m.stats.snapshot();
        assert!(d.slab_moves > 0, "inline fences run the rebalancer");
        assert!(d.maint_stall_cycles > 0, "and charge it as serving stall");
        t.exit();
    }

    #[test]
    fn background_placement_moves_slabs_in_the_tick_not_the_fence() {
        let cfg = EngineConfig::Slab {
            rebalance: Some(crate::storage::RebalanceConfig::default()),
        };
        let (mut kvs, mut t) = untrusted_kvs_with(4 << 20, &cfg);
        let m = Arc::clone(&t.machine);
        kvs.set_background(true);
        shift_sizes(&mut kvs, &mut t, |_| {});
        let d = m.stats.snapshot();
        assert_eq!(d.slab_moves, 0, "background fences must not move slabs");
        assert_eq!(d.maint_stall_cycles, 0, "background fences must not stall");
        assert!(
            kvs.maintenance_tick(&mut t),
            "the tick must find the starved class"
        );
        let d = m.stats.snapshot();
        assert!(d.slab_moves > 0, "moves run in the tick");
        assert_eq!(d.maint_stall_cycles, 0, "tick work is not a serving stall");
        t.exit();
    }

    #[test]
    fn background_segment_tick_merges_proactively() {
        let cfg = EngineConfig::Segment(SegmentConfig::default());
        let (mut kvs, mut t) = untrusted_kvs_with(1 << 20, &cfg);
        let m = Arc::clone(&t.machine);
        kvs.init(&mut t);
        kvs.set_background(true);
        for i in 0..6000u32 {
            let key = format!("key-{i:05}");
            let value = vec![(i % 251) as u8; 200 + (i as usize % 200)];
            kvs.set(&mut t, key.as_bytes(), &value);
            if i % 64 == 0 {
                kvs.fence(&mut t);
                kvs.maintenance_tick(&mut t);
            }
        }
        assert!(
            m.stats.snapshot().bg_merges > 0,
            "the tick must merge proactively"
        );
        // Recent keys survive with correct bytes despite background
        // compaction.
        let mut present = 0;
        for i in 5900..6000u32 {
            let key = format!("key-{i:05}");
            if let Some(v) = kvs.get(&mut t, key.as_bytes()) {
                assert_eq!(v, vec![(i % 251) as u8; 200 + (i as usize % 200)]);
                present += 1;
            }
        }
        assert!(present > 50, "recent keys should survive background merges");
        t.exit();
    }

    #[test]
    fn set_with_no_possible_chunk_replies_not_stored() {
        // One slab, carved entirely for 64 B values: a 512 B value's
        // class owns no slab and none can be carved.
        let (mut kvs, mut t) = untrusted_kvs(1 << 20);
        kvs.init(&mut t);
        for i in 0..12_000u32 {
            kvs.set(&mut t, format!("k{i:05}").as_bytes(), &[1u8; 64]);
        }
        let (len, evictions) = (kvs.len(), kvs.evictions());
        let m = Arc::clone(&t.machine);
        let wire = Arc::new(crate::wire::Session::established([3u8; 16]));
        let fd = m.host.socket(&t, 64 << 10);
        let io = crate::io::ServerIoConfig::with_buf_len(32 << 10).build(
            &t,
            &[fd],
            crate::io::IoPath::Ocall,
            Arc::clone(&wire),
        );
        m.host
            .push_request(&t, fd, &wire.encrypt(&build_set(b"big", &[2u8; 512])));
        m.host.push_request(
            &t,
            fd,
            &wire.encrypt(&build_set_ttl(b"big", &[2u8; 512], 9)),
        );
        assert!(kvs.handle_request(&mut t, &io));
        assert!(kvs.handle_request(&mut t, &io));
        for _ in 0..2 {
            assert_eq!(wire.decrypt(&m.host.pop_response(fd).unwrap()), &[0u8]);
        }
        assert_eq!(kvs.len(), len);
        assert_eq!(kvs.evictions(), evictions, "a refused SET evicts nothing");
        t.exit();
    }

    #[test]
    fn incremental_snapshot_carries_only_the_delta() {
        use eleos_crypto::gcm::AesGcm128;
        let (mut kvs, mut t) = untrusted_kvs(8 << 20);
        kvs.init(&mut t);
        for i in 0..40u32 {
            kvs.set(&mut t, format!("base-{i}").as_bytes(), &[i as u8; 24]);
        }
        // Everything so far is stamp 0; open interval 2 for the
        // writes the delta must capture.
        kvs.set_write_version(2);
        kvs.set(&mut t, b"fresh-a", b"one");
        kvs.set(&mut t, b"base-7", b"rewritten");
        let sealer = AesGcm128::new(&[0x77u8; 16]);
        let delta = kvs.snapshot_since(&mut t, &sealer, 3, 5, 2);
        assert_eq!(delta.epoch(), 5);

        // A receiver already holding the base catches up from the
        // delta alone.
        let m = Arc::clone(&t.machine);
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mut peer = Kvs::new(space.clone(), space, 8 << 20, 1024);
        peer.init(&mut t);
        for i in 0..40u32 {
            peer.set(&mut t, format!("base-{i}").as_bytes(), &[i as u8; 24]);
        }
        assert_eq!(peer.restore(&mut t, &sealer, &delta), 2, "delta items only");
        assert_eq!(peer.get(&mut t, b"fresh-a").unwrap(), b"one");
        assert_eq!(peer.get(&mut t, b"base-7").unwrap(), b"rewritten");
        assert_eq!(peer.len(), 41);
        assert_eq!(m.stats.snapshot().snapshot_delta_items, 2);

        // base = 0 degenerates to a full snapshot.
        let full = kvs.snapshot_since(&mut t, &sealer, 3, 6, 0);
        let space2 = DataSpace::Untrusted(Arc::clone(&m));
        let mut fresh = Kvs::new(space2.clone(), space2, 8 << 20, 1024);
        fresh.init(&mut t);
        assert_eq!(fresh.restore(&mut t, &sealer, &full), 41);
        t.exit();
    }
}
