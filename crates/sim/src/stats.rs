//! Shared event counters for the simulated machine.
//!
//! A single [`Stats`] instance hangs off the machine; all components
//! (LLC, TLBs, driver, SUVM, RPC) increment it with relaxed atomics.
//! Experiments take [`Stats::snapshot`]s before and after a phase and
//! subtract them — this is how the harness reports fault and IPI counts
//! (e.g. Table 2 of the paper).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in the log-linear latency histogram: values 0–7
/// map one-to-one, every power-of-two octave above that is split into
/// 8 sub-buckets (HdrHistogram-style, ~12.5% worst-case resolution),
/// up to the full `u64` range.
pub const HIST_BUCKETS: usize = 496;

fn hist_bucket(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 3
    (((exp - 2) * 8) + ((v >> (exp - 3)) - 8)) as usize
}

fn hist_value(bucket: usize) -> u64 {
    if bucket < 8 {
        return bucket as u64;
    }
    let group = (bucket / 8) as u64; // octave index, >= 1
    let off = (bucket % 8) as u64;
    (8 + off) << (group - 1)
}

/// A live, atomically updated log-linear histogram of `u64` samples
/// (cycles of sojourn, in practice). Recording is a single relaxed
/// `fetch_add`, so any core can stamp samples concurrently.
pub struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Hist {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Clears all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl core::fmt::Debug for Hist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A point-in-time copy of a [`Hist`], with percentile readout.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0u64; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]` — the lower bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`
    /// (exact below 8, within ~12.5% above). Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return hist_value(i);
            }
        }
        hist_value(HIST_BUCKETS - 1)
    }

    /// Median sample value.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile sample value.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile sample value.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

impl core::ops::Sub for HistSnapshot {
    type Output = HistSnapshot;
    fn sub(self, rhs: HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_sub(rhs.buckets[i])),
        }
    }
}

impl core::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Hist {{ count: {}, p50: {}, p95: {}, p99: {} }}",
            self.count(),
            self.p50(),
            self.p95(),
            self.p99()
        )
    }
}

/// Maximum number of serving shards tracked by the per-shard gauges
/// (mirrors `llc::MAX_SHARD_CLASSES`).
pub const MAX_SHARDS: usize = 8;

/// Maximum number of enclave replicas tracked by the per-replica
/// shard gauges (the fleet tier's stat dimension).
pub const MAX_REPLICAS: usize = 4;

/// Live per-shard serving telemetry. Slots beyond the active shard
/// count stay zero. `backlog` and `depth` are *gauges* (last observed
/// value, written with a relaxed store); the rest are counters.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Last observed kernel-ring backlog behind each shard's socket.
    pub backlog: [AtomicU64; MAX_SHARDS],
    /// Each shard's current AIMD reap depth.
    pub depth: [AtomicU64; MAX_SHARDS],
    /// Sub-batch runs this shard stole from a loaded sibling.
    pub steals_taken: [AtomicU64; MAX_SHARDS],
    /// Sub-batch runs stolen *from* this shard by an idle sibling.
    pub steals_given: [AtomicU64; MAX_SHARDS],
    /// Connections the rebalancer migrated *off* this shard.
    pub migrations: [AtomicU64; MAX_SHARDS],
    /// Per-shard sojourn histograms (stolen messages are credited to
    /// the shard whose socket they waited on).
    pub sojourn: [Hist; MAX_SHARDS],
}

impl ShardStats {
    /// Copies all per-shard slots.
    #[must_use]
    pub fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            backlog: std::array::from_fn(|i| self.backlog[i].load(Ordering::Relaxed)),
            depth: std::array::from_fn(|i| self.depth[i].load(Ordering::Relaxed)),
            steals_taken: std::array::from_fn(|i| self.steals_taken[i].load(Ordering::Relaxed)),
            steals_given: std::array::from_fn(|i| self.steals_given[i].load(Ordering::Relaxed)),
            migrations: std::array::from_fn(|i| self.migrations[i].load(Ordering::Relaxed)),
            sojourn: std::array::from_fn(|i| self.sojourn[i].snapshot()),
        }
    }

    /// Resets every slot to zero.
    pub fn reset(&self) {
        for i in 0..MAX_SHARDS {
            self.backlog[i].store(0, Ordering::Relaxed);
            self.depth[i].store(0, Ordering::Relaxed);
            self.steals_taken[i].store(0, Ordering::Relaxed);
            self.steals_given[i].store(0, Ordering::Relaxed);
            self.migrations[i].store(0, Ordering::Relaxed);
            self.sojourn[i].reset();
        }
    }
}

/// A point-in-time copy of [`ShardStats`]. Subtraction treats the
/// counter slots as deltas; the gauges (`backlog`, `depth`) come out as
/// final-minus-initial, which after a `reset_counters` baseline is
/// simply the last observed value.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Last observed kernel-ring backlog per shard (gauge).
    pub backlog: [u64; MAX_SHARDS],
    /// Current AIMD reap depth per shard (gauge).
    pub depth: [u64; MAX_SHARDS],
    /// Steals taken per shard.
    pub steals_taken: [u64; MAX_SHARDS],
    /// Steals given per shard.
    pub steals_given: [u64; MAX_SHARDS],
    /// Migrations off each shard.
    pub migrations: [u64; MAX_SHARDS],
    /// Per-shard sojourn histograms.
    pub sojourn: [HistSnapshot; MAX_SHARDS],
}

impl core::ops::Sub for ShardStatsSnapshot {
    type Output = ShardStatsSnapshot;
    fn sub(self, rhs: ShardStatsSnapshot) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            backlog: std::array::from_fn(|i| self.backlog[i].wrapping_sub(rhs.backlog[i])),
            depth: std::array::from_fn(|i| self.depth[i].wrapping_sub(rhs.depth[i])),
            steals_taken: std::array::from_fn(|i| {
                self.steals_taken[i].wrapping_sub(rhs.steals_taken[i])
            }),
            steals_given: std::array::from_fn(|i| {
                self.steals_given[i].wrapping_sub(rhs.steals_given[i])
            }),
            migrations: std::array::from_fn(|i| self.migrations[i].wrapping_sub(rhs.migrations[i])),
            sojourn: std::array::from_fn(|i| self.sojourn[i] - rhs.sojourn[i]),
        }
    }
}

/// The fleet tier's shard telemetry: one [`ShardStats`] block per
/// enclave replica. A single-enclave server writes replica slot 0;
/// the fleet's per-replica pipelines write their own slot, so shard
/// gauges never alias across replicas.
#[derive(Debug, Default)]
pub struct FleetShardStats {
    /// Per-replica shard gauge blocks. Slots beyond the active
    /// replica count stay zero.
    pub replica: [ShardStats; MAX_REPLICAS],
}

impl FleetShardStats {
    /// Copies every replica's shard slots.
    #[must_use]
    pub fn snapshot(&self) -> FleetShardSnapshot {
        FleetShardSnapshot {
            replica: std::array::from_fn(|r| self.replica[r].snapshot()),
        }
    }

    /// Resets every replica's slots to zero.
    pub fn reset(&self) {
        for r in &self.replica {
            r.reset();
        }
    }
}

/// A point-in-time copy of [`FleetShardStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FleetShardSnapshot {
    /// Per-replica shard gauge snapshots.
    pub replica: [ShardStatsSnapshot; MAX_REPLICAS],
}

impl core::ops::Sub for FleetShardSnapshot {
    type Output = FleetShardSnapshot;
    fn sub(self, rhs: FleetShardSnapshot) -> FleetShardSnapshot {
        FleetShardSnapshot {
            replica: std::array::from_fn(|r| self.replica[r] - rhs.replica[r]),
        }
    }
}

/// Maximum number of storage size classes tracked by the per-class
/// engine gauges — covers the full slab ladder a 1 MiB slab with 1.25
/// growth from a 96 B minimum produces (~43 classes), with headroom.
pub const MAX_STORAGE_CLASSES: usize = 48;

/// Live per-size-class storage-engine telemetry. All slots are
/// *gauges*: the engine re-publishes its cumulative per-class totals
/// with relaxed stores at sub-batch fences, so slots beyond the
/// engine's class count stay zero.
#[derive(Debug)]
pub struct StorageClassStats {
    /// Cumulative GET hits served from each size class.
    pub hits: [AtomicU64; MAX_STORAGE_CLASSES],
    /// Cumulative LRU evictions charged to each size class.
    pub evictions: [AtomicU64; MAX_STORAGE_CLASSES],
    /// Cumulative SET allocations landing in each size class.
    pub sets: [AtomicU64; MAX_STORAGE_CLASSES],
}

impl Default for StorageClassStats {
    fn default() -> Self {
        Self {
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            evictions: std::array::from_fn(|_| AtomicU64::new(0)),
            sets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StorageClassStats {
    /// Copies all per-class slots.
    #[must_use]
    pub fn snapshot(&self) -> StorageClassSnapshot {
        StorageClassSnapshot {
            hits: std::array::from_fn(|i| self.hits[i].load(Ordering::Relaxed)),
            evictions: std::array::from_fn(|i| self.evictions[i].load(Ordering::Relaxed)),
            sets: std::array::from_fn(|i| self.sets[i].load(Ordering::Relaxed)),
        }
    }

    /// Resets every slot to zero.
    pub fn reset(&self) {
        for i in 0..MAX_STORAGE_CLASSES {
            self.hits[i].store(0, Ordering::Relaxed);
            self.evictions[i].store(0, Ordering::Relaxed);
            self.sets[i].store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`StorageClassStats`]. Subtraction yields
/// final-minus-initial, which after a `reset_counters` baseline is the
/// last published cumulative total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageClassSnapshot {
    /// GET hits per size class (gauge).
    pub hits: [u64; MAX_STORAGE_CLASSES],
    /// Evictions per size class (gauge).
    pub evictions: [u64; MAX_STORAGE_CLASSES],
    /// SET allocations per size class (gauge).
    pub sets: [u64; MAX_STORAGE_CLASSES],
}

impl Default for StorageClassSnapshot {
    fn default() -> Self {
        Self {
            hits: [0; MAX_STORAGE_CLASSES],
            evictions: [0; MAX_STORAGE_CLASSES],
            sets: [0; MAX_STORAGE_CLASSES],
        }
    }
}

impl core::ops::Sub for StorageClassSnapshot {
    type Output = StorageClassSnapshot;
    fn sub(self, rhs: StorageClassSnapshot) -> StorageClassSnapshot {
        StorageClassSnapshot {
            hits: std::array::from_fn(|i| self.hits[i].wrapping_sub(rhs.hits[i])),
            evictions: std::array::from_fn(|i| self.evictions[i].wrapping_sub(rhs.evictions[i])),
            sets: std::array::from_fn(|i| self.sets[i].wrapping_sub(rhs.sets[i])),
        }
    }
}

macro_rules! stats {
    ($(#[$doc:meta] $name:ident),+ $(,)?) => {
        /// Live, atomically updated counters.
        #[derive(Debug, Default)]
        pub struct Stats {
            $(#[$doc] pub $name: AtomicU64,)+
            /// Per-op sojourn (enqueue-to-reap latency) in simulated
            /// cycles, stamped by the serving path's scatter-gather
            /// reaps from the enqueue timestamps in the wire
            /// descriptors.
            pub sojourn: Hist,
            /// Per-replica, per-shard serving gauges (backlog, AIMD
            /// depth, steals, migrations, per-shard sojourn).
            pub shard: FleetShardStats,
            /// Per-size-class storage-engine gauges (hits, evictions,
            /// sets), re-published at sub-batch fences.
            pub storage: StorageClassStats,
        }

        /// A point-in-time copy of [`Stats`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[$doc] pub $name: u64,)+
            /// Per-op sojourn histogram (cycles).
            pub sojourn: HistSnapshot,
            /// Per-replica, per-shard serving gauges.
            pub shard: FleetShardSnapshot,
            /// Per-size-class storage-engine gauges.
            pub storage: StorageClassSnapshot,
        }

        impl Stats {
            /// Copies all counters.
            #[must_use]
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    sojourn: self.sojourn.snapshot(),
                    shard: self.shard.snapshot(),
                    storage: self.storage.snapshot(),
                }
            }

            /// Resets all counters to zero.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
                self.sojourn.reset();
                self.shard.reset();
                self.storage.reset();
            }
        }

        impl core::ops::Sub for StatsSnapshot {
            type Output = StatsSnapshot;
            fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.wrapping_sub(rhs.$name),)+
                    sojourn: self.sojourn - rhs.sojourn,
                    shard: self.shard - rhs.shard,
                    storage: self.storage - rhs.storage,
                }
            }
        }
    };
}

stats! {
    /// LLC hits.
    llc_hits,
    /// LLC misses.
    llc_misses,
    /// LLC misses whose target was EPC.
    llc_misses_epc,
    /// Dirty-line write-backs out of the LLC.
    llc_writebacks,
    /// LLC misses served from a remote NUMA node's DRAM (each paid the `numa_remote` hop; always zero on a single-node machine).
    numa_remote_misses,
    /// TLB hits.
    tlb_hits,
    /// TLB misses (page walks).
    tlb_misses,
    /// Full TLB flushes (enclave exits, AEX).
    tlb_flushes,
    /// Synchronous enclave exits (EEXIT executed).
    enclave_exits,
    /// Enclave (re-)entries.
    enclave_enters,
    /// OCALLs performed through the SDK path.
    ocalls,
    /// System calls executed by the host OS.
    syscalls,
    /// Kernel-metadata scratch walks performed by host syscalls (one per trap that touches socket state, regardless of batch size).
    kernel_meta_reads,
    /// Asynchronous enclave exits caused by IPIs.
    aex,
    /// Inter-processor interrupts sent by the driver.
    ipis,
    /// Hardware EPC page faults handled by the driver.
    hw_faults,
    /// EPC pages evicted by the driver (EWB).
    hw_evictions,
    /// EPC pages loaded by the driver (ELDU).
    hw_loads,
    /// SUVM major faults (page not in EPC++).
    suvm_major_faults,
    /// SUVM minor faults (page resident, spointer unlinked).
    suvm_minor_faults,
    /// SUVM page evictions from EPC++.
    suvm_evictions,
    /// SUVM evictions skipped because the page was clean.
    suvm_clean_skips,
    /// SUVM direct (sub-page) backing-store accesses.
    suvm_direct_accesses,
    /// RPC calls served exit-lessly.
    rpc_calls,
    /// RPC batches submitted (a `submit_batch`/`wait_all` round trip).
    rpc_batches,
    /// RPC posts that found the ring full and had to back off.
    rpc_ring_full,
    /// RPC worker poll sweeps that found no posted job.
    rpc_idle_polls,
    /// Bounded-spin yields: a claim attempt exceeded the idle-poll threshold and ceded the CPU with `thread::yield_now`.
    rpc_idle_yields,
    /// RPC calls to unregistered function ids (error sentinel returned).
    rpc_errors,
    /// Bytes moved by seal/unseal operations.
    sealed_bytes,
    /// Wire-crypto batches processed (one setup amortized per batch).
    crypto_batches,
    /// Wire messages sealed/opened through the batch pipeline.
    crypto_msgs,
    /// Fixed setup cycles charged by the wire-crypto pipeline (full for batch leaders, a quarter for follow-ons).
    crypto_setup_cycles,
    /// SUVM dirty victims parked on the write-back queue (batched mode).
    suvm_wb_queued,
    /// SUVM write-back drains that sealed at least one page.
    suvm_wb_batches,
    /// SUVM pages sealed by batched write-back drains.
    suvm_wb_pages,
    /// Queued SUVM victims rescued by a pin before write-back.
    suvm_wb_rescues,
    /// High-water mark of the SUVM write-back queue depth.
    suvm_wb_queue_peak,
    /// SUVM page-cache hits on probation-class frames.
    suvm_hits_probation,
    /// SUVM page-cache hits on protected-class frames.
    suvm_hits_protected,
    /// SUVM evictions of probation-class frames.
    suvm_evictions_probation,
    /// SUVM evictions of protected-class frames.
    suvm_evictions_protected,
    /// High-water mark of EPC frames any enclave held *beyond* its fair share while siblings were active (fleet contention pressure).
    epc_over_share_peak,
    /// Snapshots sealed by the fleet tier (quiesce-at-fence captures).
    fleet_snapshots,
    /// Snapshots restored into a replica (failover takeovers and cold rejoins).
    fleet_restores,
    /// Replica failovers: a replica's shards reassigned to survivors.
    fleet_failovers,
    /// Messages moved over exit-less cross-enclave channels.
    xchan_msgs,
    /// Payload bytes moved over exit-less cross-enclave channels.
    xchan_bytes,
    /// Attestation handshakes completed (evidence verified, session established).
    session_handshakes,
    /// Session key-epoch rotations begun (double-buffered, stall-free).
    rekeys,
    /// Sessions revoked (shard slot killed, queued traffic dropped).
    revocations,
    /// Messages rejected without serving: bad evidence, replayed handshake nonce, unknown key epoch, or a revoked session.
    auth_failures,
    /// Whole slabs the rebalancer reassigned from a cold class to a starved one.
    slab_moves,
    /// Live items relocated out of departing slabs during rebalancing moves.
    slab_items_relocated,
    /// Segment-store merge passes (compacting a TTL bucket's oldest segments).
    seg_merges,
    /// Whole segments reclaimed proactively because every item had expired.
    seg_expired_segments,
    /// Items dropped because their TTL deadline passed (lazy get-side expiry plus segment expiry sweeps).
    expired_items,
    /// Delta-snapshot chunks carried over the cross-enclave channel by the maintenance plane.
    maint_chunks,
    /// Serving-core cycles stalled in maintenance placed inline (slab moves, segment expiry/merges, fleet snapshot+restore); ~0 when the background maintenance plane runs the byte-work off-core.
    maint_stall_cycles,
    /// Items carried by incremental (delta) snapshots streamed by the maintenance plane.
    snapshot_delta_items,
    /// Segment-store merge passes run off the serving path by the background maintenance tick.
    bg_merges,
    /// Heartbeat ticks that found a replica's pump counter stalled (failure-detector evidence).
    hb_misses,
}

impl Stats {
    /// Convenience relaxed increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience relaxed add.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Convenience relaxed high-water mark update.
    pub fn peak(counter: &AtomicU64, v: u64) {
        counter.fetch_max(v, Ordering::Relaxed);
    }

    /// Convenience relaxed gauge store (for the per-shard gauges).
    pub fn set(counter: &AtomicU64, v: u64) {
        counter.store(v, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// A compact human-readable summary of the non-zero counters,
    /// grouped the way the experiments discuss them.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut put = |name: &str, v: u64| {
            if v > 0 {
                parts.push(format!("{name}={v}"));
            }
        };
        put("exits", self.enclave_exits);
        put("ocalls", self.ocalls);
        put("rpc", self.rpc_calls);
        put("rpc_batches", self.rpc_batches);
        put("rpc_ring_full", self.rpc_ring_full);
        put("rpc_idle_yields", self.rpc_idle_yields);
        put("rpc_errors", self.rpc_errors);
        put("syscalls", self.syscalls);
        put("kernel_meta", self.kernel_meta_reads);
        put("crypto_batches", self.crypto_batches);
        put("crypto_msgs", self.crypto_msgs);
        put("crypto_setup", self.crypto_setup_cycles);
        put("hw_faults", self.hw_faults);
        put("hw_evictions", self.hw_evictions);
        put("ipis", self.ipis);
        put("aex", self.aex);
        put("suvm_major", self.suvm_major_faults);
        put("suvm_minor", self.suvm_minor_faults);
        put("suvm_evict", self.suvm_evictions);
        put("clean_skips", self.suvm_clean_skips);
        put("direct", self.suvm_direct_accesses);
        put("wb_queued", self.suvm_wb_queued);
        put("wb_batches", self.suvm_wb_batches);
        put("wb_pages", self.suvm_wb_pages);
        put("wb_rescues", self.suvm_wb_rescues);
        put("wb_peak", self.suvm_wb_queue_peak);
        put("hits_probation", self.suvm_hits_probation);
        put("hits_protected", self.suvm_hits_protected);
        put("evict_probation", self.suvm_evictions_probation);
        put("evict_protected", self.suvm_evictions_protected);
        put("tlb_flushes", self.tlb_flushes);
        put("llc_miss", self.llc_misses);
        put(
            "steals",
            self.shard
                .replica
                .iter()
                .map(|r| r.steals_taken.iter().sum::<u64>())
                .sum(),
        );
        put(
            "migrations",
            self.shard
                .replica
                .iter()
                .map(|r| r.migrations.iter().sum::<u64>())
                .sum(),
        );
        put("epc_over_share", self.epc_over_share_peak);
        put("snapshots", self.fleet_snapshots);
        put("restores", self.fleet_restores);
        put("failovers", self.fleet_failovers);
        put("xchan_msgs", self.xchan_msgs);
        put("handshakes", self.session_handshakes);
        put("rekeys", self.rekeys);
        put("revocations", self.revocations);
        put("auth_failures", self.auth_failures);
        put("slab_moves", self.slab_moves);
        put("slab_relocated", self.slab_items_relocated);
        put("seg_merges", self.seg_merges);
        put("seg_expired", self.seg_expired_segments);
        put("expired", self.expired_items);
        put("maint_chunks", self.maint_chunks);
        put("maint_stall", self.maint_stall_cycles);
        put("delta_items", self.snapshot_delta_items);
        put("bg_merges", self.bg_merges);
        put("hb_misses", self.hb_misses);
        if self.sojourn.count() > 0 {
            parts.push(format!(
                "sojourn_p50={} sojourn_p95={} sojourn_p99={}",
                self.sojourn.p50(),
                self.sojourn.p95(),
                self.sojourn.p99()
            ));
        }
        if parts.is_empty() {
            "(idle)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl core::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = Stats::default();
        Stats::bump(&s.llc_hits);
        Stats::add(&s.llc_misses, 5);
        let a = s.snapshot();
        Stats::add(&s.llc_misses, 2);
        Stats::bump(&s.hw_faults);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.llc_hits, 0);
        assert_eq!(d.llc_misses, 2);
        assert_eq!(d.hw_faults, 1);
        assert_eq!(b.llc_misses, 7);
    }

    #[test]
    fn summary_shows_only_nonzero() {
        let s = Stats::default();
        assert_eq!(s.snapshot().summary(), "(idle)");
        Stats::add(&s.enclave_exits, 3);
        Stats::bump(&s.hw_faults);
        let text = s.snapshot().to_string();
        assert!(text.contains("exits=3"));
        assert!(text.contains("hw_faults=1"));
        assert!(!text.contains("ipis"));
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = Stats::default();
        Stats::bump(&s.ipis);
        Stats::bump(&s.aex);
        s.sojourn.record(1234);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.ipis, 0);
        assert_eq!(snap.aex, 0);
        assert_eq!(snap.sojourn.count(), 0);
    }

    #[test]
    fn hist_buckets_are_exact_below_eight() {
        let h = Hist::default();
        for v in 0..8u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.percentile(1.0 / 8.0), 0);
        assert_eq!(s.percentile(1.0), 7);
    }

    #[test]
    fn hist_resolution_stays_within_one_eighth() {
        // The log-linear scheme guarantees the reported bucket value is
        // within 12.5% of any recorded sample.
        for v in [8u64, 9, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let h = Hist::default();
            h.record(v);
            let p = h.snapshot().percentile(1.0);
            assert!(p <= v, "bucket value {p} above sample {v}");
            assert!(
                (v - p) as f64 <= v as f64 / 8.0 + 1.0,
                "bucket value {p} too far below sample {v}"
            );
        }
    }

    #[test]
    fn hist_percentiles_and_delta() {
        let h = Hist::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), hist_value(hist_bucket(100)));
        assert_eq!(s.p95(), hist_value(hist_bucket(100)));
        assert_eq!(s.p99(), hist_value(hist_bucket(100)));
        assert_eq!(s.percentile(1.0), hist_value(hist_bucket(100_000)));
        // Subtracting an earlier snapshot removes its samples.
        h.record(100);
        let d = h.snapshot() - s;
        assert_eq!(d.count(), 1);
        assert_eq!(d.p99(), hist_value(hist_bucket(100)));
    }

    #[test]
    fn hist_bucket_value_is_monotone_inverse() {
        let mut last = None;
        for b in 0..HIST_BUCKETS {
            let v = hist_value(b);
            assert_eq!(hist_bucket(v), b, "bucket {b} not a fixed point");
            if let Some(prev) = last {
                assert!(v > prev, "bucket values must be strictly increasing");
            }
            last = Some(v);
        }
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn shard_gauges_snapshot_and_delta() {
        let s = Stats::default();
        Stats::set(&s.shard.replica[0].backlog[1], 7);
        Stats::set(&s.shard.replica[0].depth[1], 4);
        Stats::bump(&s.shard.replica[0].steals_taken[0]);
        Stats::bump(&s.shard.replica[0].steals_given[1]);
        Stats::add(&s.shard.replica[0].migrations[1], 2);
        s.shard.replica[0].sojourn[1].record(100);
        let base = FleetShardSnapshot::default();
        let d = (s.snapshot().shard - base).replica[0];
        assert_eq!(d.backlog[1], 7);
        assert_eq!(d.depth[1], 4);
        assert_eq!(d.steals_taken[0], 1);
        assert_eq!(d.steals_given[1], 1);
        assert_eq!(d.migrations[1], 2);
        assert_eq!(d.sojourn[1].count(), 1);
        assert_eq!(d.sojourn[0].count(), 0);
        let text = s.snapshot().summary();
        assert!(text.contains("steals=1"), "{text}");
        assert!(text.contains("migrations=2"), "{text}");
        s.reset();
        assert_eq!(s.snapshot().shard, FleetShardSnapshot::default());
    }

    #[test]
    fn replica_gauges_stay_disjoint_across_slots() {
        let s = Stats::default();
        Stats::set(&s.shard.replica[0].backlog[2], 3);
        Stats::set(&s.shard.replica[1].backlog[2], 9);
        Stats::bump(&s.shard.replica[1].steals_taken[0]);
        let snap = s.snapshot().shard;
        assert_eq!(snap.replica[0].backlog[2], 3);
        assert_eq!(snap.replica[1].backlog[2], 9);
        assert_eq!(snap.replica[0].steals_taken[0], 0);
        assert_eq!(snap.replica[1].steals_taken[0], 1);
        // The summary sums steal counters across every replica slot.
        assert!(s.snapshot().summary().contains("steals=1"));
    }

    #[test]
    fn summary_includes_sojourn_percentiles() {
        let s = Stats::default();
        s.sojourn.record(64);
        let text = s.snapshot().summary();
        assert!(text.contains("sojourn_p50=64"), "{text}");
    }
}
