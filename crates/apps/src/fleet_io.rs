//! The replicated serving tier: a fleet of enclave replicas behind
//! the shard router.
//!
//! PR 6 sharded serving *within* one enclave: one reap→decrypt→serve→
//! seal→send pipeline per socket, connections pinned to shards. This
//! module lifts the same structure one level: a [`FleetKvs`] owns a
//! [`Fleet`] of N enclave replicas, and the
//! [`ShardMap`] router gains a third hop — connection → shard →
//! **owning replica**. Each replica runs the full pipeline over only
//! its owned slice of the shared socket set
//! ([`ServerIo::recv_batch_on`]), so per-connection FIFO order is a
//! per-shard property exactly as before, just with shards partitioned
//! across enclaves instead of merged into one.
//!
//! # One maintenance path, two placements
//!
//! Every piece of fleet upkeep — failover, rejoin, engine byte-work,
//! incremental delta snapshots — is one protocol, and
//! [`FleetConfig::maintenance`] decides only *where* its byte-work
//! runs:
//!
//! - **background** (the plane is set): on the dedicated maintenance
//!   core, driven by [`FleetKvs::maintenance_tick`] (the same shape as
//!   the SUVM swapper's worker). Serving-core fences only publish
//!   counters.
//! - **inline** (no plane): on the serving thread of the replica whose
//!   store is read or written — the victim or donor snapshots on its
//!   own core, each receiver restores on its own core — and every
//!   such cycle is charged to `maint_stall_cycles`. Engine upkeep runs
//!   at each serving fence ([`Kvs::fence`]).
//!
//! # Failover (kill at a fence)
//!
//! Replica death is modeled at sub-batch fences — the only points
//! where the pipeline holds no half-served requests. [`FleetKvs::kill`]:
//!
//! 1. the victim flushes pending sends and (when SUVM-backed)
//!    [`quiesces`](Suvm::quiesce) its secure memory — every reply it
//!    ever reaped is on the wire, every dirty page sealed home;
//! 2. it seals its *final delta* — every write at or above its delta
//!    base — as a portable [`Snapshot`] under the fleet-shared
//!    [`Sealer`] and streams it in bounded chunks
//!    ([`EnclaveChannel::send_chunked`]) to **every** survivor:
//!    ciphertext through untrusted memory, no host round-trip;
//! 3. the enclave dies: the driver reclaims its EPC frames and sealed
//!    swap;
//! 4. every survivor restores the delta **before** its next reap, then
//!    the router reassigns the victim's shards to the heir.
//!
//! Without delta rounds every base stays 0, so an inline kill ships a
//! full image. Broadcasting to all survivors, not just the heir, keeps
//! the invariant that every serving store holds all streamed state,
//! which is what lets any survivor donate or inherit at a later fence.
//!
//! Nothing is lost because host-side socket queues outlive the
//! enclave: requests the victim never reaped are still queued, and
//! the heir reaps them — in arrival order — once it owns the shards.
//! Replies stay byte-identical to an unkilled run because the restore
//! merges the victim's items before the heir serves the victim's
//! connections.
//!
//! # Rejoin
//!
//! [`FleetKvs::respawn`] brings a dead slot back as a **fresh**
//! enclave (new sealing identity — which is why snapshots are sealed
//! under the shared fleet key, not per-enclave identities). The
//! current owner of the slot's original shards streams a full image
//! (delta from base 0); the cold replica restores it, is marked
//! serving, and takes its original (round-robin) shard slice back.
//! Donating from the owner — not an arbitrary survivor — is what makes
//! arbitrary kill/respawn schedules safe: the owner's store is the one
//! that has been serving those connections, so it supersets everything
//! the rejoining replica must know.
//!
//! # Versioned merges
//!
//! After a rejoin a donor still carries copies of keys it no longer
//! serves; if that donor is later killed, its snapshot holds *stale*
//! values for those keys. Every restore therefore merges
//! last-writer-wins on a per-item write stamp
//! ([`Kvs::set_write_version`]): stores advance to stamp `epoch + 1`
//! after every fence, a fence-`epoch` snapshot carries stamps at most
//! `epoch`, and a re-imported stale copy can never clobber the value a
//! fresher interval wrote (the kill A → respawn A → kill B schedule
//! exercises exactly this). Delta epochs are checked monotone per
//! *receiver* (a broadcast delivers one epoch to many stores).
//!
//! # Background maintenance plane
//!
//! With [`FleetConfig::with_maintenance`], [`FleetKvs::maintenance_tick`]
//! adds what only a separate core can do:
//!
//! - **incremental delta rounds** stream each replica's writes since
//!   its last round to every serving peer, so a later kill carries
//!   only the writes since that round;
//! - a **failure detector** compares per-replica heartbeats (bumped
//!   by every [`FleetKvs::pump_replica`]) across ticks and drives
//!   [`FleetKvs::kill`] itself, and queued rejoins
//!   ([`FleetKvs::request_rejoin`]) run [`FleetKvs::respawn`].
//!
//! Reply transparency across the two placements is pinned by
//! `tests/fleet_equivalence.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use eleos_core::{Snapshot, Suvm, SuvmConfig};
use eleos_crypto::Sealer;
use eleos_enclave::fleet::{Fleet, ReplicaState};
use eleos_enclave::host::Fd;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::EnclaveChannel;
use eleos_sim::stats::Stats;

use crate::io::{IoPath, ServerIo, ServerIoConfig};
use crate::kvs::Kvs;
use crate::loadgen::ShardMap;
use crate::space::DataSpace;
use crate::storage::EngineConfig;
use crate::wire::Session;

/// Channel message kind: a wire-session key-epoch announcement (4 LE
/// bytes) — the rekey initiator tells every peer which epoch now
/// seals replies, so a fleet never serves half its shards under a key
/// the router's client side has already retired.
pub const MSG_REKEY: u8 = 3;
/// Channel message kind: the BEGIN frame of a chunked delta snapshot
/// ([`EnclaveChannel::send_chunked`] framing; the header carries the
/// 8-byte delta epoch).
pub const MSG_DELTA_BEGIN: u8 = 4;
/// Channel message kind: one bounded chunk of a delta snapshot.
pub const MSG_DELTA_CHUNK: u8 = 5;

/// Delta-snapshot chunk size when no plane sets one (inline placement).
const DEFAULT_CHUNK_BYTES: usize = 32 << 10;

/// Tunables for the background maintenance plane (see the module
/// docs). Enabling it ([`FleetConfig::with_maintenance`]) places all
/// maintenance byte-work on `core` and arms the failure detector and
/// delta rounds of [`FleetKvs::maintenance_tick`].
#[derive(Clone)]
pub struct MaintenanceConfig {
    /// The core the maintenance plane runs on. Must not be a serving
    /// core ([`FleetKvs::new`] panics otherwise): its cycles would
    /// land on a serving core without being counted as stall.
    pub core: usize,
    /// Consecutive heartbeat-less ticks before the failure detector
    /// declares a serving replica dead and fails it over.
    pub hb_miss_threshold: u64,
    /// Chunk size for streamed delta snapshots: bounds how much of
    /// the cross-enclave ring one delta occupies at a time.
    pub chunk_bytes: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            core: 1,
            hb_miss_threshold: 3,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }
}

/// Mutable maintenance state, all behind one lock: the failure
/// detector's bookkeeping, per-sender delta bases, per-receiver delta
/// epochs, and the rejoin queue. The delta bookkeeping exists with or
/// without the plane; the detector and the queue only run in ticks.
struct MaintState {
    /// Heartbeat value last observed per replica.
    last_hb: Vec<u64>,
    /// Consecutive ticks without heartbeat progress per replica.
    misses: Vec<u64>,
    /// Per-sender write-stamp floor for the next delta: everything
    /// below it has already been streamed to every serving peer.
    delta_base: Vec<u64>,
    /// Per-receiver highest delta epoch applied (monotonicity check —
    /// deliberately per-receiver, a broadcast delivers one epoch to
    /// many receivers).
    last_delta_epoch: Vec<u64>,
    /// Dead slots queued for background respawn.
    rejoin: Vec<usize>,
    /// Maintenance-core cycles spent on detector-driven failovers.
    auto_failover_cycles: u64,
    /// Maintenance-core cycles spent on queued rejoins.
    auto_recovery_cycles: u64,
}

impl MaintState {
    fn new(replicas: usize) -> Self {
        Self {
            last_hb: vec![0; replicas],
            misses: vec![0; replicas],
            delta_base: vec![0; replicas],
            last_delta_epoch: vec![0; replicas],
            rejoin: Vec::new(),
            auto_failover_cycles: 0,
            auto_recovery_cycles: 0,
        }
    }
}

/// Fleet-level tunables.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of replica slots.
    pub replicas: usize,
    /// Linear EPC bytes per replica enclave.
    pub linear_bytes: usize,
    /// Cross-enclave channel ring capacity (must hold one full-image
    /// delta per survivor of a kill).
    pub channel_cap: usize,
    /// Per-replica KVS value-pool limit.
    pub mem_limit: u64,
    /// Per-replica KVS hash buckets.
    pub buckets: u64,
    /// When set, each replica's kv data lives in its own SUVM
    /// instance (metadata stays clear, §5.1) and the replicas contend
    /// on the global EPC allocator; when `None`, kv data lives in
    /// enclave-linear memory.
    pub suvm: Option<SuvmConfig>,
    /// Serving cores: replica `r` runs on `cores[r % cores.len()]`.
    /// The default (`[0]`) time-multiplexes every replica over one
    /// serving core — deterministic, and directly comparable to the
    /// single-enclave pipeline. A real fleet gives each replica its
    /// own core; pair that with [`FleetKvs::sync_clocks`] barriers so
    /// per-op timestamps stay on one timebase.
    pub cores: Vec<usize>,
    /// Storage engine every replica runs (the item-log snapshot format
    /// is engine-neutral, so a fleet could even mix engines across
    /// replicas — this knob keeps them uniform).
    pub engine: EngineConfig,
    /// Where maintenance byte-work runs: on the background plane's
    /// core when set, inline on the serving cores when `None` (see
    /// the module docs).
    pub maintenance: Option<MaintenanceConfig>,
}

impl FleetConfig {
    /// A small fleet sized for tests and benches: enclave-linear kv
    /// data, 1 MiB enclaves, a 4 MiB channel, every replica
    /// multiplexed on core 0.
    #[must_use]
    pub fn small(replicas: usize) -> Self {
        Self {
            replicas,
            linear_bytes: 1 << 20,
            channel_cap: 4 << 20,
            mem_limit: 8 << 20,
            buckets: 1024,
            suvm: None,
            cores: vec![0],
            engine: EngineConfig::default(),
            maintenance: None,
        }
    }

    /// Enables the background maintenance plane.
    #[must_use]
    pub fn with_maintenance(mut self, m: MaintenanceConfig) -> Self {
        self.maintenance = Some(m);
        self
    }

    /// Pins replica serving loops to `cores` (round-robin when fewer
    /// cores than replicas).
    ///
    /// # Panics
    /// Panics when `cores` is empty.
    #[must_use]
    pub fn on_cores(mut self, cores: &[usize]) -> Self {
        assert!(!cores.is_empty(), "a fleet needs at least one serving core");
        self.cores = cores.to_vec();
        self
    }
}

/// What one failover cost.
#[derive(Debug, Clone, Copy)]
pub struct FailoverReport {
    /// The surviving replica that inherited the victim's shards.
    pub heir: usize,
    /// Shards reassigned at the fence.
    pub shards_moved: usize,
    /// Serialized final-delta size carried over the channel (once per
    /// survivor).
    pub snapshot_bytes: usize,
    /// Cycles the victim's snapshot and the survivors' restores took,
    /// on whichever cores they were placed.
    pub cycles: u64,
}

/// What one rejoin cost.
#[derive(Debug, Clone, Copy)]
pub struct RejoinReport {
    /// The serving replica that donated its state.
    pub donor: usize,
    /// Shards the rejoined replica took back.
    pub shards_taken: usize,
    /// Serialized snapshot size carried over the channel.
    pub snapshot_bytes: usize,
    /// Cycles the donor's snapshot and the rejoiner's restore took, on
    /// whichever cores they were placed.
    pub cycles: u64,
}

/// One live replica's serving state: its enclave-entered thread, its
/// pipelines over the shared socket set, and its store.
struct Replica {
    ctx: ThreadCtx,
    io: ServerIo,
    kvs: Kvs,
    suvm: Option<Arc<Suvm>>,
}

/// A KVS served by a fleet of enclave replicas (see the module docs).
pub struct FleetKvs {
    machine: Arc<SgxMachine>,
    fleet: Fleet,
    map: Arc<ShardMap>,
    chan: Arc<EnclaveChannel>,
    sealer: Arc<dyn Sealer>,
    cfg: FleetConfig,
    io_cfg: ServerIoConfig,
    path: IoPath,
    session: Arc<Session>,
    fds: Vec<Fd>,
    /// One slot per replica index; `None` while Cold/Dead.
    slots: Vec<Mutex<Option<Replica>>>,
    /// Snapshot epoch: bumped by every kill, respawn and delta send,
    /// carried in each delta's BEGIN header.
    epoch: AtomicU64,
    /// Per-replica heartbeats, bumped lock-free by every pump and read
    /// by the plane's failure detector.
    hb: Vec<AtomicU64>,
    maint: Mutex<MaintState>,
}

impl FleetKvs {
    /// Builds the fleet: `cfg.replicas` enclaves, each with its own
    /// [`ServerIo`] over the **same** socket set `fds` (reaping only
    /// owned shards) and its own [`Kvs`] seeded identically by
    /// `seed`. All replicas start serving; shard ownership starts
    /// round-robin ([`ShardMap::with_replicas`]).
    ///
    /// # Panics
    /// Panics when `cfg.replicas` is zero, exceeds the per-replica
    /// stat gauges, the maintenance core is one of `cfg.cores`, or the
    /// config/socket-set combination violates the
    /// [`ServerIoConfig::build`] invariants.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: &Arc<SgxMachine>,
        fds: &[Fd],
        io_cfg: ServerIoConfig,
        path: IoPath,
        session: Arc<Session>,
        sealer: Arc<dyn Sealer>,
        cfg: FleetConfig,
        mut seed: impl FnMut(&mut ThreadCtx, &mut Kvs),
    ) -> Self {
        assert!(cfg.replicas > 0, "a fleet needs at least one replica");
        if let Some(m) = &cfg.maintenance {
            assert!(
                !cfg.cores.contains(&m.core),
                "maintenance core {} is a serving core",
                m.core
            );
        }
        let fleet = Fleet::new(machine, cfg.replicas, cfg.linear_bytes);
        let map = ShardMap::with_replicas(fds.len(), cfg.replicas);
        let chan = EnclaveChannel::new(machine, cfg.channel_cap);
        let this = Self {
            machine: Arc::clone(machine),
            fleet,
            map,
            chan,
            sealer,
            io_cfg,
            path,
            session,
            fds: fds.to_vec(),
            slots: Vec::new(),
            epoch: AtomicU64::new(0),
            hb: (0..cfg.replicas).map(|_| AtomicU64::new(0)).collect(),
            maint: Mutex::new(MaintState::new(cfg.replicas)),
            cfg,
        };
        let mut slots = Vec::with_capacity(this.cfg.replicas);
        for r in 0..this.cfg.replicas {
            let mut rep = this.wire_replica(r);
            seed(&mut rep.ctx, &mut rep.kvs);
            // Seed items carry stamp 0 (identical in every replica);
            // serving-interval writes start at 1 so the versioned
            // restore merge can tell them apart.
            rep.kvs.set_write_version(1);
            this.fleet.mark_serving(r);
            slots.push(Mutex::new(Some(rep)));
        }
        Self { slots, ..this }
    }

    /// The core replica `r` serves on.
    fn core_of(&self, r: usize) -> usize {
        self.cfg.cores[r % self.cfg.cores.len()]
    }

    /// Wires replica `r`'s runtime onto its (Restoring) enclave: an
    /// entered thread on the replica's serving core, a store, and
    /// pipelines over the full socket set tagged with the replica's
    /// gauge slot.
    fn wire_replica(&self, r: usize) -> Replica {
        let enclave = self.fleet.enclave(r);
        let mut ctx = ThreadCtx::for_enclave(&self.machine, &enclave, self.core_of(r));
        ctx.enter();
        let (data, suvm) = match &self.cfg.suvm {
            Some(suvm_cfg) => {
                let suvm = Suvm::new(&ctx, suvm_cfg.clone());
                (DataSpace::suvm(&suvm), Some(suvm))
            }
            None => (DataSpace::Enclave(Arc::clone(&enclave)), None),
        };
        let meta = DataSpace::Untrusted(Arc::clone(&self.machine));
        let mut kvs = Kvs::with_engine(
            meta,
            data,
            self.cfg.mem_limit,
            self.cfg.buckets,
            &self.cfg.engine,
        );
        kvs.set_background(self.cfg.maintenance.is_some());
        kvs.init(&mut ctx);
        let mut cfg = self.io_cfg.clone().replica(r);
        if cfg.balance.is_some() {
            cfg = cfg.routed(Arc::clone(&self.map));
        }
        let io = cfg.build(
            &ctx,
            &self.fds,
            self.path.clone(),
            Arc::clone(&self.session),
        );
        Replica { ctx, io, kvs, suvm }
    }

    /// The router (connection → shard → replica) shared with the load
    /// generator.
    #[must_use]
    pub fn map(&self) -> &Arc<ShardMap> {
        &self.map
    }

    /// The underlying fleet (membership and lifecycle states).
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The current snapshot epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Rotates the fleet's wire-session key epoch at a fence.
    /// `initiator` retires any still-draining rotation, derives the
    /// next epoch key (double-buffered — no serving stall anywhere in
    /// the fleet) and announces the new epoch over the exit-less
    /// channel; every other serving replica acknowledges the
    /// announcement before its next reap, so no replica seals replies
    /// under an epoch its peers have not heard of. Returns the new
    /// epoch.
    ///
    /// # Panics
    /// Panics when `initiator` is not serving, or when the shared
    /// session is not in a rotatable state (never established, or
    /// revoked).
    pub fn rekey_wire(&self, initiator: usize) -> u32 {
        assert_eq!(
            self.fleet.state(initiator),
            ReplicaState::Serving,
            "rekey initiator {initiator} must be serving"
        );
        let peers: Vec<usize> = self
            .fleet
            .serving()
            .into_iter()
            .filter(|&r| r != initiator)
            .collect();
        let to = {
            let mut slot = self.slots[initiator].lock().expect("fleet slot poisoned");
            let rep = slot.as_mut().expect("serving replica must be wired");
            self.session.finish_rekey();
            self.session.begin_rekey(&mut rep.ctx);
            let to = self.session.epoch();
            for _ in &peers {
                self.chan.send(&mut rep.ctx, MSG_REKEY, &to.to_le_bytes());
            }
            to
        };
        for &r in &peers {
            let mut slot = self.slots[r].lock().expect("fleet slot poisoned");
            let rep = slot.as_mut().expect("serving replica must be wired");
            let (kind, eb) = self
                .chan
                .recv(&mut rep.ctx)
                .expect("rekey protocol: announcement staged");
            assert_eq!(kind, MSG_REKEY, "rekey protocol: unexpected message kind");
            let heard = u32::from_le_bytes(eb.try_into().expect("4-byte epoch"));
            assert_eq!(heard, to, "rekey announcement must carry the new epoch");
        }
        to
    }

    /// Runs one serving round: every serving replica reaps its owned
    /// shards, serves the batch, and sends the replies. Returns the
    /// number of requests handled across the fleet.
    pub fn pump(&self) -> usize {
        let mut total = 0;
        for r in 0..self.slots.len() {
            total += self.pump_replica(r);
        }
        total
    }

    /// One serving round for replica `r` alone (0 when it is not
    /// serving or owns no shards).
    pub fn pump_replica(&self, r: usize) -> usize {
        if self.fleet.state(r) != ReplicaState::Serving {
            return 0;
        }
        // A pumped replica is a live replica: the heartbeat feeds the
        // background failure detector (a mute replica stops bumping
        // and gets failed over after `hb_miss_threshold` ticks).
        self.hb[r].fetch_add(1, Ordering::Relaxed);
        let owned = self.map.shards_of(r);
        if owned.is_empty() {
            return 0;
        }
        let mut slot = self.slots[r].lock().expect("fleet slot poisoned");
        let rep = slot.as_mut().expect("serving replica must be wired");
        rep.kvs.handle_batch_on(&mut rep.ctx, &rep.io, &owned)
    }

    /// Flushes every serving replica's pending (double-buffered)
    /// sends — the end-of-run fence.
    pub fn flush(&self) {
        for r in self.fleet.serving() {
            let mut slot = self.slots[r].lock().expect("fleet slot poisoned");
            if let Some(rep) = slot.as_mut() {
                rep.io.flush(&mut rep.ctx);
            }
        }
    }

    /// The maintenance state, locked.
    fn state(&self) -> MutexGuard<'_, MaintState> {
        self.maint.lock().expect("maintenance state poisoned")
    }

    /// Runs `work` against replica `r`'s store on the configured
    /// placement: `rep.ctx` is swapped for an entered thread on the
    /// maintenance core when the plane is set, and is the replica's own
    /// serving thread otherwise. Returns the result and the cycles the
    /// work took on that core; inline cycles also count as
    /// serving-path stall when `stalls` is set.
    fn placed<T>(
        &self,
        r: usize,
        rep: &mut Replica,
        stalls: bool,
        work: impl FnOnce(&mut Replica) -> T,
    ) -> (T, u64) {
        let Some(m) = &self.cfg.maintenance else {
            let t0 = rep.ctx.now();
            let out = work(rep);
            let dt = rep.ctx.now() - t0;
            if stalls {
                Stats::add(&self.machine.stats.maint_stall_cycles, dt);
            }
            return (out, dt);
        };
        let t0 = self.machine.core(m.core).clock.now();
        let mut mctx = ThreadCtx::for_enclave(&self.machine, &self.fleet.enclave(r), m.core);
        mctx.enter();
        let serving = std::mem::replace(&mut rep.ctx, mctx);
        let out = work(rep);
        std::mem::replace(&mut rep.ctx, serving).exit();
        (out, self.machine.core(m.core).clock.now() - t0)
    }

    /// Seals sender `r`'s writes at stamp `>= base` as a delta and
    /// stages it on the channel once per receiver, in bounded chunks.
    /// Runs on whatever thread `rep.ctx` is. Returns the serialized
    /// delta size.
    fn stage_delta(
        &self,
        r: usize,
        rep: &mut Replica,
        epoch: u64,
        base: u64,
        receivers: usize,
    ) -> usize {
        let enclave_id = self.fleet.enclave(r).id;
        let snap =
            rep.kvs
                .snapshot_since(&mut rep.ctx, self.sealer.as_ref(), enclave_id, epoch, base);
        let bytes = snap.to_bytes();
        let chunk = self
            .cfg
            .maintenance
            .as_ref()
            .map_or(DEFAULT_CHUNK_BYTES, |m| m.chunk_bytes);
        for _ in 0..receivers {
            self.chan.send_chunked(
                &mut rep.ctx,
                MSG_DELTA_BEGIN,
                MSG_DELTA_CHUNK,
                &epoch.to_le_bytes(),
                &bytes,
                chunk,
            );
        }
        bytes.len()
    }

    /// Fence-time sender: flush pending sends and quiesce SUVM so every
    /// reply is on the wire and every dirty page sealed home, then
    /// stage the delta.
    fn stage_fence_delta(
        &self,
        r: usize,
        rep: &mut Replica,
        epoch: u64,
        base: u64,
        receivers: usize,
    ) -> usize {
        rep.io.flush(&mut rep.ctx);
        if let Some(suvm) = &rep.suvm {
            suvm.quiesce(&mut rep.ctx);
        }
        self.stage_delta(r, rep, epoch, base, receivers)
    }

    /// Receives one chunked delta off the channel into replica `q`'s
    /// store (on `q`'s placement), checking its epoch is monotone for
    /// this receiver. Returns the cycles it took.
    fn receive_delta(&self, q: usize, rep: &mut Replica, stalls: bool) -> u64 {
        let ((), dt) = self.placed(q, rep, stalls, |rep| {
            let (header, payload) = self
                .chan
                .recv_chunked(&mut rep.ctx, MSG_DELTA_BEGIN, MSG_DELTA_CHUNK)
                .expect("delta protocol: chunks staged");
            let epoch = u64::from_le_bytes(header.try_into().expect("8-byte epoch"));
            {
                let mut st = self.state();
                assert!(
                    epoch > st.last_delta_epoch[q],
                    "delta epoch went backwards on replica {q}"
                );
                st.last_delta_epoch[q] = epoch;
            }
            let snap = Snapshot::from_bytes(&payload);
            assert_eq!(snap.epoch(), epoch, "delta snapshot epoch mismatch");
            rep.kvs.restore(&mut rep.ctx, self.sealer.as_ref(), &snap);
        });
        dt
    }

    /// [`Self::receive_delta`] into serving replica `q`'s slot.
    fn receive_delta_at(&self, q: usize, stalls: bool) -> u64 {
        let mut slot = self.slots[q].lock().expect("fleet slot poisoned");
        let rep = slot.as_mut().expect("serving replica must be wired");
        self.receive_delta(q, rep, stalls)
    }

    /// Kills `victim` at a fence (see the module docs): its final
    /// delta streams to every survivor, its EPC is reclaimed, and its
    /// shards drain to the heir. The byte-work runs on the configured
    /// placement.
    ///
    /// # Panics
    /// Panics when `victim` is not serving or no other replica is.
    pub fn kill(&self, victim: usize) -> FailoverReport {
        let serving = self.fleet.serving();
        assert!(
            serving.contains(&victim),
            "kill target {victim} is not serving"
        );
        let survivors: Vec<usize> = serving.iter().copied().filter(|&r| r != victim).collect();
        let heir = *survivors
            .first()
            .expect("failover needs a surviving replica");
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let base = self.state().delta_base[victim];
        let (snapshot_bytes, mut cycles) = {
            let mut slot = self.slots[victim].lock().expect("fleet slot poisoned");
            let mut rep = slot.take().expect("serving replica must be wired");
            let out = self.placed(victim, &mut rep, true, |rep| {
                self.stage_fence_delta(victim, rep, epoch, base, survivors.len())
            });
            rep.ctx.exit();
            out
        };
        self.fleet.kill(victim);
        Stats::bump(&self.machine.stats.fleet_failovers);
        Stats::bump(&self.machine.stats.fleet_snapshots);
        // Every survivor restores before its next reap of the acquired
        // shards — the restore-then-own ordering is the failover
        // correctness invariant.
        for &q in &survivors {
            cycles += self.receive_delta_at(q, true);
            Stats::bump(&self.machine.stats.fleet_restores);
        }
        let moved = self.map.shards_of(victim);
        for &s in &moved {
            self.map.reassign(s, heir);
        }
        self.advance_write_versions();
        FailoverReport {
            heir,
            shards_moved: moved.len(),
            snapshot_bytes,
            cycles,
        }
    }

    /// Respawns dead slot `idx` as a fresh enclave that restores the
    /// shard owner's full image and takes its original shard slice
    /// back (see the module docs). The byte-work runs on the
    /// configured placement.
    ///
    /// # Panics
    /// Panics when `idx` is not dead or no donor is serving.
    pub fn respawn(&self, idx: usize) -> RejoinReport {
        let donor = self.rejoin_donor(idx);
        assert_eq!(
            self.fleet.state(donor),
            ReplicaState::Serving,
            "rejoin donor {donor} must be serving"
        );
        self.fleet.respawn(idx);
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // Full image (base 0): the donor holds all streamed state plus
        // its own unstreamed writes, so the rejoiner comes back fully
        // caught up.
        let (snapshot_bytes, donor_cycles) = {
            let mut slot = self.slots[donor].lock().expect("fleet slot poisoned");
            let rep = slot.as_mut().expect("serving replica must be wired");
            self.placed(donor, rep, true, |rep| {
                self.stage_fence_delta(donor, rep, epoch, 0, 1)
            })
        };
        Stats::bump(&self.machine.stats.fleet_snapshots);
        let mut rep = self.wire_replica(idx);
        // The rejoiner is not serving yet: its restore stalls nobody.
        let restore_cycles = self.receive_delta(idx, &mut rep, false);
        Stats::bump(&self.machine.stats.fleet_restores);
        *self.slots[idx].lock().expect("fleet slot poisoned") = Some(rep);
        self.fleet.mark_serving(idx);
        let mut taken = 0;
        for s in 0..self.fds.len() {
            if s % self.cfg.replicas == idx {
                self.map.reassign(s, idx);
                taken += 1;
            }
        }
        self.advance_write_versions();
        {
            let mut st = self.state();
            // With delta rounds the donor keeps streaming its own
            // unstreamed interval, so the rejoiner's base starts at the
            // fresh write interval. Without them nothing is ever
            // streamed: every base stays 0 and kills ship full images.
            if self.cfg.maintenance.is_some() {
                st.delta_base[idx] = self.epoch() + 1;
            }
            st.misses[idx] = 0;
            st.last_hb[idx] = self.hb[idx].load(Ordering::Relaxed);
        }
        RejoinReport {
            donor,
            shards_taken: taken,
            snapshot_bytes,
            cycles: donor_cycles + restore_cycles,
        }
    }

    /// Moves every live replica's store into the post-fence write
    /// interval: writes stamped `epoch + 1` supersede everything a
    /// fence-`epoch` snapshot carries, which is what keeps the
    /// versioned restore merge last-writer-wins when a store's state
    /// bounces through several replicas (kill A, respawn A, kill B).
    fn advance_write_versions(&self) {
        let interval = self.epoch() + 1;
        for slot in &self.slots {
            let mut slot = slot.lock().expect("fleet slot poisoned");
            if let Some(rep) = slot.as_mut() {
                rep.kvs.set_write_version(interval);
            }
        }
    }

    /// Advances every serving core's clock (plus core `cores[0]`, the
    /// fleet timebase) to the furthest one — the idle wait at a
    /// barrier where all replicas have drained their chunk and the
    /// load generator stamps the next one. A no-op for a multiplexed
    /// fleet (one core). Returns the barrier time.
    pub fn sync_clocks(&self) -> u64 {
        let mut cores: Vec<usize> = self
            .fleet
            .serving()
            .iter()
            .map(|&r| self.core_of(r))
            .collect();
        cores.push(self.cfg.cores[0]);
        cores.sort_unstable();
        cores.dedup();
        let target = cores
            .iter()
            .map(|&c| self.machine.core(c).clock.now())
            .max()
            .unwrap_or(0);
        for &c in &cores {
            let clock = &self.machine.core(c).clock;
            clock.advance(target - clock.now());
        }
        target
    }

    /// Maintenance-core cycles spent on detector-driven failovers so
    /// far (0 without the plane).
    #[must_use]
    pub fn auto_failover_cycles(&self) -> u64 {
        self.state().auto_failover_cycles
    }

    /// Maintenance-core cycles spent on queued rejoins so far (0
    /// without the plane).
    #[must_use]
    pub fn auto_recovery_cycles(&self) -> u64 {
        self.state().auto_recovery_cycles
    }

    /// Queues dead slot `idx` for respawn at the next maintenance tick
    /// (the plane-driven way to call [`Self::respawn`]).
    ///
    /// # Panics
    /// Panics without the maintenance plane.
    pub fn request_rejoin(&self, idx: usize) {
        assert!(
            self.cfg.maintenance.is_some(),
            "rejoin queue needs the maintenance plane"
        );
        self.state().rejoin.push(idx);
    }

    /// One pass of the background maintenance plane, run on the
    /// maintenance core (called directly by deterministic tests and
    /// benches — the tick is the unit of determinism):
    ///
    /// 1. the failure detector compares heartbeats against the last
    ///    tick and kills replicas that missed `hb_miss_threshold`
    ///    consecutive ticks;
    /// 2. queued rejoins ([`Self::request_rejoin`]) respawn;
    /// 3. every serving replica's engine runs its byte-work
    ///    ([`Kvs::maintenance_tick`]: slab relocations, segment
    ///    expiry/merges);
    /// 4. a delta round streams each replica's writes since its last
    ///    delta to every serving peer in bounded chunks, then opens
    ///    the next write interval.
    ///
    /// Returns whether any work ran. A no-op without the plane.
    pub fn maintenance_tick(&self) -> bool {
        let Some(m) = &self.cfg.maintenance else {
            return false;
        };
        let clock = &self.machine.core(m.core).clock;
        let mut did = false;
        // 1. Failure detector: heartbeat progress since the last tick.
        // The scan itself costs maintenance-core cycles.
        let mut victims = Vec::new();
        {
            let mut st = self.state();
            for r in self.fleet.serving() {
                clock.advance(self.machine.cfg.costs.maint_heartbeat);
                let cur = self.hb[r].load(Ordering::Relaxed);
                if cur == st.last_hb[r] {
                    st.misses[r] += 1;
                    Stats::bump(&self.machine.stats.hb_misses);
                    if st.misses[r] >= m.hb_miss_threshold {
                        victims.push(r);
                    }
                } else {
                    st.last_hb[r] = cur;
                    st.misses[r] = 0;
                }
            }
        }
        for v in victims {
            if self.fleet.serving().len() < 2 || self.fleet.state(v) != ReplicaState::Serving {
                continue;
            }
            let t0 = clock.now();
            self.kill(v);
            let dt = clock.now() - t0;
            let mut st = self.state();
            st.misses[v] = 0;
            st.auto_failover_cycles += dt;
            did = true;
        }
        // 2. Queued rejoins.
        let pending = std::mem::take(&mut self.state().rejoin);
        for idx in pending {
            if self.fleet.state(idx) != ReplicaState::Dead {
                continue;
            }
            let t0 = clock.now();
            self.respawn(idx);
            self.state().auto_recovery_cycles += clock.now() - t0;
            did = true;
        }
        // 3. Engine byte-work, off-core: the serving-core fences only
        // published counters; the copies and merges happen here.
        for r in self.fleet.serving() {
            let mut slot = self.slots[r].lock().expect("fleet slot poisoned");
            let Some(rep) = slot.as_mut() else { continue };
            let (work, _) =
                self.placed(r, rep, false, |rep| rep.kvs.maintenance_tick(&mut rep.ctx));
            did |= work;
        }
        // 4. Delta round.
        did |= self.delta_round();
        did
    }

    /// Streams one incremental snapshot per serving replica to every
    /// serving peer, in bounded chunks over the channel. Each round
    /// shrinks what a later kill must carry to the writes since this
    /// round.
    fn delta_round(&self) -> bool {
        let serving = self.fleet.serving();
        if serving.len() < 2 {
            return false;
        }
        for &r in &serving {
            let peers: Vec<usize> = serving.iter().copied().filter(|&q| q != r).collect();
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            let base = self.state().delta_base[r];
            {
                let mut slot = self.slots[r].lock().expect("fleet slot poisoned");
                let rep = slot.as_mut().expect("serving replica must be wired");
                self.placed(r, rep, false, |rep| {
                    self.stage_delta(r, rep, epoch, base, peers.len())
                });
            }
            for &q in &peers {
                self.receive_delta_at(q, false);
            }
            // Open the next write interval: post-round writes carry
            // strictly larger stamps than anything just streamed, so
            // a rewrite of a streamed key is never mistaken for the
            // streamed copy.
            self.advance_write_versions();
            self.state().delta_base[r] = self.epoch() + 1;
        }
        true
    }

    /// The current owner of dead slot `idx`'s original shard slice
    /// (see [`Self::respawn`] for why the owner must donate).
    fn rejoin_donor(&self, idx: usize) -> usize {
        (0..self.fds.len())
            .find(|&s| s % self.cfg.replicas == idx)
            .map_or_else(
                || *self.fleet.serving().first().expect("rejoin needs a donor"),
                |s| self.map.replica_of(s),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_crypto::gcm::AesGcm128;
    use eleos_enclave::machine::MachineConfig;
    use eleos_rpc::{with_syscalls, RpcService};

    use crate::kvs::{build_get, build_set};
    use crate::loadgen::shard_for;

    const SHARDS: usize = 4;

    fn fleet(replicas: usize) -> (Arc<SgxMachine>, Arc<Session>, Vec<Fd>, FleetKvs) {
        fleet_with(FleetConfig::small(replicas))
    }

    fn fleet_bg(replicas: usize) -> (Arc<SgxMachine>, Arc<Session>, Vec<Fd>, FleetKvs) {
        fleet_with(
            FleetConfig::small(replicas).with_maintenance(MaintenanceConfig {
                core: 1,
                hb_miss_threshold: 3,
                chunk_bytes: 4 << 10,
            }),
        )
    }

    fn fleet_with(cfg: FleetConfig) -> (Arc<SgxMachine>, Arc<Session>, Vec<Fd>, FleetKvs) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let ut = ThreadCtx::untrusted(&m, 1);
        let fds: Vec<Fd> = (0..SHARDS).map(|_| m.host.socket(&ut, 256 << 10)).collect();
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let wire = Arc::new(Session::established([9u8; 16]));
        let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x44u8; 16]));
        let fk = FleetKvs::new(
            &m,
            &fds,
            ServerIoConfig::with_buf_len(16 << 10)
                .batch(4)
                .shards(SHARDS),
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
            sealer,
            cfg,
            |ctx, kvs| {
                for i in 0..32u32 {
                    kvs.set(ctx, format!("seed-{i}").as_bytes(), &[i as u8; 48]);
                }
            },
        );
        (m, wire, fds, fk)
    }

    #[test]
    fn fleet_serves_seeded_gets_across_replicas() {
        let (m, wire, fds, fk) = fleet(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        let mut pushed = [0usize; SHARDS];
        for conn in 0..8u64 {
            let s = shard_for(conn, SHARDS);
            let key = format!("seed-{}", conn % 32);
            m.host
                .push_request(&ut, fds[s], &wire.encrypt(&build_get(key.as_bytes())));
            pushed[s] += 1;
        }
        let mut served = 0;
        for _ in 0..32 {
            served += fk.pump();
            if served == 8 {
                break;
            }
        }
        fk.flush();
        assert_eq!(served, 8);
        for (s, &n) in pushed.iter().enumerate() {
            let mut got = 0;
            while let Some(resp) = m.host.pop_response(fds[s]) {
                let plain = wire.decrypt(&resp);
                assert_eq!(plain[0], 1, "seeded key must be found");
                got += 1;
            }
            assert_eq!(got, n, "shard {s} answers everything it queued");
        }
        // Both replicas did work (each owns half the shard set), and
        // each credited only its own gauge slot.
        let st = m.stats.snapshot();
        for r in 0..2 {
            let handled: u64 = (0..SHARDS)
                .map(|s| st.shard.replica[r].sojourn[s].count())
                .sum();
            assert!(handled > 0, "replica {r} must have reaped");
        }
    }

    #[test]
    fn kill_drains_shards_to_the_heir_with_state() {
        let (m, wire, fds, fk) = fleet(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        // A SET routed to a replica-1 shard, then a kill, then a GET of
        // the same key: the heir must serve it from the restored state.
        let conn = (0..64u64).find(|&c| shard_for(c, SHARDS) % 2 == 1).unwrap();
        let s = shard_for(conn, SHARDS);
        assert_eq!(fk.map().replica_of(s), 1);
        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_set(b"fresh", &[7u8; 32])));
        while fk.pump() == 0 {}
        fk.flush();
        assert_eq!(wire.decrypt(&m.host.pop_response(fds[s]).unwrap()), [1u8]);

        let report = fk.kill(1);
        assert_eq!(report.heir, 0);
        assert_eq!(report.shards_moved, 2);
        assert!(report.snapshot_bytes > 0);
        assert!(report.cycles > 0);
        assert_eq!(fk.fleet().state(1), ReplicaState::Dead);
        assert_eq!(fk.map().shards_of(0), vec![0, 1, 2, 3]);

        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_get(b"fresh")));
        let mut served = 0;
        while served == 0 {
            served = fk.pump();
        }
        fk.flush();
        let plain = wire.decrypt(&m.host.pop_response(fds[s]).unwrap());
        assert_eq!(plain[0], 1, "heir must hold the victim's item");
        assert_eq!(&plain[5..], [7u8; 32]);
        let st = m.stats.snapshot();
        assert_eq!(st.fleet_failovers, 1);
        assert_eq!(st.fleet_snapshots, 1);
        assert_eq!(st.fleet_restores, 1);
    }

    #[test]
    fn respawn_restores_from_the_shard_owner_and_takes_shards_back() {
        let (m, wire, fds, fk) = fleet(3);
        let ut = ThreadCtx::untrusted(&m, 1);
        fk.kill(1);
        // Post-kill load lands on the heir; the rejoining replica must
        // see it, which is why the donor is the shard owner.
        let conn = (0..64u64).find(|&c| shard_for(c, SHARDS) == 1).unwrap();
        m.host.push_request(
            &ut,
            fds[1],
            &wire.encrypt(&build_set(b"after-kill", &[9u8; 16])),
        );
        let _ = conn;
        while fk.pump() == 0 {}
        fk.flush();
        while m.host.pop_response(fds[1]).is_some() {}

        let report = fk.respawn(1);
        assert_eq!(report.donor, 0, "shard 1's owner donates");
        assert_eq!(
            report.shards_taken, 1,
            "4 shards over 3 replicas: class 1 = {{1}}"
        );
        assert!(report.cycles > 0);
        assert_eq!(fk.fleet().state(1), ReplicaState::Serving);
        assert_eq!(fk.map().replica_of(1), 1);

        m.host
            .push_request(&ut, fds[1], &wire.encrypt(&build_get(b"after-kill")));
        let mut served = 0;
        while served == 0 {
            served = fk.pump();
        }
        fk.flush();
        let plain = wire.decrypt(&m.host.pop_response(fds[1]).unwrap());
        assert_eq!(plain[0], 1, "rejoined replica holds post-kill state");
        let st = m.stats.snapshot();
        assert_eq!(
            st.fleet_restores, 3,
            "the kill restores into both survivors, the rejoin into one"
        );
        assert!(
            st.xchan_msgs >= 4,
            "two fence protocols crossed the channel"
        );
    }

    #[test]
    #[should_panic(expected = "needs a surviving replica")]
    fn kill_of_the_last_replica_fails_fast() {
        let (_m, _wire, _fds, fk) = fleet(1);
        fk.kill(0);
    }

    #[test]
    #[should_panic(expected = "maintenance core 0 is a serving core")]
    fn maintenance_plane_on_a_serving_core_is_rejected() {
        let _ = fleet_with(FleetConfig::small(2).with_maintenance(MaintenanceConfig {
            core: 0,
            ..MaintenanceConfig::default()
        }));
    }

    #[test]
    fn inline_kill_stalls_the_serving_cores_and_background_kill_does_not() {
        // Inline placement: the victim's snapshot and every survivor's
        // restore run on serving threads, so they all count as stall.
        let (m, _wire, _fds, fk) = fleet(3);
        let report = fk.kill(2);
        let st = m.stats.snapshot();
        assert_eq!(st.maint_stall_cycles, report.cycles);
        assert_eq!(
            st.fleet_restores, 2,
            "the final delta reaches every survivor"
        );
        assert!(
            st.maint_chunks > 0,
            "inline kills stream chunked deltas too"
        );
        // Background placement: the same protocol on the plane's core.
        let (m, _wire, _fds, fk) = fleet_bg(3);
        let report = fk.kill(2);
        let st = m.stats.snapshot();
        assert!(report.cycles > 0);
        assert_eq!(st.maint_stall_cycles, 0);
        assert_eq!(st.fleet_restores, 2);
    }

    #[test]
    fn fleet_rekey_announces_the_epoch_and_keeps_serving() {
        let (m, wire, fds, fk) = fleet(3);
        let ut = ThreadCtx::untrusted(&m, 1);
        let push_gets = || {
            for conn in 0..8u64 {
                let s = shard_for(conn, SHARDS);
                let key = format!("seed-{}", conn % 32);
                m.host
                    .push_request(&ut, fds[s], &wire.encrypt(&build_get(key.as_bytes())));
            }
        };
        let s0 = m.stats.snapshot();
        push_gets();
        let mut served = 0;
        while served < 8 {
            served += fk.pump();
        }
        let to = fk.rekey_wire(0);
        assert_eq!(to, 1, "first wire rotation lands on epoch 1");
        assert_eq!(wire.epoch(), 1);
        // Epoch-0 messages queued before the announcement still drain;
        // post-rekey arrivals seal under epoch 1.
        push_gets();
        while served < 16 {
            served += fk.pump();
        }
        fk.flush();
        let mut answered = 0;
        for &fd in &fds {
            while let Some(resp) = m.host.pop_response(fd) {
                assert_eq!(wire.decrypt(&resp)[0], 1, "seeded key must be found");
                answered += 1;
            }
        }
        assert_eq!(answered, 16, "no reply lost across the rotation");
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.rekeys, 1);
        assert_eq!(d.auth_failures, 0);
        assert_eq!(
            d.xchan_msgs, 2,
            "one announcement per non-initiating replica"
        );
    }

    #[test]
    fn epoch_advances_monotonically_across_fences() {
        let (_m, _wire, _fds, fk) = fleet(3);
        assert_eq!(fk.epoch(), 0);
        fk.kill(2);
        assert_eq!(fk.epoch(), 1);
        fk.respawn(2);
        assert_eq!(fk.epoch(), 2);
        fk.kill(1);
        assert_eq!(fk.epoch(), 3);
    }

    #[test]
    fn delta_rounds_stream_writes_to_peers_in_chunks() {
        let (m, wire, fds, fk) = fleet_bg(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        // A SET routed to replica 0, then one maintenance tick: the
        // delta round must land the item in replica 1's store without
        // any fence.
        let s = (0..SHARDS).find(|&s| fk.map().replica_of(s) == 0).unwrap();
        m.host.push_request(
            &ut,
            fds[s],
            &wire.encrypt(&build_set(b"delta-key", &[5u8; 40])),
        );
        while fk.pump() == 0 {}
        fk.flush();
        while m.host.pop_response(fds[s]).is_some() {}
        assert!(fk.maintenance_tick(), "a delta round is work");
        {
            let mut slot = fk.slots[1].lock().unwrap();
            let rep = slot.as_mut().unwrap();
            assert_eq!(
                rep.kvs.get(&mut rep.ctx, b"delta-key").unwrap(),
                vec![5u8; 40],
                "peer must hold the streamed item"
            );
        }
        let st = m.stats.snapshot();
        assert!(st.maint_chunks > 0, "deltas travel chunked");
        assert!(
            st.snapshot_delta_items >= 1,
            "the delta carried the fresh item"
        );
        // The counters the fences publish did not move: no failover
        // snapshot/restore happened.
        assert_eq!(st.fleet_snapshots, 0);
        assert_eq!(st.fleet_restores, 0);
        // A later background kill carries only the final delta.
        let report = fk.kill(0);
        assert_eq!(report.heir, 1);
        assert_eq!(m.stats.snapshot().fleet_failovers, 1);
    }

    #[test]
    fn failure_detector_kills_a_mute_replica_and_rejoin_recovers_it() {
        let (m, wire, fds, fk) = fleet_bg(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        // Replica 1 goes mute: only replica 0 pumps. After three
        // heartbeat-less ticks the detector fails it over.
        for round in 0..3 {
            fk.pump_replica(0);
            fk.maintenance_tick();
            if round < 2 {
                assert_eq!(fk.fleet().state(1), ReplicaState::Serving);
            }
        }
        assert_eq!(fk.fleet().state(1), ReplicaState::Dead);
        assert_eq!(fk.map().shards_of(0), vec![0, 1, 2, 3]);
        let st = m.stats.snapshot();
        assert!(st.hb_misses >= 3, "each tick counted the miss");
        assert_eq!(st.fleet_failovers, 1);
        assert!(fk.auto_failover_cycles() > 0, "failover cost maint cycles");

        // A queued rejoin brings the slot back at the next tick, and
        // it serves restored state.
        fk.request_rejoin(1);
        fk.pump_replica(0);
        fk.maintenance_tick();
        assert_eq!(fk.fleet().state(1), ReplicaState::Serving);
        assert!(fk.auto_recovery_cycles() > 0, "rejoin cost maint cycles");
        let s = (0..SHARDS).find(|&s| fk.map().replica_of(s) == 1).unwrap();
        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_get(b"seed-3")));
        let mut served = 0;
        while served == 0 {
            served = fk.pump();
        }
        fk.flush();
        let plain = wire.decrypt(&m.host.pop_response(fds[s]).unwrap());
        assert_eq!(plain[0], 1, "rejoined replica serves restored state");
    }
}
