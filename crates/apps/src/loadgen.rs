//! Load generators for the evaluation workloads (paper §6).
//!
//! These play the role of the paper's client machine: memaslap for
//! memcached, the custom update generator for the parameter server and
//! the FERET-driven request stream for face verification. All are
//! seeded for reproducibility and produce encrypted wire messages.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use eleos_enclave::host::Fd;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;

use crate::face;
use crate::kvs;
use crate::param_server::build_update_request;
use crate::wire::Session;

/// A Zipf(α) sampler over `0..n` by inverse-CDF table lookup —
/// key-value workloads are rarely uniform in production, and memaslap
/// supports skewed key distributions.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution table for `n` items with exponent
    /// `alpha` (0 = uniform; ~0.99 is the classic web/KVS skew).
    #[must_use]
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Self { cdf }
    }

    /// Draws an index in `0..n` (0 is the hottest item).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Parameter-server update stream (the §2 workload).
pub struct ParamLoad {
    rng: StdRng,
    /// Total key universe (server data size / 16 bytes).
    pub n_keys: u64,
    /// Keys updated per request (the x-axis of Figs 2 and 6).
    pub keys_per_req: usize,
    /// Restrict updates to the first `hot` keys (Fig 2a's 8 MB hot
    /// set), if set.
    pub hot: Option<u64>,
}

impl ParamLoad {
    /// Creates a seeded generator.
    #[must_use]
    pub fn new(seed: u64, n_keys: u64, keys_per_req: usize, hot: Option<u64>) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            n_keys,
            keys_per_req,
            hot,
        }
    }

    /// Next request plaintext.
    pub fn next_plain(&mut self) -> Vec<u8> {
        let range = self.hot.unwrap_or(self.n_keys).min(self.n_keys);
        let updates: Vec<(u64, u64)> = (0..self.keys_per_req)
            .map(|_| (self.rng.random_range(1..=range), 1u64))
            .collect();
        build_update_request(&updates)
    }
}

/// memaslap-style key-value load (paper §6.2.2): a fill phase that
/// SETs every item, then uniform-random GETs over the full item set.
pub struct KvsLoad {
    rng: StdRng,
    /// Number of items.
    pub n_items: u64,
    /// Key size in bytes (paper: 20 B).
    pub key_len: usize,
    /// Value size in bytes (paper: 1 KiB / 4 KiB).
    pub value_len: usize,
}

impl KvsLoad {
    /// Creates a seeded generator.
    #[must_use]
    pub fn new(seed: u64, n_items: u64, key_len: usize, value_len: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            n_items,
            key_len,
            value_len,
        }
    }

    /// The key for item `i`, padded to `key_len`.
    #[must_use]
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut k = format!("key-{i:012}").into_bytes();
        k.resize(self.key_len, b'x');
        k
    }

    /// Deterministic value contents for item `i`.
    #[must_use]
    pub fn value(&self, i: u64) -> Vec<u8> {
        let b = (i % 251) as u8;
        vec![b; self.value_len]
    }

    /// SET plaintext for item `i` (fill phase).
    #[must_use]
    pub fn set_plain(&self, i: u64) -> Vec<u8> {
        kvs::build_set(&self.key(i), &self.value(i))
    }

    /// Next random GET plaintext, returning `(item, plaintext)`.
    pub fn get_plain(&mut self) -> (u64, Vec<u8>) {
        let i = self.rng.random_range(0..self.n_items);
        (i, kvs::build_get(&self.key(i)))
    }

    /// Total data-set bytes (what "500 MB of data" means in §6.2.2).
    #[must_use]
    pub fn dataset_bytes(&self) -> u64 {
        self.n_items * (self.key_len + self.value_len) as u64
    }
}

/// Face-verification request stream: random enrolled identities,
/// genuine captures.
pub struct FaceLoad {
    rng: StdRng,
    /// Enrolled identities are `1..=n_ids`.
    pub n_ids: u64,
    /// Image side.
    pub side: usize,
    capture: u64,
}

impl FaceLoad {
    /// Creates a seeded generator.
    #[must_use]
    pub fn new(seed: u64, n_ids: u64, side: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            n_ids,
            side,
            capture: 0,
        }
    }

    /// Next verification request plaintext (genuine attempt).
    pub fn next_plain(&mut self) -> Vec<u8> {
        let id = self.rng.random_range(1..=self.n_ids);
        self.capture += 1;
        let img = face::synth_capture(id, self.side, self.capture);
        face::build_verify_request(id, self.side, &img)
    }
}

/// Runs the attestation handshake the client side performs before any
/// data message: draws a fresh nonce, asks the enclave for its
/// evidence (the report MAC the enclave pays
/// [`session_handshake`](eleos_sim::costs::CostModel) cycles for) and
/// verifies it against the identity the client expects. Establishes
/// the session at epoch 0.
///
/// # Panics
/// Panics if the evidence does not verify — a load generator attests
/// against the identity it configured, so a failure here is a harness
/// bug, not chaos.
pub fn attest_session(ctx: &mut ThreadCtx, session: &Session) {
    let nonce = session.fresh_nonce();
    let report = session.evidence(ctx, nonce);
    session
        .verify(ctx, &session.identity(), nonce, &report)
        .expect("the load generator attests the identity it configured");
}

/// Pushes `n` encrypted requests from `next_plain` onto `fd`'s queue.
pub fn fill_socket(
    machine: &SgxMachine,
    ctx: &ThreadCtx,
    fd: Fd,
    session: &Session,
    n: usize,
    mut next_plain: impl FnMut() -> Vec<u8>,
) {
    for _ in 0..n {
        machine
            .host
            .push_request(ctx, fd, &session.encrypt(&next_plain()));
    }
}

/// Hashes a client connection id onto one shard of an `n_shards`-wide
/// socket set — the load-generator half of SO_REUSEPORT: every message
/// of a connection lands on the same shard, so per-shard FIFO order is
/// per-connection order. Fibonacci (multiplicative) hashing keeps
/// sequential connection ids well spread.
#[must_use]
pub fn shard_for(conn: u64, n_shards: usize) -> usize {
    assert!(n_shards > 0, "a socket set needs at least one shard");
    (conn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % n_shards
}

/// A shared connection→shard indirection over [`shard_for`]'s static
/// Fibonacci pinning.
///
/// The load-generator side routes each arrival through
/// [`ShardMap::route`]; the serving side's rebalancer reads the
/// accumulated per-connection weights and [`ShardMap::repin`]s the
/// heaviest connections off the hottest shard. Re-pins take effect for
/// *future* arrivals only (a migration fence): messages already queued
/// stay on the shard they arrived at, and the rebalancer only runs at
/// sub-batch boundaries, so per-shard FIFO order remains per-connection
/// order across a migration.
pub struct ShardMap {
    n_shards: usize,
    n_replicas: usize,
    inner: std::sync::Mutex<MapInner>,
}

#[derive(Default)]
struct MapInner {
    /// Rebalancer overrides; absent connections use [`shard_for`].
    pins: std::collections::HashMap<u64, usize>,
    /// Arrivals per connection since the last decay (EWMA-ish: halved
    /// at every rebalance so stale hotness fades).
    weights: std::collections::HashMap<u64, u64>,
    /// Which fleet replica currently owns each shard (all zero for
    /// single-replica maps). Reassignments happen only at failover /
    /// rejoin fences, never mid-batch.
    owners: Vec<usize>,
}

impl ShardMap {
    /// A map over `n_shards` shards with no pins (identical to
    /// [`shard_for`] until the first [`Self::repin`]), all owned by
    /// replica 0.
    #[must_use]
    pub fn new(n_shards: usize) -> std::sync::Arc<Self> {
        Self::with_replicas(n_shards, 1)
    }

    /// A map over `n_shards` shards spread round-robin across
    /// `n_replicas` fleet replicas: shard `s` starts owned by replica
    /// `s % n_replicas`, so every replica owns a contiguous-in-stride
    /// slice and the assignment is deterministic (the respawn path
    /// restores exactly this ownership, which keeps kill/respawn
    /// schedules replayable).
    #[must_use]
    pub fn with_replicas(n_shards: usize, n_replicas: usize) -> std::sync::Arc<Self> {
        assert!(n_shards > 0, "a shard map needs at least one shard");
        assert!(n_replicas > 0, "a shard map needs at least one replica");
        std::sync::Arc::new(Self {
            n_shards,
            n_replicas,
            inner: std::sync::Mutex::new(MapInner {
                owners: (0..n_shards).map(|s| s % n_replicas).collect(),
                ..MapInner::default()
            }),
        })
    }

    /// Number of shards the map routes onto.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of fleet replicas the map knows about (1 for maps built
    /// with [`Self::new`]).
    #[must_use]
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// The replica that currently owns `shard`.
    #[must_use]
    pub fn replica_of(&self, shard: usize) -> usize {
        assert!(shard < self.n_shards, "shard out of range");
        self.inner.lock().expect("shard map poisoned").owners[shard]
    }

    /// The shards `replica` currently owns, in ascending order — the
    /// exact subset that replica's `recv_batch_on` reaps.
    #[must_use]
    pub fn shards_of(&self, replica: usize) -> Vec<usize> {
        assert!(replica < self.n_replicas, "replica out of range");
        let inner = self.inner.lock().expect("shard map poisoned");
        (0..self.n_shards)
            .filter(|&s| inner.owners[s] == replica)
            .collect()
    }

    /// Hands `shard` to `replica` — the failover / rejoin fence. Takes
    /// effect at the new owner's next reap; the old owner must already
    /// have answered everything it reaped (quiesced at the fence), so
    /// per-connection FIFO order survives the handoff.
    pub fn reassign(&self, shard: usize, replica: usize) {
        assert!(shard < self.n_shards, "shard out of range");
        assert!(replica < self.n_replicas, "reassign target out of range");
        self.inner.lock().expect("shard map poisoned").owners[shard] = replica;
    }

    /// Routes one arrival all the way down: `conn` → shard → owning
    /// replica. Counts the arrival toward `conn`'s hotness weight.
    pub fn route_replica(&self, conn: u64) -> (usize, usize) {
        let mut inner = self.inner.lock().expect("shard map poisoned");
        *inner.weights.entry(conn).or_insert(0) += 1;
        let s = inner
            .pins
            .get(&conn)
            .copied()
            .unwrap_or_else(|| shard_for(conn, self.n_shards));
        (s, inner.owners[s])
    }

    /// The shard `conn` currently routes to.
    #[must_use]
    pub fn shard_of(&self, conn: u64) -> usize {
        self.inner
            .lock()
            .expect("shard map poisoned")
            .pins
            .get(&conn)
            .copied()
            .unwrap_or_else(|| shard_for(conn, self.n_shards))
    }

    /// Routes one arrival: returns `conn`'s shard and counts the
    /// arrival toward its hotness weight.
    pub fn route(&self, conn: u64) -> usize {
        let mut inner = self.inner.lock().expect("shard map poisoned");
        *inner.weights.entry(conn).or_insert(0) += 1;
        inner
            .pins
            .get(&conn)
            .copied()
            .unwrap_or_else(|| shard_for(conn, self.n_shards))
    }

    /// Pins `conn` to `shard` for all future arrivals.
    pub fn repin(&self, conn: u64, shard: usize) {
        assert!(shard < self.n_shards, "repin target out of range");
        self.inner
            .lock()
            .expect("shard map poisoned")
            .pins
            .insert(conn, shard);
    }

    /// Total arrival weight currently routed to each shard.
    #[must_use]
    pub fn shard_weights(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("shard map poisoned");
        let mut w = vec![0u64; self.n_shards];
        for (&conn, &weight) in &inner.weights {
            let s = inner
                .pins
                .get(&conn)
                .copied()
                .unwrap_or_else(|| shard_for(conn, self.n_shards));
            w[s] += weight;
        }
        w
    }

    /// The up-to-`k` heaviest connections currently routed to `shard`
    /// with their arrival weights, hottest first — the rebalancer
    /// needs the weights to judge whether a move shrinks the hot/cold
    /// gap or overshoots it.
    #[must_use]
    pub fn hottest_conns(&self, shard: usize, k: usize) -> Vec<(u64, u64)> {
        let inner = self.inner.lock().expect("shard map poisoned");
        let mut on_shard: Vec<(u64, u64)> = inner
            .weights
            .iter()
            .filter(|(&conn, _)| {
                inner
                    .pins
                    .get(&conn)
                    .copied()
                    .unwrap_or_else(|| shard_for(conn, self.n_shards))
                    == shard
            })
            .map(|(&conn, &w)| (conn, w))
            .collect();
        on_shard.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        on_shard.truncate(k);
        on_shard
    }

    /// Halves every connection weight (dropping the ones that reach
    /// zero) so hotness tracks the recent past, not the whole run.
    pub fn decay(&self) {
        let mut inner = self.inner.lock().expect("shard map poisoned");
        inner.weights.retain(|_, w| {
            *w /= 2;
            *w > 0
        });
    }
}

/// One fleet-membership change in a chaos schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Kill replica `.0` at the fence (snapshot out, EPC reclaimed,
    /// shards drain to a survivor).
    Kill(usize),
    /// Respawn slot `.0` as a cold replica that restores from the
    /// latest snapshot and takes its original shards back.
    Respawn(usize),
}

/// A deterministic kill/respawn schedule keyed to request-count
/// fences: the driver asks [`ChaosPlan::take_due`] after each pushed
/// chunk and applies whatever came due, so the same seed + plan always
/// replays the same failure at the same point in the load — chaos that
/// is reproducible enough to assert byte-identical replies against an
/// unkilled baseline.
pub struct ChaosPlan {
    /// `(requests_pushed_fence, action)`, sorted by fence.
    events: Vec<(usize, ChaosAction)>,
    next: usize,
}

impl ChaosPlan {
    /// A plan from explicit `(fence, action)` pairs (sorted
    /// internally; ties fire in the given order).
    #[must_use]
    pub fn new(mut events: Vec<(usize, ChaosAction)>) -> Self {
        events.sort_by_key(|&(at, _)| at);
        Self { events, next: 0 }
    }

    /// The classic chaos cell: kill `victim` once `kill_at` requests
    /// have been pushed, respawn it at `respawn_at`.
    #[must_use]
    pub fn kill_respawn(victim: usize, kill_at: usize, respawn_at: usize) -> Self {
        assert!(kill_at < respawn_at, "a replica must die before it rejoins");
        Self::new(vec![
            (kill_at, ChaosAction::Kill(victim)),
            (respawn_at, ChaosAction::Respawn(victim)),
        ])
    }

    /// Kill-only (the replica stays dead for the rest of the run).
    #[must_use]
    pub fn kill_at(victim: usize, at: usize) -> Self {
        Self::new(vec![(at, ChaosAction::Kill(victim))])
    }

    /// Actions whose fence is `<= pushed`, in schedule order; each is
    /// returned exactly once.
    pub fn take_due(&mut self, pushed: usize) -> Vec<ChaosAction> {
        let mut due = Vec::new();
        while self.next < self.events.len() && self.events[self.next].0 <= pushed {
            due.push(self.events[self.next].1);
            self.next += 1;
        }
        due
    }

    /// True once every scheduled action has fired.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.next == self.events.len()
    }
}

/// Which connection the next request arrives on — the arrival-pattern
/// half of the serving-bench load shapes (`loadgen` owns *who* sends;
/// the bench owns *when*).
pub struct ConnStream {
    kind: StreamKind,
}

enum StreamKind {
    RoundRobin {
        n: u64,
        next: u64,
    },
    Skewed {
        zipf: Zipf,
        rng: StdRng,
    },
    Churn {
        zipf: Zipf,
        rng: StdRng,
        active: Vec<u64>,
        next_id: u64,
        epoch_len: usize,
        until_churn: usize,
    },
}

impl ConnStream {
    /// Uniform round-robin over `n` connections (the PR-5 steady
    /// pattern).
    #[must_use]
    pub fn round_robin(n: u64) -> Self {
        assert!(n > 0);
        Self {
            kind: StreamKind::RoundRobin { n, next: 0 },
        }
    }

    /// Zipf(α)-skewed arrivals over connections `0..n` (α ≈ 0.99 is
    /// the classic web/KVS skew): connection 0 sends the bulk of the
    /// traffic, so whichever shard it hashes to becomes hot under
    /// static pinning.
    #[must_use]
    pub fn skewed(seed: u64, n: u64, alpha: f64) -> Self {
        assert!(n > 0);
        Self {
            kind: StreamKind::Skewed {
                zipf: Zipf::new(n as usize, alpha),
                rng: StdRng::seed_from_u64(seed),
            },
        }
    }

    /// Connection churn: Zipf-skewed arrivals over an active set of
    /// `n` connections whose hot half is retired and replaced with
    /// fresh (monotonically increasing) connection ids every
    /// `epoch_len` arrivals — the hot connection's *identity* rotates,
    /// so a static pinning that was balanced last epoch strands a
    /// different shard this epoch.
    #[must_use]
    pub fn churn(seed: u64, n: u64, epoch_len: usize) -> Self {
        assert!(n > 0 && epoch_len > 0);
        Self {
            kind: StreamKind::Churn {
                zipf: Zipf::new(n as usize, 0.99),
                rng: StdRng::seed_from_u64(seed),
                active: (0..n).collect(),
                next_id: n,
                epoch_len,
                until_churn: epoch_len,
            },
        }
    }

    /// The connection the next request arrives on. (Deliberately
    /// `next`-named like an iterator, but infinite and infallible —
    /// a stream, not an `Iterator`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        match &mut self.kind {
            StreamKind::RoundRobin { n, next } => {
                let c = *next;
                *next = (*next + 1) % *n;
                c
            }
            StreamKind::Skewed { zipf, rng } => zipf.sample(rng) as u64,
            StreamKind::Churn {
                zipf,
                rng,
                active,
                next_id,
                epoch_len,
                until_churn,
            } => {
                if *until_churn == 0 {
                    // Retire the hot half, admit fresh ids at the hot
                    // end of the Zipf ranking.
                    let retire = (active.len() / 2).max(1);
                    let kept: Vec<u64> = active.iter().skip(retire).copied().collect();
                    let fresh: Vec<u64> = (0..retire as u64).map(|i| *next_id + i).collect();
                    *next_id += retire as u64;
                    active.clear();
                    active.extend(fresh);
                    active.extend(kept);
                    *until_churn = *epoch_len;
                }
                *until_churn -= 1;
                active[zipf.sample(rng).min(active.len() - 1)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_load_respects_hot_range() {
        let mut g = ParamLoad::new(1, 1000, 8, Some(10));
        for _ in 0..50 {
            let p = g.next_plain();
            let count = u32::from_le_bytes(p[..4].try_into().unwrap()) as usize;
            assert_eq!(count, 8);
            for i in 0..count {
                let key = u64::from_le_bytes(p[4 + i * 16..12 + i * 16].try_into().unwrap());
                assert!((1..=10).contains(&key));
            }
        }
    }

    #[test]
    fn kvs_load_is_deterministic() {
        let a = KvsLoad::new(7, 100, 20, 64);
        let b = KvsLoad::new(7, 100, 20, 64);
        assert_eq!(a.key(5), b.key(5));
        assert_eq!(a.key(5).len(), 20);
        assert_eq!(a.set_plain(3), b.set_plain(3));
        assert_eq!(a.dataset_bytes(), 100 * 84);
    }

    #[test]
    fn kvs_get_targets_valid_items() {
        let mut g = KvsLoad::new(3, 50, 20, 64);
        for _ in 0..100 {
            let (i, p) = g.get_plain();
            assert!(i < 50);
            assert_eq!(p[0], 0, "GET opcode");
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            let i = z.sample(&mut rng);
            assert!(i < 1000);
            counts[i] += 1;
        }
        // Item 0 dominates and the tail is thin.
        assert!(
            counts[0] > counts[100] * 5,
            "{} vs {}",
            counts[0],
            counts[100]
        );
        let head: u32 = counts[..100].iter().sum();
        let tail: u32 = counts[900..].iter().sum();
        assert!(head > tail * 10);
    }

    #[test]
    fn zipf_alpha_zero_is_uniformish() {
        let z = Zipf::new(100, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max / min.max(1) < 3, "min {min} max {max}");
    }

    #[test]
    fn shard_hash_is_stable_and_covers_every_shard() {
        for n_shards in 1..=4usize {
            let mut hit = vec![false; n_shards];
            for conn in 0..64u64 {
                let s = shard_for(conn, n_shards);
                assert!(s < n_shards);
                assert_eq!(s, shard_for(conn, n_shards), "hash must be stable");
                hit[s] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "64 connections cover {n_shards} shards"
            );
        }
    }

    #[test]
    fn shard_map_defaults_to_the_static_hash() {
        let map = ShardMap::new(4);
        for conn in 0..64u64 {
            assert_eq!(map.shard_of(conn), shard_for(conn, 4));
        }
    }

    #[test]
    fn repin_overrides_future_routing_only() {
        let map = ShardMap::new(4);
        let conn = (0..64u64).find(|&c| shard_for(c, 4) == 0).unwrap();
        let target = 3;
        map.repin(conn, target);
        assert_eq!(map.shard_of(conn), target);
        assert_eq!(map.route(conn), target);
        // Other connections keep their static placement.
        let other = (0..64u64).find(|&c| shard_for(c, 4) == 1).unwrap();
        assert_eq!(map.shard_of(other), 1);
    }

    #[test]
    fn weights_track_arrivals_and_decay() {
        let map = ShardMap::new(2);
        let hot = (0..64u64).find(|&c| shard_for(c, 2) == 0).unwrap();
        let cold = (0..64u64)
            .find(|&c| c != hot && shard_for(c, 2) == 0)
            .unwrap();
        for _ in 0..8 {
            map.route(hot);
        }
        map.route(cold);
        assert_eq!(map.shard_weights()[0], 9);
        assert_eq!(map.hottest_conns(0, 1), vec![(hot, 8)]);
        assert_eq!(map.hottest_conns(0, 4), vec![(hot, 8), (cold, 1)]);
        map.decay();
        assert_eq!(map.shard_weights()[0], 4, "8/2 + 1/2 (dropped)");
        // Re-pinning moves the weight to the new shard.
        map.repin(hot, 1);
        assert_eq!(map.shard_weights(), vec![0, 4]);
    }

    #[test]
    #[should_panic(expected = "repin target out of range")]
    fn repin_out_of_range_fails_fast() {
        ShardMap::new(2).repin(0, 2);
    }

    #[test]
    fn replica_ownership_starts_round_robin() {
        let map = ShardMap::with_replicas(5, 2);
        assert_eq!(map.n_replicas(), 2);
        assert_eq!(map.shards_of(0), vec![0, 2, 4]);
        assert_eq!(map.shards_of(1), vec![1, 3]);
        for s in 0..5 {
            assert_eq!(map.replica_of(s), s % 2);
        }
        // Single-replica maps put everything on replica 0.
        let solo = ShardMap::new(3);
        assert_eq!(solo.n_replicas(), 1);
        assert_eq!(solo.shards_of(0), vec![0, 1, 2]);
    }

    #[test]
    fn reassign_moves_ownership_at_the_fence() {
        let map = ShardMap::with_replicas(4, 2);
        map.reassign(1, 0);
        map.reassign(3, 0);
        assert_eq!(map.shards_of(0), vec![0, 1, 2, 3]);
        assert!(map.shards_of(1).is_empty());
        // Routing follows the new owner; shard placement is unchanged.
        for conn in 0..16u64 {
            let (s, r) = map.route_replica(conn);
            assert_eq!(s, shard_for(conn, 4));
            assert_eq!(r, 0);
        }
    }

    #[test]
    #[should_panic(expected = "reassign target out of range")]
    fn reassign_out_of_range_fails_fast() {
        ShardMap::with_replicas(4, 2).reassign(0, 2);
    }

    #[test]
    fn chaos_plan_fires_each_event_once_in_order() {
        let mut plan = ChaosPlan::kill_respawn(1, 100, 200);
        assert!(plan.take_due(99).is_empty());
        assert_eq!(plan.take_due(150), vec![ChaosAction::Kill(1)]);
        assert!(plan.take_due(150).is_empty(), "events fire exactly once");
        assert!(!plan.exhausted());
        assert_eq!(plan.take_due(500), vec![ChaosAction::Respawn(1)]);
        assert!(plan.exhausted());
    }

    #[test]
    #[should_panic(expected = "die before it rejoins")]
    fn chaos_plan_rejects_respawn_before_kill() {
        let _ = ChaosPlan::kill_respawn(0, 200, 100);
    }

    #[test]
    fn round_robin_stream_cycles() {
        let mut s = ConnStream::round_robin(3);
        assert_eq!(
            (0..7).map(|_| s.next()).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn skewed_stream_concentrates_on_one_connection() {
        let mut s = ConnStream::skewed(11, 64, 0.99);
        let mut counts = vec![0u32; 64];
        for _ in 0..4_000 {
            counts[s.next() as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(counts[0] == hottest, "conn 0 is the Zipf head");
        assert!(
            hottest as f64 > 4_000.0 * 0.10,
            "head conn must dominate: {hottest}"
        );
    }

    #[test]
    fn churn_stream_rotates_the_hot_connection() {
        let epoch = 256;
        let mut s = ConnStream::churn(5, 16, epoch);
        let hot_of = |s: &mut ConnStream| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..epoch {
                *counts.entry(s.next()).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(_, n)| n).unwrap().0
        };
        let h1 = hot_of(&mut s);
        let h2 = hot_of(&mut s);
        let h3 = hot_of(&mut s);
        assert!(h1 < 16, "first epoch draws from the initial set");
        assert!(h2 >= 16 && h3 > h2, "fresh ids take over each epoch");
    }

    #[test]
    fn face_load_builds_valid_requests() {
        let mut g = FaceLoad::new(1, 4, 64);
        let p = g.next_plain();
        let id = u64::from_le_bytes(p[..8].try_into().unwrap());
        assert!((1..=4).contains(&id));
        assert_eq!(p.len(), 12 + 64 * 64);
    }
}
