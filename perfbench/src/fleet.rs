//! fleet-failover: three enclave replicas over four shard sockets,
//! each replica on its own core, the background maintenance plane on
//! core 2, and a mute → detector failover → rejoin cycle in the
//! nominal phase.
//!
//! The phase loop is a discrete-event loop: it always pumps the live
//! replica whose core clock is lowest, and runs a maintenance tick
//! whenever the next tick time is due before that. Requests due by
//! the lowest clock are pushed first.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use eleos_apps::fleet_io::{FleetConfig, FleetKvs, MaintenanceConfig};
use eleos_apps::io::{IoPath, ServerIoConfig};
use eleos_apps::loadgen::attest_session;
use eleos_apps::storage::{EngineConfig, RebalanceConfig};
use eleos_apps::wire::Session;
use eleos_bench::harness::{paper_machine, Scale, RPC_CORE, SOCKET_STAGING};
use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::Sealer;
use eleos_enclave::fleet::ReplicaState;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::{with_syscalls, RpcService};
use eleos_sim::stats::MAX_STORAGE_CLASSES;

use crate::client::Client;
use crate::gen::{key, value, Mix, Req};
use crate::oracle::Shadow;
use crate::single::{PhaseOut, SetupTimes, StoreSpec, BATCH};
use crate::trace::{self, Tracer};
use crate::workload::{Extra, Nominal, Plan, System, Tier, Workload};

/// Replica serving cores (replica `r` on `CORES[r]`).
const CORES: [usize; 3] = [0, 1, 3];
/// The maintenance plane's core.
const MAINT_CORE: usize = 2;
/// The client's push context core (charged nothing).
const CLIENT_CORE: usize = 4;
/// The replica the chaos schedule mutes and re-admits. Replica 0
/// owns shards 0 and 3 (ownership starts round-robin), half of the
/// traffic, so the failover window holds enough requests to set both
/// tail percentiles.
const VICTIM: usize = 0;
/// Mute the victim at the first maintenance tick after this fraction
/// of the nominal arrivals is due. Aligning the mute with a tick makes
/// the failover window the same length on every seed: the detector
/// fails the victim over at the third tick after it.
const MUTE_AT: f64 = 0.4;
/// Re-admit it (through `request_rejoin`) when this fraction is due;
/// the next tick respawns it.
const REJOIN_AT: f64 = 0.7;
/// Heartbeat-less ticks before the detector fails a replica over.
const HB_MISS_THRESHOLD: u64 = 3;
/// Maintenance tick period, cycles (≈ 2.35 ms at 3.4 GHz).
///
/// Ticks fire on this fixed simulated schedule. A tick's own cost is
/// charged to the maintenance core's clock (`maint.cycles_per_tick`),
/// and at this store size a tick costs more than the period: the
/// delta round scans every item of every replica. The schedule does
/// not wait for the core, so the maintenance core's queueing does not
/// reach request latency; its cycles do reach `sys_cycles_per_op`.
///
/// A live replica must be pumped once per period or the detector
/// counts a miss. Serving calls last tens of µs, far below the
/// period, so only the muted replica is failed over. The period also
/// bounds host time: a tick takes about 0.25 s of host time on a
/// 2-vCPU Xeon.
const TICK_PERIOD: u64 = 8_000_000;

/// Items. The 64 B fill takes one full 1 MiB slab (10,922 chunks of
/// 96 B) and 342 items of a second, leaving one free slab of the
/// 3 MiB pool for the 512 B class at the shift. As the 512 B class
/// nears full, the rebalancer moves it the nearly empty second 64 B
/// slab; the nominal phase writes fewer distinct 512 B items than the
/// two slabs hold, so it never evicts.
const N_ITEMS: u32 = 11_264;

/// The fleet-failover workload.
#[must_use]
pub fn workload() -> Workload {
    Workload {
        name: "fleet-failover",
        tier: Tier::Fleet,
        // Three replicas with 3 MiB pools fit the 11.6 MB EPC of 1/8
        // scale; at 1/16 scale every maintenance scan would page
        // through the SGX driver.
        scale: Scale(8),
        store: StoreSpec {
            shards: 4,
            data_bytes: 3 << 20,
            mem_limit: 3 << 20,
        },
        mix: Mix {
            n_items: N_ITEMS,
            zipf: None,
            get_frac: 0.5,
            value_len: 64,
            shift: Some((0.5, 512)),
        },
        // At 150 kops/s about 160 new 512 B items land per tick, fewer
        // than the 218 free chunks at which the rebalancer sees the
        // class starved, so its slab move comes before the class
        // fills. Faster, and some seeds fill it between two ticks and
        // hit the eviction storm inside the nominal phase.
        nominal_kops: 150.0,
        limit_us: 250.0,
        search: (300.0, 1500.0),
        warmup: 1000,
        nominal_per_s: 600,
        probe_per_s: 400,
        host_segments: 1,
        // Settle the shifted store before probing it: once the 512 B
        // class fills, the first SET that needs one of its chunks
        // evicts the 64 B items ahead of it in the LRU one by one (see
        // the README). That one-off stall would fail whichever probe
        // met it.
        settle: 8000,
    }
}

/// The fleet, its machine and its client.
pub struct FleetRig {
    machine: Arc<SgxMachine>,
    fk: FleetKvs,
    client: Client,
    shards: usize,
}

/// Reads whether any engine has evicted (the per-class gauges the
/// slab engines publish at their fences).
fn any_evictions(m: &SgxMachine) -> bool {
    (0..MAX_STORAGE_CLASSES).any(|c| m.stats.storage.evictions[c].load(Ordering::Relaxed) > 0)
}

/// Sum of the published per-class eviction gauges.
fn evictions(m: &SgxMachine) -> u64 {
    (0..MAX_STORAGE_CLASSES)
        .map(|c| m.stats.storage.evictions[c].load(Ordering::Relaxed))
        .sum()
}

impl FleetRig {
    /// Builds the machine (the paper's at the workload's scale, CAT
    /// on), one RPC worker, the attested wire session, the shard
    /// sockets and the fleet, and fills every replica.
    fn build(w: &Workload, tr: &mut Option<Tracer>) -> (FleetRig, SetupTimes) {
        let (spec, n_items, fill_len) = (&w.store, w.mix.n_items, w.mix.value_len);
        let t = Instant::now();
        let sp = trace::open_fresh(tr, "setup.build", CORES[0], t);
        let machine = paper_machine(w.scale);
        machine.enable_cat();
        let rpc = Arc::new(
            with_syscalls(RpcService::builder(&machine), &machine)
                .workers(1, &[RPC_CORE])
                .build(),
        );
        let session = Arc::new(Session::handshake([0x42; 16], [0xA7; 16]));
        let mut ut = ThreadCtx::untrusted(&machine, CLIENT_CORE);
        attest_session(&mut ut, &session);
        let fds = machine.host.socket_set(&ut, spec.shards, SOCKET_STAGING);
        let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x2a; 16]));
        let cfg = FleetConfig {
            linear_bytes: spec.data_bytes + (1 << 20),
            mem_limit: spec.mem_limit,
            buckets: u64::from(n_items) * 2,
            engine: EngineConfig::Slab {
                rebalance: Some(RebalanceConfig::default()),
            },
            ..FleetConfig::small(CORES.len())
        }
        .on_cores(&CORES)
        .with_maintenance(MaintenanceConfig {
            core: MAINT_CORE,
            hb_miss_threshold: HB_MISS_THRESHOLD,
            chunk_bytes: 32 << 10,
        });
        trace::close(tr, &machine, sp, 0, &[]);
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sp = trace::open(tr, &machine, "setup.fill", CORES[0], 0);
        let fk = FleetKvs::new(
            &machine,
            &fds,
            ServerIoConfig::with_buf_len(64 << 10)
                .async_send(false)
                .adaptive(BATCH.0, BATCH.1)
                .shards(spec.shards),
            IoPath::Rpc(rpc),
            Arc::clone(&session),
            sealer,
            cfg,
            |ctx, kvs| {
                for i in 0..n_items {
                    kvs.set(ctx, &key(i), &value(i, 0, fill_len as usize));
                }
            },
        );
        trace::close(tr, &machine, sp, fk.sync_clocks(), &[]);
        let client = Client::new(
            &machine,
            CLIENT_CORE,
            &session,
            &fds,
            Shadow::filled(n_items, fill_len),
        );
        let times = SetupTimes {
            build_s,
            fill_s: t.elapsed().as_secs_f64(),
            warmup_s: 0.0,
        };
        (
            FleetRig {
                machine,
                fk,
                client,
                shards: spec.shards,
            },
            times,
        )
    }

    fn clock(&self, core: usize) -> u64 {
        self.machine.core(core).clock.now()
    }

    fn advance(&self, core: usize, to: u64) -> u64 {
        let clock = &self.machine.core(core).clock;
        let dt = to.saturating_sub(clock.now());
        clock.advance(dt);
        dt
    }

    /// Runs `reqs` open-loop over the fleet (see the module docs).
    /// With `chaos`, the victim is muted at [`MUTE_AT`] of the
    /// arrivals and re-admitted at [`REJOIN_AT`].
    fn run_phase(
        &mut self,
        reqs: &[Req],
        first_id: u32,
        chaos: bool,
        tr: &mut Option<Tracer>,
    ) -> (PhaseOut, Extra) {
        let m = Arc::clone(&self.machine);
        let host0 = Instant::now();
        let t0 = self.fk.sync_clocks();
        let mut out = PhaseOut::default();
        let mut extra = Extra::default();
        let mut maint_idle = self.advance(MAINT_CORE, t0);
        let c0: Vec<u64> = CORES.iter().map(|&c| self.clock(c)).collect();
        let m0 = self.clock(MAINT_CORE);
        let w0 = self.clock(RPC_CORE);
        let af0 = self.fk.auto_failover_cycles();
        let ar0 = self.fk.auto_recovery_cycles();
        let ev0 = evictions(&m);
        let n = reqs.len();
        let mute_at = chaos.then_some((n as f64 * MUTE_AT) as usize);
        let rejoin_at = chaos.then_some((n as f64 * REJOIN_AT) as usize);
        let victim_shards: Vec<usize> = (0..self.shards)
            .filter(|s| s % CORES.len() == VICTIM)
            .collect();
        let mut muted = false;
        let mut mute_pending = false;
        let mut mute_time = 0u64;
        let mut rejoin_wanted = false;
        let mut rejoining = false;
        let mut next_tick = t0 + TICK_PERIOD;
        let mut next = 0usize;
        let mut done = Vec::new();
        let mut idle_rounds = 0u32;
        loop {
            let live: Vec<usize> = (0..CORES.len())
                .filter(|&r| !(muted && r == VICTIM))
                .filter(|&r| self.fk.fleet().state(r) == ReplicaState::Serving)
                .collect();
            let (r, now) = live
                .iter()
                .map(|&r| (r, self.clock(CORES[r])))
                .min_by_key(|&(r, c)| (c, r))
                .expect("a live replica");
            if next_tick <= now {
                let tick_at = next_tick;
                if rejoin_wanted && self.fk.fleet().state(VICTIM) == ReplicaState::Dead {
                    // Re-admit only a replica the detector has failed
                    // over; this tick respawns it.
                    let sp = trace::open(tr, &m, "chaos.rejoin", MAINT_CORE, tick_at);
                    self.fk.request_rejoin(VICTIM);
                    rejoin_wanted = false;
                    rejoining = true;
                    trace::close(tr, &m, sp, tick_at, &[]);
                }
                maint_idle += self.advance(MAINT_CORE, tick_at);
                let start = self.clock(MAINT_CORE);
                let sp = trace::open(tr, &m, "maint.tick", MAINT_CORE, start);
                self.fk.maintenance_tick();
                out.ticks += 1;
                let end = self.clock(MAINT_CORE);
                done.clear();
                self.client.reap(start, end, &mut done);
                trace::close(tr, &m, sp, end, &done);
                self.client.evicted |= any_evictions(&m);
                next_tick += TICK_PERIOD;
                if mute_pending {
                    let sp = trace::open(tr, &m, "chaos.mute", CORES[VICTIM], tick_at);
                    mute_pending = false;
                    muted = true;
                    mute_time = tick_at;
                    trace::close(tr, &m, sp, tick_at, &[]);
                }
                if rejoining && self.fk.fleet().state(VICTIM) == ReplicaState::Serving {
                    // The rejoined replica resumes at the tick that
                    // re-admitted it; the gap is idle, not work.
                    rejoining = false;
                    muted = false;
                    out.idle += self.advance(CORES[VICTIM], tick_at);
                }
                idle_rounds += 1;
                if idle_rounds > 10_000 {
                    break;
                }
                continue;
            }
            if next < n && t0 + reqs[next].due <= now {
                let sp = trace::open(tr, &m, "client.push", CLIENT_CORE, now);
                while next < n && t0 + reqs[next].due <= now {
                    if next == n / 2 {
                        out.backlog_mid = self.client.outstanding() as u64;
                    }
                    if next == n - 1 {
                        out.backlog_end = self.client.outstanding() as u64;
                    }
                    if Some(next) == mute_at {
                        mute_pending = true;
                    }
                    if Some(next) == rejoin_at {
                        rejoin_wanted = true;
                    }
                    let due = t0 + reqs[next].due;
                    out.lag_max = out.lag_max.max(now - due);
                    self.client.push(first_id + next as u32, &reqs[next], due);
                    next += 1;
                }
                trace::close(tr, &m, sp, now, &[]);
            }
            if next == n && self.client.outstanding() == 0 && !rejoining && !rejoin_wanted {
                break;
            }
            let before: usize = victim_shards
                .iter()
                .map(|&s| self.client.outstanding_on(s))
                .sum();
            let start = now;
            let sp = trace::open(tr, &m, "serve", CORES[r], start);
            let got = self.fk.pump_replica(r);
            let end = self.clock(CORES[r]);
            let serve_span = trace::close(tr, &m, sp, end, &[]);
            out.calls += 1;
            out.served += got as u64;
            self.client.evicted |= any_evictions(&m);
            done.clear();
            let sp = trace::open(tr, &m, "client.pop", CLIENT_CORE, end);
            self.client.reap(start, end, &mut done);
            trace::close(tr, &m, sp, end, &[]);
            if let (Some(t), Some(i)) = (tr.as_mut(), serve_span) {
                t.add_reqs(i, &done);
            }
            if muted && r != VICTIM && extra.failover_window == 0 {
                let after: usize = victim_shards
                    .iter()
                    .map(|&s| self.client.outstanding_on(s))
                    .sum();
                if after < before {
                    extra.failover_window = end - mute_time;
                }
            }
            if got > 0 {
                out.useful_calls += 1;
                idle_rounds = 0;
            } else {
                let target = if next < n {
                    (t0 + reqs[next].due).min(next_tick)
                } else {
                    next_tick
                };
                out.idle += self.advance(CORES[r], target);
            }
        }
        self.client.drop_outstanding();
        out.tally = self.client.take();
        let serve: u64 = CORES
            .iter()
            .zip(&c0)
            .map(|(&c, &a)| self.clock(c) - a)
            .sum();
        out.serve_cycles = serve.saturating_sub(out.idle);
        out.maint_cycles = (self.clock(MAINT_CORE) - m0).saturating_sub(maint_idle);
        out.worker_cycles = self.clock(RPC_CORE) - w0;
        out.host_s = host0.elapsed().as_secs_f64();
        out.host_marks.push((out.host_s, out.tally.completed()));
        extra.storage_evictions = evictions(&m).saturating_sub(ev0);
        extra.auto_failover_cycles = self.fk.auto_failover_cycles() - af0;
        extra.auto_recovery_cycles = self.fk.auto_recovery_cycles() - ar0;
        (out, extra)
    }
}

impl System for FleetRig {
    fn set_up(w: &Workload, plan: &Plan, tr: &mut Option<Tracer>) -> (Self, PhaseOut, SetupTimes) {
        let (mut f, mut times) = FleetRig::build(w, tr);
        let t = Instant::now();
        let m = Arc::clone(&f.machine);
        let sp = trace::open(tr, &m, "setup.warmup", CORES[0], f.fk.sync_clocks());
        let (warm, _) = f.run_phase(&plan.warmup, 0, false, tr);
        trace::close(tr, &m, sp, f.fk.sync_clocks(), &[]);
        times.warmup_s = t.elapsed().as_secs_f64();
        (f, warm, times)
    }

    /// Resets the counters and runs the nominal phase with the mute →
    /// failover → rejoin cycle.
    fn nominal(&mut self, plan: &Plan, tr: &mut Option<Tracer>) -> Nominal {
        self.fk.sync_clocks();
        self.machine.reset_counters();
        let (out, extra) = self.run_phase(&plan.nominal, plan.warmup.len() as u32, true, tr);
        Nominal {
            out,
            snap: self.machine.stats.snapshot(),
            extra,
        }
    }

    fn phase(&mut self, reqs: &[Req], first_id: u32) -> PhaseOut {
        self.run_phase(reqs, first_id, false, &mut None).0
    }
}
