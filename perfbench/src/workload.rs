//! The workloads, how a run is sized from `--seconds`, and the
//! metrics each run reports.

use std::time::Instant;

use eleos_bench::harness::{paper_machine, paper_suvm_config, Scale};
use eleos_sim::costs::CPU_HZ;
use eleos_sim::stats::StatsSnapshot;

use crate::fleet::{self, FleetRig};
use crate::gen::{self, Mix, Op, Req, Rng, Zipf};
use crate::quant::{percentile, tail};
use crate::report::{fnv64, peak_rss_mb, ratio, Metrics};
use crate::search::{goodput, Probe};
use crate::single::{PhaseOut, Server, SetupTimes, StoreSpec};
use crate::trace::Tracer;

/// Workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 3] = ["kvs-hot", "kvs-paging", "fleet-failover"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Goodput bisection steps after the first probe: a resolution of
/// 1/64 of the search range.
const SEARCH_STEPS: usize = 6;

/// Fewest nominal-phase requests: p999 needs ten samples beyond it.
const MIN_NOMINAL: usize = 10_500;

/// Simulated cycles per microsecond.
const CYC_PER_US: f64 = CPU_HZ / 1e6;

/// Which serving tier a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One enclave, sharded pipelines.
    Single,
    /// Three replicas with failover and the maintenance plane.
    Fleet,
}

/// One workload: its store, traffic, rates and run sizes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Serving tier.
    pub tier: Tier,
    /// Scale divisor of the modelled machine and data set.
    pub scale: Scale,
    /// Store layout.
    pub store: StoreSpec,
    /// Request mix.
    pub mix: Mix,
    /// Fixed nominal offered rate, simulated kops/s.
    pub nominal_kops: f64,
    /// p99 latency limit for the goodput search, simulated µs.
    pub limit_us: f64,
    /// Goodput search: first probed rate and upper bound, kops/s.
    pub search: (f64, f64),
    /// Warm-up requests before the measured phases.
    pub warmup: usize,
    /// Nominal-phase requests per `--seconds`.
    pub nominal_per_s: usize,
    /// Requests per goodput probe per `--seconds`.
    pub probe_per_s: usize,
    /// Slices of the nominal phase `host_kops` takes its median over.
    pub host_segments: usize,
    /// Requests run after the nominal phase, at twice the nominal rate,
    /// before the goodput probes (0 for none).
    pub settle: usize,
}

/// The workload named `name`.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    // Every capacity and data set at 1/16 of the paper's.
    let scale = Scale(16);
    let paging_bytes = scale.bytes(500 << 20);
    let paging_items = (paging_bytes / (gen::KEY_LEN + 1024)) as u32;
    match name {
        "kvs-hot" => Some(Workload {
            name: "kvs-hot",
            tier: Tier::Single,
            scale,
            store: StoreSpec {
                shards: 2,
                data_bytes: 4 << 20,
                mem_limit: 8 << 20,
            },
            mix: Mix {
                n_items: 4096,
                zipf: Some(0.99),
                get_frac: 0.95,
                value_len: 64,
                shift: None,
            },
            nominal_kops: 700.0,
            limit_us: 100.0,
            search: (400.0, 1600.0),
            warmup: 4000,
            nominal_per_s: 10_000,
            probe_per_s: 2000,
            host_segments: 100,
            settle: 0,
        }),
        "kvs-paging" => Some(Workload {
            name: "kvs-paging",
            tier: Tier::Single,
            scale,
            store: StoreSpec {
                shards: 2,
                data_bytes: paging_bytes * 2,
                mem_limit: (paging_bytes as u64 * 3 / 2).max(8 << 20),
            },
            mix: Mix {
                n_items: paging_items,
                zipf: None,
                get_frac: 0.9,
                value_len: 1024,
                shift: None,
            },
            nominal_kops: 100.0,
            limit_us: 250.0,
            search: (60.0, 300.0),
            warmup: 2000,
            nominal_per_s: 3000,
            probe_per_s: 400,
            host_segments: 50,
            settle: 0,
        }),
        "fleet-failover" => Some(fleet::workload()),
        _ => None,
    }
}

/// What one run reports.
pub struct Outcome {
    /// Every reply matched the oracle and no request failed.
    pub correct: bool,
    /// Requests attempted over the whole run.
    pub attempted: u64,
    /// Requests failed over the whole run.
    pub failed: u64,
    /// The metrics (end-to-end or per-layer).
    pub metrics: Metrics,
}

/// The requests of one run, fixed by the seed and the run size.
pub struct Plan {
    /// Warm-up requests.
    pub warmup: Vec<Req>,
    /// Nominal-phase requests.
    pub nominal: Vec<Req>,
    /// SET version counter after the nominal phase.
    next_ver: u32,
    zipf: Option<Zipf>,
    seed: u64,
    probe_n: usize,
}

impl Plan {
    /// Generates the warm-up and nominal phases.
    #[must_use]
    pub fn new(w: &Workload, seed: u64, seconds: u64) -> Self {
        let zipf = w.mix.zipf.map(|a| Zipf::new(w.mix.n_items as usize, a));
        let mut next_ver = 0;
        let rate = w.nominal_kops * 1e3;
        let mut warm_mix = w.mix.clone();
        warm_mix.shift = None;
        let warmup = gen::phase(
            &warm_mix,
            zipf.as_ref(),
            &mut Rng::new(seed, 1),
            w.warmup,
            rate,
            &mut next_ver,
        );
        let nominal = gen::phase(
            &w.mix,
            zipf.as_ref(),
            &mut Rng::new(seed, 2),
            (w.nominal_per_s * seconds as usize).max(MIN_NOMINAL),
            rate,
            &mut next_ver,
        );
        Self {
            warmup,
            nominal,
            next_ver,
            zipf,
            seed,
            probe_n: w.probe_per_s * seconds as usize,
        }
    }

    /// The requests of goodput probe `k` at `rate_kops`.
    pub fn probe(&mut self, w: &Workload, k: u64, rate_kops: f64) -> Vec<Req> {
        self.after_shift(w, 100 + k, self.probe_n, rate_kops)
    }

    /// `n` requests of stream `stream` at `rate_kops`, drawn from the
    /// workload's mix as it stands after its value-size shift.
    pub fn after_shift(&mut self, w: &Workload, stream: u64, n: usize, rate_kops: f64) -> Vec<Req> {
        let mut mix = w.mix.clone();
        mix.shift = None;
        if let Some((_, len)) = w.mix.shift {
            mix.value_len = len;
        }
        gen::phase(
            &mix,
            self.zipf.as_ref(),
            &mut Rng::new(self.seed, stream),
            n,
            rate_kops * 1e3,
            &mut self.next_ver,
        )
    }
}

/// A serving system a workload drives.
pub trait System: Sized {
    /// Builds and fills the system, then runs the warm-up phase.
    /// Returns the system, the warm-up phase and the set-up times.
    fn set_up(w: &Workload, plan: &Plan, tr: &mut Option<Tracer>) -> (Self, PhaseOut, SetupTimes);

    /// Resets the machine's counters and runs the nominal phase.
    fn nominal(&mut self, plan: &Plan, tr: &mut Option<Tracer>) -> Nominal;

    /// Runs `reqs` open-loop, untraced and without chaos; request ids
    /// start at `first_id`.
    fn phase(&mut self, reqs: &[Req], first_id: u32) -> PhaseOut;
}

/// The nominal phase, the machine counters over it, and the counts
/// only the phase loop sees.
pub struct Nominal {
    /// The phase.
    pub out: PhaseOut,
    /// Machine counters since the reset at the phase start.
    pub snap: StatsSnapshot,
    /// Counts only the phase loop sees.
    pub extra: Extra,
}

/// Runs workload `w`.
#[must_use]
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let plan = Plan::new(w, seed, seconds);
    println!("{}", fingerprint(w, seed, seconds, &plan));
    match (w.tier, trace) {
        (Tier::Single, false) => untraced::<Server>(w, plan),
        (Tier::Single, true) => traced::<Server>(w, seed, &plan),
        (Tier::Fleet, false) => untraced::<FleetRig>(w, plan),
        (Tier::Fleet, true) => traced::<FleetRig>(w, seed, &plan),
    }
}

/// The configuration a result was measured on: the modelled hardware,
/// the cost model, the scale, the rates and the seed. A change to the
/// cost model changes the fingerprint, so it cannot pass as a
/// speed-up of the same machine.
fn fingerprint(w: &Workload, seed: u64, seconds: u64, plan: &Plan) -> String {
    let machine = paper_machine(w.scale);
    let hw = fnv64(format!("{:?}", machine.cfg).as_bytes());
    let costs = fnv64(format!("{:?}", machine.cfg.costs).as_bytes());
    let suvm = match w.tier {
        Tier::Single => format!(
            "{:016x}",
            fnv64(format!("{:?}", paper_suvm_config(w.scale, w.store.data_bytes * 2)).as_bytes())
        ),
        Tier::Fleet => "none".to_owned(),
    };
    format!(
        "fingerprint workload={} seed={seed} seconds={seconds} scale=1/{} machine={hw:016x} \
         costs={costs:016x} suvm={suvm} nominal_kops={} limit_us={} search_kops={:?} \
         warmup={} nominal={} probe={}",
        w.name,
        w.scale.0,
        w.nominal_kops,
        w.limit_us,
        w.search,
        plan.warmup.len(),
        plan.nominal.len(),
        plan.probe_n
    )
}

/// Extra per-workload counts the phase loops measure.
#[derive(Default, Clone, Copy)]
pub struct Extra {
    /// Items the storage engine(s) evicted in the phase.
    pub storage_evictions: u64,
    /// Mute → the heir's first reply on the victim's shards, cycles.
    pub failover_window: u64,
    /// Maintenance-core cycles of detector-driven failovers.
    pub auto_failover_cycles: u64,
    /// Maintenance-core cycles of queued rejoins.
    pub auto_recovery_cycles: u64,
}

/// Simulated end-to-end metrics of a phase: identical, bit for bit,
/// between runs with the same seed.
pub fn sim_metrics(m: &mut Metrics, out: &PhaseOut) {
    let mut lat = out.tally.lat.clone();
    lat.sort_unstable();
    let us = |c: u64| c as f64 / CYC_PER_US;
    if lat.is_empty() {
        lat.push(0);
    }
    m.put("p50_us", us(percentile(&lat, 0.50)), "us");
    m.put("p99_us", us(percentile(&lat, 0.99)), "us");
    // Reported only with ten samples beyond it; the run sizes keep
    // that true, and a run that breaks it fails loudly here.
    let p999 = tail(&lat, 0.999).expect("p999 needs at least ten samples beyond it");
    m.put("p999_us", us(p999), "us");
    let ops = out.tally.completed() as f64;
    m.put(
        "sys_cycles_per_op",
        ratio(
            (out.serve_cycles + out.worker_cycles + out.maint_cycles) as f64,
            ops,
        ),
        "cycles",
    );
    m.put(
        "hit_ratio",
        ratio(out.tally.hits as f64, out.tally.gets as f64),
        "ratio",
    );
}

/// Completed requests per host second, thousands: the median over
/// `w.host_segments` equal slices of the nominal phase, so a burst of
/// interference from outside the process moves one slice rather than
/// the result. With fewer than four slices, the whole phase's ratio.
pub fn host_kops(w: &Workload, out: &PhaseOut) -> f64 {
    let marks = &out.host_marks;
    let step = (marks.len().saturating_sub(1) / w.host_segments).max(1);
    let points: Vec<(f64, u64)> = marks
        .iter()
        .step_by(step)
        .chain(marks.last())
        .copied()
        .collect();
    let rates: Vec<f64> = points
        .windows(2)
        .filter(|p| p[1].0 > p[0].0)
        .map(|p| (p[1].1 - p[0].1) as f64 / (p[1].0 - p[0].0))
        .collect();
    if rates.len() < 4 {
        ratio(out.tally.completed() as f64, out.host_s) / 1e3
    } else {
        median(rates) / 1e3
    }
}

/// Median of `v`.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Summarises one goodput probe's phase and prints it, with the host
/// throughput the probe ran at.
fn report_probe(rate_kops: f64, out: &PhaseOut, limit_us: f64) -> Probe {
    let mut lat = out.tally.lat.clone();
    lat.sort_unstable();
    let p = Probe {
        rate_kops,
        p99_us: if lat.is_empty() {
            f64::MAX
        } else {
            percentile(&lat, 0.99) as f64 / CYC_PER_US
        },
        backlog_mid: out.backlog_mid,
        backlog_end: out.backlog_end,
        failed: out.tally.failed(),
    };
    println!(
        "probe rate_kops={:.3} p99_us={:.3} backlog_mid={} backlog_end={} failed={} pass={} \
         host_kops={:.3}",
        p.rate_kops,
        p.p99_us,
        p.backlog_mid,
        p.backlog_end,
        p.failed,
        p.passes(limit_us),
        ratio(out.tally.completed() as f64, out.host_s) / 1e3
    );
    p
}

/// Running totals of a run's attempted and failed requests.
#[derive(Default)]
pub struct Totals {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
}

impl Totals {
    /// Adds a phase's outcome counts.
    pub fn add(&mut self, out: &PhaseOut) {
        self.attempted += out.tally.attempted;
        self.failed += out.tally.failed();
    }
}

/// The untraced run: set up [`SETUPS`] times (keeping the last),
/// run the nominal phase, settle if the workload asks for it, then
/// search for goodput.
fn untraced<S: System>(w: &Workload, mut plan: Plan) -> Outcome {
    let mut tot = Totals::default();
    let mut setup_s = Vec::new();
    let mut sys = None;
    for _ in 0..SETUPS {
        // Drop the previous system first so only one is resident.
        drop(sys.take());
        let t = Instant::now();
        let (s, warm, _) = S::set_up(w, &plan, &mut None);
        setup_s.push(t.elapsed().as_secs_f64());
        tot.add(&warm);
        sys = Some(s);
    }
    let mut sys = sys.expect("at least one set-up");
    let nominal = sys.nominal(&plan, &mut None).out;
    tot.add(&nominal);
    let mut m = Metrics::default();
    sim_metrics(&mut m, &nominal);
    let mut next_id = (plan.warmup.len() + plan.nominal.len()) as u32;
    if w.settle > 0 {
        let reqs = plan.after_shift(w, 99, w.settle, 2.0 * w.nominal_kops);
        tot.add(&sys.phase(&reqs, next_id));
        next_id += reqs.len() as u32;
    }
    let (best, _) = goodput(w.search.0, w.search.1, SEARCH_STEPS, w.limit_us, |rate| {
        let reqs = plan.probe(w, u64::from(next_id), rate);
        let out = sys.phase(&reqs, next_id);
        next_id += reqs.len() as u32;
        tot.add(&out);
        report_probe(rate, &out, w.limit_us)
    });
    m.put("goodput_kops", best.unwrap_or(0.0), "kops/s");
    m.put("host_kops", host_kops(w, &nominal), "kops/s");
    m.put("setup_s", median(setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome {
        correct: tot.failed == 0,
        attempted: tot.attempted,
        failed: tot.failed,
        metrics: m,
    }
}

/// The traced run: set-up and nominal phase once untraced and once
/// traced, compared in simulated time (`check.traced_sim_equal`); the
/// per-layer metrics come from the traced pass.
fn traced<S: System>(w: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut tot = Totals::default();
    let mut pass = |tr: &mut Option<Tracer>| {
        let (mut sys, warm, times) = S::set_up(w, plan, tr);
        let nominal = sys.nominal(plan, tr);
        tot.add(&warm);
        tot.add(&nominal.out);
        (nominal, times)
    };
    let (plain, _) = pass(&mut None);
    let mut tr = Some(Tracer::new());
    let (traced, times) = pass(&mut tr);
    let tr = tr.expect("tracer");
    let mut a = Metrics::default();
    sim_metrics(&mut a, &plain.out);
    let mut b = Metrics::default();
    sim_metrics(&mut b, &traced.out);
    let same = a.items() == b.items() && plain.out.tally.lat == traced.out.tally.lat;
    if !same {
        // Reported, not failed: `correct` is about the replies, and the
        // simulator's RPC worker can race the caller in the LLC model
        // (see the README's findings).
        println!("traced and untraced simulated results differ");
    }
    let path =
        std::path::Path::new(".bench_out").join(format!("trace-{}-seed{seed}.jsonl", w.name));
    if let Err(e) = tr.write(&path) {
        println!("could not write {}: {e}", path.display());
    }
    // SETs of the nominal phase and their value bytes.
    let sets = plan
        .nominal
        .iter()
        .fold((0u64, 0u64), |(n, b), r| match r.op {
            Op::Set { len, .. } => (n + 1, b + u64::from(len)),
            Op::Get => (n, b),
        });
    let mut m = Metrics::default();
    layer_metrics(&mut m, &traced, &tr, &times, sets);
    let traced_kops = host_kops(w, &traced.out);
    m.put(
        "trace.overhead_frac",
        1.0 - ratio(traced_kops, host_kops(w, &plain.out)),
        "ratio",
    );
    m.put("trace.host_kops", traced_kops, "kops/s");
    m.put("trace.spans", tr.spans().len() as f64, "count");
    m.put("check.traced_sim_equal", f64::from(u8::from(same)), "bool");
    Outcome {
        correct: tot.failed == 0,
        attempted: tot.attempted,
        failed: tot.failed,
        metrics: m,
    }
}

/// Per-layer metrics of the traced nominal phase.
fn layer_metrics(
    m: &mut Metrics,
    nominal: &Nominal,
    tr: &Tracer,
    setup: &SetupTimes,
    (sets, set_bytes): (u64, u64),
) {
    let (out, d, extra) = (&nominal.out, &nominal.snap, &nominal.extra);
    let ops = out.tally.completed() as f64;
    let per_op = |v: u64| ratio(v as f64, ops);
    let us = |c: u64| c as f64 / CYC_PER_US;
    let p99 = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        if v.is_empty() {
            0
        } else {
            percentile(&v, 0.99)
        }
    };
    let serve_ns = tr.host_ns_of("serve");
    // Serving (apps::io, through the serving calls).
    m.put("io.serve_cycles_per_op", per_op(out.serve_cycles), "cycles");
    m.put(
        "io.batch_mean",
        ratio(out.served as f64, out.useful_calls as f64),
        "reqs",
    );
    m.put(
        "io.useful_call_ratio",
        ratio(out.useful_calls as f64, out.calls as f64),
        "ratio",
    );
    m.put("io.queue_wait_p99_us", us(p99(&out.tally.wait)), "us");
    m.put("io.service_p99_us", us(p99(&out.tally.service)), "us");
    m.put(
        "io.host_us_per_call",
        ratio(serve_ns as f64 / 1e3, out.calls as f64),
        "us",
    );
    m.put(
        "io.host_share",
        ratio(serve_ns as f64 / 1e9, out.host_s),
        "ratio",
    );
    // Exit-less RPC.
    m.put(
        "rpc.worker_cycles_per_op",
        per_op(out.worker_cycles),
        "cycles",
    );
    m.put("rpc.batches_per_op", per_op(d.rpc_batches), "count");
    m.put("rpc.ring_full_per_op", per_op(d.rpc_ring_full), "count");
    m.put("rpc.idle_yields_per_op", per_op(d.rpc_idle_yields), "count");
    // Host syscalls and enclave transitions.
    m.put("host.syscalls_per_op", per_op(d.syscalls), "count");
    m.put(
        "host.kernel_meta_per_op",
        per_op(d.kernel_meta_reads),
        "count",
    );
    m.put(
        "enclave.exits_per_op",
        per_op(d.enclave_exits + d.aex),
        "count",
    );
    m.put("mem.tlb_flushes_per_op", per_op(d.tlb_flushes), "count");
    // Wire crypto and the client.
    m.put(
        "wire.msgs_per_batch",
        ratio(d.crypto_msgs as f64, d.crypto_batches as f64),
        "msgs",
    );
    m.put(
        "wire.setup_cycles_per_op",
        per_op(d.crypto_setup_cycles),
        "cycles",
    );
    m.put(
        "crypto.sealed_bytes_per_op",
        per_op(d.sealed_bytes),
        "bytes",
    );
    let client_ns = tr.host_ns_of("client.push") + tr.host_ns_of("client.pop");
    m.put(
        "client.host_us_per_req",
        ratio(client_ns as f64 / 1e3, out.tally.attempted as f64),
        "us",
    );
    // SUVM.
    m.put(
        "suvm.major_faults_per_op",
        per_op(d.suvm_major_faults),
        "count",
    );
    m.put(
        "suvm.minor_faults_per_op",
        per_op(d.suvm_minor_faults),
        "count",
    );
    m.put("suvm.evictions_per_op", per_op(d.suvm_evictions), "count");
    m.put(
        "suvm.clean_skip_ratio",
        ratio(d.suvm_clean_skips as f64, d.suvm_evictions as f64),
        "ratio",
    );
    m.put(
        "suvm.wb_pages_per_op",
        per_op(d.suvm_evictions.saturating_sub(d.suvm_clean_skips)),
        "pages",
    );
    // SGX driver paging and the memory hierarchy.
    m.put("driver.hw_faults_per_op", per_op(d.hw_faults), "count");
    m.put("driver.ipis_per_op", per_op(d.ipis), "count");
    m.put(
        "driver.epc_over_share_peak",
        d.epc_over_share_peak as f64,
        "frames",
    );
    m.put(
        "mem.llc_miss_ratio",
        ratio(d.llc_misses as f64, (d.llc_hits + d.llc_misses) as f64),
        "ratio",
    );
    m.put(
        "mem.llc_epc_misses_per_op",
        per_op(d.llc_misses_epc),
        "count",
    );
    m.put(
        "mem.tlb_miss_ratio",
        ratio(d.tlb_misses as f64, (d.tlb_hits + d.tlb_misses) as f64),
        "ratio",
    );
    // Storage engine.
    m.put(
        "storage.evictions_per_op",
        per_op(extra.storage_evictions),
        "count",
    );
    m.put("storage.slab_moves", d.slab_moves as f64, "count");
    m.put(
        "storage.items_relocated",
        d.slab_items_relocated as f64,
        "count",
    );
    m.put(
        "storage.maint_stall_cycles",
        d.maint_stall_cycles as f64,
        "cycles",
    );
    // Fleet serving and failover.
    m.put("fleet.failovers", d.fleet_failovers as f64, "count");
    m.put("fleet.restores", d.fleet_restores as f64, "count");
    m.put("fleet.failover_window_us", us(extra.failover_window), "us");
    m.put(
        "fleet.auto_failover_cycles",
        extra.auto_failover_cycles as f64,
        "cycles",
    );
    m.put(
        "fleet.auto_recovery_cycles",
        extra.auto_recovery_cycles as f64,
        "cycles",
    );
    // Maintenance plane.
    let ticks = out.ticks as f64;
    m.put(
        "maint.cycles_per_tick",
        ratio(out.maint_cycles as f64, ticks),
        "cycles",
    );
    m.put("maint.cycles_per_op", per_op(out.maint_cycles), "cycles");
    m.put(
        "maint.host_ms_per_tick",
        ratio(tr.host_ns_of("maint.tick") as f64 / 1e6, ticks),
        "ms",
    );
    m.put(
        "maint.chunks_per_tick",
        ratio(d.maint_chunks as f64, ticks),
        "count",
    );
    m.put(
        "maint.delta_items_per_set",
        ratio(d.snapshot_delta_items as f64, sets as f64),
        "count",
    );
    m.put(
        "maint.chan_bytes_per_set_byte",
        ratio(d.xchan_bytes as f64, set_bytes as f64),
        "ratio",
    );
    m.put("maint.hb_misses", d.hb_misses as f64, "count");
    // Set-up.
    m.put("setup.build_s", setup.build_s, "s");
    m.put("setup.fill_s", setup.fill_s, "s");
    m.put("setup.warmup_s", setup.warmup_s, "s");
    // Checks.
    m.put(
        "check.failed_frac",
        ratio(out.tally.failed() as f64, out.tally.attempted as f64),
        "ratio",
    );
    m.put("check.generator_lag_us", us(out.lag_max), "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short plan: the tests compare runs, they do not measure.
    fn small_plan(w: &Workload, seed: u64) -> Plan {
        let mut plan = Plan::new(w, seed, 1);
        plan.warmup.truncate(300);
        plan.nominal.truncate(2000);
        plan
    }

    /// The simulated outcome of one set-up plus nominal phase.
    fn simulate<S: System>(
        w: &Workload,
        plan: &Plan,
        tr: &mut Option<Tracer>,
    ) -> (Vec<u64>, u64, u64, u64) {
        let (mut sys, warm, _) = S::set_up(w, plan, tr);
        let n = sys.nominal(plan, tr);
        assert_eq!(warm.tally.failed() + n.out.tally.failed(), 0);
        (
            n.out.tally.lat,
            n.out.serve_cycles,
            n.out.worker_cycles + n.out.maint_cycles,
            n.out.tally.hits,
        )
    }

    fn repeats<S: System>(name: &str) {
        let w = by_name(name).expect("workload");
        let plan = small_plan(&w, 7);
        let a = simulate::<S>(&w, &plan, &mut None);
        let b = simulate::<S>(&w, &plan, &mut None);
        assert_eq!(a, b, "same seed, same simulated results");
        let c = simulate::<S>(&w, &plan, &mut Some(Tracer::new()));
        assert_eq!(a, c, "tracing must not change simulated results");
        let other = simulate::<S>(&w, &small_plan(&w, 8), &mut None);
        assert_ne!(a.0, other.0, "another seed gives other requests");
    }

    #[test]
    fn kvs_hot_runs_repeat_exactly() {
        repeats::<Server>("kvs-hot");
    }

    #[test]
    fn fleet_runs_repeat_exactly() {
        repeats::<FleetRig>("fleet-failover");
    }

    #[test]
    fn every_workload_is_named() {
        for name in NAMES {
            assert_eq!(by_name(name).expect("workload").name, name);
        }
        assert!(by_name("nope").is_none());
    }
}
