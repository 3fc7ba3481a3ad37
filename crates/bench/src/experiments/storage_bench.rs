//! Storage-engine shootout: static slabs vs the slab rebalancer vs
//! the TTL-bucketed segment store, across three serving mixes. Emits
//! `BENCH_storage.json` for machine consumption.
//!
//! Cells (engine x workload):
//!
//! - `shifting` — the item-size distribution shifts mid-run (small
//!   fill, then large writes): static slab classes calcify on the old
//!   size and serve the new one out of a sliver of the pool, so every
//!   miss pays a backend refill; the rebalancer reassigns whole slabs
//!   to the starved class at fences.
//! - `skewed` — a stable skewed read mix inside the memory limit; no
//!   engine should be able to buy much here (sanity/tie cell).
//! - `ttl` — short-TTL cache traffic under memory pressure with
//!   simulated think time between ops: the segment store reclaims
//!   whole expired segments at fences and keeps the op path free of
//!   LRU pointer maintenance.
//!
//! The `slab-rebal` and `segment` engines place maintenance inline:
//! every fence runs the engine's maintenance pass on the serving
//! thread. The `slab-rebal-bg` and `segment-bg` engines run the same
//! configs with **background placement**: serving-path fences only
//! publish counters, and the same pass runs in
//! [`Kvs::maintenance_tick`] on a second core after each fence, so
//! both placements make identical engine decisions. Each cell carries
//! `maint_stall_cycles` (serving-core cycles stalled in inline
//! maintenance — must be ~0 for the background engines) and
//! `bg_merges` (proactive segment merges the pass performed).

use std::sync::Arc;

use eleos_apps::kvs::Kvs;
use eleos_apps::space::DataSpace;
use eleos_apps::storage::{EngineConfig, RebalanceConfig, SegmentConfig};
use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_enclave::thread::ThreadCtx;

use crate::harness::{header, Scale};

/// Cycles a miss costs the service: fetch from the backing store and
/// re-set the item (memcached's cache-aside refill).
const REFILL_CYCLES: u64 = 15_000;
/// Ops per sub-batch fence (the serving loop's batch size).
const FENCE_EVERY: usize = 64;
/// Core the background engines' maintenance ticks run on (the serving
/// thread is on core 0).
const MAINT_CORE: usize = 1;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

struct Cell {
    cell: &'static str,
    engine: &'static str,
    ops: usize,
    busy_cpo: f64,
    evictions: u64,
    expired: u64,
    slab_moves: u64,
    seg_merges: u64,
    /// Serving-core cycles stalled in inline maintenance byte-work
    /// (~0 for the background engines — that is their whole point).
    maint_stall: u64,
    /// Proactive segment merges the background tick performed.
    bg_merges: u64,
    refills: u64,
    items_end: u64,
}

/// `(label, config, background)` — the background entries run the
/// same engine configs with the byte-work moved off the fence.
fn engines() -> Vec<(&'static str, EngineConfig, bool)> {
    let rebal = EngineConfig::Slab {
        rebalance: Some(RebalanceConfig::default()),
    };
    let seg = EngineConfig::Segment(SegmentConfig::default());
    vec![
        ("slab-static", EngineConfig::Slab { rebalance: None }, false),
        ("slab-rebal", rebal.clone(), false),
        ("slab-rebal-bg", rebal, true),
        ("segment", seg.clone(), false),
        ("segment-bg", seg, true),
    ]
}

/// Builds the serving thread plus, for background engines, an entered
/// maintenance thread on [`MAINT_CORE`].
fn rig(
    mem_limit: u64,
    cfg: &EngineConfig,
    background: bool,
) -> (Arc<SgxMachine>, ThreadCtx, Kvs, Option<ThreadCtx>) {
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::with_engine(space.clone(), space, mem_limit, 4096, cfg);
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    kvs.init(&mut t);
    let mt = background.then(|| {
        kvs.set_background(true);
        let mut mt = ThreadCtx::for_enclave(&m, &e, MAINT_CORE);
        mt.enter();
        mt
    });
    (m, t, kvs, mt)
}

/// One background pass after a serving-path fence: the maintenance
/// core first idles forward to the serving core's time (its clock
/// only moves when ticks run, and segment expiry reads the clock),
/// then runs the engine byte-work off-core.
fn bg_tick(m: &SgxMachine, t: &ThreadCtx, kvs: &mut Kvs, mt: &mut Option<ThreadCtx>) {
    let Some(mt) = mt.as_mut() else { return };
    let clock = &m.core(MAINT_CORE).clock;
    let now = t.now();
    if now > clock.now() {
        clock.advance(now - clock.now());
    }
    kvs.maintenance_tick(mt);
}

/// Measured-window totals a workload hands to [`finish`].
struct Run {
    ops: usize,
    busy: u64,
    refills: u64,
}

fn finish(
    cell: &'static str,
    engine: &'static str,
    run: Run,
    m: &SgxMachine,
    kvs: &Kvs,
    mut t: ThreadCtx,
    mt: Option<ThreadCtx>,
) -> Cell {
    let d = m.stats.snapshot();
    if let Some(mut mt) = mt {
        mt.exit();
    }
    t.exit();
    let Run { ops, busy, refills } = run;
    Cell {
        cell,
        engine,
        ops,
        busy_cpo: busy as f64 / ops as f64,
        evictions: kvs.evictions(),
        expired: kvs.expired(),
        slab_moves: d.slab_moves,
        seg_merges: d.seg_merges,
        maint_stall: d.maint_stall_cycles,
        bg_merges: d.bg_merges,
        refills,
        items_end: kvs.len(),
    }
}

/// The item-size distribution shifts mid-run: a small-item fill
/// calcifies the pool, then the write mix switches to ~1.2 KiB values
/// with reads over a recency window larger than what the calcified
/// layout leaves the new class.
fn run_shifting(name: &'static str, cfg: &EngineConfig, background: bool, ops: usize) -> Cell {
    const A_ITEMS: u64 = 35_000;
    const WARMUP_WRITES: u64 = 2_500;
    const WINDOW: u64 = 2_000;
    let (m, mut t, mut kvs, mut mt) = rig(8 << 20, cfg, background);
    for i in 0..A_ITEMS {
        kvs.set(&mut t, format!("a-{i}").as_bytes(), &[0x11u8; 160]);
    }
    // The shift: the write mix switches to large values. The one-time
    // eviction storm (the calcified small class is drained item by
    // item) lands here, outside the measured window, so the steady
    // state compares layouts, not the shared storm cost.
    let mut rng = Rng(0x5eed_0001);
    let mut wrote = 0u64;
    while wrote < WARMUP_WRITES {
        kvs.set(&mut t, format!("b-{wrote}").as_bytes(), &[0x22u8; 1200]);
        wrote += 1;
        if wrote.is_multiple_of(4) {
            let victim = rng.next() % A_ITEMS;
            kvs.delete(&mut t, format!("a-{victim}").as_bytes());
        }
        if wrote.is_multiple_of(FENCE_EVERY as u64) {
            kvs.fence(&mut t);
            bg_tick(&m, &t, &mut kvs, &mut mt);
        }
    }
    // No counter reset: slab moves earned during the warm-up shift are
    // part of the story (busy c/op is windowed by `t0` alone).
    let t0 = t.now();
    let mut refills = 0u64;
    for i in 0..ops {
        match i % 4 {
            0 => {
                kvs.set(&mut t, format!("b-{wrote}").as_bytes(), &[0x22u8; 1200]);
                wrote += 1;
            }
            1 => {
                let victim = rng.next() % A_ITEMS;
                kvs.delete(&mut t, format!("a-{victim}").as_bytes());
            }
            _ => {
                let back = rng.next() % WINDOW.min(wrote);
                let key = format!("b-{}", wrote - 1 - back);
                if kvs.get(&mut t, key.as_bytes()).is_none() {
                    t.compute(REFILL_CYCLES);
                    kvs.set(&mut t, key.as_bytes(), &[0x22u8; 1200]);
                    refills += 1;
                }
            }
        }
        if (i + 1) % FENCE_EVERY == 0 {
            kvs.fence(&mut t);
            bg_tick(&m, &t, &mut kvs, &mut mt);
        }
    }
    let busy = t.now() - t0;
    finish(
        "shifting",
        name,
        Run { ops, busy, refills },
        &m,
        &kvs,
        t,
        mt,
    )
}

/// A stable skewed read mix over a working set inside the memory
/// limit — the tie cell; no engine has leverage.
fn run_skewed(name: &'static str, cfg: &EngineConfig, background: bool, ops: usize) -> Cell {
    const N: u64 = 6_000;
    let value_of = |i: u64| vec![(i % 251) as u8; 100 + (i as usize % 7) * 90];
    let (m, mut t, mut kvs, mut mt) = rig(8 << 20, cfg, background);
    for i in 0..N {
        kvs.set(&mut t, format!("s-{i}").as_bytes(), &value_of(i));
    }
    m.reset_counters();
    let t0 = t.now();
    let mut rng = Rng(0x5eed_0002);
    let mut refills = 0u64;
    for i in 0..ops {
        let r = rng.next() % N;
        let idx = (r * r) / N; // quadratic skew toward low keys
        if i % 5 == 4 {
            kvs.set(&mut t, format!("s-{idx}").as_bytes(), &value_of(idx));
        } else if kvs.get(&mut t, format!("s-{idx}").as_bytes()).is_none() {
            t.compute(REFILL_CYCLES);
            kvs.set(&mut t, format!("s-{idx}").as_bytes(), &value_of(idx));
            refills += 1;
        }
        if (i + 1) % FENCE_EVERY == 0 {
            kvs.fence(&mut t);
            bg_tick(&m, &t, &mut kvs, &mut mt);
        }
    }
    let busy = t.now() - t0;
    finish("skewed", name, Run { ops, busy, refills }, &m, &kvs, t, mt)
}

/// Short-TTL cache traffic under a tight pool, with think time
/// advancing the simulated clock so deadlines actually pass mid-run.
fn run_ttl(name: &'static str, cfg: &EngineConfig, background: bool, ops: usize) -> Cell {
    const WINDOW: u64 = 500;
    /// Simulated client think time per op: moves the clock so the
    /// 2-9 s TTLs lapse during the run, even at `--quick` op counts.
    const THINK_CYCLES: u64 = 30_000_000;
    let (m, mut t, mut kvs, mut mt) = rig(1 << 20, cfg, background);
    m.reset_counters();
    let mut rng = Rng(0x5eed_0003);
    let mut refills = 0u64;
    let mut wrote = 0u64;
    let mut busy = 0u64;
    for i in 0..ops {
        let op_start = t.now();
        if i % 2 == 0 {
            let ttl = 2 + (wrote % 8) as u32;
            kvs.set_with_ttl(&mut t, format!("t-{wrote}").as_bytes(), &[0x33u8; 300], ttl);
            wrote += 1;
        } else if wrote > 0 {
            let back = rng.next() % WINDOW.min(wrote);
            let key = format!("t-{}", wrote - 1 - back);
            if kvs.get(&mut t, key.as_bytes()).is_none() {
                t.compute(REFILL_CYCLES);
                let ttl = 2 + (wrote % 8) as u32;
                kvs.set_with_ttl(&mut t, key.as_bytes(), &[0x33u8; 300], ttl);
                refills += 1;
            }
        }
        if (i + 1) % FENCE_EVERY == 0 {
            kvs.fence(&mut t);
            bg_tick(&m, &t, &mut kvs, &mut mt);
        }
        busy += t.now() - op_start;
        // Think time is idle, not busy: charged to the clock only.
        t.compute(THINK_CYCLES);
    }
    finish("ttl", name, Run { ops, busy, refills }, &m, &kvs, t, mt)
}

/// Runs engines x workloads, prints a table, writes
/// `BENCH_storage.json`. `quick` trims op counts for CI smoke runs.
pub fn run(scale: Scale, quick: bool) {
    header(
        "storage_bench",
        "storage engine x workload: static slab vs slab rebalancer vs segment store",
        "rebalancer wins the shifting-size cell; segment store wins the TTL-heavy cell",
    );
    let ops = scale.ops(if quick { 8_000 } else { 24_000 });
    println!(
        "   {:<9} {:<14} {:>8} {:>10} {:>9} {:>9} {:>6} {:>7} {:>10} {:>7} {:>8} {:>9}",
        "cell",
        "engine",
        "ops",
        "busy c/op",
        "evict",
        "expired",
        "moves",
        "merges",
        "stall",
        "bgmerge",
        "refills",
        "items"
    );
    let mut cells: Vec<Cell> = Vec::new();
    type Runner = fn(&'static str, &EngineConfig, bool, usize) -> Cell;
    let workloads: [(&str, Runner); 3] = [
        ("shifting", run_shifting),
        ("skewed", run_skewed),
        ("ttl", run_ttl),
    ];
    for (_, runner) in workloads {
        for (name, cfg, background) in engines() {
            let c = runner(name, &cfg, background, ops);
            println!(
                "   {:<9} {:<14} {:>8} {:>10.0} {:>9} {:>9} {:>6} {:>7} {:>10} {:>7} {:>8} {:>9}",
                c.cell,
                c.engine,
                c.ops,
                c.busy_cpo,
                c.evictions,
                c.expired,
                c.slab_moves,
                c.seg_merges,
                c.maint_stall,
                c.bg_merges,
                c.refills,
                c.items_end
            );
            if background {
                assert_eq!(
                    c.maint_stall, 0,
                    "background engines must not stall serving fences"
                );
            }
            cells.push(c);
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"storage\",\n");
    json.push_str(&format!("  \"scale\": {},\n", scale.0));
    json.push_str(&format!("  \"ops\": {ops},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"engine\": \"{}\", \"ops\": {}, \
             \"busy_cpo\": {:.1}, \"evictions\": {}, \"expired\": {}, \
             \"slab_moves\": {}, \"seg_merges\": {}, \
             \"maint_stall_cycles\": {}, \"bg_merges\": {}, \
             \"refills\": {}, \"items_end\": {} }}{}\n",
            c.cell,
            c.engine,
            c.ops,
            c.busy_cpo,
            c.evictions,
            c.expired,
            c.slab_moves,
            c.seg_merges,
            c.maint_stall,
            c.bg_merges,
            c.refills,
            c.items_end,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_storage.json";
    std::fs::write(path, &json).expect("write BENCH_storage.json");
    println!("   wrote {path}");
}
