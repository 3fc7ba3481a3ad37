//! Shadow-model suite for the pluggable storage engines:
//!
//! - every engine (static slab, slab + rebalancer, segment store)
//!   behaves exactly like a plain `HashMap` with TTL deadlines under
//!   random SET/SET_TTL/GET/DELETE/ADVANCE/FENCE sequences — with the
//!   kv pool in plain untrusted memory and again behind a tiny SUVM
//!   page cache (constant paging pressure);
//! - the slab rebalancer is reply-transparent: for any fence schedule
//!   and delete pattern, a rebalancing store returns byte-identical
//!   GET results to a static one, even while whole slabs (and the live
//!   items on them) migrate between classes;
//! - plus a deterministic non-vacuity check that the transparency
//!   scaffold really does move slabs.

use std::collections::HashMap;
use std::sync::Arc;

use eleos::apps::kvs::Kvs;
use eleos::apps::space::DataSpace;
use eleos::apps::storage::{EngineConfig, RebalanceConfig, SegmentConfig};
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::sim::costs::CPU_HZ;
use eleos::suvm::{Suvm, SuvmConfig};
use proptest::prelude::*;

/// Mirrors the engines' second clock (`storage::now_secs`).
fn now_secs(t: &ThreadCtx) -> u32 {
    (t.now() as f64 / CPU_HZ) as u32
}

fn engines() -> Vec<EngineConfig> {
    vec![
        EngineConfig::Slab { rebalance: None },
        EngineConfig::Slab {
            rebalance: Some(RebalanceConfig::default()),
        },
        EngineConfig::Segment(SegmentConfig::default()),
    ]
}

/// One step of the random workload against the shadow model.
#[derive(Clone, Copy, Debug)]
enum Op {
    Set {
        k: u16,
        vlen: usize,
    },
    SetTtl {
        k: u16,
        vlen: usize,
        ttl: u32,
    },
    Get {
        k: u16,
    },
    Delete {
        k: u16,
    },
    /// Advance the clock by whole seconds (lets deadlines lapse).
    Advance {
        secs: u32,
    },
    /// A sub-batch fence: engine maintenance may run here.
    Fence,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted oneof: duplicate entries
    // approximate a 3:3:3:2:1:1 set/set_ttl/get/delete/advance/fence
    // mix.
    prop_oneof![
        (0u16..40, 1usize..400).prop_map(|(k, vlen)| Op::Set { k, vlen }),
        (0u16..40, 1usize..400).prop_map(|(k, vlen)| Op::Set { k, vlen }),
        (0u16..40, 1usize..400).prop_map(|(k, vlen)| Op::Set { k, vlen }),
        (0u16..40, 1usize..400, 1u32..6).prop_map(|(k, vlen, ttl)| Op::SetTtl { k, vlen, ttl }),
        (0u16..40, 1usize..400, 1u32..6).prop_map(|(k, vlen, ttl)| Op::SetTtl { k, vlen, ttl }),
        (0u16..40, 1usize..400, 1u32..6).prop_map(|(k, vlen, ttl)| Op::SetTtl { k, vlen, ttl }),
        (0u16..40).prop_map(|k| Op::Get { k }),
        (0u16..40).prop_map(|k| Op::Get { k }),
        (0u16..40).prop_map(|k| Op::Get { k }),
        (0u16..40).prop_map(|k| Op::Delete { k }),
        (0u16..40).prop_map(|k| Op::Delete { k }),
        (1u32..4).prop_map(|secs| Op::Advance { secs }),
        Just(Op::Fence),
    ]
}

/// Runs `ops` against a store built on `cfg` and checks every reply
/// against a `HashMap` shadow carrying `(value, deadline_secs)`.
///
/// The working set (≤ 40 keys x ≤ 400 B) stays far below the 8 MiB
/// pool, so evictions never fire and the model is exact. Expiry is the
/// one engine freedom: a GET of a lapsed item must miss (and both
/// sides drop it), while a DELETE of a lapsed-but-unobserved item may
/// report either outcome (the slab store still holds it; the segment
/// store may have reclaimed its whole segment at a fence).
fn check_engine(cfg: &EngineConfig, paging: bool, ops: &[Op]) {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 2 << 20,
        untrusted_bytes: 64 << 20,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 32 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = paging.then(|| {
        Suvm::new(
            &t0,
            SuvmConfig {
                epcpp_bytes: 8 * 4096, // tiny cache: constant eviction
                backing_bytes: 16 << 20,
                ..SuvmConfig::tiny()
            },
        )
    });
    let data = match &suvm {
        Some(s) => DataSpace::suvm(s),
        None => DataSpace::Untrusted(Arc::clone(&m)),
    };
    let mut kvs = Kvs::with_engine(
        DataSpace::Untrusted(Arc::clone(&m)),
        data,
        8 << 20,
        256,
        cfg,
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    kvs.init(&mut t);

    let mut shadow: HashMap<Vec<u8>, (Vec<u8>, u32)> = HashMap::new();
    for &op in ops {
        match op {
            Op::Set { k, vlen } => {
                let key = format!("k{k}").into_bytes();
                let value = vec![(k % 251) as u8; vlen];
                kvs.set(&mut t, &key, &value);
                shadow.insert(key, (value, 0));
            }
            Op::SetTtl { k, vlen, ttl } => {
                let key = format!("k{k}").into_bytes();
                let value = vec![(k % 251) as u8 ^ 0x5a; vlen];
                let deadline = now_secs(&t) + ttl;
                kvs.set_with_ttl(&mut t, &key, &value, ttl);
                shadow.insert(key, (value, deadline));
            }
            Op::Get { k } => {
                let key = format!("k{k}").into_bytes();
                let now = now_secs(&t);
                let got = kvs.get(&mut t, &key);
                match shadow.get(&key) {
                    Some((_, d)) if *d != 0 && now >= *d => {
                        prop_assert_eq!(got, None, "lapsed item served ({:?})", cfg.label());
                        shadow.remove(&key);
                    }
                    Some((v, _)) => {
                        prop_assert_eq!(got.as_ref(), Some(v), "wrong value ({:?})", cfg.label());
                    }
                    None => {
                        prop_assert_eq!(got, None, "ghost item ({:?})", cfg.label());
                    }
                }
            }
            Op::Delete { k } => {
                let key = format!("k{k}").into_bytes();
                let now = now_secs(&t);
                let got = kvs.delete(&mut t, &key);
                match shadow.remove(&key) {
                    Some((_, d)) if d != 0 && now >= d => {} // either outcome is fine
                    Some(_) => prop_assert!(got, "live item not deleted ({:?})", cfg.label()),
                    None => prop_assert!(!got, "phantom delete ({:?})", cfg.label()),
                }
            }
            Op::Advance { secs } => {
                t.compute((secs as f64 * CPU_HZ) as u64);
            }
            Op::Fence => {
                kvs.fence(&mut t);
            }
        }
    }
    // Final sweep: every shadow entry still unexpired reads back
    // exactly; every lapsed one misses.
    let keys: Vec<Vec<u8>> = shadow.keys().cloned().collect();
    for key in keys {
        let now = now_secs(&t);
        let got = kvs.get(&mut t, &key);
        let (v, d) = &shadow[&key];
        if *d != 0 && now >= *d {
            prop_assert_eq!(got, None, "lapsed item served at sweep ({:?})", cfg.label());
        } else {
            prop_assert_eq!(got.as_ref(), Some(v), "sweep diverged ({:?})", cfg.label());
        }
    }
    t.exit();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every engine matches the TTL'd `HashMap` shadow, with the kv
    /// pool in untrusted memory and again behind a thrashing SUVM
    /// page cache.
    #[test]
    fn engines_match_shadow_model(ops in prop::collection::vec(op_strategy(), 1..100)) {
        for cfg in engines() {
            for paging in [false, true] {
                check_engine(&cfg, paging, &ops);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rebalancer transparency
// ---------------------------------------------------------------------

/// Builds a store whose small class is mostly free (fill then delete
/// by `del_seed`) — the donor — then writes large items with fences at
/// the positions `fence_at` selects. Returns every GET result: small
/// survivors first, then all large keys.
///
/// The working set stays below the 32 MiB limit, so no evictions fire
/// and any divergence is the rebalancer's fault alone.
fn run_transparency(
    rebalance: Option<RebalanceConfig>,
    background: bool,
    del_seed: u64,
    fence_at: &[bool],
) -> (Arc<SgxMachine>, Vec<Option<Vec<u8>>>) {
    const SMALL: u64 = 9_000;
    const LARGE: u64 = 1_600;
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::with_engine(
        space.clone(),
        space,
        32 << 20,
        4096,
        &EngineConfig::Slab { rebalance },
    );
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    kvs.init(&mut t);
    // Background mode: fences only publish; the relocation byte-work
    // runs in maintenance ticks on a second core, interleaved at the
    // same fence points the synchronous engine would have used.
    let mut mt = background.then(|| {
        kvs.set_background(true);
        let mut mt = ThreadCtx::for_enclave(&m, &e, 1);
        mt.enter();
        mt
    });
    for i in 0..SMALL {
        kvs.set(
            &mut t,
            format!("sm-{i}").as_bytes(),
            &[(i % 251) as u8; 180],
        );
    }
    // Scatter deletes: ~85% of the small class becomes free chunks,
    // leaving feasible donor slabs with a few live items to relocate.
    let mut x = del_seed | 1;
    let mut survivors = Vec::new();
    for i in 0..SMALL {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x % 100 < 85 {
            kvs.delete(&mut t, format!("sm-{i}").as_bytes());
        } else {
            survivors.push(i);
        }
    }
    for i in 0..LARGE {
        kvs.set(
            &mut t,
            format!("lg-{i}").as_bytes(),
            &[(i % 251) as u8; 1200],
        );
        if *fence_at
            .get(i as usize % fence_at.len().max(1))
            .unwrap_or(&false)
            || (i + 1).is_multiple_of(64)
        {
            kvs.fence(&mut t);
            if let Some(mt) = mt.as_mut() {
                kvs.maintenance_tick(mt);
            }
        }
    }
    let mut replies = Vec::new();
    for &i in &survivors {
        replies.push(kvs.get(&mut t, format!("sm-{i}").as_bytes()));
    }
    for i in 0..LARGE {
        replies.push(kvs.get(&mut t, format!("lg-{i}").as_bytes()));
    }
    if let Some(mut mt) = mt {
        mt.exit();
    }
    t.exit();
    (m, replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any fence schedule and delete pattern, the rebalancing
    /// store returns byte-identical GET results to the static one —
    /// slab migration is invisible to clients.
    #[test]
    fn rebalancer_is_reply_transparent(
        del_seed in any::<u64>(),
        fence_at in prop::collection::vec(any::<bool>(), 1..48),
    ) {
        let (_m0, baseline) = run_transparency(None, false, del_seed, &fence_at);
        let (_m1, rebal) =
            run_transparency(Some(RebalanceConfig::default()), false, del_seed, &fence_at);
        prop_assert_eq!(baseline, rebal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Background maintenance is reply-transparent too: relocations
    /// driven from maintenance ticks on another core return
    /// byte-identical GET results to the static baseline for any
    /// fence schedule and delete pattern.
    #[test]
    fn background_rebalancer_is_reply_transparent(
        del_seed in any::<u64>(),
        fence_at in prop::collection::vec(any::<bool>(), 1..48),
    ) {
        let (_m0, baseline) = run_transparency(None, false, del_seed, &fence_at);
        let (m1, rebal) =
            run_transparency(Some(RebalanceConfig::default()), true, del_seed, &fence_at);
        prop_assert_eq!(baseline, rebal);
        prop_assert_eq!(
            m1.stats.snapshot().maint_stall_cycles, 0,
            "background relocation stalled a serving fence"
        );
    }
}

/// Non-vacuity: the transparency scaffold actually migrates slabs
/// (live small items relocate, the freed slab is adopted by the large
/// class), so the proptest above exercises relocation, not a no-op.
#[test]
fn transparency_scaffold_moves_slabs() {
    let (m, _) = run_transparency(Some(RebalanceConfig::default()), false, 0x5eed, &[true]);
    let st = m.stats.snapshot();
    assert!(st.slab_moves > 0, "no slab moves: the proptest is vacuous");
    assert!(
        st.slab_items_relocated > 0,
        "no live items relocated: donor slabs were already empty"
    );
    assert!(
        st.maint_stall_cycles > 0,
        "synchronous rebalance fences must record their stall"
    );
}

/// Non-vacuity for the background leg: the maintenance ticks really
/// relocate slabs, and none of that work lands on the serving fence.
#[test]
fn background_transparency_scaffold_moves_slabs_off_the_fence() {
    let (m, _) = run_transparency(Some(RebalanceConfig::default()), true, 0x5eed, &[true]);
    let st = m.stats.snapshot();
    assert!(st.slab_moves > 0, "background ticks moved no slabs");
    assert!(st.slab_items_relocated > 0, "no live items relocated");
    assert_eq!(
        st.maint_stall_cycles, 0,
        "background relocation must not stall serving fences"
    );
}

// ---------------------------------------------------------------------
// Placement equivalence: inline vs background maintenance
// ---------------------------------------------------------------------

/// What one placement run decided, besides its replies.
#[derive(Debug, PartialEq)]
struct Decisions {
    evictions: u64,
    slab_moves: u64,
    seg_merges: u64,
    len: u64,
}

/// A value-size shift under memory pressure: small items fill most of
/// a 4 MiB pool, then ~1.2 KiB writes (with reads and scattered
/// deletes) force slab moves or segment merges and evictions. A fence
/// closes every 64 ops; with `background` the maintenance pass runs on
/// a second core right after each fence, otherwise the fence runs it
/// inline. Returns every reply, the decisions and the serving-path
/// stall.
fn run_placement(cfg: &EngineConfig, background: bool) -> (Vec<Option<Vec<u8>>>, Decisions, u64) {
    const SMALL: u64 = 14_000;
    const LARGE: u64 = 4_000;
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::with_engine(space.clone(), space, 4 << 20, 4096, cfg);
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    kvs.init(&mut t);
    let mut mt = background.then(|| {
        kvs.set_background(true);
        let mut mt = ThreadCtx::for_enclave(&m, &e, 1);
        mt.enter();
        mt
    });
    let mut fence = |kvs: &mut Kvs, t: &mut ThreadCtx| {
        kvs.fence(t);
        if let Some(mt) = mt.as_mut() {
            kvs.maintenance_tick(mt);
        }
    };
    for i in 0..SMALL {
        kvs.set(
            &mut t,
            format!("sm-{i}").as_bytes(),
            &[(i % 251) as u8; 160],
        );
        if (i + 1).is_multiple_of(64) {
            fence(&mut kvs, &mut t);
        }
    }
    let mut x = 0x5eed_u64;
    let mut replies = Vec::new();
    for i in 0..LARGE {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        kvs.set(
            &mut t,
            format!("lg-{i}").as_bytes(),
            &[(i % 251) as u8; 1200],
        );
        let key = if x.is_multiple_of(2) {
            format!("lg-{}", i.saturating_sub(x % 256))
        } else {
            format!("sm-{}", x % SMALL)
        };
        replies.push(kvs.get(&mut t, key.as_bytes()));
        if x.is_multiple_of(4) {
            kvs.delete(&mut t, format!("sm-{}", (x >> 8) % SMALL).as_bytes());
        }
        if (i + 1).is_multiple_of(64) {
            fence(&mut kvs, &mut t);
        }
    }
    for i in 0..LARGE {
        replies.push(kvs.get(&mut t, format!("lg-{i}").as_bytes()));
    }
    let st = m.stats.snapshot();
    let out = Decisions {
        evictions: kvs.evictions(),
        slab_moves: st.slab_moves,
        seg_merges: st.seg_merges,
        len: kvs.len(),
    };
    if let Some(mut mt) = mt {
        mt.exit();
    }
    t.exit();
    (replies, out, st.maint_stall_cycles)
}

/// Placement decides only which core pays for maintenance: the inline
/// fence and a background tick after every fence make identical
/// decisions — replies, evictions, slab moves, segment merges and
/// item count — while only the inline run stalls the serving path.
#[test]
fn inline_and_background_placement_make_identical_decisions() {
    let rebal = EngineConfig::Slab {
        rebalance: Some(RebalanceConfig::default()),
    };
    let seg = EngineConfig::Segment(SegmentConfig::default());
    for cfg in [rebal, seg] {
        let (inline_replies, inline, inline_stall) = run_placement(&cfg, false);
        let (bg_replies, bg, bg_stall) = run_placement(&cfg, true);
        assert!(inline.evictions > 0, "{}: no memory pressure", cfg.label());
        assert!(
            inline.slab_moves + inline.seg_merges > 0,
            "{}: no maintenance decisions to compare",
            cfg.label()
        );
        assert_eq!(inline, bg, "{}: placements diverged", cfg.label());
        assert_eq!(inline_replies.len(), bg_replies.len());
        let first_diff = inline_replies
            .iter()
            .zip(&bg_replies)
            .position(|(a, b)| a != b);
        assert_eq!(first_diff, None, "{}: replies diverged", cfg.label());
        assert!(
            inline_stall > 0,
            "{}: inline upkeep recorded no stall",
            cfg.label()
        );
        assert_eq!(bg_stall, 0, "{}: background upkeep stalled", cfg.label());
    }
}
