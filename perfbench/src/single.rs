//! One enclave serving a sharded KVS (kvs-hot and kvs-paging): the
//! rig, the store, its `ServerIo`, and the open-loop phase loop.

use std::sync::Arc;
use std::time::Instant;

use eleos_apps::io::{ServerIo, ServerIoConfig};
use eleos_apps::kvs::Kvs;
use eleos_apps::space::DataSpace;
use eleos_bench::harness::{Mode, Rig, RPC_CORE};
use eleos_enclave::thread::ThreadCtx;

use crate::client::{Client, Tally};
use crate::gen::{key, value, Req};
use crate::oracle::Shadow;
use crate::trace::{self, Tracer};
use crate::workload::{Extra, Nominal, Plan, System, Workload};

/// The serving core.
pub const SERVE_CORE: usize = 0;
/// The core the client's untrusted context pushes from.
pub const CLIENT_CORE: usize = 2;
/// Adaptive sub-batch bounds of every serving pipeline.
pub const BATCH: (usize, usize) = (1, 32);

/// The store's layout. It is filled with every item of the
/// workload's mix at the mix's initial value length.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    /// Shard sockets.
    pub shards: usize,
    /// Secure data bytes the rig sizes its enclave and SUVM for.
    pub data_bytes: usize,
    /// Value-pool limit.
    pub mem_limit: u64,
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Per-request samples and outcomes.
    pub tally: Tally,
    /// Serving calls made, and those that served something.
    pub calls: u64,
    /// Serving calls that served at least one request.
    pub useful_calls: u64,
    /// Requests served (sum over calls).
    pub served: u64,
    /// Idle cycles the phase loop inserted on serving cores.
    pub idle: u64,
    /// Busy cycles on serving cores (clock delta minus idle).
    pub serve_cycles: u64,
    /// RPC worker core clock delta.
    pub worker_cycles: u64,
    /// Busy cycles on the maintenance core.
    pub maint_cycles: u64,
    /// Maintenance ticks run.
    pub ticks: u64,
    /// Host seconds the phase took.
    pub host_s: f64,
    /// `(host seconds since the phase start, requests answered)` at
    /// each hundredth of the arrivals and at the end.
    pub host_marks: Vec<(f64, u64)>,
    /// Outstanding requests when the middle arrival was due.
    pub backlog_mid: u64,
    /// Outstanding requests when the last arrival was due.
    pub backlog_end: u64,
    /// Largest delay from a request's due time to its push, cycles.
    /// The generator pushes at the serving core's clock, so it runs
    /// late by up to one serving call; latency is still counted from
    /// the due time the request is stamped with.
    pub lag_max: u64,
}

/// A single-enclave KVS server and its client.
pub struct Server {
    /// The machine, enclave, SUVM and RPC pool.
    rig: Rig,
    ctx: ThreadCtx,
    kvs: Kvs,
    io: ServerIo,
    /// The load generator and oracle.
    client: Client,
}

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Rig, enclave, SUVM, store and pipelines.
    pub build_s: f64,
    /// Filling the store.
    pub fill_s: f64,
    /// The warm-up phase.
    pub warmup_s: f64,
}

impl System for Server {
    /// Builds the rig (Eleos mode: exit-less RPC with one worker, SUVM,
    /// CAT), fills the store with version 0 of every item and runs the
    /// warm-up phase.
    fn set_up(w: &Workload, plan: &Plan, tr: &mut Option<Tracer>) -> (Self, PhaseOut, SetupTimes) {
        let (spec, n_items, fill_len) = (&w.store, w.mix.n_items, w.mix.value_len);
        let t = Instant::now();
        let sp = trace::open_fresh(tr, "setup.build", SERVE_CORE, t);
        let rig = Rig::new(w.scale, Mode::EleosSuvm, spec.data_bytes, true);
        let m = Arc::clone(&rig.machine);
        let mut ctx = rig.thread(SERVE_CORE);
        let fds = rig.socket_set(spec.shards);
        // Item metadata stays in clear untrusted memory; keys and
        // values live in SUVM (the paper's memcached port, §5.1).
        let kvs = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&m)),
            rig.data_space(),
            spec.mem_limit,
            u64::from(n_items) * 2,
        );
        kvs.init(&mut ctx);
        let io = rig.server_io_sharded(
            &ctx,
            &fds,
            ServerIoConfig::with_buf_len(64 << 10)
                .async_send(false)
                .adaptive(BATCH.0, BATCH.1)
                .shards(spec.shards),
        );
        let client = Client::new(
            &m,
            CLIENT_CORE,
            &rig.session,
            &fds,
            Shadow::filled(n_items, fill_len),
        );
        trace::close(tr, &m, sp, ctx.now(), &[]);
        let mut times = SetupTimes {
            build_s: t.elapsed().as_secs_f64(),
            ..SetupTimes::default()
        };
        let mut s = Server {
            rig,
            ctx,
            kvs,
            io,
            client,
        };
        let t = Instant::now();
        let sp = trace::open(tr, &m, "setup.fill", SERVE_CORE, s.ctx.now());
        for i in 0..n_items {
            s.kvs
                .set(&mut s.ctx, &key(i), &value(i, 0, fill_len as usize));
        }
        assert_eq!(s.kvs.len(), u64::from(n_items), "the fill must not evict");
        trace::close(tr, &m, sp, s.ctx.now(), &[]);
        times.fill_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sp = trace::open(tr, &m, "setup.warmup", SERVE_CORE, s.ctx.now());
        let warm = s.run_phase(&plan.warmup, 0, tr);
        trace::close(tr, &m, sp, s.ctx.now(), &[]);
        times.warmup_s = t.elapsed().as_secs_f64();
        (s, warm, times)
    }

    fn nominal(&mut self, plan: &Plan, tr: &mut Option<Tracer>) -> Nominal {
        self.rig.machine.reset_counters();
        let ev0 = self.kvs.evictions();
        let out = self.run_phase(&plan.nominal, plan.warmup.len() as u32, tr);
        Nominal {
            out,
            snap: self.rig.machine.stats.snapshot(),
            extra: Extra {
                storage_evictions: self.kvs.evictions() - ev0,
                ..Extra::default()
            },
        }
    }

    fn phase(&mut self, reqs: &[Req], first_id: u32) -> PhaseOut {
        self.run_phase(reqs, first_id, &mut None)
    }
}

impl Server {
    /// Runs `reqs` open-loop: each request is pushed once the serving
    /// core's clock reaches its due time (relative to the phase
    /// start) and stamped with that due time; an empty reap
    /// fast-forwards the core to the next due time. The phase ends
    /// when every request is answered; ids start at `first_id`.
    fn run_phase(&mut self, reqs: &[Req], first_id: u32, tr: &mut Option<Tracer>) -> PhaseOut {
        let m = Arc::clone(&self.rig.machine);
        let worker = m.core(RPC_CORE);
        let host0 = Instant::now();
        let t0 = self.ctx.now();
        let w0 = worker.clock.now();
        let mut out = PhaseOut::default();
        let n = reqs.len();
        let mut next = 0usize;
        let mut done = Vec::new();
        let mut stuck = 0u32;
        loop {
            let now = self.ctx.now();
            if next < n && t0 + reqs[next].due <= now {
                let sp = trace::open(tr, &m, "client.push", CLIENT_CORE, now);
                while next < n && t0 + reqs[next].due <= now {
                    if next.is_multiple_of((n / 100).max(1)) {
                        let answered = self.client.tally.completed();
                        out.host_marks
                            .push((host0.elapsed().as_secs_f64(), answered));
                    }
                    if next == n / 2 {
                        out.backlog_mid = self.client.outstanding() as u64;
                    }
                    if next == n - 1 {
                        out.backlog_end = self.client.outstanding() as u64;
                    }
                    let due = t0 + reqs[next].due;
                    out.lag_max = out.lag_max.max(now - due);
                    self.client.push(first_id + next as u32, &reqs[next], due);
                    next += 1;
                }
                trace::close(tr, &m, sp, now, &[]);
            }
            if next == n && self.client.outstanding() == 0 {
                break;
            }
            let start = self.ctx.now();
            let sp = trace::open(tr, &m, "serve", SERVE_CORE, start);
            let got = self.kvs.handle_batch(&mut self.ctx, &self.io);
            let end = self.ctx.now();
            let serve_span = trace::close(tr, &m, sp, end, &[]);
            out.calls += 1;
            out.served += got as u64;
            self.client.evicted = self.kvs.evictions() > 0;
            done.clear();
            let sp = trace::open(tr, &m, "client.pop", CLIENT_CORE, end);
            self.client.reap(start, end, &mut done);
            trace::close(tr, &m, sp, end, &[]);
            if let (Some(t), Some(i)) = (tr.as_mut(), serve_span) {
                t.add_reqs(i, &done);
            }
            if got > 0 {
                out.useful_calls += 1;
                stuck = 0;
            } else if next < n {
                let target = t0 + reqs[next].due;
                if target > end {
                    self.ctx.compute(target - end);
                    out.idle += target - end;
                }
            } else {
                // Everything is pushed, something is unanswered and
                // the reap came back empty: the reply is lost.
                stuck += 1;
                if stuck >= 4 {
                    break;
                }
            }
        }
        self.client.drop_outstanding();
        out.tally = self.client.take();
        out.serve_cycles = (self.ctx.now() - t0) - out.idle;
        out.worker_cycles = worker.clock.now() - w0;
        out.host_s = host0.elapsed().as_secs_f64();
        out.host_marks.push((out.host_s, out.tally.completed()));
        out
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.ctx.in_enclave() {
            self.ctx.exit();
        }
    }
}
