//! Spans recorded from the benchmark's own code around each call into
//! a layer: set-up phases, serving calls, maintenance ticks, client
//! push/pop groups and chaos actions.
//!
//! Spans stay in memory and are written out once the run ends. Each
//! holds its simulated and host interval, its parent, the requests it
//! completed, and the change of a few machine counters across it.
//! Recording charges no simulated cycles, so a traced run's simulated
//! results equal an untraced run's.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::Ordering;
use std::time::Instant;

use eleos_enclave::machine::SgxMachine;

/// Machine counters sampled at span boundaries.
pub const COUNTERS: [&str; 10] = [
    "syscalls",
    "enclave_exits",
    "rpc_calls",
    "crypto_msgs",
    "suvm_major_faults",
    "suvm_evictions",
    "hw_faults",
    "llc_misses",
    "maint_chunks",
    "slab_moves",
];

/// Reads [`COUNTERS`] straight from the machine's atomics.
fn sample(m: &SgxMachine) -> [u64; COUNTERS.len()] {
    let s = &m.stats;
    [
        &s.syscalls,
        &s.enclave_exits,
        &s.rpc_calls,
        &s.crypto_msgs,
        &s.suvm_major_faults,
        &s.suvm_evictions,
        &s.hw_faults,
        &s.llc_misses,
        &s.maint_chunks,
        &s.slab_moves,
    ]
    .map(|a| a.load(Ordering::Relaxed))
}

/// One recorded span.
pub struct Span {
    /// Span name (the layer boundary it wraps).
    pub name: &'static str,
    /// Simulated core the work ran on.
    pub core: usize,
    /// Simulated start and end, cycles.
    pub sim: (u64, u64),
    /// Host start and end, nanoseconds since the tracer started.
    pub host: (u64, u64),
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Requests whose replies this span completed.
    pub reqs: Vec<u32>,
    /// Change of each of [`COUNTERS`] across the span.
    pub counts: [u64; COUNTERS.len()],
}

/// An open span, closed with [`Tracer::close`].
pub struct Open {
    idx: usize,
    at: [u64; COUNTERS.len()],
}

/// The in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose host clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span; spans opened before it closes are its children.
    pub fn open(&mut self, m: &SgxMachine, name: &'static str, core: usize, sim: u64) -> Open {
        let host = self.host_ns();
        self.open_at(name, core, sim, host, sample(m))
    }

    fn open_at(
        &mut self,
        name: &'static str,
        core: usize,
        sim: u64,
        host: u64,
        at: [u64; COUNTERS.len()],
    ) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            core,
            sim: (sim, sim),
            host: (host, 0),
            parent: self.stack.last().copied(),
            reqs: Vec::new(),
            counts: [0; COUNTERS.len()],
        });
        self.stack.push(idx);
        Open { idx, at }
    }

    /// Closes `open` at simulated time `sim`, recording the requests
    /// it completed. Returns the span's index.
    pub fn close(&mut self, m: &SgxMachine, open: Open, sim: u64, reqs: &[u32]) -> usize {
        let now = sample(m);
        let host = self.host_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.idx), "spans close innermost first");
        let s = &mut self.spans[open.idx];
        s.sim.1 = sim;
        s.host.1 = host;
        s.reqs.extend_from_slice(reqs);
        for (c, (n, a)) in s.counts.iter_mut().zip(now.iter().zip(open.at)) {
            *c = n.wrapping_sub(a);
        }
        open.idx
    }

    /// Records that closed span `idx` completed `reqs` (for replies
    /// popped after the call that committed them).
    pub fn add_reqs(&mut self, idx: usize, reqs: &[u32]) {
        self.spans[idx].reqs.extend_from_slice(reqs);
    }

    fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total host ns, self host ns, self sim
    /// cycles)`, where self time is the span's duration minus the
    /// part its children cover. Sorted by name.
    #[must_use]
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64, u64)> {
        let mut child_host = vec![0u64; self.spans.len()];
        let mut child_sim = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_host[p] += s.host.1 - s.host.0;
                // Children may run on another core; only same-core
                // children overlap the parent's simulated interval.
                if s.core == self.spans[p].core {
                    child_sim[p] += s.sim.1.saturating_sub(s.sim.0);
                }
            }
        }
        let mut by: std::collections::BTreeMap<&'static str, (u64, u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by.entry(s.name).or_default();
            let host = s.host.1 - s.host.0;
            e.0 += 1;
            e.1 += host;
            e.2 += host.saturating_sub(child_host[i]);
            e.3 += s.sim.1.saturating_sub(s.sim.0).saturating_sub(child_sim[i]);
        }
        by.into_iter()
            .map(|(k, (n, h, sh, ss))| (k, n, h, sh, ss))
            .collect()
    }

    /// Total host ns of every span named `name`.
    #[must_use]
    pub fn host_ns_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.host.1 - s.host.0)
            .sum()
    }

    /// Writes every span, one JSON object a line, then the self-time
    /// summary, to `path`.
    ///
    /// # Errors
    /// Returns the I/O error if the file cannot be written.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{i},\"name\":\"{}\",\"core\":{},\"sim\":[{},{}],\"host_ns\":[{},{}],\"parent\":{}",
                s.name,
                s.core,
                s.sim.0,
                s.sim.1,
                s.host.0,
                s.host.1,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string())
            );
            let _ = write!(line, ",\"reqs\":{:?},\"counts\":{{", s.reqs);
            let mut first = true;
            for (name, v) in COUNTERS.iter().zip(s.counts) {
                if v > 0 {
                    let _ = write!(line, "{}\"{name}\":{v}", if first { "" } else { "," });
                    first = false;
                }
            }
            line.push_str("}}\n");
            out.write_all(line.as_bytes())?;
        }
        for (name, n, host, self_host, self_sim) in self.self_times() {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{n},\"host_ns\":{host},\"self_host_ns\":{self_host},\"self_sim_cycles\":{self_sim}}}"
            )?;
        }
        out.flush()
    }
}

/// Opens a span when tracing is on.
pub fn open(
    tr: &mut Option<Tracer>,
    m: &SgxMachine,
    name: &'static str,
    core: usize,
    sim: u64,
) -> Option<Open> {
    tr.as_mut().map(|t| t.open(m, name, core, sim))
}

/// Opens a span that began on the host at `since`, before the machine
/// it measures existed; its counters start from zero, as a new
/// machine's do.
pub fn open_fresh(
    tr: &mut Option<Tracer>,
    name: &'static str,
    core: usize,
    since: Instant,
) -> Option<Open> {
    tr.as_mut().map(|t| {
        let host = since.saturating_duration_since(t.t0).as_nanos() as u64;
        t.open_at(name, core, 0, host, [0; COUNTERS.len()])
    })
}

/// Closes a span opened by [`open`]; returns its index when tracing
/// is on.
pub fn close(
    tr: &mut Option<Tracer>,
    m: &SgxMachine,
    open: Option<Open>,
    sim: u64,
    reqs: &[u32],
) -> Option<usize> {
    match (tr.as_mut(), open) {
        (Some(t), Some(o)) => Some(t.close(m, o, sim, reqs)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::MachineConfig;

    #[test]
    fn self_time_subtracts_children() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = Tracer::new();
        let outer = t.open(&m, "outer", 0, 0);
        let inner = t.open(&m, "inner", 0, 10);
        t.close(&m, inner, 30, &[1, 2]);
        t.close(&m, outer, 100, &[]);
        let st = t.self_times();
        let get = |n: &str| st.iter().find(|s| s.0 == n).copied().expect("span");
        assert_eq!(get("inner").4, 20);
        assert_eq!(get("outer").4, 80);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].reqs, vec![1, 2]);
        assert!(get("outer").3 <= get("outer").2);
    }
}
