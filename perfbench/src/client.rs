//! The client side of every workload: encrypts and pushes due
//! requests onto the shard sockets, pops and decrypts replies, checks
//! each against the oracle and records its latency.

use std::collections::VecDeque;
use std::sync::Arc;

use eleos_apps::loadgen::shard_for;
use eleos_apps::wire::Session;
use eleos_bench::harness::SOCKET_STAGING;
use eleos_enclave::host::Fd;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;

use crate::gen::{plaintext, Req};
use crate::oracle::{check, Expect, Shadow, Verdict};

/// Client connections; a key always travels on connection
/// `key % N_CONNS`, so its requests keep their order.
pub const N_CONNS: u32 = 64;

/// The shard socket item `key` travels on.
#[must_use]
pub fn shard_of(key: u32, n_shards: usize) -> usize {
    shard_for(u64::from(key % N_CONNS), n_shards)
}

/// A pushed request waiting for its reply.
struct Pending {
    id: u32,
    due: u64,
    key: u32,
    expect: Expect,
    len: usize,
}

/// Per-request samples and outcome counts of one phase.
#[derive(Default)]
pub struct Tally {
    /// Requests the generator attempted.
    pub attempted: u64,
    /// Pushes refused because the socket's staging ring was full.
    pub refused: u64,
    /// Replies that did not match the oracle.
    pub wrong: u64,
    /// Requests still unanswered when the phase drained.
    pub missing: u64,
    /// GETs answered.
    pub gets: u64,
    /// GETs that found their item.
    pub hits: u64,
    /// Latency of each answered request, due time → end of the
    /// serving call that committed its reply, cycles.
    pub lat: Vec<u64>,
    /// Due time → start of the serving call that answered it, cycles.
    pub wait: Vec<u64>,
    /// Duration of the serving call that answered it, cycles.
    pub service: Vec<u64>,
}

impl Tally {
    /// Failed requests: wrong, missing or refused.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.refused + self.wrong + self.missing
    }

    /// Answered requests.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.lat.len() as u64
    }
}

/// The load generator and reply checker.
pub struct Client {
    machine: Arc<SgxMachine>,
    ut: ThreadCtx,
    session: Arc<Session>,
    fds: Vec<Fd>,
    pending: Vec<VecDeque<Pending>>,
    queued_bytes: Vec<usize>,
    shadow: Shadow,
    /// Whether the engine has evicted anything (set by the phase loop).
    pub evicted: bool,
    /// The current phase's tally.
    pub tally: Tally,
}

impl Client {
    /// A client over the shard sockets `fds`, checking against
    /// `shadow`. Pushes come from an untrusted context on `core`,
    /// which is charged nothing.
    #[must_use]
    pub fn new(
        machine: &Arc<SgxMachine>,
        core: usize,
        session: &Arc<Session>,
        fds: &[Fd],
        shadow: Shadow,
    ) -> Self {
        Self {
            machine: Arc::clone(machine),
            ut: ThreadCtx::untrusted(machine, core),
            session: Arc::clone(session),
            fds: fds.to_vec(),
            pending: fds.iter().map(|_| VecDeque::new()).collect(),
            queued_bytes: vec![0; fds.len()],
            shadow,
            evicted: false,
            tally: Tally::default(),
        }
    }

    /// Pushes request `id` (stamped with its absolute due time
    /// `due`). Returns `false`, counting it refused, when the message
    /// would overrun the socket's staging ring.
    pub fn push(&mut self, id: u32, r: &Req, due: u64) -> bool {
        self.tally.attempted += 1;
        let s = shard_of(r.key, self.fds.len());
        let msg = self.session.encrypt(&plaintext(r));
        if self.queued_bytes[s] + msg.len() > SOCKET_STAGING {
            self.tally.refused += 1;
            return false;
        }
        self.machine
            .host
            .push_request_at(&self.ut, self.fds[s], &msg, due);
        self.queued_bytes[s] += msg.len();
        let expect = self.shadow.expect(r);
        self.pending[s].push_back(Pending {
            id,
            due,
            key: r.key,
            expect,
            len: msg.len(),
        });
        true
    }

    /// Requests pushed and not yet answered.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Requests pushed on shard `s` and not yet answered.
    #[must_use]
    pub fn outstanding_on(&self, s: usize) -> usize {
        self.pending[s].len()
    }

    /// Pops every committed reply, checks it, and records it as
    /// answered by a serving call that ran over `[start, end]`. Ids
    /// of answered requests are appended to `done`; returns how many
    /// were answered.
    pub fn reap(&mut self, start: u64, end: u64, done: &mut Vec<u32>) -> usize {
        let mut n = 0;
        for s in 0..self.fds.len() {
            while let Some(resp) = self.machine.host.pop_response(self.fds[s]) {
                let Some(p) = self.pending[s].pop_front() else {
                    // A reply nobody asked for.
                    self.tally.wrong += 1;
                    continue;
                };
                self.queued_bytes[s] -= p.len;
                n += 1;
                let plain = self.session.decrypt(&resp);
                if p.expect != Expect::Ack {
                    self.tally.gets += 1;
                }
                match check(p.key, p.expect, &plain, self.evicted) {
                    Verdict::Wrong => self.tally.wrong += 1,
                    Verdict::Hit => self.tally.hits += 1,
                    Verdict::Miss | Verdict::Ack => {}
                }
                self.tally.lat.push(end - p.due);
                self.tally.wait.push(start.saturating_sub(p.due));
                self.tally.service.push(end - start);
                done.push(p.id);
            }
        }
        n
    }

    /// Counts every unanswered request as missing and forgets it.
    pub fn drop_outstanding(&mut self) {
        for (s, q) in self.pending.iter_mut().enumerate() {
            self.tally.missing += q.len() as u64;
            q.clear();
            self.queued_bytes[s] = 0;
        }
    }

    /// Ends the phase: returns its tally and starts a fresh one.
    pub fn take(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}
