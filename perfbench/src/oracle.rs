//! The reply oracle: a shadow model of the store that predicts every
//! reply from the requests pushed so far.
//!
//! Each key travels on one connection, and each connection on one
//! shard socket, so a key's requests are served in push order. The
//! expected reply of a request is therefore fixed at push time.

use crate::gen::{value, Op, Req};

/// What the server must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A SET acknowledgement: exactly `[1]`.
    Ack,
    /// A GET of an item the shadow holds: its exact value, or `[0]`
    /// once the engine has evicted anything.
    Hit {
        /// Version of the expected value.
        ver: u32,
        /// Length of the expected value.
        len: u32,
    },
    /// A GET of an item the shadow does not hold: exactly `[0]`.
    Miss,
}

/// How a reply compared with its expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The reply is correct and the GET found its item.
    Hit,
    /// The reply is correct and the GET found nothing (legal only for
    /// an absent or evicted item).
    Miss,
    /// The reply is a correct SET acknowledgement.
    Ack,
    /// The reply is wrong.
    Wrong,
}

/// Shadow copy of the store: the `(version, length)` of each item's
/// current value.
pub struct Shadow {
    items: Vec<Option<(u32, u32)>>,
}

impl Shadow {
    /// A shadow of a store filled with version 0 of every item, each
    /// value `fill_len` bytes long.
    #[must_use]
    pub fn filled(n_items: u32, fill_len: u32) -> Self {
        Self {
            items: vec![Some((0, fill_len)); n_items as usize],
        }
    }

    /// The expected reply of `r`, applying it to the shadow if it is
    /// a SET. Call once per pushed request, in push order.
    pub fn expect(&mut self, r: &Req) -> Expect {
        match r.op {
            Op::Get => match self.items[r.key as usize] {
                Some((ver, len)) => Expect::Hit { ver, len },
                None => Expect::Miss,
            },
            Op::Set { ver, len } => {
                self.items[r.key as usize] = Some((ver, len));
                Expect::Ack
            }
        }
    }
}

/// Checks one decrypted reply for item `key`. `evicted` says whether
/// the engine has evicted any item so far (only then may a held item
/// read as a miss).
#[must_use]
pub fn check(key: u32, expect: Expect, reply: &[u8], evicted: bool) -> Verdict {
    match expect {
        Expect::Ack if reply == [1u8] => Verdict::Ack,
        Expect::Miss if reply == [0u8] => Verdict::Miss,
        Expect::Hit { .. } if reply == [0u8] && evicted => Verdict::Miss,
        Expect::Hit { ver, len } => {
            let want = value(key, ver, len as usize);
            let ok = reply.len() == 5 + want.len()
                && reply[0] == 1
                && reply[1..5] == len.to_le_bytes()
                && reply[5..] == want[..];
            if ok {
                Verdict::Hit
            } else {
                Verdict::Wrong
            }
        }
        _ => Verdict::Wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_reply(key: u32, ver: u32, len: u32) -> Vec<u8> {
        let mut r = vec![1u8];
        r.extend_from_slice(&len.to_le_bytes());
        r.extend_from_slice(&value(key, ver, len as usize));
        r
    }

    #[test]
    fn exact_replies_pass() {
        let mut s = Shadow::filled(4, 16);
        let get = Req {
            due: 0,
            key: 2,
            op: Op::Get,
        };
        let e = s.expect(&get);
        assert_eq!(check(2, e, &hit_reply(2, 0, 16), false), Verdict::Hit);
        let set = Req {
            due: 0,
            key: 2,
            op: Op::Set { ver: 9, len: 32 },
        };
        assert_eq!(check(2, s.expect(&set), &[1], false), Verdict::Ack);
        let e = s.expect(&get);
        assert_eq!(check(2, e, &hit_reply(2, 9, 32), false), Verdict::Hit);
        // The old value is now stale.
        assert_eq!(check(2, e, &hit_reply(2, 0, 16), false), Verdict::Wrong);
    }

    #[test]
    fn one_flipped_byte_is_flagged() {
        let mut s = Shadow::filled(4, 64);
        let e = s.expect(&Req {
            due: 0,
            key: 1,
            op: Op::Get,
        });
        let good = hit_reply(1, 0, 64);
        assert_eq!(check(1, e, &good, true), Verdict::Hit);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert_eq!(check(1, e, &bad, true), Verdict::Wrong, "byte {i}");
        }
        assert_eq!(check(1, Expect::Ack, &[0x03], false), Verdict::Wrong);
    }

    #[test]
    fn misses_need_an_eviction() {
        let e = Expect::Hit { ver: 0, len: 8 };
        assert_eq!(check(0, e, &[0], false), Verdict::Wrong);
        assert_eq!(check(0, e, &[0], true), Verdict::Miss);
        assert_eq!(check(0, Expect::Miss, &[0], false), Verdict::Miss);
        assert_eq!(
            check(0, Expect::Miss, &hit_reply(0, 0, 8), true),
            Verdict::Wrong
        );
    }
}
