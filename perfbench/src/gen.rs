//! Seeded request generation: keys, values, operation mix, Zipf key
//! popularity and Poisson arrival times.
//!
//! Everything the program under test sees is produced here from the
//! workload seed, so the same seed always yields the same requests.

use eleos_sim::costs::CPU_HZ;

/// SplitMix64: a small, well-mixed deterministic generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed` (phases draw from
    /// disjoint streams so adding a phase never shifts another's
    /// requests).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(α) over ranks `0..n`, sampled by inverting a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` ranks.
    #[must_use]
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(alpha);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws one rank (0 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// Key length in bytes (the paper's memaslap setting).
pub const KEY_LEN: usize = 20;

/// The key of item `i`, padded to [`KEY_LEN`].
#[must_use]
pub fn key(i: u32) -> Vec<u8> {
    let mut k = format!("key-{i:012}").into_bytes();
    k.resize(KEY_LEN, b'x');
    k
}

/// The value a SET of item `i` at version `ver` writes. The first
/// eight bytes name the item and the version, so a stale or misplaced
/// value never matches the expected one.
#[must_use]
pub fn value(i: u32, ver: u32, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&i.to_le_bytes());
    v.extend_from_slice(&ver.to_le_bytes());
    let fill = (i ^ ver.rotate_left(8)) as u8;
    v.extend((0..len.saturating_sub(8)).map(|j| fill.wrapping_add(j as u8)));
    v.truncate(len);
    v
}

/// A request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the item.
    Get,
    /// Write the item with version `ver` and `len` value bytes.
    Set {
        /// Version stamp the value is derived from.
        ver: u32,
        /// Value length in bytes.
        len: u32,
    },
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Cycles after the phase start at which the request is due.
    pub due: u64,
    /// Item index.
    pub key: u32,
    /// Operation.
    pub op: Op,
}

/// How a phase's requests are drawn.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Number of items.
    pub n_items: u32,
    /// Zipf exponent of key popularity; `None` for uniform keys.
    pub zipf: Option<f64>,
    /// Fraction of requests that are GETs.
    pub get_frac: f64,
    /// SET value length before `shift_at` of the arrivals.
    pub value_len: u32,
    /// `(fraction of arrivals, new value length)`: from that point on
    /// SETs write values of the new length.
    pub shift: Option<(f64, u32)>,
}

/// Generates `n` requests at `rate_ops` (simulated ops per second)
/// with Poisson arrivals. `next_ver` hands out SET versions; it is
/// shared across phases so every SET writes a fresh value.
#[must_use]
pub fn phase(
    mix: &Mix,
    zipf: Option<&Zipf>,
    rng: &mut Rng,
    n: usize,
    rate_ops: f64,
    next_ver: &mut u32,
) -> Vec<Req> {
    let mean_gap = CPU_HZ / rate_ops;
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            // Exponential inter-arrival gap (1 - u is in (0, 1]).
            t += -mean_gap * (1.0 - rng.unit()).ln();
            let key = match zipf {
                Some(z) => scatter(z.sample(rng), mix.n_items),
                None => rng.below(u64::from(mix.n_items)) as u32,
            };
            let op = if rng.unit() < mix.get_frac {
                Op::Get
            } else {
                *next_ver += 1;
                let len = match mix.shift {
                    Some((at, len)) if i as f64 >= at * n as f64 => len,
                    _ => mix.value_len,
                };
                Op::Set {
                    ver: *next_ver,
                    len,
                }
            };
            Req {
                due: t as u64,
                key,
                op,
            }
        })
        .collect()
}

/// Maps a popularity rank to an item index, spreading the hot ranks
/// over the key space (and so over connections and shards).
fn scatter(rank: u64, n_items: u32) -> u32 {
    (rank.wrapping_mul(0x9E37_79B1) % u64::from(n_items)) as u32
}

/// The request plaintext for `r` in the KVS binary protocol.
#[must_use]
pub fn plaintext(r: &Req) -> Vec<u8> {
    let k = key(r.key);
    match r.op {
        Op::Get => eleos_apps::kvs::build_get(&k),
        Op::Set { ver, len } => eleos_apps::kvs::build_set(&k, &value(r.key, ver, len as usize)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let mix = Mix {
            n_items: 100,
            zipf: Some(0.99),
            get_frac: 0.9,
            value_len: 64,
            shift: Some((0.5, 512)),
        };
        let z = Zipf::new(100, 0.99);
        let gen = |seed| {
            let mut v = 0;
            phase(&mix, Some(&z), &mut Rng::new(seed, 1), 1000, 1e5, &mut v)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn values_differ_by_version() {
        assert_ne!(value(3, 1, 64), value(3, 2, 64));
        assert_eq!(value(3, 1, 64).len(), 64);
        assert_eq!(value(3, 1, 4).len(), 4);
    }

    #[test]
    fn poisson_rate_is_close() {
        let mix = Mix {
            n_items: 10,
            zipf: None,
            get_frac: 1.0,
            value_len: 8,
            shift: None,
        };
        let mut v = 0;
        let reqs = phase(&mix, None, &mut Rng::new(1, 2), 20_000, 1e6, &mut v);
        let secs = reqs.last().expect("requests").due as f64 / CPU_HZ;
        let rate = reqs.len() as f64 / secs;
        assert!((rate / 1e6 - 1.0).abs() < 0.03, "rate {rate}");
    }
}
