//! Portable sealed snapshots: quiesce-at-fence state capture for
//! replica failover and warm restarts.
//!
//! A [`Snapshot`] is a set of named, independently sealed sections —
//! e.g. a KVS's item log next to a server's session-key epoch —
//! captured at a fence (no in-flight mutators) and sealed through the
//! shared [`Sealer`] seam in **one** amortized crypto batch, the same
//! contract the SUVM write-back drain and the wire reap pipeline use.
//!
//! Snapshots are deliberately *portable*: every per-enclave sealing
//! identity (the SGX sealing key, SUVM's per-domain key) dies with its
//! enclave, so a replica restoring a dead sibling's state could never
//! open anything sealed under those. Fleet snapshots are instead
//! sealed under a key the replicas share ([`SealerConfig::Shared`] is
//! the same idea one layer down), and the framed bytes of
//! [`Snapshot::to_bytes`] stay ciphertext end-to-end — safe to stage
//! in untrusted memory, ship over an exit-less cross-enclave channel
//! or park on the host filesystem.
//!
//! Uniqueness of (key, nonce) pairs across all sealers sharing a key
//! is the caller's contract, scoped the same way SUVM scopes its
//! nonces: every section nonce is `domain ‖ epoch ‖ index`, so
//! distinct senders (distinct `domain`, e.g. the sealing enclave's id)
//! and monotonically growing `epoch`s per sender can never collide.
//!
//! [`SealerConfig::Shared`]: crate::config::SealerConfig::Shared

use eleos_crypto::gcm::{Nonce, Tag};
use eleos_crypto::sealer::{OpenJob, SealJob};
use eleos_crypto::Sealer;
use eleos_enclave::thread::ThreadCtx;

/// Framing magic of [`Snapshot::to_bytes`] (`"ELSN"`).
const MAGIC: u32 = 0x4e53_4c45;

/// One sealed section: `blob` is AES-GCM ciphertext of the section's
/// plaintext under the snapshot's sealer, authenticated together with
/// the section name and the snapshot epoch.
struct Section {
    name: String,
    nonce: Nonce,
    tag: Tag,
    blob: Vec<u8>,
}

/// A sealed, portable, multi-section state capture.
pub struct Snapshot {
    epoch: u64,
    sections: Vec<Section>,
}

/// Accumulates plaintext sections, then seals them all in one batch.
pub struct SnapshotBuilder {
    domain: u32,
    epoch: u64,
    sections: Vec<(String, Vec<u8>)>,
}

/// Section nonce: `domain ‖ epoch(low 32) ‖ index`, the same
/// scope-by-construction scheme SUVM uses so sealers sharing one key
/// never repeat a (key, nonce) pair.
fn section_nonce(domain: u32, epoch: u64, index: u32) -> Nonce {
    let mut n = [0u8; 12];
    n[..4].copy_from_slice(&domain.to_le_bytes());
    n[4..8].copy_from_slice(&(epoch as u32).to_le_bytes());
    n[8..].copy_from_slice(&index.to_le_bytes());
    n
}

/// Section AAD: the name and the epoch are authenticated so a section
/// can neither be renamed nor replayed into a different epoch.
fn section_aad(name: &str, epoch: u64) -> Vec<u8> {
    let mut aad = Vec::with_capacity(name.len() + 8);
    aad.extend_from_slice(name.as_bytes());
    aad.extend_from_slice(&epoch.to_le_bytes());
    aad
}

impl SnapshotBuilder {
    /// Starts a snapshot. `domain` scopes the nonces (use the sealing
    /// enclave's id); `epoch` must grow monotonically per domain and
    /// is authenticated into every section.
    #[must_use]
    pub fn new(domain: u32, epoch: u64) -> Self {
        Self {
            domain,
            epoch,
            sections: Vec::new(),
        }
    }

    /// Adds a named plaintext section.
    ///
    /// # Panics
    /// Panics on a duplicate name — [`Snapshot::open`] looks sections
    /// up by name, so duplicates would shadow each other.
    #[must_use]
    pub fn section(mut self, name: &str, plain: Vec<u8>) -> Self {
        assert!(
            !self.sections.iter().any(|(n, _)| n == name),
            "duplicate snapshot section {name:?}"
        );
        self.sections.push((name.to_string(), plain));
        self
    }

    /// Seals every section in place as one amortized crypto batch (the
    /// leader pays the full `crypto_fixed` setup, follow-ons a
    /// quarter) and returns the sealed snapshot.
    #[must_use]
    pub fn seal(self, ctx: &mut ThreadCtx, sealer: &dyn Sealer) -> Snapshot {
        let (domain, epoch) = (self.domain, self.epoch);
        let lens: Vec<usize> = self.sections.iter().map(|(_, p)| p.len()).collect();
        let aads: Vec<Vec<u8>> = self
            .sections
            .iter()
            .map(|(name, _)| section_aad(name, epoch))
            .collect();
        let mut bodies: Vec<(String, Vec<u8>)> = self.sections;
        let mut jobs: Vec<SealJob<'_>> = bodies
            .iter_mut()
            .zip(&aads)
            .enumerate()
            .map(|(i, ((_, plain), aad))| SealJob {
                nonce: section_nonce(domain, epoch, i as u32),
                aad,
                data: plain.as_mut_slice(),
            })
            .collect();
        let tags = sealer.seal_batch(&mut jobs);
        drop(jobs);
        ctx.charge_crypto_batch(lens, true);
        let sections = bodies
            .into_iter()
            .zip(tags)
            .enumerate()
            .map(|(i, ((name, blob), tag))| Section {
                name,
                nonce: section_nonce(domain, epoch, i as u32),
                tag,
                blob,
            })
            .collect();
        Snapshot { epoch, sections }
    }
}

impl Snapshot {
    /// The epoch this snapshot was sealed at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of sections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the snapshot carries no sections.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// The section names, in capture order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// Whether the named section is present (without opening it) —
    /// restore paths use this to accept snapshots from before an
    /// optional section existed.
    #[must_use]
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    /// Total sealed payload bytes across sections (what a transport
    /// will move).
    #[must_use]
    pub fn sealed_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.blob.len()).sum()
    }

    /// Verifies and decrypts the named section, returning its
    /// plaintext. Charges the caller one crypto batch of one.
    ///
    /// # Panics
    /// Panics when the section does not exist or fails authentication
    /// — a tampered or misrouted snapshot must never restore silently.
    #[must_use]
    pub fn open(&self, ctx: &mut ThreadCtx, sealer: &dyn Sealer, name: &str) -> Vec<u8> {
        let s = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("snapshot has no section {name:?}"));
        let aad = section_aad(name, self.epoch);
        let mut plain = s.blob.clone();
        let mut jobs = [OpenJob {
            nonce: s.nonce,
            aad: &aad,
            data: plain.as_mut_slice(),
            tag: s.tag,
        }];
        sealer
            .open_batch(&mut jobs)
            .expect("snapshot section failed authentication: bytes tampered in transit");
        ctx.charge_crypto_batch([plain.len()], true);
        plain
    }

    /// Frames the snapshot (sections stay sealed) for a byte
    /// transport: cross-enclave channel, host file, wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.sealed_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(&s.nonce);
            out.extend_from_slice(&s.tag);
            out.extend_from_slice(&(s.blob.len() as u32).to_le_bytes());
            out.extend_from_slice(&s.blob);
        }
        out
    }

    /// Parses a frame produced by [`Self::to_bytes`].
    ///
    /// # Panics
    /// Panics on malformed framing (wrong magic, truncated sections) —
    /// the frame travels through untrusted memory, and parsing it is
    /// cheap compared to the authentication that follows, so garbage
    /// fails loudly here and forgery still dies at [`Self::open`].
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut r = Reader { bytes, at: 0 };
        assert_eq!(
            u32::from_le_bytes(r.take(4).try_into().expect("magic")),
            MAGIC,
            "not a snapshot frame"
        );
        let epoch = u64::from_le_bytes(r.take(8).try_into().expect("epoch"));
        let count = u32::from_le_bytes(r.take(4).try_into().expect("count"));
        let sections = (0..count)
            .map(|_| {
                let name_len = u16::from_le_bytes(r.take(2).try_into().expect("name len")) as usize;
                let name = String::from_utf8(r.take(name_len).to_vec()).expect("utf-8 name");
                let nonce: Nonce = r.take(12).try_into().expect("nonce");
                let tag: Tag = r.take(16).try_into().expect("tag");
                let blob_len = u32::from_le_bytes(r.take(4).try_into().expect("blob len")) as usize;
                let blob = r.take(blob_len).to_vec();
                Section {
                    name,
                    nonce,
                    tag,
                    blob,
                }
            })
            .collect();
        assert_eq!(r.at, bytes.len(), "trailing bytes after snapshot frame");
        Snapshot { epoch, sections }
    }
}

/// Bounds-checked cursor over a snapshot frame.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(self.at + n <= self.bytes.len(), "truncated snapshot frame");
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_crypto::gcm::AesGcm128;
    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    fn rig() -> (Arc<SgxMachine>, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 64 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (m, t)
    }

    #[test]
    fn seal_frame_parse_open_round_trip() {
        let (_m, mut t) = rig();
        let sealer = AesGcm128::new(&[0x77u8; 16]);
        let snap = SnapshotBuilder::new(1, 42)
            .section("kvs-items", b"the item log".to_vec())
            .section("epoch", 42u64.to_le_bytes().to_vec())
            .seal(&mut t, &sealer);
        assert_eq!(snap.epoch(), 42);
        assert_eq!(snap.section_names(), vec!["kvs-items", "epoch"]);

        let frame = snap.to_bytes();
        // Sealed: the plaintext never appears in the frame.
        assert!(!frame.windows(12).any(|w| w == b"the item log"));

        let back = Snapshot::from_bytes(&frame);
        assert_eq!(back.open(&mut t, &sealer, "kvs-items"), b"the item log");
        assert_eq!(
            back.open(&mut t, &sealer, "epoch"),
            42u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn sealing_is_one_amortized_batch() {
        let (_m, mut t) = rig();
        let sealer = AesGcm128::new(&[1u8; 16]);
        let costs = &t.machine.cfg.costs;
        let full = costs.crypto_fixed;
        let follow = costs.crypto_batch_fixed(1);
        let plains: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 100]).collect();

        let c0 = t.now();
        let mut b = SnapshotBuilder::new(0, 1);
        for (i, p) in plains.iter().enumerate() {
            b = b.section(&format!("s{i}"), p.clone());
        }
        let _snap = b.seal(&mut t, &sealer);
        let batched = t.now() - c0;

        // Four one-section snapshots pay the full setup four times;
        // the batched seal pays it once plus three quarter-rate
        // follow-ons. The variable (per-byte) cost is identical.
        let c1 = t.now();
        for (i, p) in plains.iter().enumerate() {
            let _ = SnapshotBuilder::new(0, 2 + i as u64)
                .section("s", p.clone())
                .seal(&mut t, &sealer);
        }
        let separate = t.now() - c1;
        assert_eq!(separate - batched, 3 * (full - follow));
        assert!(full > follow, "amortization must be real");
    }

    #[test]
    #[should_panic(expected = "failed authentication")]
    fn tampered_section_fails_to_open() {
        let (_m, mut t) = rig();
        let sealer = AesGcm128::new(&[2u8; 16]);
        let snap = SnapshotBuilder::new(0, 7)
            .section("state", vec![9u8; 64])
            .seal(&mut t, &sealer);
        let mut frame = snap.to_bytes();
        let n = frame.len();
        frame[n - 1] ^= 1; // flip a ciphertext bit
        let _ = Snapshot::from_bytes(&frame).open(&mut t, &sealer, "state");
    }

    #[test]
    #[should_panic(expected = "failed authentication")]
    fn replayed_epoch_fails_to_open() {
        // The epoch is authenticated: re-framing a section under a
        // different epoch breaks the AAD.
        let (_m, mut t) = rig();
        let sealer = AesGcm128::new(&[3u8; 16]);
        let snap = SnapshotBuilder::new(0, 7)
            .section("state", vec![5u8; 32])
            .seal(&mut t, &sealer);
        let mut frame = snap.to_bytes();
        frame[4..12].copy_from_slice(&8u64.to_le_bytes()); // epoch 7 -> 8
        let _ = Snapshot::from_bytes(&frame).open(&mut t, &sealer, "state");
    }

    #[test]
    #[should_panic(expected = "truncated snapshot frame")]
    fn truncated_frame_fails_fast() {
        let (_m, mut t) = rig();
        let sealer = AesGcm128::new(&[4u8; 16]);
        let frame = SnapshotBuilder::new(0, 1)
            .section("state", vec![1u8; 64])
            .seal(&mut t, &sealer)
            .to_bytes();
        let _ = Snapshot::from_bytes(&frame[..frame.len() - 10]);
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_sections_fail_fast() {
        let _ = SnapshotBuilder::new(0, 1)
            .section("a", vec![])
            .section("a", vec![]);
    }

    #[test]
    fn distinct_domains_never_collide_nonces() {
        // Two enclaves sealing the same epoch under one shared key get
        // distinct nonces (the fleet's safety contract).
        assert_ne!(section_nonce(1, 5, 0), section_nonce(2, 5, 0));
        assert_ne!(section_nonce(1, 5, 0), section_nonce(1, 6, 0));
        assert_ne!(section_nonce(1, 5, 0), section_nonce(1, 5, 1));
    }
}
