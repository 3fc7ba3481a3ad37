//! Server applications from the Eleos (EuroSys'17) evaluation.
//!
//! Each server is written once against the [`space::DataSpace`]
//! abstraction and the [`io::IoPath`] syscall abstraction, so the same
//! code runs in every configuration the paper compares:
//!
//! | paper configuration | `DataSpace` | `IoPath` |
//! |---|---|---|
//! | native (no SGX) | `Untrusted` | `Native` |
//! | vanilla SGX / Graphene | `Enclave` | `Ocall` |
//! | Eleos (RPC only) | `Enclave` | `Rpc` |
//! | Eleos (RPC + SUVM) | `Suvm` | `Rpc` |
//! | Eleos (direct access) | `Suvm{direct}` | `Rpc` |
//!
//! Applications:
//! - [`param_server`] — the §2 motivation workload (Figs 1, 2, 6);
//! - [`kvs`] — the memcached-style store of §5.1 (Fig 11, Table 4),
//!   with the paper's clear-metadata/secure-kv split over pluggable
//!   [`storage`] engines: the memcached-style [`slab`] allocator
//!   (optionally with a fence-time slab rebalancer) or a TTL-bucketed
//!   append-only segment store;
//! - [`face`] — the LBP face-verification server of §5.2 (Fig 10);
//! - [`loadgen`] — seeded client load (memaslap-style for the KVS);
//! - [`wire`] — the AES-CTR wire [`Session`](wire::Session) (§5):
//!   attestation handshake, epoch key rotation, revocation.

pub mod face;
pub mod fleet_io;
pub mod io;
pub mod kvs;
pub mod loadgen;
pub mod param_server;
pub mod slab;
pub mod space;
pub mod storage;
pub mod text_protocol;
pub mod wire;

pub use io::{IoPath, ServerIo, ServerIoConfig};
pub use space::DataSpace;
pub use wire::{Session, SessionState};
