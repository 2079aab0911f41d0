//! Simulated GPU cluster substrate.
//!
//! The paper's testbed is 4 nodes × 8 NVIDIA A100-80GB, NVLink inside a
//! node, 25 Gbps across nodes (§6.1). This crate models exactly the
//! properties the serving system observes:
//!
//! * [`topology`] — nodes, GPUs, and the link connecting any two GPUs
//!   (NVLink when colocated on a node, the cross-node fabric otherwise).
//! * [`alloc`] — assignment of GPU groups to instances, with the
//!   same-node constraint the low node-affinity placement needs.
//! * [`transfer`] — KV-cache transfer timing between prefill and decoding
//!   instances, path-aware (§3.3's bandwidth arithmetic).
//!
//! # Examples
//!
//! ```
//! use distserve_cluster::Cluster;
//!
//! let cluster = Cluster::paper_testbed();
//! assert_eq!(cluster.total_gpus(), 32);
//! ```

pub mod alloc;
pub mod topology;
pub mod transfer;

pub use alloc::GpuAllocator;
pub use topology::{Cluster, GpuId, NodeId};
pub use transfer::KvTransferModel;
