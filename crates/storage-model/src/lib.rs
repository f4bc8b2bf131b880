//! # storage-model — HDD and SSD service-time models
//!
//! The paper's testbed pairs 250 GB SATA-II hard disks (HServers) with
//! PCI-E X4 100 GB SSDs (SServers). Neither is available here, so this
//! crate provides calibrated request-level service-time models that
//! reproduce the properties MHA exploits:
//!
//! * HDDs pay a large, locality-dependent positioning cost (seek +
//!   rotational latency) and then stream at a moderate rate; random small
//!   I/O is therefore an order of magnitude slower than on SSD.
//! * SSDs have tiny startup latencies, much higher streaming rates, and
//!   **asymmetric read/write** behaviour (writes are slower and degrade
//!   under pressure), which is why the cost model of the paper carries
//!   separate `(α_sr, β_sr)` and `(α_sw, β_sw)` parameters.
//!
//! Models are deterministic given their seed; jitter is optional and off by
//! default so unit tests can assert exact durations.

pub mod calibrate;
pub mod degrade;
pub mod device;
pub mod hdd;
pub mod ssd;

pub use calibrate::calibrate;
pub use degrade::ScaledDevice;
pub use device::{BoxedDevice, Device, DeviceKind, IoOp};
pub use hdd::{HddModel, HddParams};
pub use ssd::{SsdModel, SsdParams};
