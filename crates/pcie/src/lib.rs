//! # bam-pcie — PCIe interconnect model
//!
//! BaM's evaluation is shaped by PCIe ceilings: the GPU's Gen4 ×16 link
//! (~26 GB/s measured) and each SSD's Gen4 ×4 link (~6.5 GB/s) (§4.2,
//! Table 1). This crate models link specifications and the transfer-time
//! accounting used by the analytical timing layer.
//!
//! ```
//! use bam_pcie::LinkSpec;
//! let gpu_link = LinkSpec::gen4_x16();
//! assert!(gpu_link.effective_bandwidth_gbps() > 20.0);
//! ```

pub mod link;
pub mod transfer;

pub use link::{LinkSpec, PcieGeneration};
pub use transfer::TransferModel;
