#![deny(missing_docs)]

//! # clouds — provider profiles for the NSDI'20 variability study
//!
//! Maps the clouds measured by Uta et al. onto `netsim` configurations:
//!
//! * [`ec2`] — Amazon EC2 instance types (c5.*, m5.xlarge, m4.16xlarge)
//!   with their reverse-engineered token-bucket parameters (Figure 11)
//!   and ENA-style virtual NICs (9 K jumbo MTU).
//! * [`gce`] — Google Cloud 1/2/4/8-core instances with the 2 Gbps
//!   per-core QoS and virtio/TSO NICs (64 K segments).
//! * [`hpccloud`] — the private research cloud: no QoS, contention
//!   noise.
//! * [`ballani`] — the eight cloud bandwidth distributions A–H of
//!   Figure 2 (from Ballani et al., SIGCOMM'11), used by the paper's
//!   repetition-count emulation (Figure 3).
//!
//! The central type is [`CloudProfile`]; [`CloudProfile::instantiate`]
//! produces a [`Vm`] — a shaper + NIC pair — with **incarnation
//! variability**: the paper found that token-bucket constants "are not
//! always consistent for multiple incarnations of the same instance
//! type", and that from August 2019 some c5.xlarge NICs were capped at
//! 5 Gbps instead of 10 Gbps. Instantiation reproduces both effects.

pub mod ballani;
pub mod ec2;
pub mod gce;
pub mod hpccloud;
pub mod profile;
pub mod timeline;

pub use profile::{reference_faults, CloudProfile, Era, Provider, QosModel, Vm, VmShaper};
pub use timeline::PolicyTimeline;
