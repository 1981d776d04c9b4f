//! Network and device simulation for cross-device federated learning.
//!
//! The GlueFL paper evaluates on three network environments (Figure 9):
//! end-user edge devices (M-Lab NDT measurements, Figure 1), commercial 5G
//! (Narayanan et al. 2021), and a Google Cloud datacenter (Mok et al.
//! 2021). It also uses FedScale's client behaviour trace to model client
//! availability, and heterogeneous device speeds so that computation time
//! varies per client.
//!
//! This crate provides calibrated synthetic equivalents:
//!
//! * [`NetworkProfile`] / [`ClientLink`] — per-client download/upload
//!   bandwidth sampled from log-normal fits of the three environments'
//!   published distributions. The edge profile reproduces the paper's
//!   headline facts: ≈20% of devices have ≤10 Mbps download, and uploads
//!   are roughly 1.7× slower than downloads.
//! * [`DeviceProfile`] — per-client compute speed multipliers.
//! * [`LazyAvailability`] / [`AvailabilityTraceRef`] — a two-state on/off
//!   session process standing in for FedScale's availability trace, in a
//!   lazy counter-based form (O(1) per query, no population scan) and its
//!   eager dense reference twin.
//! * [`timing`] — byte-count → seconds conversions with a latency floor.
//!
//! Per-client randomness (links, speeds, availability) is *counter-based*:
//! client `i`'s draws derive from `(seed, i)` rather than from a shared
//! sequential stream, so any client's link, speed, or on/off trajectory can
//! be produced on demand, in any order, without materialising the other
//! `N − 1` — the key to million-client populations. [`LinkCache`] and
//! [`SpeedCache`] add a cached-per-participant fast path on top.
//!
//! # Example
//!
//! ```
//! use gluefl_net::{NetworkProfile, timing};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let link = NetworkProfile::MlabEdge.sample_link(&mut rng);
//! // Time to download a 5 MB model over this client's link:
//! let secs = timing::seconds_for_bytes(5_000_000, link.down_mbps);
//! assert!(secs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod bandwidth;
mod device;
pub mod timing;

pub use availability::{AvailabilityTraceRef, LazyAvailability};
pub use bandwidth::{cdf, ClientLink, LinkCache, NetworkProfile};
pub use device::{DeviceProfile, SpeedCache};
