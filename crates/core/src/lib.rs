//! The GlueFL federated-learning framework.
//!
//! A pure-Rust reproduction of *GlueFL: Reconciling Client Sampling and
//! Model Masking for Bandwidth Efficient Federated Learning* (He et al.,
//! MLSys 2023). This crate ties the workspace's substrates — synthetic
//! non-IID datasets ([`gluefl_data`]), a flat-parameter neural net
//! ([`gluefl_ml`]), compression/masking ([`gluefl_compress`]), client
//! sampling ([`gluefl_sampling`]), and network simulation
//! ([`gluefl_net`]) — into one deterministic round [`engine`], an
//! in-process driver for it ([`Simulation`]; `gluefl-transport` holds the
//! socket one), and the paper's six strategy configurations. Each is a
//! client [`strategies::Sampler`] (who is invited, what a kept upload
//! weighs), a server fold ([`strategies::Strategy`]) and a client half
//! ([`ClientCompressor`]):
//!
//! | Configuration | Sampler | Fold | Compression |
//! |---|---|---|---|
//! | FedAvg | uniform | [`strategies::Strategy::Dense`] | none (dense) |
//! | MD-FedAvg | multinomial | [`strategies::Strategy::Dense`] | none (dense) |
//! | STC | uniform | [`strategies::Strategy::Stc`] | top-`q` both sides + error feedback |
//! | STC-quant | uniform | [`strategies::Strategy::Stc`] | STC + ternary values (footnote 1) |
//! | APF | uniform | [`strategies::Strategy::Apf`] | adaptive parameter freezing |
//! | GlueFL (and its Equal-weights arm) | sticky (§3.1) | [`strategies::Strategy::GlueFl`] | mask shifting (§3.2) + regeneration + REC (§3.3) |
//!
//! Each round's aggregate crosses the strategy seam as a [`MaskedUpdate`]
//! (support mask + packed values; see the [`strategies::Strategy`] docs
//! for the contract), which the engine applies with word-level masked
//! kernels — sparse rounds never walk the dense parameter vector.
//!
//! # Quickstart
//!
//! ```
//! use gluefl_core::{SimConfig, Simulation, StrategyConfig};
//! use gluefl_data::DatasetProfile;
//! use gluefl_ml::DatasetModel;
//!
//! // A miniature FEMNIST/ShuffleNet run (2% of paper scale, 3 rounds).
//! let mut cfg = SimConfig::paper_setup(
//!     DatasetProfile::Femnist,
//!     DatasetModel::ShuffleNet,
//!     StrategyConfig::Stc { q: 0.2 },
//!     0.02,
//!     3,
//!     42,
//! );
//! cfg.model.hidden = vec![8];           // shrink for the doctest
//! cfg.dataset.feature_dim = 8;
//! cfg.dataset.classes = 4;
//! cfg.dataset.test_samples = 40;
//! let result = Simulation::new(cfg).run();
//! assert_eq!(result.rounds.len(), 3);
//! assert!(result.total.down_bytes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
mod client;
mod config;
pub mod engine;
mod metrics;
pub mod scratch;
mod simulator;
mod staleness;
pub mod strategies;
pub mod stream;
pub mod theory;
pub mod wire_link;

pub use client::{ClientCompressor, MissingRoundMask, RunSetup, StagedTurn};
pub use config::{AvailabilityConfig, GlueFlParams, SimConfig, StrategyConfig};
pub use engine::RoundEngine;
pub use gluefl_tensor::MaskedUpdate;
pub use gluefl_wire::Codec as WireCodec;
pub use gluefl_wire::{LayoutMenu, WirePolicy};
pub use metrics::{bytes_to_mb, rolling_accuracy, CumulativeMetrics, RoundRecord, RunResult};
pub use scratch::{ScratchPool, TrainSlot};
pub use simulator::{
    batch_local_train_into, local_train_into, local_train_seed, train_client_into, ClientTurn,
    InProcessClients, Simulation,
};
pub use staleness::{StalenessTracker, Stamp};
