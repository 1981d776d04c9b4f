//! Synthetic non-IID federated datasets for the GlueFL reproduction.
//!
//! The paper trains on FEMNIST, OpenImage, and Google Speech, partitioned
//! across thousands of clients with FedScale's real-world non-IID mapping.
//! We substitute synthetic datasets, so that every run is reproducible
//! from one seed with no external data, and keep the properties the
//! evaluation actually depends on — sampling, masking and compression
//! react to gradient heterogeneity across clients and to skewed client
//! sizes, not to the pixels themselves:
//!
//! * **class-conditional Gaussian features** — a learnable task whose
//!   accuracy-vs-rounds curve has the usual saturating shape;
//! * **label skew** — each client holds a small Dirichlet-weighted subset
//!   of classes, so client gradients are heterogeneous and sparsification
//!   masks differ across clients;
//! * **heavy-tailed client sizes** — per-client sample counts follow a
//!   log-normal clipped at FedScale's minimum of 22 samples, and client
//!   importance weights `p_i` are proportional to sample counts;
//! * **per-client feature bias** — a small client-specific offset models
//!   feature-distribution drift between devices.
//!
//! Client datasets are **materialised lazily and deterministically** from
//! per-client seeds: holding a 10 625-client OpenImage-scale dataset costs
//! only the class means plus per-client metadata, and
//! [`SyntheticFlDataset::client`] regenerates identical samples every call.
//! A shard is therefore a pure function of `(seed, client)`: a holder may
//! keep it (a socket client keeps its own; the simulator keeps the sticky
//! group's) or drop and rebuild it without changing a bit. Every client
//! holds at least one sample — [`SyntheticFlDataset::generate`] refuses a
//! config that would allow an empty client, which could never be trained.
//!
//! A shard is a **row table filled on demand**
//! ([`SyntheticFlDataset::fill_rows`]): a training turn reads only the
//! rows its minibatches draw ([`batch_rows`]), and those are known from
//! its seed before it starts, so it fills just them. One walk of the
//! client's stream fills any set of rows; the rows it passes over draw
//! the same uniforms without evaluating the normals, so a row's bits never
//! depend on which other rows are filled.
//!
//! # Example
//!
//! ```
//! use gluefl_data::{DatasetProfile, SyntheticFlDataset};
//!
//! let cfg = DatasetProfile::Femnist.config(0.05); // 5% of paper scale
//! let data = SyntheticFlDataset::generate(cfg, 42);
//! assert_eq!(data.num_clients(), 140);
//! let c0 = data.client(0);
//! assert!(c0.len() >= 22); // FedScale's minimum samples per client
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod profiles;

pub use dataset::{batch_rows, ClientDataset, DatasetConfig, SyntheticFlDataset};
pub use profiles::DatasetProfile;
