//! The four benchmark workloads: which `SimConfig` each one runs, how
//! many rounds a pass has, and why the workload exists.
//!
//! All four start from the paper's FEMNIST/ShuffleNet setup at 10%
//! population (N = 280, K = 30, OC = 1.3 so 39 are invited, availability
//! 0.8/40). `eval_every = rounds`, so the only evaluation runs inside the
//! final round; that round is executed (its record carries
//! `test_accuracy`) but left out of every timing aggregate.

use gluefl_core::{GlueFlParams, SimConfig, StrategyConfig, WireCodec, WirePolicy};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

/// How a workload's rounds are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Simulation::step` in this process.
    Simulator,
    /// `Server::run` on one thread, one generator thread owning every
    /// `ClientNode` and its `TcpStream` over loopback.
    Socket,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name; later issues refer to workloads by it.
    pub name: &'static str,
    /// Simulator or loopback socket.
    pub driver: Driver,
    /// Rounds per pass (the last one carries the evaluation and is not
    /// timed).
    pub rounds: u32,
    /// Rounds per pass under `--quick`.
    pub quick_rounds: u32,
    /// Why the workload was chosen (one line, also in BENCHMARK.json).
    pub why: &'static str,
    wide: bool,
    gluefl: bool,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "sim_paper_gluefl",
        driver: Driver::Simulator,
        rounds: 60,
        quick_rounds: 10,
        why: "Paper shape (MLP [192,96], d=38176, E=10, batch 16, legacy F32 wire): train is ~4/5 of a round, so ml/gemm/data work shows and wire/aggregate work should not",
        wide: false,
        gluefl: true,
    },
    Workload {
        name: "sim_wide_gluefl",
        driver: Driver::Simulator,
        rounds: 20,
        quick_rounds: 4,
        why: "Wide shape (hidden [4096], d=536639 past L2, E=1, batch 4, entropy F32 wire): compress, top-k, v2 frame encode, fold and mask regeneration dominate instead of train",
        wide: true,
        gluefl: true,
    },
    Workload {
        name: "sim_wide_fedavg",
        driver: Driver::Simulator,
        rounds: 20,
        quick_rounds: 4,
        why: "Wide shape under FedAvg: dense frames, dense fold, full-mask apply; a sparse-path win that taxes the dense path shows here",
        wide: true,
        gluefl: false,
    },
    Workload {
        name: "tcp_paper_gluefl",
        driver: Driver::Socket,
        rounds: 60,
        quick_rounds: 10,
        why: "Same SimConfig as sim_paper_gluefl over loopback TCP (Server::run + one generator thread, 280 connections): tcp minus sim is the transport cost, and socket bytes exist only here",
        wide: false,
        gluefl: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Rounds per pass in the given mode.
    pub fn rounds_for(&self, quick: bool) -> u32 {
        if quick {
            self.quick_rounds
        } else {
            self.rounds
        }
    }

    /// The workload's run configuration for `seed` and `rounds`.
    pub fn config(&self, seed: u64, rounds: u32) -> SimConfig {
        let strategy = if self.gluefl {
            StrategyConfig::GlueFl(GlueFlParams::paper_default(30, DatasetModel::ShuffleNet))
        } else {
            StrategyConfig::FedAvg
        };
        let mut cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            strategy,
            0.1,
            rounds,
            seed,
        );
        cfg.eval_every = rounds;
        if self.wide {
            cfg.model.hidden = vec![4096];
            cfg.local_steps = 1;
            cfg.batch_size = 4;
            if self.gluefl {
                cfg.wire = WirePolicy::entropy(WireCodec::F32);
            }
        }
        cfg
    }
}
