//! Client sampling: the §3.1 half of a strategy's server side.
//!
//! A [`Sampler`] decides who a round invites ([`Sampler::plan`]), what
//! each kept upload weighs in the aggregate ([`Sampler::weight`]), and
//! how GlueFL's sticky group changes after the round
//! ([`Sampler::rebalance`]). The round engine owns one, built from the
//! run's [`StrategyConfig`]; the strategy's fold ([`super::Strategy`])
//! only ever sees the weights it computes.
//!
//! | Sampler | Strategies | Invitations | Weight of kept client `i` |
//! |---|---|---|---|
//! | [`Sampler::Uniform`] | FedAvg, STC, STC-quant, APF | `round(K·oc)` uniform | `(N/K)·p_i` (Equation 2) |
//! | [`Sampler::Multinomial`] | MD-FedAvg | `K` i.i.d. draws ∝ `p_i`, repeats merged | `m_i/K` for `m_i` draws |
//! | [`Sampler::Sticky`] | GlueFL, GlueFL-equal | `C` sticky + `K − C` fresh, over-committed | [`GlueFlParams::client_weight`] |

use crate::config::{GlueFlParams, SimConfig, StrategyConfig};
use gluefl_sampling::overcommit::{plan as oc_plan, OcPlan};
use gluefl_sampling::{ClientId, MdSampler, OnlineQuery, StickySampler, UniformSampler};
use rand::rngs::StdRng;

/// Which pool a participant was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// The sticky group `S` (GlueFL only).
    Sticky,
    /// The non-sticky remainder (or the whole population for uniform
    /// strategies).
    Fresh,
}

/// One round's invitation plan.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// Invited sticky-group clients (empty for uniform strategies).
    pub sticky_invites: Vec<ClientId>,
    /// Invited non-sticky clients.
    pub fresh_invites: Vec<ClientId>,
    /// How many sticky updates to keep (`C`).
    pub keep_sticky: usize,
    /// How many fresh updates to keep (`K − C`).
    pub keep_fresh: usize,
}

impl RoundPlan {
    /// All invited clients with their group tags, sticky first — an
    /// iterator, so per-round consumers don't allocate.
    pub fn invited(&self) -> impl Iterator<Item = (ClientId, Group)> + '_ {
        self.sticky_invites
            .iter()
            .map(|&c| (c, Group::Sticky))
            .chain(self.fresh_invites.iter().map(|&c| (c, Group::Fresh)))
    }
}

/// The run's client sampler; see the [module docs](self).
#[derive(Debug)]
pub enum Sampler {
    /// Uniform sampling with over-commitment (FedAvg, STC, APF).
    Uniform {
        /// The population to draw from.
        sampler: UniformSampler,
        /// Round size `K`.
        k: usize,
        /// Invitations per round, `round(K·oc)`.
        invites: usize,
        /// Importance weights `p_i`.
        weights: Vec<f64>,
    },
    /// Multinomial (MD) sampling: `K` i.i.d. draws proportional to
    /// `p_i` (Li et al. 2020a). Over-commitment is not applied — it is a
    /// statistical baseline, and every drawn client is kept; a client
    /// drawn `m` times is invited once and weighs `m/K`, which keeps the
    /// aggregate unbiased.
    Multinomial {
        /// The importance-weight distribution.
        sampler: MdSampler,
        /// Round size `K`.
        k: usize,
        /// The current round's draws as `(client, multiplicity)`, sorted
        /// by client id — O(K) entries, never a population-length vector.
        drawn: Vec<(ClientId, u32)>,
        /// Raw accepted draws of the round, reused across rounds.
        raw: Vec<ClientId>,
    },
    /// GlueFL's sticky sampling (§3.1): `C` of each round's `K` come from
    /// the sticky group `S`, which the round's fresh participants join.
    Sticky {
        /// The sticky group and the non-sticky remainder.
        sampler: StickySampler,
        /// Group sizes and the weighting rule.
        params: GlueFlParams,
        /// Round size `K`.
        k: usize,
        /// Per-group invitations and keeps under over-commitment.
        plan: OcPlan,
        /// Importance weights `p_i`.
        weights: Vec<f64>,
    },
}

impl Sampler {
    /// The sampler `cfg.strategy` runs over a population with importance
    /// weights `weights` (one per client). GlueFL's sticky group is
    /// drawn from `rng` — the engine's `"strategy"` stream, before the
    /// fold draws its initial shared mask from the same stream.
    ///
    /// # Panics
    /// Panics if the weights are not a valid distribution (MD-FedAvg), or
    /// if the sticky configuration is inconsistent with the population
    /// (`C > S`, `S > N` or `C > K`).
    #[must_use]
    pub fn new(cfg: &SimConfig, weights: &[f64], rng: &mut StdRng) -> Self {
        let n = weights.len();
        let k = cfg.round_size;
        match &cfg.strategy {
            StrategyConfig::MdFedAvg => Self::Multinomial {
                sampler: MdSampler::new(weights.to_vec()).expect("valid client weights"),
                k,
                drawn: Vec::new(),
                raw: Vec::new(),
            },
            StrategyConfig::GlueFl(params) => {
                assert!(
                    params.sticky_draw <= params.sticky_group
                        && params.sticky_group <= n
                        && params.sticky_draw <= k,
                    "invalid sticky configuration"
                );
                Self::Sticky {
                    sampler: StickySampler::new(n, params.sticky_group, rng),
                    params: params.clone(),
                    k,
                    plan: oc_plan(k, params.sticky_draw, cfg.oc, cfg.oc_strategy),
                    weights: weights.to_vec(),
                }
            }
            StrategyConfig::FedAvg
            | StrategyConfig::Stc { .. }
            | StrategyConfig::StcQuantized { .. }
            | StrategyConfig::Apf { .. } => Self::Uniform {
                sampler: UniformSampler::new(n),
                k,
                invites: (k as f64 * cfg.oc).round() as usize,
                weights: weights.to_vec(),
            },
        }
    }

    /// Plans one round's invitations, restricted to clients for which
    /// `online` answers `true`. Only the candidates a draw actually
    /// considers are queried — O(participants), never a population sweep
    /// — so a lazy availability process behind the query stays cheap.
    /// The invited ids are distinct.
    pub fn plan(&mut self, rng: &mut StdRng, online: &mut dyn OnlineQuery) -> RoundPlan {
        match self {
            Self::Uniform {
                sampler,
                k,
                invites,
                ..
            } => RoundPlan {
                sticky_invites: Vec::new(),
                fresh_invites: sampler.draw(rng, *invites, online),
                keep_sticky: 0,
                keep_fresh: *k,
            },
            Self::Multinomial {
                sampler,
                k,
                drawn,
                raw,
            } => {
                raw.clear();
                let mut attempts = 0usize;
                // Rejection-sample against availability (MD sampling over
                // the online sub-population, re-normalised). Each CDF draw
                // is O(log N) and the accepted draws land in an O(K)
                // scratch list — independent of N.
                while raw.len() < *k && attempts < *k * 200 {
                    attempts += 1;
                    let id = sampler.draw_one(rng);
                    if online.is_online(id) {
                        raw.push(id);
                    }
                }
                // Collapse the accepted draws into sorted (client,
                // multiplicity) runs: a repeat is one invitation, weighted.
                raw.sort_unstable();
                drawn.clear();
                for &id in raw.iter() {
                    match drawn.last_mut() {
                        Some((c, m)) if *c == id => *m += 1,
                        _ => drawn.push((id, 1)),
                    }
                }
                let invites: Vec<ClientId> = drawn.iter().map(|&(c, _)| c).collect();
                RoundPlan {
                    sticky_invites: Vec::new(),
                    keep_fresh: invites.len(),
                    fresh_invites: invites,
                    keep_sticky: 0,
                }
            }
            Self::Sticky { sampler, plan, .. } => {
                let draw = sampler.draw(rng, plan.sticky_invites, plan.fresh_invites, online);
                RoundPlan {
                    sticky_invites: draw.sticky,
                    fresh_invites: draw.fresh,
                    keep_sticky: plan.keep_sticky,
                    keep_fresh: plan.keep_fresh,
                }
            }
        }
    }

    /// The aggregation weight of client `id` drawn from `group` this
    /// round, importance weight `p_i` included. The engine casts it to
    /// `f32` for the fold.
    #[must_use]
    pub fn weight(&self, id: ClientId, group: Group) -> f64 {
        match self {
            Self::Uniform {
                sampler,
                k,
                weights,
                ..
            } => sampler.population() as f64 / *k as f64 * weights[id],
            Self::Multinomial { k, drawn, .. } => {
                let m = drawn
                    .binary_search_by_key(&id, |&(c, _)| c)
                    .map_or(0, |i| drawn[i].1);
                f64::from(m) / *k as f64
            }
            Self::Sticky {
                sampler,
                params,
                k,
                weights,
                ..
            } => params.client_weight(sampler.population(), *k, group, weights[id]),
        }
    }

    /// After the round: the kept fresh participants join the sticky group,
    /// displacing sticky clients that were not kept (GlueFL; a no-op for
    /// the other samplers, which draw nothing).
    pub fn rebalance(
        &mut self,
        rng: &mut StdRng,
        kept_sticky: &[ClientId],
        kept_fresh: &[ClientId],
    ) {
        if let Self::Sticky { sampler, .. } = self {
            sampler.rebalance(rng, kept_sticky, kept_fresh);
        }
    }

    /// The sticky group, for a sticky sampler.
    #[must_use]
    pub fn sticky(&self) -> Option<&StickySampler> {
        match self {
            Self::Sticky { sampler, .. } => Some(sampler),
            Self::Uniform { .. } | Self::Multinomial { .. } => None,
        }
    }
}

#[cfg(test)]
impl Sampler {
    /// The sampler of `strategy` over `weights`, with round size `k` and
    /// over-commitment `oc` split proportionally.
    pub(crate) fn for_test(
        strategy: StrategyConfig,
        weights: &[f64],
        k: usize,
        oc: f64,
        rng: &mut StdRng,
    ) -> Self {
        let mut cfg = SimConfig::paper_setup(
            gluefl_data::DatasetProfile::Femnist,
            gluefl_ml::DatasetModel::ShuffleNet,
            strategy,
            0.02,
            1,
            0,
        );
        cfg.round_size = k;
        cfg.oc = oc;
        Self::new(&cfg, weights, rng)
    }
}
