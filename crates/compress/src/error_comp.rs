//! Error compensation with sticky-sampling re-scaling (§3.3, Eq. 7).

use std::collections::{HashMap, HashSet};

/// The paper's Figure-11 ablation arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompensationMode {
    /// No error feedback: compression residuals are dropped.
    None,
    /// Classic error feedback: `Δ ← Δ + h^{φ(t)}` (no re-scaling).
    Raw,
    /// GlueFL's re-scaled compensation (Equation 7):
    /// `Δ ← Δ + (ν^{φ(t)}/ν^t)·h^{φ(t)}`, making the carried-over residual
    /// consistent with the aggregation weight the client has *now*.
    #[default]
    Rescaled,
}

impl std::str::FromStr for CompensationMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(CompensationMode::None),
            "ec" | "raw" => Ok(CompensationMode::Raw),
            "rec" | "rescaled" => Ok(CompensationMode::Rescaled),
            other => Err(format!("unknown compensation mode '{other}' (none|ec|rec)")),
        }
    }
}

/// Per-client compensation memory held by the framework.
///
/// For each client the compensator remembers the residual `h` of the last
/// round the client participated in (`Δ` minus what was actually sent)
/// together with the aggregation weight `ν` applied that round. On the
/// client's next participation, [`ErrorCompensator::apply`] adds the
/// (optionally re-scaled) residual into the new delta before compression,
/// and [`ErrorCompensator::record`] stores the new residual.
///
/// `apply` and `record` are the reference form, one dimension-sized pass
/// each. The round hot path is [`ErrorCompensator::compress_split`]: one
/// walk of the delta that applies the compensation, peels off what is
/// sent and leaves the new residual behind, then trades buffers with the
/// bank instead of copying — a returning client costs no dimension-sized
/// copy or allocation at all.
///
/// A client's memory leaves the bank for the length of its turn:
/// [`check_out`](Self::check_out) hands it over as a [`Residual`],
/// [`compress_split`](Self::compress_split) walks it through a shared
/// `&self`, and [`check_in`](Self::check_in) puts it back with what the
/// walk banked. Every client's compress reads only its own memory, so a
/// cohort's clients can be compressed on as many threads as there are
/// clients.
///
/// # Example
///
/// ```
/// use gluefl_compress::{CompensationMode, ErrorCompensator};
/// let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, 4);
/// let mut delta = vec![1.0f32, 0.0, 0.0, 0.0];
/// ec.apply(7, &mut delta, 2.0); // first round: no memory, no change
/// assert_eq!(delta, vec![1.0, 0.0, 0.0, 0.0]);
/// // Suppose compression kept only half of it:
/// ec.record(7, &delta, &[0.5, 0.0, 0.0, 0.0], 2.0);
/// let mut next = vec![0.0f32; 4];
/// ec.apply(7, &mut next, 4.0); // re-scaled by ν_old/ν_new = 0.5
/// assert_eq!(next, vec![0.25, 0.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorCompensator {
    mode: CompensationMode,
    dim: usize,
    memory: HashMap<usize, ClientMemory>,
    /// Clients whose memory is checked out (see [`Residual`]).
    checked_out: HashSet<usize>,
}

#[derive(Debug, Clone)]
struct ClientMemory {
    residual: Vec<f32>,
    weight: f64,
}

/// One client's compensation memory, checked out of an
/// [`ErrorCompensator`]'s bank with [`ErrorCompensator::check_out`] and
/// returned with [`ErrorCompensator::check_in`]. Opaque: only the
/// compensator that issued it reads or writes it. The default value is
/// "no memory" — a client that has not participated yet, or any client
/// under [`CompensationMode::None`].
#[derive(Debug, Clone, Default)]
pub struct Residual {
    memory: Option<ClientMemory>,
}

impl Residual {
    /// Whether this holds no memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memory.is_none()
    }
}

impl ErrorCompensator {
    /// Creates a compensator for `dim`-dimensional deltas.
    #[must_use]
    pub fn new(mode: CompensationMode, dim: usize) -> Self {
        Self {
            mode,
            dim,
            memory: HashMap::new(),
            checked_out: HashSet::new(),
        }
    }

    /// Takes `client`'s memory out of the bank (an empty [`Residual`]
    /// when it has none) until [`check_in`](Self::check_in); meanwhile
    /// [`stored`](Self::stored) answers `None` for it.
    ///
    /// # Panics
    /// Panics if `client` is already checked out: two live copies of one
    /// memory would fork the bank.
    pub fn check_out(&mut self, client: usize) -> Residual {
        assert!(
            self.checked_out.insert(client),
            "client {client}'s residual is already checked out"
        );
        Residual {
            memory: self.memory.remove(&client),
        }
    }

    /// Returns `client`'s memory to the bank, keeping what a walk banked
    /// into it. Checking in an empty [`Residual`] stores nothing.
    ///
    /// # Panics
    /// Panics if a non-empty `residual` is checked in for a client that
    /// is not checked out.
    pub fn check_in(&mut self, client: usize, residual: Residual) {
        let was_out = self.checked_out.remove(&client);
        if let Some(mem) = residual.memory {
            assert!(
                was_out,
                "client {client}'s residual was checked in without being checked out"
            );
            self.memory.insert(client, mem);
        }
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> CompensationMode {
        self.mode
    }

    /// The delta dimension this compensator was built for.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clients with stored residuals.
    #[must_use]
    pub fn tracked_clients(&self) -> usize {
        self.memory.len()
    }

    /// The client's stored residual `h` and the weight `ν` it was stored
    /// at, if it has participated before.
    #[must_use]
    pub fn stored(&self, client: usize) -> Option<(&[f32], f64)> {
        self.memory
            .get(&client)
            .map(|mem| (mem.residual.as_slice(), mem.weight))
    }

    /// Adds the client's carried-over residual into `delta` before
    /// compression. `current_weight` is the aggregation weight `ν^t_i`
    /// that will be applied to this client this round.
    ///
    /// No-op in [`CompensationMode::None`] or when the client has no
    /// stored residual.
    ///
    /// # Panics
    /// Panics if `delta.len() != dim` or `current_weight <= 0` (when a
    /// residual exists and re-scaling is enabled).
    pub fn apply(&mut self, client: usize, delta: &mut [f32], current_weight: f64) {
        assert_eq!(delta.len(), self.dim, "delta dimension mismatch");
        let memory = self.check_out(client);
        if let Some((residual, scale)) = self.carried(&memory, current_weight) {
            for (d, h) in delta.iter_mut().zip(residual) {
                *d += scale * h;
            }
        }
        self.check_in(client, memory);
    }

    /// What [`apply`](Self::apply) adds from `memory` at
    /// `current_weight`: the residual `h` and the scale `s` of
    /// `Δ ← Δ + s·h`, or `None` when there is nothing to add (mode
    /// `None`, or no memory).
    ///
    /// # Panics
    /// Panics if a residual is to be re-scaled to a non-positive weight.
    pub(crate) fn carried<'a>(
        &self,
        memory: &'a Residual,
        current_weight: f64,
    ) -> Option<(&'a [f32], f32)> {
        let mem = memory.memory.as_ref()?;
        let scale = match self.mode {
            CompensationMode::None => return None,
            CompensationMode::Raw => 1.0,
            CompensationMode::Rescaled => {
                assert!(current_weight > 0.0, "aggregation weight must be positive");
                (mem.weight / current_weight) as f32
            }
        };
        Some((&mem.residual, scale))
    }

    /// Stores the new residual `h = Δ − sent` for the client, along with
    /// the weight used this round. No-op in [`CompensationMode::None`].
    ///
    /// This is the dense reference form; the round hot path is
    /// [`ErrorCompensator::compress_split`], which leaves the residual
    /// in the delta's own buffer and banks that.
    ///
    /// # Panics
    /// Panics if the slices differ in length from `dim`.
    pub fn record(&mut self, client: usize, delta: &[f32], sent_dense: &[f32], weight: f64) {
        assert_eq!(delta.len(), self.dim, "delta dimension mismatch");
        assert_eq!(sent_dense.len(), self.dim, "sent dimension mismatch");
        if self.mode == CompensationMode::None {
            return;
        }
        let mut memory = self.check_out(client);
        let mem = Self::memory_of(&mut memory, weight);
        mem.residual.clear();
        mem.residual
            .extend(delta.iter().zip(sent_dense).map(|(d, s)| d - s));
        self.check_in(client, memory);
    }

    /// Makes the buffer behind `delta` — which by now holds `Δ − sent` —
    /// the residual in `memory`, at `weight`, without copying: `delta` is
    /// left holding the previous residual buffer (its values untouched:
    /// the walk read them read-only) or an empty vector on the client's
    /// first participation.
    pub(crate) fn bank(&self, memory: &mut Residual, delta: &mut Vec<f32>, weight: f64) {
        debug_assert_ne!(self.mode, CompensationMode::None, "mode None banks nothing");
        std::mem::swap(&mut Self::memory_of(memory, weight).residual, delta);
    }

    /// Folds the wire codec's loss into a client's checked-out `memory`
    /// after its upload was serialized, before it is checked back in:
    /// `sent` is what the strategy handed the encoder at `positions` — an
    /// explicit index list, or the one-bits of the mask a mask-aligned
    /// part travels under — and `shipped` is what a lossy codec actually
    /// delivered to the receiver. The true residual of the round is
    /// `Δ − shipped = (Δ − sent) + (sent − shipped)`; the compress walk
    /// already left the first term in `memory`, so this adds the second.
    /// No-op when compensation is off or `memory` holds nothing (nothing
    /// was recorded this round); the stored weight is untouched — codec
    /// loss happened at the same reference weight as the top-k loss.
    /// Like the walk, it reads and writes only `memory`, so it runs on
    /// whichever thread holds the client's turn.
    ///
    /// # Panics
    /// Panics if `sent`, `shipped` and `positions` disagree in length, or
    /// a position is out of range for the model dimension.
    pub fn fold_shipped_error(
        &self,
        memory: &mut Residual,
        positions: impl IntoIterator<Item = usize>,
        sent: &[f32],
        shipped: &[f32],
    ) {
        assert_eq!(sent.len(), shipped.len());
        if self.mode == CompensationMode::None {
            return;
        }
        let Some(mem) = memory.memory.as_mut() else {
            return;
        };
        let mut positions = positions.into_iter();
        for (s, d) in sent.iter().zip(shipped) {
            let i = positions.next().expect("one position per sent value");
            mem.residual[i] += s - d;
        }
        assert!(positions.next().is_none(), "more positions than values");
    }

    /// The memory in `memory` — created with no residual buffer yet on
    /// the client's first participation — with its weight updated.
    fn memory_of(memory: &mut Residual, weight: f64) -> &mut ClientMemory {
        let mem = memory.memory.get_or_insert_with(|| ClientMemory {
            residual: Vec::new(),
            weight,
        });
        mem.weight = weight;
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_mode_is_inert() {
        let mut ec = ErrorCompensator::new(CompensationMode::None, 3);
        ec.record(0, &[1.0, 1.0, 1.0], &[0.0, 0.0, 0.0], 1.0);
        assert_eq!(ec.tracked_clients(), 0);
        let mut d = vec![2.0f32, 2.0, 2.0];
        ec.apply(0, &mut d, 1.0);
        assert_eq!(d, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn raw_mode_adds_residual_unscaled() {
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 2);
        ec.record(1, &[1.0, -1.0], &[0.25, 0.0], 5.0);
        let mut d = vec![0.0f32, 0.0];
        ec.apply(1, &mut d, 0.5); // weights ignored in Raw mode
        assert_eq!(d, vec![0.75, -1.0]);
    }

    #[test]
    fn rescaled_mode_uses_weight_ratio() {
        let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, 1);
        // residual 1.0 stored with ν=6.
        ec.record(2, &[1.0], &[0.0], 6.0);
        let mut d = vec![0.0f32];
        ec.apply(2, &mut d, 3.0); // ν_old/ν_new = 2
        assert_eq!(d, vec![2.0]);
    }

    #[test]
    fn first_participation_has_no_compensation() {
        let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, 2);
        let mut d = vec![1.0f32, 2.0];
        ec.apply(9, &mut d, 1.0);
        assert_eq!(d, vec![1.0, 2.0]);
    }

    #[test]
    fn residual_telescopes_to_exact_sum() {
        // Invariant of error feedback: sent_total + residual == delta_total.
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 4);
        let mut sent_total = [0.0f64; 4];
        let mut delta_total = [0.0f64; 4];
        let deltas = [
            vec![1.0f32, -2.0, 0.5, 0.0],
            vec![0.5f32, 1.0, -0.25, 2.0],
            vec![-1.0f32, 0.0, 1.0, 1.0],
        ];
        for delta in &deltas {
            let mut d = delta.clone();
            ec.apply(0, &mut d, 1.0);
            // "Compression": keep only the first two coordinates.
            let sent = vec![d[0], d[1], 0.0, 0.0];
            ec.record(0, &d, &sent, 1.0);
            for i in 0..4 {
                sent_total[i] += f64::from(sent[i]);
                delta_total[i] += f64::from(delta[i]);
            }
        }
        // After the last round, residual = delta_total - sent_total.
        let mut probe = vec![0.0f32; 4];
        ec.apply(0, &mut probe, 1.0);
        for i in 0..4 {
            assert!(
                (f64::from(probe[i]) - (delta_total[i] - sent_total[i])).abs() < 1e-5,
                "coordinate {i}"
            );
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(
            "none".parse::<CompensationMode>().unwrap(),
            CompensationMode::None
        );
        assert_eq!(
            "ec".parse::<CompensationMode>().unwrap(),
            CompensationMode::Raw
        );
        assert_eq!(
            "rec".parse::<CompensationMode>().unwrap(),
            CompensationMode::Rescaled
        );
        assert!("x".parse::<CompensationMode>().is_err());
    }

    #[test]
    fn fold_shipped_error_adds_codec_residual() {
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 4);
        // Round: delta [1, -2, 0.5, 0], sent the first two coordinates.
        ec.record(0, &[1.0, -2.0, 0.5, 0.0], &[1.0, -2.0, 0.0, 0.0], 1.0);
        // Wire codec delivered [0.9, -2.1] instead of [1.0, -2.0].
        let mut memory = ec.check_out(0);
        ec.fold_shipped_error(&mut memory, [0, 1], &[1.0, -2.0], &[0.9, -2.1]);
        ec.check_in(0, memory);
        let mut probe = vec![0.0f32; 4];
        ec.apply(0, &mut probe, 1.0);
        // Residual = (Δ − sent) + (sent − shipped) = Δ − shipped.
        assert!((probe[0] - 0.1).abs() < 1e-6);
        assert!((probe[1] - 0.1).abs() < 1e-6);
        assert_eq!(&probe[2..], &[0.5, 0.0]);
    }

    #[test]
    fn fold_shipped_error_without_memory_or_mode_is_inert() {
        // No memory stored: nothing to fold into.
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 2);
        let mut memory = ec.check_out(7);
        ec.fold_shipped_error(&mut memory, [0], &[1.0], &[0.5]);
        ec.check_in(7, memory);
        assert_eq!(ec.tracked_clients(), 0);
        // Mode None: inert even after a (no-op) record.
        let mut off = ErrorCompensator::new(CompensationMode::None, 2);
        off.record(0, &[1.0, 0.0], &[0.0, 0.0], 1.0);
        let mut memory = off.check_out(0);
        off.fold_shipped_error(&mut memory, [0], &[1.0], &[0.5]);
        off.check_in(0, memory);
        assert_eq!(off.tracked_clients(), 0);
    }

    #[test]
    #[should_panic(expected = "delta dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 2);
        let mut d = vec![0.0f32; 3];
        ec.apply(0, &mut d, 1.0);
    }
}
