//! The round's slot table and every decision the server's waits make:
//! who owes the round what, by when, and what a message, a closed
//! connection or a passed deadline does to that debt.
//!
//! [`Slots`] does no IO and reads no clock. Its driver (`SocketIo` in
//! [`crate::server`]) reads the clock once per wait, hands [`Slots::poll`]
//! that instant and at most one reader event, turns the [`Effect`]s into
//! socket shutdowns and counters, and waits for the next event until
//! the [`Verdict::Wait`] deadline. Time is any point type a
//! `Duration` can be added to: the server runs the table on
//! `std::time::Instant`, its tests on a virtual `Duration` clock.

use crate::proto::{parse_offer, Envelope, MsgKind};
use gluefl_net::timing::{wall_deadline, ClientRoundTime};
use std::ops::Add;
use std::time::Duration;

/// A message an invited client owes the round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Owed {
    /// This round's `OFFER`.
    Offer,
    /// The granted `UPLOAD`.
    Upload,
}

impl Owed {
    /// Every kind, in counter-index order.
    pub(crate) const ALL: [Owed; 2] = [Owed::Offer, Owed::Upload];

    pub(crate) fn kind(self) -> MsgKind {
        match self {
            Owed::Offer => MsgKind::Offer,
            Owed::Upload => MsgKind::Upload,
        }
    }
}

/// One invitation's state within the round.
#[derive(Clone, Copy, PartialEq)]
enum Slot<T> {
    /// The client owes this message by the deadline.
    Owes(Owed, T),
    /// The client was killed while it owed a message; not yet reported.
    Lost,
    /// The client owes nothing more this round.
    Done,
}

/// What a connection said: a complete message, or its end.
pub(crate) enum Heard {
    /// A complete message: its envelope and payload.
    Msg(Envelope, Vec<u8>),
    /// The connection closed or failed.
    Gone,
}

/// What one [`Slots::poll`] decided.
#[derive(Debug, PartialEq)]
pub(crate) enum Verdict<T> {
    /// The owed message arrived: the invitation index and its payload.
    Paid(usize, Vec<u8>),
    /// The client missed its deadline, broke protocol or failed, and was
    /// killed: the invitation index.
    Lost(usize),
    /// Nothing resolved: wait for the next reader event until then.
    Wait(T),
    /// No slot owes anything.
    Idle,
}

/// What a decision did to a client, for the driver to carry out.
#[derive(Debug, PartialEq)]
pub(crate) enum Effect {
    /// The client's deadline for this message passed (a kill follows).
    Expired(usize, Owed),
    /// The client is dead: shut its connection, never invite it again.
    Killed(usize),
}

/// The clients' liveness and the round's slots.
pub(crate) struct Slots<T> {
    /// Flat patience floors, indexed by [`Owed`].
    floors: [Duration; 2],
    /// Wall seconds of extra patience per modeled second.
    scale: f64,
    /// The round being played; a message stamped with another pays nothing.
    round: u32,
    /// Indexed by client id.
    alive: Vec<bool>,
    dead_clients: usize,
    /// The round's invited client ids, and each id's invitation index
    /// (`usize::MAX` when not invited this round).
    invited: Vec<usize>,
    invited_ix: Vec<usize>,
    /// Per invitation index: what the client owes next.
    slots: Vec<Slot<T>>,
    /// Effects not yet taken by the driver.
    effects: Vec<Effect>,
}

impl<T: Copy + Ord + Add<Duration, Output = T>> Slots<T> {
    /// A table for client ids below `ids`, none of them alive yet.
    /// `floors` are the offer and upload patience floors, `scale` the
    /// wall seconds per modeled second ([`wall_deadline`]).
    pub(crate) fn new(ids: usize, floors: [Duration; 2], scale: f64) -> Self {
        Self {
            floors,
            scale,
            round: 0,
            alive: vec![false; ids],
            dead_clients: 0,
            invited: Vec::new(),
            invited_ix: vec![usize::MAX; ids],
            slots: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Marks a welcomed client alive.
    pub(crate) fn welcome(&mut self, id: usize) {
        self.alive[id] = true;
    }

    pub(crate) fn alive(&self, id: usize) -> bool {
        self.alive[id]
    }

    /// Clients killed so far, each once.
    pub(crate) fn dead_clients(&self) -> usize {
        self.dead_clients
    }

    /// The round's invited client ids, by invitation index.
    pub(crate) fn invited(&self) -> &[usize] {
        &self.invited
    }

    /// Whether invitation `ix` was granted its upload slot.
    pub(crate) fn granted(&self, ix: usize) -> bool {
        self.slots[ix] != Slot::Done
    }

    /// Starts `round` with the invited ids; no slot owes anything yet.
    pub(crate) fn invite(&mut self, round: u32, ids: impl IntoIterator<Item = usize>) {
        for &id in &self.invited {
            self.invited_ix[id] = usize::MAX;
        }
        self.round = round;
        self.invited.clear();
        self.invited.extend(ids);
        for (i, &id) in self.invited.iter().enumerate() {
            self.invited_ix[id] = i;
        }
        self.slots.clear();
        self.slots.resize(self.invited.len(), Slot::Done);
    }

    /// Every invitation owes its `OFFER`, by `start` plus the patience
    /// for its modeled download and compute seconds.
    pub(crate) fn arm_offers(&mut self, start: T, times: &[ClientRoundTime]) {
        for (i, t) in times.iter().enumerate() {
            self.arm(i, Owed::Offer, start, t.download_secs + t.compute_secs);
        }
    }

    /// The `kept` invitations owe their `UPLOAD`, by `start` plus the
    /// patience for their modeled upload seconds; the rest owe nothing.
    pub(crate) fn arm_uploads(&mut self, start: T, kept: &[usize], times: &[ClientRoundTime]) {
        for &i in kept {
            self.arm(i, Owed::Upload, start, times[i].upload_secs);
        }
    }

    /// Invitation `i` owes `owed` if its client is alive, and is lost
    /// otherwise.
    fn arm(&mut self, i: usize, owed: Owed, start: T, modeled_secs: f64) {
        self.slots[i] = if self.alive[self.invited[i]] {
            let patience = wall_deadline(modeled_secs, self.floors[owed as usize], self.scale);
            Slot::Owes(owed, start + patience)
        } else {
            Slot::Lost
        };
    }

    /// Kills client `id`, once: a slot it still owed a message is lost.
    pub(crate) fn kill(&mut self, id: usize) {
        if let Some(slot @ Slot::Owes(..)) = self.slots.get_mut(self.invited_ix[id]) {
            *slot = Slot::Lost;
        }
        if std::mem::replace(&mut self.alive[id], false) {
            self.dead_clients += 1;
            self.effects.push(Effect::Killed(id));
        }
    }

    /// The one decision of every wait, at `now`, with at most one reader
    /// event from client `id`. First every slot whose deadline is not
    /// after `now` expires and its client is killed. Then the event: the
    /// message a slot owes, stamped with this round (an offer only if it
    /// parses), pays that slot; anything else — a close, a failure, a
    /// message no slot owes — kills its sender, which changes nothing for
    /// a client already dead. A lost slot is reported next, then the
    /// earliest deadline still owed, or [`Verdict::Idle`].
    pub(crate) fn poll(&mut self, now: T, heard: Option<(usize, Heard)>) -> Verdict<T> {
        for i in 0..self.slots.len() {
            if let Slot::Owes(owed, deadline) = self.slots[i] {
                if now >= deadline {
                    let id = self.invited[i];
                    self.effects.push(Effect::Expired(id, owed));
                    self.kill(id);
                }
            }
        }
        if let Some((id, heard)) = heard {
            let ix = self.invited_ix[id];
            match (self.slots.get(ix), heard) {
                (Some(&Slot::Owes(owed, _)), Heard::Msg(env, payload))
                    if env.round == self.round
                        && env.kind == owed.kind()
                        && (owed == Owed::Upload || parse_offer(&payload).is_some()) =>
                {
                    self.slots[ix] = Slot::Done;
                    return Verdict::Paid(ix, payload);
                }
                _ => self.kill(id),
            }
        }
        let mut next: Option<T> = None;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match *slot {
                Slot::Lost => {
                    *slot = Slot::Done;
                    return Verdict::Lost(i);
                }
                Slot::Owes(_, deadline) => next = Some(next.map_or(deadline, |n| n.min(deadline))),
                Slot::Done => {}
            }
        }
        next.map_or(Verdict::Idle, Verdict::Wait)
    }

    /// Takes the effects of every decision since the last call, in order.
    pub(crate) fn drain_effects(&mut self) -> std::vec::Drain<'_, Effect> {
        self.effects.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::offer_payload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use Effect::{Expired, Killed};
    use Verdict::{Idle, Lost, Paid, Wait};

    const T0: Duration = Duration::ZERO;
    const FLOOR: Duration = Duration::from_millis(400);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// `clients` welcomed clients under flat 400 ms deadlines, the
    /// server's default zero scale.
    fn machine(clients: usize) -> Slots<Duration> {
        let mut s = Slots::new(clients, [FLOOR; 2], 0.0);
        (0..clients).for_each(|id| s.welcome(id));
        s
    }

    fn msg(kind: MsgKind, round: u32, payload: &[u8]) -> Heard {
        let len = payload.len() as u32;
        Heard::Msg(Envelope { kind, round, len }, payload.to_vec())
    }

    const OFFER: [u8; 16] = [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
    const UPLOAD: [u8; 4] = [7; 4];

    fn offer(id: usize, round: u32) -> Option<(usize, Heard)> {
        Some((id, msg(MsgKind::Offer, round, &OFFER)))
    }

    fn upload(id: usize, round: u32) -> Option<(usize, Heard)> {
        Some((id, msg(MsgKind::Upload, round, &UPLOAD)))
    }

    fn times(n: usize) -> Vec<ClientRoundTime> {
        vec![ClientRoundTime::default(); n]
    }

    fn effects(s: &mut Slots<Duration>) -> Vec<Effect> {
        s.drain_effects().collect()
    }

    /// Invites `ids` into `round` at `start` and collects one offer from
    /// each, read in invitation order.
    fn offered(s: &mut Slots<Duration>, round: u32, ids: &[usize], start: Duration) {
        s.invite(round, ids.iter().copied());
        s.arm_offers(start, &times(ids.len()));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.poll(start, offer(id, round)), Paid(i, OFFER.to_vec()));
        }
        assert_eq!(s.poll(start, None), Idle);
    }

    #[test]
    fn a_silent_invitee_expires_its_offer_deadline_and_loses_its_kept_slot() {
        let mut s = machine(1);
        s.invite(0, [0]);
        s.arm_offers(T0, &times(1));
        assert_eq!(s.poll(T0, None), Wait(FLOOR));
        assert_eq!(s.poll(FLOOR - ms(1), None), Wait(FLOOR));
        assert_eq!(effects(&mut s), []);
        assert_eq!(s.poll(FLOOR, None), Lost(0));
        assert_eq!(effects(&mut s), [Expired(0, Owed::Offer), Killed(0)]);
        assert_eq!(s.poll(FLOOR, None), Idle);
        // Kept all the same (no offer prices it slowest): one skip.
        s.arm_uploads(FLOOR, &[0], &times(1));
        assert!(s.granted(0));
        assert_eq!(s.poll(FLOOR, None), Lost(0));
        assert_eq!(s.poll(FLOOR, None), Idle);
        assert_eq!((effects(&mut s), s.dead_clients()), (vec![], 1));
    }

    #[test]
    fn a_granted_client_that_never_uploads_expires_its_upload_deadline() {
        let mut s = machine(2);
        offered(&mut s, 0, &[0, 1], T0);
        s.arm_uploads(ms(10), &[0, 1], &times(2));
        assert_eq!(s.poll(ms(20), upload(1, 0)), Paid(1, UPLOAD.to_vec()));
        assert_eq!(s.poll(ms(20), None), Wait(ms(410)));
        assert_eq!(s.poll(ms(410), None), Lost(0));
        assert_eq!(s.poll(ms(410), None), Idle);
        assert_eq!(effects(&mut s), [Expired(0, Owed::Upload), Killed(0)]);
        assert_eq!(s.dead_clients(), 1);
    }

    /// A second copy of a delivered upload is owed by no slot, whenever it
    /// is read. Client 0 of two uploads round 0 twice; both are invited
    /// and kept every round.
    #[test]
    fn a_duplicate_upload_kills_its_sender_once_and_skips_by_when_it_is_read() {
        // Read while round 0 still waits for client 1: no slot of 0's is
        // lost, and a dead client is invited no more — no skip.
        let mut s = machine(2);
        offered(&mut s, 0, &[0, 1], T0);
        s.arm_uploads(T0, &[0, 1], &times(2));
        assert_eq!(s.poll(ms(1), upload(0, 0)), Paid(0, UPLOAD.to_vec()));
        assert_eq!(s.poll(ms(2), upload(0, 0)), Wait(FLOOR));
        assert_eq!(s.poll(ms(3), upload(1, 0)), Paid(1, UPLOAD.to_vec()));
        assert_eq!(s.poll(ms(3), None), Idle);
        assert_eq!((effects(&mut s), s.alive(0)), (vec![Killed(0)], false));

        // Read in round 1 before its GRANT, in place of 0's offer: that
        // offer is lost, and so is the upload slot it is kept for. Read
        // after round 1's GRANT, in place of 0's upload: that is lost.
        // One skip either way.
        for before_grant in [true, false] {
            let mut s = machine(2);
            offered(&mut s, 0, &[0, 1], T0);
            s.arm_uploads(T0, &[0, 1], &times(2));
            assert_eq!(s.poll(ms(1), upload(0, 0)), Paid(0, UPLOAD.to_vec()));
            assert_eq!(s.poll(ms(2), upload(1, 0)), Paid(1, UPLOAD.to_vec()));
            assert_eq!(s.poll(ms(2), None), Idle);
            s.invite(1, [0, 1]);
            s.arm_offers(ms(5), &times(2));
            let (offer_wait, upload_wait) = if before_grant {
                ((upload(0, 0), Lost(0)), None)
            } else {
                ((offer(0, 1), Paid(0, OFFER.to_vec())), upload(0, 0))
            };
            assert_eq!(s.poll(ms(6), offer_wait.0), offer_wait.1);
            assert_eq!(s.poll(ms(7), offer(1, 1)), Paid(1, OFFER.to_vec()));
            assert_eq!(s.poll(ms(7), None), Idle);
            s.arm_uploads(ms(8), &[0, 1], &times(2));
            assert_eq!(s.poll(ms(9), upload_wait), Lost(0));
            assert_eq!(s.poll(ms(10), upload(1, 1)), Paid(1, UPLOAD.to_vec()));
            assert_eq!(s.poll(ms(10), None), Idle);
            assert_eq!(effects(&mut s), [Killed(0)]);
        }
    }

    /// An offer no upload could honour does not parse: its sender is cut
    /// off on receipt, before any deadline.
    #[test]
    fn an_absurd_offer_kills_its_sender_on_receipt() {
        let mut s = machine(2);
        s.invite(0, [0, 1]);
        s.arm_offers(T0, &times(2));
        let absurd = Some((1, msg(MsgKind::Offer, 0, &[0xFF; 16])));
        assert_eq!(s.poll(ms(1), absurd), Lost(1));
        assert_eq!(s.poll(ms(1), offer(0, 0)), Paid(0, OFFER.to_vec()));
        assert_eq!(s.poll(ms(1), None), Idle);
        assert_eq!(effects(&mut s), [Killed(1)]);
    }

    /// The over-committed remainder is told `GRANT(0)` and owes nothing:
    /// an upload from it kills it, and no kept slot is lost.
    #[test]
    fn an_upload_after_grant_zero_kills_its_sender() {
        let mut s = machine(3);
        offered(&mut s, 0, &[0, 1, 2], T0);
        s.arm_uploads(T0, &[0, 1], &times(3));
        assert_eq!(
            [0, 1, 2].map(|i| s.granted(i)),
            [true, true, false],
            "GRANT(1), GRANT(1), GRANT(0)"
        );
        assert_eq!(s.poll(ms(1), upload(2, 0)), Wait(FLOOR));
        assert_eq!(s.poll(ms(2), upload(0, 0)), Paid(0, UPLOAD.to_vec()));
        assert_eq!(s.poll(ms(3), upload(1, 0)), Paid(1, UPLOAD.to_vec()));
        assert_eq!(s.poll(ms(3), None), Idle);
        assert_eq!(effects(&mut s), [Killed(2)]);
    }

    /// The owed kind stamped with another round, the wrong kind, a close
    /// and a read failure each lose the slot and kill its client.
    #[test]
    fn a_wrong_round_a_wrong_kind_or_a_closed_connection_loses_the_slot() {
        let mut s = machine(4);
        s.invite(3, [0, 1, 2, 3]);
        s.arm_offers(T0, &times(4));
        let events = [
            offer(0, 2),
            offer(1, 4),
            upload(2, 3),
            Some((3, Heard::Gone)),
        ];
        for (i, heard) in events.into_iter().enumerate() {
            assert_eq!(s.poll(ms(1), heard), Lost(i));
        }
        assert_eq!(s.poll(ms(1), None), Idle);
        assert_eq!(effects(&mut s), (0..4).map(Killed).collect::<Vec<_>>());
    }

    /// A lost slot is reported as soon as it is lost, not at the next
    /// deadline; a dead client's later words change nothing; a second kill
    /// counts nothing.
    #[test]
    fn losses_are_reported_at_once_and_dead_clients_count_once() {
        let mut s = Slots::new(2, [FLOOR; 2], 0.0);
        s.welcome(0);
        s.welcome(1);
        s.invite(0, [0, 1]);
        s.arm_offers(T0, &times(2));
        s.kill(1);
        assert_eq!(s.poll(ms(1), None), Lost(1));
        assert_eq!(s.poll(ms(1), None), Wait(FLOOR));
        assert_eq!(s.poll(ms(2), offer(1, 0)), Wait(FLOOR));
        assert_eq!(s.poll(ms(3), Some((1, Heard::Gone))), Wait(FLOOR));
        s.kill(1);
        assert_eq!(s.poll(ms(4), offer(0, 0)), Paid(0, OFFER.to_vec()));
        assert_eq!((effects(&mut s), s.dead_clients()), (vec![Killed(1)], 1));
        // Spoken before any invitation: no slot owes it.
        let mut s = machine(1);
        assert_eq!(s.poll(T0, offer(0, 0)), Idle);
        assert_eq!(effects(&mut s), [Killed(0)]);
    }

    /// At a non-zero scale a slot's deadline is its floor plus `scale ×`
    /// its modeled seconds — download plus compute for the offer, upload
    /// for the upload — capped at one hour: its message 1 ms before pays,
    /// 1 ms after finds it expired.
    #[test]
    fn scaled_deadlines_add_modeled_seconds_up_to_an_hour() {
        let secs = Duration::from_secs;
        let fast = ClientRoundTime {
            download_secs: 3.0,
            compute_secs: 1.0,
            upload_secs: 6.0,
        };
        let slow = ClientRoundTime {
            download_secs: 1e9,
            compute_secs: 1e9,
            upload_secs: 1e12,
        };
        let times = [fast, slow, fast, slow];
        for owed in Owed::ALL {
            let mut s = Slots::new(4, [secs(2), secs(3)], 0.5);
            (0..4).for_each(|id| s.welcome(id));
            // (patience of the fast pair, the message each slot owes)
            let (fast_patience, hear): (_, fn(usize, u32) -> _) = match owed {
                Owed::Offer => {
                    s.invite(0, 0..4);
                    s.arm_offers(T0, &times);
                    (secs(2 + 2), offer)
                }
                Owed::Upload => {
                    offered(&mut s, 0, &[0, 1, 2, 3], T0);
                    s.arm_uploads(T0, &[0, 1, 2, 3], &times);
                    (secs(3 + 3), upload)
                }
            };
            let capped = s.floors[owed as usize] + secs(3600);
            for (i, deadline) in [fast_patience, capped].into_iter().enumerate() {
                let paid = s.poll(deadline - ms(1), hear(i, 0));
                assert!(
                    matches!(paid, Paid(j, _) if j == i),
                    "{owed:?} {i}: {paid:?}"
                );
                assert_eq!(s.poll(deadline + ms(1), hear(i + 2, 0)), Lost(i + 2));
            }
            let expired = [Expired(2, owed), Killed(2), Expired(3, owed), Killed(3)];
            assert_eq!(effects(&mut s), expired);
        }
    }

    /// Over random schedules — up to eight invitations, arrivals at
    /// random instants, closes, duplicates, wrong kinds and rounds, dead
    /// senders and clock jumps past deadlines — every wait ends, every
    /// armed slot resolves once, every kill is counted once, and no slot
    /// is paid once a poll has seen its deadline pass.
    #[test]
    fn random_schedules_resolve_every_slot_once() {
        for seed in 0..1200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=8usize);
            let floors = [ms(rng.gen_range(1..200)), ms(rng.gen_range(1..200))];
            let scale = if rng.gen_bool(0.5) { 0.0 } else { 0.01 };
            let mut s = Slots::new(n, floors, scale);
            (0..n).for_each(|id| s.welcome(id));
            let mut now = T0;
            let mut kills = 0;
            for round in 0..3u32 {
                let ids: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
                let modeled: Vec<ClientRoundTime> = ids
                    .iter()
                    .map(|_| ClientRoundTime {
                        download_secs: rng.gen_range(0.0..5.0),
                        compute_secs: rng.gen_range(0.0..5.0),
                        upload_secs: rng.gen_range(0.0..5.0),
                    })
                    .collect();
                s.invite(round, ids.iter().copied());
                s.arm_offers(now, &modeled);
                let all: Vec<usize> = (0..ids.len()).collect();
                kills += drive(&mut s, &mut rng, &mut now, n, round, &all, seed);
                let kept: Vec<usize> = all.into_iter().filter(|_| rng.gen_bool(0.6)).collect();
                s.arm_uploads(now, &kept, &modeled);
                kills += drive(&mut s, &mut rng, &mut now, n, round, &kept, seed);
            }
            assert_eq!(kills, s.dead_clients(), "seed {seed}");
        }
    }

    /// Plays one wait to its end as the server's driver would, with the
    /// events and the clock drawn from `rng`; checks that exactly the
    /// `armed` slots resolve, each once, and that none is paid after a
    /// poll at or past its deadline. Returns the kills it saw.
    fn drive(
        s: &mut Slots<Duration>,
        rng: &mut StdRng,
        now: &mut Duration,
        clients: usize,
        round: u32,
        armed: &[usize],
        seed: u64,
    ) -> usize {
        let mut resolved = vec![0usize; s.invited().len()];
        let mut overdue = vec![false; resolved.len()];
        let (mut heard, mut events, mut kills) = (None, rng.gen_range(0..24), 0);
        for _ in 0..1000 {
            for (i, slot) in s.slots.iter().enumerate() {
                overdue[i] |= matches!(*slot, Slot::Owes(_, deadline) if deadline <= *now);
            }
            let verdict = s.poll(*now, heard.take());
            kills += s.drain_effects().filter(|e| matches!(e, Killed(_))).count();
            match verdict {
                Paid(i, _) => {
                    assert!(!overdue[i], "seed {seed}: slot {i} paid past its deadline");
                    resolved[i] += 1;
                }
                Lost(i) => resolved[i] += 1,
                Idle => {
                    let want: Vec<usize> = (0..resolved.len())
                        .map(|i| usize::from(armed.contains(&i)))
                        .collect();
                    assert_eq!(resolved, want, "seed {seed}: resolutions per slot");
                    return kills;
                }
                Wait(deadline) => {
                    assert!(deadline > *now, "seed {seed}");
                    if events == 0 || rng.gen_bool(0.2) {
                        // Nothing arrives: the wait times out, perhaps late.
                        *now = deadline + ms(rng.gen_range(0..3));
                        continue;
                    }
                    events -= 1;
                    let left = (deadline - *now).as_micros() as u64;
                    // A jump may overshoot the deadline: the event is read late.
                    *now += Duration::from_micros(rng.gen_range(0..left + left / 2 + 1));
                    heard = Some((rng.gen_range(0..clients), random_event(rng, round)));
                }
            }
        }
        panic!("seed {seed}: the wait did not end");
    }

    fn random_event(rng: &mut StdRng, round: u32) -> Heard {
        let round = match rng.gen_range(0..8) {
            0 => round + 1,
            1 => round.wrapping_sub(1),
            _ => round,
        };
        match rng.gen_range(0..10) {
            0 => Heard::Gone,
            1 => msg(MsgKind::Offer, round, &offer_payload(u64::MAX, 1)),
            2 => msg(MsgKind::Grant, round, &[1]),
            3..=5 => msg(MsgKind::Offer, round, &OFFER),
            _ => msg(MsgKind::Upload, round, &UPLOAD),
        }
    }
}
