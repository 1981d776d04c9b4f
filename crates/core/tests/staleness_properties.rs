//! Property-based tests for the staleness tracker: the histogram fast
//! path must agree with the reference round's brute-force recount
//! (`reference/mod.rs`) under arbitrary update histories, the
//! monotonicity facts the evaluation relies on must always hold, and the
//! download price must be the length of a frame that can be encoded.

mod reference;

use gluefl_core::{StalenessTracker, WireCodec, WirePolicy};
use gluefl_wire::{FrameWriter, Rounding};
use proptest::prelude::*;

/// What one round changes, as an update pattern lists it: the drawn
/// positions themselves (`0`); every position, FedAvg's round (`1`);
/// or the ranges between consecutive drawn positions, overlapping and so
/// listing some positions twice (`2`) — positions whose old versions
/// come in long runs, which the tracker moves between buckets a run at a
/// time.
fn changed_in(pattern: usize, dim: usize, drawn: &std::collections::BTreeSet<usize>) -> Vec<usize> {
    let drawn: Vec<usize> = drawn.iter().copied().filter(|&j| j < dim).collect();
    match pattern {
        0 => drawn,
        1 => (0..dim).collect(),
        _ => drawn.windows(3).flat_map(|w| w[0]..w[2]).collect(),
    }
}

proptest! {
    /// Fast path == the reference's recount for every version, under
    /// random updates, FedAvg's every-position rounds and long runs of
    /// equal old versions, each round drawing its own pattern.
    #[test]
    fn histogram_matches_bruteforce(
        dim in 1usize..400,
        patterns in proptest::collection::vec(0usize..3, 30),
        rounds in proptest::collection::vec(
            proptest::collection::btree_set(0usize..400, 0..80), 0..30)) {
        let mut st = StalenessTracker::new(dim, 2);
        let mut last_changed = vec![0u32; dim];
        for (drawn, &pattern) in rounds.iter().zip(&patterns) {
            let changed = changed_in(pattern, dim, drawn);
            st.record_update(changed.iter().copied());
            for &j in &changed {
                last_changed[j] = st.version();
            }
            for v in 0..=st.version() {
                prop_assert_eq!(
                    st.stale_positions(v),
                    reference::stale_positions(&last_changed, v).len(),
                    "version {}", v
                );
            }
        }
    }

    /// Staleness is monotone in skip length and bounded by the union of
    /// change sets.
    #[test]
    fn staleness_monotone_and_bounded(
        dim in 1usize..300,
        rounds in proptest::collection::vec(
            proptest::collection::btree_set(0usize..300, 1..50), 1..25)) {
        let mut st = StalenessTracker::new(dim, 1);
        let mut union: std::collections::BTreeSet<usize> =
            std::collections::BTreeSet::new();
        for changed in &rounds {
            let filtered: Vec<usize> =
                changed.iter().copied().filter(|&j| j < dim).collect();
            union.extend(filtered.iter().copied());
            st.record_update(filtered);
        }
        // Monotone in skip length.
        let mut prev = 0;
        for skip in 1..=st.version() {
            let s = st.stale_positions(st.version() - skip);
            prop_assert!(s >= prev);
            prev = s;
        }
        // From version 0, staleness equals the union of all change sets.
        prop_assert_eq!(st.stale_positions(0), union.len());
        // Download of the latest version is always zero.
        prop_assert_eq!(st.stale_positions(st.version()), 0);
    }

    /// Syncing a client then querying is equivalent to querying the
    /// current version.
    #[test]
    fn sync_then_query_is_current(
        dim in 1usize..200,
        pre in proptest::collection::vec(
            proptest::collection::btree_set(0usize..200, 1..40), 1..10),
        post in proptest::collection::vec(
            proptest::collection::btree_set(0usize..200, 1..40), 0..10)) {
        let mut st = StalenessTracker::new(dim, 1);
        for changed in &pre {
            st.record_update(changed.iter().copied().filter(|&j| j < dim));
        }
        st.mark_synced(0);
        let mut expected: std::collections::BTreeSet<usize> =
            std::collections::BTreeSet::new();
        for changed in &post {
            let filtered: Vec<usize> =
                changed.iter().copied().filter(|&j| j < dim).collect();
            expected.extend(filtered.iter().copied());
            st.record_update(filtered);
        }
        prop_assert_eq!(
            st.stale_positions(st.client_version(0)),
            expected.len()
        );
    }

    /// The download ledger is a frame length: whatever a client missed,
    /// `download_bytes` is what a legacy-F32 writer emits for exactly
    /// that stale set — a dense frame when everything moved, a sparse
    /// frame otherwise (header only when nothing did).
    #[test]
    fn download_bytes_is_the_encoded_frame_length(
        dim in 1usize..200,
        full in any::<bool>(),
        pre in proptest::collection::vec(
            proptest::collection::btree_set(0usize..200, 0..60), 0..6),
        post in proptest::collection::vec(
            proptest::collection::btree_set(0usize..200, 0..60), 0..6)) {
        let mut st = StalenessTracker::new(dim, 2);
        for changed in &pre {
            st.record_update(changed.iter().copied().filter(|&j| j < dim));
        }
        // Client 0 syncs here; client 1 never does.
        st.mark_synced(0);
        let mut missed: [std::collections::BTreeSet<usize>; 2] = Default::default();
        missed[1].extend(pre.iter().flatten().copied().filter(|&j| j < dim));
        for changed in &post {
            let filtered: Vec<usize> =
                changed.iter().copied().filter(|&j| j < dim).collect();
            missed[0].extend(filtered.iter().copied());
            missed[1].extend(filtered.iter().copied());
            st.record_update(filtered);
        }
        if full {
            // One round that moves every position: both are fully stale.
            st.record_update(0..dim);
            missed = [(0..dim).collect(), (0..dim).collect()];
        }
        let writer = FrameWriter::new(WirePolicy::legacy(WireCodec::F32));
        for (id, stale) in missed.iter().enumerate() {
            let values = vec![0.5f32; stale.len()];
            let mut frame = Vec::new();
            let encoded = if stale.len() == dim {
                writer.dense(&mut frame, 0, Rounding::Nearest, &values)
            } else {
                let indices: Vec<u32> = stale.iter().map(|&j| j as u32).collect();
                writer.sparse(&mut frame, 0, Rounding::Nearest, dim, &indices, &values)
            };
            prop_assert_eq!(st.download_bytes(id), encoded as u64,
                "client {}: {} of {} stale", id, stale.len(), dim);
        }
    }
}
