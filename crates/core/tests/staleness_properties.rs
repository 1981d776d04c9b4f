//! Property-based tests for the staleness tracker: the histogram fast
//! path must agree with brute force under arbitrary update histories,
//! the monotonicity facts the evaluation relies on must always hold, and
//! the download price must be the length of a frame that can be encoded.

use gluefl_core::{StalenessTracker, WireCodec, WirePolicy};
use gluefl_wire::{FrameWriter, Rounding};
use proptest::prelude::*;

proptest! {
    /// Fast path == brute force for every version, under random updates.
    #[test]
    fn histogram_matches_bruteforce(
        dim in 1usize..400,
        rounds in proptest::collection::vec(
            proptest::collection::btree_set(0usize..400, 0..80), 0..30)) {
        let mut st = StalenessTracker::new(dim, 2);
        for changed in &rounds {
            st.record_update(changed.iter().copied().filter(|&j| j < dim));
            for v in 0..=st.version() {
                prop_assert_eq!(
                    st.stale_positions(v),
                    st.stale_positions_bruteforce(v),
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
