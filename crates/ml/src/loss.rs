//! Softmax cross-entropy loss and the per-row classification hits.

/// Computes a numerically-stable log-softmax of `logits` in place,
/// row by row for a batch of `rows` examples with `classes` columns.
///
/// # Panics
/// Panics if `logits.len() != rows * classes` or `classes == 0`.
pub fn log_softmax_rows(logits: &mut [f32], rows: usize, classes: usize) {
    assert!(classes > 0, "need at least one class");
    assert_eq!(logits.len(), rows * classes, "logits shape mismatch");
    for r in 0..rows {
        let row = &mut logits[r * classes..(r + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
}

/// Mean negative log-likelihood of the true labels given row-wise
/// log-probabilities, plus the gradient w.r.t. the *logits*
/// (`softmax − one_hot`, scaled by `1/rows`), written into `grad_logits`.
///
/// Returns the mean loss.
///
/// # Panics
/// Panics on shape mismatches or out-of-range labels.
pub fn nll_and_grad(
    log_probs: &[f32],
    labels: &[usize],
    classes: usize,
    grad_logits: &mut [f32],
) -> f64 {
    let rows = labels.len();
    assert_eq!(log_probs.len(), rows * classes, "log-probs shape mismatch");
    assert_eq!(grad_logits.len(), rows * classes, "grad shape mismatch");
    let inv = 1.0 / rows.max(1) as f32;
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range {classes}");
        let row = &log_probs[r * classes..(r + 1) * classes];
        loss -= f64::from(row[label]);
        let grad_row = &mut grad_logits[r * classes..(r + 1) * classes];
        for (c, g) in grad_row.iter_mut().enumerate() {
            let p = row[c].exp();
            *g = (p - if c == label { 1.0 } else { 0.0 }) * inv;
        }
    }
    loss / rows.max(1) as f64
}

/// Whether `label` is the row's top-1 prediction: its first arg-max.
pub(crate) fn top1_hit(row: &[f32], label: usize) -> bool {
    argmax(row) == label
}

/// Whether `label` is within the row's top-5 predicted classes (the
/// paper reports Top-5 accuracy for OpenImage): fewer than 5 classes
/// strictly beat it, so ties count as a hit, matching `torch.topk`'s
/// index order closely enough for evaluation.
pub(crate) fn top5_hit(row: &[f32], label: usize) -> bool {
    let target = row[label];
    row.iter().filter(|&&v| v > target).count() < 5
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_softmax_rows_normalises() {
        let mut logits = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        log_softmax_rows(&mut logits, 2, 3);
        for r in 0..2 {
            let total: f32 = logits[r * 3..(r + 1) * 3].iter().map(|v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-5, "row {r} sums to {total}");
        }
    }

    #[test]
    fn log_softmax_is_shift_invariant() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = vec![101.0f32, 102.0, 103.0];
        log_softmax_rows(&mut a, 1, 3);
        log_softmax_rows(&mut b, 1, 3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_handles_extreme_logits() {
        let mut logits = vec![1e4f32, -1e4, 0.0];
        log_softmax_rows(&mut logits, 1, 3);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert!((logits[0]).abs() < 1e-3); // dominant class → log-prob ≈ 0
    }

    #[test]
    fn nll_grad_rows_sum_to_zero() {
        let mut logits = vec![0.3f32, -0.1, 0.5, 0.9, 0.0, -0.4];
        log_softmax_rows(&mut logits, 2, 3);
        let mut grad = vec![0.0f32; 6];
        let loss = nll_and_grad(&logits, &[2, 0], 3, &mut grad);
        assert!(loss > 0.0);
        for r in 0..2 {
            let s: f32 = grad[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn nll_perfect_prediction_has_small_loss_and_grad() {
        // Very confident, correct prediction.
        let mut logits = vec![20.0f32, 0.0, 0.0];
        log_softmax_rows(&mut logits, 1, 3);
        let mut grad = vec![0.0f32; 3];
        let loss = nll_and_grad(&logits, &[0], 3, &mut grad);
        assert!(loss < 1e-6);
        assert!(grad.iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn uniform_prediction_loss_is_log_classes() {
        let mut logits = vec![0.0f32; 4];
        log_softmax_rows(&mut logits, 1, 4);
        let mut grad = vec![0.0f32; 4];
        let loss = nll_and_grad(&logits, &[1], 4, &mut grad);
        assert!((loss - 4.0f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let mut logits = vec![
            2.0f32, 0.0, 0.0, // pred 0
            0.0, 3.0, 0.0, // pred 1
            0.0, 0.0, 1.0, // pred 2
            1.0, 1.0, 0.0, // tie: the first maximum wins
        ];
        log_softmax_rows(&mut logits, 4, 3);
        let hits: Vec<bool> = logits
            .chunks_exact(3)
            .zip([0, 1, 0, 1])
            .map(|(row, label)| top1_hit(row, label))
            .collect();
        assert_eq!(hits, [true, true, false, false]);
    }

    #[test]
    fn top5_reduces_to_hit_when_classes_small() {
        let mut logits = vec![0.1f32, 0.2, 0.3];
        log_softmax_rows(&mut logits, 1, 3);
        // With 3 classes everything is in the top 5.
        assert!(top5_hit(&logits, 0));
    }

    #[test]
    fn top5_on_many_classes() {
        // Label ranked 6th → miss; ranked 5th → hit.
        let mut logits: Vec<f32> = (0..10).map(|i| -(i as f32)).collect();
        log_softmax_rows(&mut logits, 1, 10);
        assert!(!top5_hit(&logits, 5));
        assert!(top5_hit(&logits, 4));
    }

    #[test]
    fn top5_counts_ties_as_hits() {
        // Six classes tie at the top: none strictly beats the label.
        let row = [0.0f32, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0];
        assert!(top5_hit(&row, 5));
        assert!(!top5_hit(&row, 6));
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let logits = vec![0.0f32; 3];
        let mut grad = vec![0.0f32; 3];
        let _ = nll_and_grad(&logits, &[3], 3, &mut grad);
    }
}
