//! Top-k selection: bracket select (ours) vs full sort, across dimensions.
//!
//! Top-k runs on every client for every round (Algorithm 3 line 17) and
//! on the server (line 26); it must stay O(d).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gluefl_tensor::{top_k_abs, top_k_abs_masked, BitMask, TopKScope};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn values(d: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn topk_by_sort(v: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[b].abs().partial_cmp(&v[a].abs()).unwrap());
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    for d in [10_000usize, 100_000, 1_000_000] {
        let v = values(d);
        let k = d / 10;
        group.bench_with_input(BenchmarkId::new("bracket_select", d), &v, |b, v| {
            b.iter(|| black_box(top_k_abs(black_box(v), k)));
        });
        if d <= 100_000 {
            group.bench_with_input(BenchmarkId::new("full_sort", d), &v, |b, v| {
                b.iter(|| black_box(topk_by_sort(black_box(v), k)));
            });
        }
    }
    group.finish();
}

fn bench_topk_masked(c: &mut Criterion) {
    let d = 100_000;
    let v = values(d);
    // A 16% shared mask, as in the paper's ShuffleNet setting.
    let mask = BitMask::from_indices(d, (0..d).filter(|i| i % 6 == 0));
    let mut group = c.benchmark_group("topk_masked");
    group.bench_function("outside_shared_mask", |b| {
        b.iter(|| {
            black_box(top_k_abs_masked(
                black_box(&v),
                d / 25, // q − q_shr = 4%
                TopKScope::Outside(&mask),
            ))
        });
    });
    group.bench_function("inside_shared_mask", |b| {
        b.iter(|| {
            black_box(top_k_abs_masked(
                black_box(&v),
                d / 25,
                TopKScope::Inside(&mask),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_topk, bench_topk_masked);
criterion_main!(benches);
