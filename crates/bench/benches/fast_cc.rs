//! Criterion microbenches for the word-parallel fast engine: oracle vs.
//! fast engine vs. simulated run-based Algorithm CC on the baseline
//! workloads, at bench-friendly sizes. The full wall-clock trajectory lives
//! in `slap-bench record` (`BENCH.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slap_cc::{label_components_runs, CcOptions};
use slap_image::{bfs_labels, fast::FastLabeler, gen, Connectivity, LabelGrid};
use slap_unionfind::RankHalvingUf;

fn bench_fast_cc(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast_cc");
    group.sample_size(10);
    for &n in &[128usize, 256] {
        for family in ["random50", "blobs"] {
            let img = gen::by_name(family, n, 1).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("oracle-bfs/{family}"), n),
                &img,
                |b, img| b.iter(|| bfs_labels(img)),
            );
            let mut fast = FastLabeler::new();
            let mut grid = LabelGrid::new_background(1, 1);
            group.bench_with_input(
                BenchmarkId::new(format!("fast/{family}"), n),
                &img,
                |b, img| b.iter(|| fast.label_into(img, Connectivity::Four, &mut grid)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("slap-sim-runs/{family}"), n),
                &img,
                |b, img| {
                    b.iter(|| label_components_runs::<RankHalvingUf>(img, &CcOptions::default()))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fast_cc);
criterion_main!(benches);
