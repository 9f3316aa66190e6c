//! Criterion bench for the parallel index build at 1/2/4/8 worker
//! threads. The `scaling` binary produces the same axis with the paper's
//! five-run methodology and writes `results/BENCH_scaling.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tix_bench::Fixture;
use tix_index::InvertedIndex;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_scaling(c: &mut Criterion) {
    let fixture = Fixture::small();
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new("index_build", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| black_box(InvertedIndex::build_with_threads(&fixture.store, threads)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
