//! Every paper figure's quick preset as a benchmark, so `cargo bench` exercises the same
//! spec → grid → engine path `fedopt run --fig N` takes (default engine: all cores, the
//! `FEDOPT_WARM_START` setting or warm start).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::presets::{self, Variant};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(8));
    for &fig in &presets::FIGURES {
        let spec = presets::spec(fig, Variant::Quick).expect("figure preset exists");
        group.bench_with_input(BenchmarkId::new("quick_fig", fig), &spec, |b, spec| {
            b.iter(|| spec.run().unwrap().reports.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
