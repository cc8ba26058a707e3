//! One walk per analysis against one fused walk, over the same analysis
//! set: what an unprepared context does (each accessor walks the probe
//! source for its own kernels on first touch, re-materializing windows as
//! it goes) against `ReproContext::prepare` (**one** shared window walk
//! folding every kernel while the window is resident). Three data shapes:
//! the in-memory quick dataset (windows are free — the schedules should
//! tie), the quick dataset forced through tiny spilled chunks (window
//! rebuilds hit the decoder), and a metro-2 chunked ensemble (the headline
//! case). Run with `cargo bench -p mesh11-bench window_major`.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::{Analysis, DataMode, FusedOutputs, ReproContext, Scale};
use mesh11_trace::{ChunkConfig, ProbeSource};
use std::hint::black_box;

const SEED: u64 = 42;

fn build_ctx(scale: Scale, mode: DataMode) -> ReproContext {
    ReproContext::build_timed_with_mode(scale, SEED, mesh11_sim::FaultPlan::none(), mode).0
}

/// Every analysis filled by a walk of its own: byte-identical outputs to
/// the fused walk — only the window traffic differs.
fn run_per_analysis(src: &ProbeSource<'_>) -> FusedOutputs {
    let out = FusedOutputs::default();
    for a in Analysis::ALL {
        out.prepare(src, &[a]);
    }
    out
}

/// Every analysis filled by one fused walk.
fn run_fused(src: &ProbeSource<'_>) -> FusedOutputs {
    let out = FusedOutputs::default();
    out.prepare(src, &Analysis::ALL);
    out
}

fn bench_schedules(c: &mut Criterion, label: &str, ctx: &ReproContext) {
    c.bench_function(&format!("window_major/{label}-per-analysis"), |b| {
        b.iter(|| black_box(run_per_analysis(&ctx.probe_source())))
    });
    c.bench_function(&format!("window_major/{label}-fused"), |b| {
        b.iter(|| black_box(run_fused(&ctx.probe_source())))
    });
}

/// Fully resident quick dataset: no window cost, schedules should tie.
fn quick(c: &mut Criterion) {
    let ctx = build_ctx(Scale::Quick, DataMode::InMemory);
    bench_schedules(c, "quick", &ctx);
}

/// Quick dataset through tiny spilled chunks: per-analysis walks re-decode
/// spilled chunks per kernel, the fused walk decodes each window once.
fn forced_spill(c: &mut Criterion) {
    let ctx = build_ctx(Scale::Quick, DataMode::Chunked(ChunkConfig::tiny()));
    assert!(
        ctx.chunked().expect("chunked").spilled_bytes() > 0,
        "tiny budget must force spilling"
    );
    bench_schedules(c, "spill", &ctx);
}

/// The headline case: metro-2 chunked ensemble under the default config.
fn metro2(c: &mut Criterion) {
    let ctx = build_ctx(
        Scale::Metro { factor: 2 },
        DataMode::Chunked(ChunkConfig::default()),
    );
    bench_schedules(c, "metro2", &ctx);
}

criterion_group! {
    name = window_major;
    config = Criterion::default().sample_size(10);
    targets = quick, forced_spill, metro2
}
criterion_main!(window_major);
