//! The fused-pass contract: folding every analysis a figure set reads over
//! each resident window exactly once (`ReproContext::prepare`), or over
//! each sealed part while simulating (`build_timed_streaming`), must
//! produce figure JSON byte-identical to an unprepared context, where
//! every accessor walks the probe source for its own kernels on first
//! touch — wherever the window and chunk boundaries fall, at any thread
//! count, clean or faulted.

use std::collections::BTreeMap;

use mesh11::prelude::*;
use mesh11::trace::ChunkConfig;
use mesh11_bench::figures::{analyses_for, build, ALL_IDS};
use mesh11_bench::{DataMode, ReproContext, Scale};
use proptest::prelude::*;

const SEED: u64 = 13;

/// Renders every figure of every experiment id to JSON, keyed by figure id.
fn all_figure_json(ctx: &ReproContext) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for id in ALL_IDS {
        let figs = build(ctx, id).unwrap_or_else(|| panic!("unknown id {id}"));
        for f in figs {
            let prev = out.insert(f.id.clone(), f.to_json());
            assert!(prev.is_none(), "duplicate figure id {}", f.id);
        }
    }
    out
}

/// How a context's analyses get folded before the figures render.
#[derive(Clone, Copy, Debug)]
enum Fold {
    /// Not at all: every accessor walks its own kernels on first touch.
    Unprepared,
    /// One fused walk over the windows (`ReproContext::prepare`).
    Prepared,
    /// Over each sealed part while simulating (`build_timed_streaming`).
    Streamed,
}

/// Builds a quick-scale chunked context, folds every figure's analyses
/// as `fold` says, and renders all figures, on a dedicated pool of
/// `threads` workers.
fn figures_under(
    cfg: ChunkConfig,
    fold: Fold,
    threads: usize,
    faults: FaultPlan,
) -> BTreeMap<String, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(|| {
            let which = analyses_for(ALL_IDS);
            let ctx = match fold {
                Fold::Streamed => {
                    ReproContext::build_timed_streaming(Scale::Quick, SEED, faults, cfg, &which).0
                }
                _ => {
                    ReproContext::build_timed_with_mode(
                        Scale::Quick,
                        SEED,
                        faults,
                        DataMode::Chunked(cfg),
                    )
                    .0
                }
            };
            if let Fold::Prepared = fold {
                ctx.prepare(&which);
            }
            all_figure_json(&ctx)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Adversarial window placement: for window sizes from one probe set
    /// per window up to thousands (crossing network and chunk boundaries
    /// at arbitrary offsets), the prepared and the streamed context's
    /// figures are byte-for-byte the unprepared context's —
    /// single-threaded and fanned out, with and without an active fault
    /// plan.
    #[test]
    fn prepared_matches_per_analysis_walks(
        window in 1usize..4_000,
        capacity in 64usize..1_024,
        four_threads in proptest::bool::ANY,
        faulted in proptest::bool::ANY,
    ) {
        let cfg = ChunkConfig {
            chunk_capacity: capacity,
            resident_chunks: 2,
            window_probes: window,
            prefetch_depth: 2,
            ..ChunkConfig::tiny()
        };
        let threads = if four_threads { 4 } else { 1 };
        let faults = || {
            if faulted {
                FaultPlan::demo(Scale::Quick.config().probe_horizon_s)
            } else {
                FaultPlan::none()
            }
        };
        // An unprepared context on one thread is the oracle: every
        // accessor runs its own kernels' walk, the schedule the goldens
        // pin.
        let reference = figures_under(cfg.clone(), Fold::Unprepared, 1, faults());
        prop_assert!(reference.len() >= 39, "expected the full figure set");
        for fold in [Fold::Prepared, Fold::Streamed] {
            let got = figures_under(cfg.clone(), fold, threads, faults());
            prop_assert_eq!(got.len(), reference.len(), "figure set differs ({:?})", fold);
            for (id, json) in &reference {
                let g = got.get(id).map(String::as_str);
                prop_assert_eq!(
                    g,
                    Some(json.as_str()),
                    "figure {} diverges ({:?}, window={}, capacity={}, threads={}, faulted={})",
                    id,
                    fold,
                    window,
                    capacity,
                    threads,
                    faulted
                );
            }
        }
    }
}
