//! The fold-style kernel contract for window-major analysis.
//!
//! Every heavy analysis kernel in the workspace has the same shape: an
//! accumulator is initialized, each window of the probe source is folded
//! into it (fanning out per network inside the window and merging the
//! per-network partials back in network order), and a finish step distills
//! the accumulated state into the kernel's output. [`FoldKernel`] names
//! that shape so a *window-major* scheduler can drive many kernels over a
//! single walk of the windows — each spilled window is decoded exactly
//! once, every registered kernel folds it while it is resident, and then
//! it is evicted.
//!
//! ## Byte-identity contract
//!
//! The scheduler threads each kernel's **single** partial sequentially
//! through the windows in window order (never folding windows into
//! separate partials and merging after the fact). Because windows are
//! network-aligned and walked in network order, every kernel sees exactly
//! the same accumulation sequence as a solo kernel-major walk — including
//! kernels whose partials carry order-sensitive float sums (bitrate
//! adaptation). Parallelism comes from the per-network fan-out *inside*
//! `fold` and from fanning *across* kernels (each mutates only its own
//! partial), never from reordering the window sequence.
//!
//! [`FoldKernel::merge`] exists for callers that *can* prove their partial
//! is order-insensitive (e.g. commutative integer counts) and want
//! cross-window parallelism; the window-major scheduler never calls it.

use crate::chunk::ProbeSource;
use crate::index::DatasetView;

/// A fold-style analysis kernel: `init → fold(window)* → finish`, with an
/// explicit `merge` for partials that tolerate re-association.
pub trait FoldKernel {
    /// The accumulated state threaded through the windows.
    type Partial: Send;
    /// The finished analysis result.
    type Output;

    /// A fresh (empty) partial.
    fn init(&self) -> Self::Partial;

    /// Folds one window view into the partial. Windows arrive in network
    /// order; implementations may fan out per network internally but must
    /// merge those per-network results back in network order.
    fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial);

    /// Merges a later partial into an earlier one. Only exact for kernels
    /// whose partials are order-insensitive; kernels with order-sensitive
    /// accumulation (float sums) document the caveat and are only ever
    /// driven sequentially by the window-major scheduler.
    fn merge(&self, into: &mut Self::Partial, from: Self::Partial);

    /// Distills the accumulated partial into the kernel's output.
    fn finish(&self, partial: Self::Partial) -> Self::Output;
}

/// Runs one kernel to completion over a probe source — the one-walk-per-
/// kernel path every `*_from` entry point delegates to.
pub fn run_fold<K: FoldKernel>(src: &ProbeSource<'_>, kernel: &K) -> K::Output {
    let mut partial = kernel.init();
    src.for_each_view(|view| kernel.fold(view, &mut partial));
    kernel.finish(partial)
}

/// The object-safe face of a running fold, so a scheduler can drive a
/// heterogeneous set of kernels over one window walk.
pub trait WindowFold: Send {
    /// Folds one window into this kernel's partial.
    fn fold_window(&mut self, view: DatasetView<'_>);
}

/// A kernel paired with its in-flight partial. Construct one per kernel,
/// drive them all through [`fold_windows`], then take each output with
/// [`Running::finish`].
pub struct Running<K: FoldKernel> {
    kernel: K,
    partial: K::Partial,
}

impl<K: FoldKernel> Running<K> {
    /// Starts a kernel with a fresh partial.
    pub fn new(kernel: K) -> Self {
        let partial = kernel.init();
        Self { kernel, partial }
    }

    /// Finishes the fold, consuming the runner.
    pub fn finish(self) -> K::Output {
        self.kernel.finish(self.partial)
    }
}

impl<K: FoldKernel + Send> WindowFold for Running<K>
where
    K::Partial: Send,
{
    fn fold_window(&mut self, view: DatasetView<'_>) {
        self.kernel.fold(view, &mut self.partial);
    }
}

/// The window-major scheduler: one walk over the source's windows, every
/// kernel folding each window while it is resident. For a chunked source
/// this materializes each window exactly once (`window_builds ==
/// n_windows` when no other walk runs); for a resident source there is a
/// single "window" — the whole view.
///
/// Kernels fold each window concurrently (they share the read-only view
/// and own disjoint partials); the window *sequence* stays strictly
/// ordered, preserving byte identity at any thread count.
pub fn fold_windows(src: &ProbeSource<'_>, kernels: &mut [&mut dyn WindowFold]) {
    use rayon::prelude::*;
    src.for_each_view(|view| {
        kernels.par_iter_mut().for_each(|k| k.fold_window(view));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkConfig, ChunkedDataset};
    use crate::dataset::{Dataset, NetworkMeta};
    use crate::ids::{ApId, NetworkId};
    use crate::probe::{ProbeSet, RateObs};
    use mesh11_phy::{BitRate, Phy};

    /// Counts probe sets per fold call — enough to show the scheduler
    /// visits every window exactly once and sums match the whole view.
    struct CountProbes;

    impl FoldKernel for CountProbes {
        type Partial = (usize, usize); // (probes, windows folded)
        type Output = (usize, usize);
        fn init(&self) -> Self::Partial {
            (0, 0)
        }
        fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial) {
            partial.0 += view.dataset().probes.len();
            partial.1 += 1;
        }
        fn merge(&self, into: &mut Self::Partial, from: Self::Partial) {
            into.0 += from.0;
            into.1 += from.1;
        }
        fn finish(&self, partial: Self::Partial) -> Self::Output {
            partial
        }
    }

    fn toy_dataset(nets: u32, probes_per_net: u32) -> Dataset {
        let mut ds = Dataset::default();
        for n in 0..nets {
            ds.networks.push(NetworkMeta {
                id: NetworkId(n),
                env: crate::ids::EnvLabel::Indoor,
                n_aps: 4,
                radios: vec![Phy::Bg],
                location: "toy".into(),
            });
            for i in 0..probes_per_net {
                ds.probes.push(ProbeSet {
                    network: NetworkId(n),
                    phy: Phy::Bg,
                    time_s: f64::from(i),
                    sender: ApId(i % 2),
                    receiver: ApId(2 + i % 2),
                    obs: vec![RateObs {
                        rate: BitRate::bg_mbps(1.0).unwrap(),
                        loss: 0.25,
                        snr_db: 12.0,
                    }],
                });
            }
        }
        ds
    }

    #[test]
    fn fold_windows_visits_each_window_once() {
        let ds = toy_dataset(6, 40);
        let cfg = ChunkConfig {
            chunk_capacity: 16,
            resident_chunks: 2,
            window_probes: 50,
            ..ChunkConfig::tiny()
        };
        let chunked = ChunkedDataset::from_dataset(&ds, cfg).expect("chunk");
        let n_windows = chunked.n_windows();
        assert!(n_windows > 1, "test needs several windows");
        let src = ProbeSource::Chunked(&chunked);

        let mut a = Running::new(CountProbes);
        let mut b = Running::new(CountProbes);
        {
            let mut kernels: Vec<&mut dyn WindowFold> = vec![&mut a, &mut b];
            fold_windows(&src, &mut kernels);
        }
        let (probes_a, folds_a) = a.finish();
        let (probes_b, folds_b) = b.finish();
        assert_eq!(probes_a, ds.probes.len());
        assert_eq!(probes_b, ds.probes.len());
        assert_eq!(folds_a, n_windows);
        assert_eq!(folds_b, n_windows);
        // One walk, two kernels: each window was built exactly once.
        assert_eq!(chunked.stats().window_builds, n_windows as u64);
    }

    #[test]
    fn run_fold_matches_whole_view() {
        let ds = toy_dataset(3, 25);
        let ix = crate::index::DatasetIndex::build(&ds);
        let view = DatasetView::new(&ds, &ix);
        let whole = run_fold(&ProbeSource::Whole(view), &CountProbes);
        assert_eq!(whole, (ds.probes.len(), 1));
    }
}
