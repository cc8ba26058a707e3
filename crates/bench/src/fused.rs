//! The demand-driven fused analysis pass.
//!
//! Every shared heavy analysis is a fold over the probe source. Walking
//! the source once *per analysis* re-materializes every chunked window once
//! per kernel; this module folds any requested set of analyses in **one**
//! walk instead. **Pass A** drives every requested table-independent fold
//! kernel — and the lookup-table builds — through a single
//! [`fold_windows`] walk, so each window is decoded exactly once
//! (`window_builds == n_windows`). **Pass B** then scores the finished
//! tables: penalties need completed tables, so they cannot ride in pass A;
//! on a chunked store they share one raw-chunk walk
//! ([`ThroughputPenalty::evaluate_batch_chunked`]) that never builds a
//! window at all.
//!
//! Each analysis owns one output slot in [`FusedOutputs`]. A slot the pass
//! did not fill is filled on first touch by a walk of its own kernel
//! through the same [`fold_windows`] path, so callers that never prepare
//! still get every output. Byte identity between the two follows from the
//! fold contract (`crates/trace/src/fold.rs`): each kernel's single
//! partial is threaded sequentially through the windows in network order,
//! whichever other kernels share the walk.
//!
//! `FusedPass` is the in-flight form of the same pass: the chunked build
//! folds each sealed part as it arrives, then finishes against the
//! completed chunk store.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mesh11_core::bitrate::adaptation::AdaptationKernel;
use mesh11_core::bitrate::correlation::CurvesKernel;
use mesh11_core::bitrate::lookup::TableBuildKernel;
use mesh11_core::bitrate::stability::StabilityKernel;
use mesh11_core::bitrate::strategy::StrategyKernel;
use mesh11_core::bitrate::{
    AdaptationOutcome, AdapterKind, LinkStability, LookupTableSet, Scope, SnrThroughputCurves,
    StrategyEval, StrategyKind, ThroughputPenalty,
};
use mesh11_core::routing::asymmetry::AsymmetryKernel;
use mesh11_core::routing::diversity::DiversityKernel;
use mesh11_core::routing::ett::{EttAnalysis, EttKernel};
use mesh11_core::routing::improvement::{OpportunisticAnalysis, RoutingKernel};
use mesh11_core::routing::EtxVariant;
use mesh11_core::triples::hidden::TripleKernel;
use mesh11_core::triples::range::RangeKernel;
use mesh11_core::triples::sweep::SweepKernel;
use mesh11_core::triples::{HearRule, TripleAnalysis};
use mesh11_phy::{BitRate, Phy};
use mesh11_trace::snrstats::{SigmaKernel, SigmaKind};
use mesh11_trace::{
    fold_windows, Dataset, DatasetIndex, DatasetView, DeliveryMatrix, FoldKernel, NetworkId,
    ProbeSource, Running, WindowFold,
};

use crate::setup::{lookup_slot, TRIPLE_THRESHOLD};

/// Minimum APs for a network to join the §5 routing population.
pub(crate) const ROUTING_MIN_APS: usize = 5;
/// Probing-airtime charge of the `ext-adapt` replay.
pub(crate) const EXT_ADAPT_OVERHEAD: f64 = 0.10;
/// Hearing thresholds swept by `ext-sweep`.
pub(crate) const EXT_SWEEP_THRESHOLDS: [f64; 5] = [0.05, 0.10, 0.20, 0.30, 0.50];
/// The recent-SNR run length of Fig 3.1's robustness note.
pub(crate) const SIGMA_RECENT_K: usize = 3;

/// The 1 Mbit/s b/g rate shared by the §5/§6 extension figures.
pub(crate) fn one_mbps() -> BitRate {
    BitRate::bg_mbps(1.0).expect("1 Mbit/s exists")
}

/// The adapter roster of the `ext-adapt` replay, in output order.
pub(crate) fn ext_adapt_kinds() -> Vec<AdapterKind> {
    vec![
        AdapterKind::Oracle,
        AdapterKind::SnrTable { top_k: 1 },
        AdapterKind::SnrTable { top_k: 2 },
        AdapterKind::EwmaProbing { alpha: 0.3 },
        AdapterKind::Fixed(BitRate::bg_mbps(11.0).expect("11 Mbit/s exists")),
    ]
}

/// The Fig 3.1 sigma populations, bundled so one accessor serves all four.
#[derive(Debug, Clone, Default)]
pub struct SnrSigmas {
    /// σ within each probe set.
    pub sets: Vec<f64>,
    /// σ of each link's probe-set SNRs over time.
    pub links: Vec<f64>,
    /// σ of each length-`SIGMA_RECENT_K` run of a link's recent SNRs.
    pub recent: Vec<f64>,
    /// σ over every probe-set SNR of a network.
    pub nets: Vec<f64>,
}

/// The `ext-cap` input: the delivery matrix of the largest ≥5-AP b/g
/// network at 1 Mbit/s, tagged with the network it came from.
#[derive(Debug, Clone)]
pub struct CapMatrix {
    /// The chosen network.
    pub network: NetworkId,
    /// Its AP count.
    pub n_aps: usize,
    /// Its delivery matrix at 1 Mbit/s.
    pub matrix: DeliveryMatrix,
}

/// Tracks the largest qualifying b/g network across the window walk and
/// keeps its delivery matrix. Replacing on `n_aps >= best` replicates
/// `Iterator::max_by_key`'s last-max-wins over the id-ordered metas, and
/// computing the matrix from the resident window view avoids the extra
/// window build `ProbeSource::delivery_matrix` would cost on a chunked
/// store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapKernel;

impl FoldKernel for CapKernel {
    type Partial = Option<CapMatrix>;
    type Output = Option<CapMatrix>;

    fn init(&self) -> Self::Partial {
        None
    }

    fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial) {
        // `max_by_key` keeps the *last* maximum, so the window's winner is
        // its last network with the maximal qualifying AP count; only that
        // one needs a delivery matrix (the matrix depends only on the
        // winner's own window, so skipping the losers changes no bytes).
        let mut winner: Option<&mesh11_trace::NetworkMeta> = None;
        for m in &view.dataset().networks {
            if m.n_aps < ROUTING_MIN_APS || !m.radios.contains(&Phy::Bg) {
                continue;
            }
            if partial.as_ref().is_some_and(|best| m.n_aps < best.n_aps)
                || winner.is_some_and(|w| m.n_aps < w.n_aps)
            {
                continue;
            }
            winner = Some(m);
        }
        if let Some(m) = winner {
            *partial = Some(CapMatrix {
                network: m.id,
                n_aps: m.n_aps,
                matrix: view.delivery_matrix(Phy::Bg, m.id, one_mbps(), m.n_aps),
            });
        }
    }

    fn merge(&self, into: &mut Self::Partial, from: Self::Partial) {
        // Later windows hold later network ids: `from` wins ties.
        if let Some(b) = from {
            if into.as_ref().is_none_or(|a| b.n_aps >= a.n_aps) {
                *into = Some(b);
            }
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

/// One shared heavy analysis: the unit a figure declares it reads and
/// [`FusedOutputs::prepare`] folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// Fig 3.1 sigma populations.
    Sigmas,
    /// One §4 lookup-table set.
    Table(Scope, Phy),
    /// One Fig 4.4 penalty (pass B; needs the matching table).
    Penalty(Scope, Phy),
    /// One PHY's Fig 4.5 SNR↔throughput curves.
    Curves(Phy),
    /// Fig 4.6 / Table 4.1 online-strategy evaluations (b/g).
    Strategy,
    /// §5 routing analyses (b/g, ≥5 APs).
    Routing,
    /// Fig 5.2 asymmetry pools (b/g).
    Asymmetry,
    /// §6 hidden-triple analysis (b/g, 10% threshold).
    Triples,
    /// §6 per-(network, rate) ranges (b/g).
    Ranges,
    /// `ext-adapt` replay outcomes.
    Adapt,
    /// `ext-sweep` threshold sweep.
    Sweep,
    /// `ext-stability` churn/drift report (b/g).
    Stability,
    /// `ext-diversity` rows.
    Diversity,
    /// `ext-ett` analyses.
    Ett,
    /// `ext-cap` delivery matrix.
    Cap,
}

impl Analysis {
    /// Every analysis, in the order a fused walk schedules their kernels:
    /// roughly most expensive first, so the work-sharing fan-out across
    /// kernels does not end on one long straggler.
    pub const ALL: [Analysis; 30] = {
        use Phy::{Bg, Ht};
        use Scope::{Ap, Global, Link, Network};
        [
            Analysis::Sigmas,
            Analysis::Adapt,
            Analysis::Routing,
            Analysis::Sweep,
            Analysis::Strategy,
            Analysis::Curves(Bg),
            Analysis::Curves(Ht),
            Analysis::Diversity,
            Analysis::Ett,
            Analysis::Table(Global, Bg),
            Analysis::Table(Global, Ht),
            Analysis::Table(Network, Bg),
            Analysis::Table(Network, Ht),
            Analysis::Table(Ap, Bg),
            Analysis::Table(Ap, Ht),
            Analysis::Table(Link, Bg),
            Analysis::Table(Link, Ht),
            Analysis::Triples,
            Analysis::Ranges,
            Analysis::Asymmetry,
            Analysis::Stability,
            Analysis::Cap,
            Analysis::Penalty(Global, Bg),
            Analysis::Penalty(Global, Ht),
            Analysis::Penalty(Network, Bg),
            Analysis::Penalty(Network, Ht),
            Analysis::Penalty(Ap, Bg),
            Analysis::Penalty(Ap, Ht),
            Analysis::Penalty(Link, Bg),
            Analysis::Penalty(Link, Ht),
        ]
    };
}

/// The kernels of one analysis in flight, ready to fold windows and then
/// distill its output.
pub(crate) trait Job: Send {
    /// The finished analysis.
    type Output;
    /// The analysis's kernels as object-safe running folds.
    fn folds(&mut self) -> Vec<&mut dyn WindowFold>;
    /// Distills the folded partials into the output.
    fn finish(self) -> Self::Output;
}

impl<K: FoldKernel + Send> Job for Running<K> {
    type Output = K::Output;
    fn folds(&mut self) -> Vec<&mut dyn WindowFold> {
        vec![self]
    }
    fn finish(self) -> K::Output {
        Running::finish(self)
    }
}

/// The four Fig 3.1 sigma kernels, folded as four independent units.
pub(crate) struct SigmasJob([Running<SigmaKernel>; 4]);

impl Job for SigmasJob {
    type Output = SnrSigmas;
    fn folds(&mut self) -> Vec<&mut dyn WindowFold> {
        self.0
            .iter_mut()
            .map(|k| k as &mut dyn WindowFold)
            .collect()
    }
    fn finish(self) -> SnrSigmas {
        let [sets, links, recent, nets] = self.0.map(Running::finish);
        SnrSigmas {
            sets,
            links,
            recent,
            nets,
        }
    }
}

pub(crate) fn sigmas_job() -> SigmasJob {
    SigmasJob(
        [
            SigmaKind::ProbeSet,
            SigmaKind::Link,
            SigmaKind::RecentK(SIGMA_RECENT_K),
            SigmaKind::Network,
        ]
        .map(|kind| Running::new(SigmaKernel(kind))),
    )
}

pub(crate) fn table_job(scope: Scope, phy: Phy) -> Running<TableBuildKernel> {
    Running::new(TableBuildKernel { scope, phy })
}

pub(crate) fn curves_job(phy: Phy) -> Running<CurvesKernel> {
    Running::new(CurvesKernel { phy })
}

pub(crate) fn strategy_job() -> Running<StrategyKernel> {
    Running::new(StrategyKernel {
        phy: Phy::Bg,
        kinds: StrategyKind::ALL.to_vec(),
    })
}

pub(crate) fn routing_job() -> Running<RoutingKernel> {
    Running::new(RoutingKernel {
        phy: Phy::Bg,
        min_aps: ROUTING_MIN_APS,
    })
}

pub(crate) fn asymmetry_job() -> Running<AsymmetryKernel> {
    Running::new(AsymmetryKernel { phy: Phy::Bg })
}

pub(crate) fn triples_job() -> Running<TripleKernel> {
    Running::new(TripleKernel {
        phy: Phy::Bg,
        threshold: TRIPLE_THRESHOLD,
        rule: HearRule::Mean,
    })
}

pub(crate) fn ranges_job() -> Running<RangeKernel> {
    Running::new(RangeKernel {
        phy: Phy::Bg,
        threshold: TRIPLE_THRESHOLD,
        rule: HearRule::Mean,
    })
}

pub(crate) fn adapt_job() -> Running<AdaptationKernel> {
    Running::new(AdaptationKernel {
        phy: Phy::Bg,
        kinds: ext_adapt_kinds(),
        overhead: EXT_ADAPT_OVERHEAD,
    })
}

pub(crate) fn sweep_job() -> Running<SweepKernel> {
    Running::new(SweepKernel {
        phy: Phy::Bg,
        rate: one_mbps(),
        thresholds: EXT_SWEEP_THRESHOLDS.to_vec(),
        rule: HearRule::Mean,
    })
}

pub(crate) fn stability_job() -> Running<StabilityKernel> {
    Running::new(StabilityKernel { phy: Phy::Bg })
}

pub(crate) fn diversity_job() -> Running<DiversityKernel> {
    Running::new(DiversityKernel {
        phy: Phy::Bg,
        rate: one_mbps(),
        min_aps: ROUTING_MIN_APS,
        variant: EtxVariant::Etx1,
    })
}

pub(crate) fn ett_job() -> Running<EttKernel> {
    Running::new(EttKernel {
        phy: Phy::Bg,
        min_aps: ROUTING_MIN_APS,
    })
}

pub(crate) fn cap_job() -> Running<CapKernel> {
    Running::new(CapKernel)
}

/// Runs one analysis alone: a walk of just its kernels through
/// [`fold_windows`].
pub(crate) fn run_alone<J: Job>(src: &ProbeSource<'_>, mut job: J) -> J::Output {
    fold_windows(src, &mut job.folds());
    job.finish()
}

/// Pass B: one penalty per table, in order. On a chunked store all share a
/// single raw-chunk walk (zero window builds); on a resident view each
/// table scores the whole view directly.
pub(crate) fn evaluate_penalties(
    src: &ProbeSource<'_>,
    tables: &[&LookupTableSet],
) -> Vec<ThroughputPenalty> {
    match src {
        ProbeSource::Chunked(c) => ThroughputPenalty::evaluate_batch_chunked(c, tables),
        ProbeSource::Whole(_) => tables
            .iter()
            .map(|t| ThroughputPenalty::evaluate_from(src, t))
            .collect(),
    }
}

/// One output slot per shared heavy analysis. Slots fill once — from a
/// fused pass, or from a walk of the analysis's own kernels on first
/// touch — and never change afterwards.
#[derive(Default)]
pub struct FusedOutputs {
    pub(crate) sigmas: OnceLock<SnrSigmas>,
    /// Indexed by `lookup_slot(scope, phy)`.
    pub(crate) tables: [OnceLock<LookupTableSet>; 8],
    /// Indexed by `lookup_slot(scope, phy)`.
    pub(crate) penalties: [OnceLock<ThroughputPenalty>; 8],
    /// `[Bg, Ht]`.
    pub(crate) curves: [OnceLock<SnrThroughputCurves>; 2],
    pub(crate) strategy_bg: OnceLock<Vec<StrategyEval>>,
    pub(crate) routing_bg: OnceLock<Vec<OpportunisticAnalysis>>,
    pub(crate) asymmetry_bg: OnceLock<BTreeMap<BitRate, Vec<f64>>>,
    pub(crate) triples_bg: OnceLock<TripleAnalysis>,
    pub(crate) ranges_bg: OnceLock<BTreeMap<(NetworkId, BitRate), usize>>,
    pub(crate) adapters_ext: OnceLock<Vec<AdaptationOutcome>>,
    pub(crate) sweep_ext: OnceLock<Vec<(f64, Option<f64>)>>,
    pub(crate) stability_bg: OnceLock<LinkStability>,
    pub(crate) diversity_ext: OnceLock<Vec<(usize, f64, f64, usize)>>,
    pub(crate) ett_bg: OnceLock<Vec<EttAnalysis>>,
    pub(crate) cap_ext: OnceLock<Option<CapMatrix>>,
}

impl FusedOutputs {
    /// Fills every requested slot that is still empty with one fused walk
    /// of `src` (pass A) plus one penalty pass (pass B). `src` must be the
    /// source every other fill of these slots reads.
    pub fn prepare(&self, src: &ProbeSource<'_>, which: &[Analysis]) {
        let mut pass = FusedPass::new(self, which);
        pass.fold(src);
        pass.finish(src);
    }
}

pub(crate) fn curves_slot(phy: Phy) -> usize {
    match phy {
        Phy::Bg => 0,
        Phy::Ht => 1,
    }
}

/// A job bound to the slot its output fills, type-erased so one walk can
/// drive every requested analysis.
trait Pending: Send {
    fn folds(&mut self) -> Vec<&mut dyn WindowFold>;
    fn store(self: Box<Self>);
}

struct Fill<'a, J: Job> {
    job: J,
    slot: &'a OnceLock<J::Output>,
}

impl<J: Job> Pending for Fill<'_, J>
where
    J::Output: Send + Sync,
{
    fn folds(&mut self) -> Vec<&mut dyn WindowFold> {
        self.job.folds()
    }

    fn store(self: Box<Self>) {
        // A concurrent fill of the same slot computed the same bytes.
        let _ = self.slot.set(self.job.finish());
    }
}

/// The in-flight fused pass over a set of analyses whose slots were empty
/// when it started: fold every view through [`FusedPass::fold`] in
/// network order, then [`FusedPass::finish`] against the whole source.
pub(crate) struct FusedPass<'a> {
    outputs: &'a FusedOutputs,
    pending: Vec<Box<dyn Pending + 'a>>,
    /// `lookup_slot`s whose penalties pass B fills.
    penalties: Vec<usize>,
}

impl<'a> FusedPass<'a> {
    /// Starts the kernels of every analysis in `which` whose slot is empty
    /// (a requested penalty also starts its table), in [`Analysis::ALL`]
    /// order whatever the request order.
    pub(crate) fn new(outputs: &'a FusedOutputs, which: &[Analysis]) -> Self {
        fn add<'a, J: Job + 'a>(
            pending: &mut Vec<Box<dyn Pending + 'a>>,
            slot: &'a OnceLock<J::Output>,
            job: impl FnOnce() -> J,
        ) where
            J::Output: Send + Sync,
        {
            if slot.get().is_none() {
                pending.push(Box::new(Fill { job: job(), slot }));
            }
        }
        let o = outputs;
        let mut pending: Vec<Box<dyn Pending + 'a>> = Vec::new();
        let mut penalties = Vec::new();
        let wanted = |a: Analysis| {
            which.contains(&a)
                || matches!(a, Analysis::Table(s, p) if which.contains(&Analysis::Penalty(s, p)))
        };
        for a in Analysis::ALL.into_iter().filter(|&a| wanted(a)) {
            match a {
                Analysis::Sigmas => add(&mut pending, &o.sigmas, sigmas_job),
                Analysis::Table(s, p) => add(&mut pending, &o.tables[lookup_slot(s, p)], || {
                    table_job(s, p)
                }),
                Analysis::Penalty(s, p) => {
                    if o.penalties[lookup_slot(s, p)].get().is_none() {
                        penalties.push(lookup_slot(s, p));
                    }
                }
                Analysis::Curves(p) => {
                    add(&mut pending, &o.curves[curves_slot(p)], || curves_job(p))
                }
                Analysis::Strategy => add(&mut pending, &o.strategy_bg, strategy_job),
                Analysis::Routing => add(&mut pending, &o.routing_bg, routing_job),
                Analysis::Asymmetry => add(&mut pending, &o.asymmetry_bg, asymmetry_job),
                Analysis::Triples => add(&mut pending, &o.triples_bg, triples_job),
                Analysis::Ranges => add(&mut pending, &o.ranges_bg, ranges_job),
                Analysis::Adapt => add(&mut pending, &o.adapters_ext, adapt_job),
                Analysis::Sweep => add(&mut pending, &o.sweep_ext, sweep_job),
                Analysis::Stability => add(&mut pending, &o.stability_bg, stability_job),
                Analysis::Diversity => add(&mut pending, &o.diversity_ext, diversity_job),
                Analysis::Ett => add(&mut pending, &o.ett_bg, ett_job),
                Analysis::Cap => add(&mut pending, &o.cap_ext, cap_job),
            }
        }
        Self {
            outputs,
            pending,
            penalties,
        }
    }

    /// Whether every requested slot was already filled.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.penalties.is_empty()
    }

    /// Folds `src` into every pass-A kernel: one window walk, each window
    /// folded by all kernels concurrently. Successive calls must cover
    /// consecutive network runs in id order — the byte-identity contract.
    pub(crate) fn fold(&mut self, src: &ProbeSource<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let mut folds: Vec<&mut dyn WindowFold> =
            self.pending.iter_mut().flat_map(|p| p.folds()).collect();
        fold_windows(src, &mut folds);
    }

    /// Folds one sealed dataset part, indexing it only when some pass-A
    /// kernel is pending. Parts must arrive as consecutive network runs in
    /// id order, as for [`FusedPass::fold`].
    pub(crate) fn fold_part(&mut self, part: &Dataset) {
        if self.pending.is_empty() {
            return;
        }
        let ix = DatasetIndex::build(part);
        self.fold(&ProbeSource::Whole(DatasetView::new(part, &ix)));
    }

    /// Stores pass A's outputs, then runs pass B (penalties) against `src`,
    /// which must cover exactly the probes the pass folded.
    pub(crate) fn finish(self, src: &ProbeSource<'_>) {
        for p in self.pending {
            p.store();
        }
        if self.penalties.is_empty() {
            return;
        }
        let o = self.outputs;
        let tables: Vec<&LookupTableSet> = self
            .penalties
            .iter()
            .map(|&k| {
                o.tables[k]
                    .get()
                    .expect("pass A filled every penalty's table")
            })
            .collect();
        for (&k, penalty) in self.penalties.iter().zip(evaluate_penalties(src, &tables)) {
            let _ = o.penalties[k].set(penalty);
        }
    }
}
