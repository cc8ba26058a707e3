//! Traced harness of the mesh11 benchmark.
//!
//! ```text
//! mesh11-tracer --workload campaign|ingest|metro-spill --seed N --work DIR
//!               --untraced-total-s SECS
//! ```
//!
//! Two passes, both at the benchmark's thread count:
//!
//! 1. **Replay** — the workload's job made of the same public calls its
//!    command makes (`ReproContext::build_timed_with_mode` or a dataset
//!    load, the figure fan-out, `render_table` / `FigureData::to_json`).
//!    Its wall over the untraced job's total, minus 1, is
//!    `harness.overhead_frac`; the fan-out's wall and process CPU give the
//!    `bench.fanout_*` metrics.
//! 2. **Attribution** — every layer called once from this thread on the
//!    workload's own campaign, with a span around each call: simulator,
//!    dataset codec, chunk store, each analysis accessor, each figure
//!    builder, and the report renderers.
//!
//! The span tree goes to stderr; the last line of stdout is a JSON object
//! `{metric: {"value": v, "unit": u}}`. Dataset files are written under
//! `--work` (the `ingest` job's dataset is read from there too).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mesh11_bench::figures::{build, ALL_IDS};
use mesh11_bench::setup::{
    CLIENT_PROBE_MAX_HORIZON_S, CLIENT_PROBE_MIN_APS, CLIENT_PROBE_NETWORKS,
};
use mesh11_bench::{DataMode, ReproContext, Scale};
use mesh11_core::bitrate::Scope;
use mesh11_core::report::FigureData;
use mesh11_phy::{shared_success_table, PerModel, Phy};
use mesh11_sim::{FaultPlan, SimConfig};
use mesh11_topo::NetworkSpec;
use mesh11_trace::{ChunkConfig, ChunkedDatasetBuilder, Dataset, DatasetIndex};
use rayon::prelude::*;

/// Threads every job runs at (the benchmark host's `nproc`).
const THREADS: usize = 2;
/// `repro --chunk-budget` of the `metro-spill` job; the chunk-store layer
/// runs under it on every workload.
const CHUNK_BUDGET: usize = 4;
/// `repro --metro-factor` of the `metro-spill` job.
const METRO_FACTOR: usize = 2;
/// Networks per simulate batch when streaming into the chunk store (the
/// chunked build's batch size).
const STREAM_BATCH: usize = 8;
/// Rows per rendered table, as both commands print them.
const TABLE_ROWS: usize = 16;
const MIB: f64 = 1024.0 * 1024.0;
/// Kernel clock ticks per second in `/proc/<pid>/stat`.
const USER_HZ: f64 = 100.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign,
    Ingest,
    MetroSpill,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "campaign" => Some(Self::Campaign),
            "ingest" => Some(Self::Ingest),
            "metro-spill" => Some(Self::MetroSpill),
            _ => None,
        }
    }

    fn scale(self) -> Scale {
        match self {
            Self::Campaign | Self::Ingest => Scale::Standard,
            Self::MetroSpill => Scale::Metro {
                factor: METRO_FACTOR,
            },
        }
    }

    /// Whether the job simulates under the demo fault plan.
    fn faulted(self) -> bool {
        self == Self::Campaign
    }

    /// The experiment ids the job builds.
    fn ids(self) -> Vec<&'static str> {
        match self {
            Self::Campaign => vec!["fig1-1", "ext-client"],
            Self::Ingest | Self::MetroSpill => ALL_IDS.to_vec(),
        }
    }

    fn sim_config(self, faulted: bool) -> SimConfig {
        let mut cfg = self.scale().config();
        cfg.faults = if faulted {
            FaultPlan::demo(cfg.probe_horizon_s)
        } else {
            FaultPlan::none()
        };
        cfg
    }
}

fn chunk_config() -> ChunkConfig {
    ChunkConfig {
        resident_chunks: CHUNK_BUDGET,
        ..ChunkConfig::default()
    }
}

/// One recorded span: a named interval and the span open when it began.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans kept in memory and printed as a tree when the run ends.
struct Spans {
    t0: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn enter(&mut self, name: &str) -> usize {
        let id = self.done.len();
        self.done.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its seconds.
    fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.done[id];
        span.end_s = self.t0.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span; returns its result and seconds.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = std::hint::black_box(f());
        (out, self.exit(id))
    }

    /// Each span's total and self time (total minus its children), indented
    /// under its parent.
    fn render(&self) -> String {
        let mut child_s = vec![0.0; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out = String::from("# span tree: total_s self_s name\n");
        for (i, s) in self.done.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(q) = p {
                depth += 1;
                p = self.done[q].parent;
            }
            let total = s.end_s - s.start_s;
            out.push_str(&format!(
                "# {total:9.4} {:9.4} {}{}\n",
                total - child_s[i],
                "  ".repeat(depth),
                s.name
            ));
        }
        out
    }
}

/// Per-layer metrics in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// User+system CPU seconds of this whole process, all threads.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// What the replay pass measured.
struct Replay {
    wall_s: f64,
    fanout_s: f64,
    fanout_cpu_s: f64,
}

/// Prints tables to `out` and, when `json_dir` is given, writes each
/// figure's JSON there, as `repro` does (`mesh11 figures` only prints).
fn emit(
    figs: &[FigureData],
    out: &mut impl std::io::Write,
    json_dir: Option<&Path>,
) -> Result<(), String> {
    for fig in figs {
        writeln!(out, "{}", fig.render_table(TABLE_ROWS)).map_err(|e| e.to_string())?;
        if let Some(dir) = json_dir {
            std::fs::write(dir.join(format!("{}.json", fig.id)), fig.to_json())
                .map_err(|e| format!("write figure json: {e}"))?;
        }
    }
    Ok(())
}

/// Pass 1: the job's own calls, in the job's order.
fn replay(w: Workload, seed: u64, work: &Path, spans: &mut Spans) -> Result<Replay, String> {
    let dir = work.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(work.join("replay.stdout")).map_err(|e| e.to_string())?,
    );
    let ids = w.ids();
    let top = spans.enter("replay");
    let ctx = if w == Workload::Ingest {
        // `mesh11 figures <file>`: load, wrap, then build serially.
        let path = work.join("ingest.m11t");
        let (ds, _) = spans.time("replay.load", || mesh11_trace::codec::load(&path));
        let ds = ds.map_err(|e| format!("{}: {e}", path.display()))?;
        let cfg = SimConfig {
            probe_horizon_s: ds.probe_horizon_s,
            client_horizon_s: ds.client_horizon_s,
            ..SimConfig::quick()
        };
        ReproContext::from_dataset(ds, cfg, 0)
    } else {
        let mode = match w {
            Workload::MetroSpill => DataMode::Chunked(chunk_config()),
            _ => DataMode::InMemory,
        };
        let cfg = w.sim_config(w.faulted());
        let ((ctx, _), _) = spans.time("replay.build", || {
            ReproContext::build_timed_with_mode(w.scale(), seed, cfg.faults, mode)
        });
        ctx
    };
    let cpu0 = process_cpu_s()?;
    let (built, fanout_s) = spans.time("replay.fanout", || {
        if w == Workload::Ingest {
            ids.iter().map(|id| build(&ctx, id)).collect::<Vec<_>>()
        } else {
            ids.par_iter().map(|id| build(&ctx, id)).collect()
        }
    });
    let fanout_cpu_s = process_cpu_s()? - cpu0;
    let figs: Vec<FigureData> = built
        .into_iter()
        .zip(&ids)
        .map(|(f, id)| f.ok_or_else(|| format!("unknown experiment id {id}")))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    let json_dir = (w != Workload::Ingest).then_some(dir.as_path());
    let (r, _) = spans.time("replay.render", || emit(&figs, &mut out, json_dir));
    r?;
    out.flush().map_err(|e| e.to_string())?;
    drop(ctx);
    let wall_s = spans.exit(top);
    Ok(Replay {
        wall_s,
        fanout_s,
        fanout_cpu_s,
    })
}

/// Merges per-network parts into one dataset, as the in-memory runner does.
fn merge_parts(parts: Vec<Dataset>, cfg: &SimConfig) -> Dataset {
    let mut merged = Dataset {
        probe_horizon_s: cfg.probe_horizon_s,
        client_horizon_s: cfg.client_horizon_s,
        ..Dataset::default()
    };
    for part in parts {
        merged.merge(part);
    }
    merged
}

/// One simulate call of the job's kind: streamed parts for the chunked
/// job, one merged in-memory run otherwise. Returns (dataset, pairs, s).
fn simulate(
    w: Workload,
    campaign: &mesh11_topo::Campaign,
    cfg: &SimConfig,
    spans: &mut Spans,
    name: &str,
) -> (Dataset, usize, f64) {
    let table = shared_success_table(PerModel::default());
    if w == Workload::MetroSpill {
        let mut parts = Vec::new();
        let (stats, s) = spans.time(name, || {
            cfg.stream_campaign_with_table(campaign, table, STREAM_BATCH, |p| parts.push(p))
        });
        (merge_parts(parts, cfg), stats.pairs_simulated, s)
    } else {
        let ((ds, stats), s) = spans.time(name, || {
            cfg.run_campaign_counted_with_table(campaign, table)
        });
        (ds, stats.pairs_simulated, s)
    }
}

/// Pass 2: each layer once, from this thread, on the workload's campaign.
fn attribute(
    w: Workload,
    seed: u64,
    work: &Path,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(f64, f64), String> {
    let top = spans.enter("attribution");
    let campaign = w.scale().campaign_spec(seed).generate();
    let own = w.faulted();
    let cfg = w.sim_config(own);

    // Simulator: the job's fault plan, then the other one for the delta.
    let (ds, pairs, sim_s) = simulate(w, &campaign, &cfg, spans, "sim.simulate");
    let (other, _, other_s) = simulate(
        w,
        &campaign,
        &w.sim_config(!own),
        spans,
        "sim.simulate_other_faults",
    );
    drop(other);
    m.put("sim.simulate_s", sim_s, "s");
    m.put("sim.pairs", pairs as f64, "count");
    m.put("sim.probe_sets", ds.probes.len() as f64, "count");
    m.put("sim.pairs_per_s", pairs as f64 / sim_s, "1/s");
    m.put(
        "sim.fault_s",
        if own {
            sim_s - other_s
        } else {
            other_s - sim_s
        },
        "s",
    );
    let mut client_cfg = cfg.clone();
    client_cfg.client_horizon_s = client_cfg.client_horizon_s.min(CLIENT_PROBE_MAX_HORIZON_S);
    let specs: Vec<&NetworkSpec> = campaign
        .networks
        .iter()
        .filter(|n| n.has_bg() && n.size() >= CLIENT_PROBE_MIN_APS)
        .take(CLIENT_PROBE_NETWORKS)
        .collect();
    let table = shared_success_table(PerModel::default());
    let (_, client_s) = spans.time("sim.client", || {
        mesh11_sim::simulate_client_probes_batch(&specs, &client_cfg, table)
    });
    m.put("sim.client_s", client_s, "s");

    // Dataset codec and the in-memory index.
    let file = work.join("traced.m11t");
    let (r, save_s) = spans.time("trace.save", || mesh11_trace::codec::save(&ds, &file));
    r.map_err(|e| format!("save {}: {e}", file.display()))?;
    let file_mib = std::fs::metadata(&file).map_err(|e| e.to_string())?.len() as f64 / MIB;
    let (loaded, load_s) = spans.time("trace.load", || mesh11_trace::codec::load(&file));
    let loaded = loaded.map_err(|e| format!("load {}: {e}", file.display()))?;
    std::fs::remove_file(&file).map_err(|e| e.to_string())?;
    let (violations, validate_s) = spans.time("trace.validate", || loaded.validate(16));
    if let Some(v) = violations.first() {
        return Err(format!("reloaded dataset fails validation: {v}"));
    }
    let (_, index_s) = spans.time("trace.index", || DatasetIndex::build(&loaded));
    drop(loaded);
    m.put("trace.save_s", save_s, "s");
    m.put("trace.file_mib", file_mib, "MiB");
    m.put("trace.load_s", load_s, "s");
    m.put("trace.load_mib_per_s", file_mib / load_s, "MiB/s");
    m.put("trace.validate_s", validate_s, "s");
    m.put("trace.index_s", index_s, "s");

    // Chunk store: per-network parts in, spill, then every window once.
    let (parts, _) = spans.time("harness.split_networks", || {
        ds.networks
            .iter()
            .map(|meta| Dataset {
                networks: vec![meta.clone()],
                probes: ds.probes_for_network(meta.id).cloned().collect(),
                clients: ds.clients_for_network(meta.id).cloned().collect(),
                probe_horizon_s: ds.probe_horizon_s,
                client_horizon_s: ds.client_horizon_s,
            })
            .collect::<Vec<_>>()
    });
    let mut builder = ChunkedDatasetBuilder::new(chunk_config());
    let add = spans.enter("trace.chunk_add");
    for part in parts {
        builder.add(part).map_err(|e| format!("chunk add: {e}"))?;
    }
    let add_s = spans.exit(add);
    let (chunked, finish_s) = spans.time("trace.chunk_finish", || builder.finish());
    let chunked = chunked.map_err(|e| format!("chunk finish: {e}"))?;
    let before = chunked.stats();
    let (_, window_s) = spans.time("trace.window", || {
        for i in 0..chunked.n_windows() {
            drop(chunked.window(i));
        }
    });
    chunked.prefetch_quiesce();
    let after = chunked.stats();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let decodes = after.chunk_decodes - before.chunk_decodes;
    let hits = after.chunk_hits - before.chunk_hits;
    let pf_hits = after.prefetch_hits - before.prefetch_hits;
    let pf_wasted = after.prefetch_wasted - before.prefetch_wasted;
    m.put("trace.chunk_add_s", add_s, "s");
    m.put("trace.chunk_finish_s", finish_s, "s");
    m.put(
        "trace.spill_mib",
        after.spill_encoded_bytes as f64 / MIB,
        "MiB",
    );
    m.put(
        "trace.spill_ratio",
        ratio(after.spill_encoded_bytes, after.spill_raw_bytes),
        "ratio",
    );
    m.put("trace.window_s", window_s, "s");
    m.put(
        "trace.window_builds",
        (after.window_builds - before.window_builds) as f64,
        "count",
    );
    m.put(
        "trace.decode_s",
        (after.decode_ns - before.decode_ns) as f64 / 1e9,
        "s",
    );
    m.put("trace.chunk_decodes", decodes as f64, "count");
    m.put("trace.chunk_hit_frac", ratio(hits, hits + decodes), "ratio");
    m.put("trace.prefetch_hits", pf_hits as f64, "count");
    m.put("trace.prefetch_wasted", pf_wasted as f64, "count");
    m.put(
        "trace.prefetch_useful_frac",
        ratio(pf_hits, pf_hits + pf_wasted),
        "ratio",
    );
    m.put(
        "trace.peak_pinned_mib",
        after.peak_pinned_bytes as f64 / MIB,
        "MiB",
    );
    drop(chunked);

    // Analysis kernels: one accessor each on a resident context.
    let ctx = ReproContext::from_dataset(ds, cfg.clone(), seed);
    spans.time("harness.index", || {
        ctx.index();
    });
    let mut core = |name: &str, f: &dyn Fn()| {
        let (_, s) = spans.time(name, f);
        m.put(format!("{name}_s"), s, "s");
    };
    core("core.lookup", &|| {
        for scope in Scope::ALL {
            for phy in [Phy::Bg, Phy::Ht] {
                std::hint::black_box(ctx.lookup_tables(scope, phy));
            }
        }
    });
    core("core.strategy", &|| {
        std::hint::black_box(ctx.strategy_evals_bg());
    });
    core("core.penalty", &|| {
        for scope in Scope::ALL {
            for phy in [Phy::Bg, Phy::Ht] {
                std::hint::black_box(ctx.penalty(scope, phy));
            }
        }
    });
    core("core.curves", &|| {
        for phy in [Phy::Bg, Phy::Ht] {
            std::hint::black_box(ctx.snr_curves(phy));
        }
    });
    core("core.sigmas", &|| {
        std::hint::black_box(ctx.snr_sigmas());
    });
    core("core.asymmetry", &|| {
        std::hint::black_box(ctx.asymmetry_bg());
    });
    core("core.adapt", &|| {
        std::hint::black_box(ctx.adapters_ext());
    });
    core("core.sweep", &|| {
        std::hint::black_box(ctx.sweep_ext());
    });
    core("core.stability", &|| {
        std::hint::black_box(ctx.stability_bg());
    });
    core("core.diversity", &|| {
        std::hint::black_box(ctx.diversity_ext());
    });
    core("core.ett", &|| {
        std::hint::black_box(ctx.ett_bg());
    });
    core("core.cap", &|| {
        std::hint::black_box(ctx.cap_ext());
    });
    core("core.routing", &|| {
        std::hint::black_box(ctx.routing_bg());
    });
    core("core.triples", &|| {
        std::hint::black_box(ctx.triples_bg());
    });
    core("core.ranges", &|| {
        std::hint::black_box(ctx.ranges_bg());
    });
    core("core.mobility", &|| {
        std::hint::black_box(ctx.mobility());
    });

    // Figure builders with every cache warm, then the renderers.
    let job_ids = w.ids();
    let mut figures_s = 0.0;
    let mut figs = Vec::new();
    for id in ALL_IDS {
        let (built, s) = spans.time(&format!("bench.fig.{id}"), || build(&ctx, id));
        figs.extend(built.ok_or_else(|| format!("unknown experiment id {id}"))?);
        m.put(format!("bench.fig.{id}_s"), s, "s");
        if job_ids.contains(id) {
            figures_s += s;
        }
    }
    spans.time("harness.drop_context", || drop(ctx));
    let (json_bytes, render_s) = spans.time("report.render", || {
        figs.iter()
            .map(|f| {
                std::hint::black_box(f.render_table(TABLE_ROWS));
                f.to_json().len()
            })
            .sum::<usize>()
    });
    m.put("bench.figures_s", figures_s, "s");
    m.put("report.render_s", render_s, "s");
    m.put("report.json_bytes", json_bytes as f64, "bytes");

    // The window-major pass: the first accessor on a fresh chunked context.
    let ((ctx, _), _) = spans.time("harness.chunked_build", || {
        ReproContext::build_timed_with_mode(
            w.scale(),
            seed,
            cfg.faults.clone(),
            DataMode::Chunked(chunk_config()),
        )
    });
    let (_, fused_s) = spans.time("bench.fused", || {
        std::hint::black_box(ctx.routing_bg());
    });
    m.put("bench.fused_s", fused_s, "s");
    spans.exit(top);
    Ok((fused_s, figures_s))
}

struct Args {
    workload: Workload,
    seed: u64,
    work: PathBuf,
    untraced_total_s: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut work = None;
    let mut untraced_total_s = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--work" => work = Some(PathBuf::from(value()?)),
            "--untraced-total-s" => {
                let v: f64 = value()?.parse().map_err(|e| format!("bad total: {e}"))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err("--untraced-total-s must be positive".into());
                }
                untraced_total_s = Some(v);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        work: work.ok_or("--work is required")?,
        untraced_total_s: untraced_total_s.ok_or("--untraced-total-s is required")?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mut spans = Spans::new();
    let mut m = Metrics::default();
    let replay = replay(args.workload, args.seed, &args.work, &mut spans)?;
    let (fused_s, figures_s) = attribute(args.workload, args.seed, &args.work, &mut spans, &mut m)?;
    m.put("bench.fanout_s", replay.fanout_s, "s");
    m.put(
        "bench.fanout_par_eff",
        replay.fanout_cpu_s / (THREADS as f64 * replay.fanout_s),
        "ratio",
    );
    m.put(
        "bench.fanout_wait_s",
        replay.fanout_s - (fused_s + figures_s),
        "s",
    );
    m.put(
        "harness.overhead_frac",
        replay.wall_s / args.untraced_total_s - 1.0,
        "ratio",
    );
    eprint!("{}", spans.render());
    m.to_json()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mesh11-tracer: {e}");
            std::process::exit(2);
        }
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("the vendored pool builder never fails");
    match pool.install(|| run(&args)) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("mesh11-tracer: {e}");
            std::process::exit(1);
        }
    }
}
