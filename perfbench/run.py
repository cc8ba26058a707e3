#!/usr/bin/env python3
"""End-to-end benchmark of the mesh11 reproduction pipeline.

    python3 perfbench/run.py --workload campaign|ingest|metro-spill \
        [--seed N] [--seconds S] [--trace 0|1]

Every job is the workload's real user command (`repro` or `mesh11`), run
as a fresh child process, one at a time, at 2 threads. All end-to-end
numbers are taken from outside that process: wall time from spawn to exit,
CPU time and peak RSS from the child's own rusage (`wait4`). The program's
self-reported timing JSON is never read.

A run first does the workload's set-up (``SETUP_REPS`` times; `setup_s` is
the median), then runs timed jobs back to back until ``--seconds`` have
passed (at least ``MIN_JOBS``), and reports each metric's median. Every job's
outputs are digested; the digests must agree across the run and, for the
default seed, with ``reference_digests.json``. A job that exits non-zero,
misses a figure, mismatches a digest or times out is a failed op.

With ``--trace 1`` one set-up pass and one untraced job run first, then
the traced harness (``perfbench/tracer``, a separate cargo package) replays
the job in-process and attributes time to each layer. Its metrics replace
the end-to-end ones on the result line.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Human-readable detail (quartiles, n, failures) goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 42
THREADS = 2
# At least this many timed jobs per run, however long they take.
MIN_JOBS = 3
JOB_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 120.0
SETUP_REPS = 2
REFERENCE = HERE / "reference_digests.json"
# Seeds whose campaigns simulate the default seed's pair counts per radio
# (see tracer/src/bin/seedpool.rs). `--seed` picks one of them, so runs on
# different seeds vary the inputs but not the ensemble size.
SEED_POOL = HERE / "seed_pool.json"

# One entry per workload. `job` builds the argv from the binaries, the
# campaign seed and the job's output directory; `env` is added to the
# child's environment; `setup` is a cold warm-up job or the dataset write.
WORKLOADS = {
    # Standard ensemble under the demo fault plan; two cheap figures, so
    # the job is ~98 % simulation (fault timelines, merge, client pass).
    "campaign": {
        "scale": "standard",
        "setup": "warmup",
        "job": lambda b, seed, out: [
            b["repro"], "--scale", "standard", "--faults", "--threads", str(THREADS),
            "--seed", str(seed), "--out", str(out), "--bench-json", str(out / "bench.json"),
            "fig1-1", "ext-client",
        ],
    },
    # Decode a saved standard dataset and build every figure from it: no
    # simulator, no chunk store. The set-up writes the dataset.
    "ingest": {
        "scale": "standard",
        "setup": "simulate",
        "job": lambda b, seed, out: [b["mesh11"], "figures", str(out.parent / "ingest.m11t"), "--all"],
        "env": {"RAYON_NUM_THREADS": str(THREADS)},
    },
    # Metro-2 (220 networks) streamed into a 4-chunk store: the only
    # workload through spill, the codec, the prefetcher and the fused pass.
    "metro-spill": {
        "scale": "metro-2",
        "setup": "warmup",
        "job": lambda b, seed, out: [
            b["repro"], "--scale", "metro", "--metro-factor", "2", "--threads", str(THREADS),
            "--chunk-budget", "4", "--seed", str(seed), "--all",
            "--out", str(out), "--bench-json", str(out / "bench.json"),
        ],
    },
}

END_TO_END_UNITS = {"total_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def program_seed(workload, seed):
    """The campaign seed a benchmark seed runs: itself when it is in the
    workload's pool, otherwise the pool entry it indexes."""
    pool = json.loads(SEED_POOL.read_text())[WORKLOADS[workload]["scale"]]["seeds"]
    return seed if seed in pool else pool[seed % len(pool)]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def cargo_build(args, what):
    """Runs one offline release build; returns True on success."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"# build of {what} failed: {e}")
        return False
    if r.returncode != 0:
        log(f"# build of {what} failed:\n" + "\n".join(r.stderr.splitlines()[-20:]))
        return False
    return True


def build_program():
    """Builds `repro` and `mesh11` from the checkout; None if impossible."""
    if not (ROOT / "Cargo.toml").is_file():
        log(f"# no cargo workspace at {ROOT}; nothing to benchmark")
        return None
    if not cargo_build(["-p", "mesh11-bench", "--bin", "repro",
                        "-p", "mesh11-cli", "--bin", "mesh11"], "mesh11"):
        return None
    rel = target_dir() / "release"
    bins = {"repro": rel / "repro", "mesh11": rel / "mesh11"}
    if not all(p.is_file() for p in bins.values()):
        log("# build finished but binaries are missing")
        return None
    return {k: str(v) for k, v in bins.items()}


def build_tracer():
    """Builds the traced harness; None when it does not build (for example
    after a public function it calls was removed), which only makes the
    per-layer metrics unavailable."""
    manifest = HERE / "tracer" / "Cargo.toml"
    if not cargo_build(["--manifest-path", str(manifest)], "tracer"):
        return None
    path = target_dir() / "release" / "mesh11-tracer"
    return str(path) if path.is_file() else None


def child_env(extra=None):
    # Spill files go to the system temp dir; keep them inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    env.pop("RAYON_NUM_THREADS", None)
    env.update(extra or {})
    return env


def spawn(cmd, env, cwd, stdout_path, stderr_path, timeout):
    """Runs one child to completion. Returns (status, wall_s, cpu_s,
    maxrss_mib, timed_out); the resource figures come from wait4."""
    killed = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, killed.is_set()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_outputs(workload, out_dir, stdout_path):
    """Per-file digests of what one job produced: the figure JSONs for
    `repro` (not its timing files), the rendered tables for `mesh11`."""
    if workload == "ingest":
        return {"stdout": sha256_file(stdout_path)}
    return {p.name: sha256_file(p) for p in sorted(out_dir.glob("*.json"))
            if p.name not in ("bench.json", "bench_timings.json")}


def tail(path, n=15):
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-n:])
    except OSError:
        return "(no stderr)"


class Run:
    """One benchmark run's ops, their figures and the output check."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        # Per output kind ("files" of a job, "dataset" of the ingest
        # set-up): the first op's digests, which every later op must match.
        self.first = {}
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = ref.get(workload, {})

    def fail(self, cmd, why, stderr_path):
        self.failed += 1
        log(f"# FAILED op ({why}): {' '.join(cmd)}\n# stderr tail:\n{tail(stderr_path)}")

    def check(self, kind, files):
        """The output check for one op; returns a failure reason or None."""
        ref_files = self.reference.get(kind, {})
        missing = sorted(set(ref_files) - set(files))
        if missing:
            return f"missing outputs {missing}"
        if not files:
            return "no outputs"
        first = self.first.setdefault(kind, files)
        if files != first:
            diff = sorted(k for k in files if files.get(k) != first.get(k))
            return f"outputs differ from the run's first op: {diff}"
        if self.seed == self.reference.get("seed"):
            diff = sorted(k for k in ref_files if ref_files[k] != files.get(k))
            if diff:
                return f"digest mismatch against reference: {diff}"
        return None

    def op(self, cmd, tag, kind, outputs, env=None):
        """Runs one op and checks the digests `outputs(stdout_path)` gives.
        Returns (wall, cpu, rss) or None if it failed."""
        self.attempted += 1
        stdout_path, stderr_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        status, wall, cpu, rss, timed_out = spawn(
            cmd, child_env(env), WORK, stdout_path, stderr_path, JOB_TIMEOUT_S)
        why = None
        if timed_out:
            why = f"timeout after {JOB_TIMEOUT_S:.0f} s"
        elif status != 0:
            why = f"exit status {status}"
        else:
            why = self.check(kind, outputs(stdout_path))
        if why:
            self.fail(cmd, why, stderr_path)
            return None
        return wall, cpu, rss

    def job(self, bins, tag):
        out = WORK / f"out-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = self.spec["job"](bins, self.seed, out)
        r = self.op(cmd, tag, "files", lambda so: digest_outputs(self.workload, out, so),
                    self.spec.get("env"))
        shutil.rmtree(out, ignore_errors=True)
        return r

    def setup(self, bins, rep):
        """One set-up pass: the dataset write for `ingest`, an untimed cold
        job for the `repro` workloads. Returns its wall seconds or None."""
        if self.spec["setup"] == "warmup":
            r = self.job(bins, f"setup{rep}")
        else:
            dataset = WORK / "ingest.m11t"
            dataset.unlink(missing_ok=True)
            cmd = [bins["mesh11"], "simulate", "--scale", "standard", "--seed", str(self.seed),
                   "--out", str(dataset)]
            r = self.op(cmd, f"setup{rep}", "dataset",
                        lambda _: {dataset.name: sha256_file(dataset)} if dataset.is_file() else {})
        return r and r[0]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, seed, seconds, bins, setup_reps=SETUP_REPS, min_jobs=MIN_JOBS):
    """The untraced run: set-up, then timed jobs. Returns (run, samples)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    run = Run(workload, seed)
    samples = {k: [] for k in END_TO_END_UNITS}
    for rep in range(setup_reps):
        s = run.setup(bins, rep)
        if s is None:
            return run, samples
        samples["setup_s"].append(s)
    t0 = time.perf_counter()
    k = 0
    while k < min_jobs or time.perf_counter() - t0 < seconds:
        r = run.job(bins, f"job{k}")
        k += 1
        if r is None:
            break
        for name, v in zip(("total_s", "cpu_s", "peak_rss_mib"), r):
            samples[name].append(v)
    return run, samples


def summarize(workload, samples):
    metrics = {}
    log(f"# workload {workload}: median [q1, q3] (n)")
    for name, unit in END_TO_END_UNITS.items():
        vals = samples[name]
        q1, med, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        log(f"#   {name:13} {med:10.4f} {unit:4} [{q1:.4f}, {q3:.4f}] (n={len(vals)})")
    return metrics


def per_layer_names():
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        return None
    return [m["name"] for m in json.loads(bench.read_text())["per_layer"]]


def traced(tracer, workload, seed, total_s):
    """Runs the traced harness; returns its metrics or None."""
    cmd = [tracer, "--workload", workload, "--seed", str(seed), "--work", str(WORK),
           "--untraced-total-s", repr(total_s)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=TRACE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"# traced harness timed out after {TRACE_TIMEOUT_S:.0f} s")
        return None
    if r.returncode != 0:
        log(f"# traced harness failed (status {r.returncode}):\n" + "\n".join(r.stderr.splitlines()[-20:]))
        return None
    sys.stderr.write(r.stderr)
    metrics = json.loads(r.stdout.strip().splitlines()[-1])
    names = per_layer_names()
    if names is not None and sorted(names) != sorted(metrics):
        log(f"# traced metrics differ from BENCHMARK.json per_layer: "
            f"missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}")
        return None
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's output digests as the workload's reference")
    args = ap.parse_args()

    bins = build_program()
    if bins is None:
        return 2
    # The traced harness is built by the first run in a checkout, whatever
    # its mode, so no later run pays the compile inside its time limit.
    tracer = build_tracer()
    if args.trace and tracer is None:
        log("# per-layer metrics unavailable: the traced harness does not build")
        return 1
    seed = program_seed(args.workload, args.seed)
    log(f"# workload {args.workload}, seed {args.seed} -> campaign seed {seed}")
    if args.trace:
        # One set-up pass and one untraced job: enough to feed the tracer
        # and to give `harness.overhead_frac` its base.
        run, samples = measure(args.workload, seed, 0, bins, setup_reps=1, min_jobs=1)
    else:
        run, samples = measure(args.workload, seed, args.seconds, bins)
    ok = run.failed == 0 and all(samples.values())
    metrics = summarize(args.workload, samples) if ok else {}
    if ok and args.trace:
        layer = traced(tracer, args.workload, seed, metrics["total_s"]["value"])
        ok = layer is not None
        metrics = layer or {}
    if ok and args.write_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        ref[args.workload] = {"seed": seed, **run.first}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        log(f"# wrote reference digests for {args.workload} (campaign seed {seed})")
    log(f"# ops attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": ok, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
