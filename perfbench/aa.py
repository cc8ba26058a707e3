#!/usr/bin/env python3
"""A/A steadiness check: two sets of benchmark runs of one build.

    python3 perfbench/aa.py [--rounds 10] [--seconds 20]
        [--workloads campaign,ingest,metro-spill] [--json FILE]

Round r runs every workload once per set on seed r+1, so both sets see
the same inputs; the order of the two sets alternates between rounds, and
workloads interleave within a round. For every end-to-end metric of every
workload it prints each set's median, quartiles and n, the spread (IQR
over median), the gap between the medians, and pass or fail against the
metric's bound in BENCHMARK.json: a set passes when its spread is within
the bound (not checked for `setup_s`), and the pair passes when set B's
median is not worse than set A's by more than the bound.

The first lines describe the host (`nproc`, CPU model, kernel). `--json`
also writes every run's result line and the summary to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "kernel": platform.release()}


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    if args.rounds < 2:
        raise SystemExit("--rounds must be at least 2")
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    runs = {(w, s): [] for w in workloads for s in "AB"}
    for r in range(args.rounds):
        order = "AB" if r % 2 == 0 else "BA"
        for w in workloads:
            for s in order:
                res = one_run(w, r + 1, args.seconds)
                runs[(w, s)].append(res)
                print(f"# round {r + 1} {w} set {s}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    h = host()
    print(f"host: nproc={h['nproc']} cpu={h['cpu']!r} kernel={h['kernel']}")
    print(f"rounds={args.rounds} seconds={args.seconds} (seeds 1..{args.rounds}, same in both sets)")
    summary, all_pass = [], True
    for w in workloads:
        attempted = sum(r["attempted"] for s in "AB" for r in runs[(w, s)])
        failed = sum(r["failed"] for s in "AB" for r in runs[(w, s)])
        print(f"\n{w}: ops attempted {attempted}, failed {failed}")
        print(f"  {'metric':13} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} {'spread':>7}"
              f"  {'gap':>7} {'bound':>6} verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = {s: stats([r["metrics"][name]["value"] for r in runs[(w, s)]]) for s in "AB"}
            a, b = sets["A"], sets["B"]
            gap = (b["median"] - a["median"]) / a["median"]
            worse = gap if m["better"] == "lower" else -gap
            ok = worse <= bound and (name == "setup_s"
                                     or all(x["spread"] <= bound for x in (a, b)))
            all_pass &= ok and failed == 0
            for s, x in sets.items():
                tail = f"  {gap:+7.2%} {bound:6.2f} {'pass' if ok else 'FAIL'}" if s == "B" else ""
                print(f"  {name:13} {s:3} {x['median']:10.4f} {x['q1']:10.4f} {x['q3']:10.4f}"
                      f" {x['n']:3} {x['spread']:7.2%}{tail}")
            summary.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                            "A": a, "B": b, "gap": gap, "pass": ok})
    print(f"\nA/A verdict: {'pass' if all_pass else 'FAIL'}")
    if args.json:
        args.json.write_text(json.dumps({
            "host": h, "rounds": args.rounds, "seconds": args.seconds, "pass": all_pass,
            "summary": summary,
            "runs": {f"{w}/{s}": v for (w, s), v in runs.items()},
        }, indent=1) + "\n")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
