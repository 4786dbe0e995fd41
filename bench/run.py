"""Benchmark of sparsebounds: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload oracle_search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --seed 1 --repeat 10
    python3 bench/run.py --workload certify_large --seed 1 --size smoke

Runs from the root of a source checkout and imports the program from
`src/`.  With `--trace 0` it measures the end-to-end metrics with tracing
off; with `--trace 1` it makes a separate traced run for the per-layer
metrics.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--repeat N` runs N seeds,
starting at `--seed`, and reports the median and quartiles of each metric.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is measured in this many extra fresh processes besides the timed one.
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170


def spec(kind: str) -> dict:
    """The entries of one list in BENCHMARK.json, by name."""
    return {e["name"]: e for e in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SPARSEBOUNDS_SEED", None)
    # One caller, no threads: pin the BLAS pool to one thread.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_worker(mode: str, args, workdir: Path) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
         str(args.seconds), args.size, repr(t0), str(workdir)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, workdir: Path) -> dict:
    setups = [run_worker("setup", args, workdir) for _ in range(SETUP_PROBES)]
    result = run_worker("timed", args, workdir)
    setups.append(result)
    n, durations, slow = result["ops_per_round"], result["durations"], result["slowdown"]
    # Every time is scaled to the reference host (worker.Calibration):
    # operation i by the mean slowdown of the two calibrations that bracket
    # it, a set-up time by the slowdown measured in its own process.
    scaled = [t * 2 / (slow[i] + slow[i + 1]) for i, t in enumerate(durations)]
    rounds = [scaled[k:k + n] for k in range(0, len(scaled), n)]
    values = {
        "setup_s": statistics.median(s["setup_s"] / s["setup_slowdown"] for s in setups),
        "ops_per_s": n / statistics.median(sum(r) for r in rounds),
        "op_p50_ms": 1000 * statistics.median(statistics.median(r) for r in rounds),
        "op_p90_ms": 1000 * statistics.median(
            statistics.quantiles(r, n=10, method="inclusive")[8] for r in rounds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_rounds = [durations[k:k + n] for k in range(0, len(durations), n)]
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds of {n} ops; unscaled: "
          f"ops_per_s {n / statistics.median(sum(r) for r in raw_rounds):.4g}, "
          f"op_p50_ms {1000 * statistics.median(statistics.median(r) for r in raw_rounds):.4g}, "
          f"setup_s {statistics.median(s['setup_s'] for s in setups):.4g}; host slowdown "
          f"median {statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}")
    result["metrics"] = {k: {"value": values[k], "unit": m["unit"]}
                         for k, m in spec("end_to_end").items()}
    return result


def traced(args, workdir: Path) -> dict:
    result = run_worker("trace", args, workdir)
    print(f"# {args.workload} seed={args.seed}: traced round {result['traced_round_s']:.3f} s, "
          f"untraced {result['untraced_round_s']:.3f} s; spans in {result['trace_file']}")
    for name, m in result["metrics"].items():
        print(f"#   {name:40s} {m['value']:>14.6g} {m['unit']}")
    # The JSON line carries the per-layer metrics of BENCHMARK.json.  The
    # table above also shows self times that read 0 on every run of a
    # workload that never calls their layer (see README.md).
    result["metrics"] = {k: result["metrics"][k] for k in spec("per_layer")}
    return result


def single(args) -> dict:
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        result = traced(args, workdir) if args.trace else end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"# failed: {problem}")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def repeat(args) -> dict:
    """Run `args.repeat` seeds and report each metric's median and quartiles;
    `spread` is the interquartile distance as a share of the median."""
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"run with seed {seed} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(l for l in lines[:-1] if not l.startswith("# failed")))
        run = json.loads(lines[-1])
        runs.append(run)
        print(f"# seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in run["metrics"].items()),
              flush=True)
    summary = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"# {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    return {"workload": args.workload, "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec("workloads")))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sparsebounds" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'sparsebounds'}", file=sys.stderr)
        return 2
    print(json.dumps(repeat(args) if args.repeat else single(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
