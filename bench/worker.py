"""One workload process, started by run.py; prints one JSON line.

    python3 bench/worker.py <setup|timed|trace> <workload> <seed> <seconds> <size> <t0> <workdir>

`t0` is the parent's time.monotonic() taken just before this process was
started, so set-up time covers interpreter start, `import sparsebounds` and
building the inputs.  Modes:

  setup  build the inputs and report the set-up time only;
  timed  then run whole rounds of the operations, untraced, until `seconds`
         have passed, timing the calibration kernel between operations, and
         check every output;
  trace  build the inputs under the tracer, run one untraced and one traced
         round, and report the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# One core for this process and the processes it starts, so that the
# calibration kernel and the operations it scales run on the same core.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import sparsebounds as sb  # noqa: E402

if Path(sb.__file__).resolve().parent != SRC / "sparsebounds":
    sys.exit(f"imported sparsebounds from {sb.__file__}, not from {SRC}")

import workloads  # noqa: E402

IMPORT_PROBES = 5


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc):
        self.exc = exc


def run_op(op):
    start = time.perf_counter()
    try:
        output = op.call()
    except Exception as exc:  # the failure is counted and checked, not fatal
        output = Raised(exc)
    elapsed = time.perf_counter() - start
    if op.keep is not None and not isinstance(output, Raised):
        output = op.keep(output)
    return elapsed, output


def check_all(ops, outputs) -> dict:
    """outputs: [(op index, output)].  A failed operation is one whose output
    fails its checks; `correct` holds when only known faults failed."""
    failed, correct, problems = 0, True, []
    for index, output in outputs:
        op = ops[index]
        if isinstance(output, Raised):
            found = [f"raised {type(output.exc).__name__}: {output.exc}"]
        else:
            found = workloads.problems_of(op, output)
        if found:
            failed += 1
            correct = correct and bool(op.known_fault)
            if len(problems) < 20:
                tag = f" [known fault: {op.known_fault}]" if op.known_fault else ""
                problems.append(f"{op.name}{tag}: {'; '.join(found)}")
    return {"attempted": len(outputs), "failed": failed, "correct": correct,
            "problems": problems}


class Calibration:
    """Kernels of the benchmark's own code, timed between operations to
    follow the host's speed, which drifts by tens of percent over seconds
    on a shared machine.  `measure()` returns the kernel's time over its
    time on the reference host, and run.py divides every time by it.

    Work of different kinds slows down differently, so there are two
    kernels.  `interpreter` (numpy calls on tiny arrays, tuple and dict
    churn) follows interpreter-bound work: the oracle's pattern loop, the
    per-call certificate overhead and interpreter start-up.  `linalg`
    (complex SVDs, a pass over 8 MB) follows LAPACK-bound work."""

    REFERENCE_S = {"interpreter": 0.006, "linalg": 0.008}

    def __init__(self, kind: str):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._reference = self.REFERENCE_S[kind]
        self._kernel = getattr(self, "_" + kind)
        if kind == "interpreter":
            self._tiny = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            self._pair = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        else:
            self._small = [rng.standard_normal((14, 8)) + 1j * rng.standard_normal((14, 8))
                           for _ in range(40)]
            self._mid = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
            self._stream = rng.standard_normal(1 << 20)

    def measure(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - start) / self._reference

    def _interpreter(self):
        np, a, (f, t) = self._np, self._tiny, self._pair
        for i in range(150):
            b = np.vstack([np.delete(a, [i % 9], axis=0), a[:2]])
            np.abs(b).max()
            np.einsum("jd,dj->j", f, t)
            np.argsort(-np.abs(b[0]), kind="stable")
            np.count_nonzero(np.abs(b[1]) > 1e-9)
        for _ in range(6):
            acc = {}
            for c in itertools.combinations(range(16), 3):
                key = tuple(sorted(c, reverse=True))
                acc[key] = acc.get(key, 0) + len(str(key))

    def _linalg(self):
        svd = self._np.linalg.svd
        for m in self._small:
            svd(m)
        x = 0
        for i in range(20000):
            x += i * i
        svd(self._mid)
        for _ in range(4):
            self._stream.sum()


# The kernel that follows each workload's operations (measured: the spread
# of scaled times over runs was lowest with these).
KERNEL = {"oracle_search": "interpreter", "certify_batch": "interpreter",
          "certify_large": "linalg", "cli": "interpreter"}


def timed(ops, seconds: float, calibration: Calibration) -> dict:
    """Whole rounds until `seconds` have passed; slowdown[i] and
    slowdown[i + 1] bracket operation i."""
    durations, rounds, outputs = [], 0, []
    slowdown = [calibration.measure()]
    phase_start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            elapsed, output = run_op(op)
            slowdown.append(calibration.measure())
            durations.append(elapsed)
            outputs.append((index, output))
        rounds += 1
        if time.perf_counter() - phase_start >= seconds:
            break
    result = check_all(ops, outputs)
    result.update(durations=durations, slowdown=slowdown, rounds=rounds, ops_per_round=len(ops))
    return result


def fresh_process_seconds(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(), check=True,
                   timeout=60)
    return time.perf_counter() - start


def import_probes() -> dict:
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(fresh_process_seconds("pass"))
        loaded.append(fresh_process_seconds("import sparsebounds"))
    start = statistics.median(bare)
    return {"cli.python_start_s": start, "cli.import_s": statistics.median(loaded) - start}


def trace(name, seed, size, workdir) -> dict:
    import sparsebounds.cli  # noqa: F401  (so the cli layer can be wrapped)
    from tracer import Tracer

    counts = {"patterns": 0, "bytes_out": 0, "bisystems": 0}
    alive = {}

    def on_search(args, kwargs, report):
        counts["patterns"] += report.patterns_searched

    def on_profile(args, kwargs, result):
        bisystem = args[0] if args else kwargs["bisystem"]
        key = id(bisystem)
        if key not in alive:
            counts["bisystems"] += 1
            alive[key] = weakref.ref(bisystem, lambda _, key=key: alive.pop(key, None))

    def on_json(args, kwargs, text):
        counts["bytes_out"] += len(text.encode())

    tracer = Tracer({"oracle.min_sparsity_product": on_search,
                     "coherence.coherence_profile": on_profile,
                     "serialization.canonical_json": on_json})
    tracer.install()
    try:
        ops = workloads.build(name, sb, seed, size, workdir, in_process=True)
    finally:
        tracer.uninstall()

    def one_round():
        start = time.perf_counter()
        outputs = [(i, run_op(op)[1]) for i, op in enumerate(ops)]
        return time.perf_counter() - start, outputs

    untraced_s, untraced_out = one_round()
    tracer.install()
    try:
        traced_s, traced_out = one_round()
    finally:
        tracer.uninstall()
    result = check_all(ops, traced_out)
    untraced = check_all(ops, untraced_out)
    result["correct"] = result["correct"] and untraced["correct"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{name}-seed{seed}.txt"
    tracer.write(trace_path)

    calls = tracer.calls
    patterns = counts["patterns"]
    profiles = calls("coherence.coherence_profile")
    metrics = {
        "admissible.self_s": (tracer.self_time("admissible"), "s"),
        "admissible.null_space_basis.calls": (calls("admissible.null_space_basis"), "count"),
        "admissible.null_space_basis.self_s": (tracer.self_time("admissible.null_space_basis"), "s"),
        "oracle.self_s": (tracer.self_time("oracle"), "s"),
        "oracle.patterns_searched": (patterns, "count"),
        "oracle.svd_per_pattern": (
            tracer.calls_under("admissible.null_space_basis", "oracle.min_sparsity_product")
            / patterns if patterns else 0.0, "ratio"),
        "coherence.self_s": (tracer.self_time("coherence"), "s"),
        "coherence.coherence_profile.calls": (profiles, "count"),
        "coherence.profiles_per_bisystem": (
            profiles / counts["bisystems"] if counts["bisystems"] else 0.0, "ratio"),
        "systems.self_s": (tracer.self_time("systems"), "s"),
        "systems.validate_pairing.calls": (calls("systems.validate_pairing"), "count"),
        "bounds.self_s": (tracer.self_time("bounds"), "s"),
        "bounds.fixedpoint_residuals.calls": (calls("bounds.fixedpoint_residuals"), "count"),
        "bounds.certificates": (calls("bounds.verify_fkdb") + calls("bounds.verify_fskpb"), "count"),
        "sparsity.self_s": (tracer.self_time("sparsity"), "s"),
        "sparsity.best_set.calls": (calls("sparsity.best_set"), "count"),
        "sparsity.concentration_epsilon.calls": (calls("sparsity.concentration_epsilon"), "count"),
        "dft.self_s": (tracer.self_time("dft"), "s"),
        "dft.forward.self_s": (tracer.self_time("dft.forward"), "s"),
        "dft.dft_matrix.self_s": (tracer.self_time("dft.dft_matrix"), "s"),
        "cli.self_s": (tracer.self_time("cli"), "s"),
        "serialization.self_s": (tracer.self_time("serialization"), "s"),
        "serialization.canonical_json.calls": (calls("serialization.canonical_json"), "count"),
        "serialization.bytes_out": (counts["bytes_out"], "bytes"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    metrics.update({k: (v, "s") for k, v in import_probes().items()})
    result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  trace_file=str(trace_path.relative_to(ROOT)),
                  untraced_round_s=untraced_s, traced_round_s=traced_s)
    return result


def main(argv) -> int:
    mode, name, seed, seconds, size, t0, workdir = argv
    seed, seconds, t0, workdir = int(seed), float(seconds), float(t0), Path(workdir)
    if mode == "trace":
        result = trace(name, seed, size, workdir)
    else:
        ops = workloads.build(name, sb, seed, size, workdir, in_process=False)
        result = {"setup_s": time.monotonic() - t0}
        # Set-up is interpreter start and imports.  The first measurement
        # pays for cold caches; the host speed is the median of the next four.
        calibration = Calibration("interpreter")
        result["setup_slowdown"] = statistics.median([calibration.measure() for _ in range(5)][1:])
        if mode == "timed":
            result.update(timed(ops, seconds, Calibration(KERNEL[name])))
            who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
