"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed and returns a list
of operations; one round runs every operation once, in order.  An operation
returns its output and keeps it for checking after the timed phase, so the
checks cost nothing inside the timings.  Every check is computed by
`reference` (plain numpy) or comes from a property the theorem guarantees.

`size="smoke"` shrinks every instance so that a whole round and all of its
checks take a few seconds; the benchmark's own tests use it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# The measured rescaling fault (ROADMAP item 3) that the failed operations show.
RESCALING_FAULT = "absolute eta in sparsity.l0"


@dataclass
class Op:
    """One operation: `call()` returns its output, `check(output)` returns a
    list of problems (empty when the output is correct).  `known_fault`
    names the program fault an operation fails on today, if any."""

    name: str
    call: Callable
    check: Callable
    known_fault: str = ""
    # keep(output) -> what is stored for the check; runs outside the timings.
    keep: Callable = None
    state: dict = field(default_factory=dict)


def problems_of(op: Op, output) -> list:
    try:
        return list(op.check(output))
    except Exception as exc:  # a check that cannot run is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def build(name: str, sb, seed: int, size: str, workdir: Path, in_process: bool = True) -> list:
    rng = np.random.default_rng(seed)
    smoke = size == "smoke"
    if name == "oracle_search":
        return _oracle_search(sb, rng, smoke)
    if name == "certify_batch":
        return _certify_batch(sb, rng, smoke)
    if name == "certify_large":
        return _certify_large(sb, rng, smoke)
    if name == "cli":
        return _cli(sb, rng, smoke, workdir, in_process)
    raise ValueError(f"unknown workload {name!r}")


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _perturbed(base_family, base_params, seed, magnitude) -> tuple:
    return ("perturbed", {"base": {"family": base_family, "params": base_params, "seed": seed},
                          "magnitude": magnitude})


# -- oracle_search ---------------------------------------------------------

def _oracle_search(sb, rng, smoke) -> list:
    dft_ds = (3, 4) if smoke else (6, 7, 8, 9)
    pert_d = 4 if smoke else 8
    unions = ((4, 2), (5, 3)) if smoke else ((8, 5), (10, 3))
    pert_union = (5, 2) if smoke else (8, 4)
    rot_d = 3 if smoke else 5
    eye_d = 3 if smoke else 8
    # (label, family, params, generation seed, known best_lhs or None)
    specs = [(f"dft_pair d={d}", "dft_pair", {"d": d}, 0, d) for d in dft_ds]
    s = _seed(rng)
    specs.append((f"perturbed(dft_pair d={pert_d})",
                  *_perturbed("dft_pair", {"d": pert_d}, s, float(rng.uniform(0.05, 0.3))), s, pert_d))
    for d, split in unions:
        specs.append((f"subspace_union d={d} split={split}", "subspace_union",
                      {"d": d, "split": split}, _seed(rng), None))
    d, split = pert_union
    s = _seed(rng)
    specs.append((f"perturbed(subspace_union d={d} split={split})",
                  *_perturbed("subspace_union", {"d": d, "split": split}, s,
                              float(rng.uniform(0.05, 0.3))), s, None))
    specs.append(("rotated_pair d=2 angle=45", "rotated_pair", {"d": 2, "angle": 45.0}, 0, 2))
    specs.append((f"rotated_pair d={rot_d}", "rotated_pair",
                   {"d": rot_d, "angle": float(rng.uniform(10.0, 80.0))}, 0, 1))
    specs.append((f"identity_pair d={eye_d}", "identity_pair", {"d": eye_d}, 0, 1))

    ops = []
    for label, family, params, gen_seed, expected in specs:
        bisystem = sb.generate(family, params, gen_seed)
        space = sb.admissible_space(bisystem)
        inst = ref.dft_pair(params["d"]) if family == "dft_pair" else ref.Instance.of(bisystem)
        ops.append(Op(
            name=f"min_sparsity_product {label}",
            call=lambda b=bisystem, s=space: sb.min_sparsity_product(b, s),
            check=lambda report, inst=inst, expected=expected: _check_search(report, inst, expected),
        ))
    return ops


def _check_search(report, inst: ref.Instance, expected) -> list:
    out = []
    best = report.best_lhs
    if expected is not None and best != expected:
        out.append(f"best_lhs {best} != {expected}")
    x = np.asarray(report.witness)
    if inst.residual(x) > ref.FIXED_POINT_TOL:
        out.append(f"witness not admissible (residual {inst.residual(x):.3g})")
    s_f, s_g = inst.l0_pair(x)
    if s_f * s_g != best:
        out.append(f"witness l0 product {s_f}*{s_g} != best_lhs {best}")
    lower = ref.bound(s_f, s_g, inst.coherences())
    if best < lower - ref.CERT_TOL:
        out.append(f"best_lhs {best} below the coherence bound {lower:.6g}")
    basis = inst.admissible_basis()
    upper = min(math.prod(inst.l0_pair(basis[:, k])) for k in range(basis.shape[1]))
    if best > upper:
        out.append(f"best_lhs {best} above an admissible basis column's product {upper}")
    return out


# -- certify_batch ---------------------------------------------------------

TRIALS = 50
CONCENTRATED_SUBSAMPLE = 5  # the library default, restated to recompute verdicts


def _certify_batch(sb, rng, smoke) -> list:
    def angle():
        return float(rng.uniform(10.0, 80.0))

    def perturbed(base_family, base_params):
        seed = _seed(rng)
        return (*_perturbed(base_family, base_params, seed, float(rng.uniform(0.05, 0.3))), seed)

    if smoke:
        specs = [("identity_pair", {"d": 3}, 0), ("dft_pair", {"d": 4}, 0),
                 ("rotated_pair", {"d": 3, "angle": angle()}, 0),
                 ("subspace_union", {"d": 5, "split": 2}, _seed(rng)),
                 perturbed("dft_pair", {"d": 4})]
    else:
        specs = [("identity_pair", {"d": 6}, 0),
                 ("dft_pair", {"d": 8}, 0), ("dft_pair", {"d": 16}, 0),
                 ("rotated_pair", {"d": 4, "angle": angle()}, 0),
                 ("rotated_pair", {"d": 10, "angle": angle()}, 0),
                 ("subspace_union", {"d": 12, "split": 4}, _seed(rng)),
                 ("subspace_union", {"d": 16, "split": 6}, _seed(rng)),
                 perturbed("dft_pair", {"d": 12}),
                 perturbed("subspace_union", {"d": 10, "split": 5}),
                 perturbed("rotated_pair", {"d": 8, "angle": angle()})]
    trials = 10 if smoke else TRIALS

    ops = []
    for family, params, gen_seed in specs:
        bisystem = sb.generate(family, params, gen_seed)
        inst = ref.dft_pair(params["d"]) if family == "dft_pair" else ref.Instance.of(bisystem)
        label = family if family != "perturbed" else f"perturbed({params['base']['family']})"
        ops.append(_batch_op(sb, f"{label} d={bisystem.d}", bisystem, inst, trials,
                             _seed(rng), family == "dft_pair"))
    # The measured rescaling fault: every hypothesis holds exactly, so every
    # trial must be satisfied; the absolute eta of sparsity.l0 counts the
    # 1e-10-sized coefficients as zero at c = 1e10.  At c = 1e4 it passes.
    for c, fault in ((1e4, ""), (1e10, RESCALING_FAULT)):
        inst = ref.rescaled_dft_pair(4, c)
        bisystem = sb.BiSystem(sb.PairedSystem(inst.t, inst.f, "complex"),
                               sb.PairedSystem(inst.w, inst.g, "complex"))
        op = _batch_op(sb, f"rescaled dft_pair d=4 c={c:g}", bisystem, inst, trials,
                       _seed(rng), True)
        op.known_fault = fault
        ops.append(op)
    return ops


def _batch_op(sb, label, bisystem, inst, trials, sample_seed, is_dft) -> Op:
    space = sb.admissible_space(bisystem)
    op = Op(name=f"exhaustive_verify {label}",
            call=lambda: sb.exhaustive_verify(bisystem, space, trials, seed=sample_seed),
            check=None)

    def check(summary) -> list:
        if "expected" not in op.state:
            op.state["expected"] = _batch_expectation(inst, space, trials, sample_seed, is_dft)
        expected, out = op.state["expected"], []
        out.extend(expected.get("problems", ()))
        for key in ("trials", "satisfied", "concentrated_checked", "concentrated_satisfied"):
            if getattr(summary, key) != expected[key]:
                out.append(f"{key} {getattr(summary, key)} != recomputed {expected[key]}")
        if summary.satisfied != summary.trials:
            out.append(f"only {summary.satisfied} of {summary.trials} trials satisfied")
        if summary.concentrated_satisfied != summary.concentrated_checked:
            out.append(f"only {summary.concentrated_satisfied} of "
                       f"{summary.concentrated_checked} concentrated checks satisfied")
        return out

    op.check = check
    return op


def _batch_expectation(inst, space, trials, sample_seed, is_dft) -> dict:
    basis = np.asarray(space.basis)
    problems = []
    if basis.shape[1] != inst.admissible_basis().shape[1]:
        problems.append(f"admissible dimension {basis.shape[1]} != "
                        f"{inst.admissible_basis().shape[1]}")
    if is_dft:
        flat = ref.bound(1, 1, inst.coherences())
        if abs(flat - inst.d) > 1e-9 * inst.d:
            problems.append(f"dft_pair bound {flat!r} != d = {inst.d}")
    expected = ref.exhaustive_expectation(inst, basis, trials, sample_seed,
                                          CONCENTRATED_SUBSAMPLE)
    expected["problems"] = problems
    return expected


# -- certify_large ---------------------------------------------------------

def _certify_large(sb, rng, smoke) -> list:
    dims = (16, 24) if smoke else (256, 384, 512)
    ops = []
    for family in ("dft_pair", "perturbed"):
        for d in dims:
            if family == "dft_pair":
                params, gen_seed = {"d": d}, 0
            else:
                _, params = _perturbed("dft_pair", {"d": d}, _seed(rng), float(rng.uniform(0.05, 0.3)))
                gen_seed = _seed(rng)
            divisors = [k for k in range(2, d) if d % k == 0]
            case = {"family": family, "params": params, "gen_seed": gen_seed, "d": d,
                    "sample_seed": _seed(rng),
                    "o_m": int(rng.integers(1, d + 1)), "o_n": int(rng.integers(1, d + 1)),
                    "spacing": int(divisors[int(rng.integers(len(divisors)))])}
            ops.append(Op(name=f"pipeline {family} d={d}",
                          call=lambda c=case: _pipeline(sb, c),
                          check=lambda out, c=case: _check_pipeline(out, c),
                          keep=lambda out, c=case: _keep_pipeline(out, c)))
    return ops


def _keep_pipeline(out, case) -> dict:
    """Drop the d x d bisystem from the stored output; the reference copy of
    its matrices is taken once per case."""
    bisystem = out.pop("bisystem")
    if "inst" not in case:
        case["inst"] = (ref.dft_pair(case["d"]) if case["family"] == "dft_pair"
                        else ref.Instance.of(bisystem))
    return out


def _pipeline(sb, case) -> dict:
    bisystem = sb.generate(case["family"], case["params"], case["gen_seed"])
    space = sb.admissible_space(bisystem)
    x = sb.sample_admissible(space, case["sample_seed"])
    flat = sb.verify_fkdb(bisystem, x)
    set_m = sb.best_set(sb.analysis(bisystem.first, x), case["o_m"]).set
    set_n = sb.best_set(sb.analysis(bisystem.second, x), case["o_n"]).set
    concentrated = sb.verify_fskpb(bisystem, x, set_m, set_n)
    comb = np.zeros(case["d"])
    comb[::case["spacing"]] = 1.0
    return {"bisystem": bisystem, "w": space.w, "x": x, "flat": flat,
            "set_m": set_m, "set_n": set_n, "concentrated": concentrated,
            "ds": sb.ds_product(comb)}


def _check_pipeline(out, case) -> list:
    d, problems = case["d"], []
    x = np.asarray(out["x"])
    inst = case["inst"]
    if out["w"] != d:
        problems.append(f"admissible dimension {out['w']} != d = {d}")
    if inst.residual(x) > ref.FIXED_POINT_TOL:
        problems.append("sampled signal is not admissible")
    flat, co = out["flat"], inst.coherences()
    if case["family"] == "dft_pair":
        if abs(flat.rhs - d) > 1e-9 * d:
            problems.append(f"dft_pair rhs {flat.rhs!r} != d = {d}")
        lhs = ref.l0_vector(x) * ref.l0_vector(np.fft.fft(x, norm="ortho"))
    else:
        lhs = math.prod(inst.l0_pair(x))
        if abs(flat.rhs - ref.bound(*inst.l0_pair(x), co)) > 1e-9 * max(1.0, flat.rhs):
            problems.append(f"rhs {flat.rhs!r} != recomputed bound")
    if flat.lhs != lhs:
        problems.append(f"lhs {flat.lhs} != recomputed l0 product {lhs}")
    if not (flat.hypothesis_ok and flat.satisfied):
        problems.append("flat certificate not satisfied")
    a, b = inst.f @ x, inst.g @ x
    set_m, set_n = out["set_m"], out["set_n"]
    if len(set_m) != case["o_m"] or not ref.top_set_ok(a, set_m):
        problems.append("best_set M is not the largest-magnitude set")
    if len(set_n) != case["o_n"] or not ref.top_set_ok(b, set_n):
        problems.append("best_set N is not the largest-magnitude set")
    conc = out["concentrated"]
    eps, delta = ref.epsilons(a)[case["o_m"] - 1], ref.epsilons(b)[case["o_n"] - 1]
    if abs(conc.epsilon - eps) > 1e-9 or abs(conc.delta - delta) > 1e-9:
        problems.append("concentration defects differ from recomputed ones")
    if conc.lhs != case["o_m"] * case["o_n"]:
        problems.append(f"concentrated lhs {conc.lhs} != |M||N|")
    rhs = ref.bound(case["o_m"], case["o_n"], co, eps, delta)
    if abs(conc.rhs - rhs) > 1e-7 * max(1.0, rhs):
        problems.append(f"concentrated rhs {conc.rhs!r} != recomputed {rhs!r}")
    if not (conc.hypothesis_ok and conc.satisfied):
        problems.append("concentrated certificate not satisfied")
    k = case["spacing"]
    if tuple(out["ds"]) != (d // k, k, d):
        problems.append(f"ds_product of a comb of spacing {k} is {out['ds']}, not {(d // k, k, d)}")
    return problems


# -- cli -------------------------------------------------------------------

def _cli(sb, rng, smoke, workdir: Path, in_process: bool) -> list:
    import sparsebounds.serialization as ser

    workdir.mkdir(parents=True, exist_ok=True)
    small, large = (4, 16) if smoke else (8, 256)
    union_d, union_split = (5, 2) if smoke else (10, 4)
    search_d = 4 if smoke else 6

    union_seed = _seed(rng)
    union = sb.generate("subspace_union", {"d": union_d, "split": union_split}, union_seed)
    (workdir / "union.json").write_text(ser.canonical_json(ser.bisystem_to_dict(union)))
    rotated = sb.generate(*_perturbed("rotated_pair", {"d": 6, "angle": 30.0}, _seed(rng), 0.2))
    (workdir / "system.json").write_text(ser.canonical_json(ser.system_to_dict(rotated.second)))
    rescaled = ref.rescaled_dft_pair(4, 1e10)
    rescaled_bi = sb.BiSystem(sb.PairedSystem(rescaled.t, rescaled.f, "complex"),
                              sb.PairedSystem(rescaled.w, rescaled.g, "complex"))
    (workdir / "rescaled.json").write_text(ser.canonical_json(ser.bisystem_to_dict(rescaled_bi)))

    set_m = sorted(rng.choice(small, size=int(rng.integers(1, small + 1)), replace=False).tolist())
    set_n = sorted(rng.choice(small, size=int(rng.integers(1, small + 1)), replace=False).tolist())
    sample_union, gen_seed = _seed(rng), _seed(rng)
    s = [str(_seed(rng)) for _ in range(3)]
    union_inst = ref.Instance.of(union)
    dft_small, dft_large, dft_search = ref.dft_pair(small), ref.dft_pair(large), ref.dft_pair(search_d)
    cases = [
        (["verify", "--family", "dft_pair", "--d", str(small), "--sample", s[0]],
         lambda doc: _check_verify(doc, dft_small, flat=True)),
        (["verify", "--family", "dft_pair", "--d", str(small), "--sample", s[0],
          "--set-m", ",".join(map(str, set_m)), "--set-n", ",".join(map(str, set_n))],
         lambda doc: _check_verify(doc, dft_small, flat=False)),
        (["search", "--family", "dft_pair", "--d", str(search_d)],
         lambda doc: _check_cli_search(doc, dft_search)),
        (["coherence", "union.json"], lambda doc: _check_coherence(doc, union_inst)),
        (["coherence", "system.json"], lambda doc: _check_system_coherence(doc, workdir)),
        (["validate", "system.json"], lambda doc: _check_validate(doc, workdir)),
        (["sample", "--family", "subspace_union", "--d", str(union_d), "--split",
          str(union_split), "--seed", str(union_seed), "--sample", str(sample_union)],
         lambda doc: _check_sample(doc, union_inst)),
        (["generate", "--family", "perturbed", "--base", "rotated_pair", "--d", "6",
          "--seed", str(gen_seed), "--out", "generated"],
         lambda doc: _check_generate(doc, workdir)),
        (["verify", "--family", "dft_pair", "--d", str(large), "--sample", s[1]],
         lambda doc: _check_verify(doc, dft_large, flat=True)),
        (["verify", "--bisystem", "rescaled.json", "--sample", s[2]],
         lambda doc: _check_verify(doc, rescaled, flat=True)),
    ]
    ops = []
    for argv, check_doc in cases:
        op = Op(name="cli " + " ".join(argv[:3]), call=None, check=None,
                known_fault=RESCALING_FAULT if "rescaled.json" in argv else "")
        op.call = (lambda a=argv: _cli_in_process(sb, a, workdir)) if in_process \
            else (lambda a=argv: _cli_subprocess(a, workdir))
        op.check = _cli_check(op, check_doc)
        ops.append(op)
    return ops


def cli_env() -> dict:
    """The worker's environment with the program's source on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def _cli_subprocess(argv, workdir) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "sparsebounds.cli", *argv], cwd=workdir,
                          env=cli_env(), capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def _cli_in_process(sb, argv, workdir) -> tuple:
    """`sparsebounds.cli.main(argv)` in this process (the traced run imports
    `sparsebounds.cli` first)."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sb.cli.main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue().encode()


def _cli_check(op: Op, check_doc) -> Callable:
    def check(output) -> list:
        code, stdout = output
        problems = []
        first = op.state.setdefault("first_stdout", stdout)
        if stdout != first:
            problems.append("output differs from an earlier run of the same argv")
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return problems + ["output is not JSON"]
        return problems + list(check_doc(doc))
    return check


def _signal(doc) -> np.ndarray:
    coords = doc["coordinates"]
    if doc["field"] == "complex":
        return np.array([complex(re, im) for re, im in coords])
    return np.array(coords, dtype=float)


def _check_verify(doc, inst: ref.Instance, flat: bool) -> list:
    problems = []
    x = _signal(doc["signal"])
    if inst.residual(x) > ref.FIXED_POINT_TOL:
        problems.append("signal is not admissible")
    if flat:
        lhs = math.prod(inst.l0_pair(x))
        rhs = ref.bound(*inst.l0_pair(x), inst.coherences())
        if abs(doc["rhs"] - inst.d) > 1e-9 * inst.d:
            problems.append(f"rhs {doc['rhs']!r} != d = {inst.d}")
    else:
        set_m, set_n = doc["manifest"]["parameters"]["set_m"], doc["manifest"]["parameters"]["set_n"]
        lhs = len(set_m) * len(set_n)
        a, b = np.abs(inst.f @ x), np.abs(inst.g @ x)
        eps = 1.0 - a[set_m].sum() / a.sum()
        delta = 1.0 - b[set_n].sum() / b.sum()
        rhs = ref.bound(len(set_m), len(set_n), inst.coherences(), eps, delta)
    if doc["lhs"] != lhs:
        problems.append(f"lhs {doc['lhs']} != recomputed {lhs}")
    if abs(doc["rhs"] - rhs) > 1e-7 * max(1.0, rhs):
        problems.append(f"rhs {doc['rhs']!r} != recomputed {rhs!r}")
    if not (doc["hypothesis_ok"] and doc["satisfied"]):
        problems.append("certificate not satisfied")
    return problems


def _check_cli_search(doc, inst: ref.Instance) -> list:
    problems = []
    if doc["best_lhs"] != inst.d:
        problems.append(f"best_lhs {doc['best_lhs']} != {inst.d}")
    x = _signal(doc["witness"])
    if math.prod(inst.l0_pair(x)) != doc["best_lhs"]:
        problems.append("witness l0 product differs from best_lhs")
    if inst.residual(x) > ref.FIXED_POINT_TOL:
        problems.append("witness is not admissible")
    return problems


def _check_coherence(doc, inst: ref.Instance) -> list:
    return [f"{key} {doc[key]!r} != recomputed {value!r}"
            for key, value in inst.coherences().items() if abs(doc[key] - value) > 1e-12]


def _load_system(workdir) -> tuple:
    doc = json.loads((workdir / "system.json").read_text())
    inst = ref.Instance.from_document({"first": doc, "second": doc})
    return inst.t, inst.f


def _check_system_coherence(doc, workdir) -> list:
    t, f = _load_system(workdir)
    problems = []
    if abs(doc["sub_coherence"] - ref.sub_coherence(f, t)) > 1e-12:
        problems.append("sub_coherence differs from recomputed")
    if not np.allclose(doc["gram_diagonal"], np.abs(np.einsum("jd,dj->j", f, t)), rtol=1e-12):
        problems.append("gram diagonal differs from recomputed")
    return problems


def _check_validate(doc, workdir) -> list:
    t, f = _load_system(workdir)
    diag = np.abs(np.einsum("jd,dj->j", f, t))
    problems = []
    if not np.allclose(doc["diagonals"], diag, rtol=1e-12):
        problems.append("diagonals differ from recomputed")
    if doc["ok"] is not bool((diag >= 1 - 1e-9).all()):
        problems.append(f"ok is {doc['ok']}")
    return problems


def _check_sample(doc, inst: ref.Instance) -> list:
    x = _signal(doc)
    return [] if inst.residual(x) <= ref.FIXED_POINT_TOL else ["sampled signal is not admissible"]


def _check_generate(doc, workdir) -> list:
    problems = []
    path = workdir / "generated" / "bisystem.json"
    if sorted(Path(p).name for p in doc["written"]) != ["bisystem.json", "manifest.json"]:
        problems.append(f"written files {doc['written']}")
    inst = ref.Instance.from_document(json.loads(path.read_text()))
    if inst.d != 6 or not inst.diagonals_ok():
        problems.append("generated bisystem breaks the pairing hypothesis")
    if inst.admissible_basis().shape[1] != 6:
        problems.append("generated rotated_pair lost admissible dimensions")
    return problems
