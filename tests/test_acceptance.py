"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sparsebounds import (
    admissible_space,
    coherence_profile,
    analysis,
    ds_product,
    generate,
    l0,
    min_sparsity_product,
    sample_admissible,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds import bounds
from sparsebounds.cli import main
from referees import (
    eb_rhs,
    kdb_rhs,
    per_index_slack,
    reference_search,
    report_fields,
    skewed,
    support,
    swapped,
)

ETA = 1e-9
TOL_CERT = 1e-9

# 20 configurations x 50 seeds = 1000 BiSystems, d <= 8, n, m <= 12.
CONFIGS = [
    ("identity_pair", {"d": 2}),
    ("identity_pair", {"d": 4}),
    ("identity_pair", {"d": 8}),
    ("dft_pair", {"d": 4}),
    ("dft_pair", {"d": 6}),
    ("dft_pair", {"d": 8}),
    ("rotated_pair", {"d": 2, "angle": 30.0}),
    ("rotated_pair", {"d": 2, "angle": 45.0}),
    ("rotated_pair", {"d": 3, "angle": 60.0}),
    ("rotated_pair", {"d": 5, "angle": 17.0}),
    ("subspace_union", {"d": 3, "split": 2}),
    ("subspace_union", {"d": 6, "split": 3}),
    ("subspace_union", {"d": 8, "split": 5}),
    ("perturbed", {"base": {"family": "identity_pair", "params": {"d": 4}}, "magnitude": 0.1}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.05}),
    ("perturbed", {"base": {"family": "rotated_pair", "params": {"d": 3, "angle": 45.0}}, "magnitude": 0.1}),
    ("perturbed", {"base": {"family": "subspace_union", "params": {"d": 5, "split": 3}}, "magnitude": 0.1}),
    ("perturbed", {"base": {"family": "subspace_union", "params": {"d": 6, "split": 2}}, "magnitude": 0.05}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 6}}, "magnitude": 0.1}),
    ("perturbed", {"base": {"family": "rotated_pair", "params": {"d": 2, "angle": 45.0}}, "magnitude": 0.08}),
]
SEEDS = range(50)
# 2 partners x 3 sizes x 2 mu x 10 seeds = 120 "skewed" BiSystems whose first
# system's sub-coherence is mu, so the bounds' numerator terms are nonzero.
SKEWED = [{"partner": partner, "d": d, "mu": mu} for partner in ("dft_pair", "rotated_pair")
          for d in (4, 6, 8) for mu in ("1/10", "1/50")]
SKEWED_SEEDS = range(10)
SIGNALS_PER_SYSTEM = 5
SEED_DEPENDENT = {"subspace_union", "perturbed", "skewed"}
BASE_FAMILIES = {"identity_pair", "dft_pair", "rotated_pair", "subspace_union"}
# The base families whose two systems are both orthonormal bases.
ORTHONORMAL_PAIRS = {"identity_pair", "dft_pair", "rotated_pair"}


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    made = [(family, params, seed, generate(family, params, seed))
            for family, params in CONFIGS for seed in SEEDS]
    made += [("skewed", params, seed, skewed(**params, seed=seed))
             for params in SKEWED for seed in SKEWED_SEEDS]
    instances = []
    for family, params, seed, b in made:
        space = admissible_space(b)
        if family == "skewed":
            assert space.w == b.d - 1
            assert coherence_profile(b).sub_coherence_f >= 0.02
        signals = [sample_admissible(space, 1000 * seed + t)
                   for t in range(SIGNALS_PER_SYSTEM)]
        instances.append((family, params, seed, b, space, signals))
    return instances


def test_criterion_1_donoho_stark_equality():
    t0 = time.monotonic()
    ok = True
    for d in (4, 9, 16):
        spacing = int(np.sqrt(d))
        comb = np.zeros(d)
        comb[::spacing] = 1.0
        s_time, s_freq, product = ds_product(comb, eta=ETA)
        ok = ok and (s_time == spacing and s_freq == spacing and product == d)
    elapsed = time.monotonic() - t0
    _verdict("criterion 1: Donoho-Stark comb equality d in {4,9,16}",
             ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_eb_reduction_and_oracle():
    t0 = time.monotonic()
    rhs_ok = True
    for d in (4, 9, 16):
        # Both sub-coherences are at most 2.3e-16, so the rhs is within 1e-12
        # of 1 / mu^2 = d whatever the signal's sparsities.
        b = generate("dft_pair", {"d": d}, 0)
        space = admissible_space(b)
        for seed in range(3):
            rhs = verify_fkdb(b, sample_admissible(space, seed), eta=ETA).rhs
            rhs_ok = rhs_ok and abs(rhs - d) <= 1e-12
    oracle_ok = True
    for d in (4, 9):
        b = generate("dft_pair", {"d": d}, 0)
        report = min_sparsity_product(b, admissible_space(b), eta=ETA)
        oracle_ok = oracle_ok and report.best_lhs == d
    elapsed = time.monotonic() - t0
    _verdict("criterion 2: Elad-Bruckstein reduction + oracle best_lhs = d",
             rhs_ok and oracle_ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_3_certificate_property_suite(corpus):
    t0 = time.monotonic()
    failures = 0
    count = 0
    for family, params, seed, b, space, signals in corpus:
        for x in signals:
            cert = verify_fkdb(b, x, eta=ETA, tol_cert=TOL_CERT)
            count += 1
            if not (cert.hypothesis_ok and cert.satisfied):
                failures += 1
    elapsed = time.monotonic() - t0
    _verdict("criterion 3: certificate suite on generated corpus",
             failures == 0 and count >= 5000 and elapsed < 120.0,
             f"{count} certificates, {failures} failures, {elapsed:.1f}s")


def test_criterion_4_per_index_inequality(corpus):
    worst = np.inf
    failures = 0
    for family, params, seed, b, space, signals in corpus:
        for system in (b, swapped(b)):
            for x in signals:
                slack = per_index_slack(system, x)
                worst = min(worst, float(slack.min()))
                failures += int(slack.min() < -1e-9)
    _verdict("criterion 4: per-index proof inequality on corpus",
             failures == 0, f"min slack {worst:.3e}")


def _subset_masses(mags):
    """l1 mass of every subset, indexed by bitmask."""
    masses = np.zeros(1 << mags.size)
    for mask in range(1, 1 << mags.size):
        low = mask & -mask
        masses[mask] = masses[mask ^ low] + mags[low.bit_length() - 1]
    return masses


def test_criterion_5_concentrated_reduction_and_sweep(corpus):
    t0 = time.monotonic()
    reduction_ok = True
    worst_diff = 0.0
    for family, params, seed, b, space, signals in corpus:
        for x in signals:
            flat = verify_fkdb(b, x, eta=ETA, tol_cert=TOL_CERT)
            m = support(analysis(b.first, x), eta=ETA)
            n = support(analysis(b.second, x), eta=ETA)
            conc = verify_fskpb(b, x, m, n, eta=ETA, tol_cert=TOL_CERT)
            diff = abs(conc.rhs - flat.rhs)
            worst_diff = max(worst_diff, diff)
            reduction_ok = reduction_ok and diff <= 1e-12 and conc.satisfied

    sweep_ok = True
    sweep_instances = 0
    spot_checks = 0
    for family, params, seed, b, space, signals in corpus:
        n, m = b.first.n, b.second.n
        if n > 6 or m > 6:
            continue
        x = signals[0]
        a = np.abs(analysis(b.first, x))
        c = np.abs(analysis(b.second, x))
        prof = coherence_profile(b)
        denom = prof.cross_f_omega * prof.cross_g_tau
        mass_a, mass_c = _subset_masses(a), _subset_masses(c)
        eps_all = np.clip(1.0 - mass_a / a.sum(), 0.0, 1.0)
        del_all = np.clip(1.0 - mass_c / c.sum(), 0.0, 1.0)
        size_a = np.array([bin(k).count("1") for k in range(1 << n)])
        size_c = np.array([bin(k).count("1") for k in range(1 << m)])
        num_f = np.maximum(0.0, 1.0 - eps_all - (size_a - 1 + eps_all) * prof.sub_coherence_f)
        num_g = np.maximum(0.0, 1.0 - del_all - (size_c - 1 + del_all) * prof.sub_coherence_g)
        rhs = np.outer(num_f, num_g) / denom
        lhs = np.outer(size_a, size_c).astype(float)
        if not np.all(lhs >= rhs - TOL_CERT):
            sweep_ok = False
        sweep_instances += 1
        # Spot-check agreement between the vectorized sweep and the
        # certificate path on a few random subset pairs.
        rng = np.random.default_rng(seed)
        for _ in range(3):
            mask_m = int(rng.integers(0, 1 << n))
            mask_n = int(rng.integers(0, 1 << m))
            set_m = tuple(i for i in range(n) if mask_m >> i & 1)
            set_n = tuple(i for i in range(m) if mask_n >> i & 1)
            cert = verify_fskpb(b, x, set_m, set_n, eta=ETA, tol_cert=TOL_CERT)
            if abs(cert.rhs - rhs[mask_m, mask_n]) > 1e-9 * max(1.0, cert.rhs):
                sweep_ok = False
            if not cert.satisfied:
                sweep_ok = False
            spot_checks += 1
    elapsed = time.monotonic() - t0
    _verdict("criterion 5: concentrated reduction + full subset sweep",
             reduction_ok and sweep_ok and elapsed < 180.0,
             f"max rhs diff {worst_diff:.2e}, {sweep_instances} sweeps, "
             f"{spot_checks} spot checks, {elapsed:.1f}s")


def test_criterion_6_oracle_consistency(corpus):
    t0 = time.monotonic()
    seen = set()
    consistency_ok = kdb_ok = chain_ok = True
    runs = 0
    ratios = {}
    eb_values = {}
    for family, params, seed, b, space, signals in corpus:
        if b.first.n + b.second.n > 12:
            continue
        key = (family, json.dumps(params, sort_keys=True),
               seed if family in SEED_DEPENDENT else 0)
        if key in seen:
            continue
        seen.add(key)
        report = min_sparsity_product(b, space, eta=ETA)
        runs += 1
        if report.best_lhs < report.rhs_at_witness - 1e-9:
            consistency_ok = False
        # Classical KDB at the witness's sparsities bounds the same product;
        # on the base families (f_j = tau_j^H, unit norms) it is FKDB.
        kdb = kdb_rhs(b, *(l0(s.functionals @ report.witness, ETA) for s in (b.first, b.second)))
        fkdb = report.rhs_at_witness
        kdb_ok = kdb_ok and kdb <= report.best_lhs * (1 + 1e-12)
        if family in BASE_FAMILIES:
            kdb_ok = kdb_ok and abs(kdb - fkdb) <= 1e-12 * max(1.0, fkdb)
        if fkdb > 0:
            ratios.setdefault(family, []).append(kdb / fkdb)
        if family in ORTHONORMAL_PAIRS:
            # Two orthonormal bases: EB (1 / mu^2, mu the largest
            # |<tau_i, omega_k>|) = KDB = FKDB, and on dft_pair also = d (DS).
            mu = np.abs(b.first.vectors.conj().T @ b.second.vectors).max()
            eb = eb_rhs(mu)
            chain = [kdb, fkdb] + ([b.d] if family == "dft_pair" else [])
            chain_ok = chain_ok and all(abs(eb - v) <= 1e-12 * eb for v in chain)
            eb_values.setdefault(family, []).append(eb)

    batched_ok = True
    checked = set()
    for family, params, seed, b, space, signals in corpus:
        if b.first.n + b.second.n > 12:
            continue
        key = (family, json.dumps(params, sort_keys=True))
        if key in checked:
            continue
        checked.add(key)
        same = (report_fields(min_sparsity_product(b, space, eta=ETA))
                == report_fields(reference_search(b, space, eta=ETA)))
        batched_ok = batched_ok and same
    elapsed = time.monotonic() - t0
    kdb_range = ", ".join(f"{family} {min(r):.3f}-{max(r):.3f}" for family, r in ratios.items())
    eb_range = ", ".join(f"{family} {min(v):.3f}-{max(v):.3f}" for family, v in eb_values.items())
    _verdict("criterion 6: oracle consistency + batched/reference-loop agreement"
             " + KDB <= best_lhs + EB = KDB = FKDB (= DS) on orthonormal pairs",
             consistency_ok and batched_ok and kdb_ok and chain_ok
             and eb_values.keys() == ORTHONORMAL_PAIRS,
             f"{runs} oracle runs, {len(checked)} reference comparisons, "
             f"KDB/FKDB {kdb_range}, EB {eb_range}, {elapsed:.1f}s")


def test_criterion_7_monotonicity_sweep():
    from sparsebounds.coherence import CoherenceProfile

    grid = np.linspace(0.0, 0.9, 11)
    sizes = list(range(1, 12))
    crosses = np.linspace(0.05, 1.0, 11)
    violations = 0

    def rhs(o_m=3, o_n=2, eps=0.1, delta=0.1, sub_f=0.15, sub_g=0.25,
            cx_f=0.6, cx_g=0.7):
        return float(bounds._bound(o_m, o_n, eps, delta,
                                   CoherenceProfile(sub_f, sub_g, cx_f, cx_g))[2])

    for lo, hi in zip(grid, grid[1:]):
        violations += rhs(eps=hi) > rhs(eps=lo)
        violations += rhs(delta=hi) > rhs(delta=lo)
        violations += rhs(sub_f=hi) > rhs(sub_f=lo)
        violations += rhs(sub_g=hi) > rhs(sub_g=lo)
    for lo, hi in zip(sizes, sizes[1:]):
        violations += rhs(o_m=hi) > rhs(o_m=lo)
        violations += rhs(o_n=hi) > rhs(o_n=lo)
    for lo, hi in zip(crosses, crosses[1:]):
        violations += rhs(cx_f=lo) < rhs(cx_f=hi)
        violations += rhs(cx_g=lo) < rhs(cx_g=hi)
    _verdict("criterion 7: the bound's rhs monotone in every stated direction",
             violations == 0, f"{violations} violations")


# Criterion 8's corpus: every CLI command whose output must rerun byte for
# byte.  Rows that write files use relative --out names, so the coherence row
# reads what its own run generated.
RERUNS = [row.split() for row in [
    "verify --family dft_pair --d 4 --sample 42",
    "verify --family rotated_pair --d 2 --angle 45 --sample 7 --set-m 0 --set-n 0,1",
    "verify --family rotated_pair --d 2 --angle 45 --sample 7",
    "verify --family dft_pair --d 128 --sample 7",
    # perturbed over dft_pair at d = 256: sizes where the real and the
    # complex product kernels give different low bits.
    "verify --family perturbed --base dft_pair --d 256 --sample 3",
    # Diagonal system matrices multiply as scalings: identity_pair has them on
    # both sides of every product, subspace_union as its second system.
    "verify --family identity_pair --d 512 --sample 3",
    "verify --family subspace_union --d 256 --split 100 --sample 3",
    # perturbed builds its systems from copies of its own products,
    # and scales E by sqrt(lambda_max(E E^T)).
    "generate --family perturbed --base dft_pair --d 64 --seed 5 --out gp",
    "verify --family perturbed --base dft_pair --d 512 --sample 3",
    "search --family dft_pair --d 4",
    "search --family dft_pair --d 7",
    "search --family subspace_union --d 5 --split 2 --seed 3",
    "sample --family identity_pair --d 3 --sample 5",
    # Flag values are JSON number text: 3.0 means 3, as in a descriptor file.
    "sample --family identity_pair --d 3.0 --sample 5.0",
    "sample --family dft_pair --d 4 --sample 3",
    "generate --family dft_pair --d 4 --seed 0 --out g-dft",
    "generate --family subspace_union --d 5 --split 2 --seed 9 --out g-union",
    "generate --family rotated_pair --d 2 --seed 0 --out g",
    "coherence g/bisystem.json",
    # Two w = d noise stacks: the admissible basis is exactly I.
    "sample --family dft_pair --d 64 --sample 3",
    "search --family rotated_pair --d 4",
    # A stack above the rank cutoff: the admissible basis takes the SVD.
    "sample --family subspace_union --d 64 --split 20 --sample 3",
    "verify --family subspace_union --d 64 --split 20 --sample 3",
    # Seed 2^128 + 1: five entropy words, one past SeedSequence's pool.
    f"sample --family subspace_union --d 8 --split 3 --sample {2**128 + 1}",
    # The oracle's downdated Gram filter: the minimum and the winner's rank in
    # the enumeration are known (asserted below).
    "search --family dft_pair --d 9",
    "search --family perturbed --base dft_pair --d 8 --seed 3",
]]


def rerun(rows):
    """[exit code, stdout] of each argv row, run in order.  Self-contained, so
    that criterion 8 runs this same source in a fresh interpreter too."""
    import contextlib
    import io

    from sparsebounds.cli import main
    ran = []
    for argv in rows:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            ran.append([main(list(argv)), out.getvalue()])
    return ran


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    """Every RERUNS row runs here and again in a fresh interpreter, each side
    in its own directory: exit code, stdout and every written file must agree
    byte for byte."""
    monkeypatch.delenv("SPARSEBOUNDS_SEED", raising=False)
    sides = [tmp_path / "here", tmp_path / "child"]
    for side in sides:
        side.mkdir()
    monkeypatch.chdir(sides[0])
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    script = inspect.getsource(rerun) + "import json, sys\n" \
        "json.dump(rerun(json.load(sys.stdin)), sys.stdout)"
    child = subprocess.run([sys.executable, "-c", script], input=json.dumps(RERUNS),
                           capture_output=True, text=True, cwd=sides[1], check=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    runs = dict(zip(map(" ".join, RERUNS), zip(rerun(RERUNS), json.loads(child.stdout))))
    files = [{str(p.relative_to(side)): p.read_bytes() for p in side.rglob("*") if p.is_file()}
             for side in sides]
    moved = [row for row, (here, there) in runs.items() if here != there]
    moved += sorted(name for name in files[0].keys() | files[1].keys()
                    if files[0].get(name) != files[1].get(name))
    failed = [row for row, ((code, out), _) in runs.items() if code != 0 or not out]
    out = {row: here[1] for row, (here, _) in runs.items()}
    found = [(r["best_lhs"], r["patterns_searched"]) for r in map(json.loads, [
        out["search --family dft_pair --d 9"],
        out["search --family perturbed --base dft_pair --d 8 --seed 3"]])]
    same_sample = (out["sample --family identity_pair --d 3.0 --sample 5.0"]
                   == out["sample --family identity_pair --d 3 --sample 5"])
    _verdict("criterion 8: CLI outputs rerun byte-for-byte in a fresh interpreter",
             not moved and not failed and len(files[0]) == 8 and same_sample
             and found == [(9, 25516), (8, 7921)],
             f"{len(RERUNS)} commands, {len(files[0])} files; moved {moved}, "
             f"failed {failed}, search minima {found}")
