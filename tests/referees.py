"""Independent referees and shared constructions of the test suite.

Each referee restates a library path in the plainest code that can decide
it: a search loop of one null-space solve per pattern, a sweep loop over
the public certificates, the sampling stream written with NumPy's own
generator, rank by fraction-free Bareiss elimination over the rationals,
the classical Kuppinger-Durisi-Bolcskei and Elad-Bruckstein bounds, the
proof's per-index inequality, the support of a sequence, sparse admissible
signals, and the certificate pipeline's admissible basis and coherence
profile from whole arrays.  Beside them are the theorem's symmetries and the
constructions that more than one test module builds.  Test modules import
from this module only, never from each other.  Beyond the library under
test it uses only numpy and the standard library, and pytest does not
collect it.
"""

import itertools
from fractions import Fraction
from math import comb, lcm

import numpy as np

from sparsebounds import (
    BiSystem,
    CoherenceProfile,
    PairedSystem,
    best_set,
    dft_matrix,
    from_hilbert_vectors,
    generate,
    identity_system,
    verify_fkdb,
    verify_fskpb,
)
from sparsebounds.admissible import null_space_basis
from sparsebounds.bounds import VerifySummary
from sparsebounds.config import ETA, GUARD, TOL_CERT, TOL_FP, TOL_RANK
from sparsebounds.errors import NoAdmissibleSignalError
from sparsebounds.oracle import _report
from sparsebounds.systems import _matmul


# --- Shared constructions -----------------------------------------------------

def rotation(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


# The real identity paired with the complex DFT basis: its admissible basis,
# profile and first-system analysis equal those of dft_pair d=4, whose first
# system is the complex identity, so every result must equal dft_pair's.
MIXED = BiSystem(identity_system(4), from_hilbert_vectors(dft_matrix(4)))


def mercedes_benz():
    """Parseval frame of three vectors of norm sqrt(2/3) in R^2."""
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return np.sqrt(2.0 / 3.0) * np.vstack([np.cos(angles), np.sin(angles)])


# --- The theorem's symmetries -------------------------------------------------

def swapped(bisystem):
    return BiSystem(bisystem.second, bisystem.first)


def rescaled_per_index(system, c):
    """tau_j -> c_j tau_j, f_j -> f_j / c_j: every hypothesis stays exact."""
    c = np.broadcast_to(c, system.n)
    return PairedSystem(system.vectors * c, system.functionals / c[:, None], system.field)


def rescaled(bisystem, c):
    """One scale c for every index of both systems."""
    return BiSystem(*(rescaled_per_index(s, c) for s in (bisystem.first, bisystem.second)))


def permuted(system, perm):
    return PairedSystem(system.vectors[:, perm], system.functionals[perm], system.field)


# --- Sparse admissible signals -----------------------------------------------

def sparse_draws(bisystem, space, k, rng):
    """Admissible signals P_W T c, then P_W W c, for k-sparse coefficient
    vectors c, with P_W = B Bᴴ the orthogonal projector onto the span of the
    space's orthonormal basis B.  Each system gives one signal per support
    of size k, or 16 supports drawn by rng when it has more; the
    nonzero coefficients have magnitudes uniform in [0.5, 1] and a uniform
    sign, or a uniform phase for a complex bisystem.  A projection that is
    exactly zero is dropped.  At k = 1 these are the atoms P_W tau_j and
    P_W omega_l, up to scale."""
    basis = space.basis
    signals = []
    for system in (bisystem.first, bisystem.second):
        n = system.n
        supports = (list(itertools.combinations(range(n), k)) if comb(n, k) <= 16
                    else [rng.choice(n, k, replace=False) for _ in range(16)])
        for chosen in supports:
            if bisystem.field == "complex":
                unit = np.exp(2j * np.pi * rng.random(k))
            else:
                unit = rng.choice([-1.0, 1.0], k)
            c = np.zeros(n, unit.dtype)
            c[list(chosen)] = rng.uniform(0.5, 1.0, k) * unit
            x = basis @ (basis.conj().T @ (system.vectors @ c))
            if np.abs(x).max() > 0:
                signals.append(x)
    return signals


# --- The certificate pipeline's whole arrays ---------------------------------
#
# admissible_space and coherence_profile make neither the stack nor any array
# of magnitudes: they decide a noise stack on its halves, formed in place,
# and take each maximum over row blocks of the product.  These referees make
# every whole array.  Their products go through the library's product rule,
# systems._matmul, as the library's own do: a real-valued complex operand is
# multiplied as the real matrix it is, which can differ from numpy's complex
# @ in the last bit (the gram of perturbed dft_pair at d = 255), and that
# rule is checked against @ by its own tests.

def pipeline_corpus():
    """(id, family, params) of every family at d in {1, 4, 64, 255, 256},
    perturbed over each base family, and family None, the real identity
    paired with the complex DFT basis (built by corpus_bisystem)."""
    cases = []
    for d in (1, 4, 64, 255, 256):
        bases = [("identity_pair", {"d": d}), ("dft_pair", {"d": d}),
                 ("subspace_union", {"d": d, "split": max(1, d // 3)})]
        if d >= 2:
            bases.append(("rotated_pair", {"d": d, "angle": 30.0}))
        for family, params in bases:
            cases.append((f"{family}-d{d}", family, params))
            cases.append((f"perturbed-{family}-d{d}", "perturbed",
                          {"base": {"family": family, "params": params}}))
        cases.append((f"identity-dft-d{d}", None, {"d": d}))
    return cases


def corpus_bisystem(family, params):
    """The bisystem of a pipeline_corpus row, generated at seed 7."""
    if family is None:
        d = params["d"]
        return BiSystem(identity_system(d), from_hilbert_vectors(dft_matrix(d)))
    return generate(family, params, 7)


def reference_basis(bisystem, tol_rank=TOL_RANK):
    """admissible_space's basis: null_space_basis of the explicit 2d x d
    stack [I - TF; I - WG] in the bisystem's field."""
    eye = np.eye(bisystem.d, dtype=complex if bisystem.field == "complex" else float)
    stacked = np.vstack([eye - _matmul(s.vectors, s.functionals)
                         for s in (bisystem.first, bisystem.second)])
    return null_space_basis(stacked, tol_rank)


def reference_profile(bisystem):
    """coherence_profile from whole arrays: np.abs(F @ T) with its diagonal
    zeroed for each sub-coherence, np.abs(F @ W).max() for each cross one."""
    def sub(s):
        g = np.abs(_matmul(s.functionals, s.vectors))
        np.fill_diagonal(g, 0.0)
        return float(g.max())

    def cross(f, w):
        return float(np.abs(_matmul(f.functionals, w.vectors)).max())

    first, second = bisystem.first, bisystem.second
    return CoherenceProfile(sub(first), sub(second), cross(first, second), cross(second, first))


# --- The oracle's referee: one null-space solve per pattern -------------------

def pattern_order(n, m):
    """All (|S_f|, |S_g|) size pairs by increasing product, then |S_f|."""
    return sorted(((i, j) for i in range(1, n + 1) for j in range(1, m + 1)),
                  key=lambda ij: (ij[0] * ij[1], ij[0], ij[1]))


def reference_search(bisystem, space, eta=ETA, guard=GUARD, tol_rank=TOL_RANK):
    """min_sparsity_product as a plain loop of one null-space solve per pattern,
    on the off-pattern rows gathered pattern by pattern."""
    n, m = bisystem.first.n, bisystem.second.n
    a_rows = bisystem.first.functionals @ space.basis
    c_rows = bisystem.second.functionals @ space.basis
    searched = 0
    for size_f, size_g in pattern_order(n, m):
        for s_f in itertools.combinations(range(n), size_f):
            for s_g in itertools.combinations(range(m), size_g):
                searched += 1
                off = np.vstack([np.delete(a_rows, list(s_f), axis=0),
                                 np.delete(c_rows, list(s_g), axis=0)])
                basis = null_space_basis(off, tol_rank)
                if basis.shape[1] > 0:
                    return _report(bisystem, space, basis[:, 0], (size_f, size_g), eta,
                                   guard, searched)
    raise NoAdmissibleSignalError("no feasible support pattern found")


def report_fields(report):
    """Every field of a TightnessReport, the witness as dtype and raw bytes."""
    return (report.best_lhs, report.patterns_searched, report.rhs_at_witness, report.gap,
            report.guard, report.eta, report.witness.dtype, report.witness.tobytes())


def outcome(search, bisystem, space):
    """report_fields of a search, or the type and message of the error it raised."""
    try:
        return report_fields(search(bisystem, space))
    except Exception as exc:
        return type(exc), str(exc)


# --- The sampling stream and the sweep's referee ------------------------------

def reference_stream(space, seed, trials):
    """The sweep contract written out with NumPy's own generator: row t is
    basis @ c_t, c_t row t of default_rng(seed).standard_normal((trials, 2,
    w)) (real parts, then imaginary parts) for a complex basis, of
    (trials, 1, w) for a real one, normalized to max magnitude 1.  Row 0 is
    sample_admissible(space, seed): one draw of w normals, then w more for a
    complex basis, are the same bits."""
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(space.basis):
        draws = rng.standard_normal((trials, 2, space.w))
        rows = draws[:, 0] + 1j * draws[:, 1]
    else:
        rows = rng.standard_normal((trials, 1, space.w))[:, 0]
    return [space.basis @ (c / np.abs(c).max()) for c in rows]


def reference_verify(bisystem, space, trials, seed=0, eta=ETA, tol_fp=TOL_FP,
                     tol_cert=TOL_CERT, concentrated_subsample=5):
    """exhaustive_verify written as a plain loop over the public certificates,
    its signals drawn by the test's own sampler, not the library's."""
    n, m = bisystem.first.n, bisystem.second.n
    tols = {"eta": eta, "tol_fp": tol_fp, "tol_cert": tol_cert}
    satisfied = conc_checked = conc_ok = 0
    min_margin = np.inf
    failing = []
    for t, x in enumerate(reference_stream(space, seed, trials)):
        cert = verify_fkdb(bisystem, x, **tols)
        min_margin = min(min_margin, cert.lhs - cert.rhs)
        if cert.hypothesis_ok and cert.satisfied:
            satisfied += 1
        else:
            failing.append(t)
        if t < concentrated_subsample:
            # Analysed in the bisystem's field, as the certificates analyse
            # x: a real system of a mixed bisystem acts on the complex x.
            a, b = bisystem.first.functionals @ x, bisystem.second.functionals @ x
            for o_m in range(1, n + 1):
                for o_n in range(1, m + 1):
                    c = verify_fskpb(bisystem, x, best_set(a, o_m).set, best_set(b, o_n).set,
                                     **tols)
                    conc_checked += 1
                    conc_ok += int(c.hypothesis_ok and c.satisfied)
                    min_margin = min(min_margin, c.lhs - c.rhs)
    return VerifySummary(
        trials=trials, satisfied=satisfied, concentrated_checked=conc_checked,
        concentrated_satisfied=conc_ok, min_margin=float(min_margin),
        failing_trials=tuple(failing),
    )


# --- The exact referee over the rationals -------------------------------------
#
# A pattern (S_f, S_g) is feasible exactly when some nonzero x is a fixed
# point of both systems, x = T F x = W G x, and is annihilated by the
# functional rows outside S_f and S_g: when the rows of I - TF, I - WG and
# those functional rows have rank below d over Q.  The referee walks patterns
# in the oracle's order (|S_f| |S_g|, then |S_f|, then lexicographic sets) and
# decides each rank by fraction-free Bareiss elimination on Python ints: no
# cutoff anywhere.

def rank(rows):
    """Rank of integer rows by Bareiss elimination; every division is exact."""
    rows, r, prev = [list(row) for row in rows], 0, 1
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is not None:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            p = rows[r][col]
            for i in range(r + 1, len(rows)):
                rows[i] = [(p * a - rows[i][col] * b) // prev for a, b in zip(rows[i], rows[r])]
            prev, r = p, r + 1
    return r


def integer_rows(rows):
    """Each rational row scaled to integers by the lcm of its denominators."""
    return [[int(x * lcm(*(Fraction(y).denominator for y in row))) for x in row]
            for row in rows]


def referee(pairs):
    """(best_lhs, patterns_searched) of the exact search over the (T, F)
    pairs: the nonzero rows of I - TF and I - WG join every pattern's
    functional rows outside it, all scaled to integers."""
    d = len(pairs[0][0])
    fixed = [row for t, f in pairs for row in integer_rows(np.eye(d, dtype=int) - np.dot(t, f))
             if any(row)]
    f, g = (integer_rows(rows) for _, rows in pairs)
    searched = 0
    sizes = itertools.product(range(1, len(f) + 1), range(1, len(g) + 1))
    for i, j in sorted(sizes, key=lambda ij: (ij[0] * ij[1], ij[0])):
        for s_f in itertools.combinations(range(len(f)), i):
            off_f = fixed + [row for k, row in enumerate(f) if k not in s_f]
            for s_g in itertools.combinations(range(len(g)), j):
                searched += 1
                if rank(off_f + [row for k, row in enumerate(g) if k not in s_g]) < d:
                    return i * j, searched


def inverse(t):
    """Exact inverse of a nonsingular integer matrix, in Fractions."""
    d = len(t)
    m = np.hstack([t, np.eye(d, dtype=int)]).astype(object) + Fraction(0)
    for c in range(d):
        p = c + np.flatnonzero(m[c:, c])[0]
        m[[c, p]] = m[[p, c]]
        m[c] /= m[c, c]
        others = np.arange(d) != c
        m[others] -= np.outer(m[others, c], m[c])
    return m[:, d:]


def hadamard_pair(k):
    """The Sylvester-Hadamard basis H of Z_2^k with f_j = h_j^T / d: with the
    identity, the Fourier pair of Z_2^k, in exact rationals."""
    h = np.array([[1]])
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h, h * Fraction(1, len(h))


def skewed_identity(rng, d, mu):
    """(I, I + e_d l^T) for a rational l with l_d = 0 and max |l| = mu: every
    diagonal pairing is 1, and the fixed points of T F are the hyperplane
    l^T x = 0, so the admissible space has w = d - 1."""
    k = rng.integers(-7, 8, d - 1).tolist()
    j = int(rng.integers(d - 1))
    k[j] = -7 if k[j] < 0 else 7
    f = np.eye(d, dtype=int) + Fraction(0)
    f[-1, :-1] += [mu * Fraction(v, 7) for v in k]
    return np.eye(d, dtype=int), f


def skewed(partner, d, mu, seed):
    """skewed_identity(default_rng(seed), d, mu) in floats, against the
    second system of partner (dft_pair, or rotated_pair at angle 30) at d."""
    params = {"d": d, "angle": 30.0} if partner == "rotated_pair" else {"d": d}
    second = generate(partner, params, 0).second
    rng = np.random.default_rng(seed)
    t, f = (np.array(a, float) for a in skewed_identity(rng, d, Fraction(mu)))
    return BiSystem(PairedSystem(t, f, second.field), second)


# --- The classical Kuppinger-Durisi-Bolcskei bound ----------------------------

def kdb_rhs(bisystem, s_f, s_g):
    """The KDB bound (P. Kuppinger, G. Durisi, H. Bolcskei, IEEE TIT 58(1),
    2012) at sparsities (s_f, s_g), on the vectors of both systems scaled to
    unit norm: (1 - mu_a (s_f - 1))+ (1 - mu_b (s_g - 1))+ / mu_m^2, where
    mu_a and mu_b are the largest off-diagonal |<tau_i, tau_j>| and
    |<omega_k, omega_l>|, and mu_m the largest |<tau_i, omega_k>|.  For an
    admissible x, the analyses F x and G x are coefficient vectors of x in
    the tau and the omega with the same supports, so it bounds the same
    sparsity product as FKDB."""
    t, w = (s.vectors / np.linalg.norm(s.vectors, axis=0) for s in (bisystem.first, bisystem.second))

    def mu(a, b):
        g = np.abs(a.conj().T @ b)
        if a is b:
            np.fill_diagonal(g, 0.0)
        return g.max(initial=0.0)

    num_f = max(0.0, 1.0 - mu(t, t) * (s_f - 1))
    num_g = max(0.0, 1.0 - mu(w, w) * (s_g - 1))
    return num_f * num_g / mu(t, w) ** 2


# --- The Elad-Bruckstein bound, the proof's per-index inequality, supports ----
#
# Written with the systems' own matrices (functionals @ x), not through the
# library's analysis, coherence or threshold code, so each checks that code
# from outside.

def eb_rhs(mu):
    """The Elad-Bruckstein bound 1 / mu^2 (M. Elad, A. M. Bruckstein, IEEE
    TIT 48(9), 2002) for two orthonormal bases with cross-coherence mu, the
    largest |<tau_i, omega_k>|."""
    return 1.0 / mu**2


def per_index_slack(bisystem, x):
    """Slack, at every index j, of the per-index inequality of the theorem's
    proof: for admissible x, (1 + mu_f) |f_j(x)| - ||F x||_1 mu_f is at most
    ||G x||_1 max_jk |f_j(omega_k)|, with mu_f the largest off-diagonal
    |f_j(tau_r)|.  Returned is rhs - lhs, nonnegative up to rounding."""
    first, second = bisystem.first, bisystem.second
    x = np.asarray(x)
    a, b = np.abs(first.functionals @ x), np.abs(second.functionals @ x)
    gram = np.abs(first.functionals @ first.vectors)
    np.fill_diagonal(gram, 0.0)
    mu_f = gram.max(initial=0.0)
    cross = np.abs(first.functionals @ second.vectors).max()
    return b.sum() * cross - ((1.0 + mu_f) * a - a.sum() * mu_f)


def support(a, eta=ETA):
    """Sorted indices of the entries of a with magnitude strictly above eta."""
    return tuple(np.flatnonzero(np.abs(np.asarray(a)) > eta).tolist())
