"""The oracle against an exact referee over the rationals.

With integer vectors T and exact inverses F = T^-1 the admissible space is the
whole space, and a pattern (S_f, S_g) is feasible exactly when the functional
rows outside S_f and S_g have rank below d over Q.  The referee walks patterns
in the oracle's order (|S_f| |S_g|, then |S_f|, then lexicographic sets) and
decides each rank by fraction-free Bareiss elimination on Python ints: no
cutoff anywhere.
"""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from sparsebounds import admissible_space, min_sparsity_product
from sparsebounds.errors import DegenerateInputError
from sparsebounds.systems import BiSystem, PairedSystem
from test_oracle import rescaled_per_index


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


def referee(pairs):
    """(best_lhs, patterns_searched) of the exact search over the (T, F)
    pairs' rational functional rows, each row scaled to integers first."""
    f, g = ([[int(x * lcm(*(x.denominator for x in row))) for x in row] for row in rows]
            for _, rows in pairs)
    d, searched = len(f[0]), 0
    sizes = itertools.product(range(1, len(f) + 1), range(1, len(g) + 1))
    for i, j in sorted(sizes, key=lambda ij: (ij[0] * ij[1], ij[0])):
        for s_f in itertools.combinations(range(len(f)), i):
            off_f = [row for k, row in enumerate(f) if k not in s_f]
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


def search(pairs, scales=(1.0, 1.0)):
    """(best_lhs, patterns_searched) of the float oracle, each system
    rescaled per index by its scales."""
    b = BiSystem(*(rescaled_per_index(PairedSystem(np.array(t, float), np.array(f, float)), c)
                   for (t, f), c in zip(pairs, scales)))
    report = min_sparsity_product(b, admissible_space(b))
    return report.best_lhs, report.patterns_searched


def integer_matrix(rng, d):
    """A d x d matrix of entries in {-1, 0, 1} with |det| >= 1, by rejection."""
    while True:
        t = rng.integers(-1, 2, (d, d))
        if abs(round(np.linalg.det(t))) >= 1:
            return t


@pytest.fixture(scope="module")
def corpus():
    """40 (T, T^-1), (W, W^-1) bisystems at d = 3, 4, 5 and their referee answers."""
    rng = np.random.default_rng(2024)
    pairs = [[(t, inverse(t)) for t in (integer_matrix(rng, 3 + i % 3) for _ in "TW")]
             for i in range(40)]
    return [(p, referee(p)) for p in pairs]


def test_oracle_matches_referee(corpus):
    """Unscaled, and under an integer unimodular change of ambient basis S
    (T -> S T, F -> F S^-1) made of 2d random row additions."""
    rng = np.random.default_rng(7)
    for i, (pairs, want) in enumerate(corpus):
        s = np.eye(len(pairs[0][0]), dtype=int)
        for _ in range(2 * len(s)):
            row, other = rng.choice(len(s), 2, replace=False)
            s[row] += rng.choice([-1, 1]) * s[other]
        moved = [(s @ t, f @ inverse(s)) for t, f in pairs]
        assert [search(pairs), search(moved), referee(moved)] == [want] * 3, i


@pytest.mark.xfail(strict=True, raises=(AssertionError, DegenerateInputError),
                   reason="ROADMAP item 1: absolute cutoffs")
def test_oracle_matches_referee_under_per_index_rescaling(corpus):
    """Every index of both systems scaled by 10^u, u uniform in [-6, 6]."""
    urng = np.random.default_rng(12345)
    for i, (pairs, want) in enumerate(corpus):
        assert search(pairs, [10.0 ** urng.uniform(-6, 6, len(t)) for t, _ in pairs]) == want, i


@pytest.mark.parametrize("k,want", [(2, (4, 97)), (3, (8, 7921))])
def test_sylvester_hadamard_pair(k, want):
    """The identity against the Sylvester-Hadamard basis H of Z_2^k with
    f_j = h_j^T / d: the Fourier pair of Z_2^k, in exact rationals."""
    h = np.array([[1]])
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    eye = np.eye(len(h), dtype=int)
    pairs = [(eye, eye + Fraction(0)), (h, h * Fraction(1, len(h)))]
    assert referee(pairs) == search(pairs) == want
