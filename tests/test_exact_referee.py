"""The oracle against referees.referee, the exact search over the rationals
that decides each pattern's rank by Bareiss elimination, with no cutoff.
With integer T and its exact inverse F = T^-1, I - TF = 0 and the admissible
space is the whole space; F = I + e_d l^T leaves only the hyperplane
l^T x = 0, and so do the n = d + 1 frames T = [I | t], F = [I ; l^T / (l.t)];
two such frames leave the intersection of their hyperplanes.
"""

from fractions import Fraction

import numpy as np
import pytest

from sparsebounds import admissible_space, min_sparsity_product
from sparsebounds.errors import DegenerateInputError
from sparsebounds.systems import BiSystem, PairedSystem
from referees import (
    hadamard_pair,
    inverse,
    referee,
    rescaled_per_index,
    skewed_identity,
)


def float_bisystem(pairs, scales=(1.0, 1.0)):
    """The (T, F) pairs in floats, each system rescaled per index by its scales."""
    return BiSystem(*(rescaled_per_index(PairedSystem(np.array(t, float), np.array(f, float)), c)
                      for (t, f), c in zip(pairs, scales)))


def search(pairs, scales=(1.0, 1.0)):
    """(best_lhs, patterns_searched) of the float oracle, each system
    rescaled per index by its scales."""
    b = float_bisystem(pairs, scales)
    report = min_sparsity_product(b, admissible_space(b))
    return report.best_lhs, report.patterns_searched


def integer_matrix(rng, d):
    """A d x d matrix of entries in {-1, 0, 1} with |det| >= 1, by rejection."""
    while True:
        t = rng.integers(-1, 2, (d, d))
        if abs(round(np.linalg.det(t))) >= 1:
            return t


def moved(pairs, rng):
    """The pairs under an integer unimodular change of ambient basis S
    (T -> S T, F -> F S^-1) made of 2d random row additions."""
    s = np.eye(len(pairs[0][0]), dtype=int)
    for _ in range(2 * len(s)):
        row, other = rng.choice(len(s), 2, replace=False)
        s[row] += rng.choice([-1, 1]) * s[other]
    return [(s @ t, f @ inverse(s)) for t, f in pairs]


@pytest.fixture(scope="module")
def corpus():
    """40 (T, T^-1), (W, W^-1) bisystems at d = 3, 4, 5 and their referee answers."""
    rng = np.random.default_rng(2024)
    pairs = [[(t, inverse(t)) for t in (integer_matrix(rng, 3 + i % 3) for _ in "TW")]
             for i in range(40)]
    return [(p, referee(p)) for p in pairs]


MUS = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 50))


@pytest.fixture(scope="module")
def skewed_corpus():
    """40 (I, I + e_d l^T), (W, W^-1) bisystems at d = 3, 4, 5, with max |l|
    cycling through MUS, then that first system against the Sylvester-Hadamard
    pairs at d = 4 (mu = 1/10) and 8 (mu = 1/20), and their referee answers."""
    rng = np.random.default_rng(2025)
    pairs = []
    for i in range(40):
        w = integer_matrix(rng, 3 + i % 3)
        pairs.append([skewed_identity(rng, len(w), MUS[i // 3 % 3]), (w, inverse(w))])
    for k in (2, 3):
        h, g = hadamard_pair(k)
        pairs.append([skewed_identity(rng, len(h), MUS[k - 2]), (h, g)])
    return [(p, referee(p)) for p in pairs]


def frame_pair(rng, d):
    """(T, F) = ([I | t], [I ; l^T / (l.t)]) for integer t, l in {-2..2}^d with
    l.t != 0, by rejection: n = d + 1, every pairing is exactly 1, and
    T F = I + t l^T / (l.t) fixes exactly the hyperplane l^T x = 0."""
    while True:
        t, l = rng.integers(-2, 3, (2, d))
        if t @ l:
            break
    f = np.vstack([np.eye(d, dtype=int), l]) * Fraction(1)
    f[-1] /= int(t @ l)
    return np.hstack([np.eye(d, dtype=int), t[:, None]]), f


@pytest.fixture(scope="module")
def frame_corpus():
    """30 (T, F) frames of frame_pair against (W, W^-1) at d = 3, 4, 5, and
    their referee answers."""
    rng = np.random.default_rng(2026)
    pairs = []
    for i in range(30):
        w = integer_matrix(rng, 3 + i % 3)
        pairs.append([frame_pair(rng, len(w)), (w, inverse(w))])
    return [(p, referee(p)) for p in pairs]


def test_oracle_matches_referee(corpus):
    """Unscaled, and under an integer unimodular change of ambient basis."""
    rng = np.random.default_rng(7)
    for i, (pairs, want) in enumerate(corpus):
        other = moved(pairs, rng)
        assert [search(pairs), search(other), referee(other)] == [want] * 3, i


def test_oracle_matches_referee_below_full_dimension(skewed_corpus):
    """w = d - 1, unscaled and under an integer unimodular change of ambient
    basis: the referee's rank tests include the rows of I - TF."""
    rng = np.random.default_rng(8)
    for i, (pairs, want) in enumerate(skewed_corpus):
        other = moved(pairs, rng)
        for case in (pairs, other):
            assert admissible_space(float_bisystem(case)).w == len(case[0][0]) - 1, i
        assert [search(pairs), search(other), referee(other)] == [want] * 3, i


@pytest.fixture(scope="module")
def two_frame_corpus():
    """24 pairs of frame_pair frames at d = 3, 4, 5, and their referee answers."""
    rng = np.random.default_rng(2027)
    pairs = [[frame_pair(rng, 3 + i % 3) for _ in "TW"] for i in range(24)]
    return [(p, referee(p)) for p in pairs]


def test_oracle_matches_referee_above_full_dimension(frame_corpus):
    """n = d + 1 vectors in the first system, and w = d - 1, unscaled and
    under an integer unimodular change of ambient basis."""
    rng = np.random.default_rng(9)
    for i, (pairs, want) in enumerate(frame_corpus):
        b, d = float_bisystem(pairs), len(pairs[0][0])
        assert (b.first.n, admissible_space(b).w) == (d + 1, d - 1), i
        other = moved(pairs, rng)
        assert [search(pairs), search(other), referee(other)] == [want] * 3, i


def test_oracle_matches_referee_with_frames_in_both_systems(two_frame_corpus):
    """n = m = d + 1, and w = d - 2 where the two hyperplanes l^T x = 0
    differ, unscaled and under an integer unimodular change of ambient basis."""
    rng = np.random.default_rng(10)
    for i, (pairs, want) in enumerate(two_frame_corpus):
        b, d = float_bisystem(pairs), len(pairs[0][0])
        normals = np.array([f[-1] for _, f in pairs], float)  # each l / (l.t)
        assert (b.first.n, b.second.n) == (d + 1, d + 1), i
        assert admissible_space(b).w == d - np.linalg.matrix_rank(normals), i
        other = moved(pairs, rng)
        assert [search(pairs), search(other), referee(other)] == [want] * 3, i


@pytest.mark.xfail(strict=True, raises=(AssertionError, DegenerateInputError),
                   reason="ROADMAP item 1: absolute cutoffs")
def test_oracle_matches_referee_under_per_index_rescaling(corpus):
    """Every index of both systems scaled by 10^u, u uniform in [-6, 6]."""
    urng = np.random.default_rng(12345)
    for i, (pairs, want) in enumerate(corpus):
        assert search(pairs, [10.0 ** urng.uniform(-6, 6, len(t)) for t, _ in pairs]) == want, i


@pytest.mark.parametrize("k,want", [(2, (4, 97)), (3, (8, 7921))])
def test_sylvester_hadamard_pair(k, want):
    """The identity against the Sylvester-Hadamard basis of Z_2^k."""
    eye = np.eye(2 ** k, dtype=int)
    pairs = [(eye, eye + Fraction(0)), hadamard_pair(k)]
    assert referee(pairs) == search(pairs) == want
