import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsebounds import (
    BiSystem,
    PairedSystem,
    admissible_space,
    analysis,
    from_hilbert_vectors,
    generate,
    identity_system,
    l0,
    min_sparsity_product,
)
from sparsebounds.admissible import AdmissibleSpace, null_space_basis
from sparsebounds.bounds import exhaustive_verify
from sparsebounds.errors import (
    DegenerateInputError,
    GuardExceededError,
    NoAdmissibleSignalError,
    StructuralError,
)
from sparsebounds.config import ETA, GUARD, TOL_RANK
from sparsebounds import oracle
from referees import (
    MIXED,
    outcome,
    pattern_order,
    permuted,
    reference_search,
    report_fields,
    rescaled,
    rescaled_per_index,
    rotation,
    swapped,
)


def projected_stacks(monkeypatch):
    """The stacks of off-pattern rows A_off the oracle projects, one SVD call
    and one (r, w) matrix per S_f each."""
    stacks = []
    project = oracle._project

    def spy(a_off, *args):
        stacks.append(a_off.copy())
        return project(a_off, *args)

    monkeypatch.setattr(oracle, "_project", spy)
    return stacks


def dft_pair_searched(d):
    """patterns_searched of dft_pair at d: Donoho-Stark gives |S_f| |S_g| >=
    d, and ({0}, all d) comes first at product d, so the search returns 1 +
    the number of patterns of smaller product: 25516 at d = 9, 180412 at
    11, 349793 at 12 and 1334256 at 13."""
    return 1 + sum(comb(d, i) * comb(d, j) for i in range(1, d + 1)
                   for j in range(1, d + 1) if i * j < d)


def witness_l0_product(bisystem, report):
    x = report.witness
    return l0(analysis(bisystem.first, x)) * l0(analysis(bisystem.second, x))


def block_basis():
    """A seeded orthonormal basis of a union of coordinate blocks, a line in
    rows 0, 4, 5 (its last column) and a plane in rows 1, 2, 3: the
    identity's rows over it outside sets of one size have different ranks
    (k = 0, 1, 2 at size 3)."""
    rng = np.random.default_rng(2)
    q = np.zeros((6, 3))
    q[:3, :2] = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    q[3:, 2] = rng.standard_normal(3)
    q[3:, 2] /= np.linalg.norm(q[3:, 2])
    return q[[3, 0, 1, 2, 4, 5]]


def block_frame():
    """The identity against a seeded tight frame of eight vectors q u_j,
    q = block_basis(), that span q's columns, so the admissible space is
    their 3-dimensional span.  The rows of u (3 x 8) are orthonormal, and the
    line's row is zero at the first three functionals, so the line is the
    pattern (3, 5): rows 0, 4, 5 and functionals 3 ... 7.  In classes where
    the identity has fewer sets, such as (3, 5) with 20 against 56, the
    search projects the identity's S_f; in the swap, its S_g."""
    q = block_basis()
    z = np.random.default_rng(0).standard_normal((3, 8))
    z[2, :3] = 0.0
    u = np.linalg.qr(z[::-1].T)[0].T[::-1]
    return BiSystem(identity_system(6), PairedSystem(q @ u, (q @ u).T))


def inert_ks(p, h):
    """Each projected set's k, read from its inert block: the width less the
    leading rows of p (width, m, F) that are exactly 0 and whose rows of h
    (width, width, F) are exactly those of I."""
    width = len(p)
    inert = (p == 0).all(axis=1) & (h == np.eye(width)[:, :, None]).all(axis=1)
    return width - np.logical_and.accumulate(inert, axis=0).sum(axis=0)


class TestMinSparsityProduct:
    def test_identity_pair_d2(self):
        b = BiSystem(identity_system(2), identity_system(2))
        r = min_sparsity_product(b, admissible_space(b))
        assert r.best_lhs == 1
        assert r.rhs_at_witness == pytest.approx(1.0)
        assert abs(r.gap) <= 1e-9

    def test_rotated_pair(self):
        b = BiSystem(identity_system(2), from_hilbert_vectors(rotation(45.0)))
        r = min_sparsity_product(b, admissible_space(b))
        assert r.best_lhs == 2
        assert r.rhs_at_witness == pytest.approx(2.0)
        assert abs(r.gap) <= 1e-9

    def test_dft_pair_matches_comb(self):
        b = generate("dft_pair", {"d": 4}, 0)
        r = min_sparsity_product(b, admissible_space(b))
        assert r.best_lhs == 4
        assert r.rhs_at_witness == pytest.approx(4.0)
        assert abs(r.gap) <= 1e-9
        # Equality witnesses at product 4 are combs up to phase: a single
        # spike (1 x 4) or a two-spike comb (2 x 2); the size ordering finds
        # the spike pattern first.
        mags = np.abs(r.witness)
        supp = sorted(np.nonzero(mags > 1e-9)[0].tolist())
        assert supp in ([0], [0, 2], [1, 3])

    def test_guard(self):
        b = generate("dft_pair", {"d": 15}, 0)
        with pytest.raises(GuardExceededError):
            min_sparsity_product(b, admissible_space(b), guard=24)

    def test_trivial_space(self):
        b = BiSystem(identity_system(2), identity_system(2))
        with pytest.raises(NoAdmissibleSignalError):
            min_sparsity_product(b, AdmissibleSpace(np.zeros((2, 0))))

    def test_absurd_tol_rank_raises_only_the_witness_check(self):
        """At tol_rank = 1e300 the Gram cutoff overflows to inf, so the filter
        passes the first pattern and its witness fails the l0 check.  No numpy
        warning comes first: pytest makes a RuntimeWarning an error."""
        b = generate("dft_pair", {"d": 4}, 0)
        with pytest.raises(DegenerateInputError, match="witness l0 product 4 differs"):
            min_sparsity_product(b, admissible_space(b, 1e300), tol_rank=1e300)

    @pytest.mark.parametrize("family,params", [
        ("dft_pair", {"d": 4}),
        ("rotated_pair", {"d": 2, "angle": 45.0}),
        ("subspace_union", {"d": 4, "split": 2}),
        ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.1}),
        # The winner (pattern 7921) lies many chunks into its size class.
        ("dft_pair", {"d": 8}),
        # A single functional per system: the first pattern leaves no
        # off-pattern rows, a (k, 0, w) stack of rank 0.
        ("identity_pair", {"d": 1}),
    ])
    def test_batched_matches_reference(self, family, params):
        b = generate(family, params, seed=3)
        space = admissible_space(b)
        want = reference_search(b, space)
        assert report_fields(min_sparsity_product(b, space)) == report_fields(want)

    @pytest.mark.parametrize("make", [
        # subspace_union with its systems swapped: the first system is the
        # identity (n = 6) over a 2-dimensional admissible space, so every S_f
        # with |S_f| <= 4 leaves rows of full column rank.
        lambda: swapped(generate("subspace_union", {"d": 6, "split": 2}, seed=5)),
        # The identity against the line through q = (0, 0, 1, 2, -1, 3): only
        # S_f = {2, 3, 4, 5}, the last of its size class, projects to k = 1;
        # every S_f before it has k = 0.
        lambda: BiSystem(identity_system(6), from_hilbert_vectors(
            np.array([[0.0], [0.0], [1.0], [2.0], [-1.0], [3.0]]) / np.sqrt(15.0))),
    ], ids=["swapped-subspace-union", "sparse-line"])
    def test_empty_projection_skips_but_counts(self, make):
        # Every S_g of an S_f whose off-pattern rows have full column rank
        # (k = 0) is skipped without linear algebra, yet counted.
        b = make()
        space = admissible_space(b)
        rows = b.first.functionals @ space.basis
        assert null_space_basis(rows[1:], oracle.MARGIN * TOL_RANK).shape[1] == 0
        want = reference_search(b, space)
        assert report_fields(min_sparsity_product(b, space)) == report_fields(want)

    def test_winner_projection_cached_from_earlier_class(self, monkeypatch):
        # dft_pair d=6 wins in size class (1, 6) with S_f = {0}, projected in
        # class (1, 1).  Each class projects the side with fewer sets (ties:
        # S_f) unless only the other side's sets are projected already, and
        # each (side, size) is projected once, in its first class: S_f of
        # size 1 in (1, 1), S_g of size 1 in (2, 1) and S_f of size 2 in
        # (2, 2); 27 matrices.  Class (5, 1) reuses the S_g of size 1 and the
        # winner's class (1, 6) the S_f of size 1, where the fewer-sets rule
        # alone would project 6 S_f and the single S_g of size 6.
        b = generate("dft_pair", {"d": 6}, 0)
        space = admissible_space(b)
        want = reference_search(b, space)
        stacks = projected_stacks(monkeypatch)
        got = min_sparsity_product(b, space)
        assert report_fields(got) == report_fields(want)
        assert int(np.count_nonzero(np.abs(got.witness) > ETA)) == 1
        assert [stack.shape[:2] for stack in stacks] == [(6, 5), (6, 5), (15, 4)]
        # The first stack holds the first system's rows, the second the
        # second's: the rows outside S_f = {0} and outside S_g = {0}.
        rows = [b.first.functionals @ space.basis, b.second.functionals @ space.basis]
        scale = max(np.linalg.norm(np.concatenate(rows), 2), 1.0)
        for side in (0, 1):
            np.testing.assert_array_equal(stacks[side][0], rows[side][1:] / scale)

    def test_shifted_gram_formed_once_per_s_f(self, monkeypatch):
        # subspace_union d=8 split=4 pairs a system of 4 indices with one of
        # 8, and every class projects the 4's sets: its S_f, and its S_g in
        # the swap.  Each projected set's H = P^H P - cutoff * I is formed
        # once per call, with its projection: one call per size, 15 matrices
        # in all.  Every later class of that size downdates that H in place:
        # the H of the 4's sets of size 2 in the classes that test 2 and 3
        # of the 8's indices (and 4 in the swap).  Weyl's bound rules no set
        # out in those classes, so every filter call reads a whole H.
        base = generate("subspace_union", {"d": 8, "split": 4}, 0)
        formed, downdated = [], []
        project, downdate = oracle._project, oracle._downdate

        def project_spy(*args):
            formed.append(project(*args))
            return formed[-1]

        def downdate_spy(q, h, s_g):
            downdated.append((h, s_g.shape[1]))
            return downdate(q, h, s_g)

        monkeypatch.setattr(oracle, "_project", project_spy)
        monkeypatch.setattr(oracle, "_downdate", downdate_spy)
        for b, reads in [(base, [[8], [2, 3], [2], []]),
                         (swapped(base), [[8], [2, 3, 4], [2], [2]])]:
            formed.clear()
            downdated.clear()
            space = admissible_space(b)
            assert report_fields(min_sparsity_product(b, space)) == report_fields(
                reference_search(b, space))
            assert [f[1].shape[-1] for f in formed] == [4, 6, 4, 1]
            assert all(any(np.shares_memory(h, f[1]) for f in formed) for h, _ in downdated)
            assert [[size for h, size in downdated if np.shares_memory(h, f[1])]
                    for f in formed] == reads

    def test_dft_pair_d12_projects_each_size_in_one_call(self, monkeypatch):
        # dft_pair d=12 reaches size classes of comb(12, 6) = 924 sets on
        # each side, but projects only the side with fewer sets, or reuses the
        # other side's: 376 matrices in five calls, each by one stacked
        # eigendecomposition of the sets' Gram matrices (the confirmations
        # factor single matrices by SVD).
        b = generate("dft_pair", {"d": 12}, 0)
        space = admissible_space(b)
        stacks = projected_stacks(monkeypatch)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            report = min_sparsity_product(b, space)
        assert (report.best_lhs, report.patterns_searched) == (12, 349793)
        assert witness_l0_product(b, report) == 12
        assert [len(stack) for stack in stacks] == [12, 12, 66, 66, 220]
        stacked = [len(a) for (a, *_), _ in eigh.call_args_list if a.ndim == 3]
        assert stacked == list(map(len, stacks))
        assert sum(stacked) == 376

    @pytest.mark.parametrize("d,searched", [(d, dft_pair_searched(d)) for d in range(2, 14)])
    def test_dft_pair_filters_only_the_winners_class(self, monkeypatch, d, searched):
        # Weyl's bound rules out every projected set in every class before
        # the winner's, (1, d), whose spikes S_f = {j} all leave room for
        # the single S_g of size d: one filter call, of d live sets against
        # it.  d = 13 needs guard 26 and projects stacks of 13 columns.
        calls = []
        candidates = oracle._candidates

        def spy(p, live, h, s_g):
            calls.append((live.dtype, live.tolist(), s_g.shape))
            return candidates(p, live, h, s_g)

        monkeypatch.setattr(oracle, "_candidates", spy)
        b = generate("dft_pair", {"d": d}, 0)
        report = min_sparsity_product(b, admissible_space(b), guard=2 * d)
        assert (report.best_lhs, report.patterns_searched) == (d, searched)
        assert witness_l0_product(b, report) == d
        assert calls == [(np.dtype(bool), [True] * d, (1, d))]

    def test_subspace_union_d10_matches_reference(self, monkeypatch):
        # subspace_union d = 10, split = 3: Weyl's bound leaves six size
        # classes to filter, one of them in two blocks, and the winner is
        # confirmed by its null space.
        calls = []
        candidates = oracle._candidates

        def spy(*args):
            calls.append(args)
            return candidates(*args)

        monkeypatch.setattr(oracle, "_candidates", spy)
        b = generate("subspace_union", {"d": 10, "split": 3}, seed=1)
        space = admissible_space(b)
        report = min_sparsity_product(b, space)
        assert (report.best_lhs, report.patterns_searched) == (10, 4397)
        assert len(calls) == 7
        assert report_fields(report) == report_fields(reference_search(b, space))

    @pytest.mark.parametrize("d,tables", [
        (9, [(9, 8), (9, 7), (9, 1), (9, 9)]),
        (12, [(12, 11), (12, 10), (12, 9), (12, 1), (12, 12)]),
    ])
    def test_dft_pair_builds_tables_of_projected_and_filtered_classes(self, monkeypatch, d,
                                                                       tables):
        # Each subset table is built once per call, and only for a class that
        # needs it: the complements of each projected size, in the order the
        # classes first project them (sizes 1 and 2 are projected on both
        # sides, from one table each), and the S_f and S_g of the one class
        # that is filtered, (1, d).  Every other class is ruled out whole by
        # Weyl's bound and builds nothing.
        built = []
        subsets = oracle._subsets

        def spy(m, size):
            built.append((m, size))
            return subsets(m, size)

        monkeypatch.setattr(oracle, "_subsets", spy)
        b = generate("dft_pair", {"d": d}, 0)
        report = min_sparsity_product(b, admissible_space(b))
        assert report.best_lhs == d
        assert built == tables

    def test_size_class_mixing_k_matches_reference(self, monkeypatch):
        # The identity's sets of size 3 leave rows over block_basis() whose
        # null spaces have dimension 0, 1 or 2.  Against the eight-vector
        # frame the winner is the line, S_f = {0, 4, 5} (k = 1) in class
        # (3, 5), which projects the identity's S_f in blocks of nine; the
        # plane's S_f = {1, 2, 3} (k = 2) follows it in the same block, and
        # Weyl's bound leaves it live at |S_g| = 5, so one filter call tests
        # S_f of k = 1 and k = 2 together.  With the systems swapped the same
        # happens to the identity's S_g in class (5, 3).  Each set's k is
        # read from its inert block.
        rows = block_basis()
        ks = {null_space_basis(np.delete(rows, s, axis=0), oracle.MARGIN * TOL_RANK).shape[1]
              for s in itertools.combinations(range(6), 3)}
        assert ks == {0, 1, 2}
        mixed = []
        candidates = oracle._candidates

        def spy(p, live, h, s_g):
            # The identity's sets are projected against the frame's 8 rows.
            if p.shape[1] == 8 and set(inert_ks(p, h)[live].tolist()) >= {1, 2}:
                mixed.append(live)
            return candidates(p, live, h, s_g)

        monkeypatch.setattr(oracle, "_candidates", spy)
        for b in (block_frame(), swapped(block_frame())):
            space = admissible_space(b)
            want = reference_search(b, space)
            assert want.best_lhs == 15
            mixed.clear()
            assert report_fields(min_sparsity_product(b, space)) == report_fields(want)
            assert mixed

    @pytest.mark.parametrize("c", [1e8, 1e10, 1e-8, 1e12])
    def test_rescaled_matches_reference(self, c):
        b = rescaled(generate("dft_pair", {"d": 4}, 0), c)
        space = admissible_space(b)
        assert outcome(min_sparsity_product, b, space) == outcome(reference_search, b, space)

    def test_near_cutoff_perturbation_matches_reference(self):
        base = {"family": "dft_pair", "params": {"d": 6}}
        b = generate("perturbed", {"base": base, "magnitude": 1e-6}, seed=4)
        space = admissible_space(b)
        assert report_fields(min_sparsity_product(b, space)) == report_fields(
            reference_search(b, space))

    @pytest.mark.parametrize("s,x", [(3e-6, 2e-5), (1e-8, 5e-3)])
    def test_filter_passes_pattern_confirmed_near_cutoff(self, s, x):
        # The first pattern ({0}, {0}) leaves A_off = [0, s] and C_off = [-x, 1],
        # a stack whose smallest singular value, about s * x, is below
        # tol_rank, so it is feasible.  At s = 3e-6, just above the projection
        # cutoff, V = e_1 and the projected block is only -x: a Gram cutoff of
        # (MARGIN * tol_rank)^2 would reject the pattern.  At s = 1e-8 the
        # projection keeps both directions; cut at tol_rank, it would keep e_1
        # alone, and the Gram test would reject the pattern.
        a = np.array([[1.0, 0.0], [0.0, s]])
        c = np.array([[1.0, 1.0], [-x, 1.0]])
        b = BiSystem(PairedSystem(np.linalg.inv(a), a), PairedSystem(np.linalg.inv(c), c))
        space = admissible_space(b)
        want = reference_search(b, space)
        assert want.patterns_searched == 1
        assert report_fields(min_sparsity_product(b, space)) == report_fields(want)

    def test_filter_passes_pattern_confirmed_near_cutoff_projecting_s_g(self):
        # The mirror of the test above for a class that projects S_g: with
        # n = 3 and m = 2, class (1, 1) projects the two S_g.  The first
        # pattern ({0}, {0}) leaves C_off = [0, 3e-6], just above the
        # projection cutoff, so V = e_1, and A_off = [[-x, 1], [0, 1e-12]],
        # whose projected block is about x.  The Gram cutoff must come from
        # ||A / s||, 2 (t + ||A / s|| / MARGIN)^2; given the first side's,
        # 2 (t + ||C / s|| / MARGIN)^2, the filter rejects the pattern, the
        # search confirms a later one, and this test fails.
        x = 2e-5
        f = np.array([[1.0, 1.0], [-x, 1.0], [0.0, 1e-12]])
        c = np.diag([1e-3, 3e-6])
        b = BiSystem(PairedSystem(np.linalg.pinv(f), f), PairedSystem(np.linalg.inv(c), c))
        space = admissible_space(b)
        want = reference_search(b, space)
        assert (want.best_lhs, want.patterns_searched) == (1, 1)
        assert report_fields(min_sparsity_product(b, space)) == report_fields(want)

    def test_witness_disagreeing_with_pattern_raises(self):
        # Rescaling tau_j -> c tau_j, f_j -> f_j / c keeps every hypothesis,
        # but at c = 1e10 the witness's coefficients fall below the absolute
        # eta, so its l0 product (0) is not the winning pattern's (1 x 1).
        b = rescaled(generate("dft_pair", {"d": 4}, 0), 1e10)
        with pytest.raises(DegenerateInputError):
            min_sparsity_product(b, admissible_space(b))

    def test_deterministic(self):
        b = generate("subspace_union", {"d": 5, "split": 3}, 7)
        space = admissible_space(b)
        a = min_sparsity_product(b, space)
        c = min_sparsity_product(b, space)
        assert a.best_lhs == c.best_lhs
        assert a.patterns_searched == c.patterns_searched
        np.testing.assert_array_equal(a.witness, c.witness)


@st.composite
def small_bisystems(draw):
    """Seeded subspace_union (either way round) or perturbed bisystems with
    n + m <= 12."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        d = draw(st.integers(1, 10))
        split = draw(st.integers(1, min(d, 12 - d)))
        b = generate("subspace_union", {"d": d, "split": split}, seed)
        return swapped(b) if draw(st.booleans()) else b
    family = draw(st.sampled_from(["identity_pair", "dft_pair", "rotated_pair", "subspace_union"]))
    d = draw(st.integers(2, 6))
    params = {"d": d}
    if family == "rotated_pair":
        params["angle"] = draw(st.floats(1.0, 89.0))
    if family == "subspace_union":
        params["split"] = draw(st.integers(1, d))
    base = {"family": family, "params": params, "seed": seed}
    return generate("perturbed", {"base": base, "magnitude": draw(st.floats(0.0, 0.9))}, seed)


# Example count from the hypothesis profile (tests/conftest.py).
@given(small_bisystems())
def test_batched_search_matches_reference_property(b):
    space = admissible_space(b)
    want = reference_search(b, space)
    assert report_fields(min_sparsity_product(b, space)) == report_fields(want)


def test_pattern_order_is_the_referees():
    # The oracle makes its size classes one at a time; the referee states
    # their order as one sort.
    for n in range(GUARD + 1):
        for m in range(GUARD + 1 - n):
            assert list(oracle._pattern_order(n, m)) == pattern_order(n, m), (n, m)


# Example count from the hypothesis profile (tests/conftest.py).
@given(small_bisystems(), st.data())
def test_cutoffs_bound_the_spectral_cutoffs_property(b, data):
    # Each Gram cutoff reads the tested rows' norm as min(||C / s||_F, 1),
    # where the soundness argument needs ||C / s||_2: it must never fall
    # below 2 (t + ||C / s||_2 / MARGIN)^2, up to the two norms' own rounding
    # (they are equal for a single row).  The rows are rescaled by a drawn
    # factor per index, so that the floor s >= 1 and the spread of the rows
    # both come into play.
    scales = [10.0 ** np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=size,
                                                  max_size=size)))
              for size in (b.first.n, b.second.n)]
    b = BiSystem(rescaled_per_index(b.first, scales[0]), rescaled_per_index(b.second, scales[1]))
    used = []
    project = oracle._project

    def spy(a_off, c_unit, t, cutoff):
        used.append((c_unit, cutoff))
        return project(a_off, c_unit, t, cutoff)

    with mock.patch.object(oracle, "_project", spy):
        try:
            min_sparsity_product(b, admissible_space(b))
        except (DegenerateInputError, NoAdmissibleSignalError):
            pass  # the cutoffs were used all the same
    assert used
    t = TOL_RANK + 1e3 * np.finfo(float).eps
    for c_unit, cutoff in used:
        spectral = np.linalg.svd(c_unit, compute_uv=False)[0]
        assert cutoff >= 2.0 * (t + spectral / oracle.MARGIN) ** 2 * (1 - 16 * np.finfo(float).eps)


# The theorem's symmetries (ROADMAP item 1) at moderate scales: swapping the
# systems, permuting either system's indices, per-index rescaling by c in
# [1e-2, 1e2] and an ambient change of basis S = I + E, ||E||_2 <= 0.9
# (tau_j -> S tau_j, f_j -> f_j S^-1), leave best_lhs and the witness's l0
# product unchanged; the change of basis keeps patterns_searched too.
@given(small_bisystems(), st.data())
def test_search_invariant_under_symmetries(b, data):
    want = min_sparsity_product(b, admissible_space(b))
    product = witness_l0_product(b, want)
    n, m = b.first.n, b.second.n
    scales = [np.array(data.draw(st.lists(st.floats(1e-2, 1e2), min_size=size, max_size=size)))
              for size in (n, m)]
    e = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((b.d, b.d))
    s = np.eye(b.d) + e * (data.draw(st.floats(0.0, 0.9)) / np.linalg.norm(e, 2))
    based = BiSystem(*(PairedSystem(s @ p.vectors, p.functionals @ np.linalg.inv(s), p.field)
                       for p in (b.first, b.second)))
    changed = [
        swapped(b),
        BiSystem(permuted(b.first, data.draw(st.permutations(range(n)))),
                 permuted(b.second, data.draw(st.permutations(range(m))))),
        BiSystem(rescaled_per_index(b.first, scales[0]), rescaled_per_index(b.second, scales[1])),
        based,
    ]
    for other in changed:
        got = min_sparsity_product(other, admissible_space(other))
        assert got.best_lhs == want.best_lhs
        assert witness_l0_product(other, got) == product
        if other is based:
            assert got.patterns_searched == want.patterns_searched


def swap_corpus():
    """(bisystem, its swap) pairs: dft_pair, identity_pair and rotated_pair
    (angle 25) at d = 2 ... 6 and their perturbed versions (magnitude 0.2),
    and subspace_union at d + 2 with split 1 and 2, at seeds 0-2."""
    for seed, d in itertools.product(range(3), range(2, 7)):
        for family, params in [("dft_pair", {"d": d}), ("identity_pair", {"d": d}),
                               ("rotated_pair", {"d": d, "angle": 25.0})]:
            b = generate(family, params, seed)
            yield b, swapped(b)
            base = {"family": family, "params": params}
            p = generate("perturbed", {"base": base, "magnitude": 0.2}, seed)
            yield p, swapped(p)
        for split in (1, 2):
            b = generate("subspace_union", {"d": d + 2, "split": split}, seed)
            yield b, swapped(b)


def test_swap_matches_reference_and_keeps_minimum():
    # Swapping first and second exchanges which side each size class
    # projects; the report must still be the reference's, and the swap must
    # keep best_lhs and the witness's l0 product.
    for b, other in swap_corpus():
        found = []
        for c in (b, other):
            space = admissible_space(c)
            got = min_sparsity_product(c, space)
            assert report_fields(got) == report_fields(reference_search(c, space))
            found.append((got.best_lhs, witness_l0_product(c, got)))
        assert found[0] == found[1]


# A change of ambient basis inside the admissible space: the search over the
# exact basis I of a w = d noise stack and over the unitary LAPACK picks from
# that noise (the basis before the rank-0 test) finds the same minimum.
@pytest.mark.parametrize("family,params", [
    *(("dft_pair", {"d": d}) for d in range(2, 8)),
    ("rotated_pair", {"d": 3, "angle": 30.0}),
    ("rotated_pair", {"d": 4, "angle": 45.0}),
    ("perturbed", {"base": {"family": "dft_pair", "params": {"d": 4}}, "magnitude": 0.2}),
    ("perturbed", {"base": {"family": "rotated_pair", "params": {"d": 3}}, "magnitude": 0.1}),
])
def test_search_invariant_under_admissible_change_of_basis(family, params):
    b = generate(family, params, seed=2)
    d = b.d
    space = admissible_space(b)
    eye = np.eye(d)
    stacked = np.vstack([eye - b.first.vectors @ b.first.functionals,
                         eye - b.second.vectors @ b.second.functionals])
    assert np.array_equal(space.basis, np.eye(d, dtype=stacked.dtype))
    lapack = AdmissibleSpace(np.linalg.svd(stacked)[2].conj().T)
    assert not np.allclose(lapack.basis, space.basis)
    got = min_sparsity_product(b, space)
    other = min_sparsity_product(b, lapack)
    assert other.best_lhs == got.best_lhs
    assert other.patterns_searched == got.patterns_searched
    assert witness_l0_product(b, other) == witness_l0_product(b, got)
    assert report_fields(got) == report_fields(reference_search(b, space))
    assert report_fields(other) == report_fields(reference_search(b, lapack))


# A Gram cutoff of the size the oracle uses on unit-scaled rows.
CUTOFF = 2e-8


def psd_stack(rng, k, lam_min, count, field):
    """count Hermitian PSD k x k matrices, real or complex, with smallest
    eigenvalue lam_min and the others drawn from [lam_min, 1]."""
    shape = (count, k, k)
    z = rng.standard_normal(shape)
    if field == "complex":
        z = z + 1j * rng.standard_normal(shape)
    q = np.linalg.qr(z)[0]
    eig = rng.uniform(lam_min, 1.0, (count, k))
    eig[:, 0] = lam_min
    return (q * eig[:, None, :]) @ q.conj().swapaxes(-1, -2)


class TestLdlFilter:
    """oracle._indefinite on G - cutoff * I passes (True) every matrix whose
    smallest eigenvalue is <= cutoff / 2 and rejects every one whose smallest
    eigenvalue is >= 2 * cutoff, the two sides of the filter's margin."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_smallest_eigenvalue(self, k, field):
        rng = np.random.default_rng(10 * k + (field == "complex"))
        for lam in (0.0, CUTOFF / 2, CUTOFF * (1 - 1e-3), CUTOFF * (1 + 1e-3), 100 * CUTOFF):
            g = psd_stack(rng, k, lam, 40, field)
            low = np.linalg.eigvalsh(g)[:, 0]
            passed = oracle._indefinite(np.moveaxis(g - CUTOFF * np.eye(k), (-2, -1), (0, 1)))
            assert passed[low <= CUTOFF / 2].all()
            assert not passed[low >= 2 * CUTOFF].any()
            # Within 1e-3 of the cutoff, far above rounding, the pivot test
            # decides exactly as the smallest eigenvalue does.
            np.testing.assert_array_equal(passed, low <= CUTOFF)
            if k == 1:
                # The k = 1 test is the thresholded support test
                # ||p_off||^2 <= cutoff.
                np.testing.assert_array_equal(passed, g[:, 0, 0].real <= CUTOFF)

    @pytest.mark.parametrize("zero", range(3))
    def test_zero_pivot_passes(self, zero):
        # Only a factorization whose every pivot is > 0 rejects a pattern.
        h = np.eye(3)
        h[zero, zero] = 0.0
        assert oracle._indefinite(np.moveaxis(h[None], (-2, -1), (0, 1)).copy()).all()

    def test_batches_of_any_shape(self):
        # Stacks with two batch axes, as the filter passes (k, k, S_g, S_f).
        rng = np.random.default_rng(0)
        g = psd_stack(rng, 3, 0.0, 12, "complex")
        g[::2] += 2 * CUTOFF * np.eye(3)
        passed = oracle._indefinite(
            np.moveaxis((g - CUTOFF * np.eye(3)).reshape(3, 4, 3, 3), (-2, -1), (0, 1)))
        np.testing.assert_array_equal(passed.ravel(), np.arange(12) % 2 == 1)


def projection_stack(rng, m, ks, field, heavy=(), light=1.0, near=(), residual=0.0):
    """The oracle's p (width, m, F) for F = len(ks) sets S_f, width =
    max(max(ks), 1): p[:, :, i_f] is the width x m P^T of one S_f, whose last
    ks[i_f] rows are its projection and whose other rows, the inert ones,
    are exactly 0, as oracle._project makes them.  Each width x m block is
    scaled to spectral norm 1, the unit scale of the oracle's rows, and then
    its inert rows are zeroed.  Before the scaling, the rows in `near` lose
    all but `residual` of their component along one unit direction of the
    last ks[i_f] coordinates, so the patterns whose S_g holds every other
    row have a Gram matrix with a smallest eigenvalue of about residual^2
    times the rows' mass; and the rows outside `heavy` are scaled by
    `light`, so that with light << 1 the rows in `heavy` carry almost all of
    P^H P."""
    width = max(max(ks), 1)
    p = np.empty((width, m, len(ks)), complex if field == "complex" else float)
    for i_f, k in enumerate(ks):
        z = rng.standard_normal((m, width))
        if field == "complex":
            z = z + 1j * rng.standard_normal((m, width))
        v = np.zeros(width, z.dtype)
        if k:
            v[width - k:] = rng.standard_normal(k)
            v /= np.linalg.norm(v)
        rows = list(near)
        z[rows] -= np.outer(z[rows] @ v.conj(), v) * (1 - residual)
        z[[i for i in range(m) if i not in heavy]] *= light
        p[:, :, i_f] = (z / (np.linalg.norm(z, 2) or 1.0)).T
        p[:width - k, :, i_f] = 0.0
    return p


def assert_filter_sound(p, ks):
    """The search's filter on every size class of S_g, Weyl's bound
    (oracle._ruled_out) and then oracle._candidates on the sets the bound
    leaves live, with H built as oracle._project builds it (exactly I in
    each set's inert block), passes each pattern whose smallest eigenvalue
    of P_off^H P_off is <= CUTOFF / 2 and rejects each one whose smallest
    eigenvalue is >= 2 * CUTOFF; an S_f with k = 0 passes none.  Every S_g
    of a size the bound rules out for an S_f leaves a smallest eigenvalue
    >= CUTOFF, by SVD, up to a rounding allowance of 1e-14 (about 100 u
    ||P||^2).  Returns the number of sizes ruled out for each S_f."""
    width, m = p.shape[:2]
    h = np.einsum("imf,jmf->ijf", p.conj(), p)
    i = np.arange(width)
    h[i, i] = np.where(i[:, None] < width - ks, 1.0, h[i, i] - CUTOFF)
    ruled_out = oracle._ruled_out(p.transpose(2, 0, 1), h.transpose(2, 0, 1))
    for size in range(1, m + 1):
        s_g = oracle._subsets(m, size)
        keep = oracle._candidates(p, ruled_out <= size, h, s_g)
        passed = {(int(i_f), int(i_g)) for i_f, i_g in zip(*np.nonzero(keep))}
        for i_f, k in enumerate(ks):
            for i_g, rows in enumerate(s_g):
                if k == 0:
                    assert (i_f, i_g) not in passed
                    continue
                off = np.delete(p[width - k:, :, i_f].T, rows, axis=0)
                sigma = np.linalg.svd(off, compute_uv=False)
                low = sigma[-1] ** 2 if len(sigma) == k else 0.0
                if ruled_out[i_f] > size:
                    assert low >= CUTOFF - 1e-14, (i_f, rows, low)
                if low >= 2 * CUTOFF:
                    assert (i_f, i_g) not in passed, (i_f, rows, low)
                elif low <= CUTOFF / 2:
                    assert (i_f, i_g) in passed, (i_f, rows, low)
    assert (ruled_out[ks == 0] == m + 1).all()
    return ruled_out


@st.composite
def planted_projections(draw):
    """A projection stack with m <= 8 rows and k <= 6, real or complex, with a
    near-null direction planted on a drawn set of rows and a drawn share of
    the mass on another."""
    m = draw(st.integers(1, 8))
    ks = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    rows = st.sets(st.integers(0, m - 1))
    return projection_stack(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, ks,
        draw(st.sampled_from(["real", "complex"])),
        heavy=draw(rows), light=10.0 ** draw(st.floats(-6.0, 0.0)),
        near=draw(rows), residual=draw(st.sampled_from([0.0, 1e-5, 1e-4, 1e-3, 1e-2]))), ks


# Example count from the hypothesis profile (tests/conftest.py).
@given(planted_projections())
def test_downdated_filter_sound_property(stack):
    p, ks = stack
    assert_filter_sound(p, np.array(ks))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("light", [1e-4, 1e-6])
def test_downdated_filter_sound_under_cancellation(field, light):
    # Rows 0-4 carry almost all of H = P^H P - cutoff * I, so every S_g that
    # holds them leaves a Gram matrix of size light^2 ~ cutoff downdated from
    # H by cancellation; rows 5-7 hold a near-null direction as well.
    rng = np.random.default_rng(int(1 / light) + (field == "complex"))
    ks = np.array([1, 3, 4, 4])
    p = projection_stack(rng, 8, ks, field, heavy=range(5), light=light,
                         near=range(5, 8), residual=1e-2)
    assert_filter_sound(p, ks)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("light", [1e-4, 2e-4, 3e-4, 5e-4])
def test_weyl_bound_exact_at_k_1(field, light):
    # At k = 1, G - cutoff * I is ||p||^2 - cutoff less the masses of the
    # rows in S_g, so the bound is exact: it rules out a size exactly when
    # every S_g of that size leaves ||p_off||^2 > CUTOFF.  Rows 5-7, of mass
    # about light^2 / 4 each, put that edge near the cutoff at size 5.
    rng = np.random.default_rng(int(1 / light) + (field == "complex"))
    ks = np.array([1, 1, 1, 1, 2, 0])
    p = projection_stack(rng, 8, ks, field, heavy=range(5), light=light)
    ruled_out = assert_filter_sound(p, ks)
    for i_f in np.flatnonzero(ks == 1):
        # The sizes b at which the m - b lightest rows weigh > CUTOFF.
        lightest = np.cumsum(np.sort(np.abs(p[-1, :, i_f]) ** 2))
        assert ruled_out[i_f] == np.count_nonzero(lightest > CUTOFF)


@st.composite
def planted_off_rows(draw):
    """(a_off, bases, mix): a stack a_off (F, r, w) of off-pattern rows, real
    or complex, with r < w and r >= w both drawn, each set's rows U
    diag(sigma) W^H for orthonormal U (r x min(r, w)) and unitary W (w x w),
    the set's basis, with sigma log-uniform on [1e-12, 1], so that its rows
    have norm <= 1 and its singular values straddle every projection cut;
    the last w - min(r, w) columns of W are null.  mix (F, w) draws one
    combination of the columns per set."""
    w, r, count = draw(st.integers(1, 8)), draw(st.integers(0, 10)), draw(st.integers(1, 4))
    field = draw(st.sampled_from(["real", "complex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = min(r, w)
    exponents = draw(st.lists(st.floats(-12.0, 0.0), min_size=count * rank,
                              max_size=count * rank))
    sigma = 10.0 ** np.reshape(exponents, (count, rank))

    def unitary(n):
        z = rng.standard_normal((n, n))
        if field == "complex":
            z = z + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]

    bases = np.stack([unitary(w) for _ in range(count)])
    a_off = np.stack([unitary(r)[:, :rank] * s @ basis[:, :rank].conj().T
                      for s, basis in zip(sigma, bases)]).reshape(count, r, w)
    return a_off, bases, rng.standard_normal((count, w))


# Example count from the hypothesis profile (tests/conftest.py).
@given(planted_off_rows())
def test_projection_keeps_every_near_null_direction_property(planted):
    # The projection step's soundness: with c_unit = I the live rows of each
    # set's p are V^T, and every unit c with ||A_off c / s|| <= t, as a
    # confirmed pattern has, lies within 1 / MARGIN of V: each planted
    # direction of singular value <= t, and one combination of them.
    a_off, bases, mix = planted
    w = a_off.shape[2]
    t = TOL_RANK + 1e3 * np.finfo(float).eps
    p, h, _, _ = oracle._project(a_off, np.eye(w), t, CUTOFF)
    for i_f, k in enumerate(inert_ks(p, h)):
        v = p[len(p) - k:, :, i_f].T
        near = [basis for basis in bases[i_f].T if np.linalg.norm(a_off[i_f] @ basis) <= t]
        if near:
            combined = np.transpose(near) @ mix[i_f, :len(near)]
            near.append(combined / np.linalg.norm(combined))
        for c in near:
            if np.linalg.norm(a_off[i_f] @ c) <= t:
                assert np.linalg.norm(c - v @ (v.conj().T @ c)) <= 1 / oracle.MARGIN, (i_f, k)


def test_inert_block_decides_nothing():
    # One projection of three sets whose rows leave null spaces of dimension
    # k = 0, 1 and 2 (rank 3, 2 and 1 of w = 3, by exact zero rows): width 2.
    # Each set of k < 2 has 2 - k inert rows of p, exactly 0, and an inert
    # block of h, exactly I, ahead of its own.  Weyl's bound and the filter's
    # mask are those of the set's own k x k block, and the k = 0 set is ruled
    # out at every size, m + 1, and passes no pattern.
    rng = np.random.default_rng(4)
    m = 5
    a_off = rng.standard_normal((3, 3, 3)) / 4
    a_off[1, 2:] = a_off[2, 1:] = 0.0
    c_unit = rng.standard_normal((m, 3)) / 4
    t = TOL_RANK + 1e3 * np.finfo(float).eps
    p, h, ruled_out, least = oracle._project(a_off, c_unit, t, CUTOFF)
    assert p.shape == (2, m, 3) and h.shape == (2, 2, 3)
    np.testing.assert_array_equal(inert_ks(p, h), [0, 1, 2])
    for i_f, k in enumerate((0, 1, 2)):
        assert not p[:2 - k, :, i_f].any()
        assert np.array_equal(h[:2 - k, :, i_f], np.eye(2)[:2 - k])
        assert np.array_equal(h[:, :2 - k, i_f], np.eye(2)[:, :2 - k])
        if k:  # Weyl's bound on the set's own block
            own = oracle._ruled_out(p[2 - k:, :, [i_f]].transpose(2, 0, 1),
                                    h[2 - k:, 2 - k:, [i_f]].transpose(2, 0, 1))
            assert ruled_out[i_f] == own[0]
    assert ruled_out[0] == m + 1 and least == ruled_out.min()
    passed = 0
    for size in range(1, m + 1):
        s_g = oracle._subsets(m, size)
        keep = oracle._candidates(p, np.ones(3, bool), h, s_g)
        assert not keep[0].any()
        for i_f, k in ((1, 1), (2, 2)):
            block = slice(2 - k, None)
            own = oracle._indefinite(oracle._downdate(p[block, :, [i_f]], h[block, block, [i_f]], s_g))
            np.testing.assert_array_equal(keep[i_f], own[:, 0])
        passed += int(keep.sum())
    assert 0 < passed < 2 * (2**m - 1)


class TestMixedField:
    """referees.MIXED, the real identity paired with the complex DFT basis:
    its search must find dft_pair d=4's minimum, as the reference loop does."""

    mixed = MIXED

    def test_search_matches_reference(self):
        space = admissible_space(self.mixed)
        report = min_sparsity_product(self.mixed, space)
        assert report.best_lhs == 4
        assert report_fields(report) == report_fields(reference_search(self.mixed, space))


@pytest.mark.parametrize("run", [
    lambda b, space: exhaustive_verify(b, space, trials=5),
    lambda b, space: min_sparsity_product(b, space),
], ids=["exhaustive_verify", "min_sparsity_product"])
@pytest.mark.parametrize("space,message", [
    (AdmissibleSpace(np.eye(5, 4)), r"shape \(5, 4\), expected \(d, w\) = \(4, 4\)"),
    # dft_pair's basis is complex-typed: refused for the real rotated_pair.
    (admissible_space(generate("dft_pair", {"d": 4}, 0)), "complex but the bisystem is real"),
], ids=["five-rows", "complex-on-real"])
def test_space_checked_against_bisystem(run, space, message):
    """Both consumers of a space refuse one that does not fit the bisystem,
    with StructuralError, before any draw or product."""
    with pytest.raises(StructuralError, match=message):
        run(generate("rotated_pair", {"d": 4}, 0), space)
