import math

import numpy as np
import pytest

from vista_align import association
from vista_align.association import (MAX_CANDIDATES, Association,
                                     AffinityMatrix, _ascend, build_affinity,
                                     consistency_score, densest_clique,
                                     densest_clique_exact)
from vista_align.core import (Hyperparameters, RigidTransform, SizeLimitError,
                              TooLargeError, rotation_z)
from vista_align.submap import Submap

from conftest import random_rotation


def sub(points):
    pts = np.asarray(points, dtype=float)
    return Submap([0.0, 0.0], list(range(len(pts))), pts)


def _pair_density(selected, M, assoc):
    idx = [assoc.index(a) for a in selected]
    return float(M[np.ix_(idx, idx)].sum()) / len(idx)


def test_consistency_score_zero_difference():
    assert consistency_score(0.0, 0.05, 0.1) == 1.0


def test_consistency_score_table_values():
    assert abs(consistency_score(0.1, 0.05, 0.1) - math.exp(-2.0)) < 1e-12


def test_consistency_score_cutoff():
    assert consistency_score(0.1001, 0.05, 0.1) == 0.0
    assert consistency_score(-0.2, 0.05, 0.1) == 0.0


def test_consistency_score_vectorized():
    x = np.array([0.0, 0.05, 0.2])
    out = consistency_score(x, 0.05, 0.1)
    assert np.allclose(out, [1.0, math.exp(-0.5), 0.0], atol=1e-12)


def test_consistency_score_validates_params():
    with pytest.raises(ValueError):
        consistency_score(0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        consistency_score(0.0, 0.05, -1.0)


def test_affinity_matrix_validation():
    with pytest.raises(ValueError):
        AffinityMatrix(2, np.array([[1.0, 0.5], [0.4, 1.0]]))   # asymmetric
    with pytest.raises(ValueError):
        AffinityMatrix(2, np.array([[1.0, 2.0], [2.0, 1.0]]))   # out of range
    with pytest.raises(ValueError):
        AffinityMatrix(2, np.array([[0.5, 0.0], [0.0, 1.0]]))   # bad diagonal


@pytest.mark.parametrize("i, j", [(0, 599), (300, 450), (598, 599)])
def test_affinity_matrix_symmetry_checked_in_every_row_band(i, j):
    # 600 x 600 is checked in bands of 218 rows; an asymmetric pair in any
    # band, the last one included, is rejected.
    M = np.eye(600)
    M[i, j] = M[j, i] = 0.5
    AffinityMatrix(600, M)
    M[j, i] = 0.25
    with pytest.raises(ValueError, match="symmetric"):
        AffinityMatrix(600, M)


def test_build_affinity_matches_entrywise_kernel():
    rng = np.random.default_rng(5)
    pa = rng.uniform(0.0, 1.5, size=(6, 3))
    pb = np.vstack([rotation_z(20.0).dot(pa[:5].T).T + rng.normal(0.0, 0.03, (5, 3)),
                    rng.uniform(0.0, 1.5, size=(2, 3))])
    params = Hyperparameters()
    assoc, aff = build_affinity(sub(pa), sub(pb), params)
    DA = np.linalg.norm(pa[:, None] - pa[None], axis=2)
    DB = np.linalg.norm(pb[:, None] - pb[None], axis=2)
    expected = np.eye(len(assoc))
    for p, (i, k) in enumerate((a.index_a, a.index_b) for a in assoc):
        for q, (j, m) in enumerate((a.index_a, a.index_b) for a in assoc):
            if i != j and k != m and DA[i, j] >= params.gamma \
                    and DB[k, m] >= params.gamma:
                expected[p, q] = consistency_score(DA[i, j] - DB[k, m],
                                                   params.sigma, params.epsilon)
    assert 0 < np.count_nonzero(expected) - len(assoc) < expected.size - len(assoc)
    assert np.allclose(aff.entries, expected, rtol=1e-12, atol=0.0)


def test_build_affinity_identical_submaps():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    params = Hyperparameters()
    assoc, aff = build_affinity(sub(pts), sub(pts), params)
    assert len(assoc) == 9
    correct = [assoc.index(Association(i, i)) for i in range(3)]
    block = aff.entries[np.ix_(correct, correct)]
    assert np.allclose(block, 1.0)


def test_build_affinity_shared_endpoint_zeroed():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assoc, aff = build_affinity(sub(pts), sub(pts), Hyperparameters())
    i_k = assoc.index(Association(0, 0))
    i_l = assoc.index(Association(0, 1))
    assert aff.entries[i_k, i_l] == 0.0
    k_i = assoc.index(Association(1, 0))
    assert aff.entries[i_k, k_i] == 0.0


def test_build_affinity_gamma_rule():
    # two points in map A only 0.05 m apart (< gamma = 0.1)
    pa = [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]]
    pb = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assoc, aff = build_affinity(sub(pa), sub(pb), Hyperparameters())
    p = assoc.index(Association(0, 0))
    q = assoc.index(Association(1, 1))
    assert aff.entries[p, q] == 0.0
    # and symmetric on the target side
    assoc, aff = build_affinity(sub(pb), sub(pa), Hyperparameters())
    p = assoc.index(Association(0, 0))
    q = assoc.index(Association(1, 1))
    assert aff.entries[p, q] == 0.0


def test_build_affinity_size_limit():
    pts = np.random.default_rng(0).uniform(size=(101, 3))
    assert 101 * 100 > MAX_CANDIDATES
    with pytest.raises(SizeLimitError):
        build_affinity(sub(pts), sub(pts[:100]), Hyperparameters())


def test_build_affinity_swap_symmetry():
    rng = np.random.default_rng(1)
    pa = rng.uniform(0.0, 3.0, size=(4, 3))
    pb = rng.uniform(0.0, 3.0, size=(5, 3))
    params = Hyperparameters()
    assoc_ab, aff_ab = build_affinity(sub(pa), sub(pb), params)
    assoc_ba, aff_ba = build_affinity(sub(pb), sub(pa), params)
    for p, ap in enumerate(assoc_ab):
        for q, aq in enumerate(assoc_ab):
            ps = assoc_ba.index(Association(ap.index_b, ap.index_a))
            qs = assoc_ba.index(Association(aq.index_b, aq.index_a))
            assert aff_ab.entries[p, q] == aff_ba.entries[ps, qs]


def test_build_affinity_rigid_invariance():
    rng = np.random.default_rng(2)
    pa = rng.uniform(0.0, 4.0, size=(5, 3))
    pb = rng.uniform(0.0, 4.0, size=(4, 3))
    t = RigidTransform(random_rotation(rng), rng.normal(size=3))
    params = Hyperparameters()
    _, aff1 = build_affinity(sub(pa), sub(pb), params)
    _, aff2 = build_affinity(sub(pa), sub(t.apply(pb)), params)
    assert np.allclose(aff1.entries, aff2.entries, atol=1e-9)


def unit_graph(n, edges):
    """Affinity with unit weight on listed edges, used as a hand oracle."""
    M = np.zeros((n, n))
    for i, j in edges:
        M[i, j] = M[j, i] = 1.0
    np.fill_diagonal(M, 1.0)
    assoc = [Association(i, 0) for i in range(n)]
    return AffinityMatrix(n, M), assoc


def test_densest_clique_complete_graph():
    aff, assoc = unit_graph(4, [(i, j) for i in range(4) for j in range(i)])
    out = densest_clique(aff, assoc)
    assert out == set(assoc)
    assert _pair_density(out, aff.entries, assoc) == 4.0


def test_densest_clique_picks_larger_group():
    # disjoint consistent groups of size 3 and 2
    aff, assoc = unit_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    out = densest_clique(aff, assoc)
    assert out == {assoc[0], assoc[1], assoc[2]}
    assert out == densest_clique_exact(aff, assoc)


def test_densest_clique_true_associations_under_rigid_transform():
    rng = np.random.default_rng(3)
    pa = rng.uniform(0.0, 5.0, size=(8, 3))
    t = RigidTransform(rotation_z(40.0), np.array([2.0, -1.0, 0.0]))
    pb = t.apply(pa)
    params = Hyperparameters()
    # 8 true associations + 4 wrong ones, small enough for the oracle
    cand = [Association(i, i) for i in range(8)]
    cand += [Association(0, 1), Association(2, 5), Association(3, 7),
             Association(6, 4)]
    na = nb = 8
    pts_a, pts_b = pa, pb
    M = np.zeros((12, 12))
    for p, ap in enumerate(cand):
        for q, aq in enumerate(cand):
            if p == q:
                M[p, q] = 1.0
                continue
            if ap.index_a == aq.index_a or ap.index_b == aq.index_b:
                continue
            da = np.linalg.norm(pts_a[ap.index_a] - pts_a[aq.index_a])
            db = np.linalg.norm(pts_b[ap.index_b] - pts_b[aq.index_b])
            if da < params.gamma or db < params.gamma:
                continue
            x = da - db
            if abs(x) <= params.epsilon:
                M[p, q] = math.exp(-0.5 * (x / params.sigma) ** 2)
    aff = AffinityMatrix(12, M)
    expected = set(cand[:8])
    assert densest_clique_exact(aff, cand) == expected
    assert densest_clique(aff, cand) == expected


def test_densest_clique_exact_empty_graph_tie_break():
    # no edges: every singleton has density 1; lexicographically first wins
    aff, assoc = unit_graph(4, [])
    assert densest_clique_exact(aff, assoc) == {assoc[0]}


def test_densest_clique_exact_triangle_with_pendants():
    # triangle {0,1,2} plus pendant nodes 3 (attached) and 4 (isolated)
    aff, assoc = unit_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert densest_clique_exact(aff, assoc) == {assoc[0], assoc[1], assoc[2]}


def test_densest_clique_exact_too_large():
    aff, assoc = unit_graph(21, [])
    with pytest.raises(TooLargeError):
        densest_clique_exact(aff, assoc)


def test_densest_clique_empty_input():
    aff = AffinityMatrix(0, np.zeros((0, 0)))
    assert densest_clique(aff, []) == set()
    assert densest_clique_exact(aff, []) == set()


def test_densest_clique_output_always_feasible():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        M = rng.uniform(size=(n, n))
        M = 0.5 * (M + M.T)
        M[M < 0.45] = 0.0
        np.fill_diagonal(M, 1.0)
        assoc = [Association(i, 0) for i in range(n)]
        aff = AffinityMatrix(n, M)
        out = densest_clique(aff, assoc)
        idx = [assoc.index(a) for a in out]
        for i in idx:
            for j in idx:
                if i != j:
                    assert M[i, j] > 0.0
        assert _pair_density(out, M, assoc) >= 1.0


def _reference_ascend(M, u, iterations, restart):
    """The ascent loop with no 2-cycle exit: it runs every step until the
    1e-9 convergence test fires."""
    for _ in range(iterations):
        v = np.maximum(M @ u, 0.0)
        norm = np.linalg.norm(v)
        v = v / norm if norm >= 1e-12 else restart
        if np.linalg.norm(v - u) < 1e-9:
            return v
        u = v
    return u


class CountingMatrix:
    """A matrix that counts its matrix-vector products."""

    def __init__(self, M):
        self.M, self.calls = M, 0

    def __matmul__(self, u):
        self.calls += 1
        return self.M @ u


def cycling_ascent():
    """A penalised matrix, its restart e_0 and a start that collapses.

    Node 0 is feasible with nodes 1-4, which are pairwise infeasible, and
    nodes 5 and 6 are infeasible with every other node (penalty -2). From
    the start (e_5 + e_6) / sqrt(2), M u < 0 everywhere, so the ascent
    restarts at e_0; e_0 maps to N_0, the normalised feasible neighbourhood
    {0, ..., 4}, and N_0 maps back to e_0, bit for bit.
    """
    n = 7
    M = np.full((n, n), -2.0)
    M[0, 1:5] = M[1:5, 0] = 0.8
    np.fill_diagonal(M, 1.0)
    restart = np.eye(n)[0]
    start = np.zeros(n)
    start[5:] = 1.0 / np.sqrt(2.0)
    return M, restart, start


@pytest.mark.parametrize("state", ["collapse", "e_j", "N_j"])
def test_ascend_two_cycle_returns_the_full_schedule_result(state):
    M, restart, start = cycling_ascent()
    u = {"collapse": start, "e_j": restart,
         "N_j": _reference_ascend(M, restart, 1, restart)}[state]
    ends = set()
    for iterations in (1, 2, 3, 4, 199, 200):
        counted = CountingMatrix(M)
        got = _ascend(counted, u, iterations, restart)
        want = _reference_ascend(M, u, iterations, restart)
        assert got.tobytes() == want.tobytes()
        assert counted.calls <= 3
        ends.add(want.tobytes())
    assert len(ends) == 2            # odd and even schedules end apart


def test_ascend_convergent_case_is_unchanged():
    rng = np.random.default_rng(6)
    M = rng.uniform(size=(30, 30))
    M = 0.5 * (M + M.T)
    M[M < 0.6] = 0.0
    np.fill_diagonal(M, 1.0)
    restart = np.eye(30)[0]
    u = np.full(30, 1.0 / np.sqrt(30.0))
    for iterations in (1, 2, 5, 200):
        counted = CountingMatrix(M)
        got = _ascend(counted, u, iterations, restart)
        want = _reference_ascend(M, u, iterations, restart)
        assert got.tobytes() == want.tobytes()
    assert counted.calls < 200       # the 200-step run converged


def _clique_and_matvecs(monkeypatch, ascend, aff, assoc):
    """densest_clique with `ascend` as its ascent loop, and its matvecs."""
    calls = []

    def counted(M, u, iterations, restart):
        matrix = CountingMatrix(M)
        out = ascend(matrix, u, iterations, restart)
        calls.append(matrix.calls)
        return out

    monkeypatch.setattr(association, "_ascend", counted)
    return densest_clique(aff, assoc), sum(calls)


@pytest.mark.parametrize("overlap", [False, True])
def test_densest_clique_cycle_exit_keeps_the_inlier_set(monkeypatch, overlap):
    rng = np.random.default_rng(3)
    pa = rng.uniform(0.0, 4.0, size=(16, 3))
    pb = rng.uniform(0.0, 4.0, size=(16, 3))
    if overlap:                      # 10 of 16 points shared, moved rigidly
        t = RigidTransform(rotation_z(40.0), np.array([2.0, -1.0, 0.0]))
        pb[:10] = t.apply(pa[:10])
    assoc, aff = build_affinity(sub(pa), sub(pb), Hyperparameters())
    want, ref_calls = _clique_and_matvecs(monkeypatch, _reference_ascend,
                                          aff, assoc)
    got, calls = _clique_and_matvecs(monkeypatch, _ascend, aff, assoc)
    assert got == want
    if overlap:
        assert {(a.index_a, a.index_b) for a in got} == {(i, i)
                                                        for i in range(10)}
    else:                            # the whole homotopy schedule cycles
        assert ref_calls > 10000
        assert calls < 1000
