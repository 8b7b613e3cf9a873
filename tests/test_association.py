import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista_align import association
from vista_align.association import (MAX_CANDIDATES, AffinityMatrix,
                                     _ascend, build_affinity,
                                     consistency_score, densest_clique,
                                     has_clique)
from vista_align.core import (Hyperparameters, InputError, RigidTransform,
                              rotation_z)
from vista_align.submap import Submap

from conftest import clique_number, densest_clique_exact, random_rotation


def sub(points):
    pts = np.asarray(points, dtype=float)
    return Submap([0.0, 0.0], list(range(len(pts))), pts)


def _pair_density(idx, M):
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


def test_build_affinity_matches_entrywise_kernel():
    rng = np.random.default_rng(5)
    pa = rng.uniform(0.0, 1.5, size=(6, 3))
    pb = np.vstack([rotation_z(20.0).dot(pa[:5].T).T + rng.normal(0.0, 0.03, (5, 3)),
                    rng.uniform(0.0, 1.5, size=(2, 3))])
    params = Hyperparameters()
    pairs, aff = build_affinity(sub(pa), sub(pb), params)
    DA = np.linalg.norm(pa[:, None] - pa[None], axis=2)
    DB = np.linalg.norm(pb[:, None] - pb[None], axis=2)
    expected = np.eye(len(pairs))
    for p, (i, k) in enumerate(pairs.tolist()):
        for q, (j, m) in enumerate(pairs.tolist()):
            if i != j and k != m and DA[i, j] >= params.gamma \
                    and DB[k, m] >= params.gamma:
                expected[p, q] = consistency_score(DA[i, j] - DB[k, m],
                                                   params.sigma, params.epsilon)
    assert 0 < np.count_nonzero(expected) - len(pairs) < expected.size - len(pairs)
    assert np.allclose(aff.entries, expected, rtol=1e-12, atol=0.0)


def test_build_affinity_identical_submaps():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    params = Hyperparameters()
    pairs, aff = build_affinity(sub(pts), sub(pts), params)
    assert len(pairs) == 9
    correct = [i * 3 + i for i in range(3)]
    block = aff.entries[np.ix_(correct, correct)]
    assert np.allclose(block, 1.0)


def test_build_affinity_shared_endpoint_zeroed():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    _, aff = build_affinity(sub(pts), sub(pts), Hyperparameters())
    assert aff.entries[0 * 2 + 0, 0 * 2 + 1] == 0.0     # (0, 0) vs (0, 1)
    assert aff.entries[0 * 2 + 0, 1 * 2 + 0] == 0.0     # (0, 0) vs (1, 0)


def test_build_affinity_gamma_rule():
    # two points in map A only 0.05 m apart (< gamma = 0.1)
    pa = [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]]
    pb = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    _, aff = build_affinity(sub(pa), sub(pb), Hyperparameters())
    assert aff.entries[0 * 2 + 0, 1 * 2 + 1] == 0.0     # (0, 0) vs (1, 1)
    # and symmetric on the target side
    _, aff = build_affinity(sub(pb), sub(pa), Hyperparameters())
    assert aff.entries[0 * 2 + 0, 1 * 2 + 1] == 0.0


def test_build_affinity_size_limit():
    pts = np.random.default_rng(0).uniform(size=(101, 3))
    assert 101 * 100 > MAX_CANDIDATES
    with pytest.raises(InputError, match="n_max"):
        build_affinity(sub(pts), sub(pts[:100]), Hyperparameters())


def test_build_affinity_swap_symmetry():
    rng = np.random.default_rng(1)
    pa = rng.uniform(0.0, 3.0, size=(4, 3))
    pb = rng.uniform(0.0, 3.0, size=(5, 3))
    params = Hyperparameters()
    pairs, aff_ab = build_affinity(sub(pa), sub(pb), params)
    _, aff_ba = build_affinity(sub(pb), sub(pa), params)
    swapped = pairs[:, 1] * len(pa) + pairs[:, 0]   # (i, k) -> (k, i) in B-A
    assert np.array_equal(aff_ab.entries,
                          aff_ba.entries[np.ix_(swapped, swapped)])


def test_build_affinity_rigid_invariance():
    rng = np.random.default_rng(2)
    pa = rng.uniform(0.0, 4.0, size=(5, 3))
    pb = rng.uniform(0.0, 4.0, size=(4, 3))
    t = RigidTransform(random_rotation(rng), rng.normal(size=3))
    params = Hyperparameters()
    _, aff1 = build_affinity(sub(pa), sub(pb), params)
    _, aff2 = build_affinity(sub(pa), sub(t.apply(pb)), params)
    assert np.allclose(aff1.entries, aff2.entries, atol=1e-9)


# Points on a 5 cm lattice in a 1 m cube: intra-map distances often agree
# across the two maps or fall below gamma, so every rule of the build fires.
LATTICE_POINTS = st.lists(st.tuples(*[st.integers(0, 20)] * 3), min_size=1,
                          max_size=7).map(lambda pts: 0.05 * np.array(pts, float))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pa=LATTICE_POINTS, pb=LATTICE_POINTS)
def test_build_affinity_meets_the_solver_precondition(pa, pb):
    # What AffinityMatrix states and the solvers rely on, unchecked at run time.
    pairs, aff = build_affinity(sub(pa), sub(pb), Hyperparameters())
    na, nb = len(pa), len(pb)
    M = aff.entries
    assert aff.size == na * nb and M.shape == (na * nb, na * nb)
    assert np.array_equal(M, M.T)
    assert M.min() >= 0.0 and M.max() <= 1.0
    assert np.all(np.diag(M) == 1.0)
    shared = ((pairs[:, None, 0] == pairs[None, :, 0])
              | (pairs[:, None, 1] == pairs[None, :, 1]))
    np.fill_diagonal(shared, False)
    assert not M[shared].any()
    assert pairs.tolist() == [list(divmod(p, nb)) for p in range(na * nb)]


def unit_graph(n, edges):
    """Affinity with unit weight on listed edges, used as a hand oracle."""
    M = np.zeros((n, n))
    for i, j in edges:
        M[i, j] = M[j, i] = 1.0
    np.fill_diagonal(M, 1.0)
    return AffinityMatrix(M)


def test_densest_clique_complete_graph():
    aff = unit_graph(4, [(i, j) for i in range(4) for j in range(i)])
    out = densest_clique(aff)
    assert out.tolist() == [0, 1, 2, 3]
    assert _pair_density(out, aff.entries) == 4.0


def test_densest_clique_picks_larger_group():
    # disjoint consistent groups of size 3 and 2
    aff = unit_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    out = densest_clique(aff)
    assert out.tolist() == [0, 1, 2]
    assert out.tolist() == densest_clique_exact(aff).tolist()


def test_densest_clique_true_associations_under_rigid_transform():
    rng = np.random.default_rng(3)
    pa = rng.uniform(0.0, 5.0, size=(8, 3))
    t = RigidTransform(rotation_z(40.0), np.array([2.0, -1.0, 0.0]))
    pb = t.apply(pa)
    params = Hyperparameters()
    # 8 true associations + 4 wrong ones, small enough for the oracle
    cand = [(i, i) for i in range(8)] + [(0, 1), (2, 5), (3, 7), (6, 4)]
    M = np.zeros((12, 12))
    for p, (i, k) in enumerate(cand):
        for q, (j, m) in enumerate(cand):
            if p == q:
                M[p, q] = 1.0
                continue
            if i == j or k == m:
                continue
            da = np.linalg.norm(pa[i] - pa[j])
            db = np.linalg.norm(pb[k] - pb[m])
            if da < params.gamma or db < params.gamma:
                continue
            x = da - db
            if abs(x) <= params.epsilon:
                M[p, q] = math.exp(-0.5 * (x / params.sigma) ** 2)
    aff = AffinityMatrix(M)
    expected = list(range(8))
    assert densest_clique_exact(aff).tolist() == expected
    assert densest_clique(aff).tolist() == expected


def test_densest_clique_exact_empty_graph_tie_break():
    # no edges: every singleton has density 1; lexicographically first wins
    aff = unit_graph(4, [])
    assert densest_clique_exact(aff).tolist() == [0]


def test_densest_clique_exact_triangle_with_pendants():
    # triangle {0,1,2} plus pendant nodes 3 (attached) and 4 (isolated)
    aff = unit_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert densest_clique_exact(aff).tolist() == [0, 1, 2]


def test_densest_clique_exact_too_large():
    aff = unit_graph(21, [])
    with pytest.raises(ValueError, match="capped at 20"):
        densest_clique_exact(aff)


def test_densest_clique_empty_input():
    aff = AffinityMatrix(np.zeros((0, 0)))
    assert densest_clique(aff).size == 0
    assert densest_clique_exact(aff).size == 0
    assert has_clique(aff, 0) and not has_clique(aff, 1)


@st.composite
def clique_cases(draw):
    """An affinity from build_affinity on seeded point sets that share a
    rigidly moved, noisy part, or a random symmetric matrix whose
    off-diagonal entries are 0 or positive."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        na, nb = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        pa = rng.uniform(0.0, 2.0, size=(na, 3))
        pb = rng.uniform(0.0, 2.0, size=(nb, 3))
        k = draw(st.integers(0, min(na, nb)))
        t = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)),
                           rng.normal(size=3))
        pb[:k] = t.apply(pa[:k]) + rng.normal(0.0, 0.02, size=(k, 3))
        return build_affinity(sub(pa), sub(pb), Hyperparameters())[1]
    n = draw(st.integers(0, 24))
    M = np.triu(rng.uniform(size=(n, n)), k=1)
    M[rng.uniform(size=(n, n)) > rng.uniform()] = 0.0
    M = M + M.T
    np.fill_diagonal(M, 1.0)
    return AffinityMatrix(M)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(aff=clique_cases())
def test_densest_clique_is_a_clique_and_has_clique_is_exact(aff):
    # align_maps skips a pair with no (s_max + 1)-clique because of this:
    # the heuristic's inlier set is a clique, so it is no larger than omega.
    omega = clique_number(aff)
    out = densest_clique(aff)
    assert np.all(aff.entries[np.ix_(out, out)] > 0.0)
    assert len(out) <= omega
    for k in range(omega + 2):
        assert has_clique(aff, k) == (k <= omega)
    assert not has_clique(aff, aff.size + 1)


def test_densest_clique_output_always_feasible():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        M = rng.uniform(size=(n, n))
        M = 0.5 * (M + M.T)
        M[M < 0.45] = 0.0
        np.fill_diagonal(M, 1.0)
        out = densest_clique(AffinityMatrix(M))
        for i in out:
            for j in out:
                if i != j:
                    assert M[i, j] > 0.0
        assert _pair_density(out, M) >= 1.0


def _reference_ascend(M, u, iterations, restart):
    """The ascent loop with no cycle exit: it runs every step until the
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


def test_ascend_longer_cycle_returns_the_full_schedule_result():
    M = np.roll(np.eye(3), 1, axis=0)        # e_0 -> e_1 -> e_2 -> e_0
    start = np.eye(3)[0]
    for iterations in (1, 2, 3, 4, 5, 6, 7, 199, 200):
        counted = CountingMatrix(M)
        got = _ascend(counted, start, iterations, start)
        want = _reference_ascend(M, start, iterations, start)
        assert got.tobytes() == want.tobytes()
        assert counted.calls <= 3


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


def _clique_and_matvecs(monkeypatch, ascend, aff):
    """densest_clique with `ascend` as its ascent loop, and its matvecs."""
    calls = []

    def counted(M, u, iterations, restart):
        matrix = CountingMatrix(M)
        out = ascend(matrix, u, iterations, restart)
        calls.append(matrix.calls)
        return out

    monkeypatch.setattr(association, "_ascend", counted)
    return densest_clique(aff), sum(calls)


@pytest.mark.parametrize("overlap", [False, True])
def test_densest_clique_cycle_exit_keeps_the_inlier_set(monkeypatch, overlap):
    rng = np.random.default_rng(3)
    pa = rng.uniform(0.0, 4.0, size=(16, 3))
    pb = rng.uniform(0.0, 4.0, size=(16, 3))
    if overlap:                      # 10 of 16 points shared, moved rigidly
        t = RigidTransform(rotation_z(40.0), np.array([2.0, -1.0, 0.0]))
        pb[:10] = t.apply(pa[:10])
    pairs, aff = build_affinity(sub(pa), sub(pb), Hyperparameters())
    want, ref_calls = _clique_and_matvecs(monkeypatch, _reference_ascend, aff)
    got, calls = _clique_and_matvecs(monkeypatch, _ascend, aff)
    assert got.tolist() == want.tolist()
    if overlap:
        assert pairs[got].tolist() == [[i, i] for i in range(10)]
    else:                            # the whole homotopy schedule cycles
        assert ref_calls > 10000
        assert calls < 1000
