import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista_align import alignment, association
from vista_align.association import (MAX_CANDIDATES, _ascend, _grow, _heaviest_row,
                                     _local_improve, _Penalised, build_affinity,
                                     consistency_score, densest_clique,
                                     has_clique)
from vista_align.core import (MAX_COORDINATE, Hyperparameters, InputError,
                              RigidTransform, rotation_z)
from vista_align.submap import Submap

from conftest import _grow as grow_dense
from conftest import _local_improve as local_improve_dense
from conftest import (affinity_from_dense, build_affinity_dense, clique_number,
                      dense, densest_clique_dense, densest_clique_exact,
                      has_clique_per_edge, random_rotation)


def sub(points):
    pts = np.asarray(points, dtype=float)
    return Submap([0.0, 0.0], list(range(len(pts))), pts)


def _pair_density(idx, M):
    return float(M[np.ix_(idx, idx)].sum()) / len(idx)


def test_consistency_score_zero_difference():
    assert consistency_score(0.0, 0.05, 0.1) == 1.0


def test_consistency_score_at_the_sigma_floor_stays_finite():
    # coordinates lie within +-MAX_COORDINATE, so no X reaches 4e9 m; at the
    # floor (X / sigma)^2 stays below 1.6e37, and warnings are errors here
    sigma = Hyperparameters(sigma=1.0 / MAX_COORDINATE).sigma
    assert consistency_score(4 * MAX_COORDINATE, sigma, 8 * MAX_COORDINATE) == 0.0
    with pytest.raises(ValueError, match="sigma must be at least 1e-09 m"):
        Hyperparameters(sigma=0.5 / MAX_COORDINATE)


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
    assert np.allclose(dense(aff), expected, rtol=1e-12, atol=0.0)


def test_build_affinity_identical_submaps():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    params = Hyperparameters()
    pairs, aff = build_affinity(sub(pts), sub(pts), params)
    assert len(pairs) == 9
    correct = [i * 3 + i for i in range(3)]
    block = dense(aff)[np.ix_(correct, correct)]
    assert np.allclose(block, 1.0)


def test_build_affinity_shared_endpoint_zeroed():
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    _, aff = build_affinity(sub(pts), sub(pts), Hyperparameters())
    assert dense(aff)[0 * 2 + 0, 0 * 2 + 1] == 0.0     # (0, 0) vs (0, 1)
    assert dense(aff)[0 * 2 + 0, 1 * 2 + 0] == 0.0     # (0, 0) vs (1, 0)


def test_build_affinity_gamma_rule():
    # two points in map A only 0.05 m apart (< gamma = 0.1)
    pa = [[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]]
    pb = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    _, aff = build_affinity(sub(pa), sub(pb), Hyperparameters())
    assert dense(aff)[0 * 2 + 0, 1 * 2 + 1] == 0.0     # (0, 0) vs (1, 1)
    # and symmetric on the target side
    _, aff = build_affinity(sub(pb), sub(pa), Hyperparameters())
    assert dense(aff)[0 * 2 + 0, 1 * 2 + 1] == 0.0


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
    assert np.array_equal(dense(aff_ab),
                          dense(aff_ba)[np.ix_(swapped, swapped)])


def test_build_affinity_rigid_invariance():
    rng = np.random.default_rng(2)
    pa = rng.uniform(0.0, 4.0, size=(5, 3))
    pb = rng.uniform(0.0, 4.0, size=(4, 3))
    t = RigidTransform(random_rotation(rng), rng.normal(size=3))
    params = Hyperparameters()
    _, aff1 = build_affinity(sub(pa), sub(pb), params)
    _, aff2 = build_affinity(sub(pa), sub(t.apply(pb)), params)
    assert np.allclose(dense(aff1), dense(aff2), atol=1e-9)


def assert_same_graph(aff, M):
    """`aff` holds exactly the non-zeros of the dense matrix M, in the
    order np.nonzero gives them."""
    ref = affinity_from_dense(M)
    assert aff.size == ref.size
    assert np.array_equal(aff.starts, ref.starts)
    assert np.array_equal(aff.cols, ref.cols)
    assert aff.entries.tobytes() == ref.entries.tobytes()


def test_build_affinity_matches_the_dense_build_at_the_cutoffs():
    # Axis-aligned points, so every distance and difference is exact:
    # |DA - DB| lands on epsilon from both sides, and distances on gamma.
    params = Hyperparameters(epsilon=0.125, sigma=0.0625, gamma=0.25)
    pa = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.25, 0.0]]
    pb = [[0.0, 0.0, 0.0], [0.875, 0.0, 0.0], [0.0, 0.0, 1.125],
          [0.0, 0.375, 0.0], [0.0, 0.0, 0.25], [1.0, 0.0, 0.0]]
    _, M = build_affinity_dense(sub(pa), sub(pb), params)
    nb = len(pb)
    for (i, k), (j, l) in [((0, 0), (1, 1)),      # X = +epsilon
                           ((0, 0), (1, 2)),      # X = -epsilon
                           ((0, 0), (2, 3)),      # DA = gamma, X = -epsilon
                           ((0, 0), (2, 4))]:     # DA = DB = gamma
        assert M[i * nb + k, j * nb + l] > 0.0
    assert M[0 * nb + 1, 2 * nb + 5] == 0.0       # X = epsilon, DB = 0.125 < gamma
    assert_same_graph(build_affinity(sub(pa), sub(pb), params)[1], M)

    # DB lies below the rounded DA - epsilon, yet DA - DB rounds to epsilon
    da, db = 0.12292057180858407, 0.022920571808584058
    assert db < da - 0.1 and da - db <= 0.1
    params = Hyperparameters(gamma=0.02)
    pa, pb = [[0.0, 0.0, 0.0], [da, 0.0, 0.0]], [[0.0, 0.0, 0.0], [db, 0.0, 0.0]]
    _, M = build_affinity_dense(sub(pa), sub(pb), params)
    assert M[0, 3] > 0.0
    assert_same_graph(build_affinity(sub(pa), sub(pb), params)[1], M)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e7])
def test_build_affinity_matches_the_dense_build(scale):
    for seed in range(30):
        rng = np.random.default_rng(seed)
        na, nb = rng.integers(1, 16, size=2)
        pa = rng.uniform(0.0, 4.0, size=(na, 3))
        pb = rng.uniform(0.0, 4.0, size=(nb, 3))
        k = int(rng.integers(0, min(na, nb) + 1))
        t = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)), rng.normal(size=3))
        pb[:k] = t.apply(pa[:k]) + rng.normal(0.0, 0.02, size=(k, 3))
        params = Hyperparameters(sigma=0.05 * scale, epsilon=0.1 * scale,
                                 gamma=0.1 * scale)
        sa, sb = sub(scale * pa), sub(scale * pb)
        pairs, aff = build_affinity(sa, sb, params)
        ref_pairs, M = build_affinity_dense(sa, sb, params)
        assert np.array_equal(pairs, ref_pairs)
        assert_same_graph(aff, M)


def test_build_affinity_drops_weights_that_underflow():
    # sigma = 0.002: exp(-X^2 / 2 sigma^2) underflows to 0 once |X| passes
    # sigma * 38.6 = 0.077, inside the 0.1 cutoff, and a zero weight makes
    # no edge, as a zero of the dense matrix is none
    rng = np.random.default_rng(5)
    sa, sb = (sub(rng.uniform(0.0, 4.0, size=(12, 3))) for _ in range(2))
    params = Hyperparameters(sigma=0.002)
    aff = build_affinity(sa, sb, params)[1]
    assert_same_graph(aff, build_affinity_dense(sa, sb, params)[1])
    assert len(aff.cols) < len(build_affinity(sa, sb, Hyperparameters())[1].cols)


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
    M = dense(aff)
    assert aff.size == na * nb and M.shape == (na * nb, na * nb)
    # the edges are M's non-zeros, in the order np.nonzero gives them
    edges = affinity_from_dense(M)
    assert np.array_equal(aff.starts, edges.starts)
    assert np.array_equal(aff.cols, edges.cols)
    assert np.array_equal(aff.entries, edges.entries)
    assert np.array_equal(M, M.T)
    assert M.min() >= 0.0 and M.max() <= 1.0
    assert np.all(np.diag(M) == 1.0)
    shared = ((pairs[:, None, 0] == pairs[None, :, 0])
              | (pairs[:, None, 1] == pairs[None, :, 1]))
    np.fill_diagonal(shared, False)
    assert not M[shared].any()
    assert pairs.tolist() == [list(divmod(p, nb)) for p in range(na * nb)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pa=LATTICE_POINTS, pb=LATTICE_POINTS)
def test_build_affinity_matches_the_dense_build_on_lattice_points(pa, pb):
    # lattice distances put |DA - DB| within rounding of epsilon and gamma
    assert_same_graph(build_affinity(sub(pa), sub(pb), Hyperparameters())[1],
                      build_affinity_dense(sub(pa), sub(pb), Hyperparameters())[1])


def unit_graph(n, edges):
    """Affinity with unit weight on listed edges, used as a hand oracle."""
    M = np.zeros((n, n))
    for i, j in edges:
        M[i, j] = M[j, i] = 1.0
    np.fill_diagonal(M, 1.0)
    return affinity_from_dense(M)


def test_densest_clique_complete_graph():
    aff = unit_graph(4, [(i, j) for i in range(4) for j in range(i)])
    out = densest_clique(aff)
    assert out.tolist() == [0, 1, 2, 3]
    assert _pair_density(out, dense(aff)) == 4.0


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
    aff = affinity_from_dense(M)
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
    aff = affinity_from_dense(np.zeros((0, 0)))
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
    return affinity_from_dense(M)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(aff=clique_cases())
def test_densest_clique_is_a_clique_and_has_clique_is_exact(aff):
    # align_maps skips a pair with no (s_max + 1)-clique because of this:
    # the heuristic's inlier set is a clique, so it is no larger than omega.
    omega = clique_number(aff)
    out = densest_clique(aff)
    assert np.all(dense(aff)[np.ix_(out, out)] > 0.0)
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
        out = densest_clique(affinity_from_dense(M))
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
    # only a 2-cycle exits early: a 3-cycle runs every step of the schedule
    M = np.roll(np.eye(3), 1, axis=0)        # e_0 -> e_1 -> e_2 -> e_0
    start = np.eye(3)[0]
    for iterations in (1, 2, 3, 4, 5, 6, 7, 199, 200):
        counted = CountingMatrix(M)
        got = _ascend(counted, start, iterations, start)
        want = _reference_ascend(M, start, iterations, start)
        assert got.tobytes() == want.tobytes()
        assert counted.calls == iterations


class Scaling:
    """An operator whose product scales u by `d`, entry by entry."""

    def __init__(self, d):
        self.d = d

    def __matmul__(self, u):
        return self.d * u


def test_ascend_holds_a_few_iterates_not_every_one():
    # d from 0.99 to 1.0: the iterate drifts toward the last entries and
    # neither converges nor cycles within 200 steps, so the ascent runs
    # them all; it keeps a few vectors of 8n bytes, not one per step
    n = 10_000
    M = Scaling(np.linspace(0.99, 1.0, n))
    u = np.full(n, 1.0 / np.sqrt(n))
    restart = np.zeros(n)
    restart[0] = 1.0
    want = _reference_ascend(M, u, 200, restart)
    tracemalloc.start()
    try:
        got = _ascend(M, u, 200, restart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(want, _reference_ascend(M, u, 199, restart))
    assert peak < 12 * 8 * n


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


def _clique_and_matvecs(monkeypatch, ascend, aff, fast_forward=True):
    """densest_clique with `ascend` as its ascent loop, and its matvecs;
    without `fast_forward`, the homotopy runs every round."""
    calls = []

    def counted(M, u, iterations, restart):
        matrix = CountingMatrix(M)
        out = ascend(matrix, u, iterations, restart)
        calls.append(matrix.calls)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(association, "_ascend", counted)
        if not fast_forward:
            patch.setattr(association._RestartCycle, "settles", lambda *args: False)
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
    want, ref_calls = _clique_and_matvecs(monkeypatch, _reference_ascend, aff,
                                          fast_forward=False)
    got, calls = _clique_and_matvecs(monkeypatch, _ascend, aff)
    assert got.tolist() == want.tolist()
    if overlap:
        assert pairs[got].tolist() == [[i, i] for i in range(10)]
    else:                            # the whole homotopy schedule cycles
        assert ref_calls > 10000
        assert calls < 50            # 42: two rounds, then the fast-forward


def _solve(monkeypatch, aff, fast_forward=True):
    """densest_clique's inlier set, the bytes of its u before rounding, its
    penalised products, and whether the fast-forward fired; without
    `fast_forward`, the homotopy runs every round."""
    seen = {"products": 0, "fired": False}
    product, settles, round_ = (association._Penalised.__matmul__,
                                association._RestartCycle.settles, association._round)

    def counted(self, u):
        seen["products"] += 1
        return product(self, u)

    def spied(self, *args):
        seen["fired"] = settles(self, *args)
        return seen["fired"]

    def rounded(u, affinity):
        seen["u"] = u.tobytes()
        return round_(u, affinity)

    with monkeypatch.context() as patch:
        patch.setattr(association._Penalised, "__matmul__", counted)
        patch.setattr(association._RestartCycle, "settles",
                      spied if fast_forward else lambda *args: False)
        patch.setattr(association, "_round", rounded)
        out = densest_clique(aff).tolist()
    return out, seen["u"], seen["products"], seen["fired"]


@pytest.mark.parametrize("overlap", [False, True])
def test_fast_forward_ends_where_the_full_schedule_does(monkeypatch, overlap):
    # the u the rounding starts from, bit for bit; a pair where the
    # fast-forward does not fire makes no extra penalised product
    fired = 0
    for seed in range(100):
        aff = seeded_affinity(seed, overlap)
        got = _solve(monkeypatch, aff)
        want = _solve(monkeypatch, aff, fast_forward=False)
        assert got[:2] == want[:2], seed
        if got[3]:
            fired += 1
            assert got[2] < want[2], seed
        else:
            assert got[2] == want[2], seed
    # 77 and 18 of 100: the overlapping pairs whose search finds no clique
    # of the shared points end on the restart 2-cycle too
    assert fired > 50 if not overlap else 0 < fired < 50


def test_fast_forward_cuts_the_products_of_a_zero_overlap_pair(monkeypatch):
    aff = random_affinity(32)            # 1,024 candidates, no overlap
    got = _solve(monkeypatch, aff)
    want = _solve(monkeypatch, aff, fast_forward=False)
    assert got[:2] == want[:2] and got[3]
    assert want[2] > 150 and got[2] <= 50      # 172 and 24


def thin_margin_affinity():
    """A zero-overlap graph (`seeded_affinity(1, False)`) and two candidates
    added by hand: k, joined to the restart row j alone, by 1.6e-7, and i,
    joined to j by 7e-8 and to j's other columns by 1e-9. So row i's margin
    in_i - d out_i over j's columns, out_i = 1.6e-7, turns negative near
    d = 0.9: at 0.96 the ascent settles on the restart 2-cycle, but at the
    next penalty the margin is thinner than the later stars' rounding
    (about 2 eps d_59 = 3.3e-8 an entry) could move. Returns the graph, j
    and i."""
    A = dense(seeded_affinity(1, False))
    n = len(A)
    j = int(np.argmax(A.sum(axis=1)))
    M = np.zeros((n + 2, n + 2))
    M[:n, :n] = A
    M[n, n] = M[n + 1, n + 1] = 1.0
    star = np.flatnonzero(A[j] > 0.0)
    M[n, star] = M[star, n] = 1e-9
    M[n, j] = M[j, n] = 7e-8
    M[n + 1, j] = M[j, n + 1] = 1.6e-7
    return affinity_from_dense(M), j, n


def test_fast_forward_refuses_a_margin_too_thin_at_the_next_penalty(monkeypatch):
    aff, j, i = thin_margin_affinity()
    assert _heaviest_row(aff) == j
    checks, settles = [], association._RestartCycle.settles

    def spied(self, d_next, penalised, u, restart):
        fired = settles(self, d_next, penalised, u, restart)
        P, Q = self.margins
        star = np.array_equal(u, association._step(penalised, restart, restart))
        checks.append((d_next, np.flatnonzero(P >= d_next * Q).tolist(), star, fired))
        return fired

    monkeypatch.setattr(association._RestartCycle, "settles", spied)
    got = _solve(monkeypatch, aff)
    monkeypatch.undo()
    want = _solve(monkeypatch, aff, fast_forward=False)
    assert got[:2] == want[:2] and got[3]
    # the first round that ends on its star is refused, on row i alone
    first = next(c for c in checks if c[2])
    assert first[1] == [i] and not first[3]
    assert checks[-1][3] and checks[-1][0] == first[0] * 1.4


def test_fast_forward_needs_u_to_be_the_star_bit_for_bit(monkeypatch):
    aff = random_affinity(32)            # 1,024 candidates, no overlap
    fired, settles = [], association._RestartCycle.settles

    def spied(self, d_next, penalised, u, restart):
        if settles(self, d_next, penalised, u, restart):
            fired.append((self, d_next, penalised.d, u.copy(), restart))
            return True
        return False

    monkeypatch.setattr(association._RestartCycle, "settles", spied)
    densest_clique(aff)
    (cycle, d_next, d, u, restart), = fired
    penalised = _Penalised(aff)
    penalised.penalise(d)
    assert settles(cycle, d_next, penalised, u, restart)
    # one ulp off star(d) in one entry of S: the later rounds could leave
    # the cycle, so the certificate refuses
    k = cycle.support[cycle.support != cycle.j][0]
    u[k] = np.nextafter(u[k], 1.0)
    assert not settles(cycle, d_next, penalised, u, restart)


def test_fast_forward_refuses_a_star_entry_the_last_rounds_can_drop():
    # restart row j gains a column of weight w. The later stars hold
    # fl(fl(w + d) - d) for d up to d_59 = 7.5e7, within 2 eps (w + d_59) =
    # 3.3e-8 of w: an entry w / ||a|| = 1.2e-8 could fall under _SUPPORT_TOL
    # there, so the certificate covers no row at any penalty; 3e-8 cannot
    A = dense(seeded_affinity(0, False))
    n = len(A)
    j = int(np.argmax(A.sum(axis=1)))
    penalties = [0.25 * 1.4 ** k for k in range(59)]
    for scale, covered in ((1.2e-8, False), (3e-8, True)):
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A
        M[n, n] = 1.0
        M[n, j] = M[j, n] = scale * np.linalg.norm(A[j])
        cycle = association._RestartCycle(affinity_from_dense(M), j, penalties[-1])
        P, Q = cycle._margins()
        assert any((P < d * Q).all() for d in penalties) == covered


def seeded_affinity(seed, overlap):
    """build_affinity on two seeded sets of 8-20 points; with `overlap`, at
    least 4 points of b are a rigidly moved, noisy copy of a's."""
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(8, 21, size=2)
    pa = rng.uniform(0.0, 4.0, size=(na, 3))
    pb = rng.uniform(0.0, 4.0, size=(nb, 3))
    if overlap:
        k = int(rng.integers(4, min(na, nb) + 1))
        t = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)),
                           rng.normal(size=3))
        pb[:k] = t.apply(pa[:k]) + rng.normal(0.0, 0.02, size=(k, 3))
    return build_affinity(sub(pa), sub(pb), Hyperparameters())[1]


@pytest.mark.parametrize("overlap", [False, True])
def test_densest_clique_matches_the_dense_reference(overlap):
    # 16-40 points a pair; the zero-overlap pairs run the whole homotopy and
    # leave it by the 2-cycle exit, the overlapping ones converge early.
    for seed in range(100):
        aff = seeded_affinity(seed, overlap)
        assert densest_clique(aff).tolist() == \
            densest_clique_dense(aff).tolist(), seed


def test_densest_clique_matches_the_dense_reference_on_small_pairs():
    # n <= 64: the rounding also grows a seed from every feasible pair
    for seed in range(60):
        rng = np.random.default_rng(seed)
        if seed % 3:
            na, nb = rng.integers(2, 9, size=2)
            pa = rng.uniform(0.0, 2.0, size=(na, 3))
            pb = rng.uniform(0.0, 2.0, size=(nb, 3))
            if seed % 3 == 2:                       # a rigidly moved, noisy part
                k = int(rng.integers(2, min(na, nb) + 1))
                t = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)),
                                   rng.normal(size=3))
                pb[:k] = t.apply(pa[:k]) + rng.normal(0.0, 0.02, size=(k, 3))
            aff = build_affinity(sub(pa), sub(pb), Hyperparameters())[1]
        else:                                       # arbitrary weights
            n = int(rng.integers(2, 65))
            M = np.triu(rng.uniform(size=(n, n)), k=1)
            M[rng.uniform(size=(n, n)) > rng.uniform(0.1, 0.6)] = 0.0
            M = M + M.T
            np.fill_diagonal(M, 1.0)
            aff = affinity_from_dense(M)
        assert aff.size <= 64
        assert densest_clique(aff).tolist() == densest_clique_dense(aff).tolist(), seed


def test_heaviest_row_is_the_dense_argmax():
    # Two hubs hold the same weights on different leaves: their row sums tie
    # exactly, and summed over the edges alone or over the dense row they
    # can round apart, either way.
    edge_argmax_differs = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 300
        w = rng.uniform(0.1, 1.0, size=40)
        M = np.zeros((n, n))
        for hub in (0, 1):
            leaves = rng.choice(np.arange(2, n), 40, replace=False)
            M[hub, leaves] = M[leaves, hub] = rng.permutation(w)
        np.fill_diagonal(M, 1.0)
        aff = affinity_from_dense(M)
        assert _heaviest_row(aff) == np.argmax(M.sum(axis=1))
        edge_argmax_differs += (np.argmax(np.add.reduceat(aff.entries, aff.starts[:-1]))
                                != np.argmax(M.sum(axis=1)))
    assert edge_argmax_differs > 0
    for seed in range(20):
        aff = seeded_affinity(seed, seed % 2 == 1)
        assert _heaviest_row(aff) == np.argmax(dense(aff).sum(axis=1))


def small_affinity(seed):
    """build_affinity on two seeded sets of 3-24 points; on odd seeds, at
    least 2 points of b are a rigidly moved, noisy copy of a's."""
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(3, 25, size=2)
    pa = rng.uniform(0.0, 4.0, size=(na, 3))
    pb = rng.uniform(0.0, 4.0, size=(nb, 3))
    if seed % 2:
        k = int(rng.integers(2, min(na, nb) + 1))
        t = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)),
                           rng.normal(size=3))
        pb[:k] = t.apply(pa[:k]) + rng.normal(0.0, 0.02, size=(k, 3))
    return build_affinity(sub(pa), sub(pb), Hyperparameters())[1]


def random_affinity(m):
    """build_affinity on two seeded sets of m random points: no overlap,
    about 5% of the candidate pairs are edges."""
    rng = np.random.default_rng(11)
    return build_affinity(sub(rng.uniform(0.0, 4.0, size=(m, 3))),
                          sub(rng.uniform(0.0, 4.0, size=(m, 3))),
                          Hyperparameters())[1]


def test_local_improve_matches_the_dense_reference():
    # from singletons, where some move nearly always gains, and from the
    # rounding's grown sets
    starts = moved = 0
    for seed in range(100):
        aff = small_affinity(seed)
        A, n = dense(aff), aff.size
        rng = np.random.default_rng(seed)
        sets = [[int(i)] for i in rng.choice(n, size=min(n, 8), replace=False)]
        sets += _grow(aff, rng.choice(n, size=(min(n, 6), 1), replace=False))[0]
        for start in sets:
            got = _local_improve(start, aff)
            assert got == local_improve_dense(start, A, A > 0.0), (seed, start)
            starts, moved = starts + 1, moved + (got != sorted(start))
    assert moved > starts // 2


def test_has_clique_matches_the_per_edge_bitsets(monkeypatch):
    # 2,500 random candidates, every node in the k-core: the search visits
    # many rows; on overlapping pairs it finds a clique within a few
    graphs = [random_affinity(50)] + [seeded_affinity(seed, True) for seed in range(8)]
    answers = set()
    for aff in graphs:
        got = [has_clique(aff, k) for k in range(2, 9)]
        assert got == [has_clique_per_edge(aff, k) for k in range(2, 9)]
        answers.update(got)
    assert answers == {True, False}

    # a 36-point map against a moved copy: 1,296 candidates, all in the
    # 5-core; the search packs the core, then one row per member it takes
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(36, 3)) * [1.0, 1.0, 0.15]
    aff = build_affinity(sub(pts), sub(pts + [0.3, -0.2, 0.0]), Hyperparameters())[1]
    assert association._k_core(aff, 5).all() and has_clique_per_edge(aff, 5)
    packbits, packed = np.packbits, []
    monkeypatch.setattr(np, "packbits",
                        lambda *args, **kwargs: packed.append(1) or packbits(*args, **kwargs))
    assert has_clique(aff, 5)
    assert len(packed) < 10


def test_screened_solve_peaks_where_the_build_does():
    # 2,500 candidates with no overlap, 50 points each in a 30 m cube: the
    # screen rejects the pair. Its k-core peel takes 9 bytes an edge, on top
    # of the graph's 16, where the build peaked at about 47 (2.2 MB), so the
    # screened solve peaks where the build does
    rng = np.random.default_rng(11)
    sa, sb = (sub(rng.uniform(0.0, 30.0, size=(50, 3))) for _ in range(2))
    params = Hyperparameters()
    assert not has_clique(build_affinity(sa, sb, params)[1], params.s_max + 1)
    peaks = []
    for run in (lambda: build_affinity(sa, sb, params),
                lambda: alignment.solve_submap_pair(sa, sb, params, need=params.s_max)):
        tracemalloc.start()
        try:
            out = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out is None
    build, solve = peaks
    assert abs(solve - build) <= 0.05 * build


def test_has_clique_peak_memory_is_a_small_fraction_of_the_dense_matrix():
    # every node of the 5-core is packed, but a bounded block at a time
    aff = random_affinity(50)
    tracemalloc.start()
    try:
        has_clique(aff, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * aff.size ** 2


@pytest.mark.parametrize("overlap", [False, True])
def test_penalised_product_and_clique_test_match_the_dense_matrix(overlap):
    rng = np.random.default_rng(7)
    for seed in range(10):
        aff = seeded_affinity(seed, overlap)
        A, n = dense(aff), aff.size
        infeasible = ~(A > 0.0)
        penalised = _Penalised(aff)
        # an iterate of the ascent is non-negative and often sparse
        vectors = [rng.uniform(size=n), np.maximum(rng.normal(size=n), 0.0),
                   np.eye(n)[rng.integers(n)]]
        for d in (0.0, 0.25, 0.35):
            penalised.penalise(d)
            Md = np.where(infeasible, -d, A)
            for u in vectors:
                np.testing.assert_allclose(penalised @ u, Md @ u,
                                           rtol=1e-12, atol=0.0)

        clique = densest_clique(aff)
        subsets = [clique, clique[:2], clique[1:], [int(rng.integers(n))]]
        subsets += [np.union1d(clique, [j]) for j in rng.integers(n, size=5)]
        subsets += [rng.choice(n, size=k, replace=False) for k in (2, 3, 5, 8)]
        mass = A.sum(axis=1)
        subsets += [np.arange(n), np.flatnonzero(mass > np.median(mass))]
        for s in subsets:
            inside = np.zeros(n, dtype=bool)
            inside[s] = True
            assert penalised.is_clique(inside) == \
                (not infeasible[np.ix_(s, s)].any())


def overlapping_affinity(seed, m=32, shared=20):
    """build_affinity on m seeded points against m points of which `shared`
    are a rigidly moved, noisy copy of the first: m^2 candidates, with a
    clique of about `shared` true associations."""
    rng = np.random.default_rng(seed)
    pa = rng.uniform(0.0, 4.0, size=(m, 3))
    pb = rng.uniform(0.0, 4.0, size=(m, 3))
    t = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)), rng.normal(size=3))
    pb[:shared] = t.apply(pa[:shared]) + rng.normal(0.0, 0.01, size=(shared, 3))
    return build_affinity(sub(pa), sub(pb), Hyperparameters())[1]


def schedule_penalties():
    penalties = [0.0]
    while len(penalties) < 60:
        penalties.append(0.25 if penalties[-1] == 0.0 else penalties[-1] * 1.4)
    return penalties


@pytest.mark.parametrize("overlap", [False, True])
def test_penalised_product_is_the_edge_list_expression_bit_for_bit(overlap):
    # the product's buffered, in-place form against the expression it
    # replaces, at the schedule's penalties, on dense, sparse and unit u
    rng = np.random.default_rng(3)
    graphs = [seeded_affinity(seed, overlap) for seed in range(5)]
    graphs.append(overlapping_affinity(4) if overlap else random_affinity(32))
    penalties = schedule_penalties()
    for aff in graphs:
        n, cols, starts = aff.size, aff.cols, aff.starts[:-1]
        penalised = _Penalised(aff)
        vectors = [rng.uniform(size=n), np.maximum(rng.normal(size=n), 0.0),
                   np.eye(n)[rng.integers(n)], np.zeros(n)]
        for d in (0.0, penalties[1], penalties[2], penalties[30], penalties[-1]):
            penalised.penalise(d)
            shifted = aff.entries + d
            held = []
            for u in vectors:
                want = np.add.reduceat(shifted * u[cols], starts) - d * u.sum()
                got = penalised @ u
                assert got.tobytes() == want.tobytes()
                held.append((got, want))
            # a product leaves earlier products' results as they were
            for got, want in held:
                assert got.tobytes() == want.tobytes()


def test_norm_is_numpy_norm_bit_for_bit():
    # np.linalg.norm squares by a dot product, not numpy's pairwise sum: on
    # some of these vectors the two round apart
    rng = np.random.default_rng(5)
    vectors = [np.eye(9)[4], np.zeros(3), rng.normal(size=5) * 1e-160,
               rng.normal(size=5) * 1e150, np.full(7, 1.0 / np.sqrt(7.0))]
    for _ in range(20):
        vectors += [rng.uniform(size=1024), np.maximum(rng.normal(size=1024), 0.0),
                    rng.lognormal(0.0, 3.0, size=1024)]
    pairwise_differs = 0
    for x in vectors:
        assert association._norm(x) == np.linalg.norm(x)
        pairwise_differs += math.sqrt(np.sum(x * x)) != np.linalg.norm(x)
    assert pairwise_differs > 0


@pytest.mark.parametrize("when", ["never", "default", "first"])
def test_grow_with_and_without_the_live_block_matches_the_dense_growth(
        monkeypatch, when):
    # 1,024 candidates a graph. _BLOCK 0 never scatters the live block, the
    # default scatters it once live falls to 362 columns, mid-growth on the
    # overlapping graphs, and 2^40 scatters it at the first step.
    block = {"never": 0, "default": association._BLOCK, "first": 1 << 40}[when]
    monkeypatch.setattr(association, "_BLOCK", block)
    rows, calls = association._rows, []

    def spy(affinity, nodes, live=None):
        # the live block is scattered as _rows(affinity, live, live)
        calls.append((nodes is live, None if live is None else len(live)))
        return rows(affinity, nodes, live)

    monkeypatch.setattr(association, "_rows", spy)
    rng = np.random.default_rng(8)
    switched = 0
    for aff in [overlapping_affinity(seed) for seed in range(3)] + [random_affinity(32)]:
        A = dense(aff)
        row = np.repeat(np.arange(aff.size), np.diff(aff.starts))
        edges = np.flatnonzero(aff.cols > row)
        singles = np.argsort(-A.sum(axis=1), kind="stable")[:32, None]
        pairs = np.column_stack([row, aff.cols])[rng.choice(edges, 16, replace=False)]
        for seeds in (singles, pairs):
            calls.clear()
            got = _grow(aff, seeds)
            want = [grow_dense(list(seed), A, A > 0.0) for seed in seeds.tolist()]
            assert got == ([m for m, _ in want], [density for _, density in want])
            made = [i for i, (block_call, _) in enumerate(calls) if block_call]
            assert calls[0][1] > 362 and len(made) <= 1
            if when == "never":
                assert not made
            elif when == "first":
                assert made == [1]
            elif made:
                switched += made[0] > 1
    assert switched > 0 or when != "default"


def test_clique_test_reads_the_degrees_first():
    # groups {0, 1, 2} and {3, 4}, 4 also joined to 5: each member of the
    # first has exactly 3 edges, the diagonal included, so its degree alone
    # cannot rule the set out; 5 has 2 edges, which rules out any set of 3
    penalised = _Penalised(unit_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]))
    for members, clique in [([0, 1, 2], True), ([3, 4], True), ([0, 1, 3], False),
                            ([3, 4, 5], False), ([4], True), (list(range(6)), False)]:
        inside = np.zeros(6, dtype=bool)
        inside[members] = True
        assert penalised.is_clique(inside) == clique, members


def test_densest_clique_extra_memory_is_a_fraction_of_the_matrix():
    # 1,024 candidates with no overlap: the solve runs the whole homotopy
    rng = np.random.default_rng(11)
    aff = build_affinity(sub(rng.uniform(0.0, 4.0, size=(32, 3))),
                         sub(rng.uniform(0.0, 4.0, size=(32, 3))),
                         Hyperparameters())[1]
    assert aff.size == 1024
    tracemalloc.start()
    try:
        densest_clique(aff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * aff.size ** 2      # the dense matrix's bytes


def test_solve_submap_pair_peak_memory_is_a_fraction_of_the_dense_matrix():
    # 2,500 candidates: the build and solve hold the graph's edges, a few
    # percent of the pairs, where a dense matrix alone takes 8 n^2 bytes
    rng = np.random.default_rng(11)
    sa = sub(rng.uniform(0.0, 4.0, size=(50, 3)))
    sb = sub(rng.uniform(0.0, 4.0, size=(50, 3)))
    tracemalloc.start()
    try:
        alignment.solve_submap_pair(sa, sb, Hyperparameters())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * 2500 ** 2
