"""Weighted geometric-consistency graph and densest-clique inlier selection.

Candidate associations are all-to-all point pairs between two submaps,
numbered p = index_a * nb + index_b; `build_affinity` returns them as an
(n, 2) index array next to their affinity matrix, and the solvers return
the selected candidate indices. Two candidates are consistent when the
intra-map distances of their endpoints agree; agreement is scored by a
Gaussian kernel with a hard cutoff. The inlier set is the support of a
binary u maximizing u'Au / u'u subject to never selecting a zero-affinity
pair, found by a projected power-iteration ascent with a geometric homotopy
penalty on zero-affinity pairs, then rounded greedily and truncated to the
densest prefix. The ascent's penalised products run on the edge list of
A > 0, a few percent of the n^2 entries, so the solve allocates no n x n
float array beyond the matrix itself.

Every set the heuristic returns is a clique of the graph A > 0: rounding and
local moves only ever add a candidate that is feasible with every member. So
its cardinality never exceeds the clique number, and `has_clique` tells
exactly, before any solve, whether a pair can yield more than a given number
of inliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError

MAX_CANDIDATES = 10000
_SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class Association:
    """A putative pairing: point index_a in submap A <-> index_b in submap B."""

    index_a: int
    index_b: int


@dataclass(frozen=True)
class AffinityMatrix:
    """Pairwise affinity of `size` candidates as a dense float array.

    Unchecked precondition of `densest_clique`, true of every matrix
    `build_affinity` makes: `entries` is size x size, exactly symmetric,
    in [0, 1], with a unit diagonal; zero marks an inconsistent pair. The
    unit diagonal is load-bearing: it gives every row of the ascent's edge
    list an edge, and without one `np.add.reduceat` silently returns a
    neighbouring row's value for the empty row, not 0.
    """

    entries: np.ndarray

    @property
    def size(self):
        return self.entries.shape[0]


def consistency_score(x, sigma, epsilon):
    """Gaussian consistency weight with hard cutoff: exp(-x^2 / 2 sigma^2)
    for |x| <= epsilon, else 0. Accepts scalars or arrays."""
    if sigma <= 0 or epsilon <= 0:
        raise ValueError("sigma and epsilon must be positive")
    x = np.asarray(x, dtype=float)
    score = np.where(np.abs(x) <= epsilon, np.exp(-0.5 * (x / sigma) ** 2), 0.0)
    return float(score) if score.ndim == 0 else score


def build_affinity(submap_a, submap_b, params):
    """All-to-all candidate associations and their pairwise affinity matrix.

    Returns (pairs, AffinityMatrix): row p of the (n, 2) int array `pairs`
    is (index_a, index_b), with p = index_a * nb + index_b.

    Entries are zeroed for association pairs whose endpoints within either
    map are closer than gamma > 0 (duplicate-object suppression). That rule
    also enforces one-to-one matching: a shared endpoint is at distance 0.
    """
    na, nb = len(submap_a), len(submap_b)
    if na == 0 or nb == 0:
        raise ValueError("submaps must be non-empty")
    n = na * nb
    if n > MAX_CANDIDATES:
        raise InputError("%d x %d = %d candidates exceed the cap of %d; "
                         "lower field 'n_max'" % (na, nb, n, MAX_CANDIDATES))
    pa, pb = submap_a.points, submap_b.points
    DA = np.linalg.norm(pa[:, None, :] - pa[None, :, :], axis=2)
    DB = np.linalg.norm(pb[:, None, :] - pb[None, :, :], axis=2)

    # association p = (i, k) lives at flat index i * nb + k. X is reused as
    # the matrix: a large pair holds one n x n float array, not several.
    X = DA[:, None, :, None] - DB[None, :, None, :]
    valid = (X <= params.epsilon) & (X >= -params.epsilon)
    valid &= (DA >= params.gamma)[:, None, :, None]   # gamma within map A
    valid &= (DB >= params.gamma)[None, :, None, :]   # gamma within map B
    kernel = X[valid]
    X.fill(0.0)
    X[valid] = consistency_score(kernel, params.sigma, params.epsilon)
    M = X.reshape(n, n)
    np.fill_diagonal(M, 1.0)

    return np.indices((na, nb)).reshape(2, n).T, AffinityMatrix(M)


def _grow(seed, A, feasible):
    """Greedily extend a feasible seed set, always adding the candidate with
    the largest affinity mass to the current set (ties: lowest index), and
    return the densest prefix of the growth sequence."""
    members = list(seed)
    feas = np.logical_and.reduce(feasible[members], axis=0)
    feas[members] = False
    sig = A[members].sum(axis=0)
    k = len(members)
    Q = float(A[np.ix_(members, members)].sum())
    best, best_density = members[:], Q / k
    while True:
        cand = np.flatnonzero(feas)
        if not cand.size:
            break
        j = int(cand[np.argmax(sig[cand])])
        Q += 1.0 + 2.0 * sig[j]
        k += 1
        members.append(j)
        feas &= feasible[j]
        feas[j] = False
        sig = sig + A[j]
        if Q / k > best_density + 1e-12:
            best, best_density = members[:], Q / k
    return best, best_density


def _local_improve(selected, A, feasible):
    """Steepest-ascent add / remove / swap moves on the density objective."""
    S = sorted(selected)
    n = len(A)
    while True:
        k = len(S)
        Q = float(A[np.ix_(S, S)].sum())
        d = Q / k
        in_set = np.zeros(n, dtype=bool)
        in_set[S] = True
        sig = A[S].sum(axis=0)          # affinity mass of every node w.r.t. S
        feas_all = np.logical_and.reduce(feasible[S], axis=0)

        best_gain, move = 1e-12, None
        add = np.flatnonzero(feas_all & ~in_set)
        for j in add:
            nd = (Q + 1.0 + 2.0 * sig[j]) / (k + 1)
            if nd - d > best_gain:
                best_gain, move = nd - d, ("add", int(j))
        if k > 1:
            for i in S:
                nd = (Q - 1.0 - 2.0 * (sig[i] - 1.0)) / (k - 1)
                if nd - d > best_gain:
                    best_gain, move = nd - d, ("remove", i)
        for i in S:
            Qi = Q - 1.0 - 2.0 * (sig[i] - 1.0)
            feas_wo_i = np.logical_and.reduce(feasible[[m for m in S if m != i]],
                                              axis=0) if k > 1 else np.ones(n, bool)
            for j in np.flatnonzero(feas_wo_i & ~in_set):
                nd = (Qi + 1.0 + 2.0 * (sig[j] - A[i, j])) / k
                if nd - d > best_gain:
                    best_gain, move = nd - d, ("swap", i, int(j))
        if move is None:
            return S
        if move[0] == "add":
            S = sorted(S + [move[1]])
        elif move[0] == "remove":
            S = [m for m in S if m != move[1]]
        else:
            S = sorted([m for m in S if m != move[1]] + [move[2]])


def _round(u, A, feasible):
    """Round the relaxed u to a feasible set: multi-start greedy growth from
    the heaviest nodes (all feasible pairs too, on small problems), keep the
    densest result, then polish with local moves. Fully deterministic."""
    n = len(u)
    order = np.lexsort((np.arange(n), -u))
    best, best_density = [], -1.0

    seeds = [[int(i)] for i in (order if n <= 64 else order[:32])]
    if n <= 64:
        pairs = np.argwhere(np.triu(feasible, k=1))
        seeds.extend([[int(i), int(j)] for i, j in pairs])
    for seed in seeds:
        grown, density = _grow(seed, A, feasible)
        if density > best_density + 1e-12 or (abs(density - best_density) <= 1e-12
                                              and len(grown) > len(best)):
            best, best_density = grown, density
    return _local_improve(best, A, feasible)


class _Penalised:
    """The homotopy's matrix, A with -d on every zero-affinity pair, held as
    A's edges (i, j), A_ij > 0, row by row: row i of its product with u is
    the sum over i's edges of (A_ij + d) u_j, minus d times the sum of u."""

    def __init__(self, A, feasible):
        self.rows, self.cols = np.nonzero(feasible)          # sorted by row
        self.weights = A[self.rows, self.cols]
        # each row's first edge; A_ii = 1 leaves no row empty (AffinityMatrix)
        self.starts = np.searchsorted(self.rows, np.arange(len(A)))
        self.penalise(0.0)

    def penalise(self, d):
        self.d, self.shifted = d, self.weights + d

    def __matmul__(self, u):
        return (np.add.reduceat(self.shifted * u[self.cols], self.starts)
                - self.d * u.sum())

    def is_clique(self, inside):
        """Whether the nodes marked in the boolean array `inside` are
        pairwise feasible. By symmetry, k nodes are a clique exactly when
        k^2 edges, the diagonal included, have both ends among them."""
        k = np.count_nonzero(inside)
        return np.count_nonzero(inside[self.rows] & inside[self.cols]) == k * k


def _ascend(M, u, iterations, restart):
    """Projected power iteration u <- max(M u, 0) / |max(M u, 0)| for at most
    `iterations` steps, stopping once u moves by less than 1e-9. An ascent
    that collapses (M u <= 0 everywhere) restarts from `restart`.

    A step is a function of u alone, so once a new iterate equals, bit for
    bit, an earlier one, the iterates repeat with that period for every
    remaining step, and the convergence test, which has already failed on
    each step of the cycle, never fires. The loop then returns at once the
    iterate the full schedule would end on. Iterates are looked up by a hash
    of their bytes, and each hit is confirmed with an exact comparison. The
    result is identical to running every step."""
    path, seen = [u], {hash(u.tobytes()): [0]}   # path[k]: iterate after k steps
    for k in range(1, iterations + 1):
        v = np.maximum(M @ u, 0.0)
        norm = np.linalg.norm(v)
        v = v / norm if norm >= 1e-12 else restart
        if np.linalg.norm(v - u) < 1e-9:
            return v
        earlier = seen.setdefault(hash(v.tobytes()), [])
        for first in earlier:
            if np.array_equal(path[first], v):
                return path[first + (iterations - first) % (k - first)]
        earlier.append(k)
        path.append(v)
        u = v
    return u


def has_clique(affinity, k):
    """Whether the graph A > 0 holds a clique of k nodes. Exact.

    Each row becomes a Python-int bitset. A depth-first search extends a
    clique by candidates in index order, each branch keeping only the
    candidates after the one it took that are adjacent to every member, and
    cuts the branch once fewer candidates are left than members are still
    needed.
    """
    rows = [int.from_bytes(r.tobytes(), "little") for r in
            np.packbits(affinity.entries > 0.0, axis=1, bitorder="little")]

    def extend(cand, need):
        # the diagonal bit of rows[v] is harmless: v has left cand already
        while cand.bit_count() >= need:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if need == 1 or extend(cand & rows[v], need - 1):
                return True
        return False

    return k <= 0 or extend((1 << affinity.size) - 1, k)


def densest_clique(affinity):
    """Approximate densest geometrically consistent clique (the inlier set),
    as a sorted array of candidate indices. `affinity` must meet the
    precondition stated on `AffinityMatrix`.

    Deterministic: the ascent starts from a power-iteration estimate of the
    principal eigenvector, the homotopy penalty grows geometrically (x1.4)
    until the support is feasible, and rounding is greedy by descending u.
    Every product with the penalised matrix runs on A's edges (`_Penalised`),
    and the support's feasibility is a count of the edges inside it, so no
    n x n penalised copy or mask is built.
    Each round's ascent ends early on an exact cycle (see `_ascend`): a
    2-cycle on a pair with no overlap, where the iterate alternates between
    the restart e_j and j's normalised feasible neighbourhood, or a longer
    one on some overlapping pairs. The result is the one the full 200 steps
    give.

    The result is always a clique of A > 0 (`_grow` and `_local_improve` add
    only candidates feasible with every member), so its size is at most the
    clique number that `has_clique` bounds.
    """
    A = affinity.entries
    n = affinity.size
    if n == 0:
        return np.zeros(0, dtype=int)
    feasible = A > 0.0
    penalised = _Penalised(A, feasible)

    restart = np.zeros(n)                         # e_j, j the heaviest row
    restart[int(np.argmax(A.sum(axis=1)))] = 1.0
    u = _ascend(penalised, np.full(n, 1.0 / np.sqrt(n)), 100, restart)

    d = 0.0
    for _ in range(60):
        penalised.penalise(d)
        u = _ascend(penalised, u, 200, restart)
        inside = u > _SUPPORT_TOL
        if inside.any() and penalised.is_clique(inside):
            break
        d = 0.25 if d == 0.0 else d * 1.4

    return np.array(_round(u, A, feasible), dtype=int)   # sorted
