"""Weighted geometric-consistency graph and densest-clique inlier selection.

Candidate associations are all-to-all point pairs between two submaps,
numbered p = index_a * nb + index_b; `build_affinity` returns them as an
(n, 2) index array next to their consistency graph, and the solvers return
the selected candidate indices. Two candidates are consistent when the
intra-map distances of their endpoints agree; agreement is scored by a
Gaussian kernel with a hard cutoff. The inlier set is the support of a
binary u maximizing u'Au / u'u subject to never selecting a zero-affinity
pair, found by a projected power-iteration ascent with a geometric homotopy
penalty on zero-affinity pairs, then rounded greedily and truncated to the
densest prefix.

The graph is a few percent of the n^2 candidate pairs, so it is held as its
edges, row by row (`AffinityMatrix`), from the build to the rounding: no
step makes an n x n array. Where a result depends on the order of a
floating-point sum over a dense row (the restart node, the rounding's
growth, the local moves), that row is scattered from the edges and summed
as numpy sums it, so results are those of the dense matrix. `_rows` is the
only code that scatters edges into dense rows; where the rows can span the
whole graph (the restart node's near ties, `_heaviest_row`), they come
`_BLOCK` entries at a time (`_blocks`). `_grow` scatters its live block,
A[live][:, live], once live fits `_BLOCK` entries, and reads each step's
rows from it. `has_clique` packs its bitsets from each visited row's own
edges.

On a pair with no overlap, most homotopy rounds repeat one 2-cycle of the
ascent, between the restart node e_j and star(d), j's feasible row
normalised. Once a round ends there and a certificate shows that every
later round must too (`_RestartCycle`: the margin by which each other row
stays non-positive only grows with the penalty, by more than rounding can
move it), the loop jumps to the last round's star with one product. The
result is the full schedule's, bit for bit (see `densest_clique`).

Every set the heuristic returns is a clique of the graph A > 0: rounding and
local moves only ever add a candidate that is feasible with every member. So
its cardinality never exceeds the clique number, and `has_clique` tells
exactly, before any solve, whether a pair can yield more than a given number
of inliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, row_blocks

# The cap keeps every edge key p * n + q below n^2 = 10^8 < 2^31, so the
# keys fit int32 (see `build_affinity`), and it bounds a graph's memory.
MAX_CANDIDATES = 10000
_SUPPORT_TOL = 1e-8
_BLOCK = 1 << 17        # dense-row entries `_blocks` scatters at once: 1 MB


@dataclass(frozen=True)
class Association:
    """A putative pairing: point index_a in submap A <-> index_b in submap B."""

    index_a: int
    index_b: int


@dataclass(frozen=True)
class AffinityMatrix:
    """Pairwise affinity A of `size` candidates, held as the edges of the
    graph A > 0, row by row: row p's edges are `starts[p]:starts[p + 1]`,
    to the candidates in `cols`, with the weights in `entries`. Every other
    entry of A is zero.

    Unchecked precondition of `densest_clique`, true of every graph
    `build_affinity` makes: `starts` has size + 1 entries, from 0 to the
    edge count; each row's `cols` increase strictly, so the edges come in
    the order of `np.nonzero(A > 0)`; A is exactly symmetric, with weights
    in (0, 1] and a unit diagonal. The unit diagonal is load-bearing: it
    gives every row an edge, and without one `np.add.reduceat` silently
    returns a neighbouring row's value for the empty row, not 0.
    """

    size: int
    starts: np.ndarray
    cols: np.ndarray
    entries: np.ndarray


def consistency_score(x, sigma, epsilon):
    """Gaussian consistency weight with hard cutoff: exp(-x^2 / 2 sigma^2)
    for |x| <= epsilon, else 0. Accepts scalars or arrays."""
    if sigma <= 0 or epsilon <= 0:
        raise ValueError("sigma and epsilon must be positive")
    x = np.asarray(x, dtype=float)
    score = np.where(np.abs(x) <= epsilon, np.exp(-0.5 * (x / sigma) ** 2), 0.0)
    return float(score) if score.ndim == 0 else score


def build_affinity(submap_a, submap_b, params):
    """All-to-all candidate associations and their consistency graph.

    Returns (pairs, AffinityMatrix): row p of the (n, 2) int array `pairs`
    is (index_a, index_b), with p = index_a * nb + index_b.

    Candidates (i, k) and (j, l) are joined when X = DA[i, j] - DB[k, l],
    the difference of their endpoints' intra-map distances, passes
    -epsilon <= X <= epsilon; the weight is `consistency_score(X)`. No edge
    joins pairs whose endpoints within either map are closer than gamma > 0
    (duplicate-object suppression). That rule also enforces one-to-one
    matching: a shared endpoint is at distance 0. Every candidate is joined
    to itself with weight 1.

    The edges are found from the sorted intra-map distances of B (see
    `_agreeing`), so the build holds arrays of the edges' length, never
    n x n.
    """
    na, nb = len(submap_a), len(submap_b)
    if na == 0 or nb == 0:
        raise ValueError("submaps must be non-empty")
    n = na * nb
    if n > MAX_CANDIDATES:
        raise InputError("%d x %d = %d candidates exceed the cap of %d; "
                         "lower field 'n_max'" % (na, nb, n, MAX_CANDIDATES))
    pa, pb = submap_a.points, submap_b.points
    DA = np.linalg.norm(pa[:, None, :] - pa[None, :, :], axis=2).ravel()
    DB = np.linalg.norm(pb[:, None, :] - pb[None, :, :], axis=2).ravel()

    # The edge (p, q) = ((i, k), (j, l)) has the key p * n + q, which sorts
    # the edges by row, then by column: (i * nb * n + j * nb) from A's pair
    # (i, j), plus (k * n + l) from B's pair (k, l). Under the candidate cap
    # n^2 fits int32.
    key_a = np.add.outer(np.arange(na) * (nb * n), np.arange(na) * nb).ravel()
    key_b = np.add.outer(np.arange(nb) * n, np.arange(nb)).ravel()
    # DA and DB are exactly symmetric (x - y is exactly -(y - x)), so the
    # edge (p, q) and its mirror (q, p) have the same X: the search takes
    # A's pairs with i < j, and mirrors what it finds.
    a = np.flatnonzero(np.triu(DA.reshape(na, na) >= params.gamma, 1))
    b = np.flatnonzero(DB >= params.gamma)          # gamma within map B
    b = b[np.argsort(DB[b])]
    keys, weights = _agreeing(DA[a], key_a[a].astype(np.int32), DB[b],
                              key_b[b].astype(np.int32), params)
    p, q = np.divmod(keys, n)
    keys = np.concatenate([keys, q * n + p,
                           np.arange(0, n * n, n + 1, dtype=np.int32)])
    weights = np.concatenate([weights, weights, np.ones(n)])
    # The keys are distinct, so one sort of each key with its position (at
    # most n^2 < 2^32) in the low 32 bits gives argsort's order and the
    # sorted keys.
    packed = np.sort((keys.astype(np.int64) << 32) | np.arange(len(keys)))
    entries = weights[packed & 0xFFFFFFFF]
    keys = packed >> 32
    starts = np.searchsorted(keys, np.arange(n + 1) * n)
    return (np.indices((na, nb)).reshape(2, n).T,
            AffinityMatrix(n, starts, keys % n, entries))


def _agreeing(d, key_d, vals, key_v, params):
    """The keys key_d[s] + key_v[t] and the weights `consistency_score(X)`
    of the pairs (s, t) whose X = d[s] - vals[t] passes -epsilon <= X <=
    epsilon, `vals` sorted. Each d[s] looks up the vals within a window
    wider than epsilon by more than X can round, and the test keeps those
    that pass; a weight that underflows to 0 makes no edge."""
    eps = params.epsilon
    reach = eps * (1.0 + 1e-12) + 1e-15 * d
    lo = np.searchsorted(vals, d - reach)
    at, s = _ranges(lo, np.searchsorted(vals, d + reach, "right") - lo)
    X = d[s]
    X -= vals[at]
    hit = (X <= eps) & (X >= -eps)
    weights = consistency_score(X[hit], params.sigma, eps)
    if not weights.all():
        hit[hit] = weights > 0.0
        weights = weights[weights > 0.0]
    keys = key_d[s]
    keys += key_v[at]
    return keys[hit], weights


def _ranges(lo, lengths):
    """The ranges lo[i]:lo[i] + lengths[i], concatenated, and for each
    index the i of its range."""
    owner = np.repeat(np.arange(len(lo)), lengths)
    return np.arange(len(owner)) + (lo - np.cumsum(lengths) + lengths)[owner], owner


def _edges(affinity, nodes):
    """The edges of rows `nodes`, as indices into `cols` and `entries`, and
    for each edge the position in `nodes` of its row."""
    lo = affinity.starts[nodes]
    return _ranges(lo, affinity.starts[nodes + 1] - lo)


def _rows(affinity, nodes, live=None):
    """The dense rows A[nodes], as a (len(nodes), size) array, or only
    their columns `live` (sorted) as a (len(nodes), len(live)) one."""
    edge, owner = _edges(affinity, nodes)
    cols = affinity.cols[edge]
    if live is None:
        out = np.zeros((len(nodes), affinity.size))
    else:
        out = np.zeros((len(nodes), len(live)))
        where = np.full(affinity.size, -1)       # each column's position in live
        where[live] = np.arange(len(live))
        at = where[cols]
        hit = at >= 0
        edge, owner, cols = edge[hit], owner[hit], at[hit]
    out[owner, cols] = affinity.entries[edge]
    return out


def _blocks(affinity, nodes):
    """The dense rows A[nodes], as (nodes, rows) blocks of at most `_BLOCK`
    entries, in order."""
    step = max(1, _BLOCK // affinity.size)
    for b in range(0, len(nodes), step):
        yield nodes[b:b + step], _rows(affinity, nodes[b:b + step])


def _heaviest_row(affinity):
    """np.argmax(A.sum(axis=1)) of the dense matrix, without it.

    numpy sums a dense row pairwise, zeros in place, so a sum over the
    row's edges alone may differ in the last bit and, on a near tie, pick
    another row. Any two orders of summing a row's m <= 10^6 non-negative
    terms agree to within a relative 3e-10, so only rows whose edge sum is
    within 1e-9 of the largest can hold the dense maximum; those rows are
    scattered dense, a bounded block at a time (`_blocks`), and summed as
    numpy sums the dense matrix. Ties go to the lowest row, as argmax's do.
    """
    sums = np.add.reduceat(affinity.entries, affinity.starts[:-1])
    near = np.flatnonzero(sums >= sums.max() * (1.0 - 1e-9))
    dense = np.concatenate([rows.sum(axis=1) for _, rows in _blocks(affinity, near)])
    return int(near[np.argmax(dense)])


def _grow(affinity, seeds):
    """Greedily extend every feasible seed, a row of the (S, m) array
    `seeds`, always adding the candidate with the largest affinity mass to
    the current set (ties: lowest index). Returns per seed the densest
    prefix of its growth sequence and that prefix's density.

    All seeds grow at once, on (seeds, live) arrays: the seeds still
    growing, and the columns still feasible for some seed. A seed with no
    feasible column left is done and leaves the arrays. Each seed adds,
    step by step, the same dense rows in the same order as growing it alone
    on the dense matrix, so its sums are those. Until live fits a block of
    `_BLOCK` entries, it drops the columns no seed can take at every step,
    and each step scatters its added rows from the edges. Then
    A[live][:, live] is scattered once, and each step reads its rows from
    that block; live stays as it is, since a column no seed can take is
    never any seed's argmax.
    """
    S, m = seeds.shape
    grow = each = np.arange(S)      # the seeds still growing, and their rows
    live = np.zeros(affinity.size, dtype=bool)
    live[affinity.cols[_edges(affinity, seeds.ravel())[0]]] = True
    live = np.flatnonzero(live)
    rows = _rows(affinity, seeds.ravel(), live).reshape(S, m, len(live))
    at = np.searchsorted(live, seeds)                 # the seeds' own columns
    sig = rows.sum(axis=1)
    feas = np.logical_and.reduce(rows > 0.0, axis=1)
    feas[each[:, None], at] = False
    # the m x m block of A on the seed, summed as numpy sums A[ix_(seed, seed)]
    Q = np.take_along_axis(rows, at[:, None, :], axis=2).reshape(S, m * m).sum(axis=1)
    best_density, best_size = Q / m, np.full(S, m)
    members, k, block = [seeds], m, None
    while True:
        if block is None:
            keep = feas.any(axis=0)
            live, feas, sig = live[keep], feas[:, keep], sig[:, keep]
            if not live.size:
                break
            if live.size ** 2 <= _BLOCK:
                block = _rows(affinity, live, live)       # A[live][:, live]
        at = np.where(feas, sig, -np.inf).argmax(axis=1)
        going = feas[each, at]      # False once a seed has no feasible column
        if not going.all():
            grow, feas, sig = grow[going], feas[going], sig[going]
            Q, at = Q[going], at[going]
            if not grow.size:
                break
            each = np.arange(grow.size)
        j = live[at]
        Q += 1.0 + 2.0 * sig[each, at]
        k += 1
        added = np.full(S, -1)
        added[grow] = j
        members.append(added[:, None])
        rows = _rows(affinity, j, live) if block is None else block[at]
        feas &= rows > 0.0
        feas[each, at] = False
        sig += rows
        density = Q / k
        better = density > best_density[grow] + 1e-12
        best_density[grow[better]], best_size[grow[better]] = density[better], k
    members = np.hstack(members)
    return ([members[s, :size].tolist() for s, size in enumerate(best_size)],
            best_density.tolist())


def _local_improve(selected, affinity):
    """Steepest-ascent add / remove / swap moves on the density objective,
    on the dense rows of the current set.

    Each step scores every move in one gain array, in the order adds (by
    candidate), removes (by member), swaps (by member, then candidate), and
    takes the first largest gain above 1e-12. A candidate may join when it
    is feasible with every member that stays."""
    S = sorted(selected)
    while True:
        k, members = len(S), np.array(S)
        rows = _rows(affinity, members)             # A[S]
        Q = float(rows[np.ix_(np.arange(k), S)].sum())
        sig = rows.sum(axis=0)          # affinity mass of every node w.r.t. S
        feasible = rows > 0.0
        count = feasible.sum(axis=0)    # the members each node is feasible with
        count[S] = -1                   # a member never joins
        add = np.flatnonzero(count == k)
        drop = members[:k if k > 1 else 0]          # a lone member stays
        r, swap = np.nonzero(count - feasible == k - 1)
        Qi = Q - 1.0 - 2.0 * (sig[S] - 1.0)         # Q without member i
        gains = np.concatenate([(Q + 1.0 + 2.0 * sig[add]) / (k + 1),
                                Qi[:drop.size] / (k - 1),
                                (Qi[r] + 1.0 + 2.0 * (sig[swap] - rows[r, swap])) / k])
        leave = np.concatenate([np.full(add.size, -1), drop, members[r]])
        join = np.concatenate([add, np.full(drop.size, -1), swap])
        best = np.argmax(np.concatenate([[1e-12], gains - Q / k]))   # 0: no move
        if best == 0:
            return S
        S = sorted({*S, int(join[best - 1])} - {int(leave[best - 1]), -1})


def _round(u, affinity):
    """Round the relaxed u to a feasible set: multi-start greedy growth from
    the heaviest nodes (all feasible pairs too, on small problems), keep the
    densest result, then polish with local moves. Fully deterministic."""
    n = len(u)
    order = np.lexsort((np.arange(n), -u))
    grown, densities = _grow(affinity, (order if n <= 64 else order[:32])[:, None])
    if n <= 64:
        row = np.repeat(np.arange(n), np.diff(affinity.starts))
        pairs = np.column_stack([row, affinity.cols])[affinity.cols > row]
        more = _grow(affinity, pairs)
        grown, densities = grown + more[0], densities + more[1]
    best, best_density = [], -1.0
    for members, density in zip(grown, densities):
        if density > best_density + 1e-12 or (abs(density - best_density) <= 1e-12
                                               and len(members) > len(best)):
            best, best_density = members, density
    return _local_improve(best, affinity)


class _Penalised:
    """The homotopy's matrix, A with -d on every zero-affinity pair, held as
    A's edges (`AffinityMatrix`): row i of its product with u is the sum
    over i's edges of (A_ij + d) u_j, minus d times the sum of u."""

    def __init__(self, affinity):
        self.affinity = affinity
        self.cols, self.starts = affinity.cols, affinity.starts[:-1]
        self.penalise(0.0)

    def penalise(self, d):
        self.d, self.shifted = d, self.affinity.entries + d

    def __matmul__(self, u):
        terms = u.take(self.cols)          # one edge-length array, scaled in place
        terms *= self.shifted
        out = np.add.reduceat(terms, self.starts)
        out -= self.d * u.sum()
        return out

    def is_clique(self, inside):
        """Whether the nodes marked in the boolean array `inside` are
        pairwise feasible. By symmetry, k nodes are a clique exactly when
        their rows hold k^2 edges, the diagonal included, to one another;
        so a node with fewer than k edges rules it out before any is read."""
        nodes = np.flatnonzero(inside)
        starts = self.affinity.starts
        if (starts[nodes + 1] - starts[nodes] < len(nodes)).any():
            return False
        edge = _edges(self.affinity, nodes)[0]
        return np.count_nonzero(inside[self.cols[edge]]) == len(nodes) ** 2


def _step(M, u, restart):
    """One step of the projected power iteration: max(M u, 0), normalised,
    or `restart` when it collapses (M u <= 0 everywhere, up to 1e-12)."""
    v = M @ u
    np.maximum(v, 0.0, out=v)
    norm = _norm(v)
    if norm >= 1e-12:
        v /= norm
        return v
    return restart


def _norm(x):
    """np.linalg.norm(x) of a 1-D float array, bit for bit: the square root
    of x.dot(x), without the wrapper's argument handling."""
    return math.sqrt(x.dot(x))


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
    move = np.empty_like(u)
    for k in range(1, iterations + 1):
        v = _step(M, u, restart)
        if _norm(np.subtract(v, u, out=move)) < 1e-9:
            return v
        earlier = seen.setdefault(hash(v.tobytes()), [])
        for first in earlier:
            if np.array_equal(path[first], v):
                return path[first + (iterations - first) % (k - first)]
        earlier.append(k)
        path.append(v)
        u = v
    return u


class _RestartCycle:
    """The restart 2-cycle e_j -> star(d) -> e_j of `densest_clique`'s
    homotopy, and the certificate that every later round ends on it (see
    `densest_clique`). star(d) = max(M_d e_j, 0) normalised; its support is
    S, row j's columns, for every penalty d the schedule reaches."""

    def __init__(self, affinity, j, last):
        self.affinity, self.j, self.last = affinity, j, last
        self.row = slice(affinity.starts[j], affinity.starts[j + 1])
        self.support = affinity.cols[self.row]
        self.margins = None         # (P, Q), made at the first guard passed

    def on_star(self, inside):
        """The guard: the support of u, marked in `inside`, is exactly S."""
        return (int(np.count_nonzero(inside)) == len(self.support)
                and bool(inside[self.support].all()))

    def settles(self, d_next, penalised, u, restart):
        """Whether every round from penalty d_next to `last` must end on its
        own star(d'): P < d_next Q on every row, which with P >= 0 also
        makes Q > 0, so the margin d' Q - P only grows with d'; and u is
        this round's star, bit for bit."""
        if self.margins is None:
            self.margins = self._margins()
        P, Q = self.margins
        return (bool((P < d_next * Q).all())
                and np.array_equal(u, _step(penalised, restart, restart)))

    def _margins(self):
        """P and Q: for every row i != j, (M_d' v)_i rounds to <= 0 once
        P_i <= d' Q_i, for any star v of a penalty d' <= `last` (see
        `densest_clique`). Up to a common scale, such stars lie in the box
        lo <= w <= hi, lo and hi = a -+ 2 eps (a + last) on S for row j's
        entries a, and 0 elsewhere. P_i bounds in_i(hi) from above and Q_i
        out_i(lo) from below, each less the product's rounding: g = (n + 8)
        eps covers any order of summing a row or w, and the few roundings
        after. If an entry of some star may fall to _SUPPORT_TOL, no row is
        covered. Row j is left out: its entry is the one that survives."""
        affinity, j = self.affinity, self.j
        n = affinity.size
        a = affinity.entries[self.row]
        eps = np.finfo(float).eps
        g = (n + 8) * eps
        low, high = np.zeros(n), np.zeros(n)
        low[self.support] = a - 2.0 * eps * (a + self.last)
        high[self.support] = a + 2.0 * eps * (a + self.last)
        if not low[self.support].min() > _SUPPORT_TOL * np.linalg.norm(high) * (1 + 4 * g):
            return np.zeros(1), np.zeros(1)
        starts = affinity.starts[:-1]
        P = np.add.reduceat(affinity.entries * high[affinity.cols], starts) * (1 + 4 * g)
        Q = low.sum() - np.add.reduceat(low[affinity.cols], starts) - 8 * g * high.sum()
        P[j], Q[j] = 0.0, 1.0
        return P, Q


def _k_core(affinity, k):
    """The graph's k-core as a bool mask over its nodes: what is left once
    nodes with fewer than k - 1 neighbours are removed, round by round,
    until none is. A row's edges include its diagonal, so a node stays
    while k of its edges reach the core. Each round counts them over blocks
    of whole rows of at most `_BLOCK` edges (`row_blocks`), at 9 bytes a
    block edge: about 1.2 MB, whatever the graph's size."""
    cols, starts = affinity.cols, affinity.starts
    blocks = row_blocks(starts, _BLOCK)
    core = np.diff(starts) >= k
    while core.any():
        kept = core.copy()
        for lo, hi in blocks:
            a, b = starts[lo], starts[hi]
            kept[lo:hi] &= np.add.reduceat(core[cols[a:b]], starts[lo:hi] - a,
                                           dtype=np.intp) >= k
        if np.array_equal(kept, core):
            break
        core = kept
    return core


def has_clique(affinity, k):
    """Whether the graph A > 0 holds a clique of k nodes. Exact.

    A member of a k-clique has k - 1 neighbours in it, so only the k-core
    can hold one: what is left once nodes with fewer than k - 1 neighbours
    are removed, round by round, until none is. On sparse graphs it is
    often empty. A depth-first search over the core extends a clique by
    candidates in index order, each branch keeping only the candidates after
    the one it took that are adjacent to every member, and cuts the branch
    once fewer candidates are left than members are still needed. A node's
    row becomes a Python-int bitset, bit j set for each neighbour j, packed
    from its own edges when the search first takes it: on a graph rich in
    cliques the search ends within a few rows, and packs only those.
    """
    if k <= 0:
        return True
    core = _k_core(affinity, k)
    if not core.any():
        return False
    cols, starts = affinity.cols, affinity.starts
    rows, mask = {}, np.zeros(affinity.size, dtype=bool)

    def row(v):
        # bit j set for each edge (v, j), the diagonal included: harmless,
        # as v has left the candidates already
        if v not in rows:
            edges = cols[starts[v]:starts[v + 1]]
            mask[edges] = True
            rows[v] = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                                     "little")
            mask[edges] = False
        return rows[v]

    def extend(cand, need):
        while cand.bit_count() >= need:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if need == 1 or extend(cand & row(v), need - 1):
                return True
        return False

    return extend(int.from_bytes(np.packbits(core, bitorder="little").tobytes(),
                                 "little"), k)


def densest_clique(affinity):
    """Approximate densest geometrically consistent clique (the inlier set),
    as a sorted array of candidate indices. `affinity` must meet the
    precondition stated on `AffinityMatrix`.

    Deterministic: the ascent starts from a power-iteration estimate of the
    principal eigenvector, the homotopy penalty grows geometrically (x1.4)
    until the support is feasible, and rounding is greedy by descending u.
    Every step runs on A's edges: the penalised products (`_Penalised`), the
    support's feasibility (a count of the edges of its rows), the restart
    node (`_heaviest_row`) and the rounding, which grows all its seeds at
    once (`_grow`) and polishes on the dense rows of one set. No step makes
    an n x n array, and the result is the one the dense matrix gives.
    Each round's ascent ends early on an exact cycle (see `_ascend`): a
    2-cycle on a pair with no overlap, where the iterate alternates between
    the restart e_j and j's normalised feasible neighbourhood, or a longer
    one on some overlapping pairs. The result is the one the full 200 steps
    give.

    Fast-forward. On a pair with no overlap, the rounds from the second or
    third on all end on that 2-cycle, e_j -> star(d) -> e_j, where star(d)
    = max(M_d e_j, 0) normalised, with support S, row j's columns. A round
    that starts from a star and ends on the cycle ends on its own star(d).
    So once a round ends with support exactly S, not a clique (the guard,
    O(n)), the loop asks `_RestartCycle.settles` for a certificate that
    every later round must do the same:
    - u is bit for bit this round's star(d), made by the ascent's own step;
    - for every row i != j, every later penalty d' and every star v the
      later rounds can meet, (M_d' v)_i rounds to <= 0. Then the step from
      v leaves one positive entry x, at j, or none, and both give exactly
      e_j: x / ||x|| is 1.0, as sqrt(fl(x^2)) is |x| in IEEE arithmetic,
      and a collapse restarts at e_j itself. So each later round's ascent
      runs star -> e_j -> star(d') -> e_j and ends on star(d'), whose
      support is S again, not a clique, and never converges.
    A later star differs from u only by rounding: the product gives
    fl(fl(a + d') - d') for j's weights a, within eps (a + d') of a, so
    every entry stays within 2 eps (a + d_59) of u's, up to a common scale
    that does not change a sign. On S the exact (M_d' v)_i is in_i - d'
    out_i, the weighted mass of i's edges into S less d' times the mass of
    S off i's edges; bounding in_i from above and out_i from below over
    that box, less the product's own rounding, gives a margin P_i - d' Q_i
    that only falls as d' grows. Two checks would cover the remaining
    schedule, P_i < d' Q_i at the next penalty and Q_i > 0 on the slope, but
    P_i >= 0, so the first implies the second. P and Q are two row vectors,
    made once per solve. Once certified, the loop sets the last
    penalty d_59, made by the schedule's own repeated x1.4, makes star(d_59)
    with one product and leaves: u is the full schedule's, bit for bit,
    and so is the inlier set. A refused check costs no product; only a
    passed one is followed by the product that compares u with star(d).

    The result is always a clique of A > 0 (`_grow` and `_local_improve` add
    only candidates feasible with every member), so its size is at most the
    clique number that `has_clique` bounds.
    """
    n = affinity.size
    if n == 0:
        return np.zeros(0, dtype=int)
    penalised = _Penalised(affinity)

    j = _heaviest_row(affinity)
    restart = np.zeros(n)                         # e_j, j the heaviest row
    restart[j] = 1.0
    u = _ascend(penalised, np.full(n, 1.0 / np.sqrt(n)), 100, restart)

    penalties = [0.0]
    while len(penalties) < 60:
        penalties.append(0.25 if penalties[-1] == 0.0 else penalties[-1] * 1.4)
    cycle = _RestartCycle(affinity, j, penalties[-1])
    for r, d in enumerate(penalties):
        penalised.penalise(d)
        u = _ascend(penalised, u, 200, restart)
        inside = u > _SUPPORT_TOL
        if inside.any() and penalised.is_clique(inside):
            break
        if (r + 1 < len(penalties) and cycle.on_star(inside)
                and cycle.settles(penalties[r + 1], penalised, u, restart)):
            penalised.penalise(penalties[-1])     # the last round's star
            u = _step(penalised, restart, restart)
            break

    return np.array(_round(u, affinity), dtype=int)   # sorted
