"""Evaluation protocol: voxel IoU overlap gating, correctness classification
against a known frame alignment, precision/recall sweeps over the cardinality
gate, and per-comparison runtime measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .alignment import prune, solve_pairs
from .core import InputError, transform_angles
from .submap import generate_submaps


def default_voxel(params):
    """Default IoU voxel resolution: a quarter of the submap window."""
    return params.window / 4.0


def _voxel_cells(points, voxel):
    return {tuple(c) for c in np.floor(np.asarray(points) / voxel).astype(np.int64)}


def submap_iou(submap_a, submap_b, voxel):
    """Voxel-occupancy IoU of two submaps expressed in a common frame."""
    if not 0 < voxel < math.inf:
        raise ValueError("voxel must be finite and positive")
    if len(submap_a) == 0 or len(submap_b) == 0:
        return 0.0
    cells_a = _voxel_cells(submap_a.points, voxel)
    cells_b = _voxel_cells(submap_b.points, voxel)
    return len(cells_a & cells_b) / len(cells_a | cells_b)


def classify(hypothesis, truth, params):
    """True when the hypothesis residual against the ground-truth alignment
    passes the roll/pitch, yaw, and translation gates (all strict <)."""
    transform = getattr(hypothesis, "transform", hypothesis)
    residual = transform.compose(truth.inverse())
    roll, pitch, yaw = transform_angles(residual)
    return (abs(roll) < params.theta_rp and abs(pitch) < params.theta_rp
            and abs(yaw) < params.theta_yaw
            and float(np.linalg.norm(residual.translation)) < params.t_max)


@dataclass(frozen=True)
class PairOutcome:
    """Result of one distinct submap-pair solve, ready for PR aggregation; it
    counts once for each of the `pairs` grid pairs that share the solve."""

    iou: float
    cardinality: int       # 0 when no transform was estimable
    attitude_ok: bool      # survived the roll/pitch pruning gate
    correct: bool          # classification of the transform vs ground truth
    pairs: int = 1         # grid pairs that share this solve


@dataclass(frozen=True)
class PrPoint:
    s_max: int
    precision: float
    recall: float
    n_hypothesized: int
    n_overlapping: int


def precision_recall(outcomes, params, s_max_sweep):
    """PR table over the cardinality-gate sweep. Every count is of grid
    pairs: an outcome counts `pairs` times.

    Hypothesized = attitude-surviving outcomes with |S| > s_max. Precision is
    undefined when nothing is hypothesized (n_hypothesized == 0) and is then
    reported as 1.0.
    """
    n_overlapping = sum(o.pairs for o in outcomes if o.iou > params.theta_overlap)
    rows = []
    for s_max in s_max_sweep:
        hyp = [o for o in outcomes if o.attitude_ok and o.cardinality > s_max]
        n_hyp = sum(o.pairs for o in hyp)
        n_correct = sum(o.pairs for o in hyp if o.correct)
        precision = n_correct / n_hyp if n_hyp else 1.0
        n_recalled = sum(o.pairs for o in hyp
                         if o.correct and o.iou > params.theta_overlap)
        recall = n_recalled / n_overlapping if n_overlapping else 0.0
        rows.append(PrPoint(s_max, precision, recall, n_hyp, n_overlapping))
    return rows


def evaluate_map_pair(map_a, map_b, truth, params):
    """Solve every distinct submap pair once (see `timing`) and return
    (outcomes, mean_s, std_s): one outcome per distinct pair, with `pairs`
    the number of grid pairs it covers, for PR aggregation, and seconds per
    solve. No submap pair gives ([], nan, nan).

    `truth` maps map-A-frame coordinates into map-B-frame coordinates; IoU is
    computed at `default_voxel` after pulling map B's submaps back into map
    A's frame.
    """
    voxel = default_voxel(params)
    # The IoU's voxel indices of map B's landmarks, pulled back by the truth,
    # must fit int64 (2^62 leaves room for rounding); NaN fails the test too.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            cells = truth.inverse().apply(map_b.positions) / voxel
        except ValueError:                  # the inverse's translation overflows
            cells = np.inf
    if not np.all(np.abs(cells) < 2.0 ** 62):
        raise InputError("field 'translation' of the truth transform moves map "
                         "b's landmarks out of range: their IoU voxel indices "
                         "(coordinate / %g m) must stay below 2^62" % voxel)
    subs_a = generate_submaps(map_a, params)
    subs_b = generate_submaps(map_b, params)
    solved, mean_s, std_s = (timing(subs_a, subs_b, params)
                             if subs_a and subs_b else ([], np.nan, np.nan))
    truth_inv = truth.inverse()

    outcomes = []
    for cells_a, cells_b, hyp, _ in solved:
        sa, sb = subs_a[cells_a[0]], subs_b[cells_b[0]]
        # (cardinality, attitude_ok, correct)
        scored = (0, False, False) if hyp is None else (
            hyp.cardinality, prune(hyp, params) != "attitude",
            classify(hyp, truth, params))
        iou = submap_iou(sa, replace(sb, points=truth_inv.apply(sb.points)), voxel)
        outcomes.append(PairOutcome(iou, *scored, len(cells_a) * len(cells_b)))
    return outcomes, mean_s, std_s


def timing(subs_a, subs_b, params):
    """Solve every distinct pair of two submap grids once. Returns the
    `solve_pairs` items and the wall-clock (mean, std) of their seconds per
    solve. No pair is a ValueError."""
    solved = list(solve_pairs(subs_a, subs_b, params))
    if not solved:
        raise ValueError("no submap pair to time")
    seconds = [s for *_, s in solved]
    return solved, float(np.mean(seconds)), float(np.std(seconds))
