"""The default configuration, pinned.

Scene M at the default parameters (`n_max` 50): 12 fixed distinct submap
pairs of 50 x 50 = 2,500 candidates, stratified by truth IoU, and a seeded
corpus of small random graphs. Each pin is one SHA-256 over the outputs of
the clique solver and its screen, so a change to either that moves a single
inlier, transform bit, prune reason or screen answer fails here. A change
meant to move outputs re-records both digests and lists the changed pairs.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from vista_align import alignment, cli, evaluation, formats, simulation, submap
from vista_align.association import build_affinity, densest_clique, has_clique
from vista_align.core import Hyperparameters, RigidTransform, rotation_z
from vista_align.submap import Submap

from conftest import has_clique_per_edge
from test_cli import M_SCENE, M_TRAJECTORY

# (cell of map a's grid, cell of map b's grid) at the defaults, by truth IoU:
# the first four of each stratum in a seeded draw of distinct 50 x 50 pairs
# whose solve takes under 0.3 s.
PAIRS = {
    "above theta_overlap": [(179, 17), (185, 295), (309, 494), (350, 445)],
    "in (0, 0.2]": [(333, 366), (88, 453), (258, 516), (138, 456)],
    "zero": [(3, 380), (344, 107), (31, 527), (179, 441)],
}
PAIRS_SHA256 = "e489257a5f3d0d171987aeb98cb45326419a688d3947da66060efbba0e275d8a"
CORPUS_SHA256 = "1fc2ca2812fe8378f28d5fb8fcfafe903410a7e01394eb9a56fec8a2e15c2866"


@pytest.fixture(scope="module")
def m_maps(tmp_path_factory):
    """Scene M seen twice along its 45 deg trajectory, with the two noise
    settings whose files `test_cli` pins, built into maps at the defaults;
    map b then moved by a fixed yaw and translation. Returns the two maps
    and the truth transform (map a's frame -> map b's)."""
    work = tmp_path_factory.mktemp("default_config")
    for name, doc in (("scene", M_SCENE), ("trajectory", M_TRAJECTORY)):
        formats.atomic_write(str(work / (name + ".json")), json.dumps(doc))
    maps = []
    for agent, flags in (("a", "--noise 0.3"),
                         ("b", "--noise 0.5 --dropout 0.2 --duplicate-rate 0.2")):
        sim = work / ("sim_" + agent)
        assert cli.run(["simulate", "--scene", str(work / "scene.json"),
                        "--trajectory", str(work / "trajectory.json"),
                        "--out", str(sim)] + flags.split()) == 0
        out = work / ("map_%s.json" % agent)
        assert cli.run(["build-map", "--tracks", str(sim / "tracks.json"),
                        "--out", str(out), "--agent-id", agent]) == 0
        maps.append(formats.load_map(str(out)))
    map_b, truth = simulation.perturb_frame(maps[1], 35.0, [2.0, -1.5, 0.0])
    return maps[0], map_b, truth


def test_default_configuration_pairs_are_pinned(m_maps):
    map_a, map_b, truth = m_maps
    params = Hyperparameters()
    # the submaps exactly as `match` forms them: inlier filter, then grid
    subs_a, subs_b = (submap.generate_submaps(
        submap.mahalanobis_filter(m, params.omega_percentile), params)
        for m in (map_a, map_b))
    voxel, pull_back = evaluation.default_voxel(params), truth.inverse()
    digest, contents = hashlib.sha256(), set()
    for stratum, pairs in PAIRS.items():
        for ia, ib in pairs:
            sa, sb = subs_a[ia], subs_b[ib]
            assert len(sa.landmark_ids) == len(sb.landmark_ids) == params.n_max
            contents.add((tuple(sa.landmark_ids), tuple(sb.landmark_ids)))
            iou = evaluation.submap_iou(
                sa, replace(sb, points=pull_back.apply(sb.points)), voxel)
            assert {"above theta_overlap": iou > params.theta_overlap,
                    "in (0, 0.2]": 0.0 < iou <= 0.2,
                    "zero": iou == 0.0}[stratum], (ia, ib, iou)
            screen = has_clique(build_affinity(sa, sb, params)[1], params.s_max + 1)
            solved = alignment.solve_submap_pair(sa, sb, params)
            if solved is None:
                record = (ia, ib, None, None, screen)
            else:
                transform, inliers = solved
                hypothesis = alignment.AlignmentHypothesis(
                    transform, inliers, len(inliers), ia, ib)
                record = (ia, ib, sorted((a.index_a, a.index_b) for a in inliers),
                          alignment.prune(hypothesis, params), screen)
                digest.update(transform.rotation.tobytes())
                digest.update(transform.translation.tobytes())
            digest.update(repr(record).encode())
    assert len(contents) == 12
    assert digest.hexdigest() == PAIRS_SHA256


def corpus():
    """24 seeded graphs of 4-32 points a side, a third with no overlap. The
    rest share a rigidly moved copy of some of a's points: noisy ones in a
    4 m cube, or exact ones on a 0.5 m lattice turned a quarter turn, whose
    equal distances make equal weights and so ties for the solver to break."""
    rng = np.random.default_rng(2026)
    params = Hyperparameters()
    lattice = 0.5 * np.stack(np.meshgrid(np.arange(8), np.arange(8), np.arange(2),
                                         indexing="ij"), axis=-1).reshape(-1, 3)
    for g in range(24):
        na, nb = (int(m) for m in rng.integers(4, 33, size=2))
        on_lattice = g % 3 == 2
        if on_lattice:
            pa, pb = (lattice[rng.choice(len(lattice), size=m, replace=False)]
                      for m in (na, nb))
        else:
            pa, pb = (rng.uniform(0.0, 4.0, size=(m, 3)) for m in (na, nb))
        if g % 3:
            k = int(rng.integers(3, min(na, nb) + 1))
            if on_lattice:      # exact: a quarter turn about z and a lattice step
                pb[:k] = pa[:k, [1, 0, 2]] * [-1.0, 1.0, 1.0] + [4.0, 0.5, 0.0]
            else:
                moved = RigidTransform(rotation_z(rng.uniform(-180.0, 180.0)),
                                       rng.normal(size=3))
                pb[:k] = moved.apply(pa[:k]) + rng.normal(0.0, 0.02, size=(k, 3))
        yield build_affinity(Submap([0.0, 0.0], list(range(na)), pa),
                             Submap([0.0, 0.0], list(range(nb)), pb), params)[1]


def test_clique_solvers_on_a_seeded_corpus_are_pinned():
    digest, answers = hashlib.sha256(), set()
    for aff in corpus():
        clique = densest_clique(aff)
        screen = [has_clique(aff, k) for k in (3, 4, 5, 6, 8)]
        assert screen == [has_clique_per_edge(aff, k) for k in (3, 4, 5, 6, 8)]
        answers.update(screen)
        digest.update(clique.astype(np.int64).tobytes())
        digest.update(repr(screen).encode())
    assert answers == {True, False}
    assert digest.hexdigest() == CORPUS_SHA256
