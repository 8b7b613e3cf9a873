"""The benchmark's three workloads, their inputs, golden checks and quality.

Every workload draws its instances from a fixed pool, so that goldens recorded
from one version of the program cover every input a `--seed` can select. The
seed picks which pool members a run uses and in which order.

* loc-s: the acceptance nadir-vs-oblique scene (10 m, 36 static objects),
  run end to end through `vista_align.cli.run`.
* match-m: a 20 m, 144-object scene with dynamic objects, larger than a
  submap; build-map and match through the CLI with a small-submap config.
* pairs-m: a stratified sample of unique submap pairs from the same M maps,
  solved one at a time with `alignment.solve_submap_pair`.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics

import numpy as np

from vista_align import alignment, evaluation, formats, simulation, submap
from vista_align.core import Hyperparameters, InputError
from vista_align.submap import Submap

INTRINSICS = {"fx": 400.0, "fy": 400.0, "cx": 320.0, "cy": 240.0,
              "width": 640, "height": 480}
LAWNMOWER = [(1.0, 1.0, 0.0), (1.0, 9.0, 0.0), (4.0, 9.0, 0.0),
             (4.0, 1.0, 0.0), (7.0, 1.0, 0.0), (7.0, 9.0, 0.0),
             (9.0, 9.0, 0.0), (9.0, 1.0, 0.0)]
TRANSFORM_TOL = 1e-9      # golden tolerance on hypothesis transforms
POSITION_TOL = 1e-6       # golden tolerance on landmark positions, m


class GoldenMismatch(Exception):
    """An output differs from the one recorded from the reference version."""


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def scene_files(work, tag, n_objects, extent, seed, scale, frames,
                n_dynamic=0):
    """Write a scene spec and nadir / oblique trajectory specs; return paths.

    The oblique agent flies the same lawnmower shifted by -0.65 extents in x
    with a 45 deg camera pitch, as in the acceptance fixture."""
    paths = {k: os.path.join(work, "%s_%s.json" % (tag, k))
             for k in ("scene", "traj_a", "traj_b")}
    _write_json(paths["scene"], {"n_objects": n_objects, "extent": extent,
                                 "n_dynamic": n_dynamic,
                                 "dynamic_velocity": 1.0 if n_dynamic else 0.0,
                                 "seed": seed})
    mower = [(scale * x, scale * y, 0.0) for x, y, _ in LAWNMOWER]
    for key, shift, pitch in (("traj_a", 0.0, 0.0),
                              ("traj_b", -0.65 * extent[0], 45.0)):
        _write_json(paths[key], {"waypoints": [(x + shift, y, z) for x, y, z in mower],
                                 "frames": frames, "altitude": 8.0,
                                 "camera_pitch": pitch, "intrinsics": INTRINSICS})
    return paths


def perturb_map_b(src, dst, truth_path, seed):
    """Move map b by the seeded yaw / translation of the acceptance fixture;
    write the moved map and the truth transform (map-a frame -> map-b frame)."""
    rng = np.random.default_rng(1000 + seed)
    moved, truth = simulation.perturb_frame(
        formats.load_map(src), float(rng.uniform(-60.0, 60.0)),
        [float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)), 0.0])
    formats.save_map(moved, dst)
    # Full precision: formats.transform_to_json rounds to 9 digits, and the
    # rounded rotation fails the loader's 1e-9 orthonormality check.
    _write_json(truth_path, {"rotation": truth.rotation.ravel().tolist(),
                             "translation": truth.translation.tolist()})
    return truth


# --------------------------------------------------------------- digests

def tracks_digest(sim_dir):
    data = _read_json(os.path.join(sim_dir, "tracks.json"))
    return [len(data["tracks"]), sum(len(t["detections"]) for t in data["tracks"])]


def map_digest(path):
    data = _read_json(path)
    return {"ids": [lm["id"] for lm in data["landmarks"]],
            "positions": [lm["position"] for lm in data["landmarks"]]}


def check_map(path, golden):
    got = map_digest(path)
    if got["ids"] != golden["ids"]:
        raise GoldenMismatch("%s: landmark ids differ" % os.path.basename(path))
    err = np.abs(np.array(got["positions"]) - np.array(golden["positions"]))
    if err.size and err.max() > POSITION_TOL:
        raise GoldenMismatch("%s: landmark position off by %g m"
                             % (os.path.basename(path), err.max()))


def hypotheses_digest(records, transforms=None):
    """Digest of a hypothesis list: a hash of (source, target, cardinality)
    in output order, and each hypothesis' transform as an index into a list
    of distinct transforms. When `transforms` is given (checking), a
    hypothesis matches the first listed transform within TRANSFORM_TOL;
    otherwise (recording) the list is built in order of first appearance."""
    keys = ";".join("%d,%d,%d" % (r["source_submap"], r["target_submap"],
                                  r["cardinality"]) for r in records)
    recording = transforms is None
    transforms = [] if recording else transforms
    index = []
    for r in records:
        vec = np.array(r["rotation"] + r["translation"])
        match = None
        if transforms:
            err = np.abs(np.array(transforms) - vec).max(axis=1)
            hits = np.flatnonzero(err <= TRANSFORM_TOL)
            match = int(hits[0]) if hits.size else None
        if match is None:
            if not recording:
                raise GoldenMismatch("hypothesis %d,%d: transform matches no "
                                     "golden transform" % (r["source_submap"],
                                                           r["target_submap"]))
            transforms.append(vec.tolist())
            match = len(transforms) - 1
        index.append(match)
    return {"n": len(records), "keys_sha": _sha(keys), "transforms": transforms,
            "index_sha": _sha(",".join(map(str, index)))}


def check_hypotheses(path, golden):
    got = hypotheses_digest(_read_json(path), golden["transforms"])
    for field in ("n", "keys_sha", "index_sha"):
        if got[field] != golden[field]:
            raise GoldenMismatch("%s: hypotheses differ (%s)"
                                 % (os.path.basename(path), field))


def pr_digest(path):
    """Precision/recall rows without the runtime columns."""
    with open(path) as fh:
        return [",".join(line.split(",")[:5]) for line in fh.read().splitlines()]


# --------------------------------------------------------------- quality

def track_outcomes(sim_dir, map_path, n_min):
    """Counts of static tracks kept and dynamic tracks rejected by
    build-map, over tracks long enough to reach refinement."""
    truth = _read_json(os.path.join(sim_dir, "ground_truth.json"))["objects"]
    tracks = _read_json(os.path.join(sim_dir, "tracks.json"))["tracks"]
    built = set(map_digest(map_path)["ids"])
    q = {"static": 0, "static_kept": 0, "dynamic": 0, "dynamic_rejected": 0}
    for t in tracks:
        if len(t["detections"]) <= n_min:
            continue
        if truth[t["id"]]["dynamic"]:
            q["dynamic"] += 1
            q["dynamic_rejected"] += t["id"] not in built
        else:
            q["static"] += 1
            q["static_kept"] += t["id"] in built
    return q


def _filtered_submaps(obj_map, params):
    """Submaps exactly as `match` forms them: inlier filter, then grid."""
    filtered = submap.mahalanobis_filter(obj_map, params.omega_percentile)
    return submap.generate_submaps(filtered, params)


def _overlap(sa, sb, truth_inv, voxel):
    moved = Submap(sb.center, sb.landmark_ids, truth_inv.apply(sb.points))
    return evaluation.submap_iou(sa, moved, voxel)


def record_correct(record, truth, params):
    """classify() of one hypothesis record of a match output."""
    return evaluation.classify(formats.parse_transform(json.dumps(record)),
                               truth, params)


def hypotheses_quality(hyps_path, map_a, map_b, truth, params):
    """Pooled precision / recall at s_max of a match output, with the
    evaluate protocol's definitions: a hypothesis is a kept submap pair, a
    pair overlaps when its truth IoU exceeds theta_overlap."""
    records = _read_json(hyps_path)
    subs_a = _filtered_submaps(formats.load_map(map_a), params)
    subs_b = _filtered_submaps(formats.load_map(map_b), params)
    voxel, inv = evaluation.default_voxel(params), truth.inverse()
    iou = {}
    for ia, sa in enumerate(subs_a):
        for ib, sb in enumerate(subs_b):
            iou[ia, ib] = _overlap(sa, sb, inv, voxel)
    q = {"hyp": 0, "hyp_correct": 0, "recalled": 0, "top1": 1,
         "top1_correct": bool(records) and record_correct(records[0], truth, params),
         "overlapping": sum(v > params.theta_overlap for v in iou.values())}
    for r in records:
        if r["cardinality"] <= params.s_max:
            continue
        ok = record_correct(r, truth, params)
        q["hyp"] += 1
        q["hyp_correct"] += ok
        q["recalled"] += ok and iou[r["source_submap"], r["target_submap"]] \
            > params.theta_overlap
    return q


# --------------------------------------------------------------- workloads

def simulate_and_build(bench, paths, d, golden, config=()):
    """simulate and build-map for both agents through the CLI, each output
    checked against its golden; return the two map paths."""
    maps = {}
    for a in "ab":
        out = os.path.join(d, a)
        bench.cli("simulate", ["--scene", paths["scene"], "--trajectory",
                               paths["traj_" + a], "--noise", "0.3", "--out", out])
        bench.check(lambda: tracks_digest(out), golden, "tracks_" + a)
        maps[a] = os.path.join(d, "map_%s.json" % a)
        bench.cli("build-map", ["--tracks", os.path.join(out, "tracks.json"),
                                "--agent-id", a, "--out", maps[a], *config])
        bench.check_with(check_map, map_digest, maps[a], golden, "map_" + a)
    return maps


def m_scene(work, unit):
    """The M scene: 20 m, 144 objects of which 14 move at 1 m/frame."""
    return scene_files(work, "m%d" % unit, 144, [20.0, 20.0, 1.5], unit,
                       scale=2.0, frames=200, n_dynamic=14)


def pair_keys(map_a, map_b, params):
    """Number of submap pairs `match` compares for two map files."""
    return (len(_filtered_submaps(formats.load_map(map_a), params))
            * len(_filtered_submaps(formats.load_map(map_b), params)))


class SceneWorkload:
    """Base for the CLI workloads: one unit is one scene."""

    pool = ()
    per_run = 1
    trace_units = 1               # a traced run traces the first scene

    def units(self, seed, smoke, goldens):
        """One scene from each of `per_run` strata of the pool, ordered by
        the recorded number of submap pairs, which sets a scene's cost. Every
        run then holds light and heavy scenes alike; the seed picks which."""
        order = sorted(self.pool, key=lambda s: (goldens["s%d" % s]["pair_keys"], s))
        rng = np.random.default_rng(seed)
        picked = [int(rng.choice(stratum)) for stratum in
                  np.array_split(order, 1 if smoke else self.per_run)]
        rng.shuffle(picked)
        return picked

    def scene(self, unit):
        return unit

    def pipeline(self, unit_times, ops):
        """pipeline_s samples: the mean scene time of each complete pass, so
        that every sample spans the strata from light to heavy."""
        n = self.per_run if len(unit_times) >= self.per_run else len(unit_times)
        return [sum(unit_times[k:k + n]) / n
                for k in range(0, len(unit_times) - n + 1, n)]

    def record_batches(self):
        return [[u] for u in self.pool]

    def setup(self, bench, units):
        with open(os.path.join(bench.work, self.name + ".cfg"), "w") as fh:
            fh.write(self.config)
        return {u: self.scene_files(bench.work, u) for u in units}

    def run_unit(self, bench, state, unit, golden, quality):
        """simulate and build-map for both agents, move map b into its own
        frame, match, then the workload's own tail."""
        paths, d = state[unit], os.path.join(bench.work, "u%d" % unit)
        cfg = os.path.join(bench.work, self.name + ".cfg")
        maps = simulate_and_build(bench, paths, d, golden, ("--config", cfg))
        run = {"dir": d, "cfg": cfg, "map_a": maps["a"],
               "map_b": os.path.join(d, "map_b_moved.json"),
               "truth_path": os.path.join(d, "truth.json"),
               "hyps": os.path.join(d, "hyps.json")}
        run["truth"] = perturb_map_b(maps["b"], run["map_b"], run["truth_path"], unit)
        bench.check(lambda: pair_keys(run["map_a"], run["map_b"], self.params),
                    golden, "pair_keys")
        bench.cli("match", ["--map-a", run["map_a"], "--map-b", run["map_b"],
                            "--out", run["hyps"], "--config", cfg])
        bench.check_with(check_hypotheses,
                         lambda p: hypotheses_digest(_read_json(p)),
                         run["hyps"], golden, "hypotheses")
        self.after_match(bench, run, golden, quality)
        if quality is not None:
            for a in "ab":
                quality.add(**track_outcomes(os.path.join(d, a), maps[a],
                                             self.params.n_min))


class LocS(SceneWorkload):
    name = "loc-s"
    pool = tuple(range(20))       # the acceptance fixture's scene seeds
    per_run = 10
    submap_size = 36              # fewer landmarks than n_max: one submap
    config = "theta_rp = 6\n"
    params = Hyperparameters(theta_rp=6.0)

    def scene_files(self, work, unit):
        return scene_files(work, "s%d" % unit, 36, [10.0, 10.0, 1.5], unit,
                           scale=1.0, frames=100)

    def after_match(self, bench, run, golden, quality):
        pr = os.path.join(run["dir"], "pr.csv")
        bench.cli("evaluate", ["--map-a", run["map_a"], "--map-b", run["map_b"],
                               "--truth", run["truth_path"], "--sweep", "3:15",
                               "--out", pr, "--config", run["cfg"]])
        bench.check(lambda: pr_digest(pr), golden, "pr_rows")
        if quality is None:
            return
        row = next(r.split(",") for r in pr_digest(pr) if r.startswith("4,"))
        precision, recall = float(row[1]), float(row[2])
        hyp, overlapping = int(row[3]), int(row[4])
        quality.add(hyp=hyp, hyp_correct=round(precision * hyp),
                    overlapping=overlapping, recalled=round(recall * overlapping))
        records = _read_json(run["hyps"])
        quality.add(top1=1, top1_correct=bool(records) and record_correct(
            records[0], run["truth"], self.params))


class MatchM(SceneWorkload):
    name = "match-m"
    pool = tuple(range(10))
    per_run = 4
    submap_size = 10
    # 144 landmarks over 10-landmark submaps on a 7 m grid: every submap pair
    # is distinct, so the all-to-all search really runs.
    config = "n_max = 10\nwindow = 7\noverlap = 7\n"
    params = Hyperparameters(n_max=10, window=7.0, overlap=7.0)

    def scene_files(self, work, unit):
        return m_scene(work, unit)

    def after_match(self, bench, run, golden, quality):
        if quality is not None:
            quality.add(**hypotheses_quality(run["hyps"], run["map_a"],
                                             run["map_b"], run["truth"],
                                             self.params))


class PairsM:
    """One unit is one submap pair; a pass is the whole stratified sample of
    one M scene's maps."""

    name = "pairs-m"
    pool = tuple(range(8))
    # Default parameters except n_max: at the default 50, a zero-IoU pair
    # runs the full homotopy schedule for 20-30 s, so a run could not hold
    # even one sample of each stratum. 32 keeps 1,024 candidates per pair.
    params = Hyperparameters(n_max=32)
    submap_size = 32
    strata = (("match", 4), ("nomatch", 2))
    trace_units = None            # a traced run traces the whole sample

    def units(self, seed, smoke, goldens):
        scene = int(self.pool[np.random.default_rng(seed).integers(len(self.pool))])
        counts = [(s, 1 if smoke else n) for s, n in self.strata]
        return [(scene, s, i) for s, n in counts for i in range(n)]

    def scene(self, unit):
        return unit[0]

    def pipeline(self, unit_times, ops):
        """The whole sample's time at each stratum's median solve, so that
        one slow pair in a stratum does not set the sample's cost."""
        return [sum(n * statistics.median(ops["pair_" + s]) for s, n in self.strata)]

    def record_batches(self):
        return [[(s, st, i) for st, n in self.strata for i in range(n)]
                for s in self.pool]

    def setup(self, bench, units):
        scene = units[0][0]
        golden = bench.golden_for(scene)
        work = bench.work
        d = os.path.join(work, "m%d" % scene)
        maps = simulate_and_build(bench, m_scene(work, scene), d, golden)
        map_b, truth_path = (os.path.join(d, "map_b_moved.json"),
                             os.path.join(d, "truth.json"))
        truth = perturb_map_b(maps["b"], map_b, truth_path, scene)
        sample = self.sample(formats.load_map(maps["a"]), formats.load_map(map_b),
                             truth, scene)
        tracks = {a: track_outcomes(os.path.join(d, a), maps[a], self.params.n_min)
                  for a in "ab"}
        return {"truth": truth, "sample": sample, "tracks": tracks}

    def sample(self, map_a, map_b, truth, scene):
        """Seeded draw of unique submap pairs into the two strata: truth
        IoU > theta_overlap, and truth IoU = 0."""
        p = self.params
        subs_a = list({s.landmark_ids: s for s in _filtered_submaps(map_a, p)}.values())
        subs_b = list({s.landmark_ids: s for s in _filtered_submaps(map_b, p)}.values())
        voxel, inv = evaluation.default_voxel(p), truth.inverse()
        rng = np.random.default_rng(scene)
        want = dict(self.strata)
        picked = {s: [] for s in want}
        seen = set()
        for _ in range(50000):
            ia, ib = int(rng.integers(len(subs_a))), int(rng.integers(len(subs_b)))
            if (ia, ib) in seen:
                continue
            seen.add((ia, ib))
            iou = _overlap(subs_a[ia], subs_b[ib], inv, voxel)
            stratum = "match" if iou > p.theta_overlap else \
                "nomatch" if iou == 0.0 else None
            if stratum and len(picked[stratum]) < want[stratum]:
                picked[stratum].append((subs_a[ia], subs_b[ib]))
            if all(len(picked[s]) == n for s, n in want.items()):
                return picked
        raise InputError("scene %d: too few submap pairs in a stratum" % scene)

    def run_unit(self, bench, state, unit, golden, quality):
        _, stratum, i = unit
        sa, sb = state["sample"][stratum][i]
        truth = state["truth"]

        def solve():
            res = alignment.solve_submap_pair(sa, sb, self.params)
            if res is None:
                return None, None, False
            hyp = alignment.AlignmentHypothesis(res[0], res[1], len(res[1]), 0, 0)
            return hyp, alignment.prune(hyp, self.params), \
                evaluation.classify(hyp, truth, self.params)

        hyp, reason, correct = bench.op("pair_" + stratum, solve)
        record = {"a": list(sa.landmark_ids), "b": list(sb.landmark_ids),
                  "inliers": None, "transform": None, "prune": reason,
                  "correct": bool(correct)}
        if hyp is not None:
            record["inliers"] = sorted([a.index_a, a.index_b] for a in hyp.inliers)
            record["transform"] = (hyp.transform.rotation.ravel().tolist()
                                   + hyp.transform.translation.tolist())
        bench.check_with(_check_pair, lambda r: r, record, golden,
                         "%s_%d" % (stratum, i))
        if quality is not None:
            hypothesized = hyp is not None and reason is None
            quality.add(hyp=hypothesized, hyp_correct=hypothesized and correct,
                        overlapping=stratum == "match",
                        recalled=hypothesized and correct and stratum == "match")
            quality.top(hyp.cardinality if hypothesized else -1,
                        hypothesized and correct)

    def pass_quality(self, state, quality):
        for q in state["tracks"].values():
            quality.add(**q)


def _check_pair(record, golden):
    for field in ("a", "b", "inliers", "prune", "correct"):
        if record[field] != golden[field]:
            raise GoldenMismatch("pair differs in %s" % field)
    if (record["transform"] is None) != (golden["transform"] is None) or (
            record["transform"] is not None
            and np.abs(np.array(record["transform"])
                       - np.array(golden["transform"])).max() > TRANSFORM_TOL):
        raise GoldenMismatch("pair transform differs")


WORKLOADS = {w.name: w for w in (LocS(), MatchM(), PairsM())}

