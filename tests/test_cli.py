import copy
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vista_align import (alignment, cli, evaluation, formats, submap,
                         triangulation)
from vista_align.core import (Hyperparameters, InputError, ObjectMap, RigidTransform,
                              rotation_z)

from conftest import grid_hypotheses, identity, map_from_points


SCENE = {"n_objects": 36, "extent": [10.0, 10.0, 1.5], "seed": 3}
TRAJECTORY = {"waypoints": [[1.0, 1.0, 0.0], [1.0, 9.0, 0.0], [5.0, 9.0, 0.0],
                            [5.0, 1.0, 0.0], [9.0, 1.0, 0.0], [9.0, 9.0, 0.0]],
              "frames": 60, "altitude": 8.0,
              "intrinsics": {"fx": 400.0, "fy": 400.0, "cx": 320.0,
                             "cy": 240.0, "width": 640, "height": 480}}


@pytest.fixture
def workdir(tmp_path):
    with open(tmp_path / "scene.json", "w") as fh:
        json.dump(SCENE, fh)
    with open(tmp_path / "trajectory.json", "w") as fh:
        json.dump(TRAJECTORY, fh)
    return tmp_path


def simulate_and_build(workdir, agent="a"):
    sim = str(workdir / ("sim_" + agent))
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", sim]) == 0
    map_path = str(workdir / ("map_" + agent + ".json"))
    assert cli.run(["build-map", "--tracks", os.path.join(sim, "tracks.json"),
                    "--out", map_path, "--agent-id", agent]) == 0
    return map_path


def test_simulate_writes_tracks_and_truth(workdir):
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", str(workdir / "sim")]) == 0
    intr, poses, tracks = formats.load_track_file(str(workdir / "sim" / "tracks.json"))
    assert intr.width == 640
    assert len(poses) == 60
    assert tracks
    with open(workdir / "sim" / "ground_truth.json") as fh:
        truth = json.load(fh)
    assert len(truth["objects"]) == 36


def test_simulate_reproducible(workdir):
    for name in ("s1", "s2"):
        assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                        "--trajectory", str(workdir / "trajectory.json"),
                        "--out", str(workdir / name)]) == 0
    with open(workdir / "s1" / "tracks.json") as fh:
        t1 = fh.read()
    with open(workdir / "s2" / "tracks.json") as fh:
        t2 = fh.read()
    assert t1 == t2


# sha256 of simulate's files in each draw mode: bit-for-bit reproducibility
# across versions. Ground truth does not depend on the draw mode.
GROUND_TRUTH_SHA256 = "5c1556733b936d19dbbeb9d3a017977c7b7c9c85db083d6d782590a3d87ef8b9"
TRACKS_SHA256 = {
    "noise": ("--noise 0.3",
              "8549b28e7a92aaeb9a20a8079e568d89f4ffc0aac257aee9adf5d6122f5594c3"),
    "noise+dropout+duplicates": (
        "--noise 0.5 --dropout 0.2 --duplicate-rate 0.2",
        "47d3254922f0d2d1521a84349a6e31f8eee573a06cf2ec1921964298bc9b6dfa"),
    "dropout": ("--dropout 0.2",
                "f5e8463927c3ddcc62d74cff5ba42d0bd743b4a884a4945205d99719e86992d3"),
    "none": ("", "165fdd29a186216f465525be03dec98a7dd4787bb05facfc00bbe0da52075398"),
}


def test_simulate_seed_flag_replaces_the_scene_seed(workdir):
    # the scene file's seed 3 moved to 8, and --seed 3 puts it back: the
    # files are the pinned ones of seed 3
    with open(workdir / "scene.json", "w") as fh:
        json.dump({**SCENE, "seed": 8}, fh)
    sim = workdir / "sim"
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", str(sim), "--seed", "3"]) == 0
    digest = {name: hashlib.sha256((sim / name).read_bytes()).hexdigest()
              for name in ("tracks.json", "ground_truth.json")}
    assert digest == {"tracks.json": TRACKS_SHA256["none"][1],
                      "ground_truth.json": GROUND_TRUTH_SHA256}


@pytest.mark.parametrize("flags, tracks_sha256", TRACKS_SHA256.values(),
                         ids=TRACKS_SHA256.keys())
def test_simulate_bytes_are_pinned(workdir, flags, tracks_sha256):
    sim = workdir / "sim"
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", str(sim)] + flags.split()) == 0
    digest = {name: hashlib.sha256((sim / name).read_bytes()).hexdigest()
              for name in ("tracks.json", "ground_truth.json")}
    assert digest == {"tracks.json": tracks_sha256,
                      "ground_truth.json": GROUND_TRUTH_SHA256}


# The benchmark's M scene (144 objects, 14 moving, 200 frames) seen by its
# 45 deg agent: 28,800 frame x object rows and about 17,600 detections span
# several BATCH_ROWS blocks in render and in triangulation, where the scene
# above fits in one. sha256 of simulate's files and of the map build-map
# makes from them, recorded before the front end ran in blocks. The noise +
# dropout digests, here and above, were re-recorded when the dropout uniforms
# came to be drawn after every noise pair instead of one detection at a time.
M_SCENE = {"n_objects": 144, "extent": [20.0, 20.0, 1.5], "n_dynamic": 14,
           "dynamic_velocity": 1.0, "seed": 0}
M_TRAJECTORY = {**TRAJECTORY, "frames": 200, "camera_pitch": 45.0,
                "waypoints": [[2.0 * x - 13.0, 2.0 * y, 0.0] for x, y in
                              [(1, 1), (1, 9), (4, 9), (4, 1), (7, 1), (7, 9),
                               (9, 9), (9, 1)]]}
M_GROUND_TRUTH_SHA256 = "6ff4b37546704694046ff6c4b76c5e82b993a0664fe8e765aef567fb194eb71e"
M_SHA256 = {
    "noise": ("--noise 0.3",
              "ca4c3d9053ec121551893b3a88e972c570da03732d46d1672a062112c893be76",
              "f032a1375752a9a063ebcc5a71c9350bca194cbaf8b1e25766acd27e0f541f45"),
    "noise+dropout+duplicates": (
        "--noise 0.5 --dropout 0.2 --duplicate-rate 0.2",
        "a770448ee97f942e66ebe5b628435f8b9f117692426ee4e70d43103c10b2a472",
        "2c9b526df008d3f4faeeb19ff5f1f75824c28a5e4b3889134ce40c7686e125e6"),
}


@pytest.mark.parametrize("flags, tracks_sha256, map_sha256", M_SHA256.values(),
                         ids=M_SHA256.keys())
def test_multi_block_scene_bytes_are_pinned(tmp_path, flags, tracks_sha256,
                                            map_sha256):
    for name, doc in (("scene", M_SCENE), ("trajectory", M_TRAJECTORY)):
        with open(tmp_path / (name + ".json"), "w") as fh:
            json.dump(doc, fh)
    sim = tmp_path / "sim"
    assert cli.run(["simulate", "--scene", str(tmp_path / "scene.json"),
                    "--trajectory", str(tmp_path / "trajectory.json"),
                    "--out", str(sim)] + flags.split()) == 0
    assert cli.run(["build-map", "--tracks", str(sim / "tracks.json"),
                    "--out", str(tmp_path / "map.json")]) == 0
    digest = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in (sim / "tracks.json", sim / "ground_truth.json",
                           tmp_path / "map.json")}
    assert digest == {"tracks.json": tracks_sha256,
                      "ground_truth.json": M_GROUND_TRUTH_SHA256,
                      "map.json": map_sha256}


def test_build_map_loads_tracks_simulated_at_any_pitch(workdir):
    # at 35 deg the %.9g pose rotations sit 1.2e-9 off orthonormal
    with open(workdir / "trajectory.json", "w") as fh:
        json.dump({**TRAJECTORY, "camera_pitch": 35}, fh)
    assert len(formats.load_map(simulate_and_build(workdir))) > 0


def test_build_map_summary_line(workdir, capsys):
    map_path = simulate_and_build(workdir)
    out = capsys.readouterr().out
    assert "landmarks=" in out
    assert "discarded_diverged=" in out and "discarded_short=" in out
    obj_map = formats.load_map(map_path)
    assert len(obj_map) >= 30


def test_build_map_log_json_counts_discards_by_reason(workdir, capsys):
    sim = str(workdir / "sim")
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", sim, "--noise", "0.5"]) == 0
    capsys.readouterr()
    assert cli.run(["build-map", "--tracks", os.path.join(sim, "tracks.json"),
                    "--out", str(workdir / "map.json"), "--log-json"]) == 0
    line, record = capsys.readouterr().out.splitlines()
    record = json.loads(record)
    reasons = ["degenerate", "behind", "iteration_cap", "cost_stall",
               "residual_floor"]
    assert sorted(record) == sorted(["stage", "landmarks", "discarded_short",
                                     "discarded_diverged", "seconds"]
                                    + ["discarded_" + r for r in reasons])
    assert record["discarded_diverged"] == sum(record["discarded_" + r]
                                               for r in reasons)
    assert line == ("landmarks=%d discarded_diverged=%d discarded_short=%d"
                    % (record["landmarks"], record["discarded_diverged"],
                       record["discarded_short"]))


def test_simulate_over_the_frame_cap_exits_1_naming_frames(workdir, capsys):
    with open(workdir / "trajectory.json", "w") as fh:
        json.dump(dict(TRAJECTORY, frames=2 ** 70), fh)
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", str(workdir / "sim")]) == 1
    assert "frames must be <= 100000" in capsys.readouterr().err
    assert not (workdir / "sim").exists()


def test_build_map_unknown_config_key(workdir, capsys):
    with open(workdir / "bad.cfg", "w") as fh:
        fh.write("not_a_real_key = 5\n")
    sim = str(workdir / "sim")
    cli.run(["simulate", "--scene", str(workdir / "scene.json"),
             "--trajectory", str(workdir / "trajectory.json"), "--out", sim])
    code = cli.run(["build-map", "--tracks", os.path.join(sim, "tracks.json"),
                    "--out", str(workdir / "m.json"),
                    "--config", str(workdir / "bad.cfg")])
    assert code == 1
    assert "not_a_real_key" in capsys.readouterr().err


def test_missing_input_file_exits_1(workdir, capsys):
    code = cli.run(["build-map", "--tracks", str(workdir / "nope.json"),
                    "--out", str(workdir / "m.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_submaps_command(workdir):
    map_path = simulate_and_build(workdir)
    out_dir = workdir / "submaps"
    assert cli.run(["submaps", "--map", map_path, "--out", str(out_dir)]) == 0
    with open(out_dir / "index.json") as fh:
        index = json.load(fh)
    assert index["n_submaps"] == len(index["submaps"]) > 0
    for name in index["submaps"]:
        with open(out_dir / name) as fh:
            sm = json.load(fh)
        assert len(sm["landmark_ids"]) == len(sm["points"])


def test_ids_past_int64_match_as_their_ranks(tmp_path):
    # ids -1 and 2^63 + 1 + i: an array of them is float64, which rounds
    # every large id to 2^63. Relabelled 0..m-1 in the same order, the map
    # must give the same hypotheses, and the submaps only ids of the map.
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 20.0, size=(40, 3)) * np.array([1.0, 1.0, 0.1])
    big = [-1] + [2 ** 63 + 1 + i for i in rng.permutation(39).tolist()]
    cov = np.tile(np.eye(3) * 1e-4, (40, 1, 1))
    moved = RigidTransform(rotation_z(20.0), np.array([3.0, -2.0, 0.0])).apply(pts)
    cfg = str(tmp_path / "grid.cfg")
    formats.atomic_write(cfg, "n_max = 10\nwindow = 7\noverlap = 7\n")
    hypotheses = []
    for name, ids in (("big", big), ("rank", [sorted(big).index(i) for i in big])):
        a, b, out = (str(tmp_path / (name + x)) for x in ("_a.json", "_b.json", ".json"))
        formats.save_map(ObjectMap("a", ids, pts, cov), a)
        formats.save_map(ObjectMap("b", ids, moved, cov), b)
        assert cli.run(["match", "--map-a", a, "--map-b", b, "--out", out,
                        "--config", cfg]) == 0
        with open(out, "rb") as fh:
            hypotheses.append(fh.read())
    assert hypotheses[0] == hypotheses[1]
    out_dir = tmp_path / "submaps"
    assert cli.run(["submaps", "--map", str(tmp_path / "big_a.json"),
                    "--out", str(out_dir), "--config", cfg]) == 0
    written = []
    for name in json.loads((out_dir / "index.json").read_text())["submaps"]:
        written += json.loads((out_dir / name).read_text())["landmark_ids"]
    assert written and set(written) <= set(big)


def test_match_identical_maps_identity(workdir):
    map_path = simulate_and_build(workdir)
    out = str(workdir / "hyps.json")
    assert cli.run(["match", "--map-a", map_path, "--map-b", map_path,
                    "--out", out]) == 0
    with open(out) as fh:
        hyps = json.load(fh)
    assert hyps
    top = hyps[0]
    R = np.array(top["rotation"]).reshape(3, 3)
    assert np.allclose(R, np.eye(3), atol=1e-6)
    assert np.allclose(top["translation"], 0.0, atol=1e-6)
    assert top["cardinality"] > 4
    inliers = submap.mahalanobis_filter(formats.load_map(map_path),
                                        Hyperparameters().omega_percentile)
    expected = grid_hypotheses(
        alignment.align_maps(inliers, inliers, Hyperparameters()))
    for record, h in zip(hyps, expected, strict=True):
        t = formats.parse_transform(json.dumps(record))
        assert t.rotation.tobytes() == h.transform.rotation.tobytes()
        assert t.translation.tobytes() == h.transform.translation.tobytes()


def test_match_no_overlap_exits_2(workdir, tmp_path):
    rng = np.random.default_rng(0)
    pa = rng.uniform(0.0, 4.0, size=(8, 3))
    ma = map_from_points(pa)
    pb = rng.uniform(100.0, 104.0, size=(8, 3)) * np.array([1.0, 1.0, 0.01])
    mb = map_from_points(pb, agent_id="b")
    formats.save_map(ma, str(tmp_path / "a.json"))
    formats.save_map(mb, str(tmp_path / "b.json"))
    code = cli.run(["match", "--map-a", str(tmp_path / "a.json"),
                    "--map-b", str(tmp_path / "b.json"),
                    "--out", str(tmp_path / "h.json")])
    assert code in (0, 2)
    if code == 2:
        with open(tmp_path / "h.json") as fh:
            assert json.load(fh) == []


def test_match_top_k(workdir, capsys):
    # --top-k k writes the first k records of the full file; --log-json's
    # n_hypotheses counts the records written
    map_path = simulate_and_build(workdir)
    capsys.readouterr()
    files = {}
    for top_k in ([], ["--top-k", "3"]):
        out = str(workdir / ("hyps%d.json" % len(top_k)))
        assert cli.run(["match", "--map-a", map_path, "--map-b", map_path,
                        "--out", out, "--log-json"] + top_k) == 0
        with open(out) as fh:
            files[len(top_k)] = json.load(fh)
        log = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert log["stage"] == "match"
        assert log["n_hypotheses"] == len(files[len(top_k)])
    assert len(files[0]) > 3
    assert files[2] == files[0][:3]


def test_match_encodes_each_kept_solve_once(workdir, monkeypatch):
    map_path = simulate_and_build(workdir)
    encode, encoded = formats.transform_to_json, []

    def counting(transform):
        encoded.append(transform)
        return encode(transform)

    monkeypatch.setattr(formats, "transform_to_json", counting)
    out = str(workdir / "hyps.json")
    assert cli.run(["match", "--map-a", map_path, "--map-b", map_path,
                    "--out", out]) == 0
    inliers = submap.mahalanobis_filter(formats.load_map(map_path),
                                        Hyperparameters().omega_percentile)
    solves = alignment.align_maps(inliers, inliers, Hyperparameters())
    with open(out) as fh:
        n_records = len(json.load(fh))
    assert len(encoded) == len(solves) < n_records


def test_log_json_lines(workdir, capsys):
    assert cli.run(["simulate", "--scene", str(workdir / "scene.json"),
                    "--trajectory", str(workdir / "trajectory.json"),
                    "--out", str(workdir / "sim"), "--log-json"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    record = json.loads(lines[-1])
    assert record["stage"] == "simulate"
    assert record["n_objects"] == 36
    assert "seconds" in record


def test_full_pipeline_evaluate(workdir):
    map_a = simulate_and_build(workdir, "a")
    # same scene viewed again, then expressed in an offset frame
    obj_map = formats.load_map(map_a)
    truth = RigidTransform(rotation_z(45.0), np.array([4.0, -2.0, 0.0]))
    moved = ObjectMap("b", obj_map.ids, truth.apply(obj_map.positions),
                      truth.rotation @ obj_map.covariances @ truth.rotation.T)
    map_b = str(workdir / "map_b.json")
    formats.save_map(moved, map_b)
    formats.atomic_write(str(workdir / "truth.json"),
                         formats.transform_to_json(truth))
    out_csv = str(workdir / "pr.csv")
    assert cli.run(["evaluate", "--map-a", map_a, "--map-b", map_b,
                    "--truth", str(workdir / "truth.json"),
                    "--sweep", "3:6", "--out", out_csv]) == 0
    with open(out_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == ("s_max,precision,recall,hypothesized,"
                        "overlapping_pairs,mean_runtime_s,std_runtime_s")
    assert len(lines) == 5
    s4 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(s4["precision"]) == 1.0
    assert float(s4["recall"]) == 1.0


def test_runtime_imports_only_numpy():
    """numpy is the one dependency: importing the CLI loads no other
    third-party package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    report = "import sys; print(' '.join({m.split('.')[0] for m in sys.modules}))"

    def top_level(prelude):
        out = subprocess.run([sys.executable, "-c", prelude + report], env=env,
                             capture_output=True, text=True, check=True).stdout
        return set(out.split()) - sys.stdlib_module_names

    assert top_level("import vista_align.cli; ") - top_level("") == {
        "numpy", "vista_align"}


def test_help_listing():
    with pytest.raises(SystemExit) as exc:
        cli.run(["--help"])
    assert exc.value.code == 0


TRACKS = {"intrinsics": TRAJECTORY["intrinsics"],
          "poses": [{"frame": 0, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                     "translation": [5.0, 5.0, 8.0]}],
          "tracks": []}


@pytest.fixture
def small_maps(tmp_path):
    """Two copies of a 20-landmark map, an empty map, a 4-landmark map, a
    120-landmark map, a map file holding a bare number, a truth file, configs
    with a NaN sigma, sigma = 1e-300, an out-of-range omega_percentile,
    n_max = 101, n_max = 4, n_max set twice, n_max = 1e2, overlap = 1e-300
    and a line that is not 'key = value', a file that is not UTF-8, a map
    holding a 5,001-digit integer, and valid scene, trajectory and track
    files."""
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 5.0, size=(20, 3)) * np.array([1.0, 1.0, 0.3])
    m = map_from_points(pts)
    paths = {k: str(tmp_path / (k + ".json"))
             for k in ("a", "b", "empty", "tiny", "big", "five", "truth",
                       "scene", "trajectory", "tracks")}
    formats.save_map(m, paths["a"])
    big = rng.uniform(0.0, 5.0, size=(120, 3)) * np.array([1.0, 1.0, 0.3])
    formats.save_map(map_from_points(big, agent_id="big"), paths["big"])
    formats.save_map(m, paths["b"])
    formats.save_map(map_from_points([], agent_id="e"), paths["empty"])
    formats.save_map(map_from_points(pts[:4], agent_id="t"), paths["tiny"])
    formats.atomic_write(paths["five"], "5")
    formats.atomic_write(paths["truth"],
                         formats.transform_to_json(identity()))
    for name, doc in (("scene", SCENE), ("trajectory", TRAJECTORY),
                      ("tracks", TRACKS)):
        formats.atomic_write(paths[name], json.dumps(doc))
    paths["nan_cfg"] = str(tmp_path / "nan.cfg")
    formats.atomic_write(paths["nan_cfg"], "sigma = nan\n")
    paths["omega_cfg"] = str(tmp_path / "omega.cfg")
    formats.atomic_write(paths["omega_cfg"], "omega_percentile = 150\n")
    paths["n_max_cfg"] = str(tmp_path / "cap.cfg")
    formats.atomic_write(paths["n_max_cfg"], "n_max = 101\n")
    paths["n_max_4_cfg"] = str(tmp_path / "n_max_4.cfg")
    formats.atomic_write(paths["n_max_4_cfg"], "n_max = 4\n")
    paths["dup_cfg"] = str(tmp_path / "dup.cfg")
    formats.atomic_write(paths["dup_cfg"], "n_max = 10\nn_max = 20\n")
    paths["exp_cfg"] = str(tmp_path / "exp.cfg")
    formats.atomic_write(paths["exp_cfg"], "n_max = 1e2\n")
    paths["overlap_cfg"] = str(tmp_path / "overlap.cfg")
    formats.atomic_write(paths["overlap_cfg"], "overlap = 1e-300\n")
    paths["tiny_sigma_cfg"] = str(tmp_path / "tiny_sigma.cfg")
    formats.atomic_write(paths["tiny_sigma_cfg"], "sigma = 1e-300\n")
    paths["no_equals_cfg"] = str(tmp_path / "no_equals.cfg")
    formats.atomic_write(paths["no_equals_cfg"], "# the grid\nn_max 10\n")
    paths["not_utf8"] = str(tmp_path / "not_utf8.json")
    with open(paths["not_utf8"], "wb") as fh:
        fh.write(b"\xff\xfe\xfd")
    # a position of 5,001 digits: past CPython's default limit of 4,300
    paths["long_int"] = str(tmp_path / "long_int.json")
    formats.atomic_write(paths["long_int"], json.dumps({
        "agent_id": "a", "frame_label": "odom", "landmarks": [
            {"id": 0, "position": [0, "DIGITS", 0],
             "covariance": [1, 0, 0, 0, 1, 0, 0, 0, 1]}]}).replace(
                 '"DIGITS"', "1" + "0" * 5000))
    paths["dir"], paths["out"] = str(tmp_path), str(tmp_path / "out")
    return paths


def patched(doc, patch):
    """`doc` with the keys of `patch` set, merging into nested objects."""
    return {**doc, **{k: patched(doc[k], v) if isinstance(v, dict) else v
                      for k, v in patch.items()}}


BASE_ARGS = {
    "simulate": ["--scene", "{scene}", "--trajectory", "{trajectory}",
                 "--out", "{out}"],
    "build-map": ["--tracks", "{tracks}", "--out", "{out}"],
    "match": ["--map-a", "{a}", "--map-b", "{b}", "--out", "{out}"],
    "evaluate": ["--map-a", "{a}", "--map-b", "{b}", "--truth", "{truth}",
                 "--out", "{out}"],
}

NAN = float("nan")
C45 = 0.5 ** 0.5
FAR_LANDMARKS = [{"id": i, "position": [1e308 if i == 3 else i % 5, i // 5, 0.1 * i],
                  "covariance": [1, 0, 0, 0, 1, 0, 0, 0, 1]} for i in range(20)]

FAR_COVARIANCE = [{"id": i, "position": [i % 5, i // 5, 0.1 * i],
                   "covariance": [1e308 if i == 3 else 1, 0, 0, 0, 1, 0, 0, 0, 1]}
                  for i in range(20)]
# four cameras 1 m apart along x, 8 m up, and one object all four see: with
# valid fields it triangulates, so a faulty field reaches triangulation
FOUR_POSES = [{"frame": f, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
               "translation": [float(f), 0.0, 8.0]} for f in range(4)]
ONE_TRACK = [{"id": 0, "detections": [{"frame": f, "u": 320.0 - 50.0 * f, "v": 240.0}
                                      for f in range(4)]}]
FAR_POSE = FOUR_POSES[:3] + [{**FOUR_POSES[3], "translation": [1e308, 0.0, 8.0]}]

# case: (argv, {input file: patch of its JSON}, expected name)
MALFORMED = {
    # usage errors exit 1 too, not argparse's 2, which is match's "no hypothesis"
    "removed_threads_flag": (["match", "--threads", "2"], {}, "--threads"),
    "removed_repeats_flag": (["evaluate", "--repeats", "3"], {}, "--repeats"),
    "missing_out_flag": (["submaps", "--map", "{a}"], {}, "--out"),
    "removed_voxel_flag": (["evaluate", "--voxel", "0.5"], {}, "--voxel"),
    # 10^15 + 1 s_max values: the cap is checked before the sweep is built
    "sweep_over_cap": (["evaluate", "--sweep", "0:1000000000000000"], {}, "--sweep"),
    "sweep_not_integers": (["evaluate", "--sweep", "3:x"], {},
                           "sweep must be 'lo:hi', got '3:x'"),
    "sweep_decreasing": (["evaluate", "--sweep", "5:3"], {}, "hi >= lo"),
    "negative_seed_flag": (["simulate", "--seed", "-1"], {}, "--seed must be >= 0"),
    "empty_map": (["match", "--map-b", "{empty}"], {}, "landmarks"),
    "directory_as_map": (["match", "--map-a", "{dir}"], {}, "{dir}"),
    "negative_top_k": (["match", "--top-k", "-1"], {}, "--top-k"),
    "nan_sigma": (["match", "--config", "{nan_cfg}"], {}, "sigma"),
    # (X / sigma)^2 of the consistency score overflowed, with a RuntimeWarning
    "tiny_sigma": (["match", "--config", "{tiny_sigma_cfg}"], {},
                   "sigma must be at least 1e-09 m"),
    "n_max_not_above_s_max": (["match", "--config", "{n_max_4_cfg}"], {},
                              "n_max must be > s_max"),
    "config_key_set_twice": (["match", "--config", "{dup_cfg}"], {},
                             "'n_max' is set twice"),
    "config_int_in_float_notation": (["match", "--config", "{exp_cfg}"], {},
                                     "'n_max' must be an integer"),
    "config_line_not_key_value": (["match", "--config", "{no_equals_cfg}"], {},
                                  "config line 2 is not 'key = value'"),
    # 5 m / 1e-300 = 5e300 cells a side: over the grid cap before it is built
    "grid_over_cap": (["match", "--config", "{overlap_cfg}"], {}, "overlap"),
    "no_submap_pair": (["evaluate", "--map-a", "{tiny}", "--map-b", "{tiny}"],
                       {}, "s_max"),
    # 114 inliers each: 101 x 101 candidates per submap pair, over the cap
    "match_over_candidate_cap": (["match", "--map-a", "{big}", "--map-b", "{big}",
                                  "--config", "{n_max_cfg}"], {}, "n_max"),
    "evaluate_over_candidate_cap": (["evaluate", "--map-a", "{big}", "--map-b",
                                     "{big}", "--config", "{n_max_cfg}"], {},
                                    "n_max"),
    "scene_n_objects_over_cap": (["simulate"], {"scene": {"n_objects": 2 ** 70}},
                                 "n_objects must be <= 100000"),
    "scene_fractional_n_objects": (["simulate"],
                                   {"scene": {"n_objects": 2.5}}, "n_objects"),
    "scene_string_n_objects": (["simulate"], {"scene": {"n_objects": "x"}},
                               "n_objects"),
    "scene_scalar_extent": (["simulate"], {"scene": {"extent": 5}}, "extent"),
    "scene_nan_extent": (["simulate"], {"scene": {"extent": [NAN, 1, 1]}},
                         "extent"),
    "scene_negative_seed": (["simulate"], {"scene": {"seed": -1}}, "seed"),
    "scene_negative_n_objects": (["simulate"], {"scene": {"n_objects": -1}},
                                 "n_objects must be >= 0"),
    "scene_string_velocity": (["simulate"],
                              {"scene": {"dynamic_velocity": "x"}},
                              "dynamic_velocity"),
    "trajectory_fractional_frames": (["simulate"],
                                     {"trajectory": {"frames": 2.5}}, "frames"),
    "trajectory_equal_waypoints": (["simulate"],
                                   {"trajectory": {"waypoints": [[1, 1, 0]] * 2}},
                                   "waypoints"),
    "trajectory_string_altitude": (["simulate"],
                                   {"trajectory": {"altitude": "x"}}, "altitude"),
    "trajectory_altitude_past_the_range": (["simulate"],
                                           {"trajectory": {"altitude": 2e9}},
                                           "altitude must be finite"),
    "trajectory_cy_at_height": (["simulate"],
                                {"trajectory": {"intrinsics": {"cy": 480}}},
                                "cy must lie within [0, height)"),
    "trajectory_fractional_width": (["simulate"],
                                    {"trajectory": {"intrinsics": {"width": 640.5}}},
                                    "width"),
    "trajectory_string_fx": (["simulate"],
                             {"trajectory": {"intrinsics": {"fx": "a"}}}, "fx"),
    "tracks_nan_fx": (["build-map"], {"tracks": {"intrinsics": {"fx": NAN}}},
                      "fx"),
    # the coordinate range (core.MAX_COORDINATE): each of these overflowed,
    # with a RuntimeWarning or a traceback, before its field was named
    "tracks_subnormal_fx": (["build-map"], {"tracks": {
        "intrinsics": {"fx": 1e-320}, "poses": FOUR_POSES, "tracks": ONE_TRACK}}, "fx"),
    "tracks_far_pose_translation": (["build-map"], {"tracks": {
        "poses": FAR_POSE, "tracks": ONE_TRACK}}, "translation"),
    "tracks_far_pose_rotation": (["build-map"], {"tracks": {"poses": [
        {"frame": 0, "rotation": [1e308, 0, 0, 0, 1, 0, 0, 0, 1],
         "translation": [5.0, 5.0, 8.0]}]}}, "rotation"),
    "scene_far_extent": (["simulate"], {"scene": {"extent": [1e308, 1e308, 1.5]}},
                         "extent"),
    "scene_far_dynamic_velocity": (["simulate"], {"scene": {
        "n_dynamic": 3, "dynamic_velocity": 1e308}}, "dynamic_velocity"),
    "trajectory_far_waypoint": (["simulate"], {"trajectory": {
        "waypoints": [[1.0, 1.0, 0.0], [1e308, 9.0, 0.0]]}}, "waypoints"),
    "map_far_covariance": (["match"], {"a": {"landmarks": FAR_COVARIANCE}},
                           "'covariance'"),
    "map_file_is_a_number": (["match", "--map-a", "{five}"], {}, "agent_id"),
    # 20 landmarks, one at x = 1e308: the inlier filter's covariance overflows
    "submaps_far_landmark": (["submaps", "--map", "{a}", "--out", "{out}"],
                             {"a": {"landmarks": FAR_LANDMARKS}}, "'position'"),
    "match_far_landmark": (["match"], {"a": {"landmarks": FAR_LANDMARKS}},
                           "'position'"),
    "map_asymmetric_covariance": (["match"], {"a": {"landmarks": [
        {"id": 3, "position": [0, 0, 0],
         "covariance": [1, 0.5, 0, 0, 1, 0, 0, 0, 1]}]}}, "landmark 3"),
    "tracks_negative_pose_frame": (["build-map"], {"tracks": {"poses": [
        {"frame": -1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
         "translation": [5.0, 5.0, 8.0]}]}}, "frame"),
    # ||R'R - I|| = 6e-9: within a track-file pose's 1e-8, not --truth's 1e-9
    "truth_rotation_6e-9_off_orthonormal": (["evaluate"], {"truth": {"rotation": [
        1 + 3e-9, 0, 0, 0, 1, 0, 0, 0, 1]}}, "rotation"),
    # map b pulled back by the truth lands past int64's voxel indices
    "truth_translation_far": (["evaluate"], {"truth": {"translation": [-1e308, 0, 0]}},
                              "translation"),
    # a 45-degree yaw adds two 1.7e308 components: the inverse's translation
    # overflows the float range
    "truth_inverse_overflows": (["evaluate"], {"truth": {
        "rotation": [C45, -C45, 0, C45, C45, 0, 0, 0, 1],
        "translation": [1.7e308, 1.7e308, 0]}}, "translation"),
    "map_not_utf8": (["match", "--map-a", "{not_utf8}"], {}, "{not_utf8}"),
    "map_5001_digit_integer": (["match", "--map-a", "{long_int}"], {},
                               "map file holds an integer of more than"),
    "config_not_utf8": (["match", "--config", "{not_utf8}"], {}, "{not_utf8}"),
    "omega_percentile_above_100": (["match", "--config", "{omega_cfg}"], {},
                                   "omega_percentile"),
    "negative_noise": (["simulate", "--noise", "-1"], {}, "--noise"),
    "dropout_above_1": (["simulate", "--dropout", "2"], {}, "--dropout"),
    "nan_duplicate_rate": (["simulate", "--duplicate-rate", "nan"], {},
                           "--duplicate-rate"),
}


def past_the_float_range(tag, big):
    """Cases putting `big`, an integer that no float holds, in a number
    field of each input kind."""
    return {
        "tracks_%s_u" % tag: (["build-map"], {"tracks": {
            "poses": FOUR_POSES, "tracks": [{"id": 0, "detections": [
                {**ONE_TRACK[0]["detections"][0], "u": big}]}]}}, "'u'"),
        "tracks_%s_rotation" % tag: (["build-map"], {"tracks": {"poses": [
            {**FOUR_POSES[0], "rotation": [big, 0, 0, 0, 1, 0, 0, 0, 1]}]}},
            "'rotation'"),
        "tracks_%s_fx" % tag: (["build-map"], {"tracks": {"intrinsics": {"fx": big}}},
                               "'fx'"),
        "map_%s_position" % tag: (["match"], {"a": {"landmarks": [
            {**FAR_LANDMARKS[0], "position": [0, big, 0]}]}}, "'position'"),
        "truth_%s_translation" % tag: (["evaluate"], {"truth": {
            "translation": [0, 0, big]}}, "'translation'"),
        "scene_%s_extent" % tag: (["simulate"], {"scene": {"extent": [10, big, 1.5]}},
                                  "'extent'"),
        "trajectory_%s_altitude" % tag: (["simulate"],
                                         {"trajectory": {"altitude": big}}, "'altitude'"),
    }


# 2 * 10^308 lies just past the float range
MALFORMED.update(past_the_float_range("2e308", 2 * 10 ** 308))
MALFORMED.update(past_the_float_range("1e400", 10 ** 400))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_naming_field(case, small_maps, capsys):
    argv, patches, field = MALFORMED[case]
    for name, patch in patches.items():
        with open(small_maps[name]) as fh:
            doc = patched(json.load(fh), patch)
        small_maps[name] = small_maps[name] + ".patched"
        formats.atomic_write(small_maps[name], json.dumps(doc))
    command, extra = argv[0], argv[1:]
    base = BASE_ARGS.get(command, [])
    base = {k: v for k, v in zip(base[::2], base[1::2]) if k not in extra[::2]}
    args = [command] + [x for kv in base.items() for x in kv] + extra
    assert cli.run([a.format(**small_maps) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert field.format(**small_maps) in err


def test_one_parser_serves_every_run(small_maps, monkeypatch, capsys):
    # run builds its parser once: a --top-k of one run does not carry over
    # to the next, a later usage error still exits 1, and each run calls
    # the command bound at that time
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        base = ["match", "--map-a", small_maps["a"], "--map-b", small_maps["b"], "--out"]
        top, full = (os.path.join(small_maps["dir"], f) for f in ("top.json", "full.json"))
        assert cli.run(base + [top, "--top-k", "3"]) == 0
        assert cli.run(base + [full]) == 0
        params = Hyperparameters()
        inliers = [submap.mahalanobis_filter(formats.load_map(small_maps[k]),
                                             params.omega_percentile) for k in "ab"]
        solves = alignment.align_maps(*inliers, params)
        with open(top) as fh, open(full) as gh:
            top_records, records = json.load(fh), json.load(gh)
        assert len(records) == sum(len(a) * len(b) for a, b, _ in solves) > 3
        assert top_records == records[:3]
        capsys.readouterr()
        assert cli.run(["match", "--top-k", "x"]) == 1
        assert "--top-k" in capsys.readouterr().err
        # a command rebound after the parser was built is the one that runs
        called = []
        monkeypatch.setattr(cli, "cmd_match", lambda args: called.append(args.top_k) or 0)
        assert cli.run(base + [full, "--top-k", "2"]) == 0 and called == [2]
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_sweep_cap_is_on_the_count_of_values():
    assert cli._parse_sweep("1:%d" % cli.MAX_SWEEP) == list(range(1, cli.MAX_SWEEP + 1))
    with pytest.raises(InputError, match="--sweep spans 10001 values"):
        cli._parse_sweep("0:%d" % cli.MAX_SWEEP)


def test_build_map_hides_only_the_empty_map_warning(workdir, monkeypatch):
    # build-map hides no warning: a RuntimeWarning from triangulation
    # reaches the caller
    refine = triangulation.refine

    def warning_refine(*args):
        warnings.warn("overflow in refine", RuntimeWarning)
        return refine(*args)

    monkeypatch.setattr(triangulation, "refine", warning_refine)
    with pytest.warns(RuntimeWarning, match="overflow in refine"):
        simulate_and_build(workdir)


def test_evaluate_times_the_filtered_maps_it_scores(small_maps, monkeypatch):
    seen = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = args, fn(*args, **kwargs)
            return seen[name][1]
        return wrapper

    monkeypatch.setattr(evaluation, "evaluate_map_pair",
                        record("outcomes", evaluation.evaluate_map_pair))
    monkeypatch.setattr(evaluation, "timing", record("timing", evaluation.timing))
    assert cli.run(["evaluate", "--map-a", small_maps["a"],
                    "--map-b", small_maps["b"], "--truth", small_maps["truth"],
                    "--out", small_maps["out"]]) == 0
    raw = formats.load_map(small_maps["a"])
    params = Hyperparameters()
    inliers = submap.mahalanobis_filter(raw, params.omega_percentile)
    assert len(inliers) < len(raw)
    (map_a, map_b, *_), (outcomes, mean_s, std_s) = seen["outcomes"]
    (subs_a, subs_b, *_), (first, *seconds) = seen["timing"]
    assert [m.ids for m in (map_a, map_b)] == [inliers.ids] * 2
    expected = [s.landmark_ids for s in submap.generate_submaps(inliers, params)]
    assert ([s.landmark_ids for s in subs_a] == [s.landmark_ids for s in subs_b]
            == expected)
    # the scored cardinalities are those of the timed pass, one outcome
    # per distinct pair, counted once per grid pair it covers
    timed, scored = Counter(), Counter()
    for cells_a, cells_b, hyp, _ in first:
        timed[0 if hyp is None else hyp.cardinality] += len(cells_a) * len(cells_b)
    for o in outcomes:
        scored[o.cardinality] += o.pairs
    assert len(outcomes) == len(first) and scored == timed
    assert seconds == [mean_s, std_s]


def test_evaluate_solves_each_distinct_pair_once(small_maps, monkeypatch):
    solve = alignment.solve_submap_pair
    calls = []

    def counting(sa, sb, *args):
        calls.append((sa.landmark_ids, sb.landmark_ids))
        return solve(sa, sb, *args)

    monkeypatch.setattr(alignment, "solve_submap_pair", counting)
    cfg = os.path.join(small_maps["dir"], "n_max_18.cfg")
    formats.atomic_write(cfg, "n_max = 18\n")     # 4 distinct submaps of 25
    assert cli.run(["evaluate", "--map-a", small_maps["a"],
                    "--map-b", small_maps["b"], "--truth", small_maps["truth"],
                    "--out", small_maps["out"], "--config", cfg]) == 0
    params = Hyperparameters(n_max=18)
    subs = submap.generate_submaps(
        submap.mahalanobis_filter(formats.load_map(small_maps["a"]),
                                  params.omega_percentile), params)
    distinct = {(sa.landmark_ids, sb.landmark_ids) for sa in subs for sb in subs}
    assert 1 < len(distinct) < len(subs) ** 2
    assert Counter(calls) == {pair: 1 for pair in distinct}


# sha256 of the PR rows, the first five columns of `evaluate`'s pr.csv (the
# runtime columns vary from run to run), on small_maps; the sweep runs past
# n_max, so the rows pin how many grid pairs reach each cardinality
PR_ROWS_SHA256 = {
    "defaults": ("", "38ca47baaa23fa09e330fd90f657225c33cc0d7d460eafbbbfc2545e7bf02c1a"),
    "n_max_18": ("n_max = 18\n",      # 4 distinct submaps
                 "ceb1875e8ace635c78b48add59d7894b53ed4173a0fbf7a4cb990fbc822ac45c"),
}


@pytest.mark.parametrize("config, rows_sha256", PR_ROWS_SHA256.values(),
                         ids=PR_ROWS_SHA256.keys())
def test_evaluate_pr_rows_are_pinned(small_maps, config, rows_sha256):
    cfg = os.path.join(small_maps["dir"], "pinned.cfg")
    formats.atomic_write(cfg, config)
    assert cli.run(["evaluate", "--map-a", small_maps["a"],
                    "--map-b", small_maps["b"], "--truth", small_maps["truth"],
                    "--out", small_maps["out"], "--config", cfg,
                    "--sweep", "0:20"]) == 0
    with open(small_maps["out"]) as fh:
        rows = "".join(",".join(line.split(",")[:5]) + "\n" for line in fh)
    assert hashlib.sha256(rows.encode()).hexdigest() == rows_sha256


# Valid inputs of every kind the commands read, each small enough that one
# command on them takes milliseconds: 8 landmarks, 8 objects over 10 frames,
# and one track seen by four cameras. The config sets every key.
FUZZ_POINTS = np.random.default_rng(5).uniform(0.0, 3.0, size=(8, 3))
FUZZ_INPUTS = {
    "map": json.loads(formats.map_to_json(map_from_points(FUZZ_POINTS))),
    "tracks": {**TRACKS, "poses": FOUR_POSES, "tracks": ONE_TRACK},
    "config": dataclasses.asdict(Hyperparameters()),
    "transform": json.loads(formats.transform_to_json(identity())),
    "scene": {**SCENE, "n_objects": 8, "n_dynamic": 2, "dynamic_velocity": 1.0},
    "trajectory": {**TRAJECTORY, "frames": 10, "camera_pitch": 10.0},
}
# the commands that read each kind, the mutated file in {kind}
FUZZ_COMMANDS = {
    "map": [["match", "--map-a", "{map}", "--map-b", "{valid_map}", "--out", "{out}"]],
    "tracks": [["build-map", "--tracks", "{tracks}", "--out", "{out}"]],
    "config": [["build-map", "--tracks", "{valid_tracks}", "--out", "{out}"],
               ["match", "--map-a", "{valid_map}", "--map-b", "{valid_map}",
                "--out", "{out}"],
               ["evaluate", "--map-a", "{valid_map}", "--map-b", "{valid_map}",
                "--truth", "{valid_transform}", "--out", "{out}"]],
    "transform": [["evaluate", "--map-a", "{valid_map}", "--map-b", "{valid_map}",
                   "--truth", "{transform}", "--out", "{out}"]],
    "scene": [["simulate", "--scene", "{scene}", "--trajectory",
               "{valid_trajectory}", "--out", "{out}"]],
    "trajectory": [["simulate", "--scene", "{valid_scene}", "--trajectory",
                    "{trajectory}", "--out", "{out}"]],
}
DROP, NEGATE = "drop", "negate"
# drop the field, give it another JSON type, or set a number out of range
MUTATIONS = [DROP, None, True, "x", [1.0], {}, NAN, 1e-300, 10 ** 400, NEGATE]


def _paths(doc, path=()):
    """The path of every field and list entry inside the JSON value `doc`."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def fuzz_cases(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_INPUTS)))
    path = draw(st.sampled_from(list(_paths(FUZZ_INPUTS[kind]))))
    return (kind, path, draw(st.sampled_from(MUTATIONS)),
            draw(st.integers(0, len(FUZZ_COMMANDS[kind]) - 1)))


def _mutated(doc, path, mutation):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DROP:
        del parent[path[-1]]
    elif mutation == NEGATE:
        old = parent[path[-1]]
        number = type(old) in (int, float)
        parent[path[-1]] = -abs(old) if number and old else -1
    else:
        parent[path[-1]] = mutation
    return doc


def _input_text(kind, doc):
    if kind == "config":      # one 'key = value' line a key, the value as JSON
        return "".join("%s = %s\n" % (k, json.dumps(v)) for k, v in doc.items())
    return json.dumps(doc)


# sigma = 1e-300 overflowed the consistency score's square with a warning
@example(("config", ("sigma",), 1e-300, 1))
@example(("config", ("sigma",), 1e-300, 2))
@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(case=fuzz_cases())
def test_one_mutated_field_exits_0_1_or_2_without_a_warning(case):
    # each input kind with one field dropped, of another JSON type, or set
    # to NaN, 1e-300, 10^400 or a negative number: the command that reads
    # it returns an exit code, with an error message for 1, and never
    # raises or warns
    kind, path, mutation, command = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"out": os.path.join(tmp, "out")}
        for name, doc in FUZZ_INPUTS.items():
            files["valid_" + name] = files[name] = os.path.join(tmp, name)
            formats.atomic_write(files[name], _input_text(name, doc))
        files[kind] = os.path.join(tmp, "mutated")
        formats.atomic_write(files[kind], _input_text(
            kind, _mutated(FUZZ_INPUTS[kind], path, mutation)))
        argv = [a.format(**files) for a in FUZZ_COMMANDS[kind][command]]
        if kind == "config":
            argv += ["--config", files["config"]]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.run(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    assert (code == 1) == err.getvalue().startswith("error:")
