import json
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from vista_align import (alignment, cli, evaluation, formats, submap,
                         triangulation)
from vista_align.core import (Hyperparameters, ObjectMap, RigidTransform,
                              rotation_z)

from conftest import identity, map_from_points


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
    inliers = submap.inlier_map(formats.load_map(map_path), Hyperparameters())
    expected = alignment.align_maps(inliers, inliers, Hyperparameters())
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


def test_match_top_k(workdir):
    map_path = simulate_and_build(workdir)
    out = str(workdir / "hyps.json")
    assert cli.run(["match", "--map-a", map_path, "--map-b", map_path,
                    "--out", out, "--top-k", "3"]) == 0
    with open(out) as fh:
        assert len(json.load(fh)) <= 3


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
    with a NaN sigma, an out-of-range omega_percentile, n_max = 101,
    n_max = 4, n_max set twice and n_max = 1e2, a file that is not UTF-8, and
    valid scene, trajectory and track files."""
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
    paths["not_utf8"] = str(tmp_path / "not_utf8.json")
    with open(paths["not_utf8"], "wb") as fh:
        fh.write(b"\xff\xfe\xfd")
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

# case: (argv, {input file: patch of its JSON}, expected name)
MALFORMED = {
    # usage errors exit 1 too, not argparse's 2, which is match's "no hypothesis"
    "removed_threads_flag": (["match", "--threads", "2"], {}, "--threads"),
    "removed_repeats_flag": (["evaluate", "--repeats", "3"], {}, "--repeats"),
    "missing_out_flag": (["submaps", "--map", "{a}"], {}, "--out"),
    "negative_voxel": (["evaluate", "--voxel", "-1"], {}, "--voxel"),
    "voxel_inf": (["evaluate", "--voxel", "inf"], {}, "--voxel"),
    "empty_map": (["match", "--map-b", "{empty}"], {}, "landmarks"),
    "directory_as_map": (["match", "--map-a", "{dir}"], {}, "{dir}"),
    "negative_top_k": (["match", "--top-k", "-1"], {}, "--top-k"),
    "nan_sigma": (["match", "--config", "{nan_cfg}"], {}, "sigma"),
    "n_max_not_above_s_max": (["match", "--config", "{n_max_4_cfg}"], {},
                              "n_max must be > s_max"),
    "config_key_set_twice": (["match", "--config", "{dup_cfg}"], {},
                             "'n_max' is set twice"),
    "config_int_in_float_notation": (["match", "--config", "{exp_cfg}"], {},
                                     "'n_max' must be an integer"),
    "no_submap_pair": (["evaluate", "--map-a", "{tiny}", "--map-b", "{tiny}"],
                       {}, "s_max"),
    # 114 inliers each: 101 x 101 candidates per submap pair, over the cap
    "match_over_candidate_cap": (["match", "--map-a", "{big}", "--map-b", "{big}",
                                  "--config", "{n_max_cfg}"], {}, "n_max"),
    "evaluate_over_candidate_cap": (["evaluate", "--map-a", "{big}", "--map-b",
                                     "{big}", "--config", "{n_max_cfg}"], {},
                                    "n_max"),
    "scene_fractional_n_objects": (["simulate"],
                                   {"scene": {"n_objects": 2.5}}, "n_objects"),
    "scene_string_n_objects": (["simulate"], {"scene": {"n_objects": "x"}},
                               "n_objects"),
    "scene_scalar_extent": (["simulate"], {"scene": {"extent": 5}}, "extent"),
    "scene_nan_extent": (["simulate"], {"scene": {"extent": [NAN, 1, 1]}},
                         "extent"),
    "scene_negative_seed": (["simulate"], {"scene": {"seed": -1}}, "seed"),
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
    "trajectory_fractional_width": (["simulate"],
                                    {"trajectory": {"intrinsics": {"width": 640.5}}},
                                    "width"),
    "trajectory_string_fx": (["simulate"],
                             {"trajectory": {"intrinsics": {"fx": "a"}}}, "fx"),
    "tracks_nan_fx": (["build-map"], {"tracks": {"intrinsics": {"fx": NAN}}},
                      "fx"),
    "map_file_is_a_number": (["match", "--map-a", "{five}"], {}, "agent_id"),
    "map_asymmetric_covariance": (["match"], {"a": {"landmarks": [
        {"id": 3, "position": [0, 0, 0],
         "covariance": [1, 0.5, 0, 0, 1, 0, 0, 0, 1]}]}}, "landmark 3"),
    "tracks_negative_pose_frame": (["build-map"], {"tracks": {"poses": [
        {"frame": -1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
         "translation": [5.0, 5.0, 8.0]}]}}, "frame"),
    # ||R'R - I|| = 6e-9: within a track-file pose's 1e-8, not --truth's 1e-9
    "truth_rotation_6e-9_off_orthonormal": (["evaluate"], {"truth": {"rotation": [
        1 + 3e-9, 0, 0, 0, 1, 0, 0, 0, 1]}}, "rotation"),
    "map_not_utf8": (["match", "--map-a", "{not_utf8}"], {}, "{not_utf8}"),
    "config_not_utf8": (["match", "--config", "{not_utf8}"], {}, "{not_utf8}"),
    "omega_percentile_above_100": (["match", "--config", "{omega_cfg}"], {},
                                   "omega_percentile"),
    "negative_noise": (["simulate", "--noise", "-1"], {}, "--noise"),
    "dropout_above_1": (["simulate", "--dropout", "2"], {}, "--dropout"),
    "nan_duplicate_rate": (["simulate", "--duplicate-rate", "nan"], {},
                           "--duplicate-rate"),
}


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
    # the scored cardinalities are those of the timed first pass
    timed = Counter()
    for grid_a, grid_b, res, _ in first:
        timed[0 if res is None else len(res[1])] += len(grid_a) * len(grid_b)
    assert Counter(o.cardinality for o in outcomes) == timed
    assert seconds == [mean_s, std_s]


def test_evaluate_solves_each_distinct_pair_repeats_times(small_maps,
                                                          monkeypatch):
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
        submap.inlier_map(formats.load_map(small_maps["a"]), params), params)
    distinct = {(sa.landmark_ids, sb.landmark_ids) for sa in subs for sb in subs}
    assert 1 < len(distinct) < len(subs) ** 2
    assert Counter(calls) == {pair: 3 for pair in distinct}
