import json
import os
import re
import stat
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista_align import formats
from vista_align.alignment import AlignmentHypothesis
from vista_align.association import Association
from vista_align.core import (CameraIntrinsics, Hyperparameters, InputError,
                              ObjectMap, Poses, RigidTransform, Tracks,
                              rotation_y, rotation_z)
from vista_align.evaluation import PrPoint
from vista_align.simulation import (Scene, SceneSpec, TrajectorySpec,
                                    generate_scene, render_tracks,
                                    trajectory_poses)
from vista_align.submap import Submap

from conftest import (hypotheses_to_json_per_grid_pair, parse_track_file_per_record,
                      random_rotation, rotation_x, track_file_to_json_per_value,
                      track_table)


def small_map():
    rng = np.random.default_rng(5)
    positions, covariances = [], []
    for i in range(7):
        A = rng.normal(size=(3, 3)) * 0.01
        positions.append(rng.normal(size=3))
        covariances.append(A @ A.T)
    return ObjectMap("agent-7", range(7), positions, covariances, "odom")


def test_map_round_trip_is_byte_identical():
    text = formats.map_to_json(small_map())
    again = formats.map_to_json(formats.parse_map(text))
    assert again == text


# A landmark: position, a 3 x k covariance factor (k = 1 and 2 give singular
# covariances) and a power-of-ten scale for the covariance.
LANDMARKS = st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k),
        min_size=3, max_size=3)),
    st.integers(-8, 3))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(landmarks=st.lists(LANDMARKS, max_size=4))
def test_map_round_trip_is_byte_identical_for_any_valid_map(landmarks):
    covariances = []
    for _, factor, exponent in landmarks:
        A = np.array(factor)
        C = 10.0 ** exponent * (A @ A.T)
        covariances.append((C + C.T) / 2)
    text = formats.map_to_json(ObjectMap(
        "agent", range(len(landmarks)),
        np.reshape([position for position, _, _ in landmarks], (-1, 3)),
        np.reshape(covariances, (-1, 3, 3))))
    assert formats.map_to_json(formats.parse_map(text)) == text


def test_map_round_trip_preserves_values():
    m = small_map()
    m2 = formats.parse_map(formats.map_to_json(m))
    assert m2.agent_id == m.agent_id and m2.frame_label == m.frame_label
    assert m2.ids == m.ids
    assert np.allclose(m2.positions, m.positions, atol=1e-8)
    assert np.allclose(m2.covariances, m.covariances, atol=1e-8)


def test_parse_map_rejects_bad_json():
    with pytest.raises(InputError):
        formats.parse_map("{not json")


def test_parse_map_names_missing_field():
    with pytest.raises(InputError, match="agent_id"):
        formats.parse_map('{"frame_label":"odom","landmarks":[]}')
    with pytest.raises(InputError, match="position"):
        formats.parse_map('{"agent_id":"a","frame_label":"odom",'
                          '"landmarks":[{"id":0,"covariance":[0,0,0,0,0,0,0,0,0]}]}')


def test_parse_map_rejects_wrong_lengths():
    with pytest.raises(InputError, match="covariance"):
        formats.parse_map('{"agent_id":"a","frame_label":"odom",'
                          '"landmarks":[{"id":0,"position":[0,0,0],"covariance":[1]}]}')


def test_parse_map_names_the_landmark_with_an_invalid_covariance():
    record = '{"id":%d,"position":[0,0,0],"covariance":%s}'
    ok = record % (4, "[1,0,0,0,1,0,0,0,1]")
    for covariance, error in (("[1,0.5,0,0,1,0,0,0,1]", "symmetric"),
                              ("[-1,0,0,0,1,0,0,0,1]", "semi-definite")):
        text = ('{"agent_id":"a","frame_label":"odom","landmarks":[%s,%s]}'
                % (ok, record % (7, covariance)))
        with pytest.raises(InputError, match=r"landmark 7\b.*" + error):
            formats.parse_map(text)


def test_save_load_map(tmp_path):
    path = str(tmp_path / "map.json")
    m = small_map()
    formats.save_map(m, path)
    assert formats.map_to_json(formats.load_map(path)) == formats.map_to_json(m)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def track_fixture():
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    poses = Poses(range(4), [rotation_z(5.0 * f) for f in range(4)],
                  [[0.1 * f, 0.0, 8.0] for f in range(4)])
    return intr, poses, track_table(TRACKS)


TRACKS = [(0, [0, 2], [[10.5, 20.25], [11.0, 21.0]]), (3, [1], [[300.0, 200.0]])]


def test_track_file_round_trip():
    intr, poses, tracks = track_fixture()
    text = formats.track_file_to_json(intr, poses, tracks)
    intr2, poses2, tracks2 = formats.parse_track_file(text)
    assert formats.track_file_to_json(intr2, poses2, tracks2) == text
    assert intr2 == intr
    assert len(poses2) == 4 and len(tracks2) == 2


def test_track_file_equals_per_value_writer():
    intr, poses, _ = track_fixture()
    tracks = track_table(TRACKS + [
        (5, [0, 1, 3], [[-0.0, 7.0], [1e-12, -0.0], [639.0, 479.999999999]]),
        (6, [], np.zeros((0, 2)))])
    text = formats.track_file_to_json(intr, poses, tracks)
    assert text == track_file_to_json_per_value(intr, poses, tracks)
    assert '{"frame":0,"u":0,"v":7}' in text and '"u":1e-12,"v":0}' in text
    trajectory = TrajectorySpec([(1.0, 1.0, 0.0), (9.0, 9.0, 0.0)], 30,
                                camera_pitch=30.0, altitude=8.0)
    scene = generate_scene(SceneSpec(40, (10.0, 10.0, 1.5), n_dynamic=5,
                                     dynamic_velocity=0.5, seed=4))
    tracks, poses = render_tracks(scene, trajectory, intr, noise=0.5, dropout=0.1,
                                  duplicate_rate=0.3, seed=4)
    assert formats.track_file_to_json(intr, poses, tracks) \
        == track_file_to_json_per_value(intr, poses, tracks)


@pytest.mark.parametrize("batch_rows", [1, 7])
def test_track_file_pose_blocks_equal_the_per_value_writer(monkeypatch, batch_rows):
    # 1 and 7 poses a block write 30 poses in several pieces
    monkeypatch.setattr(formats, "BATCH_ROWS", batch_rows)
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    trajectory = TrajectorySpec([(1.0, 1.0, 0.0), (9.0, 9.0, 0.0)], 30,
                                camera_pitch=30.0, altitude=8.0)
    tracks, poses = render_tracks(generate_scene(SceneSpec(40, (10.0, 10.0, 1.5))),
                                  trajectory, intr, noise=0.5, seed=4)
    assert formats.track_file_to_json(intr, poses, tracks) \
        == track_file_to_json_per_value(intr, poses, tracks)


def test_save_track_file_streams_the_text_and_cleans_up_on_failure(tmp_path,
                                                                   monkeypatch):
    intr, poses, tracks = track_fixture()
    path, text = tmp_path / "tracks.json", formats.track_file_to_json(intr, poses, tracks)
    formats.save_track_file(str(path), intr, poses, tracks)
    assert path.read_text() == text

    def failing_pieces(*args):
        yield "{"
        raise RuntimeError("disk full")

    monkeypatch.setattr(formats, "_track_file_pieces", failing_pieces)
    with pytest.raises(RuntimeError, match="disk full"):
        formats.save_track_file(str(path), intr, poses, track_table([]))
    assert path.read_text() == text
    assert os.listdir(tmp_path) == ["tracks.json"]


def test_save_track_file_peak_memory_does_not_grow_with_detections(tmp_path):
    # 4,000 and 32,000 detections in tracks of 40: the file is streamed a
    # track at a time, so the peak is one track's text, not the file's
    intr, _, _ = track_fixture()
    poses = Poses(range(40), [np.eye(3)] * 40, [[0.0, 0.0, 8.0]] * 40)
    rng = np.random.default_rng(5)
    peaks = []
    for n in (100, 800):
        tracks = Tracks(range(n), np.arange(n + 1) * 40, np.tile(np.arange(40), n),
                        rng.uniform(0.0, 400.0, size=(40 * n, 2)))
        tracemalloc.start()
        try:
            formats.save_track_file(str(tmp_path / "tracks.json"), intr, poses, tracks)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert os.path.getsize(tmp_path / "tracks.json") > 40 * peaks[1]
    assert peaks[1] < 1.2 * peaks[0]


def test_track_file_poses_load_again():
    # %.9g rotations sit up to 3e-9 off orthonormal: every camera pitch
    # simulate can write, and random attitudes, must load and re-encode
    rotations = [trajectory_poses(TrajectorySpec([(0, 0, 0), (1, 0, 0)], 2,
                                                 camera_pitch=p))[0].rotation
                 for p in range(90)]
    rng = np.random.default_rng(12)
    for yaw, pitch, roll in zip(rng.uniform(-180, 180, 2000),
                                rng.uniform(-20, 20, 2000),
                                rng.uniform(-20, 20, 2000)):
        rotations.append(rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll))
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    poses = Poses(range(len(rotations)), rotations, [[0.0, 0.0, 8.0]] * len(rotations))
    text = formats.track_file_to_json(intr, poses, track_table([]))
    _, loaded, _ = formats.parse_track_file(text)
    assert formats.track_file_to_json(intr, loaded, track_table([])) == text


def test_parse_track_file_rejects_out_of_image_detection():
    intr, poses, tracks = track_fixture()
    text = formats.track_file_to_json(intr, poses, tracks)
    data = json.loads(text)
    data["tracks"][0]["detections"][0]["u"] = 700.0
    with pytest.raises(InputError, match="outside image"):
        formats.parse_track_file(json.dumps(data))


def test_parse_track_file_rejects_missing_pose_reference():
    intr, poses, tracks = track_fixture()
    text = formats.track_file_to_json(intr, poses, tracks)
    data = json.loads(text)
    data["tracks"][0]["detections"][0]["frame"] = 99
    with pytest.raises(InputError, match="no pose"):
        formats.parse_track_file(json.dumps(data))


def test_parse_track_file_rejects_duplicate_ids():
    intr, poses, tracks = track_fixture()
    data = json.loads(formats.track_file_to_json(intr, poses, tracks))
    data["tracks"][1]["id"] = data["tracks"][0]["id"]
    with pytest.raises(InputError, match="'id'"):
        formats.parse_track_file(json.dumps(data))
    data = json.loads(formats.track_file_to_json(intr, poses, tracks))
    data["poses"].append(data["poses"][0])
    with pytest.raises(InputError, match="frame"):
        formats.parse_track_file(json.dumps(data))


def test_parse_track_file_rejects_negative_pose_frame():
    intr, poses, tracks = track_fixture()
    data = json.loads(formats.track_file_to_json(intr, poses, track_table([])))
    data["poses"][0]["frame"] = -1
    with pytest.raises(InputError, match="frame.* must be >= 0"):
        formats.parse_track_file(json.dumps(data))


def test_parse_track_file_sorts_poses_and_maps_frames_to_rows():
    intr, poses, tracks = track_fixture()
    text = formats.track_file_to_json(intr, poses, tracks)
    _, poses, tracks = formats.parse_track_file(text)
    data = json.loads(text)
    data["poses"].reverse()
    for rec in data["poses"]:
        rec["frame"] = 10 * rec["frame"] + 3
    for rec in data["tracks"]:
        for det in rec["detections"]:
            det["frame"] = 10 * det["frame"] + 3
    _, loaded, tracks2 = formats.parse_track_file(json.dumps(data))
    assert loaded.frames == (3, 13, 23, 33)
    assert np.array_equal(loaded.rotations, poses.rotations)
    assert np.array_equal(tracks2.pose_rows, tracks.pose_rows)


# One fault injected into one detection of a valid file, by name.
FAULTS = {
    "bad u": lambda det: det.update(u="x"),
    "missing pose": lambda det: det.update(frame=999),
    "decreasing frames": lambda det: det.update(frame=det["frame"] - 2),
    "out-of-image centroid": lambda det: det.update(v=1e6),
}


def faulty_track_file():
    """A simulated track file to put faults in: every track has at least
    four detections."""
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    trajectory = TrajectorySpec([(1.0, 1.0, 0.0), (9.0, 9.0, 0.0)], 30,
                                altitude=8.0)
    scene = generate_scene(SceneSpec(8, (10.0, 10.0, 1.5), seed=4))
    tracks, poses = render_tracks(scene, trajectory, intr, noise=0.5, seed=4)
    data = json.loads(formats.track_file_to_json(intr, poses, tracks))
    assert len(data["tracks"]) >= 4
    assert min(len(t["detections"]) for t in data["tracks"]) >= 4
    return data


def parse_error(parse, text):
    try:
        parse(text)
    except InputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("second", sorted(FAULTS))
@pytest.mark.parametrize("first", sorted(FAULTS))
def test_parse_track_file_reports_the_first_fault(first, second):
    # one fault in a track, another in a later track: the bulk parser names
    # the one the record-by-record parser meets first, in its words
    for a, b in [(0, 2), (1, 3)]:
        data = faulty_track_file()
        FAULTS[first](data["tracks"][a]["detections"][2])
        FAULTS[second](data["tracks"][b]["detections"][1])
        text = json.dumps(data)
        expected = parse_error(parse_track_file_per_record, text)
        assert expected is not None
        assert first == "bad u" or re.search(r"track %d\b" % data["tracks"][a]["id"],
                                             expected)
        assert parse_error(formats.parse_track_file, text) == expected


# integers that no float holds: 2^1024 rounds past the largest float
PAST_FLOATS = st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3),
                                st.sampled_from(["frame", "u", "v", None]),
                                st.none() | st.booleans() | st.integers(-5, 40)
                                | st.floats() | st.text(max_size=2) | PAST_FLOATS),
                      max_size=4),
       pose_edits=st.lists(st.tuples(st.integers(0, 29),
                                     st.sampled_from(["frame", "rotation",
                                                      "translation"]),
                                     st.none() | st.integers(-1, 40) | PAST_FLOATS
                                     | st.lists(st.floats(-1.5, 1.5), min_size=3,
                                                max_size=3)
                                     | st.lists(st.sampled_from([0.0, 1.0, -1.0]),
                                                min_size=9, max_size=9)
                                     | st.lists(PAST_FLOATS, min_size=3, max_size=3)
                                     | st.lists(PAST_FLOATS, min_size=9, max_size=9)),
                           max_size=3))
def test_parse_track_file_first_error_equals_per_record_parser(edits, pose_edits):
    data = faulty_track_file()
    for k, field, value in pose_edits:
        data["poses"][k][field] = value
    for t, d, field, value in edits:
        dets = data["tracks"][t % len(data["tracks"])]["detections"]
        if field is None:
            dets[d] = value
        elif isinstance(dets[d], dict):
            dets[d][field] = value
    text = json.dumps(data)
    error = parse_error(formats.parse_track_file, text)
    assert error == parse_error(parse_track_file_per_record, text)
    # the text is valid JSON: a fault is named by its field or record
    assert "not valid JSON" not in str(error)


def test_parse_config_empty_gives_defaults():
    assert formats.parse_config("") == Hyperparameters()


def test_parse_config_overrides_and_comments():
    p = formats.parse_config("sigma = 0.1\n# comment line\n\nn_max = 30  # inline\n")
    assert p.sigma == 0.1 and p.n_max == 30
    assert p.window == 2.0
    assert isinstance(p.n_max, int)


def test_parse_config_unknown_key_named():
    with pytest.raises(InputError, match="bogus_key"):
        formats.parse_config("bogus_key = 1\n")


def test_parse_config_non_numeric_value():
    with pytest.raises(InputError, match="'sigma' must be a number"):
        formats.parse_config("sigma = fast\n")
    with pytest.raises(InputError, match="'s_max' must be an integer"):
        formats.parse_config("s_max = 4.0\n")


def test_parse_config_invalid_combination_reported():
    with pytest.raises(InputError):
        formats.parse_config("epsilon = 0.01\n")    # epsilon < default sigma


def test_transform_round_trip():
    rng = np.random.default_rng(11)
    transforms = [RigidTransform(rotation_z(33.0), np.array([1.5, -2.0, 0.25]))]
    for _ in range(20):
        shift = rng.uniform(-50.0, 50.0, size=3)
        transforms.append(RigidTransform(rotation_z(rng.uniform(-180, 180)), shift))
        transforms.append(RigidTransform(random_rotation(rng), shift))
    for t in transforms:
        t2 = formats.parse_transform(formats.transform_to_json(t))
        assert np.array_equal(t2.rotation, t.rotation)
        assert np.array_equal(t2.translation, t.translation)


def test_parse_transform_rejects_non_rotation():
    with pytest.raises(InputError):
        formats.parse_transform('{"rotation":[2,0,0,0,1,0,0,0,1],'
                                '"translation":[0,0,0]}')


def read(path):
    with open(path) as fh:
        return fh.read()


def hypothesis(rotation, translation, cardinality, source, target):
    return AlignmentHypothesis(
        RigidTransform(np.array(rotation), np.array(translation)),
        {Association(i, i) for i in range(cardinality)}, cardinality,
        source, target)


# (cells_a, cells_b, hypothesis) solves, as align_maps returns them: a 3-4-5
# yaw times a 3-4-5 pitch, written out, on source cells 0 and 2; a 90-degree
# yaw of equal cardinality on source cell 1; the identity with a -0.0.
SOLVES = [
    ((0, 2), (3,), hypothesis(np.eye(3), [-0.0, 0.0, 3.0], 3, 0, 3)),
    ((0, 2), (7,), hypothesis([[0.48, -0.8, 0.36], [0.64, 0.6, 0.48],
                               [-0.6, 0.0, 0.8]], [1.5, -2.0, 0.25], 5, 0, 7)),
    ((1,), (7,), hypothesis([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                            [0.0, 0.0, -1.25], 5, 1, 7)),
]
X = ('{"rotation":[0.48,-0.8,0.36,0.64,0.6,0.48,-0.6,0.0,0.8],'
     '"translation":[1.5,-2.0,0.25],"cardinality":5,"source_submap":%d,'
     '"target_submap":7,"roll":0.0,"pitch":36.86989764584402,'
     '"yaw":53.13010235415599}')
Y = ('{"rotation":[0.0,-1.0,0.0,1.0,0.0,0.0,0.0,0.0,1.0],'
     '"translation":[0.0,0.0,-1.25],"cardinality":5,"source_submap":1,'
     '"target_submap":7,"roll":0.0,"pitch":-0.0,"yaw":90.0}')
Z = ('{"rotation":[1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0],'
     '"translation":[-0.0,0.0,3.0],"cardinality":3,"source_submap":%d,'
     '"target_submap":3,"roll":0.0,"pitch":-0.0,"yaw":0.0}')


def test_save_hypotheses_writes_exact_bytes(tmp_path):
    # one record per grid pair: solves of equal cardinality interleave by cell
    path = str(tmp_path / "hyps.json")
    assert formats.save_hypotheses(path, SOLVES) == 5
    assert read(path) == "[%s]" % ",".join([X % 0, Y, X % 2, Z % 0, Z % 2])
    transforms = [SOLVES[i][2].transform for i in (1, 2, 1, 0, 0)]
    for record, t in zip(json.loads(read(path)), transforms, strict=True):
        parsed = formats.parse_transform(json.dumps(record))
        assert parsed.rotation.tobytes() == t.rotation.tobytes()
        assert parsed.translation.tobytes() == t.translation.tobytes()
    assert formats.save_hypotheses(path, SOLVES, 2) == 2
    assert read(path) == "[%s]" % ",".join([X % 0, Y])
    assert formats.save_hypotheses(path, []) == 0
    assert read(path) == "[]"


def test_save_hypotheses_equals_the_per_grid_pair_writer(tmp_path):
    # four solves: two of equal cardinality share source cells 2 and 5, so
    # their runs interleave by target cell; every top-k, including those
    # that cut inside a run, writes the reference's first records
    rng = np.random.default_rng(5)
    rotations = [random_rotation(rng) for _ in range(4)]
    solves = [((0, 2, 5), (1, 4, 6), hypothesis(rotations[0], [1.0, -0.0, 2.5], 7, 0, 1)),
              ((2, 3, 5), (0, 5), hypothesis(rotations[1], [0.0, 1e-9, -4.0], 7, 2, 0)),
              ((1,), (2, 3, 7), hypothesis(rotations[2], [3.0, 3.0, 3.0], 9, 1, 2)),
              ((4, 6), (8,), hypothesis(rotations[3], [-1.5, 0.25, 0.0], 5, 4, 8))]
    path = str(tmp_path / "hyps.json")
    total = sum(len(a) * len(b) for a, b, _ in solves)
    for top_k in [None, *range(1, total + 2)]:
        assert formats.save_hypotheses(path, solves, top_k) == min(top_k or total, total)
        assert read(path) == hypotheses_to_json_per_grid_pair(solves, top_k)
    records = json.loads(read(path))
    assert [r["source_submap"] for r in records[6:18]] == [2] * 5 + [3] * 2 + [5] * 5
    assert [r["target_submap"] for r in records[6:11]] == [0, 1, 4, 5, 6]


def test_save_pr_table_writes_exact_bytes(tmp_path):
    path = str(tmp_path / "pr.csv")
    rows = [PrPoint(3, 1.0, 0.5, 4, 2), PrPoint(4, 2 / 3, 0.0, 0, 2)]
    formats.save_pr_table(path, rows, 0.0123456789, 1e-7)
    assert read(path) == (
        "s_max,precision,recall,hypothesized,overlapping_pairs,"
        "mean_runtime_s,std_runtime_s\n"
        "3,1.000000,0.500000,4,2,0.012346,0.000000\n"
        "4,0.666667,0.000000,0,2,0.012346,0.000000\n")


def test_save_ground_truth_writes_exact_bytes(tmp_path):
    path = str(tmp_path / "ground_truth.json")
    scene = Scene(np.array([[1.0, 2.5, 2 / 3], [-0.0, 1e-20, 1.25]]),
                  np.array([[0.0, 0.0, 0.0], [0.6, -0.8, 0.0]]),
                  np.array([False, True]))
    formats.save_ground_truth(path, scene)
    assert read(path) == (
        '{"objects":[{"id":0,"position":[1.0,2.5,0.6666666666666666],'
        '"velocity":[0.0,0.0,0.0],"dynamic":false},{"id":1,"position":[-0.0,1e-20,1.25],'
        '"velocity":[0.6,-0.8,0.0],"dynamic":true}]}')


def test_submap_to_json():
    s = Submap([1.0, 2.0], [3, 5], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    data = json.loads(formats.submap_to_json(s))
    assert data["center"] == [1.0, 2.0]
    assert data["landmark_ids"] == [3, 5]
    assert len(data["points"]) == 2


def test_save_submaps_writes_exact_bytes(tmp_path):
    out = tmp_path / "submaps"
    sm = Submap([0.5, -0.0], [3, 11], [[0.1, 0.2, 1 / 3], [1.0, -0.0, 2e-9]])
    formats.save_submaps(str(out), "a", [sm])
    assert sorted(os.listdir(out)) == ["index.json", "submap_0000.json"]
    assert read(out / "submap_0000.json") == (
        '{"center":[0.5,-0.0],"landmark_ids":[3,11],'
        '"points":[[0.1,0.2,0.3333333333333333],[1.0,-0.0,2e-09]]}')
    assert read(out / "index.json") == (
        '{"agent_id":"a","n_submaps":1,"submaps":["submap_0000.json"]}')


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    path = str(tmp_path / "out.txt")
    formats.atomic_write(path, "one")
    formats.atomic_write(path, "two")
    with open(path) as fh:
        assert fh.read() == "two"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        formats.atomic_write(str(tmp_path / "atomic.txt"), "x")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("atomic.txt", "plain.txt")]
    assert modes == [0o666 & ~umask] * 2


def config_text(doc):
    """A config file setting each field of `doc` to its value's JSON text."""
    items = doc.items() if isinstance(doc, dict) else [("sigma", doc)]
    return "".join("%s = %s\n" % (k, json.dumps(v)) for k, v in items)


def from_json(parse):
    return lambda doc: parse(json.dumps(doc))


# Each parser, fed a document, with the field names its format uses.
PARSERS = {
    "map": (from_json(formats.parse_map),
            ["agent_id", "frame_label", "landmarks", "id", "position",
             "covariance"]),
    "track_file": (from_json(formats.parse_track_file),
                   ["intrinsics", "fx", "fy", "cx", "cy", "width", "height",
                    "poses", "frame", "rotation", "translation", "tracks", "id",
                    "detections", "u", "v"]),
    "transform": (from_json(formats.parse_transform), ["rotation", "translation"]),
    "scene_spec": (from_json(formats.parse_scene_spec),
                   ["n_objects", "extent", "n_dynamic", "dynamic_velocity",
                    "seed"]),
    "trajectory_spec": (from_json(formats.parse_trajectory_spec),
                        ["waypoints", "frames", "camera_pitch", "altitude",
                         "intrinsics", "fx", "fy", "cx", "cy", "width",
                         "height"]),
    "config": (lambda doc: formats.parse_config(config_text(doc)),
               list(Hyperparameters.__dataclass_fields__)),
}


def json_documents(fields):
    """Arbitrary JSON values whose objects use `fields` and one unknown key."""
    keys = st.sampled_from(fields + ["other"])
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=3) | PAST_FLOATS)
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=9)
                       | st.dictionaries(keys, inner, max_size=len(fields))),
        max_leaves=16)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parsers_accept_or_raise_input_error(name):
    parse, fields = PARSERS[name]

    @settings(max_examples=75, derandomize=True, database=None, deadline=None)
    @given(doc=json_documents(fields))
    def check(doc):
        try:
            parse(doc)
        except InputError:
            pass

    check()


def test_parsers_reject_deep_nesting():
    for parse in (formats.parse_map, formats.parse_track_file,
                  formats.parse_transform, formats.parse_scene_spec,
                  formats.parse_trajectory_spec):
        with pytest.raises(InputError, match="not valid JSON"):
            parse("[" * 100000)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter reads integers of any length")
def test_parsers_name_the_file_of_an_integer_past_the_digit_limit():
    # CPython reads no integer of more than sys.get_int_max_str_digits()
    # digits: the error names the file, not the interpreter's remedy
    digits = "1" + "0" * sys.get_int_max_str_digits()
    for parse, what in ((formats.parse_map, "map file"),
                        (formats.parse_track_file, "track file"),
                        (formats.parse_transform, "transform file"),
                        (formats.parse_scene_spec, "scene spec"),
                        (formats.parse_trajectory_spec, "trajectory spec")):
        with pytest.raises(InputError, match=what + " holds an integer of more than"
                           ) as error:
            parse('{"position": [0, %s, 0]}' % digits)
        assert "set_int_max_str_digits" not in str(error.value)
