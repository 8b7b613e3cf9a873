import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista_align import formats
from vista_align.alignment import AlignmentHypothesis
from vista_align.association import Association
from vista_align.core import (CameraIntrinsics, Hyperparameters, InputError,
                              ObjectMap, RigidTransform, Track, rotation_y,
                              rotation_z)
from vista_align.evaluation import PrPoint
from vista_align.simulation import Scene, TrajectorySpec, trajectory_poses
from vista_align.submap import Submap

from conftest import random_rotation, rotation_x


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
    poses = {f: RigidTransform(rotation_z(5.0 * f), np.array([0.1 * f, 0.0, 8.0]))
             for f in range(4)}
    tracks = [Track(0, [0, 2], [[10.5, 20.25], [11.0, 21.0]]),
              Track(3, [1], [[300.0, 200.0]])]
    return intr, poses, tracks


def test_track_file_round_trip():
    intr, poses, tracks = track_fixture()
    text = formats.track_file_to_json(intr, poses, tracks)
    intr2, poses2, tracks2 = formats.parse_track_file(text)
    assert formats.track_file_to_json(intr2, poses2, tracks2) == text
    assert intr2 == intr
    assert len(poses2) == 4 and len(tracks2) == 2


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
    poses = {f: RigidTransform(R, [0.0, 0.0, 8.0]) for f, R in enumerate(rotations)}
    text = formats.track_file_to_json(intr, poses, [])
    _, loaded, _ = formats.parse_track_file(text)
    assert formats.track_file_to_json(intr, loaded, []) == text


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
    data = json.loads(formats.track_file_to_json(intr, poses, []))
    data["poses"][0]["frame"] = -1
    with pytest.raises(InputError, match="frame.* must be >= 0"):
        formats.parse_track_file(json.dumps(data))


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


# A 3-4-5 yaw times a 3-4-5 pitch, written out; the identity with a -0.0;
# and the first transform object again, as grid pairs sharing a solve give.
HYPOTHESES = [
    hypothesis([[0.48, -0.8, 0.36], [0.64, 0.6, 0.48], [-0.6, 0.0, 0.8]],
               [1.5, -2.0, 0.25], 5, 2, 7),
    hypothesis(np.eye(3), [-0.0, 0.0, 3.0], 3, 0, 0),
]
HYPOTHESES.append(dataclasses.replace(HYPOTHESES[0], source_submap=4,
                                      target_submap=1))


def test_save_hypotheses_writes_exact_bytes(tmp_path):
    path = str(tmp_path / "hyps.json")
    formats.save_hypotheses(path, HYPOTHESES)
    assert read(path) == (
        '[{"rotation":[0.48,-0.8,0.36,0.64,0.6,0.48,-0.6,0.0,0.8],'
        '"translation":[1.5,-2.0,0.25],"cardinality":5,"source_submap":2,'
        '"target_submap":7,"roll":0.0,"pitch":36.86989764584402,'
        '"yaw":53.13010235415599},'
        '{"rotation":[1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0],'
        '"translation":[-0.0,0.0,3.0],"cardinality":3,"source_submap":0,'
        '"target_submap":0,"roll":0.0,"pitch":-0.0,"yaw":0.0},'
        '{"rotation":[0.48,-0.8,0.36,0.64,0.6,0.48,-0.6,0.0,0.8],'
        '"translation":[1.5,-2.0,0.25],"cardinality":5,"source_submap":4,'
        '"target_submap":1,"roll":0.0,"pitch":36.86989764584402,'
        '"yaw":53.13010235415599}]')
    for record, h in zip(json.loads(read(path)), HYPOTHESES, strict=True):
        t = formats.parse_transform(json.dumps(record))
        assert t.rotation.tobytes() == h.transform.rotation.tobytes()
        assert t.translation.tobytes() == h.transform.translation.tobytes()


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
               | st.text(max_size=3))
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
