"""File formats: every file the CLI reads or writes is parsed or encoded here.

Map serialization is canonical (fixed key order, %.9g floats, compact
separators) so that parse -> serialize round trips are byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import numpy as np

from .core import (CameraIntrinsics, Hyperparameters, InputError, ObjectMap,
                   RigidTransform, Track, check_rotation, transform_angles)
from .simulation import SceneSpec, TrajectorySpec


def _f(x):
    return format(float(x) + 0.0, ".9g")  # +0.0 normalizes -0.0


def _floats(values):
    return "[" + ",".join(_f(v) for v in values) + "]"


def map_to_json(obj_map):
    """Canonical JSON serialization of an ObjectMap (bytes-stable)."""
    parts = []
    for lid, position, covariance in zip(obj_map.ids, obj_map.positions,
                                         obj_map.covariances):
        parts.append('{"id":%d,"position":%s,"covariance":%s}'
                     % (lid, _floats(position), _floats(covariance.ravel())))
    return ('{"agent_id":%s,"frame_label":%s,"landmarks":[%s]}'
            % (json.dumps(obj_map.agent_id), json.dumps(obj_map.frame_label),
               ",".join(parts)))


_NUMBER = (int, float)
_compact = json.JSONEncoder(separators=(",", ":")).encode   # full-precision floats


def _int(digits):
    value = int(digits)
    float(value)  # OverflowError: every number must fit a float
    return value


def _json(text, what):
    """Decode one input document; `what` names the file in the error."""
    try:
        return json.loads(text, parse_int=_int)
    except (ValueError, OverflowError, RecursionError) as exc:
        raise InputError("%s is not valid JSON: %s" % (what, exc)) from exc


def _read(path):
    """The text of an input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from exc


def _require(record, field, kind=None, context="", default=None, length=None):
    """record[field] as a `kind` (a JSON boolean never is one), or as a float
    array of `length` numbers; if absent, `default` or an error."""
    if not isinstance(record, dict):
        raise InputError("expected an object with field '%s'%s" % (field, context))
    if field not in record:
        if default is None:
            raise InputError("missing field '%s'%s" % (field, context))
        return default
    value = record[field]
    if length is not None:
        return _numbers(value, field, length, context)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError("field '%s' has wrong type%s" % (field, context))
    return value


def _numbers(value, field, length, context=""):
    if not (isinstance(value, list) and len(value) == length
            and all(type(v) in _NUMBER for v in value)):
        raise InputError("field '%s' must be a list of %d numbers%s"
                         % (field, length, context))
    return np.array(value, dtype=float)


@contextlib.contextmanager
def _invalid(what):
    """Re-raise a constructor's ValueError as an InputError about `what`."""
    try:
        yield
    except ValueError as exc:
        raise InputError("invalid %s: %s" % (what, exc)) from exc


def _intrinsics(data):
    idata = _require(data, "intrinsics", dict)
    with _invalid("intrinsics"):
        return CameraIntrinsics(
            fx=_require(idata, "fx", _NUMBER, " in intrinsics"),
            fy=_require(idata, "fy", _NUMBER, " in intrinsics"),
            cx=_require(idata, "cx", _NUMBER, " in intrinsics"),
            cy=_require(idata, "cy", _NUMBER, " in intrinsics"),
            width=_require(idata, "width", int, " in intrinsics"),
            height=_require(idata, "height", int, " in intrinsics"))


def parse_map(text):
    data = _json(text, "map file")
    agent_id = _require(data, "agent_id", str)
    frame_label = _require(data, "frame_label", str)
    ids, positions, covariances = [], [], []
    for rec in _require(data, "landmarks", list):
        ids.append(_require(rec, "id", int, " in landmark record"))
        positions.append(_require(rec, "position", context=" in landmark record",
                                  length=3))
        covariances.append(_require(rec, "covariance",
                                    context=" in landmark record", length=9))
    with _invalid("map"):
        return ObjectMap(agent_id, ids, np.reshape(positions, (-1, 3)),
                         np.reshape(covariances, (-1, 3, 3)), frame_label)


def save_map(obj_map, path):
    atomic_write(path, map_to_json(obj_map))


def load_map(path):
    return parse_map(_read(path))


def track_file_to_json(intrinsics, poses, tracks):
    intr = ('{"fx":%s,"fy":%s,"cx":%s,"cy":%s,"width":%d,"height":%d}'
            % (_f(intrinsics.fx), _f(intrinsics.fy), _f(intrinsics.cx),
               _f(intrinsics.cy), intrinsics.width, intrinsics.height))
    pose_parts = []
    for frame, pose in sorted(poses.items()):
        pose_parts.append('{"frame":%d,"rotation":%s,"translation":%s}'
                          % (frame, _floats(pose.rotation.ravel()),
                             _floats(pose.translation)))
    track_parts = []
    for tr in tracks:
        dets = ",".join('{"frame":%d,"u":%s,"v":%s}' % (f, _f(u), _f(v))
                        for f, (u, v) in zip(tr.frames, tr.centroids.tolist()))
        track_parts.append('{"id":%d,"detections":[%s]}' % (tr.track_id, dets))
    return ('{"intrinsics":%s,"poses":[%s],"tracks":[%s]}'
            % (intr, ",".join(pose_parts), ",".join(track_parts)))


def parse_track_file(text):
    """Parse a track file into (intrinsics, {frame: RigidTransform}, [Track])."""
    data = _json(text, "track file")
    intrinsics = _intrinsics(data)
    poses = {}
    for rec in _require(data, "poses", list):
        frame = _require(rec, "frame", int, " in pose record")
        rot = _require(rec, "rotation", context=" in pose record", length=9)
        tra = _require(rec, "translation", context=" in pose record", length=3)
        if frame < 0:
            raise InputError("field 'frame' must be >= 0 in pose record, got %d"
                             % frame)
        if frame in poses:
            raise InputError("duplicate pose for field 'frame' = %d" % frame)
        with _invalid("pose at frame %d" % frame):
            poses[frame] = RigidTransform(rot.reshape(3, 3), tra)
    tracks = []
    for rec in _require(data, "tracks", list):
        tid = _require(rec, "id", int, " in track record")
        frames, uv = [], []
        for drec in _require(rec, "detections", list, " in track record"):
            frame = _require(drec, "frame", int, " in detection record")
            u = _require(drec, "u", _NUMBER, " in detection record")
            v = _require(drec, "v", _NUMBER, " in detection record")
            if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
                raise InputError("detection centroid (%g, %g) outside image in "
                                 "track %d" % (u, v, tid))
            if frame not in poses:
                raise InputError("track %d references frame %d with no pose"
                                 % (tid, frame))
            frames.append(frame)
            uv += u, v
        with _invalid("track %d" % tid):
            tracks.append(Track(tid, frames, np.reshape(uv, (-1, 2))))
    if len({t.track_id for t in tracks}) != len(tracks):
        raise InputError("duplicate values in field 'id' of tracks")
    return intrinsics, poses, tracks


def save_track_file(path, intrinsics, poses, tracks):
    atomic_write(path, track_file_to_json(intrinsics, poses, tracks))


def load_track_file(path):
    return parse_track_file(_read(path))


def parse_config(text):
    """Parse a flat `key = value` config; unknown or repeated keys are rejected."""
    values = {}
    known = set(Hyperparameters.__dataclass_fields__)
    int_keys = Hyperparameters.int_fields()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError("config line %d is not 'key = value': %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise InputError("unknown config key '%s'" % key)
        if key in values:
            raise InputError("config key '%s' is set twice" % key)
        try:
            values[key] = int(val) if key in int_keys else float(val)
        except ValueError as exc:
            raise InputError("config key '%s' must be %s" % (
                key, "an integer" if key in int_keys else "a number")) from exc
    with _invalid("config"):
        return Hyperparameters(**values)


def load_config(path):
    return parse_config(_read(path))


def transform_to_json(transform):
    """Full precision: 9 digits would fail the loader's 1e-9 orthonormality
    check on most rotations."""
    return _compact({"rotation": transform.rotation.ravel().tolist(),
                     "translation": transform.translation.tolist()})


def save_hypotheses(path, hypotheses):
    """A record begins with transform_to_json's fields; parse_transform reads it.

    Grid pairs that share a solve share its transform object, so each
    distinct transform is encoded once, keyed by id() while the list holds it."""
    encoded, records = {}, []
    for h in hypotheses:
        t = h.transform
        if id(t) not in encoded:
            angles = dict(zip(("roll", "pitch", "yaw"), transform_angles(t)))
            encoded[id(t)] = transform_to_json(t)[:-1], _compact(angles)[1:]
        head, tail = encoded[id(t)]
        records.append('%s,"cardinality":%d,"source_submap":%d,"target_submap":%d,%s'
                       % (head, h.cardinality, h.source_submap, h.target_submap, tail))
    atomic_write(path, "[" + ",".join(records) + "]")


def parse_transform(text):
    """A transform file. Its rotation is held to 1e-9, not RigidTransform's
    1e-8, because transform files are written at full precision."""
    data = _json(text, "transform file")
    with _invalid("transform"):
        transform = RigidTransform(_require(data, "rotation", length=9).reshape(3, 3),
                                   _require(data, "translation", length=3))
        check_rotation(transform.rotation, 1e-9)
    return transform


def load_transform(path):
    return parse_transform(_read(path))


def save_ground_truth(path, scene):
    atomic_write(path, _compact({"objects": [
        {"id": i, "position": p, "velocity": v, "dynamic": d}
        for i, (p, v, d) in enumerate(zip(scene.positions.tolist(),
                                          scene.velocities.tolist(),
                                          scene.dynamic.tolist()))]}))


def parse_scene_spec(text):
    """Parse a scene spec; fields it omits take SceneSpec's defaults."""
    data = _json(text, "scene spec")
    with _invalid("scene spec"):
        return SceneSpec(
            n_objects=_require(data, "n_objects", int),
            extent=_require(data, "extent", length=3),
            n_dynamic=_require(data, "n_dynamic", int, default=SceneSpec.n_dynamic),
            dynamic_velocity=_require(data, "dynamic_velocity", _NUMBER,
                                      default=SceneSpec.dynamic_velocity),
            seed=_require(data, "seed", int, default=SceneSpec.seed))


def load_scene_spec(path):
    return parse_scene_spec(_read(path))


def parse_trajectory_spec(text):
    """Parse a trajectory spec into (TrajectorySpec, CameraIntrinsics)."""
    data = _json(text, "trajectory spec")
    waypoints = [_numbers(w, "waypoints[%d]" % i, 3)
                 for i, w in enumerate(_require(data, "waypoints", list))]
    with _invalid("trajectory spec"):
        spec = TrajectorySpec(
            waypoints=waypoints,
            frames=_require(data, "frames", int),
            camera_pitch=_require(data, "camera_pitch", _NUMBER,
                                  default=TrajectorySpec.camera_pitch),
            altitude=_require(data, "altitude", _NUMBER,
                              default=TrajectorySpec.altitude))
    return spec, _intrinsics(data)


def load_trajectory_spec(path):
    return parse_trajectory_spec(_read(path))


def submap_to_json(sm):
    return _compact({"center": sm.center.tolist(),
                     "landmark_ids": list(sm.landmark_ids),
                     "points": sm.points.tolist()})


def save_submaps(directory, agent_id, submaps):
    os.makedirs(directory, exist_ok=True)
    names = ["submap_%04d.json" % i for i in range(len(submaps))]
    for name, sm in zip(names, submaps):
        atomic_write(os.path.join(directory, name), submap_to_json(sm))
    atomic_write(os.path.join(directory, "index.json"), _compact(
        {"agent_id": agent_id, "n_submaps": len(names), "submaps": names}))


def save_pr_table(path, rows, mean_runtime_s, std_runtime_s):
    lines = ["s_max,precision,recall,hypothesized,overlapping_pairs,"
             "mean_runtime_s,std_runtime_s"]
    lines += ["%d,%.6f,%.6f,%d,%d,%.6f,%.6f"
              % (r.s_max, r.precision, r.recall, r.n_hypothesized,
                 r.n_overlapping, mean_runtime_s, std_runtime_s) for r in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def atomic_write(path, text):
    """Write text to path via a temp file + rename in the same directory.

    The file gets the mode open() would give it, 0666 less the umask, not
    the temp file's private 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)           # setting the umask is the only way to read it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
