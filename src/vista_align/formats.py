"""File formats: object maps, track files, configs, and transforms.

Map serialization is canonical (fixed key order, %.9g floats, compact
separators) so that parse -> serialize round trips are byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .core import (CameraIntrinsics, Detection, Hyperparameters, InputError,
                   Landmark, ObjectMap, Pose, RigidTransform, Track)


def _f(x):
    return format(float(x) + 0.0, ".9g")  # +0.0 normalizes -0.0


def _floats(values):
    return "[" + ",".join(_f(v) for v in values) + "]"


def map_to_json(obj_map):
    """Canonical JSON serialization of an ObjectMap (bytes-stable)."""
    parts = []
    for lm in obj_map.landmarks:
        parts.append('{"id":%d,"position":%s,"covariance":%s}'
                     % (lm.landmark_id, _floats(lm.position),
                        _floats(lm.covariance.ravel())))
    return ('{"agent_id":%s,"frame_label":%s,"landmarks":[%s]}'
            % (json.dumps(obj_map.agent_id), json.dumps(obj_map.frame_label),
               ",".join(parts)))


def _require(record, field, kind=None, context=""):
    if field not in record:
        raise InputError("missing field '%s'%s" % (field, context))
    value = record[field]
    if kind is not None and not isinstance(value, kind):
        raise InputError("field '%s' has wrong type%s" % (field, context))
    return value


def parse_map(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("map file is not valid JSON: %s" % exc) from exc
    agent_id = _require(data, "agent_id", str)
    frame_label = _require(data, "frame_label", str)
    landmarks = []
    for rec in _require(data, "landmarks", list):
        lid = _require(rec, "id", int, " in landmark record")
        pos = _require(rec, "position", list, " in landmark record")
        cov = _require(rec, "covariance", list, " in landmark record")
        if len(pos) != 3:
            raise InputError("field 'position' must have 3 entries")
        if len(cov) != 9:
            raise InputError("field 'covariance' must have 9 entries (row-major)")
        try:
            landmarks.append(Landmark(lid, np.array(pos, dtype=float),
                                      np.array(cov, dtype=float).reshape(3, 3)))
        except ValueError as exc:
            raise InputError("invalid landmark %d: %s" % (lid, exc)) from exc
    try:
        return ObjectMap(agent_id, landmarks, frame_label)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def save_map(obj_map, path):
    atomic_write(path, map_to_json(obj_map))


def load_map(path):
    with open(path) as fh:
        return parse_map(fh.read())


def track_file_to_json(intrinsics, poses, tracks):
    intr = ('{"fx":%s,"fy":%s,"cx":%s,"cy":%s,"width":%d,"height":%d}'
            % (_f(intrinsics.fx), _f(intrinsics.fy), _f(intrinsics.cx),
               _f(intrinsics.cy), intrinsics.width, intrinsics.height))
    pose_parts = []
    for pose in sorted(poses.values(), key=lambda p: p.frame_index):
        pose_parts.append('{"frame":%d,"rotation":%s,"translation":%s}'
                          % (pose.frame_index, _floats(pose.rotation.ravel()),
                             _floats(pose.translation)))
    track_parts = []
    for tr in tracks:
        dets = ",".join('{"frame":%d,"u":%s,"v":%s}'
                        % (d.frame_index, _f(d.centroid[0]), _f(d.centroid[1]))
                        for d in tr.detections)
        track_parts.append('{"id":%d,"detections":[%s]}' % (tr.track_id, dets))
    return ('{"intrinsics":%s,"poses":[%s],"tracks":[%s]}'
            % (intr, ",".join(pose_parts), ",".join(track_parts)))


def parse_track_file(text):
    """Parse a track file into (intrinsics, {frame: Pose}, [Track])."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("track file is not valid JSON: %s" % exc) from exc
    idata = _require(data, "intrinsics", dict)
    try:
        intrinsics = CameraIntrinsics(
            fx=_require(idata, "fx", (int, float), " in intrinsics"),
            fy=_require(idata, "fy", (int, float), " in intrinsics"),
            cx=_require(idata, "cx", (int, float), " in intrinsics"),
            cy=_require(idata, "cy", (int, float), " in intrinsics"),
            width=_require(idata, "width", int, " in intrinsics"),
            height=_require(idata, "height", int, " in intrinsics"))
    except ValueError as exc:
        raise InputError("invalid intrinsics: %s" % exc) from exc
    poses = {}
    for rec in _require(data, "poses", list):
        frame = _require(rec, "frame", int, " in pose record")
        rot = _require(rec, "rotation", list, " in pose record")
        tra = _require(rec, "translation", list, " in pose record")
        if len(rot) != 9:
            raise InputError("field 'rotation' must have 9 entries (row-major)")
        if len(tra) != 3:
            raise InputError("field 'translation' must have 3 entries")
        if frame in poses:
            raise InputError("duplicate pose for field 'frame' = %d" % frame)
        try:
            poses[frame] = Pose(np.array(rot, dtype=float).reshape(3, 3),
                                np.array(tra, dtype=float), frame)
        except ValueError as exc:
            raise InputError("invalid pose at frame %d: %s" % (frame, exc)) from exc
    tracks = []
    for rec in _require(data, "tracks", list):
        tid = _require(rec, "id", int, " in track record")
        dets = []
        for drec in _require(rec, "detections", list, " in track record"):
            frame = _require(drec, "frame", int, " in detection record")
            u = _require(drec, "u", (int, float), " in detection record")
            v = _require(drec, "v", (int, float), " in detection record")
            if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
                raise InputError("detection centroid (%g, %g) outside image in "
                                 "track %d" % (u, v, tid))
            if frame not in poses:
                raise InputError("track %d references frame %d with no pose"
                                 % (tid, frame))
            dets.append(Detection(frame, np.array([u, v], dtype=float)))
        try:
            tracks.append(Track(tid, dets))
        except ValueError as exc:
            raise InputError("invalid track %d: %s" % (tid, exc)) from exc
    if len({t.track_id for t in tracks}) != len(tracks):
        raise InputError("duplicate values in field 'id' of tracks")
    return intrinsics, poses, tracks


def save_track_file(path, intrinsics, poses, tracks):
    atomic_write(path, track_file_to_json(intrinsics, poses, tracks))


def load_track_file(path):
    with open(path) as fh:
        return parse_track_file(fh.read())


_INT_KEYS = {"n_min", "n_max", "s_max"}


def parse_config(text, base=None):
    """Parse a flat `key = value` config; unknown keys are rejected."""
    values = {}
    known = set(Hyperparameters.__dataclass_fields__)
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
        try:
            values[key] = int(val) if key in _INT_KEYS else float(val)
        except ValueError as exc:
            raise InputError("config key '%s' has a non-numeric value" % key) from exc
    base_values = {k: getattr(base, k) for k in known} if base is not None else {}
    base_values.update(values)
    try:
        return Hyperparameters(**base_values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_config(path, base=None):
    with open(path) as fh:
        return parse_config(fh.read(), base=base)


def transform_to_json(transform):
    """Full precision: 9 digits would fail the loader's 1e-9 orthonormality
    check on most rotations."""
    return json.dumps({"rotation": transform.rotation.ravel().tolist(),
                       "translation": transform.translation.tolist()},
                      separators=(",", ":"))


def parse_transform(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("transform file is not valid JSON: %s" % exc) from exc
    rot = _require(data, "rotation", list)
    tra = _require(data, "translation", list)
    if len(rot) != 9:
        raise InputError("field 'rotation' must have 9 entries (row-major)")
    if len(tra) != 3:
        raise InputError("field 'translation' must have 3 entries")
    try:
        return RigidTransform(np.array(rot, dtype=float).reshape(3, 3),
                              np.array(tra, dtype=float))
    except ValueError as exc:
        raise InputError("invalid transform: %s" % exc) from exc


def load_transform(path):
    with open(path) as fh:
        return parse_transform(fh.read())


def atomic_write(path, text):
    """Write text to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
