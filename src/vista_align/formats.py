"""File formats: every file the CLI reads or writes is parsed or encoded here.

Map serialization is canonical (fixed key order, %.9g floats, compact
separators) so that parse -> serialize round trips are byte-identical.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .core import (BATCH_ROWS, MAX_COORDINATE, CameraIntrinsics, Hyperparameters,
                   InputError, ObjectMap, Poses, RigidTransform, Tracks, check_pose,
                   check_rotation, transform_angles)
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


def _json(text, what):
    """Decode one input document; `what` names the file in the error."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError("%s is not valid JSON: %s" % (what, exc)) from exc
    except ValueError as exc:       # CPython's limit on an integer's digits
        raise InputError("%s holds an integer of more than %d digits, more than Python "
                         "will read" % (what, sys.get_int_max_str_digits())) from exc


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
    if kind is _NUMBER:
        _numbers([value], field, 1, context)    # it must fit a float
    return value


def _numbers(value, field, length, context=""):
    """`value`, a list of `length` numbers, as a float array."""
    if not (isinstance(value, list) and len(value) == length
            and all(type(v) in _NUMBER for v in value)):
        raise InputError("field '%s' must be a list of %d numbers%s"
                         % (field, length, context))
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:    # an integer that no float holds
        raise InputError("field '%s' holds an integer past the float range%s"
                         % (field, context)) from exc


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
    positions = np.reshape(positions, (-1, 3))
    covariances = np.reshape(covariances, (-1, 9))
    for field, values, limit in (("position", positions, MAX_COORDINATE),
                                 ("covariance", covariances, MAX_COORDINATE ** 2)):
        far = (np.abs(values) > limit).any(axis=1)
        if far.any():
            raise InputError("field '%s' of landmark %d must lie within +-%g"
                             % (field, ids[np.argmax(far)], limit))
    with _invalid("map"):
        return ObjectMap(agent_id, ids, positions, covariances.reshape(-1, 3, 3),
                         frame_label)


def save_map(obj_map, path):
    atomic_write(path, map_to_json(obj_map))


def load_map(path):
    return parse_map(_read(path))


_POSE = ('{"frame":%d,"rotation":[' + ",".join(["%.9g"] * 9) + '],"translation":['
         + ",".join(["%.9g"] * 3) + ']}')
_DETECTION = '{"frame":%d,"u":%.9g,"v":%.9g}'


def _track_file_pieces(intrinsics, poses, tracks):
    """A track file's text in pieces: its head, then one piece for each
    block of at most BATCH_ROWS poses and one for each track."""
    yield ('{"intrinsics":{"fx":%s,"fy":%s,"cx":%s,"cy":%s,"width":%d,"height":%d},'
           '"poses":[' % (_f(intrinsics.fx), _f(intrinsics.fy), _f(intrinsics.cx),
                          _f(intrinsics.cy), intrinsics.width, intrinsics.height))
    for lo in range(0, len(poses), BATCH_ROWS):
        # + 0.0 writes -0.0 as 0, as _f does
        table = np.column_stack([poses.frames[lo:lo + BATCH_ROWS],
                                 poses.rotations[lo:lo + BATCH_ROWS].reshape(-1, 9) + 0.0,
                                 poses.translations[lo:lo + BATCH_ROWS] + 0.0])
        yield ("," if lo else "") + (",".join([_POSE] * len(table))
                                     % tuple(table.ravel().tolist()))
    yield '],"tracks":['
    frames = np.asarray(poses.frames)
    for k, (tid, a, b) in enumerate(zip(tracks.ids, tracks.starts[:-1],
                                        tracks.starts[1:])):
        # + 0.0 writes -0.0 as 0, as _f does
        fields = np.column_stack([frames[tracks.pose_rows[a:b]],
                                  tracks.centroids[a:b] + 0.0])
        yield ('%s{"id":%d,"detections":[%s]}'
               % ("," if k else "", tid, ",".join([_DETECTION] * len(fields))
                  % tuple(fields.ravel().tolist())))
    yield "]}"


def track_file_to_json(intrinsics, poses, tracks):
    return "".join(_track_file_pieces(intrinsics, poses, tracks))


def _track_file_in_bulk(data, intrinsics):
    """(Poses, Tracks) of a track file, its fields checked in bulk; None if
    any check fails. It accepts exactly the files `_first_fault` passes."""
    try:
        poses, tracks = data["poses"], data["tracks"]
        frames, rot, tra = ([p[k] for p in poses] for k in ("frame", "rotation",
                                                             "translation"))
        ids, dets = [t["id"] for t in tracks], [t["detections"] for t in tracks]
        if not (type(poses) is type(tracks) is list and {*map(type, dets)} <= {list}
                and all(type(r) is list and len(r) == 9 for r in rot)
                and all(type(r) is list and len(r) == 3 for r in tra)):
            return None
        at, us, vs = ([d[k] for ds in dets for d in ds] for k in ("frame", "u", "v"))
        if not ({*map(type, frames), *map(type, ids), *map(type, at)} <= {int}
                and min(frames, default=0) >= 0
                and {type(v) for r in itertools.chain(rot, tra) for v in r}
                | {*map(type, us), *map(type, vs)} <= {int, float}):
            return None
        uv = np.array([us, vs], dtype=float).T.reshape(-1, 2)
        if not (len(set(ids)) == len(ids) and min(us, default=0) >= 0
                and min(vs, default=0) >= 0 and max(us, default=0) < intrinsics.width
                and max(vs, default=0) < intrinsics.height):
            return None
        # Poses rejects repeated frames and Tracks a NaN centroid
        poses = Poses(frames, np.reshape(rot, (-1, 3, 3)), np.reshape(tra, (-1, 3)))
        row = dict(zip(poses.frames, range(len(poses))))
        return poses, Tracks(ids, np.cumsum([0, *map(len, dets)]), [row[f] for f in at], uv)
    # a missing field or pose, a bad row, an integer past the float range
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _first_fault(data, intrinsics):
    """Raise the InputError of a track file's first faulty record, reading
    the records one by one and each field in turn."""
    poses = set()
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
            check_pose(rot.reshape(3, 3), tra)
        poses.add(frame)
    ids = []
    for rec in _require(data, "tracks", list):
        ids.append(_require(rec, "id", int, " in track record"))
        frames = []
        for drec in _require(rec, "detections", list, " in track record"):
            frames.append(_require(drec, "frame", int, " in detection record"))
            u = _require(drec, "u", _NUMBER, " in detection record")
            v = _require(drec, "v", _NUMBER, " in detection record")
            if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
                raise InputError("detection centroid (%g, %g) outside image in "
                                 "track %d" % (u, v, ids[-1]))
            if frames[-1] not in poses:
                raise InputError("track %d references frame %d with no pose"
                                 % (ids[-1], frames[-1]))
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise InputError("invalid track %d: frames must be strictly increasing"
                             % ids[-1])
    if len(set(ids)) != len(ids):
        raise InputError("duplicate values in field 'id' of tracks")


def parse_track_file(text):
    """Parse a track file into (intrinsics, Poses, Tracks). The file is
    checked in bulk; one that fails is read again record by record, to report
    the fault of its first faulty record."""
    data = _json(text, "track file")
    del text            # free the text before the tables are built
    intrinsics = _intrinsics(data)
    tables = _track_file_in_bulk(data, intrinsics)
    if tables is None:
        _first_fault(data, intrinsics)
    return (intrinsics, *tables)


def save_track_file(path, intrinsics, poses, tracks):
    """Stream the track file into place one pose and one track at a time,
    so the whole text is never held."""
    with _atomic_file(path) as fh:
        fh.writelines(_track_file_pieces(intrinsics, poses, tracks))


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


def save_hypotheses(path, solves, limit=None):
    """Write `alignment.align_maps`' (cells_a, cells_b, hypothesis) solves,
    one record per grid pair in cells_a x cells_b, by cardinality descending,
    then source, then target cell; returns how many, at most `limit`, it wrote.

    A record begins with transform_to_json's fields; parse_transform reads
    it. Each solve's transform and angles are encoded once. One lexsort
    orders every record, and the file is streamed a run at a time: the
    consecutive records of one solve and one source cell, which differ only
    in their target cell, written as one join of the targets between the
    run's fixed head and tail."""
    heads, tails = [], []
    for cells_a, cells_b, h in solves:
        angles = dict(zip(("roll", "pitch", "yaw"), transform_angles(h.transform)))
        heads.append('%s,"cardinality":%d,"source_submap":'
                     % (transform_to_json(h.transform)[:-1], h.cardinality))
        tails.append("," + _compact(angles)[1:])
    # record r of solve s is the grid pair (cells_a[r // nb], cells_b[r % nb])
    na, nb = (np.array([len(c[k]) for c in solves], dtype=np.intp) for k in (0, 1))
    cells_a, cells_b = (np.fromiter(itertools.chain.from_iterable(c[k] for c in solves),
                                    np.int64) for k in (0, 1))
    solve = np.repeat(np.arange(len(solves)), na * nb)
    r = np.arange(len(solve)) - np.repeat(np.cumsum(na * nb) - na * nb, na * nb)
    ia = cells_a[(np.cumsum(na) - na)[solve] + r // nb[solve]]
    ib = cells_b[(np.cumsum(nb) - nb)[solve] + r % nb[solve]]
    cardinality = np.array([h.cardinality for *_, h in solves], dtype=np.int64)
    order = np.lexsort((solve, ib, ia, -cardinality[solve]))[:limit]
    ia, ib, solve = ia[order], ib[order], solve[order]
    cuts = (np.flatnonzero((np.diff(ia) != 0) | (np.diff(solve) != 0)) + 1).tolist()
    ia, ib, solve = ia.tolist(), ib.tolist(), solve.tolist()
    with _atomic_file(path) as fh:
        fh.write("[")
        for lo, hi in zip([0, *cuts], [*cuts, len(ia)]) if ia else ():
            head = '%s%d,"target_submap":' % (heads[solve[lo]], ia[lo])
            tail = tails[solve[lo]]
            fh.write("%s%s%s%s" % ("," if lo else "", head,
                                   (tail + "," + head).join(map(str, ib[lo:hi])), tail))
        fh.write("]")
    return len(ia)


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


@contextlib.contextmanager
def _atomic_file(path):
    """A text file to write path's contents into: a temp file in the same
    directory, renamed over path once the block completes and removed if it
    raises. The file gets the mode open() would give it, 0666 less the
    umask, not the temp file's private 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)           # setting the umask is the only way to read it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path, text):
    """Write text to path via a temp file + rename in the same directory."""
    with _atomic_file(path) as fh:
        fh.write(text)
