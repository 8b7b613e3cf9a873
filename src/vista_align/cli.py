"""Command line interface: simulate, build-map, submaps, match, evaluate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import alignment, evaluation, formats, simulation, submap, triangulation
from .core import Hyperparameters, InputError


def _log_json(enabled, stage, **fields):
    if enabled:
        print(json.dumps({"stage": stage, **fields}, sort_keys=True))


def _load_params(path):
    if path is None:
        return Hyperparameters()
    return formats.load_config(path)


def cmd_simulate(args):
    if not 0 <= args.noise < math.inf:
        raise InputError("--noise must be finite and >= 0, got %g" % args.noise)
    for flag, rate in (("--dropout", args.dropout),
                       ("--duplicate-rate", args.duplicate_rate)):
        if not 0 <= rate <= 1:
            raise InputError("%s must lie in [0, 1], got %g" % (flag, rate))
    scene_spec = formats.load_scene_spec(args.scene)
    if args.seed is not None:
        if args.seed < 0:
            raise InputError("--seed must be >= 0, got %d" % args.seed)
        scene_spec = dataclasses.replace(scene_spec, seed=args.seed)
    trajectory, intrinsics = formats.load_trajectory_spec(args.trajectory)
    t0 = time.perf_counter()
    scene = simulation.generate_scene(scene_spec)
    tracks, poses = simulation.render_tracks(
        scene, trajectory, intrinsics, noise=args.noise, dropout=args.dropout,
        duplicate_rate=args.duplicate_rate, seed=scene_spec.seed + 1)
    os.makedirs(args.out, exist_ok=True)
    formats.save_track_file(os.path.join(args.out, "tracks.json"),
                            intrinsics, poses, tracks)
    formats.save_ground_truth(os.path.join(args.out, "ground_truth.json"), scene)
    _log_json(args.log_json, "simulate", n_objects=len(scene),
              n_tracks=len(tracks), n_frames=trajectory.frames,
              seconds=time.perf_counter() - t0)
    return 0


def cmd_build_map(args):
    params = _load_params(args.config)
    intrinsics, poses, tracks = formats.load_track_file(args.tracks)
    t0 = time.perf_counter()
    obj_map, stats = triangulation.build_map(tracks, poses, intrinsics, params,
                                             args.agent_id)
    formats.save_map(obj_map, args.out)
    print("landmarks=%d discarded_diverged=%d discarded_short=%d"
          % (stats.n_landmarks, stats.n_discarded_diverged,
             stats.n_discarded_short))
    _log_json(args.log_json, "build-map", landmarks=stats.n_landmarks,
              discarded_diverged=stats.n_discarded_diverged,
              discarded_short=stats.n_discarded_short,
              seconds=time.perf_counter() - t0)
    return 0


def cmd_submaps(args):
    params = _load_params(args.config)
    obj_map = formats.load_map(args.map)
    t0 = time.perf_counter()
    filtered = submap.inlier_map(obj_map, params)
    submaps = submap.generate_submaps(filtered, params)
    formats.save_submaps(args.out, obj_map.agent_id, submaps)
    _log_json(args.log_json, "submaps", n_submaps=len(submaps),
              n_inliers=len(filtered), n_landmarks=len(obj_map),
              seconds=time.perf_counter() - t0)
    return 0


def _load_map_pair(args):
    maps = []
    for flag, path in (("--map-a", args.map_a), ("--map-b", args.map_b)):
        obj_map = formats.load_map(path)
        if len(obj_map) == 0:
            raise InputError("%s: field 'landmarks' is empty" % flag)
        maps.append(obj_map)
    return maps


def cmd_match(args):
    params = _load_params(args.config)
    if args.top_k is not None and args.top_k < 1:
        raise InputError("--top-k must be >= 1, got %d" % args.top_k)
    map_a, map_b = _load_map_pair(args)
    t0 = time.perf_counter()
    hypotheses = alignment.align_maps(submap.inlier_map(map_a, params),
                                      submap.inlier_map(map_b, params), params)
    if args.top_k is not None:
        hypotheses = hypotheses[:args.top_k]
    formats.save_hypotheses(args.out, hypotheses)
    _log_json(args.log_json, "match", n_hypotheses=len(hypotheses),
              seconds=time.perf_counter() - t0)
    return 0 if hypotheses else 2


def _parse_sweep(text):
    try:
        lo, _, hi = text.partition(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError("sweep must be 'lo:hi', got %r" % text) from exc
    if hi < lo:
        raise InputError("sweep must be 'lo:hi' with hi >= lo")
    return list(range(lo, hi + 1))


def cmd_evaluate(args):
    params = _load_params(args.config)
    if args.voxel is not None and not 0 < args.voxel < math.inf:
        raise InputError("--voxel must be finite and positive, got %g" % args.voxel)
    map_a, map_b = _load_map_pair(args)
    truth = formats.load_transform(args.truth)
    sweep = _parse_sweep(args.sweep)
    t0 = time.perf_counter()
    outcomes, mean_rt, std_rt = evaluation.evaluate_map_pair(
        submap.inlier_map(map_a, params), submap.inlier_map(map_b, params),
        truth, params, voxel=args.voxel)
    if not outcomes:
        raise InputError("no submap pairs: field 'landmarks' of each map must "
                         "hold more than s_max = %d inliers" % params.s_max)
    rows = evaluation.precision_recall(outcomes, params, sweep)
    formats.save_pr_table(args.out, rows, mean_rt, std_rt)
    _log_json(args.log_json, "evaluate", n_pairs=len(outcomes),
              sweep=[sweep[0], sweep[-1]], seconds=time.perf_counter() - t0)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors (unknown flag, bad value, missing flag) raise InputError,
    so they exit 1 like any other malformed input; exit 2 stays `match`'s
    "no hypothesis kept"."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-json", action="store_true",
                        help="emit one JSON object per pipeline stage")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", help="flat key=value hyperparameter file")

    parser = _Parser(
        prog="vista-align",
        description="Sparse object-map building, submap matching, and "
                    "frame-alignment evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate synthetic tracks + poses + ground truth")
    p.add_argument("--scene", required=True, help="scene spec JSON")
    p.add_argument("--trajectory", required=True,
                   help="trajectory spec JSON (includes intrinsics)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the scene spec's seed")
    p.add_argument("--noise", type=float, default=0.0, help="pixel noise sigma, px")
    p.add_argument("--dropout", type=float, default=0.0,
                   help="per-detection dropout probability")
    p.add_argument("--duplicate-rate", type=float, default=0.0,
                   help="per-object track-split probability")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build-map", parents=[configured],
                       help="triangulate a track file into an object map")
    p.add_argument("--tracks", required=True, help="track file JSON")
    p.add_argument("--out", required=True, help="output map JSON")
    p.add_argument("--agent-id", default="agent", help="agent id for the map")
    p.set_defaults(func=cmd_build_map)

    p = sub.add_parser("submaps", parents=[configured],
                       help="filter inliers and write the submap grid")
    p.add_argument("--map", required=True, help="object map JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_submaps)

    p = sub.add_parser("match", parents=[configured],
                       help="all-to-all submap matching between two maps")
    p.add_argument("--map-a", required=True, help="source object map JSON")
    p.add_argument("--map-b", required=True, help="target object map JSON")
    p.add_argument("--out", required=True, help="output hypothesis list JSON")
    p.add_argument("--top-k", type=int, help="truncate to the top-k hypotheses")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", parents=[configured],
                       help="precision/recall sweep against a known alignment")
    p.add_argument("--map-a", required=True, help="source object map JSON")
    p.add_argument("--map-b", required=True, help="target object map JSON")
    p.add_argument("--truth", required=True,
                   help="ground-truth transform JSON (map-a frame -> map-b frame)")
    p.add_argument("--sweep", default="3:15", help="s_max sweep as lo:hi")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--voxel", type=float, help="IoU voxel size, m (default w/4)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
