"""Sparse object-map building, geometric submap matching, and frame-alignment
evaluation for monocular multi-agent localization."""

from .core import (BehindCameraError, CameraIntrinsics, DegenerateGeometryError,
                   DivergedError, Hyperparameters, InputError, Landmark,
                   ObjectMap, Pose, RigidTransform, SizeLimitError, Track,
                   project, transform_angles, unproject)
from .triangulation import build_map, filter_tracks, initial_guess, refine
from .submap import Submap, generate_submaps, mahalanobis_filter
from .association import (AffinityMatrix, Association, build_affinity,
                          consistency_score, densest_clique,
                          densest_clique_exact)
from .alignment import AlignmentHypothesis, align_maps, arun, prune
from .evaluation import (PairOutcome, classify, evaluate_map_pair,
                         precision_recall, submap_iou, timing)
from .simulation import (SceneSpec, TrajectorySpec, generate_scene,
                         perturb_frame, render_tracks)

__version__ = "0.1.0"
