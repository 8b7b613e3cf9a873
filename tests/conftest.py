import os
import sys

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vista_align.core import CameraIntrinsics, ObjectMap, RigidTransform


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                            width=640, height=480)


def random_rotation(rng):
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
    return Q


def map_from_points(points, cov_scale=1e-4, agent_id="a"):
    """A map of `points` with ids 0..m-1, each with covariance cov_scale * I."""
    points = np.reshape(points, (-1, 3))
    return ObjectMap(agent_id, range(len(points)), points,
                     np.broadcast_to(cov_scale * np.eye(3), (len(points), 3, 3)))


def looking_at_origin_pose(position):
    """Pose whose camera optical axis points from `position` at the origin."""
    position = np.asarray(position, dtype=float)
    z = -position / np.linalg.norm(position)
    up = np.array([0.0, 0.0, 1.0])
    if abs(z @ up) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    return RigidTransform(R, position)


def clique_number(affinity):
    """Clique number of the graph A > 0, by networkx's maximal cliques."""
    G = nx.Graph()
    G.add_nodes_from(range(affinity.size))
    G.add_edges_from(zip(*np.nonzero(np.triu(affinity.entries > 0.0, k=1))))
    return max((len(c) for c in nx.find_cliques(G)), default=0)
