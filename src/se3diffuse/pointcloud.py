"""Point-cloud container and the geometry the diffusion pipeline needs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lie import Pose, apply

__all__ = ["PointCloud", "transform", "voxel_downsample", "radius_count", "pair_offsets",
           "bounding_box"]

_PAIR_CHUNK = 1 << 18  # cap on query-by-cloud pairs formed at once


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Positions (N, 3) with optional colors (N, 3) in [0, 1]."""

    positions: np.ndarray
    colors: np.ndarray | None = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3).copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        if self.colors is not None:
            col = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3).copy()
            if col.shape[0] != pos.shape[0]:
                raise ValueError("colors must match the number of points")
            col.setflags(write=False)
            object.__setattr__(self, "colors", col)

    def __len__(self) -> int:
        return self.positions.shape[0]


def transform(pc: PointCloud, g: Pose) -> PointCloud:
    """Rigidly move every point; colors are untouched."""
    if len(pc) == 0:
        return PointCloud(pc.positions.copy(), None if pc.colors is None else pc.colors.copy())
    return PointCloud(apply(g, pc.positions), pc.colors)


def voxel_downsample(pc: PointCloud, voxel: float) -> PointCloud:
    """One centroid per occupied voxel; voxel index is floor(p / voxel).

    Output is ordered by ascending voxel index tuple, which keeps seeded
    downstream consumers reproducible.
    """
    if voxel <= 0.0:
        raise ValueError("voxel edge length must be positive")
    if len(pc) == 0:
        return pc
    idx = np.floor(pc.positions / voxel).astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    sidx = idx[order]
    boundaries = np.nonzero(np.any(np.diff(sidx, axis=0) != 0, axis=1))[0] + 1
    groups = np.split(order, boundaries)
    positions = np.array([pc.positions[g].mean(axis=0) for g in groups])
    colors = None
    if pc.colors is not None:
        colors = np.array([pc.colors[g].mean(axis=0) for g in groups])
    return PointCloud(positions, colors)


def radius_count(x: np.ndarray, pc: PointCloud, r: float) -> int:
    """Number of cloud points with ||p - x|| <= r (inclusive boundary).

    Brute force over the cloud.  ``diffusion.contact_origin_weights``
    makes the same comparison for every grasp point through
    ``pair_offsets``; this single-point count is its reference.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if len(pc) == 0:
        return 0
    d = pc.positions - np.asarray(x, dtype=np.float64).reshape(3)
    return int(np.count_nonzero(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2 <= r * r))


def pair_offsets(xs: np.ndarray, cloud: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, cloud[None] - xs[rows, None])`` for chunks of query rows.

    Each chunk holds at most ``_PAIR_CHUNK`` query-by-cloud pairs, and at least one row.
    """
    rows = max(1, _PAIR_CHUNK // max(len(cloud), 1))
    for i in range(0, len(xs), rows):
        yield slice(i, i + rows), cloud[None, :, :] - xs[i:i + rows, None, :]


def bounding_box(pc: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    if len(pc) == 0:
        raise ValueError("empty point cloud has no bounding box")
    return pc.positions.min(axis=0), pc.positions.max(axis=0)
