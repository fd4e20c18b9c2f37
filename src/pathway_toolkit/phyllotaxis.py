"""Golden-angle point patterns on an Archimedes spiral.

Points are released at equal increments of the spiral parameter (the standard
discretization of the constant-speed construction), rotated by a fixed
divergence angle.  Under the golden divergence the visible left/right spiral
families count consecutive Fibonacci numbers; the detector below recovers the
counts from nearest-neighbor index differences, no contact geometry needed.
Every neighbor query (parastichy, spacing, coverage) goes through one k-d
tree per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError

_MIN_POINTS = 50
_FIRST_K = 16  # candidates per point on the first k-d tree query


def golden_angle() -> float:
    """The divergence theta with theta / (2 pi - theta) equal to the golden
    ratio (sqrt(5) - 1) / 2; about 137.5 degrees."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    return 2.0 * math.pi * g / (1.0 + g)


@dataclass(frozen=True)
class SpiralConfig:
    """Archimedes constant k (radius per radian), point count, divergence
    angle in radians, and the marker radius used when drawing."""

    k: float = 1.0
    n_points: int = 300
    divergence: float | None = None
    marker_radius: float = 1.0

    def __post_init__(self):
        if self.divergence is None:
            object.__setattr__(self, "divergence", golden_angle())
        if not 0 < self.k < math.inf:
            raise DomainError(f"spiral constant k must be finite and > 0, got {self.k}")
        if self.n_points < 0:
            raise DomainError(f"n_points must be >= 0, got {self.n_points}")
        if not (0.0 < self.divergence < 2.0 * math.pi):
            raise DomainError(
                f"divergence must lie in (0, 2 pi), got {self.divergence}"
            )
        if not 0 < self.marker_radius < math.inf:
            raise DomainError(
                f"marker_radius must be finite and > 0, got {self.marker_radius}"
            )
        try:  # the view box side; an int n_points past the double range raises
            side = 2 * (self.k * self.n_points * self.divergence + self.marker_radius)
        except OverflowError:
            side = math.inf
        if side == math.inf:
            raise DomainError("the largest radius k * n_points * divergence is past the "
                              f"double range: k = {self.k}, n_points = {self.n_points}")


def generate_points(config: SpiralConfig) -> list[tuple[float, float]]:
    """Polar points (r_i, phi_i) with phi_i = i * divergence and r_i = k phi_i
    for i = 1..n; radii grow by exactly k * divergence per point."""
    return [
        (config.k * i * config.divergence, i * config.divergence)
        for i in range(1, config.n_points + 1)
    ]


def _cartesian(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    return np.column_stack(
        (arr[:, 0] * np.cos(arr[:, 1]), arr[:, 0] * np.sin(arr[:, 1]))
    )


def parastichy_pair(points, window) -> tuple[int, int]:
    """Dominant index differences to the nearest inward neighbor on each
    angular side, over the given index window.

    For golden-angle patterns the two counts are consecutive Fibonacci
    numbers, and which pair shows up depends on how far out the window sits.
    ``window`` is any (start, stop) index pair or range into ``points``.
    """
    if len(points) < _MIN_POINTS:
        raise DomainError(
            f"parastichy detection needs at least {_MIN_POINTS} points, "
            f"got {len(points)}"
        )
    if isinstance(window, range):
        lo, hi = window.start, window.stop
    else:
        lo, hi = window
    if not (0 <= lo < hi <= len(points)):
        raise DomainError(
            f"window ({lo}, {hi}) out of range for {len(points)} points"
        )
    xy = _cartesian(points)
    phi = np.asarray(points, dtype=float)[:, 1]
    tree = cKDTree(xy[:hi])
    rows = np.arange(max(lo, 1), hi)
    # nearest inward neighbor per row and side (right: psi >= 0, left: psi <= 0);
    # hi marks a side with no inward point at all
    nearest = np.full((2, len(rows)), hi)
    pending, k = rows, min(_FIRST_K, hi)
    while pending.size:
        idx = tree.query(xy[pending], k=k)[1]
        d = xy[idx] - xy[pending, None]
        dist2 = np.einsum("mkj,mkj->mk", d, d)
        psi = np.mod(phi[idx] - phi[pending, None] + math.pi, 2.0 * math.pi) - math.pi
        # an unqueried point lies at least as far as the k-th candidate; the
        # margin absorbs rounding between the tree's distances and dist2
        horizon = dist2[:, -1:] * (1.0 - 1e-12)
        settled = np.full(len(pending), True)
        for s, side in enumerate((psi >= 0, psi <= 0)):
            cand = side & (idx < pending[:, None])
            d2 = np.where(cand, dist2, math.inf)
            best = d2.min(axis=1, keepdims=True)
            # the lowest index among equally near candidates, as argmin takes
            nearest[s, pending - rows[0]] = np.where(cand & (d2 == best), idx, hi).min(1)
            settled &= (best < horizon).ravel() | (k == hi)
        pending, k = pending[~settled], min(2 * k, hi)
    # difference counts; argmax picks the most frequent, the smallest on ties
    right_diffs, left_diffs = (np.bincount(rows[j < hi] - j[j < hi]) for j in nearest)
    if not left_diffs.any() or not right_diffs.any():
        raise DomainError("window too small to classify neighbors on both sides")
    return int(np.argmax(left_diffs)), int(np.argmax(right_diffs))


def nearest_neighbor_distances(points) -> np.ndarray:
    """Distance from each point to its nearest other point."""
    xy = _cartesian(points)
    if len(xy) < 2:
        raise DomainError("need at least two points")
    return cKDTree(xy).query(xy, k=2)[0][:, 1]


def coverage_packing_ratio(points) -> float:
    """Largest hole over smallest spacing: the max distance from a probe grid
    on the pattern's annulus to its nearest point, divided by the minimum
    nearest-neighbor distance.  The grid is 60 radii by 180 angles.

    Rational divergence angles collapse points onto rays, which keeps
    neighbor spacing regular but opens wedge-shaped holes; this ratio is what
    actually separates them from golden-angle patterns.
    """
    if len(points) < 2:
        raise DomainError("need at least two points")
    xy = _cartesian(points)
    radii = np.asarray(points, dtype=float)[:, 0]
    rr = np.linspace(radii.min(), radii.max(), 60)
    aa = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
    probes = np.column_stack(
        (
            np.outer(rr, np.cos(aa)).ravel(),
            np.outer(rr, np.sin(aa)).ravel(),
        )
    )
    tree = cKDTree(xy)
    cover = float(tree.query(probes)[0].max())
    packing = float(tree.query(xy, k=2)[0][:, 1].min())
    return cover / packing


def render_svg(points, config: SpiralConfig) -> str:
    """Standalone SVG text with one circle per point.

    The view box is the origin-centered square just containing every marker.
    """
    radius = config.marker_radius
    max_r = max((p[0] for p in points), default=0.0)
    half = max_r + radius
    xy = _cartesian(points)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}">',
    ]
    for x, y in xy:
        lines.append(
            f'  <circle cx="{x:.6f}" cy="{y:.6f}" r="{radius:.6f}" '
            f'fill="black"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(points, config: SpiralConfig, path) -> int:
    """Write the SVG pattern to ``path``; returns the byte count written."""
    data = render_svg(points, config).encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)
