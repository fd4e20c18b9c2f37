"""Golden-angle point patterns on an Archimedes spiral.

Points are released at equal increments of the spiral parameter (the standard
discretization of the constant-speed construction), rotated by a fixed
divergence angle.  Under the golden divergence the visible left/right spiral
families count consecutive Fibonacci numbers; the detector below recovers the
counts from nearest-neighbor index differences, no contact geometry needed.
Every neighbor query (parastichy, spacing, coverage) is one exact search over
the points binned into a grid of square cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError

_MIN_POINTS = 50
_BATCH = 1 << 18  # candidate points per batch of a search step


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


def _finite_columns(points):
    """r, phi, x and y columns of polar points (r, phi), with r and so x and y scaled by
    2^shift, and shift; a nan or inf point is a DomainError."""
    arr = np.asarray(points, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("every point (r, phi) must be finite")
    # largest |r| about 2^500: squared distances stay inside the double range, and a power
    # of two scales exactly
    shift = 500 - math.frexp(float(np.abs(arr[:, 0]).max()))[1]
    r, phi = np.ldexp(arr[:, 0], shift), arr[:, 1]
    return r, phi, r * np.cos(phi), r * np.sin(phi), shift


class _CellGrid:
    """Points binned into square cells of side h, about one point a cell, and sorted by cell,
    row by row; ``index`` maps a sorted position back to the point's index.  The coordinates
    are scaled as ``_finite_columns`` scales them, so no span or squared distance overflows.

    A query examines the cells in squares of R = 1, 2, 3, 4, 6, 9, ... cells about its own
    cell (clamped onto the grid).  Every point in a cell it has not examined is then at least
    R h away along one axis, and at least the query's distance to the points' bounding box
    away along both: the search's one stopping rule.
    """

    def __init__(self, x, y):
        n = len(x)
        self._box = x_lo, x_hi, y_lo, y_hi = x.min(), x.max(), y.min(), y.max()
        w, t = x_hi - x_lo, y_hi - y_lo
        # h^2 = box area / n; span / n bounds the cell count of a flat box, and any h serves
        # points that all coincide
        self.h = float(max(np.sqrt(w * t / n), max(w, t) / n)) or 1.0
        self.nx, self.ny = int(w / self.h) + 1, int(t / self.h) + 1
        cx, cy = self._cells(x, y)
        cell = cy * self.nx + cx
        self.index = np.argsort(cell, kind="stable")
        self.x, self.y = x[self.index], y[self.index]
        self._first = np.zeros(self.nx * self.ny + 1, dtype=np.intp)
        np.cumsum(np.bincount(cell, minlength=self.nx * self.ny), out=self._first[1:])
        # a computed d^2 is off by a few ulps and a cell index by about 1e-16 of the grid's
        # width in cells, so the bound keeps a margin for both
        self._shrink = 1.0 - 1e-12 - 4e-15 * max(self.nx, self.ny)

    def _cells(self, x, y):
        """Cell column and row of each point (x, y), clamped onto the grid."""
        return (np.clip((x - self._box[0]) // self.h, 0, self.nx - 1).astype(np.intp),
                np.clip((y - self._box[2]) // self.h, 0, self.ny - 1).astype(np.intp))

    def _runs(self, cx, cy, inner, R):
        """Runs of sorted positions that hold the points in the cells more than ``inner`` and
        at most R cells out from cells (cx, cy): start and length, one row per query."""
        dy = np.arange(max(-R, 1 - self.ny), min(R, self.ny - 1) + 1)  # rows inside the grid
        row = (cy[:, None] + dy)[:, None]
        cx = cx[:, None, None]
        # column runs [a, b] per row: with no inner square the rows whole; else the rows past
        # it whole and the rows across it their two ends
        if inner < 0:
            a, b = cx - R, cx + R
        else:
            rim = np.abs(dy) > inner
            a = np.where(rim, np.concatenate((cx - R, cx + R + 1), 1),
                         np.concatenate((cx - R, cx + inner + 1), 1))
            b = np.where(rim, cx + R, np.concatenate((cx - inner - 1, cx + R), 1))
        a, b = np.maximum(a, 0), np.minimum(b, self.nx - 1)
        live = (0 <= row) & (row < self.ny) & (a <= b)
        base = row * self.nx
        start = self._first[np.where(live, base + a, 0)]
        count = np.where(live, self._first[np.where(live, base + b + 1, 0)] - start, 0)
        return start.reshape(len(cx), -1), count.reshape(len(cx), -1)

    def search(self, qx, qy, step):
        """Widen the square of cells about each query point (qx, qy) until ``step`` closes
        it or the square covers the grid.  ``step(q, owner, pos, bound)`` gets open query numbers q,
        the sorted positions pos of the points just examined, the entry of q each belongs to,
        and per entry of q a squared distance below that to any point not yet examined; it
        returns the mask of q still open."""
        cx, cy = self._cells(qx, qy)
        reach = np.max([cx, self.nx - 1 - cx, cy, self.ny - 1 - cy], axis=0)
        x_lo, x_hi, y_lo, y_hi = self._box
        outside = (np.maximum(np.maximum(x_lo - qx, qx - x_hi), 0.0) ** 2
                   + np.maximum(np.maximum(y_lo - qy, qy - y_hi), 0.0) ** 2)
        q, inner, R = np.arange(len(cx)), -1, 1
        while q.size:
            start, count = self._runs(cx[q], cy[q], inner, R)
            gap = R * self.h
            bound = (gap * gap + outside[q]) * self._shrink
            # batches of about _BATCH candidates bound the memory a bunched point set takes
            total = np.cumsum(count.sum(1))
            ends = [0, q.size]
            if total[-1] > _BATCH:
                cuts = np.searchsorted(total, np.arange(_BATCH, total[-1], _BATCH), "right")
                ends = np.unique(np.concatenate((ends, cuts)))
            open_ = np.empty(q.size, dtype=bool)
            for lo, hi in zip(ends[:-1], ends[1:]):
                owner = np.repeat(np.arange(hi - lo), count[lo:hi].sum(1))
                run = count[lo:hi].ravel()
                offset = np.cumsum(run) - run
                pos = np.repeat(start[lo:hi].ravel() - offset, run) + np.arange(owner.size)
                open_[lo:hi] = step(q[lo:hi], owner, pos, bound[lo:hi])
            q = q[open_ & (reach[q] > R)]
            inner, R = R, R + max(1, R // 2)


def _least(values, owner, m) -> np.ndarray:
    """The least of ``values`` per owner 0..m-1; inf for an owner with none."""
    out = np.full(m, math.inf)
    np.minimum.at(out, owner, values)
    return out


def _nearest(grid, qx, qy, own=False, keep=None) -> np.ndarray:
    """Squared distance from each query point (qx, qy) to its nearest grid point; with
    ``own`` the queries are the grid's points in sorted order, and a point's own position is
    left out, so a duplicate point is at 0.  ``keep(best, q, bound)``, when given, may close
    open queries q early; those keep an upper bound in place of their distance."""
    best = np.full(len(qx), math.inf)

    def step(q, owner, pos, bound):
        i = q[owner]
        d2 = (grid.x[pos] - qx[i]) ** 2 + (grid.y[pos] - qy[i]) ** 2
        if own:
            d2[pos == i] = math.inf
        best[q] = np.minimum(best[q], _least(d2, owner, len(q)))
        open_ = best[q] > bound
        return open_ if keep is None else open_ & keep(best, q, bound)

    grid.search(qx, qy, step)
    return best


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
    _, phi, x, y, _ = _finite_columns(points)
    grid = _CellGrid(x[:hi], y[:hi])
    rows = np.arange(max(lo, 1), hi)
    # nearest inward neighbor per row and side (right: psi >= 0, left: psi <= 0) and its
    # squared distance; hi marks a side with no inward point at all
    best = np.full((2, len(rows)), math.inf)
    nearest = np.full((2, len(rows)), hi)

    def step(q, owner, pos, bound):
        i, j = rows[q][owner], grid.index[pos]
        inward = j < i
        owner, pos, i, j = owner[inward], pos[inward], i[inward], j[inward]
        d2 = (grid.x[pos] - x[i]) ** 2 + (grid.y[pos] - y[i]) ** 2
        psi = np.mod(phi[j] - phi[i] + math.pi, 2.0 * math.pi) - math.pi
        # side s of entry e of q is slot e + s len(q); a point at psi = 0 is on both sides
        right, left = psi >= 0, psi <= 0
        slot = np.concatenate((owner[right], owner[left] + len(q)))
        d2, j = np.concatenate((d2[right], d2[left])), np.concatenate((j[right], j[left]))
        old = best[:, q].ravel()
        least = np.minimum(old, _least(d2, slot, old.size))
        # the lowest index among equally near candidates, as argmin takes
        tie = d2 == least[slot]
        low = np.full(old.size, hi)
        np.minimum.at(low, slot[tie], j[tie])
        near = np.where(least == old, np.minimum(nearest[:, q].ravel(), low), low)
        best[:, q], nearest[:, q] = least.reshape(2, -1), near.reshape(2, -1)
        return (best[:, q] > bound).any(axis=0)

    grid.search(x[rows], y[rows], step)
    # difference counts; argmax picks the most frequent, the smallest on ties
    right_diffs, left_diffs = (np.bincount(rows[j < hi] - j[j < hi]) for j in nearest)
    if not left_diffs.any() or not right_diffs.any():
        raise DomainError("window too small to classify neighbors on both sides")
    return int(np.argmax(left_diffs)), int(np.argmax(right_diffs))


def nearest_neighbor_distances(points) -> np.ndarray:
    """Distance from each point to its nearest other point."""
    if len(points) < 2:
        raise DomainError("need at least two points")
    *_, x, y, shift = _finite_columns(points)
    grid = _CellGrid(x, y)
    out = np.empty(len(points))
    out[grid.index] = np.ldexp(np.sqrt(_nearest(grid, grid.x, grid.y, own=True)), -shift)
    return out


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
    radii, _, x, y, _ = _finite_columns(points)
    grid = _CellGrid(x, y)
    # a point stops once nothing it has not examined can beat the least spacing found
    packing = _nearest(grid, grid.x, grid.y, own=True,
                       keep=lambda best, q, bound: bound < best.min()).min()
    if packing == 0.0:
        raise DomainError("the smallest spacing is 0: two points coincide")
    rr = np.linspace(radii.min(), radii.max(), 60)
    aa = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
    px, py = np.outer(rr, np.cos(aa)), np.outer(rr, np.sin(aa))
    # exact distances at the centres of 20 x 60 tiles of 3 x 3 probes; the distance to the
    # nearest point is 1-Lipschitz, so a probe can beat the largest of them only if its
    # centre's distance plus its own offset from the centre does
    cx, cy = px[1::3, 1::3], py[1::3, 1::3]
    centre2 = _nearest(grid, cx.ravel(), cy.ravel())
    cover2 = float(centre2.max())
    tiles = (20, 3, 60, 3)
    reach = np.sqrt(centre2).reshape(20, 1, 60, 1) + np.hypot(
        px.reshape(tiles) - cx[:, None, :, None], py.reshape(tiles) - cy[:, None, :, None])
    probe = (reach > math.sqrt(cover2) * (1.0 - 1e-12)).reshape(60, 180)
    probe[1::3, 1::3] = False  # the centres are done

    def keep(best, q, bound):
        # a probe closes once it is settled or cannot beat the largest settled distance
        nonlocal cover2
        cover2 = max(cover2, float(best[q].max(where=best[q] <= bound, initial=0.0)))
        return best[q] > cover2

    hole = _nearest(grid, px[probe], py[probe], keep=keep).max(initial=0.0)
    return math.sqrt(max(cover2, hole)) / math.sqrt(packing)


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
