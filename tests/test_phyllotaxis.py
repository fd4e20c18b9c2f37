import math
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from pathway_toolkit import phyllotaxis
from pathway_toolkit.errors import DomainError
from pathway_toolkit.phyllotaxis import (
    SpiralConfig,
    coverage_packing_ratio,
    emit_svg,
    generate_points,
    golden_angle,
    nearest_neighbor_distances,
    parastichy_pair,
    render_svg,
)

FIBONACCI = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

# fixtures calibrated by running the detector on the golden-angle pattern:
# which consecutive-Fibonacci pair shows up depends on how far out you look
OUTER_WINDOW = (150, 300)
INNER_WINDOW = (50, 120)

# largest-hole / smallest-spacing bound separating golden from rational
# divergence (golden measures ~2.25 on points 50..300, 2 pi / 5 measures ~35)
UNIFORMITY_BOUND = 5.0


def brute_cartesian(points):
    arr = np.asarray(points, dtype=float)
    return np.column_stack(
        (arr[:, 0] * np.cos(arr[:, 1]), arr[:, 0] * np.sin(arr[:, 1]))
    )


def brute_parastichy_pair(points, window):
    """Reference: one numpy pass per window point over every inward point."""
    lo, hi = window
    xy = brute_cartesian(points)
    phi = np.asarray([p[1] for p in points])
    left_diffs: Counter = Counter()
    right_diffs: Counter = Counter()
    for i in range(max(lo, 1), hi):
        d = xy[:i] - xy[i]
        dist2 = np.einsum("ij,ij->i", d, d)
        psi = np.mod(phi[:i] - phi[i] + math.pi, 2.0 * math.pi) - math.pi
        for side, counter in ((psi >= 0, right_diffs), (psi <= 0, left_diffs)):
            if side.any():
                j = int(np.flatnonzero(side)[np.argmin(dist2[side])])
                counter[i - j] += 1
    if not left_diffs or not right_diffs:
        return None

    def dominant(counter: Counter) -> int:
        top = max(counter.values())
        return min(k for k, v in counter.items() if v == top)

    return dominant(left_diffs), dominant(right_diffs)


def brute_nearest_neighbor_distances(points):
    xy = brute_cartesian(points)
    out = np.empty(len(xy))
    for i in range(len(xy)):
        d = xy - xy[i]
        dist2 = np.einsum("ij,ij->i", d, d)
        dist2[i] = math.inf
        out[i] = math.sqrt(float(dist2.min()))
    return out


def brute_coverage_packing_ratio(points, n_radial=60, n_angular=180):
    xy = brute_cartesian(points)
    radii = np.asarray([p[0] for p in points])
    rr = np.linspace(radii.min(), radii.max(), n_radial)
    aa = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    probes = np.column_stack(
        (np.outer(rr, np.cos(aa)).ravel(), np.outer(rr, np.sin(aa)).ravel())
    )
    cover = 0.0
    for chunk in np.array_split(probes, max(1, len(probes) // 512)):
        d2 = (
            (chunk[:, None, 0] - xy[None, :, 0]) ** 2
            + (chunk[:, None, 1] - xy[None, :, 1]) ** 2
        )
        cover = max(cover, math.sqrt(float(d2.min(axis=1).max())))
    return cover / float(brute_nearest_neighbor_distances(points).min())


def exactness_cases(count=100, seed=20261018):
    """Fixed-seed spirals and windows: golden, 2 pi / 5, 2 pi m / 7, pi and
    uniform divergences, n in [50, 1500], windows anywhere in the pattern."""
    rng = np.random.default_rng(seed)
    families = ("golden", "fifth", "seventh", "half", "uniform")
    cases = []
    for c in range(count):
        family = families[c % len(families)]
        divergence = {
            "golden": golden_angle(),
            "fifth": 2.0 * math.pi / 5.0,
            "seventh": 2.0 * math.pi * int(rng.integers(1, 7)) / 7.0,
            "half": math.pi,
            "uniform": float(rng.uniform(0.05, 6.2)),
        }[family]
        n = int(rng.integers(50, 1501))
        if c % 4 == 3:
            # a few rows at the centre, where some rows lack an inward
            # point on one side
            lo, hi = 0, int(rng.integers(2, 13))
        else:
            # windows up to 400 rows keep the reference loop quick
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo + 1, min(n, lo + 400) + 1))
        k = float(rng.uniform(0.3, 3.0))
        cases.append(pytest.param(k, n, divergence, (lo, hi), id=f"{family}-{c}"))
    return cases


def scattered_sets(n=400, seed=20261019):
    """Fixed-seed point sets that are not spirals, in polar form: each stresses one part of
    a cell-grid search (empty cells, a flat box, points on cell edges, duplicates)."""
    rng = np.random.default_rng(seed)

    def polar(x, y):
        return list(zip(np.hypot(x, y).tolist(), np.arctan2(y, x).tolist()))

    disc = list(zip((50.0 * np.sqrt(rng.random(n))).tolist(),
                    (2.0 * math.pi * rng.random(n)).tolist()))
    # 11 x 11 integer points less 21 inner ones: a 10 x 10 box over 100 points makes the
    # cell side 1, so the points lie on cell edges
    lattice = np.array([(i, j) for i in range(11) for j in range(11)], dtype=float)
    inner = np.flatnonzero((lattice > 0).all(1) & (lattice < 10).all(1))
    lattice = np.delete(lattice, rng.choice(inner, 21, replace=False), axis=0)
    line_x = rng.uniform(-40.0, 40.0, n)
    return {
        "disc": disc,
        # one cell holds all but one point; every other cell is empty
        "cluster_and_outlier": polar(*(1000.0 + 1e-3 * rng.standard_normal((2, n - 1))))
        + [(1e6, 2.0)],
        "ray": [(r, 0.0) for r in rng.uniform(1.0, 100.0, n).tolist()],  # a box of area 0
        "vertical_ray": [(r, math.pi / 2) for r in rng.uniform(1.0, 100.0, n).tolist()],
        "line": polar(line_x, 15.0 - line_x / 2.0),
        "lattice": polar(*lattice[rng.permutation(len(lattice))].T),
        # exact integers on a line: duplicates and equally near neighbors
        "integer_line": [(float(v), 0.0) for v in rng.integers(-40, 41, 150).tolist()],
        "two_points": [(1.0, 0.3), (2.0, 1.0)],
        "duplicates": disc[:200] + disc[:60] + disc[150:200],
    }


SCATTERED = scattered_sets()


def is_consecutive_fibonacci(pair):
    lo, hi = sorted(pair)
    for f1, f2 in zip(FIBONACCI[:-1], FIBONACCI[1:]):
        if (f1, f2) == (lo, hi):
            return True
    return False


class TestGoldenAngle:
    def test_defining_equation(self):
        theta = golden_angle()
        golden_ratio = (math.sqrt(5.0) - 1.0) / 2.0
        assert abs(theta / (2.0 * math.pi - theta) - golden_ratio) <= 1e-12

    def test_degrees(self):
        # root of the defining equation, computed independently:
        # theta = 360 g / (1 + g) with g = (sqrt(5) - 1) / 2
        g = (math.sqrt(5.0) - 1.0) / 2.0
        root_deg = 360.0 * g / (1.0 + g)
        assert abs(math.degrees(golden_angle()) - root_deg) <= 1e-9
        assert abs(math.degrees(golden_angle()) - 137.5077641) <= 1e-6

    def test_complement(self):
        assert 360.0 - math.degrees(golden_angle()) == pytest.approx(
            222.49223594996215, abs=1e-6
        )


class TestGeneratePoints:
    def test_empty(self):
        assert generate_points(SpiralConfig(n_points=0)) == []

    def test_radius_construction_identity(self):
        cfg = SpiralConfig(k=0.7, n_points=40, divergence=1.1)
        pts = generate_points(cfg)
        for i, (r, phi) in enumerate(pts, start=1):
            assert r == pytest.approx(0.7 * i * 1.1, rel=1e-15)
            assert phi == pytest.approx(i * 1.1, rel=1e-15)

    def test_radii_strictly_increasing_constant_steps(self):
        cfg = SpiralConfig(k=2.0, n_points=200)
        radii = np.array([r for r, _ in generate_points(cfg)])
        steps = np.diff(radii)
        assert np.all(steps > 0)
        assert np.max(np.abs(steps - 2.0 * cfg.divergence)) <= 1e-12

    def test_golden_angles_never_repeat(self):
        pts = generate_points(SpiralConfig(n_points=300))
        ang = np.array([phi % (2.0 * math.pi) for _, phi in pts])
        gaps = np.abs(ang[:, None] - ang[None, :])
        gaps = np.minimum(gaps, 2.0 * math.pi - gaps)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-9

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SpiralConfig(k=0.0)
        with pytest.raises(DomainError):
            SpiralConfig(n_points=-1)
        with pytest.raises(DomainError):
            SpiralConfig(divergence=7.0)
        with pytest.raises(DomainError):
            SpiralConfig(marker_radius=0.0)

    @pytest.mark.parametrize("field", ["k", "marker_radius"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            SpiralConfig(**{field: value})

    @pytest.mark.parametrize("k, n", [(1e308, 3), (1.0, 10**400)], ids=["huge_k", "huge_n"])
    def test_view_box_past_the_double_range_rejected(self, k, n):
        with pytest.raises(DomainError, match="double range"):
            SpiralConfig(k=k, n_points=n)


class TestParastichy:
    def test_golden_outer_window(self):
        pts = generate_points(SpiralConfig(n_points=300))
        pair = parastichy_pair(pts, OUTER_WINDOW)
        assert is_consecutive_fibonacci(pair)
        assert sorted(pair) == [21, 34]

    def test_golden_inner_window_gives_smaller_pair(self):
        pts = generate_points(SpiralConfig(n_points=300))
        inner = parastichy_pair(pts, INNER_WINDOW)
        outer = parastichy_pair(pts, OUTER_WINDOW)
        assert is_consecutive_fibonacci(inner)
        assert sorted(inner) == [13, 21]
        assert max(inner) < max(outer)

    def test_rational_divergence_gives_rays(self):
        pts = generate_points(
            SpiralConfig(n_points=300, divergence=2.0 * math.pi / 5.0)
        )
        pair = parastichy_pair(pts, (150, 300))
        assert pair == (5, 5)
        assert not is_consecutive_fibonacci(pair)

    def test_window_accepts_range(self):
        pts = generate_points(SpiralConfig(n_points=300))
        assert parastichy_pair(pts, range(150, 300)) == parastichy_pair(
            pts, (150, 300)
        )

    def test_too_few_points(self):
        pts = generate_points(SpiralConfig(n_points=20))
        with pytest.raises(DomainError):
            parastichy_pair(pts, (0, 20))

    def test_bad_window(self):
        pts = generate_points(SpiralConfig(n_points=100))
        with pytest.raises(DomainError):
            parastichy_pair(pts, (50, 200))

    def test_single_point_window_rejected(self):
        pts = generate_points(SpiralConfig(n_points=100))
        with pytest.raises(DomainError):
            parastichy_pair(pts, (0, 1))
        for score in (nearest_neighbor_distances, coverage_packing_ratio):
            with pytest.raises(DomainError, match="two points"):
                score(pts[:1])


class TestNeighborSearchExactness:
    """The cell-grid search answers must equal the brute-force loops."""

    @pytest.mark.parametrize("k, n, divergence, window", exactness_cases())
    def test_parastichy_pair_matches_brute_force(self, k, n, divergence, window):
        pts = generate_points(SpiralConfig(k=k, n_points=n, divergence=divergence))
        ref = brute_parastichy_pair(pts, window)
        if ref is None:
            with pytest.raises(DomainError):
                parastichy_pair(pts, window)
        else:
            assert parastichy_pair(pts, window) == ref

    def test_distance_ties_go_to_lowest_index(self):
        # every inward neighbor of the window exists twice, at indices m and
        # 290 + m; the brute force's argmin takes m
        pts = generate_points(SpiralConfig(n_points=300))
        doubled = pts[:290] + pts[:290] + pts[290:]
        pair = parastichy_pair(doubled, (580, 590))
        assert pair == brute_parastichy_pair(doubled, (580, 590))
        assert min(pair) > 290

    def test_distance_ties_in_cells_apart_go_to_lowest_index(self):
        # 100 points on a line from 0 to 100 make cells 1 wide: window point 80 + k, at
        # 4k + 2.75, has inward neighbors 1.5 away on both sides, index 60 + k in the next
        # cell and index 40 + k two cells on; the brute force's argmin takes 40 + k
        mid = np.arange(20) * 4.0 + 2.75
        pts = [(x, 0.0) for x in [*[0.0] * 39, 100.0, *(mid + 1.5), *(mid - 1.5), *mid]]
        pair = parastichy_pair(pts, (80, 100))
        assert pair == brute_parastichy_pair(pts, (80, 100)) == (40, 40)

    @pytest.mark.parametrize(
        "divergence",
        [golden_angle(), 2.0 * math.pi / 5.0, math.pi, 2.0],
        ids=["golden", "fifth", "half", "two_radians"],
    )
    def test_spacing_and_coverage_match_brute_force(self, divergence):
        pts = generate_points(SpiralConfig(n_points=700, divergence=divergence))
        np.testing.assert_allclose(
            nearest_neighbor_distances(pts),
            brute_nearest_neighbor_distances(pts),
            rtol=1e-12,
            atol=0,
        )
        assert coverage_packing_ratio(pts) == pytest.approx(
            brute_coverage_packing_ratio(pts), rel=1e-12
        )

    def test_duplicate_points_have_zero_spacing(self):
        pts = [(1.0, 0.5), (2.0, 1.0), (1.0, 0.5)]
        np.testing.assert_array_equal(
            nearest_neighbor_distances(pts), brute_nearest_neighbor_distances(pts)
        )
        # the ratio's denominator is that 0 spacing
        with pytest.raises(DomainError, match="coincide"):
            coverage_packing_ratio(pts)

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
    @pytest.mark.parametrize("query", ["spacing", "coverage", "parastichy"])
    def test_non_finite_point_is_a_domain_error(self, query, bad):
        pts = generate_points(SpiralConfig(n_points=60))
        pts[30] = bad
        call = {
            "spacing": nearest_neighbor_distances,
            "coverage": coverage_packing_ratio,
            "parastichy": lambda p: parastichy_pair(p, (0, 60)),
        }[query]
        with pytest.raises(DomainError, match="finite"):
            call(pts)

    @pytest.mark.parametrize("power", [600, -600])
    def test_scale_past_squared_double_range_is_exact(self, power):
        # squared distances at these scales leave the double range; the search works at a
        # power-of-two scale, which is exact
        pts = generate_points(SpiralConfig(n_points=300))
        scaled = generate_points(SpiralConfig(k=2.0**power, n_points=300))
        np.testing.assert_array_equal(
            nearest_neighbor_distances(scaled), np.ldexp(nearest_neighbor_distances(pts), power)
        )
        assert coverage_packing_ratio(scaled) == coverage_packing_ratio(pts)
        assert parastichy_pair(scaled, OUTER_WINDOW) == parastichy_pair(pts, OUTER_WINDOW)

    @pytest.mark.parametrize("name", list(SCATTERED))
    def test_scattered_sets_match_brute_force(self, name):
        pts = SCATTERED[name]
        spacing = brute_nearest_neighbor_distances(pts)
        np.testing.assert_allclose(nearest_neighbor_distances(pts), spacing, rtol=1e-12, atol=0)
        if spacing.min() == 0.0:
            with pytest.raises(DomainError, match="coincide"):
                coverage_packing_ratio(pts)
        else:
            assert coverage_packing_ratio(pts) == pytest.approx(
                brute_coverage_packing_ratio(pts), rel=1e-12
            )
        if len(pts) >= 50:
            window = (0, len(pts))
            assert parastichy_pair(pts, window) == brute_parastichy_pair(pts, window)

    def test_search_in_small_batches_gives_the_same_answers(self, monkeypatch):
        # a search step over more candidates than a batch holds runs batch by batch
        bunched = SCATTERED["cluster_and_outlier"]
        spiral = generate_points(SpiralConfig(n_points=300, divergence=2.0 * math.pi / 5.0))

        def answers():
            return (nearest_neighbor_distances(bunched).tolist(), coverage_packing_ratio(bunched),
                    coverage_packing_ratio(spiral), parastichy_pair(spiral, (150, 300)))

        whole = answers()
        monkeypatch.setattr(phyllotaxis, "_BATCH", 50)
        assert answers() == whole

    @pytest.mark.parametrize("divergence", [2.0 * math.pi / 5.0, math.pi], ids=["fifth", "half"])
    def test_coverage_with_wedge_holes_matches_brute_force(self, divergence):
        # holes many cells wide: most probe tiles are pruned, the rest search far out
        pts = generate_points(SpiralConfig(n_points=3000, divergence=divergence))
        assert coverage_packing_ratio(pts) == pytest.approx(
            brute_coverage_packing_ratio(pts), rel=1e-12
        )


class TestUniformity:
    def test_golden_vs_rational_contrast(self):
        golden = generate_points(SpiralConfig(n_points=300))[49:300]
        rational = generate_points(
            SpiralConfig(n_points=300, divergence=2.0 * math.pi / 5.0)
        )[49:300]
        ratio_golden = coverage_packing_ratio(golden)
        ratio_rational = coverage_packing_ratio(rational)
        assert ratio_golden < UNIFORMITY_BOUND
        assert ratio_rational >= 3.0 * UNIFORMITY_BOUND

    def test_nearest_neighbor_distances_positive(self):
        pts = generate_points(SpiralConfig(n_points=100))
        nn = nearest_neighbor_distances(pts)
        assert np.all(nn > 0)


class TestSvg:
    def circles(self, path):
        tree = ET.parse(path)
        return tree.getroot().findall(".//{http://www.w3.org/2000/svg}circle")

    def test_zero_points_is_valid_svg(self, tmp_path):
        cfg = SpiralConfig(n_points=0)
        out = tmp_path / "empty.svg"
        nbytes = emit_svg([], cfg, out)
        assert nbytes == out.stat().st_size
        assert len(self.circles(out)) == 0

    def test_circle_count_matches(self, tmp_path):
        cfg = SpiralConfig(n_points=137)
        pts = generate_points(cfg)
        out = tmp_path / "pattern.svg"
        nbytes = emit_svg(pts, cfg, out)
        assert nbytes == out.stat().st_size
        assert len(self.circles(out)) == 137

    def test_centers_inside_view_box(self, tmp_path):
        cfg = SpiralConfig(n_points=80, marker_radius=0.5)
        pts = generate_points(cfg)
        out = tmp_path / "pattern.svg"
        emit_svg(pts, cfg, out)
        root = ET.parse(out).getroot()
        x0, y0, w, h = (float(v) for v in root.get("viewBox").split())
        for c in self.circles(out):
            cx, cy = float(c.get("cx")), float(c.get("cy"))
            assert x0 <= cx <= x0 + w
            assert y0 <= cy <= y0 + h

    def test_render_matches_emit(self, tmp_path):
        cfg = SpiralConfig(n_points=10)
        pts = generate_points(cfg)
        out = tmp_path / "pattern.svg"
        emit_svg(pts, cfg, out)
        assert out.read_text(encoding="utf-8") == render_svg(pts, cfg)
