"""Intersection region of ``k`` discs — the paper's "intersected area".

The disc-intersection approach (paper Section III-C) estimates a mobile
device's location as the intersection of the maximum coverage discs of
all APs the device communicated with.  This module computes that region
exactly:

* the *vertex set* Δ — all pairwise circle-intersection points that lie
  inside every disc (M-Loc pseudocode, lines 2–10),
* the exact *area* and *centroid* of the region from its arc-polygon
  boundary (straight-edge shoelace core plus one circular segment per
  boundary arc),
* Monte-Carlo estimators used for validation in the test suite and
  the Theorem 2/3 benches.

The intersection of discs is convex (an intersection of convex sets), so
its boundary vertices can be ordered by angle around any interior point
and each boundary edge is a single circular arc traversed
counter-clockwise around its supporting circle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import kernels
from repro.geometry.circle import Circle, circle_intersections
from repro.geometry.point import Point, mean_point
from repro.geometry.polygon import polygon_area, polygon_centroid

TWO_PI = 2.0 * math.pi

#: Process-wide default for the NumPy kernel fast path.  The scalar
#: code is the reference implementation; benches and property tests
#: flip this (or pass ``use_kernels`` explicitly) to compare the two.
_KERNEL_DEFAULT = True

#: Below this disc count the scalar loops beat NumPy dispatch overhead
#: (measured crossover is between k=4 and k=5), so the *default* path
#: only engages the kernels from here up.  An explicit
#: ``use_kernels=True`` forces them at any size.
KERNEL_MIN_DISCS = 5


def set_kernel_default(enabled: bool) -> bool:
    """Set the process-wide kernel fast-path default; returns the old one."""
    global _KERNEL_DEFAULT
    previous = _KERNEL_DEFAULT
    _KERNEL_DEFAULT = bool(enabled)
    return previous


def kernel_default() -> bool:
    """Whether new regions use the NumPy kernels by default."""
    return _KERNEL_DEFAULT


class DiscIntersection:
    """The intersection region of one or more discs.

    Parameters
    ----------
    discs:
        The coverage discs to intersect.  At least one is required.
    tol:
        Geometric tolerance in meters, scaled internally by the largest
        radius.  Vertices within ``tol`` of each other are merged and
        membership tests allow a ``tol`` slack, which keeps the exact
        circle-intersection points (that sit on two boundaries) inside
        the region despite floating-point rounding.
    use_kernels:
        Compute the vertex set (and nested-disc detection) with the
        vectorized kernels of :mod:`repro.geometry.kernels` instead of
        the scalar reference loops.  ``None`` defers to the module
        default (see :func:`set_kernel_default`), which only engages
        the kernels from :data:`KERNEL_MIN_DISCS` discs up.  Both paths
        agree to floating-point noise; the scalar path remains the
        reference.
    precomputed_vertices:
        Internal hook for the batched kernel
        (:func:`repro.geometry.kernels.batch_intersection_vertices`):
        a Δ that was already computed for this disc set, adopted
        instead of being recomputed.  Everything else (nested-disc
        detection, arcs, area) proceeds normally.
    """

    def __init__(self, discs: Sequence[Circle], tol: float = 1e-9,
                 use_kernels: Optional[bool] = None,
                 precomputed_vertices: Optional[Sequence[Point]] = None):
        if not discs:
            raise ValueError("DiscIntersection requires at least one disc")
        self.discs: List[Circle] = list(discs)
        max_radius = max(disc.radius for disc in self.discs)
        self._tol = tol * max(1.0, max_radius)
        if use_kernels is None:
            self._use_kernels = (_KERNEL_DEFAULT
                                 and len(self.discs) >= KERNEL_MIN_DISCS)
        else:
            self._use_kernels = bool(use_kernels)
        self._vertices: Optional[List[Point]] = None
        # Boundary arcs as (circle, start_angle, sweep); computed on
        # first use — the M-Loc vertex-centroid hot path never needs
        # them, only area / exact-centroid queries do.
        self._arcs_cache: Optional[List[Tuple[Circle, float, float]]] = None
        # When the region is exactly one disc nested inside all others.
        self._full_disc: Optional[Circle] = None
        self._empty = False
        self._precomputed = (None if precomputed_vertices is None
                             else list(precomputed_vertices))
        self._build()

    def __getstate__(self) -> dict:
        """Pickle without the derived caches.

        Process-transport shards ship estimates (and their regions)
        back in bus replies.  The arc list is recomputable from the
        vertices on demand and the precomputed-vertex input was already
        consumed by ``_build``, so neither belongs in the payload.  The
        empty arc list (set when the region degenerates) is kept — it
        records a decision, not a cache.
        """
        state = dict(self.__dict__)
        if state["_arcs_cache"]:
            state["_arcs_cache"] = None
        state["_precomputed"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        vertices = self._compute_vertices()
        self._vertices = vertices
        if not vertices:
            self._full_disc = self._find_nested_disc()
            self._empty = self._full_disc is None
            self._arcs_cache = []
            return
        if len(vertices) == 1:
            # Tangency: the region is a single point (or numerically so).
            self._arcs_cache = []

    @property
    def _arcs(self) -> List[Tuple[Circle, float, float]]:
        if self._arcs_cache is None:
            self._arcs_cache = self._compute_arcs(self._vertices or [])
        return self._arcs_cache

    def _compute_vertices(self) -> List[Point]:
        """All pairwise intersection points inside every disc (Δ)."""
        if self._precomputed is not None:
            return self._precomputed
        if self._use_kernels and len(self.discs) > 1:
            return self._compute_vertices_kernel()
        return self._compute_vertices_scalar()

    def _compute_vertices_scalar(self) -> List[Point]:
        """Reference implementation: per-pair loops over Python floats."""
        candidates: List[Point] = []
        count = len(self.discs)
        for i in range(count):
            for j in range(i + 1, count):
                for point in circle_intersections(self.discs[i],
                                                  self.discs[j]):
                    if self._contains_with_tol(point):
                        candidates.append(point)
        return _dedupe_points(candidates, self._tol * 10.0)

    def _compute_vertices_kernel(self) -> List[Point]:
        """Fast path: one shot of array ops via the geometry kernels."""
        centers, radii = kernels.discs_as_arrays(self.discs)
        vertices = kernels.intersection_vertices(
            centers, radii, contain_slack=self._tol,
            dedupe_tol=self._tol * 10.0)
        return kernels.array_as_points(vertices)

    def _contains_with_tol(self, point: Point) -> bool:
        return all(disc.contains(point, self._tol) for disc in self.discs)

    def _find_nested_disc(self) -> Optional[Circle]:
        """Disc contained in all others, if any (region = that disc)."""
        if self._use_kernels and len(self.discs) > 1:
            centers, radii = kernels.discs_as_arrays(self.discs)
            nested = np.nonzero(
                kernels.nested_disc_mask(centers, radii, self._tol))[0]
            if nested.size == 0:
                return None
            # Same pick as the scalar stable sort: smallest radius,
            # earliest original position on ties.
            best = min(nested, key=lambda idx: (radii[idx], idx))
            return self.discs[int(best)]
        for candidate in sorted(self.discs, key=lambda d: d.radius):
            if all(other.contains_circle(candidate, self._tol)
                   for other in self.discs):
                return candidate
        return None

    def _compute_arcs(
        self, vertices: List[Point]
    ) -> List[Tuple[Circle, float, float]]:
        """Boundary arcs between consecutive vertices (CCW order).

        Each arc is returned as ``(circle, start_angle, sweep)`` where
        ``sweep`` in ``(0, 2π)`` is the counter-clockwise angular extent
        around the circle's own center.
        """
        interior = mean_point(vertices)
        ordered = sorted(vertices,
                         key=lambda v: math.atan2(v.y - interior.y,
                                                  v.x - interior.x))
        arcs: List[Tuple[Circle, float, float]] = []
        count = len(ordered)
        boundary_tol = max(self._tol * 10.0, 1e-7)
        for i in range(count):
            start = ordered[i]
            end = ordered[(i + 1) % count]
            arc = self._supporting_arc(start, end, boundary_tol)
            if arc is not None:
                arcs.append(arc)
        return arcs

    def _supporting_arc(
        self, start: Point, end: Point, boundary_tol: float
    ) -> Optional[Tuple[Circle, float, float]]:
        """Find the disc whose boundary forms the region edge start→end."""
        best: Optional[Tuple[Circle, float, float]] = None
        for disc in self.discs:
            if disc.radius <= 0.0:
                continue
            if not (disc.on_boundary(start, boundary_tol)
                    and disc.on_boundary(end, boundary_tol)):
                continue
            angle_start = math.atan2(start.y - disc.center.y,
                                     start.x - disc.center.x)
            angle_end = math.atan2(end.y - disc.center.y,
                                   end.x - disc.center.x)
            sweep = (angle_end - angle_start) % TWO_PI
            if sweep <= 0.0:
                sweep = TWO_PI if start.is_close(end, boundary_tol) else sweep
            midpoint = disc.point_at(angle_start + sweep / 2.0)
            if self._contains_with_tol(midpoint):
                # Prefer the tightest arc when several discs coincide.
                if best is None or sweep < best[2]:
                    best = (disc, angle_start, sweep)
        return best

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the discs have no common point."""
        return self._empty

    @property
    def vertices(self) -> List[Point]:
        """The paper's Δ: pairwise intersection points inside all discs."""
        return list(self._vertices or [])

    def vertex_centroid(self) -> Optional[Point]:
        """``AVG(Δ)`` — the location estimate of the paper's M-Loc.

        Returns ``None`` when Δ is empty (the paper's pseudocode is
        undefined there; callers apply documented fallbacks).
        """
        if not self._vertices:
            return None
        return mean_point(self._vertices)

    def contains(self, point: Point, tol: Optional[float] = None) -> bool:
        """True when ``point`` lies in every disc."""
        slack = self._tol if tol is None else tol
        return all(disc.contains(point, slack) for disc in self.discs)

    @property
    def area(self) -> float:
        """Exact area of the intersection region in square meters."""
        if self._empty:
            return 0.0
        if self._full_disc is not None:
            return self._full_disc.area
        vertices = self._vertices or []
        if len(vertices) < 2:
            return 0.0
        ordered = self._ordered_vertices()
        total = abs(polygon_area(ordered))
        for circle, _, sweep in self._arcs or []:
            total += _segment_area(circle.radius, sweep)
        return total

    def centroid(self) -> Optional[Point]:
        """Exact area centroid of the region (``None`` when empty).

        For a single-point region (tangency) the point itself is
        returned; for a nested-disc region the disc center.
        """
        if self._empty:
            return None
        if self._full_disc is not None:
            return self._full_disc.center
        vertices = self._vertices or []
        if len(vertices) == 1:
            return vertices[0]
        ordered = self._ordered_vertices()
        poly_area = abs(polygon_area(ordered))
        weighted_x = 0.0
        weighted_y = 0.0
        total_area = 0.0
        if poly_area > 0.0:
            core = polygon_centroid(ordered)
            weighted_x += core.x * poly_area
            weighted_y += core.y * poly_area
            total_area += poly_area
        for circle, start_angle, sweep in self._arcs or []:
            seg_area = _segment_area(circle.radius, sweep)
            if seg_area <= 0.0:
                continue
            seg_centroid = _segment_centroid(circle, start_angle, sweep)
            weighted_x += seg_centroid.x * seg_area
            weighted_y += seg_centroid.y * seg_area
            total_area += seg_area
        if total_area <= 0.0:
            # Degenerate sliver: fall back to the vertex mean.
            return mean_point(vertices)
        return Point(weighted_x / total_area, weighted_y / total_area)

    def _ordered_vertices(self) -> List[Point]:
        vertices = self._vertices or []
        if len(vertices) < 3:
            return list(vertices)
        interior = mean_point(vertices)
        return sorted(vertices,
                      key=lambda v: math.atan2(v.y - interior.y,
                                               v.x - interior.x))

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``.

        The box is the intersection of the per-disc boxes, so it bounds
        the region tightly enough for rejection sampling.
        """
        min_x = max(d.center.x - d.radius for d in self.discs)
        max_x = min(d.center.x + d.radius for d in self.discs)
        min_y = max(d.center.y - d.radius for d in self.discs)
        max_y = min(d.center.y + d.radius for d in self.discs)
        return (min_x, min_y, max_x, max_y)

    # ------------------------------------------------------------------
    # Monte Carlo validation helpers
    # ------------------------------------------------------------------

    def _sample_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Which samples land inside every disc (zero slack).

        One ``samples × discs`` distance-matrix containment mask instead
        of a per-sample Python ``contains`` loop — these estimators
        dominate the Theorem 2/3 validation benches.
        """
        centers, radii = kernels.discs_as_arrays(self.discs)
        points = np.column_stack((xs, ys))
        return kernels.contains_all(points, centers, radii, slack=0.0)

    def monte_carlo_area(self, rng: np.random.Generator,
                         samples: int = 20000) -> float:
        """Estimate the region area by rejection sampling (validation)."""
        min_x, min_y, max_x, max_y = self.bounding_box()
        if min_x >= max_x or min_y >= max_y:
            return 0.0
        xs = rng.uniform(min_x, max_x, samples)
        ys = rng.uniform(min_y, max_y, samples)
        hits = int(np.count_nonzero(self._sample_mask(xs, ys)))
        return (max_x - min_x) * (max_y - min_y) * hits / samples

    def monte_carlo_centroid(self, rng: np.random.Generator,
                             samples: int = 20000) -> Optional[Point]:
        """Estimate the region centroid by rejection sampling."""
        min_x, min_y, max_x, max_y = self.bounding_box()
        if min_x >= max_x or min_y >= max_y:
            return None
        xs = rng.uniform(min_x, max_x, samples)
        ys = rng.uniform(min_y, max_y, samples)
        inside = self._sample_mask(xs, ys)
        hits = int(np.count_nonzero(inside))
        if hits == 0:
            return None
        return Point(float(xs[inside].sum()) / hits,
                     float(ys[inside].sum()) / hits)


def _segment_area(radius: float, sweep: float) -> float:
    """Area of the circular segment between a chord and its CCW arc."""
    return 0.5 * radius * radius * (sweep - math.sin(sweep))


def _segment_centroid(circle: Circle, start_angle: float,
                      sweep: float) -> Point:
    """Centroid of the circular segment cut by the arc's chord.

    The centroid lies on the bisector of the arc, at distance
    ``4 R sin^3(θ) / (3 (2θ - sin 2θ))`` from the circle center, where
    ``θ = sweep / 2`` is the half-angle.
    """
    half = sweep / 2.0
    denom = sweep - math.sin(sweep)
    if denom <= 0.0:
        return circle.point_at(start_angle + half)
    distance = (4.0 * circle.radius * math.sin(half) ** 3) / (3.0 * denom)
    mid_angle = start_angle + half
    return Point(circle.center.x + distance * math.cos(mid_angle),
                 circle.center.y + distance * math.sin(mid_angle))


def _dedupe_points(points: List[Point], tol: float) -> List[Point]:
    """Merge points closer than ``tol`` (tangency duplicates)."""
    unique: List[Point] = []
    for point in points:
        if not any(point.is_close(existing, tol) for existing in unique):
            unique.append(point)
    return unique
