"""Smooth convex-polygon geometry: poses, boundary sampling, and the
differentiable distance/penetration/enclosure surrogates.

Coordinates are generic scalars (tape ``Var`` or plain float); the same
code path serves recorded and plain evaluation. Hard counterparts for
every quantity live in :mod:`polystl.exactgeo`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from . import autodiff as ad
from .autodiff import Scalar, value_of
from .exactgeo import validate_convex_ccw

ScalarPoint = tuple  # (Scalar, Scalar)

DEFAULT_TAU = 1e-2
DEFAULT_SAMPLES_PER_EDGE = 16
DEFAULT_SIGMOID_SCALE = 50.0


@dataclass(frozen=True)
class SmoothingConfig:
    """Knobs shared by all smooth geometric quantities.

    tau: log-sum-exp temperature; smaller is sharper.
    samples_per_edge: boundary sample density for distance queries.
    sigmoid_scale: inside/outside blending steepness for signed distance.
    """
    tau: float = DEFAULT_TAU
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE
    sigmoid_scale: float = DEFAULT_SIGMOID_SCALE

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.samples_per_edge < 1:
            raise ValueError(f"samples_per_edge must be >= 1, got {self.samples_per_edge}")
        if self.sigmoid_scale <= 0.0:
            raise ValueError(f"sigmoid_scale must be positive, got {self.sigmoid_scale}")


@dataclass
class Pose2D:
    """Planar rigid pose; coordinates may be Vars or floats."""
    x: Scalar
    y: Scalar
    theta: Scalar

    def heading(self) -> ScalarPoint:
        return (ad.cos(self.theta), ad.sin(self.theta))

    def values(self) -> tuple[float, float, float]:
        return (value_of(self.x), value_of(self.y), value_of(self.theta))


class ConvexPolygon:
    """Counter-clockwise convex polygon over generic scalar coordinates.

    Validation runs :func:`exactgeo.validate_convex_ccw` on the float
    snapshot of the coordinates; near-collinear corners inside its
    tolerance only produce a warning.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[ScalarPoint]):
        vs = [(vx, vy) for vx, vy in vertices]
        for i in validate_convex_ccw([(value_of(vx), value_of(vy)) for vx, vy in vs]):
            warnings.warn(f"near-collinear corner at vertex {i}", stacklevel=2)
        self.vertices = vs

    def __len__(self) -> int:
        return len(self.vertices)

    def float_vertices(self) -> list[tuple[float, float]]:
        return [(value_of(x), value_of(y)) for x, y in self.vertices]

    def edges(self):
        vs = self.vertices
        n = len(vs)
        return [(vs[i], vs[(i + 1) % n]) for i in range(n)]

    def centroid(self) -> ScalarPoint:
        n = len(self.vertices)
        sx = self.vertices[0][0]
        sy = self.vertices[0][1]
        for vx, vy in self.vertices[1:]:
            sx = sx + vx
            sy = sy + vy
        return (sx / n, sy / n)

    def max_edge_length(self) -> float:
        fs = self.float_vertices()
        n = len(fs)
        return max(math.dist(fs[i], fs[(i + 1) % n]) for i in range(n))


@dataclass
class PolygonTemplate:
    """Local-frame vertex list instantiated at a pose: world = R(theta) v + p."""
    local_vertices: list[tuple[float, float]]

    def __post_init__(self):
        # validate once in the local frame; rigid motion preserves the checks
        ConvexPolygon(self.local_vertices)

    def at(self, pose: Pose2D) -> ConvexPolygon:
        c = ad.cos(pose.theta)
        s = ad.sin(pose.theta)
        world = []
        for lx, ly in self.local_vertices:
            world.append((pose.x + c * lx - s * ly,
                          pose.y + s * lx + c * ly))
        return ConvexPolygon(world)


@dataclass
class BoundarySamples:
    """Evenly spaced boundary points with their worst-case spacing."""
    points: list[ScalarPoint]
    spacing: float


def sample_boundary(polygon: ConvexPolygon, samples_per_edge: int) -> BoundarySamples:
    """S points per edge at parameters k/S (each vertex appears once, as the
    k=0 sample of its outgoing edge); spacing is max edge length / S."""
    if samples_per_edge < 1:
        raise ValueError(f"samples_per_edge must be >= 1, got {samples_per_edge}")
    pts = []
    inv = 1.0 / samples_per_edge
    for (ax, ay), (bx, by) in polygon.edges():
        ex = bx - ax
        ey = by - ay
        for k in range(samples_per_edge):
            t = k * inv
            if t == 0.0:
                pts.append((ax, ay))
            else:
                pts.append((ax + t * ex, ay + t * ey))
    return BoundarySamples(pts, polygon.max_edge_length() / samples_per_edge)


def edge_normals(polygon: ConvexPolygon) -> list[ScalarPoint]:
    """Inward unit normals, one per directed edge (interior is to the left
    of a counter-clockwise edge)."""
    normals = []
    for (ax, ay), (bx, by) in polygon.edges():
        ex = bx - ax
        ey = by - ay
        length = ad.sqrt_guarded(ex * ex + ey * ey)
        normals.append((-ey / length, ex / length))
    return normals


def point_segment_distance(p: ScalarPoint, a: ScalarPoint, b: ScalarPoint) -> Scalar:
    """Distance from p to segment ab with a hard-clamped projection; the
    guarded sqrt keeps the gradient finite at contact."""
    px, py = p
    ax, ay = a
    bx, by = b
    ex = bx - ax
    ey = by - ay
    len2 = ex * ex + ey * ey
    t = ad.min2(ad.max2(((px - ax) * ex + (py - ay) * ey) / len2, 0.0), 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    return ad.sqrt_guarded(dx * dx + dy * dy)


def point_polygon_signed_distance(p: ScalarPoint, polygon: ConvexPolygon,
                                  cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth signed distance from a point to a polygon boundary, negative
    inside.

    Blends an inside depth (soft-min of inward half-plane margins) with an
    outside distance (soft-min of point-to-edge distances) through a
    sigmoid on the inside depth.
    """
    tau = cfg.tau
    px, py = p
    margins = []
    for (vx, vy), (nx, ny) in zip([e[0] for e in polygon.edges()], edge_normals(polygon)):
        margins.append((px - vx) * nx + (py - vy) * ny)
    m_in = ad.lse_min(margins, tau)
    m_out = ad.lse_min([point_segment_distance(p, a, b) for a, b in polygon.edges()], tau)
    w = ad.sigmoid(cfg.sigmoid_scale * m_in)
    return (1.0 - w) * m_out - w * m_in


def smooth_sat_penetration(A: ConvexPolygon, B: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth penetration depth from soft separating-axis margins.

    For each combined inward edge normal, project both polygons with
    soft extrema and take the soft interval overlap; the soft minimum over
    axes, clamped by relu, approximates the hard face-normal penetration.
    One temperature serves both the projection extrema and the axis
    aggregation.
    """
    tau = cfg.tau
    overlaps = []
    a_verts = A.vertices
    b_verts = B.vertices
    for normals in (edge_normals(A), edge_normals(B)):
        for nx, ny in normals:
            pa = [vx * nx + vy * ny for vx, vy in a_verts]
            pb = [vx * nx + vy * ny for vx, vy in b_verts]
            hi = ad.lse_min([ad.lse_max(pa, tau), ad.lse_max(pb, tau)], tau)
            lo = ad.lse_max([ad.lse_min(pa, tau), ad.lse_min(pb, tau)], tau)
            overlaps.append(hi - lo)
    return ad.relu(ad.lse_min(overlaps, tau))


def smooth_polygon_distance(A: ConvexPolygon, B: ConvexPolygon,
                            cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth boundary-to-boundary distance: symmetric soft-min over the
    unsigned distances of each polygon's boundary samples to the other
    polygon's edges."""
    tau = cfg.tau
    sides = []
    for src, dst in ((A, B), (B, A)):
        edges = dst.edges()
        dists = []
        for p in sample_boundary(src, cfg.samples_per_edge).points:
            dists.append(ad.lse_min([point_segment_distance(p, a, b) for a, b in edges], tau))
        sides.append(ad.lse_min(dists, tau))
    return ad.lse_min(sides, tau)


def signed_clearance(A: ConvexPolygon, B: ConvexPolygon,
                     cfg: SmoothingConfig = SmoothingConfig()) -> Scalar:
    """Smooth distance minus smooth penetration: positive when separated,
    negative when overlapping; in each regime the other term is ~0."""
    return smooth_polygon_distance(A, B, cfg) - smooth_sat_penetration(A, B, cfg)


# -- error budget ----------------------------------------------------------

# Calibrated constant for the sampling term of the accuracy budget
# C*h + tau*sum(log N_k): fitted once against the exact reference on the
# frozen random-pair suite (scripts/calibrate_bounds.py) and kept as a
# regression bound.
# Calibrated once over a 300-pair random suite at (tau, S) in
# {(1e-3,32), (1e-2,16), (1e-1,4)}; the largest coefficient any pair
# required was 0.10, frozen here with 2.5x headroom. Rederive with
# scripts/calibrate_bounds.py after touching the distance kernels.
SAMPLING_ERROR_COEFF = 0.25


def distance_error_budget(A: ConvexPolygon, B: ConvexPolygon,
                          cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """Upper bound on |smooth - exact| for the boundary-sampled distance:
    a C*h sampling term plus the stacked log-sum-exp gaps."""
    s = cfg.samples_per_edge
    h = max(A.max_edge_length(), B.max_edge_length()) / s
    side_a = math.log(len(A) * s) + math.log(len(B))  # A's samples against B's edges
    side_b = math.log(len(B) * s) + math.log(len(A))
    lse_terms = math.log(2.0) + max(side_a, side_b)   # outer symmetric soft-min
    return SAMPLING_ERROR_COEFF * h + cfg.tau * lse_terms


def penetration_error_budget(A: ConvexPolygon, B: ConvexPolygon,
                             cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """Log-sum-exp budget for the soft separating-axis penetration (no
    sampling term; projections use vertices only)."""
    axes = len(A) + len(B)
    verts = max(len(A), len(B))
    return cfg.tau * (math.log(axes) + 2.0 * math.log(verts) + 2.0 * math.log(2.0))


# sup over u > 0 of u * sigmoid(-u), attained near u = 1.2785; rounded up so
# the blended signed-distance budget below stays a true upper bound
_BLEND_SUP = 0.2785


def enclosure_error_budget(inner: ConvexPolygon, outer: ConvexPolygon,
                           cfg: SmoothingConfig = SmoothingConfig()) -> float:
    """|smooth - exact| bound for the containment margin of two polygons.

    Each inner vertex contributes a blended signed distance whose two
    branches are soft-mins over the outer edges (gap tau*log E each); the
    wrong branch carries sigmoid weight and misses by at most
    (2/k)*sup u*sigmoid(-u). The soft-max over inner vertices stacks one
    more tau*log V on top.
    """
    return (cfg.tau * (math.log(len(inner)) + math.log(len(outer)))
            + 2.0 / cfg.sigmoid_scale * _BLEND_SUP)
