"""Seeded random convex polygon generation for tests and accuracy studies."""
from __future__ import annotations

import math
import random
from typing import Sequence

from .exactgeo import Point, diameter, polygon_contains_polygon, validate_convex_ccw


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Andrew monotone chain; returns hull vertices counter-clockwise,
    collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def random_convex_polygon(rng: random.Random, min_diameter: float = 0.5,
                          max_diameter: float = 3.0) -> list[Point]:
    """Convex hull of 4-10 uniform points in a unit disk, rescaled to a
    target diameter, randomly rotated."""
    while True:
        k = rng.randint(4, 10)
        pts = []
        for _ in range(k):
            # uniform in the disk via rejection
            while True:
                x = rng.uniform(-1.0, 1.0)
                y = rng.uniform(-1.0, 1.0)
                if x * x + y * y <= 1.0:
                    pts.append((x, y))
                    break
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        target = rng.uniform(min_diameter, max_diameter)
        scale = target / diameter(hull)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        out = [(scale * (c * x - s * y), scale * (s * x + c * y)) for x, y in hull]
        try:
            validate_convex_ccw(out)
        except ValueError:
            continue  # scaling can collapse near-collinear corners
        return out


def translate(vertices: Sequence[Point], dx: float, dy: float) -> list[Point]:
    return [(x + dx, y + dy) for x, y in vertices]


def random_polygon_pair(rng: random.Random,
                        center_distance: tuple[float, float] = (0.2, 3.5)) -> tuple[list[Point], list[Point]]:
    """A pair in general position: mix of separated, touching-ish and
    overlapping placements.

    Pairs where one polygon fully contains the other are resampled, as they
    were when the clearance surrogate measured boundary to boundary, so the
    frozen accuracy suites keep their draws; nested pairs are tested on
    their own.
    """
    while True:
        a = random_convex_polygon(rng)
        b = random_convex_polygon(rng)
        r = rng.uniform(*center_distance)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        b = translate(b, r * math.cos(phi), r * math.sin(phi))
        if polygon_contains_polygon(a, b) or polygon_contains_polygon(b, a):
            continue
        return a, b


def pair_for_index(seed: int, index: int) -> tuple[list[Point], list[Point]]:
    """Deterministic pair keyed by (seed, index); independent of which
    other pairs are drawn, or in what order."""
    return random_polygon_pair(random.Random(seed * 1_000_003 + index))
