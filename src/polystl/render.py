"""Minimal SVG snapshots of a trajectory.

Each frame is one self-contained SVG: every static object is one filled
path, the movable objects are one path apiece whose subpaths are the
polygon at each time step, and a polyline traces each movable's centroid
through time. Enclosure containers named by the formula are tinted as
goal regions. Geometry is emitted in world coordinates with a flipped y
axis so the picture reads the usual way up.
"""
from __future__ import annotations

import os
from typing import Iterable, Sequence

from .exactgeo import centroid
from .geometry import ConvexPolygon, Pose2D
from .optimize import PoseTriple, Problem
from .predicates import AxisAlignedBox3

_STATIC_FILL = "#9aa4ad"
_GOAL_FILL = "#8fd19e"
_MOVABLE_FILLS = ["#4c78a8", "#b5651d", "#7b5aa6", "#2f8f8f"]
_MARGIN = 0.8


def _polygon_points(shape) -> list[tuple[float, float]]:
    if isinstance(shape, ConvexPolygon):
        return shape.float_vertices()
    if isinstance(shape, AxisAlignedBox3):
        # xy footprint of the box
        (x0, y0, _), (x1, y1, _) = shape.lo, shape.hi
        return [(float(x0), float(y0)), (float(x1), float(y0)),
                (float(x1), float(y1)), (float(x0), float(y1))]
    raise TypeError(f"cannot render shape {type(shape).__name__}")


def _subpath(points: Sequence[tuple[float, float]]) -> str:
    coords = " L ".join(f"{x:.4f} {-y:.4f}" for x, y in points)
    return f"M {coords} Z"


def render_frame(problem: Problem, poses: dict[str, list[PoseTriple]],
                 goal_names: frozenset = frozenset(), title: str = "") -> str:
    """One SVG document as a string."""
    static_pts = {s.name: _polygon_points(s.shape) for s in problem.statics}
    movable_pts: dict[str, list[list[tuple[float, float]]]] = {}
    for m in problem.movables:
        frames = []
        for x, y, theta in poses[m.name]:
            frames.append(m.template.at(Pose2D(x, y, theta)).float_vertices())
        movable_pts[m.name] = frames

    all_pts = [p for pts in static_pts.values() for p in pts]
    all_pts += [p for frames in movable_pts.values() for f in frames for p in f]
    xs = [p[0] for p in all_pts]
    ys = [-p[1] for p in all_pts]
    x0, x1 = min(xs) - _MARGIN, max(xs) + _MARGIN
    y0, y1 = min(ys) - _MARGIN, max(ys) + _MARGIN

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.4f} {y0:.4f} {x1 - x0:.4f} {y1 - y0:.4f}" '
        f'width="640" height="{640 * (y1 - y0) / (x1 - x0):.0f}">',
    ]
    if title:
        parts.append(f'<title>{title}</title>')
    for name, pts in sorted(static_pts.items()):
        fill = _GOAL_FILL if name in goal_names else _STATIC_FILL
        parts.append(f'<path id="{name}" d="{_subpath(pts)}" fill="{fill}" '
                     f'stroke="#333333" stroke-width="0.02"/>')
    for k, (name, frames) in enumerate(sorted(movable_pts.items())):
        fill = _MOVABLE_FILLS[k % len(_MOVABLE_FILLS)]
        d = " ".join(_subpath(f) for f in frames)
        parts.append(f'<path id="{name}" d="{d}" fill="{fill}" fill-opacity="0.25" '
                     f'stroke="{fill}" stroke-width="0.015"/>')
        trail = " ".join(f"{cx:.4f},{-cy:.4f}"
                         for cx, cy in (centroid(f) for f in frames))
        parts.append(f'<polyline id="{name}-trail" points="{trail}" fill="none" '
                     f'stroke="{fill}" stroke-width="0.03"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_frames(out_dir: str, problem: Problem,
                 snapshots: Iterable[tuple[str, dict[str, list[PoseTriple]]]],
                 goal_names: frozenset = frozenset()) -> list[str]:
    """One file per snapshot; labels become filenames frame_<label>.svg."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for label, poses in snapshots:
        path = os.path.join(out_dir, f"frame_{label}.svg")
        with open(path, "w") as fh:
            fh.write(render_frame(problem, poses, goal_names, title=label))
        written.append(path)
    return written
