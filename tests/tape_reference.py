"""Reference copies of placement and the smoothness penalty as generic
tape arithmetic.

These are ``PolygonTemplate.at`` and ``optimize._smoothness_penalty`` as
they were before each placed vertex coordinate, and the whole penalty,
became one tape node: every product, sum and difference is a ``Var``
operator node. The bodies are kept verbatim so the one-node versions can be
checked against them for equal values and equal adjoints, bit for bit.
"""
from polystl import autodiff as ad
from polystl.autodiff import Scalar
from polystl.geometry import ConvexPolygon, Pose2D, PolygonTemplate


def place(template: PolygonTemplate, pose: Pose2D) -> ConvexPolygon:
    c = ad.cos(pose.theta)
    s = ad.sin(pose.theta)
    world = []
    for lx, ly in template.local_vertices:
        world.append((pose.x + c * lx - s * ly,
                      pose.y + s * lx + c * ly))
    return ConvexPolygon(world)


def smoothness_penalty(problem, poses: dict[str, list[tuple]]) -> Scalar:
    total: Scalar = 0.0
    for m in problem.movables:
        ps = poses[m.name]
        for t in range(1, len(ps) - 1):
            ddx = ps[t + 1][0] - 2.0 * ps[t][0] + ps[t - 1][0]
            ddy = ps[t + 1][1] - 2.0 * ps[t][1] + ps[t - 1][1]
            # second difference of heading built from wrapped increments so
            # a crossing of +-pi does not register as a jump
            d1 = ad.wrap_angle(ps[t + 1][2] - ps[t][2])
            d0 = ad.wrap_angle(ps[t][2] - ps[t - 1][2])
            ddt = d1 - d0
            total = total + ad.square(ddx) + ad.square(ddy) + ad.square(ddt)
    return total
