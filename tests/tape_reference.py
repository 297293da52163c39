"""Reference copies of code paths that used to run on generic tape
arithmetic.

``smoothness_penalty`` is ``optimize._smoothness_penalty`` as it was before
the whole penalty became one tape node: every product, sum and difference
is a ``Var`` operator node (``geometry_reference.place`` does the same for
placement). ``tape_ascent`` is the margin
ascent of ``mining.learn_margins`` as it was before its gradient became
closed form: each iteration records the full soft-min over every stacked
residual on a fresh tape. The bodies are kept verbatim so the current
versions can be checked against them for equal values and equal adjoints,
bit for bit.
"""
from polystl import autodiff as ad
from polystl.autodiff import Scalar


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


def tape_ascent(retained, tau=1e-3, step_size=5e-3, iterations=3000,
                penalty_weight=50.0):
    """Reference margin ascent: each iteration records the objective on a
    fresh tape and takes its gradient with one reverse sweep."""
    eps = [0.0] * len(retained)
    decay_from = int(0.7 * iterations)
    for it in range(iterations):
        step = step_size
        if it >= decay_from:
            step /= 1.0 + 9.0 * (it - decay_from) / max(1, iterations - decay_from)
        tape = ad.Tape()
        evars = [tape.var(e) for e in eps]
        residuals = [r.per_demo[j] - evars[k]
                     for k, r in enumerate(retained)
                     for j in range(len(r.per_demo))]
        slack = ad.lse_min(residuals, tau)
        objective = sum(evars) - penalty_weight * ad.relu(-slack)
        grads = ad.backward(objective)
        eps = [max(0.0, e + step * grads.wrt(v)) for e, v in zip(eps, evars)]
    return eps
