"""Scenario and demonstration files, CSV emission, run manifests.

Scenario files are JSON with a fixed schema; unknown keys anywhere in the
document are rejected so typos fail loudly instead of silently changing a
run. All CSV numbers are serialized with 17 significant digits, which
round-trips doubles exactly, so re-running a seeded command reproduces
its outputs byte for byte.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields as dc_fields
from typing import Optional, Sequence

from . import __version__
from .autodiff import wrap_angle
from .exactgeo import GeometryError
from .formulas import Formula, FormulaError, Trajectory, parse
from .geometry import ConvexPolygon, PolygonTemplate
from .mining import DemonstrationSet, LearnedMargin, MiningError, Phase, RetainedFormula
from .optimize import (Movable, OptimizationError, OptimizerConfig, PoseTriple, Problem,
                       TraceRow)
from .predicates import AxisAlignedBox3, Scene, SceneError, SceneObject


class ScenarioFileError(ValueError):
    """Schema violation; message names the offending key or object."""


def fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return format(float(x), ".17g")


def _require_keys(mapping: dict, required: Sequence[str], optional: Sequence[str],
                  where: str) -> None:
    for k in required:
        if k not in mapping:
            raise ScenarioFileError(f"{where}: missing key {k!r}")
    allowed = set(required) | set(optional)
    for k in mapping:
        if k not in allowed:
            raise ScenarioFileError(f"{where}: unknown key {k!r}")


def _objects(meta: dict, key: str, where: str) -> list[dict]:
    raw = meta[key]
    if not isinstance(raw, list) or not all(isinstance(x, dict) for x in raw):
        raise ScenarioFileError(f"{where}: {key} must be a list of objects")
    return raw


def _finite_floats(cells, where: str) -> tuple[float, ...]:
    """Floats of ``cells``; a cell that is not a number, NaN or infinity is
    an input error at ``where`` (JSON and ``float()`` both accept the last
    two)."""
    try:
        values = tuple(float(c) for c in cells)
    except ValueError:
        raise ScenarioFileError(f"{where}: not a number in {list(cells)}") from None
    if not all(math.isfinite(v) for v in values):
        raise ScenarioFileError(f"{where}: non-finite number in {list(cells)}")
    return values


def _step(cell: str, where: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ScenarioFileError(f"{where}: step {cell!r} is not an integer") from None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _numbers(raw, count: int, shape: str, where: str) -> tuple[float, ...]:
    """A JSON list of ``count`` finite numbers, described as ``shape``."""
    if (not isinstance(raw, (list, tuple)) or len(raw) != count
            or not all(_is_number(c) for c in raw)):
        raise ScenarioFileError(f"{where}: must be {shape}")
    return _finite_floats(raw, where)


def _as_pose(raw, where: str) -> PoseTriple:
    return _numbers(raw, 3, "[x, y, theta]", where)


def _interpolated_poses(start: PoseTriple, end: PoseTriple, n: int) -> list[PoseTriple]:
    """Linear sweep with the heading taking the short way around."""
    dth = wrap_angle(end[2] - start[2])
    out = []
    for t in range(n):
        f = t / (n - 1) if n > 1 else 0.0
        out.append((start[0] + f * (end[0] - start[0]),
                    start[1] + f * (end[1] - start[1]),
                    start[2] + f * dth))
    return out


def _parse_shape(raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ScenarioFileError(f"{where}: shape must be an object")
    _require_keys(raw, ["kind"], ["vertices", "lo", "hi"], where)
    kind = raw["kind"]
    if kind == "polygon":
        if "vertices" not in raw:
            raise ScenarioFileError(f"{where}: polygon needs vertices")
        if "lo" in raw or "hi" in raw:
            raise ScenarioFileError(f"{where}: polygon does not take box corners")
        verts = raw["vertices"]
        if not isinstance(verts, (list, tuple)):
            raise ScenarioFileError(f"{where}: vertices must be a list of [x, y] pairs")
        return ("polygon", [_numbers(v, 2, "[x, y]", f"{where}: vertices[{k}]")
                            for k, v in enumerate(verts)])
    if kind == "box":
        if "lo" not in raw or "hi" not in raw:
            raise ScenarioFileError(f"{where}: box needs lo and hi corners")
        if "vertices" in raw:
            raise ScenarioFileError(f"{where}: box does not take vertices")
        lo = _numbers(raw["lo"], 3, "[x, y, z]", f"{where}: lo")
        hi = _numbers(raw["hi"], 3, "[x, y, z]", f"{where}: hi")
        return ("box", (lo, hi))
    raise ScenarioFileError(f"{where}: unknown shape kind {kind!r}")


@dataclass
class Scenario:
    name: str
    horizon: int
    formula_text: str
    formula: Formula
    problem: Problem
    optimizer: OptimizerConfig
    goal_names: frozenset[str]  # enclosure containers, styled specially in renders


# what an optimizer override must be, by the type of the field's default
_OVERRIDE_TYPES = {
    int: ("an integer", _is_integer),
    float: ("a number", _is_number),   # OptimizerConfig checks the range
}


def _optimizer_from_overrides(raw: dict, where: str) -> OptimizerConfig:
    if not isinstance(raw, dict):
        raise ScenarioFileError(f"{where}: optimizer must be an object")
    defaults = {f.name: f.default for f in dc_fields(OptimizerConfig)}
    for k, v in raw.items():
        if k not in defaults:
            raise ScenarioFileError(f"{where}: unknown optimizer key {k!r}")
        what, ok = _OVERRIDE_TYPES[type(defaults[k])]
        if not ok(v):
            raise ScenarioFileError(f"{where}: optimizer key {k!r} must be {what}, got {v!r}")
    try:
        return OptimizerConfig(**raw)
    except OptimizationError as exc:
        raise ScenarioFileError(f"{where}: optimizer: {exc}") from None


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFileError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(doc, where=os.path.basename(path))


def scenario_from_dict(doc: dict, where: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFileError(f"{where}: must be a JSON object")
    _require_keys(doc, ["name", "horizon", "formula", "objects"],
                  ["optimizer"], where)
    if not isinstance(doc["name"], str):
        raise ScenarioFileError(f"{where}: name must be a string")
    horizon = doc["horizon"]
    if not _is_integer(horizon) or horizon < 1:
        raise ScenarioFileError(f"{where}: horizon must be a positive integer")
    if not isinstance(doc["formula"], str):
        raise ScenarioFileError(f"{where}: formula must be a string")
    try:
        formula = parse(doc["formula"])
    except FormulaError as exc:
        raise ScenarioFileError(f"{where}: formula does not parse: {exc}") from None

    statics: list[SceneObject] = []
    movables: list[Movable] = []
    for i, raw in enumerate(_objects(doc, "objects", where)):
        oid = f"{where}: objects[{i}]"
        _require_keys(raw, ["name", "role", "shape"],
                      ["heading", "start", "end", "poses"], oid)
        name = raw["name"]
        if not isinstance(name, str):
            raise ScenarioFileError(f"{oid}: name must be a string")
        kind, data = _parse_shape(raw["shape"], f"{oid} ({name})")
        if raw["role"] == "static":
            for k in ("start", "end", "poses"):
                if k in raw:
                    raise ScenarioFileError(f"{oid}: static object does not take {k!r}")
            try:
                shape = ConvexPolygon(data) if kind == "polygon" else AxisAlignedBox3(*data)
            except (GeometryError, SceneError) as exc:
                raise ScenarioFileError(f"{oid} ({name}): {exc}") from None
            heading = None
            if "heading" in raw:
                heading = _numbers(raw["heading"], 2, "[ux, uy]",
                                   f"{oid}: object {name!r}: heading")
            statics.append(SceneObject(name, shape, heading))
        elif raw["role"] == "movable":
            if kind != "polygon":
                raise ScenarioFileError(
                    f"{oid}: movables are planar polygon templates, not boxes")
            if "heading" in raw:
                raise ScenarioFileError(
                    f"{oid}: movable heading comes from its pose, drop the key")
            try:
                template = PolygonTemplate(data)
            except GeometryError as exc:
                raise ScenarioFileError(f"{oid} ({name}): {exc}") from None
            if "poses" in raw:
                if "start" in raw or "end" in raw:
                    raise ScenarioFileError(f"{oid}: give poses or start/end, not both")
                if not isinstance(raw["poses"], list):
                    raise ScenarioFileError(f"{oid}: poses must be a list of [x, y, theta]")
                poses = [_as_pose(p, f"{oid}: object {name!r}: poses[{k}]")
                         for k, p in enumerate(raw["poses"])]
                if len(poses) != horizon + 1:
                    raise ScenarioFileError(
                        f"{oid}: poses must list horizon+1 = {horizon + 1} entries, "
                        f"got {len(poses)}")
            else:
                if "start" not in raw or "end" not in raw:
                    raise ScenarioFileError(f"{oid}: movable needs poses or start+end")
                poses = _interpolated_poses(
                    _as_pose(raw["start"], f"{oid}: object {name!r}: start"),
                    _as_pose(raw["end"], f"{oid}: object {name!r}: end"), horizon + 1)
            movables.append(Movable(name, template, poses))
        else:
            raise ScenarioFileError(f"{oid}: role must be 'static' or 'movable'")

    opt = _optimizer_from_overrides(doc.get("optimizer", {}), where)
    try:
        problem = Problem(formula, statics, movables)
    except Exception as exc:
        raise ScenarioFileError(f"{where}: {exc}") from None
    if problem.horizon != horizon:
        raise ScenarioFileError(
            f"{where}: horizon {horizon} but movable poses span {problem.horizon}")

    goal_names = frozenset(
        atom.objects[1] for atom in _enclosure_atoms(formula))
    return Scenario(doc["name"], horizon, doc["formula"], formula, problem,
                    opt, goal_names)


def _enclosure_atoms(formula: Formula):
    from .formulas import atoms_of
    from .predicates import PredicateKind
    return [a for a in atoms_of(formula) if a.kind is PredicateKind.ENCL_IN]


# -- trajectory CSV ---------------------------------------------------------------

TRAJECTORY_HEADER = ["t", "object", "x", "y", "theta"]


def write_trajectory_csv(path: str, poses: dict[str, list[PoseTriple]]) -> None:
    """Rows ordered by step then by object name; fixed column order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJECTORY_HEADER)
        horizon = max(len(ps) for ps in poses.values()) - 1
        for t in range(horizon + 1):
            for name in sorted(poses):
                x, y, th = poses[name][t]
                w.writerow([t, name, fmt(x), fmt(y), fmt(th)])


def read_trajectory_csv(path: str, expected_objects: Sequence[str],
                        horizon: int) -> dict[str, list[PoseTriple]]:
    """Inverse of write_trajectory_csv; every object must cover 0..horizon."""
    rows: dict[str, dict[int, PoseTriple]] = {name: {} for name in expected_objects}
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != TRAJECTORY_HEADER:
            raise ScenarioFileError(f"{path}: expected header {TRAJECTORY_HEADER}")
        for lineno, row in enumerate(r, start=2):
            if len(row) != 5:
                raise ScenarioFileError(f"{path}:{lineno}: expected 5 columns")
            t = _step(row[0], f"{path}:{lineno}")
            name = row[1]
            if name not in rows:
                raise ScenarioFileError(f"{path}:{lineno}: unknown object {name!r}")
            if t in rows[name]:
                raise ScenarioFileError(f"{path}:{lineno}: duplicate step {t} for {name!r}")
            rows[name][t] = _finite_floats(row[2:], f"{path}:{lineno}")
    out = {}
    for name, by_t in rows.items():
        missing = [t for t in range(horizon + 1) if t not in by_t]
        if missing:
            raise ScenarioFileError(
                f"{path}: object {name!r} missing steps {missing[:5]}"
                + ("..." if len(missing) > 5 else ""))
        out[name] = [by_t[t] for t in range(horizon + 1)]
    return out


# -- optimization trace CSV ---------------------------------------------------------

TRACE_HEADER = ["iteration", "loss", "rho_smooth", "rho_exact", "grad_norm", "tau"]


def write_trace_csv(path: str, trace: Sequence[TraceRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for row in trace:
            w.writerow([row.iteration, fmt(row.loss), fmt(row.robustness_smooth),
                        fmt(row.robustness_exact), fmt(row.gradient_norm), fmt(row.tau)])


# -- accuracy CSV -------------------------------------------------------------------

ACCURACY_HEADER = ["pair", "tau", "samples", "quantity", "exact", "smooth", "abs_error"]
ACCURACY_SUMMARY_HEADER = ["quantity", "tau", "samples", "max_abs_error",
                           "mean_abs_error"]


def write_accuracy_csv(path: str, rows: Sequence[tuple]) -> None:
    """rows: (pair, tau, samples, quantity, exact, smooth)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ACCURACY_HEADER)
        for pair, tau, samples, quantity, exact, smooth in rows:
            w.writerow([pair, fmt(tau), samples, quantity, fmt(exact), fmt(smooth),
                        fmt(abs(smooth - exact))])


def accuracy_summary(rows: Sequence[tuple]) -> list[tuple]:
    """(quantity, tau, samples, max_abs_error, mean_abs_error), sorted."""
    groups: dict[tuple, list[float]] = {}
    for pair, tau, samples, quantity, exact, smooth in rows:
        groups.setdefault((quantity, tau, samples), []).append(abs(smooth - exact))
    out = []
    for (quantity, tau, samples), errs in sorted(groups.items()):
        out.append((quantity, tau, samples, max(errs), math.fsum(errs) / len(errs)))
    return out


def write_accuracy_summary_csv(path: str, rows: Sequence[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ACCURACY_SUMMARY_HEADER)
        for quantity, tau, samples, mx, mean in rows:
            w.writerow([quantity, fmt(tau), samples, fmt(mx), fmt(mean)])


# -- mining report CSV ---------------------------------------------------------------

MINING_HEADER = ["phase", "obstacle", "temporal", "relation", "window_lo", "window_hi",
                 "worst_robustness", "margin", "margin_estimate"]


def write_mining_csv(path: str, retained: Sequence[RetainedFormula],
                     margins: Sequence[LearnedMargin]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MINING_HEADER)
        for r, m in zip(retained, margins):
            c = r.candidate
            w.writerow([c.phase.name, c.obstacle, c.temporal, c.kind.value,
                        c.phase.lo, c.phase.hi, fmt(r.worst), fmt(m.margin),
                        fmt(m.margin_estimate)])


# -- demonstration files --------------------------------------------------------------

DEMO_HEADER = ["t", "object", "x", "y", "z"]
DEMO_META_NAME = "meta.json"


def write_demo_dir(path: str, demos: DemonstrationSet) -> list[str]:
    """meta.json plus one CSV of subject box centers per demonstration."""
    os.makedirs(path, exist_ok=True)
    first = demos.trajectories[0].scene(0)
    subject_box = first.get(demos.subject).shape
    half = tuple((h - l) / 2.0 for l, h in zip(subject_box.lo, subject_box.hi))
    meta = {
        "subject": demos.subject,
        "subject_half": list(half),
        "obstacles": [{"name": n,
                       "lo": list(first.get(n).shape.lo),
                       "hi": list(first.get(n).shape.hi)}
                      for n in demos.obstacles],
        "phases": [{"name": p.name, "lo": p.lo, "hi": p.hi} for p in demos.phases],
    }
    meta_path = os.path.join(path, DEMO_META_NAME)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [meta_path]
    for i, traj in enumerate(demos.trajectories):
        fpath = os.path.join(path, f"demo_{i:03d}.csv")
        with open(fpath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(DEMO_HEADER)
            for t in range(traj.horizon + 1):
                box = traj.scene(t).get(demos.subject).shape
                cx, cy, cz = ((l + h) / 2.0 for l, h in zip(box.lo, box.hi))
                w.writerow([t, demos.subject, fmt(cx), fmt(cy), fmt(cz)])
        written.append(fpath)
    return written


def read_demo_dir(path: str) -> DemonstrationSet:
    meta_path = os.path.join(path, DEMO_META_NAME)
    if not os.path.exists(meta_path):
        raise ScenarioFileError(f"{path}: no {DEMO_META_NAME}")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFileError(f"{meta_path}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ScenarioFileError(f"{meta_path}: must be a JSON object")
    _require_keys(meta, ["subject", "subject_half", "obstacles", "phases"], [],
                  meta_path)
    half = _numbers(meta["subject_half"], 3, "[hx, hy, hz]", f"{meta_path}: subject_half")
    if min(half) < 0.0:
        raise ScenarioFileError(f"{meta_path}: subject_half: half-sizes must not be negative")
    statics = []
    for raw in _objects(meta, "obstacles", meta_path):
        _require_keys(raw, ["name", "lo", "hi"], [], f"{meta_path} obstacle")
        if not isinstance(raw["name"], str):
            raise ScenarioFileError(f"{meta_path}: obstacle name must be a string")
        if any(s.name == raw["name"] for s in statics):
            raise ScenarioFileError(f"{meta_path}: duplicate obstacle name {raw['name']!r}")
        where = f"{meta_path}: obstacle {raw['name']!r}"
        lo = _numbers(raw["lo"], 3, "[x, y, z]", f"{where}: lo")
        hi = _numbers(raw["hi"], 3, "[x, y, z]", f"{where}: hi")
        try:
            statics.append(SceneObject(raw["name"], AxisAlignedBox3(lo, hi)))
        except SceneError as exc:
            raise ScenarioFileError(f"{where}: {exc}") from None
    phases = []
    for raw in _objects(meta, "phases", meta_path):
        _require_keys(raw, ["name", "lo", "hi"], [], f"{meta_path} phase")
        if not isinstance(raw["name"], str):
            raise ScenarioFileError(f"{meta_path}: phase name must be a string")
        if not (_is_integer(raw["lo"]) and _is_integer(raw["hi"])):
            raise ScenarioFileError(
                f"{meta_path}: phase {raw['name']!r}: lo and hi must be integers")
        try:
            phases.append(Phase(raw["name"], raw["lo"], raw["hi"]))
        except MiningError as exc:
            raise ScenarioFileError(f"{meta_path}: {exc}") from None

    demo_files = sorted(f for f in os.listdir(path)
                        if f.startswith("demo_") and f.endswith(".csv"))
    if not demo_files:
        raise ScenarioFileError(f"{path}: no demo_*.csv files")
    subject = meta["subject"]
    if any(s.name == subject for s in statics):
        raise ScenarioFileError(f"{meta_path}: subject {subject!r} is also an obstacle name")
    trajectories = []
    for fname in demo_files:
        fpath = os.path.join(path, fname)
        centers: dict[int, tuple[float, float, float]] = {}
        with open(fpath, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header != DEMO_HEADER:
                raise ScenarioFileError(f"{fpath}: expected header {DEMO_HEADER}")
            for lineno, row in enumerate(r, start=2):
                if len(row) != 5 or row[1] != subject:
                    raise ScenarioFileError(
                        f"{fpath}:{lineno}: rows must name the subject {subject!r}")
                t = _step(row[0], f"{fpath}:{lineno}")
                if t in centers:
                    raise ScenarioFileError(f"{fpath}:{lineno}: duplicate step {t}")
                centers[t] = _finite_floats(row[2:], f"{fpath}:{lineno}")
        horizon = max(centers)
        if sorted(centers) != list(range(horizon + 1)):
            raise ScenarioFileError(f"{fpath}: steps must cover 0..{horizon} without gaps")
        scenes = []
        for t in range(horizon + 1):
            arm = AxisAlignedBox3.from_center(*centers[t], half)
            scenes.append(Scene([SceneObject(subject, arm)] + statics))
        trajectories.append(Trajectory(scenes))
    return DemonstrationSet(subject, [s.name for s in statics], phases, trajectories)


# -- run manifest ---------------------------------------------------------------------


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str, command: str, seed: Optional[int], config: dict,
                   inputs: Sequence[str], outputs: Sequence[str],
                   timestamp: Optional[str] = None) -> None:
    """Inputs and outputs are hashed; the manifest pins everything needed
    to reproduce the run (the timestamp is informational only)."""
    doc = {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {os.path.basename(p): sha256_file(p) for p in sorted(inputs)},
        "outputs": {os.path.basename(p): sha256_file(p) for p in sorted(outputs)},
        "timestamp": timestamp,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
