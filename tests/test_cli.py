"""End-to-end command-line checks on small workloads.

The shipped scenarios get their full-budget runs in the acceptance
suite; here optimize runs with clipped iteration counts so the whole file
stays fast.
"""
import contextlib
import csv
import io
import json
import math
import os
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from polystl import cli, formulas
from polystl.cli import main
from polystl.formulas import FormulaError, atoms_of, eval_exact, eval_smooth
from polystl.geometry import SmoothingConfig
from polystl.mining import make_demo_set
from polystl.optimize import build_trajectory
from polystl.render import render_frame
from polystl.scenario import (fmt, load_scenario, sha256_file, write_demo_dir,
                              write_trajectory_csv)

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(HERE, "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIOS, f"{name}.json")


class TestEval:
    def test_violating_initial_trajectory_exits_1(self, capsys):
        rc = main(["eval", scenario_path("free_space")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "VIOLATED" in out
        assert "robustness (exact)" in out

    def test_breakdown_lists_anchor_steps(self, capsys):
        rc = main(["eval", scenario_path("free_space"), "--breakdown"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "t=   0" in out and "t=  12" in out

    @pytest.mark.parametrize("mode", ["exact", "smooth"])
    def test_breakdown_matches_fresh_evaluations(self, mode, capsys):
        rc = main(["eval", scenario_path("single_obstacle"), "--breakdown",
                   "--mode", mode, "--tau", "0.02"])
        out = capsys.readouterr().out
        assert rc == 1
        printed = out.split("per-step breakdown")[1].splitlines()[1:-1]
        scn = load_scenario(scenario_path("single_obstacle"))
        traj = build_trajectory(scn.problem, {m.name: list(m.initial_poses)
                                              for m in scn.problem.movables})
        expected = []
        for t in range(traj.horizon + 1):
            try:
                if mode == "smooth":
                    v = eval_smooth(scn.formula, traj, t=t, cfg=SmoothingConfig(tau=0.02))
                else:
                    v = eval_exact(scn.formula, traj, t=t)
            except FormulaError:
                break
            expected.append(f"  t={t:4d}  {fmt(v.value)}")
        assert len(expected) == 17
        assert printed == expected

    @staticmethod
    def _atom_calls(monkeypatch, argv):
        """(smooth, atom, scene) per atom evaluation of one eval command;
        each step of the trajectory is its own scene object."""
        calls = []
        real = formulas.atom_robustness

        def counting(scene, kind, names, params, smooth, cfg):
            calls.append((smooth, kind, tuple(names), params, id(scene)))
            return real(scene, kind, names, params, smooth, cfg)

        monkeypatch.setattr(formulas, "atom_robustness", counting)
        assert main(argv) == 1
        return calls

    def test_breakdown_evaluates_each_atom_once_per_step(self, monkeypatch, capsys):
        calls = self._atom_calls(monkeypatch,
                                 ["eval", scenario_path("single_obstacle"), "--breakdown"])
        capsys.readouterr()
        scn = load_scenario(scenario_path("single_obstacle"))
        steps = scn.horizon + 1
        assert len(atoms_of(scn.formula)) * steps == 34
        assert len(set(calls)) == len(calls)   # no (atom, step) twice, in either mode
        exact = [c for c in calls if not c[0]]
        assert len(exact) == 34
        # the exact values let the smooth windows skip steps with no weight
        assert len(calls) - len(exact) < 34

    def test_smooth_breakdown_evaluates_each_atom_once_per_step(self, monkeypatch, capsys):
        # re-anchored smooth windows compute the steps skipped at t=0 on demand
        calls = self._atom_calls(monkeypatch, ["eval", scenario_path("single_obstacle"),
                                               "--breakdown", "--mode", "smooth"])
        capsys.readouterr()
        assert len(set(calls)) == len(calls)
        assert sum(1 for c in calls if not c[0]) == 34

    def test_smooth_mode_accepted(self, capsys):
        rc = main(["eval", scenario_path("free_space"), "--mode", "smooth",
                   "--tau", "0.005"])
        out = capsys.readouterr().out
        assert rc == 1   # exit code still follows the exact verdict
        assert "tau=0.005" in out

    def test_missing_scenario_exits_2(self, capsys):
        rc = main(["eval", os.path.join(SCENARIOS, "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_start_pose_exits_2(self, tmp_path, capsys):
        with open(scenario_path("single_obstacle")) as fh:
            doc = json.load(fh)
        doc["objects"][0]["start"] = [float("nan"), 0.0, 0.0]
        path = tmp_path / "nan_start.json"
        path.write_text(json.dumps(doc))   # json writes the bare NaN token
        rc = main(["eval", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "verdict" not in out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "object 'ee': start: non-finite number" in err

    def test_infinite_listed_pose_names_its_index(self, tmp_path, capsys):
        with open(scenario_path("single_obstacle")) as fh:
            doc = json.load(fh)
        ee = doc["objects"][0]
        start, end = ee.pop("start"), ee.pop("end")
        ee["poses"] = [start] * 8 + [[end[0], float("inf"), end[2]]] + [end] * 8
        path = tmp_path / "inf_pose.json"
        path.write_text(json.dumps(doc))   # json writes the bare Infinity token
        rc = main(["eval", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "verdict" not in out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "object 'ee': poses[8]: non-finite number" in err

    def test_nan_trajectory_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trajectory.csv"
        rows = ["t,object,x,y,theta"]
        rows += [f"{t},ee,{0.5 + 0.25 * t!r},2,0" for t in range(17)]
        rows[2] = "1,ee,nan,2,0"
        path.write_text("\n".join(rows) + "\n")
        rc = main(["eval", scenario_path("single_obstacle"),
                   "--trajectory", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "verdict" not in out
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{path}:3: non-finite number" in err

    @pytest.mark.parametrize("row, where", [
        ("1,ee,abc,2,0", "not a number in ['abc', '2', '0']"),
        ("x,ee,0.75,2,0", "step 'x' is not an integer"),
    ])
    def test_non_numeric_trajectory_cell_names_its_line(self, tmp_path, capsys, row, where):
        path = tmp_path / "trajectory.csv"
        rows = ["t,object,x,y,theta"]
        rows += [f"{t},ee,{0.5 + 0.25 * t!r},2,0" for t in range(17)]
        rows[2] = row
        path.write_text("\n".join(rows) + "\n")
        rc = main(["eval", scenario_path("single_obstacle"),
                   "--trajectory", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: {path}:3: {where}\n"

    def test_satisfied_after_optimize_exits_0(self, tmp_path, capsys):
        rc = main(["optimize", scenario_path("free_space"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rc = main(["eval", scenario_path("free_space"),
                   "--trajectory", str(tmp_path / "trajectory.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SATISFIED" in out

    @pytest.mark.parametrize("name", ["corridor", "free_space", "single_obstacle"])
    def test_reads_the_scenario_smoothing_like_optimize(self, tmp_path, capsys, name):
        # both commands take their smoothing settings from the scenario, so
        # eval on optimize's best iterate prints optimize's smooth value
        main(["optimize", scenario_path(name), "--iterations", "20",
              "--out-dir", str(tmp_path)])
        best = capsys.readouterr().out.split("smooth robustness (best): ")[1].split("\n")[0]
        main(["eval", scenario_path(name), "--trajectory", str(tmp_path / "trajectory.csv")])
        out = capsys.readouterr().out
        assert f"robustness (smooth): {best}  [tau=0.005, S=8]\n" in out

    @pytest.mark.parametrize("step", [13, -1])
    def test_trajectory_step_outside_the_horizon_names_its_line(self, tmp_path, capsys, step):
        path = tmp_path / "trajectory.csv"
        rows = ["t,object,x,y,theta"]
        rows += [f"{t},ee,{0.5 + 0.25 * t!r},2,0" for t in range(13)]
        rows.append(f"{step},ee,9,9,0")
        path.write_text("\n".join(rows) + "\n")
        rc = main(["eval", scenario_path("free_space"), "--trajectory", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: {path}:15: step {step} outside 0..12\n"


class TestOptimize:
    def test_outputs_written_and_satisfied(self, tmp_path, capsys):
        rc = main(["optimize", scenario_path("free_space"),
                   "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SATISFIED" in out
        for fname in ("trajectory.csv", "trace.csv", "manifest.json",
                      "frame_000000.svg", "frame_final.svg"):
            assert (tmp_path / fname).exists(), fname

    def test_trace_has_contract_columns(self, tmp_path):
        main(["optimize", scenario_path("free_space"), "--out-dir", str(tmp_path),
              "--iterations", "3"])
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loss", "rho_smooth", "rho_exact", "grad_norm"]
        assert len(rows) == 4   # header + one row per iteration

    def test_unsatisfied_run_exits_1(self, tmp_path, capsys):
        rc = main(["optimize", scenario_path("corridor"), "--out-dir",
                   str(tmp_path), "--iterations", "2"])
        capsys.readouterr()
        assert rc == 1

    def test_svg_every_controls_frames(self, tmp_path):
        main(["optimize", scenario_path("free_space"), "--out-dir", str(tmp_path),
              "--iterations", "4", "--svg-every", "2"])
        frames = sorted(f for f in os.listdir(tmp_path) if f.endswith(".svg"))
        assert frames == ["frame_000000.svg", "frame_000002.svg",
                          "frame_final.svg"]

    def test_negative_svg_every_exits_2_writing_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["optimize", scenario_path("free_space"), "--out-dir", str(out_dir),
                   "--iterations", "2", "--svg-every", "-1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: --svg-every must be >= 0, got -1\n"
        assert not out_dir.exists()

    def test_manifest_records_config_and_hashes(self, tmp_path):
        main(["optimize", scenario_path("free_space"), "--out-dir", str(tmp_path),
              "--iterations", "3"])
        doc = json.load(open(tmp_path / "manifest.json"))
        assert doc["seed"] is None   # nothing in optimize is random
        assert doc["config"]["iterations"] == 3
        assert "trajectory.csv" in doc["outputs"]
        assert len(doc["outputs"]["trajectory.csv"]) == 64

    @pytest.mark.parametrize("flags, smoothing", [
        ([], {"tau": 0.02, "samples_per_edge": 4}),
        (["--tau", "0.03", "--samples", "2"], {"tau": 0.03, "samples_per_edge": 2})],
        ids=["scenario", "flags"])
    def test_smoothing_settings_reach_the_nested_manifest_config(self, tmp_path, flags,
                                                                 smoothing):
        # the scenario's flat smoothing keys and the --tau/--samples flags
        # both land in the config's smoothing block, next to the descent keys
        with open(scenario_path("free_space")) as fh:
            doc = json.load(fh)
        doc["optimizer"] = {"iterations": 2, "tau": 0.02, "samples_per_edge": 4}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        main(["optimize", str(path), "--out-dir", str(tmp_path / "out")] + flags)
        config = json.load(open(tmp_path / "out" / "manifest.json"))["config"]
        assert config == {"step_size": 0.05, "iterations": 2, "satisfaction_margin": 0.1,
                          "smoothness_weight": 0.01, "smoothing": smoothing}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["optimize", scenario_path("free_space"), "--out-dir",
                  str(out), "--iterations", "5"])
        for fname in ("trajectory.csv", "trace.csv", "frame_final.svg"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname


class TestRender:
    def test_frames_are_wellformed_with_one_path_per_object(self, tmp_path):
        main(["optimize", scenario_path("corridor"), "--out-dir", str(tmp_path),
              "--iterations", "2"])
        scn = load_scenario(scenario_path("corridor"))
        n_objects = len(scn.problem.statics) + len(scn.problem.movables)
        svgs = [f for f in os.listdir(tmp_path) if f.endswith(".svg")]
        assert svgs
        for fname in svgs:
            root = ET.parse(tmp_path / fname).getroot()
            paths = root.findall(".//{http://www.w3.org/2000/svg}path")
            assert len(paths) == n_objects, fname

    def test_goal_region_tinted_and_trail_present(self):
        scn = load_scenario(scenario_path("free_space"))
        poses = {m.name: list(m.initial_poses) for m in scn.problem.movables}
        svg = render_frame(scn.problem, poses, scn.goal_names)
        root = ET.fromstring(svg)
        fills = {el.get("id"): el.get("fill")
                 for el in root.iter("{http://www.w3.org/2000/svg}path")}
        assert fills["goal"] != fills["obs"]
        assert root.find(".//{http://www.w3.org/2000/svg}polyline") is not None


def _set(path, value):
    """A scenario edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return edit


MALFORMED = {
    "vertices_not_a_list": (_set(["objects", 0, "shape", "vertices"], 5),
                            "objects[0] (ee): vertices must be a list of [x, y] pairs"),
    "iterations_as_string": (_set(["optimizer", "iterations"], "5"),
                             "optimizer key 'iterations' must be an integer, got '5'"),
    "iterations_out_of_range": (_set(["optimizer", "iterations"], 0),
                                "optimizer: iterations must be >= 1"),
    "deeply_nested_formula": (lambda doc: doc.update(formula="(" * 2000 + doc["formula"]
                                                     + ")" * 2000),
                              "formula nests deeper than 100 levels at offset 100"),
    "horizon_true": (_set(["horizon"], True), "horizon must be a positive integer"),
    "infinite_threshold": (_set(["formula"], "G[0,16] closeTo(ee, goal; 1e999)"),
                           "non-finite number '1e999' at offset 26"),
    "nan_static_heading": (_set(["objects", 2, "heading"], [float("nan"), 0]),
                           "object 'obs': heading: non-finite number in [nan, 0]"),
    # a value of the wrong JSON type names its field
    "objects_a_number": (_set(["objects"], 5), "objects must be a list of objects"),
    "object_a_number": (_set(["objects"], [5]), "objects must be a list of objects"),
    "shape_a_number": (_set(["objects", 0, "shape"], 5),
                       "objects[0] (ee): shape must be an object"),
    "formula_a_number": (_set(["formula"], 5), "formula must be a string"),
    "name_a_list": (_set(["objects", 0, "name"], ["ee"]), "objects[0]: name must be a string"),
    "scenario_name_nan": (_set(["name"], float("nan")), "name must be a string"),
    # snapshots are chosen by --svg-every, not by the scenario
    "optimizer_snapshot_iterations": (_set(["optimizer", "snapshot_iterations"], [1, 2]),
                                      "unknown optimizer key 'snapshot_iterations'"),
    # keys of the deleted annealing, stall perturbation and seeds
    "optimizer_tau_start": (_set(["optimizer", "tau_start"], 0.005),
                            "unknown optimizer key 'tau_start'"),
    "optimizer_tau_end": (_set(["optimizer", "tau_end"], 0.001),
                          "unknown optimizer key 'tau_end'"),
    "optimizer_anneal_fraction": (_set(["optimizer", "anneal_fraction"], 0.5),
                                  "unknown optimizer key 'anneal_fraction'"),
    "optimizer_stall_patience": (_set(["optimizer", "stall_patience"], 5),
                                 "unknown optimizer key 'stall_patience'"),
    "optimizer_seed": (_set(["optimizer", "seed"], 0), "unknown optimizer key 'seed'"),
    "top_level_seed": (_set(["seed"], 0), "unknown key 'seed'"),
    # every optimizer field is checked at load, and the error names the key
    "optimizer_samples_per_edge_zero": (_set(["optimizer", "samples_per_edge"], 0),
                                        "optimizer: samples_per_edge must be >= 1, got 0"),
    "optimizer_smoothness_weight_negative": (
        _set(["optimizer", "smoothness_weight"], -5),
        "optimizer: smoothness_weight must be finite and >= 0, got -5"),
    "optimizer_satisfaction_margin_nan": (
        _set(["optimizer", "satisfaction_margin"], float("nan")),
        "optimizer key 'satisfaction_margin': non-finite number in [nan]"),
    # an integer too large for a float is an input error wherever it sits
    "huge_integer_start": (_set(["objects", 0, "start", 0], 10 ** 400),
                           f"object 'ee': start: number too large for a float in "
                           f"[{10 ** 400}, 2.0, 0.0]"),
    "huge_integer_vertex": (_set(["objects", 2, "shape", "vertices", 0, 1], 10 ** 400),
                            f"vertices[0]: number too large for a float in "
                            f"[2.5, {10 ** 400}]"),
    "huge_integer_static_heading": (_set(["objects", 2, "heading"], [10 ** 400, 0]),
                                    f"object 'obs': heading: number too large for a float "
                                    f"in [{10 ** 400}, 0]"),
    "huge_integer_smoothness_weight": (
        _set(["optimizer", "smoothness_weight"], 10 ** 400),
        f"optimizer key 'smoothness_weight': number too large for a float in [{10 ** 400}]"),
    "huge_integer_tau": (_set(["optimizer", "tau"], 10 ** 400),
                         f"optimizer key 'tau': number too large for a float in [{10 ** 400}]"),
    # the blend steepness is a constant of the semantics, not a setting
    "optimizer_sigmoid_scale": (_set(["optimizer", "sigmoid_scale"], 50),
                                "unknown optimizer key 'sigmoid_scale'"),
}


class TestMalformedScenario:
    """Every malformed scenario exits 2 with one error line, never 1 or a
    traceback, whichever command reads it."""

    @pytest.mark.parametrize("command", ["eval", "optimize"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, case, command):
        edit, message = MALFORMED[case]
        with open(scenario_path("single_obstacle")) as fh:
            doc = json.load(fh)
        edit(doc)
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "optimize":
            argv += ["--iterations", "1", "--out-dir", str(tmp_path / "out")]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {case}.json: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1

    def test_out_of_range_iterations_flag_exits_2(self, tmp_path, capsys):
        rc = main(["optimize", scenario_path("free_space"), "--iterations", "0",
                   "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == "error: iterations must be >= 1\n"


def _far_obstacle(tmp_path, vertices, formula):
    """single_obstacle.json with ``obs`` at ``vertices`` and ``formula``."""
    with open(scenario_path("single_obstacle")) as fh:
        doc = json.load(fh)
    doc["objects"][2]["shape"]["vertices"] = vertices
    doc["formula"] = formula
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    return str(path)


# their signed areas overflow to NaN and to inf; the smooth and exact values
# built on either would not be finite, or would decide a verdict from bad input
FAR_SQUARE = [[1e200, 1e200], [3e200, 1e200], [3e200, 3e200], [1e200, 3e200]]
HUGE_BOX = [[-1e200, -1e200], [1e200, -1e200], [1e200, 1e200], [-1e200, 1e200]]
# their areas and cross products are finite. The sliver's long edge has a
# squared length of inf, so the exact distance to it would be inf/inf = NaN;
# the square's squared vertex norms overflow, and so would the squared
# distances of the smooth geometry
LONG_SLIVER = [[-1e300, 1.0], [1e300, 1.0], [1e300, 1.5]]
FAR_DIAGONAL = [[1.2e154, -1.2e154], [1.3e154, -1.2e154], [1.3e154, -1.1e154],
                [1.2e154, -1.1e154]]
CLOCKWISE = [[3.0, 3.15], [3.5, 2.65], [3.0, 2.15], [2.5, 2.65]]


class TestRejectedObstacle:
    """An obstacle whose coordinates overflow the polygon checks, or whose
    vertices run clockwise, is rejected as it loads: exit 2 and one error
    line that names the object, whichever command reads it."""

    @pytest.mark.parametrize("command", ["eval", "optimize"])
    @pytest.mark.parametrize("obstacle, message", [
        (FAR_SQUARE, "signed area overflows (nan)"),
        (HUGE_BOX, "signed area overflows (inf)"),
        (LONG_SLIVER, "squared edge length at vertex 0 overflows (inf)"),
        (FAR_DIAGONAL, "squared norm of vertex 0 overflows (inf)"),
        (CLOCKWISE, "vertices are clockwise")],
        ids=["far_square", "huge_box", "long_sliver", "far_diagonal", "clockwise"])
    def test_exits_2_naming_the_object(self, tmp_path, capsys, command, obstacle, message):
        path = _far_obstacle(tmp_path, obstacle, "G[0,16] farFrom(ee, obs; 0.3)")
        argv = [command, path]
        if command == "optimize":
            argv += ["--iterations", "1", "--out-dir", str(tmp_path / "out")]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: far.json: objects[2] (obs): {message}")
        assert err.count("\n") == 1


class TestMisplacedPose:
    """A movable pose so far out that the template's offsets vanish against
    it places a degenerate polygon: exit 2, one error line that names the
    object and the step."""

    MESSAGE = "vertices are clockwise; counter-clockwise order required"

    @pytest.mark.parametrize("command", ["eval", "optimize"])
    def test_start_pose_names_the_object_and_step(self, tmp_path, capsys, command):
        with open(scenario_path("single_obstacle")) as fh:
            doc = json.load(fh)
        doc["objects"][0]["start"] = [1e200, 2.0, 0.0]
        path = tmp_path / "misplaced.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "optimize":
            argv += ["--iterations", "1", "--out-dir", str(tmp_path / "out")]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: object 'ee' at t=0: {self.MESSAGE}\n"

    def test_trajectory_row_names_the_object_and_step(self, tmp_path, capsys):
        scn = load_scenario(scenario_path("single_obstacle"))
        poses = {m.name: list(m.initial_poses) for m in scn.problem.movables}
        poses["ee"][5] = (1e200, 2.0, 0.0)
        path = str(tmp_path / "trajectory.csv")
        write_trajectory_csv(path, poses)
        rc = main(["eval", scenario_path("single_obstacle"), "--trajectory", path])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: object 'ee' at t=5: {self.MESSAGE}\n"


def _json_paths(node, prefix=()):
    """The path to every value in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check_outcome(rc, out, err):
    """A verdict (exit 0 or 1, nothing on stderr) or exit 2 with one
    ``error:`` line and nothing on stdout; never a traceback."""
    if rc == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert rc in (0, 1) and err == "" and "exact verdict: " in out, (rc, err)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
ODD_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(-5.0, 5.0),
                       st.sampled_from([1e200, -1e200, 1e308, 0.5]), st.text(max_size=3),
                       st.lists(st.integers(0, 3), max_size=3), st.just({}))
# deleting one of these keys always leaves the document invalid
REQUIRED_KEYS = {"name", "horizon", "formula", "objects", "role", "shape", "kind",
                 "vertices", "start", "end"}
NON_FINITE_CELLS = ["nan", "NaN", "inf", "-Infinity"]
ODD_CELLS = st.sampled_from(NON_FINITE_CELLS + ["1e200", "-1e200", "", "x", "1.5", "-1", "99",
                                                "ee", "0x10"])


class TestFuzzedInput:
    """Mutated scenario documents and trajectory CSVs, and the ``meta.json``
    and demo CSVs that ``learn DIR`` reads: wrong types, NaN, infinities and
    1e200, missing keys, cells and rows. Each either gets a verdict (for
    ``learn``, exit 0) or exits 2 with one error line; a non-finite number,
    or a required key taken away, always exits 2."""

    @staticmethod
    def _mutate_json(data, path_file, how):
        """Rewrite the JSON file with one value replaced (by a non-finite
        number or an odd value) or deleted; returns the path to that value."""
        with open(path_file) as fh:
            doc = json.load(fh)
        paths = [p for p in _json_paths(doc) if p or how != "delete"]
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "delete":
            del parent[path[-1]]
        else:
            value = data.draw(NON_FINITE if how == "non_finite" else ODD_VALUES)
            if path:
                parent[path[-1]] = value
            else:
                doc = value
        with open(path_file, "w") as fh:
            json.dump(doc, fh)
        return path

    @staticmethod
    def _mutate_csv(data, path, how):
        """Rewrite the CSV file with one cell replaced or dropped, or one row
        dropped or repeated; returns the new cell, if any."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        cell = None
        if how == "cell":
            cell = data.draw(ODD_CELLS)
            rows[i][j] = cell
        elif how == "drop_cell":
            del rows[i][j]
        elif how == "drop_row":
            del rows[i]
        else:
            rows.insert(i, list(rows[i]))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return cell

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data(), name=st.sampled_from(["single_obstacle", "corridor"]),
           how=st.sampled_from(["non_finite", "replace", "delete"]))
    def test_mutated_scenario(self, data, name, how):
        with tempfile.TemporaryDirectory() as tmp:
            path_file = os.path.join(tmp, "fuzzed.json")
            with open(scenario_path(name)) as src, open(path_file, "w") as dst:
                dst.write(src.read())
            path = self._mutate_json(data, path_file, how)
            rc, out, err = _run_cli(["eval", path_file])
        _check_outcome(rc, out, err)
        if how == "non_finite" or (how == "delete" and path[-1] in REQUIRED_KEYS):
            assert rc == 2, (path, out)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data(), how=st.sampled_from(["cell", "drop_cell", "drop_row", "repeat_row"]))
    def test_mutated_trajectory_csv(self, data, how):
        scn = load_scenario(scenario_path("single_obstacle"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trajectory.csv")
            write_trajectory_csv(path, {m.name: m.initial_poses for m in scn.problem.movables})
            cell = self._mutate_csv(data, path, how)
            rc, out, err = _run_cli(["eval", scenario_path("single_obstacle"),
                                     "--trajectory", path])
        _check_outcome(rc, out, err)
        if how != "cell" or cell in NON_FINITE_CELLS:
            assert rc == 2, (how, cell, out)

    @staticmethod
    def _learn(edit):
        """Exit code of ``learn DIR`` over two synthetic demos, once
        ``edit(DIR)`` has mutated them: exit 0 with both checks ok, or exit 2
        with one error line."""
        with tempfile.TemporaryDirectory() as tmp:
            demos = os.path.join(tmp, "demos")
            write_demo_dir(demos, make_demo_set(seed=0, n_demos=2))
            edit(demos)
            rc, out, err = _run_cli(["learn", demos, "--out-dir", os.path.join(tmp, "out")])
        if rc == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert rc == 0 and err == "" and "soundness: ok   tightness: ok" in out, (rc, err)
        return rc

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), how=st.sampled_from(["non_finite", "replace", "delete"]))
    def test_mutated_demo_meta(self, data, how):
        paths = []
        rc = self._learn(lambda demos: paths.append(
            self._mutate_json(data, os.path.join(demos, "meta.json"), how)))
        # every key of meta.json is required
        if how == "non_finite" or (how == "delete" and isinstance(paths[0][-1], str)):
            assert rc == 2, paths

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), name=st.sampled_from(["demo_000.csv", "demo_001.csv"]),
           how=st.sampled_from(["cell", "drop_cell", "drop_row", "repeat_row"]))
    def test_mutated_demo_csv(self, data, name, how):
        cells = []
        rc = self._learn(lambda demos: cells.append(
            self._mutate_csv(data, os.path.join(demos, name), how)))
        # a dropped row may leave a shorter demo; a dropped cell or a repeated
        # row never leaves a valid one
        if how in ("drop_cell", "repeat_row") or cells[0] in NON_FINITE_CELLS:
            assert rc == 2, (how, cells)


class TestSmoothingFlags:
    @pytest.mark.parametrize("tau", ["nan", "inf", "0", "-0.5"])
    @pytest.mark.parametrize("command", ["eval", "optimize", "accuracy"])
    def test_bad_tau_exits_2_with_one_error_line(self, tmp_path, capsys, command, tau):
        out_dir = ["--out-dir", str(tmp_path)]
        argv = {"eval": ["eval", scenario_path("free_space"), "--tau", tau],
                "optimize": ["optimize", scenario_path("free_space"), "--tau", tau,
                             "--iterations", "2"] + out_dir,
                # every entry of the list is checked, not only the first
                "accuracy": ["accuracy", "--pairs", "1", "--tau", f"1e-2,{tau}"] + out_dir,
                }[command]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "positive" in err
        assert not (tmp_path / "accuracy.csv").exists()


class TestLearn:
    def test_synthetic_run_recovers_and_exits_0(self, tmp_path, capsys):
        rc = main(["learn", "--synthetic", "3", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "soundness: ok" in out and "tightness: ok" in out
        assert (tmp_path / "mined_spec.csv").exists()
        assert (tmp_path / "demos" / "meta.json").exists()

    def test_learn_from_directory_matches_synthetic(self, tmp_path, capsys):
        first = tmp_path / "first"
        rc = main(["learn", "--synthetic", "3", "--out-dir", str(first)])
        assert rc == 0
        second = tmp_path / "second"
        rc = main(["learn", str(first / "demos"), "--out-dir", str(second)])
        assert rc == 0
        capsys.readouterr()
        a = (first / "mined_spec.csv").read_bytes()
        b = (second / "mined_spec.csv").read_bytes()
        assert a == b

    def test_manifest_hashes_every_demo_file_read(self, tmp_path, capsys):
        demos = tmp_path / "demos"
        write_demo_dir(str(demos), make_demo_set(seed=0, n_demos=2))
        assert main(["learn", str(demos), "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        inputs = json.load(open(tmp_path / "out" / "manifest.json"))["inputs"]
        assert inputs == {name: sha256_file(demos / name)
                          for name in ("meta.json", "demo_000.csv", "demo_001.csv")}

    def test_demo_csv_without_rows_names_the_file(self, tmp_path, capsys):
        demos = tmp_path / "demos"
        write_demo_dir(str(demos), make_demo_set(seed=0, n_demos=2))
        csv_path = demos / "demo_001.csv"
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
        rc = main(["learn", str(demos), "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: {csv_path}: no rows after the header\n"

    def test_nan_demo_row_exits_2(self, tmp_path, capsys):
        demos = tmp_path / "demos"
        write_demo_dir(str(demos), make_demo_set(seed=0, n_demos=2))
        csv_path = demos / "demo_001.csv"
        lines = csv_path.read_text().splitlines()
        t, subject = lines[4].split(",")[:2]
        lines[4] = f"{t},{subject},0.5,nan,0.25"
        csv_path.write_text("\n".join(lines) + "\n")
        rc = main(["learn", str(demos), "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{csv_path}:5: non-finite number" in err

    def test_non_numeric_demo_cell_names_its_line(self, tmp_path, capsys):
        demos = tmp_path / "demos"
        write_demo_dir(str(demos), make_demo_set(seed=0, n_demos=2))
        csv_path = demos / "demo_001.csv"
        lines = csv_path.read_text().splitlines()
        t, subject = lines[4].split(",")[:2]
        lines[4] = f"{t},{subject},0.5,abc,0.25"
        csv_path.write_text("\n".join(lines) + "\n")
        rc = main(["learn", str(demos), "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: {csv_path}:5: not a number in ['0.5', 'abc', '0.25']\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: {**meta, "obstacles": 5}, "obstacles must be a list of objects"),
        (lambda meta: {**meta, "phases": ["approach"]}, "phases must be a list of objects"),
        (lambda meta: {**meta, "phases": [{**meta["phases"][0], "lo": 0.7}]},
         "phase 'approach': lo and hi must be integers"),
        (lambda meta: {**meta, "phases": [{**meta["phases"][0], "lo": "x"}]},
         "phase 'approach': lo and hi must be integers"),
        (lambda meta: {**meta, "phases": [{**meta["phases"][0], "lo": 70}]},
         "phase 'approach': bad window [70,59]"),
        (lambda meta: [meta], "must be a JSON object"),
        (None, "not valid JSON"),
        (lambda meta: {**meta, "obstacles": meta["obstacles"][:1] * 2},
         "duplicate obstacle name 'o1'"),
        (lambda meta: {**meta, "subject": "o2"}, "subject 'o2' is also an obstacle name"),
        (lambda meta: {**meta, "obstacles": [{**meta["obstacles"][0], "name": ["o1"]}]},
         "obstacle name must be a string"),
        (lambda meta: {**meta, "phases": [{**meta["phases"][0], "name": ["approach"]}]},
         "phase name must be a string"),
        (lambda meta: {**meta, "obstacles": [{**meta["obstacles"][0], "lo": [5.0, 2.5, 3.0]}]},
         "obstacle 'o1': box corner order violated on axis 0: 5.0 > 4.0"),
        (lambda meta: {**meta, "subject_half": [0.1, -0.1, 0.1]},
         "subject_half: half-sizes must not be negative"),
    ], ids=["obstacles-not-a-list", "phase-not-an-object", "float-bound", "string-bound",
            "empty-window", "not-an-object", "bad-json", "duplicate-obstacle",
            "subject-named-like-an-obstacle", "obstacle-name-not-a-string",
            "phase-name-not-a-string", "obstacle-corners-swapped", "negative-half-size"])
    def test_malformed_meta_exits_2_naming_the_file(self, tmp_path, capsys, edit, message):
        demos = tmp_path / "demos"
        write_demo_dir(str(demos), make_demo_set(seed=0, n_demos=2))
        meta_path = demos / "meta.json"
        text = "{\"obstacles\": [" if edit is None else json.dumps(
            edit(json.loads(meta_path.read_text())))
        meta_path.write_text(text)
        rc = main(["learn", str(demos), "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {meta_path}: ") and err.count("\n") == 1, err
        assert message in err

    def test_overflowing_demo_exits_2(self, tmp_path, capsys):
        # a subject box at x=1e308 with half-size 1e308 has an infinite
        # corner, so its directional robustness is not finite: the exact
        # verdict must not be certified from it
        demos = tmp_path / "demos"
        write_demo_dir(str(demos), make_demo_set(seed=0, n_demos=2))
        meta_path = demos / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["subject_half"][0] = 1e308
        meta_path.write_text(json.dumps(meta))
        csv_path = demos / "demo_000.csv"
        lines = csv_path.read_text().splitlines()
        t, subject, _, y, z = lines[1].split(",")
        lines[1] = f"{t},{subject},1e308,{y},{z}"
        csv_path.write_text("\n".join(lines) + "\n")
        rc = main(["learn", str(demos), "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: exact robustness anchored at t=0 is not finite\n"

    def test_checks_evaluate_no_formula(self, tmp_path, capsys, monkeypatch):
        # soundness runs the independent monitor; the tightness checks read
        # the window extremes mining already took
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(formulas, "eval_exact", counted("eval_exact", formulas.eval_exact))
        monkeypatch.setattr(formulas.Evaluator, "result",
                            counted("result", formulas.Evaluator.result))
        monkeypatch.setattr(cli, "satisfies", counted("satisfies", cli.satisfies))
        rc = main(["learn", "--synthetic", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "soundness: ok   tightness: ok" in capsys.readouterr().out
        assert calls == ["satisfies"] * (12 * 3)

    @pytest.mark.parametrize("keep", ["0", "-1"])
    def test_keep_below_one_exits_2(self, tmp_path, capsys, keep):
        rc = main(["learn", "--synthetic", "1", "--keep", keep, "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: keep_per_group must be >= 1, got {keep}\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--keep", "0", "keep_per_group must be >= 1, got 0"),
        ("--kappa", "nan", "base_kappa must be positive and finite, got nan"),
        ("--kappa", "inf", "base_kappa must be positive and finite, got inf"),
        ("--kappa", "0", "base_kappa must be positive and finite, got 0.0"),
        ("--kappa", "-0.1", "base_kappa must be positive and finite, got -0.1"),
    ])
    def test_bad_retention_argument_writes_nothing(self, tmp_path, capsys, flag, value,
                                                   message):
        out_dir = tmp_path / "out"
        rc = main(["learn", "--synthetic", "2", flag, value, "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_dir.exists()   # neither the demos nor the directory itself

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_synthetic_demos_writes_nothing(self, tmp_path, capsys, count):
        out_dir = tmp_path / "out"
        rc = main(["learn", "--synthetic", count, "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: --synthetic must be >= 1, got {count}\n"
        assert not out_dir.exists()

    def test_mined_csv_schema(self, tmp_path, capsys):
        main(["learn", "--synthetic", "2", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        with open(tmp_path / "mined_spec.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase", "obstacle", "temporal", "relation",
                           "window_lo", "window_hi", "worst_robustness",
                           "margin", "margin_estimate"]
        assert len(rows) == 13   # planted spec: 12 retained formulas


class TestAccuracy:
    def test_small_sweep_writes_csvs(self, tmp_path, capsys):
        rc = main(["accuracy", "--pairs", "4", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max |err|" in out
        with open(tmp_path / "accuracy.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pair", "tau", "samples", "quantity", "exact",
                           "smooth", "abs_error"]
        assert len(rows) == 1 + 4 * 4   # 4 quantities per pair
        assert (tmp_path / "accuracy_summary.csv").exists()

    def test_smooth_distance_is_the_clearance_positive_part(self, tmp_path, capsys):
        rc = main(["accuracy", "--pairs", "5", "--tau", "1e-1,1e-3", "--samples", "4,32",
                   "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        with open(tmp_path / "accuracy.csv", newline="") as fh:
            smooth = {(r["pair"], r["tau"], r["samples"], r["quantity"]): float(r["smooth"])
                      for r in csv.DictReader(fh)}
        clearance = [key for key in smooth if key[3] == "clearance"]
        assert len(clearance) == 5 * 2 * 2
        # %.17g round-trips every double, so the row values are the computed ones
        for pair, tau, samples, _ in clearance:
            assert smooth[pair, tau, samples, "distance"] == max(
                0.0, smooth[pair, tau, samples, "clearance"])
            assert smooth[pair, tau, samples, "penetration"] >= 0.0
        # no kernel samples the boundary, so S changes no value
        for (pair, tau, samples, quantity), value in smooth.items():
            assert value == smooth[pair, tau, "4", quantity]

    @pytest.mark.parametrize("flag, value", [("--samples", "16,16"), ("--tau", "1e-2,0.01")])
    def test_repeated_setting_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                          flag, value):
        argv = ["accuracy", "--pairs", "3", "--tau", "1e-2", "--samples", "16",
                "--out-dir", str(tmp_path)]
        argv[argv.index(flag) + 1] = value
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than once" in err
        assert not (tmp_path / "accuracy.csv").exists()

    @pytest.mark.parametrize("flag, value, entry", [("--samples", "16,x", "'x'"),
                                                    ("--samples", "16,1.5", "'1.5'"),
                                                    ("--tau", "1e-2,", "''"),
                                                    ("--tau", "abc", "'abc'")])
    def test_malformed_entry_exits_2_naming_flag_and_entry(self, tmp_path, capsys,
                                                           flag, value, entry):
        argv = ["accuracy", "--pairs", "3", "--tau", "1e-2", "--samples", "16",
                "--out-dir", str(tmp_path)]
        argv[argv.index(flag) + 1] = value
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
        assert f"entry {entry} in {value!r}" in err
        assert not (tmp_path / "accuracy.csv").exists()

    def test_zero_pairs_header_only_exit_0(self, tmp_path, capsys):
        rc = main(["accuracy", "--pairs", "0", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        lines = (tmp_path / "accuracy.csv").read_text().strip().splitlines()
        assert len(lines) == 1


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_subcommand_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
