"""Scenario files, CSV round-trips, demo directories, manifests."""
import copy
import json
import math
import os

import pytest

from polystl.mining import make_demo_set
from polystl.optimize import TraceRow
from polystl.scenario import (ScenarioFileError, accuracy_summary, fmt,
                              load_scenario, read_demo_dir, read_trajectory_csv,
                              scenario_from_dict, sha256_file, write_demo_dir,
                              write_manifest, write_trace_csv,
                              write_trajectory_csv)

EE = {"name": "ee", "role": "movable",
      "shape": {"kind": "polygon",
                "vertices": [[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]]},
      "start": [0.0, 0.0, 0.0], "end": [4.0, 0.0, 0.0]}
GOAL = {"name": "goal", "role": "static",
        "shape": {"kind": "polygon",
                  "vertices": [[3.5, -0.5], [4.5, -0.5], [4.5, 0.5], [3.5, 0.5]]}}

DOC = {
    "name": "toy",
    "horizon": 4,
    "formula": "F[0,4] enclIn(ee, goal; 0.05)",
    "objects": [EE, GOAL],
}


def doc(**changes):
    d = copy.deepcopy(DOC)
    d.update(changes)
    return d


class TestScenarioSchema:
    def test_minimal_document_loads(self):
        scn = scenario_from_dict(doc())
        assert scn.name == "toy"
        assert scn.horizon == 4
        assert len(scn.problem.movables) == 1
        assert scn.goal_names == frozenset({"goal"})

    def test_interpolation_spans_horizon_plus_one(self):
        scn = scenario_from_dict(doc())
        poses = scn.problem.movables[0].initial_poses
        assert len(poses) == 5
        assert poses[0] == (0.0, 0.0, 0.0)
        assert poses[-1] == (4.0, 0.0, 0.0)
        assert poses[2] == pytest.approx((2.0, 0.0, 0.0))

    def test_interpolation_wraps_heading_short_way(self):
        ee = copy.deepcopy(EE)
        ee["start"] = [0.0, 0.0, 3.0]
        ee["end"] = [4.0, 0.0, -3.0]   # short way crosses the pi seam
        scn = scenario_from_dict(doc(objects=[ee, GOAL]))
        thetas = [p[2] for p in scn.problem.movables[0].initial_poses]
        assert thetas[1] > 3.0   # rose past pi rather than swinging through 0
        steps = [abs(b - a) for a, b in zip(thetas, thetas[1:])]
        assert max(steps) < 0.3

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioFileError, match="unknown key"):
            scenario_from_dict(doc(comment="hi"))

    def test_unknown_object_key_rejected(self):
        ee = copy.deepcopy(EE)
        ee["color"] = "red"
        with pytest.raises(ScenarioFileError, match="unknown key"):
            scenario_from_dict(doc(objects=[ee, GOAL]))

    def test_unknown_optimizer_key_rejected(self):
        with pytest.raises(ScenarioFileError, match="optimizer key"):
            scenario_from_dict(doc(optimizer={"stepsize": 0.1}))

    def test_optimizer_overrides_apply(self):
        scn = scenario_from_dict(doc(optimizer={"iterations": 7, "tau": 0.005}))
        assert scn.optimizer.iterations == 7
        assert scn.optimizer.tau == 0.005

    def test_bad_formula_rejected_with_location(self):
        with pytest.raises(ScenarioFileError, match="does not parse"):
            scenario_from_dict(doc(formula="G[0,4] nope(ee, goal; 1)"))

    def test_formula_naming_missing_object_rejected(self):
        with pytest.raises(ScenarioFileError):
            scenario_from_dict(doc(formula="F[0,4] enclIn(ee, ghost; 0.05)"))

    def test_pose_count_must_match_horizon(self):
        ee = copy.deepcopy(EE)
        del ee["start"], ee["end"]
        ee["poses"] = [[0, 0, 0]] * 4   # needs 5
        with pytest.raises(ScenarioFileError, match="horizon"):
            scenario_from_dict(doc(objects=[ee, GOAL]))

    def test_poses_and_start_end_are_exclusive(self):
        ee = copy.deepcopy(EE)
        ee["poses"] = [[0, 0, 0]] * 5
        with pytest.raises(ScenarioFileError, match="not both"):
            scenario_from_dict(doc(objects=[ee, GOAL]))

    def test_static_with_poses_rejected(self):
        goal = copy.deepcopy(GOAL)
        goal["start"] = [0, 0, 0]
        with pytest.raises(ScenarioFileError, match="static"):
            scenario_from_dict(doc(objects=[EE, goal]))

    def test_movable_box_rejected(self):
        ee = {"name": "ee", "role": "movable",
              "shape": {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]},
              "start": [0, 0, 0], "end": [1, 0, 0]}
        with pytest.raises(ScenarioFileError, match="polygon"):
            scenario_from_dict(doc(objects=[ee, GOAL]))

    def test_non_finite_box_corner_names_object(self):
        box = {"name": "shelf", "role": "static",
               "shape": {"kind": "box", "lo": [0, 0, 0], "hi": [1, math.inf, 1]}}
        with pytest.raises(ScenarioFileError, match=r"\(shelf\): hi: non-finite number"):
            scenario_from_dict(doc(objects=[EE, GOAL, box]))

    def test_shape_kind_must_be_known(self):
        goal = copy.deepcopy(GOAL)
        goal["shape"] = {"kind": "circle"}
        with pytest.raises(ScenarioFileError, match="shape kind"):
            scenario_from_dict(doc(objects=[EE, goal]))

    def test_load_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioFileError, match="not valid JSON"):
            load_scenario(str(p))

    def test_repo_scenarios_load(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name in ("free_space", "single_obstacle", "corridor"):
            scn = load_scenario(os.path.join(here, "scenarios", f"{name}.json"))
            assert scn.name == name
            assert scn.goal_names == frozenset({"goal"})


class TestCsvRoundTrips:
    def test_fmt_round_trips_doubles(self):
        for x in (0.1, 1 / 3, math.pi, 1e-17, -2.5e300, 0.0):
            assert float(fmt(x)) == x

    def test_trajectory_round_trip(self, tmp_path):
        poses = {"ee": [(0.1, 0.2, 0.3), (1 / 3, -0.7, 2.9)],
                 "arm": [(-1.0, 2.0, -3.1), (0.0, 0.0, 0.0)]}
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, poses)
        back = read_trajectory_csv(path, ["ee", "arm"], horizon=1)
        assert back == poses

    def test_trajectory_rows_ordered_step_then_name(self, tmp_path):
        poses = {"b": [(0.0, 0.0, 0.0)] * 2, "a": [(1.0, 1.0, 1.0)] * 2}
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, poses)
        rows = [line.split(",")[:2] for line in
                open(path).read().strip().splitlines()[1:]]
        assert rows == [["0", "a"], ["0", "b"], ["1", "a"], ["1", "b"]]

    def test_trajectory_missing_step_rejected(self, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, {"ee": [(0.0, 0.0, 0.0)]})
        with pytest.raises(ScenarioFileError, match="missing steps"):
            read_trajectory_csv(path, ["ee"], horizon=3)

    def test_trajectory_unknown_object_rejected(self, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, {"ghost": [(0.0, 0.0, 0.0)]})
        with pytest.raises(ScenarioFileError, match="unknown object"):
            read_trajectory_csv(path, ["ee"], horizon=0)

    def test_trace_header_and_precision(self, tmp_path):
        rows = [TraceRow(0, 1 / 3, -0.25, -0.3, 1e-8, 0.01)]
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, rows)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "iteration,loss,rho_smooth,rho_exact,grad_norm,tau"
        assert float(lines[1].split(",")[1]) == 1 / 3
        assert float(lines[1].split(",")[5]) == 0.01

    def test_accuracy_summary_groups_and_sorts(self):
        rows = [(0, 1e-3, 32, "distance", 1.0, 1.01),
                (1, 1e-3, 32, "distance", 2.0, 2.03),
                (0, 1e-3, 32, "clearance", 0.5, 0.5)]
        out = accuracy_summary(rows)
        assert out[0][0] == "clearance"
        dist = out[1]
        assert dist[3] == pytest.approx(0.03)
        assert dist[4] == pytest.approx(0.02)


class TestDemoDir:
    def test_round_trip_preserves_robustness_inputs(self, tmp_path):
        demos = make_demo_set(seed=3, n_demos=2)
        write_demo_dir(str(tmp_path / "demos"), demos)
        back = read_demo_dir(str(tmp_path / "demos"))
        assert back.subject == demos.subject
        assert back.obstacles == demos.obstacles
        assert [p.name for p in back.phases] == [p.name for p in demos.phases]
        a = demos.trajectories[1].scene(7).get(demos.subject).shape
        b = back.trajectories[1].scene(7).get(demos.subject).shape
        assert a.lo == pytest.approx(b.lo)
        assert a.hi == pytest.approx(b.hi)

    def test_missing_meta_rejected(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ScenarioFileError, match="meta.json"):
            read_demo_dir(str(tmp_path / "empty"))

    def test_non_finite_obstacle_corner_rejected(self, tmp_path):
        d = tmp_path / "demos"
        write_demo_dir(str(d), make_demo_set(seed=0, n_demos=1))
        meta = json.loads((d / "meta.json").read_text())
        name = meta["obstacles"][0]["name"]
        meta["obstacles"][0]["lo"][1] = math.nan
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ScenarioFileError, match=f"obstacle '{name}': lo: non-finite"):
            read_demo_dir(str(d))

    def test_demo_dir_without_csvs_rejected(self, tmp_path):
        d = tmp_path / "demos"
        write_demo_dir(str(d), make_demo_set(seed=0, n_demos=1))
        os.remove(d / "demo_000.csv")
        with pytest.raises(ScenarioFileError, match="demo_"):
            read_demo_dir(str(d))


class TestManifest:
    def test_manifest_hashes_inputs_and_outputs(self, tmp_path):
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        inp.write_text("a,b\n")
        out.write_text("c,d\n")
        mpath = str(tmp_path / "manifest.json")
        write_manifest(mpath, "test", 7, {"k": 1}, [str(inp)], [str(out)],
                       timestamp="2026-01-01T00:00:00+00:00")
        doc = json.load(open(mpath))
        assert doc["command"] == "test"
        assert doc["seed"] == 7
        assert doc["inputs"]["in.csv"] == sha256_file(str(inp))
        assert doc["outputs"]["out.csv"] == sha256_file(str(out))

    def test_same_content_same_hash(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"xyz" * 1000)
        b.write_bytes(b"xyz" * 1000)
        assert sha256_file(str(a)) == sha256_file(str(b))
