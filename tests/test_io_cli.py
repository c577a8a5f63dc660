import dataclasses
import json
import math
import re

import numpy as np
import pytest

from se3diffuse.cli import main
from se3diffuse.io import ParseError, read_keyvalue, read_point_cloud, read_poses, write_point_cloud, write_poses
from se3diffuse.lie import Pose, random_rotation
from se3diffuse.pointcloud import PointCloud
from se3diffuse.scenario import (
    make_toy_scenario,
    read_model_params,
    read_scenario,
    write_model_params,
    write_scenario,
)


# ---------------------------------------------------------------------------
# Point cloud files
# ---------------------------------------------------------------------------

def test_read_csv_single_point(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("1,2,3\n")
    pc = read_point_cloud(path)
    assert np.array_equal(pc.positions, [[1.0, 2.0, 3.0]])
    assert pc.colors is None


def test_cloud_round_trip_csv_and_text(tmp_path, rng):
    pc = PointCloud(rng.standard_normal((20, 3)), colors=rng.random((20, 3)))
    for name in ("cloud.csv", "cloud.txt"):
        path = tmp_path / name
        write_point_cloud(path, pc)
        back = read_point_cloud(path)
        assert np.array_equal(back.positions, pc.positions)
        assert np.array_equal(back.colors, pc.colors)


def test_read_csv_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,nope,6\n")
    with pytest.raises(ParseError, match="bad.csv:2"):
        read_point_cloud(path)


def test_read_csv_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n")
    with pytest.raises(ParseError, match="3 or 6"):
        read_point_cloud(path)


def test_text_cloud_requires_points(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("colors = [[0,0,0]]\n")
    with pytest.raises(ParseError, match="points"):
        read_point_cloud(path)


# ---------------------------------------------------------------------------
# Pose files
# ---------------------------------------------------------------------------

def test_pose_round_trip(tmp_path, rng):
    poses = [Pose(rng.standard_normal(3), random_rotation(rng)) for _ in range(5)]
    path = tmp_path / "poses.txt"
    write_poses(path, np.stack([g.p for g in poses]), np.stack([g.r.q for g in poses]))
    back = read_poses(path)
    assert len(back) == 5
    for a, b in zip(poses, back):
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.r.q, b.r.q)


def test_pose_identity_round_trip(tmp_path):
    path = tmp_path / "poses.txt"
    write_poses(path, Pose.identity().p, Pose.identity().r.q)
    back = read_poses(path)
    assert back[0].allclose(Pose.identity())


def test_pose_slightly_off_norm_warns(tmp_path):
    path = tmp_path / "poses.txt"
    w = float(1.0 + 1e-7)
    path.write_text(f"pos: [0.0, 0.0, 0.0]\nquat: [{w!r}, 0.0, 0.0, 0.0]\n")
    with pytest.warns(RuntimeWarning, match="renormalizing"):
        back = read_poses(path)
    assert abs(np.linalg.norm(back[0].r.q) - 1.0) < 1e-12


def test_pose_bad_norm_rejected(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("pos: [0.0, 0.0, 0.0]\nquat: [0.5, 0.0, 0.0, 0.0]\n")
    with pytest.raises(ParseError, match="norm"):
        read_poses(path)


def test_pose_missing_quat_rejected(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("pos: [0.0, 0.0, 0.0]\n")
    with pytest.raises(ParseError, match="pos"):
        read_poses(path)


# ---------------------------------------------------------------------------
# Scenario and model-parameter files
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    scn = make_toy_scenario(seed=3)
    path = write_scenario(tmp_path / "scn", scn)
    back = read_scenario(path)
    assert np.array_equal(back.scene.positions, scn.scene.positions)
    assert np.array_equal(back.grasp.positions, scn.grasp.positions)
    assert len(back.demo_poses) == len(scn.demo_poses)
    for a, b in zip(back.demo_poses, scn.demo_poses):
        assert np.array_equal(a.p, b.p) and np.array_equal(a.r.q, b.r.q)
    assert back.config.t == scn.config.t
    assert back.config.r == scn.config.r
    assert np.array_equal(back.schedule.t, scn.schedule.t)
    assert back.seed == scn.seed


def _assert_fields_equal(a, b):
    """Every dataclass field of a and b is equal, nested parameter sets field by field."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_fields_equal(x, y)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y) and x.dtype == y.dtype, f.name
        else:
            assert x == y and type(x) is type(y), f.name


def test_model_params_round_trip(tmp_path):
    # no field at its default, so a field the writer drops reads back different
    model = dataclasses.replace(make_toy_scenario(seed=3).model, query_start_index=3)
    path = tmp_path / "params.txt"
    write_model_params(path, model)
    back = read_model_params(path)
    assert back.weight_field is not None
    _assert_fields_equal(back, model)


def _drop_key(path, key):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith(f"{key} =")) + "\n")


@pytest.mark.parametrize("key", ["scene", "grasp", "demos", "t", "contact_radius",
                                 "schedule_segments", "schedule_eps", "seed"])
def test_read_scenario_names_each_missing_key(tmp_path, key):
    path = write_scenario(tmp_path / "scn", make_toy_scenario(seed=3))
    _drop_key(path, key)
    with pytest.raises(ParseError, match=f"missing '{key}'"):
        read_scenario(path)


def test_keyvalue_parse_error_names_line(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("good = 1\nbad line\n")
    with pytest.raises(ParseError, match="kv.txt:2"):
        read_keyvalue(path)


def _first_number_to(path, marker, value):
    """Replace the first number after ``marker`` in the file with ``value``."""
    text = path.read_text()
    start = text.index(marker) + len(marker)
    head, tail = text[:start], text[start:]
    number = re.search(r"-?\d[\d.e+-]*", tail)
    path.write_text(head + tail[:number.start()] + value + tail[number.end():])


@pytest.mark.parametrize("kind, file, marker, value", [
    ("cloud point", "scene.txt", "points = ", "1e999"),
    ("color", "scene.txt", "colors = ", "NaN"),
    ("demo pose", "demos.txt", "pos: ", "-1e999"),
    ("config scalar", "scenario.txt", "contact_radius = ", "Infinity"),
    ("model parameter", "model_params.txt", "scene_channel_weights = ", "1e999"),
    pytest.param("config scalar", "scenario.txt", "contact_radius = ", "1" + "0" * 400,
                 id="config scalar-integer too large for a float"),
])
def test_non_finite_scenario_values_are_parse_errors(tmp_path, capsys, kind, file, marker, value):
    scn_path = write_scenario(tmp_path / "scn", make_toy_scenario(seed=3))
    target = tmp_path / "scn" / file
    if kind == "color":
        cloud = read_point_cloud(target)
        write_point_cloud(target, PointCloud(cloud.positions, np.full((len(cloud), 3), 0.5)))
    _first_number_to(target, marker, value)
    with pytest.raises(ParseError, match=f"{file}:[0-9]+: non-finite number"):
        read_scenario(scn_path)
    for command in (["diffuse", "--t", "0.5", "--n", "2"],
                    ["denoise", "--score", "oracle", "--chains", "1"],
                    ["denoise", "--score", "model", "--chains", "1"]):
        assert main(command + ["--scenario", str(scn_path), "--out", str(tmp_path / "out.txt"),
                               "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err


@pytest.mark.parametrize("value", ["inf", "nan", "1e999", pytest.param(
    "1" + "0" * 400, id="integer too large for a float")])
def test_csv_cloud_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "cloud.csv"
    path.write_text(f"0,0,0,0.5,0.5,0.5\n1,2,3,0.5,{value},0.5\n")
    with pytest.raises(ParseError, match="cloud.csv:2: non-finite number"):
        read_point_cloud(path)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scn")
    assert main(["gen-scenario", "--out", str(out), "--seed", "7"]) == 0
    return out


def test_cmd_diffuse_deterministic_and_small_t(scenario_dir, tmp_path):
    scn_path = str(scenario_dir / "scenario.txt")
    out1 = tmp_path / "d1.txt"
    out2 = tmp_path / "d2.txt"
    for out in (out1, out2):
        assert main(["diffuse", "--scenario", scn_path, "--t", "1e-8",
                     "--n", "6", "--out", str(out), "--seed", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    scn = read_scenario(scn_path)
    poses = read_poses(out1)
    assert len(poses) == 6
    for g in poses:
        dists = [np.linalg.norm(g.p - g0.p) for g0 in scn.demo_poses]
        assert min(dists) < 1e-3


def test_cmd_diffuse_empty_output_has_header(scenario_dir, tmp_path):
    out = tmp_path / "empty.txt"
    assert main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--n", "0", "--out", str(out), "--seed", "1"]) == 0
    text = out.read_text()
    assert text.startswith("# se3diffuse version")
    assert read_poses(out) == []


@pytest.mark.parametrize("times", [["--t", "0.5"], ["--t", "1e-4", "--t-max", "1"]])
def test_cmd_diffuse_one_draw_is_the_first_of_many(scenario_dir, tmp_path, times):
    """The seeded stream is drawn sample by sample, so --n 1 is a prefix of --n 3."""
    runs = {}
    for n in ("1", "3"):
        out = tmp_path / f"d{n}.txt"
        assert main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"), *times,
                     "--n", n, "--out", str(out), "--seed", "4"]) == 0
        runs[n] = out.read_text().splitlines()
    one, three = runs["1"], runs["3"]
    sample0 = [line for line in one if line.startswith("# sample ")]
    assert len(sample0) == 1 and sample0[0] in three
    assert one[-2:] == [line for line in three if not line.startswith("#")][:2]
    assert len(read_poses(tmp_path / "d3.txt")) == 3


def test_cmd_diffuse_logs_provenance(scenario_dir, tmp_path):
    out = tmp_path / "d.txt"
    assert main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--t", "0.5", "--n", "2", "--out", str(out), "--seed", "3"]) == 0
    text = out.read_text()
    assert "# sample 0: t = " in text and "p_de = " in text and "delta_quat = " in text


def test_cmd_denoise_deterministic(scenario_dir, tmp_path):
    scn_path = str(scenario_dir / "scenario.txt")
    outs = []
    for name in ("n1.txt", "n2.txt"):
        out = tmp_path / name
        assert main(["denoise", "--scenario", scn_path, "--score", "oracle",
                     "--chains", "3", "--out", str(out), "--seed", "5"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cmd_denoise_model_source_runs(scenario_dir, tmp_path):
    out = tmp_path / "model.txt"
    assert main(["denoise", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--score", "model", "--chains", "1", "--out", str(out),
                 "--seed", "2"]) == 0
    assert len(read_poses(out)) == 1


def test_cmd_denoise_model_evaluates_grasp_field_once(scenario_dir, tmp_path, monkeypatch):
    import se3diffuse.fields as fields

    scn = read_scenario(scenario_dir / "scenario.txt")
    assert len(scn.scene) != len(scn.grasp)  # so the cloud size tells them apart
    calls = {}
    real = fields._edf_batch

    def counting(xs, pc, params, t, frames=None):
        if len(pc) == len(scn.grasp):
            calls[id(params)] = calls.get(id(params), 0) + 1
        return real(xs, pc, params, t, frames)

    monkeypatch.setattr(fields, "_edf_batch", counting)
    assert main(["denoise", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--score", "model", "--chains", "2", "--out", str(tmp_path / "m.txt"),
                 "--seed", "3"]) == 0
    # one query-weight field and one grasp field, each evaluated once per run
    assert sorted(calls.values()) == [1, 1]


def test_cmd_denoise_missing_model_params_is_usage_error(tmp_path):
    scn = make_toy_scenario(seed=4)
    scn_no_model = type(scn)(scene=scn.scene, grasp=scn.grasp, demo_poses=scn.demo_poses,
                             config=scn.config, schedule=scn.schedule, seed=scn.seed,
                             model=None)
    path = write_scenario(tmp_path / "scn", scn_no_model)
    assert main(["denoise", "--scenario", str(path), "--score", "model",
                 "--chains", "1", "--out", str(tmp_path / "x.txt"), "--seed", "1"]) == 2


def test_cmd_denoise_quat_trans_integrator(scenario_dir, tmp_path):
    out = tmp_path / "qt.txt"
    assert main(["denoise", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--score", "oracle", "--chains", "2", "--out", str(out),
                 "--seed", "6", "--integrator", "quat-trans"]) == 0
    assert len(read_poses(out)) == 2


def test_cmd_check_passes_and_reports_numbers(capsys):
    assert main(["check", "--suite", "lie"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert all(isinstance(c["max_error"], float) for c in report["checks"])


def test_cmd_check_negative_control(capsys):
    assert main(["check", "--suite", "equivariance", "--perturb-adjoint"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False


def test_cmd_sample_igso3_uniform_limit(tmp_path):
    out = tmp_path / "rots.txt"
    assert main(["sample-igso3", "--eps", "10.0", "--n", "20000",
                 "--out", str(out), "--seed", "4"]) == 0
    text = out.read_text().splitlines()
    ks_line = next(l for l in text if l.startswith("# ks_statistic"))
    ks = float(ks_line.split("=")[1])
    assert ks < 0.01
    quats = [json.loads(l.split(":", 1)[1]) for l in text if l.startswith("quat:")]
    assert len(quats) == 20000
    # KS against the Haar angle marginal (theta - sin theta)/pi
    angles = np.sort([2.0 * math.atan2(np.linalg.norm(q[1:]), abs(q[0])) for q in quats])
    haar = (angles - np.sin(angles)) / math.pi
    n = angles.size
    ks_haar = np.max(np.maximum(np.arange(1, n + 1) / n - haar, haar - np.arange(n) / n))
    assert ks_haar < 0.01


def test_cmd_sample_igso3_ks_at_small_eps(tmp_path):
    # At eps = 1e-5 the angles spread over ~5e-3 rad; the reported KS must
    # resolve that spread.  For small eps, angle / sqrt(2 eps) ~ chi(3).
    from scipy import stats

    eps = 1e-5
    out = tmp_path / "rots.txt"
    assert main(["sample-igso3", "--eps", str(eps), "--n", "20000",
                 "--out", str(out), "--seed", "4"]) == 0
    text = out.read_text().splitlines()
    ks = float(next(l for l in text if l.startswith("# ks_statistic")).split("=")[1])
    quats = np.array([json.loads(l.split(":", 1)[1]) for l in text if l.startswith("quat:")])
    angles = 2.0 * np.arctan2(np.linalg.norm(quats[:, 1:], axis=1), np.abs(quats[:, 0]))
    ref = stats.kstest(angles / math.sqrt(2.0 * eps), stats.chi(3).cdf).statistic
    assert abs(ks - ref) < 1e-5


def test_cmd_check_report_is_plain_json(capsys, monkeypatch):
    from se3diffuse import checks

    results = [checks.CheckResult("a", np.float64(1e-12), 1e-9),
               checks.CheckResult("b", np.float64(1.0), 1e-9)]
    monkeypatch.setattr(checks, "run_suite", lambda *args, **kwargs: results)
    assert main(["check", "--suite", "lie"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [type(c["max_error"]) for c in report["checks"]] == [float, float]
    assert [c["pass"] for c in report["checks"]] == [True, False]


def test_cmd_sample_igso3_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert main(["sample-igso3", "--eps", "0.5", "--n", "500",
                     "--out", str(out), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cmd_sample_igso3_rejects_bad_eps(tmp_path):
    assert main(["sample-igso3", "--eps", "-1.0", "--n", "10",
                 "--out", str(tmp_path / "x.txt"), "--seed", "0"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["diffuse", "--t", "-1", "--n", "2"], "--t: must be a positive finite number"),
    (["diffuse", "--t", "nan", "--n", "2"], "--t: must be a positive finite number"),
    (["diffuse", "--t", "0.1", "--t-max", "-1", "--n", "2"], "--t-max: must be a positive finite number"),
    (["diffuse", "--t", "0.1", "--t-max", "0.01", "--n", "2"], "--t-max 0.01 is below the diffusion time 0.1"),
    (["diffuse", "--t-max", "0.5", "--n", "2"], "below the diffusion time 1.0"),  # scenario t = 1
    (["diffuse", "--n", "-3"], "--n: must be an integer >= 0"),
    (["diffuse", "--n", "2", "--seed", "-1"], "--seed: must be an integer >= 0"),
    (["denoise", "--chains", "0"], "--chains: must be an integer >= 1"),
    (["sample-igso3", "--eps", "0.5", "--n", "0"], "--n: must be an integer >= 1"),
    (["sample-igso3", "--eps", "nan", "--n", "2"], "--eps: must be a positive finite number"),
    (["sample-igso3", "--eps", "inf", "--n", "2"], "--eps: must be a positive finite number"),
])
def test_cli_rejects_bad_arguments_as_usage_errors(scenario_dir, tmp_path, capsys, argv, message):
    out = tmp_path / "x.txt"
    scenario = [] if argv[0] == "sample-igso3" else ["--scenario", str(scenario_dir / "scenario.txt")]
    assert main(argv + scenario + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_error_exits_2_without_traceback(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import se3diffuse

    env = dict(os.environ, PYTHONPATH=str(Path(se3diffuse.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "se3diffuse", "sample-igso3", "--eps", "nan",
                           "--n", "2", "--out", str(tmp_path / "x.txt")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "must be a positive finite number" in proc.stderr and "Traceback" not in proc.stderr


def _bad_input(scenario_dir, tmp_path, case):
    """(scenario path, extra arguments, expected message) for one broken input file."""
    import shutil

    scn = tmp_path / "scn"
    shutil.copytree(scenario_dir, scn)
    path = scn / "scenario.txt"
    if case == "missing-file":
        return scn / "absent.txt", [], "absent.txt"
    if case == "missing-key":
        _drop_key(path, "t")
        return path, [], "missing 't'"
    if case == "bad-value":
        _drop_key(path, "t")
        path.write_text(path.read_text() + 't = "one"\n')
        return path, [], "could not convert"
    if case == "malformed-line":
        path.write_text(path.read_text() + "t 1.0\n")
        return path, [], "expected 'key = value'"
    if case == "equal-gate-centers":
        params = scn / "model_params.txt"
        _drop_key(params, "scene_time_gate_centers")
        params.write_text(params.read_text() + "scene_time_gate_centers = [0.0, 0.0]\n")
        return path, [], "strictly increasing"
    if case == "missing-params":
        return path, ["--params", str(scn / "absent.txt")], "absent.txt"
    if case in _BAD_VALUES:
        name, key, value, message = _BAD_VALUES[case]
        _drop_key(scn / name, key)
        (scn / name).write_text((scn / name).read_text() + f"{key} = {value}\n")
        return path, [], message
    (scn / "bad.txt").write_text("path_weights_nu = [1.0,\n")  # malformed-params
    return path, ["--params", str(scn / "bad.txt")], "bad.txt:1"


# case: (file, key, value, expected message); one bad value each, the rest as written
_BAD_VALUES = {
    "short-segment": ("scenario.txt", "schedule_segments", "[[1.0, 0.1]]", "[start, end, steps]"),
    "empty-scene": ("scene.txt", "points", "[]", "non-empty"),
    "empty-grasp": ("grasp.txt", "points", "[]", "non-empty"),
    "two-column-points": ("scene.txt", "points", "[[0, 0]]", "[x, y, z]"),
    "negative-seed": ("scenario.txt", "seed", "-1", "seed must be an integer >= 0"),
    "numeric-file-name": ("scenario.txt", "scene", "5", "must be a file name"),
    "zero-query-count": ("model_params.txt", "query_count", "0", "query_count"),
    "negative-query-start": ("model_params.txt", "query_start_index", "-1", "query_start_index"),
    "fractional-query-start": ("model_params.txt", "query_start_index", "2.5",
                               "query_start_index"),
    "short-path-weights": ("model_params.txt", "path_weights_nu", "[1.0]", "weights_nu"),
    # these two fit the parameter file alone, so only denoise --score model refuses them
    "query-count-over-grasp": ("model_params.txt", "query_count", "1000", "grasp cloud has"),
    "query-start-over-grasp": ("model_params.txt", "query_start_index", "500",
                               "grasp cloud has"),
}
_FILE_CASES = list(_BAD_VALUES)[:-2]


@pytest.mark.parametrize("argv, case", [
    (["diffuse", "--n", "2"], "missing-file"),
    (["diffuse", "--n", "2"], "missing-key"),
    (["diffuse", "--n", "2"], "bad-value"),
    (["diffuse", "--n", "2"], "malformed-line"),
    (["diffuse", "--n", "2"], "equal-gate-centers"),
    (["denoise", "--score", "model", "--chains", "1"], "missing-file"),
    (["denoise", "--score", "model", "--chains", "1"], "missing-key"),
    (["denoise", "--score", "model", "--chains", "1"], "bad-value"),
    (["denoise", "--score", "model", "--chains", "1"], "malformed-line"),
    (["denoise", "--score", "model", "--chains", "1"], "equal-gate-centers"),
    (["denoise", "--score", "model", "--chains", "1"], "missing-params"),
    (["denoise", "--score", "model", "--chains", "1"], "malformed-params"),
    *[(["diffuse", "--n", "2"], case) for case in _FILE_CASES],
    *[(["denoise", "--score", "model", "--chains", "1"], case) for case in _BAD_VALUES],
])
def test_cli_bad_input_files_exit_2_without_traceback(scenario_dir, tmp_path, capsys, argv, case):
    path, extra, message = _bad_input(scenario_dir, tmp_path, case)
    out = tmp_path / "x.txt"
    assert main(argv + ["--scenario", str(path), "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import se3diffuse

    env = dict(os.environ, PYTHONPATH=str(Path(se3diffuse.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, se3diffuse.cli; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
