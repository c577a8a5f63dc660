import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from se3diffuse.cli import main
from se3diffuse.io import ParseError, read_keyvalue, read_point_cloud, read_poses, write_point_cloud, write_poses
from se3diffuse.lie import Pose, Rotation, random_rotation
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
    p, q = read_poses(path)
    assert p.shape == (5, 3) and q.shape == (5, 4)
    assert np.array_equal(p, np.stack([g.p for g in poses]))
    assert np.array_equal(q, np.stack([g.r.q for g in poses]))


def test_pose_identity_round_trip(tmp_path):
    path = tmp_path / "poses.txt"
    write_poses(path, Pose.identity().p, Pose.identity().r.q)
    p, q = read_poses(path)
    assert np.array_equal(p, [Pose.identity().p]) and np.array_equal(q, [Pose.identity().r.q])


def test_pose_rows_are_the_rotation_rule_bit_for_bit(tmp_path):
    """Each quaternion row is ``Rotation(q / norm).q`` of its record, as when the reader built one
    ``Rotation`` per record: drifted norms, w < 0 rows, and w = 0 rows of either vector sign."""
    rng = np.random.default_rng(3)
    q = rng.standard_normal((1000, 4))
    q[::7, 0] = 0.0
    q[::21, 1] = 0.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q *= 1.0 + rng.uniform(-9e-4, 9e-4, (1000, 1))
    q[::3] *= -1.0
    path = tmp_path / "poses.txt"
    write_poses(path, rng.standard_normal((1000, 3)), q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # every record renormalizes
        _, got = read_poses(path)
    for raw, row in zip(q, got):
        assert np.array_equal(row, Rotation(raw / float(np.linalg.norm(raw))).q)


def test_pose_slightly_off_norm_warns(tmp_path):
    path = tmp_path / "poses.txt"
    w = float(1.0 + 1e-7)
    path.write_text(f"pos: [0.0, 0.0, 0.0]\nquat: [{w!r}, 0.0, 0.0, 0.0]\n")
    with pytest.warns(RuntimeWarning, match="renormalizing"):
        _, q = read_poses(path)
    assert abs(np.linalg.norm(q[0]) - 1.0) < 1e-12


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
    p, _ = read_poses(out1)
    assert len(p) == 6
    for x in p:
        dists = [np.linalg.norm(x - g0.p) for g0 in scn.demo_poses]
        assert min(dists) < 1e-3


def test_cmd_diffuse_empty_output_has_header(scenario_dir, tmp_path):
    out = tmp_path / "empty.txt"
    assert main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--n", "0", "--out", str(out), "--seed", "1"]) == 0
    text = out.read_text()
    assert text.startswith("# se3diffuse version")
    p, q = read_poses(out)
    assert p.shape == (0, 3) and q.shape == (0, 4)


@pytest.mark.parametrize("times", [["--t", "0.5"], ["--t", "1e-4", "--t-max", "1"], ["--t", "8"]])
def test_cmd_diffuse_same_seed_same_bytes_and_valid_records(scenario_dir, tmp_path, times):
    """Rejection sampling draws in blocks shared by all samples, so only the
    same seed and --n repeat a file; every record is still a valid draw."""
    runs = []
    for k in range(2):
        out = tmp_path / f"d{k}.txt"
        assert main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"), *times,
                     "--n", "5", "--out", str(out), "--seed", "4"]) == 0
        runs.append(out)
    assert runs[0].read_bytes() == runs[1].read_bytes()
    t_lo = float(times[1])
    t_hi = float(times[3]) if len(times) > 2 else t_lo
    records = _sample_records(runs[0])
    _, q = read_poses(runs[0])
    assert len(records) == len(q) == 5
    for k, rec in enumerate(records):
        assert rec["sample"] == k and t_lo <= rec["t"] <= t_hi
        assert np.all(np.isfinite(rec["delta_pos"]))
        dq = np.array(rec["delta_quat"])
        assert abs(np.linalg.norm(dq) - 1.0) < 1e-12 and dq[0] >= 0.0
        assert abs(np.linalg.norm(q[k]) - 1.0) < 1e-12


def test_cmd_diffuse_at_the_smallest_times_draws_nonzero_angles(scenario_dir, tmp_path):
    out = tmp_path / "d.txt"
    assert main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"), "--t", "1e-300",
                 "--n", "20", "--out", str(out), "--seed", "2"]) == 0
    records = _sample_records(out)
    dq = np.array([rec["delta_quat"] for rec in records])
    angles = 2.0 * np.arctan2(np.linalg.norm(dq[:, 1:], axis=1), dq[:, 0])
    assert len(records) == 20 and np.all(np.isfinite(angles)) and np.all(angles > 0.0)
    assert np.all(angles < 1e-148)  # rotation vectors are about sqrt(t) = 1e-150 long
    assert len(read_poses(out)[0]) == 20


def test_cmd_diffuse_refuses_a_time_whose_half_rounds_to_zero(scenario_dir, tmp_path, capsys):
    out = tmp_path / "d.txt"
    argv = ["diffuse", "--scenario", str(scenario_dir / "scenario.txt"), "--n", "3", "--out", str(out)]
    assert main(argv + ["--t", "5e-324"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --t: ") and "t/2 rounds to 0" in err[0], err
    assert not out.exists()
    assert main(argv + ["--t", "1e-323"]) == 0  # the smallest time whose half is a positive double


def _sample_records(path):
    """The '# sample k: ...' provenance lines of a diffuse file, as dicts."""
    records = []
    for line in path.read_text().splitlines():
        if line.startswith("# sample "):
            head, _, body = line[2:].partition(": ")
            rec = {"sample": int(head.split()[1])}
            for item in body.split("; "):
                key, _, value = item.partition(" = ")
                rec[key] = json.loads(value)
            records.append(rec)
    return records


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


def test_cmd_denoise_reports_the_oracle_mixture_density(scenario_dir, tmp_path, monkeypatch):
    """The report's log_mixture_density is the log density whose score the oracle takes, bitwise."""
    import se3diffuse.cli as cli
    from se3diffuse.diffusion import DemoSet, MixtureScore, _log_mixture

    finals = []
    real = cli.run_denoising

    def capture(*args, **kwargs):
        finals.append(real(*args, **kwargs))
        return finals[-1]

    monkeypatch.setattr(cli, "run_denoising", capture)
    out = tmp_path / "o.txt"
    assert main(["denoise", "--scenario", str(scenario_dir / "scenario.txt"), "--score", "oracle",
                 "--chains", "6", "--out", str(out), "--seed", "4"]) == 0
    reported = [float(v) for v in re.findall(r"log_mixture_density = (\S+)", out.read_text())]
    scn = read_scenario(scenario_dir / "scenario.txt")
    scene, grasp, demos = cli._nondimensionalize(scn)
    comps = MixtureScore(DemoSet(tuple((g, scene, grasp) for g in demos)), scn.config)._components
    want = _log_mixture(finals[0].q, finals[0].p, comps, float(scn.schedule.t[-1]))
    assert len(reported) == 6 and reported == want.tolist()


def test_cmd_denoise_model_source_runs(scenario_dir, tmp_path):
    out = tmp_path / "model.txt"
    assert main(["denoise", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--score", "model", "--chains", "1", "--out", str(out),
                 "--seed", "2"]) == 0
    assert len(read_poses(out)[0]) == 1


def test_cmd_denoise_model_evaluates_grasp_field_once(scenario_dir, tmp_path, monkeypatch):
    import se3diffuse.fields as fields

    scn = read_scenario(scenario_dir / "scenario.txt")
    assert len(scn.scene) != len(scn.grasp)  # so the cloud size tells them apart
    calls = {}
    real = fields._edf_batch

    def counting(xs, pc, params, gates, frames=None):
        if len(pc) == len(scn.grasp):
            calls[id(params)] = calls.get(id(params), 0) + 1
        return real(xs, pc, params, gates, frames)

    monkeypatch.setattr(fields, "_edf_batch", counting)
    assert main(["denoise", "--scenario", str(scenario_dir / "scenario.txt"),
                 "--score", "model", "--chains", "2", "--out", str(tmp_path / "m.txt"),
                 "--seed", "3"]) == 0
    # one query-weight field and one grasp field, each evaluated once per run
    assert sorted(calls.values()) == [1, 1]


def _toy_in_two_length_units():
    """The toy scenario at seed 4, and the same geometry written with L = 2."""
    base = make_toy_scenario(seed=4)

    def scaled(edf):
        return dataclasses.replace(edf, cutoff=2.0 * edf.cutoff,
                                   radial_widths=tuple(2.0 * w for w in edf.radial_widths))

    model = base.model
    doubled = dataclasses.replace(
        base, scene=PointCloud(2.0 * base.scene.positions, base.scene.colors),
        grasp=PointCloud(2.0 * base.grasp.positions, base.grasp.colors),
        demo_poses=tuple(Pose(2.0 * g.p, g.r) for g in base.demo_poses),
        config=dataclasses.replace(base.config, r=2.0 * base.config.r, L=2.0),
        model=dataclasses.replace(model, scene=scaled(model.scene), grasp=scaled(model.grasp),
                                  weight_field=scaled(model.weight_field)))
    return base, doubled


def test_cmd_denoise_model_lengths_are_divided_by_the_length_unit(tmp_path, monkeypatch):
    import se3diffuse.cli as cli

    base, doubled = _toy_in_two_length_units()
    scores = []
    real = cli.run_denoising

    def capture(score, *args, **kwargs):
        scores.append(score)
        return real(score, *args, **kwargs)

    monkeypatch.setattr(cli, "run_denoising", capture)
    for name, scn in (("base", base), ("doubled", doubled)):
        path = write_scenario(tmp_path / name, scn)
        assert main(["denoise", "--scenario", str(path), "--score", "model", "--chains", "1",
                     "--out", str(tmp_path / f"{name}.txt"), "--seed", "1"]) == 0
    # the same non-dimensional poses near the demos score the same in both units
    q = np.stack([g.r.q for g in base.demo_poses])
    p = np.stack([g.p for g in base.demo_poses]) + 0.05
    want = scores[0].score_batch(q, p, 0.3)
    assert np.max(np.abs(want)) > 0.0
    assert np.array_equal(scores[1].score_batch(q, p, 0.3), want)


def test_cmd_denoise_initial_poses_scale_with_the_length_unit(tmp_path):
    # the scene box is padded by 0.2 L, so both units start from the same
    # non-dimensional poses and every length in the output doubles exactly
    runs = []
    for name, scn in zip(("base", "doubled"), _toy_in_two_length_units()):
        path = write_scenario(tmp_path / name, scn)
        out = tmp_path / f"{name}.txt"
        assert main(["denoise", "--scenario", str(path), "--score", "oracle", "--chains", "6",
                     "--out", str(out), "--seed", "1"]) == 0
        chains = [dict((k, float(v)) for k, v in re.findall(r"(\w+) = ([-+.\de]+)", line))
                  for line in out.read_text().splitlines() if line.startswith("# chain ")]
        runs.append((chains, read_poses(out)))
    (base_chains, (base_p, base_q)), (chains, (p, q)) = runs
    assert len(chains) == len(p) == 6
    assert chains == [dict(c, trans_to_demo=2.0 * c["trans_to_demo"]) for c in base_chains]
    assert np.array_equal(p, 2.0 * base_p) and np.array_equal(q, base_q)


def test_cmd_denoise_model_refuses_widths_that_square_to_zero_in_length_units(tmp_path, capsys):
    base = make_toy_scenario(seed=4)
    model = base.model
    tiny = dataclasses.replace(model, scene=dataclasses.replace(
        model.scene, radial_widths=tuple(1e-100 * w for w in model.scene.radial_widths)))
    # fine on disk and at L = 1e100, but the widths over L square to 0
    path = write_scenario(tmp_path / "scn", dataclasses.replace(
        base, config=dataclasses.replace(base.config, L=1e100), model=tiny))
    assert main(["denoise", "--scenario", str(path), "--score", "model", "--chains", "1",
                 "--out", str(tmp_path / "x.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model lengths divided by length_unit 1e+100: radial widths")
    assert err.count("\n") == 1


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
    assert len(read_poses(out)[0]) == 2


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


def _sample_igso3(eps, out, n):
    """(exit status, stderr lines, ks_statistic or None) of one sample-igso3 run."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["sample-igso3", "--eps", repr(eps), "--n", str(n), "--out", str(out),
                     "--seed", "1"])
    ks = None
    if code == 0:
        line = next(l for l in out.read_text().splitlines() if l.startswith("# ks_statistic"))
        ks = float(line.split("=")[1])
    return code, err.getvalue().splitlines(), ks


@pytest.mark.parametrize("eps", [1e-210, 2.3e-308])
def test_cmd_sample_igso3_ks_where_the_density_at_zero_overflows(tmp_path, eps):
    code, err, ks = _sample_igso3(eps, tmp_path / "rots.txt", 2000)
    assert code == 0 and err == []
    # the KS of these draws at eps = 1e-4, where nothing overflows (chi(3) scales with sqrt(eps))
    assert abs(ks - _sample_igso3(1e-4, tmp_path / "ref.txt", 2000)[2]) < 1e-4


def test_cmd_sample_igso3_refuses_a_subnormal_eps(tmp_path):
    code, err, _ = _sample_igso3(5e-324, tmp_path / "rots.txt", 10)
    assert code == 2 and len(err) == 1 and err[0].startswith("error: --eps 5e-324")
    assert not (tmp_path / "rots.txt").exists()


@settings(max_examples=25, deadline=None)
@example(log_eps=math.log(5e-324))
@example(log_eps=math.log(2.3e-308))
@example(log_eps=math.log(1e-210))
@example(log_eps=math.log(1e3))
@example(log_eps=math.log(1e307))
@example(log_eps=math.log(1.7e308))
@given(log_eps=st.floats(math.log(5e-324), math.log(1.7e308)))
def test_cmd_sample_igso3_exits_0_with_a_finite_ks_or_2_with_one_error_line(tmp_path_factory,
                                                                             log_eps):
    eps = max(math.exp(log_eps), 5e-324)
    code, err, ks = _sample_igso3(eps, tmp_path_factory.mktemp("igso3") / "rots.txt", 200)
    if code == 0:
        assert err == [] and math.isfinite(ks)
    else:
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ")


_LOG_TIME = st.floats(math.log(5e-324), math.log(1.7e308))


@settings(max_examples=25, deadline=None)
@example(log_t=math.log(5e306), log_t_max=None)
@example(log_t=math.log(1e-4), log_t_max=math.log(1.7e308))
@example(log_t=math.log(5e-324), log_t_max=math.log(1.0))
@example(log_t=math.log(1.0), log_t_max=math.log(1e-4))
@given(log_t=_LOG_TIME, log_t_max=st.none() | _LOG_TIME)
def test_cmd_diffuse_exits_0_with_finite_draws_or_2_with_one_error_line(scenario_dir, tmp_path_factory,
                                                                        log_t, log_t_max):
    times = ["--t", repr(max(math.exp(log_t), 5e-324))]
    if log_t_max is not None:
        times += ["--t-max", repr(max(math.exp(log_t_max), 5e-324))]
    out = tmp_path_factory.mktemp("diffuse") / "d.txt"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["diffuse", "--scenario", str(scenario_dir / "scenario.txt"), *times, "--n", "5",
                     "--out", str(out), "--seed", "1"])
    err = err.getvalue().splitlines()
    if code == 0:
        records = _sample_records(out)
        p, q = read_poses(out)  # the reader refuses non-finite entries
        assert err == [] and len(records) == len(p) == 5 and np.all(np.isfinite(p)) and np.all(np.isfinite(q))
        for rec in records:
            assert all(np.all(np.isfinite(rec[key])) for key in ("t", "p_de", "delta_quat", "delta_pos"))
    else:
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ")


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
    if case in (bad := {**_BAD_VALUES, **_BAD_SCALARS, **_BAD_SCHEDULES}):
        name, key, value, message = bad[case]
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
# scenario scalars that read_scenario refuses, so every command does
_BAD_SCALARS = {
    "fractional-steps": ("scenario.txt", "schedule_segments", "[[1.0, 0.1, 2.5]]",
                         "whole number, got 2.5"),
    "boolean-steps": ("scenario.txt", "schedule_segments", "[[1.0, 0.1, true]]", "holds numbers"),
    "boolean-radius": ("scenario.txt", "contact_radius", "true", "'contact_radius' must be a number"),
    "boolean-t": ("scenario.txt", "t", "false", "'t' must be a number"),
    "boolean-length-unit": ("scenario.txt", "length_unit", "true", "'length_unit' must be a number"),
    "boolean-schedule-eps": ("scenario.txt", "schedule_eps", "true", "'schedule_eps' must be a number"),
    "boolean-schedule-k1": ("scenario.txt", "schedule_k1", "false", "'schedule_k1' must be a number"),
    # the non-dimensional lengths would square past the double range: overflow, or widths squaring to 0
    "tiny-length-unit": ("scenario.txt", "length_unit", "1e-300", "outside [1e-150, 1e150]"),
    "huge-length-unit": ("scenario.txt", "length_unit", "1e300", "outside [1e-150, 1e150]"),
}
# refused before they run: the scores' 1/t terms overflow at subnormal times; a huge step count would allocate
_BAD_SCHEDULES = {
    "subnormal-time": ("scenario.txt", "schedule_segments", "[[1.0, 0.1, 150], [0.1, 1e-310, 150]]", "normal double"),
    "too-many-steps": ("scenario.txt", "schedule_segments", "[[1.0, 0.1, 100001]]", "1 to 100000 steps, got 100001"),
}


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
    *[(["diffuse", "--n", "2"], case) for case in _BAD_SCALARS],
    *[(["denoise", "--score", score, "--chains", "1"], case) for score in ("oracle", "model")
      for case in ("tiny-length-unit", "huge-length-unit")],
    *[(["diffuse", "--n", "2"], case) for case in _BAD_SCHEDULES],
    *[(["denoise", "--score", score, "--chains", "1"], "subnormal-time") for score in ("oracle", "model")],
])
def test_cli_bad_input_files_exit_2_without_traceback(scenario_dir, tmp_path, capsys, argv, case):
    path, extra, message = _bad_input(scenario_dir, tmp_path, case)
    out = tmp_path / "x.txt"
    assert main(argv + ["--scenario", str(path), "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-scenario", "diffuse", "denoise", "sample-igso3"])
def test_cli_unwritable_out_exits_2_without_traceback(scenario_dir, tmp_path, capsys, command):
    scenario = ["--scenario", str(scenario_dir / "scenario.txt")]
    argv = {"diffuse": ["diffuse", *scenario, "--n", "2"],
            "denoise": ["denoise", *scenario, "--chains", "1"],
            "sample-igso3": ["sample-igso3", "--eps", "0.5", "--n", "2"]}.get(command, [command])
    if command == "gen-scenario":
        out = tmp_path / "taken.txt"  # an existing file where the directory should go
        out.write_text("")
    else:
        out = tmp_path / "missing" / "x.txt"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


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
