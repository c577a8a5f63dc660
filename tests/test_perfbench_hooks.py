"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/layers.py`` replaces functions by name under ``--trace 1``;
a renamed or deleted function would break the traced run, so install and
uninstall the hooks here and check that the wrapped names are the ones
the program calls.  The oracle denoise output also passes the benchmark's
own correctness check (``perfbench/verify.py``).
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from se3diffuse import cli, fields, igso3, irreps
from se3diffuse.diffusion import MixtureScore
from se3diffuse.fields import ModelScore, build_query_set
from se3diffuse.irreps import IrrepsVector
from se3diffuse.lie import Pose

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_wrap_the_called_functions_and_uninstall(toy):
    layers = _load("layers")
    originals = (cli.run_denoising, fields._contract_batch, irreps.wigner_d,
                 MixtureScore.score_batch)
    tracer = layers.Tracer(time.perf_counter)
    layers.install(tracer)
    try:
        assert fields._contract_batch is not originals[1]
        demos = toy.demo_set()
        q = np.stack([g.r.q for g in toy.demo_poses])
        p = np.stack([g.p for g in toy.demo_poses])
        # t = 1 puts eps at EPS_SERIES, so the oracle sums the series
        cfg = cli.DiffusionConfig(t=1.0, r=toy.config.r, L=1.0)
        MixtureScore(demos, cfg).score_batch(q, p, 1.0)
        ModelScore(toy.scene, toy.grasp, 1.0, build_query_set(toy.grasp, toy.model),
                   toy.model).score_batch(q, p, 0.5)
        # the model score makes no Wigner-D call; rep_apply still goes through the name
        layout = toy.model.scene.layout
        irreps.rep_apply(layout, toy.demo_poses[0].r, IrrepsVector(layout, np.ones(layout.dim)))
        for name in ("diffusion.mixture_score", "igso3.series", "fields.contract",
                     "fields.edf", "irreps.wigner_d"):
            assert tracer.stats[name].calls > 0, name
        assert tracer.stats["diffusion.mixture_score"].count == len(q)
        # the hook reads the series order from the third positional argument
        assert tracer.stats["igso3.series"].peak == igso3.SERIES_LMAX
    finally:
        tracer.uninstall()
    assert (cli.run_denoising, fields._contract_batch, irreps.wigner_d,
            MixtureScore.score_batch) == originals


def test_diffuse_hooks_still_find_their_names_and_count_weights_per_demo(tmp_path):
    # perfbench/probe.py readies a diffuse workload with the scalar call
    scn_dir = tmp_path / "scn"
    assert cli.main(["gen-scenario", "--out", str(scn_dir), "--seed", "7"]) == 0
    scn = cli.read_scenario(scn_dir / "scenario.txt")
    scene, grasp, demos = cli._nondimensionalize(scn)
    cfg = cli.DiffusionConfig(t=0.5, r=scn.config.r, L=scn.config.L)
    g_t, p_de, dg = cli.forward_diffuse(demos[0], scene, grasp, cfg, np.random.default_rng(0))
    assert isinstance(g_t, Pose) and isinstance(dg, Pose) and p_de.shape == (3,)
    # perfbench/layers.py counts quadrature-CDF builds from the cache statistics
    assert callable(igso3._cdf_table.cache_info)

    layers = _load("layers")
    tracer = layers.Tracer(time.perf_counter)
    layers.install(tracer)
    try:
        assert cli.main(["diffuse", "--scenario", str(scn_dir / "scenario.txt"), "--t", "0.5",
                         "--n", "40", "--out", str(tmp_path / "d.txt"), "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["diffusion.contact_weights"].calls == len(demos)
    assert tracer.stats["io.write_poses"].calls == 1


def test_model_denoise_hooks_count_fields_and_wigner_d_per_step(tmp_path):
    scn_dir = tmp_path / "scn"
    assert cli.main(["gen-scenario", "--out", str(scn_dir), "--seed", "7"]) == 0
    scn = cli.read_scenario(scn_dir / "scenario.txt")
    scene, grasp, _ = cli._nondimensionalize(scn)
    # fill the CG-tensor cache, whose first builds call wigner_d
    ModelScore(scene, grasp, 1.0, build_query_set(grasp, scn.model), scn.model)

    layers = _load("layers")
    tracer = layers.Tracer(time.perf_counter)
    layers.install(tracer)
    try:
        assert cli.main(["denoise", "--scenario", str(scn_dir / "scenario.txt"), "--score", "model",
                         "--chains", "2", "--out", str(tmp_path / "m.txt"), "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    stats, steps = tracer.stats, scn.schedule.steps
    assert stats["sampler.step_batch"].calls == steps
    # the scene field once per step; the grasp field and the query weights once per run
    assert stats["fields.edf"].calls == steps + 2
    # the score takes the scene into each body frame, so no field is rotated
    assert stats["irreps.wigner_d"].calls == 0
    # both branches share one per-path read-out tensor, one CG contraction when the score is built
    assert stats["fields.contract"].calls == 1
    assert stats["io.write_poses"].calls == 1


@pytest.fixture(scope="module")
def probe_scenario(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe") / "scn"
    assert cli.main(["gen-scenario", "--out", str(out), "--seed", "7"]) == 0
    return out / "scenario.txt"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_probe_readies_each_workload(probe_scenario, workload):
    # perfbench/probe.py calls the program by name in a fresh interpreter, as perfbench/run.py spawns it
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(probe_scenario)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    assert {"import_s", "read_s", "build_s", "factor"} <= json.loads(line).keys()


def test_oracle_denoise_passes_the_benchmark_correctness_check(probe_scenario, tmp_path, monkeypatch):
    # demo hits, and the reported density against the direct sum of perfbench/refs.py at 1e-8
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # verify.py imports refs by name
    refs, verify = _load("refs"), _load("verify")
    files = [tmp_path / f"oracle_{seed}.txt" for seed in (1, 2)]
    for seed, out in zip((1, 2), files):
        assert cli.main(["denoise", "--scenario", str(probe_scenario), "--score", "oracle",
                         "--chains", "30", "--out", str(out), "--seed", str(seed)]) == 0
    assert verify.denoise_oracle(files, refs.read_scene(probe_scenario), np.random.default_rng(0)) == (0, [])
