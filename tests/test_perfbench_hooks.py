"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/layers.py`` replaces functions by name under ``--trace 1``;
a renamed or deleted function would break the traced run, so install and
uninstall the hooks here and check that the wrapped names are the ones
the program calls.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np

from se3diffuse import cli, fields, igso3, irreps
from se3diffuse.diffusion import MixtureScore
from se3diffuse.fields import ModelScore, build_query_set
from se3diffuse.irreps import IrrepsVector
from se3diffuse.lie import Pose

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_install_wrap_the_called_functions_and_uninstall(toy):
    layers = _load_layers()
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
    # perfbench/layers.py counts inverse-CDF table builds from the cache statistics
    assert callable(igso3._cdf_table.cache_info)

    layers = _load_layers()
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

    layers = _load_layers()
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
