"""Set-up probe: one fresh interpreter readies one workload, then exits.

    python3 perfbench/probe.py WORKLOAD SCENARIO_PATH

Prints one JSON line when the workload is ready: its own import, read and
build times (speed-normalized, see ``speed``), the seconds its speed
sampler ran, and the normalization factor.  The parent times the span
from spawning this interpreter until the line arrives.
"""

import json
import sys
import time

import speed

start = time.perf_counter()
sampler = speed.Sampler()
sampler.start()

from se3diffuse import cli  # noqa: E402  (the import is what is being timed)
from se3diffuse.diffusion import DemoSet, DiffusionConfig, MixtureScore  # noqa: E402
from se3diffuse.fields import build_query_set  # noqa: E402

import numpy as np  # noqa: E402

imported = sampler.now()


def main(workload: str, scenario_path: str) -> None:
    scn = cli.read_scenario(scenario_path)
    read = sampler.now()
    scene, grasp, demos = cli._nondimensionalize(scn)
    if workload == "denoise-oracle":
        cfg = DiffusionConfig(t=scn.config.t, r=scn.config.r, L=scn.config.L)
        MixtureScore(DemoSet(tuple((g, scene, grasp) for g in demos)), cfg)
    elif workload == "denoise-model":
        query = build_query_set(grasp, scn.model)
        # the first call fills the Clebsch-Gordan and generator caches
        cli.assemble_score(demos[0], scene, grasp, float(scn.schedule.t[0]), 1.0, query, scn.model)
    else:
        t = 1e-4 if workload == "diffuse-logu" else 0.5
        cfg = DiffusionConfig(t=t, r=scn.config.r, L=scn.config.L)
        # the first draw builds the first inverse-CDF table
        cli.forward_diffuse(demos[0], scene, grasp, cfg, np.random.default_rng(0))
    built = sampler.now()
    sampler.stop()
    f = sampler.factor()
    print(json.dumps({"import_s": (imported - start) * f, "read_s": (read - imported) * f,
                      "build_s": (built - read) * f, "paused_s": sampler.paused, "factor": f}),
          flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
