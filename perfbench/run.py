"""End-to-end benchmark of the se3-diffuse command line, run from a checkout root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package is imported from ``./src``.  One run

1. writes the bundled toy scenario (``gen-scenario --seed 7``);
2. times ``PROBES`` fresh interpreters that import se3diffuse, read the
   scenario and build the workload's score or first table; ``setup_s`` is
   their median;
3. warms up with one small command, then repeats whole rounds of the
   workload's command in this process until ``S`` seconds of rounds have
   run; ``poses_per_s`` is the poses of all rounds over their summed time;
4. checks every file the rounds wrote against ``refs`` (via ``verify``);
5. prints one JSON line: the end-to-end metrics, or with ``--trace 1`` the
   per-layer metrics of ``layers`` from rounds run with wrappers installed.

Every time is speed-normalized by ``speed``.  BLAS and OpenMP are pinned
to one thread and the series kernels to the NumPy backend before the
program loads, here and in the probes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# a stray in-place build of the Cython series would otherwise switch backends
os.environ["SE3DIFFUSE_FORCE_NUMPY"] = "1"

HERE = Path(__file__).resolve().parent
SCENARIO_SEED = 7
PROBES = 7

# name -> (subcommand, fixed arguments, count flag, operations per round, warm-up count)
WORKLOADS = {
    "denoise-oracle": ("denoise", ["--score", "oracle"], "--chains", 100, 2),
    "denoise-model": ("denoise", ["--score", "model"], "--chains", 2, 1),
    "diffuse-logu": ("diffuse", ["--t", "1e-4", "--t-max", "1"], "--n", 50, 4),
    "diffuse-fixed": ("diffuse", ["--t", "0.5"], "--n", 200, 4),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root: Path):
    src = root / "src"
    if not (src / "se3diffuse" / "__init__.py").is_file():
        fail(f"no se3diffuse sources under {src}; run from the repository root")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))
    from se3diffuse import _kernels, cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"se3diffuse was imported from {cli.__file__}, not from {src}")
    if _kernels.BACKEND != "numpy":
        fail(f"series backend is {_kernels.BACKEND}, not numpy")
    return cli


def measure_setup(workload: str, scenario: Path) -> list[dict]:
    """Spawn fresh interpreters one at a time; each readies the workload once."""
    samples = []
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(scenario)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or not line:
            fail(f"set-up probe for {workload} exited with code {proc.returncode}")
        sample = json.loads(line)
        sample["setup_s"] = (wall - sample["paused_s"]) * sample["factor"]
        samples.append(sample)
    return samples


def run_command(cli, argv: list[str]) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        fail(f"se3-diffuse {' '.join(argv)} exited with code {code}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_program(Path.cwd())
    import numpy as np

    import layers
    import refs
    import speed
    import verify

    out = HERE / "_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run_command(cli, ["gen-scenario", "--out", str(out / "scenario"), "--seed", str(SCENARIO_SEED)])
    scenario = out / "scenario" / "scenario.txt"

    probes = measure_setup(args.workload, scenario)

    sub, fixed, count_flag, per_round, warm = WORKLOADS[args.workload]
    seeds = np.random.SeedSequence(args.seed)

    def command(count: int, path: Path) -> list[str]:
        seed = int(seeds.spawn(1)[0].generate_state(1)[0])
        return [sub, "--scenario", str(scenario), *fixed, count_flag, str(count),
                "--out", str(path), "--seed", str(seed)]

    run_command(cli, command(warm, out / "warmup.txt"))

    sampler = speed.Sampler()
    tracer = layers.Tracer(clock=sampler.now)
    if args.trace:
        layers.install(tracer)
    files, walls, normalized = [], [], []
    sampler.start()
    while sum(walls) < args.seconds:
        path = out / f"round-{len(files):03d}.txt"
        argv = command(per_round, path)
        first, start = len(sampler.samples), sampler.now()
        run_command(cli, argv)
        walls.append(sampler.now() - start)
        normalized.append(walls[-1] * sampler.factor(first))
        files.append(path)
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    geo = refs.read_scene(scenario)
    check_rng = np.random.default_rng(seeds.spawn(1)[0])
    if sub == "diffuse":
        failed, problems = verify.diffuse(files, geo, check_rng)
    elif args.workload == "denoise-oracle":
        failed, problems = verify.denoise_oracle(files, geo, check_rng)
    else:
        failed, problems = verify.denoise_model(files, geo, check_rng, scenario)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    poses_per_s = per_round * len(normalized) / sum(normalized)
    wall_poses_per_s = per_round * len(walls) / sum(walls)
    print(f"perfbench: {args.workload}: {len(walls)} rounds of {per_round}; wall s "
          f"{[round(w, 3) for w in walls]}; normalized s {[round(w, 3) for w in normalized]}",
          file=sys.stderr)
    print(f"perfbench: wall poses_per_s {wall_poses_per_s!r}", file=sys.stderr)
    if args.trace:
        metrics = layers.per_layer_metrics(tracer, len(walls), sampler.factor())
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.score_build_s"] = (statistics.median(p["build_s"] for p in probes), "s")
        metrics["trace.poses_per_s"] = (poses_per_s, "1/s")
        metrics["bench.wall_poses_per_s"] = (wall_poses_per_s, "1/s")
        metrics["bench.speed_factor"] = (sampler.factor(), "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "poses_per_s": (poses_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": per_round * len(files),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
