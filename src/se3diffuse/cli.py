"""Command-line entry points.

    se3-diffuse gen-scenario --out DIR [--seed N]
    se3-diffuse diffuse      --scenario PATH --t F --n N --out PATH [--seed N] [--t-max F]
    se3-diffuse denoise      --scenario PATH --score {oracle,model} --chains N --out PATH
                             [--seed N] [--integrator {exact,quat-trans}] [--params PATH]
    se3-diffuse check        --suite {lie,irreps,igso3,equivariance,all} [--seed N]
    se3-diffuse sample-igso3 --eps F --n N --out PATH [--seed N]

Every command takes ``--seed`` and is bit-deterministic given it; all
output files embed the configuration, seed, and library version in their
provenance header.  Times and ``--eps`` must be positive and finite,
counts positive (``diffuse --n`` may be 0), seeds nonnegative, and
``--t-max`` at least the diffusion time; anything else exits with status
2 and a usage message.  Scenario geometry on disk is in scene units; the
commands divide by the configured length unit on load and scale back on
output.

``diffuse`` makes all its draws in one ``forward_diffuse_batch`` call,
which takes from the seeded stream, per sample: ``random()`` for a
log-uniform t when ``--t-max`` is given, ``integers(0, D)`` for the demo
(nothing for a single demo), ``random(2)`` for the contact-weighted
diffusion origin and the IGSO(3) angle, and ``standard_normal(6)`` for
the rotation axis and the translation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, io as sio
# forward_diffuse and assemble_score are unused here; perfbench/ traces and calls them through cli
from .diffusion import (  # noqa: F401
    DemoSet,
    DiffusionConfig,
    MixtureScore,
    forward_diffuse,
    forward_diffuse_batch,
    kernel_log_density,
)
from .fields import ModelScore, assemble_score, build_query_set  # noqa: F401
from .igso3 import IgParams, angle_cdf_quadrature, igso3_sample_quats
from .lie import Pose, quat_angle, quat_conj, quat_mul
from .pointcloud import PointCloud
from .sampler import run_denoising
from .scenario import (
    Scenario,
    make_toy_scenario,
    read_model_params,
    read_scenario,
    sample_initial_poses,
    write_scenario,
)

__all__ = ["main"]


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


_count = _int_at_least(1)
_seed = _int_at_least(0)


def _scale_cloud(pc: PointCloud, factor: float) -> PointCloud:
    return PointCloud(pc.positions * factor, pc.colors)


def _nondimensionalize(scn: Scenario) -> tuple[PointCloud, PointCloud, list[Pose]]:
    inv_l = 1.0 / scn.config.L
    scene = _scale_cloud(scn.scene, inv_l)
    grasp = _scale_cloud(scn.grasp, inv_l)
    demos = [Pose(g.p * inv_l, g.r) for g in scn.demo_poses]
    return scene, grasp, demos


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    scn = make_toy_scenario(seed=args.seed)
    path = write_scenario(args.out, scn)
    print(f"wrote {path}")
    return 0


def _error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


_SAMPLE_LINE = ("# sample {}: t = {:.16e}; p_de = [{:.16e}, {:.16e}, {:.16e}]; "
                "delta_quat = [{:.16e}, {:.16e}, {:.16e}, {:.16e}]; "
                "delta_pos = [{:.16e}, {:.16e}, {:.16e}]")


def cmd_diffuse(args: argparse.Namespace) -> int:
    try:
        scn = read_scenario(args.scenario)
    except (sio.ParseError, OSError) as exc:
        return _error(exc)
    seed = args.seed if args.seed is not None else scn.seed
    rng = np.random.default_rng(seed)
    scene, grasp, demos = _nondimensionalize(scn)
    t_lo = args.t if args.t is not None else scn.config.t
    if args.t_max is not None and args.t_max < t_lo:
        return _error(f"--t-max {args.t_max!r} is below the diffusion time {t_lo!r}")
    lines = sio.provenance_lines(seed=seed, scenario=str(args.scenario), t=t_lo,
                                 t_max=args.t_max if args.t_max else t_lo, n=args.n)
    cfg = DiffusionConfig(t=t_lo, r=scn.config.r, L=scn.config.L)
    d = forward_diffuse_batch(demos, scene, grasp, cfg, rng, args.n, t_max=args.t_max)
    length = scn.config.L
    lines.extend(_SAMPLE_LINE.format(k, t, *pde, *dq, *dp) for k, (t, pde, dq, dp) in enumerate(
        zip(d.t.tolist(), (d.p_de * length).tolist(), d.delta_q.tolist(), d.delta_p.tolist())))
    out = Path(args.out)
    sio.write_poses(out, d.p * length, d.q, lines)
    print(f"wrote {out} ({args.n} poses)")
    return 0


def cmd_denoise(args: argparse.Namespace) -> int:
    try:
        scn = read_scenario(args.scenario)
        model = read_model_params(args.params) if args.params else scn.model
    except (sio.ParseError, OSError) as exc:
        return _error(exc)
    seed = args.seed if args.seed is not None else scn.seed
    scene, grasp, demos = _nondimensionalize(scn)
    cfg = DiffusionConfig(t=scn.config.t, r=scn.config.r, L=scn.config.L)
    if args.score == "oracle":
        score_fn = MixtureScore(DemoSet(tuple((g, scene, grasp) for g in demos)), cfg)
    elif model is None:
        return _error("--score model requires model parameters "
                      "(scenario model_params or --params)")
    elif max(model.query_count, model.query_start_index + 1) > len(grasp):
        return _error(f"the model takes {model.query_count} query points from grasp point "
                      f"{model.query_start_index}, but the grasp cloud has {len(grasp)} points")
    else:
        score_fn = ModelScore(scene, grasp, 1.0, build_query_set(grasp, model), model)

    rng = np.random.default_rng(seed)
    q0, p0 = sample_initial_poses(scn, rng, args.chains)
    out = run_denoising(score_fn, q0, p0 * (1.0 / scn.config.L), scn.schedule, rng,
                        integrator=args.integrator, record="final")
    header = sio.provenance_lines(seed=seed, scenario=str(args.scenario),
                                  score=args.score, chains=args.chains,
                                  integrator=args.integrator)
    cfg_final = DiffusionConfig(t=float(scn.schedule.t[-1]), r=scn.config.r, L=scn.config.L)
    # (chains, demos) kernel log densities, one call per demo over all chains
    logdens = np.stack([kernel_log_density(out.q, out.p, g0, scene, grasp, cfg_final)
                        for g0 in demos], axis=1)
    m = np.max(logdens, axis=1)
    mixes = m + np.log(np.sum(np.exp(logdens - m[:, None]), axis=1) / len(demos))
    # (chains, demos) distances to every demo; the first nearest by rot + tr is reported
    q_demo = np.stack([g0.r.q for g0 in demos])
    rots = quat_angle(quat_mul(quat_conj(q_demo), out.q[:, None]))
    d = out.p[:, None] - np.stack([g0.p for g0 in demos])
    trs = np.sqrt(np.vecdot(d, d))
    for i, (k, step, err) in enumerate(zip(np.argmin(rots + trs, axis=1), out.failed_step,
                                           out.error)):
        status = f"failed at step {step}: {err}" if step >= 0 else "ok"
        header.append(
            f"# chain {i}: status = {status}; rot_to_demo_rad = {sio.fmt_float(rots[i, k])}; "
            f"trans_to_demo = {sio.fmt_float(trs[i, k] * scn.config.L)}; "
            f"log_mixture_density = {sio.fmt_float(mixes[i])}")
    sio.write_poses(args.out, out.p * scn.config.L, out.q, header)
    print(f"wrote {args.out} ({args.chains} chains)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_suite

    results = run_suite(args.suite, seed=args.seed or 0, perturb_adjoint=args.perturb_adjoint)
    report = {
        "suite": args.suite,
        "checks": [
            {"name": r.name, "max_error": float(r.max_error), "tolerance": r.tolerance,
             "pass": bool(r.passed)}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


_QUAT_LINE = "quat: [{:.16e}, {:.16e}, {:.16e}, {:.16e}]"


def cmd_sample_igso3(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    params = IgParams(eps=args.eps)
    quats = igso3_sample_quats(params, rng, args.n)
    angles = np.sort(quat_angle(quats))
    grid, cdf = angle_cdf_quadrature(params)
    cdf_at = np.interp(angles, grid, cdf)
    n = angles.size
    ks = float(np.max(np.maximum(np.arange(1, n + 1) / n - cdf_at,
                                 cdf_at - np.arange(n) / n)))
    hist, edges = np.histogram(angles, bins=24, range=(0.0, math.pi))
    header = sio.provenance_lines(seed=seed, eps=args.eps, n=args.n)
    header.append(f"# ks_statistic = {sio.fmt_float(ks)}")
    header.append("# angle_histogram_counts = [" + ", ".join(str(int(c)) for c in hist) + "]")
    header.append("# angle_histogram_edges = ["
                  + ", ".join(sio.fmt_float(e) for e in edges) + "]")
    lines = header + [_QUAT_LINE.format(*q) for q in quats.tolist()]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} (n={args.n}, KS={ks:.5f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="se3-diffuse",
                                     description="Bi-equivariant SE(3) diffusion toolkit")
    parser.add_argument("--version", action="version", version=f"se3-diffuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenario", help="write the bundled toy scenario")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=7)
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("diffuse", help="forward-diffuse demo poses")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", type=_positive_float, default=None,
                   help="diffusion time (default: scenario)")
    p.add_argument("--t-max", type=_positive_float, default=None,
                   help="if set, sample t log-uniformly in [t, t-max] per sample")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("denoise", help="run annealed Langevin denoising")
    p.add_argument("--scenario", required=True)
    p.add_argument("--score", choices=("oracle", "model"), default="oracle")
    p.add_argument("--chains", type=_count, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--integrator", choices=("exact", "quat-trans"), default="exact")
    p.add_argument("--params", default=None, help="score-model parameter file")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("check", help="run invariant suites")
    p.add_argument("--suite", choices=("lie", "irreps", "igso3", "equivariance", "all"),
                   default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--perturb-adjoint", action="store_true",
                   help="negative control: inject a perturbed adjoint (suite must fail)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample-igso3", help="sample the rotational kernel")
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_sample_igso3)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status (2 for a usage error)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help, --version and bad arguments
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
