"""Scenario container and the bundled toy problem generator.

A scenario packs everything a reproducible experiment needs: the scene
and grasp clouds, demonstration poses, the diffusion configuration, the
annealing schedule, the score-model parameter file, and the seed.

The toy instance is a mug-on-hanger-like geometry: the scene is a
vertical post carrying a horizontal rod, the grasp cloud is a rim ring
plus a handle arc, and the demonstrations hang the handle on the rod at
three distinct positions and swing angles.  The handle is the only
contact-rich sub-geometry, so the contact-based origin selection has
something meaningful to find.  The generated instance uses L = 1, i.e.
scene units are already non-dimensional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as sio
from .diffusion import DemoSet, DiffusionConfig
from .fields import ScoreModelParams, random_model_params
from .irreps import IrrepsLayout
from .lie import Pose, Rotation, exp_so3, random_quats
from .pointcloud import PointCloud, bounding_box
from .sampler import AnnealSchedule, build_schedule

__all__ = [
    "Scenario",
    "make_toy_scenario",
    "write_scenario",
    "read_scenario",
    "sample_initial_poses",
    "write_model_params",
    "read_model_params",
]


@dataclass(frozen=True, eq=False)
class Scenario:
    scene: PointCloud
    grasp: PointCloud
    demo_poses: tuple[Pose, ...]
    config: DiffusionConfig
    schedule: AnnealSchedule
    seed: int
    model: ScoreModelParams | None = None

    def demo_set(self) -> DemoSet:
        return DemoSet(tuple((g, self.scene, self.grasp) for g in self.demo_poses))


def _ring(radius: float, z: float, n: int) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([radius * np.cos(ang), radius * np.sin(ang), np.full(n, z)], axis=1)


def _toy_clouds(rng: np.random.Generator) -> tuple[PointCloud, PointCloud]:
    post = np.stack([np.zeros(25), np.zeros(25), np.linspace(-0.9, 0.3, 25)], axis=1)
    rod = np.stack([np.linspace(0.0, 0.6, 25), np.zeros(25), np.full(25, 0.3)], axis=1)
    scene_pts = np.concatenate([post, rod])

    rim = _ring(0.25, 0.0, 36)
    ang = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 15)
    handle = np.stack([0.25 + 0.12 * np.cos(ang), np.zeros(15), -0.25 + 0.12 * np.sin(ang)],
                      axis=1)
    grasp_pts = np.concatenate([rim, handle])
    # break the exact symmetries so farthest-point ties cannot occur
    scene_pts += 0.008 * rng.standard_normal(scene_pts.shape)
    grasp_pts += 0.008 * rng.standard_normal(grasp_pts.shape)
    return PointCloud(scene_pts), PointCloud(grasp_pts)


HANDLE_CENTER = np.array([0.25, 0.0, -0.25])


def _toy_demos() -> tuple[Pose, ...]:
    orient = exp_so3(np.array([0.0, 0.0, -0.5 * math.pi]))  # mug y-axis onto the rod axis
    demos = []
    for x_r, swing in ((0.15, -0.4), (0.30, 0.0), (0.45, 0.4)):
        rot = exp_so3(np.array([swing, 0.0, 0.0])).compose(orient)
        rod_point = np.array([x_r, 0.0, 0.3])
        demos.append(Pose(rod_point - rot.apply(HANDLE_CENTER), rot))
    return tuple(demos)


def make_toy_scenario(seed: int = 7) -> Scenario:
    rng = np.random.default_rng(seed)
    scene, grasp = _toy_clouds(rng)
    model = random_model_params(rng, cutoff=0.8)
    return Scenario(
        scene=scene,
        grasp=grasp,
        demo_poses=_toy_demos(),
        config=DiffusionConfig(t=1.0, r=0.18, L=1.0),
        schedule=build_schedule([(1.0, 0.1, 150), (0.1, 0.01, 150)], eps=0.05, k1=0.5, k2=1.0),
        seed=seed,
        model=model,
    )


def sample_initial_poses(scenario: Scenario, rng: np.random.Generator,
                         n: int) -> tuple[np.ndarray, np.ndarray]:
    """Default denoising inits, (n, 4) and (n, 3) stacks in scene units: uniform over the scene box
    padded by 0.2 L, Haar rotation; each chain draws ``random(3)``, then a one-row ``random_quats``."""
    lo, hi = bounding_box(scenario.scene)
    lo, hi = lo - 0.2 * scenario.config.L, hi + 0.2 * scenario.config.L
    q, p = np.empty((n, 4)), np.empty((n, 3))
    for i in range(n):
        p[i] = lo + rng.random(3) * (hi - lo)
        q[i] = random_quats(rng, 1)[0]
    return q, p


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_model_params(path: str | Path, model: ScoreModelParams,
                       header: list[str] | None = None) -> None:
    data: dict = {}
    for prefix, params in (("scene", model.scene), ("grasp", model.grasp),
                           ("weight_field", model.weight_field)):
        if params is None:
            continue
        data[f"{prefix}_layout"] = [list(b) for b in params.layout.blocks]
        data[f"{prefix}_cutoff"] = params.cutoff
        data[f"{prefix}_radial_widths"] = list(params.radial_widths)
        data[f"{prefix}_time_gate_centers"] = list(params.time_gate_centers)
        data[f"{prefix}_channel_weights"] = params.channel_weights.tolist()
    data["path_weights_nu"] = model.weights_nu.tolist()
    data["path_weights_omega"] = model.weights_omega.tolist()
    data["query_count"] = model.query_count
    data["query_start_index"] = model.query_start_index
    sio.write_keyvalue(path, data, header or ["# se3diffuse score-model parameters"])


def _params_from(data: dict, prefix: str):
    from .fields import SyntheticEdfParams

    if f"{prefix}_layout" not in data:
        return None
    layout = IrrepsLayout(tuple(tuple(b) for b in data[f"{prefix}_layout"]))
    return SyntheticEdfParams(
        layout=layout,
        cutoff=float(data[f"{prefix}_cutoff"]),
        radial_widths=tuple(data[f"{prefix}_radial_widths"]),
        channel_weights=np.asarray(data[f"{prefix}_channel_weights"], dtype=np.float64),
        time_gate_centers=tuple(data[f"{prefix}_time_gate_centers"]),
    )


def read_model_params(path: str | Path) -> ScoreModelParams:
    data = sio.read_keyvalue(path)
    if "scene_layout" not in data or "grasp_layout" not in data:
        raise sio.ParseError(f"{path}: missing scene/grasp descriptor parameters")
    try:
        return ScoreModelParams(
            scene=_params_from(data, "scene"),
            grasp=_params_from(data, "grasp"),
            weights_nu=np.asarray(data["path_weights_nu"], dtype=np.float64),
            weights_omega=np.asarray(data["path_weights_omega"], dtype=np.float64),
            weight_field=_params_from(data, "weight_field"),
            query_count=data.get("query_count", 8),
            query_start_index=data.get("query_start_index", 0),
        )
    except KeyError as exc:
        raise sio.ParseError(f"{path}: missing {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:  # e.g. time-gate centers that do not increase
        raise sio.ParseError(f"{path}: {exc}") from None


def write_scenario(directory: str | Path, scenario: Scenario) -> Path:
    """Write scenario.txt plus the referenced cloud/pose/parameter files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = sio.provenance_lines(seed=scenario.seed)
    sio.write_point_cloud(directory / "scene.txt", scenario.scene, header)
    sio.write_point_cloud(directory / "grasp.txt", scenario.grasp, header)
    demos = scenario.demo_poses
    sio.write_poses(directory / "demos.txt", np.array([g.p for g in demos]),
                    np.array([g.r.q for g in demos]), header)
    if scenario.model is not None:
        write_model_params(directory / "model_params.txt", scenario.model, header)
    data = {
        "scene": "scene.txt",
        "grasp": "grasp.txt",
        "demos": "demos.txt",
        "t": scenario.config.t,
        "contact_radius": scenario.config.r,
        "length_unit": scenario.config.L,
        "schedule_segments": [list(s) for s in scenario.schedule.segments],
        "schedule_eps": scenario.schedule.eps,
        "schedule_k1": scenario.schedule.k1,
        "schedule_k2": scenario.schedule.k2,
        "seed": scenario.seed,
    }
    if scenario.model is not None:
        data["model_params"] = "model_params.txt"
    path = directory / "scenario.txt"
    sio.write_keyvalue(path, data, header)
    return path


def _number(data: dict, key: str, default: float | None = None) -> float:
    """A scalar entry as a float; a JSON boolean, which float() reads as 0 or 1, is refused."""
    value = data.get(key, default)
    if isinstance(value, bool):
        raise ValueError(f"{key!r} must be a number, got {json.dumps(value)}")
    return float(value)


def read_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    data = sio.read_keyvalue(path)
    base = path.parent
    for key in ("scene", "grasp", "demos", "t", "contact_radius", "schedule_segments",
                "schedule_eps", "seed"):
        if key not in data:
            raise sio.ParseError(f"{path}: missing {key!r} entry")
    for key in ("scene", "grasp", "demos", "model_params"):
        if not isinstance(data.get(key, ""), str):
            raise sio.ParseError(f"{path}: {key!r} must be a file name, got {data[key]!r}")
    seed = data["seed"]
    if type(seed) is not int or seed < 0:  # JSON reads 2.5 as a float and true as a bool
        raise sio.ParseError(f"{path}: seed must be an integer >= 0, got {seed!r}")
    scene = sio.read_point_cloud(base / data["scene"])
    grasp = sio.read_point_cloud(base / data["grasp"])
    demo_p, demo_q = sio.read_poses(base / data["demos"])
    if not len(demo_p):
        raise sio.ParseError(f"{path}: demo pose file is empty")
    model = None
    if "model_params" in data:
        model = read_model_params(base / data["model_params"])
    try:
        schedule = build_schedule([tuple(s) for s in data["schedule_segments"]],
                                  eps=_number(data, "schedule_eps"),
                                  k1=_number(data, "schedule_k1", 0.5),
                                  k2=_number(data, "schedule_k2", 1.0))
        config = DiffusionConfig(t=_number(data, "t"), r=_number(data, "contact_radius"),
                                 L=_number(data, "length_unit", 1.0))
        # the commands divide lengths by L, then square and sum them: keep those squares far
        # inside the double range, as a contact radius of at least 1e-150 length units and
        # coordinates of at most 1e150 do
        largest = max([config.r] + [float(np.max(np.abs(x)))
                                    for x in (scene.positions, grasp.positions, demo_p)]) / config.L
        if not (config.r_nd >= 1e-150 and largest <= 1e150):
            raise ValueError(f"length_unit = {config.L!r} puts the contact radius at {config.r_nd!r} and "
                             f"the largest length at {largest!r} length units, outside [1e-150, 1e150]")
    except (TypeError, ValueError) as exc:
        raise sio.ParseError(f"{path}: {exc}") from None
    demos = tuple(Pose(p, Rotation.from_unit(q)) for p, q in zip(demo_p, demo_q))
    return Scenario(scene=scene, grasp=grasp, demo_poses=demos, config=config,
                    schedule=schedule, seed=seed, model=model)
