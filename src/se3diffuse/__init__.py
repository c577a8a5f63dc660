"""Bi-equivariant denoising diffusion on SE(3) conditioned on point clouds.

Subpackages: exact Lie-group algebra (:mod:`~se3diffuse.lie`), real
irreducible representations (:mod:`~se3diffuse.irreps`), the rotational
heat kernel (:mod:`~se3diffuse.igso3`), the bi-equivariant diffusion and
scores (:mod:`~se3diffuse.diffusion`), the synthetic descriptor-field
score model (:mod:`~se3diffuse.fields`), annealed Langevin sampling
(:mod:`~se3diffuse.sampler`), point-cloud utilities
(:mod:`~se3diffuse.pointcloud`), and file formats plus the CLI
(:mod:`~se3diffuse.io`, :mod:`~se3diffuse.cli`).
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .diffusion import (
    DemoSet,
    DiffusionConfig,
    ForwardDraws,
    brownian_log_density,
    brownian_sample,
    brownian_score,
    contact_origin_weights,
    forward_diffuse,
    forward_diffuse_batch,
    kernel_log_density,
    marginal_score_oracle,
    score_matching_loss,
    target_score,
)
from .igso3 import IgParams, igso3_density, igso3_sample, igso3_score
from .irreps import IrrepsLayout, IrrepsVector, cg_contract_to1, rep_apply, spherical_harmonics, wigner_d
from .lie import (
    Pose,
    Rotation,
    Twist,
    adjoint,
    adjoint_inv_transpose,
    apply,
    compose,
    exp_se3,
    exp_so3,
    inverse,
    log_se3,
    log_so3,
    random_rotation,
)
from .pointcloud import PointCloud, radius_count, transform, voxel_downsample
from .sampler import AnnealSchedule, build_schedule, langevin_step, run_denoising

__all__ = [
    "__version__",
    "KERNEL_BACKEND",
    "Pose",
    "Rotation",
    "Twist",
    "exp_so3",
    "log_so3",
    "exp_se3",
    "log_se3",
    "compose",
    "inverse",
    "apply",
    "adjoint",
    "adjoint_inv_transpose",
    "random_rotation",
    "IrrepsLayout",
    "IrrepsVector",
    "wigner_d",
    "rep_apply",
    "spherical_harmonics",
    "cg_contract_to1",
    "IgParams",
    "igso3_density",
    "igso3_sample",
    "igso3_score",
    "DiffusionConfig",
    "DemoSet",
    "brownian_log_density",
    "brownian_sample",
    "brownian_score",
    "contact_origin_weights",
    "forward_diffuse",
    "forward_diffuse_batch",
    "ForwardDraws",
    "target_score",
    "kernel_log_density",
    "marginal_score_oracle",
    "score_matching_loss",
    "PointCloud",
    "transform",
    "voxel_downsample",
    "radius_count",
    "AnnealSchedule",
    "build_schedule",
    "langevin_step",
    "run_denoising",
]
