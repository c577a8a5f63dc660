"""Reference computations written apart from se3diffuse.

Nothing here imports the package under test.  The parsers read the
scenario bundle and the CLI output files as plain text, and the maths
(quaternions, the IGSO(3) x Gaussian kernel, contact counts, Brownian
moments) is a direct NumPy transcription of the definitions:

    B_t(h)   = N(p; 0, t I) * f(theta(R); eps = t / 2)
    f(theta) = sum_l (2l + 1) e^{-eps l(l+1)} sin((l + 1/2) theta) / sin(theta / 2)

summed term by term to well past double precision, with contact counts
taken by brute force over every (grasp point, scene point) pair.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------------
# Plain-text parsers
# ---------------------------------------------------------------------------

def read_keyvalue(path: Path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = json.loads(value)
    return out


def read_pose_file(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(comment lines, positions (N, 3), quaternions (N, 4)) of a pose file."""
    comments, pos, quat = [], [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line.startswith("pos:"):
            pos.append(json.loads(line[4:]))
        elif line.startswith("quat:"):
            quat.append(json.loads(line[5:]))
    return comments, np.array(pos, dtype=float).reshape(-1, 3), np.array(quat, dtype=float).reshape(-1, 4)


@dataclass
class Scene:
    """Non-dimensional scenario geometry: lengths divided by the length unit."""

    scene: np.ndarray
    grasp: np.ndarray
    demo_p: np.ndarray
    demo_q: np.ndarray
    r: float
    length_unit: float
    t_final: float


def read_scene(scenario_path: Path) -> Scene:
    data = read_keyvalue(scenario_path)
    base = Path(scenario_path).parent
    unit = float(data.get("length_unit", 1.0))
    scene = np.array(read_keyvalue(base / data["scene"])["points"], dtype=float) / unit
    grasp = np.array(read_keyvalue(base / data["grasp"])["points"], dtype=float) / unit
    _, demo_p, demo_q = read_pose_file(base / data["demos"])
    demo_q = demo_q / np.linalg.norm(demo_q, axis=1, keepdims=True)
    return Scene(scene, grasp, demo_p / unit, demo_q, float(data["contact_radius"]) / unit,
                 unit, float(data["schedule_segments"][-1][1]))


_FLOAT = r"([-+0-9.eE]+|nan|inf|-inf)"
_CHAIN = re.compile(r"# chain (\d+): status = (.*?); rot_to_demo_rad = " + _FLOAT
                    + r"; trans_to_demo = " + _FLOAT + r"; log_mixture_density = " + _FLOAT)
_VEC = r"\[([^\]]*)\]"
_SAMPLE = re.compile(r"# sample (\d+): t = " + _FLOAT + r"; p_de = " + _VEC
                     + r"; delta_quat = " + _VEC + r"; delta_pos = " + _VEC)


def parse_chains(comments: list[str]) -> list[dict]:
    out = []
    for line in comments:
        m = _CHAIN.match(line)
        if m:
            out.append({"index": int(m.group(1)), "status": m.group(2),
                        "log_mixture_density": float(m.group(5))})
    return out


def parse_samples(comments: list[str]) -> dict[str, np.ndarray]:
    rows = [_SAMPLE.match(line) for line in comments]
    rows = [m for m in rows if m]

    def vec(m, k):
        return [float(v) for v in m.group(k).split(",")]

    return {"t": np.array([float(m.group(2)) for m in rows]),
            "p_de": np.array([vec(m, 3) for m in rows]).reshape(-1, 3),
            "dq": np.array([vec(m, 4) for m in rows]).reshape(-1, 4),
            "dp": np.array([vec(m, 5) for m in rows]).reshape(-1, 3)}


# ---------------------------------------------------------------------------
# Quaternions (w, x, y, z) and rigid transforms, component by component
# ---------------------------------------------------------------------------

def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def qconj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def qmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def qangle(q: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi], robust near 0 through atan2."""
    q = np.asarray(q, dtype=float)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0]))


def random_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def adjoint_inv_transpose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[Ad_g]^-T for g = (R, p) in the linear-first twist layout: [[R, 0], [p^ R, R]]."""
    rot = qmat(q)
    out = np.zeros((6, 6))
    out[:3, :3] = rot
    out[3:, 3:] = rot
    out[3:, :3] = skew(p) @ rot
    return out


# ---------------------------------------------------------------------------
# Kernel density by direct summation
# ---------------------------------------------------------------------------

def igso3_density(theta: np.ndarray, eps: float) -> np.ndarray:
    """Direct-sum IGSO(3) density against normalized Haar measure.

    Terms run until e^{-eps l(l+1)} < e^{-60}, i.e. far below double
    precision relative to the leading terms.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    lmax = int(math.ceil(math.sqrt(60.0 / eps))) + 2
    ls = np.arange(lmax + 1, dtype=float)
    w = (2 * ls + 1) * np.exp(-eps * ls * (ls + 1))
    out = np.empty_like(theta)
    tiny = theta < 1e-9
    out[tiny] = np.sum(w * (2 * ls + 1))
    th = theta[~tiny][:, None]
    out[~tiny] = (np.sin((ls + 0.5) * th) / np.sin(0.5 * th)) @ w
    return out


def contact_counts(scene_body: np.ndarray, grasp: np.ndarray, r: float) -> np.ndarray:
    """Scene points within r (inclusive) of each grasp point, over all pairs."""
    d = grasp[:, None, :] - scene_body[None, :, :]
    return np.sum(np.sum(d * d, axis=-1) <= r * r, axis=1)


def scene_in_body(geo: Scene, demo: int) -> np.ndarray:
    """Scene points in the frame of demo pose g0: R0^T (s - p0)."""
    return (geo.scene - geo.demo_p[demo]) @ qmat(geo.demo_q[demo])


def log_mixture_density(geo: Scene, p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """log (1/D) sum_demos sum_k w_k B_t(T(-p_k) g0^-1 g T(p_k)) for poses (p, q)."""
    p = np.asarray(p, dtype=float).reshape(-1, 3)
    q = np.asarray(q, dtype=float).reshape(-1, 4)
    per_demo = []
    for d in range(geo.demo_p.shape[0]):
        counts = contact_counts(scene_in_body(geo, d), geo.grasp, geo.r)
        keep = counts > 0
        pts, w = geo.grasp[keep], counts[keep] / counts.sum()
        r0t = qmat(geo.demo_q[d]).T
        rel_q = qmul(qconj(geo.demo_q[d])[None, :], q)
        rot = qmat(rel_q)
        # h translation: R0^T (R p_k + p_g - p0) - p_k
        ph = (np.einsum("nij,kj->nki", rot, pts)
              + ((p - geo.demo_p[d]) @ r0t.T)[:, None, :] - pts[None, :, :])
        log_gauss = -1.5 * math.log(2 * math.pi * t) - np.sum(ph * ph, axis=-1) / (2 * t)
        log_rot = np.log(igso3_density(qangle(rel_q), 0.5 * t))
        terms = np.log(w)[None, :] + log_gauss + log_rot[:, None]
        m = terms.max(axis=1)
        per_demo.append(m + np.log(np.sum(np.exp(terms - m[:, None]), axis=1)))
    per_demo = np.stack(per_demo, axis=1)
    m = per_demo.max(axis=1)
    return m + np.log(np.mean(np.exp(per_demo - m[:, None]), axis=1))


def nearest_demo(geo: Scene, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rotation angle, translation distance) to every demo: two (N, D) arrays."""
    rot = qangle(qmul(qconj(geo.demo_q)[None, :, :], q[:, None, :]))
    tr = np.linalg.norm(p[:, None, :] - geo.demo_p[None, :, :], axis=-1)
    return rot, tr


# ---------------------------------------------------------------------------
# Forward diffusion: recomposition and Brownian moments
# ---------------------------------------------------------------------------

def recompose(gt_p, gt_q, p_de, dq, dp) -> tuple[np.ndarray, np.ndarray]:
    """g0 = g_t T(p_de) dg^-1 T(p_de)^-1 for stacks of samples."""
    dq_inv = qconj(dq)
    # dg^-1 = (R_d^T, -R_d^T dp);  T(p) dg^-1 T(-p) = (R_d^T, p - R_d^T (dp + p))
    inner_p = p_de - np.einsum("nji,nj->ni", qmat(dq), dp + p_de)
    g0_p = gt_p + np.einsum("nij,nj->ni", qmat(gt_q), inner_p)
    g0_q = qmul(gt_q, dq_inv)
    return g0_p, g0_q


def brownian_moment_z(t: np.ndarray, dq: np.ndarray, dp: np.ndarray) -> tuple[float, float]:
    """Standardized sums of ||dp||^2 and of 1 + 2 cos(theta) against their laws.

    ||dp||^2 = t chi^2_3: mean 3t, variance 6t^2.  The character
    chi_1 = 1 + 2 cos(theta) has mean 3 e^{-t} and second moment
    E[chi_0 + chi_1 + chi_2] = 1 + 3 e^{-t} + 5 e^{-3t} under IGSO(3) with eps = t/2.
    """
    sq = np.sum(dp * dp, axis=1)
    z_p = float(np.sum(sq - 3 * t) / math.sqrt(np.sum(6 * t * t)))
    chi = 1.0 + 2.0 * np.cos(qangle(dq))
    mean = 3 * np.exp(-t)
    var = 1 + 3 * np.exp(-t) + 5 * np.exp(-3 * t) - mean * mean
    z_r = float(np.sum(chi - mean) / math.sqrt(np.sum(var)))
    return z_p, z_r
