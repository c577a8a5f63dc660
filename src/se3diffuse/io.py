"""File formats: point clouds, pose lists, scenarios, model parameters.

All numeric output is written in decimal scientific notation with 17
significant digits, so identical inputs produce byte-identical files.
Provenance headers are comment lines ``# key = value`` carrying the
library version, the seed, and the command configuration; readers skip
any comment line.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .lie import quat_unit
from .pointcloud import PointCloud

__all__ = [
    "read_point_cloud",
    "write_point_cloud",
    "read_poses",
    "write_poses",
    "read_keyvalue",
    "write_keyvalue",
    "fmt_float",
    "provenance_lines",
]


def fmt_float(x: float) -> str:
    return format(float(x), ".16e")


def _fmt_value(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def provenance_lines(**fields: Any) -> list[str]:
    from . import __version__

    lines = [f"# se3diffuse version = {__version__}"]
    for key, value in fields.items():
        lines.append(f"# {key} = {_fmt_value(value)}")
    return lines


class ParseError(ValueError):
    """Malformed input file; message names the file line."""


def _all_finite(value: Any) -> bool:
    """Whether every number in a parsed value is a finite float; JSON reads ``NaN``,
    ``1e999`` (inf) and integers too large for a float."""
    if isinstance(value, list):
        try:  # a numeric array in one pass
            return bool(np.isfinite(np.asarray(value, dtype=np.float64)).all())
        except (TypeError, ValueError, OverflowError):  # ragged, strings, or huge integers
            return all(map(_all_finite, value))
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max  # False for NaN


def _parse_json(text: str, path: Path, lineno: int, what: str) -> Any:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno}: malformed {what}: {exc}") from None
    if not _all_finite(value):
        raise ParseError(f"{path}:{lineno}: non-finite number in {what}")
    return value


# ---------------------------------------------------------------------------
# Point clouds: CSV (x,y,z[,r,g,b]) or structured text with points/colors
# ---------------------------------------------------------------------------

def read_point_cloud(path: str | Path) -> PointCloud:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_cloud_csv(path)
    return _read_cloud_text(path)


def _read_cloud_csv(path: Path) -> PointCloud:
    positions, colors = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) not in (3, 6):
                raise ParseError(f"{path}:{lineno}: expected 3 or 6 fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not _all_finite(vals):
                raise ParseError(f"{path}:{lineno}: non-finite number")
            positions.append(vals[:3])
            if len(vals) == 6:
                colors.append(vals[3:])
    if not positions:
        raise ParseError(f"{path}: no points")
    if colors and len(colors) != len(positions):
        raise ParseError(f"{path}: colors present on some lines but not all")
    return PointCloud(np.array(positions).reshape(-1, 3),
                      np.array(colors) if colors else None)


def _read_cloud_text(path: Path) -> PointCloud:
    data = read_keyvalue(path)
    if "points" not in data:
        raise ParseError(f"{path}: missing 'points' array")
    colors = data.get("colors")
    try:  # ragged or non-numeric rows, or colors that do not match the points
        positions = np.asarray(data["points"], dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"'points' must be a non-empty list of [x, y, z] rows, "
                             f"got shape {positions.shape}")
        return PointCloud(positions, None if colors is None else np.asarray(colors, np.float64))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_point_cloud(path: str | Path, pc: PointCloud, header: Sequence[str] = ()) -> None:
    path = Path(path)
    lines = list(header)
    if path.suffix.lower() == ".csv":
        for i in range(len(pc)):
            vals = list(pc.positions[i])
            if pc.colors is not None:
                vals += list(pc.colors[i])
            lines.append(",".join(fmt_float(v) for v in vals))
    else:
        lines.append("points = " + _fmt_value(pc.positions.tolist()))
        if pc.colors is not None:
            lines.append("colors = " + _fmt_value(pc.colors.tolist()))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Pose lists: repeated "pos: [...]" / "quat: [w,x,y,z]" records
# ---------------------------------------------------------------------------

def read_poses(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) translations and (N, 4) quaternions, the mirror of ``write_poses``; a norm off 1 by more than
    1e-8 warns, by more than 1e-3 is refused.  ``quat_unit`` twice gives each row the bits of the
    ``Rotation`` of its record over its norm."""
    path = Path(path)
    pending_pos: np.ndarray | None = None
    pos_line = 0
    p, q = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("pos:"):
                if pending_pos is not None:
                    raise ParseError(f"{path}:{lineno}: 'pos:' record without a matching 'quat:'")
                pending_pos = np.asarray(
                    _parse_json(line[4:].strip(), path, lineno, "pos record"), dtype=np.float64)
                if pending_pos.shape != (3,):
                    raise ParseError(f"{path}:{lineno}: pos must have 3 components")
                pos_line = lineno
            elif line.startswith("quat:"):
                if pending_pos is None:
                    raise ParseError(f"{path}:{lineno}: 'quat:' record without a preceding 'pos:'")
                quat = np.asarray(
                    _parse_json(line[5:].strip(), path, lineno, "quat record"), dtype=np.float64)
                if quat.shape != (4,):
                    raise ParseError(f"{path}:{lineno}: quat must have 4 components (w, x, y, z)")
                norm = float(np.linalg.norm(quat))
                if abs(norm - 1.0) > 1e-3:
                    raise ParseError(
                        f"{path}:{lineno}: quaternion norm {norm:.6g} drifts from 1 by more than 1e-3")
                if abs(norm - 1.0) > 1e-8:
                    warnings.warn(
                        f"{path}:{lineno}: renormalizing quaternion with norm drift {abs(norm - 1.0):.3g}",
                        RuntimeWarning, stacklevel=2)
                p.append(pending_pos)
                q.append(quat)
                pending_pos = None
            else:
                raise ParseError(f"{path}:{lineno}: expected 'pos:' or 'quat:' record")
    if pending_pos is not None:
        raise ParseError(f"{path}:{pos_line}: trailing 'pos:' record without a 'quat:'")
    return np.array(p).reshape(-1, 3), quat_unit(quat_unit(np.array(q).reshape(-1, 4)))


_POSE_RECORD = "pos: [{:.16e}, {:.16e}, {:.16e}]\nquat: [{:.16e}, {:.16e}, {:.16e}, {:.16e}]"


def write_poses(path: str | Path, p: np.ndarray, q: np.ndarray, header: Sequence[str] = ()) -> None:
    """Write (N, 3) translations and (N, 4) quaternions as pos/quat records."""
    p = np.asarray(p, dtype=np.float64).reshape(-1, 3)
    q = np.asarray(q, dtype=np.float64).reshape(-1, 4)
    if p.shape[0] != q.shape[0]:
        raise ValueError(f"{p.shape[0]} translations but {q.shape[0]} quaternions")
    lines = list(header)
    lines.extend(_POSE_RECORD.format(*pr, *qr) for pr, qr in zip(p.tolist(), q.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Generic "key = json-value" files (scenarios, model parameters)
# ---------------------------------------------------------------------------

def read_keyvalue(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    out: dict[str, Any] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = _parse_json(value.strip(), path, lineno, f"value for {key.strip()!r}")
    return out


def write_keyvalue(path: str | Path, data: dict[str, Any], header: Sequence[str] = ()) -> None:
    lines = list(header)
    for key, value in data.items():
        lines.append(f"{key} = {_fmt_value(value)}")
    Path(path).write_text("\n".join(lines) + "\n")
