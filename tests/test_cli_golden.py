"""Seeded CLI outputs against a table of sha256 digests, ``cli_golden.json``.

The commands run in-process from a fresh working directory with relative
paths, so every provenance header (``# scenario = "scn/scenario.txt"``) is
the same on every run.  A change that keeps the outputs byte-identical
passes unchanged; one that moves a byte must say so and rewrite the table:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_cli_golden as g; g.write_golden()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from se3diffuse.cli import main

GOLDEN = Path(__file__).parent / "cli_golden.json"
SCENARIO = "scn/scenario.txt"

# output file (or "stdout") -> the arguments of the command that writes it
COMMANDS = {
    "diffuse-fixed.txt": ["diffuse", "--scenario", SCENARIO, "--t", "0.5", "--n", "200"],
    "diffuse-logu.txt": ["diffuse", "--scenario", SCENARIO, "--t", "1e-4", "--t-max", "1", "--n", "50"],
    "denoise-oracle-exact.txt": ["denoise", "--scenario", SCENARIO, "--score", "oracle", "--chains", "20",
                                 "--seed", "1", "--integrator", "exact"],
    "denoise-oracle-quat-trans.txt": ["denoise", "--scenario", SCENARIO, "--score", "oracle", "--chains", "20",
                                      "--seed", "1", "--integrator", "quat-trans"],
    "denoise-model.txt": ["denoise", "--scenario", SCENARIO, "--score", "model", "--chains", "2"],
    "igso3-0.3.txt": ["sample-igso3", "--eps", "0.3", "--n", "1000"],
    "igso3-0.005.txt": ["sample-igso3", "--eps", "0.005", "--n", "1000"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(cwd: Path) -> dict[str, str]:
    """Run ``gen-scenario --seed 7``, every command of COMMANDS and ``check --suite all`` in ``cwd``;
    the sha256 of each file written (the scenario's under ``scn/``) and of the check report."""
    old = Path.cwd()
    os.chdir(cwd)
    try:
        assert main(["gen-scenario", "--seed", "7", "--out", "scn"]) == 0
        for name, argv in COMMANDS.items():
            assert main(argv + ["--out", name]) == 0, name
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            assert main(["check", "--suite", "all"]) == 0
    finally:
        os.chdir(old)
    digests = {f"scn/{p.name}": _sha256(p.read_bytes()) for p in sorted((cwd / "scn").iterdir())}
    digests.update((name, _sha256((cwd / name).read_bytes())) for name in COMMANDS)
    digests["check-all.stdout"] = _sha256(report.getvalue().encode())
    return digests


def write_golden() -> None:
    """Rewrite the table from the current code's outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(cli_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")


def test_seeded_cli_outputs_keep_their_golden_bytes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = cli_digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []
