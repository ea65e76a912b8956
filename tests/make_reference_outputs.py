"""Reference outputs of short seeded runs, which test_reference_outputs
compares a fresh build against column by column.

For N = 256 and 1024 and the schemes exp_euler and rk4, `ibstring simulate`
runs seed 1's relax_n1024 curve (conftest.relax_modes) for 10 steps of
dt = 0.01, and its diagnostics.csv and last snapshot are kept as
n{N}_{scheme}_diagnostics.csv and n{N}_{scheme}_snapshot.csv. field_n1024.csv
is `ibstring field` on the 40 x 40 lattice of
test_cli_runs.test_field_at_n1024, around the last exp_euler snapshot at
N = 1024. verify_full.txt is the report of `ibstring verify --full` with its
[x.xs] timings stripped.

Rewrite the committed files from the repository root with
    PYTHONPATH=src python tests/make_reference_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from ibstring.cli_io import main

from conftest import relax_modes

REFERENCE = Path(__file__).parent / "data" / "reference"
VERIFY_REPORT = REFERENCE / "verify_full.txt"
SIZES = (256, 1024)
SCHEMES = ("exp_euler", "rk4")
FIELD_GRID = {"xmin": -1.6, "xmax": 1.6, "ymin": -1.6, "ymax": 1.6, "nx": 40, "ny": 40}


def generate(out: Path) -> list[str]:
    """Write every reference file into out; returns their names."""
    initial = {"kind": "perturbed_circle", "modes": [asdict(m) for m in relax_modes(1)]}
    names = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        work = Path(tmp)
        for n in SIZES:
            for scheme in SCHEMES:
                run = work / f"n{n}_{scheme}"
                config = {"grid_n": n, "scheme": scheme, "dt": 0.01, "t_end": 0.1, "snapshot_every": 10,
                          "output_dir": str(run), "initial": initial}
                (work / "simulate.json").write_text(json.dumps(config))
                assert main(["simulate", str(work / "simulate.json")]) == 0
                shutil.copy(run / "diagnostics.csv", out / f"{run.name}_diagnostics.csv")
                shutil.copy(max(run.glob("snap_*.csv")), out / f"{run.name}_snapshot.csv")
                names += [f"{run.name}_diagnostics.csv", f"{run.name}_snapshot.csv"]
        config = {"grid_n": 1024, "t_end": 1.0, "output_dir": str(work / "field"), "field_grid": FIELD_GRID,
                  "initial": {"kind": "circle"}}
        (work / "field.json").write_text(json.dumps(config))
        assert main(["field", str(work / "field.json"), str(out / "n1024_exp_euler_snapshot.csv")]) == 0
        shutil.copy(work / "field" / "field.csv", out / "field_n1024.csv")
    return names + ["field_n1024.csv"]


def verify_report() -> str:
    """The report of `ibstring verify --full`, without its [x.xs] timings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--full"]) == 0
    return re.sub(r" \[[0-9.]+s\]$", "", out.getvalue(), flags=re.M)


if __name__ == "__main__":
    REFERENCE.mkdir(parents=True, exist_ok=True)
    for name in generate(REFERENCE):
        print(REFERENCE / name, file=sys.stderr)
    VERIFY_REPORT.write_text(verify_report())
    print(VERIFY_REPORT, file=sys.stderr)
