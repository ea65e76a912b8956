"""Short seeded runs and a field lattice against the reference files under
tests/data/reference (make_reference_outputs.py), column by column.

Each column is judged on its own scale:
- the O(1) diagnostics energy .. dist_h52: the largest |reference| in the column;
- theta_star and x*: the curve's scale, 1, since they are rounding-level
  near zero (1e-19 to 1e-5) on these near-circles;
- the field's u, v and p: max(1, |reference|) row by row;
- everything else (t, s, the snapshot's x and y, the lattice's x and y): 1.
Run with -s to see the largest deviation of every column.

The report of `verify --full` is compared check by check: the invariants
here, each criterion in test_acceptance.test_acceptance_criterion.
"""

import io
import re

import numpy as np
import pytest

from ibstring import acceptance

from make_reference_outputs import REFERENCE, VERIFY_REPORT, generate

# Largest deviation allowed on a column's scale, taken from the spread that
# perturbing every input sample by up to 1 ulp causes. On the runs that
# spread is at most 4.6e-15 (dissipation; 16 perturbed runs), so BOUND
# admits ulp-level moves of reordered arithmetic and fails a move of 1e-12
# in any column. The field's pressure near the curve is a derivative of a
# Cauchy integral a fraction of a grid spacing from it: there the spread is
# up to 1.1e-12 (p; u and v 1.4e-13; 30 perturbed snapshots), and the field
# rows take FIELD_BOUND.
BOUND = 1e-13
FIELD_BOUND = 1e-11

O1_COLUMNS = ("energy", "dissipation", "lambda", "radius", "area", "dist_h1", "dist_h52")
FIELD_COLUMNS = ("u", "v", "p")


def read_columns(path):
    """(column names, rows) of a diagnostics, snapshot or field file."""
    lines = path.read_text().splitlines()
    header = ["s", "x", "y"] if lines[0].startswith("#") else lines[0].split(",")
    return header, np.array([line.split(",") for line in lines[1:]], dtype=float)


def deviations(columns, ref, new):
    """The largest deviation of every column of new from ref, each on its scale."""
    out = {}
    for j, col in enumerate(columns):
        if col in O1_COLUMNS:
            scale = np.max(np.abs(ref[:, j]))
        elif col in FIELD_COLUMNS:
            scale = np.maximum(1.0, np.abs(ref[:, j]))
        else:
            scale = 1.0
        out[col] = float(np.max(np.abs(new[:, j] - ref[:, j]) / scale))
    return out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    return out, generate(out)


def test_reference_files_are_complete(fresh):
    assert sorted(fresh[1]) == sorted(p.name for p in REFERENCE.glob("*.csv"))


@pytest.mark.parametrize("name", sorted(p.name for p in REFERENCE.glob("*.csv")))
def test_matches_reference(fresh, name):
    columns, ref = read_columns(REFERENCE / name)
    new_columns, new = read_columns(fresh[0] / name)
    assert new_columns == columns and new.shape == ref.shape
    assert np.all(np.isfinite(ref)) and np.all(np.isfinite(new))
    dev = deviations(columns, ref, new)
    print(f"\n{name}: " + ", ".join(f"{col} {d:.2e}" for col, d in dev.items()))
    assert max(dev.values()) <= (FIELD_BOUND if name.startswith("field") else BOUND), dev


# A line of the verify report must match its reference line as text once
# every figure is masked. A figure above ROUNDING (a rate, slope, residual,
# gap or margin) must print the same digits. One at or below it is a
# rounding-level defect, drift or gap, which an ulp-level change of the
# arithmetic moves: it may grow to ROUNDING_GROWTH times its reference (the
# move to real transforms grew them 1.2 to 24 times).
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
ROUNDING = 1e-12
ROUNDING_GROWTH = 100.0


def check_name(line: str) -> str:
    """`criterion  5 (title)` or `invariants (title)` of a report line."""
    return line.split("] ", 1)[1].split(": ", 1)[0]


def report_mismatches(line: str) -> list[str]:
    """How a fresh report line departs from the reference line of its check."""
    ref = next(r for r in VERIFY_REPORT.read_text().splitlines()[:-1] if check_name(r) == check_name(line))
    if NUMBER.sub("#", line) != NUMBER.sub("#", ref):
        return [f"{line!r} against {ref!r}"]
    return [
        f"{new} against {old}" for old, new in zip(NUMBER.findall(ref), NUMBER.findall(line))
        if (new != old if abs(float(old)) > ROUNDING else abs(float(new)) > ROUNDING_GROWTH * abs(float(old)))
    ]


def test_verify_reference_names_every_check():
    lines = VERIFY_REPORT.read_text().splitlines()
    assert [check_name(line) for line in lines[:-1]] == (
        [f"invariants ({title})" for title, _ in acceptance.INVARIANTS]
        + [f"criterion {c.number:2d} ({c.title})" for c in acceptance.CRITERIA]
    )
    assert all(line.startswith("[PASS] ") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def test_invariants_match_the_verify_reference(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [])
    report = io.StringIO()
    acceptance.run_suite(full=True, stream=report)
    lines = report.getvalue().splitlines()[:-1]
    assert len(lines) == len(acceptance.INVARIANTS)
    for line in lines:
        print(line)
        assert report_mismatches(line) == []


def test_report_figures_are_held_to_their_digits_or_their_rounding_level():
    ref = "[PASS] criterion  1 (equilibrium steadiness): max|u| = 9.73e-15 (< 1e-10), diagnostic drift over t=1: 4.12e-14 (< 1e-9)"
    assert report_mismatches(ref) == []
    assert report_mismatches(ref.replace("4.12e-14", "4.11e-12")) == []
    assert report_mismatches(ref.replace("4.12e-14", "4.13e-12")) == ["4.13e-12 against 4.12e-14"]
    assert report_mismatches(ref.replace("9.73e-15", "0.00e+00")) == []
    assert report_mismatches(ref.replace("(< 1e-10)", "(< 2e-10)")) == ["2e-10 against 1e-10"]
    assert report_mismatches(ref.replace("[PASS]", "[FAIL]")) != []
    assert report_mismatches(ref.replace("t=1", "t=1 ")) != []
