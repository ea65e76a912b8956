"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or in the verify
subcommand, which runs the same registry).
"""

import dataclasses

import numpy as np
import pytest

from ibstring import (
    CurveState,
    GridField,
    PerturbationMode,
    make_circle,
    make_perturbed_circle,
    well_stretched_constant,
)
from ibstring import acceptance
from ibstring.acceptance import CRITERIA, INVARIANTS, random_smooth_curve, run_criterion
from ibstring.cli_io import main
from ibstring.dynamics import LambdaAbortError
from ibstring.stokeslet import _forcing_derivative_rows_direct

from test_reference_outputs import report_mismatches


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"c{c.number:02d}_{c.title.replace(' ', '_')}" for c in CRITERIA])
def test_acceptance_criterion(criterion):
    result = run_criterion(criterion)
    status = "PASS" if result.passed else "FAIL"
    line = f"[{status}] criterion {result.number:2d} ({result.title}): {result.detail}"
    print(line)
    assert result.passed, f"criterion {result.number} ({result.title}): {result.detail}"
    assert report_mismatches(line) == []


def test_a_check_that_raises_fails_and_the_suite_goes_on(monkeypatch, capsys):
    # criterion 1 raises; every criterion records that it ran
    ran = []

    def recorded(c):
        def fn():
            ran.append(c.number)
            if c.number == 1:
                raise LambdaAbortError(0.5, 0.25, 0.3, [])
            return c.fn()

        return dataclasses.replace(c, fn=fn)

    monkeypatch.setattr(acceptance, "CRITERIA", [recorded(c) for c in CRITERIA])
    assert main(["verify"]) == 5
    lines = capsys.readouterr().out.splitlines()
    quick = [c.number for c in CRITERIA if c.quick]
    assert [line for line in lines if not line.startswith("[PASS]")] == [
        "[FAIL] criterion  1 (equilibrium steadiness): raised LambdaAbortError: well-stretched constant 0.25 "
        "fell below threshold 0.3 at t = 0.5 [0.0s]",
        f"{len(INVARIANTS) + len(quick) - 1}/{len(INVARIANTS) + len(quick)} checks passed "
        "(quick subset; use --full for all)",
    ]
    assert ran == quick and len(lines) == len(INVARIANTS) + len(quick) + 1


# criterion 5 reduces its pair comparison block by block; a non-finite pair
# anywhere must still fail it, and the NaN diagonal of the direct form must not

def test_c5_reads_every_off_diagonal_pair():
    assert acceptance._c5_integrand_algebra() == (
        True, "max |simplified - direct| over all 652800 off-diagonal pairs of 10 curves: 1.20e-14 (< 1e-10)")


@pytest.mark.parametrize("value, column", [(np.nan, 1), (np.inf, 1), (np.nan, 2), (-np.inf, 2)],
                         ids=["nan_x", "inf_x", "nan_y", "minus_inf_y"])
def test_c5_fails_on_one_non_finite_pair(monkeypatch, value, column):
    curves = []

    def direct_rows(X):
        # the fourth curve's third block, local row 5 (pair 69, 200)
        curves.append(X)
        for i, block in enumerate(_forcing_derivative_rows_direct(X)):
            if len(curves) == 4 and i == 2:
                block = list(block)
                block[column] = block[column].copy()
                block[column][5, 200] = value
            yield tuple(block)

    monkeypatch.setattr(acceptance, "_forcing_derivative_rows_direct", direct_rows)
    passed, detail = acceptance._c5_integrand_algebra()
    assert len(curves) == 10 and not passed and "652800" in detail


def three_circle_curve(rng, n: int, amp: float, min_lambda: float = 0.3) -> CurveState:
    """random_smooth_curve built as three circles per draw: the perturbed
    circle minus the unit circle, added to the posed circle, with each mode's
    amplitudes and phases drawn one number at a time."""
    while True:
        modes = [PerturbationMode(k, rng.uniform(-amp, amp), rng.uniform(-amp, amp),
                                  rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)) for k in range(2, 7)]
        pert = make_perturbed_circle(n, 1.0, modes).x.values.copy()
        pert -= make_circle(n).x.values
        base = make_circle(n, 1.0, rng.uniform(0, 2 * np.pi), rng.uniform(-0.5, 0.5, size=2))
        X = CurveState(GridField(base.x.values + pert))
        if well_stretched_constant(X) > min_lambda:
            return X


@pytest.mark.parametrize("seed, n, amp, draws", [(7, 128, 0.01, 100), (8, 128, 0.01, 100), (5, 1024, 0.05, 1)],
                         ids=["criterion_7", "criterion_8", "n1024"])
def test_random_smooth_curve_is_the_three_circle_build(seed, n, amp, draws):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert np.array_equal(random_smooth_curve(rng, n, amp).x.values, three_circle_curve(ref, n, amp).x.values)
    assert rng.uniform() == ref.uniform()  # the same numbers drawn
