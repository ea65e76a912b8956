"""The benchmark's span tracer patches names in the package; they must exist.

bench/tracer.py wraps the public functions of the seven ibstring layers, the
GridField and CurveState constructors' __post_init__, and acceptance's
INVARIANTS and CRITERIA. A name it cannot find fails the traced benchmark run
before its first op, so this test installs the tracer the way bench/worker.py
does and checks that uninstall restores every patched name.
"""

import importlib.util
import sys
from pathlib import Path

import ibstring.acceptance
import ibstring.cli_io  # noqa: F401  (bench/worker.py imports both before the tracer installs)
from ibstring import CurveState, GridField, dynamics, make_circle

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the defining module up
    spec.loader.exec_module(module)
    return module


def patched_names() -> tuple:
    """Some of the names the tracer replaces; None stands for a missing one,
    so that install() is what reports it."""
    acceptance = ibstring.acceptance
    return (
        getattr(CurveState, "__post_init__", None), getattr(GridField, "__post_init__", None),
        dynamics.run, acceptance.INVARIANTS, acceptance.CRITERIA,
    )


def test_tracer_installs_and_restores_its_patches():
    originals = patched_names()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert dynamics.run is not originals[2]
        make_circle(16)
    finally:
        tracer.uninstall()
    assert tracer.stats["curve.CurveState"].calls >= 1
    assert all(now is before for now, before in zip(patched_names(), originals))
