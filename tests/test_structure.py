"""Rules on the package's source that keep one implementation per decision:
the spectral memo, the CLI's public surface, the rounding discipline of the
exact pruned searches and the run loop's failure map."""

import ast
import re
from pathlib import Path

import ibstring

MODULES = sorted(Path(ibstring.__file__).parent.glob("*.py"))


def lines_matching(pattern: str, skip: str) -> list[str]:
    return [
        f"{path.name}:{i}: {line.strip()}"
        for path in MODULES if path.name != skip
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_only_spectral_calls_numpy_fft():
    assert lines_matching(r"np\.fft|numpy\.fft", skip="spectral.py") == []


def complex_transform_sites(tree: ast.AST) -> list[str]:
    """The innermost function (or <module>) around every np.fft.fft and
    np.fft.ifft in tree, in source order."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in ("fft", "ifft")
                    and isinstance(child.value, ast.Attribute) and child.value.attr == "fft"):
                sites.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return sites


def test_only_from_spectral_takes_a_complex_transform():
    # every field is real, so the memo is the half transform and the
    # operators invert it by irfft; only from_spectral takes any (N, 2) array
    spectral = next(p for p in MODULES if p.name == "spectral.py")
    assert complex_transform_sites(ast.parse(spectral.read_text())) == ["from_spectral"]
    assert complex_transform_sites(ast.parse("def f(a):\n    return np.fft.fft(np.fft.ifft(a))")) == ["f", "f"]


def spectrum_writes(path: Path) -> list[str]:
    """Statements that assign, delete or setattr a `spectrum` attribute, or
    touch an instance __dict__."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            while isinstance(t, ast.Subscript):
                t = t.value
            if isinstance(t, ast.Attribute) and t.attr == "spectrum":
                found.append(f"{path.name}:{node.lineno}: assigns .spectrum")
        func = getattr(node, "func", None)
        if getattr(node, "attr", None) == "__dict__" or getattr(func, "id", None) == "vars":
            found.append(f"{path.name}:{node.lineno}: touches an instance __dict__")
        if getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__":
            if any(isinstance(a, ast.Constant) and a.value == "spectrum" for a in node.args):
                found.append(f"{path.name}:{node.lineno}: sets the attribute 'spectrum'")
    return found


def test_only_spectral_sets_a_fields_spectrum():
    # a memo set anywhere else could differ from the field's own transform
    assert [hit for path in MODULES if path.name != "spectral.py" for hit in spectrum_writes(path)] == []


def test_cli_io_imports_no_private_name():
    tree = ast.parse(next(p for p in MODULES if p.name == "cli_io.py").read_text())
    private = [
        f"line {node.lineno}: {node.module or '.'} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "ibstring")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_curve_names_the_rounding_constants():
    # the other searches move their bounds through curve._safe and curve._kept
    assert lines_matching(r"\b(_MARGIN|_PRUNE_FLOOR)\b", skip="curve.py") == []


def handled_exceptions(tree: ast.AST) -> list[str]:
    """The exception names of every except handler in tree, one entry per
    handler that names it."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names += [t.id for t in types if isinstance(t, ast.Name)]
    return names


def test_run_maps_each_failure_in_one_handler():
    # a failure inside a step and one in the observation of its state take
    # the same handler, so they cannot be reported two ways
    dynamics = next(p for p in MODULES if p.name == "dynamics.py")
    names = handled_exceptions(ast.parse(dynamics.read_text()))
    failures = ("OrientationError", "DegenerateCurveError", "NonFiniteFieldError")
    assert {name: names.count(name) for name in failures} == dict.fromkeys(failures, 1)
