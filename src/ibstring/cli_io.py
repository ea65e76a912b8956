"""Command-line entry points, configuration and file emission.

Subcommands: simulate (diagnostics CSV + snapshots + final SVG), field
(velocity/pressure on a lattice), spectrum (per-mode eigenvalues), fit
(closest-equilibrium report for a snapshot) and verify (invariant suites plus
the acceptance criteria).

Exit codes: 0 success, 1 I/O failure, 2 configuration error, 3 abort on the
well-stretched threshold, 4 non-finite abort, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from .curve import (
    CurveState,
    OrientationError,
    PerturbationMode,
    enclosed_area,
    make_circle,
    make_perturbed_circle,
    make_reparam_circle,
    well_stretched_constant,
)
from .dynamics import (
    DiagnosticsRow,
    LambdaAbortError,
    NonFiniteError,
    StepperConfig,
    run,
)
from .equilibrium import EquilibriumFit, closest_equilibrium, first_order_residual, fit_distance, mode_block
from .spectral import GridField, NonFiniteFieldError
from .stokeslet import sample_flow

__all__ = [
    "ConfigError",
    "RunConfig",
    "FieldGrid",
    "parse_config",
    "canonical_config",
    "build_initial",
    "read_snapshot",
    "write_snapshot",
    "write_diagnostics_csv",
    "write_field_csv",
    "write_svg",
    "cmd_simulate",
    "cmd_field",
    "cmd_spectrum",
    "cmd_fit",
    "cmd_verify",
    "main",
]

_FMT = "%.17g"  # full double precision for all emitted numbers
_DECIMAL = r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?"  # every form _FMT writes for a finite double
# a snapshot row s,x,y; float() alone would also take nan, inf, 0_5, +0.5 and padded cells
_SNAPSHOT_ROW = re.compile(rf"{_DECIMAL},({_DECIMAL}),({_DECIMAL})", re.ASCII)

# Fixed bounds on the cost of one run: the pair kernel is O(grid_n^2) per
# step, and the field lattice costs nx*ny times N, plus one N x N pass at
# most. A snapshot's N is held to the grid_n bound as well.
MAX_GRID_N = 8192
MAX_FIELD_POINTS = 250_000
# `field` holds the lattice bounds and the snapshot's samples within 1e75 in
# magnitude, so an offset w of a lattice point from a sample stays below 3e75.
# The nearest-sample search squares |w|, and the off-curve Cauchy sums take
# 1/w^2; both leave the normal double range from |w| ~ 1e154 on (|w|^2
# overflows, 1/w^2 underflows). The cap keeps every lattice far inside it.
MAX_FIELD_COORD = 1e75


class ConfigError(ValueError):
    """Configuration document violates the schema; message names the field."""


@dataclass(frozen=True)
class FieldGrid:
    """The field command's lattice: nx x ny points from (xmin, ymin) to (xmax, ymax)."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be >= 1")
        if self.nx * self.ny > MAX_FIELD_POINTS:
            raise ValueError(f"nx*ny at most {MAX_FIELD_POINTS}, got {self.nx * self.ny}")
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError("max bounds must exceed min bounds")
        if not (math.isfinite(self.xmax - self.xmin) and math.isfinite(self.ymax - self.ymin)):
            raise ValueError("the spans xmax - xmin and ymax - ymin must be finite")
        bound = max(abs(self.xmin), abs(self.xmax), abs(self.ymin), abs(self.ymax))
        if bound > MAX_FIELD_COORD:
            raise ValueError(f"bounds at most {MAX_FIELD_COORD:g} in magnitude, got {bound:g}")


@dataclass(frozen=True)
class RunConfig:
    grid_n: int
    stepper: StepperConfig
    initial: dict[str, Any]
    output_dir: Path
    field_grid: FieldGrid | None = None


# ---------------------------------------------------------------------------
# configuration: the keys, defaults and ranges are the fields of the
# dataclasses a config fills, and of the kinds in _INITIAL_KINDS
# ---------------------------------------------------------------------------

def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field missing")
    return obj[key]


def _object(value: Any, path: str, keys: set[str] | None = None) -> dict:
    """value as a JSON object that holds no key beyond keys (when given)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    if keys is not None and set(value) - keys:
        raise ConfigError(f"{path}: unknown key(s) {sorted(set(value) - keys)}")
    return value


def _checked(test: Callable[[Any], bool], rule: str,
             read: Callable[[Any, str], Any] | None = None) -> Callable[[Any, str], Any]:
    """The reader of a value that passes test once read (by read, if given);
    any other value fails with the rule's name."""
    def checked(value: Any, path: str) -> Any:
        value = value if read is None else read(value, path)
        if not test(value):
            raise ConfigError(f"{path}: {rule}, got {value!r}")
        return value
    return checked


# JSON's types: true and false are no numbers
_integer = _checked(lambda value: isinstance(value, int) and not isinstance(value, bool), "expected an integer")
_numeric = _checked(lambda value: isinstance(value, (int, float)) and not isinstance(value, bool), "expected a number")
_string = _checked(lambda value: isinstance(value, str), "expected a string")
_switch = _checked(lambda value: isinstance(value, bool) or value == "auto", "expected bool or 'auto'")


def _number(value: Any, path: str) -> float:
    try:
        number = float(_numeric(value, path))
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # also 1e400, which JSON reads as infinity
        raise ConfigError(f"{path}: expected a finite number")
    return number


def _reject_constant(token: str) -> NoReturn:
    raise ConfigError(f"non-finite number {token} is not allowed")


# The reader of each field type the dataclasses declare. None is read from
# "auto" (dealias.enabled) and from null (lambda_abort).
_READERS = {
    "int": _integer,
    "float": _number,
    "str": _string,
    "bool | None": lambda value, path: None if _switch(value, path) == "auto" else value,
    "float | None": lambda value, path: None if value is None else _number(value, path),
}
# StepperConfig's fields that the dealias block sets, with their keys there
_DEALIAS = {"dealias_enabled": "enabled", "dealias_cutoff": "cutoff_fraction", "krasny_floor": "krasny_floor"}


def _read(obj: Any, keys: type | list, path: str, also: frozenset = frozenset()) -> dict[str, Any]:
    """The JSON object obj read key by key from (key, reader, default) triples,
    or from a dataclass's fields by their declared types. obj holds no other
    key (but also); keys with no default (MISSING) are checked first."""
    if isinstance(keys, type):
        keys = [(f.name, _READERS[f.type], f.default) for f in fields(keys)]
    _object(obj, path, {key for key, _, _ in keys} | also)
    for key, _, default in keys:
        if default is MISSING:
            _require(obj, key, path)
    return {key: read(obj.get(key, default), f"{path}.{key}") for key, read, default in keys}


def _center(value: Any, path: str) -> list[float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path}: expected [x, y], got {value!r}")
    return [_number(c, path) for c in value]


def _modes(value: Any, path: str) -> list[dict[str, Any]]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return [_read(m, PerturbationMode, f"{path}[{i}]") for i, m in enumerate(value)]


_GRID_N = _checked(lambda n: n <= MAX_GRID_N, f"at most {MAX_GRID_N}",
                   _checked(lambda n: n >= 8 and n % 2 == 0, "must be even and >= 8", _integer))
_RADIUS = ("radius", _checked(lambda radius: radius > 0, "must be positive", _number), 1.0)
# Each initial kind: its keys besides "kind", as (key, reader, default) in the
# order they are read, and the curve at grid_n from their values in that order.
_INITIAL_KINDS = {
    "circle": (
        [_RADIUS, ("theta", _number, 0.0), ("center", _center, [0.0, 0.0])],
        lambda n, radius, theta, center: make_circle(n, radius, theta, tuple(center)),
    ),
    "perturbed_circle": (
        [_RADIUS, ("modes", _modes, [])],
        lambda n, radius, modes: make_perturbed_circle(n, radius, [PerturbationMode(**m) for m in modes]),
    ),
    "reparam_circle": (
        [_RADIUS, ("beta", _checked(lambda beta: abs(beta) < 1.0, "|beta| must be < 1", _number), 0.0)],
        make_reparam_circle,
    ),
    "file": ([("path", _string, MISSING)], lambda n, path: read_snapshot(Path(path))),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict: unknown keys rejected)."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, a rejected constant, an over-long integer
        raise ConfigError(f"invalid JSON: {exc}") from exc
    top = {f.name for f in fields(RunConfig) + fields(StepperConfig) if f.name not in _DEALIAS} - {"stepper"}
    _object(doc, "top level", top | {"dealias"})

    grid_n = _GRID_N(_require(doc, "grid_n", "top level"), "grid_n")

    # JSON types only, and only the keys the config gives: StepperConfig
    # states the defaults and the ranges
    _require(doc, "t_end", "top level")
    dealias = _object(doc.get("dealias", {}), "dealias", set(_DEALIAS.values()))
    given = {name: (doc[name], name) for name in doc}  # (value, path) of each field set
    given.update((name, (dealias[key], f"dealias.{key}")) for name, key in _DEALIAS.items() if key in dealias)
    settings = {f.name: _READERS[f.type](*given[f.name]) for f in fields(StepperConfig) if f.name in given}
    try:
        stepper = StepperConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    initial = _object(_require(doc, "initial", "top level"), "initial")
    kind = _string(_require(initial, "kind", "initial"), "initial.kind")
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial.kind: unknown kind {kind!r}")
    # the given keys keep their places, and the defaults follow them
    initial = {**initial, **_read(initial, _INITIAL_KINDS[kind][0], "initial", frozenset({"kind"}))}
    unaliased = _checked(lambda k: abs(k) < grid_n // 2, f"|k| must be < grid_n/2 = {grid_n // 2}")
    for i, mode in enumerate(initial.get("modes", [])):  # a mode at or past grid_n/2 aliases onto a lower one
        unaliased(mode["k"], f"initial.modes[{i}].k")

    field_grid = None
    if doc.get("field_grid") is not None:
        bounds = _read(doc["field_grid"], FieldGrid, "field_grid")
        try:
            field_grid = FieldGrid(**bounds)
        except ValueError as exc:
            raise ConfigError(f"field_grid: {exc}") from exc

    output_dir = Path(_string(doc.get("output_dir", "ibstring_out"), "output_dir"))
    return RunConfig(grid_n, stepper, initial, output_dir, field_grid)


def canonical_config(cfg: RunConfig) -> dict[str, Any]:
    """Canonical JSON document of a parsed configuration (round-trips)."""
    doc: dict[str, Any] = {"grid_n": cfg.grid_n}
    for name, value in asdict(cfg.stepper).items():
        if name in _DEALIAS:
            doc.setdefault("dealias", {})[_DEALIAS[name]] = "auto" if value is None else value
        else:
            doc[name] = value
    doc.update(output_dir=str(cfg.output_dir), initial=cfg.initial)
    if cfg.field_grid is not None:
        doc["field_grid"] = asdict(cfg.field_grid)
    return doc


def build_initial(cfg: RunConfig) -> CurveState:
    """Construct the initial configuration and check it is well-stretched."""
    keys, build = _INITIAL_KINDS[cfg.initial["kind"]]
    X = build(cfg.grid_n, *(cfg.initial[key] for key, _, _ in keys))
    if X.n != cfg.grid_n:  # only a snapshot can have another N
        raise ConfigError(f"initial.path: snapshot has N = {X.n}, config grid_n = {cfg.grid_n}")
    _check_input(X, "initial", oriented=True)
    _check_well_stretched(X, "initial")
    return X


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _snapshot_template(n: int) -> str:
    """A v1 snapshot's text at N with its s cells (s = GridField.s) filled in
    and a %-slot for each x and y: s is the same for every state at one N,
    so it is formatted once per N, not once per snapshot."""
    rows = (f"{_FMT % s},{_FMT},{_FMT}" for s in (2.0 * np.pi * np.arange(n) / n).tolist())
    return "\n".join([f"# ibstring-curve v1 N={n}", *rows]) + "\n"


def write_snapshot(path: Path, X: CurveState) -> None:
    path.write_text(_snapshot_template(X.n) % tuple(X.x.values.ravel().tolist()))


def _read_text(path: Path) -> str:
    """UTF-8 text of a config or snapshot; undecodable bytes raise ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_snapshot(path: Path) -> CurveState:
    """Read a v1 curve snapshot; any malformed content raises ConfigError."""
    lines = _read_text(path).strip().splitlines()
    if not lines or not lines[0].startswith("# ibstring-curve v1 N="):
        raise ConfigError(f"{path}: not an ibstring-curve v1 snapshot")
    header = lines[0].split("N=")[1]
    if not (header.isascii() and header.isdigit()):  # int() would also take 6_4, " 64" and +64
        raise ConfigError(f"{path}: header N={header!r} is not an integer")
    n = int(header)
    if n > MAX_GRID_N:
        raise ConfigError(f"{path}: N at most {MAX_GRID_N}, got {n}")
    if len(lines) - 1 != n:
        raise ConfigError(f"{path}: expected {n} sample rows, found {len(lines) - 1}")
    vals = np.empty((n, 2))
    for j, line in enumerate(lines[1:]):
        row = _SNAPSHOT_ROW.fullmatch(line)  # s is checked, not used: the grid is uniform
        if row is None:
            raise ConfigError(f"{path}: row {j} is not three plain decimal cells: {line!r}")
        vals[j] = float(row[1]), float(row[2])
    try:
        X = CurveState(GridField(vals))  # N even and >= 8, every sample finite
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _check_input(X, path)
    return X


def _check_input(X: CurveState, source: str | Path, oriented: bool = False) -> None:
    """Read an input curve's X', X'' and enclosed area, as every command
    does (simulate before its first step); an overflow there is the input's
    fault and raises ConfigError naming the source, and so does a clockwise
    curve where it must be oriented."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            X.xp, X.xpp
        except NonFiniteFieldError:
            raise ConfigError(f"{source}: spectral derivatives of the samples overflow") from None
        try:
            enclosed_area(X)
        except NonFiniteFieldError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        except OrientationError as exc:  # field reads a reversed curve
            if oriented:
                raise ConfigError(f"{source}: {exc} (clockwise or self-intersecting curve)") from None


def _check_well_stretched(X: CurveState, source: str | Path) -> None:
    """Raise ConfigError naming the source when two samples of X coincide or
    its tangent vanishes at one (well-stretched constant 0)."""
    lam = well_stretched_constant(X)
    if lam <= 0:
        raise ConfigError(f"{source}: configuration degenerate (well-stretched constant {lam:g})")


_DIAG_FIELDS = tuple(f.name for f in fields(DiagnosticsRow))


def diagnostics_lines(rows: Sequence[DiagnosticsRow]) -> list[str]:
    """CSV lines in DiagnosticsRow's field order; well_stretched is headed lambda."""
    out = [",".join("lambda" if f == "well_stretched" else f for f in _DIAG_FIELDS)]
    row = ",".join([_FMT] * len(_DIAG_FIELDS))  # one % per row
    out.extend(row % tuple(getattr(r, f) for f in _DIAG_FIELDS) for r in rows)
    return out


def write_diagnostics_csv(path: Path, rows: Sequence[DiagnosticsRow]) -> None:
    path.write_text("\n".join(diagnostics_lines(rows)) + "\n")


def write_field_csv(path: Path, X: CurveState, grid: FieldGrid) -> None:
    """Sample velocity and pressure over the lattice (rows y-major) in one
    batched evaluation. Lattice points that coincide with a curve sample emit
    NaN columns.
    """
    xs = np.linspace(grid.xmin, grid.xmax, grid.nx)
    ys = np.linspace(grid.ymin, grid.ymax, grid.ny)
    points = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    u, p = sample_flow(X, points)
    # meshgrid copies the axis values exactly, so each is formatted once
    x_cells, y_cells = ([_FMT % v for v in axis.tolist()] for axis in (xs, ys))
    xy = [f"{x},{y}," for y in y_cells for x in x_cells]
    row = ",".join([_FMT] * 3)  # one % per row
    lines = ["x,y,u,v,p"]
    lines.extend(a + row % tuple(r) for a, r in zip(xy, np.column_stack([u, p]).tolist()))
    path.write_text("\n".join(lines) + "\n")


def write_svg(path: Path, X: CurveState, fit: EquilibriumFit) -> None:
    """Fixed 800x800 equal-aspect plot: curve polyline + fitted circle dashed."""
    size = 800
    v = X.x.values
    cx, cy = fit.x_star
    span = max(
        np.max(np.abs(v[:, 0] - cx)), np.max(np.abs(v[:, 1] - cy)), fit.radius
    ) * 1.15
    scale = size / (2.0 * span)

    def to_px(p):
        return ((p[0] - cx + span) * scale, (span - (p[1] - cy)) * scale)

    pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(p) for p in v))
    first = to_px(v[0])
    pts += f" {first[0]:.2f},{first[1]:.2f}"  # close the polyline
    ccx, ccy = to_px((cx, cy))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{ccx:.2f}" cy="{ccy:.2f}" r="{fit.radius * scale:.2f}" '
        'fill="none" stroke="gray" stroke-dasharray="8 6" stroke-width="1.5"/>',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>',
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _write_run_outputs(out_dir: Path, result_rows, snapshots, final: CurveState) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_diagnostics_csv(out_dir / "diagnostics.csv", result_rows)
    for step, _t, state in snapshots:
        write_snapshot(out_dir / f"snap_{step:08d}.csv", state)
    write_svg(out_dir / "final.svg", final, closest_equilibrium(final))


def cmd_simulate(config_path: Path) -> int:
    cfg = parse_config(_read_text(config_path))
    initial = build_initial(cfg)
    try:
        result = run(initial, cfg.stepper)
    except (LambdaAbortError, NonFiniteError) as exc:
        _write_run_outputs(cfg.output_dir, exc.rows, [], initial)
        print(f"aborted: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, LambdaAbortError) else 4
    _write_run_outputs(cfg.output_dir, result.rows, result.snapshots, result.final)
    print(f"wrote {len(result.rows)} diagnostics rows to {cfg.output_dir}")
    return 0


def cmd_field(config_path: Path, snapshot_path: Path) -> int:
    cfg = parse_config(_read_text(config_path))
    X = read_snapshot(snapshot_path)
    if cfg.field_grid is None:
        raise ConfigError("field_grid: required for the field subcommand")
    reach = float(np.max(np.abs(X.x.values)))
    if reach > MAX_FIELD_COORD:
        raise ConfigError(f"{snapshot_path}: field needs samples at most {MAX_FIELD_COORD:g} in magnitude, got {reach:g}")
    _check_well_stretched(X, snapshot_path)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "field.csv"
    write_field_csv(out, X, cfg.field_grid)
    print(f"wrote {cfg.field_grid.nx * cfg.field_grid.ny} samples to {out}")
    return 0


def cmd_spectrum(k_max: int, stream=None) -> int:
    if k_max < 0:
        raise ConfigError(f"k_max: must be >= 0, got {k_max}")
    stream = stream or sys.stdout
    print("k,eig_minus,eig_plus", file=stream)
    for k in range(k_max + 1):
        lo, hi = mode_block(k).eigenvalues
        print(f"{k},{_FMT % lo},{_FMT % hi}", file=stream)
    return 0


def cmd_fit(snapshot_path: Path, stream=None) -> int:
    stream = stream or sys.stdout
    X = read_snapshot(snapshot_path)
    _check_input(X, snapshot_path, oriented=True)
    fit = closest_equilibrium(X)
    print(f"theta_star = {_FMT % fit.theta_star}", file=stream)
    print(f"x_star = ({_FMT % fit.x_star[0]}, {_FMT % fit.x_star[1]})", file=stream)
    print(f"radius = {_FMT % fit.radius}", file=stream)
    print(f"degenerate = {fit.degenerate}", file=stream)
    print(f"dist_h1 = {_FMT % fit_distance(X, fit, 1.0)}", file=stream)
    print(f"dist_h52 = {_FMT % fit_distance(X, fit, 2.5)}", file=stream)
    print(f"first_order_residual = {_FMT % first_order_residual(X, fit)}", file=stream)
    return 0


def cmd_verify(full: bool, stream=None) -> int:
    from .acceptance import run_suite  # deferred: pulls in the whole stack

    stream = stream or sys.stdout
    results = run_suite(full=full, stream=stream)
    return 0 if all(r.passed for r in results) else 5


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ibstring",
        description="Spectral contour dynamics for a closed elastic string in 2-D Stokes flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the contour dynamics from a JSON config")
    p_sim.add_argument("config", type=Path)

    p_field = sub.add_parser("field", help="sample velocity/pressure on the config's lattice")
    p_field.add_argument("config", type=Path)
    p_field.add_argument("snapshot", type=Path)

    p_spec = sub.add_parser("spectrum", help="per-mode eigenvalues of the linearized dynamics")
    p_spec.add_argument("k_max", type=int)

    p_fit = sub.add_parser("fit", help="closest-equilibrium report for a snapshot")
    p_fit.add_argument("snapshot", type=Path)

    p_verify = sub.add_parser("verify", help="run invariant suites and acceptance criteria")
    p_verify.add_argument("--full", action="store_true", help="include the long-running criteria")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "field":
            return cmd_field(args.config, args.snapshot)
        if args.command == "spectrum":
            return cmd_spectrum(args.k_max)
        if args.command == "fit":
            return cmd_fit(args.snapshot)
        return cmd_verify(full=args.full)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an output directory that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
