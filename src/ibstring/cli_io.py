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
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, NoReturn, Sequence

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
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int


@dataclass(frozen=True)
class RunConfig:
    grid_n: int
    stepper: StepperConfig
    initial: dict[str, Any]
    output_dir: Path
    field_grid: FieldGrid | None = None


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "grid_n", "scheme", "dt", "t_end", "dealias", "lambda_abort",
    "snapshot_every", "output_dir", "initial", "field_grid",
}
_DEALIAS_KEYS = {"enabled", "cutoff_fraction", "krasny_floor"}
_FIELD_KEYS = {"xmin", "xmax", "ymin", "ymax", "nx", "ny"}
_INITIAL_KEYS = {
    "circle": {"kind", "radius", "theta", "center"},
    "perturbed_circle": {"kind", "radius", "modes"},
    "reparam_circle": {"kind", "radius", "beta"},
    "file": {"kind", "path"},
}
_MODE_KEYS = {"k", "amp_x", "amp_y", "phase_x", "phase_y"}


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field missing")
    return obj[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # also 1e400, which JSON reads as infinity
        raise ConfigError(f"{path}: expected a finite number")
    return number


def _reject_constant(token: str) -> NoReturn:
    raise ConfigError(f"non-finite number {token} is not allowed")


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict: unknown keys rejected)."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, a rejected constant, an over-long integer
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    _reject_unknown(doc, _TOP_KEYS, "top level")

    grid_n = _integer(_require(doc, "grid_n", "top level"), "grid_n")
    if grid_n < 8 or grid_n % 2 != 0:
        raise ConfigError(f"grid_n: must be even and >= 8, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise ConfigError(f"grid_n: at most {MAX_GRID_N}, got {grid_n}")

    # JSON types only: StepperConfig states the defaults and the ranges
    settings: dict[str, Any] = {"t_end": _number(_require(doc, "t_end", "top level"), "t_end")}
    if "scheme" in doc:
        settings["scheme"] = _string(doc["scheme"], "scheme")
    if "dt" in doc:
        settings["dt"] = _number(doc["dt"], "dt")
    if "dealias" in doc:
        d = doc["dealias"]
        if not isinstance(d, dict):
            raise ConfigError("dealias: expected an object")
        _reject_unknown(d, _DEALIAS_KEYS, "dealias")
        enabled = d.get("enabled", "auto")
        if isinstance(enabled, bool):
            settings["dealias_enabled"] = enabled
        elif enabled != "auto":
            raise ConfigError(f"dealias.enabled: expected bool or 'auto', got {enabled!r}")
        if "cutoff_fraction" in d:
            settings["dealias_cutoff"] = _number(d["cutoff_fraction"], "dealias.cutoff_fraction")
        if "krasny_floor" in d:
            settings["krasny_floor"] = _number(d["krasny_floor"], "dealias.krasny_floor")
    if doc.get("lambda_abort") is not None:
        settings["lambda_abort"] = _number(doc["lambda_abort"], "lambda_abort")
    if "snapshot_every" in doc:
        settings["snapshot_every"] = _integer(doc["snapshot_every"], "snapshot_every")
    try:
        stepper = StepperConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    initial = _require(doc, "initial", "top level")
    if not isinstance(initial, dict):
        raise ConfigError("initial: expected an object")
    kind = _string(_require(initial, "kind", "initial"), "initial.kind")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"initial.kind: unknown kind {kind!r}")
    _reject_unknown(initial, _INITIAL_KEYS[kind], "initial")
    initial = dict(initial)
    if kind in ("circle", "perturbed_circle", "reparam_circle"):
        initial["radius"] = _number(initial.get("radius", 1.0), "initial.radius")
        if initial["radius"] <= 0:
            raise ConfigError(f"initial.radius: must be positive, got {initial['radius']}")
    if kind == "circle":
        initial["theta"] = _number(initial.get("theta", 0.0), "initial.theta")
        center = initial.get("center", [0.0, 0.0])
        if not (isinstance(center, list) and len(center) == 2):
            raise ConfigError(f"initial.center: expected [x, y], got {center!r}")
        initial["center"] = [_number(c, "initial.center") for c in center]
    elif kind == "perturbed_circle":
        modes = initial.get("modes", [])
        if not isinstance(modes, list):
            raise ConfigError("initial.modes: expected a list")
        parsed = []
        for i, m in enumerate(modes):
            if not isinstance(m, dict):
                raise ConfigError(f"initial.modes[{i}]: expected an object")
            _reject_unknown(m, _MODE_KEYS, f"initial.modes[{i}]")
            parsed.append({
                "k": _integer(_require(m, "k", f"initial.modes[{i}]"), f"initial.modes[{i}].k"),
                "amp_x": _number(m.get("amp_x", 0.0), f"initial.modes[{i}].amp_x"),
                "amp_y": _number(m.get("amp_y", 0.0), f"initial.modes[{i}].amp_y"),
                "phase_x": _number(m.get("phase_x", 0.0), f"initial.modes[{i}].phase_x"),
                "phase_y": _number(m.get("phase_y", 0.0), f"initial.modes[{i}].phase_y"),
            })
        initial["modes"] = parsed
    elif kind == "reparam_circle":
        initial["beta"] = _number(initial.get("beta", 0.0), "initial.beta")
        if not abs(initial["beta"]) < 1.0:
            raise ConfigError(f"initial.beta: |beta| must be < 1, got {initial['beta']}")
    else:  # file
        _string(_require(initial, "path", "initial"), "initial.path")

    field_grid = None
    if doc.get("field_grid") is not None:
        fg = doc["field_grid"]
        if not isinstance(fg, dict):
            raise ConfigError("field_grid: expected an object")
        _reject_unknown(fg, _FIELD_KEYS, "field_grid")
        vals = {k: _require(fg, k, "field_grid") for k in _FIELD_KEYS}
        field_grid = FieldGrid(
            xmin=_number(vals["xmin"], "field_grid.xmin"),
            xmax=_number(vals["xmax"], "field_grid.xmax"),
            ymin=_number(vals["ymin"], "field_grid.ymin"),
            ymax=_number(vals["ymax"], "field_grid.ymax"),
            nx=_integer(vals["nx"], "field_grid.nx"),
            ny=_integer(vals["ny"], "field_grid.ny"),
        )
        if field_grid.nx < 1 or field_grid.ny < 1:
            raise ConfigError("field_grid: nx and ny must be >= 1")
        if field_grid.nx * field_grid.ny > MAX_FIELD_POINTS:
            raise ConfigError(f"field_grid: nx*ny at most {MAX_FIELD_POINTS}, got {field_grid.nx * field_grid.ny}")
        if field_grid.xmax <= field_grid.xmin or field_grid.ymax <= field_grid.ymin:
            raise ConfigError("field_grid: max bounds must exceed min bounds")
        if not (math.isfinite(field_grid.xmax - field_grid.xmin) and math.isfinite(field_grid.ymax - field_grid.ymin)):
            raise ConfigError("field_grid: the spans xmax - xmin and ymax - ymin must be finite")
        bound = max(abs(field_grid.xmin), abs(field_grid.xmax), abs(field_grid.ymin), abs(field_grid.ymax))
        if bound > MAX_FIELD_COORD:
            raise ConfigError(f"field_grid: bounds at most {MAX_FIELD_COORD:g} in magnitude, got {bound:g}")

    output_dir = Path(_string(doc.get("output_dir", "ibstring_out"), "output_dir"))
    return RunConfig(
        grid_n=grid_n,
        stepper=stepper,
        initial=initial,
        output_dir=output_dir,
        field_grid=field_grid,
    )


def canonical_config(cfg: RunConfig) -> dict[str, Any]:
    """Canonical JSON document of a parsed configuration (round-trips)."""
    doc: dict[str, Any] = {
        "grid_n": cfg.grid_n,
        "scheme": cfg.stepper.scheme,
        "dt": cfg.stepper.dt,
        "t_end": cfg.stepper.t_end,
        "dealias": {
            "enabled": "auto" if cfg.stepper.dealias_enabled is None else cfg.stepper.dealias_enabled,
            "cutoff_fraction": cfg.stepper.dealias_cutoff,
            "krasny_floor": cfg.stepper.krasny_floor,
        },
        "lambda_abort": cfg.stepper.lambda_abort,
        "snapshot_every": cfg.stepper.snapshot_every,
        "output_dir": str(cfg.output_dir),
        "initial": cfg.initial,
    }
    if cfg.field_grid is not None:
        doc["field_grid"] = {
            "xmin": cfg.field_grid.xmin, "xmax": cfg.field_grid.xmax,
            "ymin": cfg.field_grid.ymin, "ymax": cfg.field_grid.ymax,
            "nx": cfg.field_grid.nx, "ny": cfg.field_grid.ny,
        }
    return doc


def build_initial(cfg: RunConfig) -> CurveState:
    """Construct the initial configuration and check it is well-stretched."""
    init = cfg.initial
    kind = init["kind"]
    if kind == "circle":
        X = make_circle(cfg.grid_n, init["radius"], init["theta"], tuple(init["center"]))
    elif kind == "perturbed_circle":
        modes = [PerturbationMode(**m) for m in init["modes"]]
        X = make_perturbed_circle(cfg.grid_n, init["radius"], modes)
    elif kind == "reparam_circle":
        X = make_reparam_circle(cfg.grid_n, init["radius"], init["beta"])
    else:
        X = read_snapshot(Path(init["path"]))
        if X.n != cfg.grid_n:
            raise ConfigError(f"initial.path: snapshot has N = {X.n}, config grid_n = {cfg.grid_n}")
    _check_input(X, "initial")
    try:
        enclosed_area(X)
    except OrientationError as exc:
        raise ConfigError(f"initial: {exc} (clockwise or self-intersecting curve)") from None
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


def _check_input(X: CurveState, source: str | Path) -> None:
    """Read an input curve's X', X'' and enclosed area, as every command
    does (simulate before its first step); an overflow there is the input's
    fault and raises ConfigError naming the source."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            X.xp, X.xpp
        except NonFiniteFieldError:
            raise ConfigError(f"{source}: spectral derivatives of the samples overflow") from None
        try:
            enclosed_area(X)
        except NonFiniteFieldError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        except OrientationError:
            pass  # field reads a reversed curve; build_initial and fit reject it


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
    try:
        fit = closest_equilibrium(X)
    except OrientationError as exc:
        raise ConfigError(f"{snapshot_path}: {exc} (clockwise or self-intersecting curve)") from None
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
