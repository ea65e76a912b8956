"""The benchmark workloads: seeded inputs, the CLI op each repeats, and the
checks every op's output must pass.

Inputs are generated here from the seed with numpy alone and handed to the
program only as files (a JSON config, and for `field` a v1 curve snapshot).
Each check returns a list of error strings; an empty list means the op's
output is correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIAG_COLUMNS = "t,energy,dissipation,lambda,radius,area,dist_h1,dist_h52,theta_star,xstar_x,xstar_y"
OUTPUT_DIR = "out"


def _perturbed_circle(rng: np.random.Generator, n: int) -> tuple[list[dict], np.ndarray]:
    """Unit circle plus cosine modes k = 2..6 with seeded amplitudes and phases.

    The absolute amplitudes sum to between 0.025 and 0.05, which keeps the
    curve well stretched for every seed. Returns the config's `modes` list
    and the (n, 2) samples of the same curve.
    """
    raw = rng.uniform(-1.0, 1.0, size=(5, 2))
    amps = raw * (rng.uniform(0.025, 0.05) / np.abs(raw).sum())
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(5, 2))
    s = 2.0 * np.pi * np.arange(n) / n
    samples = np.stack([np.cos(s), np.sin(s)], axis=1)
    modes = []
    for i, k in enumerate(range(2, 7)):
        mode = {"k": k, "amp_x": float(amps[i, 0]), "amp_y": float(amps[i, 1]),
                "phase_x": float(phases[i, 0]), "phase_y": float(phases[i, 1])}
        modes.append(mode)
        samples[:, 0] += mode["amp_x"] * np.cos(k * s + mode["phase_x"])
        samples[:, 1] += mode["amp_y"] * np.cos(k * s + mode["phase_y"])
    return modes, samples


def _parse_rows(text: str, width: int) -> np.ndarray:
    rows = [line.split(",") for line in text.splitlines()]
    if any(len(r) != width for r in rows):
        raise ValueError(f"expected {width} columns in every row")
    return np.array(rows, dtype=float).reshape(len(rows), width)


@dataclass(frozen=True)
class Simulate:
    """`ibstring simulate` of a seeded perturbed circle."""

    name: str
    grid_n: int
    scheme: str
    dt: float
    t_end: float
    snapshot_every: int

    @property
    def steps(self) -> int:
        return int(round(self.t_end / self.dt))

    work_unit = "time steps"

    def prepare(self, workdir: Path, seed: int) -> list[str]:
        modes = _perturbed_circle(np.random.default_rng(seed), self.grid_n)[0]
        initial = {"kind": "perturbed_circle", "radius": 1.0, "modes": modes}
        config = {
            "grid_n": self.grid_n, "scheme": self.scheme, "dt": self.dt, "t_end": self.t_end,
            "snapshot_every": self.snapshot_every, "output_dir": OUTPUT_DIR, "initial": initial,
        }
        (workdir / "config.json").write_text(json.dumps(config, indent=1) + "\n")
        return ["simulate", "config.json"]

    def work_done(self, stdout: str) -> int:
        return self.steps

    def check(self, files: dict[str, bytes], stdout: str, seed: int, workdir: Path) -> list[str]:
        errors = []
        diag = files.get(f"{OUTPUT_DIR}/diagnostics.csv")
        if diag is None:
            return ["diagnostics.csv missing"]
        header, _, body = diag.decode().partition("\n")
        if header != DIAG_COLUMNS:
            errors.append(f"diagnostics header {header!r}")
        try:
            rows = _parse_rows(body, 11)
        except ValueError as exc:
            return errors + [f"diagnostics.csv: {exc}"]
        if rows.shape[0] != self.steps + 1:
            errors.append(f"{rows.shape[0]} diagnostics rows, expected {self.steps + 1}")
        if not np.all(np.isfinite(rows)):
            errors.append("non-finite diagnostics")
        energy, dissipation = rows[:, 1], rows[:, 2]
        if np.any(np.diff(energy) > 0.0):
            errors.append(f"energy increases by up to {np.max(np.diff(energy)):.3g}")
        if np.any(dissipation < 0.0):
            errors.append(f"negative dissipation {np.min(dissipation):.3g}")
        for step in sorted(set(range(0, self.steps + 1, self.snapshot_every)) | {self.steps}):
            snap = files.get(f"{OUTPUT_DIR}/snap_{step:08d}.csv")
            if snap is None:
                errors.append(f"snapshot {step} missing")
                continue
            header, _, body = snap.decode().partition("\n")
            samples = _parse_rows(body, 3)
            if header != f"# ibstring-curve v1 N={self.grid_n}" or samples.shape[0] != self.grid_n \
                    or not np.all(np.isfinite(samples)):
                errors.append(f"snapshot {step} malformed")
        if not files.get(f"{OUTPUT_DIR}/final.svg", b"").startswith(b"<svg"):
            errors.append("final.svg missing or malformed")
        return errors


@dataclass(frozen=True)
class Field:
    """`ibstring field` over a lattice around a seeded perturbed-circle snapshot."""

    name: str
    grid_n: int
    half_width: float
    nx: int
    ny: int
    checked_rows: int = 8
    work_unit = "lattice points"

    def lattice(self) -> np.ndarray:
        """Lattice points in the program's y-major row order, shape (nx*ny, 2)."""
        xs = np.linspace(-self.half_width, self.half_width, self.nx)
        ys = np.linspace(-self.half_width, self.half_width, self.ny)
        return np.array([(x, y) for y in ys for x in xs])

    def curve(self, seed: int) -> np.ndarray:
        return _perturbed_circle(np.random.default_rng(seed), self.grid_n)[1]

    def nearest_distance(self, seed: int) -> np.ndarray:
        """Distance from every lattice point to its nearest curve sample."""
        samples = self.curve(seed)
        points = self.lattice()
        out = np.empty(len(points))
        for lo in range(0, len(points), 32):  # small blocks keep the check out of peak_mb
            d = points[lo:lo + 32, None, :] - samples[None, :, :]
            out[lo:lo + 32] = np.sqrt(np.min(np.einsum("pjk,pjk->pj", d, d), axis=1))
        return out

    def near_share(self, seed: int) -> float:
        """Share of lattice points within five grid spacings of a curve sample,
        the points that take the upsampled near-curve quadrature."""
        h = 2.0 * np.pi / self.grid_n
        return float(np.mean(self.nearest_distance(seed) < 5.0 * h))

    def prepare(self, workdir: Path, seed: int) -> list[str]:
        samples = self.curve(seed)
        s = 2.0 * np.pi * np.arange(self.grid_n) / self.grid_n
        lines = [f"# ibstring-curve v1 N={self.grid_n}"]
        lines += [f"{s[j]:.17g},{samples[j, 0]:.17g},{samples[j, 1]:.17g}" for j in range(self.grid_n)]
        (workdir / "curve.csv").write_text("\n".join(lines) + "\n")
        w = self.half_width
        config = {
            "grid_n": self.grid_n, "t_end": 1.0, "output_dir": OUTPUT_DIR,
            "initial": {"kind": "file", "path": "curve.csv"},
            "field_grid": {"xmin": -w, "xmax": w, "ymin": -w, "ymax": w, "nx": self.nx, "ny": self.ny},
        }
        (workdir / "config.json").write_text(json.dumps(config, indent=1) + "\n")
        return ["field", "config.json", "curve.csv"]

    def work_done(self, stdout: str) -> int:
        return self.nx * self.ny

    def check(self, files: dict[str, bytes], stdout: str, seed: int, workdir: Path) -> list[str]:
        from ibstring.cli_io import read_snapshot
        from ibstring.stokeslet import off_curve_velocity, pressure_at

        field = files.get(f"{OUTPUT_DIR}/field.csv")
        if field is None:
            return ["field.csv missing"]
        header, _, body = field.decode().partition("\n")
        if header != "x,y,u,v,p":
            return [f"field header {header!r}"]
        rows = _parse_rows(body, 5)
        points = self.lattice()
        if rows.shape[0] != len(points):
            return [f"{rows.shape[0]} field rows, expected {len(points)}"]
        errors = []
        if not np.array_equal(rows[:, :2], points):
            errors.append("lattice coordinates are not the y-major lattice")
        dist = self.nearest_distance(seed)
        on_curve = dist <= 1e-12
        finite = np.all(np.isfinite(rows[:, 2:]), axis=1)
        if not np.all(finite | on_curve):
            errors.append(f"{np.sum(~finite & ~on_curve)} non-finite rows off the curve")
        # direct calls at a seeded handful of rows, some of them near the curve
        rng = np.random.default_rng([seed, 1])
        near = np.flatnonzero((dist < 5.0 * 2.0 * np.pi / self.grid_n) & ~on_curve)
        picks = list(rng.choice(len(points), self.checked_rows - 2, replace=False))
        picks += list(rng.choice(near, min(2, len(near)), replace=False))
        X = read_snapshot(workdir / "curve.csv")
        for i in picks:
            u = off_curve_velocity(X, points[i])
            ref = np.array([u[0], u[1], pressure_at(X, points[i])])
            if not np.all(np.abs(rows[i, 2:] - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))):
                errors.append(f"row {i} differs from direct evaluation by {np.max(np.abs(rows[i, 2:] - ref)):.3g}")
        return errors


_TIMING = re.compile(r" \[\d+\.\d+s\]$", re.MULTILINE)
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed")


@dataclass(frozen=True)
class Verify:
    """`ibstring verify`: the quick invariant suites and acceptance criteria.

    Its inputs are fixed by the program; the seed is recorded but unused.
    """

    name: str
    work_unit = "checks"

    def prepare(self, workdir: Path, seed: int) -> list[str]:
        return ["verify"]

    def work_done(self, stdout: str) -> int:
        return sum(line.startswith("[") for line in stdout.splitlines())

    def check(self, files: dict[str, bytes], stdout: str, seed: int, workdir: Path) -> list[str]:
        lines = stdout.splitlines()
        status = [line for line in lines if line.startswith("[")]
        summary = _SUMMARY.match(lines[-1]) if lines else None
        errors = [f"not PASS: {line}" for line in status if not line.startswith("[PASS]")]
        if not status or summary is None or summary.group(1) != summary.group(2) \
                or int(summary.group(2)) != len(status) or len(lines) != len(status) + 1:
            errors.append(f"unexpected verify report ({len(status)} check lines)")
        return errors


def normalized_stdout(stdout: str) -> str:
    """The op's report without per-check wall times, which differ between runs."""
    return _TIMING.sub("", stdout)


WORKLOADS = {w.name: w for w in (
    Simulate("relax_n1024", grid_n=1024, scheme="exp_euler", dt=0.01, t_end=0.4, snapshot_every=10),
    Field("field_n1024", grid_n=1024, half_width=1.6, nx=80, ny=80),
    Verify("verify_quick"),
)}
