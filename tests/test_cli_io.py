"""Configuration parsing, file formats, subcommands and exit codes."""

import json
import warnings

import numpy as np
import pytest

from ibstring import CurveState, GridField, curve, make_circle, make_perturbed_circle, PerturbationMode
from ibstring.cli_io import (
    MAX_FIELD_COORD,
    MAX_FIELD_POINTS,
    MAX_GRID_N,
    ConfigError,
    build_initial,
    canonical_config,
    cmd_fit,
    cmd_simulate,
    cmd_spectrum,
    main,
    parse_config,
    read_snapshot,
    write_diagnostics_csv,
    write_field_csv,
    write_snapshot,
    write_svg,
)
from ibstring.dynamics import StepperConfig, run
from ibstring.equilibrium import closest_equilibrium
from ibstring.stokeslet import off_curve_velocity, pressure_at


MINIMAL = {"grid_n": 64, "t_end": 0.1, "initial": {"kind": "circle"}}


def config_text(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(config_text())
        assert cfg.grid_n == 64
        assert cfg.stepper.scheme == "exp_euler"
        assert cfg.stepper.dt == 1e-2
        assert cfg.stepper.dealias_enabled is None  # auto: on for t_end > 1
        assert cfg.stepper.krasny_floor == 1e-13
        assert cfg.stepper.snapshot_every == 100
        assert cfg.field_grid is None

    def test_odd_grid_rejected_naming_field(self):
        with pytest.raises(ConfigError, match="grid_n"):
            parse_config(config_text(grid_n=255))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(config_text(gridn=64))
        with pytest.raises(ConfigError, match="initial"):
            parse_config(config_text(initial={"kind": "circle", "rdius": 1.0}))

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_initial_kinds(self):
        for initial in (
            {"kind": "circle", "radius": 2.0, "theta": 0.4, "center": [1.0, -1.0]},
            {"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": 0.01}]},
            {"kind": "reparam_circle", "beta": 0.3},
        ):
            cfg = parse_config(config_text(initial=initial))
            X = build_initial(cfg)
            assert X.n == 64

    def test_beta_validation(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(config_text(initial={"kind": "reparam_circle", "beta": 1.5}))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_rejected(self, token):
        with pytest.raises(ConfigError, match=token):
            parse_config(config_text().replace('"t_end": 0.1', f'"t_end": {token}'))

    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["exponent", "integer"])
    def test_overflowing_number_rejected(self, literal):
        # valid JSON, but beyond the float range
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(config_text().replace('"t_end": 0.1', f'"t_end": {literal}'))

    @pytest.mark.parametrize("overrides, field", [
        ({"scheme": "euler"}, "scheme"),
        ({"dt": 0}, "dt"),
        ({"lambda_abort": 0}, "lambda_abort"),
        ({"snapshot_every": 0}, "snapshot_every"),
        ({"dealias": {"cutoff_fraction": 0}}, "dealias_cutoff"),
        ({"dealias": {"cutoff_fraction": 1.5}}, "dealias_cutoff"),
        ({"dealias": {"krasny_floor": -1}}, "krasny_floor"),
    ], ids=["scheme", "dt", "lambda_abort", "snapshot_every", "cutoff_zero", "cutoff_above_one", "floor_negative"])
    def test_stepper_range_errors(self, overrides, field):
        # the ranges are StepperConfig's; parse_config reports them as ConfigError
        with pytest.raises(ConfigError, match=field):
            parse_config(config_text(**overrides))

    def test_round_trip(self):
        text = config_text(
            scheme="rk4",
            dt=5e-3,
            dealias={"enabled": True, "cutoff_fraction": 0.5, "krasny_floor": 1e-12},
            lambda_abort=0.1,
            snapshot_every=7,
            initial={"kind": "perturbed_circle", "radius": 1.5, "modes": [{"k": 3, "amp_y": 0.02}]},
            field_grid={"xmin": -2, "xmax": 2, "ymin": -2, "ymax": 2, "nx": 5, "ny": 4},
        )
        cfg = parse_config(text)
        again = parse_config(json.dumps(canonical_config(cfg)))
        assert canonical_config(again) == canonical_config(cfg)


class TestFileFormats:
    def test_snapshot_round_trip_exact(self, tmp_path):
        X = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 0.0123456789, 0.0)])
        path = tmp_path / "snap.csv"
        write_snapshot(path, X)
        header = path.read_text().splitlines()[0]
        assert header == "# ibstring-curve v1 N=64"
        back = read_snapshot(path)
        assert np.array_equal(back.x.values, X.x.values)  # 17 digits round-trips doubles

    @pytest.mark.parametrize("radius", [1e20, 1e-20])
    def test_snapshot_exponent_cells_round_trip(self, tmp_path, radius):
        # %.17g writes the sample at s = 0 as 1e+20 and 9.9999999999999995e-21
        X = make_circle(64, radius)
        path = tmp_path / "snap.csv"
        write_snapshot(path, X)
        assert f"\n0,{radius:.17g},0\n" in path.read_text()
        assert np.array_equal(read_snapshot(path).x.values, X.x.values)

    def test_snapshot_rows_are_s_x_y_at_full_precision(self, tmp_path, rng):
        # the s cells are formatted once per N; rows at N = 64 and 16, in
        # turns, stay the three %.17g cells of (s, x, y)
        for n in (64, 16, 64):
            X = CurveState(GridField(rng.normal(size=(n, 2))))
            write_snapshot(tmp_path / "snap.csv", X)
            rows = ["%.17g,%.17g,%.17g" % tuple(r) for r in np.column_stack([X.s, X.x.values]).tolist()]
            assert (tmp_path / "snap.csv").read_text() == "\n".join([f"# ibstring-curve v1 N={n}", *rows]) + "\n"

    def test_snapshot_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("garbage\n1,2,3\n")
        with pytest.raises(ConfigError, match="snapshot"):
            read_snapshot(path)

    def test_diagnostics_columns_and_determinism(self, tmp_path):
        X = make_circle(64)
        res = run(X, StepperConfig(dt=1e-2, t_end=0.05, snapshot_every=10))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_diagnostics_csv(p1, res.rows)
        res2 = run(X, StepperConfig(dt=1e-2, t_end=0.05, snapshot_every=10))
        write_diagnostics_csv(p2, res2.rows)
        text = p1.read_text()
        assert text.splitlines()[0] == (
            "t,energy,dissipation,lambda,radius,area,dist_h1,dist_h52,theta_star,xstar_x,xstar_y"
        )
        assert text == p2.read_text()  # byte-identical across repeated runs

    def test_field_csv_with_on_curve_nan(self, tmp_path):
        from ibstring.cli_io import FieldGrid

        X = make_circle(64)
        # 3x3 lattice whose corner (1, 0) coincides with a curve sample
        grid = FieldGrid(xmin=0.0, xmax=1.0, ymin=0.0, ymax=0.4, nx=3, ny=3)
        path = tmp_path / "field.csv"
        write_field_csv(path, X, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u,v,p"
        assert len(lines) == 10
        on_curve = [l for l in lines[1:] if l.startswith("1,0,")]
        assert on_curve and "nan" in on_curve[0]
        interior = lines[1].split(",")
        assert abs(float(interior[4]) - 1.0) < 1e-8  # pressure 1 inside the circle

    def test_field_csv_matches_pointwise(self, tmp_path):
        from ibstring.cli_io import FieldGrid

        X = make_perturbed_circle(64, 1.0, [PerturbationMode(2, 0.05, 0.0)])
        grid = FieldGrid(xmin=-2.0, xmax=2.0, ymin=-2.0, ymax=2.0, nx=4, ny=4)
        path = tmp_path / "field.csv"
        write_field_csv(path, X, grid)
        rows = [list(map(float, line.split(","))) for line in path.read_text().splitlines()[1:]]
        points = [(x, y) for y in np.linspace(-2.0, 2.0, 4) for x in np.linspace(-2.0, 2.0, 4)]
        assert len(rows) == len(points)
        for (x, y, u, v, p), point in zip(rows, points):
            assert (x, y) == point
            # %.17g round-trips doubles, so each row is bitwise the direct calls
            assert [u, v] == off_curve_velocity(X, np.array(point)).tolist()
            assert p == pressure_at(X, np.array(point))

    def test_field_grid_states_its_ranges(self, tmp_path):
        # a lattice built in code meets the ranges a config's does: this one
        # wrote a field.csv that held only its header
        from ibstring.cli_io import FieldGrid

        with pytest.raises(ValueError, match="nx and ny must be >= 1"):
            write_field_csv(tmp_path / "field.csv", make_circle(64), FieldGrid(1.0, -1.0, 0.0, 1.0, 0, 2))
        with pytest.raises(ValueError, match="max bounds must exceed min bounds"):
            FieldGrid(1.0, -1.0, 0.0, 1.0, 2, 2)
        assert not (tmp_path / "field.csv").exists()

    def test_svg_contains_curve_and_fit(self, tmp_path):
        X = make_perturbed_circle(64, 1.0, [PerturbationMode(3, 0.1, 0.0)])
        path = tmp_path / "plot.svg"
        write_svg(path, X, closest_equilibrium(X))
        text = path.read_text()
        assert "<svg" in text and 'width="800"' in text
        assert "polyline" in text
        assert "stroke-dasharray" in text


class TestSubcommands:
    def test_simulate_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            config_text(
                t_end=0.05,
                snapshot_every=5,
                output_dir=str(tmp_path / "out"),
                initial={"kind": "circle"},
            )
        )
        assert main(["simulate", str(cfg_path)]) == 0
        out = tmp_path / "out"
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert len(diag) == 7  # header + 6 rows (t = 0 .. 0.05)
        dissipation = [float(line.split(",")[2]) for line in diag[1:]]
        assert all(abs(d) < 1e-10 for d in dissipation)
        assert (out / "snap_00000000.csv").exists()
        assert (out / "snap_00000005.csv").exists()
        assert (out / "final.svg").exists()

    def test_simulate_runs_one_lambda_pass_per_row(self, tmp_path, monkeypatch):
        # build_initial's degeneracy check and diagnostics row 0 share the
        # initial state's pass
        passes = []
        full_pass = curve._well_stretched_pass
        monkeypatch.setattr(curve, "_well_stretched_pass", lambda X: passes.append(X) or full_pass(X))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text(t_end=0.05, output_dir=str(tmp_path / "out"),
                                        initial={"kind": "reparam_circle", "beta": 0.5}))
        assert main(["simulate", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(passes) == len(rows) == 6

    def test_simulate_computes_one_area_per_row(self, tmp_path, monkeypatch):
        # the row's area column and its fitted radius share one sum, and so
        # do build_initial's checks and row 0
        sums = []
        signed_area = curve._signed_area
        monkeypatch.setattr(curve, "_signed_area", lambda X: sums.append(X) or signed_area(X))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text(t_end=0.05, output_dir=str(tmp_path / "out"),
                                        initial={"kind": "reparam_circle", "beta": 0.5}))
        assert main(["simulate", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(sums) == len(rows) == 6

    def test_simulate_config_error_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(config_text(grid_n=7))
        assert main(["simulate", str(cfg_path)]) == 2

    def test_simulate_missing_file_exit_1(self, tmp_path):
        assert main(["simulate", str(tmp_path / "missing.json")]) == 1

    def test_simulate_lambda_abort_exit_3(self, tmp_path):
        cfg_path = tmp_path / "abort.json"
        cfg_path.write_text(
            config_text(lambda_abort=5.0, output_dir=str(tmp_path / "out"))
        )
        assert main(["simulate", str(cfg_path)]) == 3
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_simulate_nonfinite_abort_exit_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "blowup.json"
        cfg_path.write_text(config_text(
            scheme="rk4", dt=1e200, t_end=1e200, lambda_abort=1e-12, dealias={"enabled": False},
            output_dir=str(tmp_path / "out"),
            initial={"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": 1e-2}]},
        ))
        with np.errstate(all="ignore"):
            assert main(["simulate", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("aborted: non-finite") and err.count("\n") == 1
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_field_subcommand(self, tmp_path):
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            config_text(
                output_dir=str(tmp_path / "out"),
                field_grid={"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 3, "ny": 3},
            )
        )
        assert main(["field", str(cfg_path), str(snap)]) == 0
        lines = (tmp_path / "out" / "field.csv").read_text().splitlines()
        assert len(lines) == 10
        # interior of the unit circle: velocity ~ 0, pressure ~ 1
        for line in lines[1:]:
            x, y, u, v, p = map(float, line.split(","))
            assert abs(u) < 1e-8 and abs(v) < 1e-8 and abs(p - 1.0) < 1e-8

    def test_field_requires_grid_exit_2(self, tmp_path):
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        assert main(["field", str(cfg_path), str(snap)]) == 2

    def test_spectrum_rows(self, capsys):
        assert cmd_spectrum(4) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,eig_minus,eig_plus"
        assert len(lines) == 6
        k2 = lines[3].split(",")
        assert float(k2[1]) == -0.75 and float(k2[2]) == -0.25

    def test_fit_subcommand(self, tmp_path, capsys):
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64, 2.0, 0.7, (1.0, -1.0)))
        assert cmd_fit(snap) == 0
        out = capsys.readouterr().out
        assert "theta_star = 0.69999999" in out
        assert "radius = 2" in out

    def test_spectrum_cli_roundtrip(self, capsys):
        assert main(["spectrum", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("0,")


def bad_snapshot_text(case: str) -> str:
    """A circle snapshot broken in the way `case` names."""
    n = 9 if case == "odd_n" else 8
    rows = [f"{t:.17g},{np.cos(t):.17g},{np.sin(t):.17g}" for t in 2.0 * np.pi * np.arange(n) / n]
    # int() accepts the last three headers, which the v1 format never writes
    header = {
        "header_not_integer": "eight", "header_underscore": "0_8", "header_space": " 8", "header_plus": "+8",
    }.get(case, str(n))
    if case == "non_numeric_cell":
        rows[3] = "0.1,abc,0.5"
    elif case == "non_numeric_s":
        rows[3] = "abc,1,0"
    elif case == "non_finite_sample":
        rows[3] = "0.1,nan,0.5"
    # float() reads the cells below, which the v1 format never writes
    s3, x3, y3 = rows[3].split(",")
    rows[3] = {
        "nan_s": f"nan,{x3},{y3}",
        "underscore_cell": f"{s3},{x3},{y3[:3]}_{y3[3:]}",
        "padded_cell": f"{s3}, {x3},{y3}",
        "plus_cell": f"{s3},{x3},+{y3}",
    }.get(case, rows[3])
    return f"# ibstring-curve v1 N={header}\n" + "\n".join(rows) + "\n"


class TestMalformedInputs:
    """Malformed snapshots and configs end in exit 2, never a traceback."""

    @pytest.mark.parametrize("case", [
        "header_not_integer", "header_underscore", "header_space", "header_plus",
        "non_numeric_cell", "non_numeric_s", "non_finite_sample", "odd_n",
        "nan_s", "underscore_cell", "padded_cell", "plus_cell",
    ])
    def test_bad_snapshot_exit_2(self, tmp_path, case):
        snap = tmp_path / "bad.csv"
        snap.write_text(bad_snapshot_text(case))
        with pytest.raises(ConfigError):
            read_snapshot(snap)
        field_cfg = tmp_path / "field.json"
        field_cfg.write_text(config_text(
            output_dir=str(tmp_path / "out"),
            field_grid={"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 2, "ny": 2},
        ))
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(config_text(
            grid_n=8, output_dir=str(tmp_path / "out"), initial={"kind": "file", "path": str(snap)},
        ))
        assert main(["fit", str(snap)]) == 2
        assert main(["field", str(field_cfg), str(snap)]) == 2
        assert main(["simulate", str(sim_cfg)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"t_end": float("nan")},
        {"initial": {"kind": "circle", "radius": float("nan")}},
        {"initial": {"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": float("inf")}]}},
    ], ids=["t_end_nan", "radius_nan", "mode_amp_infinity"])
    def test_non_finite_config_exit_2(self, tmp_path, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), **overrides))
        assert main(["simulate", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_nan_field_grid_bound_exit_2(self, tmp_path):
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            output_dir=str(tmp_path / "out"),
            field_grid={"xmin": float("nan"), "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 2, "ny": 2},
        ))
        assert main(["field", str(cfg_path), str(snap)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_field_grid_span_exit_2(self, tmp_path, axis):
        # both bounds are finite, but their difference overflows a double
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64))
        grid = {"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 3, "ny": 2}
        grid.update({f"{axis}min": -1e308, f"{axis}max": 1e308})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), field_grid=grid))
        with pytest.raises(ConfigError, match="field_grid: the spans"):
            parse_config(cfg_path.read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["field", str(cfg_path), str(snap)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bound, code", [(1e200, 2), (1e77, 2), (MAX_FIELD_COORD, 0)])
    def test_far_field_grid_bounds(self, tmp_path, capsys, bound, code):
        # finite spans beyond the cap are refused; the cap itself evaluates cleanly
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64))
        grid = {"xmin": -bound, "xmax": bound, "ymin": -bound, "ymax": bound, "nx": 3, "ny": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), field_grid=grid))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["field", str(cfg_path), str(snap)]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("configuration error: field_grid: bounds at most 1e+75")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()
        else:
            rows = np.loadtxt(tmp_path / "out" / "field.csv", delimiter=",", skiprows=1)
            assert rows.shape == (6, 5) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("center, radius, code", [(1e100, 1.0, 2), (MAX_FIELD_COORD - 1e62, 1e62, 0)],
                             ids=["1e+100-2", "1e+75-0"])
    def test_far_snapshot_capped(self, tmp_path, capsys, center, radius, code):
        # a lattice within the cap, but a curve beyond it; a curve that
        # reaches the cap, with samples distinct there, evaluates cleanly
        snap = tmp_path / "far.csv"
        write_snapshot(snap, make_circle(64, radius, 0.0, (center, 0.0)))
        grid = {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 3, "ny": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), field_grid=grid))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["field", str(cfg_path), str(snap)]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {snap}: field needs samples at most 1e+75")
            assert err.count("\n") == 1
            assert not (tmp_path / "out" / "field.csv").exists()
        else:
            rows = np.loadtxt(tmp_path / "out" / "field.csv", delimiter=",", skiprows=1)
            assert rows.shape == (6, 5) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("command, center", [("field", 1e17), ("field", MAX_FIELD_COORD),
                                                 ("field", 0.0), ("simulate", 0.0)])
    def test_degenerate_snapshot_exit_2(self, tmp_path, capsys, command, center):
        # lambda = 0: a unit circle this far out rounds its samples onto each
        # other; at the origin one sample is repeated. simulate's initial
        # curve and field's snapshot get the same message
        values = make_circle(64, 1.0, 0.0, (center, 0.0)).x.values.copy()
        if center == 0.0:
            values[1] = values[0]
        snap = tmp_path / "degenerate.csv"
        write_snapshot(snap, CurveState(GridField(values)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            output_dir=str(tmp_path / "out"), initial={"kind": "file", "path": str(snap)},
            field_grid={"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 3, "ny": 2},
        ))
        source = "initial" if command == "simulate" else snap
        argv = [command, str(cfg_path)] + ([str(snap)] if command == "field" else [])
        self.assert_one_line_exit_2(
            argv, f"{source}: configuration degenerate (well-stretched constant 0)", tmp_path / "out", capsys,
        )

    @pytest.fixture
    def overflowing_snapshot(self, tmp_path):
        # finite samples whose spectral derivatives overflow
        s = 2.0 * np.pi * np.arange(64) / 64
        vals = np.stack([1e306 * np.cos(s) + 1e305 * np.cos(30 * s), 1e306 * np.sin(s)], axis=1)
        snap = tmp_path / "overflow.csv"
        rows = "\n".join("%.17g,%.17g,%.17g" % (t, x, y) for t, (x, y) in zip(s, vals))
        snap.write_text(f"# ibstring-curve v1 N=64\n{rows}\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            output_dir=str(tmp_path / "out"), initial={"kind": "file", "path": str(snap)},
            field_grid={"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 3, "ny": 2},
        ))
        return snap, cfg_path

    @staticmethod
    def assert_overflow_rejected(argv, snap, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # fit prints no inf
        assert err == f"configuration error: {snap}: spectral derivatives of the samples overflow\n"
        assert not (snap.parent / "out").exists()

    def test_overflowing_snapshot_simulate_exit_2(self, overflowing_snapshot, capsys):
        snap, cfg_path = overflowing_snapshot
        self.assert_overflow_rejected(["simulate", str(cfg_path)], snap, capsys)

    def test_overflowing_snapshot_fit_exit_2(self, overflowing_snapshot, capsys):
        snap, _ = overflowing_snapshot
        self.assert_overflow_rejected(["fit", str(snap)], snap, capsys)

    def test_overflowing_snapshot_field_exit_2(self, overflowing_snapshot, capsys):
        snap, cfg_path = overflowing_snapshot
        self.assert_overflow_rejected(["field", str(cfg_path), str(snap)], snap, capsys)

    @staticmethod
    def assert_one_line_exit_2(argv, message, out_dir, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: {message}\n"
        assert not out_dir.exists()

    def test_overflowing_built_initial_exit_2(self, tmp_path, capsys):
        # a built curve's derivatives are read under the same check as a snapshot's
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), initial={
            "kind": "perturbed_circle", "modes": [{"k": 6, "amp_x": 1e306}],
        }))
        self.assert_one_line_exit_2(
            ["simulate", str(cfg_path)], "initial: spectral derivatives of the samples overflow",
            tmp_path / "out", capsys,
        )

    def test_overflowing_area_simulate_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), initial={"kind": "circle", "radius": 1e200}))
        self.assert_one_line_exit_2(
            ["simulate", str(cfg_path)], "initial: enclosed area of the samples overflows", tmp_path / "out", capsys,
        )

    def test_overflowing_area_fit_exit_2(self, tmp_path, capsys):
        snap = tmp_path / "big.csv"
        write_snapshot(snap, make_circle(64, 1e200))
        self.assert_one_line_exit_2(
            ["fit", str(snap)], f"{snap}: enclosed area of the samples overflows", tmp_path / "out", capsys,
        )

    def test_clockwise_snapshot_fit_exit_2(self, tmp_path, capsys):
        snap = tmp_path / "clockwise.csv"
        write_snapshot(snap, CurveState(GridField(make_circle(64).x.values[::-1])))
        self.assert_one_line_exit_2(
            ["fit", str(snap)], f"{snap}: nonpositive enclosed area -3.14159 (clockwise or self-intersecting curve)",
            tmp_path / "out", capsys,
        )

    def test_clockwise_initial_simulate_exit_2(self, tmp_path, capsys):
        # a mirrored unit circle is rejected before the first step; field still reads it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            t_end=0.02, dt=0.01, output_dir=str(tmp_path / "out"),
            initial={"kind": "perturbed_circle", "modes": [{"k": 1, "amp_x": -2}]},
            field_grid={"xmin": -2, "xmax": 2, "ymin": -2, "ymax": 2, "nx": 3, "ny": 2},
        ))
        self.assert_one_line_exit_2(
            ["simulate", str(cfg_path)],
            "initial: nonpositive enclosed area -3.14159 (clockwise or self-intersecting curve)",
            tmp_path / "out", capsys,
        )
        snap = tmp_path / "clockwise.csv"
        write_snapshot(snap, make_perturbed_circle(64, 1.0, [PerturbationMode(1, amp_x=-2.0)]))
        assert main(["field", str(cfg_path), str(snap)]) == 0
        assert np.isfinite(np.loadtxt(tmp_path / "out" / "field.csv", delimiter=",", skiprows=1)).all()

    def test_negative_spectrum_k_exit_2(self, tmp_path, capsys):
        self.assert_one_line_exit_2(["spectrum", "-1"], "k_max: must be >= 0, got -1", tmp_path / "out", capsys)

    def test_non_string_initial_path_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(output_dir=str(tmp_path / "out"), initial={"kind": "file", "path": 5}))
        with pytest.raises(ConfigError, match="initial.path"):
            parse_config(cfg_path.read_text())
        assert main(["simulate", str(cfg_path)]) == 2

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        good_snap = tmp_path / "snap.csv"
        write_snapshot(good_snap, make_circle(8))
        good_cfg = tmp_path / "cfg.json"
        good_cfg.write_text(config_text(
            output_dir=str(tmp_path / "out"),
            field_grid={"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 2, "ny": 2},
        ))
        bad_snap, bad_cfg = tmp_path / "bad.csv", tmp_path / "bad.json"
        bad_snap.write_bytes(b"\xff\xfe" + good_snap.read_bytes())
        bad_cfg.write_bytes(b"\xff\xfe" + good_cfg.read_bytes())
        assert main(["fit", str(bad_snap)]) == 2
        assert main(["field", str(good_cfg), str(bad_snap)]) == 2
        assert main(["field", str(bad_cfg), str(good_snap)]) == 2
        assert main(["simulate", str(bad_cfg)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_grid_n_and_lattice_bounded(self):
        assert parse_config(config_text(grid_n=MAX_GRID_N)).grid_n == MAX_GRID_N
        with pytest.raises(ConfigError, match=f"grid_n: at most {MAX_GRID_N}"):
            parse_config(config_text(grid_n=MAX_GRID_N + 2))
        side = int(MAX_FIELD_POINTS**0.5)
        grid = {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": side, "ny": MAX_FIELD_POINTS // side}
        assert parse_config(config_text(field_grid=grid)).field_grid.nx == side
        with pytest.raises(ConfigError, match=f"field_grid: nx\\*ny at most {MAX_FIELD_POINTS}"):
            parse_config(config_text(field_grid=dict(grid, nx=100_000, ny=100_000)))

    def test_snapshot_n_bounded(self, tmp_path):
        snap = tmp_path / "big.csv"
        snap.write_text(f"# ibstring-curve v1 N={MAX_GRID_N + 2}\n")
        with pytest.raises(ConfigError, match=f"at most {MAX_GRID_N}"):
            read_snapshot(snap)

    @pytest.mark.parametrize("overrides", [
        {"dt": 0.03},
        {"dt": 1e-300, "t_end": 1e300},
        {"output_dir": 5},
        {"initial": {"kind": ["circle"]}},
    ], ids=["t_end_not_multiple_of_dt", "step_count_overflows", "output_dir_number", "kind_list"])
    def test_config_value_errors_exit_2(self, tmp_path, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(**{"output_dir": str(tmp_path / "out"), **overrides}))
        assert main(["simulate", str(cfg_path)]) == 2

    def test_unwritable_output_dir_exit_1(self, tmp_path):
        snap = tmp_path / "snap.csv"
        write_snapshot(snap, make_circle(64))
        cfg_path = tmp_path / "cfg.json"  # output_dir names an existing file
        cfg_path.write_text(config_text(
            output_dir=str(snap),
            field_grid={"xmin": -0.5, "xmax": 0.5, "ymin": -0.5, "ymax": 0.5, "nx": 2, "ny": 2},
        ))
        assert main(["simulate", str(cfg_path)]) == 1
        assert main(["field", str(cfg_path), str(snap)]) == 1


# A config with one fault on each error path of parse_config, and the exact
# line main prints for it: every JSON type, missing key, unknown key, range,
# initial kind and field_grid rule. A document is the valid base below with
# the given dotted keys set (or, for _DROP, deleted); a string is the text.
_DROP = object()
_BASE = {"grid_n": 64, "t_end": 0.1, "output_dir": "out", "initial": {"kind": "circle"},
         "field_grid": {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2}}
_MODES = {"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": 0.01}]}


def _faulty(changes):
    doc = json.loads(json.dumps(_BASE))
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        container = doc
        for k in parents:
            container = container.setdefault(k, {})
        if value is _DROP:
            del container[key]
        else:
            container[key] = value
    return json.dumps(doc)


_CONFIG_MESSAGES = [
    # the document
    ("not_json", "{not json",
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("nan_token", '{"t_end": NaN}', "invalid JSON: non-finite number NaN is not allowed"),
    ("top_list", "[]", "top level: expected an object"),
    ("top_unknown", {"gridn": 64, "zeta": 1}, "top level: unknown key(s) ['gridn', 'zeta']"),
    # grid_n
    ("grid_n_missing", {"grid_n": _DROP}, "top level.grid_n: required field missing"),
    ("grid_n_float", {"grid_n": 64.0}, "grid_n: expected an integer, got 64.0"),
    ("grid_n_bool", {"grid_n": True}, "grid_n: expected an integer, got True"),
    ("grid_n_odd", {"grid_n": 63}, "grid_n: must be even and >= 8, got 63"),
    ("grid_n_small", {"grid_n": 6}, "grid_n: must be even and >= 8, got 6"),
    ("grid_n_large", {"grid_n": 8194}, "grid_n: at most 8192, got 8194"),
    # the stepper's JSON types
    ("t_end_missing", {"t_end": _DROP}, "top level.t_end: required field missing"),
    ("t_end_string", {"t_end": "1"}, "t_end: expected a number, got '1'"),
    ("t_end_overflow", '{"grid_n": 64, "t_end": 1e400}', "t_end: expected a finite number"),
    ("scheme_number", {"scheme": 3}, "scheme: expected a string, got 3"),
    ("dt_null", {"dt": None}, "dt: expected a number, got None"),
    ("dealias_list", {"dealias": [True]}, "dealias: expected an object"),
    ("dealias_unknown", {"dealias.cutoff": 0.5}, "dealias: unknown key(s) ['cutoff']"),
    ("dealias_enabled", {"dealias.enabled": "yes"}, "dealias.enabled: expected bool or 'auto', got 'yes'"),
    ("dealias_enabled_null", {"dealias.enabled": None}, "dealias.enabled: expected bool or 'auto', got None"),
    ("cutoff_string", {"dealias.cutoff_fraction": "0.5"},
     "dealias.cutoff_fraction: expected a number, got '0.5'"),
    ("floor_bool", {"dealias.krasny_floor": False}, "dealias.krasny_floor: expected a number, got False"),
    ("lambda_abort_list", {"lambda_abort": [0.1]}, "lambda_abort: expected a number, got [0.1]"),
    ("snapshot_every_float", {"snapshot_every": 1.5}, "snapshot_every: expected an integer, got 1.5"),
    # the stepper's ranges, which StepperConfig states
    ("scheme_unknown", {"scheme": "euler"}, "scheme must be one of rk4, exp_euler, got 'euler'"),
    ("dt_zero", {"dt": 0}, "dt must be positive, got 0.0"),
    ("t_end_negative", {"t_end": -0.1}, "t_end must be positive, got -0.1"),
    ("dt_above_t_end", {"dt": 0.2}, "dt = 0.2 exceeds t_end = 0.1"),
    ("t_end_not_multiple", {"dt": 0.03}, "t_end = 0.1 is not an integer multiple of dt = 0.03"),
    ("cutoff_zero", {"dealias.cutoff_fraction": 0}, "dealias_cutoff must be in (0, 1], got 0.0"),
    ("cutoff_above_one", {"dealias.cutoff_fraction": 1.5}, "dealias_cutoff must be in (0, 1], got 1.5"),
    ("floor_negative", {"dealias.krasny_floor": -1}, "krasny_floor must be >= 0, got -1.0"),
    ("lambda_abort_zero", {"lambda_abort": 0}, "lambda_abort must be positive, got 0.0"),
    ("snapshot_every_zero", {"snapshot_every": 0}, "snapshot_every must be >= 1, got 0"),
    # initial
    ("initial_missing", {"initial": _DROP}, "top level.initial: required field missing"),
    ("initial_string", {"initial": "circle"}, "initial: expected an object"),
    ("kind_missing", {"initial.kind": _DROP}, "initial.kind: required field missing"),
    ("kind_list", {"initial.kind": ["circle"]}, "initial.kind: expected a string, got ['circle']"),
    ("kind_unknown", {"initial.kind": "square"}, "initial.kind: unknown kind 'square'"),
    ("circle_unknown", {"initial.beta": 0.3}, "initial: unknown key(s) ['beta']"),
    ("perturbed_unknown", {"initial": {"kind": "perturbed_circle", "theta": 0.1}},
     "initial: unknown key(s) ['theta']"),
    ("reparam_unknown", {"initial": {"kind": "reparam_circle", "center": [0, 0]}},
     "initial: unknown key(s) ['center']"),
    ("file_unknown", {"initial": {"kind": "file", "path": "snap.csv", "radius": 1}},
     "initial: unknown key(s) ['radius']"),
    ("radius_string", {"initial.radius": "1"}, "initial.radius: expected a number, got '1'"),
    ("radius_zero", {"initial.radius": 0}, "initial.radius: must be positive, got 0.0"),
    ("radius_negative", {"initial": {"kind": "reparam_circle", "radius": -2}},
     "initial.radius: must be positive, got -2.0"),
    ("theta_null", {"initial.theta": None}, "initial.theta: expected a number, got None"),
    ("center_short", {"initial.center": [1]}, "initial.center: expected [x, y], got [1]"),
    ("center_object", {"initial.center": {"x": 0}}, "initial.center: expected [x, y], got {'x': 0}"),
    ("center_string_cell", {"initial.center": [0, "1"]}, "initial.center: expected a number, got '1'"),
    ("modes_object", {"initial": {"kind": "perturbed_circle", "modes": {"k": 2}}}, "initial.modes: expected a list"),
    ("mode_number", {"initial": {"kind": "perturbed_circle", "modes": [{"k": 2}, 3]}},
     "initial.modes[1]: expected an object"),
    ("mode_unknown", {"initial": {"kind": "perturbed_circle", "modes": [{"k": 2, "amp": 0.1}]}},
     "initial.modes[0]: unknown key(s) ['amp']"),
    ("mode_k_missing", {"initial": {"kind": "perturbed_circle", "modes": [{"amp_x": 0.1}]}},
     "initial.modes[0].k: required field missing"),
    ("mode_k_float", {"initial": {"kind": "perturbed_circle", "modes": [{"k": 2.0}]}},
     "initial.modes[0].k: expected an integer, got 2.0"),
    # a mode at or past grid_n/2 would alias onto a lower one (k = 34 onto 30, 1000 onto 24 at grid_n 64)
    *[(f"mode_k_{name}", {"initial": {"kind": "perturbed_circle", "modes": [{"k": 2}, {"k": k, "amp_x": 0.01}]}},
       f"initial.modes[1].k: |k| must be < grid_n/2 = 32, got {k}")
      for name, k in (("nyquist", 32), ("minus_nyquist", -32), ("34", 34), ("1000", 1000))],
    ("mode_k_aliased_at_grid_n_8", {"grid_n": 8, "initial": {"kind": "perturbed_circle", "modes": [{"k": 4}]}},
     "initial.modes[0].k: |k| must be < grid_n/2 = 4, got 4"),
    *[(f"mode_{key}_string", {"initial": {"kind": "perturbed_circle", "modes": [{"k": 2}, {"k": 3, key: "0"}]}},
       f"initial.modes[1].{key}: expected a number, got '0'") for key in ("amp_x", "amp_y", "phase_x", "phase_y")],
    ("beta_string", {"initial": {"kind": "reparam_circle", "beta": "0.3"}},
     "initial.beta: expected a number, got '0.3'"),
    ("beta_one", {"initial": {"kind": "reparam_circle", "beta": 1}}, "initial.beta: |beta| must be < 1, got 1.0"),
    ("beta_below_minus_one", {"initial": {"kind": "reparam_circle", "beta": -1.5}},
     "initial.beta: |beta| must be < 1, got -1.5"),
    ("path_missing", {"initial": {"kind": "file"}}, "initial.path: required field missing"),
    ("path_number", {"initial": {"kind": "file", "path": 5}}, "initial.path: expected a string, got 5"),
    # field_grid
    ("field_grid_list", {"field_grid": [1, 2]}, "field_grid: expected an object"),
    ("field_grid_unknown", {"field_grid.nz": 2}, "field_grid: unknown key(s) ['nz']"),
    *[(f"field_grid_{key}_missing", {f"field_grid.{key}": _DROP}, f"field_grid.{key}: required field missing")
      for key in ("xmin", "xmax", "ymin", "ymax", "nx", "ny")],
    *[(f"field_grid_{key}_string", {f"field_grid.{key}": "1"}, f"field_grid.{key}: expected a number, got '1'")
      for key in ("xmin", "xmax", "ymin", "ymax")],
    *[(f"field_grid_{key}_float", {f"field_grid.{key}": 2.0}, f"field_grid.{key}: expected an integer, got 2.0")
      for key in ("nx", "ny")],
    ("field_grid_nx_zero", {"field_grid.nx": 0}, "field_grid: nx and ny must be >= 1"),
    ("field_grid_ny_negative", {"field_grid.ny": -3}, "field_grid: nx and ny must be >= 1"),
    ("field_grid_too_many", {"field_grid.nx": 1000, "field_grid.ny": 251},
     "field_grid: nx*ny at most 250000, got 251000"),
    ("field_grid_x_reversed", {"field_grid.xmax": -1}, "field_grid: max bounds must exceed min bounds"),
    ("field_grid_y_empty", {"field_grid.ymax": -1}, "field_grid: max bounds must exceed min bounds"),
    ("field_grid_x_span", {"field_grid.xmin": -1e308, "field_grid.xmax": 1e308},
     "field_grid: the spans xmax - xmin and ymax - ymin must be finite"),
    ("field_grid_y_span", {"field_grid.ymin": -1e308, "field_grid.ymax": 1e308},
     "field_grid: the spans xmax - xmin and ymax - ymin must be finite"),
    ("field_grid_far", {"field_grid.xmax": 2e75}, "field_grid: bounds at most 1e+75 in magnitude, got 2e+75"),
    # output_dir
    ("output_dir_number", {"output_dir": 5}, "output_dir: expected a string, got 5"),
]


@pytest.mark.parametrize("config, message", [case[1:] for case in _CONFIG_MESSAGES],
                         ids=[case[0] for case in _CONFIG_MESSAGES])
def test_config_error_message(tmp_path, monkeypatch, capsys, config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(config if isinstance(config, str) else _faulty(config))
    assert main(["simulate", "cfg.json"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid_n, k", [(64, 31), (64, -31), (64, 0), (8, 3)])
def test_modes_below_half_the_grid_are_read(grid_n, k):
    cfg = parse_config(_faulty({"grid_n": grid_n, "initial": {"kind": "perturbed_circle", "modes": [{"k": k}]}}))
    assert cfg.initial["modes"][0]["k"] == k


# values of every JSON type, small enough that a mutated run stays short
_FUZZ_VALUES = [None, True, "x", [], {}, [0, 1], -1, 0, 0.5, 3]


def _fuzz_paths(doc, prefix=()):
    """Every (container, key) path into a nested JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _fuzz_paths(value, prefix + (key,))


def _mutate_doc(rng, doc):
    doc = json.loads(json.dumps(doc))
    paths = list(_fuzz_paths(doc))
    *parents, key = paths[rng.integers(len(paths))]
    container = doc
    for k in parents:
        container = container[k]
    if rng.random() < 0.5:
        del container[key]
    else:
        container[key] = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
    return json.dumps(doc).encode()


def _mutate_bytes(rng, data):
    if rng.random() < 0.5:  # truncate, mid-line or at a line end
        cut = int(rng.integers(len(data)))
        return data[:data.rfind(b"\n", 0, cut) + 1] if rng.random() < 0.5 else data[:cut]
    data = bytearray(data)
    for pos in rng.integers(len(data), size=int(rng.integers(1, 4))):
        data[pos] = int(rng.integers(256))
    return bytes(data)


def test_fuzzed_inputs_never_raise(tmp_path, monkeypatch, capsys):
    """Seeded mutations of valid configs and snapshots (deleted keys, wrong
    JSON types, truncated lines, random bytes) through main: every case ends
    in a documented exit code, never an uncaught exception."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(20240531)
    snap = tmp_path / "snap.csv"
    write_snapshot(snap, make_perturbed_circle(16, 1.0, [PerturbationMode(2, 0.05, 0.02)]))
    valid_snapshot = snap.read_bytes()
    field_grid = {"xmin": -1.5, "xmax": 1.5, "ymin": -1.5, "ymax": 1.5, "nx": 3, "ny": 3}
    common = {"grid_n": 16, "dt": 0.05, "t_end": 0.1, "snapshot_every": 1, "output_dir": "out",
              "field_grid": field_grid}
    configs = [
        dict(common, initial={"kind": "circle", "radius": 1.0, "theta": 0.1, "center": [0.0, 0.5]}),
        dict(common, scheme="rk4", dealias={"enabled": True, "cutoff_fraction": 0.5, "krasny_floor": 0.0},
             initial={"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": 0.05, "phase_y": 0.3}]}),
        dict(common, lambda_abort=0.1, initial={"kind": "reparam_circle", "beta": 0.3}),
        dict(common, initial={"kind": "file", "path": "snap.csv"}),
    ]
    cases = []
    for i in range(160):
        doc = configs[i % len(configs)]
        text = _mutate_doc(rng, doc) if i % 3 else _mutate_bytes(rng, json.dumps(doc).encode())
        cases.append((text, valid_snapshot))
    for _ in range(80):
        cases.append((json.dumps(configs[3]).encode(), _mutate_bytes(rng, valid_snapshot)))
    seen = set()
    for i, (config, snapshot) in enumerate(cases):
        (tmp_path / "cfg.json").write_bytes(config)
        snap.write_bytes(snapshot)
        for argv in (["simulate", "cfg.json"], ["field", "cfg.json", "snap.csv"], ["fit", "snap.csv"]):
            try:
                code = main(argv)
            except Exception as exc:  # report the case that escaped
                raise AssertionError(f"case {i} {argv[0]}: {exc!r}\nconfig {config!r}\nsnapshot {snapshot[:80]!r}") from exc
            assert code in range(6), (i, argv, code)
            seen.add(code)
    capsys.readouterr()
    assert {0, 2} <= seen  # the mutations reach both the success and the config-error paths


@pytest.mark.parametrize("scheme", ["exp_euler", "rk4"])
def test_simulate_twice_byte_identical(tmp_path, scheme):
    """Identical config and build give byte-identical output files. At
    N = 128 this curve's velocity is resolved on 64 samples, so RK4's
    stages run the resolved pair sum below N."""
    outputs = []
    for name in ("a", "b"):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(config_text(
            grid_n=128,
            scheme=scheme,
            t_end=0.06,
            snapshot_every=2,
            output_dir=str(tmp_path / name),
            initial={"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": 0.02}, {"k": 3, "amp_y": 0.01}]},
        ))
        assert cmd_simulate(cfg_path) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert "snap_00000004.csv" in outputs[0] and "final.svg" in outputs[0]
    assert outputs[0] == outputs[1]


class TestVerifyRegistry:
    def test_quick_suite_passes(self, capsys):
        # the quick half of the verify gate; the full set runs in
        # test_acceptance and via `ibstring verify --full`
        from ibstring.acceptance import CRITERIA, run_criterion

        quick = [c for c in CRITERIA if c.quick and c.number in (1, 12)]
        for c in quick:
            result = run_criterion(c)
            assert result.passed, result.detail
