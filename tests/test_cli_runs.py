"""Command-line runs end to end, as a user makes them: the quick acceptance
gate, simulate and field at N = 64 and N = 1024, and a restart from a
snapshot file. Each thread-count check runs the command in one child process
per OpenBLAS thread count (conftest.run_with_blas_threads), and the two
write the same bytes."""

import json
import re

import pytest

from ibstring.cli_io import main

from conftest import run_with_blas_threads

THREADS = (1, 2)

CONFIG_64 = {
    "grid_n": 64, "dt": 0.01, "t_end": 0.05, "snapshot_every": 5, "output_dir": "out",
    "initial": {"kind": "perturbed_circle", "modes": [{"k": 2, "amp_x": 0.02}]},
    "field_grid": {"xmin": -1.5, "xmax": 1.5, "ymin": -1.5, "ymax": 1.5, "nx": 20, "ny": 20},
}
# five modes, so that the N = 1024 run takes the pruned lambda pass, the N_c
# walk and, under rk4, the resolved stages
CONFIG_1024 = {
    "grid_n": 1024, "dt": 0.01, "t_end": 0.04,
    "initial": {"kind": "perturbed_circle", "modes": [
        {"k": 2, "amp_x": 0.012, "amp_y": -0.006, "phase_y": 0.7},
        {"k": 3, "amp_x": -0.005, "amp_y": 0.008, "phase_x": 1.9},
        {"k": 4, "amp_x": 0.004, "amp_y": 0.003, "phase_y": 4.1},
        {"k": 5, "amp_x": -0.003, "amp_y": -0.004, "phase_x": 2.6},
        {"k": 6, "amp_x": 0.002, "amp_y": 0.002, "phase_x": 5.3, "phase_y": 0.2}]},
}


def command(threads, cwd, *args):
    return run_with_blas_threads(threads, ["-m", "ibstring.cli_io", *args], cwd=cwd)


def run_files(directory):
    """The diagnostics and snapshot bytes of a simulate run, by file name."""
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def field_rows(cwd, config, snapshot, out):
    """The distinct field.csv files that the field command writes to out at
    each thread count."""
    rows = set()
    for threads in THREADS:
        command(threads, cwd, "field", config, snapshot)
        rows.add((cwd / out / "field.csv").read_bytes())
        (cwd / out / "field.csv").unlink()  # each count writes its own
    return rows


def test_verify_report_is_independent_of_the_thread_count(tmp_path):
    # the quick gate exits 0 at both counts, and the reports differ only in their times
    reports = {re.sub(rb" \[[0-9.]+s\]$", b"", command(threads, tmp_path, "verify").stdout, flags=re.M)
               for threads in THREADS}
    assert len(reports) == 1


def test_simulate_and_field_at_n64(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG_64))
    runs = []
    for threads in THREADS:
        command(threads, tmp_path, "simulate", "config.json")
        runs.append(run_files(tmp_path / "out"))
        (tmp_path / "out").rename(tmp_path / f"sim_{threads}")  # each count writes its own
    assert "snap_00000005.csv" in runs[0] and runs[0] == runs[1]
    rows = field_rows(tmp_path, "config.json", "sim_2/snap_00000005.csv", "out")
    assert len(rows) == 1 and rows.pop().count(b"\n") == 1 + 20 * 20


@pytest.fixture(scope="module")
def runs_1024(tmp_path_factory):
    """The N = 1024 run's files under each scheme and thread count, and the
    directory of the last exp_euler run."""
    tmp = tmp_path_factory.mktemp("n1024")
    files = {}
    for scheme in ("exp_euler", "rk4"):
        for threads in THREADS:
            out = f"{scheme}_{threads}"
            (tmp / f"{out}.json").write_text(json.dumps(dict(CONFIG_1024, scheme=scheme, output_dir=out)))
            command(threads, tmp, "simulate", f"{out}.json")
            files[scheme, threads] = run_files(tmp / out)
    return files, tmp / f"exp_euler_{THREADS[-1]}"


@pytest.mark.parametrize("scheme", ["exp_euler", "rk4"])
def test_simulate_at_n1024(runs_1024, scheme):
    files = runs_1024[0]
    one, two = files[scheme, 1], files[scheme, 2]
    assert one["diagnostics.csv"].count(b"\n") == 1 + 5  # t = 0 .. 0.04
    if scheme == "exp_euler":
        assert one["diagnostics.csv"] == two["diagnostics.csv"]
    else:
        assert one == two


def test_field_at_n1024(runs_1024, tmp_path):
    # every lattice point, near or far, takes the one Cauchy evaluator
    config = {"grid_n": 1024, "t_end": 1.0, "output_dir": "field1024", "initial": {"kind": "circle"},
              "field_grid": {"xmin": -1.6, "xmax": 1.6, "ymin": -1.6, "ymax": 1.6, "nx": 40, "ny": 40}}
    (tmp_path / "field_1024.json").write_text(json.dumps(config))
    rows = field_rows(tmp_path, "field_1024.json", str(runs_1024[1] / "snap_00000004.csv"), "field1024")
    assert len(rows) == 1 and rows.pop().count(b"\n") == 1 + 40 * 40


def test_restart_from_a_snapshot_file_is_bitwise(tmp_path, monkeypatch, capsys):
    # step 175 of the whole run, and step 1 of a run started from the file of step 174
    monkeypatch.chdir(tmp_path)
    whole = {"grid_n": 64, "dt": 0.01, "t_end": 1.75, "snapshot_every": 87, "dealias": {"enabled": True},
             "output_dir": "whole", "initial": {"kind": "reparam_circle", "beta": 0.3}}
    tail = dict(whole, t_end=0.01, output_dir="tail", initial={"kind": "file", "path": "whole/snap_00000174.csv"})
    for name, config in (("whole", whole), ("tail", tail)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        assert main(["simulate", f"{name}.json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "whole" / "snap_00000175.csv").read_bytes() == (tmp_path / "tail" / "snap_00000001.csv").read_bytes()
