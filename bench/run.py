"""Benchmark of the ibstring command line: three workloads, end-to-end metrics
untraced, per-layer metrics from a separate traced run.

Run from the root of an ibstring checkout:

    python3 bench/run.py --workload relax_n1024 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1 --out bench/BENCH_x.json

Each workload runs in a fresh worker process (bench/worker.py) that imports
the package from `src/`, writes the seeded inputs and then repeats one CLI op
for about --seconds. Set-up and the cold op are also timed in extra fresh
processes, and their medians are reported. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every metric
with its unit, and the environment. Scratch files go to `.bench_run/` in the
checkout and are removed afterwards. See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
COLD_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0
E2E_NOTES = {
    "setup_s": "median of {setups} set-ups (import ibstring, write inputs)",
    "first_op_s": "median of {cold} cold ops, each in a fresh process",
    "op_s_p50": "median of {warm} warm ops",
    "work_per_s": "{unit} per second, median over the warm ops",
    "peak_mb": "peak resident memory of the main worker process",
}


class BenchError(RuntimeError):
    pass


def _worker(root: Path, workdir: Path, argv: list[str]) -> tuple[float, str]:
    """Run a worker; return (seconds until it printed READY, rest of stdout)."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, IBSTRING_THREADS=str(len(os.sched_getaffinity(0))))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with code {rc}")
    return setup, rest


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[float]]:
    """Run one workload within about `seconds`; return the merged worker result
    and the set-up samples.

    Untraced, set-up-only and cold-only processes come first, so set-up and the
    cold op are medians over several fresh processes. Cold-only processes
    start only while they fit in the first third of the time, which leaves
    the main worker room for its warm ops. Every process must write the same
    output bytes.
    """
    base = root / ".bench_run" / f"{name}-{os.getpid()}"
    argv = ["--workload", name, "--seed", str(seed)]
    deadline = time.perf_counter() + seconds
    setups, probes = [], []
    try:
        cold_deadline = deadline - seconds * 2 / 3
        for i in range(0 if trace else COLD_SAMPLES - 1):
            start = time.perf_counter()
            if probes and start + probe_s > cold_deadline:
                break
            setup, out = _worker(root, base / f"cold{i}", [*argv, "--cold-only"])
            probe_s = time.perf_counter() - start
            setups.append(setup)
            probes.append(json.loads(out.strip().splitlines()[-1]))
        for i in range(0 if trace else SETUP_SAMPLES - 1 - len(setups)):
            setups.append(_worker(root, base / f"setup{i}", [*argv, "--setup-only"])[0])
        remaining = max(0.0, deadline - time.perf_counter())
        setup, out = _worker(root, base / "run", [*argv, "--seconds", str(remaining), "--trace", str(trace)])
        setups.append(setup)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass
    res = json.loads(out.strip().splitlines()[-1])
    for probe in probes:
        if probe["output_sha256"] != res["output_sha256"]:
            probe["ops"][0]["errors"].append("output differs from another fresh process's")
    res["ops"] = [op for probe in probes for op in probe["ops"]] + res["ops"]
    return res, setups


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    warm = [op for op in res["ops"] if op["kind"] == "warm"]
    return {
        "setup_s": statistics.median(setups),
        "first_op_s": statistics.median(op["seconds"] for op in res["ops"] if op["kind"] == "cold"),
        "op_s_p50": statistics.median(op["seconds"] for op in warm),
        "work_per_s": statistics.median(op["work"] / op["seconds"] for op in warm),
        "peak_mb": res["maxrss_kb"] / 1024.0,
    }


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit(root: Path) -> str:
    git = root / ".git"
    head = _read(git / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(git / ref).strip() or next(
            (line.split()[0] for line in _read(git / "packed-refs").splitlines() if line.endswith(" " + ref)), ""
        )
    return head or "unknown (not a git checkout)"


def environment(root: Path, seed: int, res: dict) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '') }"] = size
    return {
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)), "cpu_model": model,
        "caches": caches, "python": res["python"], "numpy": res["numpy"], "commit": _git_commit(root),
        "seed": seed, "IBSTRING_THREADS": res["ibstring_threads"],
        "ops": dict(Counter(op["kind"] for op in res["ops"])),
    }


def main() -> int:
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "ibstring" / "cli_io.py").is_file() or not spec_path.is_file():
        print("error: run from the root of an ibstring checkout (needs src/ibstring and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also append the results and environment to this JSON file")
    args = parser.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    results, records = {}, []
    for name in names if args.workload == "all" else [args.workload]:
        try:
            res, setups = run_workload(root, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        values = res["layers"] if args.trace else end_to_end(res, setups)
        if set(values) != set(units):
            print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
            return 1
        attempted, failed = len(res["ops"]), sum(bool(op["errors"]) for op in res["ops"])
        warm = sum(op["kind"] == "warm" for op in res["ops"])
        cold = sum(op["kind"] == "cold" for op in res["ops"])
        env = environment(root, args.seed, res)
        print(f"# {name} seed={args.seed} trace={args.trace}: {attempted} ops {env['ops']}, "
              f"failed {failed}/{attempted} (fail_ratio {failed / attempted:g})")
        for metric, value in values.items():
            note = E2E_NOTES.get(metric, "").format(setups=len(setups), cold=cold, warm=warm, unit=res["work_unit"])
            print(f"#   {metric:<48} {value:>14.6g} {units[metric]:<6} {note}")
        if args.trace:
            print(f"#   dynamics.step_interval.ms_tail is {res['step_interval_tail']}")
        print(f"# env {json.dumps(env)}")
        results[name] = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        }
        records.append({"workload": name, "trace": args.trace, "env": env, "result": results[name],
                        "ops": [{k: op[k] for k in ("kind", "seconds", "errors")} for op in res["ops"]]})
    if args.out:
        previous = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(previous + records, indent=1) + "\n")
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
