"""One workload run in a fresh process; started by run.py, not by hand.

Protocol on stdout: the line READY once the package is imported and the
inputs are written (the parent times set-up up to it), then, unless
--setup-only, one JSON line with the ops' results.

Ops run one after another through `ibstring.cli_io.main`, in this process,
so per-N caches are empty only for the first (cold) op. With --cold-only
that op is the only one. The program's own stdout is captured per op. With
--trace 1 the ops after the cold one alternate between traced and untraced,
for the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from workloads import OUTPUT_DIR, WORKLOADS, Field, normalized_stdout


def _collect_outputs(workdir: Path) -> dict[str, bytes]:
    out = workdir / OUTPUT_DIR
    files = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(workdir).as_posix()] = path.read_bytes()
        shutil.rmtree(out)
    return files


def _run_op(cli_io, argv: list[str]) -> tuple[float, int, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli_io.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cold-only", action="store_true")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import ibstring
    from ibstring import cli_io

    if Path(ibstring.__file__).resolve().parent != src / "ibstring":
        print(f"error: imported ibstring from {ibstring.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = Path.cwd()
    workload = WORKLOADS[args.workload]
    argv = workload.prepare(workdir, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import ibstring.acceptance  # noqa: F401  (cmd_verify imports it lazily; the tracer wraps it up front)
        from tracer import Tracer

        tracer = Tracer()
    cycle = [] if args.cold_only else ["traced", "warm"] if tracer else ["warm"]
    minimum = 1 + 2 * len(cycle)  # the cold op and two of each later kind, so no median has one sample

    reference = None
    ops = []
    output_bytes = 0
    start = time.perf_counter()
    for kind in itertools.chain(["cold"], itertools.cycle(cycle)):
        if len(ops) >= minimum:
            last = [op["seconds"] for op in ops if op["kind"] == kind][-1]
            if time.perf_counter() - start + last > args.seconds:
                break
        if kind == "traced":
            tracer.install()
        try:
            seconds, rc, stdout = _run_op(cli_io, argv)
        finally:
            if kind == "traced":
                tracer.uninstall()
                tracer.ops += 1
        files = _collect_outputs(workdir)
        errors = [] if rc == 0 else [f"exit code {rc}"]
        errors += workload.check(files, stdout, args.seed, workdir)
        outputs = (files, normalized_stdout(stdout))
        if reference is None:
            reference = outputs
        elif outputs != reference:
            errors.append(f"{kind} op output differs from the cold op's")
        if kind == "traced":
            output_bytes += sum(len(b) for b in files.values())
        ops.append({"kind": kind, "seconds": seconds, "work": workload.work_done(stdout), "errors": errors})
        for e in errors:
            print(f"op {len(ops)} ({kind}): {e}", file=sys.stderr)

    import numpy

    result = {
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "ibstring_threads": os.environ.get("IBSTRING_THREADS"),
        "work_unit": workload.work_unit,
        "output_sha256": _digest(reference),
    }
    if tracer:
        warm = [op["seconds"] for op in ops if op["kind"] == "warm"]
        traced = [op["seconds"] for op in ops if op["kind"] == "traced"]
        measured_here = {
            "trace.overhead_s": statistics.median(traced) - statistics.median(warm),
            "cli_io.output_bytes": output_bytes / tracer.ops,
            "stokeslet.near_share": workload.near_share(args.seed) if isinstance(workload, Field) else 0.0,
        }
        result["layers"] = {
            name: measured_here[name] if name in measured_here else tracer.metric(name)
            for name in _declared_per_layer(args.root)
        }
        result["step_interval_tail"] = tracer.step_interval_tail()[0]
    print(json.dumps(result), flush=True)
    return 0


def _digest(outputs: tuple[dict[str, bytes], str]) -> str:
    files, stdout = outputs
    h = hashlib.sha256(stdout.encode())
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def _declared_per_layer(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


if __name__ == "__main__":
    raise SystemExit(main())
