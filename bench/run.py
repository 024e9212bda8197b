"""Outside-in benchmark for spindles.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

It loads the package from ./src, builds the workload's inputs from the
seed, runs timed passes until --seconds have passed, checks every answer
and prints one line per metric, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics, with nothing wrapped. --trace 1
runs untraced and traced passes (half the time each) and gives the
per-layer metrics; spans are written to .bench_out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("catalog", "large_conj", "verify")
BLAS_THREADS = 1
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


class SetupError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that imports the package, builds the
    # inputs, prints "ready" and exits; the parent times it for setup_s.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def configure_process() -> str | None:
    """Fix BLAS threads and run with the library's default eps. Must run
    before numpy is imported; child processes inherit the environment.
    Returns the SPINDLE_EPS value that was unset, if any."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return os.environ.pop("SPINDLE_EPS", None)


def load_library():
    package = ROOT / "src" / "spindles"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no package source at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import spindles

    if Path(spindles.__file__).resolve().parent != package:
        raise SetupError(f"imported spindles from {spindles.__file__}, not from ./src")
    return spindles


def load_expected(workload: str) -> dict:
    path = BENCH / "expected.json"
    try:
        return json.loads(path.read_text())[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read the expected answers for {workload} from {path}: {exc}")


def environment(spindles) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "eps": spindles.default_eps(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def clear_library_caches() -> None:
    """Empty every functools cache bound in the package's modules, so that
    no pass can reuse results from an earlier one (a user's `spindles
    table` pays for every space once per process)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "spindles" or name.startswith("spindles.")):
            continue
        for value in list(vars(mod).values()):
            while value is not None:
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
                value = getattr(value, "__wrapped__", None)
    gc.collect()


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def run_passes(workload, expected, seconds, tracer=None) -> tuple:
    """Timed passes until `seconds` have passed (at least one). Returns the
    checked PassResults and, when traced, the segment records."""
    results, records = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        clear_library_caches()
        if tracer is None:
            run = workload.run_pass()
        else:
            segment = f"pass{len(results)}"
            run, record = tracer.run_segment(segment, lambda: workload.run_pass(tracer))
            records.append(record)
        results.append(workload.check(run, expected))
    return results, records


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(results: list, setup: list) -> dict:
    """Timings take each space's best latency over the run's passes: on a
    shared host, contention from other tenants only ever slows a pass, and
    over ten 30 s windows the median pass spread 0.28 of its median where
    the best latencies spread 0.11 (see bench/README.md)."""
    best = [min(samples) for samples in zip(*(r.item_s for r in results))]
    wall = sum(best)
    return {
        "wall_s": (wall, "s"),
        "space_ms_p50": (percentile(best, 50) * 1000.0, "ms"),
        "space_ms_p90": (percentile(best, 90) * 1000.0, "ms"),
        "checks_per_s": (statistics.median(r.checks for r in results) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def drive_cli(spindles, tracer) -> tuple:
    """`spindles table --cap 6 --json FILE` through cli.main, traced, as
    one item. Returns (PassResult, segment record)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-table-{os.getpid()}.json"
    argv = ["table", "--cap", "6", "--json", str(path)]
    result, record = workloads.PassResult(0.0, [], attempted=1), None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code, record = tracer.run_segment("cli", lambda: spindles.cli.main(argv))
        rows = json.loads(path.read_text())["rows"]
        bad = [f"{r['family']}{r['params']}" for r in rows if not r["checks_ok"]]
        if code != 0 or len(rows) != 127 or bad:
            result.errors.append(f"cli table: exit {code}, {len(rows)} rows, not ok: {bad}")
    except Exception:  # a failing CLI run is counted, not fatal
        result.errors.append("cli table raised " + traceback.format_exc().rstrip())
    finally:
        path.unlink(missing_ok=True)
    result.failed = len(result.errors)
    return result, record


def traced_run(spindles, workload, expected, args) -> tuple:
    import tracer as tracing

    plain, _ = run_passes(workload, expected, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, records = run_passes(workload, expected, args.seconds / 2, tracer)
        cli, cli_record = drive_cli(spindles, tracer) if args.workload == "catalog" else (None, None)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    metrics, unsteady = tracing.layer_metrics(records, cli_record, tracer.missing)
    overhead = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in plain
    ) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    notes = [f"passes {len(plain)} untraced, {len(traced)} traced"]
    if tracer.missing:
        notes.append(f"unmeasured (no such function): {', '.join(sorted(tracer.missing))}")
    if unsteady:
        notes.append(f"counts differ between traced passes: {', '.join(unsteady)}")
    return plain + traced + ([cli] if cli else []), metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    dropped_eps = configure_process()
    try:
        spindles = load_library()
        expected = None if args.probe else load_expected(args.workload)
        import workloads

        if args.probe:
            workloads.make(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        workload = workloads.make(args.workload, args.seed)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        results, metrics, notes = traced_run(spindles, workload, expected, args)
    else:
        results, _ = run_passes(workload, expected, args.seconds)
        metrics = end_to_end(results, setup)
        notes = [
            f"passes {len(results)}, spaces per pass {len(results[0].item_s)}, "
            f"setup probes {len(setup)}"
        ]

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    for err in errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)

    env = environment(spindles)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(" ".join(f"{k} {v}" for k, v in env.items()))
    if dropped_eps is not None:
        print(f"SPINDLE_EPS={dropped_eps} was unset for this run")
    for note in notes:
        print(note)
    print(f"attempted {attempted} failed {failed} fail_frac {failed / max(1, attempted):.6g}")
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
