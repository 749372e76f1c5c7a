"""Run the polyak pipeline benchmark.

    python3 perfbench/run.py --workload table6 --seed 1 --seconds 12 --trace 0

runs one workload in this process with one worker and prints its metrics,
the last line being one JSON object: `{"correct", "attempted", "failed",
"metrics"}`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
installs spans around polyak's public functions and reports the per-layer
metrics.  Without `--workload`, every workload runs in a fresh process,
untraced and then traced, and a summary with tracing overhead is printed.

Run it from the repository root; it imports polyak from `src/` and
writes only under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import polyak; print(time.perf_counter() - t)"
)

sys.path.insert(0, str(BENCH))
from spans import OP, SETUP, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_polyak():
    """Import polyak from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "polyak" / "__init__.py").is_file():
        raise BenchError(f"no polyak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyak

    if Path(polyak.__file__).resolve().parent != SRC / "polyak":
        raise BenchError(f"polyak imported from {polyak.__file__}, not {SRC}")
    return polyak


def load_api(tracer: Tracer | None) -> SimpleNamespace:
    """The polyak functions the workloads call, traced when a tracer is given."""
    polyak = import_polyak()
    traced = {
        "build_table": "invariant.build_table",
        "save_table": "invariant.save_table",
        "load_table": "invariant.load_table",
        "build_presentation": "presentation.build_presentation",
        "classify": "classify.classify",
        "evaluate": "invariant.evaluate",
    }
    api = SimpleNamespace(
        report=polyak.report,
        apply_move=polyak.apply_move,
        neighbors=polyak.neighbors,
        canonicalize=polyak.canonicalize,
        **{name: getattr(polyak, name) for name in traced},
    )
    if tracer is not None:
        for name, span_name in traced.items():
            setattr(api, name, tracer.wrap(span_name, getattr(api, name)))
    return api


def probe_import() -> float:
    """Seconds `import polyak` takes in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure for `seconds`, check; return the run record."""
    tracer = Tracer() if trace else None
    api = load_api(tracer)
    if tracer is not None:
        tracer.install()
    failures: list[str] = []
    attempted = failed = 0
    times: list[float] = []

    try:
        import_times = [probe_import() for _ in range(SETUP_REPS)]
        setup_times = []
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for _ in range(SETUP_REPS):
                span = tracer.open(SETUP) if tracer else None
                t0 = perf_counter()
                workload.setup(api, seed, Path(tmp))
                setup_times.append(perf_counter() - t0)
                if span:
                    tracer.close(span)
            attempted += 1
            bad = workload.setup_failures(api)
            failed += bool(bad)
            failures += bad

            deadline = perf_counter() + seconds
            while True:
                attempted += 1
                span = tracer.open(OP) if tracer else None
                t0 = perf_counter()
                try:
                    try:
                        result = workload.op(api)
                    finally:
                        dt = perf_counter() - t0
                        if span:
                            tracer.close(span)
                    errors = workload.check(api, result)
                except Exception:  # a failed operation is counted, not fatal
                    errors = [traceback.format_exc(limit=3)]
                result = None  # free it before the next operation starts
                if errors:
                    failed += 1
                    failures += errors
                else:
                    times.append(dt)
                if perf_counter() >= deadline:
                    break
            extra, bad = workload.final_checks(api)
            attempted += extra
            failed += len(bad)
            failures += bad
    finally:
        if tracer is not None:
            tracer.uninstall()

    import numpy

    record = {
        "workload": workload.name,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "workers": 1,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "digests": workload.digests,
        "samples": {"op": len(times), "setup": SETUP_REPS, "import": SETUP_REPS},
        "op_times_s": times if len(times) <= 100 else None,
    }
    if failed or not times:
        record["metrics"] = {}
        return record
    op_p50 = statistics.median(times)
    if tracer is None:
        record["metrics"] = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "op_p50_s": op_p50,
            "op_p99_s": percentile(times, 99),
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        record["metrics"] = {**layer_metrics(tracer.spans), "bench.traced_op_p50_s": op_p50}
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    return record


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result(record: dict, spec: dict) -> dict:
    """The result line: the metrics BENCHMARK.json lists for this trace mode."""
    group = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    metrics = {name: {"value": record["metrics"][name], "unit": units[name]}
               for name in units if name in record["metrics"]}
    return {
        "correct": record["failed"] == 0 and bool(metrics),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_report(record: dict, spec: dict, op_label: str) -> None:
    traced = record["trace"]
    n_ops = record["samples"]["op"]
    print(f"# {record['workload']} seed={record['seed']} trace={traced} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']:.6g}")
    for failure in record["failures"]:
        print(f"# FAILED {failure.strip()}")
    if traced:
        print(f"# per-layer values are per operation (n={n_ops}), or per set-up "
              f"repetition (n={SETUP_REPS}) for layers that run only in set-up")
    samples = {"setup_s": SETUP_REPS, "peak_rss_mb": 1}
    for m in spec["per_layer" if traced else "end_to_end"]:
        value = record["metrics"].get(m["name"])
        if value is None:
            continue
        alias = f" ({op_label})" if m["name"] == "op_p50_s" else ""
        n = "" if traced else f" samples={samples.get(m['name'], n_ops)}"
        print(f"{m['name']}{alias} {value:.6g} {m['unit']}{n}")


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        lines = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            out = proc.stdout.strip().splitlines()
            lines[trace] = json.loads(out[-1]) if out and out[-1].startswith("{") else {"metrics": {}}
        plain = lines[0]["metrics"].get("op_p50_s", {}).get("value")
        traced = lines[1]["metrics"].get("bench.traced_op_p50_s", {}).get("value")
        if plain and traced:
            print(f"# {name} tracing overhead {100 * (traced / plain - 1):+.2f}% "
                  f"(traced op_p50_s {traced:.6g} s vs untraced {plain:.6g} s)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = benchmark_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.workload is None:
            return run_all(args.seed, seconds)
        workload = WORKLOADS[args.workload]()
        record = run_workload(workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, spec, workload.op_label)
    line = result(record, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
