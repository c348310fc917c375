"""Benchmark of diffcf: prepare -> train -> full-ranking evaluation.

    python3 perfbench/run.py --workload ml1m_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. The workload's inputs are generated from `--seed`, the timed loop
runs for about `--seconds`, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones in BENCHMARK.json; with
`--trace 1` timing wrappers are swapped onto the package's functions and
the metrics are the per-layer ones. The line before it is a JSON record
of the environment, the workload, loop counts and exactness digests.
Records and traced spans are written to perfbench/out/.

`--workload all` runs every workload in its own process, so each peak RSS
belongs to one workload. With `--trace 1` it runs each workload untraced
and then traced, and prints the tracing overhead of every end-to-end
metric.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Keep BLAS at or below the CPUs this process may use. Must run before
    numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= cpus:
            os.environ[var] = str(cpus)
    return cpus


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment(cpus: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "cpu": cpu,
        "nproc": cpus,
        "platform": platform.platform(),
    }


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_one(args, cpus: int) -> int:
    import pipeline
    from spans import Tracer

    spec = declared()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = pipeline.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-s{args.seconds:g}"
    work = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        outcome = pipeline.run(wl, args.seed, args.seconds, work, STARTED)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(outcome.metrics)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    record = {"workload": {"name": wl.name, "seed": args.seed, "seconds": args.seconds,
                           "trace": args.trace, "why": why,
                           "shape": vars(wl.shape), "config_overrides": wl.overrides,
                           "steps_per_round": wl.steps_per_round,
                           "eval_users": wl.eval_users, "checkpoint": wl.checkpoint},
              "environment": environment(cpus),
              "end_to_end": {m["name"]: metrics[m["name"]][0] for m in spec["end_to_end"]},
              **outcome.record}
    checks = outcome.checks
    if tracer:
        metrics.update(tracer.layer_metrics())
        under_eval = tracer.calls_under("ndtensor.backward", "eval.evaluate")
        checks.record("forward-only evaluation", under_eval == 0,
                      f"{under_eval} backward passes inside eval.evaluate")
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    shown = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in wanted}
    print(f"# {wl.name}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    tail = record["loop"]["train_step_tail"]
    print(f"  train_step_tail_s is p{tail['percentile']:.1f} of {tail['samples']} steps; "
          f"{checks.attempted} operations, {checks.failed} failed")
    for line in checks.failures:
        print(f"  FAILED {line}")
    print(json.dumps(record, separators=(",", ":")))
    print(result_line(checks.failed == 0, checks.attempted, checks.failed, shown))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in a child process; traced runs follow untraced ones."""
    passes = (0, 1) if args.trace else (0,)
    attempted = failed = 0
    merged, overhead, untraced = {}, {}, {}
    for name in workloads:
        for trace in passes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-2] if len(lines) >= 2 else lines))
            if proc.returncode != 0 or len(lines) < 2:
                print(f"perfbench: {name} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            attempted += result["attempted"]
            failed += result["failed"]
            merged.update({f"{name}.{k}": (v["value"], v["unit"])
                           for k, v in result["metrics"].items()})
            if trace:
                overhead[name] = {k: v / untraced[k] - 1.0
                                  for k, v in record["end_to_end"].items() if untraced.get(k)}
            else:
                untraced = record["end_to_end"]
    for name, table in overhead.items():
        print(f"# tracing overhead on {name} (traced / untraced - 1)")
        for metric, share in table.items():
            print(f"  {metric:40s} {share:+.3f}")
    print(result_line(failed == 0, attempted, failed, merged))
    return 0


def main(argv=None) -> int:
    cpus = cap_blas_threads()
    if not (ROOT / "src" / "diffcf").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'diffcf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from pipeline import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args, WORKLOADS) if args.workload == "all" else run_one(args, cpus)


if __name__ == "__main__":
    sys.exit(main())
