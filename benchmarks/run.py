"""facevox benchmark: closed-loop batch workloads with end-to-end metrics and
an optional traced run for per-module layer metrics.

    python3 benchmarks/run.py --workload train_desk --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the repository root; the package is imported from `src/`. Each run
sets up its inputs from the seed several times (the median is `setup_s`),
measures for `--seconds`, checks the outputs, and prints the environment,
the metrics and the checks. The last line is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A traced run splits
`--seconds` into untraced and traced quarters, so it also reports the
tracing overhead. `--workload all` runs each workload of BENCHMARK.json in
its own fresh process. Run records, span files and scratch data go to
`.bench_run/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# BENCHMARK.json lists the gated ones; synth_desk and train_paper run by name
WORKLOAD_NAMES = ("synth_desk", "train_desk", "train_paper", "infer_desk")
SETUP_REPEATS = 3


def _import_package():
    package = SRC / "facevox" / "__init__.py"
    if not package.is_file():
        sys.exit(f"benchmark: {package} not found; run from a facevox checkout")
    sys.path.insert(0, str(SRC))
    import facevox
    if Path(facevox.__file__).resolve() != package.resolve():
        sys.exit(f"benchmark: imported facevox from {facevox.__file__}, not {package}")


def _git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(configs):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # a checkout without .git must not report the sha of a repository above it
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "configs": configs,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q):
    """Percentile q (0-100), or None unless at least 10 samples lie beyond it."""
    if len(values) * (100 - q) / 100.0 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(tracer, traced, per_layer, setup_repeats):
    """Per-layer metric values, named as in BENCHMARK.json. `ms`, `self_ms`,
    `calls` and counters are per item of the traced loop; `setup.*` are per
    setup; gauges are means of their observations."""
    timed = tracer.table("timed")
    setup = tracer.table("setup")
    items = max(traced.items, 1)
    values = {}
    for spec in per_layer:
        name = spec["name"]
        if name.startswith("trace."):
            continue
        if name.startswith("setup."):
            table, scale, key = setup, setup_repeats, name[len("setup."):]
        else:
            table, scale, key = timed, items, name
        base, _, stat = key.rpartition(".")
        if stat in ("ms", "self_ms", "calls"):
            values[name] = table.get(base, {}).get(stat, 0) / scale
        elif ("timed", key) in tracer.gauges:
            values[name] = statistics.fmean(tracer.gauges[("timed", key)])
        else:
            values[name] = tracer.counters.get(("timed", key), 0) / items
    return values


def run_one(args, spec):
    _import_package()
    import spans
    import workloads

    work = RUN_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    tracer = spans.Tracer() if args.trace else None
    try:
        env = environment(wl.configs())
        print("env " + json.dumps(env, sort_keys=True), flush=True)

        if tracer:
            tracer.install()
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(repeat)
            setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()

        wl.warm_up()
        if tracer:
            # untraced, traced, traced, untraced quarters of --seconds: the
            # order cancels a linear drift over the run (desk iterations get
            # slower as training goes on), which would pass for overhead
            measure, traced = workloads.Measure(), workloads.Measure()
            tracer.phase = "timed"
            for traced_quarter in (False, True, True, False):
                if traced_quarter:
                    tracer.install()
                    traced.merge(wl.run(args.seconds / 4))
                    tracer.uninstall()
                else:
                    measure.merge(wl.run(args.seconds / 4))
        else:
            measure, traced = wl.run(args.seconds), None
        try:
            checks = wl.verify(tracer)
        except Exception as exc:  # missing or unreadable outputs fail the run
            traceback.print_exc()
            checks = [workloads.Check("outputs_readable", False, repr(exc))]
    finally:
        if tracer:
            tracer.uninstall()

    peak = _peak_rss_mb()
    runs = [measure] + ([traced] if traced else [])
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    items_per_s = measure.items / measure.wall_s
    report = {
        "items_per_s": (items_per_s, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak, "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
        "item_ms_p50": (_percentile(measure.item_ms, 50), "ms"),
        "item_ms_p90": (_percentile(measure.item_ms, 90), "ms"),
    }
    for name, (value, unit) in report.items():
        shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:.6g} {unit}"
        print(f"metric {args.workload}.{name} = {shown}  (items={measure.items}, "
              f"wall={measure.wall_s:.3f} s, setups={len(setup_s)})")

    if tracer:
        traced_ips = traced.items / traced.wall_s
        overhead = {
            "trace.items_per_s_untraced": items_per_s,
            "trace.items_per_s_traced": traced_ips,
            "trace.overhead_pct": (items_per_s / traced_ips - 1.0) * 100.0 if traced_ips else 0.0,
        }
        layers = _layer_metrics(tracer, traced, spec["per_layer"], len(setup_s))
        layers.update(overhead)
        for name, value in overhead.items():
            print(f"metric {args.workload}.{name} = {value:.6g}")
    for c in checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'}  {c.detail}")
    correct = failed == 0 and all(c.ok for c in checks)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    stem = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s": setup_s,
        "item_ms": measure.item_ms, "report": {k: v[0] for k, v in report.items()},
        "checks": [vars(c) for c in checks], "outputs": wl.extras(), "metrics": metrics,
    }
    if tracer:
        record["layers_timed"] = tracer.table("timed")
        record["layers_setup"] = tracer.table("setup")
        record["counters"] = {f"{p}:{n}": v for (p, n), v in tracer.counters.items()}
        tracer.write(f"{stem}.spans.tsv")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, spec):
    """Each workload of BENCHMARK.json in its own fresh process, one after
    another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
