#!/usr/bin/env python3
"""Benchmark of redclust's bench pipeline, one workload per call.

    python3 perfbench/run.py --workload {canonical,wide,tall} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and imports redclust
from ``src/``. One call

1. writes the workload's inputs under ``.perfbench_work/`` (seeded),
2. times one cold set-up (import, load_dataset, normalize) in a fresh process,
3. runs one untimed pass of ``run_full_benchmark`` that records the calls the
   correctness checks read (with --trace 1 this pass is also traced),
4. repeats timed, unwrapped passes until S seconds have gone by, at least two,
5. checks the outputs and prints one JSON line: ``correct``, ``attempted`` and
   ``failed`` grid cells, and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1).

See README.md for the workloads, the metrics and the reference figures.
"""

import os

# One BLAS thread, set before numpy loads: the box has two cores and the
# measured work is single-threaded Python around small matrix products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_program():
    """Import redclust from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "redclust" / "__init__.py").is_file():
        raise ImportError(f"no redclust sources under {src}")
    sys.path.insert(0, str(src))
    import redclust

    if Path(redclust.__file__).resolve().parent != (src / "redclust").resolve():
        raise ImportError(f"redclust was imported from {redclust.__file__}, not {src}")
    return redclust


def time_setup(pairs):
    """Seconds from starting a fresh interpreter to its datasets being loaded and normalized."""
    files = [str(p) for pair in pairs for p in pair]
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(ROOT / "src"), *files]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def cell_counts(reports):
    """(cells run, cells that carry an error) over both normalization variants."""
    cells = [c for report in reports.values() for c in report.cells.values()]
    for c in cells:
        if c.failed:
            print(f"perfbench: cell ({c.dataset}, {c.reducer}) failed: {c.error}", file=sys.stderr)
    return len(cells), sum(c.failed for c in cells)


def main(argv=None):
    args = parse_args(argv)
    try:
        redclust = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pairs, reducers = workloads.prepare(args.workload, args.seed, ROOT, work)
    options = {} if reducers is None else {"reducers": reducers}
    config = redclust.BenchmarkConfig(datasets=pairs, seed=workloads.PROGRAM_SEED, **options)
    out = work / "out"

    def timed(cfg, out_dir):
        start = time.perf_counter()
        reports = redclust.run_full_benchmark(cfg, out_dir)
        return reports, time.perf_counter() - start

    def run_pass(call=timed):
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        return call(config, out)

    setup_s = time_setup(pairs)

    capture = layers.Capture()
    tracer = layers.Tracer() if args.trace else None
    with capture.active():
        if tracer is None:
            reports, first_s = run_pass()
        else:
            reports, first_s = run_pass(functools.partial(tracer.run, redclust.run_full_benchmark))
    digests = [checks.output_digest(out)]
    attempted, failed = cell_counts(reports)

    times = []
    started = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        reports, seconds = run_pass()
        times.append(seconds)
        digests.append(checks.output_digest(out))
        cells, bad = cell_counts(reports)
        attempted += cells
        failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        checked = checks.check_pass(capture.calls)
        if len(set(digests)) != 1:
            raise checks.CheckFailure("non-timing outputs differ between repetitions")
    except checks.CheckFailure as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, checked = False, 0

    wall_s = statistics.median(times)
    print(
        f"perfbench: {args.workload} seed {args.seed}: first pass {first_s:.3f} s, "
        f"timed passes {[round(t, 3) for t in times]}, set-up {setup_s:.3f} s, "
        f"{checked} calls checked",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(work / "trace.jsonl")
        metrics = tracer.metrics()
        metrics["trace.pass_s"] = (first_s, "s")
        metrics["trace.overhead_s"] = (first_s - wall_s, "s")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
