"""Benchmark of the foliations CLI: one workload per run, checked outputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {jets,resolve,dynamics} --seed N \
        --seconds S --trace {0,1}

Each item calls ``foliations.cli.main(argv)`` in this process on a seeded
``.field`` file and captures stdout; one process, one thread, items run one
after another (closed loop).  With ``--trace 0`` items run untraced for
``S`` seconds and the end-to-end metrics are printed; their times are
normalised by the reference kernel of ``speed.py``, timed before each item,
so that the machine's own drift in speed cancels out.  With
``--trace 1`` a fixed number of items (``trace_rate * S``) runs under the
outside-in tracer of ``tracer.py`` and the per-layer metrics are printed,
together with the tracing overhead measured by replaying the first quarter
of those items untraced.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_KERNEL_RUNS = 15    # kernel timings that normalise a set-up
WARMUP_ITEMS = 5          # items run untimed first, so lazy set-up is not timed
TRACE_TIME_CAP = 3.0      # a traced run stops after this many times --seconds
IMPORT_PROBE = ("import time; t = time.perf_counter(); import foliations.cli; "
                "t = time.perf_counter() - t; import speed; "
                f"print(t * speed.KERNEL_NOMINAL_S / speed.kernel_median({SETUP_KERNEL_RUNS}))")


def time_import() -> float:
    """Normalised seconds to import ``foliations.cli`` in a fresh interpreter;
    the kernel is timed in that interpreter, after the import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def write_inputs(items, work: Path):
    """Write each item's field file under ``work`` and put its path in argv."""
    work.mkdir(parents=True, exist_ok=True)
    for item in items:
        path = work / (item.name.split("/", 1)[1] + ".field")
        path.write_text(item.text, encoding="utf-8")
        item.argv = [str(path) if a == "FILE" else a for a in item.argv]
    return items


def run_item(cli, item):
    """Run one item; returns (seconds, exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item.argv)
    except SystemExit as exc:               # argparse usage errors
        error = f"SystemExit({exc.code})"
    except Exception as exc:                # any raise fails the item
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), error


def check_item(workload, item, code, out, err, error):
    """(failure reason or None, facts) for one completed item."""
    if error is not None:
        return f"raised {error}", {}
    if err.strip():
        return f"stderr: {err.strip().splitlines()[-1]}", {}
    try:
        return None, workload.check(item, code, out, err)
    except CheckFailed as exc:
        return str(exc), {}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})", {}


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment() -> str:
    import numpy
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, CPU pinning: not available "
            "(shared machine; the benchmark may not set affinity)")


def set_up(workload, seed: int, work: Path, repeats: int, timed: bool):
    """Write the inputs ``repeats`` times; (items, normalised set-up seconds).

    A timed set-up is the import of ``foliations.cli`` in a fresh interpreter
    plus generating and writing the inputs, the latter normalised by the
    kernel timed just after it."""
    setup = []
    for _ in range(repeats):
        import_s = time_import() if timed else 0.0
        start = time.perf_counter()
        items = write_inputs(workload.generate(seed, workload.pool), work)
        elapsed = time.perf_counter() - start
        if timed:
            kernel_s = speed.kernel_median(SETUP_KERNEL_RUNS)
            setup.append(import_s + elapsed * speed.KERNEL_NOMINAL_S / kernel_s)
    return items, setup


def measure(workload, cli, items, seconds: float):
    """Untraced closed loop for ``seconds``: the kernel, then one item.

    Returns (item seconds, kernel seconds before each item, failures)."""
    latencies, kernel_s, failures = [], [], []
    for item in items[:WARMUP_ITEMS]:
        run_item(cli, item)
    start = time.perf_counter()
    k = 0
    while not latencies or time.perf_counter() - start < seconds:
        item = items[k % len(items)]
        kernel_s.append(speed.time_kernel())
        elapsed, code, out, err, error = run_item(cli, item)
        latencies.append(elapsed)
        reason, _facts = check_item(workload, item, code, out, err, error)
        if reason is not None:
            failures.append((item.name, reason))
        k += 1
    return latencies, kernel_s, failures


def end_to_end(workload, cli, items, seconds: float, setup: list[float]):
    raw, kernel_s, failures = measure(workload, cli, items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(raw)
    pct = workload.tail_pct

    def summary(latencies):
        ordered = sorted(latencies)
        return (n / sum(latencies), statistics.median(ordered) * 1000.0,
                percentile(ordered, pct) * 1000.0)

    per_s, p50_ms, tail_ms = summary(speed.normalise(raw, kernel_s))
    raw_per_s, raw_p50_ms, raw_tail_ms = summary(raw)
    beyond = sum(1 for v in raw if v * 1000.0 > raw_tail_ms)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "items_per_s": metric(per_s, "1/s"),
        "item_p50_ms": metric(p50_ms, "ms"),
        "item_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    failed_frac = len(failures) / n
    lines = [f"{name:<14}{m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines[0] += f"   (median of {len(setup)} set-ups: import + write {len(items)} inputs)"
    lines[1] += f"   ({n} items; raw {raw_per_s:.6g} 1/s in {sum(raw):.3f} s of item time)"
    lines[2] += f"   (raw {raw_p50_ms:.6g} ms)"
    lines[3] += (f"   (p{pct:g} of {n} items, {beyond} beyond"
                 + ("; fewer than 10 beyond" if beyond < 10 else "")
                 + f"; raw {raw_tail_ms:.6g} ms)")
    lines.append(f"{'kernel_ms':<14}{statistics.median(kernel_s) * 1000.0:>14.6g} ms   "
                 f"(median raw time of the reference kernel, {len(kernel_s)} runs; "
                 "times above are normalised to 1 ms per kernel run)")
    lines.append(f"{'failed_frac':<14}{failed_frac:>14.6g} frac   "
                 f"({len(failures)} of {n} items)")
    return metrics, n, failures, lines


def traced(workload, cli, items, seconds: float):
    from tracer import Tracer

    n_items = min(len(items), max(4, round(workload.trace_rate * seconds)))
    tracer = Tracer()
    latencies, failures, digests = [], [], []
    blowups = 0
    wall = 0.0
    tracer.install()
    try:
        for item in items[:n_items]:
            elapsed, code, out, err, error = run_item(cli, item)
            latencies.append(elapsed)
            wall += elapsed
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            reason, facts = check_item(workload, item, code, out, err, error)
            if reason is not None:
                failures.append((item.name, reason))
            blowups += facts.get("blowups", 0)
            if wall > TRACE_TIME_CAP * seconds:
                break
    finally:
        tracer.uninstall()
    n = len(latencies)

    # overhead: the first quarter of the items again, untraced
    replay = max(1, n // 4)
    untraced = 0.0
    for k in range(replay):
        elapsed, code, out, err, error = run_item(cli, items[k])
        untraced += elapsed
        if hashlib.sha256(out.encode()).hexdigest() != digests[k]:
            failures.append((items[k].name, "traced and untraced stdout differ"))
    traced_part = sum(latencies[:replay])
    gr_op_s = tracer.replay_gr_ops()

    spans, counts = tracer.spans, tracer.counts
    metrics = {}
    for module, (calls, self_s) in tracer.module_totals().items():
        metrics[f"{module}.calls"] = metric(calls, "count")
        metrics[f"{module}.self_s"] = metric(self_s, "s")
        metrics[f"{module}.share"] = metric(self_s / wall, "frac")
    evals = spans["algebra.Poly.eval_complex"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics.update({
        "algebra.gr_ops": metric(tracer.gr_ops[0], "count"),
        "algebra.gr_op_ns": metric(gr_op_s * 1e9, "ns"),
        "algebra.poly_mul.self_s": metric(spans["algebra.Poly.__mul__"][1], "s"),
        "algebra.laurent_substitute.self_s":
            metric(spans["algebra.Poly.laurent_substitute"][1], "s"),
        "algebra.eval_calls": metric(evals[0], "count"),
        "algebra.eval_ns": metric(ratio(evals[2], evals[0]) * 1e9, "ns"),
        "integrals.formal_first_integral.self_s":
            metric(spans["integrals.formal_first_integral"][1], "s"),
        "intervals.gaussian_rational_roots.self_s":
            metric(spans["intervals.gaussian_rational_roots"][1], "s"),
        "intervals.certified_roots.calls": metric(spans["intervals.certified_roots"][0], "count"),
        "classify.exact_frac": metric(ratio(counts["classified_exact"],
                                            counts["classified_with_eigen"]), "frac"),
        "blowup.weighted_blowup.calls": metric(spans["blowup.weighted_blowup"][0], "count"),
        "blowup.weighted_blowup.self_s": metric(spans["blowup.weighted_blowup"][1], "s"),
        "resolve.blowups": metric(blowups, "count"),
        "resolve.probe_germs": metric(counts["probe_germs"], "count"),
        "resolve.probe_hit_frac": metric(ratio(counts["probe_hits"], counts["probes"]), "frac"),
        "trace.items": metric(n, "count"),
        "trace.wall_s": metric(wall, "s"),
        "trace.items_per_s_traced": metric(replay / traced_part, "1/s"),
        "trace.items_per_s_untraced": metric(replay / untraced, "1/s"),
        "trace.overhead_frac": metric(traced_part / untraced - 1.0, "frac"),
    })
    lines = [f"{name:<42}{m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"traced {n} items in {wall:.3f} s; overhead measured on the first "
                 f"{replay}; scalar-op time from {len(tracer.gr_samples)} sampled operations")
    return metrics, n, failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "foliations" / "cli.py").is_file():
        sys.stderr.write(f"bench: no toolkit sources under {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("bench: --seconds must be positive\n")
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        items, setup = set_up(workload, args.seed, work,
                              1 if args.trace else SETUP_REPEATS, not args.trace)
        sys.path.insert(0, str(SRC))
        import foliations.cli as cli

        print(f"bench: workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"env: {environment()}")
        if args.trace:
            metrics, attempted, failures, lines = traced(workload, cli, items, args.seconds)
        else:
            metrics, attempted, failures, lines = end_to_end(
                workload, cli, items, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()             # only if no other run is using it
    for line in lines:
        print(line)
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len({name for name, _ in failures}),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
