#!/usr/bin/env python3
"""Benchmark of the triring steady-state simulator.

    python3 bench/run.py --workload kappa_b-d5-serial --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it measures set-up time in fresh processes,
then calls the workload (see ``workloads.py``) in a closed loop, one call
at a time, for one full pass and then until ``--seconds`` have passed, and
reports the end-to-end metrics.  With ``--trace 1`` it runs one pass of the workload untraced and
the same pass again with spans around every layer (``tracing.py``), and
reports the per-layer metrics.  Every run checks its outputs against the
correctness gate, writes a result file with an environment block under
``.bench_out/results/``, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero if
the gate fails or the package source is missing.
"""

import time

_START = time.perf_counter()  # set-up is timed from here in a --setup-probe child

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
INHERITED_ENV = {k: os.environ.get(k) for k in BLAS_ENV}
SETUP_TIMEOUT_S = 60
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("point_p50_s", "s"),
    ("point_p75_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RunError(Exception):
    pass


def import_cli():
    if not (SRC / "triring" / "cli.py").is_file():
        sys.stderr.write(f"error: package source not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import triring.cli

    return triring.cli


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, jobs) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **INHERITED_ENV,
        "blas_threads_in_effect": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "pool_workers": jobs if jobs is not None else os.cpu_count(),
        "pool_start_method": multiprocessing.get_start_method(),
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(workload: wl.Workload, seed: int) -> None:
    """Child side of the set-up measurement: import, build inputs, report."""
    cli = import_cli()
    workload.units(cli, seed, 0)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


def setup_time(workload: wl.Workload, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RunError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def children_usage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_nivcsw


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, largest_child) / 1024.0  # ru_maxrss is in KiB on Linux


def p75(samples: list[float]) -> float:
    """75th percentile; with 40 or more samples at least 10 lie above it."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[2]


def timed_pass(cli, workload, units, out_dir, jobs) -> tuple:
    """Run one pass; return its results, wall time, and child CPU and switches."""
    cpu0, ctx0 = children_usage()
    start = time.perf_counter()
    results = [workload.run(cli, unit, out_dir, jobs) for unit in units]
    wall = time.perf_counter() - start
    cpu1, ctx1 = children_usage()
    return results, wall, cpu1 - cpu0, ctx1 - ctx0


def gate(workload, seed, results: list[tuple[int, wl.UnitResult]]) -> list[str]:
    reference = wl.load_reference()[workload.name]
    if workload.name == "scenarios-d4":
        errors = []
        for _, r in results:
            errors += wl.check_scenarios(r.records, reference)
        return errors
    passes: dict[int, list] = {}
    for pass_index, r in results:
        passes.setdefault(pass_index, []).extend(r.records)
    return wl.check_points(workload.name, sorted(passes.items()), seed, reference)


def measure(cli, workload, seed, seconds, out_dir) -> tuple[dict, dict]:
    """The --trace 0 run: set-up, then the closed loop for ``seconds``."""
    setup = setup_time(workload, seed)
    if workload.warmup is not None:
        workload.warmup(cli)
    results: list[tuple[int, wl.UnitResult]] = []
    start = time.perf_counter()
    pass_index = 0
    # the first pass always completes, so a run has every point of the
    # seed's grid and enough latency samples for its 75th percentile
    while pass_index == 0 or time.perf_counter() - start < seconds:
        for unit in workload.units(cli, seed, pass_index):
            unit_dir = out_dir / f"pass{pass_index}"
            results.append((pass_index, workload.run(cli, unit, unit_dir, workload.jobs)))
            if pass_index > 0 and time.perf_counter() - start >= seconds:
                break
        pass_index += 1
    wall = time.perf_counter() - start
    errors = gate(workload, seed, results)
    latencies = [t for _, r in results for t in r.latencies]
    points = sum(r.points for _, r in results)
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": points / wall,
        "point_p50_s": statistics.median(latencies),
        "point_p75_s": p75(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "wall_s": wall,
        "points": points,
        "passes": pass_index,
        "setup_samples_s": setup,
        "latency_samples": len(latencies),
        "gate_errors": errors,
    }
    return metrics, detail


def traced(cli, workload, seed, out_dir) -> tuple[dict, dict]:
    """The --trace 1 run: one pass untraced, the same pass traced."""
    units = workload.units(cli, seed, 0)
    if workload.warmup is not None:
        workload.warmup(cli)
    pool = None
    if workload.jobs != 1:
        # the pool's workers are separate processes: take their cost from
        # rusage, then trace the same pass serially in this process
        pool = timed_pass(cli, workload, units, out_dir / "pool", workload.jobs)
    untraced = timed_pass(cli, workload, units, out_dir / "untraced", 1)
    base, untraced_wall = untraced[:2]
    pool, pool_wall, child_cpu, ctx_switches = pool or untraced

    with Tracer() as tracer:
        start = time.perf_counter()
        again = [workload.run(cli, unit, out_dir / "traced", 1) for unit in units]
        traced_wall = time.perf_counter() - start

    errors = gate(workload, seed, [(0, r) for r in pool])
    if [r.outputs for r in again] != [r.outputs for r in base]:
        errors.append("traced outputs differ from untraced outputs")
    if [r.outputs for r in pool] != [r.outputs for r in base]:
        errors.append("pool outputs differ from serial outputs")
    self_times = tracer.span_self_times()
    remainder = traced_wall - tracer.root_time()
    closure = sum(self_times) + remainder - traced_wall
    if min(self_times, default=0.0) < -1e-9 or abs(closure) > 1e-9 * traced_wall:
        errors.append(f"span self times do not add up to the traced wall time ({closure:.3g} s)")

    points = sum(r.points for r in pool)
    metrics = tracer.layer_metrics()
    metrics.update({
        "cli.pool.child_cpu_s": child_cpu,
        "cli.pool.cpu_per_point_s": child_cpu / points,
        "cli.pool.utilization": child_cpu / (pool_wall * (os.cpu_count() or 1)),
        "cli.pool.invol_ctx_switches": ctx_switches,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    })
    detail = {
        "points": points,
        "pool_wall_s": pool_wall,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "untraced_remainder_s": remainder,
        "spans": len(self_times),
        "gate_errors": errors,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# command line


def pin_blas(workload: wl.Workload) -> None:
    """Serial workloads run on one BLAS thread.

    Unpinned, OpenBLAS keeps a second thread spinning on the other core,
    which made serial runs slower and their run-to-run spread several times
    wider (see README).  Must run before numpy is imported.
    """
    if workload.blas_threads is not None:
        os.environ.update(dict.fromkeys(BLAS_ENV, workload.blas_threads))


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    pin_blas(workload)
    cli = import_cli()
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        if args.trace:
            values, detail = traced(cli, workload, args.seed, out_dir)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            values, detail = measure(cli, workload, args.seed, args.seconds, out_dir)
            units = dict(END_TO_END)
    except (RunError, cli.TriringError) as exc:
        values, detail = {}, {"points": 1, "gate_errors": [f"{type(exc).__name__}: {exc}"]}
        units = {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    errors = detail["gate_errors"]
    # each error names the point or row it concerns before ": "
    failed_points = min(detail["points"], len({e.split(": ")[0] for e in errors}))
    result = {
        "correct": not errors,
        "attempted": detail["points"],
        "failed": failed_points,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    env = environment(args.seed, workload.jobs)
    if not workload.seeded:
        env["seed_note"] = f"{workload.name} runs fixed named grids and ignores the seed"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "detail": detail, "result": result,
    }
    path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac {failed_points / max(detail['points'], 1):.6g} ratio")
    for err in errors[:20]:
        print(f"  gate: {err}")
    print(f"correctness gate: {'passed' if not errors else f'FAILED ({len(errors)} errors)'}")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Run every workload in its own process; print their outputs and one combined line."""
    summary = {}
    status = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if proc.returncode in (0, 1):
            summary[name] = json.loads(proc.stdout.splitlines()[-1])
    if len(summary) != len(wl.WORKLOADS):
        return status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}/{k}": m for w, r in summary.items() for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        pin_blas(wl.WORKLOADS[args.workload])
        setup_probe(wl.WORKLOADS[args.workload], args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
