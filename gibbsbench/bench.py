"""Command line of the benchmark.

``--workload <name>`` runs one workload in this process and prints its result
as the last line of standard output, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload ``RUNS`` times, each run in its own process with seeds
``seed, seed + 1, ...``, and prints the median and quartiles of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact_finite", "mh_coulomb", "variational_coulomb", "distances")
E2E_METRICS = [
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
]
# Times the import, then the machine speed in the same interpreter right after it.
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import gibbslab.measures, gibbslab.potentials, gibbslab.functionals\n"
    "import gibbslab.sampler, gibbslab.variational\n"
    "seconds = time.perf_counter() - t0\n"
    "from gibbsbench.speed import setup_factor\n"
    "print(seconds, setup_factor())\n"
)
RUN_TIMEOUT_S = 600
RUNS = 10               # runs per workload with --workload all


def source_present() -> bool:
    return (SRC / "gibbslab" / "sampler.py").is_file()


def _source_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds() -> tuple[float, float]:
    """Time to import gibbslab (numpy and scipy with it) in a fresh interpreter,
    and the set-up speed factor that interpreter measured right after."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_source_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


@dataclass
class OpRecord:
    name: str
    ops: int
    start: float
    seconds: float          # measured, without speed-probe time
    problems: list
    calibrated: float = 0.0  # seconds divided by the speed factor around the op


def run_pass(ops, probe, tracer=None):
    """Run every op once, timing only ``op.run``; check each output afterwards.

    Time the speed probe spent inside an op is not counted in it.
    """
    from .workloads import WRONG

    records = []
    for op in ops:
        out = None
        if tracer is not None:
            tracer.recording = True
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:    # one failing op must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = [(WRONG, f"raised {type(exc).__name__}: {exc}")]
        finally:
            seconds = time.perf_counter() - t0 - (probe.spent - spent)
            if tracer is not None:
                tracer.recording = False
        if out is not None:
            try:
                problems = op.check(out)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems = [(WRONG, f"check raised {type(exc).__name__}: {exc}")]
        records.append(OpRecord(op.name, op.ops, t0, seconds, problems))
        del out
    return records


def pass_seconds(records, calibrated=False):
    return sum(r.calibrated if calibrated else r.seconds for r in records)


def end_to_end(passes, setup_s):
    """End-to-end metrics from calibrated times."""
    wall = statistics.median(pass_seconds(records, True) for records in passes)
    ops_per_pass = sum(r.ops for r in passes[0])
    latencies_ms = [1e3 * r.calibrated / r.ops for records in passes for r in records]
    p50, p90 = np.percentile(latencies_ms, [50, 90])
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": ops_per_pass / wall,
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in E2E_METRICS}


def run_workload(name, seed, seconds, trace, size_name="full"):
    """Set up and measure one workload; returns the report printed by ``main``."""
    from . import workloads
    from .speed import SpeedProbe
    from .trace import ENUM_NOTE, Tracer, instrumented, layer_metrics, wrap_model

    sizes = workloads.SIZES[size_name]
    build, size = workloads.WORKLOADS[name], sizes[name]
    setups = []
    for _ in range(sizes["setup_repeats"]):
        imported, speed = import_seconds()
        t0 = time.perf_counter()
        ops = build(seed, size, workloads.plain)
        setups.append((imported + time.perf_counter() - t0) / speed)
    setup_s = statistics.median(setups)

    probe = SpeedProbe()
    untraced, traced = [], []
    if trace:
        tracer = Tracer()
        traced_ops = build(seed, size, wrap_model(tracer))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        probe.sample()
        with probe.sampling():
            untraced.append(run_pass(ops, probe))
        if trace:
            with instrumented(tracer):
                traced.append(run_pass(traced_ops, probe, tracer))
        # start another pass only if one more is expected to end within the budget
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    for r in (r for p in untraced for r in p):
        r.calibrated = r.seconds / probe.factor(r.start, r.start + r.seconds)
    records = [r for p in untraced + traced for r in p]
    report = {
        "workload": name, "seed": seed, "size": size_name, "trace": bool(trace),
        "passes": len(untraced), "first_pass": untraced[0],
        "correct": not any(kind == workloads.WRONG for r in records for kind, _ in r.problems),
        "attempted": sum(r.ops for r in records),
        "failed": sum(r.ops for r in records if r.problems),
        "checks": len(records),
        "speed": probe.factor(),
        "speed_samples": len(probe.samples),
        "raw_wall_s": statistics.median(pass_seconds(p) for p in untraced),
    }
    if trace:
        traced_s = statistics.median(pass_seconds(p) for p in traced)
        overhead = traced_s / report["raw_wall_s"] - 1.0
        report["metrics"] = layer_metrics(tracer, len(traced), overhead, report["speed"])
        report["note"] = ENUM_NOTE
    else:
        report["metrics"] = end_to_end(untraced, setup_s)
    return report


def print_report(report, out=sys.stdout):
    from .trace import LAYER_METRICS

    moves = {name: target for name, _, target in LAYER_METRICS}
    print(f"# gibbsbench {report['workload']} seed={report['seed']} size={report['size']} "
          f"trace={int(report['trace'])} passes={report['passes']}", file=out)
    for r in report["first_pass"]:
        status = ",".join(sorted({kind for kind, _ in r.problems})) or "ok"
        detail = f"  {r.problems[0][1]}" if r.problems else ""
        calibrated = f" calibrated={r.calibrated:.4f}" if r.calibrated else ""
        print(f"op {r.name} ops={r.ops} seconds={r.seconds:.4f}{calibrated} {status}{detail}",
              file=out)
    print(f"speed factor {report['speed']:.4f} (median of {report['speed_samples']} kernel "
          f"samples); raw wall_s {report['raw_wall_s']:.6g} s; times below are divided by "
          f"the factor around each op", file=out)
    fail_frac = report["failed"] / report["attempted"]
    print(f"checks={report['checks']} fail_frac={fail_frac:.6g} "
          f"({report['failed']}/{report['attempted']} ops) correct={report['correct']}", file=out)
    for name, (value, unit) in report["metrics"].items():
        suffix = f"  moves: {moves[name]}" if name in moves else ""
        print(f"metric {name} {value:.6g} {unit}{suffix}", file=out)
    if "note" in report:
        print(report["note"], file=out)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }
    print(json.dumps(result), file=out, flush=True)


def run_all(args):
    """Each workload ``RUNS`` times in its own process; medians and quartiles."""
    summary = {}
    for name in WORKLOAD_NAMES:
        runs = []
        for k in range(RUNS):
            cmd = [sys.executable, "-m", "gibbsbench", "--workload", name,
                   "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        summary[name] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[name]["metrics"][metric] = {
                "unit": entry["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else float("nan"), "values": values,
            }
        s = summary[name]
        print(f"{name}: runs={s['runs']} correct={s['correct']} "
              f"fail_frac={s['failed'] / s['attempted']:.6g} ({s['failed']}/{s['attempted']})",
              flush=True)
        for metric, m in s["metrics"].items():
            print(f"  {metric:32s} median={m['median']:.6g} {m['unit']} "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g} spread={m['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="gibbslab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time budget for the passes; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with 'all': write the summary JSON here")
    args = parser.parse_args(argv)

    if not source_present():
        print(f"gibbsbench: no gibbslab source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    return 0
