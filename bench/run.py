"""causalis benchmark: time to verdict, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sep_verdicts --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15
    python3 bench/run.py --workload all --quick

--trace 0 sets the workload up three times (set-up time is their median),
then runs its seeded round of tasks back to back, untraced, until --seconds
have passed, and finally runs the workload's known-defect probes. It prints
setup_s, wall_s (median time of one round), task_p50_ms, task_p95_ms (when
the run has at least 200 tasks), failed_frac and peak_rss_mb. Times are
reported at the reference speed defined in refspeed.py.

--trace 1 runs the round untraced for --seconds / 2, then as many rounds
again with every causalis layer and numpy/scipy kernel wrapped (see
tracer.py), then the workload's traced-only inputs (the full quantum switch
on sep_verdicts). It prints the per-layer metrics and the tracing overhead,
and writes the spans to .bench_work/.

The lines before the last are a JSON report with the environment block,
sample counts, failures and known defects. The last line is one JSON object
{correct, attempted, failed, metrics}. --workload all runs each workload in
its own child process, one after another, and prints a table.
"""
import os
import sys

# BLAS pools read these once, when numpy loads, so they are pinned before any
# import: every run, on every commit, uses single-threaded kernels.
THREADS = "1"
THREAD_VARS = ("CAUSALIS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402
import scipy.optimize  # noqa: E402,F401  loaded once, before any timed set-up

import envinfo  # noqa: E402
import refspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
P95_MIN_TASKS = 200  # so that at least ten samples lie beyond the 95th percentile
CHILD_TIMEOUT_S = 900
CLI_SUBCOMMANDS = ("validate", "switch", "born", "ineq", "demo")
USEFUL_REL = 1e-6


def per_layer_metrics() -> dict:
    """name -> (unit, better) of every metric a traced run prints."""
    out = {}
    for name in (f"{m}.{f}" for m, fs in tracing.MODULE_FUNCTIONS.items() for f in fs):
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for _, k in tracing.KERNELS:
        out[f"kernel.{k}.calls"] = ("count", "lower")
        out[f"kernel.{k}.s"] = ("s", "lower")
    out["separability.iterations"] = ("count", "lower")
    out["separability.iter_ms"] = ("ms", "lower")
    out["separability.useful_iter_frac"] = ("ratio", "higher")
    out["separability.stream_iterations"] = ("count", "lower")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.calls"] = ("count", "lower")
        out[f"cli.{sub}.p50_ms"] = ("ms", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


# ---------------------------------------------------------------------------
# running tasks

@dataclass
class Record:
    kind: str
    label: str
    start: float
    seconds: float
    error: str | None
    speed: float = 1.0  # speed factor around the task, see refspeed.py

    @property
    def scaled(self):
        """Seconds at the reference speed."""
        return self.seconds / self.speed


def run_task(task, tr=None):
    """Time one task; check its output afterwards, untimed and untraced."""
    if tr is not None:
        tr.task += 1
        tr.active = True
    t0 = time.perf_counter()
    try:
        out, error = task.run(), None
    except Exception as exc:  # a task that raises is a failed task
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tr is not None:
        tr.active = False
    if error is None:
        try:
            error = task.check(out)
        except Exception as exc:  # an output the check cannot read is wrong
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(task.kind, task.label, t0, elapsed, error), out


def run_rounds(tasks, meter, *, seconds=None, rounds=None, tr=None):
    """Whole rounds until `rounds` are done or `seconds` have passed, with
    the reference kernel sampled between tasks. Returns the records per
    round and every (kind, output)."""
    done, outs = [], []
    deadline = time.perf_counter() + (seconds or 0)
    meter.sample()
    while True:
        recs = []
        for task in tasks:
            rec, out = run_task(task, tr)
            meter.sample()
            recs.append(rec)
            outs.append((task.kind, out))
        done.append(recs)
        if len(done) == rounds or (rounds is None and time.perf_counter() >= deadline):
            break
    for rec in flat(done):
        rec.speed = meter.around(rec.start, rec.start + rec.seconds)
    return done, outs


def round_walls(rounds):
    """Time from a round's first task to its last verdict, checks and
    reference-kernel samples excluded, at the reference speed."""
    return [sum(r.scaled for r in recs) for recs in rounds]


def flat(rounds):
    return [r for recs in rounds for r in recs]


def metric(value, unit, samples):
    return {"value": float(value), "unit": unit, "samples": samples}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_import():
    """Import causalis from scratch, so each set-up pays for the import and
    starts with empty library caches."""
    for name in [m for m in sys.modules if m == "causalis" or m.startswith("causalis.")]:
        del sys.modules[name]
    cs = importlib.import_module("causalis")
    importlib.import_module("causalis.cli")
    return cs


def set_up(name, seed, quick, repeats, meter):
    spans, wl = [], None
    for _ in range(repeats):
        if wl is not None:
            wl.close()
        meter.sample()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](fresh_import(), seed, quick, WORK)
        spans.append((t0, time.perf_counter()))
        meter.sample()
    return wl, [(t1 - t0) / meter.around(t0, t1) for t0, t1 in spans]


def speed_block(meter):
    q = np.percentile(meter.factors, [10, 50, 90])
    return {"reference_s": refspeed.REF_SECONDS, "samples": len(meter.factors),
            "factor_p10_p50_p90": [float(x) for x in q]}


def failure_lines(recs):
    return [f"{r.label}: {r.error}" for r in recs if r.error]


# ---------------------------------------------------------------------------
# the two kinds of run

def timed_run(wl, args, setup_times, meter):
    rounds, _ = run_rounds(wl.tasks, meter, seconds=args.seconds,
                           rounds=1 if args.quick else None)
    peak = peak_rss_mb()
    probes = [run_task(t)[0] for t in wl.probes]
    recs = flat(rounds)
    lat = [r.scaled for r in recs]
    walls = round_walls(rounds)
    failed = [r for r in recs if r.error]
    attempted_all = len(recs) + len(probes)
    failed_all = len(failed) + sum(1 for r in probes if r.error)
    metrics = {
        "setup_s": metric(median(setup_times), "s", len(setup_times)),
        "wall_s": metric(median(walls), "s", len(walls)),
        "task_p50_ms": metric(median(lat) * 1e3, "ms", len(lat)),
        "peak_rss_mb": metric(peak, "MB", 1),
    }
    report_metrics = dict(metrics)
    if len(lat) >= P95_MIN_TASKS:
        report_metrics["task_p95_ms"] = metric(np.percentile(lat, 95) * 1e3, "ms", len(lat))
    report_metrics["failed_frac"] = metric(failed_all / attempted_all, "ratio", attempted_all)
    by_kind = {}
    for kind in sorted({r.kind for r in recs}):
        ks = [r.scaled for r in recs if r.kind == kind]
        by_kind[kind] = {"tasks": len(ks), "p50_ms": median(ks) * 1e3}
    report = {
        "rounds": len(rounds),
        "speed": speed_block(meter),
        "raw_times": {"wall_s": median(sum(r.seconds for r in rd) for rd in rounds),
                      "task_p50_ms": median(r.seconds for r in recs) * 1e3},
        "metrics": report_metrics,
        "by_kind": by_kind,
        "failures": failure_lines(recs),
        "known_defects": [{"input": r.label, "failed": r.error is not None, "detail": r.error}
                          for r in probes],
    }
    final = {
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return report, final


def _first_useful(history):
    """1-based index of the first residual within USEFUL_REL of the last."""
    final = history[-1]
    close = np.nonzero(np.abs(history - final) <= USEFUL_REL * abs(final))[0]
    return int(close[0]) + 1


def traced_run(wl, args, meter):
    plain, _ = run_rounds(wl.tasks, meter, seconds=args.seconds / 2,
                          rounds=1 if args.quick else None)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced, outs = run_rounds(wl.tasks, meter, rounds=len(plain), tr=tr)
        sep_self_before = tr.functions["separability.check_separability"][2]
        extra = [run_task(t, tr) for t in wl.traced_extra]
    finally:
        tr.uninstall()
    spans_file = WORK / f"spans-{args.workload}.jsonl"
    tr.write_spans(spans_file)

    values = {}
    for name, (calls, s, self_s) in tr.functions.items():
        values.update({f"{name}.calls": calls, f"{name}.s": s, f"{name}.self_s": self_s})
    for name, (calls, s) in tr.kernels.items():
        values.update({f"kernel.{name}.calls": calls, f"kernel.{name}.s": s})

    full = next((out for rec, out in extra if rec.kind == "sep.full_switch" and not rec.error),
                None)
    its = full.iterations if full is not None else 0
    values["separability.iterations"] = its
    values["separability.iter_ms"] = (
        (tr.functions["separability.check_separability"][2] - sep_self_before) / its * 1e3
        if its else 0.0)
    values["separability.useful_iter_frac"] = (
        _first_useful(full.trace.residual_history) / its if its else 0.0)
    values["separability.stream_iterations"] = sum(
        out.iterations for kind, out in outs if kind.startswith("sep.") and out is not None)

    plain_recs, traced_recs = flat(plain), flat(traced)
    for sub in CLI_SUBCOMMANDS:
        ks = [r.scaled for r in plain_recs if r.kind == f"cli.{sub}"]
        values[f"cli.{sub}.calls"] = sum(1 for r in traced_recs if r.kind == f"cli.{sub}")
        values[f"cli.{sub}.p50_ms"] = median(ks) * 1e3 if ks else 0.0

    wall_plain, wall_traced = median(round_walls(plain)), median(round_walls(traced))
    values["trace.overhead_s"] = wall_traced - wall_plain
    values["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain

    # cli p50s and the overhead are scaled per task already; the traced
    # totals are scaled by the run's median speed factor
    f = meter.factor
    scaled = {k for k, (unit, _) in per_layer_metrics().items()
              if unit in ("s", "ms") and not k.startswith(("cli.", "trace."))}
    metrics = {k: metric(values[k] / f if k in scaled else values[k], unit, len(traced))
               for k, (unit, _) in per_layer_metrics().items()}
    all_recs = plain_recs + traced_recs + [rec for rec, _ in extra]
    failed = [r for r in all_recs if r.error]
    report = {
        "rounds": len(traced),
        "speed": speed_block(meter),
        "traced_extra": [r.label for r, _ in extra],
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": sum(1 for s in tr.spans if s is not None),
        "wall_s_untraced": wall_plain,
        "wall_s_traced": wall_traced,
        "metrics": metrics,
        "failures": failure_lines(all_recs),
    }
    final = {
        "correct": not failed,
        "attempted": len(all_recs),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return report, final


def run_workload(args):
    WORK.mkdir(exist_ok=True)
    repeats = 1 if (args.quick or args.trace) else SETUP_REPEATS
    meter = refspeed.SpeedMeter()
    wl, setup_times = set_up(args.workload, args.seed, args.quick, repeats, meter)
    try:
        if args.trace:
            report, final = traced_run(wl, args, meter)
        else:
            report, final = timed_run(wl, args, setup_times, meter)
    finally:
        wl.close()
    head = {
        "workload": args.workload,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "environment": envinfo.environment(ROOT, args.seed, THREAD_VARS),
    }
    return {**head, **report}, final


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    env_printed = False
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report_lines, last = proc.stdout.strip().splitlines()
        report, result = json.loads("\n".join(report_lines)), json.loads(last)
        if not env_printed:
            print("environment", json.dumps(report["environment"]))
            env_printed = True
        for key, m in report["metrics"].items():
            print(f"{name:<13} {key:<42} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
        for line in report["failures"]:
            print(f"{name:<13} FAILED {line}")
        for d in report.get("known_defects", []):
            print(f"{name:<13} known defect {d['input']}: {d['detail'] or 'now passes'}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed; every input is generated from it (default 1)")
    ap.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="one round of tiny inputs, for smoke tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "causalis" / "__init__.py").is_file():
        print(f"error: no causalis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    report, final = run_workload(args)
    print(json.dumps(report, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
