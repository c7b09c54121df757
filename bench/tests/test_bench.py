"""Schema tests for the benchmark, on quick runs. Nothing here gates on a time.

Run from the repository root: python3 -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "threads",
            "git_commit", "seed"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *head, last = proc.stdout.strip().splitlines()
    return json.loads("\n".join(head)), json.loads(last)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def quick_runs(request):
    return {w: parse(run_bench("--workload", w, "--seed", "3", "--seconds", "1",
                               "--trace", str(request.param), "--quick"))
            for w in WORKLOADS}, request.param


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][1] == "bench/run.py" and SPEC["paths"] == ["bench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_last_line_schema(quick_runs):
    runs, trace = quick_runs
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for workload, (report, final) in runs.items():
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True, report["failures"]
        assert final["attempted"] >= 1 and final["failed"] == 0
        got = {k: v["unit"] for k, v in final["metrics"].items()}
        assert got == units, workload
        assert all(isinstance(v["value"], float) for v in final["metrics"].values())


def test_report_carries_environment_and_samples(quick_runs):
    runs, trace = quick_runs
    for workload, (report, _) in runs.items():
        env = report["environment"]
        assert set(env) == ENV_KEYS
        assert env["seed"] == 3
        assert set(env["threads"].values()) == {"1"}
        assert all({"value", "unit", "samples"} <= set(m) for m in report["metrics"].values())
        if not trace:
            assert {"failed_frac"} <= set(report["metrics"])


def test_known_defects_count_in_failed_frac(quick_runs):
    runs, trace = quick_runs
    if trace:
        pytest.skip("known-defect probes run untraced")
    report, final = runs["cli_mix"]
    defects = report["known_defects"]
    assert [d["input"] for d in defects] == [
        "validate +inf diagonal entry", 'validate mis-shaped {"parties": 5}']
    failed = final["failed"] + sum(d["failed"] for d in defects)
    attempted = final["attempted"] + len(defects)
    assert report["metrics"]["failed_frac"]["value"] == pytest.approx(failed / attempted)


def test_same_seed_same_inputs():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import causalis
        import workloads
        mats = [[t.run.args[2].w.mat for t in
                 workloads.sep_verdicts(causalis, seed, True, None).tasks]
                for seed in (5, 5, 6)]
    finally:
        del sys.path[:2]
    assert all((x == y).all() for x, y in zip(mats[0], mats[1]))
    assert not all(x.shape == y.shape and (x == y).all() for x, y in zip(mats[0], mats[2]))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
