"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload == "exact_dense":
        # cmd_construct builds the balance graph in run_checks and again in
        # construct_measure
        assert result["metrics"]["checker.graph_builds_per_construct"]["value"] == 2


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = bench("--workload", "exact_dense", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_missing_span_is_dropped(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import gwrev.checker
    import gwrev.cli
    import tracing

    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("checker", "solve_potentials", None),))
    original = gwrev.checker.run_checks
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gwrev.cli.run_checks is not original
        assert gwrev.cli.run_checks.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert tracer.dropped == ["checker.solve_potentials"]
    assert gwrev.cli.run_checks is original and gwrev.checker.run_checks is original


def test_times_scale_to_full_speed():
    sys.path.insert(0, str(HERE))
    import host

    speed = host.Host()
    speed.probes = [(0.0, host.REFERENCE_S), (1.0, 3 * host.REFERENCE_S)]
    # probes around the call read twice the reference on average: the host
    # ran at half speed, so the call takes half as long at full speed
    assert speed.scale(0.5, 0) == pytest.approx(0.25)
