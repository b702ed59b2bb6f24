"""Self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q benchmarks/test_harness.py

Every workload runs once untraced and once traced in smoke mode. The
checks: each metric named in BENCHMARK.json is emitted with its unit,
untraced runs leave every module attribute alone, a traced run
restores every attribute it wrapped, and the speed probe gives back
the alarm signal.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import TARGETS, Tracer, wrapped_targets  # noqa: E402

def _attributes(mods) -> dict:
    return {(m, a): getattr(getattr(mods, m), a) for m, a, _ in TARGETS}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(workload, trace):
    report = run.measure(workload, seed=3, seconds=0, trace=trace, smoke=True)
    mods = run.import_linfly()
    assert wrapped_targets(mods) == []
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_untraced_batch_sees_the_original_attributes():
    mods = run.import_linfly()
    before = _attributes(mods)
    workload = run.WORKLOADS["honest-advice"]
    run.run_untraced(workload, mods, workload.inputs(3, True))
    assert _attributes(mods) == before


def test_tracer_wraps_every_target_and_restores_it():
    mods = run.import_linfly()
    before = _attributes(mods)
    workload = run.WORKLOADS["adversarial-traced"]
    inputs = workload.inputs(3, True)
    with Tracer(mods) as tr:
        assert len(wrapped_targets(mods)) == len(TARGETS)
        batch = run.run_batch(workload, mods, inputs)
        with pytest.raises(RuntimeError):
            run.run_untraced(workload, mods, inputs)
    assert _attributes(mods) == before
    assert not batch.failures
    assert tr.calls("engine.run") == len(inputs)
    assert tr.calls("cli.run_experiments") == 1


def test_tracer_restores_attributes_when_the_program_raises():
    mods = run.import_linfly()
    before = _attributes(mods)
    with pytest.raises(ValueError):
        with Tracer(mods):
            mods.engine.make_topology("no-such-topology", 8)
    assert _attributes(mods) == before


def test_self_time_excludes_child_spans():
    mods = run.import_linfly()
    workload = run.WORKLOADS["unassisted-long"]
    with Tracer(mods) as tr:
        run.run_batch(workload, mods, workload.inputs(3, True))
    children = sum(tr.total(s) for s in (
        "engine.setup", "engine.step_round", "engine.connectivity",
        "engine.legality", "engine.degree", "engine.pair_distance"))
    assert tr.self_time("engine.run") == pytest.approx(
        tr.total("engine.run") - children, abs=1e-3)
    assert 0 < tr.self_time("engine.run") < tr.total("engine.run")


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as speed:
        time.sleep(0.1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2
    assert speed.factor() > 0
