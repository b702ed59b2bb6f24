"""Smoke test: every demo script runs to completion on a small network."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from linfly.engine import SUPERVISOR_MODES, Scenario, run
from linfly.supervisor import STRATEGIES

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(demo: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), "--n", "8"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["honest_run.py", "malicious_supervisor.py",
                                  "lower_bound.py"])
def test_demo_runs(demo):
    assert _run_demo(demo)


def test_malicious_supervisor_sums_up_its_own_runs():
    # the closing line must follow from the runs, not be a fixed verdict
    metrics = {mode: run(Scenario(n=8, topology="random_connected",
                                  supervisor=mode, seed=3)).metrics
               for mode in SUPERVISOR_MODES}
    legal = sum(m.rounds_to_legal is not None for m in metrics.values())
    leaks = sum(m.sybil_violations for m in metrics.values())
    caught = [mode for mode in STRATEGIES
              if metrics[mode].rounds_to_all_reject is not None]
    named = f": {', '.join(caught)}" if caught else ""
    assert _run_demo("malicious_supervisor.py").splitlines()[-1] == (
        f"{legal} of {len(SUPERVISOR_MODES)} runs end legal, with {leaks} id "
        f"leaks; every dual node rejected under {len(caught)} of "
        f"{len(STRATEGIES)} lying modes{named}.")
