"""Golden behaviour digests: a refactor must leave every round unchanged.

The determinism tests compare two runs of the same code; these pin what
the code does. Each supervisor mode gets two SHA-256 digests over the
grid of 4 corruptions x {random_connected, far_pair} x n in {8, 32}:

- rounds: `Configuration.dumps()` after every round, with the round's
  message count, rejected nodes and provenance violations;
- cli: the CSV and the `--trace` JSONL bytes that `linfly` writes for
  each scenario of the grid, plus its exit status.

A digest changes only when behaviour does. Regenerating them is a
deliberate act: run

    PYTHONPATH=src python tests/test_golden.py

which prints the current digests in the form used below.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import tempfile
from pathlib import Path

import pytest

from linfly import cli
from linfly.core import initial_configuration
from linfly.engine import (
    CORRUPTIONS,
    SUPERVISOR_MODES,
    RoundStats,
    default_max_rounds,
    inject_faults,
    is_legal,
    make_topology,
    step_round,
)
from linfly.supervisor import STRATEGIES, make_supervisor

TOPOLOGIES = ("random_connected", "far_pair")
SIZES = (8, 32)
SEED = 1

ROUND_DIGESTS = {
    "honest": "1bda76cd7ae08ee78f79e38da10b429425f08e170bd03eaa2056658f9fbb3af6",
    "none": "5f523869e3b9d60bd05bc9f1365d3f5e8278ec6545713e45caf08f4d155305c4",
    "split": "781f7cd52a848390e4da543ae286003ea167104c49cfa1c717ee5f2ea9ce45a2",
    "sybil": "86b2ea3aefdb2f881c9029d3fe1291915a95b4db904fe498137784840d7492b6",
    "wrong_vids": "8aa38546ddbbdcd0830da34c9d381399c52360d9877bb37bd0d0648539ebb399",
    "cycle": "2012b568a416104f2a7c334be4819d3d6b89e977cc25eeff176c95e15ab408a1",
    "partial": "c45ea1f321ca88ebe7b4bf2d032fc1d479ca5bd372791d2961bd5468e00366b0",
    "stale": "b06436a4f87fd77e59a1fa0f5a147b97f8fe6aaa240ee74430bfb983bdda5e4c",
}

CLI_DIGESTS = {
    "honest": "392c81bf1b800868deb98dd430318555f4c1efdc28305a05cc23045be437c1b9",
    "none": "bf69764deb2bf2132036785f14a468c884b3ef1deb45f771fc92953e618e7e16",
    "split": "9d3ef303ee4a97712c4daac66f24e872e09146cb8992db26db3d6bceb32186b7",
    "sybil": "a1a70ee9bf6179de3ddb4a73c41206bdf1efdaadbddc1fec870142190fdaa9a9",
    "wrong_vids": "ed839d4e2fb272dd4abd55bdec0c5e004f1da33c82d43974e2a1a7542b143813",
    "cycle": "b4a46840c633500eaf342332147494a25a06b3dc6295d64bce93a318c04e4f76",
    "partial": "15e3b82fecc6162ba427879a17e60a80526761fad85f6572eb14e91de94fb307",
    "stale": "d2690beda9dca25b7020da7f425d7935535f0b28cf54357f8295e614fe079c2e",
}


def _grid():
    return itertools.product(CORRUPTIONS, TOPOLOGIES, SIZES)


def _supervisor(mode: str, membership: set):
    if mode == "none":
        return None
    if mode in STRATEGIES:
        return make_supervisor(membership, "malicious", mode)
    return make_supervisor(membership, mode)


def round_digest(mode: str) -> str:
    h = hashlib.sha256()
    for corruption, topology, n in _grid():
        adjacency, _pair = make_topology(topology, n, random.Random(SEED))
        config = initial_configuration(adjacency)
        config.supervisor = _supervisor(mode, set(config.ids()))
        inject_faults(config, corruption, SEED)
        h.update(config.dumps().encode())
        while not is_legal(config) and config.round_no < default_max_rounds(n):
            stats = RoundStats()
            step_round(config, stats)
            h.update(config.dumps().encode())
            h.update(repr((stats.messages, sorted(stats.rejected),
                           stats.provenance_violations)).encode())
    return h.hexdigest()


def cli_digest(mode: str) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out, trace = Path(tmp, "out.csv"), Path(tmp, "trace.jsonl")
        for corruption, topology, n in _grid():
            status = cli.main([
                "--n", str(n), "--topology", topology,
                "--supervisor", mode.replace("_", "-"),
                "--corruption", corruption, "--seed", str(SEED),
                "--out", str(out), "--trace", str(trace),
            ])
            h.update(b"%d\n" % status)
            h.update(out.read_bytes())
            h.update(trace.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", SUPERVISOR_MODES)
def test_round_digest(mode):
    assert round_digest(mode) == ROUND_DIGESTS[mode]


@pytest.mark.parametrize("mode", SUPERVISOR_MODES)
def test_cli_digest(mode):
    assert cli_digest(mode) == CLI_DIGESTS[mode]


if __name__ == "__main__":
    for name, fn in (("ROUND_DIGESTS", round_digest),
                     ("CLI_DIGESTS", cli_digest)):
        print(f"{name} = {{")
        for mode in SUPERVISOR_MODES:
            print(f'    "{mode}": "{fn(mode)}",')
        print("}\n")
