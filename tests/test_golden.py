"""Golden behaviour digests: a refactor must leave every round unchanged.

The determinism tests compare two runs of the same code; these pin what
the code does. Each supervisor mode gets three SHA-256 digests over the
grid of 4 corruptions x {random_connected, far_pair} x n in {8, 32}:

- rounds: `Configuration.dumps()` after every round, with the round's
  message count, rejected nodes and provenance violations;
- run: what `engine.run` derives from its per-round monitors: pair
  distances, advice rounds, messages per round, degree high-water,
  rounds to legality and to all-reject, connectivity and sybil counts;
- cli: the CSV and the `--trace` JSONL bytes that `linfly` writes for
  each scenario of the grid, plus its exit status.

The grid stops at n=32, where an unsupervised run is short. LONG_DIGESTS
pins the rounds digest of two longer unsupervised runs, uncorrupted, at
the same seed: `far_pair` n=96 (146 rounds) and `random_connected`
n=128 (22 rounds). SEED_DIGEST pins the seeded structures: the
`dumps()` of `seed_backbone` and `seed_flyover` on 1..64 ids, dense and
sparse.

A digest changes only when behaviour does. Regenerating them is a
deliberate act: run

    PYTHONPATH=src python tests/test_golden.py

which prints the current digests in the form used below.
"""

from __future__ import annotations

import hashlib
import itertools
import tempfile
from pathlib import Path

import pytest

from linfly import cli
from linfly.engine import (
    SUPERVISOR_MODES,
    Scenario,
    default_max_rounds,
    is_legal,
    run,
    seed_backbone,
    seed_flyover,
    start,
    step_round,
)

# pinned here rather than read from the engine, so that a corruption or
# topology appended there leaves every digest below where it is
CORRUPTIONS = ("none", "garbage_flyover_vars", "stale_channel_messages", "all")
TOPOLOGIES = ("random_connected", "far_pair")
SIZES = (8, 32)
SEED = 1

ROUND_DIGESTS = {
    "honest": "f162f30e9bb81ff41d1337ea325a6632479d5b786676be411adbb7ffcfe6d763",
    "none": "f4a73057d7f77f8f3afe663c19ef28dbfcd37e31027051ca6dfb19f4d85b154f",
    "split": "aa197a2990deb8c40a16f4d5848bf0388518772c297843c2eb4377093ce36a36",
    "sybil": "23ba3922f1855894f1a422ffd7910695a90de264b3ccd4ff21a1d86ed38272e1",
    "wrong_vids": "806ad3af36dbdeb7ec8cbcc2ce486824abc0553b081a317eea05d395ca8d7029",
    "cycle": "68e32ff496cb6a1ef8a664eabe829ecb84ab0475a65b94e0e0ccee14c2536080",
    "partial": "e16e73ea696cb55b5eb336a201e92971beb5ff5427cb5b4bd41a7412d37b0b96",
    "stale": "63f8cc40a36a9050efe1cd15b0a7ea4555c07bfeb16de2f3b31670b3b8972eb4",
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


RUN_DIGESTS = {
    "honest": "06164154bfa9dcc1ab482508e5b7f711634017d9e53be553b18d50e03366baa5",
    "none": "36ecfad563895ca77daa84ec0e19a9eda58a346f011cee73ca1bf37249029c84",
    "split": "9c93feb2a293da0f17b46c42ebeb4bf81d6cbccdaf1da5597bfd0405cd0dae65",
    "sybil": "ada38a3061244693866eefeb0af6f4cac75c0a88bd6f3ec434a0009984ffaa54",
    "wrong_vids": "21c9643c1af0e6870fbfa20edd5bae1953d92d871bc0ff5f2c3cd5ff751a518e",
    "cycle": "ab4bf1046bb4a9b88fae413df96759d5afe3965713cc375335562fa449ba0c46",
    "partial": "a92816985e857efa84f0430c28687a42ed0545b83d98042d28384b22580050f0",
    "stale": "b835776a413b69417bd4021c6d3eab5f7cc5f1c772b7c02e755725b1ebe27f6d",
}


LONG_DIGESTS = {
    ("far_pair", 96): "575af4b3536841957c11e955959418be773d2b178bd796e7b55f4ebbe0d1364b",
    ("random_connected", 128): "91d45261135ee47d4816386aebb137d6381e4dece5285366ba697047c30bec9e",
}

SEED_DIGEST = "9dc19f7af3ffbc158783180526fe69a3f12161b146c23587525489e91dcef02e"


def _grid():
    return itertools.product(CORRUPTIONS, TOPOLOGIES, SIZES)


def _hash_rounds(h, mode: str, corruption: str, topology: str, n: int) -> None:
    config, _pair = start(Scenario(n=n, topology=topology, supervisor=mode,
                                   corruption=corruption, seed=SEED))
    h.update(config.dumps().encode())
    while not is_legal(config) and config.round_no < default_max_rounds(n):
        stats = step_round(config)
        h.update(config.dumps().encode())
        h.update(repr((stats.messages, sorted(stats.rejected),
                       stats.provenance_violations)).encode())


def round_digest(mode: str) -> str:
    h = hashlib.sha256()
    for corruption, topology, n in _grid():
        _hash_rounds(h, mode, corruption, topology, n)
    return h.hexdigest()


def long_digest(topology: str, n: int) -> str:
    h = hashlib.sha256()
    _hash_rounds(h, "none", "none", topology, n)
    return h.hexdigest()


def seed_digest() -> str:
    # two id layouts per size: 0..m-1, and sparse ids handed over in
    # descending order
    h = hashlib.sha256()
    for m in range(1, 65):
        for ids in (list(range(m)), [3 * x + 7 for x in range(m)][::-1]):
            h.update(seed_backbone(ids).dumps().encode())
            h.update(seed_flyover(ids).dumps().encode())
    return h.hexdigest()


def run_digest(mode: str) -> str:
    h = hashlib.sha256()
    for corruption, topology, n in _grid():
        res = run(Scenario(n=n, topology=topology, supervisor=mode,
                           corruption=corruption, seed=SEED))
        m = res.metrics
        h.update(repr((res.rounds, res.pair_distances, res.advice_rounds,
                       m.messages_per_round, m.max_degree_seen,
                       m.rounds_to_legal, m.rounds_to_all_reject,
                       m.connectivity_violations,
                       m.sybil_violations)).encode())
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
def test_run_digest(mode):
    assert run_digest(mode) == RUN_DIGESTS[mode]


@pytest.mark.parametrize("mode", SUPERVISOR_MODES)
def test_cli_digest(mode):
    assert cli_digest(mode) == CLI_DIGESTS[mode]


def test_seed_digest():
    assert seed_digest() == SEED_DIGEST


@pytest.mark.parametrize("topology,n", LONG_DIGESTS)
def test_long_unsupervised_digest(topology, n):
    assert long_digest(topology, n) == LONG_DIGESTS[(topology, n)]


if __name__ == "__main__":
    for name, fn in (("ROUND_DIGESTS", round_digest),
                     ("RUN_DIGESTS", run_digest),
                     ("CLI_DIGESTS", cli_digest)):
        print(f"{name} = {{")
        for mode in SUPERVISOR_MODES:
            print(f'    "{mode}": "{fn(mode)}",')
        print("}\n")
    print("LONG_DIGESTS = {")
    for topology, n in LONG_DIGESTS:
        print(f'    ("{topology}", {n}): "{long_digest(topology, n)}",')
    print("}\n")
    print(f'SEED_DIGEST = "{seed_digest()}"')
