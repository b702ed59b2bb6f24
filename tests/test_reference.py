"""engine.step_round against a plain reference step.

`reference_step` is the synchronous round as the model states it, with
none of step_round's shortcuts: the supervisor is stepped first and its
messages appended to this round's deliveries, every node runs
`protocol.node_round` on its channel plus those messages (no replay of
fixed points, no fused routing and auditing), and the provenance audit is
one set difference per node. The two must agree on every configuration,
supervisor inbox and statistic, round after round.
"""

from __future__ import annotations

import itertools

import pytest

from linfly import engine, protocol
from linfly.core import Advice, Configuration, Intro, Rev, TestVID, vouched_ids
from linfly.engine import (
    CORRUPTIONS,
    SUPERVISOR_MODES,
    RoundStats,
    Scenario,
    seed_backbone,
    seed_flyover,
    start,
    step_round,
)
from linfly.supervisor import honest_step


def reference_step(config: Configuration) -> RoundStats:
    """One synchronous round of config, in place."""
    nodes = config.nodes
    deliveries = {u: list(st.channel) for u, st in nodes.items()}
    if config.supervisor is not None:
        attentive = {u for u, st in nodes.items() if st.attentive}
        config.supervisor, outbound = honest_step(
            config.supervisor, config.sup_inbox, attentive)
        for u, msg in outbound:
            if u in deliveries:
                deliveries[u].append(msg)
    consumed = {u: list(st.channel) for u, st in nodes.items()}
    before = {u: st.registers() for u, st in nodes.items()}

    stats = RoundStats()
    channels = {u: [] for u in nodes}
    to_sup = []
    for u in sorted(nodes):
        delivered = deliveries[u]
        # ids a node may hold or pass on: its own registers before the
        # round, the ids handed to it this round, and its own
        vouched = nodes[u].address_ids() | vouched_ids(delivered) | {u}
        st, out = protocol.node_round(nodes[u], list(delivered))
        nodes[u] = st
        emitted = st.address_ids()
        for dest, msg in out.sends:
            emitted |= {dest, *msg.ids()}
            if dest in channels:
                channels[dest].append(msg)
        for msg in out.to_supervisor:
            emitted |= set(msg.ids())
            to_sup.append((u, msg))
        stats.provenance_violations += len(emitted - vouched)
        stats.messages += len(out.sends) + len(out.to_supervisor)
        if out.did_reject:
            stats.rejected.add(u)
        if out.causes:
            stats.causes[u] = tuple(out.causes)

    for u, st in nodes.items():
        st.channel = channels[u]
        if st.registers() != before[u] or st.channel != consumed[u]:
            stats.changed.add(u)
    config.sup_inbox = to_sup
    config.round_no += 1
    return stats


def _agree(config: Configuration, rounds: int) -> int:
    """Step config with step_round and a clone with reference_step; returns
    the provenance violations counted."""
    ref = config.clone()
    violations = 0
    for r in range(rounds):
        stats = step_round(config)
        expected = reference_step(ref)
        assert config.dumps() == ref.dumps(), r
        assert config.sup_inbox == ref.sup_inbox, r
        assert config.supervisor == ref.supervisor, r
        assert stats == expected, r
        violations += stats.provenance_violations
    return violations


@pytest.mark.parametrize("mode", SUPERVISOR_MODES)
def test_step_round_matches_the_reference(mode):
    for corruption, n in itertools.product(CORRUPTIONS, (8, 16)):
        config, _pair = start(Scenario(n=n, supervisor=mode,
                                       corruption=corruption, seed=5))
        _agree(config, 3 * n)


@pytest.mark.parametrize("seed", [seed_backbone, seed_flyover])
def test_step_round_matches_the_reference_on_seeds(seed):
    for m in (2, 5, 9, 16):
        _agree(seed(list(range(m))), 3 * m)


def test_step_round_matches_the_reference_when_quiet():
    # unsupervised far_pair spends most node-rounds in replayed fixed
    # points, the shortcut the reference never takes
    config, _pair = start(Scenario(n=32, topology="far_pair",
                                   supervisor="none", seed=1))
    _agree(config, 120)
    assert len(config.replay) > 0


def test_step_round_matches_the_reference_audit_of_a_leaky_node(monkeypatch):
    # honest nodes give the audit nothing to count; criterion 05's broken
    # node trusts Advice.par blindly, in both steppers, and leaks an
    # unknown id down each path the audit watches: par into a register,
    # par + 1 in a message, par + 2 as a destination
    real = protocol.node_round

    def leaky_round(state, delivered):
        pars = [m.par for m in delivered if isinstance(m, Advice) and m.par is not None]
        st, out = real(state, delivered)
        st.base_mem.update(pars)
        out.sends += [(par + 2, Intro(par + 1)) for par in pars]
        return st, out

    monkeypatch.setattr(engine, "node_round", leaky_round)
    monkeypatch.setattr(protocol, "node_round", leaky_round)
    config, _pair = start(Scenario(n=16, topology="star", supervisor="sybil"))
    assert _agree(config, 48) > 0


def test_step_round_matches_the_reference_audit_of_shared_messages(monkeypatch):
    # a node may hand one message object to several destinations, and the
    # audit reads each object's ids once; every destination is still
    # checked. Each node here sends one object carrying an id nobody
    # vouched for, first to itself and then to two ids it never learnt,
    # and an id-free probe to a third; a count that skipped a repeated
    # send's or an id-free send's destination falls short of the reference
    real = protocol.node_round

    def leaky_round(state, delivered):
        st, out = real(state, delivered)
        u = st.id
        shared = Rev(1000 + u)
        out.sends += [(u, shared), (2000 + u, shared), (3000 + u, shared),
                      (4000 + u, TestVID(1))]
        return st, out

    monkeypatch.setattr(engine, "node_round", leaky_round)
    monkeypatch.setattr(protocol, "node_round", leaky_round)
    n = 16
    config, _pair = start(Scenario(n=n, supervisor="honest", seed=3))
    stats = step_round(config.clone())
    # the shared id and three destinations per node, on a round where every
    # node is computed
    assert stats.provenance_violations == 4 * n
    assert _agree(config, 3 * n) > 0
