"""End-to-end acceptance checks, one test per shipped guarantee.

Each test sweeps the relevant scenario space, asserts the stated bound,
and prints the measured numbers so a log shows the actual margins.
"""

import itertools
import math
import random

from linfly.core import (
    bfs_distances,
    communication_graph,
    initial_configuration,
)
import linfly.engine as engine_mod
from linfly.engine import (
    RoundStats,
    Scenario,
    classify_structures,
    inject_faults,
    is_legal,
    make_topology,
    run,
    seed_backbone,
    seed_flyover,
    step_round,
)
from linfly.protocol import Advice, next_stop
from linfly.ttp import verify_all_trees

TOPOLOGIES = ("path", "star", "two_clusters", "random_connected", "far_pair")
ALL_MODES = ("honest", "none", "split", "sybil", "wrong-vids", "cycle",
             "partial", "stale")
MALICIOUS = ("split", "sybil", "wrong-vids", "cycle", "partial", "stale")
CORRUPTIONS = ("none", "garbage_flyover_vars", "stale_channel_messages", "all")


def _log2ceil(n):
    return math.ceil(math.log2(n))


def test_criterion_01_tree_linearization_exhaustive():
    # every rooted labelled tree on up to 8 vertices, all roots, both
    # root labels; verify_all_trees raises on any oracle failure
    count = verify_all_trees(8)
    assert count == 4446554
    print(f"criterion 1: {count} tree instances verified")


def test_criterion_02_connectivity_across_all_scenarios():
    runs = 0
    bad = 0
    for topology, mode, corruption, n in itertools.product(
            TOPOLOGIES, ALL_MODES, CORRUPTIONS, (2, 8, 32, 64)):
        if topology == "far_pair" and n < 4:
            n = 4
        res = run(Scenario(n=n, topology=topology, supervisor=mode,
                           corruption=corruption, seed=runs))
        runs += 1
        bad += res.metrics.connectivity_violations
    assert runs >= 500
    assert bad == 0
    print(f"criterion 2: {runs} runs, 0 connectivity violations")


def test_criterion_03_honest_convergence_is_logarithmic():
    sizes = (8, 16, 32, 64, 128, 256)
    legal_rounds = {}
    worst = {}
    for n in sizes:
        bound = 16 * _log2ceil(n)
        vals = []
        for seed in range(20):
            res = run(Scenario(n=n, topology="random_connected",
                               supervisor="honest", seed=seed))
            legal = res.metrics.rounds_to_legal
            assert legal is not None
            first = res.advice_rounds[0] if res.advice_rounds else 0
            delta = max(0, legal - first)
            assert delta <= bound
            worst[n] = max(worst.get(n, 0), delta)
            vals.append(legal)
        legal_rounds[n] = vals
    ratios = [legal_rounds[256][s] / legal_rounds[16][s] for s in range(20)]
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio <= 2.5
    print(f"criterion 3: worst rounds-after-advice {worst}, "
          f"mean 256/16 ratio {mean_ratio:.2f}")


def test_criterion_04_malicious_advice_rejected_in_time():
    worst_lag = 0
    for strategy, n in itertools.product(MALICIOUS, (8, 32, 128)):
        deadline = 16 * _log2ceil(n)
        cap = 8 * n + deadline
        for seed in range(20):
            adj, _ = make_topology("random_connected", n, random.Random(seed))
            cfg = initial_configuration(adj)
            cfg.supervisor = engine_mod._scenario_supervisor(
                Scenario(n=n, supervisor=strategy, seed=seed), set(cfg.ids()))
            became = {}
            rejected_at = {}
            legal_at = None
            r = 0
            while r < cap:
                if is_legal(cfg):
                    legal_at = r
                    break
                stats = RoundStats()
                step_round(cfg, stats)
                r += 1
                for u, node in cfg.nodes.items():
                    if node.dual and u not in became:
                        became[u] = r
                for u in stats.rejected:
                    rejected_at.setdefault(u, r)
            assert legal_at is not None, (strategy, n, seed)
            for u, entered in became.items():
                rej = rejected_at.get(u)
                if rej is not None and rej <= entered + deadline:
                    worst_lag = max(worst_lag, rej - entered)
                    continue
                # advice that happens to be consistent is never rejected;
                # the run must then settle instead
                assert legal_at <= entered + deadline, (strategy, n, seed, u)
    print(f"criterion 4: all dual nodes rejected or settled in time, "
          f"worst rejection lag {worst_lag}")


def test_criterion_05_provenance_clean_and_control_dirty(monkeypatch):
    for mode, n in itertools.product(ALL_MODES, (8, 32)):
        for seed in range(3):
            res = run(Scenario(n=n, topology="random_connected",
                               supervisor=mode, corruption="all", seed=seed))
            assert res.metrics.sybil_violations == 0, (mode, n, seed)

    # negative control: a broken node that trusts Advice.par blindly
    real_round = engine_mod.node_round

    def leaky_round(state, delivered):
        for msg in delivered:
            if isinstance(msg, Advice) and msg.par is not None:
                state.base_mem.add(msg.par)
        return real_round(state, delivered)

    monkeypatch.setattr(engine_mod, "node_round", leaky_round)
    res = run(Scenario(n=16, topology="star", supervisor="sybil", seed=0))
    leaked = res.metrics.sybil_violations
    assert leaked > 0
    print(f"criterion 5: clean runs 0 violations, control leaked {leaked}")


def test_criterion_06_flyover_builds_on_schedule():
    for m in (4, 8, 16, 32, 64):
        cfg = seed_backbone(list(range(m)))
        flag_round = (m - 1).bit_length() - 1
        full = (m - 1).bit_length()
        left, right = cfg.nodes[0], cfg.nodes[m - 1]
        for i in range(full + 2):
            assert len(left.R) == min(i + 1, full), (m, i)
            assert len(right.L) == min(i + 1, full), (m, i)
            flagged = classify_structures(cfg).backbones[0].flyover
            assert flagged == (i >= flag_round), (m, i)
            step_round(cfg)
    print("criterion 6: endpoint shortcut counts and flyover flag exact "
          "for sizes 4..64")


def test_criterion_07_exit_propagates_fast():
    worst = {}
    for m in (8, 32, 128):
        bound = 2 * (m.bit_length() - 1) + 2
        for where in (0, m // 2, m - 1):
            cfg = seed_flyover(list(range(m)))
            cfg.nodes[where].exit = 1
            rejected = set()
            r = 0
            while len(rejected) < m:
                stats = RoundStats()
                step_round(cfg, stats)
                rejected |= stats.rejected
                r += 1
                assert r <= bound, (m, where, len(rejected))
            worst[m] = max(worst.get(m, 0), r)
    print(f"criterion 7: full teardown rounds {worst} within "
          "2*floor(log2(size))+2")


def test_criterion_08_far_pair_distance_floor():
    expected_d = {16: 11, 32: 19, 64: 35}
    for n, mode in itertools.product((16, 32, 64), ALL_MODES):
        for seed in range(2):
            res = run(Scenario(n=n, topology="far_pair", supervisor=mode,
                               seed=seed))
            assert res.pair_distances[0] == expected_d[n]
            assert engine_mod.distance_floor_check(res), (n, mode, seed)
            legal = res.metrics.rounds_to_legal
            assert legal is not None
            assert legal >= _log2ceil(expected_d[n]), (n, mode, seed)
    print("criterion 8: distance floor held on every round, legality never "
          "beat ceil(log2(D))")


def test_criterion_09_certificates_pin_the_sorted_path():
    # exhaustive over every (c_par, c_dist) assignment on a seeded flyover:
    # an assignment passes iff no node would trip any certificate clause;
    # every passing assignment must induce exactly the sorted-path links
    for n in (2, 3, 4, 5):
        cfg = seed_flyover(list(range(n)))
        vid_of = {u: cfg.nodes[u].vid for u in cfg.nodes}

        def land(u, tv):
            # follow the routed certificate until the target vid, as the
            # per-hop forwarding would; None means some hop has no next stop
            cur = u
            hops = 0
            nxt = next_stop(cfg.nodes[cur], tv)
            while nxt is not None:
                cur = nxt
                hops += 1
                if vid_of[cur] == tv:
                    return cur
                if hops > 4 * n:
                    return None
                nxt = next_stop(cfg.nodes[cur], tv)
            return None

        landing = {u: {tv: land(u, tv) for tv in range(n + 1)}
                   for u in range(1, n)}
        target_edges = {(i, i + 1) for i in range(n - 1)}
        non_root = list(range(1, n))
        accepted = 0
        checked = 0
        cd_space = list(itertools.product(range(-1, n), repeat=n - 1))
        canonical_seen = False
        for cp in itertools.product(range(n + 1), repeat=n - 1):
            lands = [landing[u][cp[i]] for i, u in enumerate(non_root)]
            checked += len(cd_space)
            if any(t is None for t in lands):
                continue
            ids_acc = {u: set() for u in range(n)}
            for u, t in zip(non_root, lands):
                ids_acc[t].add(u)
                ids_acc[u].add(t)
            sandwich_ok = all(
                len(s) <= 2 and (len(s) < 2 or min(s) < x < max(s))
                for x, s in ids_acc.items())
            if not sandwich_ok:
                continue
            edges = {tuple(sorted((u, t))) for u, t in zip(non_root, lands)}
            for cd in cd_space:
                ok = True
                for i, u in enumerate(non_root):
                    if cd[i] <= 0:
                        ok = False
                        break
                    t = lands[i]
                    t_dist = 0 if t == 0 else cd[non_root.index(t)]
                    if cd[i] != t_dist + 1:
                        ok = False
                        break
                if not ok:
                    continue
                accepted += 1
                assert edges == target_edges, (n, cp, cd)
                if (all(cp[i] == vid_of[u] - 1 for i, u in enumerate(non_root))
                        and all(cd[i] == vid_of[u] - 1
                                for i, u in enumerate(non_root))):
                    canonical_seen = True
        assert checked == ((n + 1) ** (n - 1)) * ((n + 1) ** (n - 1))
        assert accepted >= 1
        assert canonical_seen, n
        print(f"criterion 9: n={n} checked {checked} assignments, "
              f"{accepted} accepted, all matching the sorted path")


def test_criterion_10_base_algorithm_envelope():
    runs = 0
    worst_ratio = 0.0
    for n in (8, 16, 32, 64):
        for seed in range(25):
            sc = Scenario(n=n, topology="random_connected", supervisor="none",
                          seed=seed)
            res = run(sc)
            legal = res.metrics.rounds_to_legal
            assert legal is not None and legal <= 8 * n, (n, seed)
            adj, _ = make_topology(sc.topology, n, random.Random(seed))
            start = initial_configuration(adj)
            graph = communication_graph(start)
            gap = max(bfs_distances(graph, u)[u + 1] for u in range(n - 1))
            if gap > 1:
                assert legal >= _log2ceil(gap), (n, seed)
            worst_ratio = max(worst_ratio, legal / (8 * n))
            runs += 1
    assert runs == 100
    print(f"criterion 10: 100 unsupervised runs converged, worst envelope "
          f"use {worst_ratio:.2f} of 8n")
