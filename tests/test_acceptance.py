"""End-to-end acceptance checks, one test per shipped guarantee.

Each test sweeps the relevant scenario space, asserts the stated bound,
and prints the measured numbers so a log shows the actual margins.
"""

import itertools
import math

from linfly.core import bfs_distances, communication_graph
import linfly.engine as engine_mod
from linfly.engine import (
    CORRUPTIONS,
    SUPERVISOR_MODES,
    TOPOLOGIES,
    Scenario,
    classify_structures,
    default_max_rounds,
    rounds,
    run,
    seed_backbone,
    seed_flyover,
    start,
    step_round,
)
from linfly.protocol import Advice, RoundOutput, next_stop
from linfly.supervisor import STRATEGIES
from linfly.ttp import verify_all_trees


def _log2ceil(n):
    return math.ceil(math.log2(n))


def test_criterion_01_tree_linearization_exhaustive():
    # every rooted labelled tree on up to 8 vertices, all roots, both
    # root labels; verify_all_trees raises on any oracle failure
    count = verify_all_trees(8)
    assert count == 4446554
    print(f"criterion 1: {count} tree instances verified")


def test_criterion_02_connectivity_across_all_scenarios(monkeypatch):
    runs = 0
    bad = 0
    for topology, mode, corruption, n in itertools.product(
            TOPOLOGIES, SUPERVISOR_MODES, CORRUPTIONS, (2, 8, 32, 64)):
        if topology == "far_pair" and n < 4:
            n = 4
        res = run(Scenario(n=n, topology=topology, supervisor=mode,
                           corruption=corruption, seed=runs))
        runs += 1
        bad += res.metrics.connectivity_violations
    assert runs >= 500
    assert bad == 0

    # negative control: nodes that forget every neighbour and send nothing
    # leave the graph disconnected, and each of the 3 rounds counts it
    def forgetful_round(state, delivered):
        state.base_mem.clear()
        state.L.clear()
        state.R.clear()
        state.c_ids.clear()
        return state, RoundOutput()

    monkeypatch.setattr(engine_mod, "node_round", forgetful_round)
    res = run(Scenario(n=8, max_rounds=3))
    assert res.metrics.connectivity_violations == 3
    print(f"criterion 2: {runs} runs, 0 connectivity violations; "
          f"control counted 3")


def _criterion_03(topology):
    sizes = (8, 16, 32, 64, 128, 256)
    legal_rounds = {}
    worst = {}
    for n in sizes:
        bound = 16 * _log2ceil(n)
        vals = []
        for seed in range(20):
            res = run(Scenario(n=n, topology=topology,
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
    print(f"criterion 3 on {topology}: worst rounds-after-advice {worst}, "
          f"mean 256/16 ratio {mean_ratio:.2f}")


def test_criterion_03_honest_convergence_is_logarithmic():
    _criterion_03("random_connected")


def test_criterion_03_on_shuffled_path():
    # the start where unassisted runs need Theta(n) rounds: the same bound
    # and ratio must hold there
    _criterion_03("shuffled_path")


def test_shuffled_path_separates_advice_from_the_base_algorithm():
    # a path over permuted ids puts sorted neighbours far apart: honest
    # advice keeps criterion 03's bound while the unassisted base
    # algorithm falls further behind as n grows
    mean_ratio = {}
    for n in (32, 64, 128, 256):
        bound = 16 * _log2ceil(n)
        ratios = []
        for seed in range(3):
            honest = run(Scenario(n=n, topology="shuffled_path",
                                  supervisor="honest", seed=seed))
            legal = honest.metrics.rounds_to_legal
            assert legal is not None, (n, seed)
            first = honest.advice_rounds[0] if honest.advice_rounds else 0
            assert max(0, legal - first) <= bound, (n, seed)
            alone = run(Scenario(n=n, topology="shuffled_path",
                                 supervisor="none", seed=seed))
            # criterion 10's envelope, beyond the n it loops over
            assert alone.metrics.rounds_to_legal is not None, (n, seed)
            assert alone.metrics.rounds_to_legal <= 8 * n, (n, seed)
            ratios.append(alone.metrics.rounds_to_legal / legal)
        mean_ratio[n] = sum(ratios) / len(ratios)
    assert mean_ratio[256] > mean_ratio[32]
    print("shuffled_path: mean none/honest rounds-to-legal ratio "
          + ", ".join(f"n={n} {r:.2f}" for n, r in mean_ratio.items()))


# Per strategy, the checks of which at least one is among the causes of
# the first round where any check fires. sybil's phantom parent fails
# well_formed_advice, so its advice is dropped and no check ever fires.
# stale advises a perturbed snapshot and mostly settles uncaught; on this
# grid 7 of its 60 runs are caught, cert_parent_unreachable among the
# first causes of each.
FIRST_CAUSES = {
    "split": {"flyid"},
    "wrong_vids": {"cert_parent_unreachable", "vid"},
    "cycle": {"cert_target_dist"},
    "partial": {"flyid"},
    "sybil": set(),
    "stale": {"cert_parent_unreachable"},
}


def test_criterion_04_malicious_advice_rejected_in_time():
    assert set(FIRST_CAUSES) == set(STRATEGIES)
    worst_lag = 0
    for strategy, n in itertools.product(STRATEGIES, (8, 32, 128)):
        deadline = 16 * _log2ceil(n)
        cap = 8 * n + deadline
        for seed in range(20):
            cfg, pair = start(Scenario(n=n, supervisor=strategy, seed=seed))
            became = {}
            rejected_at = {}
            first_causes = None
            legal_at = None
            # legality is read at rounds 0..cap-1
            for r, stats, reading in rounds(cfg, pair, cap - 1):
                connected, _degree, legal, _distance = reading
                assert connected, (strategy, n, seed, r)
                if stats is not None:
                    assert stats.provenance_violations == 0, (strategy, n, seed, r)
                    for u, node in cfg.nodes.items():
                        if node.dual and u not in became:
                            became[u] = r
                    for u in stats.rejected:
                        rejected_at.setdefault(u, r)
                    if first_causes is None and stats.causes:
                        first_causes = set().union(*stats.causes.values())
                if legal:
                    legal_at = r
                    break
            assert legal_at is not None, (strategy, n, seed)
            where = (strategy, n, seed, first_causes)
            assert first_causes is None or first_causes & FIRST_CAUSES[strategy], where
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


def test_closure_legal_configurations_stay_legal():
    # the other half of self-stabilization: once legal, a run stays legal,
    # connected and clean for 4n more rounds
    runs = 0
    for topology, mode, n, seed in itertools.product(
            TOPOLOGIES, SUPERVISOR_MODES, (8, 16), (0, 1)):
        cfg, pair = start(Scenario(n=n, topology=topology, supervisor=mode,
                                   seed=seed))
        legal_at = None
        budget = default_max_rounds(n) + 4 * n
        for r, stats, reading in rounds(cfg, pair, budget):
            connected, _degree, legal, _distance = reading
            where = (topology, mode, n, seed, r, legal_at)
            assert connected, where
            assert stats is None or stats.provenance_violations == 0, where
            # completeness: uncorrupted honest advice, or none, fails no check
            if mode in ("honest", "none"):
                assert stats is None or not stats.causes, where
            if legal_at is None and legal:
                legal_at = r
            if legal_at is not None:
                assert legal, where
                if r == legal_at + 4 * n:
                    break
        assert legal_at is not None and r == legal_at + 4 * n, where
        runs += 1
    assert runs == 192
    print(f"closure: {runs} runs stayed legal, connected and clean "
          f"for 4n rounds past legality")


def test_criterion_05_provenance_clean_and_control_dirty(monkeypatch):
    for mode, n in itertools.product(SUPERVISOR_MODES, (8, 32)):
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


def test_flyover_levels_grow_one_per_round_in_full_runs():
    # the schedule criterion 6 pins on seeded backbones, over whole runs:
    # no node gains more than one shortcut level in any round
    runs = 0
    for mode, corruption, topology, n in itertools.product(
            SUPERVISOR_MODES, CORRUPTIONS, ("random_connected", "far_pair"), (16, 64)):
        cfg, pair = start(Scenario(n=n, topology=topology, supervisor=mode,
                                   corruption=corruption, seed=1))
        levels = {u: max(len(st.L), len(st.R)) for u, st in cfg.nodes.items()}
        for r, _stats, (_connected, _degree, legal, _distance) in rounds(
                cfg, pair, default_max_rounds(n)):
            for u, st in cfg.nodes.items():
                level = max(len(st.L), len(st.R))
                assert level <= levels[u] + 1, (mode, corruption, topology, n, r, u)
                levels[u] = level
            if legal:
                break
        assert legal, (mode, corruption, topology, n)
        runs += 1
    assert runs == 128
    print(f"flyover levels: {runs} runs to legality, no node gained more "
          "than one level in a round")


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
                rejected |= step_round(cfg).rejected
                r += 1
                assert r <= bound, (m, where, len(rejected))
            worst[m] = max(worst.get(m, 0), r)
    print(f"criterion 7: full teardown rounds {worst} within "
          "2*floor(log2(size))+2")


def test_criterion_08_far_pair_distance_floor():
    expected_d = {16: 11, 32: 19, 64: 35}
    for n, mode in itertools.product((16, 32, 64), SUPERVISOR_MODES):
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
    worst_ratio = {}
    for topology in ("random_connected", "shuffled_path"):
        worst_ratio[topology] = 0.0
        for n in (8, 16, 32, 64):
            for seed in range(25):
                sc = Scenario(n=n, topology=topology, supervisor="none",
                              seed=seed)
                res = run(sc)
                legal = res.metrics.rounds_to_legal
                assert legal is not None and legal <= 8 * n, (topology, n, seed)
                graph = communication_graph(start(sc)[0])
                gap = max(bfs_distances(graph, u)[u + 1] for u in range(n - 1))
                if gap > 1:
                    assert legal >= _log2ceil(gap), (topology, n, seed)
                worst_ratio[topology] = max(worst_ratio[topology], legal / (8 * n))
                runs += 1
    assert runs == 200
    print("criterion 10: 200 unsupervised runs converged, worst envelope use "
          + ", ".join(f"{t} {r:.2f}" for t, r in worst_ratio.items()) + " of 8n")
