"""Acceptance gate: one test per criterion, exact tolerances, no slack.

Each test prints a single `criterion N (...): PASS` line on success; a failed
assertion leaves the criterion marked FAILED by pytest itself.
"""

from __future__ import annotations

import random
import time

from pmcover import (
    LeafClass,
    cut_from_shore,
    find_nontrivial_tight_cut,
    is_r_graph,
    min_odd_cut,
    pair_sequences,
    solve_r_graph,
    terms_independent,
    verify_cover,
)
from pmcover.certificate import certificate_solution, deserialize
from pmcover.cli import format_graph, gen_r_graph, main
from pmcover.matchings import maximum_matching

import corpus
import oracles
from oracles import is_tight_cut


def _solved_corpus():
    """Every corpus r-graph together with its solved decomposition tree."""
    out = []
    for name, g in corpus.structured_instances() + corpus.random_instances():
        sol, tree = solve_r_graph(g)
        out.append((name, g, sol, tree))
    return out


def test_criterion_1_petersen_reproduction(tmp_path, capsys):
    graph_path = tmp_path / "petersen.txt"
    graph_path.write_text(format_graph(corpus.petersen()))
    cert_path = tmp_path / "petersen.cert.json"

    start = time.perf_counter()
    exit_code = main(["solve", "-i", str(graph_path), "-o", str(cert_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    assert exit_code == 0
    assert elapsed < 1.0
    cert = deserialize(cert_path.read_text())
    assert len(cert.terms) == 6
    assert all(twice == 1 for _, twice in cert.terms)  # every coefficient +1/2
    assert cert.report.support == 6 == cert.m - cert.n + 1
    assert cert.p == 1
    assert cert.report.halves_count == 6 == 6 * cert.p
    assert cert.report.independent
    assert cert.report.mandatory_ok

    g = corpus.petersen()
    loaded = certificate_solution(g, cert)
    assert terms_independent(g, loaded.matchings)  # rank 6 of 6
    print(f"criterion 1 (Petersen reproduction): PASS in {elapsed:.3f}s")


def test_criterion_2_integral_instances():
    timings = {}

    start = time.perf_counter()
    k4_sol, _ = solve_r_graph(corpus.k4())
    timings["k4"] = time.perf_counter() - start
    assert sorted(c for _, c in k4_sol.terms) == [2, 2, 2]

    start = time.perf_counter()
    prism_sol, _ = solve_r_graph(corpus.prism())
    timings["prism"] = time.perf_counter() - start
    assert all(c % 2 == 0 for _, c in prism_sol.terms)
    assert prism_sol.support <= 4

    for name, g, r in (("k33", corpus.k33(), 3), ("c6", corpus.c6(), 2)):
        start = time.perf_counter()
        sol, tree = solve_r_graph(g)
        timings[name] = time.perf_counter() - start
        assert all(leaf.leaf_class is LeafClass.BRACE for leaf in tree.leaves())
        assert all(c == 2 for _, c in sol.terms)  # 0/1 solution
        assert len(sol.terms) == r

    assert all(t < 1.0 for t in timings.values()), timings
    worst = max(timings.values())
    print(f"criterion 2 (integral instances): PASS, slowest {worst:.3f}s")


def test_criterion_3_randomized_pipeline():
    ns = (4, 6, 8, 10, 12, 14)
    rs = (2, 3, 4, 5)
    seeds = range(9)
    brick_kinds = {LeafClass.PETERSEN_BRICK, LeafClass.OTHER_BRICK}

    start = time.perf_counter()
    count = 0
    brick_count = 0
    for n in ns:
        for r in rs:
            for seed in seeds:
                g = gen_r_graph(n, r, seed)
                sol, tree = solve_r_graph(g)
                report = verify_cover(g, sol, tree)
                label = f"n={n} r={r} seed={seed}"
                assert report.coverage_ok, label
                assert report.each_term_is_pm, label
                assert report.halves_exact, label
                assert report.halves_bound_ok, label
                assert report.independent, label
                assert report.coeff_sum_is_r, label
                if any(leaf.leaf_class in brick_kinds for leaf in tree.leaves()):
                    brick_count += 1
                    assert sol.support <= g.m - g.vertex_count + 1, label
                count += 1
    elapsed = time.perf_counter() - start

    assert count >= 200
    assert brick_count > 0
    assert elapsed < 120.0
    print(
        f"criterion 3 (randomized pipeline): PASS, {count} instances "
        f"({brick_count} with bricks) in {elapsed:.1f}s"
    )


def test_criterion_4_tightness_oracle_equivalence():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(4, 6, 8, 10, 12), rs=(2, 3), seeds=range(2)
    )
    instances.append(("bridged", corpus.bridged_cubic()))
    cuts_checked = 0
    graphs_checked = 0
    for name, g in instances:
        if g.vertex_count > 12:
            continue
        matchings = oracles.all_pms(g)
        mate = maximum_matching(g.vertex_count, g.adjacency)
        for shore in oracles.odd_shores(g):
            cut = cut_from_shore(g, shore)
            assert is_tight_cut(g, cut, mate) == oracles.is_tight(g, cut, matchings), (
                name,
                sorted(shore),
            )
            cuts_checked += 1
        if is_r_graph(g).ok:
            found = find_nontrivial_tight_cut(g, mate)
            swept = oracles.exhaustive_tight_shores(g)
            assert (found is not None) == (len(swept) > 0), name
        graphs_checked += 1
    assert graphs_checked >= 10
    print(
        f"criterion 4 (tightness oracle): PASS, {cuts_checked} odd cuts "
        f"on {graphs_checked} graphs"
    )


def test_criterion_5_min_odd_cut_oracle_equivalence():
    instances = corpus.structured_instances() + corpus.random_instances(
        ns=(4, 6, 8, 10), rs=(2, 3, 4, 5), seeds=range(2)
    )
    instances.append(("bridged", corpus.bridged_cubic()))
    checked = 0
    for name, g in instances:
        if g.vertex_count > 10:
            continue
        size, _ = min_odd_cut(g)
        assert size == oracles.min_odd_cut_size(g), name
        checked += 1
    assert checked >= 10
    print(f"criterion 5 (min odd cut oracle): PASS on {checked} graphs")


def test_criterion_6_merge_crosscheck():
    internal_total = 0
    for _, _, _, tree in _solved_corpus():
        internal_total += oracles.assert_solved_tree(tree)
    assert internal_total > 0
    print(f"criterion 6 (merge cross-check): PASS on {internal_total} internal nodes")


def test_criterion_7_pair_sequences_properties():
    rng = random.Random(20260816)
    entries = [1, 2, 4, 6]  # doubled: a half, then the integers 1, 2 and 3
    trials = 10_000
    for _ in range(trials):
        a = [rng.choice(entries) for _ in range(rng.randint(1, 8))]
        b = [rng.choice(entries) for _ in range(rng.randint(1, 8))]
        diff = sum(a) - sum(b)
        short = b if diff > 0 else a
        diff = abs(diff)
        while diff > 0:
            step = 1 if diff == 1 else min(6, diff - diff % 2)
            short.append(step)
            diff -= step
        a.sort()
        b.sort()

        triples = pair_sequences(a, b)
        assert len(triples) <= len(a) + len(b) - 1
        got_a = [0] * len(a)
        got_b = [0] * len(b)
        for i, j, value in triples:
            assert value == 1 or (value % 2 == 0 and value > 0)
            got_a[i - 1] += value
            got_b[j - 1] += value
        assert got_a == a
        assert got_b == b
    print(f"criterion 7 (pair_sequences properties): PASS on {trials} pairs")


def test_criterion_8_norm_bound_report():
    violations = []
    other_brick_leaves = 0
    brick_free_graphs = 0
    for name, g, sol, tree in _solved_corpus():
        leaves = list(tree.leaves())
        for leaf in leaves:
            if leaf.leaf_class is not LeafClass.OTHER_BRICK:
                continue
            other_brick_leaves += 1
            lg = leaf.graph
            bound = 2 ** (lg.m - lg.vertex_count + 1)
            if leaf.solution.inf_norm() > 2 * bound:
                violations.append(
                    f"{name}: brick leaf norm {leaf.solution.inf_norm()}/2 > {bound}"
                )
        if all(leaf.leaf_class is LeafClass.BRACE for leaf in leaves):
            brick_free_graphs += 1
            if sol.inf_norm() > 2:
                violations.append(f"{name}: brick-free norm {sol.inf_norm()}/2 > 1")
        report = verify_cover(g, sol, tree)  # advisory flag, never a crash
        assert report.mandatory_ok, name
    for finding in violations:
        print(f"advisory finding: {finding}")
    assert other_brick_leaves > 0 and brick_free_graphs > 0
    assert violations == []
    print(
        f"criterion 8 (norm bound report): PASS, {other_brick_leaves} brick leaves "
        f"and {brick_free_graphs} brick-free graphs within bounds"
    )
