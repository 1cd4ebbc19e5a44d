from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcover import cli, decomposition, graphs, leaf_solvers, merge, verify_cover
from pmcover.cover import exact_cover, in_class, terms_independent
from pmcover.decomposition import ContractionMap, decompose
from pmcover.leaf_solvers import brace_solve
from pmcover.merge import (
    SignedSequences,
    balance_negatives,
    improved_merge,
    pair_sequences,
    signed_split,
    solve_r_graph,
)

import corpus
import oracles


def _keys(n):
    return [frozenset({100 + i}) for i in range(n)]


def test_signed_split_sorts_and_validates():
    a, b, c, d = _keys(4)
    seqs = signed_split([(a, 2), (b, -2), (c, 1), (d, 1)])
    assert [v for _, v in seqs.positives] == [1, 1, 2]
    assert [v for _, v in seqs.negatives] == [2]
    assert seqs.negative_mass == 2


def test_signed_split_rejects_out_of_class():
    a, b = _keys(2)
    # doubled ints cannot hold 1/3 + 2/3 at all; 3/2 and -1/2 are the odd
    # doubled values besides +1/2
    with pytest.raises(ValueError, match="neither integral nor"):
        signed_split([(a, 3), (b, -1)])
    with pytest.raises(ValueError, match="neither integral nor"):
        signed_split([(a, -1), (b, 3)])
    with pytest.raises(ValueError, match="sum"):
        signed_split([(a, 4)])


def test_balance_negatives_worked_example():
    a, b, c, d = _keys(4)
    left = signed_split([(a, 4), (b, -2)])
    right = signed_split([(c, 6), (d, -4)])
    new_left, new_right = balance_negatives(left, right)
    assert new_right == right
    assert [v for _, v in new_left.positives] == [6]
    assert new_left.positives[0][0] == a
    assert [v for _, v in new_left.negatives] == [2, 2]
    assert {k for k, _ in new_left.negatives} == {a, b}


def test_balance_negatives_no_op_when_equal():
    a, b, c, d = _keys(4)
    left = signed_split([(a, 4), (b, -2)])
    right = signed_split([(c, 4), (d, -2)])
    assert balance_negatives(left, right) == (left, right)


def test_balance_negatives_all_halves_corner():
    # largest positive is 1/2: splitting it would leave the class, so a
    # +delta/-delta pair is appended on the largest half's key instead
    keys = _keys(6)
    left_terms = [(keys[i], 1) for i in range(4)] + [(keys[4], -2)]
    right_terms = [(keys[5], 6), (_keys(7)[6], -4)]
    left, right = balance_negatives(signed_split(left_terms), signed_split(right_terms))
    assert [v for _, v in left.positives] == [1, 1, 1, 1, 2]
    assert [v for _, v in left.negatives] == [2, 2]
    # the duplicated key keeps its overall weight
    dup = left.positives[-1][0]
    total = sum(v for k, v in left.positives if k == dup) - sum(
        v for k, v in left.negatives if k == dup
    )
    assert total == 1
    assert all(v == 1 or v % 2 == 0 for _, v in left.positives)


def test_merge_group_all_halves_branch_keeps_every_marginal():
    # the right side, two halves and no negatives, must take on the left's
    # negative mass 2 (one -1 term) while all of its positives are halves
    left_keys = [frozenset({i}) for i in range(5)]
    right_keys = [frozenset({i}) for i in range(2)]
    left_terms = [(k, 1) for k in left_keys[:4]] + [(left_keys[4], -2)]
    right_terms = [(k, 1) for k in right_keys]
    left, right = balance_negatives(signed_split(left_terms), signed_split(right_terms))
    assert left == signed_split(left_terms)
    largest = signed_split(right_terms).positives[-1][0]
    assert [v for _, v in right.positives] == [1, 1, 2]
    assert right.positives[-1] == (largest, 2) and right.negatives == ((largest, 2),)

    # child edge e of the right side is parent edge 10 + e, so every union
    # splits back into its two child matchings
    left_map = ContractionMap(tuple(range(10)), 0, ())
    right_map = ContractionMap(tuple(range(10, 20)), 0, ())
    merged = merge._merge_group(left_terms, right_terms, left_map, right_map)
    assert all(in_class(twice) for _, twice in merged)
    for side, terms, lift in (
        (left, left_terms, lambda m: frozenset(e for e in m if e < 10)),
        (right, right_terms, lambda m: frozenset(e - 10 for e in m if e >= 10)),
    ):
        for sign, entries in ((1, side.positives), (-1, side.negatives)):
            marginal: Counter = Counter()
            for union, twice in merged:
                if twice * sign > 0:
                    marginal[lift(union)] += abs(twice)
            expected: Counter = Counter()
            for key, value in entries:
                expected[key] += value
            assert marginal == expected
        totals: Counter = Counter()
        for union, twice in merged:
            totals[lift(union)] += twice
        assert totals == dict(terms)


def test_balance_rejects_empty_positives():
    empty = SignedSequences((), ())
    with pytest.raises(ValueError):
        balance_negatives(empty, signed_split([(_keys(1)[0], 4), (_keys(2)[1], -2)]))


def test_pair_sequences_frozen_examples():
    assert pair_sequences([6], [2, 4]) == [(1, 1, 2), (1, 2, 4)]
    assert pair_sequences([2, 4], [2, 4]) == [(1, 1, 2), (2, 2, 4)]
    assert pair_sequences([1, 1, 2], [1, 1, 2]) == [(1, 1, 1), (2, 2, 1), (3, 3, 2)]


def test_pair_sequences_rejections():
    with pytest.raises(ValueError, match="sums differ"):
        pair_sequences([2], [4])
    with pytest.raises(ValueError, match="not sorted"):
        pair_sequences([4, 2], [6])
    with pytest.raises(ValueError, match="empty"):
        pair_sequences([], [2])
    with pytest.raises(ValueError, match="outside"):
        pair_sequences([3], [3])
    with pytest.raises(ValueError, match="outside"):
        pair_sequences([-2, 4], [2])


# doubled values: a half, then the integers 1, 2 and 3
entry = st.sampled_from([1, 2, 4, 6])


@given(st.lists(entry, min_size=1, max_size=8), st.lists(entry, min_size=1, max_size=8))
@settings(max_examples=500, deadline=None)
def test_pair_sequences_properties(a, b):
    a = sorted(a)
    b = sorted(b)
    total_a, total_b = sum(a), sum(b)
    # equalize sums by padding the smaller side with integers, retrying on halves
    diff = abs(total_a - total_b)
    if diff != 0:
        shorter = a if total_a < total_b else b
        if diff % 2:
            shorter.append(1)
            diff -= 1
        if diff > 0:
            shorter.append(diff)
    a, b = sorted(a), sorted(b)
    assert sum(a) == sum(b)
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


def test_improved_merge_c6_by_hand():
    g = corpus.c6()
    tree = decompose(g)
    assert tree.cut is not None
    left = brace_solve(tree.left.graph)
    right = brace_solve(tree.right.graph)
    merged = improved_merge(g, tree.cut, left, right, tree.left_map, tree.right_map)
    assert sorted(sorted(m) for m, _ in merged.terms) == [[0, 2, 4], [1, 3, 5]]
    assert all(c == 2 for _, c in merged.terms)


def test_product_merge_agrees_on_integral_instances():
    g = corpus.c6()
    tree = decompose(g)
    left = brace_solve(tree.left.graph)
    right = brace_solve(tree.right.graph)
    improved = improved_merge(g, tree.cut, left, right, tree.left_map, tree.right_map)
    product = oracles.product_merge(tree.cut, left, right, tree.left_map, tree.right_map)
    assert improved.coverage() == [2] * g.m
    assert oracles.edge_sums_are_one(g, product)
    assert sorted(product, key=lambda t: sorted(t[0])) == sorted(
        oracles.halved(improved.terms), key=lambda t: sorted(t[0])
    )


def test_product_merge_leaves_class_where_improved_does_not():
    # two half-coefficient children multiply into quarters under the product
    # rule; the pairing merge keeps every coefficient in the class
    sol, tree = solve_r_graph(corpus.double_petersen_splice())
    deepest = None
    for node in tree.internal_nodes():
        left_sol = node.left.solution
        right_sol = node.right.solution
        if left_sol.halves_count and right_sol.halves_count:
            deepest = node
    assert deepest is not None
    product = oracles.product_merge(
        deepest.cut,
        deepest.left.solution,
        deepest.right.solution,
        deepest.left_map,
        deepest.right_map,
    )
    assert oracles.edge_sums_are_one(deepest.graph, product)
    assert any(c.denominator == 4 for _, c in product)
    improved = deepest.solution
    assert all(c == 1 or c % 2 == 0 for _, c in improved.terms)


def test_merge_requires_valid_child_covers():
    g = corpus.c6()
    tree = decompose(g)
    left = brace_solve(tree.left.graph)
    right = brace_solve(tree.right.graph)
    broken = exact_cover(tree.left.graph, left.terms)
    bad_terms = ((broken.terms[0][0], 4),) + broken.terms[1:]
    from pmcover import CoverSolution

    with pytest.raises(ValueError):
        improved_merge(
            g,
            tree.cut,
            CoverSolution(tree.left.graph, bad_terms),
            right,
            tree.left_map,
            tree.right_map,
        )


def test_solve_r_graph_crosscheck_corpus():
    instances = corpus.structured_instances() + corpus.random_instances(seeds=range(2))
    internal_total = 0
    for name, g in instances:
        sol, tree = solve_r_graph(g)
        report = verify_cover(g, sol, tree)
        assert report.mandatory_ok, name
        internal_total += oracles.assert_solved_tree(tree)
    assert internal_total > 0


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs one entry per call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_solve_r_graph_checks_the_input_once(monkeypatch):
    r_graph = _counted(monkeypatch, decomposition, "is_r_graph")
    gomory_hu = _counted(monkeypatch, graphs, "gomory_hu_tree")
    # a cubic input is checked by a bridge search, with no Gomory-Hu tree
    for g, trees in ((cli.gen_r_graph(10, 4, seed=1), 1), (corpus.double_petersen_splice(), 0)):
        r_graph.clear()
        gomory_hu.clear()
        solve_r_graph(g)
        assert len(r_graph) == 1
        assert len(gomory_hu) == trees


def test_solve_r_graph_validates_each_cover_once(monkeypatch):
    # three leaf solves and two merges: each builds one cover and checks it once
    merges = _counted(monkeypatch, merge, "exact_cover")
    leaves = _counted(monkeypatch, leaf_solvers, "exact_cover")
    _, tree = solve_r_graph(corpus.double_petersen_splice())
    nodes = [tree] + [n for node in tree.internal_nodes() for n in (node.left, node.right)]
    assert len(nodes) == 5
    assert len(merges) == 2 and len(leaves) == 3
    checked = sorted((args[0].vertex_count, args[0].edges) for args in merges + leaves)
    assert checked == sorted((node.graph.vertex_count, node.graph.edges) for node in nodes)


def test_solve_r_graph_rejects_non_r_graph():
    with pytest.raises(ValueError, match="odd cut"):
        solve_r_graph(corpus.bridged_cubic())


def test_merge_outputs_are_independent():
    for name, g in (("pet_splice", corpus.k33_petersen_splice()),
                    ("brick_splice", corpus.k33_brick_splice())):
        sol, tree = solve_r_graph(g)
        assert terms_independent(g, sol.matchings), name
