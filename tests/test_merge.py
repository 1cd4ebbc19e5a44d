from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcover import cli, decomposition, graphs, leaf_solvers, merge, verify_cover
from pmcover.cover import exact_cover, in_class, terms_independent
from pmcover.decomposition import decompose
from pmcover.leaf_solvers import brace_solve
from pmcover.merge import improved_merge, pair_sequences, signed_split, solve_r_graph

import corpus
import oracles


def _keys(n):
    return [frozenset({100 + i}) for i in range(n)]


def test_signed_split_sorts_each_sign():
    a, b, c, d = _keys(4)
    positives, negatives = signed_split([(a, 2), (b, -2), (c, 1), (d, 1)])
    assert positives == [(c, 1), (d, 1), (a, 2)]
    assert negatives == [(b, 2)]


def test_balance_negatives_worked_example():
    # the left side has the smaller negative mass, so its largest positive
    # 2 is split as 3 - 1; the right side is paired as it stands
    a, b, c, d = _keys(4)
    merged = merge._merge_group([(a, 4), (b, -2)], [(c, 6), (d, -4)])
    assert merged == [(a | c, 6), (a | d, -2), (b | d, -2)]


def test_balance_negatives_no_op_when_equal():
    a, b, c, d = _keys(4)
    merged = merge._merge_group([(a, 4), (b, -2)], [(c, 4), (d, -2)])
    assert merged == [(a | c, 4), (b | d, -2)]


def test_balance_negatives_all_halves_corner():
    # largest positive is 1/2: splitting it would leave the class, so a
    # +delta/-delta pair is appended on the largest half's key instead
    keys = _keys(5)
    positives, negatives = signed_split([(k, 1) for k in keys[:4]] + [(keys[4], -2)])
    merge._augment(positives, negatives, 2)
    assert [v for _, v in positives] == [1, 1, 1, 1, 2]
    assert [v for _, v in negatives] == [2, 2]
    # the duplicated key keeps its overall weight
    dup = positives[-1][0]
    total = sum(v for k, v in positives if k == dup) - sum(v for k, v in negatives if k == dup)
    assert total == 1
    assert all(in_class(v) for _, v in positives)


def _marginals(merged, keys):
    """Each key's total over the merged terms whose union contains it."""
    return {key: sum(twice for union, twice in merged if key <= union) for key in keys}


def test_merge_group_all_halves_branch_keeps_every_marginal():
    # the right side, two halves and no negatives, must take on the left's
    # negative mass 2 (one -1 term) while all of its positives are halves
    left_terms = [(frozenset({i}), 1) for i in range(4)] + [(frozenset({4}), -2)]
    right_terms = [(frozenset({10}), 1), (frozenset({11}), 1)]
    positives, negatives = signed_split(right_terms)
    merge._augment(positives, negatives, 2)
    assert positives == [(frozenset({10}), 1), (frozenset({11}), 1), (frozenset({11}), 2)]
    assert negatives == [(frozenset({11}), 2)]

    merged = merge._merge_group(left_terms, right_terms)
    assert all(in_class(twice) for _, twice in merged)
    for terms in (left_terms, right_terms):
        assert _marginals(merged, [k for k, _ in terms]) == dict(terms)


def test_balance_rejects_empty_positives():
    a, b = _keys(2)
    with pytest.raises(ValueError, match="no positive"):
        merge._merge_group([], [(a, 4), (b, -2)])


# doubled in-class values: a half, the integers 1 and 2, and -1 and -2
group_entry = st.sampled_from([1, 2, 4, -2, -4])


def _group(values, offset):
    """Terms on keys offset, offset + 1, ... whose doubled values sum to 2."""
    values = list(values)
    rest = 2 - sum(values)
    if rest % 2:
        values.append(1)
        rest -= 1
    if rest:
        values.append(rest)
    return [(frozenset({offset + k}), v) for k, v in enumerate(values)]


@given(st.lists(group_entry, max_size=6), st.lists(group_entry, max_size=6))
@settings(max_examples=500, deadline=None)
def test_merge_group_properties(left_values, right_values):
    left_terms = _group(left_values, 0)
    right_terms = _group(right_values, 100)
    merged = merge._merge_group(left_terms, right_terms)
    assert all(twice != 0 and in_class(twice) for _, twice in merged)
    for terms in (left_terms, right_terms):
        assert _marginals(merged, [k for k, _ in terms]) == dict(terms)


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
