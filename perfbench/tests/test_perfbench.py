"""Tests of the benchmark's own code: generators, output check, limits, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
pmcover serves here only as an oracle for the generated graphs and as the
source of real certificates.
"""

import importlib
import json
import random

import pytest

import run
from check import check_certificate
from tracing import Tracer
from workloads import WORKLOADS, barrier_blowup, format_graph, is_connected

import pmcover
from pmcover.decomposition import LeafClass, decompose
from pmcover.graphs import build_graph, is_r_graph

DEGREE = {"brick": 4, "cubic": 3, "blowup": 3}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inputs_are_connected_regular_r_graphs_of_even_order(name):
    for index in range(3):
        n, edges = WORKLOADS[name].instance(seed=0, index=index)
        assert n % 2 == 0
        assert is_connected(n, edges)
        degree = [0] * n
        for u, v in edges:
            assert u != v
            degree[u] += 1
            degree[v] += 1
        assert set(degree) == {DEGREE[name]}
        check = is_r_graph(build_graph(n, edges))
        assert check.ok and check.r == DEGREE[name]


def test_inputs_depend_only_on_workload_seed_and_index():
    workload = WORKLOADS["brick"]
    assert workload.instance(3, 7) == workload.instance(3, 7)
    assert workload.instance(3, 7) != workload.instance(4, 7)


@pytest.mark.parametrize("k", [3, 6])
def test_blowup_with_k_pieces_decomposes_to_k_petersen_leaves(k):
    edges = barrier_blowup(k, random.Random(k))
    tree = decompose(build_graph(10 * k, edges))
    kinds = [leaf.leaf_class for leaf in tree.leaves()]
    assert kinds.count(LeafClass.PETERSEN_BRICK) == k
    assert tree.petersen_count == k


def _solve(tmp_path, n, edges):
    cli = importlib.import_module("pmcover.cli")
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(format_graph(n, edges))
    outcome = run.run_instance(cli, graph_path, tmp_path / "c.json", run.INSTANCE_LIMIT_S)
    assert outcome.status == "ok", outcome.detail
    return graph_path.read_text(), outcome.cert_text


@pytest.mark.parametrize("name", ["brick", "blowup"])
def test_check_rejects_one_mutated_coefficient_or_term_edge(tmp_path, name):
    graph_text, cert_text = _solve(tmp_path, *WORKLOADS[name].instance(seed=0, index=0))
    assert check_certificate(graph_text, cert_text) == []

    cert = json.loads(cert_text)
    cert["terms"][0]["twice_value"] += 2
    assert check_certificate(graph_text, json.dumps(cert))

    cert = json.loads(cert_text)
    edges = cert["terms"][0]["edges"]
    edges[0] = next(e for e in range(cert["graph"]["m"]) if e not in edges)
    assert check_certificate(graph_text, json.dumps(cert))


def test_check_rejects_a_coefficient_that_is_neither_integral_nor_one_half(tmp_path):
    graph_text, cert_text = _solve(tmp_path, *WORKLOADS["blowup"].instance(seed=0, index=0))
    cert = json.loads(cert_text)
    half = next(t for t in cert["terms"] if t["twice_value"] == 1)
    half["twice_value"] = -1
    assert any("+1/2" in p for p in check_certificate(graph_text, json.dumps(cert)))


def test_timeout_is_a_failure_timed_at_the_limit(tmp_path):
    cli = importlib.import_module("pmcover.cli")
    n, edges = WORKLOADS["blowup"].instance(seed=0, index=1)
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(format_graph(n, edges))
    outcome = run.run_instance(cli, graph_path, tmp_path / "c.json", 0.01)
    assert outcome.status == "timeout"
    assert outcome.solve_s == 0.01
    assert not outcome.wrong


def test_tail_is_the_sample_with_ten_samples_above_it():
    assert run.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([float(x) for x in range(1, 531)]) == (100 * 520 / 530, 520.0)
    assert run.tail([float(x) for x in range(1, 16)]) == (100 * 8 / 15, 8.0)


def test_tracing_counts_calls_and_leaves_certificates_and_bindings_unchanged(tmp_path):
    original = pmcover.decomposition.is_r_graph
    graph_text, plain = _solve(tmp_path, *WORKLOADS["blowup"].instance(seed=0, index=0))
    tracer = Tracer(pmcover)
    tracer.install()
    try:
        assert pmcover.decomposition.is_r_graph is not original
        _, traced = _solve(tmp_path, *WORKLOADS["blowup"].instance(seed=0, index=0))
    finally:
        tracer.uninstall()
    assert pmcover.decomposition.is_r_graph is original
    assert traced == plain
    stats = tracer.stats
    assert stats["decomposition.decompose"].max_active >= 2
    assert stats["matchings.maximum_matching"].calls > 0
    assert stats["leaf_solvers.petersen_solve"].calls == 6
    assert all(s.self_s >= 0 for s in stats.values())
