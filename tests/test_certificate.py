from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from pmcover import (
    CoverSolution,
    build_certificate,
    build_graph,
    certificate_solution,
    deserialize,
    serialize,
    solve_r_graph,
    verify_certificate,
    verify_cover,
)
from pmcover.certificate import CertificateError, FingerprintMismatch
from pmcover.decomposition import LeafClass
from pmcover.cli import gen_r_graph

import corpus


def _certificate(g):
    sol, tree = solve_r_graph(g)
    return build_certificate(g, sol, tree), sol, tree


# sha256 over the serialized certificates of the structured corpus and
# corpus.random_instances(), in that order.  A change that alters any
# certificate byte must say so and update this digest.
CORPUS_CERTIFICATES_SHA256 = "3762abb30fbc6c5fef55292861cbae5277341a1186eae2162e64429902cc1bea"


def test_corpus_certificates_are_pinned():
    digest = hashlib.sha256()
    for _, g in corpus.structured_instances() + corpus.random_instances():
        digest.update(serialize(_certificate(g)[0]).encode())
    assert digest.hexdigest() == CORPUS_CERTIFICATES_SHA256


def test_verify_cover_petersen_frozen():
    g = corpus.petersen()
    sol, tree = solve_r_graph(g)
    report = verify_cover(g, sol, tree)
    assert report.mandatory_ok
    assert report.halves_count == 6
    assert report.support == 6 == g.m - g.vertex_count + 1
    assert report.inf_norm == 1  # doubled: the norm is 1/2
    assert report.support_bound_ok and report.norm_bound_ok


def test_verify_cover_k4_frozen():
    g = corpus.k4()
    sol, tree = solve_r_graph(g)
    report = verify_cover(g, sol, tree)
    assert report.mandatory_ok
    assert report.halves_count == 0
    assert report.support == 3
    assert report.inf_norm == 2  # doubled: the norm is 1


def test_support_advisory_holds_on_the_corpus():
    # dim lin(PM) = m - n + 2 - b (Edmonds-Lovasz-Pulleyblank), b the brick
    # count; the braces C4 and C6 have b = 0 and covers of support 2
    for name, g in corpus.structured_instances():
        sol, tree = solve_r_graph(g)
        report = verify_cover(g, sol, tree)
        b = sum(1 for leaf in tree.leaves() if leaf.leaf_class is not LeafClass.BRACE)
        assert report.support_bound_ok, name
        assert report.support <= g.m - g.vertex_count + 2 - b, name


def test_tampered_coefficient_fails_coverage():
    g = corpus.k4()
    sol, tree = solve_r_graph(g)
    tampered = ((sol.terms[0][0], 4),) + sol.terms[1:]
    report = verify_cover(g, CoverSolution(g, tampered), tree)
    assert not report.coverage_ok
    assert not report.mandatory_ok
    assert report.each_term_is_pm  # the matchings themselves are untouched


def test_certificate_round_trip():
    for g in (corpus.petersen(), corpus.k33_petersen_splice()):
        cert, _, _ = _certificate(g)
        assert deserialize(serialize(cert)) == cert


K4_CERTIFICATE = """{
  "graph": {"n":4,"m":6,"r":3,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]},
  "terms": [{"edges":[0,5],"twice_value":2},{"edges":[1,4],"twice_value":2},{"edges":[2,3],"twice_value":2}],
  "tree": {"leaves":[{"class":"OtherBrick","n":4,"m":6}],"p":0},
  "report": {"coverage_ok":true,"each_term_is_pm":true,"halves_count":0,"halves_exact":true,"halves_bound_ok":true,"support":3,"support_bound_ok":true,"independent":true,"twice_inf_norm":2,"norm_bound_ok":true,"coeff_sum_is_r":true}
}
"""


K33_BRICK_SPLICE_CERTIFICATE = """{
  "graph": {"n":16,"m":24,"r":3,"edges":[[0,1],[1,2],[0,5],[1,6],[2,7],[3,5],[5,7],[4,7],[4,6],[3,6],[2,9],[3,10],[8,9],[9,10],[8,10],[11,13],[11,14],[11,15],[12,13],[12,14],[12,15],[0,13],[4,14],[8,15]]},
  "terms": [{"edges":[3,5,7,10,14,16,20,21],"twice_value":2},{"edges":[2,3,4,11,12,17,18,22],"twice_value":2},{"edges":[0,6,8,10,11,15,19,23],"twice_value":2},{"edges":[1,2,7,9,13,15,19,23],"twice_value":2},{"edges":[2,3,7,10,11,15,19,23],"twice_value":-2}],
  "tree": {"leaves":[{"class":"OtherBrick","n":12,"m":18},{"class":"Brace","n":6,"m":9}],"p":0},
  "report": {"coverage_ok":true,"each_term_is_pm":true,"halves_count":0,"halves_exact":true,"halves_bound_ok":true,"support":5,"support_bound_ok":true,"independent":true,"twice_inf_norm":2,"norm_bound_ok":true,"coeff_sum_is_r":true}
}
"""


DOUBLE_PETERSEN_SPLICE_CERTIFICATE = """{
  "graph": {"n":22,"m":33,"r":3,"edges":[[0,1],[1,2],[2,3],[0,5],[1,6],[2,7],[3,8],[4,6],[6,8],[5,8],[5,7],[4,7],[9,10],[10,11],[11,12],[9,14],[10,15],[11,16],[12,17],[13,15],[15,17],[14,17],[14,16],[13,16],[18,19],[18,20],[18,21],[0,19],[3,20],[4,21],[9,19],[12,20],[13,21]]},
  "terms": [{"edges":[1,6,7,10,12,17,19,21,26,27,31],"twice_value":1},{"edges":[2,4,9,11,13,15,20,23,26,27,31],"twice_value":1},{"edges":[0,5,7,9,12,14,20,22,24,28,32],"twice_value":1},{"edges":[1,3,8,11,15,16,17,18,24,28,32],"twice_value":1},{"edges":[0,2,8,10,13,18,19,22,25,29,30],"twice_value":1},{"edges":[3,4,5,6,14,16,21,23,25,29,30],"twice_value":1}],
  "tree": {"leaves":[{"class":"PetersenBrick","n":10,"m":15},{"class":"PetersenBrick","n":10,"m":15},{"class":"Brace","n":6,"m":9}],"p":2},
  "report": {"coverage_ok":true,"each_term_is_pm":true,"halves_count":6,"halves_exact":true,"halves_bound_ok":true,"support":6,"support_bound_ok":true,"independent":true,"twice_inf_norm":1,"norm_bound_ok":true,"coeff_sum_is_r":true}
}
"""


@pytest.mark.parametrize(
    "graph, expected",
    [
        (corpus.k4, K4_CERTIFICATE),
        # an integral cover with a -1 term
        (corpus.k33_brick_splice, K33_BRICK_SPLICE_CERTIFICATE),
        # six halves carried up from two Petersen leaves
        (corpus.double_petersen_splice, DOUBLE_PETERSEN_SPLICE_CERTIFICATE),
    ],
    ids=["k4", "k33_brick_splice", "double_petersen_splice"],
)
def test_serialize_layout_is_pinned(graph, expected):
    cert, _, _ = _certificate(graph())
    assert serialize(cert) == expected


def test_readme_shows_the_petersen_certificate_exactly():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Certificate format"):]
    shown = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cert, _, _ = _certificate(corpus.petersen())
    assert shown == serialize(cert)


def test_indented_layout_still_deserializes_and_verifies():
    for g in (corpus.petersen(), corpus.k33_brick_splice()):
        cert, _, _ = _certificate(g)
        indented = json.dumps(json.loads(serialize(cert)), indent=2) + "\n"
        assert indented.count("\n") > 4 * serialize(cert).count("\n")
        loaded = deserialize(indented)
        assert loaded == cert
        assert verify_certificate(g, loaded).mandatory_ok


def test_certificate_contents_petersen():
    cert, sol, tree = _certificate(corpus.petersen())
    assert cert.n == 10 and cert.m == 15 and cert.r == 3
    assert cert.p == 1
    assert [leaf.kind for leaf in cert.leaves] == ["PetersenBrick"]
    assert all(twice == 1 for _, twice in cert.terms)
    assert cert.report.mandatory_ok


def test_verify_certificate_round_trip():
    g = corpus.k33_brick_splice()
    cert, _, _ = _certificate(g)
    report = verify_certificate(g, deserialize(serialize(cert)))
    assert report.mandatory_ok
    assert report == cert.report


def test_verify_certificate_fingerprint_mismatch():
    cert, _, _ = _certificate(corpus.petersen())
    with pytest.raises(FingerprintMismatch):
        verify_certificate(corpus.k4(), cert)


def test_fingerprint_depends_on_edge_order():
    g = corpus.k4()
    cert, _, _ = _certificate(g)
    swapped = list(g.edges)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(FingerprintMismatch):
        verify_certificate(build_graph(4, swapped), cert)


def test_certificate_graph_rebuild():
    g = corpus.prism()
    cert, _, _ = _certificate(g)
    rebuilt = build_graph(cert.n, list(cert.edges))
    assert rebuilt.vertex_count == g.vertex_count
    assert [tuple(sorted(e)) for e in rebuilt.edges] == [
        tuple(sorted(e)) for e in g.edges
    ]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="p and the leaf sizes are read from the tree block (ROADMAP item 3)",
)
def test_forged_tree_is_not_accepted():
    g = gen_r_graph(10, 3, seed=1)
    cert, _, _ = _certificate(g)
    data = json.loads(serialize(cert))
    petersen = {"class": "PetersenBrick", "n": 10, "m": 15}
    data["tree"] = {
        "leaves": [petersen] * 5 + [{"class": "OtherBrick", "n": 10, "m": 1000}],
        "p": 5,
    }
    try:
        report = verify_certificate(g, deserialize(json.dumps(data)))
    except (CertificateError, FingerprintMismatch):
        return
    assert not report.mandatory_ok


@pytest.mark.parametrize(
    "n, m, bound_ok", [(10, 10**18, True), (11, 10, True), (12, 10, False), (40, 10, False)]
)
def test_norm_bound_takes_any_leaf_size(n, m, bound_ok):
    # the bound 2^d, d = m - n + 1, comes from a leaf the certificate claims:
    # d = 10**18 must not build 2**d, and n > m + 1 gives d < 0; the cover's
    # doubled norm is 2, so the bound holds exactly when d >= 0
    g = gen_r_graph(10, 3, seed=1)
    cert, _, _ = _certificate(g)
    data = json.loads(serialize(cert))
    data["tree"] = {"leaves": [{"class": "OtherBrick", "n": n, "m": m}], "p": 0}
    report = verify_certificate(g, deserialize(json.dumps(data)))
    assert report.inf_norm == 2
    assert report.norm_bound_ok is bound_ok


def test_certificate_solution_is_structural():
    g = corpus.k4()
    cert, sol, _ = _certificate(g)
    loaded = certificate_solution(g, cert)
    assert sorted(loaded.terms, key=lambda t: sorted(t[0])) == sorted(
        sol.terms, key=lambda t: sorted(t[0])
    )


def test_deserialize_parse_error_carries_position():
    cert, _, _ = _certificate(corpus.k4())
    text = serialize(cert)
    with pytest.raises(CertificateError, match="line"):
        deserialize(text[: len(text) // 2])


def test_deserialize_rejects_zero_twice_value():
    cert, _, _ = _certificate(corpus.k4())
    data = json.loads(serialize(cert))
    data["terms"][0]["twice_value"] = 0
    with pytest.raises(CertificateError, match="twice_value 0"):
        deserialize(json.dumps(data))


def test_deserialize_rejects_unknown_edge_id():
    cert, _, _ = _certificate(corpus.k4())
    data = json.loads(serialize(cert))
    data["terms"][0]["edges"][0] = 99
    with pytest.raises(CertificateError, match="unknown edge id"):
        deserialize(json.dumps(data))


def test_deserialize_rejects_floats():
    cert, _, _ = _certificate(corpus.k4())
    data = json.loads(serialize(cert))
    data["graph"]["n"] = 4.0
    with pytest.raises(CertificateError, match="integer"):
        deserialize(json.dumps(data))


def test_deserialize_rejects_inconsistent_p():
    cert, _, _ = _certificate(corpus.petersen())
    data = json.loads(serialize(cert))
    data["tree"]["p"] = 3
    with pytest.raises(CertificateError, match="disagrees"):
        deserialize(json.dumps(data))


def test_deserialize_rejects_loop_edge():
    cert, _, _ = _certificate(corpus.k4())
    data = json.loads(serialize(cert))
    data["graph"]["edges"][0] = [1, 1]
    with pytest.raises(CertificateError, match="loop"):
        deserialize(json.dumps(data))


@pytest.mark.parametrize("r", [7, 2, 0])
def test_deserialize_rejects_an_r_that_is_not_the_degree(r):
    # the fingerprint leaves out r, so nothing else would catch it
    cert, _, _ = _certificate(gen_r_graph(10, 3, seed=1))
    data = json.loads(serialize(cert))
    data["graph"]["r"] = r
    with pytest.raises(CertificateError, match="common degree"):
        deserialize(json.dumps(data))


def test_deserialize_rejects_an_irregular_edge_list():
    cert, _, _ = _certificate(corpus.k4())
    data = json.loads(serialize(cert))
    data["graph"]["edges"][0] = [0, 2]  # the degrees are now 2, 3, 4, 3
    with pytest.raises(CertificateError, match="common degree"):
        deserialize(json.dumps(data))


@pytest.mark.parametrize("field", ["n", "m"])
def test_deserialize_rejects_a_negative_leaf_size(field):
    cert, _, _ = _certificate(gen_r_graph(10, 3, seed=1))
    data = json.loads(serialize(cert))
    data["tree"]["leaves"][0][field] = -3
    with pytest.raises(CertificateError, match=r"tree.leaves\[0\] has a negative size"):
        deserialize(json.dumps(data))


def test_serialized_json_is_integer_only():
    cert, _, _ = _certificate(corpus.petersen())
    data = json.loads(serialize(cert))

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float in certificate")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(data)
    assert data["terms"][0]["twice_value"] == 1
