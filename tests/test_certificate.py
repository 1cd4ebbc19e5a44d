from __future__ import annotations

import functools
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pmcover.cli import format_graph, gen_r_graph, main

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
    assert report.twice_inf_norm == 1  # the norm is 1/2
    assert report.support_bound_ok and report.norm_bound_ok


def test_verify_cover_k4_frozen():
    g = corpus.k4()
    sol, tree = solve_r_graph(g)
    report = verify_cover(g, sol, tree)
    assert report.mandatory_ok
    assert report.halves_count == 0
    assert report.support == 3
    assert report.twice_inf_norm == 2  # the norm is 1


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


def test_loading_puts_each_edge_low_endpoint_first():
    g = corpus.k33_brick_splice()
    cert, _, _ = _certificate(g)
    data = json.loads(serialize(cert))
    data["graph"]["edges"] = [[v, u] for u, v in data["graph"]["edges"]]
    loaded = deserialize(json.dumps(data))
    assert loaded.edges == cert.edges
    assert verify_certificate(g, loaded) == cert.report


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
    assert report.twice_inf_norm == 2
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


@functools.cache
def _k4_payload() -> str:
    return serialize(_certificate(corpus.k4())[0])


MISSING = object()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_each_report_field_is_checked_by_name(data):
    # every key of the report block, left out, of another JSON type, or for
    # the doubled norm negative, is a CertificateError naming that key
    payload = json.loads(_k4_payload())
    report = payload["report"]
    key = data.draw(st.sampled_from(sorted(report)))
    kind = type(report[key])  # bool or int, and a bool is not an int here
    value = data.draw(
        st.one_of(
            st.just(MISSING),
            st.sampled_from([None, "1", "true", 1.5, [], {}, True, False, 0, 1, 7]).filter(
                lambda v: type(v) is not kind
            ),
            st.integers(max_value=-1) if key == "twice_inf_norm" else st.nothing(),
        )
    )
    if value is MISSING:
        del report[key]
    else:
        report[key] = value
    with pytest.raises(CertificateError, match=re.escape(f"report.{key}") + r"\b"):
        deserialize(json.dumps(payload))


# Every rejection of ``deserialize`` on the K4 certificate, whose graph block
# is {"n":4,"m":6,"r":3,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}, whose
# terms are [0,5], [1,4] and [2,3], each with twice_value 2, and whose one
# leaf is an OtherBrick of 4 vertices and 6 edges, p 0.  Each case sets the
# fields at the given paths (MISSING deletes the key) and pins the whole
# message; cases with two faults pin which one is reported first.
REJECTIONS = [
    ("root", [((), [])], "certificate must be an object"),
    ("graph", [(("graph",), 7)], "graph must be an object"),
    ("graph.n", [(("graph", "n"), 4.0)], "graph.n must be an integer"),
    ("graph.n bool", [(("graph", "n"), True)], "graph.n must be an integer"),
    ("graph.m", [(("graph", "m"), MISSING)], "graph.m must be an integer"),
    ("graph.r", [(("graph", "r"), "3")], "graph.r must be an integer"),
    ("graph.n before graph.m", [(("graph", "n"), None), (("graph", "m"), None)],
     "graph.n must be an integer"),
    ("graph.edges", [(("graph", "edges"), {})], "graph.edges must be an array"),
    ("edge count", [(("graph", "m"), 5)], "graph.edges has 6 entries, expected 5"),
    ("edge shape", [(("graph", "edges", 2), 3)], "graph.edges[2] must be an array"),
    ("edge length", [(("graph", "edges", 2), [0, 3, 1])],
     "graph.edges[2] must have two endpoints"),
    ("first endpoint", [(("graph", "edges", 2, 0), True)],
     "graph.edges[2][0] must be an integer"),
    ("second endpoint", [(("graph", "edges", 2, 1), 3.0)],
     "graph.edges[2][1] must be an integer"),
    ("both endpoints", [(("graph", "edges", 2), ["0", None])],
     "graph.edges[2][0] must be an integer"),
    ("endpoint range", [(("graph", "edges", 2, 1), 4)], "graph.edges[2] endpoint out of range"),
    ("negative endpoint", [(("graph", "edges", 2, 0), -1)],
     "graph.edges[2] endpoint out of range"),
    ("loop", [(("graph", "edges", 2), [3, 3])], "graph.edges[2] is a loop"),
    ("range before loop", [(("graph", "edges", 2), [4, 4])],
     "graph.edges[2] endpoint out of range"),
    ("earlier edge first", [(("graph", "edges", 1, 1), 9), (("graph", "edges", 4), "x")],
     "graph.edges[1] endpoint out of range"),
    ("common degree", [(("graph", "r"), 2)], "graph.r is not the common degree of graph.edges"),
    ("terms", [(("terms",), MISSING)], "terms must be an array"),
    ("term shape", [(("terms", 1), [1, 4])], "terms[1] must be an object"),
    ("term edges", [(("terms", 1, "edges"), "1 4")], "terms[1].edges must be an array"),
    ("term entry", [(("terms", 1, "edges", 1), False)], "terms[1].edges entry must be an integer"),
    ("type before range", [(("terms", 1, "edges"), [6, "4"])],
     "terms[1].edges entry must be an integer"),
    ("unknown id", [(("terms", 1, "edges"), [1, 6, 7])], "terms[1] references unknown edge id 6"),
    ("negative id", [(("terms", 1, "edges", 0), -1)], "terms[1] references unknown edge id -1"),
    ("range before repeat", [(("terms", 1, "edges"), [1, 1, 9])],
     "terms[1] references unknown edge id 9"),
    ("repeated id", [(("terms", 1, "edges"), [1, 4, 1])], "terms[1] repeats an edge id"),
    ("twice_value type", [(("terms", 1, "twice_value"), 2.0)],
     "terms[1].twice_value must be an integer"),
    ("twice_value missing", [(("terms", 1, "twice_value"), MISSING)],
     "terms[1].twice_value must be an integer"),
    ("twice_value zero", [(("terms", 1, "twice_value"), 0)], "terms[1] has twice_value 0"),
    ("repeat before twice_value", [(("terms", 1, "edges", 1), 1), (("terms", 1, "twice_value"), 0)],
     "terms[1] repeats an edge id"),
    ("tree", [(("tree",), [])], "tree must be an object"),
    ("tree.leaves", [(("tree", "leaves"), MISSING)], "tree.leaves must be an array"),
    ("leaf shape", [(("tree", "leaves", 0), "OtherBrick")], "tree.leaves[0] must be an object"),
    ("leaf class", [(("tree", "leaves", 0, "class"), "Brick")],
     "tree.leaves[0] has unknown class 'Brick'"),
    ("leaf class type", [(("tree", "leaves", 0, "class"), 7)],
     "tree.leaves[0] has unknown class 7"),
    ("leaf n", [(("tree", "leaves", 0, "n"), "4")], "tree.leaves[0].n must be an integer"),
    ("leaf m", [(("tree", "leaves", 0, "m"), 6.5)], "tree.leaves[0].m must be an integer"),
    ("leaf size", [(("tree", "leaves", 0, "m"), -6)], "tree.leaves[0] has a negative size"),
    ("p type", [(("tree", "p"), None)], "tree.p must be an integer"),
    ("p count", [(("tree", "p"), 1)], "tree.p disagrees with the leaf list"),
    ("report", [(("report",), None)], "report must be an object"),
    ("report bool", [(("report", "coverage_ok"), 1)], "report.coverage_ok must be a boolean"),
    ("report int", [(("report", "support"), True)], "report.support must be an integer"),
    ("report norm", [(("report", "twice_inf_norm"), -2)],
     "report.twice_inf_norm must be non-negative"),
    ("graph before terms", [(("graph", "edges", 0), [0]), (("terms", 0), None)],
     "graph.edges[0] must have two endpoints"),
    ("terms before tree", [(("terms", 2, "twice_value"), 0), (("tree", "p"), 1)],
     "terms[2] has twice_value 0"),
]


def _rejected_k4_text(changes) -> str:
    payload = json.loads(_k4_payload())
    for path, value in changes:
        if not path:
            payload = value
            continue
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        if value is MISSING:
            del node[last]
        else:
            node[last] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "changes, message", [case[1:] for case in REJECTIONS], ids=[case[0] for case in REJECTIONS]
)
def test_each_rejection_names_its_field(tmp_path, capsys, changes, message):
    text = _rejected_k4_text(changes)
    with pytest.raises(CertificateError) as info:
        deserialize(text)
    assert str(info.value) == message
    graph_path = tmp_path / "k4.txt"
    graph_path.write_text(format_graph(corpus.k4()), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text, encoding="utf-8")
    assert main(["verify", "-i", str(graph_path), str(cert_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"certificate error: {message}\n")


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
