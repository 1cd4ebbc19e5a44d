"""Independent verification of covers, and the certificate file format.

Verification recomputes every check on the terms from the graph: coverage,
that each term is a perfect matching, independence, the count of halves, the
support and the coefficient sum.  It does not re-derive the decomposition:
the Petersen count p behind the 6p halves bound, the brick count b behind
the support advisory and the leaf sizes behind the norm advisory are read
from the decomposition summary (the certificate's tree block) as given, so a
forged summary can pass; ROADMAP item 3 is the fix.  Two bound checks are
therefore advisory rather than mandatory.  The support advisory is
support <= dim lin(PM) = m - n + 2 - b (Edmonds-Lovasz-Pulleyblank), which
independent terms always meet once b is trusted; the 2^d norm bound depends
on basis choices the solver is free to vary.  A verifier must not reject a
correct cover over either, so both are reported but excluded from
mandatory_ok.

Independence is checked exactly: terms independent mod 2 or mod 3 are
independent over Q, so dependent terms cannot pass, and terms dependent mod
both primes go to exact elimination (``cover.terms_independent``).

Certificates are canonical JSON with integers only.  Coefficients are stored
doubled (twice_value), exactly as ``CoverSolution`` holds them in memory, so
+1/2 is the odd integer 1 and the format is exact; the report's norm is
doubled too (twice_inf_norm).  The graph block pins down the exact edge_id
assignment; verifying a certificate against a relabeled graph is detected by
comparing n and the endpoint-normalized edge list, not repaired.  That
comparison leaves out r, so loading checks that r is the common degree of
the edges.  Leaf summaries carry each leaf's vertex and edge counts so the
advisories are recomputable from the artifact alone; loading rejects
negative ones.  Loading checks each field once, in one pass per block
(graph, terms, tree, report), and the error names the first offending
field by its path (``graph.edges[2][0]``, ``terms[1]``, ``report.support``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from typing import Any, Sequence

from .cover import CoverSolution, terms_independent
from .decomposition import DecompositionTree, LeafClass
from .graphs import MultiGraph, regular_degree
from .matchings import validate_perfect_matching


class CertificateError(ValueError):
    """Malformed certificate text or structure."""


class FingerprintMismatch(ValueError):
    """Certificate and graph disagree on (n, m, edges)."""


def _normalized(edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The ordered edge list with each edge's endpoints in ascending order."""
    return tuple((u, v) if u <= v else (v, u) for u, v in edges)


@dataclass(frozen=True)
class LeafSummary:
    kind: str
    n: int
    m: int


@dataclass(frozen=True)
class VerifyReport:
    coverage_ok: bool
    each_term_is_pm: bool
    halves_count: int
    halves_exact: bool
    halves_bound_ok: bool
    support: int
    support_bound_ok: bool
    independent: bool
    twice_inf_norm: int  # doubled, like every coefficient
    norm_bound_ok: bool
    coeff_sum_is_r: bool

    @property
    def mandatory_ok(self) -> bool:
        """The fatal checks; the two bound advisories are excluded."""
        return (
            self.coverage_ok
            and self.each_term_is_pm
            and self.halves_exact
            and self.halves_bound_ok
            and self.independent
            and self.coeff_sum_is_r
        )

    def as_dict(self) -> dict:
        """The report block: each field by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Certificate:
    n: int
    m: int
    r: int
    edges: tuple[tuple[int, int], ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]
    leaves: tuple[LeafSummary, ...]
    p: int
    report: VerifyReport


def _compute_report(
    g: MultiGraph, sol: CoverSolution, leaves: Sequence[LeafSummary]
) -> VerifyReport:
    """Every check on the solution's terms; the terms must use g's edge ids.

    The bounds' inputs come from the leaf summaries: p, the brick count b,
    and d, the largest m - n + 1 over other bricks.
    """
    each_term_is_pm = True
    for matching in sol.matchings:
        try:
            validate_perfect_matching(g, matching)
        except ValueError:
            each_term_is_pm = False
            break
    bricks = [leaf for leaf in leaves if leaf.kind != LeafClass.BRACE.value]
    p = sum(1 for leaf in bricks if leaf.kind == LeafClass.PETERSEN_BRICK.value)
    d = max(
        (leaf.m - leaf.n + 1 for leaf in bricks if leaf.kind == LeafClass.OTHER_BRICK.value),
        default=0,
    )
    twice_inf_norm = sol.inf_norm()
    r = regular_degree(g)
    return VerifyReport(
        coverage_ok=all(s == 2 for s in sol.coverage()),
        each_term_is_pm=each_term_is_pm,
        halves_count=sol.halves_count,
        halves_exact=sol.halves_exact(),
        halves_bound_ok=sol.halves_count <= 6 * p,
        support=sol.support,
        support_bound_ok=sol.support <= g.m - g.vertex_count + 2 - len(bricks),
        independent=terms_independent(g, sol.matchings),
        twice_inf_norm=twice_inf_norm,
        # twice_inf_norm <= 2 * 2**d by bit length: a forged leaf can make d huge or negative
        norm_bound_ok=twice_inf_norm == 0 or (twice_inf_norm - 1).bit_length() <= d + 1,
        coeff_sum_is_r=r is not None and sol.coefficient_sum() == 2 * r,
    )


def _leaf_summaries(tree: DecompositionTree) -> tuple[LeafSummary, ...]:
    return tuple(
        LeafSummary(leaf.leaf_class.value, leaf.graph.vertex_count, leaf.graph.m)
        for leaf in tree.leaves()
    )


def verify_cover(
    g: MultiGraph, sol: CoverSolution, tree: DecompositionTree
) -> VerifyReport:
    """Recheck every check on the terms; p, b and the leaf sizes come from tree."""
    return _compute_report(g, sol, _leaf_summaries(tree))


def build_certificate(
    g: MultiGraph, sol: CoverSolution, tree: DecompositionTree
) -> Certificate:
    r = regular_degree(g)
    if r is None:
        raise ValueError("certificates require a regular graph")
    leaves = _leaf_summaries(tree)
    report = _compute_report(g, sol, leaves)
    edges = _normalized(g.edges)
    terms = tuple((tuple(sorted(matching)), twice) for matching, twice in sol.terms)
    return Certificate(
        n=g.vertex_count, m=g.m, r=r, edges=edges, terms=terms, leaves=leaves,
        p=tree.petersen_count, report=report,
    )


def certificate_solution(g: MultiGraph, cert: Certificate) -> CoverSolution:
    """The certificate's terms as a structural (unvalidated) solution."""
    return CoverSolution(
        g, tuple((frozenset(edge_ids), twice) for edge_ids, twice in cert.terms)
    )


def verify_certificate(g: MultiGraph, cert: Certificate) -> VerifyReport:
    """Recheck a loaded certificate against the graph it claims to cover.

    Raises FingerprintMismatch when n or the ordered edge lists disagree; a
    certificate holds its edges endpoint-normalized, as built or loaded.  The
    stored report is ignored and everything is recomputed.
    """
    if (cert.n, cert.edges) != (g.vertex_count, _normalized(g.edges)):
        raise FingerprintMismatch(
            "certificate was issued for a different graph or edge labeling"
        )
    return _compute_report(g, certificate_solution(g, cert), cert.leaves)


def serialize(cert: Certificate) -> str:
    """Canonical JSON text: stable field order, integers only, no floats.

    One line per top-level block (graph, terms, tree, report), each block's
    value written inline without spaces, which keeps a certificate about a
    third of the size of an indented one.
    """
    payload = {
        "graph": {
            "n": cert.n,
            "m": cert.m,
            "r": cert.r,
            "edges": [[u, v] for u, v in cert.edges],
        },
        "terms": [
            {"edges": list(edge_ids), "twice_value": twice}
            for edge_ids, twice in cert.terms
        ],
        "tree": {
            "leaves": [
                {"class": leaf.kind, "n": leaf.n, "m": leaf.m}
                for leaf in cert.leaves
            ],
            "p": cert.p,
        },
        "report": cert.report.as_dict(),
    }
    blocks = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in payload.items()
    )
    return "{\n" + blocks + "\n}\n"


_LEAF_CLASSES = frozenset(lc.value for lc in LeafClass)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


def _as_int(value: Any, where: str) -> int:
    # json.loads makes no int subclass but bool, so this is isinstance(int) without bool
    _expect(type(value) is int, f"{where} must be an integer")
    return value


def _as_bool(value: Any, where: str) -> bool:
    _expect(isinstance(value, bool), f"{where} must be a boolean")
    return value


def _as_dict(value: Any, where: str) -> dict:
    _expect(isinstance(value, dict), f"{where} must be an object")
    return value


def _as_list(value: Any, where: str) -> list:
    _expect(isinstance(value, list), f"{where} must be an array")
    return value


def deserialize(text: str) -> Certificate:
    """Parse certificate text; errors carry a position or a field path.

    Each field is checked once, in one loop per block, and the first
    offending field is reported.  The per-element loops over graph edges
    and terms format a field-path message only on the branch that raises.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    # a ValueError such as an integer past the interpreter's digit limit, or
    # a RecursionError from arrays or objects nested past the parser's depth
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"parse error: {exc}") from None
    root = _as_dict(payload, "certificate")
    graph = _as_dict(root.get("graph"), "graph")
    n = _as_int(graph.get("n"), "graph.n")
    m = _as_int(graph.get("m"), "graph.m")
    r = _as_int(graph.get("r"), "graph.r")
    raw_edges = _as_list(graph.get("edges"), "graph.edges")
    _expect(len(raw_edges) == m, f"graph.edges has {len(raw_edges)} entries, expected {m}")
    edges = []
    for k, pair in enumerate(raw_edges):
        if type(pair) is not list:
            raise CertificateError(f"graph.edges[{k}] must be an array")
        if len(pair) != 2:
            raise CertificateError(f"graph.edges[{k}] must have two endpoints")
        u, v = pair
        if type(u) is not int:
            raise CertificateError(f"graph.edges[{k}][0] must be an integer")
        if type(v) is not int:
            raise CertificateError(f"graph.edges[{k}][1] must be an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise CertificateError(f"graph.edges[{k}] endpoint out of range")
        if u == v:
            raise CertificateError(f"graph.edges[{k}] is a loop")
        edges.append((u, v) if u < v else (v, u))
    degree = Counter(chain.from_iterable(edges))
    _expect(
        len(degree) == n and set(degree.values()) == {r},
        "graph.r is not the common degree of graph.edges",
    )
    terms = []
    for k, term in enumerate(_as_list(root.get("terms"), "terms")):
        if type(term) is not dict:
            raise CertificateError(f"terms[{k}] must be an object")
        ids = term.get("edges")
        if type(ids) is not list:
            raise CertificateError(f"terms[{k}].edges must be an array")
        # every entry's type before any entry's range
        if not {int}.issuperset(map(type, ids)):
            raise CertificateError(f"terms[{k}].edges entry must be an integer")
        if ids and (min(ids) < 0 or max(ids) >= m):
            e = next(e for e in ids if not 0 <= e < m)
            raise CertificateError(f"terms[{k}] references unknown edge id {e}")
        if len(set(ids)) != len(ids):
            raise CertificateError(f"terms[{k}] repeats an edge id")
        twice = term.get("twice_value")
        if type(twice) is not int:
            raise CertificateError(f"terms[{k}].twice_value must be an integer")
        if twice == 0:
            raise CertificateError(f"terms[{k}] has twice_value 0")
        terms.append((tuple(ids), twice))
    tree = _as_dict(root.get("tree"), "tree")
    leaves = []
    for k, raw in enumerate(_as_list(tree.get("leaves"), "tree.leaves")):
        leaf = _as_dict(raw, f"tree.leaves[{k}]")
        kind = leaf.get("class")
        _expect(
            isinstance(kind, str) and kind in _LEAF_CLASSES,
            f"tree.leaves[{k}] has unknown class {kind!r}",
        )
        leaf_n = _as_int(leaf.get("n"), f"tree.leaves[{k}].n")
        leaf_m = _as_int(leaf.get("m"), f"tree.leaves[{k}].m")
        _expect(leaf_n >= 0 and leaf_m >= 0, f"tree.leaves[{k}] has a negative size")
        leaves.append(LeafSummary(kind, leaf_n, leaf_m))
    p = _as_int(tree.get("p"), "tree.p")
    _expect(
        p == sum(1 for leaf in leaves if leaf.kind == LeafClass.PETERSEN_BRICK.value),
        "tree.p disagrees with the leaf list",
    )
    raw_report = _as_dict(root.get("report"), "report")
    # the field names are the report block's keys; each is a bool or an int
    report = VerifyReport(**{
        f.name: (_as_bool if f.type == "bool" else _as_int)(
            raw_report.get(f.name), f"report.{f.name}"
        )
        for f in fields(VerifyReport)
    })
    _expect(report.twice_inf_norm >= 0, "report.twice_inf_norm must be non-negative")
    return Certificate(
        n=n, m=m, r=r, edges=tuple(edges), terms=tuple(terms),
        leaves=tuple(leaves), p=p, report=report,
    )
