"""Independent check of a pmcover certificate against its graph file.

Standard library only, so a defect in the program's own verifier cannot hide
a wrong certificate.  The check reads the graph from the file that was given
to the solver, never from the certificate, and tests the cover as a cover:

* every edge's coefficients sum to exactly 1 (as Fractions),
* every term is a perfect matching of the graph,
* every coefficient is an integer or exactly +1/2,
* the coefficients sum to r, the degree of the regular graph.
"""

from __future__ import annotations

import json
from fractions import Fraction

HALF = Fraction(1, 2)


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and edge list of a graph file, edges in file order."""
    n = None
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if n is None:
            if fields[0] != "rgraph" or len(fields) != 3:
                raise ValueError("graph file must start with 'rgraph <n> <m>'")
            n, m = int(fields[1]), int(fields[2])
        elif fields[0] == "e" and len(fields) == 3:
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unexpected graph line {line!r}")
    if n is None or len(edges) != m:
        raise ValueError("graph file header and edge lines disagree")
    return n, edges


def _problems(n: int, edges: list[tuple[int, int]], cert: dict) -> list[str]:
    problems = []
    normalized = [[min(u, v), max(u, v)] for u, v in edges]
    if cert["graph"]["n"] != n or cert["graph"]["edges"] != normalized:
        problems.append("certificate graph block differs from the graph file")
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if len(set(degree)) != 1:
        return problems + ["graph is not regular"]
    r = degree[0]

    sums = [Fraction(0)] * len(edges)
    total = Fraction(0)
    for k, term in enumerate(cert["terms"]):
        twice = term["twice_value"]
        if not isinstance(twice, int) or isinstance(twice, bool):
            problems.append(f"term {k}: twice_value is not an integer")
            continue
        coeff = Fraction(twice, 2)
        if coeff.denominator != 1 and coeff != HALF:
            problems.append(f"term {k}: coefficient {coeff} is neither an integer nor +1/2")
        ids = term["edges"]
        if any(not isinstance(e, int) or not 0 <= e < len(edges) for e in ids):
            problems.append(f"term {k}: edge id out of range")
            continue
        hits = [0] * n
        for e in ids:
            u, v = edges[e]
            hits[u] += 1
            hits[v] += 1
        if any(h != 1 for h in hits):
            problems.append(f"term {k} is not a perfect matching")
        for e in ids:
            sums[e] += coeff
        total += coeff
    uncovered = [e for e, s in enumerate(sums) if s != 1]
    if uncovered:
        problems.append(f"{len(uncovered)} edges do not sum to 1, first edge {uncovered[0]}")
    if total != r:
        problems.append(f"coefficients sum to {total}, expected r = {r}")
    return problems


def check_certificate(graph_text: str, cert_text: str) -> list[str]:
    """Every way the certificate fails the check; empty when it passes."""
    n, edges = parse_graph(graph_text)
    try:
        return _problems(n, edges, json.loads(cert_text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed certificate: {exc!r}"]
