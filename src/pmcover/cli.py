"""Command-line front-end: graph files, pipeline commands, and reports.

Commands: validate, solve, decompose, verify, gen, enumerate.  Exit codes
are a stable contract: 0 ok, 1 check failure, 2 parse or usage error or
an output path that cannot be written, 3 fingerprint mismatch (the
certificate's n or edge list differs from the graph's), 4 enumeration limit
overflow.

Graph files are line-oriented text: a header "rgraph <n> <m>", then exactly
m lines "e <u> <v>" with 0-based endpoints.  Repeated lines denote parallel
edges, a line whose first non-blank character is '#' is a comment, loops
are rejected.  A header with n > 2m is rejected: some vertex would have no
edge, so the graph has no perfect matching.  Edge ids are assigned in file
order, which is the order certificates record.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
from typing import Optional, Sequence, TextIO

from .certificate import (
    CertificateError,
    FingerprintMismatch,
    VerifyReport,
    build_certificate,
    deserialize,
    report_as_dict,
    serialize,
    verify_certificate,
)
from .decomposition import DecompositionTree, decompose
from .graphs import MultiGraph, build_graph, is_connected, is_r_graph, regular_degree
from .leaf_solvers import ClassificationError
from .matchings import EnumerationOverflow, enumerate_pms
from .merge import solve_r_graph

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_FINGERPRINT = 3
EXIT_LIMIT = 4


class GraphParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph_text(text: str) -> MultiGraph:
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "rgraph" or len(fields) != 3:
                raise GraphParseError(lineno, "expected header 'rgraph <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError(lineno, "header counts must be integers") from None
            if n < 0 or m < 0:
                raise GraphParseError(lineno, "header counts must be non-negative")
            header = (n, m)
            continue
        if fields[0] != "e" or len(fields) != 3:
            raise GraphParseError(lineno, "expected edge line 'e <u> <v>'")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphParseError(lineno, "endpoints must be integers") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(lineno, f"endpoint out of range 0..{n - 1}")
        if u == v:
            raise GraphParseError(lineno, f"loop at vertex {u}")
        if len(edges) >= header[1]:
            raise GraphParseError(lineno, f"more than {header[1]} edge lines")
        edges.append((u, v))
    if header is None:
        raise GraphParseError(1, "missing header 'rgraph <n> <m>'")
    if len(edges) != header[1]:
        raise GraphParseError(1, f"header declares {header[1]} edges, found {len(edges)}")
    if header[0] > 2 * header[1]:
        raise GraphParseError(
            1, f"{header[0]} vertices but {header[1]} edges: some vertex has no edge"
        )
    return build_graph(header[0], edges)


def load_graph(path: str) -> MultiGraph:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GraphParseError(0, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphParseError(0, f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_graph_text(text)


def format_graph(g: MultiGraph, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"rgraph {g.vertex_count} {g.m}")
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


GEN_ATTEMPTS = 64


def gen_r_graph(n: int, r: int, seed: int) -> MultiGraph:
    """Union of r random perfect matchings of K_n; retried until connected.

    Every perfect matching crosses every odd cut, so odd cuts get size >= r
    and the union is always an r-graph once connected.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    if r < 1:
        raise ValueError("r must be at least 1")
    rng = random.Random(seed)
    for _ in range(GEN_ATTEMPTS):
        edges: list[tuple[int, int]] = []
        for _ in range(r):
            order = list(range(n))
            rng.shuffle(order)
            for i in range(0, n, 2):
                u, v = order[i], order[i + 1]
                edges.append((u, v) if u < v else (v, u))
        g = build_graph(n, edges)
        if is_connected(g):
            return g
    raise ValueError(f"no connected union of {r} matchings found in {GEN_ATTEMPTS} attempts")


def _cannot_write(path: str, reason: str) -> bool:
    print(f"cannot write {path}: {reason}", file=sys.stderr)
    return False


def _write_output(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure say why on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        return _cannot_write(path, exc.strerror)
    return True


def _output_writable(path: str) -> bool:
    """Whether ``path`` looks writable, tested without creating it.

    A solve can take seconds, so ``solve`` asks first and, like
    ``_write_output``, says why on stderr when the answer is no.  The write
    itself can still fail (a full disk), and then ``_write_output`` reports.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return True
    return _cannot_write(path, os.strerror(code))


def _emit(payload: dict, lines: Sequence[str], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)


def _report_lines(report: VerifyReport) -> list[str]:
    data = report_as_dict(report)
    lines = [f"{key}: {str(value).lower() if isinstance(value, bool) else value}"
             for key, value in data.items()]
    lines.append(f"mandatory_ok: {str(report.mandatory_ok).lower()}")
    return lines


def _report_payload(report: VerifyReport) -> dict:
    payload = report_as_dict(report)
    payload["mandatory_ok"] = report.mandatory_ok
    return payload


def cmd_validate(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    check = is_r_graph(g)
    r = regular_degree(g)
    cut_size = check.min_odd_cut
    payload = {
        "n": g.vertex_count,
        "m": g.m,
        "r": r,
        "min_odd_cut": cut_size,
        "is_r_graph": check.ok,
    }
    lines = [
        f"n={g.vertex_count} m={g.m} r={r if r is not None else 'irregular'}",
        f"min_odd_cut={cut_size if cut_size is not None else 'undefined'}",
        f"r-graph: {'yes' if check.ok else 'no'}",
    ]
    if check.witness is not None:
        payload["witness_shore"] = sorted(check.witness.shore)
        lines.append(f"violating odd cut at shore {sorted(check.witness.shore)}")
    _emit(payload, lines, args.format, sys.stdout)
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def cmd_solve(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    if args.output is not None and not _output_writable(args.output):
        return EXIT_PARSE
    solution, tree = solve_r_graph(g)
    cert = build_certificate(g, solution, tree)
    text = serialize(cert)
    if args.output is not None:
        if not _write_output(args.output, text):
            return EXIT_PARSE
        _emit(_report_payload(cert.report), _report_lines(cert.report), args.format, sys.stdout)
    else:
        sys.stdout.write(text)
        for line in _report_lines(cert.report):
            print(line, file=sys.stderr)
    return EXIT_OK if cert.report.mandatory_ok else EXIT_CHECK_FAILED


def _tree_lines(node: DecompositionTree, depth: int = 0) -> list[str]:
    pad = "  " * depth
    g = node.graph
    if node.is_leaf:
        assert node.leaf_class is not None
        return [f"{pad}leaf {node.leaf_class.value} n={g.vertex_count} m={g.m}"]
    assert node.cut is not None
    lines = [
        f"{pad}internal n={g.vertex_count} m={g.m} "
        f"cut shore {sorted(node.cut.shore)} size {node.cut.size}"
    ]
    assert node.left is not None and node.right is not None
    lines.extend(_tree_lines(node.left, depth + 1))
    lines.extend(_tree_lines(node.right, depth + 1))
    return lines


def _tree_payload(node: DecompositionTree) -> dict:
    g = node.graph
    if node.is_leaf:
        assert node.leaf_class is not None
        return {"type": "leaf", "class": node.leaf_class.value, "n": g.vertex_count, "m": g.m}
    assert node.cut is not None and node.left is not None and node.right is not None
    return {
        "type": "internal",
        "n": g.vertex_count,
        "m": g.m,
        "shore": sorted(node.cut.shore),
        "left": _tree_payload(node.left),
        "right": _tree_payload(node.right),
    }


def cmd_decompose(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    tree = decompose(g)
    payload = {"tree": _tree_payload(tree), "p": tree.petersen_count}
    lines = _tree_lines(tree) + [f"p={tree.petersen_count}"]
    _emit(payload, lines, args.format, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    try:
        with open(args.certificate, encoding="utf-8") as handle:
            cert = deserialize(handle.read())
    except OSError as exc:
        print(f"cannot read {args.certificate}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"certificate error: {args.certificate} is not UTF-8 text: {exc.reason}",
              file=sys.stderr)
        return EXIT_PARSE
    try:
        report = verify_certificate(g, cert)
    except FingerprintMismatch as exc:
        print(f"fingerprint mismatch: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    _emit(_report_payload(report), _report_lines(report), args.format, sys.stdout)
    return EXIT_OK if report.mandatory_ok else EXIT_CHECK_FAILED


def cmd_gen(args: argparse.Namespace) -> int:
    g = gen_r_graph(args.n, args.r, args.seed)
    text = format_graph(g, comment=f"gen n={args.n} r={args.r} seed={args.seed}")
    if args.output is not None:
        if not _write_output(args.output, text):
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    g = load_graph(args.input)
    code = EXIT_OK
    try:
        matchings = enumerate_pms(g, limit=args.limit)
    except EnumerationOverflow as exc:
        print(f"limit {args.limit} exceeded; {len(exc.found)} matchings listed", file=sys.stderr)
        matchings, code = exc.found, EXIT_LIMIT
    lines = [" ".join(str(e) for e in sorted(m)) for m in matchings]
    if code == EXIT_OK:
        lines.append(f"count {len(matchings)}")
    payload = {"matchings": [sorted(m) for m in matchings], "count": len(matchings)}
    _emit(payload, lines, args.format, sys.stdout)
    return code


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", "-i", required=True, help="graph file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcover",
        description="Cover the edges of an r-graph by perfect matchings with "
        "integer or +1/2 coefficients, and verify the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the r-graph property")
    _add_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="decompose, solve, merge, and emit a certificate")
    _add_input(p)
    p.add_argument("--output", "-o", help="certificate path (default: stdout)")
    _add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decompose", help="print the tight cut decomposition tree")
    _add_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="recheck a certificate against a graph")
    _add_input(p)
    p.add_argument("certificate", help="certificate file path")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random r-graph as a matching union")
    p.add_argument("n", type=int, help="vertex count (even)")
    p.add_argument("r", type=int, help="degree")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--output", "-o", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enumerate", help="list all perfect matchings")
    _add_input(p)
    p.add_argument("--limit", type=int, default=None, help="abort after this many matchings")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        if args.n < 2 or args.n % 2 != 0:
            parser.error("n must be even and at least 2")
        if args.r < 1:
            parser.error("r must be at least 1")
    if args.command == "enumerate" and args.limit is not None and args.limit < 0:
        parser.error("--limit must be nonnegative")
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ClassificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
