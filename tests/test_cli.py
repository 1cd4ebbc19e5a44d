from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pmcover
from pmcover import (
    ClassificationError,
    build_graph,
    graphs,
    is_r_graph,
    iter_pms,
    validate_perfect_matching,
)
from pmcover.cli import (
    GraphParseError,
    format_graph,
    gen_r_graph,
    main,
    parse_graph_text,
)

import corpus


def _write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def test_parse_round_trip():
    g = corpus.petersen()
    parsed = parse_graph_text(format_graph(g, comment="petersen"))
    assert parsed.vertex_count == 10
    assert [tuple(sorted(e)) for e in parsed.edges] == [
        tuple(sorted(e)) for e in g.edges
    ]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("graph 4 2\ne 0 1\ne 2 3\n", 1),
        ("rgraph 4 2\ne 0 0\ne 2 3\n", 2),
        ("rgraph 4 2\ne 0 1\ne 2 9\n", 3),
        ("rgraph 4 2\ne 0 1\n", 1),            # count mismatch blames the header
        ("rgraph 4 1\ne 0 1\ne 2 3\n", 3),     # one edge too many
        ("rgraph 4 2\ne 0 1\nz 2 3\n", 3),
        # n > 2m leaves a vertex without an edge; rejected before anything of size n
        ("rgraph 1000000000000 0\n", 1),
        ("rgraph 6 2\ne 0 1\ne 2 3\n", 1),
        # header-level errors blame the header's own line, after comments
        ("# c\nrgraph 4 2\ne 0 1\n", 2),
        ("# c\n# d\nrgraph 6 1\ne 0 1\n", 3),
    ]
    for text, line in cases:
        with pytest.raises(GraphParseError) as info:
            parse_graph_text(text)
        assert info.value.line == line, text


def test_gen_is_deterministic_r_graph():
    a = gen_r_graph(8, 3, seed=7)
    b = gen_r_graph(8, 3, seed=7)
    assert a.edges == b.edges
    assert is_r_graph(a).ok
    assert gen_r_graph(8, 3, seed=8).edges != a.edges


def test_gen_smallest_case_is_parallel_pair():
    g = gen_r_graph(2, 4, seed=0)
    assert g.vertex_count == 2 and g.m == 4
    assert all(tuple(sorted(e)) == (0, 1) for e in g.edges)


def test_gen_rejects_bad_degree():
    with pytest.raises(ValueError):
        gen_r_graph(6, 0, seed=0)


def test_gen_gives_up_when_connectivity_is_impossible():
    with pytest.raises(ValueError, match="64 attempts"):
        gen_r_graph(4, 1, seed=0)


def test_validate_ok(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.petersen())
    assert main(["validate", "-i", path]) == 0
    out = capsys.readouterr().out
    assert "n=10 m=15 r=3" in out
    assert "min_odd_cut=3" in out
    assert "r-graph: yes" in out


def test_validate_bridge_fails_with_witness(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.bridged_cubic())
    assert main(["validate", "-i", path]) == 1
    out = capsys.readouterr().out
    assert "min_odd_cut=1" in out
    assert "r-graph: no" in out
    assert "violating odd cut at shore" in out


def test_validate_json(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.k4())
    assert main(["validate", "-i", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"n": 4, "m": 6, "r": 3, "min_odd_cut": 3, "is_r_graph": True}


def test_validate_builds_one_gomory_hu_tree(tmp_path, capsys, monkeypatch):
    calls = []
    original = graphs.gomory_hu_tree

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "gomory_hu_tree", counting)
    quartic = gen_r_graph(10, 4, seed=1)
    irregular = build_graph(10, quartic.edges[1:])
    # (graph, exit code, min odd cut, trees): cubic graphs take the bridge search
    for g, code, cut, trees in (
        (quartic, 0, 4, 1),
        (irregular, 1, 3, 1),
        (gen_r_graph(10, 3, seed=1), 0, 3, 0),
        (corpus.bridged_cubic(), 1, 1, 0),
    ):
        calls.clear()
        path = _write_graph(tmp_path, g)
        assert main(["validate", "-i", path, "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)["min_odd_cut"] == cut
        assert len(calls) == trees


def test_one_process_matches_fresh_processes(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.k33_petersen_splice())
    commands = [
        ["solve", "-i", graph_path, "-o", "{cert}"],
        ["verify", "-i", graph_path, "{cert}"],
        ["validate", "-i", graph_path, "--format", "json"],
        ["solve"],  # usage error: --input is required
        ["gen", "5", "3"],  # usage error: odd n
    ]
    src = str(Path(pmcover.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def fill(argv, cert):
        return [arg.format(cert=cert) for arg in argv]

    fresh = []
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "pmcover.cli", *fill(argv, tmp_path / "fresh.json")],
            capture_output=True, text=True, env=env, check=False,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    in_process = []
    for argv in commands:
        try:
            code = main(fill(argv, tmp_path / "same.json"))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [entry[0] for entry in fresh] == [0, 0, 0, 2, 2]
    assert in_process == fresh
    assert (tmp_path / "same.json").read_text() == (tmp_path / "fresh.json").read_text()


def test_solve_verify_chain(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.k33_petersen_splice())
    cert_path = str(tmp_path / "cert.json")
    assert main(["solve", "-i", graph_path, "-o", cert_path]) == 0
    out = capsys.readouterr().out
    assert "mandatory_ok: true" in out
    assert main(["verify", "-i", graph_path, cert_path]) == 0
    out = capsys.readouterr().out
    assert "coverage_ok: true" in out
    assert "halves_count: 6" in out


def test_solve_stdout_emits_certificate(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.k4())
    assert main(["solve", "-i", graph_path]) == 0
    captured = capsys.readouterr()
    cert = json.loads(captured.out)
    assert cert["graph"]["n"] == 4
    assert "mandatory_ok: true" in captured.err


def test_solve_rejects_non_r_graph(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.bridged_cubic())
    assert main(["solve", "-i", graph_path]) == 1
    assert "odd cut of size 1" in capsys.readouterr().err


def test_solve_reports_a_classification_error(tmp_path, capsys, monkeypatch):
    def fail(graph):
        raise ClassificationError("no independent integral cover")

    monkeypatch.setattr(pmcover.merge, "brick_solve", fail)
    graph_path = _write_graph(tmp_path, corpus.k4())
    assert main(["solve", "-i", graph_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no independent integral cover\n"


def test_solve_and_decompose_reject_irregular_graph(tmp_path, capsys):
    # no odd cut witnesses the failure, so the message names the structural causes
    irregular = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    graph_path = _write_graph(tmp_path, irregular)
    for command in ("solve", "decompose"):
        assert main([command, "-i", graph_path]) == 1
        err = capsys.readouterr().err
        assert "not an r-graph: disconnected, irregular, or odd order" in err, command


def test_verify_report_for_a_coefficient_outside_the_class(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.petersen())
    cert_path = str(tmp_path / "cert.json")
    assert main(["solve", "-i", graph_path, "-o", cert_path]) == 0
    capsys.readouterr()
    solved = json.loads(Path(cert_path).read_text())

    common = {
        "coverage_ok": False,
        "each_term_is_pm": True,
        "halves_count": 5,  # the tampered term is no longer a +1/2
        "halves_exact": False,
        "halves_bound_ok": True,
        "support": 6,
        "support_bound_ok": True,
        "independent": True,
        "coeff_sum_is_r": False,
        "mandatory_ok": False,
    }
    # coefficient 1/2 -> 3/2, which also breaks the norm advisory, and
    # 1/2 -> -1/2, which only a sign test tells apart from +1/2
    for twice, twice_inf_norm, norm_bound_ok in ((3, 3, False), (-1, 1, True)):
        data = json.loads(json.dumps(solved))
        data["terms"][0]["twice_value"] = twice
        with open(cert_path, "w") as handle:
            json.dump(data, handle)

        assert main(["verify", "-i", graph_path, cert_path, "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            **common,
            "twice_inf_norm": twice_inf_norm,
            "norm_bound_ok": norm_bound_ok,
        }, twice


def test_verify_detects_tampering(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.k4())
    cert_path = str(tmp_path / "cert.json")
    assert main(["solve", "-i", graph_path, "-o", cert_path]) == 0
    capsys.readouterr()

    data = json.loads(Path(cert_path).read_text())
    data["terms"][0]["twice_value"] = 4  # coefficient 1 -> 2
    with open(cert_path, "w") as handle:
        json.dump(data, handle)

    assert main(["verify", "-i", graph_path, cert_path]) == 1
    out = capsys.readouterr().out
    assert "coverage_ok: false" in out
    assert "mandatory_ok: false" in out


K33_BRICK_SPLICE_REPORT = """coverage_ok: true
each_term_is_pm: true
halves_count: 0
halves_exact: true
halves_bound_ok: true
support: 5
support_bound_ok: true
independent: true
twice_inf_norm: 2
norm_bound_ok: true
coeff_sum_is_r: true
mandatory_ok: true
"""

K33_BRICK_SPLICE_REPORT_JSON = """{
  "coverage_ok": true,
  "each_term_is_pm": true,
  "halves_count": 0,
  "halves_exact": true,
  "halves_bound_ok": true,
  "support": 5,
  "support_bound_ok": true,
  "independent": true,
  "twice_inf_norm": 2,
  "norm_bound_ok": true,
  "coeff_sum_is_r": true,
  "mandatory_ok": true
}
"""

DOUBLE_PETERSEN_SPLICE_REPORT = """coverage_ok: true
each_term_is_pm: true
halves_count: 6
halves_exact: true
halves_bound_ok: true
support: 6
support_bound_ok: true
independent: true
twice_inf_norm: 1
norm_bound_ok: true
coeff_sum_is_r: true
mandatory_ok: true
"""

DOUBLE_PETERSEN_SPLICE_REPORT_JSON = """{
  "coverage_ok": true,
  "each_term_is_pm": true,
  "halves_count": 6,
  "halves_exact": true,
  "halves_bound_ok": true,
  "support": 6,
  "support_bound_ok": true,
  "independent": true,
  "twice_inf_norm": 1,
  "norm_bound_ok": true,
  "coeff_sum_is_r": true,
  "mandatory_ok": true
}
"""


@pytest.mark.parametrize(
    "graph, text, json_text",
    [
        (corpus.k33_brick_splice, K33_BRICK_SPLICE_REPORT, K33_BRICK_SPLICE_REPORT_JSON),
        (
            corpus.double_petersen_splice,
            DOUBLE_PETERSEN_SPLICE_REPORT,
            DOUBLE_PETERSEN_SPLICE_REPORT_JSON,
        ),
    ],
    ids=["k33_brick_splice", "double_petersen_splice"],
)
def test_verify_output_is_pinned(tmp_path, capsys, graph, text, json_text):
    graph_path = _write_graph(tmp_path, graph())
    cert_path = str(tmp_path / "cert.json")
    assert main(["solve", "-i", graph_path, "-o", cert_path]) == 0
    capsys.readouterr()
    assert main(["verify", "-i", graph_path, cert_path]) == 0
    assert capsys.readouterr().out == text
    assert main(["verify", "-i", graph_path, cert_path, "--format", "json"]) == 0
    assert capsys.readouterr().out == json_text


def test_verify_reports_a_term_that_is_not_a_perfect_matching(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, gen_r_graph(10, 3, seed=1))
    cert_path = str(tmp_path / "cert.json")
    assert main(["solve", "-i", graph_path, "-o", cert_path]) == 0
    capsys.readouterr()

    data = json.loads(Path(cert_path).read_text())
    data["terms"][0]["edges"] = data["terms"][0]["edges"][1:]  # uncovers a vertex
    with open(cert_path, "w") as handle:
        json.dump(data, handle)

    assert main(["verify", "-i", graph_path, cert_path]) == 1
    captured = capsys.readouterr()
    assert "each_term_is_pm: false" in captured.out
    assert "mandatory_ok: false" in captured.out
    assert captured.err == ""


def test_verify_wrong_graph_is_fingerprint_mismatch(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.k4())
    cert_path = str(tmp_path / "cert.json")
    assert main(["solve", "-i", graph_path, "-o", cert_path]) == 0
    other_path = _write_graph(tmp_path, corpus.c6(), name="other.txt")
    assert main(["verify", "-i", other_path, cert_path]) == 3
    assert "fingerprint mismatch" in capsys.readouterr().err


def test_verify_unreadable_certificate(tmp_path, capsys):
    graph_path = _write_graph(tmp_path, corpus.k4())
    assert main(["verify", "-i", graph_path, str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    graph_path = _write_graph(tmp_path, corpus.k4())
    argv = {"gen": ["gen", "10", "3"], "solve": ["solve", "-i", graph_path]}[command]
    missing = tmp_path / "no such dir" / "out.txt"
    assert main(argv + ["-o", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert err == f"cannot write {missing}: No such file or directory\n"
    assert out == ""
    assert main(argv + ["-o", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err == f"cannot write {tmp_path}: Is a directory\n"


def test_solve_checks_the_output_path_before_solving(tmp_path, capsys, monkeypatch):
    graph_path = _write_graph(tmp_path, corpus.k4())
    solves = []
    monkeypatch.setattr(pmcover.cli, "solve_r_graph", solves.append)
    for path, reason in (
        (tmp_path / "no such dir" / "c.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
        (Path(graph_path) / "c.json", "Not a directory"),
    ):
        assert main(["solve", "-i", graph_path, "-o", str(path)]) == 2
        assert capsys.readouterr() == ("", f"cannot write {path}: {reason}\n")
    assert solves == []
    monkeypatch.undo()
    # a writable path, but the solve fails: no file is left behind
    cert_path = tmp_path / "c.json"
    bridged_path = _write_graph(tmp_path, corpus.bridged_cubic(), name="bridged.txt")
    assert main(["solve", "-i", bridged_path, "-o", str(cert_path)]) == 1
    assert "odd cut of size 1" in capsys.readouterr().err
    assert not cert_path.exists()


def test_verify_rejects_a_forged_degree_or_leaf_size_with_exit_2(tmp_path, capsys):
    graph_path = str(tmp_path / "g.txt")
    cert_path = tmp_path / "cert.json"
    assert main(["gen", "10", "3", "--seed", "1", "-o", graph_path]) == 0
    assert main(["solve", "-i", graph_path, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    forged = tmp_path / "forged.json"
    for where, key, value, message in [
        ("graph", "r", 7, "graph.r is not the common degree"),
        ("leaf", "n", -3, "tree.leaves[0] has a negative size"),
    ]:
        data = json.loads(cert_path.read_text())
        block = data["graph"] if where == "graph" else data["tree"]["leaves"][0]
        block[key] = value
        forged.write_text(json.dumps(data))
        assert main(["verify", "-i", graph_path, str(forged)]) == 2, key
        captured = capsys.readouterr()
        assert "mandatory_ok" not in captured.out
        assert f"certificate error: {message}" in captured.err


def test_verify_rejects_an_integer_past_the_digit_limit_with_exit_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer longer than the interpreter's digit limit (4,300 by default)
    graph_path = str(tmp_path / "g.txt")
    cert_path = tmp_path / "cert.json"
    assert main(["gen", "10", "3", "--seed", "1", "-o", graph_path]) == 0
    assert main(["solve", "-i", graph_path, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    text = cert_path.read_text()
    assert text.count('"p":0') == 1
    cert_path.write_text(text.replace('"p":0', '"p":' + "9" * 5000))
    assert main(["verify", "-i", graph_path, str(cert_path)]) == 2
    captured = capsys.readouterr()
    assert "mandatory_ok" not in captured.out
    assert "certificate error" in captured.err


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad_graph = tmp_path / "bad.txt"
    bad_graph.write_text("rgraph 4 1\ne 0 0\n")
    assert main(["validate", "-i", str(bad_graph)]) == 2
    assert "parse error" in capsys.readouterr().err

    graph_path = _write_graph(tmp_path, corpus.k4())
    bad_cert = tmp_path / "bad.json"
    bad_cert.write_text("{\"graph\":")
    assert main(["verify", "-i", graph_path, str(bad_cert)]) == 2
    assert "certificate error" in capsys.readouterr().err

    # arrays nested past the JSON parser's depth are a parse error, not a crash
    bad_cert.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", "-i", graph_path, str(bad_cert)]) == 2
    assert capsys.readouterr().err.startswith("certificate error: parse error: ")

    # a file that cannot be read has no line to blame
    missing = tmp_path / "nope.txt"
    assert main(["validate", "-i", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: cannot read {missing}: No such file or directory\n"
    assert "line 0" not in err

    # a leaf class that is not a string, hashable or not
    cert_path = tmp_path / "k4.json"
    assert main(["solve", "-i", graph_path, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    for kind in ([], {}, 7):
        cert = json.loads(cert_path.read_text())
        cert["tree"]["leaves"][0]["class"] = kind
        bad_cert.write_text(json.dumps(cert))
        assert main(["verify", "-i", graph_path, str(bad_cert)]) == 2, kind
        assert "unknown class" in capsys.readouterr().err, kind

    # files that are not UTF-8 text
    bad_graph.write_bytes(b"rgraph 4 1\n\xff\n")
    assert main(["validate", "-i", str(bad_graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {bad_graph} is not UTF-8 text")
    assert "line 0" not in err
    bad_cert.write_bytes(b"{\"graph\": \"\xff\"}")
    assert main(["verify", "-i", graph_path, str(bad_cert)]) == 2
    assert "certificate error" in capsys.readouterr().err


def test_decompose_tree_output(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.double_petersen_splice())
    assert main(["decompose", "-i", path]) == 0
    out = capsys.readouterr().out
    assert out.count("leaf PetersenBrick") == 2
    assert out.count("leaf Brace") == 1
    assert "p=2" in out

    assert main(["decompose", "-i", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 2
    assert payload["tree"]["type"] == "internal"


def _readme_demo_session():
    """Each `$ pmcover ...` line on demo.txt in the README, with the text shown below it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Exit codes")]
    session = {}
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for entry in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = entry.partition("\n")
            argv = shlex.split(command)
            if "demo.txt" in argv:
                session[argv[1]] = (argv[1:], shown)
    return session


def test_readme_shows_the_demo_session_exactly(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    session = _readme_demo_session()
    for command in ("gen", "validate", "solve", "decompose"):
        argv, shown = session[command]
        assert main(argv) == 0, command
        assert capsys.readouterr().out == shown, command
    # the README says verify prints the same report, recomputed
    argv, _ = session["verify"]
    assert main(argv) == 0
    assert capsys.readouterr().out == session["solve"][1]


def test_enumerate_lists_matchings(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.petersen())
    assert main(["enumerate", "-i", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "count 6"
    assert len(lines) == 7
    assert all(len(line.split()) == 5 for line in lines[:-1])
    # a limit the count reaches is not exceeded
    assert main(["enumerate", "-i", path, "--limit", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == lines
    assert captured.err == ""


def test_enumerate_limit_overflow(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.petersen())
    assert main(["enumerate", "-i", path, "--limit", "3"]) == 4
    captured = capsys.readouterr()
    assert "limit 3 exceeded; 3 matchings listed" in captured.err
    assert len(captured.out.strip().splitlines()) == 3
    # the partial list is still the success payload when JSON is asked for
    assert main(["enumerate", "-i", path, "--limit", "3", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert "limit 3 exceeded; 3 matchings listed" in captured.err
    payload = json.loads(captured.out)
    assert payload["count"] == 3
    assert payload["matchings"] == [sorted(m) for m in list(iter_pms(corpus.petersen()))[:3]]
    for m in payload["matchings"]:
        validate_perfect_matching(corpus.petersen(), m)


def test_enumerate_json(tmp_path, capsys):
    path = _write_graph(tmp_path, corpus.k4())
    assert main(["enumerate", "-i", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3
    assert sorted(payload["matchings"]) == [[0, 5], [1, 4], [2, 3]]


def test_gen_writes_file_and_stdout(tmp_path, capsys):
    out_path = tmp_path / "gen.txt"
    assert main(["gen", "8", "3", "--seed", "5", "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# gen n=8 r=3 seed=5\nrgraph 8 12\n")
    g = parse_graph_text(text)
    assert is_r_graph(g).ok

    assert main(["gen", "8", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "5", "3"], "n must be even and at least 2"),
        (["gen", "10", "0"], "r must be at least 1"),
        (["enumerate", "-i", "{graph}", "--limit", "-1"], "--limit must be nonnegative"),
    ],
    ids=["odd-n", "zero-r", "negative-limit"],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, message):
    path = _write_graph(tmp_path, corpus.k4())
    with pytest.raises(SystemExit) as info:
        main([arg.format(graph=path) for arg in argv])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
