"""Solve-and-verify benchmark for pmcover.

Usage, from the repository root:

    python3 perfbench/run.py --workload brick --seed 1 --seconds 35 --trace 0

One process, one client, closed loop: each generated graph file goes through
``pmcover solve`` and then ``pmcover verify`` of the certificate just
written, both called in-process through ``pmcover.cli.main``, and the next
instance starts only when the previous one is done.  Every certificate is
also checked by ``check.py``, which does not use pmcover.

``--trace 0`` runs the loop for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of instances, each once untraced
and once with every public pmcover function wrapped, and reports per-layer
counts and self times, the tracing overhead, and whether both passes wrote
identical certificates.  The last line of standard output is one JSON
object; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from check import check_certificate
from tracing import Tracer
from workloads import WORKLOADS, Workload, format_graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Per-instance limit on solve plus verify.  A timeout is a failed operation
# whose time is the limit; the instance stays in every statistic.
INSTANCE_LIMIT_S = 30.0
# Set-up is short, so it is repeated and its median reported.
SETUP_REPEATS = 7
# A traced run stops after this multiple of --seconds even if unfinished.
TRACE_CAP_FACTOR = 1.5
# On a shared 2-core VM the host's speed drifted by up to 2x within seconds.
# A fixed piece of pure-Python work is timed before every instance, and every
# reported time is scaled to a host on which that work takes REFERENCE_S.
REFERENCE_S = 0.0025


class InstanceTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in pmcover swallows it."""


def _on_alarm(signum: int, frame: object) -> None:
    raise InstanceTimeout()


@dataclass
class Outcome:
    status: str  # ok, timeout, error, solve_exit, verify_exit, check
    solve_s: float
    verify_s: Optional[float]
    cert_text: str = ""
    detail: str = ""

    @property
    def wrong(self) -> bool:
        """A result that is incorrect, as opposed to merely late."""
        return self.status not in ("ok", "timeout")


def _call(cli, argv: list[str]) -> int:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(argv)


def run_instance(cli, graph_path: Path, cert_path: Path, limit: float) -> Outcome:
    """Solve then verify one graph file under one time limit."""
    solve_s: Optional[float] = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        code = _call(cli, ["solve", "-i", str(graph_path), "-o", str(cert_path)])
        solve_s = time.perf_counter() - start
        if code != 0:
            return Outcome("solve_exit", solve_s, None, detail=f"exit code {code}")
        start = time.perf_counter()
        code = _call(cli, ["verify", "-i", str(graph_path), str(cert_path)])
        verify_s = time.perf_counter() - start
    except InstanceTimeout:
        if solve_s is None:
            return Outcome("timeout", limit, None)
        return Outcome("timeout", solve_s, limit)
    except Exception:
        elapsed = time.perf_counter() - start
        detail = traceback.format_exc()
        if solve_s is None:
            return Outcome("error", elapsed, None, detail=detail)
        return Outcome("error", solve_s, elapsed, detail=detail)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cert_text = cert_path.read_text(encoding="utf-8")
    if code != 0:
        return Outcome("verify_exit", solve_s, verify_s, cert_text, f"exit code {code}")
    problems = check_certificate(graph_path.read_text(encoding="utf-8"), cert_text)
    if problems:
        return Outcome("check", solve_s, verify_s, cert_text, "; ".join(problems))
    return Outcome("ok", solve_s, verify_s, cert_text)


def reference_work() -> tuple[Fraction, tuple[int, int]]:
    """Fixed work in the program's style: Fractions, dicts, small ints."""
    total = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 1200):
        total += Fraction(i % 13 - 6, i % 7 + 1)
        table[i % 101] = table.get(i % 101, 0) + i * i
    return total, min(table.items(), key=lambda kv: (kv[1] % 17, kv[0]))


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def import_cli():
    """Import pmcover.cli afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "pmcover" or m.startswith("pmcover.")]:
        del sys.modules[name]
    cli = importlib.import_module("pmcover.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"pmcover was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: Workload, seed: int, count: int):
    """Import the program and generate the inputs as graph-file texts."""
    cli = import_cli()
    texts = [format_graph(*workload.instance(seed, index)) for index in range(count)]
    return cli, texts


def timed_setup(workload: Workload, seed: int, count: int):
    """Set up SETUP_REPEATS times; the median normalised time is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        reference = statistics.median(reference_time() for _ in range(3))
        start = time.perf_counter()
        cli, texts = set_up(workload, seed, count)
        times.append((time.perf_counter() - start) * REFERENCE_S / reference)
    return cli, texts, statistics.median(times)


class Files:
    """The one graph file and one certificate file every instance reuses.

    Rewriting the same two files keeps the file system's create and delete
    costs, which vary widely, out of the measurements.
    """

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True)
        self.graph = work / "graph.txt"
        self.cert = work / "cert.json"

    def write_graph(self, text: str) -> Path:
        self.graph.write_text(text, encoding="utf-8")
        return self.graph


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with exactly ten samples above it.

    That is the highest percentile with at least ten samples beyond it.  It
    is never below the median, so runs with fewer than 21 samples report
    their median as the tail.
    """
    ordered = sorted(samples)
    index = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return 100 * (index + 1) / len(ordered), ordered[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(hashlib.sha256(text.encode()).digest())
    return h.hexdigest()


def _report_failures(outcomes: list[Outcome]) -> None:
    for index, outcome in enumerate(outcomes):
        if outcome.status != "ok":
            print(f"instance {index}: {outcome.status} {outcome.detail}".rstrip(), file=sys.stderr)


def measure(cli, texts: list[str], files: Files, seconds: float, digest_count: int):
    outcomes: list[Outcome] = []
    references: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        graph_path = files.write_graph(texts[len(outcomes) % len(texts)])
        gc.collect()
        references.append(reference_time())
        outcomes.append(run_instance(cli, graph_path, files.cert, INSTANCE_LIMIT_S))
    _report_failures(outcomes)

    # Each instance is scaled by the reference timings taken around it.
    scales = [
        REFERENCE_S / statistics.median(references[max(0, i - 2): i + 3])
        for i in range(len(references))
    ]
    solve = [o.solve_s * k for o, k in zip(outcomes, scales)]
    verify = [o.verify_s * k for o, k in zip(outcomes, scales) if o.verify_s is not None]
    busy = sum(solve) + sum(verify)
    passed = sum(1 for o in outcomes if o.status == "ok")
    solve_pct, solve_tail = tail(solve)
    verify_pct, verify_tail = tail(verify) if verify else (50, 0.0)
    raw_solve = statistics.median(o.solve_s for o in outcomes)
    metrics = {
        "solve_s.p50": (statistics.median(solve), "s"),
        "solve_s.tail": (solve_tail, "s"),
        "verify_s.p50": (statistics.median(verify) if verify else 0.0, "s"),
        "verify_s.tail": (verify_tail, "s"),
        "certs_per_s": (passed / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"reference_work median {statistics.median(references):.6f} s, nominal {REFERENCE_S} s",
        f"solve_s.p50 unnormalised {raw_solve:.6f} s",
        f"solve_s.tail is p{solve_pct:.2f} of {len(solve)} samples",
        f"verify_s.tail is p{verify_pct:.2f} of {len(verify)} samples",
        f"certs passed {passed} of {len(outcomes)} in {busy:.3f} s of solve plus verify",
    ]
    if len(outcomes) >= digest_count:
        certs = [o.cert_text for o in outcomes[:digest_count]]
        notes.append(f"certs_sha256 first {digest_count}: {digest(certs)}")
    else:
        notes.append(f"certs_sha256 first {digest_count}: incomplete, {len(outcomes)} run")
    return outcomes, metrics, notes


FUNCTION_FIELDS = {"calls": "count", "self_s": "s", "yielded": "count", "max_cols": "count"}

# Per-layer metrics, "<module>.<function>.<field>" unless derived below.
FUNCTION_METRICS = [
    "graphs.is_r_graph.calls", "graphs.is_r_graph.self_s",
    "graphs.gomory_hu_tree.calls", "graphs.gomory_hu_tree.self_s",
    "graphs.min_odd_cut.self_s", "graphs.build_graph.calls",
    "matchings.maximum_matching.calls", "matchings.maximum_matching.self_s",
    "matchings.pm_containing_edges.calls", "matchings.pm_containing_edges.self_s",
    "matchings.has_perfect_matching.calls", "matchings.has_perfect_matching.self_s",
    "matchings.max_matching_size.calls", "matchings.iter_pms.yielded",
    "matchings.iter_pms.self_s", "matchings.validate_perfect_matching.calls",
    "matchings.validate_perfect_matching.self_s", "matchings.incidence_matrix.self_s",
    "decomposition.decompose.calls", "decomposition.decompose.self_s",
    "decomposition.find_nontrivial_tight_cut.calls",
    "decomposition.find_nontrivial_tight_cut.self_s",
    "decomposition.is_tight_cut.calls", "decomposition.is_tight_cut.self_s",
    "decomposition.contract_shore.calls", "decomposition.contract_shore.self_s",
    "decomposition.assert_matching_covered.calls",
    "decomposition.assert_matching_covered.self_s",
    "decomposition.classify_leaf.self_s", "decomposition.petersen_embedding.self_s",
    "leaf_solvers.brick_solve.calls", "leaf_solvers.brick_solve.self_s",
    "leaf_solvers.brace_solve.calls", "leaf_solvers.brace_solve.self_s",
    "leaf_solvers.petersen_solve.calls", "leaf_solvers.petersen_solve.self_s",
    "leaf_solvers.greedy_basis.self_s",
    "linalg.hnf.calls", "linalg.hnf.self_s",
    "linalg.hnf_solve.calls", "linalg.hnf_solve.self_s", "linalg.hnf_solve.max_cols",
    "linalg.integer_kernel.calls", "linalg.integer_kernel.self_s",
    "linalg.rank.calls", "linalg.rank.self_s", "linalg.rational_solve.calls",
    "merge.solve_r_graph.self_s", "merge.improved_merge.calls", "merge.improved_merge.self_s",
    "cover.exact_cover.calls", "cover.exact_cover.self_s",
    "cover.terms_independent.calls", "cover.terms_independent.self_s",
    "certificate.build_certificate.self_s", "certificate.serialize.self_s",
    "certificate.deserialize.self_s", "certificate.verify_certificate.self_s",
    "cli.parse_graph_text.self_s", "cli.main.self_s",
]

DERIVED_METRICS = {
    "decomposition.cut_hit_ratio": "ratio",
    "decomposition.depth": "count",
    "decomposition.leaves.brace": "count",
    "decomposition.leaves.petersen": "count",
    "decomposition.leaves.other_brick": "count",
    "trace.instances": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

LEAF_CLASSES = {"Brace": "brace", "PetersenBrick": "petersen", "OtherBrick": "other_brick"}


def _busy(outcome: Outcome) -> float:
    return outcome.solve_s + (outcome.verify_s or 0.0)


def measure_traced(cli, texts: list[str], files: Files, seconds: float, count: int):
    """Run the first ``count`` instances untraced, then traced, and compare."""
    tracer = Tracer(sys.modules["pmcover"])
    pairs: list[tuple[Outcome, Outcome]] = []
    leaves = dict.fromkeys(LEAF_CLASSES.values(), 0)
    deadline = time.perf_counter() + TRACE_CAP_FACTOR * seconds
    for text in texts[:count]:
        if time.perf_counter() >= deadline:
            break
        graph_path = files.write_graph(text)
        gc.collect()
        plain = run_instance(cli, graph_path, files.cert, INSTANCE_LIMIT_S)
        gc.collect()
        tracer.install()
        try:
            traced = run_instance(cli, graph_path, files.cert, INSTANCE_LIMIT_S)
        finally:
            tracer.uninstall()
        pairs.append((plain, traced))
        if traced.status == "ok":
            for leaf in json.loads(traced.cert_text)["tree"]["leaves"]:
                leaves[LEAF_CLASSES[leaf["class"]]] += 1
    _report_failures([o for pair in pairs for o in pair])

    stats = tracer.stats
    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTION_METRICS:
        function, field = name.rsplit(".", 1)
        stat = stats.get(function)
        metrics[name] = (getattr(stat, field) if stat else 0, FUNCTION_FIELDS[field])
    decompose = stats.get("decomposition.decompose")
    tight_cut = stats.get("decomposition.is_tight_cut")
    tight_calls = tight_cut.calls if tight_cut else 0
    cuts_found = sum(leaves.values()) - len(pairs)
    untraced = sum(_busy(plain) for plain, _ in pairs)
    traced_s = sum(_busy(traced) for _, traced in pairs)
    derived = {
        "decomposition.cut_hit_ratio": cuts_found / tight_calls if tight_calls else 0.0,
        "decomposition.depth": max(0, decompose.max_active - 1) if decompose else 0,
        "trace.instances": len(pairs),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced,
        "trace.overhead_ratio": (traced_s - untraced) / untraced if untraced else 0.0,
    }
    derived.update({f"decomposition.leaves.{k}": v for k, v in leaves.items()})
    metrics.update({name: (derived[name], unit) for name, unit in DERIVED_METRICS.items()})

    plain_texts = [plain.cert_text for plain, _ in pairs]
    traced_texts = [traced.cert_text for _, traced in pairs]
    same = plain_texts == traced_texts
    notes = [
        f"traced {len(pairs)} of {count} instances",
        f"certs_sha256 first {len(pairs)} untraced: {digest(plain_texts)}",
        f"certs_sha256 first {len(pairs)} traced:   {digest(traced_texts)}",
        f"traced certificates {'equal' if same else 'DIFFER FROM'} untraced ones",
        "functions: " + json.dumps(
            {name: [s.calls, round(s.self_s, 6)] for name, s in sorted(stats.items()) if s.calls}
        ),
    ]
    outcomes = [plain if plain.status != "ok" else traced for plain, traced in pairs]
    return outcomes, metrics, notes, same


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pmcover" / "__init__.py").is_file():
        print(f"pmcover sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    trace_count = max(1, math.ceil(workload.trace_rate * args.seconds))
    pool = max(trace_count, math.ceil(workload.pool_rate * args.seconds))
    work = WORK / f"{workload.name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        cli, texts, setup_s = timed_setup(workload, args.seed, pool)
        gc.freeze()  # keeps set-up's objects out of the collections between instances
        files = Files(work)
        if args.trace:
            outcomes, metrics, notes, same = measure_traced(
                cli, texts, files, args.seconds, trace_count
            )
        else:
            outcomes, metrics, notes = measure(cli, texts, files, args.seconds, trace_count)
            metrics["setup_s"] = (setup_s, "s")
            same = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"setup_s median of {SETUP_REPEATS}: {setup_s:.4f} s for {pool} instances")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    failed = sum(1 for o in outcomes if o.status != "ok")
    result = {
        "correct": bool(outcomes) and same and not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
