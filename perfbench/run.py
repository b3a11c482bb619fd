#!/usr/bin/env python3
"""End-to-end benchmark of the zeroone command line, with a traced per-layer run.

    python3 perfbench/run.py --workload survey|expand|char --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the harness imports zeroone from
``src/`` in its own process and drives the public ``zeroone.cli.run(argv,
out, err)`` on inputs generated from the seed.  A run makes a fixed number
of rounds, ``--seconds`` times the workload's rounds per second on a
2-core x86-64 VM with CPython 3.11, so it measures about ``--seconds`` there
and the same work everywhere.  Every output is checked against an
independent route; failed invocations count against ``attempted``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is the run record (machine, Python, source digest, seed, and the raw
times behind the metrics).

An untraced run keeps a speed probe (speed.py) sampling the machine and
reports every time scaled to the probe's reference speed, so that minutes
in which the shared host runs everything slower do not read as a slower
program; the record keeps the unscaled figures.

A traced run first makes the same run untraced in a child process, then
the same rounds in-process with spans recorded around each layer and no
probe, so the difference of the two raw wall times is the tracing overhead.
Files the harness writes go to ``.bench_out/`` in the checkout.
See perfbench/README.md for the workloads and why they are shaped as they are.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import speed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Reserved for checking a later speed claim on inputs nobody tuned against.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 15
MODULES = ("perms", "poly", "orthodontia", "tableaux", "weyl", "classify", "cli")

# Zero-one counts of S_1..S_8 (Fink-Meszaros-St. Dizier); 3343 and 19038
# are the paper's numbers for S_7 and S_8.
ZERO_ONE_COUNTS = {1: 1, 2: 2, 3: 6, 4: 24, 5: 115, 6: 605, 7: 3343, 8: 19038}

PER_LAYER = [
    ("classify.patterns_s", "self", "classify.patterns"),
    ("classify.configurations_s", "self", "classify.configurations"),
    ("classify.configurations_calls", "calls", "classify.configurations"),
    ("orthodontia.multfree_s", "self", "orthodontia.multfree"),
    ("classify.survey_self_s", "self", "classify.survey"),
    ("classify.zero_one_status_s", "self", "classify.zero_one_status"),
    ("poly.schubert_all_s", "self", "poly.schubert_all"),
    ("poly.schubert_all_terms", "count", "poly.schubert_all_terms"),
    ("poly.classic_s", "self", "poly.classic"),
    ("poly.divided_difference_s", "self", "poly.divided_difference"),
    ("poly.divided_difference_calls", "calls", "poly.divided_difference"),
    ("poly.terms_out", "count", "poly.terms_out"),
    ("poly.format_s", "self", "poly.format"),
    ("orthodontia.schubert_s", "self", "orthodontia.schubert"),
    ("orthodontia.demazure_s", "self", "orthodontia.demazure"),
    ("orthodontia.demazure_calls", "calls", "orthodontia.demazure"),
    ("tableaux.schubert_s", "self", "tableaux.schubert"),
    ("tableaux.root_operator_calls", "count", "tableaux.root_operator_calls"),
    ("tableaux.words", "count", "tableaux.words"),
    ("weyl.char_s", "self", "weyl.char"),
    ("weyl.dominance_s", "self", "weyl.dominance"),
    ("weyl.minor_s", "self", "weyl.minor"),
    ("weyl.minor_calls", "calls", "weyl.minor"),
    ("weyl.rank_s", "self", "weyl.rank"),
    ("weyl.rank_calls", "calls", "weyl.rank"),
    ("weyl.rank_cells", "count", "weyl.rank_cells"),
    ("perms.rothe_s", "self", "perms.rothe"),
    ("cli.self_s", "self", "cli"),
]


# -- the program under test ---------------------------------------------


class Program:
    """The zeroone modules, imported fresh from the checkout's src/."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        # Dropping earlier copies makes this a cold import: the classic memo
        # and the minor cache start empty, as in a fresh CLI process.
        for name in [m for m in sys.modules if m == "zeroone" or m.startswith("zeroone.")]:
            del sys.modules[name]
        self.package = importlib.import_module("zeroone")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"zeroone.{name}"))

    def modules(self):
        return [self.package] + [getattr(self, name) for name in MODULES]


def instrument(program: Program) -> tracing.Tracer:
    """Wrap the public functions each per-layer metric is taken from."""
    t = tracing.Tracer(program.modules())
    p = program

    def terms_out(tr, f):
        tr.count("poly.terms_out", len(f.terms))

    def schubert_all_terms(tr, item):
        tr.count("poly.schubert_all_terms", len(item[1].terms))

    def rank_cells(tr, args):
        rows = args[0]
        tr.count("weyl.rank_cells", len(rows) * (len(rows[0]) if rows else 0))

    t.timed(p.perms, "rothe_diagram", "perms.rothe")
    t.timed(p.poly, "schubert_classic", "poly.classic")
    t.timed(p.poly, "divided_difference", "poly.divided_difference", on_result=terms_out)
    t.timed(p.poly, "demazure", "orthodontia.demazure")
    t.timed_generator(p.poly, "schubert_all", "poly.schubert_all", on_item=schubert_all_terms)
    t.timed(p.poly.Polynomial, "__str__", "poly.format")
    t.timed(p.poly.Polynomial, "sorted_terms", "poly.format")
    t.timed(p.orthodontia, "schubert_orthodontic", "orthodontia.schubert")
    t.timed(p.orthodontia, "is_multiplicity_free", "orthodontia.multfree")
    t.timed(p.tableaux, "schubert_from_tableaux", "tableaux.schubert")
    t.counted(p.tableaux, "root_operator", "tableaux.root_operator_calls")
    t.counted(p.tableaux, "tableaux_set", "tableaux.words", weigh=len)
    t.timed(p.weyl, "dual_character", "weyl.char")
    t.timed(p.weyl, "pattern_dominance_check", "weyl.dominance")
    t.timed(p.weyl, "minor", "weyl.minor")
    t.timed(p.weyl, "matrix_rank", "weyl.rank", on_args=rank_cells)
    t.timed(p.classify, "survey", "classify.survey")
    t.timed(p.classify, "has_configuration", "classify.configurations")
    t.timed(p.classify, "avoids_multiplicitous", "classify.patterns")
    t.timed(p.classify, "zero_one_status", "classify.zero_one_status")
    t.timed(p.cli, "run", "cli")
    return t


# -- input generation ---------------------------------------------------


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def rothe_columns(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Columns of the inversion diagram: row i is in column j iff w_i > j and w^-1(j) > i."""
    pos = {v: i for i, v in enumerate(w, start=1)}
    return [tuple(i for i in range(1, pos[j]) if w[i - 1] > j) for j in range(1, len(w) + 1)]


def column_choices(rows: tuple[int, ...]) -> int:
    """Number of increasing tuples s with s_k <= rows_k for every k."""
    ways = {0: 1}
    for r in rows:
        nxt, run = {}, 0
        for v in range(1, r + 1):
            run += ways.get(v - 1, 0)
            if run:
                nxt[v] = run
        ways = nxt
    return sum(ways.values())


def subdiagram_count(w: tuple[int, ...]) -> int:
    """#{C <= D(w)}: the size of the determinantal spanning set of the flagged
    Weyl module of D(w), an upper bound on the number of tableau words."""
    count = 1
    for col in rothe_columns(w):
        count *= column_choices(col)
    return count


def perm_text(w: tuple[int, ...]) -> str:
    return "".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w))


def diagram_text(w: tuple[int, ...]) -> str:
    return "".join(
        f"{j}:" + "".join(f" {i}" for i in col) + "\n"
        for j, col in enumerate(rothe_columns(w), start=1)
    )


def is_zero_one_text(expansion: str) -> bool:
    """Read the coefficients off a printed polynomial: all equal to 1?"""
    for term in expansion.strip().split(" + "):
        head = term.split("*", 1)[0]
        if head.isdigit() and head != "1":
            return False
    return True


# -- workloads ----------------------------------------------------------


class Call:
    """One invocation: its output, its raw time, and its time at reference speed."""

    __slots__ = ("argv", "rc", "out", "start", "end", "raw_seconds", "seconds")

    def __init__(self, argv, rc, out, start, end, raw_seconds):
        self.argv, self.rc, self.out = argv, rc, out
        self.start, self.end, self.raw_seconds = start, end, raw_seconds
        self.seconds = raw_seconds


class Survey:
    """survey 8, then survey 7 --methods all: the paper's exhaustive sweep.

    The survey is exhaustive, so the seed changes no input here; it draws
    the S_8 sample on which the traced run replays the two public predicates
    that the survey reaches only through private twins.
    """

    rounds_per_s = 1 / 20

    def __init__(self, tiny: bool):
        self.fast_n, self.all_n = (5, 4) if tiny else (8, 7)
        self.replay_n, self.replay_size = (5, 60) if tiny else (8, 4000)

    def make_inputs(self, rng, count):
        return [(self.fast_n, self.all_n)] * count

    def write_files(self, rounds, workdir):
        pass

    def argvs(self, rnd):
        fast_n, all_n = rnd
        return [["survey", str(fast_n)], ["survey", str(all_n), "--methods", "all"]]

    def work(self, rnd, calls):
        return factorial(rnd[0]) + factorial(rnd[1])

    def reference(self, n):
        return f"n {n}\ntotal {factorial(n)}\nzero_one {ZERO_ONE_COUNTS[n]}\ndisagreements 0\n"

    def failures(self, program, rnd, calls):
        return [c.rc != 0 or c.out != self.reference(n) for c, n in zip(calls, rnd)]

    def replay(self, program, seed):
        rng = random.Random(seed)
        Permutation = program.perms.Permutation
        sample = [Permutation(random_permutation(rng, self.replay_n)) for _ in range(self.replay_size)]
        for w in sample:
            program.classify.avoids_multiplicitous(w)
        for w in sample:
            program.orthodontia.is_multiplicity_free(w)


class Expand:
    """Per-query expansion on S_10: three routes plus the checked zero-one test.

    Permutations are drawn uniformly from S_10 and kept when #{C <= D(w)}
    lies in [2^8, 2^15), roughly the middle half of S_10.  That band is cut
    into half-octave strata [2^(k/2), 2^((k+1)/2)), and a round holds one
    permutation per stratum, so every round has the same size profile.
    On uniform S_10 samples half the time sits in a few multi-second items;
    resampling 300 timed permutations gave a throughput spread of 37% between
    seeds at 20 s per run.  Larger queries are outside this workload.
    """

    methods = ("classic", "orthodontia", "tableaux")

    def __init__(self, tiny: bool):
        self.n, self.strata = (6, range(4, 10)) if tiny else (10, range(16, 30))
        self.rounds_per_s = 1.6

    def make_inputs(self, rng, want):
        buckets = {k: [] for k in self.strata}
        for _ in range(10_000 * want * len(buckets)):
            if all(len(b) == want for b in buckets.values()):
                break
            w = random_permutation(rng, self.n)
            bucket = buckets.get(int(2 * math.log2(subdiagram_count(w))))
            if bucket is not None and len(bucket) < want:
                bucket.append(w)
        else:
            raise RuntimeError("a stratum of the expand sample stays empty")
        return [tuple(buckets[k][r] for k in self.strata) for r in range(want)]

    def write_files(self, rounds, workdir):
        pass

    def argvs(self, rnd):
        out = []
        for w in rnd:
            text = perm_text(w)
            out += [["expand", text, "--method", m] for m in self.methods]
            out.append(["--checked", "zero-one", text, "--all-methods"])
        return out

    def work(self, rnd, calls):
        return len(calls)

    def reference(self, group):
        """The classic route's output, which the other routes must match."""
        return group[0].out

    def failures(self, program, rnd, calls):
        failed = []
        per = len(self.methods) + 1
        for k in range(len(rnd)):
            group = calls[k * per:(k + 1) * per]
            expected = self.reference(group)
            failed += [c.rc != 0 or c.out != expected for c in group[:-1]]
            verdict = "true" if is_zero_one_text(expected) else "false"
            lines = group[-1].out.splitlines()
            votes = [line.split()[1] for line in lines if line.startswith("by_")]
            failed.append(
                group[-1].rc != 0 or not lines or lines[0] != verdict
                or len(votes) != 4 or any(v != verdict for v in votes)
            )
        return failed


class Char:
    """Dual characters of S_7 inversion diagrams, and the dominance check.

    S_7 is sorted by #{C <= D(w)} and cut into equal strata; a round takes one
    seeded diagram from each stratum with a seeded row K and column L, so
    every round has the same size profile.  Set-up writes each diagram the
    run uses to a file.  dominance computes two characters, one of them of a
    non-Rothe diagram.
    """

    def __init__(self, tiny: bool):
        self.n, self.strata = (4, 4) if tiny else (7, 20)
        self.rounds_per_s = 3.3
        self.files: dict[tuple[int, ...], str] = {}
        self.expected: dict[tuple[int, ...], str | None] = {}

    def make_inputs(self, rng, want):
        ranked = sorted(itertools.permutations(range(1, self.n + 1)),
                        key=lambda w: (subdiagram_count(w), w))
        size = len(ranked) // self.strata
        strata = [ranked[s * size:(s + 1) * size] for s in range(self.strata)]
        return [
            tuple((rng.choice(stratum), rng.randint(1, self.n), rng.randint(1, self.n))
                  for stratum in strata)
            for _ in range(want)
        ]

    def write_files(self, rounds, workdir):
        self.files = {}
        for w in sorted({item[0] for rnd in rounds for item in rnd}):
            path = workdir / f"{perm_text(w)}.txt"
            path.write_text(diagram_text(w), encoding="utf-8")
            self.files[w] = str(path)

    def argvs(self, rnd):
        out = []
        for w, k, l in rnd:
            out.append(["--limit", str(self.n), "--structured", "char", self.files[w]])
            out.append(["--limit", str(self.n), "dominance", self.files[w],
                        "--row", str(k), "--col", str(l)])
        return out

    def work(self, rnd, calls):
        return len(calls)

    def reference(self, program, w):
        """The classic route's structured expansion, through the same CLI."""
        out = io.StringIO()
        rc = program.cli.run(["--structured", "expand", perm_text(w)], out, io.StringIO())
        return out.getvalue() if rc == 0 else None

    def failures(self, program, rnd, calls):
        failed = []
        for (w, _, _), char, dom in zip(rnd, calls[0::2], calls[1::2]):
            if w not in self.expected:
                self.expected[w] = self.reference(program, w)
            expected = self.expected[w]
            failed.append(char.rc != 0 or expected is None or char.out != expected)
            failed.append(dom.rc != 0 or "ok true" not in dom.out.splitlines())
        return failed


WORKLOADS = {"survey": Survey, "expand": Expand, "char": Char}


# -- measurement --------------------------------------------------------


def drive(program, workload, rounds, probe=None):
    """Run every round through the CLI; return the rounds with their calls
    and the wall time of the loop, the probe's own time left out.

    With a speed probe running, each call's `seconds` is its time scaled to
    the reference speed; without one it is the raw time.
    """
    clock = probe.clock if probe else time.perf_counter
    done = []
    start = clock()
    for rnd in rounds:
        calls = []
        for argv in workload.argvs(rnd):
            out, err = io.StringIO(), io.StringIO()
            w0, t0 = time.perf_counter(), clock()
            try:
                rc = program.cli.run(argv, out, err)
            except Exception as exc:  # an escaped exception is a failed invocation
                rc = f"exception {type(exc).__name__}: {exc}"
            t1 = clock()
            calls.append(Call(argv, rc, out.getvalue(), w0, time.perf_counter(), t1 - t0))
        done.append((rnd, calls))
    wall = clock() - start
    if probe:
        for _, calls in done:
            for c in calls:
                c.seconds = c.raw_seconds * probe.scale(c.start, c.end)
    return done, wall


def gate(program, workload, done):
    """Count attempted and failed invocations; keep a few failing argv."""
    attempted, failing = 0, []
    for rnd, calls in done:
        flags = workload.failures(program, rnd, calls)
        attempted += len(flags)
        failing += [c.argv for c, bad in zip(calls, flags) if bad]
    return attempted, len(failing), failing[:5]


def set_up(workload, seed, count, workdir, probe=None):
    """Import and generate `count` rounds SETUP_REPEATS times, keep the last,
    then write the input files once.

    Returns the program, the rounds, each repetition's timing (start, end,
    raw seconds) for scaling once the probe has sampled the time around it,
    and the seconds the files took.  Writing the files is left out of the
    repetitions: it is this harness's cost on the file system, not the
    program's, and on a shared disk 1600 small files took from 0.1 to 1 s.
    """
    clock = probe.clock if probe else time.perf_counter
    times = []
    for _ in range(SETUP_REPEATS):
        w0, t0 = time.perf_counter(), clock()
        program = Program()
        rounds = workload.make_inputs(random.Random(seed), count)
        times.append((w0, time.perf_counter(), clock() - t0))
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = clock()
    workload.write_files(rounds, workdir)
    return program, rounds, times, clock() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zeroone").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "tiny": args.tiny,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def timings(workload, done, setup_times, key):
    """items_per_s, p50, p90 and set-up seconds from the calls' `key` times."""
    latencies = [getattr(c, key) for _, calls in done for c in calls]
    # Every round has the same shape: the k-th invocation of each round runs
    # the same command on an input of the same stratum.  The typical round
    # takes, at each position, the median time over the run's rounds, so
    # neither one heavy input nor one slow second of the machine can move it.
    typical = sum(
        statistics.median(getattr(c, key) for c in position)
        for position in zip(*(calls for _, calls in done))
    )
    rate = workload.work(*done[0]) / typical
    p50, p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[i] for i in (4, 8))
    return rate, p50, p90, statistics.median(setup_times), len(latencies)


def end_to_end(workload, done, wall, setup_times, probe):
    """The end-to-end metrics at reference speed, and the raw figures for the record."""
    scaled_setup = [seconds * probe.scale(w0, w1) for w0, w1, seconds in setup_times]
    rate, p50, p90, setup, samples = timings(workload, done, scaled_setup, "seconds")
    raw = timings(workload, done, [seconds for _, _, seconds in setup_times], "raw_seconds")
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_p50_ms": (p50 * 1e3, "ms"),
        "item_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    work = sum(workload.work(rnd, calls) for rnd, calls in done)
    return metrics, {
        "latency_samples": samples, "work_items": work,
        "raw": dict(zip(("items_per_s", "item_p50_ms", "item_p90_ms", "setup_s"),
                        (raw[0], raw[1] * 1e3, raw[2] * 1e3, raw[3]))),
        "raw_overall_items_per_s": work / wall,
        "probe": {"samples": len(probe.times), "median_s": statistics.median(probe.times),
                  "reference_s": speed.REFERENCE_S, "spent_s": probe.spent},
        "round_s": [sum(c.seconds for c in calls) for _, calls in done],
        "setup_s": scaled_setup,
    }


def untraced_child(args):
    """The same run, untraced, in a fresh process; returns its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-2])["record"]


def measure(args):
    workload = WORKLOADS[args.workload](args.tiny)
    record = run_record(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    # The work is fixed by the seed and --seconds, not by the clock, so a
    # faster version does the same rounds and its memory and counts compare.
    count = max(1, int(workload.rounds_per_s * args.seconds))
    try:
        if args.trace:
            child = untraced_child(args)
        if not args.trace:
            with speed.Probe() as probe:
                program, rounds, setup_times, files_s = set_up(
                    workload, args.seed, count, workdir, probe)
                done, wall = drive(program, workload, rounds, probe)
            attempted, failed, examples = gate(program, workload, done)
            metrics, extra = end_to_end(workload, done, wall, setup_times, probe)
            record.update(extra, rounds=len(done), loop_wall_s=wall, input_files_s=files_s)
        else:
            program, rounds, _, _ = set_up(workload, args.seed, count, workdir)
            tracer = instrument(program)
            done, wall = drive(program, workload, rounds)
            if hasattr(workload, "replay"):
                with tracer.span("bench.replay"):
                    workload.replay(program, args.seed)
            tracer.restore()
            attempted, failed, examples = gate(program, workload, done)
            values = {
                "self": tracer.self_s, "calls": tracer.calls, "count": tracer.counts,
            }
            metrics = {
                name: (values[kind].get(key, 0), "s" if kind == "self" else "count")
                for name, kind, key in PER_LAYER
            }
            overhead = wall - child["loop_wall_s"]
            metrics["trace.overhead_s"] = (overhead, "s")
            record.update(rounds=len(done), loop_wall_s=wall,
                          untraced_loop_wall_s=child["loop_wall_s"], overhead_s=overhead)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"record": record})
            record["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  failed_examples=examples)
    return record, metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "zeroone" / "__init__.py").is_file():
        print(f"error: no zeroone package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    record, metrics, attempted, failed = measure(args)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {record['error_rate']:.6g} ({failed}/{attempted} invocations failed)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
