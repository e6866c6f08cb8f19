"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    Prog, Workload, named_prog, parse_named, path_edges)


@pytest.fixture
def cli():
    return run.import_dlbound(SRC.resolve())


# found by the benchmark: gmin + cont membership loses the second rule;
# budget 2 relaxes the only rule's body away
DROP = "p0(X) :- e1(X), e0(X).\np0(X) :- e0(X), e0(Y).\np0(Z) :- p0(Y), e0(Z)."
UCQ = "p1(0) :- e1(X), p2(X,Y), e1(Y)."


def tc_workload(tmp_path, *jobs) -> Workload:
    rng = random.Random(0)
    w = Workload()
    prog, pm = named_prog(rng, "tc_right")
    w.add_prog("tc", prog, rng)
    w.edbs["path"] = {pm["e"]: path_edges(rng, 5)}
    tri, tm = named_prog(rng, "triangle")
    w.add_prog("tri", tri, rng)
    w.add_prog("drop", Prog(parse_named(DROP)), rng)
    w.check_edbs["drop"].append({"e0": {(1,)}, "e1": set()})
    w.add_prog("ucq", Prog(parse_named(UCQ)), rng)
    w.check_edbs["ucq"].append({"e1": set(), "p2": set()})
    for cmd, pid, extra, params in jobs:
        w.add(cmd, pid, *extra, edb="path" if cmd == "eval" else None,
              **params)
    w.write(tmp_path)
    return w


def one_pass(main, w) -> dict:
    loop = run.timed_loop(types.SimpleNamespace(main=main), w, 0)
    return run.summarize(main, w, *loop)


def test_correct_run_has_no_failures(tmp_path, cli):
    w = tc_workload(tmp_path, ("eval", "tc", (), {}),
                    ("adorn", "tc", (), {"relax": "gout",
                                         "membership": "eq"}),
                    ("widths", "tc", ("--fractional",),
                     {"fractional": True}))
    info = one_pass(cli.main, w)
    assert info["failed"] == 0 and info["correct"]
    assert info["end_to_end"]["tuples_per_s"] > 0


def test_wrong_output_and_exception_count_as_failures(tmp_path, cli):
    w = tc_workload(tmp_path, ("eval", "tc", (), {}),
                    ("classify", "tc", (), {}))

    def wrong(argv):
        if argv[1] == "classify":
            raise RuntimeError("boom")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        answer = json.loads(buf.getvalue())
        for tuples in answer.values():
            tuples.pop()
        print(json.dumps(answer))
        return rc

    info = one_pass(wrong, w)
    assert info["failed"] == 2 and info["attempted"] == 2
    assert info["end_to_end"]["fail_ratio"] == 1.0
    assert not info["correct"]
    assert info["failure_kinds"] == {"wrong answer from eval": 1,
                                     "exception RuntimeError in classify": 1}


def test_timeout_in_one_pass_counts_once(tmp_path, cli, monkeypatch):
    w = tc_workload(tmp_path, ("classify", "tc", (), {}))
    monkeypatch.setattr(workloads, "TIME_LIMIT", 0.2)
    calls = []

    def slow_once(argv):
        calls.append(argv)
        if len(calls) == 1:
            time.sleep(1)
        return cli.main(argv)

    loop = run.timed_loop(types.SimpleNamespace(main=slow_once), w, 1.0)
    info = run.summarize(slow_once, w, *loop)
    assert info["passes"] > 1
    # a job counts once however many passes ran it
    assert info["attempted"] == 1 and info["failed"] == 1
    # the later passes' output is checked; the hang is not a known one
    assert info["failure_kinds"] == {check.TIMEOUT + "classify": 1}
    assert not info["correct"]


def test_setup_probe_keeps_the_modules_the_jobs_run(tmp_path, cli):
    times = []
    run.setup_probe(SRC.resolve(), "eval-scale", 1, tmp_path, times)()
    assert len(times) == 1 and times[0] > 0
    assert sys.modules["dlbound.cli"] is cli
    assert gc.get_freeze_count() == 0


def test_known_failures_are_classified(tmp_path, cli):
    w = tc_workload(
        tmp_path,
        ("adorn", "tri", (), {"relax": "gout", "membership": "eq"}),
        ("bounds", "tri", ("--n", str(10 ** 150)), {"n": 10 ** 150}),
        ("bounds", "tri", ("--n", str(10 ** 40)), {"n": 10 ** 40}),
        ("bounds", "tri", ("--n", "1000"), {"n": 1000}),
        ("adorn", "drop", ("--relax", "gmin", "--membership", "cont"),
         {"relax": "gmin", "membership": "cont"}),
        ("boundedness", "ucq", ("--budget", "2"), {"budget": 2}))
    info = one_pass(cli.main, w)
    assert info["failure_kinds"] == {check.OVERFLOW: 1, check.HANG: 1,
                                     check.CONT_DROP: 1,
                                     check.BUDGET_UCQ: 1}
    assert info["correct"]


def test_rule_cap_exit_is_checked_and_not_completed(tmp_path, cli,
                                                    monkeypatch):
    default = ("adorn", "tc", (), {"relax": "gout", "membership": "eq"})

    def stops_at_cap(argv):  # claims a cap of 5 stopped it
        if argv[1] == "adorn" and os.environ["DLSB_MAX_RULES"] == "5":
            print(check.LIMIT_MSG, file=sys.stderr)
            return 1
        return cli.main(argv)

    # tc adorns to 3 rules under GOut: a cap of 2 stops it, one of 5 not
    for cap in (2, 5):
        w = tc_workload(tmp_path, default, ("widths", "tc", (), {}))
        w.max_rules = cap
        monkeypatch.setenv("DLSB_MAX_RULES", str(cap))
        info = one_pass(stops_at_cap, w)
        if cap == 2:
            assert info["failure_kinds"] == {check.BUDGET: 1}
            assert info["capped"] == 1 and info["correct"]
            assert info["end_to_end"]["jobs_per_s"] == 0.0
        else:
            assert info["failure_kinds"] == {check.BAD_CAP: 1}
            assert not info["correct"]


def test_tracer_intercepts_copied_binding(cli):
    import dlbound
    from dlbound import adorn, boundedness, unify

    original = unify.subsumes
    rule = dlbound.parse_program("r(X) :- e(X,Y).").rules[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert adorn.subsumes is not original
        assert adorn.subsumes(rule, rule)
        assert boundedness.cq_contained(rule, rule)
    finally:
        tracer.uninstall()
    assert adorn.subsumes is original and dlbound.subsumes is original
    calls, _, hits = tracer.stats["unify.subsumes"]
    assert calls == 2 and hits == 2


def test_self_times_sum_to_job_time(tmp_path, cli):
    w = run.WORKLOADS["eval-scale"](1)
    w.jobs = [j for j in w.jobs if j.prog.startswith("probe")]
    w.write(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        lat, *_ = run.timed_loop(cli, w, 0)
    finally:
        tracer.uninstall()
    job_s = sum(t for ts in lat for t in ts)
    # the rest is the runner's output capture around cli.main
    assert 0.9 * job_s <= tracer.total_self_s() <= job_s
    assert all(tracer.stats[name][0] > 0 for name in tracer.stats)


def test_output_digest_repeats_across_processes(tmp_path):
    script = (
        "import sys; from pathlib import Path\n"
        f"sys.path[:0] = [{str(BENCH)!r}]\n"
        "import run\n"
        "cli = run.import_dlbound(Path(sys.argv[1]))\n"
        "w = run.WORKLOADS['corpus-mix'](7)\n"
        "w.jobs = w.jobs[:200]\n"
        "w.write(Path(sys.argv[2]))\n"
        "print(run.summarize(cli.main, w, *run.timed_loop(cli, w, 0))"
        "['output_digest'])\n")
    digests = set()
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        digests.add(subprocess.run(
            [sys.executable, "-c", script, str(SRC.resolve()), str(work)],
            env={"PYTHONHASHSEED": str(seed), "PYTHONPATH": str(SRC)},
            check=True, capture_output=True, text=True).stdout)
    assert len(digests) == 1


def test_oracle_covers_and_roots():
    tri = oracle.parse_rule("p[p(X,Y,Z) :- e(X,Y,_), e(X,Z,_), e(Y,Z,_)]"
                            "(X,Y,Z) :- q(X,Y).")
    adn = tri[0][0][1]
    assert oracle.integral_cover(adn) == 2
    assert oracle.fractional_cover(adn) == Fraction(3, 2)
    assert [oracle.stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert oracle.pow_ceil(10 ** 200, Fraction(3, 2)) == 10 ** 300
    assert oracle.pow_ceil(10, Fraction(1, 2)) == 4
