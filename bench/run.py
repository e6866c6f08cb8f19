"""dlbound benchmark: closed-loop CLI jobs per workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload adorn-heavy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 > report.md

A job is one in-process call of ``dlbound.cli.main(["--json", ...])`` on
generated files, with stdout and stderr captured in memory.  One client
runs the workload's job list (a *pass*) again and again, one job at a
time, for the measured time.  Outputs are checked against bench/oracle.py
after the timed loop.  The last line of stdout is a JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  ``--workload all`` runs every workload, untraced
and traced, each in its own process, and prints a Markdown report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from breakdown import UNIT, markdown
from check import Checker, Result, cap_exit, timed_out, tolerated
from tracing import Tracer, wrapper_cost
from workloads import WORKLOADS

# Set-up is timed once before the timed loop and again every
# SETUP_EVERY_S seconds between jobs of an untraced run.
SETUP_EVERY_S = 2.0


def import_dlbound(src: Path):
    """Import dlbound afresh from the checkout's sources."""
    for name in [n for n in sys.modules
                 if n == "dlbound" or n.startswith("dlbound.")]:
        del sys.modules[name]
    cli = importlib.import_module("dlbound.cli")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"dlbound imported from {cli.__file__}, not {src}")
    return cli


def setup_once(src, workload, seed, directory):
    """One set-up: import dlbound afresh, generate the inputs and write
    them into `directory`.  Returns its time, the cli module and the
    workload."""
    t0 = time.perf_counter()
    cli = import_dlbound(src)
    w = WORKLOADS[workload](seed)
    w.write(directory)
    return time.perf_counter() - t0, cli, w


def setup_probe(src, workload, seed, directory, times):
    """A callable that times one more set-up into `times` and then puts
    back the dlbound modules the jobs run.  Every set-up rewrites the
    same files with the same bytes: creating and deleting thousands of
    files per run made the time depend on the file system's backlog.
    The run's own objects are frozen meanwhile, so that the garbage
    collector does not walk them during the set-up as it would not in a
    fresh process."""
    def probe():
        saved = {n: m for n, m in sys.modules.items()
                 if n == "dlbound" or n.startswith("dlbound.")}
        gc.freeze()
        try:
            times.append(setup_once(src, workload, seed, directory)[0])
        finally:
            gc.unfreeze()
        sys.modules.update(saved)
    return probe


class JobTimeout(Exception):
    """A job ran past its time limit."""


def _expire(signum, frame):
    raise JobTimeout("job time limit reached")


def run_job(main, argv, limit):
    """One CLI call, stopped by SIGALRM after `limit` seconds."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    previous = signal.signal(signal.SIGALRM, _expire)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                rc = main(["--json", *argv])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as e:  # a crash is a measured failure, not ours
            rc, exc = None, (type(e).__name__, str(e))
        dt = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, previous)
    res = Result(rc, out.getvalue(), err.getvalue(), exc)
    # what was printed before the alarm depends on timing
    return dt, Result(None, "", "", exc) if timed_out(res) else res


def digest(res: Result) -> bytes:
    return hashlib.sha256(repr((res.rc, res.out, res.err, res.exc))
                          .encode()).digest()


def timed_loop(cli, w, seconds, probe=None):
    """Whole passes over w's job list until the next pass would end past
    `seconds` (at least one).  Returns per job its latency in each pass,
    its first result that did not time out (else its last), the digests
    of its outputs and its number of timeouts; then the wall time of each
    pass.  Whether a job near its time limit is stopped depends on
    timing, so timeouts are kept out of the digests.  `probe`, if given,
    is called between jobs once every SETUP_EVERY_S seconds; its time is
    in no job's latency but in the pass's."""
    jobs = w.jobs
    latencies = [[] for _ in jobs]
    results: list = [None] * len(jobs)
    digests = [set() for _ in jobs]
    timeouts = [0] * len(jobs)
    pass_s, start = [], time.perf_counter()
    next_probe = start + SETUP_EVERY_S
    while True:
        t_pass = time.perf_counter()
        for i, job in enumerate(jobs):
            if probe is not None and time.perf_counter() >= next_probe:
                probe()
                next_probe = time.perf_counter() + SETUP_EVERY_S
            dt, res = run_job(cli.main, job.argv, job.limit)
            latencies[i].append(dt)
            if timed_out(res):
                timeouts[i] += 1
            else:
                digests[i].add(digest(res))
            if results[i] is None or timed_out(results[i]):
                results[i] = res
        now = time.perf_counter()
        pass_s.append(now - t_pass)
        if now + pass_s[-1] > start + seconds:
            return latencies, results, digests, timeouts, pass_s


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def rerun(main, job, cap) -> Result:
    """Run `job` again with the rule cap at `cap`."""
    before = os.environ.get("DLSB_MAX_RULES")
    os.environ["DLSB_MAX_RULES"] = str(cap)
    try:
        return run_job(main, job.argv, job.limit)[1]
    finally:
        if before is None:
            del os.environ["DLSB_MAX_RULES"]
        else:
            os.environ["DLSB_MAX_RULES"] = before


def check_jobs(main, w, results, digests, timeouts) -> list:
    """Per job, the set of ways it failed (empty if it did not).  Outputs
    are checked against the references; a job whose output differed
    between passes fails as nondeterministic.  Default `adorn` jobs go
    first, because the checks of widths, bounds, minimize and complexity
    read their output."""
    checker = Checker(w, lambda job, cap: rerun(main, job, cap))
    order = sorted(range(len(w.jobs)), key=lambda i: not (
        w.jobs[i].cmd == "adorn" and w.jobs[i].params.get("relax") == "gout"
        and w.jobs[i].params.get("membership") == "eq"))
    failures: list = [set() for _ in w.jobs]
    stopped = Result(None, "", "", ("JobTimeout", ""))
    for i in order:
        job = w.jobs[i]
        kind = "nondeterministic output" if len(digests[i]) > 1 \
            else checker.check(job, results[i])
        if timeouts[i] and digests[i]:
            failures[i].add(checker.check(job, stopped))
        if kind is not None:
            failures[i].add(kind)
    return failures


def summarize(main, w, lat, results, digests, timeouts, pass_s) -> dict:
    """Check the outputs and compute the run's figures (all but set-up
    time and memory).

    Each job's latency is its median over the run's passes.  The host's
    other tenants slow this machine by up to 60% in spells from a few
    milliseconds to seconds long.  A job's median over a few passes
    spread across the run is steady from run to run; a mean moves with
    the slow spells, and a fastest sample with how many fast ones the
    job happened to catch.  Rates and percentiles are taken over the job
    list at these latencies.  Every pass must give the same output, so
    `attempted` and `failed` count distinct jobs, and a run's counts do
    not depend on how many passes fit in it.  An `adorn` job stopped at
    the rule cap gave no answer, so it does not count as completed in
    `jobs_per_s`."""
    failures = check_jobs(main, w, results, digests, timeouts)
    attempted = len(w.jobs)
    by_kind: dict = {}
    for kinds in failures:
        for kind in kinds:
            by_kind[kind] = by_kind.get(kind, 0) + 1
    failed = sum(1 for kinds in failures if kinds)
    capped = sum(not failures[i] and cap_exit(job, results[i])
                 for i, job in enumerate(w.jobs))
    typical = [statistics.median(ts) for ts in lat]
    evals = [i for i, j in enumerate(w.jobs) if not failures[i]
             and j.cmd in ("eval", "eval-horn") and results[i].rc == 0]
    tuples = sum(sum(len(v) for v in json.loads(results[i].out).values())
                 for i in evals)
    return {
        "passes": len(pass_s), "jobs_per_pass": len(w.jobs),
        "samples": sum(map(len, lat)), "wall_s": sum(pass_s),
        "job_s": sum(map(sum, lat)),
        "attempted": attempted, "failed": failed, "capped": capped,
        "failure_kinds": by_kind,
        "correct": all(tolerated(k) for k in by_kind),
        "output_digest": hashlib.sha256(b"".join(
            min(d) if d else b"timed out" for d in digests)).hexdigest(),
        "end_to_end": {
            "jobs_per_s": (attempted - failed - capped) / sum(typical),
            "job_p50_ms": 1000 * percentile(typical, 50),
            "job_p90_ms": 1000 * percentile(typical, 90),
            "tuples_per_s": tuples / sum(typical[i] for i in evals)
            if evals else 0.0,
            "fail_ratio": failed / attempted,
        },
    }


def measure(args, src, work) -> dict:
    directory = work / "inputs"
    directory.mkdir()
    first, cli, w = setup_once(src, args.workload, args.seed, directory)
    setup_times = [first]
    probe = None if args.trace else setup_probe(
        src, args.workload, args.seed, directory, setup_times)
    os.environ["DLSB_MAX_RULES"] = str(w.max_rules)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    loop = timed_loop(cli, w, args.seconds, probe)
    if tracer:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"workload": args.workload, "seed": args.seed,
            **summarize(cli.main, w, *loop)}
    info["end_to_end"].update(setup_s=statistics.median(setup_times),
                              peak_rss_mb=rss_mb)
    info["setups"] = len(setup_times)
    if tracer:
        info["layers"] = tracer.metrics(info["passes"])
        info["trace_self_share"] = tracer.total_self_s() / info["job_s"]
        info["trace_cost_share"] = (tracer.total_calls() * wrapper_cost()
                                    / info["job_s"])
        info["traced_jobs_per_s"] = info["end_to_end"]["jobs_per_s"]
    return info


def report(info, trace: bool) -> dict:
    """Print the run's metrics by name and unit; return the result line."""
    print(f"workload {info['workload']} seed {info['seed']}: "
          f"{info['passes']} passes x {info['jobs_per_pass']} jobs, "
          f"{info['samples']} samples, {info['wall_s']:.2f} s timed, "
          f"{info['capped']} adorn jobs stopped at the rule cap")
    for name, value in info["end_to_end"].items():
        print(f"  {name:<14} {value:.6g} {UNIT[name]}")
    for kind, count in sorted(info["failure_kinds"].items()):
        known = "known" if tolerated(kind) else "NEW"
        print(f"  failures ({known}): {count} x {kind}")
    print(f"  output_digest  {info['output_digest']}")
    if trace:
        print(f"  traced: layer self times cover "
              f"{100 * info['trace_self_share']:.1f}% of job time; "
              f"wrappers cost about {100 * info['trace_cost_share']:.1f}%")
        metrics = info["layers"]
    else:
        metrics = {n: (v, UNIT[n]) for n, v in info["end_to_end"].items()
                   if n != "fail_ratio"}
    return {"correct": info["correct"], "attempted": info["attempted"],
            "failed": info["failed"],
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in metrics.items()}}


def run_all(args, here):
    """Every workload untraced then traced, each in its own process."""
    rows = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            with tempfile.NamedTemporaryFile(
                    "r", dir=here, suffix=".json") as details:
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--details", details.name]
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
                rows[workload, trace] = json.load(details)
    print(markdown(rows, args))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--details", help="also write the full result here")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "dlbound" / "cli.py").is_file():
        print(f"error: no dlbound sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    if args.workload == "all":
        run_all(args, work_root)
        return 0
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        info = measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = report(info, bool(args.trace))
    if args.details:
        Path(args.details).write_text(json.dumps(info, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
