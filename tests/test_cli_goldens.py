"""CLI goldens: every subcommand, in plain text and with --json, on the
five named programs of conftest and 20 seeded random programs; and `eval`,
`eval --horn` and `verify` of TC on EDB files that exercise the fact
syntax (symbols, negative ints, comments, blank lines, CRLF, tabs,
non-ASCII symbols) and on malformed ones.

Each case's exit code, stdout and stderr must equal the recorded ones in
cli_goldens.json byte for byte.  After an intended change of output,
rewrite the file with

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from dlbound import parse_program  # noqa: E402
from dlbound.cli import main  # noqa: E402

from conftest import (  # noqa: E402
    BUYS_SRC, REACH_SRC, TC_SRC, TRIANGLE_SRC, UNBOUNDED_SRC, random_edb,
    random_programs,
)

GOLDENS = Path(__file__).with_name("cli_goldens.json")
# DLSB_MAX_RULES, the cap on every adorned program the CLI builds.  At 10
# the 14 random17 cases that record a BudgetExceeded traceback would stop
# showing it, so the cap rises only once the CLI reports that limit itself
MAX_RULES = "7"

COMMANDS = [
    *(["adorn", "--relax", g, "--membership", h]
      for g in ("id", "gout", "gk=2", "gmin") for h in ("eq", "cont")),
    ["widths"],
    ["widths", "--fractional"],
    ["bounds", "--n", "3"],
    ["boundedness", "--budget", "1"],
    ["boundedness", "--max-rules", "40"],
    ["minimize"],
    ["eval", "--edb", "EDB"],
    ["eval", "--edb", "EDB", "--horn"],
    ["classify"],
    ["complexity"],
    ["verify", "--edb", "EDB"],
]


# (name, EDB text) for TC; the last five are malformed
EDB_CASES = [
    ("symbols", "e(a,b).\ne(b,c1).\ne(c1,a_B9).\ne(a_B9,a).\n"),
    ("negative", "e(-1,2).\ne(2,-30).\ne(-30,-0).\ne(007,-1).\n"
                 "e(123456789012345678901234567890,-1).\n"),
    ("comments", "% edges\n\n  e(1,2).   % first\n\n\te( 2 ,\t3 ) .\n"
                 "e(3, % a comment, (inside) a fact\n 1).\n% no newline"),
    ("crlf", "e(1,2).\r\ne(2,x).\r\n\r\ne(x,1).\r\n"),
    ("nonascii", "e(\u00e9t\u00e9,b).\ne(b,\u00e9t\u00e9).\n"),
    ("no-dot", "e(1,2).\ne(2,3)\n"),
    ("variable", "e(1,2).\ne(X,3).\n"),
    ("empty-args", "e(1,2).\ne().\n"),
    ("int-then-name", "e(12ab,3).\n"),
    ("mixed-arity", "e(1,2).\ne(1,2,3).\n"),
]
EDB_COMMANDS = [["eval", "--edb", "EDB"], ["eval", "--edb", "EDB", "--horn"],
                ["verify", "--edb", "EDB"]]


def corpus():
    """(name, program text, EDB text) for every program of the corpus."""
    named = [("tc", TC_SRC), ("triangle", TRIANGLE_SRC), ("reach", REACH_SRC),
             ("buys", BUYS_SRC), ("unbounded", UNBOUNDED_SRC)]
    programs = named + [(f"random{i}", str(p))
                        for i, p in enumerate(random_programs(2024, 20))]
    out = []
    for i, (name, src) in enumerate(programs):
        d = random_edb(parse_program(src), random.Random(i))
        facts = "".join(f"{rel}({','.join(map(str, t))}).\n"
                        for rel, tuples in d.relations
                        for t in sorted(tuples))
        out.append((name, src, facts, COMMANDS))
    out += [(f"edb-{name}", TC_SRC, facts, EDB_COMMANDS)
            for name, facts in EDB_CASES]
    return out


def run_all() -> dict:
    """Run every case; returns case id -> [exit code, stdout, stderr]."""
    results = {}
    old = os.environ.get("DLSB_MAX_RULES")
    os.environ["DLSB_MAX_RULES"] = MAX_RULES
    try:
        with tempfile.TemporaryDirectory() as tmp:
            prog_path = os.path.join(tmp, "p.dl")
            edb_path = os.path.join(tmp, "d.facts")
            for name, src, facts, commands in corpus():
                Path(prog_path).write_text(src)
                Path(edb_path).write_text(facts, encoding="utf-8")
                for cmd in commands:
                    for flags in ([], ["--json"]):
                        argv = [*flags, cmd[0], prog_path, *(
                            edb_path if a == "EDB" else a for a in cmd[1:])]
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            try:
                                code = main(argv)
                            except Exception as exc:  # recorded as output
                                code = f"raises {type(exc).__name__}: {exc}"
                        case = " ".join([name, *flags, *cmd])
                        results[case] = [code, out.getvalue(), err.getvalue()]
    finally:
        if old is None:
            del os.environ["DLSB_MAX_RULES"]
        else:
            os.environ["DLSB_MAX_RULES"] = old
    return results


def test_cli_output_matches_goldens():
    want = json.loads(GOLDENS.read_text())
    got = run_all()
    assert sorted(got) == sorted(want)
    for case in sorted(want):
        assert got[case] == want[case], case


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
