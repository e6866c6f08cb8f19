"""End-to-end checks for the command-line interface."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dlbound import cli, width
from dlbound.cli import main

from conftest import (
    BUYS_SRC, TC_SRC, TRIANGLE_SRC, UNBOUNDED_SRC, corrupted_tc,
    random_edb_text, random_program_text,
)


@pytest.fixture
def tc_file(tmp_path):
    f = tmp_path / "tc.dl"
    f.write_text(TC_SRC)
    return str(f)


@pytest.fixture
def edb_file(tmp_path):
    f = tmp_path / "d.facts"
    f.write_text("e(1,2). e(2,3). e(3,4).")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_adorn_json(capsys, tc_file):
    code, out = run(capsys, "--json", "adorn", tc_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["rules"]) == 3


def test_adorn_membership_cont(capsys, tc_file):
    code, out = run(capsys, "--json", "adorn", tc_file,
                    "--membership", "cont")
    assert code == 0
    assert len(json.loads(out)["rules"]) == 3


def test_adorn_and_minimize_drop_twins_left_by_a_drop(capsys, tmp_path):
    # Dropping the first `e(X,A)` leaves `e(X,A), e(X,B)`, twins up to
    # renaming of the unused A and B, so one atom is left.
    f = tmp_path / "twins.dl"
    f.write_text("q(X) :- e(X,A), e(X,A), e(X,B).\n")
    for cmd in ("adorn", "minimize"):
        code, out = run(capsys, cmd, str(f))
        assert code == 0
        assert out == "q[q(X) :- e(X,_)](X) :- e(X,A).\n"
    code, out = run(capsys, "--json", "adorn", str(f))
    assert json.loads(out) == {"rules": ["q[q(X) :- e(X,_)](X) :- e(X,A)."]}


def test_widths(capsys, tc_file):
    code, out = run(capsys, "--json", "widths", tc_file)
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "integral"
    assert data["predicates"]["tc"] == "2"
    code, out = run(capsys, "--json", "widths", tc_file, "--fractional")
    assert json.loads(out)["predicates"]["tc"] == "2"


def test_widths_computes_each_adornment_once(capsys, tmp_path,
                                             monkeypatch):
    seen = []
    plain = width.width_of_adornment
    monkeypatch.setattr(width, "width_of_adornment", lambda adn, mode: (
        seen.append(adn) or plain(adn, mode)))
    f = tmp_path / "two.dl"
    f.write_text(TC_SRC + "r(X) :- e(X,Y), f(Y).\n")
    assert run(capsys, "widths", str(f)) == (
        0, "r: 1\ntc: 2\nprogram: 2\n")
    assert len(seen) == len(set(seen)) == 3
    # a program none of whose rules is ever adorned has no width
    f.write_text("p(X) :- p(X), e(X).\n")
    assert main(["widths", str(f)]) == 2
    assert capsys.readouterr() == (
        "", "error: program has no adorned rules\n")


def test_bounds(capsys, tc_file):
    code, out = run(capsys, "--json", "bounds", tc_file, "--n", "2")
    assert code == 0
    data = json.loads(out)
    (pb,) = data["predicates"]
    assert pb["predicate"] == "tc"
    assert pb["bound1"] == 16
    assert pb["bound2"] == 64


def test_boundedness_nonrecursive(capsys, tmp_path):
    f = tmp_path / "b.dl"
    f.write_text(BUYS_SRC)
    code, out = run(capsys, "--json", "boundedness", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "non-recursive"
    assert data["rules"] == 2
    assert len(data["ucq"]["buys"]) == 2


def test_boundedness_degraded(capsys, tmp_path):
    f = tmp_path / "u.dl"
    f.write_text(UNBOUNDED_SRC)
    code, out = run(capsys, "--json", "boundedness", str(f), "--budget", "2")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "degraded"
    assert data["rules"] == 4


def test_boundedness_inconclusive_exit_1(capsys, tc_file):
    code, out = run(capsys, "--json", "boundedness", tc_file,
                    "--max-sweeps", "3")
    assert code == 1
    assert json.loads(out)["outcome"] == "inconclusive"


def test_minimize(capsys, tmp_path):
    f = tmp_path / "t.dl"
    f.write_text(TRIANGLE_SRC)
    code, out = run(capsys, "--json", "minimize", str(f))
    assert code == 0
    rules = json.loads(out)["rules"]
    assert len(rules) == 2


def test_eval(capsys, tc_file, edb_file):
    code, out = run(capsys, "eval", tc_file, "--edb", edb_file)
    assert code == 0
    assert "tc(1,4)." in out.splitlines()


def test_eval_horn_matches_plain(capsys, tc_file, edb_file):
    _, plain = run(capsys, "--json", "eval", tc_file, "--edb", edb_file)
    _, horn = run(capsys, "--json", "eval", tc_file, "--edb", edb_file,
                  "--horn")
    assert json.loads(plain) == json.loads(horn)


def test_eval_horn_prints_an_underivable_idb_empty(capsys, tmp_path):
    # r has no base rule, so it gets no adornment and derives nothing
    prog = tmp_path / "u.dl"
    prog.write_text("q(X) :- e(X).\nr(X) :- r(X), e(X).\n")
    edb = tmp_path / "u.facts"
    edb.write_text("e(1). e(2).")
    for flags in ((), ("--json",)):
        outs = [run(capsys, *flags, "eval", str(prog), "--edb", str(edb),
                    *horn) for horn in ((), ("--horn",))]
        assert outs[0] == outs[1]
    assert outs[1] == (0, '{\n  "q": [\n    [\n      1\n    ],\n'
                          '    [\n      2\n    ]\n  ],\n  "r": []\n}\n')
    assert run(capsys, "eval", str(prog), "--edb", str(edb), "--horn") \
        == (0, "q(1).\nq(2).\n")


def test_byte_order_mark_is_ignored(capsys, tmp_path, tc_file, edb_file):
    marked = {}
    for plain in (tc_file, edb_file):
        f = tmp_path / f"bom_{Path(plain).name}"
        f.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        marked[plain] = str(f)
    for argv in (["classify", tc_file],
                 ["--json", "eval", tc_file, "--edb", edb_file]):
        want = run(capsys, *argv)
        assert want[0] == 0
        assert run(capsys, *(marked.get(a, a) for a in argv)) == want


def test_cli_runs_as_a_process_without_dataclasses_or_inspect(tc_file):
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, dlbound.cli; print(sorted("
         "{'dataclasses', 'inspect'} & sys.modules.keys()))"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout == "[]\n"
    done = subprocess.run([sys.executable, "-m", "dlbound.cli", "classify",
                           tc_file], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "AdornmentGroundable Linear SimpleChain\n", "")


def test_classify(capsys, tc_file):
    code, out = run(capsys, "--json", "classify", tc_file)
    assert code == 0
    assert json.loads(out)["classes"] == [
        "AdornmentGroundable", "Linear", "SimpleChain"]


def test_complexity(capsys, tc_file):
    code, out = run(capsys, "--json", "complexity", tc_file)
    assert code == 0
    data = json.loads(out)
    assert data["f"] == 2
    assert data["fchw"] == 2


def test_verify_ok(capsys, tc_file, edb_file):
    code, out = run(capsys, "--json", "verify", tc_file, "--edb", edb_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_reports_each_failure(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_adorned", lambda p: corrupted_tc())
    prog, edb = tmp_path / "tc.dl", tmp_path / "d.facts"
    prog.write_text(TC_SRC)
    edb.write_text("e(1,2). e(2,3).")
    assert run(capsys, "verify", str(prog), "--edb", str(edb)) == (
        1, "rule 1 derived unbounded tuple (1, 3)\n"
           "value cover failed for tc(1, 3) at k=1\n")


def test_symbol_constants_in_program_text(capsys, tmp_path):
    prog, edb = tmp_path / "sym.dl", tmp_path / "d.facts"
    prog.write_text("p(X) :- e(X,a). q(X) :- p(X), f(X,1).")
    edb.write_text("e(1,a). e(2,b). e(3,1). f(1,1). f(2,1).")
    assert run(capsys, "adorn", str(prog), "--relax", "id") == (
        0, "p[p(X) :- e(X,a)](X) :- e(X,a).\n"
           "q[q(X) :- e(X,a), f(X,1)](X) :- p[p(X) :- e(X,a)](X), f(X,1).\n")
    assert run(capsys, "eval", str(prog), "--edb", str(edb)) == (
        0, "p(1).\nq(1).\n")
    assert run(capsys, "verify", str(prog), "--edb", str(edb)) == (0, "ok\n")


@pytest.mark.parametrize("src, lines", [
    ("p(A,B,C,D,E,F,G,H,I) :- e(A,B,C,D,E), f(E,F,G,H,I).",
     ["f=1 |P|=1 ew=2 fchw=2 (classification-upper-bound)"]),
    ("p(X) :- e(X,A), e(A,B), e(B,C), e(C,D), e(D,E), e(E,F).",
     ["f=1 |P|=1 ew=1 fchw=None (symbolic)",
      "general: O(f^fchw * |P| * N^(ew*fchw))"]),
])
def test_complexity_fchw_fallbacks(capsys, tmp_path, src, lines):
    # a rule too large for the exact fchw DP (9 variables; 6 atoms): a
    # simple chain falls back to its bound of 2, else fchw is symbolic
    f = tmp_path / "p.dl"
    f.write_text(src)
    code, out = run(capsys, "complexity", str(f))
    assert code == 0
    assert out.splitlines()[1:len(lines) + 1] == lines
    if lines[0].endswith("(symbolic)"):
        assert len(out.splitlines()) == 3


def wide_rule_file(tmp_path, arity):
    xs = ",".join(f"X{i}" for i in range(arity))
    f = tmp_path / f"wide{arity}.dl"
    f.write_text(f"p({xs}) :- e({xs}).\n")
    return str(f)


def test_bounds_json_prints_an_overlong_coeff_naive_as_null(capsys, tmp_path):
    # 2 ** (7 ** 6 - 1) alone has about 35,400 digits
    f = wide_rule_file(tmp_path, 6)
    code, out = run(capsys, "--json", "bounds", f, "--n", "3")
    assert code == 0
    (pb,) = json.loads(out)["predicates"]
    assert pb["coeff_naive"] is None
    assert run(capsys, "bounds", f, "--n", "3") == (
        0, f"p: ew={pb['ew_integral']} ewf={pb['ew_fractional']} "
           f"f={pb['f_exact']} bound1={pb['bound1']} bound2={pb['bound2']} "
           f"fpt={pb['fpt_bound']}\n")


def test_bounds_on_a_500_ary_rule(capsys, tmp_path):
    # stirling2(500, k) must not recurse per element, and coeff_naive's
    # exponent of 501 ** 500 must not become a power
    f = wide_rule_file(tmp_path, 500)
    code, out = run(capsys, "bounds", f, "--n", "3")
    assert code == 0 and out.startswith("p: ew=1 ewf=1 f=1 bound1=")
    code, out = run(capsys, "--json", "bounds", f, "--n", "3")
    assert code == 0
    (pb,) = json.loads(out)["predicates"]
    assert pb["coeff_naive"] is None
    assert pb["bound1"] == 3 * 500 ** 500


def test_bounds_on_a_1000_ary_rule(capsys, tmp_path):
    # bound2 = (1 · 1000 · 1000) ** 1000 · 3 has 6,001 digits: null in
    # JSON and None in human output, like coeff_naive; the rest prints
    f = wide_rule_file(tmp_path, 1000)
    code, out = run(capsys, "--json", "bounds", f, "--n", "3")
    assert code == 0
    (pb,) = json.loads(out)["predicates"]
    assert pb["bound2"] is None and pb["coeff_naive"] is None
    assert pb["bound1"] == 3 * 1000 ** 1000
    assert pb["coeff_minimal"] == 1000 ** 1000
    assert pb["fpt_bound"] == 3
    assert run(capsys, "bounds", f, "--n", "3") == (
        0, f"p: ew=1 ewf=1 f=1 bound1={3 * 1000 ** 1000} bound2=None "
           f"fpt=3\n")


def unary_atoms_file(tmp_path, n):
    """p(X0,...) :- e0(X0), ...: n components of one vertex each."""
    f = tmp_path / f"unary{n}.dl"
    f.write_text("p(%s) :- %s." % (
        ",".join(f"X{i}" for i in range(n)),
        ", ".join(f"e{i}(X{i})" for i in range(n))))
    return str(f)


def test_bounds_on_400_unary_atoms_with_a_1000_digit_n(capsys, tmp_path):
    # n ** 400 and permutations(400 n, 400) would each have about 400,000
    # digits; the bit lengths decide before either is formed
    f = unary_atoms_file(tmp_path, 400)
    start = time.perf_counter()
    assert run(capsys, "bounds", f, "--n", "9" * 1000) == (
        0, "p: ew=400 ewf=400 f=1 bound1=None bound2=None fpt=None\n")
    assert time.perf_counter() - start < 2


def test_bounds_and_widths_on_1000_unary_atoms(capsys, tmp_path):
    # one Stirling row for bound1, and one LP per component: 1,000 of
    # one edge each
    f = unary_atoms_file(tmp_path, 1000)
    start = time.perf_counter()
    assert run(capsys, "widths", "--fractional", f) == (
        0, "p: 1000\nprogram: 1000\n")
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    code, out = run(capsys, "--json", "bounds", f, "--n", "3")
    assert code == 0 and time.perf_counter() - start < 2
    (pb,) = json.loads(out)["predicates"]
    assert pb["ew_fractional"] == "1000" and pb["bound2"] is None


def test_wide_head_chain_of_26_atoms(capsys, tmp_path):
    # q(X0,...,X26) :- e(X0,X1), ..., e(X25,X26): every width, and the
    # value cover of each derived tuple, is a cover by 14 of 26 edges; a
    # search trying the 14-subsets in order meets the first after 1.8
    # million of them
    n = 26
    prog = tmp_path / "wide.dl"
    prog.write_text("q(%s) :- %s." % (
        ",".join(f"X{i}" for i in range(n + 1)),
        ", ".join(f"e(X{i},X{i + 1})" for i in range(n))))
    edb = tmp_path / "path.facts"
    edb.write_text(" ".join(f"e({i},{i + 1})." for i in range(42)))
    for argv, want in ((("widths",), "q: 14\nprogram: 14\n"),
                       (("minimize",), "q[q(X0,"),
                       (("adorn", "--relax", "gmin"), "q[q(X0,"),
                       (("verify", "--edb", str(edb)), "ok\n")):
        start = time.perf_counter()
        code, out = run(capsys, *argv[:1], str(prog), *argv[1:])
        assert time.perf_counter() - start < 0.2, argv
        assert code == 0 and out.startswith(want), argv


def test_verify_on_400_unary_atoms(capsys, tmp_path):
    # 400 tuples cover the head: a search that recursed per tuple would
    # pass Python's recursion limit
    n = 400
    edb = tmp_path / "d.facts"
    edb.write_text(" ".join(f"e{i}({i})." for i in range(n)))
    prog = unary_atoms_file(tmp_path, n)
    assert run(capsys, "verify", prog, "--edb", str(edb)) == (0, "ok\n")


def test_verify_seed_does_not_change_result(capsys, tc_file, edb_file):
    _, a = run(capsys, "--json", "verify", tc_file, "--edb", edb_file,
               "--seed", "1")
    _, b = run(capsys, "--json", "verify", tc_file, "--edb", edb_file,
               "--seed", "999")
    assert a == b


def test_deterministic_output(capsys, tc_file):
    _, a = run(capsys, "--json", "adorn", tc_file)
    _, b = run(capsys, "--json", "adorn", tc_file)
    assert a == b


def test_max_rules_env(capsys, tc_file, monkeypatch):
    monkeypatch.setenv("DLSB_MAX_RULES", "1")
    code, _ = run(capsys, "adorn", tc_file)
    assert code == 1


def test_missing_file_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "adorn", str(tmp_path / "nope.dl"))
    assert code == 2


def test_parse_error_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.dl"
    f.write_text("this is not datalog(")
    code, _ = run(capsys, "adorn", str(f))
    assert code == 2


def test_bad_flag_exit_2(capsys, tc_file):
    code, _ = run(capsys, "widths", tc_file, "--nope")
    assert code == 2


def test_bounds_with_a_250_digit_n(capsys, tmp_path):
    f = tmp_path / "tri.dl"
    f.write_text(TRIANGLE_SRC)
    n = 10 ** 249 + 12345
    code, out = run(capsys, "--json", "bounds", str(f), "--n", str(n))
    assert code == 0
    p = {pb["predicate"]: pb for pb in json.loads(out)["predicates"]}["p"]
    assert p["ew_fractional"] == "3/2"
    fpt = p["fpt_bound"] // p["f_exact"]
    assert (fpt - 1) ** 2 < n ** 3 <= fpt ** 2


def test_bounds_with_a_5000_digit_n(capsys, tmp_path):
    # past the 4,300 digits one int() call converts: accepted, and every
    # figure that grows with n prints as None / null, n itself too
    f = tmp_path / "tri.dl"
    f.write_text(TRIANGLE_SRC)
    n = "9" * 5000
    code, out = run(capsys, "bounds", str(f), "--n", n)
    assert code == 0
    assert out.splitlines()[1] == (
        "q: ew=1 ewf=1 f=1 bound1=None bound2=None fpt=None")
    code, out = run(capsys, "--json", "bounds", str(f), "--n", n)
    assert code == 0
    report = json.loads(out)
    assert report["n"] is None
    assert {pb["predicate"]: pb["fpt_bound"]
            for pb in report["predicates"]} == {"p": None, "q": None}
    assert main(["bounds", str(f), "--n", n[:-1] + "x"]) == 2


def test_bounds_n_takes_a_sign_and_ascii_digits_at_any_length(capsys,
                                                               tmp_path):
    # the dialect's integer syntax, with blanks around it and a `+` sign;
    # other scripts' digits and `_` separators exit 2 at every length
    f = tmp_path / "tri.dl"
    f.write_text(TRIANGLE_SRC)
    for n in ("7", " 7 ", "+5", "9" * 5000):
        code, out = run(capsys, "--json", "bounds", str(f), "--n", n)
        assert code == 0
        assert json.loads(out)["n"] == (int(n) if len(n) < 10 else None)
    # a long rejected text is echoed as a prefix and its length
    for n in ("\u0663", "1_000", "\u0663" * 5000, "1_" + "0" * 5000):
        assert main(["bounds", str(f), "--n", n]) == 2
        err = capsys.readouterr().err
        assert "invalid int value" in err
        assert len(err) < 200
        assert len(n) < 10 or f"({len(n)} characters)" in err


def test_read_path_never_crashes(capsys, tmp_path):
    # program texts of the reader's differential test and mutated EDB
    # files: every run exits 0 or 2 and raises nothing.  Each text gets new
    # files, as on some file systems rewriting one in place waits for the
    # disk
    rng = random.Random(5)
    codes = []
    for i in range(300):
        prog, edb = tmp_path / f"p{i}.dl", tmp_path / f"d{i}.facts"
        prog.write_text(random_program_text(rng), "utf-8", newline="")
        edb.write_text(random_edb_text(rng), "utf-8", newline="")
        codes.append(main(["classify", str(prog)]))
        codes.append(main(["eval", str(prog), "--edb", str(edb)]))
        capsys.readouterr()
    assert set(codes) == {0, 2}


def test_threads_flag_is_gone(capsys, tc_file):
    assert main(["--threads", "2", "classify", tc_file]) == 2


def test_parser_is_built_once_and_reused(capsys, monkeypatch, tc_file):
    from dlbound import cli
    argvs = [["adorn", tc_file, "--nope"], ["--json", "adorn", tc_file],
             ["adorn", tc_file]]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())

    def outputs(fresh):
        got = []
        for argv in argvs:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    monkeypatch.setattr(cli, "_parser", None)
    reused = outputs(fresh=False)
    assert len(built) == 1
    assert reused == outputs(fresh=True)
    assert [code for code, _, _ in reused] == [2, 0, 0]


_AWKWARD = ['"', "\\", "\x00", "\x1f", "\n", "\t", "é", "☃",
            "\U0001d11e", "[", "]", ",", "]\x1f[", "a", " ", "\x7f"]


def _random_json(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([True, False, 1, 0, None, -1, 1.5, -0.0, 1e300])
    if kind == 1:
        return rng.choice([1, -1]) * rng.randrange(10 ** 299, 10 ** 300)
    if kind == 2:
        return "".join(rng.choice(_AWKWARD) for _ in range(rng.randrange(4)))
    if kind == 3:
        return rng.randrange(-5, 50)
    if kind in (4, 5):  # a list of scalars; a list of rows of scalars
        row = list if rng.random() < 0.5 else tuple
        scalars = [row(_random_json(rng, 4) for _ in range(rng.randrange(4)))
                   for _ in range(rng.randrange(5))]
        return scalars[0] if kind == 4 and scalars else scalars
    if kind == 6:
        # keys are strings, as in every payload of the CLI
        return {"".join(rng.choice(_AWKWARD) for _ in range(rng.randrange(3))):
                _random_json(rng, depth + 1) for _ in range(rng.randrange(4))}
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return items if kind == 7 else tuple(items)


def test_json_writer_matches_json_dumps():
    from dlbound.cli import _json_text
    rng = random.Random(8)
    fixed = [{}, [], [[]], [[], []], [[1], []], [[1, 2], (3,)],
             {"tc": [(1, "a"), (2, "]\x1f[")]}, [True, 1, False, 0, None]]
    payloads = fixed + [_random_json(rng) for _ in range(3000)]
    for p in payloads:
        assert _json_text(p) == json.dumps(p, indent=2, sort_keys=True), p
