"""Command-line front end: adorn, widths, bounds, boundedness, minimize,
eval, classify, complexity, and verify subcommands with JSON output."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

from .core import (
    Const, DatalogError, ValidationError, format_rule, parse_program,
)
from .adorn import (
    BudgetExceeded, MembershipFn, adorn_program, adornments_of,
    make_relaxation,
)
from .width import width_of_predicate
from .sizebound import size_report
from .boundedness import (
    Degraded, Inconclusive, NonRecursive, check_boundedness, extract_ucq,
)
from .minimize import minimize_program
from .evaluate import (
    check_rule_bounded, evaluate, parse_edb, union_adorned, value_cover_ok,
)
from .groundable import classify_program, complexity_report, \
    horn_ground_evaluate


def _read(path: str) -> str:
    """A UTF-8 file's text, without its byte-order mark if it has one."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def _max_rules() -> int:
    return int(os.environ.get("DLSB_MAX_RULES", 10000))


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, with blanks around them, at any
    length: past the 4,300 digits one int() call converts, the digits are
    read in chunks."""
    digits = text.strip()
    sign = -1 if digits[:1] == "-" else 1
    digits = digits[1:] if digits[:1] in "+-" else digits
    if not (digits.isascii() and digits.isdecimal()):
        shown = repr(text) if len(text) <= 40 else (
            f"{text[:40]!r}... ({len(text)} characters)")
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}")
    value = 0
    for i in range(0, len(digits), 4300):
        chunk = digits[i:i + 4300]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def _adorned(p):
    """The adorned program every subcommand but `adorn` analyses."""
    return adorn_program(p, "gout", "heq", max_rules=_max_rules())


# One C encoder, made once, for a list of scalars or a list of rows of
# scalars.  Its item separator is a control character, which the ASCII
# string escape never leaves raw, so each raw one in its output is a
# separator and becomes the separator of the indented layout.
_SEP = "\x1f"
_SCALARS = {str, int, float, bool, type(None)}
_encode_flat = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ",
    _SEP, True, False, True)


def _json_text(o, pad: str = "\n") -> str:
    """`json.dumps(o, indent=2, sort_keys=True)`; `pad` is the newline
    and indent of o's own line."""
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in sorted(o.items())) + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if kinds <= _SCALARS:
            flat = "".join(_encode_flat(o, 0))
            return ("[" + inner + flat[1:-1].replace(_SEP, "," + inner)
                    + pad + "]")
        if (kinds <= {list, tuple} and all(o)
                and set(map(type, chain.from_iterable(o))) <= _SCALARS):
            # "[[a\x1fb]\x1f[c\x1fd]]": "]\x1f[" only between rows
            row = inner + "  "
            flat = "".join(_encode_flat(o, 0))
            body = flat[2:-2].replace(
                "]" + _SEP + "[", inner + "]," + inner + "[" + row
            ).replace(_SEP, "," + row)
            return "[" + inner + "[" + row + body + inner + "]" + pad + "]"
        return "[" + inner + ("," + inner).join(
            _json_text(x, inner) for x in o) + pad + "]"
    return "".join(_encode_flat(o, 0))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(_json_text(payload) + "\n")
    else:
        sys.stdout.write(human)
        if not human.endswith("\n"):
            sys.stdout.write("\n")


def cmd_adorn(p, args) -> int:
    g = make_relaxation(args.relax)
    h = MembershipFn({"eq": "heq", "cont": "hcont"}[args.membership])
    try:
        pi = adorn_program(p, g, h, max_rules=_max_rules())
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc.limit}", file=sys.stderr)
        return 1
    rules = [format_rule(r) for r in pi.rules]
    _emit(args, {"rules": rules}, "\n".join(rules) + "\n")
    return 0


def cmd_widths(p, args) -> int:
    pi = _adorned(p)
    mode = "fractional" if args.fractional else "integral"
    per = {q: width_of_predicate(pi, q, mode)
           for q in sorted(p.idb) if adornments_of(pi, q)}
    if not per:
        raise ValidationError("program has no adorned rules")
    total = max(per.values())
    payload = {
        "mode": mode,
        "predicates": {q: str(Fraction(w)) for q, w in per.items()},
        "program": str(Fraction(total)),
    }
    human = "\n".join(f"{q}: {w}" for q, w in per.items())
    human += f"\nprogram: {total}\n"
    _emit(args, payload, human)
    return 0


def cmd_bounds(p, args) -> int:
    pi = _adorned(p)
    report = size_report(pi, args.n)
    human_lines = []
    for pb in report.predicates:
        human_lines.append(
            f"{pb.predicate}: ew={pb.ew_integral} ewf={pb.ew_fractional} "
            f"f={pb.f_exact} bound1={pb.bound1} bound2={pb.bound2} "
            f"fpt={pb.fpt_bound}")
    _emit(args, report.to_json_dict(), "\n".join(human_lines) + "\n")
    return 0


def cmd_boundedness(p, args) -> int:
    outcome = check_boundedness(p, budget=args.budget,
                                max_rules=args.max_rules,
                                max_sweeps=args.max_sweeps)
    if isinstance(outcome, NonRecursive):
        ucqs = {q: [format_rule(r, terminator=".")
                    for r in extract_ucq(outcome, q)]
                for q in sorted(p.idb)}
        payload = {"outcome": "non-recursive",
                   "rules": len(outcome.program.rules), "ucq": ucqs}
        human = "non-recursive\n" + "\n".join(
            f"{q}:\n" + "\n".join(f"  {cq}" for cq in cqs)
            for q, cqs in ucqs.items())
        _emit(args, payload, human)
        return 0
    if isinstance(outcome, Degraded):
        payload = {"outcome": "degraded", "budget": outcome.budget,
                   "rules": len(outcome.program.rules)}
        _emit(args, payload,
              f"degraded (budget {outcome.budget}), "
              f"{len(outcome.program.rules)} rules\n")
        return 0
    assert isinstance(outcome, Inconclusive)
    payload = {"outcome": "inconclusive", "limit": outcome.limit}
    _emit(args, payload, f"inconclusive: hit {outcome.limit}\n")
    return 1


def cmd_minimize(p, args) -> int:
    pi = minimize_program(_adorned(p))
    rules = [format_rule(r) for r in pi.rules]
    _emit(args, {"rules": rules}, "\n".join(rules) + "\n")
    return 0


def cmd_eval(p, args) -> int:
    d = parse_edb(_read(args.edb))
    if args.horn:
        pi = _adorned(p)
        result = horn_ground_evaluate(pi, d)
        # an IDB predicate without an adornment derives nothing
        adorned = pi.adornment_map()
        rels = {q: union_adorned(result, q) if q in adorned else ()
                for q in sorted(p.idb)}
    else:
        result = evaluate(p, d)
        rels = {q: result.get(q) for q in sorted(p.idb)}
    rows = {q: sorted(tuples, key=repr) for q, tuples in rels.items()}
    if args.json:
        _emit(args, rows, "")
    else:
        _emit(args, {}, "".join(f"{q}({','.join(map(str, t))}).\n"
                                for q, ts in rows.items() for t in ts))
    return 0


def cmd_classify(p, args) -> int:
    classes = sorted(classify_program(p))
    _emit(args, {"classes": classes}, " ".join(classes) or "(none)")
    return 0


def cmd_complexity(p, args) -> int:
    pi = _adorned(p)
    report = complexity_report(pi)
    human = [f"classes: {' '.join(report.classes) or '(none)'}",
             f"f={report.f} |P|={report.rule_count} ew={report.ew} "
             f"fchw={report.fchw} ({report.fchw_mode})"]
    human += [f"{b.applies_to}: {b.formula}" for b in report.bounds]
    _emit(args, report.to_json_dict(), "\n".join(human) + "\n")
    return 0


def _tuple_covered(t, adornments, d, k, memo) -> bool:
    # only positions the deriving adornment leaves variable need covering;
    # accept the tuple if any adornment of the predicate covers it.  The
    # answer depends on the set of values only: memo maps it to the answer
    for a in adornments:
        vals = []
        for term, v in zip(a.rule.head.terms, t):
            if isinstance(term, Const):
                if term.value != v:
                    break
            else:
                vals.append(v)
        else:
            need = frozenset(vals)
            if need not in memo:
                memo[need] = value_cover_ok(vals, d, k)
            if memo[need]:
                return True
    return False


def cmd_verify(p, args) -> int:
    d = parse_edb(_read(args.edb))
    pi = _adorned(p)

    failures = []
    plain = evaluate(p, d)
    adorned_result = evaluate(pi, d)
    for q in sorted(p.idb):
        want = plain.get(q)
        try:
            got = union_adorned(adorned_result, q)
        except DatalogError:
            got = frozenset()
        if want != got:
            failures.append(f"equivalence failed for {q}")

    bounded = check_rule_bounded(pi, d, adorned_result)
    for v in bounded.violations:
        failures.append(
            f"rule {v.rule_index} derived unbounded tuple {v.tuple_value}")

    for q in sorted(p.idb):
        adns = adornments_of(pi, q)
        if not adns:
            continue
        k = int(width_of_predicate(pi, q, "integral"))
        memo: dict = {}  # per predicate, as k is
        for t in sorted(plain.get(q), key=repr):
            if k >= 1 and not _tuple_covered(t, adns, d, k, memo):
                failures.append(f"value cover failed for {q}{t} at k={k}")

    payload = {"ok": not failures, "failures": failures}
    human = "ok" if not failures else "\n".join(failures)
    _emit(args, payload, human)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dlbound",
        description="Static size bounds and boundedness analysis for "
                    "datalog programs")
    top.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn):
        sp = sub.add_parser(name)
        sp.add_argument("program", help="program file")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("adorn", cmd_adorn)
    sp.add_argument("--relax", default="gout",
                    help="id | gout | gk=K | gmin")
    sp.add_argument("--membership", default="eq", choices=["eq", "cont"])

    sp = add("widths", cmd_widths)
    sp.add_argument("--fractional", action="store_true")

    sp = add("bounds", cmd_bounds)
    sp.add_argument("--n", type=_integer, required=True,
                    help="per-relation EDB size parameter")

    sp = add("boundedness", cmd_boundedness)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--max-rules", type=int, default=500)
    sp.add_argument("--max-sweeps", type=int, default=200)

    add("minimize", cmd_minimize)

    sp = add("eval", cmd_eval)
    sp.add_argument("--edb", required=True)
    sp.add_argument("--horn", action="store_true")

    add("classify", cmd_classify)
    add("complexity", cmd_complexity)

    sp = add("verify", cmd_verify)
    sp.add_argument("--edb", required=True)
    sp.add_argument("--seed", type=int, default=0)

    return top


_parser = None


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(parse_program(_read(args.program)), args)
    except (DatalogError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
