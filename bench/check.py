"""Checks each job's output against the references in oracle.py.

``Checker.check`` returns None for a correct job, else a failure kind.
Failures that the code at the benchmark's defining commit is known to
draw carry one of the KNOWN kinds; any other kind means the program gave
a wrong answer, broke or hung in a new way, and the run is reported
incorrect.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle

OVERFLOW = "OverflowError: bounds past float range (sizebound.iroot)"
BUDGET = "BudgetExceeded raised past the rule cap"
HORN_EXIT2 = "eval --horn exit 2 on an unproductive IDB"
CONT_DROP = ("adorn --membership cont drops rules whose adornment is "
             "subsumed (answers lost)")
BUDGET_UCQ = ("boundedness --budget prints relaxed adornments as its UCQ "
              "(answers added)")
TIMEOUT = "timed out: "
HANG = TIMEOUT + "bounds with an inexact float root seed (sizebound.iroot)"
KNOWN = (OVERFLOW, BUDGET, HORN_EXIT2, CONT_DROP, BUDGET_UCQ, HANG)
LIMIT_MSG = "budget exceeded: max-rules"
BAD_CAP = "wrong answer from adorn: stopped at the rule cap below it"


class Result:
    """What one job did: exit code or exception, and its output."""
    __slots__ = ("rc", "out", "err", "exc")

    def __init__(self, rc, out, err, exc=None):
        self.rc, self.out, self.err, self.exc = rc, out, err, exc


def timed_out(res: Result) -> bool:
    return res.exc is not None and res.exc[0] == "JobTimeout"


def cap_exit(job, res) -> bool:
    """Did an `adorn` job stop at the rule cap (exit 1, no output)?"""
    return job.cmd == "adorn" and res.rc == 1 and not res.out and \
        res.err.startswith(LIMIT_MSG)


class Checker:
    def __init__(self, workload, rerun):
        """`rerun(job, cap)` runs a job again under another rule cap."""
        self.w = workload
        self.rerun = rerun
        self._plain: dict = {}
        # program id -> {base: set of adornment keys} from the `adorn`
        # job under the defaults (gout, eq) that widths, bounds, minimize
        # and complexity also use
        self.companion: dict = {}
        # programs whose default `adorn` job stopped at the rule cap, so
        # that those subcommands are expected to raise BudgetExceeded
        self.capped: set = set()

    # -- references ---------------------------------------------------------

    def plain(self, pid, edb) -> dict:
        """Reference IDB relations of program pid over an EDB."""
        key = (pid, id(edb))
        if key not in self._plain:
            prog = self.w.progs[pid]
            if prog.closure is not None:
                tc, e = prog.closure
                self._plain[key] = {tc: oracle.tc_closure(edb.get(e, ()))}
            else:
                self._plain[key] = oracle.naive_eval(prog.rules, edb)
        return self._plain[key]

    def compare(self, pid, rules) -> str:
        """How `rules` (adorned, or a UCQ) compare with program pid on
        every check EDB, per base predicate: "equal", "subset" (derive
        less), "superset" (derive more) or "other"."""
        idb = oracle.head_keys(self.w.progs[pid].rules)
        less = more = False
        for edb in self.w.check_edbs[pid]:
            want = self.plain(pid, edb)
            got = oracle.union_by_base(oracle.naive_eval(rules, edb))
            if set(got) - idb:
                return "other"
            for q in idb:
                less |= not want[q] <= got.get(q, set())
                more |= not got.get(q, set()) <= want[q]
        return {(False, False): "equal", (True, False): "subset",
                (False, True): "superset"}.get((less, more), "other")

    def adornments(self, pid) -> dict:
        if pid not in self.companion:
            raise ValueError("no `adorn` output to check it against")
        return self.companion[pid]

    # -- dispatch -----------------------------------------------------------

    def check(self, job, res: Result):
        """None if the job's output is correct, else its failure kind."""
        budget_known = job.prog in self.capped
        if res.exc is not None:
            etype = res.exc[0]
            if etype == "BudgetExceeded" and budget_known and job.cmd in (
                    "widths", "bounds", "minimize", "complexity", "verify",
                    "eval-horn"):
                return BUDGET
            if etype == "OverflowError" and job.cmd == "bounds" and \
                    self._root_seed(job) == "overflow":
                return OVERFLOW
            if etype == "JobTimeout":
                if job.cmd == "bounds" and self._root_seed(job) == "inexact":
                    return HANG
                return TIMEOUT + job.cmd
            return f"exception {etype} in {job.cmd}"
        try:
            ok = getattr(self, "_" + job.cmd.replace("-", "_"))(job, res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable {job.cmd} output ({exc})"
        if ok is True:
            return None
        if ok is False:
            return f"wrong answer from {job.cmd}"
        return ok

    def _json(self, res, rc=0):
        if res.rc != rc:
            raise ValueError(f"exit code {res.rc}, expected {rc}")
        return json.loads(res.out)

    # -- subcommands --------------------------------------------------------

    def _adorn(self, job, res):
        default = job.params.get("relax") == "gout" and \
            job.params.get("membership") == "eq"
        stopped = cap_exit(job, res)
        if stopped:
            # Only a run under a larger cap can show that this cap was
            # reached: it must print more rules than the cap, or stop too.
            if default:
                self.capped.add(job.prog)
            res = self.rerun(job, 2 * self.w.max_rules)
            if cap_exit(job, res) or timed_out(res):
                return True
            if res.exc is not None:
                return f"exception {res.exc[0]} in adorn"
        rules = [oracle.parse_rule(r) for r in self._json(res)["rules"]]
        if default:
            adns: dict = {}
            for (key, _), _ in rules:
                adns.setdefault(key[0], set()).add(key[1])
            self.companion[job.prog] = adns
        if stopped and len(rules) <= self.w.max_rules:
            return BAD_CAP
        match = self.compare(job.prog, rules)
        if match == "subset" and job.params.get("membership") == "cont":
            return CONT_DROP
        return match == "equal"

    def _widths(self, job, res):
        adns = self.adornments(job.prog)
        if not adns:
            return res.rc == 2 and "no adorned rules" in res.err
        cover = oracle.fractional_cover if job.params.get("fractional") \
            else oracle.integral_cover
        per = {q: Fraction(max(cover(a) for a in adns[q]))
               for q in sorted(adns)}
        want = {"mode": "fractional" if job.params.get("fractional")
                else "integral",
                "predicates": {q: str(w) for q, w in per.items()},
                "program": str(max(per.values()))}
        return self._json(res) == want

    def _root_seed(self, job):
        """How sizebound.iroot's float seed fares on the largest n ** e
        this bounds job roots: "overflow", "inexact" or "exact"."""
        adns = self.companion.get(job.prog)
        if not isinstance(adns, dict):
            return "exact"
        states = {oracle.float_root_seed(job.params["n"], max(
            oracle.fractional_cover(a) for a in qa)) for qa in adns.values()}
        for state in ("overflow", "inexact"):
            if state in states:
                return state
        return "exact"

    def _bounds(self, job, res):
        adns = self.adornments(job.prog)
        rules = self.w.progs[job.prog].rules
        n = job.params["n"]
        want = {"n": n, "predicates": [
            oracle.predicate_bounds(rules, q, adns.get(q, ()), n)
            for q in sorted(oracle.head_keys(rules))]}
        return self._json(res) == want

    def _boundedness(self, job, res):
        rules = self.w.progs[job.prog].rules
        budget = job.params.get("budget")
        out = self._json(res, rc=1 if res.rc == 1 else 0)
        kind = out["outcome"]
        verdict = job.params.get("verdict")
        if verdict is not None:
            got = (kind, out["limit"] if kind == "inconclusive"
                   else out["rules"])
            if got != verdict:
                return False
        if kind == "inconclusive":
            # any program can outgrow --max-rules; only a recursive one
            # can keep sweeping
            return res.rc == 1 and (out["limit"] == "max-rules" or (
                out["limit"] == "max-iterations" and
                oracle.is_recursive(rules)))
        if res.rc != 0:
            return False
        if kind == "degraded":
            return out["budget"] == budget and oracle.is_recursive(rules)
        if kind != "non-recursive" or \
                set(out["ucq"]) != oracle.head_keys(rules):
            return False
        ucq = [oracle.parse_rule(r) for cqs in out["ucq"].values()
               for r in cqs]
        match = self.compare(job.prog, ucq)
        if match == "superset" and budget is not None:
            return BUDGET_UCQ
        return match == "equal"

    def _minimize(self, job, res):
        self.adornments(job.prog)
        rules = [oracle.parse_rule(r) for r in self._json(res)["rules"]]
        keys = {a[0][1] for r in rules for a in (r[0], *r[1])
                if isinstance(a[0], tuple)}
        return all(_minimal(k) for k in keys) and \
            self.compare(job.prog, rules) == "equal"

    def _classify(self, job, res):
        return self._json(res) == {
            "classes": oracle.classify(self.w.progs[job.prog].rules)}

    def _complexity(self, job, res):
        adns = self.adornments(job.prog)
        rules = self.w.progs[job.prog].rules
        if not adns:
            return res.rc == 2 and "no adorned rules" in res.err
        out = self._json(res)
        classes = oracle.classify(rules)
        f = sum(len(a) for a in adns.values())
        ew = max(oracle.fractional_cover(a) for qa in adns.values()
                 for a in qa)
        small = all(len(body) <= 5 and len({t for a in (h, *body)
                                            for t in a[1]
                                            if isinstance(t, str)}) <= 8
                    for h, body in rules)
        fchw = out["fchw"]
        if small:
            mode_ok = out["fchw_mode"] == "integral-bruteforce" and \
                isinstance(fchw, int) and fchw >= 1
        elif "SimpleChain" in classes:
            mode_ok = (fchw, out["fchw_mode"]) == \
                (2, "classification-upper-bound")
        else:
            mode_ok = (fchw, out["fchw_mode"]) == (None, "symbolic")
        size = len(rules)
        if fchw is None:
            bounds = [("general", "O(f^fchw * |P| * N^(ew*fchw))", None)]
        else:
            bounds = [("general", f"O({f}^{fchw} * {size} * N^{ew * fchw})",
                       ew * fchw)]
        if "SimpleChain" in classes:
            bounds.append(("SimpleChain", f"O({f}^2 * {size} * N^{2 * ew})",
                           2 * ew))
        if "Linear" in classes and fchw is not None:
            bounds.append(("Linear",
                           f"O({f} * {size} * N^{ew + fchw - 1})",
                           ew + fchw - 1))
        if "AdornmentGroundable" in classes:
            bounds.append(("AdornmentGroundable",
                           f"O({f} * {size} * N^{ew})", ew))
        want = {"classes": classes, "f": f, "rule_count": size,
                "ew": str(ew), "fchw": fchw, "fchw_mode": out["fchw_mode"],
                "bounds": [{"class": c, "formula": fo,
                            "exponent": None if e is None else str(e)}
                           for c, fo, e in bounds]}
        return mode_ok and out == want

    def _eval(self, job, res):
        want = self.plain(job.prog, self.w.edbs[job.edb])
        out = self._json(res)
        return set(out) == set(want) and all(
            {tuple(t) for t in out[q]} == want[q] for q in want)

    def _eval_horn(self, job, res):
        rules = self.w.progs[job.prog].rules
        if "AdornmentGroundable" not in oracle.classify(rules):
            return res.rc == 2 and "not adornment groundable" in res.err
        prefix = "error: no relation with base predicate "
        if res.rc == 2 and res.err.startswith(prefix):
            q = res.err[len(prefix):].strip()
            want = self.plain(job.prog, self.w.edbs[job.edb])
            return HORN_EXIT2 if want.get(q) == set() else False
        return self._eval(job, res)

    def _verify(self, job, res):
        return self._json(res) == {"ok": True, "failures": []}


def _minimal(adn_key) -> bool:
    """Each head variable in exactly one body position; no body atom
    without a head variable."""
    _, head, body = adn_key
    heads = [t for t in head if isinstance(t, str)]
    seen = [t for _, ts in body for t in ts if t in heads]
    if any(not any(t in heads for t in ts) for _, ts in body):
        return False
    return sorted(seen) == sorted(set(heads)) if heads else True


def tolerated(kind) -> bool:
    """Does a failure of this kind leave the run correct?"""
    return kind is None or kind in KNOWN
