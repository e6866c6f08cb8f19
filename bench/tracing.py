"""Per-layer tracing from outside the package.

Each layer is a public function of a dlbound module.  Installing the
tracer replaces the function in *every* dlbound namespace that binds it
(``from .unify import subsumes`` copies the binding into adorn and
boundedness, and cli imports everything it calls), so calls made through
a copied binding are counted too.  Spans are aggregated online: per layer
a call count, self time (duration minus the time of nested layer spans,
kept with a call stack) and one result counter.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (module, attribute, counter of results or None)
LAYERS = {
    "cli.main": ("cli", "main", None),
    "cli.build_parser": ("cli", "build_parser", None),
    "core.parse_program": ("core", "parse_program", None),
    "evaluate.parse_edb": ("evaluate", "parse_edb", None),
    "adorn.adorn_program": ("adorn", "adorn_program",
                            lambda r: len(r.rules)),
    "adorn.relax": ("adorn", "relax", None),
    "adorn.membership": ("adorn", "MembershipFn.check", bool),
    "unify.mgu": ("unify", "mgu", lambda r: r is None),
    "unify.canonical_key": ("unify", "canonical_key", None),
    "unify.subsumes": ("unify", "subsumes", bool),
    "width.integral_edge_cover": ("width", "integral_edge_cover", None),
    "width.fractional_edge_cover": ("width", "fractional_edge_cover", None),
    "sizebound.size_report": ("sizebound", "size_report", None),
    "boundedness.check_boundedness": ("boundedness", "check_boundedness",
                                      None),
    "minimize.minimize_program": ("minimize", "minimize_program", None),
    "evaluate.evaluate": ("evaluate", "evaluate",
                          lambda r: sum(len(ts) for _, ts in r.relations)),
    "evaluate.check_rule_bounded": ("evaluate", "check_rule_bounded", None),
    "evaluate.value_cover_ok": ("evaluate", "value_cover_ok", None),
    "groundable.horn_ground_evaluate": ("groundable", "horn_ground_evaluate",
                                        None),
    "groundable.classify_program": ("groundable", "classify_program", None),
    "groundable.complexity_report": ("groundable", "complexity_report", None),
    "groundable.integral_fchw": ("groundable", "integral_fchw", None),
}

# counter -> (metric name, unit, ratio of calls or per-pass count)
COUNTER_METRICS = {
    "adorn.adorn_program": ("adorn.rules_out", "count", False),
    "adorn.membership": ("adorn.membership.reject_ratio", "ratio", True),
    "unify.mgu": ("unify.mgu.fail_ratio", "ratio", True),
    "unify.subsumes": ("unify.subsumes.hit_ratio", "ratio", True),
    "evaluate.evaluate": ("evaluate.tuples_out", "count", False),
}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in LAYERS}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, counter):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time spent in nested layer spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
            if counter is not None:
                stats[2] += counter(result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every layer in every loaded dlbound namespace."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "dlbound"
                                         or n.startswith("dlbound."))]
        for name, (mod, attr, counter) in LAYERS.items():
            home = sys.modules[f"dlbound.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, counter))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            traced = self._wrap(name, orig, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the job list."""
        out = {}
        for name, (calls, self_s, count) in self.stats.items():
            out[f"{name}.calls"] = (_per_pass(calls, passes), "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            if name in COUNTER_METRICS:
                metric, unit, ratio = COUNTER_METRICS[name]
                value = (count / calls if calls else 0.0) if ratio \
                    else _per_pass(count, passes)
                out[metric] = (value, unit)
        return out

    def total_self_s(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def total_calls(self) -> int:
        return sum(s[0] for s in self.stats.values())


def wrapper_cost() -> float:
    """Seconds one traced call adds, measured over 100,000 calls of a
    function doing nothing; with the call counts it estimates the tracing
    overhead without comparing two runs on a machine whose speed drifts."""
    n = 100_000

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("cli.main", noop, None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return (time.perf_counter() - t0 - plain) / n


def _per_pass(count: int, passes: int):
    """Counts repeat exactly from pass to pass, so this is normally whole."""
    return count // passes if count % passes == 0 else count / passes
