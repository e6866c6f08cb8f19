"""The three benchmark workloads: seeded generators of programs, EDBs and
the CLI jobs run over them.

A generator never imports dlbound: dlbound sees only the files written
here.  Each workload is a fixed list of jobs (one *pass*); the runner
repeats passes for the measured time.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from oracle import parse_rule, render_edb, render_program

# Rule cap (DLSB_MAX_RULES).  A few random programs explode under GOut;
# the cap bounds each such job instead of letting one program dominate a
# pass.  corpus-mix, a workload of millisecond jobs, caps lower.
MAX_RULES = 100

# Seconds a job may run.  The slowest job that finishes takes under 2 s,
# and under 0.1 s for `bounds`; the limits stop only jobs that would not
# end in time at all: `bounds` correcting an inexact float root estimate
# one step at a time.
TIME_LIMIT = 10.0
BOUNDS_TIME_LIMIT = 0.5

# Random programs per pass: adorn-heavy's one notch above the tests'
# corpus, corpus-mix's of the corpus size class.
N_HEAVY = 60
N_CORPUS = 60

# Shapes (the random programs' rules, corpus-mix's small EDBs, random
# graphs, forests and ternary relations) come from this fixed seed, the
# same in every run.  The workload seed draws the names of predicates and
# variables, the value labels and `bounds --n`: runs with different seeds
# do the same work on different inputs.
SHAPE_SEED = 0

# Named programs.  Unbounded (identity rewriting never collapses) first,
# then programs whose rewriting collapses to a UCQ.
NAMED = {
    "tc_right": "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y).",
    "tc_left": "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
    "chain": "r(X) :- b(X).\nr(Y) :- r(X), e(X,Y).",
    "samegen": "sg(X,Y) :- flat(X,Y).\n"
               "sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).",
    "tc_nonlinear": "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).",
    "reach": "r(Y) :- e(X,Y).\nr(Y) :- r(X), e(X,Y).",
    "buys": "buys(X,Y) :- likes(X,Y).\nbuys(X,Y) :- trendy(X), buys(Z,Y).",
    "triangle": "q(X,Y) :- e(X,Y,Z).\np(X,Y,Z) :- q(X,Y), q(X,Z), q(Y,Z).",
}
UNBOUNDED = ("tc_right", "tc_left", "chain", "samegen", "tc_nonlinear")

# Hand-written verdicts for `boundedness` (identity relaxation, containment
# membership).  The unbounded programs grow a new, longer adornment every
# sweep, so a rule cap below the sweep cap always ends in max-rules.
# reach collapses to r(Y) :- e(_,Y); buys to its base rule plus
# likes(_,Y), trendy(X); triangle has no recursion at all.
COLLAPSED_RULES = {"reach": 1, "buys": 2, "triangle": 2}
# Budget k (relaxation GK(k)): (outcome, rules).  GK keeps bodies of up to
# k atoms exact and wildcards the rest, so chains stop after about k
# unfoldings: linear TC and chain add one adornment per extra atom
# allowed; same-generation needs three atoms per unfolding; nonlinear TC
# composes adornments pairwise.
BUDGET_VERDICTS = {
    "tc_right": {1: ("degraded", 3), 2: ("degraded", 4), 3: ("degraded", 5)},
    "tc_left": {1: ("degraded", 3), 2: ("degraded", 4), 3: ("degraded", 5)},
    "chain": {1: ("degraded", 3), 2: ("degraded", 4), 3: ("degraded", 5)},
    "samegen": {1: ("degraded", 3), 2: ("degraded", 3), 3: ("degraded", 4)},
    "tc_nonlinear": {1: ("degraded", 5), 2: ("degraded", 8),
                     3: ("degraded", 16)},
    "reach": {1: ("degraded", 2), 2: ("non-recursive", 1),
              3: ("non-recursive", 1)},
    "buys": {1: ("degraded", 3), 2: ("degraded", 3),
             3: ("non-recursive", 2)},
    "triangle": {1: ("non-recursive", 2), 2: ("non-recursive", 2),
                 3: ("non-recursive", 2)},
}
# --max-rules ladders for the unbounded programs; nonlinear TC's
# combinations grow fastest, so its ladder is shorter.
CAP_LADDER = {"tc_right": (10, 20, 30, 40), "tc_left": (10, 20, 30, 40),
              "chain": (10, 20, 30, 40), "samegen": (10, 20, 30, 40),
              "tc_nonlinear": (10, 20, 30)}


@dataclass
class Prog:
    rules: list
    closure: tuple | None = None  # (tc pred, edge pred): BFS reference


@dataclass
class Job:
    cmd: str            # subcommand, "eval-horn" for eval --horn
    argv: tuple         # arguments of cli.main after --json
    prog: str
    edb: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def limit(self) -> float:
        return BOUNDS_TIME_LIMIT if self.cmd == "bounds" else TIME_LIMIT


@dataclass
class Workload:
    progs: dict = field(default_factory=dict)
    edbs: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)
    # small EDBs on which adorned, minimized and UCQ outputs are checked
    # against the plain program
    check_edbs: dict = field(default_factory=dict)
    max_rules: int = MAX_RULES

    def add_prog(self, pid, prog, rng):
        self.progs[pid] = prog
        self.check_edbs[pid] = [random_edb(prog.rules, rng)
                                for _ in range(3)]

    def add(self, cmd, pid, *extra, edb=None, **params):
        argv = ["eval" if cmd == "eval-horn" else cmd, f"prog_{pid}.dl"]
        if edb is not None:
            argv += ["--edb", f"edb_{edb}.edb"]
        if cmd == "eval-horn":
            argv.append("--horn")
        self.jobs.append(Job(cmd, tuple(argv + list(extra)), pid, edb,
                             params))

    def write(self, directory) -> None:
        """Write the program and EDB files into `directory` and point the
        jobs' file arguments there."""
        for pid, prog in self.progs.items():
            (directory / f"prog_{pid}.dl").write_text(
                render_program(prog.rules))
        for eid, edb in self.edbs.items():
            (directory / f"edb_{eid}.edb").write_text(render_edb(edb))
        self.jobs = [Job(j.cmd, tuple(
            str(directory / a) if a.startswith(("prog_", "edb_")) else a
            for a in j.argv), j.prog, j.edb, j.params) for j in self.jobs]


# ---------------------------------------------------------------------------
# Programs


def parse_named(text: str) -> list:
    return [parse_rule(line) for line in text.splitlines()]


def _names(rng, count, first) -> list:
    """`count` distinct random identifiers, sorted."""
    out = set()
    while len(out) < count:
        out.add(rng.choice(first) + "".join(
            rng.choice(string.ascii_lowercase)
            for _ in range(rng.randint(2, 5))))
    return sorted(out)


def renamed(rng, rules) -> tuple:
    """Rename predicates and variables at random, keeping their sort
    order (the engine's search order depends on it, its answers do not)."""
    preds = sorted({a[0] for h, body in rules for a in (h, *body)})
    vars_ = sorted({t for h, body in rules for a in (h, *body)
                    for t in a[1] if isinstance(t, str)})
    pmap = dict(zip(preds, _names(rng, len(preds), string.ascii_lowercase)))
    vmap = dict(zip(vars_, _names(rng, len(vars_), string.ascii_uppercase)))

    def atom(a):
        return pmap[a[0]], tuple(vmap.get(t, t) if isinstance(t, str) else t
                                 for t in a[1])
    return [(atom(h), tuple(atom(a) for a in body)) for h, body in rules], \
        pmap


def named_prog(rng, name) -> tuple:
    rules, pmap = renamed(rng, parse_named(NAMED[name]))
    closure = (pmap["tc"], pmap["e"]) if name in ("tc_right", "tc_left",
                                                 "tc_nonlinear") else None
    return Prog(rules, closure), pmap


def random_rules(rng, n_idb=3, n_rules=4, n_body=3, n_vars=4) -> list:
    """A random safe program; the defaults are the size class of the
    tests' corpus (<= 3 IDBs, <= 4 rules, <= 3 body atoms, arity <= 3)."""
    while True:
        idb = [f"p{i}" for i in range(rng.randint(1, n_idb))]
        edb = [f"e{i}" for i in range(rng.randint(1, 2))]
        arity = {s: rng.randint(1, 3) for s in idb + edb}
        rules = []
        for _ in range(rng.randint(1, n_rules)):
            head = rng.choice(idb)
            preds = [rng.choice(idb + edb)
                     for _ in range(rng.randint(1, n_body))]
            if all(p in idb for p in preds):
                preds[rng.randrange(len(preds))] = rng.choice(edb)
            body, seen = [], []
            for p in preds:
                terms = []
                for _ in range(arity[p]):
                    if rng.random() < 0.15:
                        terms.append(rng.randint(0, 2))
                    else:
                        terms.append(f"V{rng.randrange(n_vars)}")
                        seen.append(terms[-1])
                body.append((p, tuple(terms)))
            if not seen:
                continue
            hterms = tuple(rng.choice(seen) if rng.random() < 0.9
                           else rng.randint(0, 2) for _ in range(arity[head]))
            rules.append(((head, hterms), tuple(body)))
        # an intended IDB that never heads a rule is just an EDB relation
        if rules:
            return rules


def tightness_rules(omega, mu, nu, m) -> list:
    """The size-bound tightness family: for every k <= omega, every
    k-tuple of relation symbols and every mu-tuple of variable picks."""
    import itertools
    rules = []
    for k in range(1, omega + 1):
        xs = [f"X{j}" for j in range(1, k * nu + 1)]
        for rels in itertools.product(range(1, m + 1), repeat=k):
            body = tuple((f"e{rels[a]}", tuple(xs[a * nu:(a + 1) * nu]))
                         for a in range(k))
            for pick in itertools.product(range(k * nu), repeat=mu):
                rules.append((("q", tuple(xs[j] for j in pick)), body))
    return rules


def tightness_edb(nu, m, n) -> dict:
    return {f"e{i}": {tuple(n * nu * (i - 1) + r * nu + c
                            for c in range(1, nu + 1)) for r in range(n)}
            for i in range(1, m + 1)}


# ---------------------------------------------------------------------------
# EDBs


def random_edb(rules, rng) -> dict:
    """A small random instance over the program's EDB schema: up to 6
    facts per relation over the values 0..3."""
    heads = {h[0] for h, _ in rules}
    ar = {}
    for h, body in rules:
        for p, terms in body:
            if p not in heads:
                ar[p] = len(terms)
    return {p: {tuple(rng.randrange(4) for _ in range(k))
                for _ in range(rng.randint(0, 6))}
            for p, k in sorted(ar.items())}


def _labels(rng, n) -> list:
    return rng.sample(range(10 * n + 10), n)


def path_edges(rng, n) -> set:
    lab = _labels(rng, n + 1)
    return {(lab[i], lab[i + 1]) for i in range(n)}


def grid_edges(rng, k) -> set:
    lab = _labels(rng, k * k)
    out = set()
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                out.add((lab[i * k + j], lab[i * k + j + 1]))
            if i + 1 < k:
                out.add((lab[i * k + j], lab[(i + 1) * k + j]))
    return out


def random_edges(shapes, rng, n, m) -> set:
    """m edges between n nodes: the graph drawn from `shapes`, the node
    labels from `rng`."""
    lab = _labels(rng, n)
    out = set()
    while len(out) < m:
        a, b = shapes.randrange(n), shapes.randrange(n)
        if a != b:
            out.add((lab[a], lab[b]))
    return out


def forest(shapes, rng, n, roots) -> tuple:
    """(up, down, flat) of a random forest: up is child -> parent."""
    lab = _labels(rng, n)
    up = {(lab[i], lab[shapes.randrange(i)]) for i in range(roots, n)}
    flat = {(lab[shapes.randrange(n)], lab[shapes.randrange(n)])
            for _ in range(n)}
    return up, {(b, a) for a, b in up}, flat


def named_edb(rng, name, pm) -> dict:
    """An EDB for a named program whose answer size does not depend on
    the seed: only the value labels are drawn."""
    lab = _labels(rng, 64)
    path = {(lab[i], lab[i + 1]) for i in range(24)}
    if name in ("tc_right", "tc_left", "tc_nonlinear", "reach"):
        return {pm["e"]: path}
    if name == "chain":
        return {pm["b"]: {(lab[0],)}, pm["e"]: path}
    if name == "samegen":
        # two complete binary trees of depth 4 whose roots are flat
        up = {(lab[t * 31 + c], lab[t * 31 + (c - 1) // 2])
              for t in (0, 1) for c in range(1, 31)}
        return {pm["up"]: up, pm["down"]: {(b, a) for a, b in up},
                pm["flat"]: {(lab[0], lab[31]), (lab[31], lab[0])}}
    if name == "buys":
        return {pm["likes"]: {(lab[i], lab[i + 24]) for i in range(24)},
                pm["trendy"]: {(lab[i],) for i in range(8)}}
    return {pm["e"]: {(lab[i], lab[j], lab[0])
                      for i in range(9) for j in range(i + 1, 9)}}


def ternary(shapes, rng, d, m) -> set:
    """m triples over d values, labelled from `rng`."""
    lab = _labels(rng, d)
    out = set()
    while len(out) < m:
        out.add(tuple(lab[shapes.randrange(d)] for _ in range(3)))
    return out


# ---------------------------------------------------------------------------
# Workloads


def add_probes(w, shapes, rng):
    """One job per subcommand on tiny inputs, so that every layer appears
    in every workload's trace."""
    prog, pm = named_prog(rng, "tc_right")
    w.add_prog("probe_tc", prog, rng)
    w.edbs["probe_path"] = {pm["e"]: path_edges(rng, 6)}
    tri, tm = named_prog(rng, "triangle")
    w.add_prog("probe_tri", tri, rng)
    w.edbs["probe_tri"] = {tm["e"]: ternary(shapes, rng, 4, 10)}
    for pid, eid in (("probe_tc", "probe_path"), ("probe_tri", "probe_tri")):
        w.add("adorn", pid, relax="gout", membership="eq")
        w.add("adorn", pid, "--membership", "cont", relax="gout",
              membership="cont")
        w.add("widths", pid)
        w.add("widths", pid, "--fractional", fractional=True)
        w.add("bounds", pid, "--n", "1000", n=1000)
        w.add("minimize", pid)
        w.add("classify", pid)
        w.add("complexity", pid)
        w.add("boundedness", pid, "--budget", "2", budget=2)
        w.add("eval", pid, edb=eid)
        w.add("eval-horn", pid, edb=eid)
        w.add("verify", pid, edb=eid)


def adorn_heavy(seed: int) -> Workload:
    rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
    w = Workload()
    for name in NAMED:
        prog, pm = named_prog(rng, name)
        w.add_prog(name, prog, rng)
        for cap in CAP_LADDER.get(name, (40,)):
            w.add("boundedness", name, "--max-rules", str(cap),
                  max_rules=cap, verdict=(
                      ("inconclusive", "max-rules") if name in UNBOUNDED
                      else ("non-recursive", COLLAPSED_RULES[name])))
        for k, verdict in BUDGET_VERDICTS[name].items():
            w.add("boundedness", name, "--budget", str(k), budget=k,
                  verdict=verdict)
        w.edbs[name] = named_edb(rng, name, pm)
        w.add("eval", name, edb=name)
    for i in range(N_HEAVY):
        pid = f"rand{i}"
        # one notch above the tests' corpus: 4 IDBs, 5 rules, 4 body atoms
        rules, _ = renamed(rng, random_rules(shapes, n_idb=4, n_rules=5,
                                             n_body=4, n_vars=5))
        w.add_prog(pid, Prog(rules), rng)
        w.add("adorn", pid, relax="gout", membership="eq")
        w.add("widths", pid)
    add_probes(w, shapes, rng)
    return w


def eval_scale(seed: int) -> Workload:
    rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
    w = Workload()
    graphs = {}
    for n in (10, 20, 40):
        graphs[f"path{n}"] = path_edges(rng, n)
    for k in (3, 4, 6):
        graphs[f"grid{k}"] = grid_edges(rng, k)
    for n in (10, 20, 35):
        graphs[f"rand{n}"] = random_edges(shapes, rng, n, 2 * n)
    # verify's value-cover check is brute force: small inputs only
    small = ("path10", "path20", "grid3", "grid4", "rand10", "rand20")
    for name in ("tc_right", "tc_left", "reach"):
        prog, pm = named_prog(rng, name)
        w.add_prog(name, prog, rng)
        for gid, edges in graphs.items():
            eid = f"{name}_{gid}"
            w.edbs[eid] = {pm["e"]: edges}
            w.add("eval", name, edb=eid)
            w.add("eval-horn", name, edb=eid)
            if gid in small:
                w.add("verify", name, edb=eid)
    prog, pm = named_prog(rng, "samegen")
    w.add_prog("samegen", prog, rng)
    for n in (40, 80):
        up, down, flat = forest(shapes, rng, n, max(2, n // 10))
        eid = f"samegen{n}"
        w.edbs[eid] = {pm["up"]: up, pm["down"]: down, pm["flat"]: flat}
        w.add("eval", "samegen", edb=eid)
        w.add("eval-horn", "samegen", edb=eid)
        if n == 40:
            w.add("verify", "samegen", edb=eid)
    prog, pm = named_prog(rng, "triangle")
    w.add_prog("triangle", prog, rng)
    for d, m in ((8, 60), (12, 150)):
        eid = f"triangle{d}"
        w.edbs[eid] = {pm["e"]: ternary(shapes, rng, d, m)}
        w.add("eval", "triangle", edb=eid)
        w.add("eval-horn", "triangle", edb=eid)
        if d == 8:
            w.add("verify", "triangle", edb=eid)
    add_probes(w, shapes, rng)
    return w


# `bounds --n` is drawn log-uniformly within each band of decades.  For
# the fractional width 3/2 (the triangle program), n ** 3/2 has a float
# root estimate that is cheap to correct, one too far off to correct in
# time, or is past float range; one draw per band keeps the count of each
# outcome fixed from seed to seed.
N_DECADES = ((0, 12), (20, 100), (103, 250))


def corpus_mix(seed: int) -> Workload:
    rng, shapes = random.Random(seed), random.Random(SHAPE_SEED)
    w = Workload(max_rules=40)
    progs = []
    for name in ("tc_right", "reach", "buys", "triangle", "chain"):
        prog, _ = named_prog(rng, name)
        progs.append((name, prog, None))
    for i, (omega, mu, nu, m) in enumerate(((2, 2, 2, 2), (2, 2, 2, 3))):
        progs.append((f"tight{i}", Prog(tightness_rules(omega, mu, nu, m)),
                      tightness_edb(nu, m, 3)))
    for i in range(N_CORPUS):
        rules, _ = renamed(rng, random_rules(shapes))
        progs.append((f"rand{i}", Prog(rules), None))
    for pid, prog, edb in progs:
        w.add_prog(pid, prog, rng)
        w.edbs[pid] = edb if edb is not None else \
            random_edb(prog.rules, shapes)
        for relax in ("gout", "gk=2", "gmin"):
            for mem in ("eq", "cont"):
                w.add("adorn", pid, "--relax", relax, "--membership", mem,
                      relax=relax, membership=mem)
        w.add("widths", pid)
        w.add("widths", pid, "--fractional", fractional=True)
        for lo, hi in N_DECADES:
            n = int(10 ** rng.uniform(lo, hi))
            w.add("bounds", pid, "--n", str(n), n=n)
        w.add("minimize", pid)
        w.add("classify", pid)
        w.add("complexity", pid)
        # budgeted, so that the search ends: like `adorn --relax id`, an
        # unbudgeted one need not (adorn-heavy covers it, on programs
        # whose growth is known)
        for k in (1, 2):
            w.add("boundedness", pid, "--budget", str(k), "--max-rules",
                  "40", budget=k, max_rules=40)
        w.add("eval", pid, edb=pid)
        w.add("eval-horn", pid, edb=pid)
        w.add("verify", pid, edb=pid)
    return w


WORKLOADS = {"adorn-heavy": adorn_heavy, "eval-scale": eval_scale,
             "corpus-mix": corpus_mix}
