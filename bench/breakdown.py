"""Markdown report of an untraced and a traced run of every workload."""

from __future__ import annotations

import os
import platform

# Predicted dominant layers (see README.md, "How the metrics interact").
PREDICTIONS = {
    "adorn-heavy": ("unify.subsumes", "unify.canonical_key"),
    "eval-scale": ("evaluate.evaluate", "groundable.horn_ground_evaluate"),
    "corpus-mix": ("cli.build_parser",),
}
UNIT = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
        "tuples_per_s": "1/s", "fail_ratio": "ratio", "setup_s": "s",
        "peak_rss_mb": "MB"}


def _self_times(info) -> dict:
    return {name[:-len(".self_s")]: value
            for name, (value, _) in info["layers"].items()
            if name.endswith(".self_s")}


def prediction(workload, info) -> str:
    """Whether the predicted layers dominate the traced self time."""
    times = _self_times(info)
    total = sum(times.values())
    ranked = sorted(times, key=times.get, reverse=True)
    want = PREDICTIONS[workload]
    share = sum(times[n] for n in want) / total
    names = " + ".join(f"`{n}`" for n in want)
    if len(want) == 1:
        held = ranked[0] == want[0]
        return (f"{names} is {'' if held else 'not '}the largest single "
                f"layer ({100 * share:.1f}% of self time; largest is "
                f"`{ranked[0]}` at {100 * times[ranked[0]] / total:.1f}%): "
                f"prediction {'held' if held else 'did not hold'}.")
    held = share > 0.5
    return (f"{names} take {100 * share:.1f}% of self time: prediction "
            f"{'held' if held else 'did not hold'} (dominate = more than "
            f"half).")


def markdown(rows, args) -> str:
    out = ["# dlbound benchmark breakdown",
           "",
           f"Seed {args.seed}, {args.seconds:g} s per run, one closed-loop "
           f"client; {platform.python_implementation()} "
           f"{platform.python_version()} on {platform.machine()}, "
           f"{os.cpu_count()} CPUs.  Values per run; per-layer values per "
           f"pass over the workload's job list.",
           ""]
    workloads = sorted({w for w, _ in rows}, key=list(PREDICTIONS).index)
    out += ["## End to end (untraced)", "",
            "| metric | unit | " + " | ".join(workloads) + " |",
            "|---|---|" + "---|" * len(workloads)]
    for metric, unit in UNIT.items():
        out.append(f"| {metric} | {unit} | " + " | ".join(
            f"{rows[w, 0]['end_to_end'][metric]:.6g}" for w in workloads)
            + " |")
    for key, label in (("samples", "job samples"), ("passes", "passes"),
                       ("attempted", "attempted"), ("failed", "failed")):
        out.append(f"| {label} | count | " + " | ".join(
            str(rows[w, 0][key]) for w in workloads) + " |")
    out.append("| correct | | " + " | ".join(
        str(rows[w, 0]["correct"]).lower() for w in workloads) + " |")
    out += ["", "Failures by kind (distinct jobs):", ""]
    for w in workloads:
        for trace, label in ((0, "untraced"), (1, "traced")):
            kinds = rows[w, trace]["failure_kinds"] or {"none": 0}
            out.append(f"- {w}, {label}: " + "; ".join(
                f"{n} x {k}" if n else k for k, n in sorted(kinds.items())))
    out += ["", "Output digests (sha256 over every job's exit code and "
            "output; jobs stopped by the time limit are left out):", ""]
    for w in workloads:
        same = rows[w, 0]["output_digest"] == rows[w, 1]["output_digest"]
        out.append(f"- {w}: `{rows[w, 0]['output_digest']}`"
                   + (" (same traced)" if same else
                      f" (traced: `{rows[w, 1]['output_digest']}`)"))

    out += ["", "## Tracing overhead", "",
            "Untraced over traced `jobs_per_s` mixes the overhead with the "
            "machine's speed drift between the two runs; the wrapper cost "
            "(calls times the measured cost of one traced call, as a share "
            "of traced job time) does not.", "",
            "| workload | untraced jobs/s | traced jobs/s | ratio - 1 | "
            "wrapper cost | self times / job time |",
            "|---|---|---|---|---|---|"]
    for w in workloads:
        plain, traced = rows[w, 0]["end_to_end"]["jobs_per_s"], \
            rows[w, 1]["traced_jobs_per_s"]
        out.append(f"| {w} | {plain:.4g} | {traced:.4g} | "
                   f"{100 * (plain / traced - 1):.1f}% | "
                   f"{100 * rows[w, 1]['trace_cost_share']:.1f}% | "
                   f"{100 * rows[w, 1]['trace_self_share']:.1f}% |")

    out += ["", "## Predicted split", ""]
    for w in workloads:
        out.append(f"- {w}: {prediction(w, rows[w, 1])}")

    out += ["", "## Per layer (traced run, per pass)", ""]
    for w in workloads:
        info = rows[w, 1]
        times = _self_times(info)
        total = sum(times.values())
        layers = info["layers"]
        out += [f"### {w}", "", "| layer | calls | self s | share |",
                "|---|---|---|---|"]
        for name in sorted(times, key=times.get, reverse=True):
            out.append(f"| {name} | {layers[name + '.calls'][0]:g} | "
                       f"{times[name]:.4f} | "
                       f"{100 * times[name] / total:.1f}% |")
        out += ["", "| counter | value | unit |", "|---|---|---|"]
        for name, (value, unit) in layers.items():
            if not name.endswith((".calls", ".self_s")):
                out.append(f"| {name} | {value:.6g} | {unit} |")
        out.append("")
    return "\n".join(out)
