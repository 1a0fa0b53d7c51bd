#!/usr/bin/env python3
"""Benchmark harness for horocusp.

Runs one workload against the library in ./src, in this one process with
worker_count=1, repeating its operation until --seconds have passed, checks
every operation's output and prints one JSON result as the last line:

    python3 perfbench/run.py --workload scan-ref --seed 0 --seconds 36 --trace 0

Every operation covers the reference group in its three normalizations and
is timed against a fixed reference loop run just before and after it
(wall_ref), because the host's speed drifts more than the program does.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: it alternates untraced and traced operations and writes the
spans of the first traced one to perfbench/out/.  --workload all runs every
workload in turn, each in its own process.  --smoke shrinks every workload
for the smoke test.  See perfbench/README.md for what each number means.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import typing
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "horocusp"

# Set-ups timed at the start and before each operation, so that
# the setup_s median samples the host's speed over the whole run.
SETUPS_FIRST = 5
SETUPS_PER_OP = 2

FULL = {"scan_budget": 2000, "search_boxes": 50, "horoball_depth": 5}
SMOKE = {"scan_budget": 300, "search_boxes": 20, "horoball_depth": 4}

# Reference outputs, keyed by size, recorded when the benchmark was added.
SEARCH_SHA256 = {
    50: "ee69f02a8dc09fdcd4f00278e64a4ab921da9fd11fe8ae5d3f26fef916b36e12",
    20: "313e10159ab073e3d4469a0208102611a48aab98e72a04eac48fb3e3c0798c3b",
}
# (depth, k) -> ball count of the diagram at cutoff 0.05
HOROBALL_BALLS = {(5, -1): 50, (5, 0): 64, (5, 1): 40, (4, -1): 28, (4, 0): 44, (4, 1): 24}


def normalizations(seed: int):
    """The three k of b -> b + k*a, in the order the seed picks: it starts at k = seed mod 3 - 1.

    Every operation covers all three, because their run times differ by up to
    about 20%; a seed that picked a single k would move wall_ref by that much.
    """
    first = seed % 3
    return tuple((first + i) % 3 - 1 for i in range(3))


def reference_loop() -> float:
    """A fixed piece of interpreter work that uses no horocusp code; returns its wall time.

    On a shared host the CPU's speed can drift by up to a factor of two within
    seconds, and Python code slows with it.  Each operation is timed against this loop run just
    before and just after it, and wall_ref reports the ratio.
    """
    start = time.perf_counter()
    acc, table, row = 0j, {}, []
    for i in range(60000):
        z = complex(i % 97, i % 89) * (0.5 + 0.25j) + acc * 1e-9
        item = (z.real, z.imag, i)
        table[i % 512] = item
        row.append(item[0] - item[1])
        acc += z
        if len(row) > 256:
            row.clear()
    return time.perf_counter() - start


def reference_params(h, k: int):
    """The reference point a=4, b=1+sqrt(3)i, c=2 with b renormalized to b + k*a."""
    return h.Params(4.0, complex(1.0 + 4.0 * k, math.sqrt(3.0)), 2.0)


def scan_inputs(h, sizes, ks):
    cfg = h.SearchConfig(
        area_bound=6.0,
        max_d=6,
        max_exp=3,
        max_depth=12,
        min_box_width=1e-6,
        word_budget_per_box=sizes["scan_budget"],
        worker_count=1,
    )
    return [h.ParamBox.from_point(reference_params(h, k)) for k in ks], cfg


def scan_op(h, inputs):
    boxes, cfg = inputs
    verdicts = [h.search.test_box(box, None, cfg) for box in boxes]
    output = "".join(f"{v.status.value} {v.word} {v.volume_bound} {v.words_scanned}\n" for v in verdicts)
    checks = {
        "no box eliminated": all(
            v.status is not h.search.BoxStatus.ELIMINATED_KILLER for v in verdicts
        ),
        "full word budget scanned": all(v.words_scanned == cfg.word_budget_per_box for v in verdicts),
    }
    return output.encode(), checks, 1.0


def search_inputs(h, sizes, ks):
    cfg = h.SearchConfig(
        area_bound=1.5,
        max_d=2,
        max_exp=1,
        max_depth=12,
        min_box_width=0.01,
        word_budget_per_box=10000,
        worker_count=1,
        max_boxes=sizes["search_boxes"],
    )
    return cfg, SEARCH_SHA256.get(sizes["search_boxes"])


def search_op(h, inputs):
    cfg, expected_sha = inputs
    s = h.search
    report = s.run_search(cfg)
    text = report.to_canonical_json().encode()
    audit = s.verify_report(report, 50)
    decided = sum(
        2.0 ** -len(leaf.box.path)
        for leaf in report.leaves
        if leaf.status is not s.BoxStatus.UNDECIDED
    )
    checks = {
        "report sha256 matches the reference": hashlib.sha256(text).hexdigest() == expected_sha,
        "audit passes": audit["passed"],
    }
    return text, checks, decided


def horoball_inputs(h, sizes, ks):
    depth = sizes["horoball_depth"]
    return [(reference_params(h, k), depth, HOROBALL_BALLS.get((depth, k))) for k in ks]


def horoball_op(h, inputs):
    hb = h.horoball
    text, checks = "", {}
    for p, depth, expected_balls in inputs:
        diagram = hb.horoball_diagram(p, 0.05, depth)
        lower = hb.min_lower_left(p, depth)
        text += hb.render_svg(diagram) + hb.export_csv(diagram)

        def unit_ball_at(z):
            return any(
                abs(ball.center - z) < 1e-6 and abs(ball.diameter - 1.0) < 1e-9
                for ball in diagram.balls
            )

        for name, ok in {
            "min_lower_left within 1e-9 of 1": abs(lower - 1.0) < 1e-9,
            "diameter-1 ball at 0": unit_ball_at(0),
            "diameter-1 ball at 2": unit_ball_at(2),
            "ball count matches the reference": len(diagram.balls) == expected_balls,
        }.items():
            checks[name] = checks.get(name, True) and ok
    return text.encode(), checks, 1.0


WORKLOADS = {
    "scan-ref": (scan_inputs, scan_op),
    "search-area": (search_inputs, search_op),
    "horoball-ref": (horoball_inputs, horoball_op),
}


def setup(workload, sizes, ks):
    """Import the package afresh and build the inputs; returns (seconds, package, inputs)."""
    for name in [m for m in sys.modules if m == "horocusp" or m.startswith("horocusp.")]:
        del sys.modules[name]
    start = time.perf_counter()
    h = importlib.import_module("horocusp")
    inputs = WORKLOADS[workload][0](h, sizes, ks)
    elapsed = time.perf_counter() - start
    if Path(h.__file__).resolve().parent != PACKAGE:
        raise RuntimeError(f"imported horocusp from {h.__file__}, not from {PACKAGE}")
    return elapsed, h, inputs


def timed_setup(workload, sizes, ks):
    """Time one more set-up, then put back the modules the operations use."""
    kept = {m: mod for m, mod in sys.modules.items() if m == "horocusp" or m.startswith("horocusp.")}
    elapsed = setup(workload, sizes, ks)[0]
    for name in [m for m in sys.modules if m == "horocusp" or m.startswith("horocusp.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    # typing's caches hold annotations such as Optional[Word], and through them
    # the classes of each discarded import; without this, memory (and
    # peak_rss_mb) grows with the number of set-ups in the run.
    for clear in typing._cleanups:
        clear()
    gc.collect()
    return elapsed


def patches(h):
    """(owner, attribute, wrapper factory) for every traced layer boundary."""
    s, hb = h.search, h.horoball
    status = s.BoxStatus

    def span(name, note=None):
        return lambda tracer, fn: tracer.wrap(name, fn, note)

    def note_box(counts, args, kwargs, verdict):
        counts["boxes"] += 1
        counts["words"] += verdict.words_scanned
        counts["decided"] += verdict.status is not status.UNDECIDED
        if kwargs.get("hint") is not None:
            counts["hinted"] += 1
            counts["hint_hits"] += (
                verdict.status is status.ELIMINATED_KILLER and verdict.words_scanned == 1
            )

    def note_outside(counts, args, kwargs, result):
        counts["outside"] += result is h.Feasibility.OUTSIDE

    def note_size(key, size):
        def note(counts, args, kwargs, result):
            counts[key] += size(result)

        return note

    return [
        (h.interval.IntervalMatrix, "__matmul__", span("interval.matmul")),
        (h.words, "gens_from_params", span("bicuspid.gens")),
        (s, "box_in_param_space", span("bicuspid.feasibility", note_outside)),
        (s, "enumerate_words", lambda tracer, fn: tracer.wrap_iter("words.enumerate", fn)),
        (s, "lower_left_abs", span("words.evaluate")),
        (s, "run_search", span("search.driver")),
        (s, "test_box", span("search.test_box", note_box)),
        (s, "subdivide", span("search.subdivide")),
        (s.SearchReport, "to_canonical_json", span("search.serialize", note_size("serialize_bytes", len))),
        (s, "verify_report", span("search.audit", note_size("audit_samples", lambda r: r["samples_taken"]))),
        (hb, "enumerate_elements", span("horoball.enumerate", note_size("elements", len))),
        (hb, "horoball_diagram", span("horoball.diagram", note_size("balls", lambda d: len(d.balls)))),
        (hb, "min_lower_left", span("horoball.min_lower_left")),
        (hb, "render_svg", span("horoball.render", note_size("render_bytes", len))),
        (hb, "export_csv", span("horoball.render", note_size("render_bytes", len))),
    ]


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer numbers of one traced operation, except the per-second rates."""
    calls, incl, own, durations = tracer.totals()
    c = tracer.counts
    box_ms = [d * 1e3 for d in durations["search.test_box"]]
    return {
        "interval.matmul.calls": calls["interval.matmul"],
        "interval.matmul.s": incl["interval.matmul"],
        "interval.matmul_per_word": ratio(calls["interval.matmul"], calls["words.evaluate"]),
        "bicuspid.gens.calls": calls["bicuspid.gens"],
        "bicuspid.gens.s": incl["bicuspid.gens"],
        "bicuspid.feasibility.calls": calls["bicuspid.feasibility"],
        "bicuspid.feasibility.s": incl["bicuspid.feasibility"],
        "bicuspid.feasibility.outside_frac": ratio(c["outside"], calls["bicuspid.feasibility"]),
        "words.enumerate.words": c["words.enumerate.items"],
        "words.enumerate.s": incl["words.enumerate"],
        "words.enumerate.words_per_s": ratio(c["words.enumerate.items"], incl["words.enumerate"]),
        "words.evaluate.calls": calls["words.evaluate"],
        "words.evaluate.s": incl["words.evaluate"],
        "words.evaluate.us_per_word": ratio(incl["words.evaluate"] * 1e6, calls["words.evaluate"]),
        "search.boxes_tested": c["boxes"],
        "search.words_evaluated": c["words"],
        "search.words_per_box": ratio(c["words"], c["boxes"]),
        "search.test_box.p50_ms": percentile(box_ms, 50),
        "search.test_box.p95_ms": percentile(box_ms, 95),
        "search.test_box.self_s": own["search.test_box"],
        "search.driver.self_s": own["search.driver"],
        "search.decided_per_box": ratio(c["decided"], c["boxes"]),
        "search.hint_hit_frac": ratio(c["hint_hits"], c["hinted"]),
        "search.subdivide.calls": calls["search.subdivide"],
        "search.subdivide.s": incl["search.subdivide"],
        "search.serialize.s": incl["search.serialize"],
        "search.serialize.bytes": c["serialize_bytes"],
        "search.audit.samples": c["audit_samples"],
        "search.audit.s": incl["search.audit"],
        "horoball.enumerate.calls": calls["horoball.enumerate"],
        "horoball.enumerate.elements": c["elements"],
        "horoball.enumerate.s": incl["horoball.enumerate"],
        "horoball.enumerate.elements_per_s": ratio(c["elements"], incl["horoball.enumerate"]),
        "horoball.diagram.balls": c["balls"],
        "horoball.diagram.self_s": own["horoball.diagram"],
        "horoball.min_lower_left.self_s": own["horoball.min_lower_left"],
        "horoball.render.s": incl["horoball.render"],
        "horoball.render.bytes": c["render_bytes"],
    }


def machine():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def measure(workload, seed, seconds, trace, sizes):
    """Set up, run operations for `seconds`, and return (attempted, failed, metrics, notes)."""
    ks = normalizations(seed)
    elapsed, h, inputs = setup(workload, sizes, ks)
    setups = [elapsed] + [timed_setup(workload, sizes, ks) for _ in range(SETUPS_FIRST - 1)]
    op = WORKLOADS[workload][1]

    untraced, traced, ratios, loops, decided, layers = [], [], [], [], [], []
    first_trace = None
    reference = None
    failed = 0
    start = time.perf_counter()
    # Start another operation while it is expected to end, on average, by the deadline.
    while len(untraced) + len(traced) < (2 if trace else 1) or (
        time.perf_counter() - start + statistics.median(untraced + traced) / 2 < seconds
    ):
        tracer = Tracer(len(untraced) + len(traced)) if trace and len(untraced) > len(traced) else None
        setups += [timed_setup(workload, sizes, ks) for _ in range(SETUPS_PER_OP)]
        gc.collect()
        loops.append(reference_loop())
        with tracer.installed(patches(h)) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            output, checks, settled = op(h, inputs)
            wall = time.perf_counter() - t0
        loops.append(reference_loop())
        digest = hashlib.sha256(output).hexdigest()
        reference = reference or digest
        checks["output identical to the first operation"] = digest == reference
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failed += 1
            print(f"failed check(s) {bad}", file=sys.stderr)
        decided.append(settled)
        if tracer is None:
            untraced.append(wall)
            ratios.append(wall / statistics.fmean(loops[-2:]))
        else:
            traced.append(wall)
            layers.append(layer_metrics(tracer))
            first_trace = first_trace or tracer

    attempted = len(untraced) + len(traced)
    notes = [f"output sha256 {reference}", f"k order {ks}", f"untraced operation walls {untraced}"]
    notes.append(f"untraced operation wall_ref {ratios}")
    if not trace:
        metrics = {
            "wall_ref": statistics.median(ratios),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "decided_frac": statistics.median(decided),
        }
        n = len(ratios)
        tail = (
            f"p{100.0 * (n - 10) / n:.0f} = {sorted(ratios)[n - 11]:.6g} ref"
            if n > 10
            else "none (needs more than 10 samples)"
        )
        notes.append(f"wall_ref: median of n={n} operations; highest percentile with 10 beyond: {tail}")
        notes.append(
            f"wall_s (raw, moves with the host's speed): median {statistics.median(untraced):.6g} s;"
            f" reference loop median {statistics.median(loops):.6g} s"
        )
        notes.append(f"fail_frac = {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
        return attempted, failed, metrics, notes

    metrics = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
    wall = statistics.median(untraced)
    metrics["search.boxes_per_s"] = metrics["search.boxes_tested"] / wall
    metrics["search.words_per_s"] = metrics["search.words_evaluated"] / wall
    metrics["trace.overhead_s"] = statistics.median(traced) - wall
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.trace.jsonl"
    first_trace.write_jsonl(path, {"workload": workload, "seed": seed, "k_order": ks, "sizes": sizes, **machine()})
    notes.append(f"spans of operation {first_trace.run_id} written to {path.relative_to(ROOT)}")
    notes.append(f"traced operation walls {traced}")
    return attempted, failed, metrics, notes


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        print(f"# == {workload}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for the smoke test")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no horocusp package at {PACKAGE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(PACKAGE.parent))

    attempted, failed, values, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), SMOKE if args.smoke else FULL
    )
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured {sorted(values)}, declared {[m['name'] for m in declared]}")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} " + json.dumps(machine()))
    for note in notes:
        print(f"# {note}")
    for m in declared:
        print(f"# {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']:<10} {m['better']} is better")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
