"""Acceptance checklist: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every budget and tolerance is asserted, not just reported.
"""

import json
import math
import random
import time

from horocusp.bicuspid import ParamBox, Params
from horocusp.cuspgeom import (
    CuspShape,
    audit_cusp,
    cusp_volume,
    delta_bound,
    max_exceptional_count,
    short_slopes,
    strict_delta_max,
)
from horocusp.horoball import export_csv, horoball_diagram, min_lower_left, render_svg
from horocusp.interval import ComplexInterval, IntervalMatrix, RealInterval
from horocusp.search import BoxStatus, SearchConfig, run_search, test_box, verify_report
from horocusp.words import (
    KillerVerdict,
    enumerate_words,
    evaluate_word_float,
    killer_test,
    parse_word,
    volume_bound,
)

HEX_SHAPE = CuspShape(4.0, complex(1.0, math.sqrt(3.0)))
HEX_PARAMS = Params(4.0, complex(1.0, math.sqrt(3.0)), 2.0)

SLICE_CONFIG = SearchConfig(
    area_bound=6.0,
    max_d=2,
    max_exp=1,
    max_depth=12,
    min_box_width=0.01,
    word_budget_per_box=10000,
    root_box=[[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.7, -0.4], [0.0, 0.0]],
)


def _report(num, ok, detail):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_01_reference_cusp_volume() -> None:
    cusp_volume(HEX_SHAPE)
    t0 = time.perf_counter()
    value = cusp_volume(HEX_SHAPE)
    elapsed = time.perf_counter() - t0
    err = abs(value - 2.0 * math.sqrt(3.0))
    ok = err < 1e-9 and elapsed < 1e-3
    _report(1, ok, "volume=%.12f err=%.2e elapsed=%.2es" % (value, err, elapsed))
    assert ok


def test_criterion_02_exceptional_slope_count() -> None:
    max_exceptional_count(5)
    t0 = time.perf_counter()
    count = max_exceptional_count(5)
    bound = delta_bound(6.0)
    strict = strict_delta_max(6.0)
    elapsed = time.perf_counter() - t0
    ok = count == 8 and bound == 6.0 and strict == 5 and elapsed < 1e-3
    _report(2, ok, "count=%d bound=%s strict_max=%d elapsed=%.2es" % (count, bound, strict, elapsed))
    assert ok


def test_criterion_03_relator_volume_formula() -> None:
    words = [parse_word("z^3"), parse_word("z^4"), parse_word("z^5")]
    volume_bound(words[0])
    t0 = time.perf_counter()
    values = [volume_bound(w) for w in words]
    elapsed = time.perf_counter() - t0
    expected = [math.pi, 2.0 * math.pi, 3.0 * math.pi]
    ok = values == expected and elapsed < 1e-3
    _report(3, ok, "values=%s elapsed=%.2es" % (values, elapsed))
    assert ok


def _random_box(rng, targeted):
    if targeted:
        a_lo = rng.uniform(1.0, 1.15)
        c_lo = rng.uniform(-0.7, -0.45)
        bounds = [
            [a_lo, a_lo + rng.uniform(0.0, 0.05)],
            [0.0, 0.0],
            [0.0, 0.0],
            [4.0, 4.0],
            [c_lo, c_lo + rng.uniform(0.0, 0.05)],
            [0.0, 0.0],
        ]
    else:
        centers = [
            rng.uniform(1.0, 3.0),
            0.0,
            rng.uniform(-2.0, 2.0),
            rng.uniform(0.0, 2.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
        ]
        bounds = []
        for ctr in centers:
            half = rng.uniform(0.0, 0.15)
            bounds.append([ctr - half, ctr + half])
    return ParamBox.from_bounds(bounds)


def _sample_params(rng, box):
    vals = [lo + rng.random() * (hi - lo) for lo, hi in box.to_bounds()]
    return Params(complex(vals[0], vals[1]), complex(vals[2], vals[3]), complex(vals[4], vals[5]))


def test_criterion_04_killer_verdict_soundness() -> None:
    t0 = time.perf_counter()
    rng = random.Random(40404)
    pool = list(enumerate_words(4, 1))
    short_pool = [w for w in pool if w.z_count <= 2]
    eliminated = 0
    violations = 0
    for i in range(10000):
        targeted = i % 2 == 0
        source = short_pool if targeted else pool
        word = source[rng.randrange(len(source))]
        box = _random_box(rng, targeted)
        if killer_test(word, box) is not KillerVerdict.ELIMINATES:
            continue
        eliminated += 1
        for _ in range(100):
            mag = abs(evaluate_word_float(word, _sample_params(rng, box))[2])
            if mag <= 1e-9 or mag >= 1.0 + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and eliminated > 0 and elapsed < 60.0
    _report(4, ok, "pairs=10000 eliminated=%d violations=%d elapsed=%.1fs" % (eliminated, violations, elapsed))
    assert ok


def _rand_interval(rng):
    lo = rng.uniform(-5.0, 5.0)
    return RealInterval(lo, lo + rng.uniform(0.0, 1.0))


def _pick(rng, iv):
    return min(max(rng.uniform(iv.lo, iv.hi), iv.lo), iv.hi)


def test_criterion_05_interval_containment() -> None:
    t0 = time.perf_counter()
    rng = random.Random(50505)
    failures = 0
    for _ in range(40000):
        x, y = _rand_interval(rng), _rand_interval(rng)
        px, py = _pick(rng, x), _pick(rng, y)
        op = rng.randrange(3)
        if op == 0:
            z, pz = x + y, px + py
        elif op == 1:
            z, pz = x - y, px - py
        else:
            z, pz = x * y, px * py
        failures += not z.contains(pz)
    for _ in range(40000):
        x = ComplexInterval(_rand_interval(rng), _rand_interval(rng))
        y = ComplexInterval(_rand_interval(rng), _rand_interval(rng))
        px = complex(_pick(rng, x.re), _pick(rng, x.im))
        py = complex(_pick(rng, y.re), _pick(rng, y.im))
        failures += not (x * y).contains(px * py)
    for _ in range(20000):
        cells = []
        points = []
        for _ in range(8):
            cell = ComplexInterval(_rand_interval(rng), _rand_interval(rng))
            cells.append(cell)
            points.append(complex(_pick(rng, cell.re), _pick(rng, cell.im)))
        m1 = IntervalMatrix(*cells[:4])
        m2 = IntervalMatrix(*cells[4:])
        prod = m1 @ m2
        a, b, c, d = points[:4]
        e, f, g, h = points[4:]
        flat = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        entries = (prod.m11, prod.m12, prod.m21, prod.m22)
        failures += not all(entries[k].contains(flat[k]) for k in range(4))
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(5, ok, "trials=100000 failures=%d elapsed=%.1fs" % (failures, elapsed))
    assert ok


def test_criterion_06_slice_demo_eliminated() -> None:
    t0 = time.perf_counter()
    report = run_search(SLICE_CONFIG)
    statuses = {leaf.status for leaf in report.leaves}
    fully_eliminated = statuses <= {
        BoxStatus.ELIMINATED_KILLER,
        BoxStatus.ELIMINATED_INFEASIBLE,
    }
    audit = verify_report(report, 50)
    elapsed = time.perf_counter() - t0
    ok = fully_eliminated and audit["passed"] and elapsed < 10.0
    _report(
        6,
        ok,
        "leaves=%d eliminated=%s audit=%s elapsed=%.1fs"
        % (len(report.leaves), fully_eliminated, audit["passed"], elapsed),
    )
    assert ok


def test_criterion_07_reference_point_survives() -> None:
    t0 = time.perf_counter()
    bounds = [
        [4.0, 4.0],
        [0.0, 0.0],
        [1.0, 1.0],
        [math.sqrt(3.0), math.sqrt(3.0)],
        [2.0, 2.0],
        [0.0, 0.0],
    ]
    box = ParamBox.from_bounds(bounds)
    cfg = SearchConfig(
        area_bound=6.0,
        max_d=6,
        max_exp=3,
        max_depth=12,
        min_box_width=1e-6,
        word_budget_per_box=20000,
    )
    verdict = test_box(box, None, cfg)
    survived = verdict.status is not BoxStatus.ELIMINATED_KILLER
    oracle_bad = 0
    stream = enumerate_words(6, 3)
    for _ in range(20000):
        word = next(stream)
        mag = abs(evaluate_word_float(word, HEX_PARAMS)[2])
        if not (mag <= 1e-9 or mag >= 1.0 - 1e-9):
            oracle_bad += 1
    elapsed = time.perf_counter() - t0
    ok = survived and oracle_bad == 0 and elapsed < 120.0
    _report(
        7,
        ok,
        "status=%s oracle_violations=%d elapsed=%.1fs" % (verdict.status.value, oracle_bad, elapsed),
    )
    assert ok


def test_criterion_08_reference_horoball_diagram() -> None:
    t0 = time.perf_counter()
    diagram = horoball_diagram(HEX_PARAMS, 0.05, 8)
    by_center = {}
    for ball in diagram.balls:
        key = (round(ball.center.real, 6), round(ball.center.imag, 6))
        by_center[key] = max(ball.diameter, by_center.get(key, 0.0))
    has_zero = abs(by_center.get((0.0, 0.0), 0.0) - 1.0) < 1e-9
    has_two = abs(by_center.get((2.0, 0.0), 0.0) - 1.0) < 1e-9
    capped = all(ball.diameter <= 1.0 + 1e-9 for ball in diagram.balls)
    lower_left = min_lower_left(HEX_PARAMS, 8)
    elapsed = time.perf_counter() - t0
    ok = has_zero and has_two and capped and abs(lower_left - 1.0) < 1e-9 and elapsed < 30.0
    _report(
        8,
        ok,
        "balls=%d at0=%s at2=%s capped=%s min_lower_left=%.12f elapsed=%.1fs"
        % (len(diagram.balls), has_zero, has_two, capped, lower_left, elapsed),
    )
    assert ok


def _oracle_short_slopes(a, b, cutoff):
    area = abs((a.conjugate() * b).imag)
    reach = int(math.ceil(cutoff * (abs(a) + abs(b)) / area)) + 3
    rows = []
    for q in range(0, reach + 1):
        for p in range(-reach, reach + 1):
            if math.gcd(p, q) != 1:
                continue
            if q == 0 and p != 1:
                continue
            length = abs(p * a + q * b)
            if length <= cutoff:
                rows.append((length, q, p))
    rows.sort()
    return [(p, q) for _, q, p in rows]


def test_criterion_09_slope_enumeration_oracle() -> None:
    t0 = time.perf_counter()
    rng = random.Random(90909)
    mismatches = 0
    checked = 0
    while checked < 100:
        a = complex(rng.uniform(0.7, 2.5), 0.0)
        b = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.4, 2.5))
        if abs((a.conjugate() * b).imag) < 1.0:
            continue
        checked += 1
        shape = CuspShape(a, b)
        got = [(s.p, s.q) for s in short_slopes(shape, 6.0)]
        if got != _oracle_short_slopes(a, b, 6.0):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(9, ok, "lattices=100 mismatches=%d elapsed=%.1fs" % (mismatches, elapsed))
    assert ok


def test_criterion_10_artifact_determinism() -> None:
    t0 = time.perf_counter()
    json_a = run_search(SLICE_CONFIG).to_canonical_json()
    json_b = run_search(SLICE_CONFIG).to_canonical_json()
    audit = audit_cusp(HEX_SHAPE)
    cusp_a = json.dumps(audit, sort_keys=True, separators=(",", ":"))
    cusp_b = json.dumps(audit_cusp(HEX_SHAPE), sort_keys=True, separators=(",", ":"))
    diagram = horoball_diagram(HEX_PARAMS, 0.5, 4)
    svg_a = render_svg(diagram, 80.0, metadata={"config": {"cutoff": 0.5}})
    svg_b = render_svg(
        horoball_diagram(HEX_PARAMS, 0.5, 4), 80.0, metadata={"config": {"cutoff": 0.5}}
    )
    csv_a = export_csv(diagram)
    csv_b = export_csv(horoball_diagram(HEX_PARAMS, 0.5, 4))
    json_same = json_a == json_b
    ok = json_same and cusp_a == cusp_b and svg_a == svg_b and csv_a == csv_b
    elapsed = time.perf_counter() - t0
    _report(10, ok, "json=%s cusp=%s svg=%s csv=%s elapsed=%.1fs" % (
        json_same, cusp_a == cusp_b, svg_a == svg_b, csv_a == csv_b, elapsed))
    assert ok
