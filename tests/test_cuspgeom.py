"""Cusp cross-section arithmetic against hand values and a brute-force slope oracle."""

import cmath
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from horocusp import cuspgeom
from horocusp.bicuspid import Params
from horocusp.cuspgeom import (
    CuspShape,
    Slope,
    audit_cusp,
    cusp_area,
    cusp_volume,
    delta,
    delta_bound,
    max_exceptional_count,
    short_slopes,
    slope_length,
    strict_delta_max,
)

HEX = CuspShape(4.0, 1.0 + math.sqrt(3.0) * 1j)
SQUARE = CuspShape(1.0, 1j)


def test_shape_validation():
    try:
        CuspShape(2.0, -3.0)
        assert False, "expected ValueError for collinear generators"
    except ValueError:
        pass
    try:
        CuspShape(1 + 1j, -2 - 2j)
        assert False, "expected ValueError for collinear generators"
    except ValueError:
        pass
    CuspShape(1 + 1j, 1 - 1j)


def test_from_params_boundary():
    shape = CuspShape.from_params(Params(4.0, 1 + math.sqrt(3.0) * 1j, 2.0))
    assert shape.a == 4.0 and shape.b == 1 + math.sqrt(3.0) * 1j
    try:
        CuspShape.from_params(Params(0.5, 2j, 1.0))
        assert False, "expected ValueError for short translation"
    except ValueError:
        pass


def test_slope_validation_and_canonical():
    for bad in ((0, 0), (2, 4), (1, -1), (-1, 0), (0, -1)):
        try:
            Slope(*bad)
            assert False, f"expected ValueError for {bad}"
        except ValueError:
            pass
    assert Slope.canonical(2, 4) == Slope(1, 2)
    assert Slope.canonical(-1, 0) == Slope(1, 0)
    assert Slope.canonical(3, -6) == Slope(-1, 2)
    assert Slope.canonical(0, -5) == Slope(0, 1)
    assert Slope.canonical(-7, -3) == Slope(7, 3)


def test_area_and_volume_reference_values() -> None:
    assert abs(cusp_area(HEX) - 4.0 * math.sqrt(3.0)) < 1e-12
    assert abs(cusp_volume(HEX) - 2.0 * math.sqrt(3.0)) < 1e-9
    assert cusp_area(SQUARE) == 1.0
    assert cusp_volume(SQUARE) == 0.5


def test_area_unimodular_invariance() -> None:
    rng = random.Random(7230)
    for _ in range(300):
        a = cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        b = cmath.rect(rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.8))
        if abs((a.conjugate() * b).imag) < 1e-6:
            continue
        base = cusp_area(CuspShape(a, b))
        for a2, b2 in ((a, b + a), (a, b - a), (b, a), (-a, b)):
            assert abs(cusp_area(CuspShape(a2, b2)) - base) < 1e-12 * base
        assert (cusp_volume(CuspShape(a, b)) > 3.0) == (base > 6.0)


def test_slope_length_values():
    assert slope_length(SQUARE, Slope(1, 0)) == 1.0
    assert abs(slope_length(SQUARE, Slope(3, 4)) - 5.0) < 1e-12
    assert abs(slope_length(HEX, Slope(1, 0)) - 4.0) < 1e-12
    assert abs(slope_length(HEX, Slope(0, 1)) - 2.0) < 1e-12


def test_slope_length_transforms_with_basis() -> None:
    rng = random.Random(90515)
    for _ in range(200):
        a = cmath.rect(rng.uniform(0.7, 2.5), rng.uniform(-0.5, 0.5))
        b = cmath.rect(rng.uniform(0.7, 2.5), rng.uniform(0.6, 2.5))
        if abs((a.conjugate() * b).imag) < 1e-3:
            continue
        p = rng.randint(-4, 4)
        q = rng.randint(-4, 4)
        if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
            continue
        sl = Slope.canonical(p, q)
        length = slope_length(CuspShape(a, b), sl)
        moved = slope_length(CuspShape(a, b + a), Slope.canonical(sl.p - sl.q, sl.q))
        assert abs(moved - length) < 1e-12 * max(1.0, length)
        swapped = slope_length(CuspShape(b, a), Slope.canonical(sl.q, sl.p))
        assert abs(swapped - length) < 1e-12 * max(1.0, length)


def test_delta_values_and_symmetry():
    assert delta(Slope(1, 0), Slope(0, 1)) == 1
    assert delta(Slope(1, 0), Slope(1, 0)) == 0
    assert delta(Slope(2, 1), Slope(1, 2)) == 3
    rng = random.Random(3311)
    for _ in range(200):
        s1 = Slope.canonical(rng.randint(-6, 6), rng.randint(-6, 6) or 1)
        s2 = Slope.canonical(rng.randint(-6, 6), rng.randint(-6, 6) or 1)
        assert delta(s1, s2) == delta(s2, s1)
        assert (delta(s1, s2) == 0) == (s1 == s2)
        u = (s1.p - s1.q, s1.q)
        v = (s2.p - s2.q, s2.q)
        assert delta(s1, s2) == abs(u[0] * v[1] - v[0] * u[1])


def test_strict_delta_max_is_exact_next_to_integer_bounds():
    """strict_delta_max(area) is the d with d * area < 36 <= (d + 1) * area, exactly.

    Checked at 36/k and its two float neighbours for k = 1 to 199, where
    the float 36/area rounds onto an integer: ceil of it is one short at
    106 of those 597 areas.  At area 3.2727272727272725, just below
    36/11, the audit's delta_max is 11 and max_exceptional_count 14.
    """
    float_misses = 0
    for k in range(1, 200):
        x = 36 / k
        for area in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
            d = strict_delta_max(area)
            assert d * Fraction(area) < 36 <= (d + 1) * Fraction(area), (k, area)
            float_misses += d != max(0, math.ceil(36.0 / area) - 1)
    assert float_misses == 106
    audit = audit_cusp(CuspShape(1.0, 3.2727272727272725j))
    assert (audit["delta_max"], audit["max_exceptional_count"]) == (11, 14)


def _next_prime_by_trial_division(n: int) -> int:
    """The smallest prime above n, each candidate tested by division up to its square root."""
    while True:
        n += 1
        if n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1)):
            return n


def test_max_exceptional_count_is_decided_by_miller_rabin():
    """Miller-Rabin with the first 13 prime bases agrees with trial division, and stops at its bound.

    Every delta_max up to 10^4 gives the trial-division answer.  Next to
    2^61, the primes 2^61 - 31, 2^61 - 1 and 2^61 + 15 are found with no
    prime between them.  3825123056546413051, a strong pseudoprime to
    every prime base up to 23, and 318665857834031151167461, one to the
    first 12 prime bases, are composite.  A search that reaches
    3317044064679887385961981, where the bases are no longer proved
    enough, raises ValueError at once.
    """
    for d in range(10**4 + 1):
        assert max_exceptional_count(d) == _next_prime_by_trial_division(d) + 1, d
    p = 2**61
    assert max_exceptional_count(p - 32) == p - 31 + 1
    assert max_exceptional_count(p - 31) == p - 1 + 1
    assert max_exceptional_count(p - 1) == p + 15 + 1
    assert not cuspgeom._is_prime(3825123056546413051)
    assert not cuspgeom._is_prime(318665857834031151167461)
    bound = 3317044064679887385961981
    for d in (bound - 1, 36 * 10**301):
        with pytest.raises(ValueError, match=f"primality is decided only below {bound}"):
            max_exceptional_count(d)


def test_delta_bound_values():
    assert delta_bound(6.0) == 6.0
    assert abs(delta_bound(7.2) - 5.0) < 1e-12
    assert delta_bound(36.0) == 1.0
    assert strict_delta_max(6.0) == 5
    assert strict_delta_max(7.2) == 4
    assert strict_delta_max(36.0) == 0
    try:
        delta_bound(0.0)
        assert False, "expected ValueError"
    except ValueError:
        pass
    # 36/area overflows on a subnormal area
    for area in (5e-324, 1e-320):
        for bound in (delta_bound, strict_delta_max):
            try:
                bound(area)
                assert False, "expected ValueError"
            except ValueError as exc:
                assert "overflows" in str(exc)


def test_audit_cusp_refuses_a_non_finite_area():
    try:
        audit_cusp(CuspShape(1e200, 1e200j))
        assert False, "expected ValueError"
    except ValueError as exc:
        assert "not finite" in str(exc)


def test_max_exceptional_count_values():
    assert max_exceptional_count(5) == 8
    assert max_exceptional_count(6) == 8
    assert max_exceptional_count(4) == 6
    assert max_exceptional_count(0) == 3
    assert max_exceptional_count(1) == 3
    assert max_exceptional_count(2) == 4
    assert max_exceptional_count(7) == 12
    assert max_exceptional_count(10) == 12


def _oracle_short_slopes(a: complex, b: complex, cutoff: float):
    area = abs((a.conjugate() * b).imag)
    window = int(math.ceil(cutoff * (abs(a) + abs(b)) / area)) + 3
    rows = []
    for p in range(-window, window + 1):
        for q in range(-window, window + 1):
            if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
                continue
            if not (q > 0 or (q == 0 and p == 1)):
                continue
            length = abs(p * a + q * b)
            if length <= cutoff:
                rows.append((length, q, p))
    rows.sort()
    return [(p, q) for (length, q, p) in rows]


def test_short_slopes_unit_square():
    assert [(s.p, s.q) for s in short_slopes(SQUARE, 1.0)] == [(1, 0), (0, 1)]
    got = [(s.p, s.q) for s in short_slopes(SQUARE, 6.0)]
    assert got == _oracle_short_slopes(1.0, 1j, 6.0)
    for bad in (0.0, math.inf, math.nan, 1e300, 1e308):
        try:
            short_slopes(SQUARE, bad)
            assert False, f"expected ValueError for cutoff {bad}"
        except ValueError:
            pass


def test_short_slopes_window_cap(monkeypatch):
    # the unit square scans (2 * (ceil(c) + 1) + 1) * (ceil(c) + 2) pairs for cutoff c
    monkeypatch.setattr(cuspgeom, "MAX_SLOPE_WINDOW", 15 * 8)
    assert [(s.p, s.q) for s in short_slopes(SQUARE, 6.0)] == _oracle_short_slopes(1.0, 1j, 6.0)
    try:
        short_slopes(SQUARE, 6.5)
        assert False, "expected ValueError for a window of 17 * 9 pairs"
    except ValueError:
        pass


def test_short_slopes_reference_lattice():
    slopes = short_slopes(HEX, 6.0)
    pairs = [(s.p, s.q) for s in slopes]
    assert (1, 0) in pairs and (0, 1) in pairs
    assert pairs == _oracle_short_slopes(HEX.a, HEX.b, 6.0)
    assert pairs[0] == (0, 1)
    for s in slopes:
        assert slope_length(HEX, s) <= 6.0


def test_short_slopes_random_lattices_match_oracle() -> None:
    rng = random.Random(61803)
    done = 0
    while done < 100:
        a = cmath.rect(rng.uniform(1.0, 2.5), rng.uniform(-0.4, 0.4))
        b = cmath.rect(rng.uniform(1.0, 2.5), rng.uniform(0.5, 2.6))
        if abs((a.conjugate() * b).imag) < 1.0:
            continue
        done += 1
        shape = CuspShape(a, b)
        got = [(s.p, s.q) for s in short_slopes(shape, 6.0)]
        assert got == _oracle_short_slopes(a, b, 6.0)


def test_short_slopes_of_a_skewed_basis() -> None:
    """b = 10^6 + i spans the square lattice: its window is sized from the reduced basis.

    It was refused as needing a window of more than a million slopes.  Its
    36 slopes are the unit square's, p + 10^6 q and q in its basis, with
    the same lengths.  At b = 10^20 + i, p + 10^20 q is no longer a float,
    so lengths cannot be measured in that basis, and it is refused.
    """
    skewed = CuspShape(1.0, 1e6 + 1j)
    got = short_slopes(skewed, 6.0)
    square = short_slopes(SQUARE, 6.0)
    assert len(got) == len(square) == 36
    assert [(s.p + 10**6 * s.q, s.q) for s in got] == [(s.p, s.q) for s in square]
    for sl, ref in zip(got, square):
        assert abs(slope_length(skewed, sl) - slope_length(SQUARE, ref)) <= 1e-9
    for b in (1e20 + 1j, 2.0**26 + 1.0 + 1j):
        try:
            short_slopes(CuspShape(1.0, b), 6.0)
            assert False, f"expected ValueError for b = {b}"
        except ValueError as exc:
            assert "reduce the basis" in str(exc)
    # as skewed, but its shortest vector 10^10 is past the cutoff: nothing to measure
    assert short_slopes(CuspShape(1e10, 1e19 + 1e10j), 6.0) == []


def test_short_slopes_follow_a_change_of_basis() -> None:
    """A unimodular change of basis maps the short slopes one to one.

    Seeded lattices in a reduced basis (a, b) and a skewed one (a', b') =
    (r a + s b, t a + w b), made by three seeded row operations with
    multipliers up to 12, which keeps |a'| |b'| / area under
    MAX_BASIS_SKEW: the slope p a' + q b' is (p r + q t) a + (p s + q w) b.
    """
    rng = random.Random(27183)
    for _ in range(30):
        a = cmath.rect(rng.uniform(1.0, 2.5), rng.uniform(-0.4, 0.4))
        b = cmath.rect(rng.uniform(1.0, 2.5), rng.uniform(0.5, 2.6))
        r, s, t, w = 1, 0, 0, 1
        for _ in range(3):
            # add k times one row to the other, and swap the rows half the time
            k = rng.randint(-12, 12)
            r, s, t, w = r, s, t + k * r, w + k * s
            if rng.random() < 0.5:
                r, s, t, w = t, w, r, s
        assert r * w - s * t in (1, -1)
        skewed = short_slopes(CuspShape(r * a + s * b, t * a + w * b), 6.0)
        mapped = {Slope.canonical(sl.p * r + sl.q * t, sl.p * s + sl.q * w) for sl in skewed}
        assert mapped == set(short_slopes(CuspShape(a, b), 6.0)), (a, b, (r, s, t, w))


def test_short_slopes_refuse_a_non_finite_generator() -> None:
    for a, b in ((math.inf, 1j), (1.0, complex(math.nan, 1.0))):
        try:
            short_slopes(CuspShape(a, b), 6.0)
            assert False, f"expected ValueError for a = {a}, b = {b}"
        except ValueError:
            pass


def test_audit_cusp_reference():
    report = audit_cusp(HEX)
    assert abs(report["volume"] - 2.0 * math.sqrt(3.0)) < 1e-9
    assert abs(report["area"] - 4.0 * math.sqrt(3.0)) < 1e-9
    assert abs(report["delta_bound"] - 36.0 / (4.0 * math.sqrt(3.0))) < 1e-12
    assert report["delta_max"] == 5
    assert report["max_exceptional_count"] == 8
    assert report["length_cutoff"] == 6.0
    lengths = [row["length"] for row in report["short_slopes"]]
    assert lengths == sorted(lengths)
    # the bytes recorded before short_slopes reduced its basis
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e50926958f46e71a3f4d20728bdb6a287271a90cee16deb2628bdc4fd45584c3"
    )
