"""Interval layer: frozen endpoint examples plus randomized containment oracles."""

import math
import random

import pytest

from horocusp.interval import (
    ComplexInterval,
    IntervalMatrix,
    RealInterval,
    real_add,
    real_mul,
    rect_abs,
    rect_add,
    rect_mul,
    rect_neg,
)

ULP = 1e-12


def _ri(rng, scale=10.0):
    x = rng.uniform(-scale, scale)
    y = rng.uniform(-scale, scale)
    return RealInterval(min(x, y), max(x, y))


def _pick(rng, iv):
    x = rng.uniform(iv.lo, iv.hi)
    return min(max(x, iv.lo), iv.hi)


def _ci(rng, scale=10.0):
    return ComplexInterval(_ri(rng, scale), _ri(rng, scale))


def _pick_c(rng, ci):
    return complex(_pick(rng, ci.re), _pick(rng, ci.im))


def test_construction_validates() -> None:
    try:
        RealInterval(2.0, 1.0)
        assert False, "expected ValueError for inverted endpoints"
    except ValueError:
        pass
    for bad in (math.nan, math.inf, -math.inf):
        try:
            RealInterval(bad, bad)
            assert False, "expected ValueError for non-finite endpoint"
        except ValueError:
            pass


def test_add_exact_endpoints():
    r = RealInterval(1.0, 2.0) + RealInterval(3.0, 4.0)
    assert r.lo <= 4.0 <= r.hi or r.lo <= 4.0
    assert r.encloses(RealInterval(4.0, 6.0))
    assert abs(r.lo - 4.0) < ULP and abs(r.hi - 6.0) < ULP


def test_mul_sign_cases():
    r = RealInterval(-1.0, 2.0) * RealInterval(3.0, 3.0)
    assert r.encloses(RealInterval(-3.0, 6.0))
    assert abs(r.lo + 3.0) < ULP and abs(r.hi - 6.0) < ULP


def test_neg_is_exact():
    r = -RealInterval(-1.5, 2.25)
    assert r.lo == -2.25 and r.hi == 1.5


def test_ci_mul_identity_is_exact() -> None:
    one = ComplexInterval.point(1.0)
    z = ComplexInterval.box(-0.75, 1.5, 2.0, 3.25)
    r = one * z
    assert r == z
    assert (z * one) == z


def test_ci_mul_i_squared():
    i = ComplexInterval.point(1j)
    r = i * i
    assert r.contains(-1.0 + 0.0j)
    assert r.re.width < 1e-12 and r.im.width < 1e-12


def test_abs_bounds_three_four_five():
    b = ComplexInterval.box(3.0, 3.0, 4.0, 4.0).abs_bounds()
    assert b.contains(5.0)
    assert abs(b.lo - 5.0) <= math.ulp(5.0) and abs(b.hi - 5.0) <= math.ulp(5.0)


def test_abs_bounds_origin_rectangle():
    b = ComplexInterval.box(-1.0, 1.0, -1.0, 1.0).abs_bounds()
    assert b.lo == 0.0
    assert b.contains(math.sqrt(2.0))
    assert b.hi >= math.sqrt(2.0)


def test_abs_bounds_real_segment_exact():
    b = ComplexInterval.box(0.4, 0.6, 0.0, 0.0).abs_bounds()
    assert b.lo == 0.4 and b.hi == 0.6


def test_abs_bounds_zero_iff_contains_origin() -> None:
    rng = random.Random(9180)
    for _ in range(2000):
        c = _ci(rng, 3.0)
        b = c.abs_bounds()
        assert (b.lo == 0.0) == c.contains(0.0)


def test_translation_product_keeps_structural_zero():
    a = ComplexInterval.point(1.5 + 0.25j)
    b = ComplexInterval.point(-2.0 + 1.0j)
    zero = ComplexInterval.point(0.0)
    one = ComplexInterval.point(1.0)
    ta = IntervalMatrix(one, a, zero, one)
    tb = IntervalMatrix(one, b, zero, one)
    prod = ta @ tb
    assert prod.m21.re.lo == 0.0 and prod.m21.re.hi == 0.0
    assert prod.m21.im.lo == 0.0 and prod.m21.im.hi == 0.0
    assert prod.m11 == one and prod.m22 == one
    assert prod.m12.contains(a.re.lo + a.im.lo * 1j + b.re.lo + b.im.lo * 1j)


def test_pairing_square_matches_symbolic():
    c = 2.0 + 0.0j
    g = IntervalMatrix.exact(c, -1.0, 1.0, 0.0)
    sq = g @ g
    assert sq.contains(c * c - 1.0, -c, c, -1.0)


def test_adjugate_inverse_exact_and_consistent():
    c = -0.5 + 0.75j
    g = IntervalMatrix.exact(c, -1.0, 1.0, 0.0)
    inv = g.inverse_sl2()
    assert inv.contains(0.0, 1.0, -1.0, c)
    assert inv.m11.is_point and inv.m12.is_point and inv.m21.is_point and inv.m22.is_point
    prod = g @ inv
    assert prod.contains(1.0, 0.0, 0.0, 1.0)


def test_identity_product_exact():
    m = IntervalMatrix.exact(1.5 + 1j, -0.25, 2.0 - 3.0j, 0.125)
    assert (IntervalMatrix.identity() @ m) == m


def test_real_containment_sampling() -> None:
    rng = random.Random(20331)
    for _ in range(4000):
        x = _ri(rng)
        y = _ri(rng)
        px = _pick(rng, x)
        py = _pick(rng, y)
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert (x * y).contains(px * py)
        assert (-x).contains(-px)


def test_complex_containment_sampling() -> None:
    rng = random.Random(5517)
    for _ in range(2000):
        x = _ci(rng)
        y = _ci(rng)
        px = _pick_c(rng, x)
        py = _pick_c(rng, y)
        assert (x * y).contains(px * py)
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert x.conjugate().contains(px.conjugate())
        assert x.abs_bounds().contains(abs(px))


def test_matrix_containment_sampling() -> None:
    rng = random.Random(77411)
    for _ in range(300):
        ents_a = [_ci(rng, 2.0) for _ in range(4)]
        ents_b = [_ci(rng, 2.0) for _ in range(4)]
        ma = IntervalMatrix(*ents_a)
        mb = IntervalMatrix(*ents_b)
        pa = [_pick_c(rng, e) for e in ents_a]
        pb = [_pick_c(rng, e) for e in ents_b]
        prod = ma @ mb
        assert prod.contains(
            pa[0] * pb[0] + pa[1] * pb[2],
            pa[0] * pb[1] + pa[1] * pb[3],
            pa[2] * pb[0] + pa[3] * pb[2],
            pa[2] * pb[1] + pa[3] * pb[3],
        )


def test_inclusion_isotonic_under_refinement() -> None:
    rng = random.Random(40902)
    for _ in range(2000):
        x = _ri(rng)
        y = _ri(rng)
        sx = RealInterval(_pick(rng, x), x.hi)
        sy = RealInterval(y.lo, _pick(rng, y))
        assert (x + y).encloses(sx + sy)
        assert (x - y).encloses(sx - sy)
        assert (x * y).encloses(sx * sy)
        cx = ComplexInterval(x, y)
        scx = ComplexInterval(sx, sy)
        assert cx.abs_bounds().encloses(scx.abs_bounds())


def test_determinant_of_generator_words_contains_one() -> None:
    rng = random.Random(6001)
    for _ in range(1000):
        a = complex(rng.uniform(1.0, 3.0), 0.0)
        b = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        alpha = IntervalMatrix.exact(1.0, a, 0.0, 1.0)
        beta = IntervalMatrix.exact(1.0, b, 0.0, 1.0)
        gamma = IntervalMatrix.exact(c, -1.0, 1.0, 0.0)
        gens = [alpha, beta, gamma, alpha.inverse_sl2(), beta.inverse_sl2(), gamma.inverse_sl2()]
        m = IntervalMatrix.identity()
        for _ in range(rng.randint(1, 10)):
            m = m @ gens[rng.randrange(6)]
        assert m.det().contains(1.0 + 0.0j)


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, 1e300, -1e300)
_SPECIAL += (math.inf, -math.inf, math.nan)


def _endpoints(rng, special=_SPECIAL):
    """A point or non-point interval, each endpoint special or random."""
    def draw():
        if rng.random() < 0.5:
            return rng.choice(special)
        return rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-3, 3)

    lo = draw()
    if rng.random() < 0.4:
        return lo, lo
    hi = draw()
    return (lo, hi) if not hi < lo else (hi, lo)


def _composed_rect_mul(x, y):
    """The rectangle product as real_mul and real_add calls."""
    al, ah = real_mul(x[0], x[1], y[0], y[1])
    bl, bh = real_mul(x[2], x[3], y[2], y[3])
    cl, ch = real_mul(x[0], x[1], y[2], y[3])
    dl, dh = real_mul(x[2], x[3], y[0], y[1])
    return real_add(al, ah, -bh, -bl) + real_add(cl, ch, dl, dh)


def test_rect_mul_matches_real_primitives() -> None:
    """The self-contained rect_mul rounds exactly as the primitives compose."""
    rng = random.Random(81157)
    for _ in range(100_000):
        x = _endpoints(rng) + _endpoints(rng)
        y = _endpoints(rng) + _endpoints(rng)
        got = [v.hex() for v in rect_mul(x, y)]
        assert got == [v.hex() for v in _composed_rect_mul(x, y)], (x, y)


def test_rect_add_matches_real_primitives() -> None:
    """The self-contained rect_add rounds exactly as real_add does per part."""
    rng = random.Random(62017)
    for _ in range(100_000):
        x = _endpoints(rng) + _endpoints(rng)
        y = _endpoints(rng) + _endpoints(rng)
        composed = real_add(x[0], x[1], y[0], y[1]) + real_add(x[2], x[3], y[2], y[3])
        assert [v.hex() for v in rect_add(x, y)] == [v.hex() for v in composed], (x, y)


def test_rect_neg_is_the_product_by_minus_one() -> None:
    """rect_neg keeps rect_mul's shortcuts and inflation for the point -1."""
    rng = random.Random(7411)
    for _ in range(100_000):
        x = _endpoints(rng) + _endpoints(rng)
        got = [v.hex() for v in rect_neg(x)]
        for minus_one in ((-1.0, -1.0, 0.0, 0.0), (-1.0, -1.0, -0.0, -0.0)):
            assert got == [v.hex() for v in rect_mul(x, minus_one)], x
    # exact negation, yet inflated, as real_mul inflates it
    down, up = math.nextafter(-3.0, -math.inf), math.nextafter(-2.0, math.inf)
    assert rect_neg((2.0, 3.0, 0.0, 0.0)) == (down, up, 0.0, 0.0)
    assert rect_neg((1.0, 1.0, 0.0, 0.0)) == (-1.0, -1.0, 0.0, 0.0)


def test_unchecked_rect_abs_matches_the_checked_route() -> None:
    """The scan kernel's unchecked [L, U] is the checked abs_bounds bit for bit.

    Finite rectangles, points among them, with +-0.0 and points on and off
    the axes; the kernel returns the rect_abs pair unchecked.
    """
    rng = random.Random(30517)
    finite = tuple(v for v in _SPECIAL if math.isfinite(v))
    for _ in range(100_000):
        r = _endpoints(rng, finite) + _endpoints(rng, finite)
        lo, hi = rect_abs(*r)
        checked = ComplexInterval.box(*r).abs_bounds()
        assert (lo.hex(), hi.hex()) == (checked.lo.hex(), checked.hi.hex()), r
        assert 0.0 <= lo <= hi < math.inf, r
    # hypot overflows on finite endpoints near the top of the range
    assert rect_abs(1.5e308, 1.5e308, 1.5e308, 1.5e308)[1] == math.inf
    with pytest.raises(ValueError):
        ComplexInterval.box(1.5e308, 1.5e308, 1.5e308, 1.5e308).abs_bounds()
