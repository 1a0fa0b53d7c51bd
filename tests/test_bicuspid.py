"""Parameter space construction and certified feasibility classification."""

import math
import random

import pytest

from horocusp.bicuspid import (
    Feasibility,
    ParamBox,
    Params,
    box_in_param_space,
    param_space,
    space_radius,
)
from horocusp.interval import ComplexInterval, IntervalMatrix, RealInterval
from horocusp.words import GeneratorTriple, Word, evaluate_word, gens_from_params, lower_left_abs
from horocusp.words import parse_word

REF = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 2.0)


def _translation(m, n, target):
    """The oracle's translation factor [[1, t], [0, 1]] of x^m y^n, read off its x^m y^n z.

    Every word ends in a z factor.  At c = 0, gamma is the signed
    permutation [[0, -1], [1, 0]], so x^m y^n z is [[t, -1], [1, 0]], each
    entry an entry of the factor by the zero and one shortcuts, and
    undoing gamma only negates and moves entries.
    """
    g = gens_from_params(target)
    tz = evaluate_word(Word(((m, n, 1),)), GeneratorTriple(g.a, g.b, ComplexInterval.point(0.0)))
    return IntervalMatrix(-tz.m12, tz.m11, -tz.m22, tz.m21)


def _gamma_power(e, target):
    return evaluate_word(Word(((0, 0, e),)), target)


def test_pairing_lower_left_exact_at_points():
    bounds = evaluate_word(parse_word("z"), REF).m21.abs_bounds()
    assert bounds.lo == 1.0 and bounds.hi == 1.0


def test_params_take_numbers_only() -> None:
    """An int, a float or a complex is stored as a complex; a bool or a string raises TypeError."""
    p = Params(4, 1.5, 2 + 1j)
    assert (p.a, p.b, p.c) == (4 + 0j, 1.5 + 0j, 2 + 1j)
    assert all(type(v) is complex for v in (p.a, p.b, p.c))
    for args in (("4", 1.0, 2.0), (4.0, True, 2.0), (4.0, 1.0, "2+1j"), ("4", True, "2+1j")):
        with pytest.raises(TypeError, match="must be a number"):
            Params(*args)


def test_generator_shapes():
    g = gens_from_params(REF)
    alpha, beta = _translation(1, 0, g), _translation(0, 1, g)
    assert alpha.contains(1.0, 4.0, 0.0, 1.0)
    assert beta.contains(1.0, REF.b, 0.0, 1.0)
    assert evaluate_word(parse_word("z"), g).contains(2.0, -1.0, 1.0, 0.0)
    assert alpha.m21.re.is_point and alpha.m21.re.lo == 0.0
    # the exact-one and exact-zero shortcuts give the offsets a and b exactly
    assert alpha.m12 == g.a and beta.m12 == g.b


def test_translation_offset():
    t = _translation(2, -1, REF)
    assert t.m12.contains(2 * REF.a - REF.b)
    assert t.m21.re.lo == 0.0 and t.m21.re.hi == 0.0


def test_gamma_power_inverse_pairs():
    g = gens_from_params(REF)
    for e in (-3, -2, -1, 1, 2, 3):
        prod = _gamma_power(e, g) @ _gamma_power(-e, g)
        assert prod.contains(1.0, 0.0, 0.0, 1.0)


def _entry_bits(mat):
    return [v.hex() for x in (mat.m11, mat.m12, mat.m21, mat.m22) for v in x.endpoints()]


def test_gamma_power_matches_left_to_right_product():
    box = ParamBox.from_bounds(
        [[4.0, 4.0625], [0.0, 0.0], [1.0, 1.0625], [1.6875, 1.75], [0.5, 0.5625], [-0.0625, 0.0]]
    )
    for target in (REF, Params(REF.a, REF.b, 0.5), box):
        gamma = evaluate_word(parse_word("z"), target)
        for sign, gen in ((1, gamma), (-1, gamma.inverse_sl2())):
            acc = gen
            for k in range(1, 41):
                assert _entry_bits(_gamma_power(sign * k, target)) == _entry_bits(acc), sign * k
                acc = acc @ gen


def test_long_gamma_power_gives_bounds_or_value_error():
    p = Params(4.0, 1.0 + 1.7320508075688772j, 0.5)
    routes = (lower_left_abs, lambda w, t: evaluate_word(w, t).m21.abs_bounds())
    for e in (1200, -1200):
        for route in routes:
            try:
                bounds = route(Word(((0, 0, e),)), p)
            except ValueError:
                continue
            assert isinstance(bounds, RealInterval)


def test_space_radius_reference_values():
    r = space_radius(2.0 * math.pi)
    assert abs(r - 7.2552) < 1e-4
    assert abs(r - 4.0 * math.pi / math.sqrt(3.0)) < 1e-12 * r
    r6 = space_radius(6.0)
    assert abs(r6 - 4.0 * math.sqrt(3.0)) < 1e-12 * r6


def test_param_space_box_shape():
    box = param_space(2.0 * math.pi)
    assert box is not None
    r = space_radius(2.0 * math.pi)
    assert box.a_re.lo == 1.0 and box.a_re.hi == r
    assert box.a_im.lo == 0.0 and box.a_im.hi == 0.0
    assert box.b_re.lo == -r and box.b_re.hi == r
    assert box.b_im.lo == 0.0 and box.b_im.hi == r
    assert box.c_re.lo == -r and box.c_re.hi == r
    assert box.c_im.lo == -r and box.c_im.hi == r
    assert box.path == ""


def test_param_space_empty_cases() -> None:
    assert param_space(math.sqrt(3.0) / 2.0) is None
    assert param_space(0.25) is None
    try:
        param_space(0.0)
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        param_space(-1.0)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_param_space_monotone_in_area() -> None:
    rng = random.Random(3327)
    for _ in range(200):
        a1 = rng.uniform(1.0, 10.0)
        a2 = rng.uniform(a1, 10.0)
        small = param_space(a1)
        big = param_space(a2)
        if small is None:
            continue
        assert big is not None
        for s, b in zip(small.coords(), big.coords()):
            assert b.encloses(s)


def test_reference_point_is_inside():
    box = ParamBox.from_point(REF)
    assert box_in_param_space(box, 4.0 * math.sqrt(3.0)) is Feasibility.INSIDE


def test_small_translation_box_is_outside():
    box = ParamBox.from_bounds(
        [[0.2, 0.5], [0.0, 0.0], [-1.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
    )
    assert box_in_param_space(box, 6.0) is Feasibility.OUTSIDE


def test_box_whose_modulus_bound_overflows_is_outside():
    # hypot of the far corner overflows, so |b| <= inf: b is too long at every point
    huge = [1e308, 1.5e308]
    box = ParamBox.from_bounds([[1.0, 2.0], [0.0, 0.0], huge, huge, [0.0, 1.0], [0.0, 1.0]])
    assert box_in_param_space(box, 6.0) is Feasibility.OUTSIDE
    box = ParamBox.from_bounds([[1.0, 2.0], [0.0, 0.0], [0.0, 1.0], [1.0, 2.0], huge, huge])
    assert box_in_param_space(box, 6.0) is Feasibility.OUTSIDE


def test_boundary_box_straddles():
    box = ParamBox.from_bounds(
        [[0.9, 1.1], [0.0, 0.0], [-2.0, 2.0], [0.0, 2.0], [-1.0, 1.0], [-1.0, 1.0]]
    )
    assert box_in_param_space(box, 6.0) is Feasibility.STRADDLES


def _float_feasible(pa: complex, pb: complex, pc: complex, r: float) -> bool:
    return (
        pa.imag == 0.0
        and 1.0 <= pa.real <= r
        and pb.imag >= 0.0
        and 1.0 <= abs(pb) <= r
        and abs(pc) <= r
    )


def test_feasibility_verdicts_match_float_sampling() -> None:
    rng = random.Random(88210)
    area = 6.0
    r = space_radius(area)
    for _ in range(400):
        lo_a = rng.uniform(0.3, 7.5)
        box = ParamBox(
            RealInterval(lo_a, lo_a + rng.uniform(0.0, 1.5)),
            RealInterval(0.0, 0.0),
            RealInterval(*sorted((rng.uniform(-7.5, 7.5), rng.uniform(-7.5, 7.5)))),
            RealInterval(*sorted((rng.uniform(-1.0, 7.5), rng.uniform(-1.0, 7.5)))),
            RealInterval(*sorted((rng.uniform(-7.5, 7.5), rng.uniform(-7.5, 7.5)))),
            RealInterval(*sorted((rng.uniform(-7.5, 7.5), rng.uniform(-7.5, 7.5)))),
        )
        verdict = box_in_param_space(box, area)
        for _ in range(20):
            pa = complex(rng.uniform(box.a_re.lo, box.a_re.hi), 0.0)
            pb = complex(rng.uniform(box.b_re.lo, box.b_re.hi), rng.uniform(box.b_im.lo, box.b_im.hi))
            pc = complex(rng.uniform(box.c_re.lo, box.c_re.hi), rng.uniform(box.c_im.lo, box.c_im.hi))
            ok = _float_feasible(pa, pb, pc, r)
            if verdict is Feasibility.INSIDE:
                assert ok
            elif verdict is Feasibility.OUTSIDE:
                assert not ok


def test_box_generators_enclose_point_generators() -> None:
    rng = random.Random(616)
    for _ in range(100):
        box = ParamBox.from_bounds(
            [
                sorted((rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0))),
                [0.0, 0.0],
                sorted((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))),
                sorted((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))),
                sorted((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))),
                sorted((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))),
            ]
        )
        p = Params(
            complex(rng.uniform(box.a_re.lo, box.a_re.hi), 0.0),
            complex(rng.uniform(box.b_re.lo, box.b_re.hi), rng.uniform(box.b_im.lo, box.b_im.hi)),
            complex(rng.uniform(box.c_re.lo, box.c_re.hi), rng.uniform(box.c_im.lo, box.c_im.hi)),
        )
        assert box.contains_params(p)
        # x z and y z read a and b, each beside c: [[c + a, -1], [1, 0]]
        for word in (parse_word("x z"), parse_word("y z"), parse_word("z")):
            mb, mp = evaluate_word(word, box), evaluate_word(word, p)
            for name in ("m11", "m12", "m21", "m22"):
                assert getattr(mb, name).encloses(getattr(mp, name))
