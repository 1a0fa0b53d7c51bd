"""Parameter space construction and certified feasibility classification."""

import math
import random

from horocusp.bicuspid import (
    Feasibility,
    ParamBox,
    Params,
    box_in_param_space,
    gens_from_params,
    param_space,
    space_radius,
)
from horocusp.interval import RealInterval
from horocusp.words import Word, evaluate_word, lower_left_abs

REF = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 2.0)


def test_pairing_lower_left_exact_at_points():
    g = gens_from_params(REF)
    bounds = g.gamma.m21.abs_bounds()
    assert bounds.lo == 1.0 and bounds.hi == 1.0


def test_generator_shapes():
    g = gens_from_params(REF)
    alpha, beta = g.translation(1, 0), g.translation(0, 1)
    assert alpha.contains(1.0, 4.0, 0.0, 1.0)
    assert beta.contains(1.0, REF.b, 0.0, 1.0)
    assert g.gamma.contains(2.0, -1.0, 1.0, 0.0)
    assert alpha.m21.re.is_point and alpha.m21.re.lo == 0.0
    # the exact-one and exact-zero shortcuts give the offsets a and b exactly
    assert alpha.m12 == g.a and beta.m12 == g.b


def test_translation_cache_and_offset():
    g = gens_from_params(REF)
    t = g.translation(2, -1)
    assert t is g.translation(2, -1)
    assert t.m12.contains(2 * REF.a - REF.b)
    assert t.m21.re.lo == 0.0 and t.m21.re.hi == 0.0


def test_gamma_power_inverse_pairs():
    g = gens_from_params(REF)
    for e in (-3, -2, -1, 1, 2, 3):
        prod = g.gamma_power(e) @ g.gamma_power(-e)
        assert prod.contains(1.0, 0.0, 0.0, 1.0)


def _entry_bits(mat):
    return [v.hex() for x in (mat.m11, mat.m12, mat.m21, mat.m22) for v in x.endpoints()]


def test_gamma_power_matches_left_to_right_product():
    box = ParamBox.from_bounds(
        [[4.0, 4.0625], [0.0, 0.0], [1.0, 1.0625], [1.6875, 1.75], [0.5, 0.5625], [-0.0625, 0.0]]
    )
    for target in (REF, Params(REF.a, REF.b, 0.5), box):
        g = gens_from_params(target)
        for e in (7, 40, -3, -40):  # fill the cache in pieces
            g.gamma_power(e)
        fresh = gens_from_params(target)
        for sign, gen in ((1, fresh.gamma), (-1, fresh.gamma.inverse_sl2())):
            acc = gen
            for k in range(1, 41):
                assert _entry_bits(g.gamma_power(sign * k)) == _entry_bits(acc), sign * k
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
        gb = gens_from_params(box)
        gp = gens_from_params(p)
        for mb, mp in (
            (gb.translation(1, 0), gp.translation(1, 0)),
            (gb.translation(0, 1), gp.translation(0, 1)),
            (gb.gamma, gp.gamma),
        ):
            for name in ("m11", "m12", "m21", "m22"):
                assert getattr(mb, name).encloses(getattr(mp, name))
