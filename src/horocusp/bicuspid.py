"""Normalized parameter space of bicuspid groups.

A bicuspid group is generated by two parabolic translations fixing infinity,
alpha: z -> z + a and beta: z -> z + b, together with the pairing element
gamma = [[c, -1], [1, 0]] carrying the height-one horoball at infinity to
the unit-diameter ball tangent at the origin. After conjugation the search
region is reduced so that a is real with a >= 1 and Im b >= 0, and every
translation length of the cusp lattice lies in [1, R] where
R = 2 * area_bound / sqrt(3).

Feasibility checks certify only sound necessary conditions for a normalized
group: Im a = 0, 1 <= Re a <= R, Im b >= 0, 1 <= |b| <= R, |c| <= R.
The orderings |a| <= |b| and |c| <= |b| merely pick one representative per
relabeling orbit, so they are deliberately not used to discard boxes; the
relaxations keep elimination certificates valid for every representative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .interval import ComplexInterval, RealInterval, rect_add, rect_mul

_ZERO = (0.0, 0.0, 0.0, 0.0)

COORD_NAMES = ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im")


def _point(k: int) -> tuple:
    """The rectangle of ComplexInterval.point(k)."""
    return (float(k), float(k), 0.0, 0.0)


def _check_finite(rect: tuple, what: str) -> None:
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"endpoints must be finite in {what}, got {rect}")


def real_number(value, name: str) -> float:
    """value as a float; only an int or a float counts, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range, got {value!r}") from None


def integer(value, name: str) -> int:
    """value as an int; only an integral int or float counts, never a bool or a string."""
    if not real_number(value, name).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(slots=True)
class Params:
    """One parameter point (a, b, c).

    Each of a, b and c is an int, a float or a complex, stored as a
    complex; a bool or a string raises TypeError.
    """

    a: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, complex):
                value = real_number(value, name)
            setattr(self, name, complex(value))


@dataclass(slots=True)
class ParamBox:
    """Axis-aligned box in the six real parameter coordinates.

    path is the dyadic address of the box in the subdivision tree, a string
    over {0, 1}, empty for the root.  Every width hi - lo is finite, or
    construction raises ValueError: the search bisects widths and samples
    across them, so the rule holds for each box it can be handed.
    """

    a_re: RealInterval
    a_im: RealInterval
    b_re: RealInterval
    b_im: RealInterval
    c_re: RealInterval
    c_im: RealInterval
    path: str = ""

    def __post_init__(self) -> None:
        for name, iv in zip(COORD_NAMES, self.coords()):
            if not math.isfinite(iv.hi - iv.lo):
                raise ValueError(f"the width of {name} = [{iv.lo}, {iv.hi}] must be finite")

    @classmethod
    def from_point(cls, p: Params, path: str = "") -> "ParamBox":
        return cls(
            RealInterval.point(p.a.real),
            RealInterval.point(p.a.imag),
            RealInterval.point(p.b.real),
            RealInterval.point(p.b.imag),
            RealInterval.point(p.c.real),
            RealInterval.point(p.c.imag),
            path,
        )

    @classmethod
    def from_bounds(cls, bounds, path: str = "") -> "ParamBox":
        """Build from six [lo, hi] pairs ordered as COORD_NAMES."""
        if len(bounds) != 6:
            raise ValueError("expected six coordinate bounds")
        ivs = [
            RealInterval(real_number(lo, "endpoint"), real_number(hi, "endpoint"))
            for lo, hi in bounds
        ]
        return cls(*ivs, path)

    def coords(self) -> tuple:
        return (self.a_re, self.a_im, self.b_re, self.b_im, self.c_re, self.c_im)

    def to_bounds(self) -> list:
        return [[iv.lo, iv.hi] for iv in self.coords()]

    def widths(self) -> tuple:
        return tuple(iv.width for iv in self.coords())

    def max_width(self) -> float:
        return max(self.widths())

    def a(self) -> ComplexInterval:
        return ComplexInterval(self.a_re, self.a_im)

    def b(self) -> ComplexInterval:
        return ComplexInterval(self.b_re, self.b_im)

    def c(self) -> ComplexInterval:
        return ComplexInterval(self.c_re, self.c_im)

    def contains_params(self, p: Params) -> bool:
        return (
            self.a_re.contains(p.a.real)
            and self.a_im.contains(p.a.imag)
            and self.b_re.contains(p.b.real)
            and self.b_im.contains(p.b.imag)
            and self.c_re.contains(p.c.real)
            and self.c_im.contains(p.c.imag)
        )


@dataclass(slots=True)
class GeneratorTriple:
    """Interval enclosures of a, b and c over a box or point, and the scan caches.

    alpha and beta are the translations by a and b, gamma is
    [[c, -1], [1, 0]].  The triple is the word-scan kernel's per-box
    context, and each of its caches builds a factor once from the
    endpoints of a, b and c:

    - the syllable table, unboxed_syllable(), one entry per syllable
      (m, n, e), which shares the offset of its block (m, n), built from
      the multiples m*a and n*b, and the power gamma^e;
    - _first_rows, the kernel's bottom row after a word's first syllable,
      keyed by that syllable, which words.lower_left_bounds fills and reads.

    Nothing else is held: the oracle words.evaluate_word builds its own
    matrices from a, b and c.
    """

    a: ComplexInterval
    b: ComplexInterval
    c: ComplexInterval
    _unboxed: dict = field(default_factory=dict)
    _offsets: dict = field(default_factory=dict)
    _multiples: dict = field(default_factory=dict)
    _unboxed_powers: dict = field(default_factory=dict)
    _first_rows: dict = field(default_factory=dict)

    def unboxed_syllable(self, syllable: tuple) -> tuple:
        """Entries of one syllable (m, n, e) as float rectangles, built once.

        Returns (offset, gamma): the translation offset m*a + n*b, or None
        when m = n = 0, and the four entries (g11, g12, g21, g22) of
        gamma^e, or None when e = 0.  Both come from the endpoints of a, b
        and c by the operations words.evaluate_word applies to their
        intervals, so each rectangle is bit-identical to the entry of the
        oracle's factor.  Each is built once per block (m, n) and once
        per exponent e, and shared by the syllables that hold it.  Raises
        ValueError when an entry overflows, as building those intervals
        does: each entry is checked, and an overflow inside the sums and
        products that make it leaves a non-finite endpoint.
        """
        hit = self._unboxed.get(syllable)
        if hit is None:
            m, n, e = syllable
            offset = self._offset(m, n) if m or n else None
            hit = self._unboxed[syllable] = (offset, self._unboxed_power(e) if e else None)
        return hit

    def _offset(self, m: int, n: int) -> tuple:
        """The offset 0 + m*a + n*b of a nontrivial block, each term added only when nonzero.

        Offsets are checked and kept per block, and the multiples m*a and
        n*b unchecked, so that an overflow raises naming its block.
        """
        offsets = self._offsets
        hit = offsets.get((m, n))
        if hit is None:
            hit = _ZERO
            multiples = self._multiples
            if m:
                ma = multiples.get((m, 0))
                if ma is None:
                    ma = multiples[m, 0] = rect_mul(_point(m), self.a.endpoints())
                hit = rect_add(hit, ma)
            if n:
                nb = multiples.get((0, n))
                if nb is None:
                    nb = multiples[0, n] = rect_mul(_point(n), self.b.endpoints())
                hit = rect_add(hit, nb)
            _check_finite(hit, f"the offset of x^{m} y^{n}")
            offsets[m, n] = hit
        return hit

    def _unboxed_power(self, e: int) -> tuple:
        """gamma^e's entries as rectangles: the oracle's left-to-right product of |e| factors.

        The factors are gamma, or its SL2 adjugate for e < 0.  A loop fills
        the cache, so a large |e| does not recurse.
        """
        powers = self._unboxed_powers
        hit = powers.get(e)
        if hit is not None:
            return hit
        c = self.c.endpoints()
        if e > 0:
            step, gen = 1, (c, _point(-1), _point(1), _ZERO)
        else:
            # the adjugate negates -1 and 1 exactly, signed zeros and all
            step, gen = -1, (_ZERO, (1.0, 1.0, -0.0, -0.0), (-1.0, -1.0, -0.0, -0.0), c)
        powers.setdefault(step, gen)
        y11, y12, y21, y22 = gen
        for k in range(2 * step, e + step, step):
            if k not in powers:
                x11, x12, x21, x22 = powers[k - step]
                power = (
                    rect_add(rect_mul(x11, y11), rect_mul(x12, y21)),
                    rect_add(rect_mul(x11, y12), rect_mul(x12, y22)),
                    rect_add(rect_mul(x21, y11), rect_mul(x22, y21)),
                    rect_add(rect_mul(x21, y12), rect_mul(x22, y22)),
                )
                for entry in power:
                    _check_finite(entry, f"gamma^{k}")
                powers[k] = power
        return powers[e]


def gens_from_params(p: Union[Params, ParamBox]) -> GeneratorTriple:
    """Generator enclosures for a parameter point or box.

    Point parameters give zero-width a, b and c, so a word evaluated at a
    point keeps its structurally exact entries exact.
    """
    if isinstance(p, Params):
        point = ComplexInterval.point
        return GeneratorTriple(point(p.a), point(p.b), point(p.c))
    return GeneratorTriple(p.a(), p.b(), p.c())


def space_radius(area_bound: float) -> float:
    """Largest admissible translation length, 2 * area_bound / sqrt(3)."""
    area_bound = float(area_bound)
    if not math.isfinite(area_bound) or area_bound <= 0.0:
        raise ValueError(f"area_bound must be positive and finite, got {area_bound}")
    return 2.0 * area_bound / math.sqrt(3.0)


def param_space(area_bound: float) -> Optional[ParamBox]:
    """Root search box for the given cusp area bound, None when empty.

    Raises ValueError when the box's widths overflow, as ParamBox does for
    any box: b_re spans [-R, R], so a width of 2R must be a finite float.
    The region collapses to a measure-zero boundary slice once R <= 1
    (every translation length pinned to 1); no positive-volume box fits in
    it, so it is reported empty.
    """
    r = space_radius(area_bound)
    if r <= 1.0:
        return None
    return ParamBox(
        a_re=RealInterval(1.0, r),
        a_im=RealInterval(0.0, 0.0),
        b_re=RealInterval(-r, r),
        b_im=RealInterval(0.0, r),
        c_re=RealInterval(-r, r),
        c_im=RealInterval(-r, r),
        path="",
    )


class Feasibility(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    STRADDLES = "straddles"


def box_in_param_space(box: ParamBox, area_bound: float) -> Feasibility:
    """Certified position of a box relative to the feasible region.

    OUTSIDE means every point of the box violates some one constraint,
    INSIDE means every point satisfies all of them, STRADDLES otherwise.
    Both certified directions use outward-rounded modulus bounds, so they
    stay sound under floating point.
    """
    r = space_radius(area_bound)
    ai = box.a_im
    ar = box.a_re
    bi = box.b_im
    b_abs = box.b().abs_bounds()
    c_abs = box.c().abs_bounds()
    checks = (
        (ai.lo == 0.0 and ai.hi == 0.0, not ai.contains(0.0)),
        (ar.lo >= 1.0, ar.hi < 1.0),
        (ar.hi <= r, ar.lo > r),
        (bi.lo >= 0.0, bi.hi < 0.0),
        (b_abs.lo >= 1.0, b_abs.hi < 1.0),
        (b_abs.hi <= r, b_abs.lo > r),
        (c_abs.hi <= r, c_abs.lo > r),
    )
    if any(violated for _, violated in checks):
        return Feasibility.OUTSIDE
    if all(satisfied for satisfied, _ in checks):
        return Feasibility.INSIDE
    return Feasibility.STRADDLES
