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

from .interval import ComplexInterval, IntervalMatrix, RealInterval

COORD_NAMES = ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im")


def real_number(value, name: str) -> float:
    """value as a float; only an int or a float counts, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range, got {value!r}") from None


@dataclass(slots=True)
class Params:
    """One parameter point (a, b, c)."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        self.a = complex(self.a)
        self.b = complex(self.b)
        self.c = complex(self.c)


@dataclass(slots=True)
class ParamBox:
    """Axis-aligned box in the six real parameter coordinates.

    path is the dyadic address of the box in the subdivision tree, a string
    over {0, 1}, empty for the root.
    """

    a_re: RealInterval
    a_im: RealInterval
    b_re: RealInterval
    b_im: RealInterval
    c_re: RealInterval
    c_im: RealInterval
    path: str = ""

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
    """Interval enclosures of the three generators over a box or point.

    alpha and beta are kept as their offsets a and b, gamma as a matrix.
    Caches translation matrices keyed by integer exponent pairs and powers
    of the pairing element, since word evaluation reuses both heavily, and
    their unboxed entries keyed by syllable for the word-scan kernel.
    _rows holds (syllable, r1, r2), the kernel's bottom row after each
    syllable of the last word it scanned, so the next word can resume from
    their common prefix.
    """

    a: ComplexInterval
    b: ComplexInterval
    c: ComplexInterval
    gamma: IntervalMatrix
    _translations: dict = field(default_factory=dict)
    _gamma_powers: dict = field(default_factory=dict)
    _unboxed: dict = field(default_factory=dict)
    _rows: list = field(default_factory=list)

    @classmethod
    def build(cls, a: ComplexInterval, b: ComplexInterval, c: ComplexInterval) -> "GeneratorTriple":
        point = ComplexInterval.point
        return cls(a, b, c, IntervalMatrix(c, point(-1.0), point(1.0), point(0.0)))

    def translation(self, m: int, n: int) -> IntervalMatrix:
        """Enclosure of alpha^m * beta^n, the translation by m*a + n*b."""
        key = (m, n)
        cached = self._translations.get(key)
        if cached is not None:
            return cached
        zero = ComplexInterval.point(0.0)
        off = zero
        if m:
            off = off + ComplexInterval.point(float(m)) * self.a
        if n:
            off = off + ComplexInterval.point(float(n)) * self.b
        one = ComplexInterval.point(1.0)
        mat = IntervalMatrix(one, off, zero, one)
        self._translations[key] = mat
        return mat

    def unboxed_syllable(self, syllable: tuple) -> tuple:
        """Entries of one syllable (m, n, e) as float rectangles.

        Returns (offset, gamma): the translation offset m*a + n*b, or None
        when m = n = 0, and the four entries (g11, g12, g21, g22) of
        gamma^e, or None when e = 0.  Each rectangle is the endpoint tuple
        of the same cached enclosure translation() and gamma_power() give.
        """
        hit = self._unboxed.get(syllable)
        if hit is None:
            m, n, e = syllable
            offset = self.translation(m, n).m12.endpoints() if m or n else None
            gamma = None
            if e:
                g = self.gamma_power(e)
                gamma = tuple(x.endpoints() for x in (g.m11, g.m12, g.m21, g.m22))
            hit = self._unboxed[syllable] = (offset, gamma)
        return hit

    def gamma_power(self, e: int) -> IntervalMatrix:
        """Cached enclosure of gamma^e, the left-to-right product of |e| factors.

        The factors are gamma, or its SL2 inverse for e < 0.  A loop fills
        the cache, so a large |e| does not recurse.
        """
        if e == 0:
            return IntervalMatrix.identity()
        powers = self._gamma_powers
        cached = powers.get(e)
        if cached is not None:
            return cached
        step = 1 if e > 0 else -1
        gen = self.gamma if e > 0 else self.gamma.inverse_sl2()
        powers.setdefault(step, gen)
        for k in range(2 * step, e + step, step):
            if k not in powers:
                powers[k] = powers[k - step] @ gen
        return powers[e]


def gens_from_params(p: Union[Params, ParamBox]) -> GeneratorTriple:
    """Generator enclosures for a parameter point or box.

    Point parameters produce zero-width entries, so structurally exact
    entries (the 0, 1, -1 slots and the pairing lower-left 1) stay exact.
    """
    if isinstance(p, Params):
        return GeneratorTriple.build(
            ComplexInterval.point(p.a),
            ComplexInterval.point(p.b),
            ComplexInterval.point(p.c),
        )
    return GeneratorTriple.build(p.a(), p.b(), p.c())


def space_radius(area_bound: float) -> float:
    """Largest admissible translation length, 2 * area_bound / sqrt(3)."""
    area_bound = float(area_bound)
    if not math.isfinite(area_bound) or area_bound <= 0.0:
        raise ValueError(f"area_bound must be positive and finite, got {area_bound}")
    return 2.0 * area_bound / math.sqrt(3.0)


def param_space(area_bound: float) -> Optional[ParamBox]:
    """Root search box for the given cusp area bound, None when empty.

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
