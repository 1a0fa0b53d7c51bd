"""Normalized parameter space of bicuspid groups.

A bicuspid group is generated by two parabolic translations fixing infinity,
alpha: z -> z + a and beta: z -> z + b, together with the pairing element
gamma = [[c, -1], [1, 0]] carrying the height-one horoball at infinity to
the unit-diameter ball tangent at the origin. The search root fixes
a_im = 0: it is the slice where a is real, with a >= 1 and Im b >= 0, and
every translation length of the cusp lattice lies in [1, R] where
R = 2 * area_bound / sqrt(3). Every cover so far certifies that slice
only. Whether every group of the family has a conjugate in the slice,
with gamma kept in this form, is open (ROADMAP item 18).

Feasibility checks certify only sound necessary conditions for a normalized
group: Im a = 0, 1 <= Re a <= R, Im b >= 0, 1 <= |b| <= R, |c| <= R.
The orderings |a| <= |b| and |c| <= |b| merely pick one representative per
relabeling orbit, so they are deliberately not used to discard boxes; the
relaxations keep elimination certificates valid for every representative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .interval import ComplexInterval, RealInterval, rect_abs

COORD_NAMES = ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im")


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
    Both certified directions use outward-rounded modulus bounds, read by
    interval.rect_abs from the coordinates' endpoints, so they stay sound
    under floating point.
    """
    r = space_radius(area_bound)
    ai = box.a_im
    ar = box.a_re
    br = box.b_re
    bi = box.b_im
    b_lo, b_hi = rect_abs(br.lo, br.hi, bi.lo, bi.hi)
    c_lo, c_hi = rect_abs(box.c_re.lo, box.c_re.hi, box.c_im.lo, box.c_im.hi)
    checks = (
        (ai.lo == 0.0 and ai.hi == 0.0, not ai.contains(0.0)),
        (ar.lo >= 1.0, ar.hi < 1.0),
        (ar.hi <= r, ar.lo > r),
        (bi.lo >= 0.0, bi.hi < 0.0),
        (b_lo >= 1.0, b_hi < 1.0),
        (b_hi <= r, b_lo > r),
        (c_hi <= r, c_lo > r),
    )
    if any(violated for _, violated in checks):
        return Feasibility.OUTSIDE
    if all(satisfied for satisfied, _ in checks):
        return Feasibility.INSIDE
    return Feasibility.STRADDLES
