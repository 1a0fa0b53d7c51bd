"""Rigorous interval arithmetic for certified elimination.

Real intervals are closed [lo, hi] with finite float endpoints. Complex
intervals are axis-aligned rectangles, a real interval for each of the real
and imaginary parts. Matrices are 2x2 with complex-interval entries.

Soundness policy: every arithmetic primitive returns an interval that
encloses the exact result for every choice of points in the operands.
Directed rounding is emulated by epsilon inflation, one `math.nextafter`
step per endpoint per rounding-sensitive float operation. One step suffices
under IEEE round-to-nearest: the true value of a single rounded operation
lies strictly between the two neighbors of the computed float. Operations
that are exact in floating point (negation, adding an exact zero,
multiplying by an exact zero or an exact one, the SL2 adjugate) skip
inflation. The zero shortcut is what keeps the lower-left entry of products
of upper-triangular matrices exactly [0, 0], so structurally parabolic
words never acquire a spurious nonzero bound.

Inversion uses the SL2 adjugate; nothing in this module divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_nextafter = math.nextafter
_INF = math.inf


# Unboxed arithmetic on endpoint tuples: a real interval is (lo, hi), a
# complex interval is the rectangle (re_lo, re_hi, im_lo, im_hi).  The
# interval classes below delegate to real_add and real_mul, which hold the
# rounding and shortcut rules.  The word-scan kernel's rectangle operations,
# rect_add, rect_mul and rect_neg, are self-contained: they write those
# rules out inline instead of calling them, and tests/test_interval.py
# checks them bit for bit against their composition.  The classes never
# call them, so the kernel-vs-oracle bit test in tests/test_words.py checks
# them a second time.  Nothing here validates its result: an overflow shows
# up as an infinite or NaN endpoint, which the classes reject on
# construction.  Subtraction is addition of the exact negation (-hi, -lo),
# since a + (-b) and a - b round alike.


def real_add(al: float, ah: float, bl: float, bh: float) -> tuple:
    if bl == 0.0 and bh == 0.0:
        return al, ah
    if al == 0.0 and ah == 0.0:
        return bl, bh
    return _nextafter(al + bl, -_INF), _nextafter(ah + bh, _INF)


def real_mul(al: float, ah: float, bl: float, bh: float) -> tuple:
    if (al == 0.0 and ah == 0.0) or (bl == 0.0 and bh == 0.0):
        return 0.0, 0.0
    if al == 1.0 and ah == 1.0:
        return bl, bh
    if bl == 1.0 and bh == 1.0:
        return al, ah
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    return _nextafter(min(p1, p2, p3, p4), -_INF), _nextafter(max(p1, p2, p3, p4), _INF)


def rect_add(x: tuple, y: tuple) -> tuple:
    """Sum of two rectangles, each part by real_add's rules written out."""
    xrl, xrh, xil, xih = x
    yrl, yrh, yil, yih = y
    if yrl == 0.0 and yrh == 0.0:
        rl, rh = xrl, xrh
    elif xrl == 0.0 and xrh == 0.0:
        rl, rh = yrl, yrh
    else:
        rl = _nextafter(xrl + yrl, -_INF)
        rh = _nextafter(xrh + yrh, _INF)
    if yil == 0.0 and yih == 0.0:
        return rl, rh, xil, xih
    if xil == 0.0 and xih == 0.0:
        return rl, rh, yil, yih
    return rl, rh, _nextafter(xil + yil, -_INF), _nextafter(xih + yih, _INF)


def rect_mul(x: tuple, y: tuple) -> tuple:
    """Product of two rectangles, re*re - im*im and re*im + im*re.

    Each of the four real products follows real_mul: an exact zero factor
    first, then an exact one on the left, then on the right, else the four
    endpoint products with one nextafter step on their min and max.  The
    min and max are taken by the builtins' own left-to-right strict
    comparisons, so signed zeros and NaNs come out alike; a product below
    the running min cannot also be above the running max, hence the elif.
    The two sums follow real_add, the real part as a + (-b).
    """
    xrl, xrh, xil, xih = x
    yrl, yrh, yil, yih = y
    # a = re(x) re(y)
    if (xrl == 0.0 and xrh == 0.0) or (yrl == 0.0 and yrh == 0.0):
        al = ah = 0.0
    elif xrl == 1.0 and xrh == 1.0:
        al, ah = yrl, yrh
    elif yrl == 1.0 and yrh == 1.0:
        al, ah = xrl, xrh
    else:
        al = ah = xrl * yrl
        p = xrl * yrh
        if p < al:
            al = p
        elif p > ah:
            ah = p
        p = xrh * yrl
        if p < al:
            al = p
        elif p > ah:
            ah = p
        p = xrh * yrh
        if p < al:
            al = p
        elif p > ah:
            ah = p
        al = _nextafter(al, -_INF)
        ah = _nextafter(ah, _INF)
    # b = im(x) im(y)
    if (xil == 0.0 and xih == 0.0) or (yil == 0.0 and yih == 0.0):
        bl = bh = 0.0
    elif xil == 1.0 and xih == 1.0:
        bl, bh = yil, yih
    elif yil == 1.0 and yih == 1.0:
        bl, bh = xil, xih
    else:
        bl = bh = xil * yil
        p = xil * yih
        if p < bl:
            bl = p
        elif p > bh:
            bh = p
        p = xih * yil
        if p < bl:
            bl = p
        elif p > bh:
            bh = p
        p = xih * yih
        if p < bl:
            bl = p
        elif p > bh:
            bh = p
        bl = _nextafter(bl, -_INF)
        bh = _nextafter(bh, _INF)
    # c = re(x) im(y)
    if (xrl == 0.0 and xrh == 0.0) or (yil == 0.0 and yih == 0.0):
        cl = ch = 0.0
    elif xrl == 1.0 and xrh == 1.0:
        cl, ch = yil, yih
    elif yil == 1.0 and yih == 1.0:
        cl, ch = xrl, xrh
    else:
        cl = ch = xrl * yil
        p = xrl * yih
        if p < cl:
            cl = p
        elif p > ch:
            ch = p
        p = xrh * yil
        if p < cl:
            cl = p
        elif p > ch:
            ch = p
        p = xrh * yih
        if p < cl:
            cl = p
        elif p > ch:
            ch = p
        cl = _nextafter(cl, -_INF)
        ch = _nextafter(ch, _INF)
    # d = im(x) re(y)
    if (xil == 0.0 and xih == 0.0) or (yrl == 0.0 and yrh == 0.0):
        dl = dh = 0.0
    elif xil == 1.0 and xih == 1.0:
        dl, dh = yrl, yrh
    elif yrl == 1.0 and yrh == 1.0:
        dl, dh = xil, xih
    else:
        dl = dh = xil * yrl
        p = xil * yrh
        if p < dl:
            dl = p
        elif p > dh:
            dh = p
        p = xih * yrl
        if p < dl:
            dl = p
        elif p > dh:
            dh = p
        p = xih * yrh
        if p < dl:
            dl = p
        elif p > dh:
            dh = p
        dl = _nextafter(dl, -_INF)
        dh = _nextafter(dh, _INF)
    # re = a + (-b), im = c + d
    if bl == 0.0 and bh == 0.0:
        rl, rh = al, ah
    elif al == 0.0 and ah == 0.0:
        rl, rh = -bh, -bl
    else:
        rl = _nextafter(al + -bh, -_INF)
        rh = _nextafter(ah + -bl, _INF)
    if dl == 0.0 and dh == 0.0:
        return rl, rh, cl, ch
    if cl == 0.0 and ch == 0.0:
        return rl, rh, dl, dh
    return rl, rh, _nextafter(cl + dl, -_INF), _nextafter(ch + dh, _INF)


def rect_neg(x: tuple) -> tuple:
    """Product of a rectangle and the exact point -1, bit for bit as rect_mul gives it.

    The imaginary part of -1 is an exact zero, so rect_mul reduces to one
    real_mul per part, by the real interval [-1, -1]: an exact zero part
    stays [0, 0], an exact one becomes [-1, -1], and any other part has its
    endpoint products, -lo and -hi, inflated by one nextafter step, although
    negation is exact.  The comparisons are rect_mul's, so NaNs fare alike.
    """
    xrl, xrh, xil, xih = x
    if xrl == 0.0 and xrh == 0.0:
        rl = rh = 0.0
    elif xrl == 1.0 and xrh == 1.0:
        rl = rh = -1.0
    else:
        rl = rh = -xrl
        p = -xrh
        if p < rl:
            rl = p
        elif p > rh:
            rh = p
        rl = _nextafter(rl, -_INF)
        rh = _nextafter(rh, _INF)
    if xil == 0.0 and xih == 0.0:
        return rl, rh, 0.0, 0.0
    if xil == 1.0 and xih == 1.0:
        return rl, rh, -1.0, -1.0
    il = ih = -xil
    p = -xih
    if p < il:
        il = p
    elif p > ih:
        ih = p
    return rl, rh, _nextafter(il, -_INF), _nextafter(ih, _INF)


def rect_abs(rl: float, rh: float, il: float, ih: float) -> tuple:
    """Certified enclosure (L, U) of |z| over the rectangle.

    L comes from the rectangle point nearest the origin, U from the
    farthest corner. When the extremal point lies on an axis the
    modulus reduces to a plain absolute value and no rounding occurs,
    so L is exactly 0 iff the rectangle contains the origin and point
    rectangles on an axis get exact bounds.  For finite endpoints
    0 <= L <= U, and L is finite; U is infinite when hypot overflows.
    Every branch gives L >= +0.0, or NaN for a NaN endpoint, so L needs no
    clamp.
    """
    near_x = 0.0 if rl <= 0.0 <= rh else (rl if rl > 0.0 else rh)
    near_y = 0.0 if il <= 0.0 <= ih else (il if il > 0.0 else ih)
    if near_x == 0.0 and near_y == 0.0:
        lo = 0.0
    elif near_x == 0.0:
        lo = abs(near_y)
    elif near_y == 0.0:
        lo = abs(near_x)
    else:
        lo = _nextafter(math.hypot(near_x, near_y), -_INF)
    far_x = max(-rl, rh)
    far_y = max(-il, ih)
    if far_x == 0.0 and far_y == 0.0:
        hi = 0.0
    elif far_x == 0.0:
        hi = far_y
    elif far_y == 0.0:
        hi = far_x
    else:
        hi = _nextafter(math.hypot(far_x, far_y), _INF)
    return lo, hi


@dataclass(slots=True)
class RealInterval:
    """Closed interval of reals with finite float endpoints, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        self.lo = float(self.lo)
        self.hi = float(self.hi)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: float) -> "RealInterval":
        return cls(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "RealInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def midpoint(self) -> float:
        """Split point strictly inside for nondegenerate intervals.

        All floats are dyadic rationals, so the returned point is a valid
        dyadic bisection vertex.
        """
        return self.lo + (self.hi - self.lo) / 2.0

    def __neg__(self) -> "RealInterval":
        return RealInterval(-self.hi, -self.lo)

    def __add__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(*real_add(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(*real_add(self.lo, self.hi, -other.hi, -other.lo))

    def __mul__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(*real_mul(self.lo, self.hi, other.lo, other.hi))


@dataclass(slots=True)
class ComplexInterval:
    """Axis-aligned rectangle, one real interval per coordinate."""

    re: RealInterval
    im: RealInterval

    @classmethod
    def point(cls, z: complex) -> "ComplexInterval":
        z = complex(z)
        return cls(RealInterval.point(z.real), RealInterval.point(z.imag))

    @classmethod
    def box(cls, re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> "ComplexInterval":
        return cls(RealInterval(re_lo, re_hi), RealInterval(im_lo, im_hi))

    @property
    def is_point(self) -> bool:
        return self.re.is_point and self.im.is_point

    def contains(self, z: complex) -> bool:
        z = complex(z)
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def encloses(self, other: "ComplexInterval") -> bool:
        return self.re.encloses(other.re) and self.im.encloses(other.im)

    def conjugate(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def __neg__(self) -> "ComplexInterval":
        return ComplexInterval(-self.re, -self.im)

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexInterval") -> "ComplexInterval":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return ComplexInterval(re, im)

    def abs_bounds(self) -> RealInterval:
        """Certified enclosure [L, U] of |z| over the rectangle, see rect_abs."""
        return RealInterval(*rect_abs(*self.endpoints()))

    def endpoints(self) -> tuple:
        """The unboxed rectangle (re_lo, re_hi, im_lo, im_hi)."""
        return (self.re.lo, self.re.hi, self.im.lo, self.im.hi)


@dataclass(slots=True)
class IntervalMatrix:
    """2x2 matrix of complex intervals."""

    m11: ComplexInterval
    m12: ComplexInterval
    m21: ComplexInterval
    m22: ComplexInterval

    @classmethod
    def exact(cls, m11: complex, m12: complex, m21: complex, m22: complex) -> "IntervalMatrix":
        return cls(
            ComplexInterval.point(m11),
            ComplexInterval.point(m12),
            ComplexInterval.point(m21),
            ComplexInterval.point(m22),
        )

    @classmethod
    def identity(cls) -> "IntervalMatrix":
        return cls.exact(1.0, 0.0, 0.0, 1.0)

    def __matmul__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        return IntervalMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inverse_sl2(self) -> "IntervalMatrix":
        """Adjugate inverse, exact for determinant-one matrices.

        Entry negation is exact in floats, so no inflation is introduced.
        """
        return IntervalMatrix(self.m22, -self.m12, -self.m21, self.m11)

    def det(self) -> ComplexInterval:
        return self.m11 * self.m22 - self.m12 * self.m21

    def contains(self, m11: complex, m12: complex, m21: complex, m22: complex) -> bool:
        return (
            self.m11.contains(m11)
            and self.m12.contains(m12)
            and self.m21.contains(m21)
            and self.m22.contains(m22)
        )
