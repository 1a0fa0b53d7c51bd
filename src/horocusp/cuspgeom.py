"""Cusp cross-section arithmetic on the height-1 horotorus.

The cross section is the flat torus C/<a, b>.  Area, volume, slope
lengths, the complete list of short slopes, intersection numbers, the
36/area distance bound, and the exceptional-count rule live here.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .bicuspid import Params

DEFAULT_LENGTH_CUTOFF = 6.0
# Most (p, q) pairs short_slopes scans, so that a huge cutoff fails at
# once rather than running for hours; a million takes a few seconds.
MAX_SLOPE_WINDOW = 10**6
# Largest |a| |b| / area of a basis short_slopes measures lengths in.  A
# length |p*a + q*b| in floats errs by up to about 2**-51 * |a| |b| / area
# of itself, since |p| <= length * |b| / area and |q| <= length * |a| / area,
# so this keeps every length to about 2**-25 of itself.
MAX_BASIS_SKEW = 2.0**26


@dataclass(frozen=True)
class CuspShape:
    """Lattice generators of the cusp torus; must span a nondegenerate lattice."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if _signed_area(self.a, self.b) == 0.0:
            raise ValueError("degenerate lattice: generators are collinear")

    @classmethod
    def from_params(cls, p: Params) -> "CuspShape":
        # normalized groups have translation length |a| >= 1
        if abs(p.a) < 1.0 - 1e-12:
            raise ValueError("parameter a shorter than the minimal translation length 1")
        return cls(p.a, p.b)


@dataclass(frozen=True, order=True)
class Slope:
    """Primitive slope class in canonical sign form: q > 0, or q = 0 and p = 1."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("slope (0, 0) is not a slope")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"slope ({self.p}, {self.q}) is imprimitive")
        if not (self.q > 0 or (self.q == 0 and self.p == 1)):
            raise ValueError(f"slope ({self.p}, {self.q}) is not in canonical sign form")

    @classmethod
    def canonical(cls, p: int, q: int) -> "Slope":
        if (p, q) == (0, 0):
            raise ValueError("slope (0, 0) is not a slope")
        g = math.gcd(abs(p), abs(q))
        p //= g
        q //= g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return cls(p, q)


def _signed_area(a: complex, b: complex) -> float:
    return (a.conjugate() * b).imag


def cusp_area(s: CuspShape) -> float:
    """Euclidean area of the quotient torus, |Im(conj(a) * b)|."""
    return abs(_signed_area(s.a, s.b))


def cusp_volume(s: CuspShape) -> float:
    """Volume enclosed by the horotorus, half the boundary area."""
    return cusp_area(s) / 2.0


def slope_length(s: CuspShape, sl: Slope) -> float:
    """Geodesic length of the slope on the height-1 horotorus."""
    return abs(sl.p * s.a + sl.q * s.b)


def _reduced_basis(ar: int, ai: int, br: int, bi: int) -> tuple:
    """A Gauss-reduced basis of the lattice spanned by a = ar + ai*i and b = br + bi*i.

    Returns (u, v, |u|^2, |v|^2, area^2), where the rows u and v, each
    (r, s) for the vector r*a + s*b, form a unimodular change of basis,
    so area^2 = |u|^2 |v|^2 - dot(u, v)^2 is that of a and b.  Lagrange's
    algorithm: take from v the nearest integer multiple of u, and swap the
    two, until v is no shorter than u.  The coordinates are integers, so
    no step rounds.
    """
    g11, g12, g22 = ar * ar + ai * ai, ar * br + ai * bi, br * br + bi * bi

    def dot(x, y):
        return x[0] * y[0] * g11 + (x[0] * y[1] + x[1] * y[0]) * g12 + x[1] * y[1] * g22

    u, v = (1, 0), (0, 1)
    while True:
        uu = dot(u, u)
        # the integer nearest dot(u, v) / |u|^2
        k = (2 * dot(u, v) + uu) // (2 * uu)
        v = (v[0] - k * u[0], v[1] - k * u[1])
        vv = dot(v, v)
        if vv >= uu:
            return u, v, uu, vv, uu * vv - dot(u, v) ** 2
        u, v = v, u


def _ceil_sqrt(num: int, den: int) -> int:
    """The least integer n >= 0 with n * n * den >= num, for num >= 0 and den > 0."""
    n = math.isqrt(num // den)
    return n if n * n * den >= num else n + 1


def short_slopes(s: CuspShape, cutoff: float = DEFAULT_LENGTH_CUTOFF) -> List[Slope]:
    """All canonical slopes of length <= cutoff, shortest first.

    The (p, q) window is taken in a Gauss-reduced basis (u, v) of the
    lattice, so a skewed basis of a small lattice needs no larger window
    than a reduced one; each slope is mapped back to the given basis a, b
    and measured there with slope_length.  The window is complete:
    writing w = p*u + q*v, the dual-basis identities
    p = Im(conj(v) w)/Im(conj(v) u) and q = Im(conj(u) w)/Im(conj(u) v)
    bound |p| by cutoff*|v|/area and |q| by cutoff*|u|/area; each bound is
    rounded up exactly, plus one.  A lattice whose shortest vector u is
    longer than the cutoff has no short slope.  Raises ValueError for a
    non-finite generator; when |a| |b| / area exceeds MAX_BASIS_SKEW (or
    is not finite), since lengths measured in such a basis lose their
    precision; or when the window holds more than MAX_SLOPE_WINDOW pairs.
    """
    if not (cutoff > 0.0 and math.isfinite(cutoff)):
        raise ValueError("cutoff must be positive and finite")
    parts = (cutoff, s.a.real, s.a.imag, s.b.real, s.b.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError("lattice generators must be finite")
    # the floats as integers over one power of two: scaling the cutoff and
    # the lattice alike leaves cutoff*|v|/area as it is
    ratios = [x.as_integer_ratio() for x in parts]
    scale = max(den for _, den in ratios)
    c, *coords = (num * (scale // den) for num, den in ratios)
    u, v, uu, vv, area_sq = _reduced_basis(*coords)
    if c * c < uu:
        return []
    skew = abs(s.a) * abs(s.b) / cusp_area(s)
    if not skew <= MAX_BASIS_SKEW:
        raise ValueError(f"|a| |b| / area is {skew:.6g}, above {MAX_BASIS_SKEW:.6g}: reduce the basis")
    p_max = _ceil_sqrt(c * c * vv, area_sq) + 1
    q_max = _ceil_sqrt(c * c * uu, area_sq) + 1
    if (2 * p_max + 1) * (q_max + 1) > MAX_SLOPE_WINDOW:
        raise ValueError(f"cutoff {cutoff} needs a window of more than {MAX_SLOPE_WINDOW} slopes")
    found = []
    for q in range(0, q_max + 1):
        for p in range(-p_max, p_max + 1):
            if q == 0 and p != 1:
                continue
            if math.gcd(abs(p), abs(q)) != 1:
                continue
            # p*u + q*v in the given basis; the change is unimodular, so still primitive
            sl = Slope.canonical(p * u[0] + q * v[0], p * u[1] + q * v[1])
            length = slope_length(s, sl)
            if length <= cutoff:
                found.append((length, sl.q, sl.p, sl))
    found.sort(key=lambda t: t[:3])
    return [t[3] for t in found]


def delta(s1: Slope, s2: Slope) -> int:
    """Geometric intersection number of two slopes."""
    return abs(s1.p * s2.q - s2.p * s1.q)


def delta_bound(area: float) -> float:
    """Strict upper bound 36/area for the distance between exceptional slopes.

    Raises ValueError unless the area is positive and the bound finite: a
    subnormal area overflows 36/area.
    """
    if not area > 0.0:
        raise ValueError("area must be positive")
    bound = 36.0 / area
    if not math.isfinite(bound):
        raise ValueError(f"the distance bound 36/area overflows at area {area!r}")
    return bound


def strict_delta_max(area: float) -> int:
    """Largest integer strictly below 36/area, of the area's exact value.

    The float delta_bound(area) can round down onto an integer k that the
    exact quotient exceeds, which would give k - 1, so the bound is taken
    by Fraction.  Raises ValueError where delta_bound does.
    """
    delta_bound(area)
    return max(0, math.ceil(Fraction(36) / Fraction(area)) - 1)


def max_exceptional_count(delta_max: int) -> int:
    """Smallest prime strictly above delta_max, plus one."""
    if delta_max < 0:
        raise ValueError("delta_max must be nonnegative")
    n = delta_max + 1
    while not _is_prime(n):
        n += 1
    return n + 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def audit_cusp(s: CuspShape, cutoff: float = DEFAULT_LENGTH_CUTOFF) -> dict:
    """One-shot JSON-ready summary of the cusp cross-section invariants.

    Raises ValueError when the area is not a finite float, which JSON
    cannot hold.
    """
    area = cusp_area(s)
    if not math.isfinite(area):
        raise ValueError(f"the cusp area of a = {s.a!r}, b = {s.b!r} is not finite: {area!r}")
    dmax = strict_delta_max(area)
    return {
        "generators": {
            "a": [s.a.real, s.a.imag],
            "b": [s.b.real, s.b.imag],
        },
        "area": area,
        "volume": cusp_volume(s),
        "length_cutoff": cutoff,
        "short_slopes": [
            {"p": sl.p, "q": sl.q, "length": slope_length(s, sl)}
            for sl in short_slopes(s, cutoff)
        ],
        "delta_bound": delta_bound(area),
        "delta_max": dmax,
        "max_exceptional_count": max_exceptional_count(dmax),
    }
