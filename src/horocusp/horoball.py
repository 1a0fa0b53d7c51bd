"""Horoball patterns at concrete parameter points.

Reduced words are walked breadth-first, one product per word, by its last
letter's generator.  An element with lower-left entry y sends the
height-1 horoball at infinity to a ball of diameter 1/|y|^2 tangent to the
boundary at w/y.  Cusp translations on either side of a word keep |y| and
move w/y by a lattice vector, so the diagram and min_lower_left walk one
word per double coset of P\\G/P, P = <x, y>: it starts and ends with z^+-1
and spells each translation run as x^m y^n.  Each level of a walk is kept
to grow the next, except the last: it is yielded as it is built, and the
double-coset walk builds there only words ending with z^+-1, the only
words it yields.

A walk carries only what its caller reads.  enumerate_elements carries
whole matrices.  min_lower_left carries bottom rows (m21, m22) from each
generator's, since the bottom row of m @ g needs only that of m.  The
diagram keeps whole matrices in the levels that grow the next, and its
last, largest level builds only the left column (m11, m21) it reads.
Each carried entry repeats the full product's expressions, so it has the
same bits.

Everything here is float arithmetic; diagrams are illustrations, not certificates.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .bicuspid import Params
from .cuspgeom import CuspShape
from .words import _row_mul

DEDUP_DECIMALS = 9
# Most words one walk may build, so that a deep walk fails at once rather
# than filling memory.  Depth 9 of the double-coset walk builds 167,762
# words and keeps 75,024 of them: the diagram takes about 0.2 s and 43 MB
# peak RSS at the reference point, min_lower_left about 0.13 s and 37 MB
# (CPython 3.11, 2-CPU x86_64).
MAX_WALK_WORDS = 10**6

_LETTERS = ("x", "x^-1", "y", "y^-1", "z", "z^-1")
_INVERSE_OF = (1, 0, 3, 2, 5, 4)
# follows[letter]: the letters that may come next.  Reduced words never put
# a letter before its inverse.  Double-coset words also start at z^+-1 and
# spell each translation run x^m y^n, so no y-letter is followed by an
# x-letter: a run such as x y x^-1 y^-1 is the identity, but its float
# product is not and would add a ball of diameter ~1e31.  x^m y^n is also
# first in walk order.
_REDUCED = tuple(tuple(i for i in range(6) if i != _INVERSE_OF[j]) for j in range(6))
_COSET = tuple(
    tuple(i for i in _REDUCED[j] if not (j in (2, 3) and i in (0, 1))) for j in range(6)
)
# A double-coset word ends with z^+-1, so its last letter is one of these.
_COSET_LAST = tuple(tuple(i for i in f if i >= 4) for f in _COSET)

Matrix = Tuple[complex, complex, complex, complex]
Letters = Tuple[int, ...]


def _generator_matrices(p: Params) -> Tuple[Matrix, ...]:
    one = 1 + 0j
    zero = 0j
    return (
        (one, p.a, zero, one),
        (one, -p.a, zero, one),
        (one, p.b, zero, one),
        (one, -p.b, zero, one),
        (p.c, -one, one, zero),
        (zero, one, -one, p.c),
    )


def _sign_key(m: Matrix) -> tuple:
    plus = tuple(round(v.real, DEDUP_DECIMALS) + 0.0 for v in m) + tuple(
        round(v.imag, DEDUP_DECIMALS) + 0.0 for v in m
    )
    minus = tuple(round(-v.real, DEDUP_DECIMALS) + 0.0 for v in m) + tuple(
        round(-v.imag, DEDUP_DECIMALS) + 0.0 for v in m
    )
    return min(plus, minus)


@dataclass(frozen=True)
class GroupElement:
    """A reduced generator word with its evaluated matrix."""

    letters: Tuple[str, ...]
    matrix: Matrix

    @property
    def word(self) -> str:
        return " ".join(self.letters)


def _cmul2(x: Matrix, y: Matrix) -> Matrix:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _col_mul(x: Matrix, y: Matrix) -> Tuple[complex, complex]:
    """The left column (m11, m21) of x @ y, with _cmul2's expressions for it."""
    return (x[0] * y[0] + x[1] * y[2], x[2] * y[0] + x[3] * y[2])


# What a walk carries per word: the slice of its matrix, and the product
# giving that slice of m @ g from what m carries.  A column needs the whole
# of m, so it is only ever carried by a last level, after whole matrices.
_Carry = Tuple[slice, Callable]
_MATRIX: _Carry = (slice(None), _cmul2)
_ROW: _Carry = (slice(2, None), _row_mul)
_COLUMN: _Carry = (slice(None, None, 2), _col_mul)


def _walk(
    p: Params,
    max_len: int,
    first: Sequence[int],
    follows: Tuple[Letters, ...],
    last: Optional[Tuple[Letters, ...]] = None,
    carry: _Carry = _MATRIX,
    last_carry: Optional[_Carry] = None,
) -> Iterator[Tuple[Letters, tuple]]:
    """Words breadth-first with the entries of their products that are read.

    Words start with a letter in first, and a letter may be followed only by
    the letters follows[letter] lists; in the last level, of length max_len
    > 1, only by those last[letter] lists (default follows).  Only words
    ending with a letter that last lists are yielded, as every word of the
    last level does; the others only grow the next level.  Each level but
    the last is stored, each product cut to carry's slice.  The last is
    yielded as it is built, by last_carry's product if given; every word
    is then yielded with last_carry's slice of the whole matrices that
    carry must keep.  Each entry has the bits of the full product's.
    Raises ValueError, before building any word, when the walk could build
    more than MAX_WALK_WORDS of them.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    # no word has more successors than the longest follows entry
    most = max(map(len, follows))
    width = total = len(first)
    for _ in range(max_len - 1):
        width *= most
        total += width
        if total > MAX_WALK_WORDS:
            raise ValueError(f"a walk to length {max_len} may build over {MAX_WALK_WORDS} words")
    gens = _generator_matrices(p)
    keep, mul = carry
    cut, last_mul = (slice(None), mul) if last_carry is None else last_carry
    if last is None:
        last = follows
    ends = {i for letters in last for i in letters}

    def shown(level):
        return [(w, m[cut]) for w, m in level if w[-1] in ends]

    level = [((i,), gens[i][keep]) for i in first]
    yield from shown(level)
    if max_len == 1:
        return
    for _ in range(max_len - 2):
        level = [(w + (i,), mul(m, gens[i])) for w, m in level for i in follows[w[-1]]]
        yield from shown(level)
    for w, m in level:
        for i in last[w[-1]]:
            yield w + (i,), last_mul(m, gens[i])


def _double_coset_words(
    p: Params, max_len: int, carry: _Carry = _MATRIX, last_carry: Optional[_Carry] = None
) -> Iterator[Tuple[Letters, tuple]]:
    return _walk(p, max_len, (4, 5), _COSET, _COSET_LAST, carry, last_carry)


def _spell(word: Letters) -> str:
    return " ".join(_LETTERS[i] for i in word)


def enumerate_elements(p: Params, max_len: int) -> List[GroupElement]:
    """Distinct group elements realized by reduced words up to max_len.

    Breadth-first with incremental matrix products; the first (shortest)
    word reaching a matrix class up to sign is kept as the witness.
    """
    seen: Dict[tuple, GroupElement] = {}
    for word, m in _walk(p, max_len, range(6), _REDUCED):
        key = _sign_key(m)
        if key not in seen:
            seen[key] = GroupElement(tuple(_LETTERS[i] for i in word), m)
    return list(seen.values())


@dataclass(frozen=True)
class Horoball:
    center: complex
    diameter: float
    word: str


@dataclass
class HoroballDiagram:
    lattice: CuspShape
    balls: List[Horoball] = field(default_factory=list)


def _reduce_mod_lattice(t: complex, a: complex, b: complex) -> Optional[complex]:
    """t moved into the fundamental parallelogram of <a, b>.

    None when a lattice coordinate of t is not finite, where math.floor would raise.
    """
    # dual coordinates of t in the (a, b) basis
    s = (b.conjugate() * t).imag / (b.conjugate() * a).imag
    u = (a.conjugate() * t).imag / (a.conjugate() * b).imag
    if not (math.isfinite(s) and math.isfinite(u)):
        return None
    fs = s - math.floor(s)
    fu = u - math.floor(u)
    if fs > 1.0 - 1e-9:
        fs = 0.0
    if fu > 1.0 - 1e-9:
        fu = 0.0
    return fs * a + fu * b


def horoball_diagram(p: Params, min_diameter: float, max_len: int) -> HoroballDiagram:
    """Horoballs of diameter >= min_diameter from words up to max_len.

    Only double-coset words are walked (see the module docstring).  Centers
    are reduced into the fundamental parallelogram of <a, b>.  Balls agreeing
    in reduced center and diameter to 1e-9 are merged, keeping the first
    (shortest) witness word.  Raises ValueError naming the first word whose
    kept ball has a NaN center or diameter, or a center whose lattice
    coordinates are not finite.
    """
    if not min_diameter > 0.0:
        raise ValueError("min_diameter must be positive")
    lattice = CuspShape(p.a, p.b)
    balls: Dict[tuple, Horoball] = {}
    for word, (m11, y) in _double_coset_words(p, max_len, _MATRIX, _COLUMN):
        ay = abs(y)
        if ay == 0.0:
            continue
        diameter = 1.0 / (ay * ay)
        if diameter < min_diameter:
            continue
        q = m11 / y
        if q != q:
            raise ValueError(f"the horoball of word {_spell(word)!r} has a NaN center or diameter")
        center = _reduce_mod_lattice(q, lattice.a, lattice.b)
        if center is None:
            where = f"the horoball of word {_spell(word)!r}"
            raise ValueError(f"{where} has a center with non-finite lattice coordinates")
        key = (
            round(center.real, DEDUP_DECIMALS) + 0.0,
            round(center.imag, DEDUP_DECIMALS) + 0.0,
            round(diameter, DEDUP_DECIMALS) + 0.0,
        )
        if key not in balls:
            balls[key] = Horoball(center, diameter, _spell(word))
    return HoroballDiagram(lattice, list(balls.values()))


def min_lower_left(p: Params, max_len: int) -> float:
    """Minimum |y| over reduced words up to max_len with y != 0.

    Only double-coset words are walked: a translation on either side of a
    word keeps |y|.  A value below 1 - 1e-6 indicates the height-1 cusp
    neighborhood does not embed at these parameters.  Raises ValueError
    naming the first word whose y is NaN.
    """
    best = math.inf
    for word, (y, _) in _double_coset_words(p, max_len, _ROW):
        ay = abs(y)
        # false for most words; true for a new minimum, a zero or a NaN
        if not ay >= best:
            if ay != ay:
                raise ValueError(f"the lower-left entry of word {_spell(word)!r} is NaN")
            if ay > 0.0:
                best = ay
    return best


def _xml_text(text: str) -> str:
    """text escaped as XML character data, as xml.etree writes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(
    diagram: HoroballDiagram,
    scale_px_per_unit: float = 80.0,
    metadata: Optional[dict] = None,
) -> str:
    """Standalone SVG: fundamental parallelogram outline plus one circle per ball.

    Raises ValueError unless the scale is positive and finite, and also
    when the canvas it gives is too wide or tall for a float.
    """
    if not (scale_px_per_unit > 0.0 and math.isfinite(scale_px_per_unit)):
        raise ValueError("scale_px_per_unit must be positive and finite")
    a = diagram.lattice.a
    b = diagram.lattice.b
    corners = [0j, a, a + b, b]
    xs = [z.real for z in corners]
    ys = [z.imag for z in corners]
    for ball in diagram.balls:
        r = ball.diameter / 2.0
        xs += [ball.center.real - r, ball.center.real + r]
        ys += [ball.center.imag - r, ball.center.imag + r]
    pad = 10.0
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) * scale_px_per_unit + 2 * pad
    height = (max_y - min_y) * scale_px_per_unit + 2 * pad
    # every coordinate and radius written lies within the canvas
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"scale {scale_px_per_unit!r} makes a canvas of {width!r} by {height!r}")

    def to_px(z: complex) -> Tuple[float, float]:
        return (
            (z.real - min_x) * scale_px_per_unit + pad,
            (max_y - z.imag) * scale_px_per_unit + pad,
        )

    payload = {"version": __version__, "ball_count": len(diagram.balls)}
    if metadata:
        payload.update(metadata)
    meta = _xml_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    points = " ".join(f"{px:.6f},{py:.6f}" for px, py in map(to_px, corners))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.6f}"'
        f' height="{height:.6f}" viewBox="0 0 {width:.6f} {height:.6f}">'
        f"<metadata>{meta}</metadata>"
        f'<polygon points="{points}" fill="none" stroke="#202020" stroke-width="1.5" />'
    ]
    for ball in diagram.balls:
        cx, cy = to_px(ball.center)
        r = ball.diameter / 2.0 * scale_px_per_unit
        # an empty title is written self-closed, as xml.etree writes it
        title = f"<title>{_xml_text(ball.word)}</title>" if ball.word else "<title />"
        parts.append(
            f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{r:.6f}" fill="#4878b0"'
            f' fill-opacity="0.35" stroke="#1f4b7a" stroke-width="1.0">{title}</circle>'
        )
    parts.append("</svg>")
    return "".join(parts)


def export_csv(diagram: HoroballDiagram, metadata: Optional[dict] = None) -> str:
    """CSV of the balls with leading comment lines for version and lattice."""
    buf = io.StringIO()
    buf.write("# horocusp %s\n" % __version__)
    a = diagram.lattice.a
    b = diagram.lattice.b
    buf.write(
        "# lattice a=(%0.9f,%0.9f) b=(%0.9f,%0.9f)\n"
        % (a.real, a.imag, b.real, b.imag)
    )
    if metadata:
        buf.write("# config %s\n" % json.dumps(metadata, sort_keys=True, separators=(",", ":")))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["center_re", "center_im", "diameter", "word"])
    for ball in diagram.balls:
        writer.writerow(
            [
                "%0.9f" % ball.center.real,
                "%0.9f" % ball.center.imag,
                "%0.9f" % ball.diameter,
                ball.word,
            ]
        )
    return buf.getvalue()
