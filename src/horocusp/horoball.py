"""Horoball patterns at concrete parameter points.

Reduced words are walked breadth-first, one matrix product per word.  An
element with lower-left entry y sends the height-1 horoball at infinity to a
ball of diameter 1/|y|^2 tangent to the boundary at w/y.  Cusp translations
on either side of a word keep |y| and move w/y by a lattice vector, so the
diagram and min_lower_left walk one word per double coset of P\\G/P, P = <x, y>:
it starts and ends with z^+-1 and spells each translation run as x^m y^n.
Everything here is float arithmetic; diagrams are illustrations, not certificates.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .bicuspid import Params
from .cuspgeom import CuspShape
from .words import _cmul2

DEDUP_DECIMALS = 9
# Most words one walk may build, so that a deep walk fails at once rather
# than filling memory.  Depth 9 of the double-coset walk, 317,810 words,
# takes 0.4 s and about 130 MB.
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


def _walk(
    p: Params, max_len: int, first: Sequence[int], follows: Tuple[Letters, ...]
) -> Iterator[Tuple[Letters, Matrix]]:
    """Words breadth-first with their left-to-right products.

    Words start with a letter in first, and a letter may be followed only by
    the letters follows[letter] lists.  Raises ValueError, before building
    any word, when the walk could build more than MAX_WALK_WORDS of them.
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
    level = [((i,), gens[i]) for i in first]
    yield from level
    for _ in range(max_len - 1):
        level = [(w + (i,), _cmul2(m, gens[i])) for w, m in level for i in follows[w[-1]]]
        yield from level


def _double_coset_words(p: Params, max_len: int) -> Iterator[Tuple[Letters, Matrix]]:
    for w, m in _walk(p, max_len, (4, 5), _COSET):
        if w[-1] >= 4:
            yield w, m


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


def _reduce_mod_lattice(t: complex, a: complex, b: complex) -> complex:
    # dual coordinates of t in the (a, b) basis
    s = (b.conjugate() * t).imag / (b.conjugate() * a).imag
    u = (a.conjugate() * t).imag / (a.conjugate() * b).imag
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
    (shortest) witness word.
    """
    if not min_diameter > 0.0:
        raise ValueError("min_diameter must be positive")
    lattice = CuspShape(p.a, p.b)
    balls: Dict[tuple, Horoball] = {}
    for word, m in _double_coset_words(p, max_len):
        y = m[2]
        ay = abs(y)
        if ay == 0.0:
            continue
        diameter = 1.0 / (ay * ay)
        if diameter < min_diameter:
            continue
        center = _reduce_mod_lattice(m[0] / y, lattice.a, lattice.b)
        key = (
            round(center.real, DEDUP_DECIMALS) + 0.0,
            round(center.imag, DEDUP_DECIMALS) + 0.0,
            round(diameter, DEDUP_DECIMALS) + 0.0,
        )
        if key not in balls:
            balls[key] = Horoball(center, diameter, " ".join(_LETTERS[i] for i in word))
    return HoroballDiagram(lattice, list(balls.values()))


def min_lower_left(p: Params, max_len: int) -> float:
    """Minimum |y| over reduced words up to max_len with y != 0.

    Only double-coset words are walked: a translation on either side of a
    word keeps |y|.  A value below 1 - 1e-6 indicates the height-1 cusp
    neighborhood does not embed at these parameters.
    """
    lower = (abs(m[2]) for _, m in _double_coset_words(p, max_len))
    return min((ay for ay in lower if ay > 0.0), default=math.inf)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def render_svg(
    diagram: HoroballDiagram,
    scale_px_per_unit: float = 80.0,
    metadata: Optional[dict] = None,
) -> str:
    """Standalone SVG: fundamental parallelogram outline plus one circle per ball."""
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

    def to_px(z: complex) -> Tuple[float, float]:
        return (
            (z.real - min_x) * scale_px_per_unit + pad,
            (max_y - z.imag) * scale_px_per_unit + pad,
        )

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
        },
    )
    meta = ET.SubElement(root, "metadata")
    payload = {"version": __version__, "ball_count": len(diagram.balls)}
    if metadata:
        payload.update(metadata)
    meta.text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    ET.SubElement(
        root,
        "polygon",
        {
            "points": " ".join(
                "{},{}".format(_fmt(px), _fmt(py)) for px, py in map(to_px, (0j, a, a + b, b))
            ),
            "fill": "none",
            "stroke": "#202020",
            "stroke-width": "1.5",
        },
    )
    for ball in diagram.balls:
        cx, cy = to_px(ball.center)
        circle = ET.SubElement(
            root,
            "circle",
            {
                "cx": _fmt(cx),
                "cy": _fmt(cy),
                "r": _fmt(ball.diameter / 2.0 * scale_px_per_unit),
                "fill": "#4878b0",
                "fill-opacity": "0.35",
                "stroke": "#1f4b7a",
                "stroke-width": "1.0",
            },
        )
        title = ET.SubElement(circle, "title")
        title.text = ball.word
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode")


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
