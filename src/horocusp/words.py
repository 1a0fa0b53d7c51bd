"""Killer words over the free product of the cusp lattice and the pairing element.

A word is an alternating product r_1 z^(e_1) r_2 z^(e_2) ... r_j z^(e_j)
where each r_i = x^(m_i) y^(n_i) is a nontrivial element of the rank-two
commuting block (r_1 alone may be trivial) and every e_i is a nonzero
integer. Substituting the generators x -> alpha, y -> beta, z -> gamma
turns a word into a Mobius transformation; its lower-left matrix entry
decides elimination. The z-syllable count d(w) = sum |e_i| drives the
covolume bound pi * (d(w) - 2) attached to candidate relators.

A single trailing translation syllable with zero z-exponent is admitted so
that pure lattice words such as "x^2 y" can be evaluated, but enumeration
only ever yields words with d >= 1 that end in a z-syllable.

Cyclic reduction: interior commuting blocks are nontrivial by construction,
and when r_1 is trivial the first and last z-exponents must share a sign,
otherwise the word would shorten under cyclic rotation.

Canonical order: words come in order of (d, total exponent sum,
syllable-wise lexicographic key) with positive exponents ordering before
negative ones of the same magnitude. Exactly one representative of each
inverse pair {w, w^-1} is produced, the smaller under that same key, with
the inverse rewritten into word form by one cyclic rotation.  Nothing is
sorted after the fact: enumerate_words walks the syllables of each
(d, total) bucket depth first in key order, so the order comes from the walk.
A cyclically reduced word and its inverse in word form always differ in
their first syllable, so the walk compares only that syllable, and it
builds its words without re-running Word's validation, since it makes
only valid syllables.

Serialization: factors space-separated with caret exponents, exponent one
omitted, e.g. "x^2 y^-1 z x z^-1".

Evaluation: lower_left_bounds is the one scan kernel.  It propagates only
the bottom row of the product on unboxed float rectangles, from the
identity's bottom row.  Its rectangle sum and product are the
self-contained interval.rect_add and rect_mul.  A gamma or gamma^-1 step,
nearly every step of a scan, skips the products by those matrices' exact
0 and 1 entries and takes the one by -1 as interval.rect_neg; what it
skips is exact or a shortcut, so the row keeps its bits.  The per-box
GeneratorTriple, defined here, is a dict and is the scan's syllable
table: gens[(m, n, e)] builds an entry on first use and keeps it,
sharing the offset of each block (m, n) and the power of each exponent.
It repeats the oracle's operations in the same order, so every entry
and [L, U] keeps its bits, and an entry raises where the oracle's
factor overflows.  The message names the first block that overflows:
x^m y^0 or x^0 y^n when the multiple m*a or n*b itself does, since those
are the offsets of x^m and y^n.  By the body-twin lemma below, the row
after a word's first syllable (m, n, e) is the bottom row of gamma^e, so
the kernel takes it from the table and steps only the later syllables.
lower_left_abs and killer_test run the kernel for one word.
evaluate_word is the full-matrix route over the interval classes, which
never call the rectangle functions.  It builds its generator matrices
from the triple's a, b and c on each call and shares no table with the
scan; it stays as public API and as the oracle the kernel's bounds are
tested against bit for bit.  evaluate_word_float is the plain-float
audit route.

Body twins: a cusp translation on the left leaves the bottom row of a
product unchanged, so a word r_1 B, with leading block r_1 = x^m y^n and
body B = z^e_1 r_2 ... z^e_j, has the [L, U] of every other word with
body B, bit for bit.  The kernel keeps this exactly: the identity row
(0, 1) times [[1, t], [0, 1]] is (0, 1) again, by rect_mul's zero
shortcut and rect_add's pass-through.

Segments: enumerate_segments gives the canonical stream as a sequence of
segments, each either a Word that is the first of its body or a Run, a
counted block of consecutive words that are all later twins.  It rests
on this lemma about a canonical word r_1 B with r_1 = x^m y^n:

1. A nontrivial r_1 is kept if and only if the first nonzero of (m, n) is
   positive.  The inverse in word form starts with (-m, -n, -e_last), and
   _scalar_key ranks m before -m, or n before -n when m = 0, exactly then,
   whatever the rest of the word.
2. The words with body B are B itself (r_1 trivial), kept when e_1 and
   e_last share a sign and z^e_1 ranks before z^-e_last, and r B for each
   kept r.  They share d, and the extra exponent sum grows with
   |m| + |n|, so B comes first if kept, and otherwise y B: of the two
   cost-one blocks that are kept, y and x, the first syllable (0, 1, e_1)
   ranks before (1, 0, e_1).  So a word is the first of its body if and
   only if r_1 is trivial, or r_1 = y and B is not kept.
3. Every other kept first syllable s_1 = (m, n, e_1) of a (d, extra)
   bucket therefore leads a subtree of twins only: s_1 followed by each
   completion of the state (d - |e_1|, extra - |m| - |n|).  The walk
   emits it as one Run and counts its words with a memoized sum over the
   move tables, without walking it.  A y-twin (r_1 = y, B kept) is a Run
   of one word.

enumerate_words expands the segments, so the walk that orders the stream
is this one.  A WordStream holds the segments scans have asked for, and
scans name words by segment index: every word a scan evaluates is a
Word segment, and segments come in stream order.

Tables: _syllable_ranks and _moves hold up to (2 max_exp + 1)^2 * 2 max_exp
syllables per entry, so max_exp is capped at MAX_EXP.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Tuple, Union

from .bicuspid import ParamBox, Params, integer
from .interval import ComplexInterval, IntervalMatrix, RealInterval
from .interval import rect_abs, rect_add, rect_mul, rect_neg

Syllable = Tuple[int, int, int]

_TOKEN = re.compile(r"^([xyz])(?:\^(-?\d+))?$")

# The largest max_exp a stream takes.  The syllable table then holds
# (2 * 16 + 1)^2 * 2 * 16 = 34,848 syllables, and each move table at most as
# many; both grow with the cube of max_exp.
MAX_EXP = 16


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable syllable sequence, each syllable a triple (m, n, e).

    Each entry is an integral int or float, stored as an int; a bool or a
    string raises TypeError, and any other number ValueError.
    """

    syllables: Tuple[Syllable, ...]

    def __post_init__(self) -> None:
        name = "a syllable entry"
        syls = tuple(
            (integer(m, name), integer(n, name), integer(e, name)) for m, n, e in self.syllables
        )
        object.__setattr__(self, "syllables", syls)
        if not syls:
            raise ValueError("empty word")
        for i, (m, n, e) in enumerate(syls):
            if i > 0 and m == 0 and n == 0:
                raise ValueError(f"trivial interior commuting block at syllable {i}")
            if e == 0:
                if i != len(syls) - 1:
                    raise ValueError(f"zero z-exponent at interior syllable {i}")
                if len(syls) != 1 or (m == 0 and n == 0):
                    raise ValueError("zero z-exponent allowed only for a pure translation")

    @property
    def z_count(self) -> int:
        """Total z-exponent magnitude d(w)."""
        return sum(abs(e) for _, _, e in self.syllables)

    @property
    def total_exponents(self) -> int:
        return sum(abs(m) + abs(n) + abs(e) for m, n, e in self.syllables)

    @property
    def is_pure_translation(self) -> bool:
        """True for a power-free word, z_count == 0, in O(1).

        A valid word has a zero z-exponent only as a one-syllable
        translation, so the last exponent decides.
        """
        return self.syllables[-1][2] == 0

    @classmethod
    def _trusted(cls, syllables: Tuple[Syllable, ...]) -> "Word":
        """A Word from syllables already known valid, skipping __post_init__.

        Only for code that makes valid tuples of int triples by
        construction, such as enumerate_words.
        """
        word = object.__new__(cls)
        _set_syllables(word, syllables)
        return word

    @property
    def cyclically_reduced(self) -> bool:
        if self.is_pure_translation:
            return True
        m1, n1, e1 = self.syllables[0]
        e_last = self.syllables[-1][2]
        if m1 == 0 and n1 == 0:
            return (e1 > 0) == (e_last > 0)
        return True

    def inverse_in_form(self) -> "Word":
        """Inverse rewritten into word form by one cyclic rotation.

        The literal inverse ends with a commuting block whenever r_1 is
        nontrivial; rotating that block to the front restores the
        alternating shape without changing d or the exponent sum.
        """
        syls = self.syllables
        if self.is_pure_translation:
            m, n, _ = syls[0]
            return Word(((-m, -n, 0),))
        j = len(syls)
        out: List[Syllable] = [(-syls[0][0], -syls[0][1], -syls[j - 1][2])]
        for k in range(j - 1, 0, -1):
            out.append((-syls[k][0], -syls[k][1], -syls[k - 1][2]))
        return Word(tuple(out))

    def sort_key(self):
        syl_keys = tuple(
            (_scalar_key(m), _scalar_key(n), _scalar_key(e)) for m, n, e in self.syllables
        )
        return (self.z_count, self.total_exponents, syl_keys)

    def __str__(self) -> str:
        pieces = []
        for m, n, e in self.syllables:
            if m:
                pieces.append(_factor("x", m))
            if n:
                pieces.append(_factor("y", n))
            if e:
                pieces.append(_factor("z", e))
        return " ".join(pieces)


# the slot's own setter, which a frozen dataclass's __setattr__ would refuse
_set_syllables = Word.syllables.__set__


def _scalar_key(v: int):
    return (abs(v), 0 if v >= 0 else 1)


def _factor(letter: str, k: int) -> str:
    return letter if k == 1 else f"{letter}^{k}"


def parse_word(text: str) -> Word:
    """Parse the space-separated caret serialization back into a Word."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty word text")
    syllables: List[Syllable] = []
    m = n = 0
    seen_x = seen_y = False
    for tok in tokens:
        match = _TOKEN.match(tok)
        if match is None:
            raise ValueError(f"bad factor {tok!r}")
        letter = match.group(1)
        exp = int(match.group(2)) if match.group(2) is not None else 1
        if exp == 0:
            raise ValueError(f"zero exponent in factor {tok!r}")
        if letter == "x":
            if seen_x or seen_y:
                raise ValueError("x factor out of canonical position")
            m, seen_x = exp, True
        elif letter == "y":
            if seen_y:
                raise ValueError("duplicate y factor in a commuting block")
            n, seen_y = exp, True
        else:
            syllables.append((m, n, exp))
            m = n = 0
            seen_x = seen_y = False
    if seen_x or seen_y:
        syllables.append((m, n, 0))
    return Word(tuple(syllables))


@functools.cache
def _syllable_ranks(max_exp: int) -> dict:
    """Rank of each syllable (m, n, e) within max_exp by _scalar_key; keys in rank order."""
    span = range(-max_exp, max_exp + 1)
    syllables = ((m, n, e) for m in span for n in span for e in span if e)
    ordered = sorted(syllables, key=lambda s: tuple(map(_scalar_key, s)))
    return {s: i for i, s in enumerate(ordered)}


@functools.cache
def _moves(max_exp: int, d_left: int, extra_left: int, first: bool) -> tuple:
    """(syllable, rest_d, rest_extra) for each next syllable, in rank order.

    A syllable is next when the rest of the bucket can still be filled: it
    needs between ceil(d / max_exp) and d more syllables, each with a
    nontrivial block costing 1 to 2 * max_exp of extra.  Every state a move
    leads to therefore has at least one completion.
    """
    out = []
    for s in _syllable_ranks(max_exp):
        m, n, e = s
        cost = abs(m) + abs(n)
        rest_d, rest_extra = d_left - abs(e), extra_left - cost
        if (cost or first) and rest_d >= 0:
            if -(-rest_d // max_exp) <= rest_extra <= 2 * max_exp * rest_d:
                out.append((s, rest_d, rest_extra))
    return tuple(out)


@functools.cache
def _completion_count(max_exp: int, d_left: int, extra_left: int) -> int:
    """How many ways the syllables after a word's first can fill (d_left, extra_left)."""
    if not d_left:
        return 1
    moves = _moves(max_exp, d_left, extra_left, False)
    return sum(_completion_count(max_exp, rest_d, rest_extra) for _, rest_d, rest_extra in moves)


def _completions(max_exp: int, d_left: int, extra_left: int, syls: list) -> Iterator[list]:
    """syls followed by each completion of (d_left, extra_left), in rank order.

    Yields syls itself, extended in place; a caller that keeps a word
    copies it.
    """
    if not d_left:
        yield syls
        return
    for s, rest_d, rest_extra in _moves(max_exp, d_left, extra_left, False):
        syls.append(s)
        yield from _completions(max_exp, rest_d, rest_extra, syls)
        syls.pop()


class Run(NamedTuple):
    """count consecutive canonical words, each a later body twin (see the module docstring).

    The words are prefix followed by each completion of the state
    (d_left, extra_left) within max_exp, in canonical order; d_left = 0
    leaves prefix as the one word.  prefix[0] is the leading syllable that
    every word of the run starts with.
    """

    prefix: Tuple[Syllable, ...]
    d_left: int
    extra_left: int
    count: int
    max_exp: int

    def words(self) -> Iterator[Word]:
        """The run's words in order."""
        for syls in _completions(self.max_exp, self.d_left, self.extra_left, list(self.prefix)):
            yield Word._trusted(tuple(syls))


Segment = Union[Word, Run]


def enumerate_segments(max_d: int, max_exp: int) -> Iterator[Segment]:
    """The canonical stream as segments: first words of their bodies, and Runs of twins.

    Expanding every Run into its words gives enumerate_words word for
    word.  Each (d, extra) bucket takes its kept first syllables in rank
    order (see the module docstring's lemma): a trivial block's subtree is
    walked and yields each kept word, a y block's subtree is walked and
    yields each word as a Word or, when its body is kept, as a Run of one,
    and any other positive block's subtree is one Run, counted without a
    walk.  Raises ValueError unless 1 <= max_d and 1 <= max_exp <= MAX_EXP.
    """
    if max_d < 1 or max_exp < 1:
        raise ValueError("max_d and max_exp must be at least 1")
    if max_exp > MAX_EXP:
        raise ValueError(f"max_exp must be at most {MAX_EXP}, got {max_exp}")
    rank = _syllable_ranks(max_exp)
    trusted = Word._trusted

    for d in range(1, max_d + 1):
        for extra in range(0, 2 * max_exp * d + 1):
            for lead, rest_d, rest_extra in _moves(max_exp, d, extra, True):
                m, n, e1 = lead
                if m < 0 or (not m and n < 0):
                    # the inverse in word form ranks first: no word here is kept
                    continue
                if m or n > 1:
                    # every word here is a twin of an earlier word
                    count = _completion_count(max_exp, rest_d, rest_extra)
                    yield Run((lead,), rest_d, rest_extra, count, max_exp)
                    continue
                # r_1 trivial or y: each word is decided by whether its body
                # B = z^e1 ... z^e_last is kept
                body_e1 = rank[(0, 0, e1)]
                for syls in _completions(max_exp, rest_d, rest_extra, [lead]):
                    e_last = syls[-1][2]
                    body_kept = (e1 > 0) == (e_last > 0) and body_e1 < rank[(0, 0, -e_last)]
                    if n and body_kept:
                        # y B, a twin of B
                        yield Run(tuple(syls), 0, 0, 1, max_exp)
                    elif n or body_kept:
                        # B, or y B where B is not kept: the first of its body
                        yield trusted(tuple(syls))


def enumerate_words(max_d: int, max_exp: int) -> Iterator[Word]:
    """Yield every cyclically reduced word within the caps, canonically ordered.

    Order is (d, total exponent sum, syllable key); one representative per
    inverse pair. The stream is fully deterministic, so budget-capped
    consumers see a stable prefix.

    Each (d, extra) bucket is one depth-first walk over syllables taken in
    _scalar_key order, so it comes out sorted.  Words of one bucket never
    prefix each other, so the walk order, syllable by syllable, is the
    order of Word.sort_key.  Of a word and its inverse in word form the
    walk keeps the one whose first syllable comes first; the two first
    syllables never tie, so no other syllable is compared.  The walk is
    enumerate_segments', with each Run expanded into its words.  Words are
    built with Word._trusted, since the walk makes only valid tuples of
    int syllables.  Every call shares the cached ranks and move tables.
    Raises ValueError unless 1 <= max_d and 1 <= max_exp <= MAX_EXP.
    """
    for segment in enumerate_segments(max_d, max_exp):
        if segment.__class__ is Run:
            yield from segment.words()
        else:
            yield segment


class WordStream:
    """A segment stream taken from its source as scans ask, kept for reuse.

    The source yields segments: Words, which a scan evaluates, and Runs,
    whose words a scan counts as scanned (see test_box).  On
    enumerate_segments each Word is the first of its body and each Run
    holds later twins; a source of plain Words, such as enumerate_words,
    gives a stream that evaluates every word.  take() pulls one more
    segment and rejects a power-free word, which has no lower-left entry
    to test, with ValueError.

    segments holds the segments taken so far, in stream order.  Scans name
    a word by the index of its Word segment and break ties by the
    earliest, which is the canonical least only when the source is
    enumerate_segments or enumerate_words.
    """

    __slots__ = ("segments", "_source")

    def __init__(self, source: Iterable[Segment]) -> None:
        self.segments: List[Segment] = []
        self._source = iter(source)

    def take(self) -> bool:
        """Append the source's next segment; False at the end."""
        segment = next(self._source, None)
        if segment is None:
            return False
        if segment.__class__ is not Run and segment.is_pure_translation:
            raise ValueError(f"word stream produced a power-free word: {segment}")
        self.segments.append(segment)
        return True


_ZERO = (0.0, 0.0, 0.0, 0.0)


def _point(k: int) -> tuple:
    """The rectangle of ComplexInterval.point(k)."""
    return (float(k), float(k), 0.0, 0.0)


def _check_finite(rect: tuple, what: str) -> None:
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"endpoints must be finite in {what}, got {rect}")


class GeneratorTriple(dict):
    """Interval enclosures of a, b and c over a box or point, and the scan's table.

    alpha and beta are the translations by a and b, gamma is
    [[c, -1], [1, 0]].  The triple is the scan kernel's per-box context
    and is itself its syllable table: triple[(m, n, e)] is the entry
    (offset, gamma) of one syllable, built on first use by __missing__
    and kept.  offset is the translation offset m*a + n*b of the block
    (m, n), or None when m = n = 0, and gamma the four entries
    (g11, g12, g21, g22) of gamma^e, or None when e = 0.  Both come from
    the endpoints of a, b and c by the operations evaluate_word applies
    to their intervals, so each rectangle is bit-identical to the entry
    of the oracle's factor.  Each offset is built once per block and
    each power once per exponent, and shared by the syllables that hold
    it.  A lookup raises ValueError when an entry overflows, as building
    those intervals does: each entry is checked, and an overflow inside
    the sums and products that make it leaves a non-finite endpoint.
    lower_left_bounds and the scan read the table by subscript, and by
    the body-twin lemma gamma^e's bottom row is the row after a first
    syllable (m, n, e).  Nothing else is held: the oracle evaluate_word
    builds its own matrices from a, b and c.
    """

    __slots__ = ("a", "b", "c", "_offsets", "_unboxed_powers")

    def __init__(self, a: ComplexInterval, b: ComplexInterval, c: ComplexInterval) -> None:
        self.a, self.b, self.c = a, b, c
        self._offsets, self._unboxed_powers = {}, {}

    def __repr__(self) -> str:
        return f"GeneratorTriple(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __missing__(self, syllable: Syllable) -> tuple:
        m, n, e = syllable
        offset = self._offset(m, n) if m or n else None
        entry = self[syllable] = (offset, self._unboxed_power(e) if e else None)
        return entry

    def _offset(self, m: int, n: int) -> tuple:
        """The offset m*a + n*b of a nontrivial block, checked once and kept.

        The offset of x^m is m*a and that of y^n is n*b, the oracle's
        0 + m*a and 0 + n*b bit for bit, since every exactly-zero part of
        a rect_mul result is +0.0.  A two-axis block adds the two, so an
        overflow raises naming the first block that overflows.
        """
        offsets = self._offsets
        hit = offsets.get((m, n))
        if hit is None:
            if m and n:
                hit = rect_add(self._offset(m, 0), self._offset(0, n))
            elif m:
                hit = rect_mul(_point(m), self.a.endpoints())
            else:
                hit = rect_mul(_point(n), self.b.endpoints())
            _check_finite(hit, f"the offset of x^{m} y^{n}")
            offsets[m, n] = hit
        return hit

    def _unboxed_power(self, e: int) -> tuple:
        """gamma^e's entries as rectangles: the oracle's left-to-right product of |e| factors.

        The factors are gamma, or its SL2 adjugate for e < 0.  A loop fills
        the cache, so a large |e| does not recurse.
        """
        powers = self._unboxed_powers
        if e in powers:
            return powers[e]
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


def gens_from_params(p: Union[GeneratorTriple, Params, ParamBox]) -> GeneratorTriple:
    """Generator enclosures for a parameter point or box; a triple comes back as it is.

    Point parameters give zero-width a, b and c, so a word evaluated at a
    point keeps its structurally exact entries exact.
    """
    if isinstance(p, GeneratorTriple):
        return p
    if isinstance(p, Params):
        point = ComplexInterval.point
        return GeneratorTriple(point(p.a), point(p.b), point(p.c))
    return GeneratorTriple(p.a(), p.b(), p.c())


def evaluate_word(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> IntervalMatrix:
    """Certified enclosure of the word's matrix over a point or box.

    This is the oracle route, and the one place the generator matrices are
    built: alpha^m beta^n is [[1, t], [0, 1]] with t = 0 + m*a + n*b, each
    term added only when nonzero, and gamma is [[c, -1], [1, 0]], inverted
    through the SL2 adjugate for e < 0, so no entry is ever divided.
    gamma^e is the left-to-right product of its |e| factors, formed before
    it joins the left-to-right product of the word.  The search scans with
    lower_left_bounds, whose bounds equal this matrix's m21.abs_bounds()
    bit for bit.
    """
    gens = gens_from_params(target)
    point = ComplexInterval.point
    zero, one = point(0.0), point(1.0)
    gamma = IntervalMatrix(gens.c, point(-1.0), one, zero)
    acc: IntervalMatrix | None = None
    for m, n, e in word.syllables:
        if m or n:
            off = zero
            if m:
                off = off + point(float(m)) * gens.a
            if n:
                off = off + point(float(n)) * gens.b
            t = IntervalMatrix(one, off, zero, one)
            acc = t if acc is None else acc @ t
        if e:
            gen = gamma if e > 0 else gamma.inverse_sl2()
            g = gen
            for _ in range(abs(e) - 1):
                g = g @ gen
            acc = g if acc is None else acc @ g
    assert acc is not None
    return acc


def evaluate_word_float(word: Word, p: Params) -> Tuple[complex, complex, complex, complex]:
    """Plain floating-point evaluation, the independent audit route."""
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    gamma = (c, -1.0 + 0j, 1.0 + 0j, 0j)
    gamma_inv = (0j, 1.0 + 0j, -1.0 + 0j, c)
    acc = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    for m, n, e in word.syllables:
        if m or n:
            acc = _cmul2(acc, (1.0 + 0j, m * a + n * b, 0j, 1.0 + 0j))
        step = gamma if e > 0 else gamma_inv
        for _ in range(abs(e)):
            acc = _cmul2(acc, step)
    return acc


def _cmul2(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


_INF = math.inf
# the bottom row (m21, m22) of the identity, as rectangles
_IDENTITY_ROW = (_ZERO, _point(1))


def lower_left_bounds(gens: GeneratorTriple, syllables: tuple) -> tuple:
    """Floats (L, U) enclosing the lower-left entry's modulus of a word over gens.

    This is the scan kernel.  It carries only the bottom row (m21, m22) of
    the left-to-right product, from the identity's, since in acc @ M that
    row depends only on the bottom row of acc, and it reads each
    syllable's unboxed rectangles from gens by subscript.  A leading block
    x^m y^n leaves the identity's row as it is, bit for bit, so body twins
    (see WordStream) get one (L, U), and the row after a first syllable
    (m, n, e) is gamma^e's bottom row, read from the table: only the later
    syllables are stepped here.  The first syllable's whole entry is still
    read, since that is where its block's offset overflow raises, as in
    the oracle.  That row can differ from the stepped one only in the sign
    of an exactly-zero part, and the rectangle arithmetic is the interval
    layer's own, so (L, U) is bit-identical to the oracle
    evaluate_word(word, gens).m21.abs_bounds().

    Raises ValueError when the bottom row overflows.  An infinite or NaN
    endpoint survives every rectangle operation but a product with an
    exact zero, and each row of a generator matrix has a nonzero entry, so
    an overflow anywhere leaves a non-finite endpoint in the final row.
    All eight endpoints are checked there, before the max() in rect_abs
    can drop a NaN, and so is U, since hypot of two finite floats can
    overflow.
    """
    rest = iter(syllables)
    gamma = gens[next(rest)][1]
    row = _IDENTITY_ROW if gamma is None else gamma[2:]
    (rl, rh, il, ih), (sl, sh, jl, jh) = _bottom_row(gens, rest, row)
    # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
    zero_if_finite = (rl - rl) + (rh - rh) + (il - il) + (ih - ih)
    if zero_if_finite + (sl - sl) + (sh - sh) + (jl - jl) + (jh - jh) != 0.0:
        raise ValueError(f"endpoints must be finite in the bottom row of {Word._trusted(syllables)}")
    lo, hi = rect_abs(rl, rh, il, ih)
    if hi == _INF:
        raise ValueError(f"|m21| overflows in the bottom row of {Word._trusted(syllables)}")
    return lo, hi


def _bottom_row(gens: GeneratorTriple, syllables: Iterable[Syllable], row: tuple) -> tuple:
    """The bottom row (r1, r2) of row's matrix times the syllables, left to right.

    A gamma^+-1 step resolves the exact entries of [[c, -1], [1, 0]] and
    [[0, 1], [-1, c]]: one rect_mul by c, one rect_add and one rect_neg,
    where the full step takes four rect_mul and two rect_add.  A product by
    0 is [0, 0], which a sum passes over.  A product by 1 is the row
    itself but for the sign of an all-zero part; rect_add takes a part from
    whichever argument is nonzero there, and from its first argument where
    both are zero, so the rect_mul result, whose zero parts are +0.0, goes
    first.  The step thus keeps the full step's bits.  Other powers take
    four rect_mul.  Nothing here checks the row for overflow.
    """
    r1, r2 = row
    for syllable in syllables:
        offset, gamma = gens[syllable]
        if offset is not None:
            # times [[1, t], [0, 1]]: m21 * 1 + m22 * 0 is m21 exactly
            r2 = rect_add(rect_mul(r1, offset), r2)
        e = syllable[2]
        if e == 1:
            # times [[c, -1], [1, 0]], the exact entries resolved
            r1, r2 = rect_add(rect_mul(r1, gamma[0]), r2), rect_neg(r1)
        elif e == -1:
            # times [[0, 1], [-1, c]], the exact entries resolved
            r1, r2 = rect_neg(r2), rect_add(rect_mul(r2, gamma[3]), r1)
        elif e:
            g11, g12, g21, g22 = gamma
            r1, r2 = (
                rect_add(rect_mul(r1, g11), rect_mul(r2, g21)),
                rect_add(rect_mul(r1, g12), rect_mul(r2, g22)),
            )
    return r1, r2


def lower_left_abs(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> RealInterval:
    """Enclosure [L, U] of the lower-left entry's modulus over the target.

    lower_left_bounds for one word, whatever its body, over
    gens_from_params(target); pass one GeneratorTriple per box, which
    comes through as it is, to build its syllable table once.  [L, U]
    equals the oracle evaluate_word(word, target).m21.abs_bounds() bit for
    bit, and raises ValueError where the kernel does.
    """
    return RealInterval(*lower_left_bounds(gens_from_params(target), word.syllables))


class KillerVerdict(enum.Enum):
    ELIMINATES = "eliminates"
    CANDIDATE_RELATOR = "candidate_relator"
    INCONCLUSIVE = "inconclusive"


def classify_bounds(lo: float, hi: float) -> KillerVerdict:
    """Verdict of an enclosure [lo, hi] of the lower-left entry's modulus.

    ELIMINATES when 0 < lo and hi < 1: no point of the box admits a
    discrete bicuspid group, since the image ball would overlap the
    height-one horoball without coinciding. CANDIDATE_RELATOR when lo = 0
    and hi < 1: only a relation w = identity could save the box, which
    caps covolume.  INCONCLUSIVE when hi >= 1.
    """
    if hi < 1.0:
        return KillerVerdict.ELIMINATES if lo > 0.0 else KillerVerdict.CANDIDATE_RELATOR
    return KillerVerdict.INCONCLUSIVE


def killer_test(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> KillerVerdict:
    """Classify a word's elimination power over a box with classify_bounds."""
    if word.z_count < 1:
        raise ValueError("killer test needs a word with at least one z-syllable")
    bounds = lower_left_abs(word, target)
    return classify_bounds(bounds.lo, bounds.hi)


def volume_bound(word: Word) -> float:
    """Covolume cap pi * (d(w) - 2) for a candidate relator."""
    d = word.z_count
    if d < 1:
        raise ValueError("volume bound needs a word with at least one z-syllable")
    return math.pi * (d - 2)
