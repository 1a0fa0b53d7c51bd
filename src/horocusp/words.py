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

Evaluation: lower_left_abs is the scan kernel behind killer_test and the
search.  It propagates only the bottom row of the product on unboxed float
rectangles, and resumes each word from the row of the longest syllable
prefix it shares with the last word scanned on the same GeneratorTriple.
The stream is a depth-first walk, so consecutive words share long prefixes.
A prefix's row is the same left-to-right sequence of operations whatever
follows it, so reuse changes no bit.  Its rectangle product is the
self-contained interval.rect_mul.  evaluate_word is the full-matrix route
over the interval classes, which never call rect_mul; it stays as public
API and as the oracle the kernel's bounds are tested against bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

from .bicuspid import GeneratorTriple, ParamBox, Params, gens_from_params
from .interval import IntervalMatrix, RealInterval, rect_abs, rect_add, rect_mul

Syllable = Tuple[int, int, int]

_TOKEN = re.compile(r"^([xyz])(?:\^(-?\d+))?$")


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable syllable sequence, each syllable a triple (m, n, e)."""

    syllables: Tuple[Syllable, ...]

    def __post_init__(self) -> None:
        syls = tuple((int(m), int(n), int(e)) for m, n, e in self.syllables)
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
    nontrivial block costing 1 to 2 * max_exp of extra.
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
    syllables never tie, so no other syllable is compared.  Words are
    built with Word._trusted, since the walk makes only valid tuples of
    int syllables.  Every call shares the cached ranks and move tables.
    """
    if max_d < 1 or max_exp < 1:
        raise ValueError("max_d and max_exp must be at least 1")
    rank = _syllable_ranks(max_exp)
    trusted = Word._trusted

    def walk(d_left: int, extra_left: int, syls: list) -> Iterator[Word]:
        for s, rest_d, rest_extra in _moves(max_exp, d_left, extra_left, not syls):
            syls.append(s)
            if rest_d:
                yield from walk(rest_d, rest_extra, syls)
            else:
                first = m1, n1, e1 = syls[0]
                e_last = s[2]
                # Cyclically reduced, and smaller than the inverse in word
                # form, whose first syllable is (-m1, -n1, -e_last).  The first
                # syllables decide: they would tie only for m1 = n1 = 0 and
                # e1 = -e_last, a word that is not cyclically reduced.
                reduced = m1 or n1 or (e1 > 0) == (e_last > 0)
                if reduced and rank[first] < rank[(-m1, -n1, -e_last)]:
                    yield trusted(tuple(syls))
            syls.pop()

    for d in range(1, max_d + 1):
        for extra in range(0, 2 * max_exp * d + 1):
            yield from walk(d, extra, [])


def evaluate_word(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> IntervalMatrix:
    """Certified enclosure of the word's matrix over a point or box.

    Left-to-right product, one translation enclosure per commuting block
    and cached powers of the pairing element. Inverses go through the SL2
    adjugate, so no entry is ever divided.  This is the oracle route: the
    search scans with lower_left_abs, whose bounds equal this matrix's
    m21.abs_bounds() bit for bit.
    """
    gens = target if isinstance(target, GeneratorTriple) else gens_from_params(target)
    acc: IntervalMatrix | None = None
    for m, n, e in word.syllables:
        if m or n:
            t = gens.translation(m, n)
            acc = t if acc is None else acc @ t
        if e:
            g = gens.gamma_power(e)
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


def lower_left_abs(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> RealInterval:
    """Enclosure [L, U] of the lower-left entry's modulus over the target.

    This is the scan kernel.  It carries only the bottom row (m21, m22) of
    the left-to-right product, since in acc @ M that row depends only on
    the bottom row of acc, and it works on the unboxed rectangles the
    GeneratorTriple caches per syllable.  The rectangle arithmetic is the
    interval layer's own, so [L, U] is bit-identical to the oracle
    evaluate_word(word, target).m21.abs_bounds(); pass one GeneratorTriple
    per box to build the enclosures once.

    The GeneratorTriple also keeps the row after each syllable of the last
    word it scanned.  The word starts from the row of the longest syllable
    prefix it shares with that word, and the list is cut back to that
    prefix before the new syllables' rows are pushed.  The row after a
    prefix is the same sequence of rect_mul and rect_add calls whatever
    follows it, so [L, U] does not depend on the order words come in.

    Raises ValueError when the bottom row overflows.  An infinite or NaN
    endpoint survives every rectangle operation but a product with an
    exact zero, and each row of a generator matrix has a nonzero entry, so
    an overflow anywhere leaves a non-finite endpoint in the final row.
    Both entries are checked there, before the max() in rect_abs can drop
    a NaN, and so is U, since hypot of two finite floats can overflow.
    Having checked them, the kernel builds [L, U] without RealInterval's
    checks.
    """
    gens = target if isinstance(target, GeneratorTriple) else gens_from_params(target)
    syllables = word.syllables
    rows = gens._rows
    kept = 0
    for (syllable, _, _), own in zip(rows, syllables):
        if syllable != own:
            break
        kept += 1
    del rows[kept:]
    r1, r2 = rows[-1][1:] if rows else (_ZERO, _ONE)
    for syllable in syllables[kept:]:
        offset, gamma = gens.unboxed_syllable(syllable)
        if offset is not None:
            # times [[1, t], [0, 1]]: m21 * 1 + m22 * 0 is m21 exactly
            r2 = rect_add(rect_mul(r1, offset), r2)
        if gamma is not None:
            g11, g12, g21, g22 = gamma
            r1, r2 = (
                rect_add(rect_mul(r1, g11), rect_mul(r2, g21)),
                rect_add(rect_mul(r1, g12), rect_mul(r2, g22)),
            )
        rows.append((syllable, r1, r2))
    if not all(map(math.isfinite, r1 + r2)):
        raise ValueError(f"endpoints must be finite in the bottom row of {word}")
    lo, hi = rect_abs(*r1)
    if hi == math.inf:
        raise ValueError(f"|m21| overflows in the bottom row of {word}")
    return RealInterval._trusted(lo, hi)


_ZERO = (0.0, 0.0, 0.0, 0.0)
_ONE = (1.0, 1.0, 0.0, 0.0)


class KillerVerdict(enum.Enum):
    ELIMINATES = "eliminates"
    CANDIDATE_RELATOR = "candidate_relator"
    INCONCLUSIVE = "inconclusive"


def classify_bounds(bounds: RealInterval) -> KillerVerdict:
    """Verdict of an enclosure [L, U] of the lower-left entry's modulus.

    ELIMINATES when 0 < L and U < 1: no point of the box admits a discrete
    bicuspid group, since the image ball would overlap the height-one
    horoball without coinciding. CANDIDATE_RELATOR when L = 0 and U < 1:
    only a relation w = identity could save the box, which caps covolume.
    INCONCLUSIVE when U >= 1.
    """
    if bounds.hi < 1.0:
        return KillerVerdict.ELIMINATES if bounds.lo > 0.0 else KillerVerdict.CANDIDATE_RELATOR
    return KillerVerdict.INCONCLUSIVE


def killer_test(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> KillerVerdict:
    """Classify a word's elimination power over a box with classify_bounds."""
    if word.z_count < 1:
        raise ValueError("killer test needs a word with at least one z-syllable")
    return classify_bounds(lower_left_abs(word, target))


def volume_bound(word: Word) -> float:
    """Covolume cap pi * (d(w) - 2) for a candidate relator."""
    d = word.z_count
    if d < 1:
        raise ValueError("volume bound needs a word with at least one z-syllable")
    return math.pi * (d - 2)
