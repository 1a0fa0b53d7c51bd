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

Canonical order: words are produced sorted by (d, total exponent sum,
syllable-wise lexicographic key) with positive exponents ordering before
negative ones of the same magnitude. Exactly one representative of each
inverse pair {w, w^-1} is produced, the smaller under that same key, with
the inverse rewritten into word form by one cyclic rotation.

Serialization: factors space-separated with caret exponents, exponent one
omitted, e.g. "x^2 y^-1 z x z^-1".
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Tuple, Union

from .bicuspid import GeneratorTriple, ParamBox, Params, gens_from_params
from .interval import IntervalMatrix, RealInterval

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
        return self.z_count == 0

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


def _blocks_with_sum(c: int, max_exp: int) -> List[Tuple[int, int]]:
    """All commuting blocks (m, n) with |m| + |n| = c under the exponent cap."""
    if c == 0:
        return [(0, 0)]
    out = []
    for am in range(0, min(c, max_exp) + 1):
        an = c - am
        if an > max_exp:
            continue
        ms = (am,) if am == 0 else (am, -am)
        ns = (an,) if an == 0 else (an, -an)
        for m in ms:
            for n in ns:
                out.append((m, n))
    return out


def _compositions(total: int, parts: int, lo: int, hi: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    for head in range(lo, min(hi, total - lo * (parts - 1)) + 1):
        for rest in _compositions(total - head, parts - 1, lo, hi):
            yield (head,) + rest


def enumerate_words(max_d: int, max_exp: int) -> Iterator[Word]:
    """Yield every cyclically reduced word within the caps, canonically ordered.

    Order is (d, total exponent sum, syllable key); one representative per
    inverse pair. The stream is fully deterministic, so budget-capped
    consumers see a stable prefix.
    """
    if max_d < 1 or max_exp < 1:
        raise ValueError("max_d and max_exp must be at least 1")
    block_cache = {c: _blocks_with_sum(c, max_exp) for c in range(0, 2 * max_exp + 1)}
    for d in range(1, max_d + 1):
        for extra in range(0, 2 * max_exp * d + 1):
            bucket = []
            for word in _raw_words(d, extra, max_exp, block_cache):
                if not word.cyclically_reduced:
                    continue
                key = word.sort_key()
                if key <= word.inverse_in_form().sort_key():
                    bucket.append((key, word))
            bucket.sort(key=lambda kw: kw[0])
            for _, word in bucket:
                yield word


def _raw_words(d: int, extra: int, max_exp: int, block_cache) -> Iterator[Word]:
    """All candidate words with z-count d and commuting exponent sum extra."""
    for j in range(max(1, -(-d // max_exp)), d + 1):
        if extra > 2 * max_exp * j:
            continue
        for eps_abs in _compositions(d, j, 1, max_exp):
            sign_choices = list(product((1, -1), repeat=j))
            if j == 1:
                first_parts = range(extra, extra + 1)
            else:
                first_parts = range(0, min(extra - (j - 1) + 1, 2 * max_exp + 1))
            for c1 in first_parts:
                if c1 > 2 * max_exp:
                    continue
                rest = extra - c1
                tail_comps = (
                    [()]
                    if j == 1
                    else list(_compositions(rest, j - 1, 1, 2 * max_exp))
                )
                for tail in tail_comps:
                    cparts = (c1,) + tail
                    block_lists = [block_cache[c] for c in cparts]
                    for blocks in product(*block_lists):
                        for signs in sign_choices:
                            syls = tuple(
                                (blocks[i][0], blocks[i][1], signs[i] * eps_abs[i])
                                for i in range(j)
                            )
                            yield Word(syls)


def evaluate_word(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> IntervalMatrix:
    """Certified enclosure of the word's matrix over a point or box.

    Left-to-right product, one translation enclosure per commuting block
    and cached powers of the pairing element. Inverses go through the SL2
    adjugate, so no entry is ever divided.
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
    """Enclosure [L, U] of the lower-left entry's modulus over the target."""
    return evaluate_word(word, target).m21.abs_bounds()


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
