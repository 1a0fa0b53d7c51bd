"""Killer words over the free product of the cusp lattice and the pairing element.

A word is an alternating product r_1 z^(e_1) r_2 z^(e_2) ... r_j z^(e_j)
where each r_i = x^(m_i) y^(n_i) is a nontrivial element of the rank-two
commuting block (r_1 alone may be trivial) and every e_i is a nonzero
integer. Substituting the generators x -> alpha, y -> beta, z -> gamma
turns a word into a Mobius transformation; its lower-left matrix entry
decides elimination. The z-syllable count d(w) = sum |e_i| drives the
covolume bound pi * (d(w) - 2) attached to candidate relators.

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
identity's bottom row, and at a word's last syllable it builds m21, the
entry every verdict reads, and m22 only where a magnitude guard cannot
show it finite: where the operands m22 would read all lie inside
(-2^500, 2^500), m22 is finite, so skipping it skips no error.  Its
rectangle sum and product are the
self-contained interval.rect_add and rect_mul.  A gamma or gamma^-1 step,
nearly every step of a scan, reads c's rectangle straight from the
triple, skips the products by those matrices' exact 0 and 1 entries and
takes the one by -1 as interval.rect_neg; what it skips is exact or a
shortcut, so the row keeps its bits.  The per-box GeneratorTriple,
defined here, holds the scan's two tables: the offset of each block
(m, n) and the power gamma^e of each exponent, each built on first use
and kept; nothing is kept per syllable.  It repeats the oracle's
operations in the same order, so every offset, power and [L, U] keeps
its bits, and a build raises where the oracle's factor overflows.  The
message names the first block that overflows: x^m y^0 or x^0 y^n when
the multiple m*a or n*b itself does, since those are the offsets of x^m
and y^n.  By the body-twin lemma below, the row after a word's first
syllable (m, n, e) is the bottom row of gamma^e.  After z it is the
exact (1, 0) and after z^-1 it is (-1, c), so the kernel takes the row
after the next syllable with no product by an exact operand: after
z t z it is (1*c + t, -1).  1*c, c with its all-zero parts +0.0, and -c
are built once per triple.
The row after a word's first two syllables depends on them and the
table's bits alone, so each triple keeps one slot, that row for the last
word of three or more syllables evaluated, keyed by its first exponent
and second syllable.  A word with the same key steps only its later
syllables, and a slot row has the bits of a stepped one.  In stream
order most words share the previous word's first two syllables.  A word
of two syllables neither reads nor writes the slot: no two Words of a
stream share a first exponent and second syllable, which fix the body.
inherit never copies the slot.
lower_left_abs and killer_test run the kernel for one word.
evaluate_word is the full-matrix route over the interval classes, which
never call the rectangle functions.  It builds its generator matrices
from the triple's a, b and c on each call and shares no table with the
scan; it stays as public API and as the oracle the kernel's bounds are
tested against bit for bit.  The plain-float routes walk rows too:
float_row carries one row through a word's factors with _row_mul, which
repeats a 2x2 product's expressions for that row.  verify_report walks
the bottom row of each sample, and evaluate_word_float is the top and the
bottom row walked by float_row, each with the bits of the full product.

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
is this one.  A WordStream is the cut of the canonical stream within caps
(max_d, max_exp) for one word budget: the segments through the first
whose words reach the budget, taken once, named by those three numbers.
It keeps the cut's Words, which scans name by index, and counts its
twins.

Twin reads: a scan evaluates no twin, yet it raises and decides where a
scan that evaluates every word in stream order would.  A twin r_1 B reads
what the first word of its body B reads, which comes before it, and r_1's
offset besides, so only that offset could raise first at the twin.  A
scan with no enclosing box reads the offset of each leading block of the
cut's Runs once, in stream order, before its first word, and that
raises where the twins would, by three facts about the cut:

(i) nothing in the d = 1 bucket can decide or raise but a twin's
    leading offset: its Words are z and y z^-1, whose |m21| is 1
    exactly, and y's offset 1*b is b's finite endpoints;
(ii) every block's first Run is its d = 1 twin x^m y^n z, so the first
    offset to overflow is the same block's in both scans, and raises
    before any word can decide;
(iii) a later lead's power gamma^e1 was already built by an earlier Word
    of the cut: z^e1, or y z^e1 for e1 < 0, the first word of the stream
    to lead with e1.

Reads: m21_reads(syllables) is the set of generators, as GEN_A, GEN_B and
GEN_C bits, whose endpoints the kernel's m21 reads.  It walks the
syllables as _bottom_row does, with each rectangle replaced by the set of
generators it was built from: a product or a sum reads what its operands
read, and the exact 0, 1 and -1 entries read nothing.  A word's [L, U] is
then a function of those generators' endpoint bits alone, so a box whose
a, b and c differ from another's only outside that set gets the same
[L, U], bit for bit.  The set may hold a generator the value does not
depend on (the -1 of gamma^2's bottom row (c, -1) counts as reading c);
it never misses one the value depends on.

Tables: _syllable_ranks and _moves hold up to (2 max_exp + 1)^2 * 2 max_exp
syllables per entry, so max_exp is capped at MAX_EXP.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union

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
    string raises TypeError, and any other number ValueError.  Every e is
    nonzero, so every word moves infinity and has a lower-left entry to
    test, and d >= 1; a zero e raises ValueError.
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
                raise ValueError(f"zero z-exponent at syllable {i}")

    @property
    def z_count(self) -> int:
        """Total z-exponent magnitude d(w)."""
        return sum(abs(e) for _, _, e in self.syllables)

    @property
    def total_exponents(self) -> int:
        return sum(abs(m) + abs(n) + abs(e) for m, n, e in self.syllables)

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
            pieces.append(_factor("z", e))
        return " ".join(pieces)


# the slot's own setter, which a frozen dataclass's __setattr__ would refuse
_set_syllables = Word.syllables.__set__


def _scalar_key(v: int):
    return (abs(v), 0 if v >= 0 else 1)


def _factor(letter: str, k: int) -> str:
    return letter if k == 1 else f"{letter}^{k}"


def parse_word(text: str) -> Word:
    """Parse the space-separated caret serialization back into a Word.

    A word ends in a z factor: a trailing x^m y^n block raises ValueError.
    """
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
        raise ValueError("a word must end in a z factor")
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
    # Word._trusted, and a Run from its fields in order, without the call
    # frames of a classmethod and of NamedTuple's __new__ on every segment
    new_word, set_syllables, new_tuple = object.__new__, _set_syllables, tuple.__new__
    # a body z^e1 ... z^e_last is kept when e1 and e_last share a sign and
    # z^e1 ranks before z^-e_last: for each e1, the e_last that keep it
    span = range(-max_exp, max_exp + 1)
    kept_lasts = {
        e1: frozenset(
            e for e in span if e and (e1 > 0) == (e > 0) and rank[(0, 0, e1)] < rank[(0, 0, -e)]
        )
        for e1 in span
        if e1
    }

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
                    yield new_tuple(Run, ((lead,), rest_d, rest_extra, count, max_exp))
                    continue
                # r_1 trivial or y: each word is decided by whether its body
                # B = z^e1 ... z^e_last is kept.  The subtree is walked with a
                # stack of move iterators, from the lead as the one root move,
                # so a word costs one step of this loop; _completions, a
                # generator per level, would resume every level for each word.
                kept_last = kept_lasts[e1]
                prefix, moves, stack = (), iter(((lead, rest_d, rest_extra),)), []
                while True:
                    for syllable, left_d, left_extra in moves:
                        if left_d:
                            stack.append((prefix, moves))
                            prefix += (syllable,)
                            moves = iter(_moves(max_exp, left_d, left_extra, False))
                            break
                        syls = prefix + (syllable,)
                        body_kept = syllable[2] in kept_last
                        if n and body_kept:
                            # y B, a twin of B
                            yield new_tuple(Run, (syls, 0, 0, 1, max_exp))
                        elif n or body_kept:
                            # B, or y B where B is not kept: the first of its body
                            word = new_word(Word)
                            set_syllables(word, syls)
                            yield word
                    else:
                        if not stack:
                            break
                        prefix, moves = stack.pop()


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
    """The cut of the canonical stream for one word budget: what every scan at that budget reads.

    WordStream(max_d, max_exp, budget) takes enumerate_segments(max_d,
    max_exp) once, through the first segment whose words reach budget, or
    to its end; nothing past the cut is taken.  It keeps only what a scan
    reads (see search.test_box).  key is (max_d, max_exp, budget): two
    streams with one key are equal, so a scan checks a stream by its key
    alone.

    words holds the cut's Word segments, each the first of its body, in
    stream order: the words a scan evaluates, which scans name by their
    index here, ties going to the earliest, the canonical least.  ends[k]
    is the number of words of the cut through words[k], the twins before
    it included, and scanned, min(budget, the cut's words), the words a
    scan that no word decides counts.  A twin is counted, never evaluated.
    blocks holds the distinct leading blocks (m, n) of the cut's Runs, in
    stream order: the offsets a scan with no enclosing box reads for the
    twins' errors (see the module docstring's twin reads).  first_scan
    maps every index of words to None, in order; a scan with no enclosing
    box reads it as a child reads its parent's live, where a value is an
    (L, U) to reuse and None is none.  budget must be at least 1, else
    ValueError, and the caps are checked as enumerate_segments checks
    them.  masks() gives, by index, the generators each word's m21 reads
    (m21_reads), for scans that reuse a parent box's bounds.
    """

    __slots__ = ("key", "words", "ends", "blocks", "first_scan", "scanned", "_masks")

    def __init__(self, max_d: int, max_exp: int, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget!r}")
        words: List[Word] = []
        ends: List[int] = []
        # a dict keeps each block where it first came
        blocks: Dict[Tuple[int, int], None] = {}
        count = 0
        for segment in enumerate_segments(max_d, max_exp):
            if segment.__class__ is Run:
                count += segment.count
                blocks[segment.prefix[0][:2]] = None
            else:
                count += 1
                words.append(segment)
                ends.append(count)
            if count >= budget:
                break
        self.key, self.words, self.ends = (max_d, max_exp, budget), words, ends
        self.blocks, self.scanned, self._masks = list(blocks), min(budget, count), None
        self.first_scan = dict.fromkeys(range(len(words)))

    def masks(self) -> List[int]:
        """m21_reads of each word, built on the first call.

        A scan with a parent's table reads them (see search.test_box), so
        a stream that only root boxes scan never builds them.
        """
        if self._masks is None:
            self._masks = [m21_reads(w.syllables) for w in self.words]
        return self._masks


_ZERO = (0.0, 0.0, 0.0, 0.0)


def _point(k: int) -> tuple:
    """The rectangle of ComplexInterval.point(k)."""
    return (float(k), float(k), 0.0, 0.0)


_ONE, _MINUS_ONE = _point(1), _point(-1)
# rect_neg(-1), the product of -1 by -1, which rounds 1 outward
_ONE_HULL = rect_neg(_MINUS_ONE)


def _check_finite(rect: tuple, what: str, *args) -> None:
    """ValueError unless every endpoint is finite; what.format(*args) names the entry.

    The name is formatted only when the check fails.
    """
    if not all(map(math.isfinite, rect)):
        raise ValueError(f"endpoints must be finite in {what.format(*args)}, got {rect}")


# A guard on the operands of a word's last m22: a product of two endpoints
# inside (-_SMALL, _SMALL) is at most 2^1000 and a rounding step, so the
# few sums that make m22 stay far below the float range's 2^1024.
_SMALL = 2.0**500


def _small(rect: tuple) -> bool:
    """Whether every endpoint lies in the open interval (-_SMALL, _SMALL); a NaN does not."""
    rl, rh, il, ih = rect
    small = _SMALL
    return -small < rl < small and -small < rh < small and -small < il < small and -small < ih < small


_rect_bytes = struct.Struct("4d").pack


def _same_bits(r: tuple, s: tuple) -> bool:
    """Whether two rectangles' endpoints have the same bits: -0.0 is not 0.0 here."""
    return _rect_bytes(*r) == _rect_bytes(*s)


class GeneratorTriple:
    """Interval enclosures of a, b and c over a box or point, and the scan's tables.

    alpha and beta are the translations by a and b, gamma is
    [[c, -1], [1, 0]].  The triple is the scan kernel's per-box context
    and holds its two tables: the translation offset m*a + n*b of each
    nontrivial block (m, n), and the four entries (g11, g12, g21, g22) of
    gamma^e for each exponent e, each built on first use and kept.  Both
    come from the endpoints of a, b and c by the operations evaluate_word
    applies to their intervals, so each rectangle is bit-identical to the
    entry of the oracle's factor.  No entry is kept per syllable: offset
    gives one block's offset, and entry one syllable's (offset, gamma^e)
    from the two tables, building the offset first, as the oracle does;
    each raises ValueError where what it builds overflows, as building
    those intervals does: each offset and power is checked, and an
    overflow inside the sums and products that make it leaves a
    non-finite endpoint.  The kernel reads the tables directly, c's
    rectangle for a gamma^+-1 step, and 1*c and -c, built here once, for
    the rows after z and z^-1, and whether c is _small, c's part of the
    guard on a word's last m22, also found once.  It also keeps one slot
    here, the row after the first two syllables of the last word it
    evaluated with three or more (see lower_left_bounds).  inherit starts
    a child box's tables from its parent's offsets and powers and names
    the generators that changed; it never copies the slot.  Nothing else
    is held: the oracle evaluate_word builds its own matrices from a, b
    and c.
    """

    __slots__ = (
        "a", "b", "c", "_c", "_c_small", "_one_c", "_minus_c",
        "_offsets", "_unboxed_powers", "_slot",
    )

    def __init__(self, a: ComplexInterval, b: ComplexInterval, c: ComplexInterval) -> None:
        self.a, self.b, self.c = a, b, c
        self._c = c.endpoints()
        # c's part of the guard on a word's last m22 (see _last_step)
        self._c_small = _small(self._c)
        # 1*c and -c, what products of c by a row's exact 1 and -1 give
        self._one_c, self._minus_c = rect_mul(_ONE, self._c), rect_neg(self._c)
        self._offsets, self._unboxed_powers = {}, {}
        # (key, row) in one tuple, so that no reader pairs one word's key with another's row
        self._slot = (None, None)

    def __repr__(self) -> str:
        return f"GeneratorTriple(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def inherit(self, parent: "GeneratorTriple") -> int:
        """Start the tables from parent's: the offsets and powers they would build bit for bit.

        The offset of x^m reads only a's endpoints, that of y^n only b's
        and a two-axis block both, and gamma's powers read only c's.  So
        each offset whose generators' endpoints equal parent's, signed
        zeros included, is kept, and the powers when c's do.  It replaces
        this triple's tables, so it is called on a fresh triple, and the
        kept entries go into new dicts, so the parent's never change.  The
        slot is not copied: it holds a row of parent's.
        Returns the generators whose endpoints differ, as GEN_* bits: a
        word whose m21_reads misses them has parent's (L, U) here.
        """
        same_a = _same_bits(self.a.endpoints(), parent.a.endpoints())
        same_b = _same_bits(self.b.endpoints(), parent.b.endpoints())
        same_c = _same_bits(self._c, parent._c)
        if same_a or same_b:
            self._offsets = {
                block: offset
                for block, offset in parent._offsets.items()
                if (same_a or not block[0]) and (same_b or not block[1])
            }
        if same_c:
            self._unboxed_powers = dict(parent._unboxed_powers)
        return (0 if same_a else GEN_A) | (0 if same_b else GEN_B) | (0 if same_c else GEN_C)

    def entry(self, syllable: Syllable) -> tuple:
        """(offset, gamma^e) of the syllable (m, n, e): offset None for a trivial block.

        The offset is read first, so an overflow raises where the oracle's
        first overflowing factor does.
        """
        m, n, e = syllable
        return (self.offset(m, n) if m or n else None), self._unboxed_power(e)

    def offset(self, m: int, n: int) -> tuple:
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
                hit = rect_add(self.offset(m, 0), self.offset(0, n))
            elif m:
                hit = rect_mul(_point(m), self.a.endpoints())
            else:
                hit = rect_mul(_point(n), self.b.endpoints())
            _check_finite(hit, "the offset of x^{} y^{}", m, n)
            offsets[m, n] = hit
        return hit

    def _unboxed_power(self, e: int) -> tuple:
        """gamma^e's entries as rectangles: the oracle's left-to-right product of |e| factors.

        The factors are gamma, or its SL2 adjugate for e < 0.  A loop fills
        the cache, so a large |e| does not recurse.  Every entry of a power
        with |e| >= 2 is a sum of two rect_mul results, so each of its
        all-zero parts is +0.0.
        """
        powers = self._unboxed_powers
        if e in powers:
            return powers[e]
        c = self._c
        if e > 0:
            step, gen = 1, (c, _MINUS_ONE, _ONE, _ZERO)
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
                    _check_finite(entry, "gamma^{}", k)
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
        gen = gamma if e > 0 else gamma.inverse_sl2()
        g = gen
        for _ in range(abs(e) - 1):
            g = g @ gen
        acc = g if acc is None else acc @ g
    return acc


def evaluate_word_float(word: Word, p: Params) -> Tuple[complex, complex, complex, complex]:
    """Plain floating-point evaluation, the independent audit route: both rows by float_row."""
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    return float_row(word, a, b, c, (1.0 + 0j, 0j)) + float_row(word, a, b, c, (0j, 1.0 + 0j))


def float_row(word: Word, a: complex, b: complex, c: complex, row: tuple) -> tuple:
    """row times the word's float matrix at (a, b, c), one _row_mul per factor.

    From (0, 1) it gives the bottom row (m21, m22), from (1, 0) the top
    row; each entry has the bits of evaluate_word_float's.
    """
    gamma = (c, -1.0 + 0j, 1.0 + 0j, 0j)
    gamma_inv = (0j, 1.0 + 0j, -1.0 + 0j, c)
    for m, n, e in word.syllables:
        if m or n:
            row = _row_mul(row, (1.0 + 0j, m * a + n * b, 0j, 1.0 + 0j))
        step = gamma if e > 0 else gamma_inv
        for _ in range(abs(e)):
            row = _row_mul(row, step)
    return row


def _row_mul(r: tuple, y: tuple) -> tuple:
    """The row r times the 2x2 matrix y, each entry as a row of a 2x2 product spells it."""
    return (r[0] * y[0] + r[1] * y[2], r[0] * y[1] + r[1] * y[3])


_INF = math.inf

def lower_left_bounds(gens: GeneratorTriple, syllables: tuple) -> tuple:
    """Floats (L, U) enclosing the lower-left entry's modulus of a word over gens.

    This is the scan kernel.  It carries only the bottom row (m21, m22) of
    the left-to-right product, from the identity's, since in acc @ M that
    row depends only on the bottom row of acc, and it reads each block's
    offset and each power of gamma from gens' tables.  At the last
    syllable it builds m21, and m22 only after z, where it is -r1 and
    takes no product, or where the guard below cannot show it finite.  A
    leading block x^m y^n leaves the identity's row as it is, bit for
    bit, so body twins (see WordStream) get one (L, U); its offset is
    still read, since that is where its overflow raises, as in the oracle.
    The row after a first syllable (m, n, e1) is then gamma^e1's bottom
    row.  For e1 = 1 that row is the exact (1, 0) and for e1 = -1 it is
    (-1, c), so the row after the second syllable is taken with no
    product by an exact operand: after z t z it is (1*c + t, -1), with the
    stepped row's bits (see _row_after_unit).

    The row after the first two syllables is a function of e1, the second
    syllable and the table's bits alone, so gens keeps one slot: that row
    for the last word evaluated with three or more syllables, keyed by
    (e1, second syllable).  A word whose key matches takes the slot's row
    and steps only its later syllables; in stream order most words share
    the previous word's first two syllables.  A two-syllable word neither
    reads nor writes the slot: by the body lemma, two Words with one key
    and two syllables would be one word, so in a scan it could never hit.
    Every offset and power the slot's row read was built and checked when
    it was filled, so a hit skips no ValueError.  The slot's row has the
    bits of the stepped row, and the rectangle arithmetic is the interval
    layer's own, so (L, U) is bit-identical to the oracle
    evaluate_word(word, gens).m21.abs_bounds(), whatever words gens
    evaluated before.

    Raises ValueError when an offset or a power overflows, where the
    oracle's factor does, or when the full bottom row does.  An infinite
    or NaN endpoint survives every rectangle operation but a product with
    an exact zero, and each row of a generator matrix has a nonzero entry,
    so an overflow anywhere leaves a non-finite endpoint in the final row.
    The guard: when every endpoint of the operands the last m22 would
    read, the row after the last syllable's offset step and c or
    gamma^e's g12 and g22, lies inside (-2^500, 2^500) (_small; a NaN
    does not), each product m22 takes is at most 2^1000 and a rounding
    step, and its few sums stay far inside the float range, so m22 is
    finite and is not built.  m21's four endpoints are then checked.
    Otherwise m22 is built by the full step and all eight endpoints are
    checked, as for a one-syllable word and after a last z.  Either way
    the check raises exactly where one of the whole final row would, and
    comes before the max() in rect_abs can drop a NaN; U is checked too,
    since hypot of two finite floats can overflow.
    """
    m, n, e1 = syllables[0]
    if (m or n) and (m, n) not in gens._offsets:
        # the row skips the leading block, but its offset's overflow raises
        gens.offset(m, n)
    j = len(syllables)
    if j == 1:
        m21, m22 = gens._unboxed_power(e1)[2:]
    elif j == 2:
        # no slot: two Words with one e1 and second syllable are one word
        if e1 == 1 or e1 == -1:
            m21, m22 = _row_after_unit(gens, e1, syllables[1], last=True)
        else:
            m21, m22 = _last_step(gens, gens._unboxed_power(e1)[2:], syllables[1])
    else:
        key = (e1, syllables[1])
        held, row = gens._slot
        if held != key:
            if e1 == 1 or e1 == -1:
                row = _row_after_unit(gens, e1, syllables[1], last=False)
            else:
                row = _bottom_row(gens, syllables[1:2], gens._unboxed_power(e1)[2:])
            gens._slot = (key, row)
        if j > 3:
            row = _bottom_row(gens, syllables[2:-1], row)
        m21, m22 = _last_step(gens, row, syllables[-1])
    rl, rh, il, ih = m21
    # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
    zero_if_finite = (rl - rl) + (rh - rh) + (il - il) + (ih - ih)
    if m22 is not None:
        sl, sh, jl, jh = m22
        zero_if_finite += (sl - sl) + (sh - sh) + (jl - jl) + (jh - jh)
    if zero_if_finite != 0.0:
        raise ValueError(f"endpoints must be finite in the bottom row of {Word._trusted(syllables)}")
    lo, hi = rect_abs(rl, rh, il, ih)
    if hi == _INF:
        raise ValueError(f"|m21| overflows in the bottom row of {Word._trusted(syllables)}")
    return lo, hi


def _row_after_unit(gens: GeneratorTriple, e1: int, second: Syllable, last: bool) -> tuple:
    """The bottom row after a first syllable with exponent e1 = +-1 and the syllable second.

    The row after z is the exact (1, 0), and after z^-1 it is (-1, c),
    whose -1 is gamma^-1's, with imaginary part -0.0.  A product by the
    exact 1 is the other operand itself, since every all-zero part of an
    offset or of a power gamma^e with |e| >= 2 is +0.0 (see
    GeneratorTriple), and a product by the exact -1 is rect_neg of the
    other operand, bit for bit, since its imaginary part is zero.  So no
    rect_mul by an exact operand is taken.  Times [[1, t], [0, 1]] the
    row is (s, r2) = (1, t) or (-1, c - t).  Then gamma's step gives
    (s*c + r2, -s), where s*c is the triple's 1*c or -c, gamma^-1's
    gives (-r2, r2*c + s), and gamma^e's, for |e| >= 2, gives
    (s*g11 + r2*g21, s*g12 + r2*g22).  Each is the stepped row's bits:
    the sign of s's zero imaginary part reaches no result, since a sum
    takes a zero part from its other operand.  The block's offset is read
    before gamma^e, as the oracle builds them.  When second is the last
    syllable, last is true and m22 is None where the guard shows it
    finite (see lower_left_bounds); s is an exact +-1, so the guard reads
    r2 and c or g12 and g22.
    """
    m, n, e = second
    t = gens.offset(m, n) if m or n else _ZERO
    if e1 == 1:
        s, r2, s_c, minus_s = _ONE, t, gens._one_c, _MINUS_ONE
    else:
        s, r2 = _MINUS_ONE, rect_add(rect_neg(t), gens._c)
        s_c, minus_s = gens._minus_c, _ONE_HULL
    if e == 1:
        return rect_add(s_c, r2), minus_s
    if e == -1:
        if last and gens._c_small and _small(r2):
            return rect_neg(r2), None
        return rect_neg(r2), rect_add(rect_mul(r2, gens._c), s)
    g11, g12, g21, g22 = gens._unboxed_power(e)
    if e1 == -1:
        g11 = rect_neg(g11)
    m21 = rect_add(g11, rect_mul(r2, g21))
    if last and _small(r2) and _small(g12) and _small(g22):
        return m21, None
    if e1 == -1:
        g12 = rect_neg(g12)
    return m21, rect_add(g12, rect_mul(r2, g22))


def _last_step(gens: GeneratorTriple, row: tuple, syllable: Syllable) -> tuple:
    """(m21, m22) of row times the syllable's factors, m22 None where the guard shows it finite.

    The offset step and m21 are _bottom_row's expressions, so m21 has the
    stepped row's bits.  After z, m22 is -r1, which takes no product.
    Otherwise m22 is built by the full step, _bottom_row, only when an
    operand it reads, r1 and r2 after the offset step and c or gamma^e's
    g12 and g22, is not _small.
    """
    r1, r2 = row
    m, n, e = syllable
    if m or n:
        t = gens._offsets.get((m, n)) or gens.offset(m, n)
        r2 = rect_add(rect_mul(r1, t), r2)
    if e == 1:
        return rect_add(rect_mul(r1, gens._c), r2), rect_neg(r1)
    if e == -1:
        if gens._c_small and _small(r1) and _small(r2):
            return rect_neg(r2), None
    else:
        g11, g12, g21, g22 = gens._unboxed_powers.get(e) or gens._unboxed_power(e)
        if _small(r1) and _small(r2) and _small(g12) and _small(g22):
            return rect_add(rect_mul(r1, g11), rect_mul(r2, g21)), None
    return _bottom_row(gens, (syllable,), row)


def _bottom_row(gens: GeneratorTriple, syllables: Iterable[Syllable], row: tuple) -> tuple:
    """The bottom row (r1, r2) of row's matrix times the syllables, left to right.

    A gamma^+-1 step resolves the exact entries of [[c, -1], [1, 0]] and
    [[0, 1], [-1, c]], reading c's rectangle from gens: one rect_mul by c,
    one rect_add and one rect_neg, where the full step takes four rect_mul
    and two rect_add.  A product by 0 is [0, 0], which a sum passes over.
    A product by 1 is the row itself but for the sign of an all-zero
    part; rect_add takes a part from whichever argument is nonzero there,
    and from its first argument where both are zero, so the rect_mul
    result, whose zero parts are +0.0, goes first.  The step thus keeps
    the full step's bits.  Other powers take four rect_mul.  Each
    syllable's offset is read before its power, as the oracle builds
    them, so an overflow raises where the oracle's does.  Nothing here
    checks the row for overflow.
    """
    r1, r2 = row
    offsets, powers, c = gens._offsets, gens._unboxed_powers, gens._c
    for m, n, e in syllables:
        if m or n:
            # times [[1, t], [0, 1]]: m21 * 1 + m22 * 0 is m21 exactly
            t = offsets.get((m, n)) or gens.offset(m, n)
            r2 = rect_add(rect_mul(r1, t), r2)
        if e == 1:
            # times [[c, -1], [1, 0]], the exact entries resolved
            r1, r2 = rect_add(rect_mul(r1, c), r2), rect_neg(r1)
        elif e == -1:
            # times [[0, 1], [-1, c]], the exact entries resolved
            r1, r2 = rect_neg(r2), rect_add(rect_mul(r2, c), r1)
        else:
            g11, g12, g21, g22 = powers.get(e) or gens._unboxed_power(e)
            r1, r2 = (
                rect_add(rect_mul(r1, g11), rect_mul(r2, g21)),
                rect_add(rect_mul(r1, g12), rect_mul(r2, g22)),
            )
    return r1, r2


# the generators a rectangle is built from, as bits of one int
GEN_A, GEN_B, GEN_C = 1, 2, 4
GEN_ALL = GEN_A | GEN_B | GEN_C


def m21_reads(syllables: Tuple[Syllable, ...]) -> int:
    """The generators, as GEN_* bits, whose endpoints lower_left_bounds' (L, U) reads.

    _bottom_row's steps over sets: the row after the first syllable
    (m, n, e1) is gamma^e1's bottom row, (1, 0) for e1 = 1, (-1, c) for
    e1 = -1 and both entries read from c otherwise.  Every later block is
    nontrivial, and its offset step adds r1's set and the block's
    generators to r2's; a gamma step gives each new entry the sets of the
    entries and of c it is made from.  (L, U) is read from r1 alone.
    """
    e1 = syllables[0][2]
    r1, r2 = (0, 0) if e1 == 1 else (0, GEN_C) if e1 == -1 else (GEN_C, GEN_C)
    for m, n, e in syllables[1:]:
        r2 |= r1 | (GEN_A if m else 0) | (GEN_B if n else 0)
        if e == 1:
            r1, r2 = r1 | r2 | GEN_C, r1
        elif e == -1:
            r1, r2 = r2, r1 | r2 | GEN_C
        else:
            r1 = r2 = r1 | r2 | GEN_C
    return r1


def lower_left_abs(word: Word, target: Union[GeneratorTriple, Params, ParamBox]) -> RealInterval:
    """Enclosure [L, U] of the lower-left entry's modulus over the target.

    lower_left_bounds for one word, whatever its body, over
    gens_from_params(target); pass one GeneratorTriple per box, which
    comes through as it is, to build its offsets and powers once and
    share its slot between words.  [L, U] equals the oracle
    evaluate_word(word, target).m21.abs_bounds() bit for bit, whatever
    words the triple evaluated before, and raises ValueError where the
    kernel does.
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
    bounds = lower_left_abs(word, target)
    return classify_bounds(bounds.lo, bounds.hi)


def volume_bound(word: Word) -> float:
    """Covolume cap pi * (d(w) - 2) for a candidate relator."""
    return math.pi * (word.z_count - 2)
