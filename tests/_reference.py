"""Helpers the test modules share: the reference search, the oracles and special values.

No test module imports another; what two of them use lives here.

reference_search is run_search rebuilt from the word stream and the
kernel alone, sharing no scan code with search.test_box: every box
evaluates every word of its budget, twins included, with no WordStream,
live dict, dead word, reused bound, inherited table or slot.  Its report
must be run_search's byte for byte, and where run_search raises it must
raise the same ValueError.  The kernel's own bits are pinned to the
full-matrix oracle by _oracle_bits.
"""

import math
import struct
from itertools import chain, islice

from horocusp.bicuspid import Feasibility, box_in_param_space
from horocusp.interval import ComplexInterval, IntervalMatrix
from horocusp.search import (
    BoxStatus,
    BoxVerdict,
    SearchReport,
    _splits,
    aggregate_volume_bound,
    subdivide,
)
from horocusp.words import GEN_A, GEN_B, GEN_C, enumerate_words, gens_from_params, lower_left_bounds
from horocusp.words import volume_bound


def reference_search(cfg, known=None):
    """The report run_search(cfg) must give, from a scan of every word on every box.

    The walk is run_search's: depth first, the 0 child popped before the 1
    child, a box split when it stays undecided, is shallower than
    cfg.max_depth and _splits allows it, and boxes past cfg.max_boxes kept
    as untested undecided leaves.  Each box scans the first
    cfg.word_budget_per_box words of enumerate_words, twins included (see
    _scan_every_word); with cfg.use_parent_word_hint a child's hint is its
    parent's near miss.

    known, a dict or None, keeps what the scans evaluated: for each box,
    keyed by its caps and the bits of its bounds, a list of the bounds
    found for each position of the stream.  A word's bounds on a box are a
    function of those alone, so calls that share known, such as one config
    with the hint on and off, evaluate each word on each box once.
    """
    root = cfg.resolved_root()
    words = list(islice(enumerate_words(cfg.max_d, cfg.max_exp), cfg.word_budget_per_box))
    stack = [] if root is None else [(root, None)]
    leaves, boxes, scanned, incomplete = [], 0, 0, False
    while stack:
        box, hint = stack.pop()
        if cfg.max_boxes and boxes >= cfg.max_boxes:
            incomplete = True
            leaves.append(BoxVerdict(box, BoxStatus.UNDECIDED))
            continue
        boxes += 1
        if known is None:
            found = [None] * len(words)
        else:
            bits = struct.pack("12d", *chain.from_iterable(box.to_bounds()))
            found = known.setdefault((cfg.max_d, cfg.max_exp, bits), [None] * len(words))
        verdict, near = _scan_every_word(box, cfg.area_bound, words, hint, found)
        scanned += verdict.words_scanned
        deeper = len(box.path) < cfg.max_depth
        if verdict.status is BoxStatus.UNDECIDED and deeper and _splits(box, cfg.min_box_width):
            hint = near if cfg.use_parent_word_hint else None
            lo, hi = subdivide(box)
            stack += [(hi, hint), (lo, hint)]
        else:
            leaves.append(verdict)
    return SearchReport(cfg, leaves, aggregate_volume_bound(leaves), boxes, scanned, incomplete)


def _scan_every_word(box, area, words, hint, found):
    """(verdict, near miss) of one box: every word's kernel bounds, in order, the hint first.

    The box's triple is its own, built from its bounds, and its slot is
    emptied before each word, so each word's row is stepped from its first
    syllable.  found[k] holds the bounds of words[k] once evaluated, and
    a word found before is not evaluated again.  A word with 0 < L and U < 1 kills the box, and the verdict
    counts the words visited through it.  Otherwise the candidate is the
    earliest word with U < 1, and the near miss, returned for an undecided
    box, the position with the least (U, position) among words with
    L < 1 <= U.
    """
    if box_in_param_space(box, area) is Feasibility.OUTSIDE:
        return BoxVerdict(box, BoxStatus.ELIMINATED_INFEASIBLE), None
    gens = gens_from_params(box)
    order = range(len(words)) if hint is None else [hint, *(k for k in range(len(words)) if k != hint)]
    candidate, near = None, (math.inf, None)
    for visited, k in enumerate(order, 1):
        if found[k] is None:
            gens._slot = (None, None)
            found[k] = lower_left_bounds(gens, words[k].syllables)
        lo, hi = found[k]
        if hi < 1.0:
            if lo > 0.0:
                return BoxVerdict(box, BoxStatus.ELIMINATED_KILLER, words[k], None, visited), None
            candidate = k if candidate is None else min(candidate, k)
        elif lo < 1.0:
            near = min(near, (hi, k))
    if candidate is not None:
        word = words[candidate]
        return BoxVerdict(box, BoxStatus.CANDIDATE, word, volume_bound(word), len(words)), None
    return BoxVerdict(box, BoxStatus.UNDECIDED, None, None, len(words)), near[1]


# the generator whose endpoints a split on each coordinate changes
_AXIS_GENERATOR = {0: GEN_A, 1: GEN_A, 2: GEN_B, 3: GEN_B, 4: GEN_C, 5: GEN_C}


def _body(word):
    """A key for the word's body: e_1 and the syllables after the first."""
    return word.syllables[0][2], word.syllables[1:]


def _first_of_bodies(words):
    """The words that are the first of their body among words, in order."""
    seen, out = set(), []
    for w in words:
        if _body(w) not in seen:
            seen.add(_body(w))
            out.append(w)
    return out


def _given_parent(box, stream, positions, near_miss=None):
    """An Undecided verdict on box, scanned on stream, whose live maps each of positions to None.

    A None value has no bounds to reuse, so test_box evaluates that word;
    the table is box's own, and near_miss is the children's hint.
    """
    live = dict.fromkeys(positions)
    return BoxVerdict(
        box, BoxStatus.UNDECIDED, near_miss=near_miss, live=live, table=gens_from_params(box),
        stream=stream,
    )


def _outcome(call):
    """call()'s result, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as err:
        return str(err)


def _bits(iv):
    """A RealInterval's endpoints as hex."""
    return (iv.lo.hex(), iv.hi.hex())


def _oracle_bits(box, words):
    """Each word's evaluate_word(word, box).m21.abs_bounds() bits, its products shared.

    The oracle's steps, with each product built once per box: each
    block's translation matrix and each power gamma^e are built as
    evaluate_word builds them, and the words are taken in the order of
    their syllables, so the words that share a prefix come together.  A
    path holds, for each syllable of the last word, the product through
    its block's translation and the product through its power, each an
    IntervalMatrix product of the one before by the next factor.  A word
    steps only the syllables after the prefix it shares with the path,
    and takes the product through the first one's translation from the
    path when the block is the same.  A word's matrix is then the product
    evaluate_word forms, operation for operation, with its bits.
    """
    gens = gens_from_params(box)
    point = ComplexInterval.point
    zero, one = point(0.0), point(1.0)
    gamma = IntervalMatrix(gens.c, point(-1.0), one, zero)
    unit = {1: gamma, -1: gamma.inverse_sl2()}
    translations, powers, out = {}, {}, {}
    # (syllable, product through its translation or None, product through its power)
    path = []
    for w in sorted(words, key=lambda w: w.syllables):
        syllables = w.syllables
        k = 0
        while k < len(path) and k < len(syllables) and path[k][0] == syllables[k]:
            k += 1
        # in sorted order no word is a prefix of the one before, so k < len(syllables)
        shared = path[k][1] if k < len(path) and path[k][0][:2] == syllables[k][:2] else None
        del path[k:]
        acc = path[-1][2] if path else None
        for m, n, e in syllables[k:]:
            through_block = None
            if m or n:
                through_block = shared
                if through_block is None:
                    t = translations.get((m, n))
                    if t is None:
                        off = zero
                        if m:
                            off = off + point(float(m)) * gens.a
                        if n:
                            off = off + point(float(n)) * gens.b
                        t = translations[m, n] = IntervalMatrix(one, off, zero, one)
                    through_block = t if acc is None else acc @ t
                acc = through_block
            shared = None
            g = powers.get(e)
            if g is None:
                gen = g = unit[1 if e > 0 else -1]
                for _ in range(abs(e) - 1):
                    g = g @ gen
                powers[e] = g
            acc = g if acc is None else acc @ g
            path.append(((m, n, e), through_block, acc))
        out[w] = _bits(acc.m21.abs_bounds())
    return out


# special endpoints for the rectangle arithmetic: signed zeros, units,
# tiny and huge magnitudes, infinities and NaN
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, 1e300, -1e300)
_SPECIAL += (math.inf, -math.inf, math.nan)


def _endpoints(rng, special=_SPECIAL):
    """A point or non-point interval, each endpoint special or random."""
    def draw():
        if rng.random() < 0.5:
            return rng.choice(special)
        return rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-3, 3)

    lo = draw()
    if rng.random() < 0.4:
        return lo, lo
    hi = draw()
    return (lo, hi) if not hi < lo else (hi, lo)
