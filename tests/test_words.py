"""Word model: enumeration against a brute-force oracle, evaluation, killer test."""

import math
import random
import re
from collections import Counter
from itertools import islice, zip_longest

import pytest

from horocusp import search as search_module
from horocusp import words as words_module
from horocusp.bicuspid import ParamBox, Params, param_space
from horocusp.interval import (
    ComplexInterval,
    IntervalMatrix,
    RealInterval,
    rect_abs,
    rect_add,
    rect_mul,
)
from horocusp.search import SearchConfig, subdivide, test_box
from horocusp.words import (
    GEN_A,
    GEN_B,
    GEN_C,
    MAX_EXP,
    KillerVerdict,
    Word,
    WordStream,
    enumerate_words,
    evaluate_word,
    evaluate_word_float,
    float_row,
    gens_from_params,
    killer_test,
    lower_left_abs,
    lower_left_bounds,
    parse_word,
    volume_bound,
)

from _reference import _AXIS_GENERATOR, _SPECIAL, _bits, _body, _endpoints, _oracle_bits, _outcome

REF = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 2.0)


def _mat_of(word, p):
    """Independent float product used to ground oracle identities."""
    acc = (1 + 0j, 0j, 0j, 1 + 0j)
    gamma = (p.c, -1 + 0j, 1 + 0j, 0j)
    gamma_inv = (0j, 1 + 0j, -1 + 0j, p.c)
    for m, n, e in word:
        mats = [(1 + 0j, m * p.a + n * p.b, 0j, 1 + 0j)] if (m or n) else []
        mats += [gamma if e > 0 else gamma_inv] * abs(e)
        for t in mats:
            acc = (
                acc[0] * t[0] + acc[1] * t[2],
                acc[0] * t[1] + acc[1] * t[3],
                acc[2] * t[0] + acc[3] * t[2],
                acc[2] * t[1] + acc[3] * t[3],
            )
    return acc


def test_word_validation() -> None:
    for bad in (
        (),
        ((0, 0, 0),),
        ((1, 0, 1), (0, 0, 1)),
        ((0, 0, 0), (1, 0, 1)),
        ((1, 0, 0), (1, 0, 1)),
        # a pure translation moves no point off infinity: no lower-left entry to test
        ((2, 1, 0),),
        ((0, 0, 1), (1, 0, 0)),
    ):
        try:
            Word(tuple(bad))
            assert False, f"expected ValueError for {bad}"
        except ValueError:
            pass
    Word(((0, 0, 1),))
    Word(((0, 0, 2), (1, -1, -1)))


def test_word_checks_its_syllable_entries() -> None:
    """Entries are checked as SearchConfig checks its integer settings."""
    for bad in ((0, 0, "2"), (True, 0, 1), (0, False, 1), (0, 0, None)):
        with pytest.raises(TypeError, match="syllable entry"):
            Word((bad,))
    for bad in ((0, 0, 1.5), (0.5, 0, 1), (0, 0, math.inf), (0, 0, math.nan), (0, 0, 10**400)):
        with pytest.raises(ValueError, match="syllable entry"):
            Word((bad,))
    w = Word(((2.0, 0, -1.0), (1, -1, 2)))
    assert w.syllables == ((2, 0, -1), (1, -1, 2))
    assert all(type(v) is int for s in w.syllables for v in s)


def test_serialization_round_trip():
    w = Word(((2, -1, 1), (1, 0, -1)))
    assert str(w) == "x^2 y^-1 z x z^-1"
    assert parse_word(str(w)) == w
    assert str(parse_word("z x z")) == "z x z"
    assert parse_word("z^2") == Word(((0, 0, 2),))
    # a word with no z factor is no word: neither route builds one
    with pytest.raises(ValueError, match="a word must end in a z factor"):
        parse_word("x^2 y")
    with pytest.raises(ValueError, match="zero z-exponent at syllable 0"):
        Word(((2, 1, 0),))


def test_parse_rejects_malformed() -> None:
    for bad in ("", "w z", "x^0 z", "x x z", "y x z", "z z", "x ^2"):
        try:
            parse_word(bad)
            assert False, f"expected ValueError for {bad!r}"
        except ValueError:
            pass


def test_z_count_examples():
    assert Word(((0, 0, 1), (1, 0, 1))).z_count == 2
    assert Word(((0, 0, 1),)).z_count == 1
    assert parse_word("z x z^-2 y z").z_count == 4
    # every word has a z-syllable, so d >= 1; a text or a syllable without one raises
    for text in ("x", "y^-2", "x^2 y", "z", "x z^-1", "z x z^-2 y z", "z x", "z x y^-2 z"):
        if "z" in text.split()[-1]:
            assert parse_word(text).z_count >= 1, text
        else:
            with pytest.raises(ValueError, match="a word must end in a z factor"):
                parse_word(text)
    with pytest.raises(ValueError, match="zero z-exponent"):
        Word(((2, 1, 0),))


def test_depth_one_enumeration_content():
    words = list(enumerate_words(1, 1))
    assert len(words) == 9
    assert all(w.z_count == 1 for w in words)
    produced = set(words)
    for text in ("z", "x z", "y z", "x y z", "x^-1 z"):
        w = parse_word(text)
        assert w in produced or w.inverse_in_form() in produced
    assert words[0] == parse_word("z")


def _oracle_pairs_depth_two():
    """Exhaustive generator with explicit cyclic-reduction filter, d <= 2, exponents <= 1."""
    singles = [(m, n, e) for m in (-1, 0, 1) for n in (-1, 0, 1) for e in (-1, 1)]
    raw = [(s,) for s in singles]
    raw += [
        (s1, s2)
        for s1 in singles
        for s2 in singles
        if not (s2[0] == 0 and s2[1] == 0)
    ]
    kept = []
    for w in raw:
        m1, n1, e1 = w[0]
        if m1 == 0 and n1 == 0 and (e1 > 0) != (w[-1][2] > 0):
            continue
        kept.append(w)

    def inv(w):
        j = len(w)
        out = [(-w[0][0], -w[0][1], -w[j - 1][2])]
        for k in range(j - 1, 0, -1):
            out.append((-w[k][0], -w[k][1], -w[k - 1][2]))
        return tuple(out)

    rng = random.Random(4242)
    kept_set = set(kept)
    for w in kept:
        assert inv(w) in kept_set
        assert inv(inv(w)) == w
        p = Params(
            complex(rng.uniform(1.0, 2.0), 0.0),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0)),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        )
        prod_w = _mat_of(w, p)
        prod_i = _mat_of(inv(w), p)
        # inv(w) equals w^-1 rotated back into block form, i.e. conjugated by
        # the leading translation; the lower-left entry is unchanged by that.
        t_off = -(w[0][0] * p.a + w[0][1] * p.b)
        minv = (prod_w[3], -prod_w[1], -prod_w[2], prod_w[0])
        top = minv[0] + t_off * minv[2]
        conj = (top, -top * t_off + minv[1] + t_off * minv[3], minv[2], -minv[2] * t_off + minv[3])
        scale = max(1.0, max(abs(v) for v in prod_i))
        assert max(abs(conj[k] - prod_i[k]) for k in range(4)) < 1e-9 * scale
        assert abs(abs(prod_i[2]) - abs(prod_w[2])) < 1e-9 * scale
    return {frozenset((w, inv(w))) for w in kept}


def test_enumeration_matches_brute_force_depth_two() -> None:
    pairs = _oracle_pairs_depth_two()
    words = list(enumerate_words(2, 1))
    assert len(words) == len(pairs)
    seen = set()
    for w in words:
        pair = frozenset((w.syllables, w.inverse_in_form().syllables))
        assert pair in pairs
        assert pair not in seen
        seen.add(pair)
    assert seen == pairs


def test_enumeration_is_sorted_and_deterministic():
    first = list(islice(enumerate_words(4, 2), 600))
    second = list(islice(enumerate_words(4, 2), 600))
    assert first == second
    keys = [w.sort_key() for w in first]
    assert keys == sorted(keys)
    assert len(set(first)) == len(first)
    assert all(w.cyclically_reduced and w.z_count >= 1 for w in first)
    # live streams with other caps share the cached move tables; taken in
    # turns, each still yields its own canonical stream
    caps = ((6, 3, 2000), (2, 3, None), (4, 2, 2000), (2, 1, None))
    got = [[] for _ in caps]
    streams = [islice(enumerate_words(max_d, max_exp), n) for max_d, max_exp, n in caps]
    for row in zip_longest(*streams):
        for words, w in zip(got, row):
            if w is not None:
                words.append(w)
    for (max_d, max_exp, n), words in zip(caps, got):
        limit = (max_d, math.inf) if n is None else words[-1].sort_key()[:2]
        assert words == _canonical_stream(max_exp, limit)[:n], (max_d, max_exp)


def _canonical_stream(max_exp, limit):
    """The canonical stream rebuilt from Word's own rules, up to a (d, total) limit.

    Every syllable sequence within the exponent cap whose (z_count,
    total_exponents) is at most limit, kept when cyclically_reduced and no
    larger under sort_key than its inverse_in_form, sorted by sort_key.
    """
    span = range(-max_exp, max_exp + 1)
    # (syllable, d step, total step), by d step so a loop can stop early
    steps = [
        ((m, n, e), abs(e), abs(m) + abs(n) + abs(e))
        for m in span
        for n in span
        for e in span
        if e
    ]
    steps.sort(key=lambda row: row[1])
    out = []

    def grow(prefix, d, total):
        if prefix:
            w = Word(tuple(prefix))
            if w.cyclically_reduced:
                key = w.sort_key()
                if key <= w.inverse_in_form().sort_key():
                    out.append((key, w))
        for syllable, dd, dt in steps:
            if d + dd > limit[0]:
                break
            # d and total only grow along a word, so this prunes whole subtrees
            if (prefix and syllable[0] == 0 and syllable[1] == 0) or (d + dd, total + dt) > limit:
                continue
            prefix.append(syllable)
            grow(prefix, d + dd, total + dt)
            prefix.pop()

    grow([], 0, 0)
    out.sort(key=lambda row: row[0])
    return [w for _, w in out]


@pytest.mark.parametrize(
    "max_d, max_exp, count",
    [(2, 1, None), (3, 2, None), (4, 1, None), (2, 3, None), (6, 3, 5000), (8, 2, 3000)],
)
def test_enumeration_matches_canonical_stream(max_d, max_exp, count) -> None:
    got = list(islice(enumerate_words(max_d, max_exp), count))
    if count is None:
        assert got == _canonical_stream(max_exp, (max_d, math.inf))
    else:
        # the prefix ends inside one (d, total) bucket; rebuild through that bucket
        assert got == _canonical_stream(max_exp, got[-1].sort_key()[:2])[:count]


@pytest.mark.parametrize(
    "max_d, max_exp, count", [(2, 1, None), (3, 2, None), (2, 3, None), (6, 3, 20000)]
)
def test_enumerated_words_are_validated_words(max_d, max_exp, count) -> None:
    """Words built without re-validation equal and hash like validated ones."""
    for w in islice(enumerate_words(max_d, max_exp), count):
        assert type(w.syllables) is tuple
        assert all(type(s) is tuple and all(type(v) is int for v in s) for s in w.syllables)
        for twin in (Word(w.syllables), parse_word(str(w))):
            assert twin == w and hash(twin) == hash(w) and twin.syllables == w.syllables
        assert all(e for _, _, e in w.syllables) and w.z_count >= 1


def _random_dyadic_boxes(area_bound, count, rng):
    boxes = []
    for _ in range(count):
        box = param_space(area_bound)
        for _ in range(rng.randrange(3, 13)):
            box = subdivide(box)[rng.randrange(2)]
        boxes.append(box)
    return boxes


def _interleaved_by_first_exponent(words):
    """The words taken in turn from each first exponent's, in stream order within each."""
    by_first = {}
    for w in words:
        by_first.setdefault(w.syllables[0][2], []).append(w)
    columns = zip_longest(*by_first.values())
    return [w for column in columns for w in column if w is not None]


def _kernel_matches_oracle(gens, words, oracle):
    """Each word's kernel bounds on gens, in order, against the oracle's hex, and the slot after each.

    A word of three or more syllables leaves in gens' slot its first
    exponent and second syllable, and the row after them, which must have
    the bits of the second syllable stepped from gamma^e1's bottom row.
    A shorter word leaves the slot as it found it.  A slot already
    checked, the same tuple, is not stepped again.
    """
    checked = None
    for w in words:
        syllables = w.syllables
        before = gens._slot
        lo, hi = lower_left_bounds(gens, syllables)
        assert (lo.hex(), hi.hex()) == oracle[w], str(w)
        if len(syllables) > 2:
            key, row = slot = gens._slot
            assert key == (syllables[0][2], syllables[1]), str(w)
            if slot is not checked:
                first_row = gens._unboxed_power(syllables[0][2])[2:]
                stepped = words_module._bottom_row(gens, syllables[1:2], first_row)
                assert _hex_rects(row) == _hex_rects(stepped), str(w)
                checked = slot
        else:
            assert gens._slot is before, str(w)


def test_kernel_bounds_bit_identical_to_full_matrix_oracle() -> None:
    """Every Word's kernel (L, U) has the oracle's bits, whatever the table evaluated before.

    Each box uses one table for every word of (2,1) and of the first 2000
    positions of (6,3), body twins too, every Word of the 20000-word cuts
    of (3,2) and (4,1), and the first 2000 Words of (6,3), in stream
    order, in reverse and interleaved by first exponent, so the slot is
    hit and missed on every kind of key.  After each word of three or
    more syllables the slot must hold its key and the stepped row, and a
    shorter word must leave it as it was.  The oracle's bits come from
    _oracle_bits, which equals evaluate_word on every word of the first
    box and on 200 sampled words of every other.  One box's c has the
    imaginary part [-0.0, -0.0] and its a is real, so z x z's row 1*c + a
    differs from c + a in the sign of a zero.  Its child split on c starts
    from its table with an empty slot, and its first word is the one whose
    row the parent's slot holds.
    """
    rng = random.Random(20081)
    ref = [Params(4.0, 1.0 + 4.0 * k + math.sqrt(3.0) * 1j, 2.0) for k in (-1, 0, 1)]
    boxes = [ParamBox.from_point(p) for p in ref]
    boxes += _random_dyadic_boxes(1.5, 2, rng) + _random_dyadic_boxes(6.0, 2, rng)
    signed = ParamBox.from_bounds([[4, 4], [0, 0], [1, 1], [1.5, 2], [1.5, 2], [-0.0, -0.0]])
    assert [math.copysign(1.0, v) for v in signed.c().endpoints()[2:]] == [-1.0, -1.0]
    boxes.append(signed)
    # every word of (2,1) and 2000 positions of (6,3), twins too, then the
    # Words of the (3,2) and (4,1) cuts and the first 2000 Words of (6,3)
    pool = list(enumerate_words(2, 1)) + list(islice(enumerate_words(6, 3), 2000))
    pool += [w for caps in ((3, 2, 20000), (4, 1, 20000)) for w in WordStream(*caps).words]
    pool += WordStream(6, 3, 20000).words[:2000]
    pool = list(dict.fromkeys(pool))
    assert len(pool) == 13483
    orders = (pool, pool[::-1], _interleaved_by_first_exponent(pool))

    def oracle_of(box, checked):
        oracle, target = _oracle_bits(box, pool), gens_from_params(box)
        for w in checked:
            assert oracle[w] == _bits(evaluate_word(w, target).m21.abs_bounds()), str(w)
        return oracle

    for box in boxes:
        gens = gens_from_params(box)
        oracle = oracle_of(box, pool if box is boxes[0] else rng.sample(pool, 200))
        for words in orders:
            _kernel_matches_oracle(gens, words, oracle)
    # signed's child split on c, whose table starts from signed's
    child = _halves(signed, 4)[1]
    child_gens = gens_from_params(child)
    child_gens.inherit(gens)
    assert gens._slot[0] is not None and child_gens._slot == (None, None)
    last = next(w for w in reversed(orders[-1]) if len(w.syllables) > 2)
    oracle = oracle_of(child, rng.sample(pool, 200))
    for words in ([last],) + orders:
        _kernel_matches_oracle(child_gens, words, oracle)


def test_overflowing_words_raise_before_classification(monkeypatch) -> None:
    seen = []
    monkeypatch.setattr(words_module, "classify_bounds", lambda lo, hi: seen.append((lo, hi)))
    cases = [
        (Word(((0, 0, 400),)), Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 10.0)),
        (Word(((3, 0, 1),) * 300), REF),
        (Word(((3, 2, -1),) * 300), REF),
        # overflows only in m22: gamma^2 = -1 at c = 0 keeps m21 finite
        (Word(((0, 0, 1),) + ((1, 0, 1),) * 3 + ((1, 0, 2),)), Params(1e100, 1j, 0.0)),
        # overflow only in the last m22 = r2 * c + r1, where m21 = -r2 is
        # finite: -a after z x, and a few ulps of 1e200 after z^-1 x
        (parse_word("z x z^-1"), Params(1e200, 1j, 1e200)),
        (parse_word("z^-1 x z^-1"), Params(1e200, 1j, 1e200)),
        # a finite bottom row whose |m21| = |c + a| overflows hypot
        (parse_word("z x z"), Params(4.0, 1j, complex(1.5e308, 1.5e308))),
        # overflows only in the leading block's offset 2a, which the
        # kernel's row skips but the table lookup checks
        (parse_word("x^2 z"), Params(1e308, 0.5 + 1j, 0)),
        # the same multiple 2a inside a two-axis block
        (parse_word("x^2 y z"), Params(1e308, 0.5 + 1j, 0)),
    ]
    routes = (lower_left_abs, killer_test, lambda w, t: evaluate_word(w, t).m21.abs_bounds())
    for w, p in cases:
        for target in (p, ParamBox.from_point(p), gens_from_params(p)):
            for route in routes:
                with pytest.raises(ValueError):
                    route(w, target)
    # the kernel routes name the word whose last m22 overflows
    p = Params(1e200, 1j, 1e200)
    for text in ("z x z^-1", "z^-1 x z^-1"):
        for target in (p, ParamBox.from_point(p), gens_from_params(p)):
            for route in (lower_left_abs, killer_test):
                message = rf"endpoints must be finite in the bottom row of {re.escape(text)}$"
                with pytest.raises(ValueError, match=message):
                    route(parse_word(text), target)
    # the kernel routes name the first block that overflows, x^2 alone
    p = Params(1e308, 0.5 + 1j, 0)
    for w in (parse_word("x^2 z"), parse_word("x^2 y z")):
        for target in (p, ParamBox.from_point(p), gens_from_params(p)):
            for route in (lower_left_abs, killer_test):
                with pytest.raises(ValueError, match=r"the offset of x\^2 y\^0"):
                    route(w, target)
    assert seen == []


def _full_row_outcome(gens, syllables):
    """What the kernel must give: the full row's m21 bounds, or "raises".

    The full row is _bottom_row over the syllables after the first, from
    gamma^e1's bottom row, with both entries built.  It raises where a
    table build, a non-finite endpoint of either entry or the overflow of
    |m21| does.
    """
    m, n, e1 = syllables[0]
    try:
        if m or n:
            gens.offset(m, n)
        r1, r2 = words_module._bottom_row(gens, syllables[1:], gens._unboxed_power(e1)[2:])
    except ValueError:
        return "raises"
    if not all(map(math.isfinite, r1 + r2)):
        return "raises"
    lo, hi = rect_abs(*r1)
    return "raises" if hi == math.inf else (lo, hi)


def test_kernel_raises_where_the_full_row_does() -> None:
    """Near the m22 guard's 2^500 the kernel raises exactly where the full stepped row does.

    A word's last syllable builds m21 alone where the operands of m22 are
    inside (-2^500, 2^500), so a missed overflow of m22 would show here:
    at a and c around 2^500 products of two operands straddle the float
    range.  Every Word of (2,1), of the first 2000 positions of (6,3) and
    of the 20000-word cut of (3,2) is run on one table per point, in
    stream order, so the slot is used as in a scan.  Where the full row
    is finite and |m21| does not overflow, the kernel gives its m21's
    bounds bit for bit.
    """
    pool = [w for caps in ((2, 1, 10**6), (6, 3, 2000), (3, 2, 20000)) for w in WordStream(*caps).words]
    sizes = (2.0**499, 2.0**500, 2.0**501, 1e154, 1e200)
    raised = kept = 0
    for a in sizes:
        for c in sizes:
            p = Params(a, 0.5 + 1j, c)
            gens, full = gens_from_params(p), gens_from_params(p)
            for w in pool:
                expected = _full_row_outcome(full, w.syllables)
                outcome = _outcome(lambda: lower_left_bounds(gens, w.syllables))
                if expected == "raises":
                    assert isinstance(outcome, str), (a, c, str(w))
                    raised += 1
                else:
                    assert _hex_outcome(outcome) == _hex_outcome(expected), (a, c, str(w))
                    kept += 1
    assert raised > 1000 and kept > 1000, (raised, kept)


def _first_of_body(words):
    """For each position, the earliest position whose word has the same body, from a dict."""
    earliest = {}
    return [earliest.setdefault(_body(w), i) for i, w in enumerate(words)]


def test_body_twins_share_their_first_words_bits() -> None:
    """Every word's kernel and oracle bits are those of the first word with its body.

    A cusp translation on the left leaves m21 unchanged, and the kernel's
    identity row times a translation is the identity row again, so twins
    agree bit for bit, and each matches the oracle.
    """
    rng = random.Random(6063)
    ref = [Params(4.0, 1.0 + 4.0 * k + math.sqrt(3.0) * 1j, 2.0) for k in (-1, 0, 1)]
    boxes = [ParamBox.from_point(p) for p in ref]
    boxes += _random_dyadic_boxes(1.5, 1, rng) + _random_dyadic_boxes(6.0, 1, rng)
    twins = 0
    for pool in (
        list(enumerate_words(2, 1)),
        list(islice(enumerate_words(3, 2), 3000)),
        list(islice(enumerate_words(6, 3), 2000)),
    ):
        first = _first_of_body(pool)
        for box in boxes:
            gens = gens_from_params(box)
            kernel = [_bits(RealInterval(*lower_left_bounds(gens, w.syllables))) for w in pool]
            oracle = [_bits(evaluate_word(w, box).m21.abs_bounds()) for w in pool]
            for i, w in enumerate(pool):
                j = first[i]
                assert kernel[i] == oracle[i] == kernel[j] == oracle[j], (box.path, str(w))
                twins += j != i
    assert twins > 15_000


def _completion_sizes(max_exp, d):
    """Sequences of syllables with nontrivial blocks and total |e| of d, counted by block cost."""
    steps = [
        (abs(m) + abs(n), abs(e))
        for m in range(-max_exp, max_exp + 1)
        for n in range(-max_exp, max_exp + 1)
        for e in range(-max_exp, max_exp + 1)
        if e and (m or n)
    ]
    sizes = Counter()

    def grow(d_left, cost):
        if not d_left:
            sizes[cost] += 1
        for step_cost, step_d in steps:
            if step_d <= d_left:
                grow(d_left - step_d, cost + step_cost)

    grow(d, 0)
    return sizes


@pytest.mark.parametrize("max_exp, max_d", [(1, 3), (2, 3), (3, 2)])
def test_completion_count_matches_a_brute_force_walk(max_exp, max_d) -> None:
    """Each state's completion count is the size of its subtree, walked syllable by syllable."""
    for d in range(0, max_d + 1):
        sizes = _completion_sizes(max_exp, d)
        for extra in range(0, 2 * max_exp * d + 1):
            count = words_module._completion_count(max_exp, d, extra)
            assert count == sizes[extra], (d, extra)


@pytest.mark.parametrize(
    "max_d, max_exp, count, bodies",
    [(2, 1, None, 34), (3, 1, None, 546), (3, 2, None, 4900), (4, 2, 20000, 3751),
     (6, 3, 20000, 5582)],
)
def test_segments_hold_the_first_word_of_each_body(max_d, max_exp, count, bodies) -> None:
    """A stream's Words are exactly the first words of their bodies, and its blocks the twins'.

    The stream cut at count words, or at the whole stream, against the
    earliest position of each body from a dict over enumerate_words: its
    words are the words at those positions, its ends one past each, and
    its blocks the leading blocks of the other words, the twins, each
    where it first comes.
    """
    words = list(islice(enumerate_words(max_d, max_exp), count))
    stream = WordStream(max_d, max_exp, len(words))
    first = _first_of_body(words)
    assert stream.words == [w for i, w in enumerate(words) if first[i] == i]
    assert stream.ends == [i + 1 for i, j in enumerate(first) if j == i]
    twins = (w.syllables[0][:2] for i, w in enumerate(words) if first[i] != i)
    assert stream.blocks == list(dict.fromkeys(twins))
    assert len(stream.words) == bodies


def test_segments_covering_a_scan_budget() -> None:
    """2000 positions of the (6, 3) stream take 430 segments: 184 Words and 246 runs of twins.

    A segment is what the cut counts at once: a first word of its body,
    which a scan evaluates, or a run of twins, the subtree of one counted
    lead or one y-twin (see the words module's lemma).  Rebuilt from
    enumerate_words, consecutive twins with one first syllable are one
    run, unless their block is y.  The stream keeps the 184 Words and the
    24 distinct blocks of the runs.
    """
    words = list(islice(enumerate_words(6, 3), 2000))
    first = _first_of_body(words)
    kinds, lead = [], None
    for i, w in enumerate(words):
        if first[i] == i:
            kinds.append("word")
            lead = None
        elif w.syllables[0] != lead or w.syllables[0][:2] == (0, 1):
            kinds.append("run")
            lead = w.syllables[0]
    assert (len(kinds), kinds.count("word"), kinds.count("run")) == (430, 184, 246)
    stream = WordStream(6, 3, 2000)
    assert (len(stream.words), len(stream.blocks)) == (184, 24)


def _cuts(max_d, max_exp, last_budget):
    """(budget, words, ends, blocks, k, j, scanned) for budgets 1 to last_budget: the segment cuts.

    The cut at a budget is the stream's first budget words: words are
    those that are the first of their body, ends[k] the position after
    words[k], blocks the distinct leading blocks (m, n) of the twins among
    them in stream order, and scanned their number.  One pass: the cut at
    a budget is a prefix of the cut at the next, so the lists are shared
    and a cut is their prefixes of lengths k (words and ends) and j
    (blocks).
    """
    words, ends, blocks, seen, budget = [], [], [], set(), 0
    for budget, w in enumerate(islice(enumerate_words(max_d, max_exp), last_budget), 1):
        if _body(w) not in seen:
            seen.add(_body(w))
            words.append(w)
            ends.append(budget)
        elif w.syllables[0][:2] not in blocks:
            blocks.append(w.syllables[0][:2])
        yield budget, words, ends, blocks, len(words), len(blocks), budget
    for past in range(budget + 1, last_budget + 1):
        yield past, words, ends, blocks, len(words), len(blocks), budget


def test_word_stream_cut_equals_the_segment_cut_everywhere() -> None:
    """The counting build gives the segment cut, rebuilt from enumerate_words, at every budget checked.

    The segment cut is the stream's first budget words as its segments
    count them, each a first word of its body or a twin (see _cuts).
    Every budget from 1 to one past the whole stream at (1, 1), (2, 1),
    (3, 1) and (2, 2), every budget up to 2000 at (3, 2), and the
    benchmark's and the goldens' keys (6, 3, 2000), (2, 1, 10000) and
    (3, 2, 20000): words, ends, blocks and scanned all agree.  key is the
    caps and the budget, and first_scan maps every index of words to None.
    """
    sweeps = [(1, 1, 10), (2, 1, 146), (3, 1, 2322), (2, 2, 1227), (3, 2, 2000)]
    keys = [(6, 3, 2000), (2, 1, 10000), (3, 2, 20000)]
    checked = 0
    for max_d, max_exp, last in sweeps + keys:
        cuts = _cuts(max_d, max_exp, last)
        if (max_d, max_exp, last) in keys:
            cuts = [list(cuts)[-1]]
        for budget, words, ends, blocks, k, j, scanned in cuts:
            stream = WordStream(max_d, max_exp, budget)
            assert stream.key == (max_d, max_exp, budget)
            assert stream.words == words[:k], (max_d, max_exp, budget)
            assert (stream.ends, stream.blocks, stream.scanned) == (ends[:k], blocks[:j], scanned)
            assert list(stream.first_scan) == list(range(k)) and set(stream.first_scan.values()) <= {None}
            checked += 1
    assert checked == sum(last for _, _, last in sweeps) + len(keys)


def test_word_stream_is_the_cut(monkeypatch) -> None:
    """A stream counts the canonical stream once, through the segment that reaches the budget.

    Its segments are the lead table's counted leads and the body walk's
    words, recorded as the build takes them: they cover the positions it
    counted, and the last one taken holds position budget, or the stream
    ends first, so nothing past the cut is walked.  At (2, 1) budget 40
    ends inside a counted lead of 8 words and 4 at a y-twin.  Each Word
    sits at the position its end counts, a twin such as x z is no Word
    and its block is read, and a budget below 1, or caps enumerate_words
    refuses, raises.
    """
    real_leads, real_walk, taken = words_module._leads, words_module._body_walk, []

    def leads(max_exp, d, extra):
        for row in real_leads(max_exp, d, extra):
            if row[3]:
                taken.append(row[3])
            yield row

    def walk(max_exp, *root):
        for item in real_walk(max_exp, *root):
            taken.append(1)
            yield item

    monkeypatch.setattr(words_module, "_leads", leads)
    monkeypatch.setattr(words_module, "_body_walk", walk)
    inside_a_lead = 0
    for budget in (1, 3, 4, 40, 145, 146, 10**6):
        taken.clear()
        WordStream(2, 1, budget)
        if budget <= 145:
            assert sum(taken) - taken[-1] < budget <= sum(taken), budget
        else:
            assert sum(taken) == 145
        inside_a_lead += sum(taken) > budget
    assert inside_a_lead == 1
    monkeypatch.undo()
    stream = WordStream(2, 1, 145)
    assert len(stream.words) == 34 and stream.blocks == [(0, 1), (1, 0), (1, 1), (1, -1)]
    # each Word sits at the last position its end counts
    every = list(enumerate_words(2, 1))
    assert [every[end - 1] for end in stream.ends] == stream.words
    # x z, the fourth word, is a twin of z: no Word, and its block is read
    assert every[3] == parse_word("x z") and every[3] not in stream.words
    assert (1, 0) in stream.blocks
    with pytest.raises(ValueError, match="budget must be at least 1"):
        WordStream(2, 1, 0)
    for max_d, max_exp in ((0, 1), (1, 0), (1, MAX_EXP + 1)):
        with pytest.raises(ValueError, match="max_exp"):
            WordStream(max_d, max_exp, 10)


def test_word_stream_takes_integers_only() -> None:
    """Caps and budget are each an integral int or float, stored as an int, never a bool.

    A float budget of 3.0 gives the stream of budget 3, keyed by the int,
    so a scan reports an int words_scanned; a bool or a string raises
    TypeError and a fractional number ValueError, as SearchConfig's do.
    """
    stream = WordStream(2.0, 1.0, 3.0)
    assert stream.key == (2, 1, 3) and all(type(k) is int for k in stream.key)
    assert type(stream.scanned) is int and stream.scanned == 3
    assert stream.words == WordStream(2, 1, 3).words
    cfg = SearchConfig(area_bound=6.0, max_d=2, max_exp=1, word_budget_per_box=3)
    box = ParamBox.from_bounds([[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]])
    v = test_box(box, stream, cfg)
    assert v.words_scanned == 3 and type(v.words_scanned) is int
    for bad in ((2, 1, True), (True, 1, 3), (2, True, 3), (2, 1, "3")):
        with pytest.raises(TypeError, match="must be a number"):
            WordStream(*bad)
    for bad, name in (((2, 1, 2.5), "budget"), ((2.5, 1, 3), "max_d"), ((2, 1.5, 3), "max_exp")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            WordStream(*bad)


def test_max_exp_is_capped() -> None:
    """A stream above MAX_EXP would build cubically large tables, so it is refused."""
    assert MAX_EXP == 16
    assert next(enumerate_words(1, MAX_EXP)) == parse_word("z")
    for max_d, max_exp in ((1, MAX_EXP + 1), (1, 1000), (0, 1), (1, 0)):
        with pytest.raises(ValueError, match="max_exp"):
            enumerate_words(max_d, max_exp)
    with pytest.raises(ValueError, match="max_exp must be at most 16"):
        SearchConfig(area_bound=6.0, max_exp=MAX_EXP + 1)
    assert SearchConfig(area_bound=6.0, max_exp=MAX_EXP).max_exp == MAX_EXP


def test_enumerate_words_checks_its_caps_at_the_call() -> None:
    """Caps are checked as WordStream checks them, when enumerate_words is called.

    An integral float is taken as its int, so (2.0, 1) is the (2, 1)
    stream; a bool or a string raises TypeError and a fractional number
    ValueError, and caps outside the bounds raise ValueError at the call,
    before any word is asked for.
    """
    assert list(enumerate_words(2.0, 1.0)) == list(enumerate_words(2, 1))
    for bad in ((True, 1), (2, True), ("2", 1), (2, "1")):
        with pytest.raises(TypeError, match="must be a number"):
            enumerate_words(*bad)
    for bad, name in (((2.5, 1), "max_d"), ((2, 1.5), "max_exp")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            enumerate_words(*bad)
    for bad in ((0, 1), (1, 0), (1, MAX_EXP + 1)):
        with pytest.raises(ValueError, match="max_exp"):
            enumerate_words(*bad)


def _scan_reference_point(max_d, max_exp, budget):
    """test_box at REF over the canonical (max_d, max_exp) stream; the verdict."""
    cfg = SearchConfig(area_bound=6.0, max_d=max_d, max_exp=max_exp, word_budget_per_box=budget)
    return test_box(ParamBox.from_point(REF), None, cfg)


def test_scan_kernel_evaluations(monkeypatch) -> None:
    """The canonical stream on one box evaluates only the first word of each body."""
    calls = 0
    real = search_module.lower_left_bounds

    def counted(gens, syllables):
        nonlocal calls
        calls += 1
        return real(gens, syllables)

    monkeypatch.setattr(search_module, "lower_left_bounds", counted)
    for (max_d, max_exp, budget), words, expected in (
        ((6, 3, 2000), 2000, 184),
        ((2, 1, 10000), 145, 34),
    ):
        calls = 0
        verdict = _scan_reference_point(max_d, max_exp, budget)
        assert verdict.words_scanned == words
        assert calls == expected


def _count_products(monkeypatch):
    """Count words.rect_mul's calls by (x, y): the kernel's, and the table's builds apart.

    A call is the table's while a GeneratorTriple builds: its __init__
    (1*c), offset or _unboxed_power runs.  Returns the two Counters,
    kernel first, which the patched calls fill.
    """
    kernel, table, building = Counter(), Counter(), []

    def counting_mul(x, y):
        (table if building else kernel)[x, y] += 1
        return rect_mul(x, y)

    def building_(real):
        def build(*args):
            building.append(real)
            try:
                return real(*args)
            finally:
                building.pop()

        return build

    monkeypatch.setattr(words_module, "rect_mul", counting_mul)
    for name in ("__init__", "offset", "_unboxed_power"):
        real = getattr(words_module.GeneratorTriple, name)
        monkeypatch.setattr(words_module.GeneratorTriple, name, building_(real))
    return kernel, table


def test_scan_rect_mul_count(monkeypatch) -> None:
    """The kernel's general products per stream, pinned, and the table's apart.

    A word's first syllable costs nothing.  Its last builds m21 alone
    here, since every operand is far below 2^500: a block takes one
    product (r1 * t), then z one (r1 * c) and z^-1 none (m21 is -r2);
    right after z or z^-1, whose row starts with an exact +-1, z takes
    none and z^+-2 one (r2 * g21).  A word of three syllables takes its
    second from the slot when it shares its first exponent and second
    syllable with the last such word; a miss steps it from the exact row
    after z or z^-1, with no product when its exponent is 1 and one
    (r2 * c) when it is -1.
      - (6,3), 2000 positions: 184 words, none past 2 syllables.  4 have
        one syllable, 92 end in z and 88 in z^-1, all after z^+-1: 0.
      - (2,1), the whole stream: 34 words; 2, 16 and 16: 0.
      - (3,2), 20000 positions: 3751 words.  4 have one syllable.  Of
        the 288 of two, the 192 after z^+-1 take 48 * 0 (z), 48 * 0
        (z^-1) and 96 * 1 (z^+-2), and the 96 after z^+-2 take 48 * 2
        (x^m y^n z) and 48 * 1 (x^m y^n z^-1): 240.  The 3459 of three
        have 3011 slot hits, and the 448 misses take 224 * 0 + 224 * 1.
        Their last syllables take 1856 * 2 (ending in z) and 1603 * 1
        (ending in z^-1), 5315: 5779 in all.
    These were 88, 16 and 7574 when the last syllable built m22 too,
    one product on each of the 1795 (3,2) words that end in z^-1 or
    z^+-2; 360, 64 and 14,700 when every second syllable was stepped,
    374 and 69 when the first rows were stepped too, and 684 and 123
    before that.  The tables take 29, 5 and 25 products: the multiples
    m*a and n*b, eight per power gamma^+-2 and one for 1*c.
    """
    kernel, table = _count_products(monkeypatch)
    for (max_d, max_exp, budget), words, expected, built in (
        ((6, 3, 2000), 2000, 0, 29),
        ((2, 1, 10000), 145, 0, 5),
        ((3, 2, 20000), 20000, 5779, 25),
    ):
        kernel.clear()
        table.clear()
        verdict = _scan_reference_point(max_d, max_exp, budget)
        assert verdict.words_scanned == words
        assert sum(kernel.values()) == expected
        assert sum(table.values()) == built


def _hex_outcome(outcome):
    """An outcome with each float as its hex, nested tuples kept, None and messages as they are."""
    if isinstance(outcome, float):
        return outcome.hex()
    if isinstance(outcome, tuple):
        return tuple(map(_hex_outcome, outcome))
    return outcome


def _halves(box, axis):
    """box's two halves split at the midpoint of coordinate axis, whatever the widest."""
    coords = list(box.coords())
    iv = coords[axis]
    mid = iv.midpoint()
    halves = []
    for half in (RealInterval(iv.lo, mid), RealInterval(mid, iv.hi)):
        coords[axis] = half
        halves.append(ParamBox(*coords, box.path + str(len(halves))))
    return halves


def _entry(gens, syllable):
    """(offset, gamma^e) of the syllable (m, n, e) from gens' tables, the offset None for a trivial block.

    The offset is read first, as the oracle builds it first.
    """
    m, n, e = syllable
    return (gens.offset(m, n) if m or n else None), gens._unboxed_power(e)


def test_inherited_table_keeps_every_bit() -> None:
    """A child's table started from its parent's gives every entry the bits of a fresh build.

    Each parent's table is warmed with every syllable of the first 2000
    positions of (3,2) and (6,3), then each dyadic child split on a_re,
    b_re, b_im, c_re and c_im inherits it.  A split on a or b keeps the
    powers and the offsets that read only the other generator, one on c
    every offset and no power.  Every inherited entry, and every overflow
    message, must match a fresh gens_from_params(child), and the parent's
    caches must not change.  A child whose a differs from its parent's
    only in the sign of zero endpoints keeps no offset that reads a, and
    one whose c differs so keeps no power.  inherit returns the split
    generator, a or c for those children too.
    """
    syllables = sorted(
        {s for caps in ((3, 2), (6, 3)) for w in islice(enumerate_words(*caps), 2000) for s in w.syllables}
    )
    parents = [param_space(1.5)] + _random_dyadic_boxes(6.0, 1, random.Random(40127))
    # a = [1e308, 1.5e308], where the offset of x^2 overflows and that of x does not
    parents.append(ParamBox.from_bounds([[1e308, 1.5e308], [0.0, 0.0], [0.5, 1.0], [1.0, 2.0],
                                         [1.0, 2.0], [-0.5, 0.5]]))
    # by the axis split: a block's offset is kept when it reads only the other generator
    keeps = {0: lambda m, n: not m, 1: lambda m, n: not m, 2: lambda m, n: not n}
    keeps[3] = keeps[2]
    raised = 0
    for parent in parents:
        warm = gens_from_params(parent)
        for s in syllables:
            _outcome(lambda: _entry(warm, s))
        offsets, powers = dict(warm._offsets), dict(warm._unboxed_powers)
        children = [(axis, child) for axis in (0, 2, 3, 4, 5) for child in _halves(parent, axis)]
        bounds = parent.to_bounds()
        bounds[1] = [-0.0, -0.0]
        children.append((1, ParamBox.from_bounds(bounds)))
        for axis, child in children:
            inherited, fresh = gens_from_params(child), gens_from_params(child)
            assert inherited.inherit(warm) == _AXIS_GENERATOR[axis]
            keep = keeps.get(axis, lambda m, n: axis > 3)
            assert set(inherited._offsets) == {block for block in offsets if keep(*block)}
            assert inherited._unboxed_powers == (powers if axis < 4 else {})
            for s in syllables:
                entry = _outcome(lambda: _entry(inherited, s))
                assert _hex_outcome(entry) == _hex_outcome(_outcome(lambda: _entry(fresh, s))), (axis, s)
                raised += isinstance(entry, str)
        assert (warm._offsets, warm._unboxed_powers) == (offsets, powers)
    assert raised > 100
    # c = [-0.75, -0.25] + [-0.0, -0.0]i against the parent's +0.0 parts: no power is kept
    bounds = [[0.5, 1.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.75, -0.25], [0.0, 0.0]]
    warm = gens_from_params(ParamBox.from_bounds(bounds))
    _entry(warm, (0, 0, 2))
    bounds[5] = [-0.0, -0.0]
    signed = gens_from_params(ParamBox.from_bounds(bounds))
    assert signed.inherit(warm) == GEN_C and signed._unboxed_powers == {}


def _hex_rects(rects):
    return [tuple(v.hex() for v in r) for r in rects]


def test_m21_reads_examples() -> None:
    """The generators named for a few words, against their lower-left entries.

    z and x z have m21 = 1, z^-1 has -1, z^2 has c, z y z^-1 has -b and
    z x z has c + a.  z^-1 x z has -c + (c - a), which the interval
    product reads c for, though it equals -a.  The leading block is never
    read.
    """
    for text, reads in (
        ("z", 0),
        ("x z", 0),
        ("x^2 y z", 0),
        ("z^-1", 0),
        ("z^2", GEN_C),
        ("z y z^-1", GEN_B),
        ("x y z y z^-1", GEN_B),
        ("z x z", GEN_A | GEN_C),
        ("z^-1 x z", GEN_A | GEN_C),
        ("z^2 x y z^-1", GEN_A | GEN_B | GEN_C),
    ):
        assert words_module.m21_reads(parse_word(text).syllables) == reads, text


def test_m21_reads_misses_no_generator_the_bounds_read() -> None:
    """A word whose mask misses the split generator keeps its bounds' bits on both children.

    Every word of (2,1) and (3,2) and of the first 2000 positions of (6,3),
    on seeded dyadic parents and the straddle box, each split on a_re,
    b_re, b_im, c_re and c_im.  Each such word's lower_left_bounds must
    have the parent's bits on both halves.  Every split keeps some words'
    bounds this way, and changes the bounds of some word that reads the
    split generator, so the mask is not all or nothing.
    """
    words = [w.syllables for caps in ((2, 1), (3, 2)) for w in enumerate_words(*caps)]
    words += [w.syllables for w in islice(enumerate_words(6, 3), 2000)]
    masks = [words_module.m21_reads(syllables) for syllables in words]
    parents = _random_dyadic_boxes(1.5, 2, random.Random(52711))
    parents.append(ParamBox.from_bounds([[0.5, 1.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0],
                                         [-0.75, -0.25], [0.0, 0.0]]))
    kept_by_axis, changed_by_axis = Counter(), Counter()
    for parent in parents:
        gens = gens_from_params(parent)
        before = [_hex_outcome(_outcome(lambda: lower_left_bounds(gens, s))) for s in words]
        for axis in (0, 2, 3, 4, 5):
            split = _AXIS_GENERATOR[axis]
            for child in _halves(parent, axis):
                if child.coords()[axis].width == 0.0:
                    continue
                child_gens = gens_from_params(child)
                for i, syllables in enumerate(words):
                    if masks[i] & split and kept_by_axis[axis] and changed_by_axis[axis]:
                        continue
                    after = _hex_outcome(_outcome(lambda: lower_left_bounds(child_gens, syllables)))
                    if not masks[i] & split:
                        assert after == before[i], (parent.path, axis, Word._trusted(syllables))
                        kept_by_axis[axis] += 1
                    elif after != before[i]:
                        changed_by_axis[axis] += 1
    assert all(kept_by_axis[axis] > 1000 and changed_by_axis[axis] for axis in (0, 2, 3, 4, 5))


def test_stream_builds_masks_once_on_the_first_child(monkeypatch) -> None:
    """A root scan builds no masks; the first child builds them for every word, once.

    Each entry is its word's m21_reads: the stream holds no twin, so no
    entry stands for one.
    """
    built = []
    real = words_module.m21_reads

    def counted(syllables):
        built.append(syllables)
        return real(syllables)

    monkeypatch.setattr(words_module, "m21_reads", counted)
    cfg = SearchConfig(area_bound=1.5, max_d=2, max_exp=1, word_budget_per_box=10000)
    box = param_space(1.5)
    for _ in range(4):
        box = subdivide(box)[0]
    assert test_box(box, None, cfg).status is search_module.BoxStatus.UNDECIDED
    stream = WordStream(2, 1, 10000)
    parent = test_box(box, stream, cfg)
    assert built == [] and stream._masks is None
    for child in subdivide(box):
        test_box(child, stream, cfg, parent=parent)
    assert built == [w.syllables for w in stream.words]
    assert stream.masks() == [real(w.syllables) for w in stream.words]
    assert len(built) == len(stream.words) == 34


def test_gamma_unit_steps_match_the_general_step() -> None:
    """The kernel's gamma^+-1 step is the four-product step bit for bit.

    Each case seeds the kernel's row propagation with a row whose
    rectangles have special endpoints, infinities and NaNs among them, and
    reads the row after one more syllable (0, 0, +-1); the propagation
    checks nothing, so a non-finite row comes back as it is.  NaN hexes
    alike whatever its sign, so the rows must match wherever they are
    finite and be non-finite where the general step is.
    """
    rng = random.Random(5273)
    finite = tuple(v for v in _SPECIAL if math.isfinite(v))
    for _ in range(20_000):
        c = _endpoints(rng, finite) + _endpoints(rng, finite)
        box = ParamBox.from_bounds([[4.0, 4.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], c[:2], c[2:]])
        gens = gens_from_params(box)
        r1 = _endpoints(rng) + _endpoints(rng)
        r2 = _endpoints(rng) + _endpoints(rng)
        for e in (1, -1):
            row = words_module._bottom_row(gens, ((0, 0, e),), (r1, r2))
            g11, g12, g21, g22 = gens._unboxed_power(e)
            general = (
                rect_add(rect_mul(r1, g11), rect_mul(r2, g21)),
                rect_add(rect_mul(r1, g12), rect_mul(r2, g22)),
            )
            assert _hex_rects(row) == _hex_rects(general), (c, r1, r2, e)


def test_unboxed_table_matches_the_oracle_entries() -> None:
    """Rectangles built from endpoints equal the oracle's generator entries bit for bit.

    The oracle's offset t of x^m y^n is read as the top-left entry 1 * 0 +
    t * 1 of its x^m y^n z over a, b and c = 0, exact by the zero and one
    shortcuts.  A block's offset is built once and kept.
    """
    box = param_space(1.5)
    for bit in "0110100101":
        box = subdivide(box)[int(bit)]
    for target in (REF, Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 0.5), box):
        gens = gens_from_params(target)
        at_c0 = words_module.GeneratorTriple(gens.a, gens.b, ComplexInterval.point(0.0))
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m or n:
                    offset = gens.offset(m, n)
                    assert gens.offset(m, n) is offset
                    oracle = evaluate_word(Word(((m, n, 1),)), at_c0).m11.endpoints()
                    assert _hex_rects([offset]) == _hex_rects([oracle])
        for e in [k for k in range(-40, 41) if k]:
            g = evaluate_word(Word(((0, 0, e),)), gens)
            oracle = [x.endpoints() for x in (g.m11, g.m12, g.m21, g.m22)]
            assert _hex_rects(gens._unboxed_power(e)) == _hex_rects(oracle), e
    # gamma^+-400 overflows at c = 10: the table's build raises, every time
    p = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 10.0)
    near = ParamBox.from_bounds(
        [[4.0, 4.0], [0.0, 0.0], [1.0, 1.0], [1.5, 2.0], [10.0, 10.25], [0.0, 0.25]]
    )
    for target in (p, ParamBox.from_point(p), near):
        gens = gens_from_params(target)
        for e in (400, -400):
            for _ in range(2):
                with pytest.raises(ValueError):
                    gens._unboxed_power(e)
            with pytest.raises(ValueError):
                evaluate_word(Word(((0, 0, e),)), gens)


def test_evaluate_pairing_sandwich_symbolic():
    w = parse_word("z x z")
    for p in (REF, Params(1.25, 2.5j, -0.5 + 0.25j)):
        m = evaluate_word(w, p)
        a, c = p.a, p.c
        assert m.contains(c * c + c * a - 1.0, -c, c + a, -1.0)
        assert lower_left_abs(w, p).contains(abs(a + c))


def test_pure_translation_structural_zero():
    """A product of translations keeps its lower-left entry exactly [0, 0].

    The interval module's zero shortcut promises this for upper-triangular
    products.  x^2 y is no Word, so its matrix is the product of the
    translation matrices built from the generators, at a point and on a box.
    """
    point = ComplexInterval.point
    one, zero = point(1.0), point(0.0)

    def x2_y(target):
        gens = gens_from_params(target)
        x, y = (IntervalMatrix(one, t, zero, one) for t in (gens.a, gens.b))
        return x @ x @ y

    for m in (x2_y(REF), x2_y(param_space(1.5))):
        assert m.m21.re.lo == 0.0 and m.m21.re.hi == 0.0
        assert m.m21.im.lo == 0.0 and m.m21.im.hi == 0.0
    assert x2_y(REF).m12.contains(2 * REF.a + REF.b)


def _slice_box(a_lo, a_hi, c_lo, c_hi, b=4j):
    return ParamBox.from_bounds(
        [
            [a_lo, a_hi],
            [0.0, 0.0],
            [b.real, b.real],
            [b.imag, b.imag],
            [c_lo, c_hi],
            [0.0, 0.0],
        ]
    )


def test_killer_eliminates_example():
    box = _slice_box(1.0, 1.1, -0.6, -0.5)
    w = parse_word("z x z")
    bounds = lower_left_abs(w, box)
    assert bounds.encloses(RealInterval(0.4, 0.6))
    assert bounds.lo > 0.4 - 1e-9 and bounds.hi < 0.6 + 1e-9
    assert killer_test(w, box) is KillerVerdict.ELIMINATES


def test_killer_candidate_example():
    box = _slice_box(1.0, 1.05, -1.02, -0.98)
    w = parse_word("z x z")
    bounds = lower_left_abs(w, box)
    assert bounds.lo == 0.0
    assert bounds.hi < 0.07 + 1e-9
    assert killer_test(w, box) is KillerVerdict.CANDIDATE_RELATOR


def test_single_z_is_inconclusive_everywhere():
    w = parse_word("z")
    assert killer_test(w, _slice_box(1.0, 2.0, -0.9, 0.9)) is KillerVerdict.INCONCLUSIVE
    assert killer_test(w, REF) is KillerVerdict.INCONCLUSIVE
    try:
        killer_test(parse_word("x^2 y"), REF)
        assert False, "expected ValueError for z-free word"
    except ValueError:
        pass


def test_volume_bound_values_and_invariance():
    assert volume_bound(parse_word("z^3")) == math.pi
    assert volume_bound(parse_word("z x z^2")) == math.pi
    assert volume_bound(parse_word("z^4")) == 2.0 * math.pi
    assert volume_bound(parse_word("z^5")) == 3.0 * math.pi
    w = parse_word("x z y z^2")
    assert volume_bound(w) == volume_bound(w.inverse_in_form())
    rotated = Word(w.syllables[1:] + w.syllables[:1])
    assert volume_bound(rotated) == volume_bound(w)


def test_interval_evaluation_encloses_float_route() -> None:
    rng = random.Random(5880)
    pool = list(islice(enumerate_words(3, 2), 400))
    for _ in range(300):
        w = pool[rng.randrange(len(pool))]
        p = Params(
            complex(rng.uniform(1.0, 3.0), 0.0),
            complex(rng.uniform(-2.0, 2.0), rng.uniform(1.0, 3.0)),
            complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        )
        m = evaluate_word(w, p)
        f = evaluate_word_float(w, p)
        assert m.contains(*f)
        assert lower_left_abs(w, p).contains(abs(f[2]))


def test_float_routes_keep_the_bits_of_the_full_product() -> None:
    """evaluate_word_float, and float_row's bottom row alone, have _mat_of's bits.

    Every word of (3, 2) at the reference point, at seeded random points,
    and where c = nan, inf or 1e308 makes entries NaN, infinite or overflow.
    """
    rng = random.Random(6021)
    points = [REF] + [
        Params(rng.uniform(1.0, 3.0), complex(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)),
               complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        for _ in range(2)
    ]
    points += [Params(REF.a, REF.b, c) for c in (math.nan, math.inf, 1e308)]

    def spelled(entries):
        return tuple(x.hex() for z in entries for x in (z.real, z.imag))

    for p in points:
        a, b, c = p.a, p.b, p.c
        for w in enumerate_words(3, 2):
            full = spelled(_mat_of(w.syllables, p))
            assert spelled(evaluate_word_float(w, p)) == full, (p, str(w))
            assert spelled(float_row(w, a, b, c, (0j, 1.0 + 0j))) == full[4:], (p, str(w))


def _split_box(box):
    widths = box.widths()
    axis = widths.index(max(widths))
    coords = list(box.coords())
    iv = coords[axis]
    mid = iv.midpoint()
    lo_coords = list(coords)
    hi_coords = list(coords)
    lo_coords[axis] = RealInterval(iv.lo, mid)
    hi_coords[axis] = RealInterval(mid, iv.hi)
    return ParamBox(*lo_coords, box.path + "0"), ParamBox(*hi_coords, box.path + "1")


def test_killer_verdict_monotone_under_refinement() -> None:
    rng = random.Random(90021)
    sandwich = parse_word("z x z")
    hits = 0
    for _ in range(150):
        target = rng.choice((-1.0, 1.0)) * rng.uniform(0.15, 0.8)
        wa = rng.uniform(0.002, 0.05)
        wc = rng.uniform(0.002, 0.05)
        a_lo = rng.uniform(1.0, 2.0)
        box = _slice_box(a_lo, a_lo + wa, target - a_lo - wc, target - a_lo)
        if killer_test(sandwich, box) is not KillerVerdict.ELIMINATES:
            continue
        hits += 1
        lo, hi = _split_box(box)
        assert killer_test(sandwich, lo) is KillerVerdict.ELIMINATES
        assert killer_test(sandwich, hi) is KillerVerdict.ELIMINATES
    assert hits > 100
    pool = list(islice(enumerate_words(3, 1), 200))
    for _ in range(300):
        w = pool[rng.randrange(len(pool))]
        a_lo = rng.uniform(1.0, 2.0)
        c_lo = rng.uniform(-1.5, 1.0)
        box = _slice_box(a_lo, a_lo + rng.uniform(0.01, 0.4), c_lo, c_lo + rng.uniform(0.01, 0.4))
        if killer_test(w, box) is not KillerVerdict.ELIMINATES:
            continue
        lo, hi = _split_box(box)
        assert killer_test(w, lo) is KillerVerdict.ELIMINATES
        assert killer_test(w, hi) is KillerVerdict.ELIMINATES
