"""Word model: enumeration against a brute-force oracle, evaluation, killer test."""

import math
import random
from collections import Counter
from itertools import islice, zip_longest

import pytest

from horocusp import search as search_module
from horocusp import words as words_module
from horocusp.bicuspid import ParamBox, Params, param_space
from horocusp.interval import RealInterval, rect_add, rect_mul
from horocusp.search import SearchConfig, subdivide, test_box
from horocusp.words import (
    MAX_EXP,
    KillerVerdict,
    Run,
    Word,
    WordStream,
    enumerate_segments,
    enumerate_words,
    evaluate_word,
    evaluate_word_float,
    gens_from_params,
    killer_test,
    lower_left_abs,
    lower_left_bounds,
    parse_word,
    volume_bound,
)

from test_interval import _SPECIAL, _endpoints

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
    ):
        try:
            Word(tuple(bad))
            assert False, f"expected ValueError for {bad}"
        except ValueError:
            pass
    Word(((0, 0, 1),))
    Word(((2, 1, 0),))
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
    assert parse_word("x^2 y") == Word(((2, 1, 0),))
    assert parse_word("z^2") == Word(((0, 0, 2),))


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
    assert Word(((2, 1, 0),)).z_count == 0
    assert parse_word("z x z^-2 y z").z_count == 4
    for text in ("x", "y^-2", "x^2 y", "z", "x z^-1", "z x z^-2 y z"):
        w = parse_word(text)
        assert w.is_pure_translation is (w.z_count == 0) is ("z" not in text), text


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
        assert w.is_pure_translation is (w.z_count == 0)
        assert not w.is_pure_translation


def _random_dyadic_boxes(area_bound, count, rng):
    boxes = []
    for _ in range(count):
        box = param_space(area_bound)
        for _ in range(rng.randrange(3, 13)):
            box = subdivide(box)[rng.randrange(2)]
        boxes.append(box)
    return boxes


def _bits(iv):
    return (iv.lo.hex(), iv.hi.hex())


def test_kernel_bounds_bit_identical_to_full_matrix_oracle() -> None:
    rng = random.Random(20081)
    ref = [Params(4.0, 1.0 + 4.0 * k + math.sqrt(3.0) * 1j, 2.0) for k in (-1, 0, 1)]
    boxes = [ParamBox.from_point(p) for p in ref]
    boxes += _random_dyadic_boxes(1.5, 2, rng) + _random_dyadic_boxes(6.0, 2, rng)
    pool = list(enumerate_words(2, 1)) + list(islice(enumerate_words(6, 3), 2000))
    for box in boxes:
        gens = gens_from_params(box)
        for w in pool:
            oracle = evaluate_word(w, box).m21.abs_bounds()
            assert _bits(lower_left_abs(w, gens)) == _bits(oracle), (box.path, str(w))


def test_overflowing_words_raise_before_classification(monkeypatch) -> None:
    seen = []
    monkeypatch.setattr(words_module, "classify_bounds", lambda lo, hi: seen.append((lo, hi)))
    cases = [
        (Word(((0, 0, 400),)), Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 10.0)),
        (Word(((3, 0, 1),) * 300), REF),
        (Word(((3, 2, -1),) * 300), REF),
        # overflows only in m22: gamma^2 = -1 at c = 0 keeps m21 finite
        (Word(((0, 0, 1),) + ((1, 0, 1),) * 3 + ((1, 0, 2),)), Params(1e100, 1j, 0.0)),
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
    # the kernel routes name the first block that overflows, x^2 alone
    p = Params(1e308, 0.5 + 1j, 0)
    for w in (parse_word("x^2 z"), parse_word("x^2 y z")):
        for target in (p, ParamBox.from_point(p), gens_from_params(p)):
            for route in (lower_left_abs, killer_test):
                with pytest.raises(ValueError, match=r"the offset of x\^2 y\^0"):
                    route(w, target)
    assert seen == []


def _taken(source):
    """A WordStream that has taken every segment of source."""
    stream = WordStream(source)
    while stream.take():
        pass
    return stream


def _body(word):
    """A key for the word's body: e_1 and the syllables after the first."""
    return word.syllables[0][2], word.syllables[1:]


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


def _expanded(segments):
    """(word, is a Word segment) for each stream position of segments."""
    for segment in segments:
        if isinstance(segment, Run):
            words = list(segment.words())
            assert len(words) == segment.count
            assert all(w.syllables[0] == segment.prefix[0] for w in words)
            yield from ((w, False) for w in words)
        else:
            yield segment, True


@pytest.mark.parametrize(
    "max_d, max_exp, count, bodies",
    [(2, 1, None, 34), (3, 1, None, 546), (3, 2, None, 4900), (4, 2, 20000, 3751),
     (6, 3, 20000, 5582)],
)
def test_segments_hold_the_first_word_of_each_body(max_d, max_exp, count, bodies) -> None:
    """The stream's Word segments are exactly the first words of their bodies.

    The earliest position of each body comes from a dict over
    enumerate_words; the segments, expanded, give enumerate_words word for
    word, and each Run holds as many words as it counts.
    """
    words = list(islice(enumerate_words(max_d, max_exp), count))
    expanded = list(islice(_expanded(enumerate_segments(max_d, max_exp)), len(words)))
    assert [w for w, _ in expanded] == words
    first = _first_of_body(words)
    assert [is_word for _, is_word in expanded] == [j == i for i, j in enumerate(first)]
    assert len(set(first)) == bodies


def test_segments_covering_a_scan_budget() -> None:
    """2000 positions of the (6, 3) stream take 430 segments: 184 Words and 246 Runs."""
    kinds, positions = [], 0
    for segment in enumerate_segments(6, 3):
        if positions >= 2000:
            break
        kinds.append(isinstance(segment, Run))
        positions += segment.count if kinds[-1] else 1
    assert (len(kinds), kinds.count(False), kinds.count(True)) == (430, 184, 246)


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


def test_word_stream_takes_words_as_asked() -> None:
    """take() pulls one segment at a time, and segments holds what it took, in stream order."""
    source = enumerate_segments(2, 1)
    stream = WordStream(source)
    assert stream.segments == []
    assert stream.take() and stream.segments == [parse_word("z")]
    assert next(source) == Run(((0, 1, 1),), 0, 0, 1, 1)
    stream = _taken(enumerate_segments(2, 1))
    segments = stream.segments
    assert segments == list(enumerate_segments(2, 1)) and len(segments) == 61
    assert [w for w, _ in _expanded(segments)] == list(enumerate_words(2, 1))
    assert sum(s.count if isinstance(s, Run) else 1 for s in segments) == 145
    # x z, the fourth word, is the one word of the Run at index 3
    assert list(segments[3].words()) == [parse_word("x z")]
    rest = WordStream(list(enumerate_words(2, 1))[-2:])
    assert rest.take() and rest.take() and not rest.take() and len(rest.segments) == 2


def test_max_exp_is_capped() -> None:
    """A stream above MAX_EXP would build cubically large tables, so it is refused."""
    assert MAX_EXP == 16
    for enumerate_ in (enumerate_words, enumerate_segments):
        assert next(enumerate_(1, MAX_EXP)) == parse_word("z")
        for max_d, max_exp in ((1, MAX_EXP + 1), (1, 1000), (0, 1), (1, 0)):
            with pytest.raises(ValueError, match="max_exp"):
                next(enumerate_(max_d, max_exp))
    with pytest.raises(ValueError, match="max_exp must be at most 16"):
        SearchConfig(area_bound=6.0, max_exp=MAX_EXP + 1)
    assert SearchConfig(area_bound=6.0, max_exp=MAX_EXP).max_exp == MAX_EXP


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

    A call is the table's while GeneratorTriple.__missing__ runs.
    Returns the two Counters, kernel first, which the patched calls fill.
    """
    kernel, table, building = Counter(), Counter(), []
    real_missing = words_module.GeneratorTriple.__missing__

    def counting_mul(x, y):
        (table if building else kernel)[x, y] += 1
        return rect_mul(x, y)

    def building_missing(gens, syllable):
        building.append(syllable)
        try:
            return real_missing(gens, syllable)
        finally:
            building.pop()

    monkeypatch.setattr(words_module, "rect_mul", counting_mul)
    monkeypatch.setattr(words_module.GeneratorTriple, "__missing__", building_missing)
    return kernel, table


def test_scan_rect_mul_count(monkeypatch) -> None:
    """The kernel's general products per stream, pinned, and the table's apart.

    A gamma^+-1 step takes one rect_mul, a translation one more and any
    other gamma^e step four.  The row after a word's first syllable
    (m, n, e) is gamma^e's bottom row, read from the table, so first rows
    take no products.  Every later syllable of both streams' evaluated
    words, 184 and 34, is a nontrivial block and a gamma^+-1 step, two
    products each: 180 of them in the first stream, 32 in the second.  So
    360 and 64; with the first rows stepped and kept per first syllable
    the counts were 374 and 69, and 684 and 123 with neither.  The
    table's builds take 28 and 4 products of their own.
    """
    kernel, table = _count_products(monkeypatch)
    for (max_d, max_exp, budget), words, expected, built in (
        ((6, 3, 2000), 2000, 360, 28),
        ((2, 1, 10000), 145, 64, 4),
    ):
        kernel.clear()
        table.clear()
        verdict = _scan_reference_point(max_d, max_exp, budget)
        assert verdict.words_scanned == words
        assert sum(kernel.values()) == expected
        assert sum(table.values()) == built


def test_scan_table_builds_each_factor_once(monkeypatch) -> None:
    """One (6,3) scan box builds each block's offset and each product once.

    The scan asks its table for 142 syllables, which share 49 blocks
    (m, n).  Each nontrivial block's offset is built and checked once:
    that of x^m is the multiple m*a and that of y^n the multiple n*b, one
    rect_mul each, 6 nonzero m and 6 nonzero n, and a two-axis block adds
    the two.  The powers gamma^+-2 and gamma^+-3 take four products
    each, so the table's builds call rect_mul 12 + 16 = 28 times; with an
    offset built per syllable it took 260.
    """
    checked, built = Counter(), []
    real_check, real_gens = words_module._check_finite, words_module.gens_from_params

    def counting_check(rect, what):
        checked[what] += 1
        return real_check(rect, what)

    def keeping_gens(p):
        built.append(real_gens(p))
        return built[-1]

    _, products = _count_products(monkeypatch)
    monkeypatch.setattr(words_module, "_check_finite", counting_check)
    monkeypatch.setattr(words_module, "gens_from_params", keeping_gens)
    assert _scan_reference_point(6, 3, 2000).words_scanned == 2000
    [gens] = built
    assert len(gens) == 142
    blocks = {(m, n) for m, n, _ in gens}
    assert len(blocks) == 49
    blocks.remove((0, 0))
    assert set(gens._offsets) == blocks
    offsets = Counter(what for what in checked.elements() if what.startswith("the offset"))
    assert offsets == Counter(f"the offset of x^{m} y^{n}" for m, n in blocks)
    a, b = gens.a.endpoints(), gens.b.endpoints()
    multiples = {(x, y): k for (x, y), k in products.items() if y in (a, b)}
    assert set(multiples) == {((float(m), float(m), 0.0, 0.0), a) for m, _ in blocks if m} | {
        ((float(n), float(n), 0.0, 0.0), b) for _, n in blocks if n
    }
    assert len(multiples) == 12 and set(multiples.values()) == {1}
    assert sum(products.values()) == 28


def _outcome(call):
    """call()'s result, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as err:
        return str(err)


def _hex_outcome(outcome):
    """An outcome with each float as its hex, nested tuples kept, None and messages as they are."""
    if isinstance(outcome, float):
        return outcome.hex()
    if isinstance(outcome, tuple):
        return tuple(map(_hex_outcome, outcome))
    return outcome


def test_scan_caches_are_bit_identical_to_fresh_builds() -> None:
    """A warm triple gives every word the bits of a triple built for it alone.

    One warm triple per box is asked for the syllables of every word in
    shuffled order, then for the words' bounds in another shuffled order,
    so each block's offset, each multiple of a and b and each power of
    gamma is built for one word and read by the others.  A fresh triple
    per word builds only what that word needs.  Their table rectangles
    and [L, U] must agree bit for bit, and an overflow must raise the same
    message: at a = 1e308 the offset of x^2 overflows and that of x does
    not.
    """
    rng = random.Random(19031)
    ref = [Params(4.0, 1.0 + 4.0 * k + math.sqrt(3.0) * 1j, 2.0) for k in (-1, 0, 1)]
    boxes = [ParamBox.from_point(p) for p in ref]
    boxes += _random_dyadic_boxes(1.5, 1, rng) + _random_dyadic_boxes(6.0, 1, rng)
    boxes.append(ParamBox.from_point(Params(1e308, 0.5 + 1j, 0)))
    # the first word of every body of (2,1) and (3,2), and 2000 positions of (6,3)
    pool = [s for d, e in ((2, 1), (3, 2)) for s in enumerate_segments(d, e) if s.__class__ is Word]
    assert len(pool) == 34 + 4900
    pool += islice(enumerate_words(6, 3), 2000)
    raised = 0
    for box in boxes:
        warm = gens_from_params(box)
        syllables = [s for w in pool for s in w.syllables]
        rng.shuffle(syllables)
        for s in syllables:
            _outcome(lambda: warm[s])
        order = rng.sample(pool, len(pool))
        warm_bounds = {w: _outcome(lambda: lower_left_bounds(warm, w.syllables)) for w in order}
        for w in pool:
            fresh = gens_from_params(box)
            bounds = _outcome(lambda: lower_left_bounds(fresh, w.syllables))
            assert _hex_outcome(bounds) == _hex_outcome(warm_bounds[w]), (box.path, str(w))
            raised += isinstance(bounds, str)
            for s in w.syllables:
                entry = _outcome(lambda: fresh[s])
                assert _hex_outcome(entry) == _hex_outcome(_outcome(lambda: warm[s]))
    assert raised > 1000


def _hex_rects(rects):
    return [tuple(v.hex() for v in r) for r in rects]


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
            g11, g12, g21, g22 = gens[0, 0, e][1]
            general = (
                rect_add(rect_mul(r1, g11), rect_mul(r2, g21)),
                rect_add(rect_mul(r1, g12), rect_mul(r2, g22)),
            )
            assert _hex_rects(row) == _hex_rects(general), (c, r1, r2, e)


def test_unboxed_table_matches_the_oracle_entries() -> None:
    """Rectangles built from endpoints equal the oracle's generator entries bit for bit."""
    box = param_space(1.5)
    for bit in "0110100101":
        box = subdivide(box)[int(bit)]
    for target in (REF, Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 0.5), box):
        gens = gens_from_params(target)
        for m in range(-3, 4):
            for n in range(-3, 4):
                offset = gens[m, n, 1][0]
                if m or n:
                    oracle = evaluate_word(Word(((m, n, 0),)), gens).m12.endpoints()
                    assert _hex_rects([offset]) == _hex_rects([oracle])
                else:
                    assert offset is None
        for e in [k for k in range(-40, 41) if k]:
            g = evaluate_word(Word(((0, 0, e),)), gens)
            oracle = [x.endpoints() for x in (g.m11, g.m12, g.m21, g.m22)]
            assert _hex_rects(gens[0, 0, e][1]) == _hex_rects(oracle), e
        assert gens[2, -1, 0] == (gens[2, -1, 1][0], None)
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
                    gens[0, 0, e]
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
    w = parse_word("x^2 y")
    m = evaluate_word(w, REF)
    assert m.m21.re.lo == 0.0 and m.m21.re.hi == 0.0
    assert m.m21.im.lo == 0.0 and m.m21.im.hi == 0.0
    assert m.m12.contains(2 * REF.a + REF.b)


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
