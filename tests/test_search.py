"""Branch-and-prune driver: frozen fixtures, cover invariants, determinism."""

import hashlib
import json
import math
import random
import re
import zlib
from collections import Counter
from dataclasses import fields, replace
from itertools import islice, permutations, product

import pytest

from horocusp import search as search_module
from horocusp import words as words_module
from horocusp.bicuspid import COORD_NAMES, Feasibility, ParamBox, Params, box_in_param_space
from horocusp.bicuspid import param_space
from horocusp.search import (
    AUDIT_TOLERANCE,
    BoxStatus,
    BoxVerdict,
    SearchConfig,
    aggregate_volume_bound,
    run_search,
    subdivide,
    test_box,
    verify_report,
)
from horocusp.interval import RealInterval, rect_abs
from horocusp.words import (
    Run,
    Word,
    WordStream,
    enumerate_segments,
    enumerate_words,
    evaluate_word_float,
    gens_from_params,
    lower_left_abs,
    lower_left_bounds,
    parse_word,
    volume_bound,
)

from test_words import _AXIS_GENERATOR, _expanded, _outcome

SLICE_BOUNDS = [[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.7, -0.4], [0.0, 0.0]]
# finite endpoints whose b_re width 3.4e308 overflows to inf
WIDE_BOUNDS = [[1.0, 1.2], [0.0, 0.0], [-1.7e308, 1.7e308], [0.5, 1.0], [-0.7, -0.4], [0.0, 0.0]]
STRADDLE_BOUNDS = [[0.5, 1.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.75, -0.25], [0.0, 0.0]]


def _cfg(**kw):
    base = dict(
        area_bound=6.0,
        max_d=2,
        max_exp=1,
        max_depth=12,
        min_box_width=0.01,
        word_budget_per_box=10000,
    )
    base.update(kw)
    return SearchConfig(**base)


def test_config_validation() -> None:
    for kw in (
        {"area_bound": 0.0},
        {"area_bound": math.inf},
        {"area_bound": True},
        {"area_bound": "6"},
        {"area_bound": 1e308},
        {"max_d": 0},
        {"max_d": 1.9},
        {"max_d": True},
        {"max_d": math.inf},
        {"max_exp": 0},
        {"max_exp": True},
        {"max_depth": 0},
        {"max_depth": 65},
        {"max_depth": 12.5},
        {"min_box_width": 0.0},
        {"min_box_width": math.inf},
        {"min_box_width": math.nan},
        {"min_box_width": True},
        {"word_budget_per_box": 0},
        {"word_budget_per_box": True},
        {"max_boxes": -1},
        {"max_boxes": 2.5},
        {"max_boxes": True},
        {"max_boxes": math.nan},
        {"use_parent_word_hint": "no"},
        {"use_parent_word_hint": 1},
        {"root_box": SLICE_BOUNDS[:5]},
        {"root_box": [[1.2, 1.0]] + SLICE_BOUNDS[1:]},
        {"root_box": [[0, True]] + SLICE_BOUNDS[1:]},
        {"root_box": [[0, "1"]] + SLICE_BOUNDS[1:]},
        {"root_box": "box"},
        {"root_box": 6},
        {"root_box": WIDE_BOUNDS},
        # the default root of this area has a b_re width 2R that overflows
        {"area_bound": 8e307},
    ):
        try:
            _cfg(**kw)
            assert False, f"expected TypeError or ValueError for {kw}"
        except (TypeError, ValueError):
            pass
    assert _cfg(root_box=SLICE_BOUNDS).resolved_root() == ParamBox.from_bounds(SLICE_BOUNDS)


def test_param_box_widths_must_be_finite() -> None:
    """Every constructor route refuses a box whose width hi - lo overflows."""
    wide = [RealInterval(lo, hi) for lo, hi in WIDE_BOUNDS]
    for build in (
        lambda: ParamBox.from_bounds(WIDE_BOUNDS),
        lambda: ParamBox(*wide),
        lambda: param_space(8e307),
    ):
        with pytest.raises(ValueError, match="the width of b_re = .* must be finite"):
            build()
    assert math.isfinite(max(param_space(8e306).widths()))


def test_config_defaults_and_stored_types() -> None:
    cfg = SearchConfig(area_bound=6)
    assert (cfg.max_d, cfg.max_exp, cfg.max_depth) == (3, 2, 12)
    assert (cfg.min_box_width, cfg.word_budget_per_box) == (1e-3, 20000)
    assert (cfg.max_boxes, cfg.use_parent_word_hint) == (0, True)
    cfg = _cfg(area_bound=6, max_d=2.0, max_depth=12.0, min_box_width=1, max_boxes=5.0)
    assert type(cfg.area_bound) is float and type(cfg.min_box_width) is float
    assert type(cfg.max_d) is int and type(cfg.max_depth) is int and type(cfg.max_boxes) is int
    assert cfg == _cfg(max_boxes=5, min_box_width=1.0)


def test_subdivide_tie_break_and_partition():
    cube = ParamBox.from_bounds([[0.0, 1.0]] * 6)
    lo, hi = subdivide(cube)
    assert lo.path == "0" and hi.path == "1"
    assert lo.to_bounds()[0] == [0.0, 0.5] and hi.to_bounds()[0] == [0.5, 1.0]
    assert lo.to_bounds()[1:] == cube.to_bounds()[1:]

    skew = ParamBox.from_bounds(
        [[0.0, 0.0], [0.0, 0.0], [0.0, 2.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    )
    lo, hi = subdivide(skew)
    assert COORD_NAMES[2] == "b_re"
    assert lo.to_bounds()[2] == [0.0, 1.0] and hi.to_bounds()[2] == [1.0, 2.0]

    for axis in range(6):
        assert lo.to_bounds()[axis][0] == skew.to_bounds()[axis][0]
        assert hi.to_bounds()[axis][1] == skew.to_bounds()[axis][1]

    point = ParamBox.from_point(Params(4.0, 1 + 1j, 2.0))
    try:
        subdivide(point)
        assert False, "expected ValueError for zero-volume box"
    except ValueError:
        pass


def test_a_box_whose_midpoint_rounds_onto_an_endpoint_is_not_split() -> None:
    """A box whose widest coordinate's midpoint rounds onto an endpoint is not split.

    On [1, nextafter(1, 2)] the midpoint rounds onto lo, and on
    [nextafter(1, 0), 1] onto hi, so one half would be the box itself:
    subdivide raises ValueError, and run_search keeps such a root as its
    one leaf, where it used to test 25 boxes and keep 13 leaves, twelve of
    zero width and one equal to the root.  A two-ulp coordinate still
    splits into two one-ulp halves.
    """
    r3 = math.sqrt(3.0)
    points = [[4.0, 4.0], [0.0, 0.0], [1.0, 1.0], [r3, r3], [2.0, 2.0]]
    for c_im in ([1.0, math.nextafter(1.0, 2.0)], [math.nextafter(1.0, 0.0), 1.0]):
        root = points + [c_im]
        where = rf"c_im = \[{c_im[0]!r}, {c_im[1]!r}\]"
        with pytest.raises(ValueError, match=f"the midpoint of {where} is not strictly inside"):
            subdivide(ParamBox.from_bounds(root))
        rep = run_search(_cfg(root_box=root, min_box_width=1e-300))
        assert (rep.boxes_tested, len(rep.leaves)) == (1, 1)
        assert rep.leaves[0].box.path == "" and rep.leaves[0].status is BoxStatus.UNDECIDED
    two = points + [[1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0)]]
    lo, hi = subdivide(ParamBox.from_bounds(two))
    assert lo.c_im.hi == hi.c_im.lo == math.nextafter(1.0, 2.0)


def test_box_infeasible_short_circuit(monkeypatch):
    """An infeasible box scans nothing, and with stream None builds no stream."""
    box = ParamBox.from_bounds(
        [[0.2, 0.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    taken = []
    monkeypatch.setattr(words_module, "enumerate_segments", lambda *caps: taken.append(caps))
    v = test_box(box, None, _cfg())
    assert v.status is BoxStatus.ELIMINATED_INFEASIBLE
    assert v.words_scanned == 0 and v.word is None
    assert taken == []


def test_box_eliminates_with_canonical_witness():
    box = ParamBox.from_bounds(
        [[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    v = test_box(box, None, _cfg())
    assert v.status is BoxStatus.ELIMINATED_KILLER
    assert str(v.word) == "z x z"
    assert v.words_scanned == 12


def test_box_candidate_on_straddling_zero_locus():
    box = ParamBox.from_bounds(
        [[1.0, 1.05], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-1.02, -0.98], [0.0, 0.0]]
    )
    v = test_box(box, None, _cfg())
    assert v.status is BoxStatus.CANDIDATE
    assert str(v.word) == "z x z"
    assert v.volume_bound == 0.0
    assert v.words_scanned == 145


def test_box_budget_and_near_miss():
    box = ParamBox.from_bounds(
        [[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    v = test_box(box, None, _cfg(word_budget_per_box=3))
    assert v.status is BoxStatus.UNDECIDED
    assert v.words_scanned == 3
    assert v.near_miss is None

    lined = ParamBox.from_bounds(
        [[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.3, -0.1], [0.0, 0.0]]
    )
    stream = WordStream(2, 1, 10000)
    v2 = test_box(lined, stream, _cfg())
    assert v2.status is BoxStatus.UNDECIDED
    assert stream.words[v2.near_miss] == parse_word("z x z")


def test_box_hint_scanned_first():
    """The parent's near miss is the hint, scanned first, unless use_parent_word_hint is off."""
    box = ParamBox.from_bounds(
        [[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    stream = WordStream(2, 1, 10000)
    hint = stream.words.index(parse_word("z x z"))
    assert hint > 0
    # a parent whose live is the root's first scan, so only the hint differs
    parent = _given_parent(box, stream, stream.first_scan, near_miss=hint)
    v = test_box(box, stream, _cfg(), parent=parent)
    assert v.status is BoxStatus.ELIMINATED_KILLER
    assert v.word == parse_word("z x z")
    assert v.words_scanned == 1
    off = test_box(box, stream, _cfg(use_parent_word_hint=False), parent=parent)
    assert (off.status, off.word, off.words_scanned) == (v.status, v.word, 12)


def _every_word(max_d, max_exp):
    """enumerate_segments with every Run expanded into Words, so a stream of it evaluates every word."""
    for segment in enumerate_segments(max_d, max_exp):
        yield from segment.words() if isinstance(segment, Run) else (segment,)


def _stream_of(monkeypatch, segments, cfg):
    """The WordStream at cfg's caps and budget cut from segments, in their order.

    WordStream takes its segments from words.enumerate_segments, so the
    stream is built while that yields these segments.
    """
    with monkeypatch.context() as patch:
        patch.setattr(words_module, "enumerate_segments", lambda max_d, max_exp: iter(segments))
        return WordStream(cfg.max_d, cfg.max_exp, cfg.word_budget_per_box)


def test_near_miss_tie_rule(monkeypatch) -> None:
    """Candidate and near miss are the earliest in stream order, hint included.

    The near miss is the least (hi, index) and the candidate the least
    index, in any stream order and whichever word is the hint, the near
    miss of a given parent whose live holds every index.  On the
    canonical stream the earliest index is the least sort_key.  The
    made-up bounds give body twins such as "x z" and "z" different
    enclosures, so the scans run on streams that evaluate every word.
    """
    box = ParamBox.from_bounds(
        [[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.3, -0.1], [0.0, 0.0]]
    )
    small, mid, big, far = (parse_word(t) for t in ("x z", "z x z", "z x^-1 z", "z"))
    assert far.sort_key() < small.sort_key() < mid.sort_key() < big.sort_key()
    bounds = {}

    def kernel(gens, syllables):
        iv = bounds[Word(syllables)]
        return iv.lo, iv.hi

    monkeypatch.setattr(search_module, "lower_left_bounds", kernel)

    def scan(order, hint=None):
        """The verdict on a stream of order, hint given as a word; (verdict, near miss word)."""
        stream = _stream_of(monkeypatch, order, _cfg())
        parent = None
        if hint is not None:
            parent = _given_parent(box, stream, range(len(order)), near_miss=order.index(hint))
        v = test_box(box, stream, _cfg(), parent=parent)
        return v, None if v.near_miss is None else stream.words[v.near_miss]

    def near_miss(order, hint=None):
        v, miss = scan(order, hint)
        assert v.status is BoxStatus.UNDECIDED
        return miss

    # equal hi: the earliest index wins, whichever word is the hint
    bounds.update({w: RealInterval(0.5, 1.25) for w in (small, mid, big)})
    bounds[far] = RealInterval(1.0, 1.0)  # lo >= 1: never a near miss
    assert near_miss([small, mid, big]) == small
    assert near_miss([big, mid, small]) == big
    assert near_miss([small, mid, big], hint=big) == small
    assert near_miss([far, big, mid], hint=mid) == big
    assert near_miss([far]) is None
    # a strictly smaller hi wins over any index
    bounds[big] = RealInterval(0.5, 1.125)
    assert near_miss([small, mid, big]) == big
    assert near_miss([big, small, mid], hint=small) == big
    bounds[far] = RealInterval(0.0, 1.0)
    assert near_miss([small, mid, big, far]) == far

    for his in ((1.5, 1.5, 1.5, 1.5), (1.5, 1.25, 1.25, 2.0), (1.75, 1.75, 1.5, 1.75)):
        bounds.update({w: RealInterval(0.25, hi) for w, hi in zip((small, mid, big, far), his)})
        for order in map(list, permutations(bounds)):
            expected = min(order, key=lambda w: (bounds[w].hi, order.index(w)))
            for hint in (None, *order):
                assert near_miss(order, hint) == expected, (order, hint)

    # lo = 0 and hi < 1 make a candidate: the earliest one wins, whatever its hi
    bounds.update({small: RealInterval(0.0, 0.5), big: RealInterval(0.0, 0.25)})
    bounds.update({mid: RealInterval(0.5, 1.5), far: RealInterval(1.0, 2.0)})
    for order in map(list, permutations(bounds)):
        expected = min((w for w in order if bounds[w].hi < 1.0), key=order.index)
        for hint in (None, *order):
            v, _ = scan(order, hint)
            assert (v.status, v.word) == (BoxStatus.CANDIDATE, expected), (order, hint)

    # on the canonical stream, the earliest index is the least sort_key
    canonical = list(enumerate_words(2, 1))
    rng = random.Random(5081)
    for _ in range(20):
        bounds.clear()
        for w in canonical:
            bounds[w] = RealInterval(rng.choice((0.5, 1.0)), rng.choice((1.25, 1.5)))
        hint = rng.choice((None, *canonical))
        expected = min(
            (w for w in canonical if bounds[w].lo < 1.0), key=lambda w: (bounds[w].hi, w.sort_key())
        )
        assert near_miss(canonical, hint) == expected
        candidates = rng.sample(canonical, 3)
        bounds.update({w: RealInterval(0.0, rng.choice((0.5, 0.75))) for w in candidates})
        v, _ = scan(canonical, hint)
        assert (v.status, v.word) == (BoxStatus.CANDIDATE, min(candidates, key=Word.sort_key))


def _status_counts(report):
    return Counter(leaf.status.value for leaf in report.leaves)


def _assert_leaf_partition(report):
    """Paths must merge pairwise back to the root and bounds must replay."""
    root = report.config.resolved_root()
    by_path = {leaf.box.path: leaf for leaf in report.leaves}
    assert len(by_path) == len(report.leaves)
    for leaf in report.leaves:
        box = root
        for bit in leaf.box.path:
            lo, hi = subdivide(box)
            box = lo if bit == "0" else hi
        assert box.to_bounds() == leaf.box.to_bounds()
    pending = set(by_path)
    while pending != {""}:
        merged = {
            p[:-1]
            for p in pending
            if p.endswith("0") and p[:-1] + "1" in pending
        }
        assert merged, f"leaf paths do not tile the root: {sorted(pending)[:8]}"
        for parent in merged:
            pending.discard(parent + "0")
            pending.discard(parent + "1")
            pending.add(parent)


def test_run_search_slice_demo_fully_eliminated():
    rep = run_search(_cfg(root_box=SLICE_BOUNDS))
    assert len(rep.leaves) == 1
    leaf = rep.leaves[0]
    assert leaf.box.path == ""
    assert leaf.status is BoxStatus.ELIMINATED_KILLER
    assert str(leaf.word) == "z x z"
    assert rep.global_volume_bound == "-inf"
    assert rep.boxes_tested == 1 and rep.words_evaluated == 12
    assert not rep.incomplete
    audit = verify_report(rep, 50)
    assert audit["passed"] and audit["leaves_audited"] == 1 and audit["samples_taken"] == 50


def test_run_search_straddle_fixture():
    rep = run_search(_cfg(max_depth=6, min_box_width=1e-3, root_box=STRADDLE_BOUNDS))
    counts = _status_counts(rep)
    assert counts == {"undecided": 9, "eliminated_killer": 8, "candidate": 1}
    assert rep.boxes_tested == 35
    assert rep.global_volume_bound == "unbounded"
    _assert_leaf_partition(rep)
    assert verify_report(rep, 25)["passed"]


def test_run_search_infeasible_children():
    rep = run_search(
        _cfg(
            max_depth=6,
            min_box_width=1e-3,
            root_box=[[0.3, 1.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.75, -0.25], [0.0, 0.0]],
        )
    )
    counts = _status_counts(rep)
    assert counts["eliminated_infeasible"] == 1
    assert counts["eliminated_killer"] == 5
    assert counts["undecided"] == 7
    _assert_leaf_partition(rep)


def test_run_search_empty_region():
    rep = run_search(_cfg(area_bound=math.sqrt(3.0) / 2.0))
    assert rep.leaves == []
    assert rep.global_volume_bound == "-inf"
    assert rep.boxes_tested == 0 and rep.words_evaluated == 0
    assert not rep.incomplete


def test_run_search_point_box_survives():
    root = [[4.0, 4.0], [0.0, 0.0], [1.0, 1.0], [math.sqrt(3.0)] * 2, [2.0, 2.0], [0.0, 0.0]]
    rep = run_search(_cfg(root_box=root))
    assert len(rep.leaves) == 1
    assert rep.leaves[0].status is BoxStatus.UNDECIDED
    assert rep.global_volume_bound == "unbounded"


def test_run_search_byte_determinism():
    for max_boxes in (0, 7):
        blobs = []
        for _ in range(2):
            rep = run_search(
                _cfg(
                    max_depth=6,
                    min_box_width=1e-3,
                    max_boxes=max_boxes,
                    root_box=STRADDLE_BOUNDS,
                )
            )
            assert rep.incomplete == (max_boxes > 0)
            blobs.append(rep.to_canonical_json())
        assert blobs[0] == blobs[1]
        assert "worker_count" not in blobs[0]
        assert "wall_time" not in blobs[0]


def test_worker_count_is_a_deprecated_no_op():
    assert [f.name for f in fields(SearchConfig)] == [
        "area_bound",
        "max_d",
        "max_exp",
        "max_depth",
        "min_box_width",
        "word_budget_per_box",
        "max_boxes",
        "use_parent_word_hint",
        "root_box",
    ]
    for value in (8, 1, 0, 1.5, "many"):
        with pytest.warns(FutureWarning, match="worker_count") as record:
            cfg = SearchConfig(area_bound=6.0, worker_count=value)
        assert len(record) == 1
        assert record[0].filename == __file__  # the caller, not search.py
        assert cfg == SearchConfig(area_bound=6.0)
    plain = run_search(_cfg(max_depth=6, max_boxes=7, root_box=STRADDLE_BOUNDS))
    with pytest.warns(FutureWarning):
        cfg = _cfg(max_depth=6, max_boxes=7, root_box=STRADDLE_BOUNDS, worker_count=8)
    assert run_search(cfg).to_canonical_json() == plain.to_canonical_json()


# canonical report bytes of the budget-capped area-1.5 search by box cap,
# recorded before the unboxed scan kernel and the tuple-key enumerator; the
# 50-box report is the one the search-area benchmark checks
CAPPED_AREA_SHA256 = {
    20: "313e10159ab073e3d4469a0208102611a48aab98e72a04eac48fb3e3c0798c3b",
    50: "ee69f02a8dc09fdcd4f00278e64a4ab921da9fd11fe8ae5d3f26fef916b36e12",
}


@pytest.mark.parametrize("max_boxes", sorted(CAPPED_AREA_SHA256))
def test_capped_area_search_report_golden(max_boxes) -> None:
    cfg = SearchConfig(
        area_bound=1.5,
        max_d=2,
        max_exp=1,
        max_depth=12,
        min_box_width=0.01,
        word_budget_per_box=10000,
        max_boxes=max_boxes,
    )
    text = run_search(cfg).to_canonical_json().encode()
    assert hashlib.sha256(text).hexdigest() == CAPPED_AREA_SHA256[max_boxes]


def test_area_one_complete_cover_golden() -> None:
    """The first complete cover: area 1.0 at depth 18, every leaf decided.

    The only tier-1 run that scans gamma^+-2 syllables on wide boxes with
    parent verdicts, their live dicts and tables, handed down 18 levels.
    Bytes recorded before the kernel resolved gamma^+-1's exact entries.
    """
    cfg = SearchConfig(
        area_bound=1.0, max_d=3, max_exp=2, max_depth=18, word_budget_per_box=2000
    )
    report = run_search(cfg)
    text = report.to_canonical_json().encode()
    assert hashlib.sha256(text).hexdigest() == (
        "f02a3bba9797b07d01a9184ea92f69bbbd5744d9c50e9947348f1999e4b99f98"
    )
    assert (report.boxes_tested, report.words_evaluated, report.kernel_runs) == (239, 446388, 76896)
    assert Counter(leaf.status for leaf in report.leaves) == {
        BoxStatus.CANDIDATE: 104,
        BoxStatus.ELIMINATED_KILLER: 4,
        BoxStatus.ELIMINATED_INFEASIBLE: 12,
    }
    assert report.global_volume_bound == math.pi and not report.incomplete
    _assert_leaf_partition(report)
    audit = verify_report(report, 20)
    expect = _audit_per_sample_params(json.loads(text), 20)
    assert audit["passed"] and _spelled(audit) == _spelled(expect)


def test_area_one_and_a_half_deep_cover_golden() -> None:
    """An uncapped depth-15 cover of the area-1.5 space with 2000 words per box.

    19479 boxes hand hints and parent verdicts, their live dicts and tables,
    down 15 levels over the (2, 1) stream, so the scan meets Runs, hints
    and dead words on every level.  Bytes recorded before the stream held
    segments.
    """
    cfg = SearchConfig(
        area_bound=1.5, max_d=2, max_exp=1, max_depth=15, word_budget_per_box=2000
    )
    report = run_search(cfg)
    text = report.to_canonical_json().encode()
    assert hashlib.sha256(text).hexdigest() == (
        "890a0a6a1f140ec9aa07146e4d6506adcd0f1c5bb22579fc2f88bcd55c2ce8a4"
    )
    assert (report.boxes_tested, report.words_evaluated) == (19479, 2450845)
    assert report.kernel_runs == 182110
    assert not report.incomplete


def test_four_syllable_words_capped_cover_golden() -> None:
    """A capped area-1.2 search on the (4,1) stream, the one golden that meets 4-syllable words.

    Its 20000-word cut holds 7970 Words, 7424 of them of 4 syllables, so
    the kernel steps rows past the first two syllables on every box, a
    root and 9 children handed parent verdicts.  Bytes and kernel runs
    recorded before the table kept the row after a word's first two
    syllables.
    """
    cfg = SearchConfig(
        area_bound=1.2, max_d=4, max_exp=1, max_depth=12, word_budget_per_box=20000, max_boxes=10
    )
    cut = WordStream(4, 1, 20000)
    lengths = Counter(len(w.syllables) for w in cut.words)
    assert lengths == {4: 7424, 3: 512, 2: 32, 1: 2}
    report = run_search(cfg)
    text = report.to_canonical_json().encode()
    assert hashlib.sha256(text).hexdigest() == (
        "227ec65f1621df73713e0b4e10cf0ba0b58300a17de0a9c6775013e3b2beff82"
    )
    assert (report.boxes_tested, report.words_evaluated, report.kernel_runs) == (10, 200000, 78440)
    assert report.incomplete


def test_leaf_box_as_root_reproduces_from_its_bounds() -> None:
    """A ParamBox root with a path searches as its bounds do, and reruns from its report."""
    earlier = run_search(_cfg(max_depth=6, max_boxes=5, root_box=STRADDLE_BOUNDS))
    leaf = next(leaf.box for leaf in earlier.leaves if leaf.status is BoxStatus.UNDECIDED)
    assert leaf.path
    settings = dict(max_depth=3, min_box_width=1e-3, word_budget_per_box=200)
    from_box = run_search(_cfg(root_box=leaf, **settings))
    from_bounds = run_search(_cfg(root_box=leaf.to_bounds(), **settings))
    text = from_box.to_canonical_json()
    assert text == from_bounds.to_canonical_json()
    assert SearchConfig(**json.loads(text)["config"]) == from_box.config
    assert run_search(SearchConfig(**json.loads(text)["config"])).to_canonical_json() == text
    assert from_box.config.root_box.path == ""
    assert max(len(row.box.path) for row in from_box.leaves) == 3


def test_box_scan_golden_at_reference_point() -> None:
    # recorded before the unboxed scan kernel and the tuple-key enumerator
    cfg = SearchConfig(
        area_bound=6.0,
        max_d=6,
        max_exp=3,
        max_depth=12,
        min_box_width=1e-6,
        word_budget_per_box=300,
    )
    for k in (-1, 0, 1):
        p = Params(4.0, complex(1.0 + 4.0 * k, math.sqrt(3.0)), 2.0)
        v = test_box(ParamBox.from_point(p), None, cfg)
        verdict = (v.status, v.word, v.words_scanned, v.near_miss)
        assert verdict == (BoxStatus.UNDECIDED, None, 300, None)
    # a box around c = 3, where the scan keeps a near miss
    box = ParamBox.from_bounds(
        [[3.95, 4.05], [0.0, 0.0], [0.95, 1.05], [math.sqrt(3.0) - 0.05, math.sqrt(3.0) + 0.05],
         [2.95, 3.05], [-0.05, 0.05]]
    )
    stream = WordStream(6, 3, 300)
    v = test_box(box, stream, cfg)
    assert (v.status, v.words_scanned) == (BoxStatus.UNDECIDED, 300)
    assert str(stream.words[v.near_miss]) == "z x^-1 z"


def test_run_search_repeat_run_byte_determinism() -> None:
    cfg = _cfg(max_depth=5, min_box_width=1e-3, root_box=STRADDLE_BOUNDS)
    assert run_search(cfg).to_canonical_json() == run_search(cfg).to_canonical_json()


def test_hint_toggle_preserves_leaf_verdicts():
    on = run_search(_cfg(max_depth=6, min_box_width=1e-3, root_box=STRADDLE_BOUNDS))
    off = run_search(
        _cfg(max_depth=6, min_box_width=1e-3, use_parent_word_hint=False, root_box=STRADDLE_BOUNDS)
    )
    assert {(l.box.path, l.status.value) for l in on.leaves} == {
        (l.box.path, l.status.value) for l in off.leaves
    }


def test_max_boxes_cap_flags_incomplete():
    rep = run_search(_cfg(max_depth=6, min_box_width=1e-3, max_boxes=3, root_box=STRADDLE_BOUNDS))
    assert rep.incomplete
    assert rep.boxes_tested == 3
    assert rep.global_volume_bound == "unbounded"
    counts = _status_counts(rep)
    assert counts["undecided"] >= 1
    _assert_leaf_partition(rep)
    untested = [l for l in rep.leaves if l.status is BoxStatus.UNDECIDED and l.words_scanned == 0]
    assert untested


def test_volume_bound_monotone_in_max_d():
    order = {"-inf": -math.inf, "unbounded": math.inf}
    candidate_root = [[1.0, 1.05], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-1.02, -0.98], [0.0, 0.0]]
    for root in (SLICE_BOUNDS, candidate_root):
        values = []
        for d in (2, 3):
            rep = run_search(_cfg(max_d=d, root_box=root))
            v = rep.global_volume_bound
            values.append(order.get(v, v))
        assert values[0] <= values[1]


def test_aggregate_volume_bound_rules():
    rep = run_search(_cfg(root_box=SLICE_BOUNDS))
    assert aggregate_volume_bound(rep.leaves) == "-inf"
    assert aggregate_volume_bound([]) == "-inf"


def _audit_per_sample_params(blob: dict, samples_per_box: int) -> dict:
    """verify_report's audit of a report's JSON form: a Params and a full matrix per sample."""
    audited = taken = 0
    violations = []
    for row in blob["leaves"]:
        if row["status"] != BoxStatus.ELIMINATED_KILLER.value:
            continue
        audited += 1
        box = ParamBox.from_bounds(row["bounds"])
        rng = random.Random(zlib.crc32(("audit:" + row["path"]).encode("ascii")))
        for _ in range(samples_per_box):
            taken += 1
            vals = [iv.lo + rng.random() * iv.width for iv in box.coords()]
            p = Params(
                complex(vals[0], vals[1]), complex(vals[2], vals[3]), complex(vals[4], vals[5])
            )
            mag = abs(evaluate_word_float(parse_word(row["word"]), p)[2])
            if not AUDIT_TOLERANCE < mag < 1.0 + AUDIT_TOLERANCE:
                violations.append(
                    {"path": row["path"], "word": row["word"], "params": vals, "abs_lower_left": mag}
                )
    return {
        "passed": not violations,
        "leaves_audited": audited,
        "samples_taken": taken,
        "violations": violations,
    }


def _spelled(audit: dict) -> str:
    """An audit as JSON text: repr spells each float exactly, signed zeros too, and NaN as NaN."""
    return json.dumps(audit, sort_keys=True)


def test_verify_report_accepts_json_dict_and_catches_corruption():
    rep = run_search(_cfg(root_box=SLICE_BOUNDS))
    blob = json.loads(rep.to_canonical_json())
    assert verify_report(blob, 30)["passed"]

    corrupted = json.loads(rep.to_canonical_json())
    corrupted["leaves"][0]["word"] = "z y z"
    audit = verify_report(corrupted, 30)
    assert not audit["passed"]
    assert audit["violations"]
    first = audit["violations"][0]
    assert first["path"] == "" and first["word"] == "z y z"
    assert first["abs_lower_left"] >= 1.0
    assert _spelled(audit) == _spelled(_audit_per_sample_params(corrupted, 30))

    # a second killer leaf where c ~ 1e308 overflows the float product to NaN
    nan_leaf = dict(corrupted["leaves"][0], path="1", word="z^3 x z^-1")
    nan_leaf["bounds"] = SLICE_BOUNDS[:4] + [[1e308, 1e308], [0.0, 0.0]]
    corrupted["leaves"].append(nan_leaf)
    audit = verify_report(corrupted, 30)
    assert math.isnan(audit["violations"][-1]["abs_lower_left"]) and audit["samples_taken"] == 60
    assert _spelled(audit) == _spelled(_audit_per_sample_params(corrupted, 30))


def test_verify_report_counts_a_nan_magnitude_as_a_violation(monkeypatch):
    rep = run_search(_cfg(root_box=SLICE_BOUNDS))
    assert verify_report(rep, 5)["passed"]
    nan = complex(math.nan, 0.0)
    monkeypatch.setattr(search_module, "float_row", lambda word, a, b, c, row: (nan, nan))
    audit = verify_report(rep, 5)
    assert not audit["passed"] and len(audit["violations"]) == audit["samples_taken"] == 5
    assert math.isnan(audit["violations"][0]["abs_lower_left"])


def test_verify_report_vacuous_on_empty():
    rep = run_search(_cfg(area_bound=math.sqrt(3.0) / 2.0))
    audit = verify_report(rep, 10)
    assert audit["passed"] and audit["leaves_audited"] == 0 and audit["samples_taken"] == 0


def test_verify_report_samples_must_be_an_integer() -> None:
    """samples_per_box is checked as SearchConfig's integer settings are, killer leaf or not."""
    killer = run_search(_cfg(root_box=SLICE_BOUNDS))
    empty = run_search(_cfg(area_bound=math.sqrt(3.0) / 2.0))
    for rep in (killer, empty):
        for bad in (True, "5"):
            with pytest.raises(TypeError, match="samples_per_box must be a number"):
                verify_report(rep, bad)
        with pytest.raises(ValueError, match="samples_per_box must be an integer"):
            verify_report(rep, 2.5)
    assert verify_report(killer, 5.0) == verify_report(killer, 5)


def test_root_defaults_to_feasible_box():
    cfg = _cfg(max_d=1, max_depth=1, min_box_width=5.0, word_budget_per_box=5)
    root = cfg.resolved_root()
    assert root is not None
    assert root.to_bounds() == param_space(6.0).to_bounds()
    rep = run_search(cfg)
    assert rep.boxes_tested >= 1
    _assert_leaf_partition(rep)


def _rect_inside(inner, outer) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1] and outer[2] <= inner[2] and inner[3] <= outer[3]


def test_dead_words_stay_dead_in_every_descendant() -> None:
    """L >= _DEAD_LO on a box forces L >= 1 on each dyadic descendant.

    Seeded boxes of two roots, then six levels below each: both children of
    every level are scanned and the walk goes on in one of them.  Each
    child's bottom-row m21 rectangle must also lie inside its parent's,
    the isotonicity the rule rests on.
    """
    rng = random.Random(36007)
    pool = list(enumerate_words(2, 1)) + list(islice(enumerate_words(3, 2), 3000))

    def scan(box):
        gens = gens_from_params(box)
        # the bottom row (m21, m22) of the identity, as rectangles
        identity = ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0))
        rects = [words_module._bottom_row(gens, w.syllables, identity)[0] for w in pool]
        return [rect_abs(*r)[0] for r in rects], rects

    dead_checked = 0
    for area in (1.5, 5.1):
        for _ in range(2):
            box = param_space(area)
            for _ in range(rng.randrange(7)):
                box = subdivide(box)[rng.randrange(2)]
            lows, rects = scan(box)
            dead = [lo >= search_module._DEAD_LO for lo in lows]
            for _ in range(6):
                children = [(child, *scan(child)) for child in subdivide(box)]
                for child, child_lows, child_rects in children:
                    for i, w in enumerate(pool):
                        assert _rect_inside(child_rects[i], rects[i]), (child.path, str(w))
                        if dead[i]:
                            dead_checked += 1
                            assert child_lows[i] >= 1.0, (child.path, str(w))
                box, lows, rects = children[rng.randrange(2)]
                dead = [was or lo >= search_module._DEAD_LO for was, lo in zip(dead, lows)]
    assert dead_checked > 10_000


# search-area's settings
_AREA_15 = dict(
    area_bound=1.5,
    max_d=2,
    max_exp=1,
    max_depth=12,
    min_box_width=0.01,
    word_budget_per_box=10000,
)
# the (3, 2) stream from the area-1.5 root, which stays undecided: 20 boxes
_AREA_15_D3 = dict(_AREA_15, max_d=3, max_exp=2, word_budget_per_box=2000, max_boxes=20)


@pytest.mark.parametrize(
    "settings",
    [
        dict(_AREA_15, max_boxes=7),
        dict(_AREA_15, max_boxes=50),
        dict(_AREA_15, max_boxes=500),
        # at area 2 a word ruled out on one sibling can kill the other early on
        dict(_AREA_15, area_bound=2.0, max_boxes=100),
        dict(_AREA_15, max_boxes=50, use_parent_word_hint=False),
        # the 145-word (2, 1) stream cut at 60, so an uncounted skip shows
        dict(_AREA_15, max_boxes=500, word_budget_per_box=60),
        dict(area_bound=6.0, max_d=2, max_exp=1, max_depth=6, min_box_width=1e-3,
             root_box=STRADDLE_BOUNDS),
        # the longer (3, 2) stream; its root box is eliminated at once
        dict(area_bound=6.0, max_d=3, max_exp=2, max_depth=6, min_box_width=1e-3,
             root_box=STRADDLE_BOUNDS),
        # the (3, 2) stream on a root that stays undecided, so children scan it
        _AREA_15_D3,
    ],
    ids=["area-7", "area-50", "area-500", "area-2", "no-hint", "budget-60", "straddle",
         "straddle-d3", "area-d3"],
)
def test_dead_word_skips_keep_report_bytes(monkeypatch, settings) -> None:
    """Skipping dead words and body twins and reusing bounds change no byte of the report.

    Each setting runs with dead-word skipping, twin skipping and bounds
    reuse each on and off, all eight ways; reuse is off when every word's
    m21 reads a, b and c.  With all three off the scan evaluates every
    word, and every run's kernel_runs counts its kernel calls.
    """
    cfg = SearchConfig(**settings)
    calls = 0
    real = search_module.lower_left_bounds

    def counted(gens, syllables):
        nonlocal calls
        calls += 1
        return real(gens, syllables)

    monkeypatch.setattr(search_module, "lower_left_bounds", counted)
    dead_lo, m21_reads = search_module._DEAD_LO, words_module.m21_reads
    runs = {}
    for twins, dead, reuse in product((True, False), repeat=3):
        segments = enumerate_segments if twins else _every_word
        monkeypatch.setattr(words_module, "enumerate_segments", segments)
        # a _DEAD_LO of inf rules no word out
        monkeypatch.setattr(search_module, "_DEAD_LO", dead_lo if dead else math.inf)
        reads = m21_reads if reuse else lambda syllables: words_module.GEN_ALL
        monkeypatch.setattr(words_module, "m21_reads", reads)
        calls = 0
        report = run_search(cfg)
        assert report.kernel_runs == calls
        runs[twins, dead, reuse] = report.to_canonical_json(), calls, report
    full = runs[False, False, False][2]
    assert {text for text, _, _ in runs.values()} == {full.to_canonical_json()}
    assert runs[False, False, False][1] == full.words_evaluated
    # a root box alone has no ancestor to skip words for, or take bounds from
    assert runs[False, True, False][1] < full.words_evaluated or full.boxes_tested == 1
    for dead, reuse in product((True, False), repeat=2):
        assert runs[True, dead, reuse][1] < runs[False, dead, reuse][1]
    for twins, dead in product((True, False), repeat=2):
        off = runs[twins, dead, False][1]
        assert runs[twins, dead, True][1] < off or full.boxes_tested == 1


class _TableReads(words_module.GeneratorTriple):
    """A box's table that records what the scan reads from it outside the kernel.

    outside lists each block whose offset is asked for, once per outermost
    call, and ("entry", syllable) for each entry asked for.
    """

    __slots__ = ("outside", "depth")
    in_kernel = [False]

    def __init__(self, a, b, c) -> None:
        super().__init__(a, b, c)
        self.outside, self.depth = [], 0

    def offset(self, m, n):
        # a two-axis block's offset asks for its two one-axis offsets
        if not self.in_kernel[0] and not self.depth:
            self.outside.append((m, n))
        self.depth += 1
        try:
            return super().offset(m, n)
        finally:
            self.depth -= 1

    def entry(self, syllable):
        if not self.in_kernel[0]:
            self.outside.append(("entry", syllable))
        return super().entry(syllable)


@pytest.mark.parametrize(
    "settings",
    [
        dict(_AREA_15, max_boxes=50),
        dict(_AREA_15, max_boxes=500, word_budget_per_box=60),
        dict(area_bound=6.0, max_d=2, max_exp=1, max_depth=6, min_box_width=1e-3,
             root_box=STRADDLE_BOUNDS),
        dict(area_bound=6.0, max_d=3, max_exp=2, max_depth=6, min_box_width=1e-3,
             root_box=STRADDLE_BOUNDS),
        _AREA_15_D3,
    ],
    ids=["search-area", "budget-60", "straddle", "straddle-d3", "area-d3"],
)
def test_every_box_of_a_run_shares_the_root_cut(monkeypatch, settings) -> None:
    """Every scanned box of a run stops at one cut, and only the root reads the twins' blocks.

    A box that is neither killed nor infeasible scans the words of the
    segments through the first one whose words reach the budget, cut at
    the budget, as the root does.  Outside the kernel, the root's table is
    asked for exactly the offsets of stream.blocks, in order, the distinct
    leading blocks of the cut's Runs, whether or not a word then kills the
    root, and for no entry; a child's table is asked for nothing: the root
    read every block of the shared cut.
    """
    cfg = SearchConfig(**settings)
    budget, cut, words = cfg.word_budget_per_box, [], 0
    for segment in enumerate_segments(cfg.max_d, cfg.max_exp):
        if words >= budget:
            break
        cut.append(segment)
        words += segment.count if isinstance(segment, Run) else 1
    blocks = []
    for segment in cut:
        if isinstance(segment, Run) and segment.prefix[0][:2] not in blocks:
            blocks.append(segment.prefix[0][:2])
    assert len(blocks) < sum(isinstance(segment, Run) for segment in cut)

    tables, verdicts = {}, []
    real_kernel, real_test_box = search_module.lower_left_bounds, search_module.test_box

    def kernel(gens, syllables):
        _TableReads.in_kernel[0] = True
        try:
            return real_kernel(gens, syllables)
        finally:
            _TableReads.in_kernel[0] = False

    def recording_gens(box):
        tables[box.path] = _TableReads(box.a(), box.b(), box.c())
        return tables[box.path]

    def recording_test_box(*args, **kwargs):
        verdicts.append(real_test_box(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(search_module, "lower_left_bounds", kernel)
    monkeypatch.setattr(words_module, "gens_from_params", recording_gens)
    monkeypatch.setattr(search_module, "test_box", recording_test_box)
    report = run_search(cfg)
    assert len(verdicts) == report.boxes_tested
    scanned = [v for v in verdicts if v.status in (BoxStatus.CANDIDATE, BoxStatus.UNDECIDED)]
    assert all(v.words_scanned == min(budget, words) for v in scanned)
    assert WordStream(cfg.max_d, cfg.max_exp, budget).blocks == blocks
    assert tables[""].outside == blocks
    assert all(table.outside == [] for path, table in tables.items() if path)
    assert len(scanned) > 10 or report.boxes_tested == 1


@pytest.mark.parametrize(
    "settings",
    [
        dict(_AREA_15, max_boxes=50),
        dict(_AREA_15, max_boxes=500, word_budget_per_box=60),
        dict(area_bound=6.0, max_d=2, max_exp=1, max_depth=6, min_box_width=1e-3,
             root_box=STRADDLE_BOUNDS),
        dict(area_bound=6.0, max_d=3, max_exp=2, max_depth=6, min_box_width=1e-3,
             root_box=STRADDLE_BOUNDS),
        _AREA_15_D3,
    ],
    ids=["search-area", "budget-60", "straddle", "straddle-d3", "area-d3"],
)
def test_child_reevaluates_only_what_its_split_changes(monkeypatch, settings) -> None:
    """A child runs the kernel only on words whose m21 reads the generator its split changed.

    Every other live word takes its parent's bounds, so the run makes
    fewer kernel calls than one whose masks read all three generators,
    with the same report bytes; each verdict's kernel_runs counts its
    calls.  straddle-d3's root is killed at once, so it has no child.
    """
    cfg = SearchConfig(**settings)
    calls, boxes = [], {}
    real_kernel, real_test_box = search_module.lower_left_bounds, search_module.test_box

    def kernel(gens, syllables):
        calls[-1][1].append(syllables)
        return real_kernel(gens, syllables)

    def recording_test_box(box, *args, **kwargs):
        boxes[box.path] = box
        calls.append((box.path, []))
        verdict = real_test_box(box, *args, **kwargs)
        assert verdict.kernel_runs == len(calls[-1][1])
        return verdict

    monkeypatch.setattr(search_module, "lower_left_bounds", kernel)
    monkeypatch.setattr(search_module, "test_box", recording_test_box)
    report = run_search(cfg)
    assert report.kernel_runs == sum(len(evaluated) for _, evaluated in calls)
    children = 0
    for path, evaluated in calls:
        if not path:
            continue
        children += 1
        parent, child = boxes[path[:-1]].coords(), boxes[path].coords()
        axis = next(i for i in range(6) if parent[i] != child[i])
        split = _AXIS_GENERATOR[axis]
        for syllables in evaluated:
            assert words_module.m21_reads(syllables) & split, (path, str(Word(syllables)))
    monkeypatch.setattr(words_module, "m21_reads", lambda syllables: words_module.GEN_ALL)
    monkeypatch.setattr(search_module, "test_box", real_test_box)
    monkeypatch.setattr(search_module, "lower_left_bounds", real_kernel)
    unmasked = run_search(cfg)
    assert unmasked.to_canonical_json() == report.to_canonical_json()
    assert report.kernel_runs < unmasked.kernel_runs or report.boxes_tested == 1
    assert children or report.boxes_tested == 1


def test_reuse_needs_the_parent_table(monkeypatch) -> None:
    """Bounds are reused only where no generator a word reads changed from the parent's table.

    A child scanned with its parent's verdict on a fresh stream whose masks
    say every word reads all three generators runs the kernel on every
    live word; on the run's own stream, on fewer, for the same verdict.  A
    box whose c differs from the parent's only in the sign of its zero
    imaginary part changes c's bits: every word that reads c is evaluated
    again, and no other.
    """
    calls = []
    real_kernel = search_module.lower_left_bounds

    def kernel(gens, syllables):
        calls.append(syllables)
        return real_kernel(gens, syllables)

    monkeypatch.setattr(search_module, "lower_left_bounds", kernel)
    cfg = _cfg(root_box=STRADDLE_BOUNDS)
    stream = WordStream(2, 1, cfg.word_budget_per_box)
    root = ParamBox.from_bounds(STRADDLE_BOUNDS)
    parent = test_box(root, stream, cfg)
    assert parent.status is BoxStatus.UNDECIDED and parent.live
    assert all(len(hit) == 2 and hit[0] < search_module._DEAD_LO for hit in parent.live.values())
    masks = stream.masks()
    # stream's masks are built; the fresh stream builds its own under the patch
    monkeypatch.setattr(words_module, "m21_reads", lambda syllables: words_module.GEN_ALL)
    fresh = WordStream(2, 1, cfg.word_budget_per_box)
    for child in subdivide(root):
        calls.clear()
        plain = test_box(child, fresh, cfg, parent=parent)
        assert plain.kernel_runs == len(calls) == len(parent.live)
        calls.clear()
        reused = test_box(child, stream, cfg, parent=parent)
        assert reused.kernel_runs == len(calls) < len(parent.live)
        assert _verdict_fields(reused) == _verdict_fields(plain)
    assert fresh.masks() == [words_module.GEN_ALL] * len(fresh.words)
    bounds = [list(pair) for pair in STRADDLE_BOUNDS]
    bounds[5] = [-0.0, -0.0]
    twin = ParamBox.from_bounds(bounds)
    assert gens_from_params(twin).inherit(parent.table) == words_module.GEN_C
    calls.clear()
    verdict = test_box(twin, stream, cfg, parent=parent)
    reads_c = [k for k in parent.live if masks[k] & words_module.GEN_C]
    # the parent's near miss, the hint, is evaluated first when it reads c
    first = sorted(reads_c, key=lambda k: k != parent.near_miss)
    assert calls == [stream.words[k].syllables for k in first]
    assert 0 < len(reads_c) < len(parent.live)
    assert _verdict_fields(verdict) == _verdict_fields(test_box(root, stream, cfg))


def test_box_hands_its_children_a_new_dead_set() -> None:
    """A child's live is a strict subsequence of its parent's, which it never changes.

    Siblings share the parent's live dict, so test_box must not write
    into it, and a position the parent ruled out never comes back.
    """
    cfg = SearchConfig(**_AREA_15)
    words = WordStream(2, 1, cfg.word_budget_per_box)
    box = param_space(1.5)
    for _ in range(4):
        box = subdivide(box)[0]
    parent = test_box(box, words, cfg)
    assert parent.status is BoxStatus.UNDECIDED and parent.live
    given = parent.live
    kept = dict(given)
    child = test_box(subdivide(box)[1], words, cfg, parent=parent)
    assert child.status is BoxStatus.UNDECIDED
    assert given == kept and tuple(given) == tuple(kept) and parent.live is given
    assert set(child.live) < set(given)
    assert tuple(child.live) == tuple(k for k in given if k in child.live)


def test_box_refuses_a_parent_that_is_not_an_undecided_scan() -> None:
    """parent must be an Undecided verdict holding its live, table and stream, else ValueError.

    A leaf of a finished run_search has had them cleared, a killer verdict
    never had them, an Undecided verdict without its stream has nothing to
    read, and a verdict of another status is refused even with all three.
    A live whose first or last key lies outside the stream's words, such
    as -1, -3, 66 or one past the last word, is refused too; it used to be
    read with its index wrapped, or raise IndexError.  The live=, table=
    and hint= keywords are gone: passing any of them is a TypeError.
    """
    cfg = SearchConfig(**dict(_AREA_15, max_depth=6, word_budget_per_box=2000))
    stream = WordStream(cfg.max_d, cfg.max_exp, cfg.word_budget_per_box)
    leaf = next(
        leaf
        for leaf in run_search(cfg).leaves
        if leaf.status is BoxStatus.UNDECIDED and leaf.words_scanned
    )
    slice_cfg = _cfg(word_budget_per_box=cfg.word_budget_per_box)
    killer = test_box(ParamBox.from_bounds(SLICE_BOUNDS), None, slice_cfg)
    assert killer.status is BoxStatus.ELIMINATED_KILLER
    real = test_box(leaf.box, stream, cfg)
    assert real.status is BoxStatus.UNDECIDED and real.live
    decided = BoxVerdict(
        leaf.box, BoxStatus.CANDIDATE, live=real.live, table=real.table, stream=real.stream
    )
    child = subdivide(leaf.box)[0]
    for parent in (leaf, killer, replace(real, stream=None), decided):
        with pytest.raises(ValueError, match="parent must be an Undecided verdict"):
            test_box(child, stream, cfg, parent=parent)
    assert test_box(child, stream, cfg, parent=real).words_scanned
    size = len(stream.words)
    for live in ({-1: None}, {-3: None}, {66: None}, {0: None, size: None}):
        stray = replace(real, live=live, near_miss=None)
        for given in (stream, None):
            with pytest.raises(ValueError, match=rf"live has a key outside range\({size}\)"):
                test_box(child, given, cfg, parent=stray)
    # the last word is in range: it is evaluated
    last = replace(real, live={size - 1: None}, near_miss=None)
    assert test_box(child, stream, cfg, parent=last).kernel_runs == 1
    for keyword, value in (("live", real.live), ("table", real.table), ("hint", real.near_miss)):
        with pytest.raises(TypeError, match=keyword):
            test_box(child, stream, cfg, **{keyword: value})


def test_box_takes_a_parent_only_on_its_own_stream() -> None:
    """A child is scanned on a stream whose key is its config's: None reads the parent's.

    Another stream cut for the same key is the parent's too, and gives the
    verdict of the parent's own object.  A (2, 1) parent handed to a
    (3, 2) scan at the same budget is refused, whether the (3, 2) stream
    is given or None reads the parent's; so is a (3, 2) parent given the
    (2, 1) stream, a root scan given a (2, 1) stream under a (3, 2)
    config, and a parent whose near miss, the hint, is not a key of its
    live.
    """
    settings = dict(_AREA_15, word_budget_per_box=2000)
    cfg21, cfg32 = SearchConfig(**settings), SearchConfig(**dict(settings, max_d=3, max_exp=2))
    s21, s32 = WordStream(2, 1, 2000), WordStream(3, 2, 2000)
    assert (s21.key, s32.key) == ((2, 1, 2000), (3, 2, 2000))
    root = param_space(1.5)
    parent = test_box(root, s21, cfg21)
    assert parent.status is BoxStatus.UNDECIDED and parent.stream is s21
    assert parent.near_miss in parent.live
    own = test_box(root, s32, cfg32)
    assert own.status is BoxStatus.UNDECIDED
    cut21 = re.escape(" is cut for (max_d, max_exp, budget) (2, 1, 2000), not ")
    for child in subdivide(root):
        for stream in (s32, None):
            with pytest.raises(ValueError, match="the parent's stream" + cut21 + r"\(3, 2, 2000\)"):
                test_box(child, stream, cfg32, parent=parent)
        with pytest.raises(ValueError, match="the stream" + cut21 + r"\(3, 2, 2000\)"):
            test_box(child, s21, cfg32, parent=own)
        # None reads the parent's stream, which is cut for another budget than cfg's
        with pytest.raises(ValueError, match="the parent's stream" + cut21 + r"\(2, 1, 10000\)"):
            test_box(child, None, SearchConfig(**_AREA_15), parent=parent)
        want = _verdict_fields(test_box(child, s21, cfg21, parent=parent))
        equal = WordStream(2, 1, 2000)
        assert equal is not s21
        assert (equal.words, equal.ends, equal.blocks) == (s21.words, s21.ends, s21.blocks)
        for stream in (None, equal):
            assert _verdict_fields(test_box(child, stream, cfg21, parent=parent)) == want
    # a root scan checks a given stream's key too
    with pytest.raises(ValueError, match="the stream" + cut21 + r"\(3, 2, 2000\)"):
        test_box(root, WordStream(2, 1, 2000), cfg32)
    # every word of the root is live, so the stray one is taken out of a copy
    thinned = {k: hit for k, hit in parent.live.items() if k != parent.near_miss}
    for live, near_miss in (
        (thinned, parent.near_miss), (parent.live, -1), (parent.live, len(s21.words))
    ):
        bad = replace(parent, live=live, near_miss=near_miss)
        for cfg in (cfg21, SearchConfig(**dict(settings, use_parent_word_hint=False))):
            with pytest.raises(ValueError, match="near miss .* is not a key of its live"):
                test_box(subdivide(root)[0], s21, cfg, parent=bad)


@pytest.mark.parametrize(
    "settings",
    [dict(_AREA_15, max_boxes=50), dict(_AREA_15, max_boxes=50, use_parent_word_hint=False),
     _AREA_15_D3],
    ids=["search-area", "no-hint", "area-d3"],
)
def test_live_holds_each_kept_words_kernel_bounds(monkeypatch, settings) -> None:
    """Every live entry is the kernel's (L, U) on its own box, bit for bit.

    Each box of a capped run, the root and every child, is checked: each
    entry's endpoints have the .hex() of lower_left_bounds on the box.  A
    child's entry for a word whose m21_reads misses the generator its
    split changed is its parent's tuple itself.  The root is called with
    parent=None, and each child with its parent's verdict itself as
    parent= and no other keyword.  Unless the hint is off, some children
    are killed by that verdict's near miss, their one scanned word; with
    it off, none is.  The dict a parent hands down is unchanged, key order
    included, once both children are scanned, since siblings share it.
    """
    cfg = SearchConfig(**settings)
    seen = {}
    real_test_box = search_module.test_box

    def hexed(live):
        return [(k, lo.hex(), hi.hex()) for k, (lo, hi) in live.items()]

    def recording_test_box(box, stream, cfg, **kwargs):
        nonlocal shared, hint_kills
        verdict = real_test_box(box, stream, cfg, **kwargs)
        if box.path:
            _, _, handed, near, given, at_return = seen[box.path[:-1]]
            assert kwargs == {"parent": handed} and handed.live is given, box.path
            hint_kills += verdict.words_scanned == 1 and verdict.word == stream.words[near]
            if box.path.endswith("1"):
                # the 0 child was scanned first, so both siblings have read it
                assert hexed(given) == at_return, box.path
                shared += 1
        else:
            assert kwargs == {"parent": None}
        if verdict.live is not None:
            # run_search clears a leaf's near miss and live, so keep them here
            live = verdict.live
            seen[box.path] = box, stream, verdict, verdict.near_miss, live, hexed(live)
        return verdict

    monkeypatch.setattr(search_module, "test_box", recording_test_box)
    shared = entries = reused = hint_kills = 0
    assert run_search(cfg).boxes_tested == settings["max_boxes"]
    for path, (box, stream, _, _, live, _) in seen.items():
        gens = gens_from_params(box)
        for k, (lo, hi) in live.items():
            want = lower_left_bounds(gens, stream.words[k].syllables)
            assert (lo.hex(), hi.hex()) == (want[0].hex(), want[1].hex()), (path, k)
            entries += 1
        if not path:
            continue
        parent, *_, parent_live, _ = seen[path[:-1]]
        axis = next(i for i in range(6) if parent.coords()[i] != box.coords()[i])
        masks = stream.masks()
        for k, hit in live.items():
            if not masks[k] & _AXIS_GENERATOR[axis]:
                assert hit is parent_live[k], (path, k)
                reused += 1
    assert entries > 500 and reused > 100 and shared >= 5
    assert hint_kills > 0 if cfg.use_parent_word_hint else hint_kills == 0


def test_leaves_keep_no_near_miss_or_dead_set() -> None:
    """Only children read a near miss, a live dict, a table or a stream, so no leaf keeps one.

    A verdict carries no bounds apart from its live.
    """
    rep = run_search(SearchConfig(**dict(_AREA_15, max_depth=6, word_budget_per_box=2000)))
    assert any(leaf.status is BoxStatus.UNDECIDED and leaf.words_scanned for leaf in rep.leaves)
    assert all(
        (leaf.near_miss, leaf.live, leaf.table, leaf.stream) == (None,) * 4 for leaf in rep.leaves
    )
    assert "bounds" not in {f.name for f in fields(search_module.BoxVerdict)}


@pytest.mark.parametrize(
    "settings",
    [dict(_AREA_15, max_boxes=50),
     dict(area_bound=1.0, max_d=3, max_exp=2, max_depth=18, word_budget_per_box=2000)],
    ids=["search-area", "golden-area-1"],
)
def test_leaf_replays_one_call_per_level(settings) -> None:
    """Each tested leaf is test_box chained down its path from the root, one call per level.

    The root is scanned with stream None, a new canonical cut, and each
    child with None and its parent's verdict, whose stream it reads.  The
    replay gives run_search's leaf: its status, word, words_scanned and
    kernel_runs.  A leaf cut by max_boxes was never tested, so it has
    nothing to replay.
    """
    cfg = SearchConfig(**settings)
    report = run_search(cfg)
    verdicts = {"": test_box(cfg.resolved_root(), None, cfg)}
    replayed = 0
    for leaf in report.leaves:
        if leaf.status is BoxStatus.UNDECIDED and not leaf.words_scanned:
            continue
        path = leaf.box.path
        for depth in range(1, len(path) + 1):
            if path[:depth] not in verdicts:
                parent = verdicts[path[: depth - 1]]
                child = subdivide(parent.box)[int(path[depth - 1])]
                verdicts[path[:depth]] = test_box(child, None, cfg, parent=parent)
        v = verdicts[path]
        assert v.box == leaf.box
        got = (v.status, v.word, v.words_scanned, v.kernel_runs)
        assert got == (leaf.status, leaf.word, leaf.words_scanned, leaf.kernel_runs), path
        replayed += 1
    # the replays share their prefixes, so each box of the run is scanned once
    assert len(verdicts) == report.boxes_tested
    assert replayed == {50: 21, 0: 120}[cfg.max_boxes]


def _verdict_fields(v):
    return v.status, v.word, v.words_scanned, v.near_miss, None if v.live is None else tuple(v.live)


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


@pytest.mark.parametrize("stream_caps", [(2, 1), (3, 2)], ids=["d2", "d3"])
def test_box_reads_every_stream_form_alike(stream_caps) -> None:
    """None, a fresh WordStream and a shared one give one verdict.

    Each box is scanned with no parent, the first scan, and with given
    parents scanned on the shared stream.  A given parent's near miss, the
    hint, is None or one of four: the box's own near miss, a fixed word,
    a word ruled out on the box and a word absent from live, which raises
    ValueError.  The given dead sets have runs of consecutive indices of
    the stream's words, and the given parent's live is the indices outside
    one; the empty set is scanned both with no parent and with every
    index.  None builds its own stream in the
    call without a parent and reads the parent's with one, a fresh stream
    is built for each case, and the shared one, cut at the same budget, is
    scanned by every case in turn.  An Undecided verdict's live must also
    match the one computed word by word: the Words among the segments of
    the 1000 scanned positions, less the given dead set and those ruled
    out on the box.
    """
    max_d, max_exp = stream_caps
    cfg = SearchConfig(**dict(_AREA_15, max_d=max_d, max_exp=max_exp, word_budget_per_box=1000))
    # the Words of the segments that hold the budget's 1000 positions
    words, positions = [], 0
    for segment in enumerate_segments(max_d, max_exp):
        if positions >= 1000:
            break
        words += [] if isinstance(segment, Run) else [segment]
        positions += segment.count if isinstance(segment, Run) else 1
    word_indices = range(len(words))
    shared = WordStream(max_d, max_exp, 1000)
    assert shared.words == words
    rng = random.Random(4153)
    boxes = [param_space(1.5)]
    for _ in range(5):
        box = param_space(1.5)
        for _ in range(rng.randrange(3, 9)):
            box = subdivide(box)[rng.randrange(2)]
        boxes.append(box)
    undecided = dead_hints = refused = 0
    for box in boxes:
        first = test_box(box, None, cfg)
        gens = gens_from_params(box)
        dead_lo = search_module._DEAD_LO
        ruled_out = {k for k in word_indices if lower_left_abs(words[k], gens).lo >= dead_lo}
        runs = [frozenset(), frozenset()]
        runs.append(frozenset(range(3, 40)) | frozenset(range(60, 64)) | frozenset(range(100, 101)))
        runs.append(frozenset(i for i in word_indices if (i // 7) % 2))
        for case, dead in enumerate(runs):
            live = [k for k in word_indices if k not in dead]
            dead_hint = min(ruled_out - dead, default=None)
            absent_hint = min(dead.intersection(word_indices) - ruled_out, default=None)
            hints = (None, first.near_miss, word_indices[17], dead_hint, absent_hint)
            for hint in hints[:1] if case == 0 else hints:
                parent = None if case == 0 else _given_parent(box, shared, live, near_miss=hint)
                forms = [None, WordStream(max_d, max_exp, 1000), shared]
                if hint in dead:
                    for form in forms:
                        with pytest.raises(ValueError, match="is not a key of its live"):
                            test_box(box, form, cfg, parent=parent)
                    refused += 1
                    continue
                verdicts = [test_box(box, form, cfg, parent=parent) for form in forms]
                assert len({_verdict_fields(v) for v in verdicts}) == 1, (box.path, hint, dead)
                v = verdicts[0]
                if v.status is BoxStatus.UNDECIDED:
                    undecided += 1
                    dead_hints += hint in ruled_out - dead
                    want = set(word_indices) - (dead | ruled_out)
                    assert tuple(v.live) == tuple(sorted(want)), (box.path, hint)
    assert undecided >= 10 and dead_hints >= 5 and refused >= 5


def _scan_every_word(box, area, words, budget, hint=None, dead=frozenset()):
    """(status, word, volume_bound, words_scanned, near_miss, live) of a scan that evaluates every word.

    The words are taken in order, the hint first and its copy passed over;
    a dead position, which the hint never is, counts as scanned without
    being evaluated.  live, for an Undecided verdict only, lists in order
    the scanned positions outside dead whose word has L < _DEAD_LO.
    """
    if box_in_param_space(box, area) is Feasibility.OUTSIDE:
        return BoxStatus.ELIMINATED_INFEASIBLE, None, None, 0, None, None
    gens = gens_from_params(box)
    order = ([] if hint is None else [hint]) + [i for i in range(len(words)) if i != hint]
    scanned, candidate, near, live = 0, None, (math.inf, None), []
    for i in order:
        if scanned >= budget:
            break
        scanned += 1
        if i in dead:
            continue
        lo, hi = lower_left_bounds(gens, words[i].syllables)
        if hi < 1.0 and lo > 0.0:
            return BoxStatus.ELIMINATED_KILLER, words[i], None, scanned, None, None
        if hi < 1.0:
            candidate = i if candidate is None else min(candidate, i)
        elif lo < 1.0:
            near = min(near, (hi, i))
        if i not in dead and lo < search_module._DEAD_LO:
            live.append(i)
    if candidate is not None:
        word = words[candidate]
        return BoxStatus.CANDIDATE, word, volume_bound(word), scanned, None, None
    return BoxStatus.UNDECIDED, None, None, scanned, near[1], tuple(sorted(live))


# root points near overflow, searched under this area bound, whose default
# root is too wide for a ParamBox: each is its own root
_NEAR_OVERFLOW_AREA = 8.9e307
_NEAR_OVERFLOW = [
    # the offset of x^2 overflows; at max_exp 1, nothing does
    Params(1e308, 0.5 + 1j, 0),
    # and z x z, whose m21 is a + c = 0.5i, kills the box
    Params(1e308, 0.5 + 1j, -1e308 + 0.5j),
    # the offset of y^2 overflows
    Params(2.0, 1e308j, 1 + 1j),
    # gamma^2 overflows, and so do bottom rows that multiply c by c
    Params(2.0, 1.5 + 0.5j, 1e308),
    # y z x y^-1 z^-1 kills the box before gamma^3 overflows
    Params(2.0, 1.5 + 0.5j, 1e120),
]


@pytest.mark.parametrize(
    "stream_caps, reach",
    [((2, 1), 1400), ((3, 2), 1400), ((6, 3), 1400), ((3, 3), 4800)],
    ids=["d2", "d3", "d6", "d3e3"],
)
def test_box_matches_a_scan_of_every_word(stream_caps, reach) -> None:
    """test_box gives the verdict, or raises the error, of a scan that evaluates every word.

    The boxes are the reference point in its three normalizations, the
    slice and straddle fixtures, seeded dyadic boxes of the area-1.5
    space, and root points near overflow: a = 1e308, whose x^2 offset
    overflows, with c = 0 or with c = -1e308 + 0.5i, where z x z kills;
    b = 1e308i, whose y^2 offset overflows; c = 1e308; and a = 2,
    b = 1.5 + 0.5i, c = 1e120, where at (3,3) y z x y^-1 z^-1, segment 111
    of the stream, kills the box before gamma^3 overflows, though a Run
    led by gamma^3, segment 623 at position 4763, lies in the cut.  Each is scanned on the stream
    WordStream(max_d, max_exp, budget) with budgets that end inside a Run,
    inside the d = 1 bucket or one past it, and one short of the cut's
    words or one past them, which outlasts the (2, 1) stream.  A point
    near overflow is scanned as a root, with no parent, and test_box must
    raise the reference's ValueError, message included, or give its
    verdict.  The other boxes are also scanned with a given parent whose
    live is every word of the cut or the complement of a dead set: every
    other position whose word has L >= _DEAD_LO on the box, first words of
    bodies and twins among them.  The given parent's near miss, the hint,
    is None or at two bodies' first words, the middle one and the last, or
    at a dead one.  A hint past the cut or outside live raises ValueError.
    The scan of every word takes stream positions; test_box takes the
    indices of the stream's words, and its near miss and live are read
    back as positions, the live ones of the scan of every word kept where
    a body starts.  The words are the expansion of the cut at a budget of
    reach, 1400, or 4800 at (3,3) to take in that Run, all 145 words at
    (2, 1), and one segment more, so a budget one past them is cut on the
    same segments.
    """
    max_d, max_exp = stream_caps
    # the cut at a budget of reach and one segment more; edge is the cut's words
    segments, position, edge = [], 0, None
    for segment in enumerate_segments(max_d, max_exp):
        segments.append(segment)
        position += segment.count if isinstance(segment, Run) else 1
        if edge is not None:
            break
        edge = position if position >= reach else None
    edge = position if edge is None else edge
    # body_starts[k] is the stream position of the stream's k-th word
    body_starts, run_starts, position, gamma3_at = [], [], 0, math.inf
    for segment in segments:
        if isinstance(segment, Run):
            run_starts += [position] if segment.count > 1 else []
            if abs(segment.prefix[0][2]) == 3:
                gamma3_at = min(gamma3_at, position)
            position += segment.count
        else:
            body_starts.append(position)
            position += 1
    words = [w for w, _ in _expanded(segments)]
    assert [words[at] for at in body_starts] == [s for s in segments if isinstance(s, Word)]
    d1 = sum(w.z_count == 1 for w in words)
    # a cut one word into a Run of two or more, inside the d = 1 bucket or
    # one past it, and one short of the cut's words or one past them
    cuts = [start + 1 for start in run_starts[:: max(1, len(run_starts) // 3)]][:3]
    budgets = cuts + [2, d1 - 1, d1 + 1, edge - 1, edge + 1]
    body_hint = len(body_starts) // 2
    rng = random.Random(9161)
    boxes = [
        (ParamBox.from_point(Params(4.0, complex(1.0 + 4.0 * k, math.sqrt(3.0)), 2.0)), 6.0)
        for k in (-1, 0, 1)
    ]
    boxes += [(ParamBox.from_bounds(SLICE_BOUNDS), 6.0), (ParamBox.from_bounds(STRADDLE_BOUNDS), 6.0)]
    for _ in range(6):
        box = param_space(1.5)
        for _ in range(rng.randrange(4, 14)):
            box = subdivide(box)[rng.randrange(2)]
        boxes.append((box, 1.5))
    boxes += [(ParamBox.from_point(p), _NEAR_OVERFLOW_AREA) for p in _NEAR_OVERFLOW]
    gamma3_root = boxes[-1][0]

    def as_positions(v):
        near = None if v.near_miss is None else body_starts[v.near_miss]
        kept = None if v.live is None else tuple(body_starts[k] for k in v.live)
        return v.status, v.word, v.volume_bound, v.words_scanned, near, kept

    kinds = Counter()
    dead_kinds = Counter()
    for box, area in boxes:
        root_only = area == _NEAR_OVERFLOW_AREA
        dead, dead_indices = frozenset(), frozenset()
        if not root_only:
            gens = gens_from_params(box)
            lows = [lower_left_bounds(gens, w.syllables)[0] for w in words]
            dead = frozenset(i for i in range(0, position, 2) if lows[i] >= search_module._DEAD_LO)
            dead_kinds.update(i in body_starts for i in dead)
            dead_indices = frozenset(k for k, at in enumerate(body_starts) if at in dead)
        for budget in budgets:
            stream = WordStream(max_d, max_exp, budget)
            cut = range(len(stream.words))
            lives = [(frozenset(), None)]
            if not root_only:
                open_bodies = [k for k in cut if k not in dead_indices]
                lives += [(frozenset(), list(cut)), (dead, open_bodies)]
            cfg = SearchConfig(
                area_bound=area, max_d=max_d, max_exp=max_exp, word_budget_per_box=budget,
                root_box=box if root_only else None,
            )
            hints = [None, body_hint, len(body_starts) - 1, min(dead_indices, default=None)]
            for hint in hints[:1] if root_only else hints:
                at = None if hint is None else body_starts[hint]
                for dead_set, live in lives:
                    if live is None and hint is not None:
                        continue  # a root box has no hint
                    parent = None if live is None else _given_parent(box, stream, live, hint)
                    if hint is not None and hint not in live:
                        with pytest.raises(ValueError, match="is not a key of its live"):
                            test_box(box, stream, cfg, parent=parent)
                        kinds["past the cut" if hint >= len(stream.words) else "dead"] += 1
                        continue
                    got = _outcome(lambda: as_positions(test_box(box, stream, cfg, parent=parent)))
                    want = _outcome(lambda: _scan_every_word(box, area, words, budget, at, dead_set))
                    if isinstance(want, tuple) and want[-1] is not None:
                        want = (*want[:-1], tuple(i for i in want[-1] if i in body_starts))
                    assert got == want, (box.to_bounds(), budget, hint, bool(dead_set))
                    kinds["raises" if isinstance(got, str) else got[0]] += 1
                    # a Run led by gamma^3 lies in the cut, behind the killer
                    if box is gamma3_root and budget > gamma3_at:
                        kinds["killed before gamma^3 overflows"] += got[:2] == (
                            BoxStatus.ELIMINATED_KILLER, parse_word("y z x y^-1 z^-1")
                        )

    assert kinds[BoxStatus.UNDECIDED] and kinds[BoxStatus.ELIMINATED_KILLER] and kinds["raises"]
    assert kinds["past the cut"] and kinds["dead"]
    assert dead_kinds[True] and dead_kinds[False]
    if stream_caps == (3, 3):
        assert kinds["killed before gamma^3 overflows"]


def test_box_rejects_power_free_words(monkeypatch) -> None:
    """No stream holds a pure translation, and a parent's near miss outside its live raises.

    A pure translation has no lower-left entry to test, and neither
    Word nor parse_word builds one, so no stream can hold one.  A given
    parent's live holds every index of the stream's words, and its near
    miss, the hint, is a negative index or one at or past the stream's
    words: each is refused with ValueError, on the canonical stream and on
    one that evaluates every word, whether the stream is given or read
    from the parent.  No index names a twin, since the stream holds none.
    """
    with pytest.raises(ValueError, match="zero z-exponent"):
        Word(((2, 0, 0),))
    with pytest.raises(ValueError, match="must end in a z factor"):
        parse_word("x^2")
    box = param_space(1.5)
    cfg = SearchConfig(**_AREA_15)
    words = list(enumerate_words(2, 1))
    stream = _stream_of(monkeypatch, words, cfg)
    segmented = WordStream(2, 1, cfg.word_budget_per_box)
    assert stream.words == words and stream.key == segmented.key and not stream.blocks
    assert len(segmented.words) < len(words)
    cases = [(stream, -1), (stream, len(words))]
    cases += [(segmented, len(segmented.words)), (segmented, -1)]
    for given, hint in cases:
        parent = _given_parent(box, given, range(len(given.words)), hint)
        for form in (given, None):
            with pytest.raises(ValueError, match="is not a key of its live"):
                test_box(box, form, cfg, parent=parent)


def test_box_reads_only_a_stream_cut_for_its_budget() -> None:
    """A stream cut at another budget, given or a parent's, raises ValueError.

    The stream of None is the canonical cut at the box's budget without a
    parent, and the parent's stream with one.  A parent scanned on a
    canonical cut of its own gives, for every hint, the verdict it gives
    with an equal cut passed in.
    """
    box = param_space(1.5)
    cuts = []
    for budget in (60, 10000):
        cfg = SearchConfig(**dict(_AREA_15, word_budget_per_box=budget))
        stream = WordStream(2, 1, budget)
        cuts.append(len(stream.words))
        hints = list(range(len(stream.words)))
        for other in (budget - 1, budget + 1):
            other_cut = WordStream(2, 1, other)
            wrong = re.escape(f"cut for (max_d, max_exp, budget) (2, 1, {other}), not (2, 1, {budget})")
            with pytest.raises(ValueError, match="the stream is " + wrong):
                test_box(box, other_cut, cfg)
            with pytest.raises(ValueError, match="the parent's stream is " + wrong):
                test_box(box, None, cfg, parent=_given_parent(box, other_cut, hints[:1]))
        plain = test_box(box, stream, cfg)
        assert _verdict_fields(test_box(box, None, cfg)) == _verdict_fields(plain)
        own = WordStream(2, 1, budget)
        for hint in hints:
            parent = _given_parent(box, own, hints, hint)
            want = test_box(box, stream, cfg, parent=parent)
            assert _verdict_fields(test_box(box, None, cfg, parent=parent)) == _verdict_fields(want)
    # the 145-word stream cut at 60 holds fewer Words than the whole
    assert cuts == [29, 34]


def test_twin_skip_keeps_the_leading_block_overflow() -> None:
    """A skipped twin still raises where its evaluation would.

    At a = 1e308 the offset of x^2 overflows, and x^2 z is a twin of z, so
    only the root's read of its leading block's offset can raise there, as
    evaluating it would.  The stream's two words, z and y z^-1, read no
    offset that overflows.
    """
    root = ParamBox.from_point(Params(1e308, 0.5 + 1j, 0))
    # the default root of this area is too wide for a ParamBox, so the point is the root
    cfg = SearchConfig(area_bound=8.9e307, max_d=1, max_exp=2, root_box=root)
    stream = WordStream(1, 2, cfg.word_budget_per_box)
    for form in (None, stream, stream):
        with pytest.raises(ValueError, match=r"the offset of x\^2 y\^0"):
            test_box(root, form, cfg)
    # z and y z^-1 are evaluated, and x^2 z is a twin whose block is read
    assert stream.words == [parse_word("z"), parse_word("y z^-1")]
    assert (2, 0) in stream.blocks
