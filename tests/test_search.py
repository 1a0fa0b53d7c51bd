"""Branch-and-prune driver: frozen fixtures, cover invariants, determinism."""

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import fields
from itertools import islice, permutations

import pytest

from horocusp import search as search_module
from horocusp import words as words_module
from horocusp.bicuspid import COORD_NAMES, Feasibility, ParamBox, Params, box_in_param_space
from horocusp.bicuspid import param_space
from horocusp.search import (
    BoxStatus,
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
    gens_from_params,
    lower_left_abs,
    lower_left_bounds,
    parse_word,
    volume_bound,
)

from test_words import _taken

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
    assert math.isfinite(param_space(8e306).max_width())


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


def test_box_infeasible_short_circuit():
    box = ParamBox.from_bounds(
        [[0.2, 0.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    v = test_box(box, None, _cfg())
    assert v.status is BoxStatus.ELIMINATED_INFEASIBLE
    assert v.words_scanned == 0 and v.word is None


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
    stream = WordStream(enumerate_segments(2, 1))
    v2 = test_box(lined, stream, _cfg())
    assert v2.status is BoxStatus.UNDECIDED
    assert stream.segments[v2.near_miss] == parse_word("z x z")


def test_box_hint_scanned_first():
    box = ParamBox.from_bounds(
        [[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    stream = _taken(enumerate_segments(2, 1))
    hint = stream.segments.index(parse_word("z x z"))
    assert hint > 0
    v = test_box(box, stream, _cfg(), hint=hint)
    assert v.status is BoxStatus.ELIMINATED_KILLER
    assert v.word == parse_word("z x z")
    assert v.words_scanned == 1


class _NoTwins(WordStream):
    """A WordStream with every Run of its source expanded into Words, so scans evaluate every word."""

    __slots__ = ()

    def __init__(self, source) -> None:
        super().__init__(
            word
            for segment in source
            for word in (segment.words() if isinstance(segment, Run) else (segment,))
        )


def test_near_miss_tie_rule(monkeypatch) -> None:
    """Candidate and near miss are the earliest in stream order, hint included.

    The near miss is the least (hi, index) and the candidate the least
    index, in any stream order and whichever word is the hint.  On the
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
        stream = _NoTwins(order)
        while stream.take():
            pass
        v = test_box(box, stream, _cfg(), hint=None if hint is None else order.index(hint))
        return v, None if v.near_miss is None else stream.segments[v.near_miss]

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
    dead-word sets handed down 18 levels.  Bytes recorded before the
    kernel resolved gamma^+-1's exact entries.
    """
    cfg = SearchConfig(
        area_bound=1.0, max_d=3, max_exp=2, max_depth=18, word_budget_per_box=2000
    )
    report = run_search(cfg)
    text = report.to_canonical_json().encode()
    assert hashlib.sha256(text).hexdigest() == (
        "f02a3bba9797b07d01a9184ea92f69bbbd5744d9c50e9947348f1999e4b99f98"
    )
    assert (report.boxes_tested, report.words_evaluated) == (239, 446388)
    assert Counter(leaf.status for leaf in report.leaves) == {
        BoxStatus.CANDIDATE: 104,
        BoxStatus.ELIMINATED_KILLER: 4,
        BoxStatus.ELIMINATED_INFEASIBLE: 12,
    }
    assert report.global_volume_bound == math.pi and not report.incomplete
    _assert_leaf_partition(report)
    assert verify_report(report, 20)["passed"]


def test_area_one_and_a_half_deep_cover_golden() -> None:
    """An uncapped depth-15 cover of the area-1.5 space with 2000 words per box.

    19479 boxes hand hints and dead sets down 15 levels over the (2, 1)
    stream, so the scan meets Runs, hints and dead words on every
    level.  Bytes recorded before the stream held segments.
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
    assert not report.incomplete


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
    stream = WordStream(enumerate_segments(6, 3))
    v = test_box(box, stream, cfg)
    assert (v.status, v.words_scanned) == (BoxStatus.UNDECIDED, 300)
    assert str(stream.segments[v.near_miss]) == "z x^-1 z"


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


def test_verify_report_counts_a_nan_magnitude_as_a_violation(monkeypatch):
    rep = run_search(_cfg(root_box=SLICE_BOUNDS))
    assert verify_report(rep, 5)["passed"]
    nan = complex(math.nan, 0.0)
    monkeypatch.setattr(search_module, "evaluate_word_float", lambda word, p: (nan,) * 4)
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

    stream = WordStream(pool)
    while stream.take():
        pass

    def scan(box):
        gens = gens_from_params(box)
        identity = words_module._IDENTITY_ROW
        rects = [words_module._bottom_row(gens, w.syllables, identity)[0] for w in stream.segments]
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
    ],
    ids=["area-7", "area-50", "area-500", "area-2", "no-hint", "budget-60", "straddle",
         "straddle-d3"],
)
def test_dead_word_skips_keep_report_bytes(monkeypatch, settings) -> None:
    """Skipping dead words and body twins changes no byte of the report.

    Each setting runs with dead-word skipping on and off, and with twin
    skipping on and off; with both off the scan evaluates every word.
    """
    cfg = SearchConfig(**settings)
    calls = 0
    real = search_module.lower_left_bounds

    def counted(gens, syllables):
        nonlocal calls
        calls += 1
        return real(gens, syllables)

    monkeypatch.setattr(search_module, "lower_left_bounds", counted)
    dead_lo = search_module._DEAD_LO
    runs = {}
    for twins in (True, False):
        monkeypatch.setattr(search_module, "WordStream", WordStream if twins else _NoTwins)
        for dead in (True, False):
            # a _DEAD_LO of inf rules no word out
            monkeypatch.setattr(search_module, "_DEAD_LO", dead_lo if dead else math.inf)
            calls = 0
            report = run_search(cfg)
            runs[twins, dead] = report.to_canonical_json(), calls, report
    full = runs[False, False][2]
    assert {text for text, _, _ in runs.values()} == {full.to_canonical_json()}
    assert runs[False, False][1] == full.words_evaluated
    # a root box alone has no ancestor to skip words for
    assert runs[False, True][1] < full.words_evaluated or full.boxes_tested == 1
    for dead in (True, False):
        assert runs[True, dead][1] < runs[False, dead][1]


def test_box_hands_its_children_a_new_dead_set() -> None:
    """test_box never writes into the dead set it is given: siblings share it."""
    cfg = SearchConfig(**_AREA_15)
    words = WordStream(enumerate_segments(2, 1))
    box = param_space(1.5)
    for _ in range(4):
        box = subdivide(box)[0]
    parent = test_box(box, words, cfg)
    assert parent.status is BoxStatus.UNDECIDED and parent.dead
    given = set(parent.dead)
    child = test_box(subdivide(box)[1], words, cfg, hint=parent.near_miss, dead=given)
    assert child.status is BoxStatus.UNDECIDED
    assert given == parent.dead
    assert child.dead > given


def test_leaves_keep_no_near_miss_or_dead_set() -> None:
    """Only children read a near miss or a dead set, so no leaf keeps one."""
    rep = run_search(SearchConfig(**dict(_AREA_15, max_depth=6, word_budget_per_box=2000)))
    assert any(leaf.status is BoxStatus.UNDECIDED and leaf.words_scanned for leaf in rep.leaves)
    assert all(leaf.near_miss is None and leaf.dead == frozenset() for leaf in rep.leaves)


def _verdict_fields(v):
    return v.status, v.word, v.words_scanned, v.near_miss, v.dead


@pytest.mark.parametrize("stream_caps", [(2, 1), (3, 2)], ids=["d2", "d3"])
def test_box_reads_every_stream_form_alike(stream_caps) -> None:
    """None, a fresh WordStream and a shared one give one verdict.

    Each box is scanned without a hint and with three: its near miss, a
    fixed Word segment and a word ruled out on the box.  Dead sets have
    runs of consecutive segment indices, Words and Runs among them.  A
    fresh stream has taken segments only through the hint; the shared one
    is scanned by every case in turn, so later cases start with it already
    taken.  None takes no hint, since its stream holds no word yet.  An
    Undecided verdict's dead set must also match the one computed word by
    word: the Word segments of the 1000 scanned positions that are ruled
    out on the box.
    """
    max_d, max_exp = stream_caps
    cfg = SearchConfig(**dict(_AREA_15, max_d=max_d, max_exp=max_exp, word_budget_per_box=1000))
    # the segments that hold the budget's 1000 positions
    segments, positions = [], 0
    for segment in enumerate_segments(max_d, max_exp):
        if positions >= 1000:
            break
        segments.append(segment)
        positions += segment.count if isinstance(segment, Run) else 1
    word_indices = [k for k, segment in enumerate(segments) if isinstance(segment, Word)]
    shared = WordStream(enumerate_segments(max_d, max_exp))

    def through(stream, hint):
        while hint is not None and len(stream.segments) <= hint:
            stream.take()
        return stream

    rng = random.Random(4153)
    boxes = [param_space(1.5)]
    for _ in range(5):
        box = param_space(1.5)
        for _ in range(rng.randrange(3, 9)):
            box = subdivide(box)[rng.randrange(2)]
        boxes.append(box)
    undecided = dead_hints = 0
    for box in boxes:
        first = test_box(box, None, cfg)
        gens = gens_from_params(box)
        dead_lo = search_module._DEAD_LO
        ruled_out = {k for k in word_indices if lower_left_abs(segments[k], gens).lo >= dead_lo}
        runs = [frozenset()]
        runs.append(frozenset(range(3, 40)) | frozenset(range(60, 64)) | frozenset(range(100, 101)))
        runs.append(frozenset(i for i in range(len(segments)) if (i // 7) % 2))
        for dead in runs:
            dead_hint = min(ruled_out - dead, default=None)
            for hint in (None, first.near_miss, word_indices[17], dead_hint):
                forms = [through(WordStream(enumerate_segments(max_d, max_exp)), hint)]
                forms.append(through(shared, hint))
                if hint is None:
                    forms.append(None)
                verdicts = [test_box(box, words, cfg, hint=hint, dead=dead) for words in forms]
                assert len({_verdict_fields(v) for v in verdicts}) == 1, (box.path, hint, dead)
                v = verdicts[0]
                if v.status is BoxStatus.UNDECIDED:
                    undecided += 1
                    dead_hints += hint in ruled_out - dead
                    assert v.dead == dead | ruled_out, (box.path, hint)
    assert undecided >= 10 and dead_hints >= 5


def _scan_every_word(box, area, words, budget, hint=None, dead=frozenset()):
    """(status, word, volume_bound, words_scanned, near_miss) of a scan that evaluates every word.

    The words are taken in order, the hint first and its copy passed over;
    a dead position counts as scanned without being evaluated.
    """
    if box_in_param_space(box, area) is Feasibility.OUTSIDE:
        return BoxStatus.ELIMINATED_INFEASIBLE, None, None, 0, None
    gens = gens_from_params(box)
    order = ([] if hint is None else [hint]) + [i for i in range(len(words)) if i != hint]
    scanned, candidate, near = 0, None, (math.inf, None)
    for i in order:
        if scanned >= budget:
            break
        scanned += 1
        if i in dead and i != hint:
            continue
        lo, hi = lower_left_bounds(gens, words[i].syllables)
        if hi < 1.0 and lo > 0.0:
            return BoxStatus.ELIMINATED_KILLER, words[i], None, scanned, None
        if hi < 1.0:
            candidate = i if candidate is None else min(candidate, i)
        elif lo < 1.0:
            near = min(near, (hi, i))
    if candidate is not None:
        word = words[candidate]
        return BoxStatus.CANDIDATE, word, volume_bound(word), scanned, None
    return BoxStatus.UNDECIDED, None, None, scanned, near[1]


@pytest.mark.parametrize("stream_caps", [(2, 1), (3, 2), (6, 3)], ids=["d2", "d3", "d6"])
def test_box_matches_a_scan_of_every_word(stream_caps) -> None:
    """test_box on the segment stream gives the verdict of a scan that evaluates every word.

    The boxes are the reference point in its three normalizations, the
    slice and straddle fixtures, and seeded dyadic boxes of the area-1.5
    space.  Each is scanned with budgets that end inside a Run or outlast
    the stream, with a hint at a body's first word and at a dead one, and
    with a dead set: every other position whose word has L >= _DEAD_LO on
    the box, first words of bodies and twins among them.  The scan of
    every word takes stream positions; test_box takes the Word segments'
    indices among them, and its near miss is read back as a position.
    """
    max_d, max_exp = stream_caps
    segments = list(islice(enumerate_segments(max_d, max_exp), 400))
    # starts[k] is the stream position of segments[k]'s first word
    starts, run_starts, position = [], [], 0
    for segment in segments:
        starts.append(position)
        if isinstance(segment, Run):
            run_starts += [position] if segment.count > 1 else []
            position += segment.count
        else:
            position += 1
    body_indices = [k for k, segment in enumerate(segments) if isinstance(segment, Word)]
    body_starts = {starts[k] for k in body_indices}
    words = list(islice(enumerate_words(max_d, max_exp), position))
    # a cut one word into a Run of two or more, and a body word as the hint
    cuts = [start + 1 for start in run_starts[:: max(1, len(run_starts) // 3)]][:3]
    body_hint = body_indices[len(body_indices) // 2]
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
    shared = _taken(segments)
    kinds = Counter()
    dead_kinds = Counter()
    for box, area in boxes:
        gens = gens_from_params(box)
        lows = [lower_left_bounds(gens, w.syllables)[0] for w in words]
        dead = frozenset(i for i in range(0, position, 2) if lows[i] >= search_module._DEAD_LO)
        dead_kinds.update(i in body_starts for i in dead)
        dead_indices = frozenset(k for k in body_indices if starts[k] in dead)
        # position + 1 outlasts the stream, so every position counts
        for budget in cuts + [position - 1, position + 1]:
            for hint in (None, body_hint, min(dead_indices, default=None)):
                at = None if hint is None else starts[hint]
                for dead_set, dead_index in ((frozenset(), frozenset()), (dead, dead_indices)):
                    cfg = SearchConfig(
                        area_bound=area, max_d=max_d, max_exp=max_exp, word_budget_per_box=budget
                    )
                    v = test_box(box, shared, cfg, hint=hint, dead=dead_index)
                    near = None if v.near_miss is None else starts[v.near_miss]
                    got = (v.status, v.word, v.volume_bound, v.words_scanned, near)
                    assert got == _scan_every_word(box, area, words, budget, at, dead_set), (
                        box.path, budget, hint, bool(dead_set)
                    )
                    kinds[v.status] += 1
    assert kinds[BoxStatus.UNDECIDED] and kinds[BoxStatus.ELIMINATED_KILLER]
    assert dead_kinds[True] and dead_kinds[False]


def test_box_rejects_power_free_words() -> None:
    """A pure translation in the stream, or a hint at no taken Word segment, raises ValueError.

    A hint must index a Word segment the stream has taken: a negative
    index, one at or past the segments taken, or a Run's index is refused.
    """
    box = param_space(1.5)
    cfg = SearchConfig(**_AREA_15)
    translation = parse_word("x^2")
    assert translation.is_pure_translation
    words = list(enumerate_words(2, 1))
    message = "word stream produced a power-free word"
    for stream in ([translation] + words, words[:5] + [translation] + words[5:]):
        with pytest.raises(ValueError, match=message):
            test_box(box, WordStream(stream), cfg)
    stream = _taken(words)
    segmented = _taken(enumerate_segments(2, 1))
    run = next(k for k, segment in enumerate(segmented.segments) if isinstance(segment, Run))
    cases = [(stream, -1), (stream, len(words)), (None, 0)]
    cases += [(segmented, run), (segmented, len(segmented.segments)), (segmented, -1)]
    for form, hint in cases:
        with pytest.raises(ValueError, match="hint must index a taken Word segment"):
            test_box(box, form, cfg, hint=hint)


def test_box_hint_must_be_an_int() -> None:
    """A bool or any other non-int hint raises TypeError; True is not index 1."""
    box = param_space(1.5)
    cfg = SearchConfig(**_AREA_15)
    stream = _taken(enumerate_segments(2, 1))
    # segments 0 and 2 are the Words z and y z^-1, and 1 is the Run of y z
    for hint in (True, False, 0.0, 2.0, "2"):
        with pytest.raises(TypeError, match="hint must be an int segment index"):
            test_box(box, stream, cfg, hint=hint)
    assert test_box(box, stream, cfg, hint=2).words_scanned > 0


def test_twin_skip_keeps_the_leading_block_overflow() -> None:
    """A skipped twin still raises where its evaluation would.

    At a = 1e308 the offset of x^2 overflows, and x^2 z is a twin of z, so
    only its leading block's table lookup can raise there, as evaluating
    it would.
    """
    root = ParamBox.from_point(Params(1e308, 0.5 + 1j, 0))
    # the default root of this area is too wide for a ParamBox, so the point is the root
    cfg = SearchConfig(area_bound=8.9e307, max_d=1, max_exp=2, root_box=root)
    stream = WordStream(enumerate_segments(1, 2))
    for form in (None, stream, stream):
        with pytest.raises(ValueError, match=r"the offset of x\^2 y\^0"):
            test_box(root, form, cfg)
    # z is evaluated, and x^2 z is a run of one twin
    assert parse_word("z") in stream.segments
    assert Run(((2, 0, 1),), 0, 0, 1, 2) in stream.segments
