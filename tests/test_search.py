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
from horocusp.bicuspid import COORD_NAMES, ParamBox, Params, gens_from_params, param_space
from horocusp.search import (
    BoxStatus,
    SearchConfig,
    aggregate_volume_bound,
    run_search,
    subdivide,
    test_box,
    verify_report,
)
from horocusp.interval import RealInterval
from horocusp.words import enumerate_words, lower_left_abs, parse_word

SLICE_BOUNDS = [[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.7, -0.4], [0.0, 0.0]]
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
    ):
        try:
            _cfg(**kw)
            assert False, f"expected TypeError or ValueError for {kw}"
        except (TypeError, ValueError):
            pass
    assert _cfg(root_box=SLICE_BOUNDS).resolved_root() == ParamBox.from_bounds(SLICE_BOUNDS)


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
    v2 = test_box(lined, None, _cfg())
    assert v2.status is BoxStatus.UNDECIDED
    assert v2.near_miss == parse_word("z x z")


def test_box_hint_scanned_first():
    box = ParamBox.from_bounds(
        [[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.6, -0.5], [0.0, 0.0]]
    )
    v = test_box(box, None, _cfg(), hint=parse_word("z x z"))
    assert v.status is BoxStatus.ELIMINATED_KILLER
    assert v.words_scanned == 1


def test_near_miss_tie_rule(monkeypatch) -> None:
    """The near miss is the least (hi, sort_key) in any scan order, hint included."""
    box = ParamBox.from_bounds(
        [[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.3, -0.1], [0.0, 0.0]]
    )
    small, mid, big, far = (parse_word(t) for t in ("x z", "z x z", "z x^-1 z", "z"))
    assert small.sort_key() < mid.sort_key() < big.sort_key()
    assert far.sort_key() < small.sort_key()
    bounds = {}
    monkeypatch.setattr(search_module, "lower_left_abs", lambda w, gens: bounds[w])

    def near_miss(order, hint=None):
        v = test_box(box, order, _cfg(), hint=hint)
        assert v.status is BoxStatus.UNDECIDED
        return v.near_miss

    # equal hi: the smallest sort_key wins in stream order, reversed, or as a late hint
    bounds.update({w: RealInterval(0.5, 1.25) for w in (small, mid, big)})
    bounds[far] = RealInterval(1.0, 1.0)  # lo >= 1: never a near miss
    assert near_miss([small, mid, big]) == small
    assert near_miss([big, mid, small]) == small
    assert near_miss([small, mid, big], hint=big) == small
    assert near_miss([big, far], hint=mid) == mid
    assert near_miss([far]) is None
    # a strictly smaller hi wins over any key
    bounds[big] = RealInterval(0.5, 1.125)
    assert near_miss([small, mid, big]) == big
    assert near_miss([big, small, mid], hint=small) == big
    bounds[far] = RealInterval(0.0, 1.0)
    assert near_miss([small, mid, big, far]) == far

    for his in ((1.5, 1.5, 1.5, 1.5), (1.5, 1.25, 1.25, 2.0), (1.75, 1.75, 1.5, 1.75)):
        bounds.update({w: RealInterval(0.25, hi) for w, hi in zip((small, mid, big, far), his)})
        expected = min(bounds, key=lambda w: (bounds[w].hi, w.sort_key()))
        for order in permutations(bounds):
            assert near_miss(list(order)) == expected, order
            for hint in order:
                assert near_miss(list(order), hint=hint) == expected, (order, hint)


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


def test_capped_area_search_report_golden() -> None:
    # canonical report bytes of the budget-capped area-1.5 search, recorded
    # before the unboxed scan kernel and the tuple-key enumerator
    cfg = SearchConfig(
        area_bound=1.5,
        max_d=2,
        max_exp=1,
        max_depth=12,
        min_box_width=0.01,
        word_budget_per_box=10000,
        max_boxes=20,
    )
    text = run_search(cfg).to_canonical_json().encode()
    assert hashlib.sha256(text).hexdigest() == (
        "313e10159ab073e3d4469a0208102611a48aab98e72a04eac48fb3e3c0798c3b"
    )


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
    v = test_box(box, None, cfg)
    assert (v.status, v.words_scanned, str(v.near_miss)) == (BoxStatus.UNDECIDED, 300, "z x^-1 z")


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


def test_verify_report_vacuous_on_empty():
    rep = run_search(_cfg(area_bound=math.sqrt(3.0) / 2.0))
    audit = verify_report(rep, 10)
    assert audit["passed"] and audit["leaves_audited"] == 0 and audit["samples_taken"] == 0


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
        lows, rects = [], []
        for w in pool:
            lows.append(lower_left_abs(w, gens).lo)
            rects.append(gens._rows[-1][1])
        return lows, rects

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
    """Skipping words an ancestor ruled out changes no byte of the report."""
    cfg = SearchConfig(**settings)
    evaluated = Counter()
    real = search_module.lower_left_abs

    def counted(word, gens):
        evaluated[search_module._DEAD_LO] += 1
        return real(word, gens)

    monkeypatch.setattr(search_module, "lower_left_abs", counted)
    skipping = run_search(cfg).to_canonical_json()
    monkeypatch.setattr(search_module, "_DEAD_LO", math.inf)  # rules no word out
    full = run_search(cfg)
    assert skipping == full.to_canonical_json()
    assert evaluated[math.inf] == full.words_evaluated
    # a root box alone has no ancestor to skip words for
    assert evaluated[1.0 + 2.0**-48] < full.words_evaluated or full.boxes_tested == 1


def test_box_hands_its_children_a_new_dead_set() -> None:
    """test_box never writes into the dead set it is given: siblings share it."""
    cfg = SearchConfig(**_AREA_15)
    words = list(enumerate_words(2, 1))
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
