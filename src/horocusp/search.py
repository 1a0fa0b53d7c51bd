"""Branch-and-prune driver over the normalized parameter box.

The driver subdivides the feasible box dyadically, scans each box against a
canonical word stream with the killer test, and assembles a leaf cover with
per-box verdicts plus an aggregate covolume bound.  The search runs on one
thread, so reports serialize to canonical JSON that is byte-identical from
run to run, capped or complete.

One WordStream serves every box of a run: the cut of the canonical
stream at the run's caps and word budget, WordStream(max_d, max_exp,
word_budget_per_box), taken once before the first box.  It holds the
cut's Words, the first words of their bodies, which a box evaluates with
words.lower_left_bounds, and counts the cut's later body twins (see the
words module's lemma), which no box evaluates.  Boxes name words by
their index in the stream's words, and ties go to the earliest, the
canonical least.  A twin has the [L, U] of its body's first word bit for
bit and comes after that word, so it cannot decide the box sooner, be an
earlier candidate or win a near-miss tie; it counts as scanned, toward
the budget too.  Only its leading block's offset could raise at a twin
first, so a box with no enclosing box reads the offset of each of the
stream's blocks from its table once, before its first word: by the words
module's twin reads, that raises where the twins' evaluations would, and
changes no verdict.  So a scan has one path, the kernel on a Word.

The stream is the cut: the segments through the first whose words reach
the budget, or all of them.  A child box's hint is its parent's near
miss, unless SearchConfig.use_parent_word_hint is off, and a root box
has none.  A scan evaluates the hint first, and a hint that kills the
box counts as its one word.  Otherwise the scan visits the cut's words in
order, the hint in its place, and a killer counts the words of the cut
through it, twins included, and the hint when it lies after it.  The
candidate, the least index with U < 1, and the near miss, the least
(U, index) among kept words with L < 1, do not depend on that order, so
the hint only moves its kill test to the front.  A near miss is an evaluated Word of the
cut, a key of its verdict's live, and a box that no word kills scans
the cut's words, capped at the budget, which is WordStream.scanned.  An
Undecided verdict records its stream, and a child is scanned on it, so
every box of a run reads the root's cut.

A box scans only what its parent left open, and re-evaluates only what
its split can change.  A child takes its parent's Undecided verdict,
which carries live, a dict from each word of the cut the parent
evaluated whose L stayed below _DEAD_LO, in ascending order, to the
(L, U) it found there, the parent's table and its stream.  The child
visits live's positions only; a position absent from live never
re-enters.  A word whose enclosure [L, U] of |m21| has L >= _DEAD_LO on
a box has L >= 1 on every box inside it, so it is inconclusive there and
never a near miss.
Every step of lower_left_bounds is inclusion isotone: real_add and
real_mul with their exact 0 and 1 shortcuts, the inline rect_add and
rect_mul, the product by -1 (rect_neg), nextafter, and the generator and
gamma^e builds, since round-to-nearest and nextafter are monotone and a
shortcut taken only on the child returns the exact value, which the
parent's rounded hull contains.  A gamma^+-1 step skips its products by
the exact entries 0 and 1 and keeps the full step's bits, and so do the
rows after a first z or z^-1 and the row a table's slot holds, which
have the bits of the stepped row, so the argument covers them as is.
So each rectangle of a child's bottom row lies inside the parent's, and
the point of rect_abs nearest the origin lies at least as far out on
each axis.  From Python 3.10 on math.hypot errs by under 1 ulp, so L,
one nextafter below it, is within 2 ulp of the true distance; _DEAD_LO
leaves a 16-ulp margin above 1.  A finite parent row also keeps
the child's finite.  Such a word still counts as scanned, toward the
budget too.  A split changes the endpoints of one generator, a, b or c,
and words.GeneratorTriple.inherit, given the parent's table, reports
which generators' endpoint bits differ.  words.m21_reads names the
generators a word's lower-left entry reads (WordStream.masks, built once
per run by the first child), and a live word that reads none of the
changed ones takes its (L, U) from live in place of a kernel run.  This
is sound on three counts.  lower_left_bounds is a deterministic function
of the bits it reads, so equal input bits give equal output bits: the
row in a table's slot has the bits of the stepped row, whatever words
filled it, so the slot adds no input.  The
child's whole bottom row, m22 included, lies inside its parent's by the
isotonicity above, and the parent's was finite: its last m22 was either
built and checked or shown finite by the kernel's magnitude guard
(words.lower_left_bounds), and the kernel raises exactly where the
whole row overflows.  So no reused word skips a ValueError the kernel
would raise on the child.  And U, whose overflow the kernel checks, is
the parent's own.  The reused values pass through the same
classification, kept rule and near-miss tie rule, so verdicts, near
misses, hints, live and report bytes are those of a scan that evaluates
every word.

A child reads no block offset.  Its parent scanned the whole cut without
raising, so the root read every block's offset and found it finite.  Each
offset and power of a box's table comes from its generators by the
isotone builds above, so it lies inside the one of every enclosing box
and is finite too: reading it cannot raise.  A child's table starts
from its parent's (words.GeneratorTriple.inherit), keeping each offset
and power whose generators' endpoints the split left as they were, bit
for bit, since it would be built from the same floats by the same
operations, and starting with an empty slot.
"""

import json
import logging
import math
import random
import time
import warnings
import zlib
from dataclasses import InitVar, dataclass, field, fields, replace
from enum import Enum
from typing import Iterable, List, Optional, Tuple, Union

from . import __version__
from . import words as _words
from .bicuspid import COORD_NAMES, Feasibility, ParamBox, box_in_param_space, param_space
from .bicuspid import integer, real_number, space_radius
from .interval import RealInterval
from .words import (
    MAX_EXP,
    GeneratorTriple,
    KillerVerdict,
    Word,
    WordStream,
    classify_bounds,
    float_row,
    lower_left_bounds,
    parse_word,
    volume_bound,
)

# not called here: perfbench hooks its words.enumerate and words.evaluate spans on
# search.enumerate_words and search.lower_left_abs
from .words import enumerate_words, lower_left_abs  # noqa: F401

log = logging.getLogger(__name__)

AUDIT_TOLERANCE = 1e-9

# L >= _DEAD_LO on a box forces L >= 1 on every box inside it (module docstring)
_DEAD_LO = 1.0 + 2.0**-48


def _setting(name: str, kind: type, value):
    """value checked and stored as kind: a bool, a float, or an integral int."""
    if kind is bool:
        if not isinstance(value, bool):
            raise TypeError(f"{name} must be true or false, got {value!r}")
        return value
    return real_number(value, name) if kind is float else integer(value, name)


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and limits for one search run; the one owner of every setting.

    Only area_bound is required.  Integer settings take an integral int or
    float, float settings any int or float; neither takes a bool or a
    string, and use_parent_word_hint takes only a bool.  A bad type raises
    TypeError, a bad value (such as an overflowing search radius) ValueError.
    max_exp is at most words.MAX_EXP, which bounds the stream's tables.

    max_boxes bounds the number of boxes tested (0 for unlimited); when the
    limit trips, untested boxes become undecided leaves and the report is
    flagged incomplete.  root_box overrides the feasible box, as six
    [lo, hi] coordinate bounds or a ParamBox; bounds are checked and turned
    into a ParamBox on construction, and either way the root's path is "".
    The root the run will search, root_box or param_space(area_bound),
    must be a valid ParamBox (every width finite), else ValueError.
    The search runs on one thread; the old worker_count keyword is still
    accepted, ignored whatever its value, with a FutureWarning.
    """

    area_bound: float
    max_d: int = 3
    max_exp: int = 2
    max_depth: int = 12
    min_box_width: float = 1e-3
    word_budget_per_box: int = 20000
    worker_count: InitVar[object] = None
    max_boxes: int = 0
    use_parent_word_hint: bool = True
    root_box: Optional[object] = None

    def __post_init__(self, worker_count):
        if worker_count is not None:
            note = "worker_count is deprecated and ignored: the search runs on one thread"
            # stacklevel 3 names the caller of the generated __init__
            warnings.warn(note, FutureWarning, stacklevel=3)
        for f in fields(self):
            if f.type in (bool, int, float):
                object.__setattr__(self, f.name, _setting(f.name, f.type, getattr(self, f.name)))
        # space_radius itself rejects an area_bound that is not positive and finite
        if not math.isfinite(space_radius(self.area_bound)):
            raise ValueError("area_bound is too large: 2 * area_bound / sqrt(3) overflows")
        for name in ("max_d", "max_exp", "word_budget_per_box"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_exp > MAX_EXP:
            raise ValueError(f"max_exp must be at most {MAX_EXP}")
        if not 1 <= self.max_depth <= 64:
            raise ValueError("max_depth must lie in [1, 64]")
        if not (self.min_box_width > 0.0 and math.isfinite(self.min_box_width)):
            raise ValueError("min_box_width must be positive and finite")
        if self.max_boxes < 0:
            raise ValueError("max_boxes must be nonnegative")
        root = self.root_box
        try:
            if root is None:
                param_space(self.area_bound)
            elif isinstance(root, ParamBox):
                # the root's path is "", whatever tree the box came from: leaf
                # paths and max_depth count from it, and to_json_dict keeps only
                # the bounds, so a kept path would not survive a rerun
                object.__setattr__(self, "root_box", replace(root, path=""))
            else:
                object.__setattr__(self, "root_box", ParamBox.from_bounds(root))
        except (TypeError, ValueError) as exc:
            what = "area_bound is too large" if root is None else "root_box"
            raise ValueError(f"{what}: {exc}") from None

    def resolved_root(self) -> Optional[ParamBox]:
        if self.root_box is None:
            return param_space(self.area_bound)
        return self.root_box

    def to_json_dict(self) -> dict:
        """Every setting by name, root_box as its bounds or None."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.root_box is not None:
            d["root_box"] = self.root_box.to_bounds()
        return d


class BoxStatus(Enum):
    ELIMINATED_INFEASIBLE = "eliminated_infeasible"
    ELIMINATED_KILLER = "eliminated_killer"
    CANDIDATE = "candidate"
    UNDECIDED = "undecided"


@dataclass
class BoxVerdict:
    """Outcome of testing one box.

    word is the eliminating word or the candidate word at the earliest
    index in the stream's words.  near_miss is the index of the scanned
    word with the smallest upper bound on the lower-left entry; it is the
    children's hint and is never serialized.  An Undecided verdict also
    carries live, a dict from the ascending indices of the words its
    children still evaluate to the (L, U) found here, which a child
    may reuse in place of a kernel run, table, the box's GeneratorTriple,
    from which the children's tables start, and stream, the WordStream it
    was scanned on, which its children read.  Each child takes the verdict
    itself as its parent (see test_box).  live, table and stream are left
    out of repr and comparison, never serialized, and leaves keep none of
    them or the near miss.  kernel_runs counts the scan's
    words.lower_left_bounds calls; it is left out of repr and comparison
    and never serialized.
    """

    box: ParamBox
    status: BoxStatus
    word: Optional[Word] = None
    volume_bound: Optional[float] = None
    words_scanned: int = 0
    near_miss: Optional[int] = field(default=None, repr=False)
    live: Optional[dict] = field(default=None, repr=False, compare=False)
    table: Optional[GeneratorTriple] = field(default=None, repr=False, compare=False)
    stream: Optional[WordStream] = field(default=None, repr=False, compare=False)
    kernel_runs: int = field(default=0, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        d = {
            "path": self.box.path,
            "bounds": self.box.to_bounds(),
            "status": self.status.value,
        }
        if self.word is not None:
            d["word"] = str(self.word)
        if self.volume_bound is not None:
            d["volume_bound"] = self.volume_bound
        return d


@dataclass
class SearchReport:
    """Leaf cover of the feasible box with the aggregate covolume bound.

    global_volume_bound is the max candidate bound, the string "unbounded"
    when undecided leaves remain, or the string "-inf" when nothing is left
    to bound.  words_evaluated counts the words the boxes scanned, and
    kernel_runs the words.lower_left_bounds calls the scans made: twins,
    dead words and reused bounds count only toward the first.  wall_time
    and kernel_runs are informational and excluded from serialization.
    """

    config: SearchConfig
    leaves: List[BoxVerdict]
    global_volume_bound: Union[float, str]
    boxes_tested: int
    words_evaluated: int
    incomplete: bool = False
    wall_time: float = 0.0
    kernel_runs: int = 0

    def to_json_dict(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json_dict(),
            "leaves": [leaf.to_json_dict() for leaf in self.leaves],
            "global_volume_bound": self.global_volume_bound,
            "statistics": {
                "boxes_tested": self.boxes_tested,
                "words_evaluated": self.words_evaluated,
            },
            "incomplete": self.incomplete,
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _widest(box: ParamBox) -> Tuple[int, RealInterval]:
    """The index and interval of box's widest coordinate, the earliest on ties."""
    widths = box.widths()
    axis = widths.index(max(widths))
    return axis, box.coords()[axis]


def _splits(box: ParamBox, min_width: float) -> bool:
    """Whether box's widest coordinate is wider than min_width and subdivide can split it."""
    iv = _widest(box)[1]
    return iv.width > min_width and iv.lo < iv.midpoint() < iv.hi


def subdivide(box: ParamBox) -> Tuple[ParamBox, ParamBox]:
    """Bisect the widest coordinate at its midpoint.

    Width ties resolve to the earliest coordinate in (a_re, a_im, b_re,
    b_im, c_re, c_im).  Children extend the parent path with "0" and "1".
    A box whose widest coordinate's midpoint rounds onto an endpoint, such
    as a zero-volume box or one whose widest coordinate is one ulp wide,
    raises ValueError: one child would be the box itself.
    """
    axis, iv = _widest(box)
    mid = iv.midpoint()
    if not iv.lo < mid < iv.hi:
        where = f"{COORD_NAMES[axis]} = [{iv.lo!r}, {iv.hi!r}]"
        raise ValueError(f"cannot subdivide: the midpoint of {where} is not strictly inside")
    lo_coords = list(box.coords())
    hi_coords = list(lo_coords)
    lo_coords[axis] = RealInterval(iv.lo, mid)
    hi_coords[axis] = RealInterval(mid, iv.hi)
    return (
        ParamBox(*lo_coords, box.path + "0"),
        ParamBox(*hi_coords, box.path + "1"),
    )


def test_box(
    box: ParamBox,
    stream: Optional[WordStream],
    cfg: SearchConfig,
    *,
    parent: Optional[BoxVerdict] = None,
) -> BoxVerdict:
    """Scan one box against the word stream.

    Returns EliminatedInfeasible if the box misses the feasible region, the
    first eliminating word otherwise, else the earliest candidate word,
    else Undecided.  At most cfg.word_budget_per_box words are scanned.

    stream is the WordStream whose key is cfg's (max_d, max_exp,
    word_budget_per_box), which boxes share.  None means parent's stream
    when there is a parent, else WordStream(cfg.max_d, cfg.max_exp,
    cfg.word_budget_per_box), built once the box is found feasible.  A
    stream whose key is not cfg's raises ValueError, whether it is given
    or parent's; streams with one key are equal.  Words are named by
    their index in stream.words, and ties go to the earliest, the
    canonical least.  The stream is the cut: every word of it, twins
    included, counts as scanned, so a box that no word kills reports
    stream.scanned, and a killer the words through it, stream.ends.
    Every box of a run reads the root's cut (see the module docstring).

    parent is None, or the Undecided verdict of an enclosing box, with its
    live, table and stream; any other verdict, such as a decided one or a
    leaf whose three run_search cleared, raises ValueError, and so do a
    live whose first or last key lies outside the indices of its stream's
    words and a near miss that is not a key of its live.  With
    cfg.use_parent_word_hint set, parent's near miss is the hint,
    evaluated first; a hint that kills the box is the verdict's one
    scanned word, and a killer found later counts the hint too when it
    lies after it.  A root box has no hint.  A box with no parent reads
    the offset of each of stream.blocks from its table
    (GeneratorTriple.offset) before its first word, as its twins'
    evaluations would read them, so an overflow there raises ValueError
    (see the words module's twin reads).  The scan then visits in order
    the keys of one dict, the hint in its place with the bounds found
    first: stream.first_scan, every word, without a parent, parent.live
    with one.  A twin, and every word absent from the dict, counts as
    scanned without being evaluated: a twin has the [L, U] of its body's
    first word, scanned before it, and a word absent from parent.live was
    ruled out on the enclosing box (see the module docstring).

    This box's table starts from parent.table (GeneratorTriple.inherit),
    and a word of parent.live, the hint too, whose m21 reads none of the
    generators whose endpoints differ from parent.table's
    (words.m21_reads) takes its (L, U) from parent.live in place of a
    kernel run, bit for bit the same (see the module docstring); a word
    whose value there is None is evaluated.  An Undecided verdict carries,
    for its children, its stream, its own table and its live: each visited
    word whose L stays below _DEAD_LO here, with its (L, U).  A position
    absent from parent.live never re-enters, and parent is never changed,
    since siblings share it.  The verdict's kernel_runs counts the kernel
    calls.
    """
    key, hint = (cfg.max_d, cfg.max_exp, cfg.word_budget_per_box), None
    given = {"the stream": stream}
    if parent is not None:
        held = (parent.live, parent.table, parent.stream)
        if parent.status is not BoxStatus.UNDECIDED or any(x is None for x in held):
            raise ValueError("parent must be an Undecided verdict with its live, table and stream")
        # live ascends, so its first and last keys bound the others
        live, size = parent.live, len(parent.stream.words)
        if live and (next(iter(live)) < 0 or next(reversed(live)) >= size):
            raise ValueError(f"parent's live has a key outside range({size}), its stream's words")
        if parent.near_miss is not None and parent.near_miss not in live:
            raise ValueError(f"parent's near miss {parent.near_miss!r} is not a key of its live")
        given["the parent's stream"] = parent.stream
        stream = parent.stream if stream is None else stream
        hint = parent.near_miss if cfg.use_parent_word_hint else None
    for name, s in given.items():
        if s is not None and s.key != key:
            raise ValueError(f"{name} is cut for (max_d, max_exp, budget) {s.key}, not {key}")
    if box_in_param_space(box, cfg.area_bound) is Feasibility.OUTSIDE:
        return BoxVerdict(box, BoxStatus.ELIMINATED_INFEASIBLE)
    if stream is None:
        stream = WordStream(*key)
    words = stream.words

    # looked up on the words module, where perfbench's tracer wraps it
    gens = _words.gens_from_params(box)
    # visit: positions in ascending order, each with the (L, U) it may reuse or None
    if parent is None:
        # the twins' one read that can raise first (see the words module's twin reads)
        for block in stream.blocks:
            gens.offset(*block)
        visit = stream.first_scan
    else:
        visit, changed, masks = parent.live, gens.inherit(parent.table), stream.masks()
    kernel = lower_left_bounds
    runs = 0

    if hint is not None:
        hint_hit = visit[hint]
        if hint_hit is None or masks[hint] & changed:
            hint_hit = kernel(gens, words[hint].syllables)
            runs += 1
        # only U < 1 decides a box; classify_bounds says which way
        if hint_hit[1] < 1.0 and classify_bounds(*hint_hit) is KillerVerdict.ELIMINATES:
            return BoxVerdict(
                box, BoxStatus.ELIMINATED_KILLER, words[hint], None, 1, kernel_runs=runs
            )

    dead_lo = _DEAD_LO
    candidate: Optional[int] = None
    near_hi, near = math.inf, None
    kept = {}
    for k, hit in visit.items():
        if k == hint:
            hit = hint_hit
        elif hit is None or masks[k] & changed:
            hit = kernel(gens, words[k].syllables)
            runs += 1
        lo, hi = hit
        if hi < 1.0:
            if classify_bounds(lo, hi) is KillerVerdict.ELIMINATES:
                # the words through this one, and the hint when it lies after it
                done = stream.ends[k] + (hint is not None and k < hint)
                return BoxVerdict(
                    box, BoxStatus.ELIMINATED_KILLER, words[k], None, done, kernel_runs=runs
                )
            if candidate is None:
                candidate = k
        elif lo < dead_lo:
            # with lo >= _DEAD_LO the word is ruled out for every box below
            kept[k] = hit
            # the least (hi, index), as positions ascend; the kernel's hi is finite
            if lo < 1.0 and hi < near_hi:
                near_hi, near = hi, k

    scanned = stream.scanned
    if candidate is not None:
        word = words[candidate]
        return BoxVerdict(
            box, BoxStatus.CANDIDATE, word, volume_bound(word), scanned, kernel_runs=runs
        )
    return BoxVerdict(box, BoxStatus.UNDECIDED, None, None, scanned, near, kept, gens, stream, runs)


# keep pytest from collecting the operation as a test case
test_box.__test__ = False


def aggregate_volume_bound(leaves: Iterable[BoxVerdict]) -> Union[float, str]:
    """Covolume aggregate over a leaf cover, with sentinel strings."""
    bounds = []
    for leaf in leaves:
        if leaf.status is BoxStatus.UNDECIDED:
            return "unbounded"
        if leaf.status is BoxStatus.CANDIDATE:
            bounds.append(leaf.volume_bound)
    return max(bounds) if bounds else "-inf"


def run_search(cfg: SearchConfig) -> SearchReport:
    """Explore the feasible box depth-first and return the leaf cover.

    Undecided boxes wider than cfg.min_box_width and shallower than
    cfg.max_depth are subdivided; other undecided boxes become leaves.
    A box is split only where subdivide can split it.  Both children take
    the box's verdict as their parent, so they evaluate only the words its
    live left open, re-evaluate only those the split can change, rebuild
    only the offsets and powers the split changed and, with
    cfg.use_parent_word_hint, take its near miss as their hint; every box
    stops at the root's cut (see the module docstring).  A leaf keeps no
    near miss, live, table or stream: no report reads them.
    The report's kernel_runs sums the verdicts'.
    The search runs on one thread, so the box budget cuts a fixed prefix of
    the depth-first order and every report, capped or complete, serializes
    identically from run to run.  The walk pops each box's 0 child before
    its 1 child, so leaves, capped ones included, come out in path order
    without a sort.
    """
    start = time.perf_counter()
    root = cfg.resolved_root()
    if root is None:
        report = SearchReport(cfg, [], "-inf", 0, 0, False, time.perf_counter() - start)
        log.info("search finished: empty feasible region")
        return report

    # one stream for every box: the cut every box of the run reads
    stream = WordStream(cfg.max_d, cfg.max_exp, cfg.word_budget_per_box)
    leaves: List[BoxVerdict] = []
    # (box, parent): the parent's Undecided verdict, None for the root
    stack: List[tuple] = [(root, None)]
    boxes = words = runs = 0
    incomplete = False
    while stack:
        box, parent = stack.pop()
        if cfg.max_boxes and boxes >= cfg.max_boxes:
            incomplete = True
            leaves.append(BoxVerdict(box, BoxStatus.UNDECIDED))
            continue
        boxes += 1
        verdict = test_box(box, stream, cfg, parent=parent)
        words += verdict.words_scanned
        runs += verdict.kernel_runs
        deeper = len(box.path) < cfg.max_depth
        if verdict.status is BoxStatus.UNDECIDED and deeper and _splits(box, cfg.min_box_width):
            lo, hi = subdivide(box)
            stack.append((hi, verdict))
            stack.append((lo, verdict))
        else:
            verdict.near_miss = verdict.live = verdict.table = verdict.stream = None
            leaves.append(verdict)

    report = SearchReport(
        cfg,
        leaves,
        aggregate_volume_bound(leaves),
        boxes,
        words,
        incomplete,
        time.perf_counter() - start,
        runs,
    )
    log.info(
        "search finished: %d leaves, %d boxes tested, %d words evaluated, %d kernel runs, %.3fs",
        len(leaves),
        report.boxes_tested,
        report.words_evaluated,
        report.kernel_runs,
        report.wall_time,
    )
    return report


def _leaf_rows(report) -> List[dict]:
    if isinstance(report, SearchReport):
        return [leaf.to_json_dict() for leaf in report.leaves]
    leaves = report.get("leaves") if isinstance(report, dict) else None
    if not isinstance(leaves, list):
        raise ValueError("not a search report: expected a JSON object with a 'leaves' list")
    if not all(isinstance(row, dict) and isinstance(row.get("status"), str) for row in leaves):
        raise ValueError("not a search report: every leaf must be an object with a 'status' string")
    return leaves


def _killer_leaf(row: dict) -> Tuple[str, Word, ParamBox]:
    """Path, word and box of a killer leaf row; ValueError names what is malformed."""
    path, text, bounds = row.get("path"), row.get("word"), row.get("bounds")
    if not isinstance(path, str) or path.strip("01"):
        raise ValueError("not a search report: a killer leaf's path must be a string of 0s and 1s")
    where = f"not a search report: killer leaf {path!r}"
    if not isinstance(text, str):
        raise ValueError(f"{where} has no word string")
    try:
        word = parse_word(text)
    except ValueError as exc:
        raise ValueError(f"{where}: word {text!r}: {exc}") from None
    # the search writes no exponent past MAX_EXP, and the audit steps |e| times per sample
    if any(abs(k) > MAX_EXP for syllable in word.syllables for k in syllable):
        raise ValueError(f"{where}: word {text!r} has an exponent beyond {MAX_EXP}")
    try:
        box = ParamBox.from_bounds(bounds)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bounds: {exc}") from None
    return path, word, box


def verify_report(report, samples_per_box: int) -> dict:
    """Independent float audit of every killer-eliminated leaf.

    Samples points inside each such leaf with a path-seeded generator and
    walks the bottom row of the recorded word's float product there
    (words.float_row), requiring the lower-left magnitude to stay inside
    (0, 1) with tolerance AUDIT_TOLERANCE; a sample that is not strictly
    inside, NaN included, is a violation.  Accepts a SearchReport or its
    JSON dictionary form; raises ValueError, naming the problem, when the
    dictionary is not a search report.
    samples_per_box takes an integral int or float, as SearchConfig's
    integer settings do: a bool or a string raises TypeError, another
    non-integral number ValueError.
    """
    samples_per_box = integer(samples_per_box, "samples_per_box")
    if samples_per_box < 1:
        raise ValueError("samples_per_box must be at least 1")
    audited = 0
    taken = 0
    violations = []
    for row in _leaf_rows(report):
        if row["status"] != BoxStatus.ELIMINATED_KILLER.value:
            continue
        audited += 1
        path, word, box = _killer_leaf(row)
        draw = random.Random(zlib.crc32(("audit:" + path).encode("ascii"))).random
        spans = [(iv.lo, iv.width) for iv in box.coords()]
        for _ in range(samples_per_box):
            taken += 1
            vals = [lo + draw() * width for lo, width in spans]
            a, b = complex(vals[0], vals[1]), complex(vals[2], vals[3])
            c = complex(vals[4], vals[5])
            mag = abs(float_row(word, a, b, c, (0j, 1.0 + 0j))[0])
            if not AUDIT_TOLERANCE < mag < 1.0 + AUDIT_TOLERANCE:
                violations.append(
                    {
                        "path": path,
                        "word": row["word"],
                        "params": vals,
                        "abs_lower_left": mag,
                    }
                )
    return {
        "passed": not violations,
        "leaves_audited": audited,
        "samples_taken": taken,
        "violations": violations,
    }
