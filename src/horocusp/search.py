"""Branch-and-prune driver over the normalized parameter box.

The driver subdivides the feasible box dyadically, scans each box against a
canonical word stream with the killer test, and assembles a leaf cover with
per-box verdicts plus an aggregate covolume bound.  The search runs on one
thread, so reports serialize to canonical JSON that is byte-identical from
run to run, capped or complete.

One WordStream serves every box of a run: it takes the segments of
enumerate_segments once, when the first box asks for them.  A segment is
either the first word of its body, which a box evaluates with
words.lower_left_bounds, or a Run of later body twins (see the words
module's lemma), which a box counts and does not evaluate.  Boxes name
words by their index in the stream's segments, and ties go to the
earliest, which on the canonical stream is the canonical least.  Every
word a box evaluates is a Word segment, so no index names a twin.  A twin
has the [L, U] of its body's first word bit for bit and comes after that
word, so it cannot decide the box sooner, be an earlier candidate or win
a near-miss tie; it counts as scanned, toward the budget too.  Its
leading syllable's table entry is still looked up, once per Run, since
that is where its own evaluation could overflow.

A box skips the words an ancestor box has ruled out.  A word whose
enclosure [L, U] of |m21| has L >= _DEAD_LO on a box has L >= 1 on every
box inside it, so it is inconclusive there and never a near miss.  Every
step of lower_left_bounds is inclusion isotone: real_add and real_mul with
their exact 0 and 1 shortcuts, the inline rect_add and rect_mul, the
product by -1 (rect_neg), nextafter, and the generator and gamma^e builds,
since round-to-nearest and nextafter are monotone and a shortcut taken
only on the child returns the exact value, which the parent's rounded hull
contains.  A gamma^+-1 step skips its products by the exact entries 0 and
1 and keeps the full step's bits, so the argument covers it as is.  So each
rectangle of a child's bottom row lies inside the parent's, and the point
of rect_abs nearest the origin lies at least as far out on each axis.
From Python 3.10 on math.hypot errs by under 1 ulp, so L, one nextafter
below it, is within 2 ulp of the true distance; _DEAD_LO leaves a 16-ulp
margin above 1.  A finite parent row also keeps the child's finite.  Such
a word still counts as scanned, toward the budget too, so verdicts, near
misses, hints and report bytes are those of a scan that evaluates every
word.
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
from .bicuspid import Feasibility, ParamBox, Params, box_in_param_space, param_space
from .bicuspid import integer, real_number, space_radius
from .interval import RealInterval
from .words import (
    MAX_EXP,
    KillerVerdict,
    Run,
    Word,
    WordStream,
    classify_bounds,
    enumerate_segments,
    evaluate_word_float,
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
        root = None if self.root_box is None else self.root_box.to_bounds()
        return {
            "area_bound": self.area_bound,
            "max_d": self.max_d,
            "max_exp": self.max_exp,
            "max_depth": self.max_depth,
            "min_box_width": self.min_box_width,
            "word_budget_per_box": self.word_budget_per_box,
            "max_boxes": self.max_boxes,
            "use_parent_word_hint": self.use_parent_word_hint,
            "root_box": root,
        }


class BoxStatus(Enum):
    ELIMINATED_INFEASIBLE = "eliminated_infeasible"
    ELIMINATED_KILLER = "eliminated_killer"
    CANDIDATE = "candidate"
    UNDECIDED = "undecided"


@dataclass
class BoxVerdict:
    """Outcome of testing one box.

    word is the eliminating word or the candidate word at the earliest
    segment index.  near_miss is the segment index of the scanned word
    with the smallest upper bound on the lower-left entry; it seeds the
    children's scans and is never serialized.  dead holds the segment
    indices of the words this box or an ancestor has ruled out for every
    box below it; it too goes to the children only, and leaves keep neither.
    """

    box: ParamBox
    status: BoxStatus
    word: Optional[Word] = None
    volume_bound: Optional[float] = None
    words_scanned: int = 0
    near_miss: Optional[int] = field(default=None, repr=False)
    dead: frozenset = field(default=frozenset(), repr=False, compare=False)

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
    to bound.  wall_time is informational and excluded from serialization.
    """

    config: SearchConfig
    leaves: List[BoxVerdict]
    global_volume_bound: Union[float, str]
    boxes_tested: int
    words_evaluated: int
    incomplete: bool = False
    wall_time: float = 0.0

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


def subdivide(box: ParamBox) -> Tuple[ParamBox, ParamBox]:
    """Bisect the widest coordinate at its midpoint.

    Width ties resolve to the earliest coordinate in (a_re, a_im, b_re,
    b_im, c_re, c_im).  Children extend the parent path with "0" and "1".
    """
    widths = box.widths()
    top = max(widths)
    if top <= 0.0:
        raise ValueError("cannot subdivide a zero-volume box")
    axis = widths.index(top)
    coords = list(box.coords())
    iv = coords[axis]
    mid = iv.midpoint()
    lo_coords = list(coords)
    hi_coords = list(coords)
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
    hint: Optional[int] = None,
    dead: frozenset = frozenset(),
) -> BoxVerdict:
    """Scan one box against the word stream.

    Returns EliminatedInfeasible if the box misses the feasible region, the
    first eliminating word otherwise, else the earliest candidate word,
    else Undecided.  At most cfg.word_budget_per_box words are scanned.

    stream is a WordStream, which boxes can share so that each segment is
    taken once, or None for WordStream(enumerate_segments(cfg.max_d,
    cfg.max_exp)).  Words are named by their index in stream.segments,
    and ties go to the earliest, which on the canonical stream is the
    canonical least.  hint, the index of a Word segment the stream has
    already taken (else ValueError; TypeError if it is not an int), is
    scanned first and its stream copy is passed over.

    Only the stream's Word segments are evaluated.  A Run's words (see
    WordStream) count as scanned, all at once and no further than the
    budget: each has the [L, U] of its body's first word, scanned before
    it, so it neither decides the box sooner nor becomes its near miss.
    The Run's leading syllable is read from the box's GeneratorTriple, as
    its words' evaluations would read it, so an overflow in that table
    entry raises ValueError.

    dead holds the indices of words with L >= _DEAD_LO on an enclosing
    box.  Each counts as scanned without being evaluated: by inclusion
    isotonicity and the hypot margin (see the module docstring) it has
    L >= 1 here, so it neither decides the box nor becomes its near miss.
    An Undecided verdict carries a new set, dead plus the evaluated
    indices that reach _DEAD_LO on this box, the hint's included, for
    its children; the set passed in is never changed, since siblings share
    it.
    """
    if stream is None:
        stream = WordStream(enumerate_segments(cfg.max_d, cfg.max_exp))
    segments = stream.segments
    if hint is not None:
        if isinstance(hint, bool) or not isinstance(hint, int):
            raise TypeError(f"hint must be an int segment index, got {hint!r}")
        if not 0 <= hint < len(segments) or segments[hint].__class__ is Run:
            raise ValueError(f"hint must index a taken Word segment, got {hint!r}")
    if box_in_param_space(box, cfg.area_bound) is Feasibility.OUTSIDE:
        return BoxVerdict(box, BoxStatus.ELIMINATED_INFEASIBLE)

    # looked up on the words module, where perfbench's tracer wraps it
    gens = _words.gens_from_params(box)
    kernel = lower_left_bounds
    dead_lo = _DEAD_LO
    budget = cfg.word_budget_per_box
    scanned = 0
    candidate: Optional[int] = None
    near_hi, near = math.inf, None
    ruled_out: List[int] = []

    # Evaluate the word at index `at` (the hint first), then step to the next
    # segment, until one is to evaluate.
    at, word = hint, None if hint is None else segments[hint]
    taken, k = len(segments), -1
    while True:
        if at is not None:
            lo, hi = kernel(gens, word.syllables)
            scanned += 1
            if hi < 1.0:
                # only U < 1 decides a box; classify_bounds says which way
                if classify_bounds(lo, hi) is KillerVerdict.ELIMINATES:
                    return BoxVerdict(box, BoxStatus.ELIMINATED_KILLER, word, None, scanned)
                if candidate is None or at < candidate:
                    candidate = at
            elif lo < 1.0:
                # lo >= 1 means no sub-box can ever be eliminated by this word;
                # the least (hi, index); the kernel's hi is finite
                if hi < near_hi or (hi == near_hi and at < near):
                    near_hi, near = hi, at
            elif lo >= dead_lo:
                ruled_out.append(at)
            at = None
        if scanned >= budget:
            break
        k += 1
        if k == taken:
            if not stream.take():
                break
            taken += 1
        segment = segments[k]
        if segment.__class__ is Run:
            # twins: only the leading syllable's table entry can raise where
            # their own evaluations would, so read it for its error
            gens[segment.prefix[0]]
            scanned = min(budget, scanned + segment.count)
        elif k == hint:
            pass  # the hint, scanned first
        elif k in dead:
            scanned += 1
        else:
            at, word = k, segment

    if candidate is not None:
        word = segments[candidate]
        return BoxVerdict(box, BoxStatus.CANDIDATE, word, volume_bound(word), scanned)
    return BoxVerdict(box, BoxStatus.UNDECIDED, None, None, scanned, near, dead.union(ruled_out))


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
    Both children inherit the box's near miss as their hint and its set of
    dead segment indices, so they skip the words it ruled out.  A leaf
    keeps neither: no report reads them.
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

    # one stream for every box, taken from enumerate_segments as boxes ask
    stream = WordStream(enumerate_segments(cfg.max_d, cfg.max_exp))
    leaves: List[BoxVerdict] = []
    stack: List[Tuple[ParamBox, Optional[int], frozenset]] = [(root, None, frozenset())]
    boxes = words = 0
    incomplete = False
    while stack:
        box, hint, dead = stack.pop()
        if cfg.max_boxes and boxes >= cfg.max_boxes:
            incomplete = True
            leaves.append(BoxVerdict(box, BoxStatus.UNDECIDED))
            continue
        boxes += 1
        verdict = test_box(box, stream, cfg, hint=hint, dead=dead)
        words += verdict.words_scanned
        splittable = len(box.path) < cfg.max_depth and box.max_width() > cfg.min_box_width
        if verdict.status is BoxStatus.UNDECIDED and splittable:
            child_hint = verdict.near_miss if cfg.use_parent_word_hint else None
            lo, hi = subdivide(box)
            stack.append((hi, child_hint, verdict.dead))
            stack.append((lo, child_hint, verdict.dead))
        else:
            verdict.near_miss, verdict.dead = None, frozenset()
            leaves.append(verdict)

    report = SearchReport(
        cfg,
        leaves,
        aggregate_volume_bound(leaves),
        boxes,
        words,
        incomplete,
        time.perf_counter() - start,
    )
    log.info(
        "search finished: %d leaves, %d boxes tested, %d words evaluated, %.3fs",
        len(leaves),
        report.boxes_tested,
        report.words_evaluated,
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
    float-evaluates the recorded word, requiring the lower-left magnitude
    to stay inside (0, 1) with tolerance AUDIT_TOLERANCE; a sample that
    is not strictly inside, NaN included, is a violation.  Accepts a
    SearchReport or its JSON dictionary form; raises ValueError, naming
    the problem, when the dictionary is not a search report.
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
        rng = random.Random(zlib.crc32(("audit:" + path).encode("ascii")))
        for _ in range(samples_per_box):
            taken += 1
            vals = [iv.lo + rng.random() * iv.width for iv in box.coords()]
            p = Params(
                complex(vals[0], vals[1]),
                complex(vals[2], vals[3]),
                complex(vals[4], vals[5]),
            )
            mag = abs(evaluate_word_float(word, p)[2])
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
