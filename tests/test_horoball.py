"""Horoball enumeration and rendering: count oracle, Poincare-extension check."""

import itertools
import json
import math
import random
import time
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from horocusp import __version__
from horocusp.bicuspid import Params
from horocusp.cuspgeom import CuspShape
from horocusp.horoball import (
    DEDUP_DECIMALS,
    MAX_WALK_WORDS,
    GroupElement,
    Horoball,
    HoroballDiagram,
    enumerate_elements,
    export_csv,
    horoball_diagram,
    min_lower_left,
    render_svg,
    _COLUMN,
    _COSET,
    _MATRIX,
    _REDUCED,
    _ROW,
    _double_coset_words,
    _reduce_mod_lattice,
    _sign_key,
    _walk,
)

REF = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 2.0)


def _ref(k, c=2.0):
    """The reference point with b renormalized to b + k*a."""
    return Params(4.0, complex(1.0 + 4.0 * k, math.sqrt(3.0)), c)


def _test_matrices(p):
    one = 1 + 0j
    return {
        "x": (one, p.a, 0j, one),
        "x^-1": (one, -p.a, 0j, one),
        "y": (one, p.b, 0j, one),
        "y^-1": (one, -p.b, 0j, one),
        "z": (p.c, -one, one, 0j),
        "z^-1": (0j, one, -one, p.c),
    }


def _prod(letters, p):
    mats = _test_matrices(p)
    acc = (1 + 0j, 0j, 0j, 1 + 0j)
    for letter in letters:
        g = mats[letter]
        acc = (
            acc[0] * g[0] + acc[1] * g[2],
            acc[0] * g[1] + acc[1] * g[3],
            acc[2] * g[0] + acc[3] * g[2],
            acc[2] * g[1] + acc[3] * g[3],
        )
    return acc


def _reduced_words(max_len):
    """Letter sequences of the reduced-word walk, in walk order."""
    return [w for w, _ in _walk(REF, max_len, range(6), _REDUCED)]


def test_reduced_word_counts_match_cayley_ball() -> None:
    words = _reduced_words(5)
    for k in range(1, 6):
        assert sum(1 for w in words if len(w) == k) == 6 * 5 ** (k - 1)
    assert len(set(words)) == len(words)
    assert [len(w) for w in words] == sorted(len(w) for w in words)


def test_reduced_words_content_matches_direct_filter():
    inverse = (1, 0, 3, 2, 5, 4)
    direct = set()
    for k in (1, 2, 3):
        for w in itertools.product(range(6), repeat=k):
            if any(w[i + 1] == inverse[w[i]] for i in range(k - 1)):
                continue
            direct.add(w)
    assert set(_reduced_words(3)) == direct


def test_deep_walks_fail_at_once():
    start = time.perf_counter()
    for call in (
        lambda: horoball_diagram(REF, 0.05, 40),
        lambda: min_lower_left(REF, 40),
        lambda: enumerate_elements(REF, 40),
    ):
        with pytest.raises(ValueError, match="words"):
            call()
    assert time.perf_counter() - start < 1.0
    # checked before the first level is built, counting five successors per
    # word: the reduced walk builds 585,936 words to length 8 and 2,929,686
    # to 9; the double-coset walk at most 976,562 to 9 and 4,882,812 to 10
    for first, follows, longest in ((range(6), _REDUCED, 8), ((4, 5), _COSET, 9)):
        assert next(_walk(REF, longest, first, follows))[0] == (first[0],)
        with pytest.raises(ValueError, match=str(MAX_WALK_WORDS)):
            next(_walk(REF, longest + 1, first, follows))


def test_depth_one_elements():
    els = enumerate_elements(REF, 1)
    assert len(els) == 6
    by_word = {el.word: el.matrix for el in els}
    assert by_word["z"] == (2 + 0j, -1 + 0j, 1 + 0j, 0j)
    assert by_word["z^-1"] == (0j, 1 + 0j, -1 + 0j, 2 + 0j)
    assert by_word["x"][2] == 0j and by_word["y"][2] == 0j


def test_commuting_translations_deduplicate():
    els = enumerate_elements(REF, 2)
    assert len(els) == 32
    words = [el.word for el in els]
    assert "x y" in words and "y x" not in words
    target = (1 + 0j, REF.a + REF.b, 0j, 1 + 0j)
    witnesses = [el for el in els if el.matrix == target]
    assert len(witnesses) == 1 and witnesses[0].word == "x y"


def test_element_matrices_match_independent_products() -> None:
    rng = random.Random(2293)
    p = Params(
        complex(rng.uniform(1.0, 3.0), 0.0),
        complex(rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0)),
        complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    )
    els = enumerate_elements(p, 3)
    for el in rng.sample(els, 40):
        expect = _prod(el.letters, p)
        err = max(abs(expect[i] - el.matrix[i]) for i in range(4))
        assert err < 1e-9


def _poincare_image(m, zeta, t):
    w, x, y, z = m
    denom = abs(y * zeta + z) ** 2 + abs(y) ** 2 * t * t
    zeta2 = ((w * zeta + x) * (y * zeta + z).conjugate() + w * y.conjugate() * t * t) / denom
    return zeta2, t / denom


def test_diameter_matches_poincare_extension() -> None:
    rng = random.Random(777012)
    els = [el for el in enumerate_elements(REF, 4) if el.matrix[2] != 0]
    for el in rng.sample(els, 60):
        w, x, y, z = el.matrix
        q = w / y
        expected = 1.0 / abs(y) ** 2
        for zeta in (0j, 1 + 0j, 1j):
            zeta2, t2 = _poincare_image(el.matrix, zeta, 1.0)
            diameter = (abs(zeta2 - q) ** 2 + t2 * t2) / t2
            assert abs(diameter - expected) < 1e-6 * max(1.0, expected)


def test_reference_diagram_balls():
    d = horoball_diagram(REF, 0.5, 2)
    rows = [(b.center, b.diameter, b.word) for b in d.balls]
    assert rows == [(2 + 0j, 1.0, "z"), (0j, 1.0, "z^-1")]


@pytest.mark.parametrize(
    "k, depth, count", [(-1, 4, 28), (0, 4, 44), (1, 4, 24), (-1, 5, 50), (0, 5, 64), (1, 5, 40)]
)
def test_reference_diagram_counts_all_below_height_one(k, depth, count):
    d = horoball_diagram(_ref(k), 0.05, depth)
    assert len(d.balls) == count
    for ball in d.balls:
        assert 0.0 < ball.diameter <= 1.0 + 1e-9


def _diagram_via_elements(p, min_diameter, max_len):
    """The diagram rebuilt from every sign-deduplicated element, as rows."""
    balls = {}
    for el in enumerate_elements(p, max_len):
        y = el.matrix[2]
        if y == 0:
            continue
        diameter = 1.0 / (abs(y) * abs(y))
        if diameter < min_diameter:
            continue
        center = _reduce_mod_lattice(el.matrix[0] / y, p.a, p.b)
        key = tuple(round(v, DEDUP_DECIMALS) + 0.0 for v in (center.real, center.imag, diameter))
        if key not in balls:
            balls[key] = (center, diameter, el.word)
    return list(balls.values())


def _min_lower_left_via_elements(p, max_len):
    return min(abs(el.matrix[2]) for el in enumerate_elements(p, max_len) if el.matrix[2] != 0)


_GENERIC = Params(2.72490163, -0.16861255 + 1.02845135j, -0.21947240 - 0.35802275j)


@pytest.mark.parametrize(
    "p, depths",
    [(_ref(-1), range(1, 6)), (_ref(0), range(1, 6)), (_ref(1), range(1, 6)),
     (_ref(0, c=0.5), range(1, 6)), (_GENERIC, (6,))],
    ids=["ref-k-1", "ref-k0", "ref-k1", "c0.5", "generic-depth6"],
)
def test_double_coset_walk_matches_all_elements(p, depths):
    # At the generic point, depth 6 reaches words such as z^-1 x y x^-1 y^-1 z
    # whose float product has |y| ~ 1e-16 though the element is the identity.
    for depth in depths:
        for cutoff in (0.05, 0.5):
            balls = horoball_diagram(p, cutoff, depth).balls
            rows = [(b.center, b.diameter, b.word) for b in balls]
            assert rows == _diagram_via_elements(p, cutoff, depth)
        assert abs(min_lower_left(p, depth) - _min_lower_left_via_elements(p, depth)) <= 1e-15


def test_diagram_cutoff_validation_and_empty():
    try:
        horoball_diagram(REF, 0.0, 2)
        assert False, "expected ValueError"
    except ValueError:
        pass
    assert horoball_diagram(REF, 1.5, 3).balls == []


def test_diagram_stable_under_deeper_enumeration():
    def keys(depth):
        return {
            (round(b.center.real, 9), round(b.center.imag, 9), round(b.diameter, 9))
            for b in horoball_diagram(REF, 0.05, depth).balls
        }

    k2, k3, k4 = keys(2), keys(3), keys(4)
    assert k2 <= k3 <= k4


def test_equivariance_under_lattice_translations() -> None:
    rng = random.Random(550211)
    els = [el for el in enumerate_elements(REF, 3) if el.matrix[2] != 0]
    for el in rng.sample(els, 40):
        m_, n_ = rng.randint(-3, 3), rng.randint(-3, 3)
        offset = m_ * REF.a + n_ * REF.b
        w, x, y, z = el.matrix
        translated = (w + offset * y, x + offset * z, y, z)
        c1 = _reduce_mod_lattice(w / y, REF.a, REF.b)
        c2 = _reduce_mod_lattice(translated[0] / translated[2], REF.a, REF.b)
        assert abs(c1 - c2) < 1e-8
        assert translated[2] == y


def test_min_lower_left_reference():
    assert min_lower_left(REF, 1) == 1.0
    assert abs(min_lower_left(REF, 6) - 1.0) < 1e-9


def test_min_lower_left_matches_brute_force_oracle() -> None:
    p = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 0.5)
    letters = ("x", "x^-1", "y", "y^-1", "z", "z^-1")
    inverse = {"x": "x^-1", "x^-1": "x", "y": "y^-1", "y^-1": "y", "z": "z^-1", "z^-1": "z"}
    best = math.inf
    for k in (1, 2, 3, 4):
        for word in itertools.product(letters, repeat=k):
            if any(word[i + 1] == inverse[word[i]] for i in range(k - 1)):
                continue
            y = _prod(word, p)[2]
            if abs(y) > 0.0:
                best = min(best, abs(y))
    assert abs(min_lower_left(p, 4) - best) < 1e-12


def test_render_svg_structure_and_determinism():
    d = horoball_diagram(REF, 0.5, 2)
    svg = render_svg(d, 80.0, metadata={"note": "reference"})
    assert svg == render_svg(d, 80.0, metadata={"note": "reference"})
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall("s:polygon", ns)) == 1
    circles = root.findall("s:circle", ns)
    assert len(circles) == 2
    meta = json.loads(root.find("s:metadata", ns).text)
    assert meta["ball_count"] == 2 and meta["note"] == "reference"

    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            render_svg(d, scale)

    # a finite scale whose canvas overflows
    with pytest.raises(ValueError, match="makes a canvas of inf by inf"):
        render_svg(d, 1e308)

    empty = horoball_diagram(REF, 1.5, 2)
    root2 = ET.fromstring(render_svg(empty))
    assert len(root2.findall("s:circle", ns)) == 0
    assert len(root2.findall("s:polygon", ns)) == 1


def test_export_csv_format():
    d = horoball_diagram(REF, 0.5, 2)
    text = export_csv(d, metadata={"max_len": 2})
    lines = text.strip().split("\n")
    assert lines[0] == "# horocusp 0.1.0"
    assert lines[1].startswith("# lattice a=(4.000000000,0.000000000)")
    assert lines[2].startswith("# config ")
    assert lines[3] == "center_re,center_im,diameter,word"
    assert lines[4] == "2.000000000,0.000000000,1.000000000,z"
    assert lines[5] == "0.000000000,0.000000000,1.000000000,z^-1"
    assert export_csv(d, metadata={"max_len": 2}) == text


def test_degenerate_lattice_rejected():
    try:
        horoball_diagram(Params(4.0, 8.0, 2.0), 0.5, 2)
        assert False, "expected ValueError for collinear lattice"
    except ValueError:
        pass


def test_group_element_word_property():
    el = GroupElement(("x", "z^-1"), (1 + 0j, 0j, 0j, 1 + 0j))
    assert el.word == "x z^-1"


_LETTER_NAMES = ("x", "x^-1", "y", "y^-1", "z", "z^-1")


def _plain_walk(p, max_len, first, may_follow):
    """Breadth-first (letters, product) pairs, every level built and kept."""
    mats = _test_matrices(p)
    gens = [mats[name] for name in _LETTER_NAMES]
    levels = [[((i,), gens[i]) for i in first]]
    for _ in range(max_len - 1):
        nxt = []
        for w, acc in levels[-1]:
            for i in range(6):
                if may_follow(w[-1], i):
                    g = gens[i]
                    m = (
                        acc[0] * g[0] + acc[1] * g[2],
                        acc[0] * g[1] + acc[1] * g[3],
                        acc[2] * g[0] + acc[3] * g[2],
                        acc[2] * g[1] + acc[3] * g[3],
                    )
                    nxt.append((w + (i,), m))
        levels.append(nxt)
    return [pair for level in levels for pair in level]


def _reduced_rule(j, i):
    return i != (1, 0, 3, 2, 5, 4)[j]


def _coset_rule(j, i):
    # reduced, and no y-letter followed by an x-letter
    return _reduced_rule(j, i) and not (j in (2, 3) and i in (0, 1))


def _bits(pairs):
    """(letters, entries) pairs with each float spelled exactly, signed zeros too."""
    return [(w, tuple(float.hex(x) for z in m for x in (z.real, z.imag))) for w, m in pairs]


@pytest.mark.parametrize(
    "p", [_ref(-1), _ref(0), _ref(1), _ref(0, c=0.5), _GENERIC],
    ids=["ref-k-1", "ref-k0", "ref-k1", "c0.5", "generic"],
)
def test_streamed_walks_match_a_walk_that_keeps_every_level(p):
    # the walk to one length is the start of the walk to a longer one; the
    # row walk of min_lower_left and the column last level of the diagram
    # give the entries they carry with the bits of the full product
    coset = _plain_walk(p, 8, (4, 5), _coset_rule)
    coset = _bits([(w, m) for w, m in coset if w[-1] >= 4])
    for length in range(1, 9):
        expect = [(w, m) for w, m in coset if len(w) <= length]
        assert _bits(_double_coset_words(p, length)) == expect
        # hexes 4-7 spell (m21, m22), hexes 0-1 and 4-5 (m11, m21)
        rows = [(w, m[4:]) for w, m in expect]
        assert _bits(_double_coset_words(p, length, _ROW)) == rows
        columns = [(w, m[:2] + m[4:6]) for w, m in expect]
        assert _bits(_double_coset_words(p, length, _MATRIX, _COLUMN)) == columns
    reduced = _plain_walk(p, 6, range(6), _reduced_rule)
    # the first witness of each matrix class, in walk order
    witnesses = {}
    for w, m in reduced:
        witnesses.setdefault(_sign_key(m), (w, m))
    reduced, witnesses = _bits(reduced), _bits(witnesses.values())
    for length in range(1, 7):
        expect = [(w, m) for w, m in reduced if len(w) <= length]
        assert _bits(_walk(p, length, range(6), _REDUCED)) == expect
        expect = [(tuple(_LETTER_NAMES[i] for i in w), m) for w, m in witnesses if len(w) <= length]
        got = [(el.letters, el.matrix) for el in enumerate_elements(p, length)]
        assert _bits(got) == expect


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _render_svg_etree(
    diagram,
    scale_px_per_unit: float = 80.0,
    metadata=None,
) -> str:
    """The SVG writer as it was when it built an xml.etree tree: the byte oracle."""
    if not (scale_px_per_unit > 0.0 and math.isfinite(scale_px_per_unit)):
        raise ValueError("scale_px_per_unit must be positive and finite")
    a = diagram.lattice.a
    b = diagram.lattice.b
    corners = [0j, a, a + b, b]
    xs = [z.real for z in corners]
    ys = [z.imag for z in corners]
    for ball in diagram.balls:
        r = ball.diameter / 2.0
        xs += [ball.center.real - r, ball.center.real + r]
        ys += [ball.center.imag - r, ball.center.imag + r]
    pad = 10.0
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) * scale_px_per_unit + 2 * pad
    height = (max_y - min_y) * scale_px_per_unit + 2 * pad

    def to_px(z: complex):
        return (
            (z.real - min_x) * scale_px_per_unit + pad,
            (max_y - z.imag) * scale_px_per_unit + pad,
        )

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
        },
    )
    meta = ET.SubElement(root, "metadata")
    payload = {"version": __version__, "ball_count": len(diagram.balls)}
    if metadata:
        payload.update(metadata)
    meta.text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    ET.SubElement(
        root,
        "polygon",
        {
            "points": " ".join(
                "{},{}".format(_fmt(px), _fmt(py)) for px, py in map(to_px, (0j, a, a + b, b))
            ),
            "fill": "none",
            "stroke": "#202020",
            "stroke-width": "1.5",
        },
    )
    for ball in diagram.balls:
        cx, cy = to_px(ball.center)
        circle = ET.SubElement(
            root,
            "circle",
            {
                "cx": _fmt(cx),
                "cy": _fmt(cy),
                "r": _fmt(ball.diameter / 2.0 * scale_px_per_unit),
                "fill": "#4878b0",
                "fill-opacity": "0.35",
                "stroke": "#1f4b7a",
                "stroke-width": "1.0",
            },
        )
        title = ET.SubElement(circle, "title")
        title.text = ball.word
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode")


_SVG_METADATA = (
    None,
    {},
    {"config": {"cutoff": 0.05, "note": "a & b < c > d \" e ' f \n g \t h"}},
    {"<&>": "Dehn filling, Poincaré ∞ ≥ 1 — 双曲", "&amp;": ["<", ">", "&", "é"]},
)


def _random_point(rng):
    return Params(
        complex(rng.uniform(1.0, 3.0), 0.0),
        complex(rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0)),
        complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    )


def test_render_svg_bytes_match_the_etree_writer():
    rng = random.Random(31337)
    points = [_ref(-1), _ref(0), _ref(1)] + [_random_point(rng) for _ in range(3)]
    diagrams = [horoball_diagram(p, 0.02, depth) for p in points for depth in range(1, 7)]
    # titles the walk never spells: markup characters, non-ASCII, empty
    lattice = CuspShape(REF.a, REF.b)
    words = ("a & b", "<z>", "z^-1 > x", "Poincaré ∞", "", " ", "&amp;\n\t")
    diagrams.append(
        HoroballDiagram(lattice, [Horoball(0.5j * k, 0.25, w) for k, w in enumerate(words)])
    )
    diagrams.append(HoroballDiagram(lattice, []))
    for diagram in diagrams:
        for scale in (80.0, 13.5):
            for metadata in _SVG_METADATA:
                expect = _render_svg_etree(diagram, scale, metadata)
                assert render_svg(diagram, scale, metadata) == expect
                if metadata is None:
                    assert render_svg(diagram, scale) == expect


@pytest.mark.parametrize(
    "call",
    [lambda: min_lower_left(REF, 8), lambda: horoball_diagram(REF, 0.05, 8)],
    ids=["min_lower_left", "horoball_diagram"],
)
def test_depth_eight_walk_peak_memory(call):
    # a size gate, not a timing gate: the last level, about three quarters
    # of the words, is streamed, so the peak is the depth-7 level's
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_nan_lower_left_is_an_error_not_a_bound():
    p = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, math.nan)
    # z z has y = c; the ball of z has center c / 1
    with pytest.raises(ValueError, match=r"lower-left entry of word 'z z' is NaN"):
        min_lower_left(p, 3)
    with pytest.raises(ValueError, match=r"horoball of word 'z' has a NaN center"):
        horoball_diagram(p, 0.05, 3)
    assert min_lower_left(p, 1) == 1.0


def test_center_off_the_lattice_coordinates_is_an_error():
    """A finite center whose lattice coordinates overflow names its word, not math.floor's error."""
    p = Params(4.0, 1.0 + math.sqrt(3.0) * 1j, 1.7e308)
    # the ball of z has center c; conj(b) * c, behind its coordinate along a, overflows
    with pytest.raises(ValueError, match=r"horoball of word 'z' has a center with non-finite lattice"):
        horoball_diagram(p, 0.05, 1)
