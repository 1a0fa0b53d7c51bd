"""Horoball enumeration and rendering: count oracle, Poincare-extension check."""

import itertools
import json
import math
import random
import time
import xml.etree.ElementTree as ET

import pytest

from horocusp.bicuspid import Params
from horocusp.horoball import (
    DEDUP_DECIMALS,
    MAX_WALK_WORDS,
    GroupElement,
    enumerate_elements,
    export_csv,
    horoball_diagram,
    min_lower_left,
    render_svg,
    _COSET,
    _REDUCED,
    _reduce_mod_lattice,
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
