"""The package root: each public name loads its home submodule on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name of the package root, by home submodule; None is the root itself
SURFACE = {
    "__version__": None,
    **dict.fromkeys(["ComplexInterval", "IntervalMatrix", "RealInterval"], "interval"),
    **dict.fromkeys(
        ["Feasibility", "ParamBox", "Params", "box_in_param_space", "param_space", "space_radius"],
        "bicuspid",
    ),
    **dict.fromkeys(
        [
            "GeneratorTriple", "KillerVerdict", "Word", "WordStream",
            "enumerate_words", "evaluate_word", "evaluate_word_float", "gens_from_params",
            "killer_test", "lower_left_abs", "parse_word", "volume_bound",
        ],
        "words",
    ),
    **dict.fromkeys(
        [
            "BoxStatus", "BoxVerdict", "SearchConfig", "SearchReport", "aggregate_volume_bound",
            "run_search", "subdivide", "test_box", "verify_report",
        ],
        "search",
    ),
    **dict.fromkeys(
        [
            "CuspShape", "Slope", "audit_cusp", "cusp_area", "cusp_volume", "delta",
            "delta_bound", "max_exceptional_count", "short_slopes", "slope_length",
            "strict_delta_max",
        ],
        "cuspgeom",
    ),
    **dict.fromkeys(
        [
            "GroupElement", "Horoball", "HoroballDiagram", "enumerate_elements", "export_csv",
            "horoball_diagram", "min_lower_left", "render_svg",
        ],
        "horoball",
    ),
}

LOADED = "sorted(m[len('horocusp.'):] for m in sys.modules if m.startswith('horocusp.'))"

# run in a fresh interpreter, in this order: first reads, then dir, an
# unknown name and the star import, which would otherwise load everything first
SURFACE_CHECK = """
import importlib, json, sys
import horocusp

surface = json.loads(sys.argv[1])
home = {n: getattr(importlib.import_module("horocusp." + m), n) if m else horocusp.__version__
        for n, m in surface.items()}
first = [n for n in surface if getattr(horocusp, n) is not home[n]]
again = [n for n in surface if getattr(horocusp, n) is not home[n]]
listed = dir(horocusp)
try:
    horocusp.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from horocusp import *", star)
print(json.dumps({
    "first": first,
    "again": again,
    "unlisted": [n for n in surface if n not in listed],
    "unknown": unknown,
    "unbound": [n for n in surface if star.get(n, star) is not home[n]],
}))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import horocusp", []),
        ("import horocusp; horocusp.SearchConfig", ["bicuspid", "interval", "search", "words"]),
        ("import horocusp; horocusp.Params", ["bicuspid", "interval"]),
        ("import horocusp.cli", ["cli"]),
    ],
)
def test_a_name_loads_only_its_home_and_what_that_imports(statement, loaded):
    assert run_python("import json, sys\n%s\nprint(json.dumps(%s))" % (statement, LOADED)) == loaded


def test_every_public_name_is_its_home_modules_object():
    assert len(SURFACE) == 50
    assert run_python(SURFACE_CHECK, json.dumps(SURFACE)) == {
        "first": [],
        "again": [],
        "unlisted": [],
        "unknown": "module 'horocusp' has no attribute 'no_such_name'",
        "unbound": [],
    }
