"""Certified elimination over bicuspid Kleinian parameter space.

Interval branch-and-prune over the normalized (a, b, c) parameters of
groups generated by a rank-two parabolic pair and a horoball-swapping
element, plus cusp torus slope arithmetic and horoball diagram rendering.

Every public name below is importable from the package root, but the root
loads each submodule on first use (PEP 562): ``import horocusp`` alone
runs only this file, ``horocusp.SearchConfig`` loads the search and the
modules it imports, and the cusp and horoball modules load only when one
of their names, or the submodule itself, is first read.
"""

import importlib

__version__ = "0.1.0"

# each public name's home submodule; __all__, __dir__ and __getattr__ read it
_EXPORTS = {
    "interval": ("ComplexInterval", "IntervalMatrix", "RealInterval"),
    "bicuspid": (
        "Feasibility", "ParamBox", "Params", "box_in_param_space", "param_space", "space_radius",
    ),
    "words": (
        "GeneratorTriple", "KillerVerdict", "Word", "WordStream",
        "enumerate_words", "evaluate_word", "evaluate_word_float", "gens_from_params",
        "killer_test", "lower_left_abs", "parse_word", "volume_bound",
    ),
    "search": (
        "BoxStatus", "BoxVerdict", "SearchConfig", "SearchReport", "aggregate_volume_bound",
        "run_search", "subdivide", "test_box", "verify_report",
    ),
    "cuspgeom": (
        "CuspShape", "Slope", "audit_cusp", "cusp_area", "cusp_volume", "delta", "delta_bound",
        "max_exceptional_count", "short_slopes", "slope_length", "strict_delta_max",
    ),
    "horoball": (
        "GroupElement", "Horoball", "HoroballDiagram", "enumerate_elements", "export_csv",
        "horoball_diagram", "min_lower_left", "render_svg",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import a public name's home submodule, or a submodule itself, on first use."""
    home = _HOME.get(name)
    if home is None and name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + (home or name), __name__)
    value = getattr(module, name) if home else module
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
