"""Certified elimination over bicuspid Kleinian parameter space.

Interval branch-and-prune over the normalized (a, b, c) parameters of
groups generated by a rank-two parabolic pair and a horoball-swapping
element, plus cusp torus slope arithmetic and horoball diagram rendering.
"""

__version__ = "0.1.0"

from .interval import ComplexInterval, IntervalMatrix, RealInterval
from .bicuspid import (
    Feasibility,
    GeneratorTriple,
    ParamBox,
    Params,
    box_in_param_space,
    gens_from_params,
    param_space,
    space_radius,
)
from .words import (
    KillerVerdict,
    Word,
    enumerate_words,
    evaluate_word,
    evaluate_word_float,
    killer_test,
    lower_left_abs,
    parse_word,
    volume_bound,
)
from .search import (
    BoxStatus,
    BoxVerdict,
    SearchConfig,
    SearchReport,
    aggregate_volume_bound,
    run_search,
    subdivide,
    test_box,
    verify_report,
)
from .cuspgeom import (
    CuspShape,
    Slope,
    audit_cusp,
    cusp_area,
    cusp_volume,
    delta,
    delta_bound,
    max_exceptional_count,
    short_slopes,
    slope_length,
    strict_delta_max,
)
from .horoball import (
    GroupElement,
    Horoball,
    HoroballDiagram,
    enumerate_elements,
    export_csv,
    horoball_diagram,
    min_lower_left,
    render_svg,
)

__all__ = [
    "BoxStatus",
    "BoxVerdict",
    "ComplexInterval",
    "CuspShape",
    "Feasibility",
    "GeneratorTriple",
    "GroupElement",
    "Horoball",
    "HoroballDiagram",
    "IntervalMatrix",
    "KillerVerdict",
    "ParamBox",
    "Params",
    "RealInterval",
    "SearchConfig",
    "SearchReport",
    "Slope",
    "Word",
    "__version__",
    "aggregate_volume_bound",
    "audit_cusp",
    "box_in_param_space",
    "cusp_area",
    "cusp_volume",
    "delta",
    "delta_bound",
    "enumerate_elements",
    "enumerate_words",
    "evaluate_word",
    "evaluate_word_float",
    "export_csv",
    "gens_from_params",
    "horoball_diagram",
    "killer_test",
    "lower_left_abs",
    "max_exceptional_count",
    "min_lower_left",
    "param_space",
    "parse_word",
    "render_svg",
    "run_search",
    "short_slopes",
    "slope_length",
    "space_radius",
    "strict_delta_max",
    "subdivide",
    "test_box",
    "verify_report",
    "volume_bound",
]
