"""End-to-end command-line scenarios and exit-code contract."""

import json
import math
import subprocess
import sys
import time

import pytest

from horocusp.cli import main, parse_complex_literal
from horocusp.search import SearchConfig, run_search

SLICE_CFG = {
    "area_bound": 6.0,
    "max_d": 2,
    "max_exp": 1,
    "max_depth": 12,
    "min_box_width": 0.01,
    "word_budget_per_box": 10000,
    "root_box": [[1.0, 1.2], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.7, -0.4], [0.0, 0.0]],
}

HEX_B = "1+1.7320508075688772i"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_parse_complex_literal():
    assert parse_complex_literal("4") == 4 + 0j
    assert parse_complex_literal("-0.5") == -0.5 + 0j
    assert parse_complex_literal("1+1.7320508075688772i") == complex(1.0, 1.7320508075688772)
    assert parse_complex_literal("1-2i") == 1 - 2j
    assert parse_complex_literal("4i") == 4j
    assert parse_complex_literal("-3.5i") == -3.5j
    for bad in ("", "i", "1+i", "4+", "abc", "1 + 2i", "2j"):
        try:
            parse_complex_literal(bad)
            assert False, bad
        except ValueError:
            pass


def test_search_slice_config_file(tmp_path) -> None:
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(SLICE_CFG))
    out = tmp_path / "r.json"
    code = run_cli(["search", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["version"] == "0.1.0"
    assert report["config"]["area_bound"] == 6.0
    assert report["config"]["root_box"] == SLICE_CFG["root_box"]
    assert [leaf["status"] for leaf in report["leaves"]] == ["eliminated_killer"]
    assert report["global_volume_bound"] == "-inf"


def test_search_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(SLICE_CFG))
    out = tmp_path / "r.json"
    code = run_cli(
        ["search", "--config", str(cfg_path), "--max-d", "1", "--out", str(out)]
    )
    report = json.loads(out.read_text())
    assert report["config"]["max_d"] == 1
    assert code in (0, 2)


def test_search_deterministic_across_runs(tmp_path) -> None:
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(SLICE_CFG))
    blobs = []
    for i in range(2):
        out = tmp_path / ("r%d.json" % i)
        code = run_cli(["search", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_search_workers_flag_and_key_print_a_note(tmp_path, capsys) -> None:
    """--workers and a worker_count key are ignored with a note on stderr."""
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(SLICE_CFG))
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps(dict(SLICE_CFG, worker_count=8)))
    plain = tmp_path / "plain.json"
    assert run_cli(["search", "--config", str(cfg_path), "--out", str(plain)]) == 0
    for i, argv in enumerate(
        (["--config", str(cfg_path), "--workers", "8"], ["--config", str(keyed)])
    ):
        out = tmp_path / ("r%d.json" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "horocusp.cli", "search", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FutureWarning: worker_count is deprecated and ignored" in proc.stderr
        assert out.read_bytes() == plain.read_bytes(), argv
    capsys.readouterr()
    assert run_cli(["search", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--max-boxes" in help_text and "--workers" not in help_text


def test_search_api_and_cli_give_identical_bytes(tmp_path):
    # the CLI coerces nothing itself: integral floats and int areas reach
    # SearchConfig as given and serialize as they do through the library
    cfg = SearchConfig(
        area_bound=6,
        max_d=2.0,
        max_exp=1,
        max_depth=12.0,
        min_box_width=0.01,
        word_budget_per_box=10000,
        root_box=SLICE_CFG["root_box"],
    )
    api = (run_search(cfg).to_canonical_json() + "\n").encode()
    cfg_path = tmp_path / "ints.json"
    cfg_path.write_text(json.dumps(dict(SLICE_CFG, area_bound=6, max_d=2.0, max_depth=12.0)))
    for argv in (
        ["--config", str(cfg_path)],
        ["--config", str(cfg_path), "--area-max", "6", "--max-d", "2"],
    ):
        out = tmp_path / "r.json"
        assert run_cli(["search", *argv, "--out", str(out)]) == 0, argv
        assert out.read_bytes() == api, argv


def test_search_report_config_reproduces_report(tmp_path):
    first = tmp_path / "first.json"
    argv = ["--area-max", "1.5", "--max-d", "2", "--max-exp", "1", "--max-boxes", "20",
            "--no-hint", "--word-budget", "500"]
    assert run_cli(["search", *argv, "--out", str(first)]) == 2
    config = json.loads(first.read_text())["config"]
    assert config["use_parent_word_hint"] is False and config["word_budget_per_box"] == 500
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    second = tmp_path / "second.json"
    assert run_cli(["search", "--config", str(cfg_path), "--out", str(second)]) == 2
    assert second.read_bytes() == first.read_bytes()


def test_search_partial_exit_code(tmp_path):
    cfg = dict(SLICE_CFG)
    cfg["root_box"] = [[0.5, 1.5], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.75, -0.25], [0.0, 0.0]]
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    code = run_cli(
        ["search", "--config", str(cfg_path), "--max-boxes", "2", "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["incomplete"] is True


def test_search_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert run_cli(["search", "--area-max", "0", "--out", out]) == 64
    assert run_cli(["search", "--area-max", "inf", "--out", out]) == 64
    for width in ("inf", "nan"):
        argv = ["search", "--area-max", "6", "--min-box-width", width, "--max-boxes", "2"]
        assert run_cli(argv + ["--out", out]) == 64, width
        assert not (tmp_path / "r.json").exists()
    for key, bad in (
        ("root_box", SLICE_CFG["root_box"][:5]),
        ("root_box", [[1.2, 1.0]] + SLICE_CFG["root_box"][1:]),
        ("root_box", "box"),
        ("root_box", [[0, True]] + SLICE_CFG["root_box"][1:]),
        ("root_box", [[0, "1"]] + SLICE_CFG["root_box"][1:]),
        # finite endpoints whose b_re width overflows
        ("root_box", [[1.0, 1.2], [0, 0], [-1.7e308, 1.7e308], [0.5, 1.0], [-0.7, -0.4], [0, 0]]),
        ("use_parent_word_hint", "no"),
        ("max_d", 1.9),
        ("max_exp", True),
        ("max_depth", 12.5),
        ("word_budget_per_box", True),
        ("max_boxes", True),
        ("max_d", math.inf),
        ("max_boxes", math.nan),
        ("min_box_width", True),
        ("area_bound", True),
        ("area_bound", 1e308),
    ):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(SLICE_CFG, **{key: bad})))
        assert run_cli(["search", "--config", str(cfg_path), "--out", out]) == 64, (key, bad)
        assert not (tmp_path / "r.json").exists()
    for typo in ("max_dept", "wrod_budget_per_box"):
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(dict(SLICE_CFG, **{typo: 2})))
        capsys.readouterr()
        assert run_cli(["search", "--config", str(cfg_path), "--out", out]) == 64, typo
        assert typo in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
    argv = ["search", "--area-max", "1e308", "--max-boxes", "2", "--out", out]
    assert run_cli(argv) == 64
    assert not (tmp_path / "r.json").exists()
    # a max_exp above words.MAX_EXP would build its tables for minutes
    argv = ["search", "--area-max", "6", "--max-d", "1", "--max-exp", "1000", "--max-boxes", "1",
            "--word-budget", "10", "--out", out]
    capsys.readouterr()
    assert run_cli(argv) == 64
    assert "max_exp must be at most 16" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    capsys.readouterr()
    assert run_cli(["search", "--area-max", "6"]) == 64
    assert run_cli(["search", "--out", out]) == 64
    assert run_cli(["search", "--area-max", "6", "--bogus", "--out", out]) == 64
    assert run_cli([]) == 64
    assert run_cli(["frobnicate"]) == 64


@pytest.mark.parametrize(
    "flags",
    [
        # a default root whose b_re width 2R overflows
        ["--area-max", "8e307"],
        ["--area-max", "8.9e307", "--max-d", "1", "--max-exp", "2"],
        # interval arithmetic that overflows inside the search
        ["--area-max", "1e200", "--max-d", "2", "--max-exp", "1"],
        ["--area-max", "1e120", "--max-d", "3", "--max-exp", "2"],
    ],
    ids=["root-width", "root-width-twin", "kernel-overflow-d2", "kernel-overflow-d3"],
)
def test_search_that_overflows_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "r.json"
    assert run_cli(["search"] + flags + ["--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: horocusp search "), err
    assert "must be finite" in err and "Traceback" not in err
    assert not out.exists()


def test_usage_errors_show_the_subcommand_usage(tmp_path, capsys):
    """A bad setting prints the usage line of its own subcommand."""
    out = str(tmp_path / "r.json")
    for argv in (
        ["search", "--area-max", "1e308", "--max-boxes", "2", "--out", out],
        ["cusp", "--a", "4", "--b", HEX_B, "--slope-length", "0"],
        ["horoball", "--a", "4", "--b", HEX_B, "--c", "2", "--cutoff", "2",
         "--svg", str(tmp_path / "x.svg")],
        ["verify", "--report", "x", "--samples", "0"],
    ):
        capsys.readouterr()
        assert run_cli(argv) == 64, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: horocusp %s " % argv[0]), err
        assert "horocusp %s: error:" % argv[0] in err, err
    assert not list(tmp_path.iterdir())


def test_cusp_reference_point(capsys):
    code = run_cli(["cusp", "--a", "4", "--b", HEX_B])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "0.1.0"
    assert payload["config"]["b"] == HEX_B
    assert abs(payload["volume"] - 2.0 * math.sqrt(3.0)) < 1e-9
    assert abs(payload["delta_bound"] - 5.196152422706632) < 1e-9
    assert payload["max_exceptional_count"] <= 8


def test_cusp_degenerate_exit_65(capsys):
    assert run_cli(["cusp", "--a", "1", "--b", "1"]) == 65
    capsys.readouterr()


def test_cusp_slopes_match_brute_force(capsys) -> None:
    code = run_cli(["cusp", "--a", "1", "--b", "1i", "--slope-length", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    got = [(row["p"], row["q"]) for row in payload["short_slopes"]]
    oracle = []
    for q in range(0, 8):
        for p in range(-8, 9):
            if math.gcd(p, q) != 1:
                continue
            if q == 0 and p != 1:
                continue
            length = abs(complex(p, q))
            if length <= 6.0:
                oracle.append((length, q, p))
    oracle.sort()
    assert got == [(p, q) for _, q, p in oracle]


def test_cusp_out_file_and_bad_flags(tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert run_cli(["cusp", "--a", "4", "--b", HEX_B, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["max_exceptional_count"] == 8
    assert run_cli(["cusp", "--a", "x", "--b", "1i"]) == 64
    assert run_cli(["cusp", "--a", "1", "--b", "1i", "--slope-length", "0"]) == 64
    assert run_cli(["cusp", "--a", "1", "--b", "1i", "--slope-length", "inf"]) == 64
    assert run_cli(["cusp", "--a", "1", "--b", "1i", "--slope-length", "nan"]) == 64
    for huge in ("1e300", "1e308"):
        assert run_cli(["cusp", "--a", "4", "--b", HEX_B, "--slope-length", huge]) == 64
    capsys.readouterr()


def test_horoball_artifacts(tmp_path) -> None:
    svg = tmp_path / "out.svg"
    csv_path = tmp_path / "balls.csv"
    argv = [
        "horoball",
        "--a",
        "4",
        "--b",
        HEX_B,
        "--c",
        "2",
        "--cutoff",
        "0.5",
        "--depth",
        "2",
        "--svg",
        str(svg),
        "--csv",
        str(csv_path),
    ]
    assert run_cli(argv) == 0
    svg_text = svg.read_text()
    assert svg_text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg_text.count("<circle") == 2
    assert '"cutoff":0.5' in svg_text.replace(" ", "")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "# horocusp 0.1.0"
    assert lines[3] == "center_re,center_im,diameter,word"
    assert lines[4].endswith(",z") and lines[5].endswith(",z^-1")
    first = svg.read_bytes()
    assert run_cli(argv) == 0
    assert svg.read_bytes() == first


def test_horoball_usage_and_degenerate(tmp_path, capsys):
    svg = str(tmp_path / "o.svg")
    base = ["horoball", "--a", "4", "--b", HEX_B, "--c", "2"]
    assert run_cli(base + ["--cutoff", "2", "--svg", svg]) == 64
    assert run_cli(base + ["--cutoff", "0", "--svg", svg]) == 64
    assert run_cli(base + ["--cutoff", "0.5"]) == 64
    assert run_cli(base + ["--cutoff", "0.5", "--scale", "inf", "--svg", svg]) == 64
    assert run_cli(base + ["--cutoff", "0.5", "--scale", "nan", "--svg", svg]) == 64
    assert not (tmp_path / "o.svg").exists()
    assert run_cli(["horoball", "--a", "4", "--b", "8", "--c", "2",
                    "--cutoff", "0.5", "--svg", svg]) == 65
    capsys.readouterr()


def test_verify_round_trip(tmp_path, capsys) -> None:
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(SLICE_CFG))
    out = tmp_path / "r.json"
    assert run_cli(["search", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert run_cli(["verify", "--report", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["leaves_audited"] == 1
    assert payload["samples_taken"] == 50

    report = json.loads(out.read_text())
    report["leaves"][0]["word"] = "z y z"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert run_cli(["verify", "--report", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False and payload["violations"]


def test_verify_missing_report_and_bad_samples(tmp_path, capsys):
    assert run_cli(["verify", "--report", str(tmp_path / "none.json")]) == 1
    assert run_cli(["verify", "--report", "x", "--samples", "0"]) == 64
    capsys.readouterr()


_KILLER_Q = {
    "leaves": [
        {
            "path": "0",
            "status": "eliminated_killer",
            "word": "q",
            "bounds": [[1.0, 1.1], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0], [-0.7, -0.4], [0.0, 0.0]],
        }
    ]
}


_WIDE_KILLER_BOUNDS = [[1.0, 1.1], [0, 0], [0, 0], [4, 4], [-1e308, 1e308], [0, 0]]


@pytest.mark.parametrize(
    "data, problem",
    [
        ([1, 2], "'leaves' list"),
        ({}, "'leaves' list"),
        (_KILLER_Q, "killer leaf '0': word 'q': bad factor 'q'"),
        ({"leaves": [_KILLER_Q["leaves"][0] | {"word": "z", "bounds": [[0.0, "1"]] * 6}]},
         "killer leaf '0': bounds"),
        ({"leaves": [_KILLER_Q["leaves"][0] | {"word": "z", "path": 7}]}, "path"),
        ({"leaves": ["undecided"]}, "'status' string"),
        # finite endpoints whose c_re width overflows, so every sample would be non-finite
        ({"leaves": [_KILLER_Q["leaves"][0] | {"word": "z x z", "bounds": _WIDE_KILLER_BOUNDS}]},
         "killer leaf '0': bounds"),
        # an integer endpoint no float can hold
        ({"leaves": [_KILLER_Q["leaves"][0] | {"word": "z", "bounds": [[0, 10**400]] * 6}]},
         "killer leaf '0': bounds"),
    ],
    ids=["list", "empty-object", "bad-word", "bad-bounds", "bad-path", "bad-leaf", "wide-bounds",
         "huge-int-bounds"],
)
def test_verify_json_that_is_not_a_report_is_a_usage_error(tmp_path, capsys, data, problem):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    assert run_cli(["verify", "--report", str(path)]) == 64
    err = capsys.readouterr().err
    assert "not a search report" in err and problem in err
    assert "Traceback" not in err


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "horocusp.cli", "cusp", "--a", "4", "--b", HEX_B],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_exceptional_count"] == 8


def test_horoball_center_overflow_is_a_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "o.csv"
    argv = ["horoball", "--a", "4", "--b", HEX_B, "--c", "17" + "0" * 307, "--cutoff", "0.05",
            "--depth", "1", "--csv", str(csv_path)]
    assert run_cli(argv) == 64
    err = capsys.readouterr().err
    assert "word 'z' has a center with non-finite lattice coordinates" in err
    assert "Traceback" not in err
    assert not csv_path.exists()


def test_horoball_depth_over_the_walk_cap_is_a_usage_error(tmp_path, capsys):
    svg = tmp_path / "o.svg"
    argv = ["horoball", "--a", "4", "--b", HEX_B, "--c", "2", "--cutoff", "0.05",
            "--depth", "40", "--svg", str(svg)]
    start = time.perf_counter()
    assert run_cli(argv) == 64
    assert time.perf_counter() - start < 1.0
    assert "words" in capsys.readouterr().err
    assert not svg.exists()
