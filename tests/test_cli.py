"""CLI behavior: exit codes, file outputs, printed reports."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderlab import graph_to_text, numtheory, save_graph
from expanderlab.cli import build_parser, main
from expanderlab.graph_core import from_edge_list
from expanderlab.planner import STRATEGIES

from helpers import k4, petersen, script_env, two_triangles

_CERT_KEYS = {
    "version", "k", "n", "provenance", "lambda1", "lambda2", "lambda_n",
    "spectral_gap", "ramanujan", "bipartite", "residual", "method",
    "bounds", "expansion",
}


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_writes_both_files(tmp_path, capsys):
    gpath = tmp_path / "x.txt"
    cpath = tmp_path / "x.json"
    code = main(["construct", "--k", "6", "--min-vertices", "100",
                 "--graph-out", str(gpath), "--cert-out", str(cpath)])
    assert code == 0
    out = capsys.readouterr().out
    assert "k=6 n=2184" in out
    assert "ramanujan=True" in out
    header = gpath.read_text().splitlines()[0]
    assert header == "2184 6552"
    cert = json.loads(cpath.read_text())
    assert set(cert) == _CERT_KEYS
    assert cert["k"] == 6 and cert["bipartite"] is True


def test_construct_runs_are_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        gpath = tmp_path / f"{tag}.txt"
        cpath = tmp_path / f"{tag}.json"
        assert main(["construct", "--k", "3", "--min-vertices", "5",
                     "--graph-out", str(gpath),
                     "--cert-out", str(cpath)]) == 0
        paths.append((gpath.read_bytes(), cpath.read_bytes()))
    assert paths[0] == paths[1]


def test_construct_rejects_bad_k(tmp_path, capsys):
    code = main(["construct", "--k", "2", "--min-vertices", "10",
                 "--graph-out", str(tmp_path / "g"),
                 "--cert-out", str(tmp_path / "c")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_construct_rejects_k_past_the_modulus_cap(tmp_path, capsys):
    code = main(["construct", "--k", "2558", "--min-vertices", "1",
                 "--graph-out", str(tmp_path / "g"),
                 "--cert-out", str(tmp_path / "c")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: construct takes k from 3 to 2557: past 2557 the "
                   "anchor p has no modulus q <= 101 exceeding 2*sqrt(p)\n")
    assert not (tmp_path / "g").exists() and not (tmp_path / "c").exists()


def test_construct_rejects_unreachable_size(tmp_path, capsys):
    code = main(["construct", "--k", "4", "--min-vertices", "100",
                 "--graph-out", str(tmp_path / "g"),
                 "--cert-out", str(tmp_path / "c")])
    assert code == 1
    assert not (tmp_path / "g").exists()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "k4.txt"
    cpath = tmp_path / "k4.json"
    save_graph(k4(), gpath)
    assert main(["certify", "--graph", str(gpath),
                 "--cert-out", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "k=3 n=4" in out
    cert = json.loads(cpath.read_text())
    assert cert["spectral_gap"] == pytest.approx(4.0)
    assert cert["provenance"] == [{"step": "load", "path": str(gpath)}]


def test_certify_rejects_malformed_file(tmp_path, capsys):
    gpath = tmp_path / "broken.txt"
    gpath.write_text("3 1\n0 5\n")
    assert main(["certify", "--graph", str(gpath),
                 "--cert-out", str(tmp_path / "c.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_certify_rejects_hostile_header(tmp_path, capsys):
    # Ten million vertices and no edges: rejected from the header alone.
    gpath = tmp_path / "hostile.txt"
    gpath.write_text("10000000 0")
    assert main(["certify", "--graph", str(gpath),
                 "--cert-out", str(tmp_path / "c.json")]) == 1
    assert "connected graph" in capsys.readouterr().err


@pytest.mark.parametrize("x", [
    two_triangles(),                                        # disconnected
    from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),    # irregular
], ids=["disconnected", "irregular"])
def test_certify_refuses_past_the_header(tmp_path, capsys, x):
    # The header passes; the eigensolver's gate refuses the graph.
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.json"
    save_graph(x, gpath)
    assert main(["certify", "--graph", str(gpath),
                 "--cert-out", str(cpath)]) == 1
    assert "connected regular" in capsys.readouterr().err
    assert not cpath.exists()


def test_certify_rejects_vertex_id_beyond_int64(tmp_path, capsys):
    gpath = tmp_path / "hostile.txt"
    gpath.write_text("3 1\n0 99999999999999999999\n")
    assert main(["certify", "--graph", str(gpath),
                 "--cert-out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: edge (0, 99999999999999999999) out of range "
                   "for n=3\n")


def test_certify_rejects_missing_file(tmp_path, capsys):
    code = main(["certify", "--graph", str(tmp_path / "nope.txt"),
                 "--cert-out", str(tmp_path / "c.json")])
    assert code == 1


@pytest.mark.parametrize("command", ["certify", "expansion"])
@pytest.mark.parametrize("data, offset", [(b"4 2\n0 1\n2 3\xc3\xa9\n", 11),
                                          (b"\xff\xfe", 0)],
                         ids=["utf8-accent", "utf16-bom"])
def test_non_ascii_graph_file_exits_1(tmp_path, capsys, command, data,
                                      offset):
    gpath = tmp_path / "g.txt"
    gpath.write_bytes(data)
    argv = [command, "--graph", str(gpath)]
    if command == "certify":
        argv += ["--cert-out", str(tmp_path / "c.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {gpath}: byte {offset} is not ASCII\n"
    assert not (tmp_path / "c.json").exists()


# ---------------------------------------------------------------------------
# delta-table
# ---------------------------------------------------------------------------


def test_delta_table_single_range(capsys):
    assert main(["delta-table", "--ranges", "10:100"]) == 0
    out = capsys.readouterr().out
    assert "1.52" in out
    assert "10" in out.splitlines()[1]


def test_delta_table_multiple_ranges(capsys):
    assert main(["delta-table", "--ranges", "10:100,100:1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header + two rows
    assert "1.32" in lines[2]
    assert "114" in lines[2]


def test_delta_table_rejects_bad_ranges(capsys):
    assert main(["delta-table", "--ranges", "10-100"]) == 1
    assert main(["delta-table", "--ranges", "ten:100"]) == 1
    assert main(["delta-table", "--ranges", ","]) == 1
    capsys.readouterr()


def test_delta_table_rejects_range_above_cap(capsys):
    assert main(["delta-table", "--ranges", "10:10000000000000"]) == 1
    assert "exceeds the largest range end" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_all_models(capsys):
    assert main(["bounds", "--k", "7"]) == 0
    out = capsys.readouterr().out
    assert "chain" in out and "trudgian" in out
    assert "bhp" in out and "rh" in out
    assert "2*sqrt(5) + 1" in out
    assert "conditional" in out
    assert "advisory" in out


def test_bounds_single_model(capsys):
    assert main(["bounds", "--k", "7", "--model", "chain"]) == 0
    out = capsys.readouterr().out
    assert "chain" in out and "trudgian" not in out


def test_bounds_rh_constant(capsys):
    assert main(["bounds", "--k", "1000", "--model", "rh",
                 "--rh-constant", "2.0"]) == 0
    out = capsys.readouterr().out
    # k - 2*(1 + 2*ln(999))*sqrt(999)
    assert "gap >=" in out and "valid" in out


def test_bounds_rejects_infinite_rh_constant(capsys):
    # The constant is checked before any gap model is printed, even one
    # that does not use it; the chain alone never reads it.
    for model in ("rh", "trudgian"):
        assert main(["bounds", "--k", "7", "--model", model,
                     "--rh-constant", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rh constant must be finite")
    assert main(["bounds", "--k", "7", "--model", "chain",
                 "--rh-constant", "inf"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("chain ") and captured.err == ""


def test_bounds_rejects_overflowing_rh_constant(capsys):
    # 6**(1/2 + r) overflows a float for C = 1e308 (r is about 396).
    assert main(["bounds", "--k", "7", "--rh-constant", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: conditional gap bound overflows")
    assert "Traceback" not in captured.err
    # Every line before the overflowing model is still printed.
    assert captured.out == (
        "chain      lambda2 <= 5.472135955 (= 2*sqrt(5) + 1) <= 9.28075994561\n"
        "trudgian   gap >= 2.06173380632 [not-valid-here]\n"
        "bhp        gap >= -3.04217544844 [not-valid-here, advisory]\n")


@pytest.mark.parametrize("model", ["trudgian", "bhp", "rh"])
def test_bounds_rejects_k_past_the_float_range(capsys, model):
    assert main(["bounds", "--k", str(2**1024), "--model", model]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bounds_rejects_small_k(capsys):
    assert main(["bounds", "--k", "2"]) == 1
    capsys.readouterr()


_CHAIN_RANGE = ("error: chain bounds take k from 3 to prev_prime(2**63) = "
                "9223372036854775783\n")
_CONSTRUCT_RANGE = ("error: construct takes k from 3 to 2557: past 2557 the "
                    "anchor p has no modulus q <= 101 exceeding 2*sqrt(p)\n")


@pytest.mark.parametrize("k", [2**63 - 24, 2**64, 2**1024],
                         ids=["2**63-24", "2**64", "2**1024"])
def test_commands_name_their_range_of_k(k, tmp_path, capsys):
    # Neither command reaches is_prime's limit: each names its own range.
    assert main(["bounds", "--k", str(k)]) == 1
    assert capsys.readouterr() == ("", _CHAIN_RANGE)
    assert main(["construct", "--k", str(k), "--min-vertices", "1",
                 "--graph-out", str(tmp_path / "g"),
                 "--cert-out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr() == ("", _CONSTRUCT_RANGE)
    assert not (tmp_path / "g").exists()


def test_bounds_prints_the_chain_at_its_largest_k(capsys):
    k = 9223372036854775783
    assert main(["bounds", "--k", str(k)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chain      lambda2 <= ")
    assert f"(= 2*sqrt({numtheory.prev_prime(k)}) + " in out


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_expansion_petersen(tmp_path, capsys):
    gpath = tmp_path / "pet.txt"
    save_graph(petersen(), gpath)
    assert main(["expansion", "--graph", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "h=1" in out
    assert "witness=[0, 1, 2, 3, 4]" in out


def test_expansion_rejects_large_graph(tmp_path, capsys, x513):
    gpath = tmp_path / "big.txt"
    save_graph(x513, gpath)
    assert main(["expansion", "--graph", str(gpath)]) == 1
    assert "exceeds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_required_flag(capsys):
    assert main(["construct", "--k", "6"]) == 1
    assert main(["bounds"]) == 1
    capsys.readouterr()


def test_bad_strategy_choice(tmp_path, capsys):
    code = main(["construct", "--k", "6", "--min-vertices", "10",
                 "--strategy", "tensor",
                 "--graph-out", str(tmp_path / "g"),
                 "--cert-out", str(tmp_path / "c")])
    assert code == 1
    capsys.readouterr()


def test_strategy_choices_are_the_planner_strategies():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    strategy = next(a for a in sub.choices["construct"]._actions
                    if a.dest == "strategy")
    assert tuple(strategy.choices) == tuple(STRATEGIES)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "expanderlab", "delta-table",
         "--ranges", "10:40"],
        capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 0
    assert "1.52" in proc.stdout


def test_readme_command_line_matches_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", readme,
                      re.M | re.S).group(1)
    documented = set(re.findall(r"^expanderlab ([\w-]+)", block, re.M))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


# ---------------------------------------------------------------------------
# fuzzed command lines, run in-process
# ---------------------------------------------------------------------------


def _run_main(argv: list[str]) -> None:
    """main(argv) returns 0, 1 or 2 without raising, and a non-zero code
    comes with one of the two documented stderr prefixes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(("error:", "numerical error:")), (
            argv, err.getvalue())


# A header's n is at most 16, where exhaustive expansion takes milliseconds,
# or past 24, where expansion is refused; 17 to 24 would take seconds.
_VERTEX_COUNTS = st.one_of(st.integers(0, 16), st.integers(25, 2**70))
_BODY_NOISE = st.sampled_from(["x", "-", "+", " ", "\n", "\r", "\t", "0",
                               "9", "\u00e9", "\x00", "\u2003", "\uff11"])


@st.composite
def _graph_texts(draw) -> str:
    """Graph texts under 1 KB: a header 'n m', perhaps lying about m, then
    edge lines that may hold loops, ids of n or more, or repeats, or the
    cycle C_n in any order, with lines dropped or repeated and noise
    spliced into the body."""
    n = draw(_VERTEX_COUNTS)
    if 3 <= n <= 16 and draw(st.booleans()):
        cycle = [tuple(sorted((v, (v + 1) % n))) for v in range(n)]
        edges = draw(st.permutations(cycle))
    else:
        ids = st.integers(0, max(min(n, 20), 1))
        edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    lines = [f"{u} {v}\n" for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                del lines[i]
            else:
                lines.insert(i, lines[i])
    body = "".join(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(_BODY_NOISE) + body[at:]
    m = draw(st.one_of(st.just(len(edges)), st.integers(0, 50),
                       st.integers(51, 2**70)))
    return f"{n} {m}\n{body}"


@given(_graph_texts(), st.sampled_from(["certify", "expansion"]))
def test_fuzzed_graph_files_fail_cleanly(tmp_path_factory, text, command):
    assert len(text.encode("utf-8")) < 1024
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    argv = [command, "--graph", str(path)]
    if command == "certify":
        argv += ["--cert-out", str(folder / "c.json")]
    _run_main(argv)


@given(st.one_of(st.integers(-10, 10**4), st.integers(-(2**1100), 2**1100),
                 st.sampled_from([2**63 - 25, 2**63 - 24, 2**63, 2**64,
                                  2**1024, 2**1100])),
       st.sampled_from([None, "chain", "trudgian", "bhp", "rh"]))
def test_fuzzed_bounds_fail_cleanly(k, model):
    _run_main(["bounds", f"--k={k}"] + ([] if model is None
                                        else ["--model", model]))
