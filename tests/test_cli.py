"""CLI behavior: exit codes, file outputs, printed reports."""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from expanderlab import graph_to_text, save_graph
from expanderlab.cli import build_parser, main

from helpers import k4, petersen, script_env

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
    assert err.startswith("error: k=2558 anchors at p=2557, and no modulus "
                          "q <= 101")
    assert "the largest k whose anchor has one is 2557" in err
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


def test_bounds_rejects_small_k(capsys):
    assert main(["bounds", "--k", "2"]) == 1
    capsys.readouterr()


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
