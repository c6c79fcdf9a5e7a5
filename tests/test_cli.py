"""Command-line surface: outputs, exit codes, pipeline round trips."""

import dataclasses
import functools
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smcsp import caps, cli, io, model, rounding, simplex, unique_games
from smcsp.dictators import dict_view, pseudo_random_check
from smcsp.randgen import random_game, random_instance, vc_edge
from smcsp.unique_games import (UgInstance, completeness_solution, compose,
                                decode_labeling)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def hvc3():
    return str(FIXTURES / "hvc3.json")


def uniform_solution():
    return str(FIXTURES / "hvc3_uniform.solution.json")


# ---------------------------------------------------------------------------
# lp / round / oracle
# ---------------------------------------------------------------------------

def test_lp_prints_objective_and_solution(capsys):
    code, out, _ = run(capsys, "lp", hvc3())
    assert code == 0
    assert out.splitlines()[0] == "1/3"


def test_lp_json_mode(capsys):
    code, out, _ = run(capsys, "lp", hvc3(), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == "1/3"
    assert set(doc["x"]) == {"v0", "v1", "v2"}


def test_lp_lambdas_certificate(capsys):
    code, out, _ = run(capsys, "lp", str(FIXTURES / "vc_edge.json"),
                       "--json", "--lambdas")
    doc = json.loads(out)
    assert code == 0
    atoms = doc["lambdas"][0]["atoms"]
    assert sum(F(p) for p in atoms.values()) == 1


def test_round_solver_solution(capsys):
    code, out, _ = run(capsys, "round", hvc3(), "--eps", "1/6")
    assert code == 0
    assert out.splitlines()[0] == "1/3"


def test_round_explicit_uniform_solution(capsys):
    code, out, _ = run(capsys, "round", hvc3(), "--eps", "1/6",
                       "--solution", uniform_solution())
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_round_report(capsys):
    code, out, _ = run(capsys, "round", hvc3(), "--eps", "1/6",
                       "--solution", uniform_solution(), "--report")
    assert code == 0
    assert "round_over_opt = 3" in out


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", hvc3())
    assert code == 0
    assert out.splitlines()[0] == "1/3"


# ---------------------------------------------------------------------------
# dict / reduce / decode pipeline
# ---------------------------------------------------------------------------

def _write_game(path):
    ug = UgInstance(2, ("L0", "L1"), ("R0",),
                    ((0, 0, F(1, 2), (0, 1)), (1, 0, F(1, 2), (1, 0))))
    path.write_text(io.serialize_ug(ug))
    return ug


def _reduce_pipeline(tmp_path, capsys):
    """dict (r=2) -> reduce with the game of ``_write_game``, and the
    selection of its planted labeling; returns the four file paths."""
    vc = tmp_path / "vc.json"
    vc.write_text(io.serialize_instance(vc_edge()))
    dict_file = tmp_path / "dict.json"
    code, out, _ = run(capsys, "dict", vc, "--eps", "1/2", "--delta",
                       "1/10", "--r", "2", "-o", dict_file)
    assert code == 0
    assert dict_file.exists()

    game_file = tmp_path / "game.json"
    ug = _write_game(game_file)
    composed_file = tmp_path / "f.json"
    code, _, _ = run(capsys, "reduce", "--ug", game_file, "--dict",
                     dict_file, "-o", composed_file)
    assert code == 0

    D = dict_view(io.parse_instance(dict_file.read_text()))
    Finst = io.parse_instance(composed_file.read_text())
    planted = {"L0": 0, "L1": 1, "R0": 0}
    selection, _ = completeness_solution(ug, planted, D, Finst)
    sel_file = tmp_path / "sel.json"
    sel_file.write_text(io.serialize_assignment(Finst, selection))
    return dict_file, game_file, composed_file, sel_file


def test_dict_reduce_decode_round_trip(tmp_path, capsys):
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    code, out, _ = run(capsys, "decode", "--f", composed_file,
                       "--solution", sel_file, "--ug", game_file,
                       "--dict", dict_file)
    assert code == 0
    assert "L0 = 0" in out and "L1 = 1" in out and "R0 = 0" in out
    assert "satisfied weight: 1" in out

    # the cube structure can also be recovered from the composed file
    code2, out2, _ = run(capsys, "decode", "--f", composed_file,
                         "--solution", sel_file, "--ug", game_file)
    assert code2 == 0
    assert out2 == out

    # x = (1, 1) gives one cube at tilt 1, a point mass; a negative
    # degree bound is still bad input
    x_file = tmp_path / "ones.json"
    x_file.write_text(json.dumps({"x": {"u": "1/1", "v": "1/1"}}))
    assert run(capsys, "dict", FIXTURES / "vc_edge.json", "--eps", "1/2",
               "--delta", "1/10", "--r", "2", "--solution", x_file, "-o",
               dict_file)[0] == 0
    game_file = FIXTURES / "ug_small.json"
    assert run(capsys, "reduce", "--ug", game_file, "--dict", dict_file,
               "-o", composed_file)[0] == 0
    ids = [v["id"] for v in json.loads(composed_file.read_text())["vertices"]]
    sel_file.write_text(json.dumps({"labels": {vid: 1 for vid in ids}}))
    for extra in ([], ["--dict", dict_file]):
        code, out, err = run(capsys, "decode", "--f", composed_file,
                             "--solution", sel_file, "--ug", game_file,
                             "--d", "-1", *extra)
        assert (code, out) == (3, "")
        assert err == "error: degree bound must be nonnegative\n"


def test_decode_tells_apart_left_ids_that_share_a_prefix(tmp_path, capsys):
    # every id of the copy of "a/x" also starts with "a/"
    dict_file, game_file, composed_file = (
        tmp_path / "dict.json", tmp_path / "game.json", tmp_path / "f.json")
    assert run(capsys, "dict", FIXTURES / "vc_edge.json", "--eps", "1/2",
               "--delta", "1/10", "--r", "2", "-o", dict_file)[0] == 0
    ug = UgInstance(2, ("a", "a/x"), ("v",),
                    ((0, 0, F(1, 2), (0, 1)), (1, 0, F(1, 2), (1, 0))))
    game_file.write_text(io.serialize_ug(ug))
    assert run(capsys, "reduce", "--ug", game_file, "--dict", dict_file,
               "-o", composed_file)[0] == 0
    D = dict_view(io.parse_instance(dict_file.read_text()))
    Finst = io.parse_instance(composed_file.read_text())
    selection, _ = completeness_solution(ug, {"a": 0, "a/x": 1, "v": 0}, D,
                                         Finst)
    sel_file = tmp_path / "sel.json"
    sel_file.write_text(io.serialize_assignment(Finst, selection))
    for extra in ([], ["--dict", dict_file]):
        assert run(capsys, "decode", "--f", composed_file, "--solution",
                   sel_file, "--ug", game_file, *extra) == (
            0, "a = 0\na/x = 1\nv = 0\nsatisfied weight: 1\n", "")


def test_decode_without_dict_reads_whole_blocks(tmp_path, capsys):
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    # the first vertex of L0's block moves under L1
    for path in (composed_file, sel_file):
        path.write_text(path.read_text().replace('"L0/b0:y00"', '"L1/b9"'))
    assert run(capsys, "decode", "--f", composed_file, "--solution",
               sel_file, "--ug", game_file) == (
        3, "", "error: cannot recover cube structure: the composed "
               "vertices are not 2 equal blocks, block 0 all under 'L0/' "
               "(pass --dict)\n")


def test_decode_tau_is_rational(tmp_path, capsys):
    dict_file, game_file, composed_file, _ = _reduce_pipeline(tmp_path,
                                                              capsys)
    game = io.parse_ug(game_file.read_text())
    D = dict_view(io.parse_instance(dict_file.read_text()))
    Finst = io.parse_instance(composed_file.read_text())
    # planting R0 = 1 puts the only influence (about 0.09) on coordinate 1
    selection, _ = completeness_solution(game, {"L0": 1, "L1": 0, "R0": 1},
                                         D, Finst)
    sel_file = tmp_path / "sel1.json"
    sel_file.write_text(io.serialize_assignment(Finst, selection))
    base = ["decode", "--f", composed_file, "--solution", sel_file,
            "--ug", game_file, "--dict", dict_file, "--json"]
    for extra, tau, r0 in (([], F(0), 1), (["--tau", "1/2"], F(1, 2), 0)):
        code, out, _ = run(capsys, *base, *extra)
        assert code == 0
        labels, table = decode_labeling(game, D, selection, tau=tau)
        assert labels["R0"] == r0
        assert json.loads(out) == io.to_json({"labels": labels,
                                              "satisfied_weight": F(1),
                                              "influences": table})
    for tau in ("0.5", "nan"):
        code, out, err = run(capsys, *base, "--tau", tau)
        assert (code, out) == (3, "")
        assert f"--tau: malformed rational '{tau}'" in err


def _decode_error(tmp_path, capsys, game=None, r_dict=None,
                  with_dict=True, swap_weights=False):
    """Exit 3 and the message of a decode of the pipeline's composed file
    with another game and/or a ``--dict`` built with another r, or of that
    file with the weights of its first and fourth vertex swapped."""
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    if swap_weights:
        doc = json.loads(composed_file.read_text())
        first, fourth = doc["vertices"][0], doc["vertices"][3]
        first["weight"], fourth["weight"] = fourth["weight"], first["weight"]
        composed_file.write_text(json.dumps(doc))
    if game is not None:
        game_file = tmp_path / "other.json"
        game_file.write_text(io.serialize_ug(game))
    if r_dict is not None:
        dict_file = tmp_path / "other_dict.json"
        assert run(capsys, "dict", FIXTURES / "vc_edge.json", "--eps",
                   "1/2", "--delta", "1/10", "--r", r_dict, "-o",
                   dict_file)[0] == 0
    argv = ["decode", "--f", composed_file, "--solution", sel_file,
            "--ug", game_file] + (["--dict", dict_file] if with_dict else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("with_dict", [True, False])
def test_decode_rejects_a_game_with_other_left_ids(tmp_path, capsys,
                                                   with_dict):
    game = UgInstance(2, ("zz", "L1"), ("R0",),
                      ((0, 0, F(1, 2), (0, 1)), (1, 0, F(1, 2), (1, 0))))
    err = _decode_error(tmp_path, capsys, game, with_dict=with_dict)
    if with_dict:
        assert "vertex #0 is 'L0/b0:y00', expected 'zz/b0:y00'" in err
    else:
        assert "no composed vertex belongs to left vertex 'zz'" in err


@pytest.mark.parametrize("with_dict, message", [
    (True, "vertex #0 weighs 1/400, expected 81/400"),
    # without --dict the cubes come from L0's swapped copy, so L1's differs
    (False, "vertex #8 weighs 81/400, expected 1/400")])
def test_decode_rejects_swapped_weights(tmp_path, capsys, with_dict,
                                        message):
    err = _decode_error(tmp_path, capsys, with_dict=with_dict,
                        swap_weights=True)
    assert ("error: the composed instance is not the game composed with "
            "these hypercubes: " + message) in err


def test_decode_rejects_a_dict_with_other_r(tmp_path, capsys):
    err = _decode_error(tmp_path, capsys, r_dict=3)
    assert "vertex #0 is 'L0/b0:y00', expected 'L0/b0:y000'" in err


@pytest.mark.parametrize("with_dict", [True, False])
def test_decode_rejects_a_game_with_other_r(tmp_path, capsys, with_dict):
    game = UgInstance(3, ("L0", "L1"), ("R0",),
                      ((0, 0, F(1, 2), (2, 0, 1)),
                       (1, 0, F(1, 2), (1, 2, 0))))
    err = _decode_error(tmp_path, capsys, game, with_dict=with_dict)
    assert "label ranges differ: game has r=3, hypercubes have r=2" in err


def test_each_command_validates_its_game_once(tmp_path, capsys,
                                              monkeypatch):
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    calls = []
    check = unique_games.validate_ug
    # every name the validator is looked up by
    for module in (io, unique_games):
        if getattr(module, "validate_ug", None) is check:
            monkeypatch.setattr(module, "validate_ug",
                                lambda ug: calls.append(ug) or check(ug))
    for argv in (["reduce", "--ug", game_file, "--dict", dict_file, "-o",
                  tmp_path / "again.json"],
                 ["decode", "--f", composed_file, "--solution", sel_file,
                  "--ug", game_file, "--dict", dict_file]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv[0]


def test_each_command_groups_its_game_once(tmp_path, capsys, monkeypatch):
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    calls = []
    group = UgInstance.by_vertex.func
    counted = functools.cached_property(
        lambda ug: calls.append(ug) or group(ug))
    counted.__set_name__(UgInstance, "by_vertex")
    monkeypatch.setattr(UgInstance, "by_vertex", counted)
    decode = ["decode", "--f", composed_file, "--solution", sel_file,
              "--ug", game_file]
    for argv in (["reduce", "--ug", game_file, "--dict", dict_file, "-o",
                  tmp_path / "again.json"],
                 decode, decode + ["--dict", dict_file]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv


# a script that decodes with every edge list held as rows, as a large
# composed file is, rather than as the pairs a small one stays
_DECODE_AS_ROWS = ("import sys\n"
                   "from smcsp import cli, model\n"
                   "model._ROWS_FROM = 0\n"
                   "sys.exit(cli.main(sys.argv[1:]))\n")


@pytest.mark.parametrize("optimized", [False, True])
@pytest.mark.parametrize("as_rows", [False, True])
@pytest.mark.parametrize("corrupt, message", [
    (lambda e: e["vertices"].__setitem__(1, "nope"),
     "error: edge #3: unknown vertex id 'nope'\n"),
    (lambda e: e["vertices"].pop(),
     "error: invalid instance: edge 3: 1 vertices but predicate cover2 "
     "has arity 2\n")])
def test_decode_checks_the_composed_edges(tmp_path, capsys, monkeypatch,
                                          corrupt, message, as_rows,
                                          optimized):
    """decode reads no composed edge, yet still refuses a file whose
    edges are broken, held as pairs or as rows, also under ``-O``."""
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    doc = json.loads(composed_file.read_text())
    corrupt(doc["edges"][3])
    composed_file.write_text(json.dumps(doc))
    argv = ["decode", "--f", composed_file, "--solution", sel_file,
            "--ug", game_file, "--dict", dict_file]
    if optimized:
        command = ["-c", _DECODE_AS_ROWS] if as_rows else ["-m", "smcsp.cli"]
        done = subprocess.run(
            [sys.executable, "-O", *command, *map(str, argv)],
            capture_output=True, text=True, env=_src_env(), timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", message)
    else:
        if as_rows:
            monkeypatch.setattr(model, "_ROWS_FROM", 0)
        assert run(capsys, *argv) == (3, "", message)


@pytest.mark.parametrize("optimized", [False, True])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_decode_of_a_relaid_composed_file_prints_the_same(
        tmp_path, capsys, monkeypatch, json_flag, optimized):
    """Of the file ``reduce`` wrote, decode parses only the dict file; a
    composed file in another layout takes the parse path and prints the
    same, also under ``-O``."""
    dict_file, game_file, composed_file, sel_file = _reduce_pipeline(
        tmp_path, capsys)
    relaid = tmp_path / "relaid.json"
    relaid.write_text(json.dumps(json.loads(composed_file.read_text())))
    texts = []
    parse = io.parse_instance
    monkeypatch.setattr(io, "parse_instance",
                        lambda text: texts.append(text) or parse(text))
    results, parsed = [], []
    for path in (composed_file, relaid):
        texts.clear()
        argv = ["decode", "--f", path, "--solution", sel_file, "--ug",
                game_file, "--dict", dict_file, *json_flag]
        if optimized:
            done = subprocess.run(
                [sys.executable, "-O", "-m", "smcsp.cli", *map(str, argv)],
                capture_output=True, text=True, env=_src_env(), timeout=120)
            results.append((done.returncode, done.stdout, done.stderr))
        else:
            results.append(run(capsys, *argv))
        parsed.append(list(texts))
    assert results[0][0] == 0
    assert results[1] == results[0]
    if not optimized:
        # the relaid file is parsed after the rebuild fails to match it
        cubes = dict_file.read_text()
        assert parsed == [[cubes], [cubes, relaid.read_text(), cubes]]


@st.composite
def reduce_chains(draw):
    """(base instance, r, game, selection seed) for a dict -> reduce chain
    small enough to run through the command line many times."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_instance(rng, 2, draw(st.integers(2, 4)),
                           draw(st.integers(1, 2)), 3)
    r = draw(st.integers(1, 4))
    game, _ = random_game(rng, r, draw(st.integers(1, 3)),
                          draw(st.integers(1, 2)), draw(st.integers(0, 2)))
    return base, r, game, draw(st.integers(0, 2**32 - 1))


# each example drains capsys through ``run``, and undoes its own patch,
# so sharing the fixtures is safe
@settings(derandomize=True, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reduce_chains())
def test_decode_paths_agree(tmp_path_factory, capsys, monkeypatch, chain):
    """decode --json prints what the parse path prints: on the file
    ``reduce`` wrote, which is rebuilt, on that file laid out otherwise,
    and on one of the same length with two vertices swapped."""
    base, r, game, seed = chain
    work = tmp_path_factory.mktemp("chain")
    files = {k: work / f"{k}.json" for k in
             ("base", "dict", "game", "composed", "relaid", "swapped", "sel")}
    files["base"].write_text(io.serialize_instance(base))
    files["game"].write_text(io.serialize_ug(game))
    assert run(capsys, "dict", files["base"], "--eps", "1/2", "--delta",
               "1/10", "--r", r, "-o", files["dict"])[0] == 0
    assert run(capsys, "reduce", "--ug", files["game"], "--dict",
               files["dict"], "-o", files["composed"])[0] == 0
    text = files["composed"].read_text()
    doc = json.loads(text)
    files["relaid"].write_text(json.dumps(doc))
    bits = random.Random(seed)
    files["sel"].write_text(json.dumps(
        {"labels": {v["id"]: bits.randrange(2) for v in doc["vertices"]}}))
    vertices = doc["vertices"]
    i, j = bits.sample(range(len(vertices)), 2)
    vertices[i], vertices[j] = vertices[j], vertices[i]
    files["swapped"].write_text(json.dumps(doc, indent=2) + "\n")
    assert len(files["swapped"].read_text()) == len(text)

    def decode(name):
        return run(capsys, "decode", "--f", files[name], "--solution",
                   files["sel"], "--ug", files["game"], "--dict",
                   files["dict"], "--json")

    names = ("composed", "relaid", "swapped")
    printed = [decode(name) for name in names]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_composed_as_written", lambda *args: None)
        parsed = [decode(name) for name in names]
    assert printed == parsed
    assert printed[0][0] == 0
    assert printed[1] == printed[0]
    assert printed[2][0] == 3


def test_dict_output_is_deterministic(tmp_path, capsys):
    vc = tmp_path / "vc.json"
    vc.write_text(io.serialize_instance(vc_edge()))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out_file in (out1, out2):
        code, _, _ = run(capsys, "dict", vc, "--eps", "1/2", "--delta",
                         "1/10", "--r", "2", "-o", out_file)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dict_check(tmp_path, capsys):
    vc = tmp_path / "vc.json"
    vc.write_text(io.serialize_instance(vc_edge()))
    code, out, _ = run(capsys, "dict-check", vc, "--eps", "1/2",
                       "--delta", "1/10", "--r", "3")
    assert code == 0
    assert "all 3 feasible" in out
    # both endpoints at label 0: on the 1/2-grid and in the domain, but
    # the covering edge has no accepted tuple below (0, 0)
    sol = tmp_path / "zero.json"
    sol.write_text(json.dumps({"x": {"u": 0, "v": 0}}))
    code, _, err = run(capsys, "dict-check", vc, "--eps", "1/2",
                       "--delta", "1/10", "--r", "2", "--solution", sol)
    assert code == 3
    assert "edge 0: solution is not hull-feasible" in err


def test_dict_check_snaps_the_solution_once(capsys, monkeypatch):
    calls = []
    snap = rounding.perturb_point

    def counted(*args):
        calls.append(args)
        return snap(*args)

    monkeypatch.setattr(rounding, "perturb_point", counted)
    code, out, _ = run(capsys, "dict-check", hvc3(), "--eps", "1/3",
                       "--delta", "1/10", "--r", "2", "--solution",
                       uniform_solution(), "--json")
    assert code == 0
    # one snap of hvc3's 3 vertices: the grid check, which the rounding
    # reuses
    assert len(calls) == 3
    doc = json.loads(out)
    assert doc["round_value"] == doc["bucket_constant_opt"] == "1/1"


def test_dict_check_refuses_an_off_grid_solution(capsys):
    code, out, err = run(capsys, "dict-check", hvc3(), "--eps", "1/2",
                         "--delta", "1/10", "--r", "2", "--solution",
                         uniform_solution())
    assert (code, out) == (3, "")
    assert ("solution entries off the eps-grid: ['v0', 'v1', 'v2']"
            in err)


@pytest.mark.parametrize("command", ["dict", "dict-check"])
def test_zero_weight_bucket_is_exit_3(tmp_path, capsys, command):
    # u is alone in its bucket at weight 0: no file can record its tilt
    inst = model.make_instance(2, [F(0), F(1)], vc_edge().predicates,
                               vc_edge().edges, ["u", "v"])
    vc = tmp_path / "vc.json"
    vc.write_text(io.serialize_instance(inst))
    sol = tmp_path / "x.json"
    sol.write_text(json.dumps({"x": {"u": 1, "v": 0}}))
    out_file = tmp_path / "d.json"
    argv = [command, vc, "--eps", "1/2", "--delta", "1/10", "--r", "1",
            "--solution", sol] + (["-o", out_file] if command == "dict" else [])
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "hypercube 0 has zero weight" in err
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_gamma(capsys):
    code, out, _ = run(capsys, "analyze", "gamma", "--rho", "0.5",
                       "--mu", "0.5", "--nu", "0.5")
    assert code == 0
    assert abs(float(out) - 1 / 6) < 1e-8


def test_analyze_correlation(capsys):
    code, out, _ = run(capsys, "analyze", "correlation", hvc3(),
                       "--edge", "0", "--split", "1,2|3",
                       "--solution", uniform_solution(),
                       "--delta", "1/10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is True
    assert doc["ok"] is True


def test_analyze_correlation_rejects_bad_split(capsys):
    code, _, err = run(capsys, "analyze", "correlation", hvc3(),
                       "--edge", "0", "--split", "1,2,3")
    assert code == 3
    assert "split" in err


def _masses(tmp_path, k: int) -> Path:
    """A vc_edge solution giving u the mass 10^-k and v the rest."""
    path = tmp_path / f"x{k}.json"
    path.write_text(json.dumps({"x": {"u": f"1/{10**k}",
                                      "v": f"{10**k - 1}/{10**k}"}}))
    return path


def test_correlation_of_tiny_masses(tmp_path, capsys):
    # the float product of two marginals below 1e-308 used to underflow
    # to 0 and exit 3 with "float division by zero"
    docs = []
    for k in (100, 200, 400):
        argv = ("analyze", "correlation", FIXTURES / "vc_edge.json",
                "--edge", "0", "--split", "1|2",
                "--solution", _masses(tmp_path, k))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["rho = 1.000000000",
                                        "bound = 1.000000000",
                                        "connected = False", "ok = True"]
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc.pop("alpha") == f"1/{10**k}"
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2] == {
        "connected": False, "rho": 1.0, "bound": 1.0, "ok": True}


def _decode_tilted_chain(tmp_path, capsys, delta):
    """dict, reduce and decode (with and without --dict) on the vc_edge
    blowup at x = (0/1, 1/1) under tilt delta, the planted labeling and
    zero influences read back each time."""
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"x": {"u": "0/1", "v": "1/1"}}))
    dict_file, composed = tmp_path / "dict.json", tmp_path / "composed.json"
    game = FIXTURES / "ug_small.json"
    assert run(capsys, "dict", FIXTURES / "vc_edge.json", "--eps", "1/2",
               "--delta", delta, "--r", "2", "--solution", x,
               "-o", dict_file)[0] == 0
    assert run(capsys, "reduce", "--ug", game, "--dict", dict_file,
               "-o", composed)[:2] == (
        0, f"wrote {composed}: 16 vertices, 16 constraints\n")
    ids = [v["id"] for v in json.loads(composed.read_text())["vertices"]]
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps({"labels": {vid: 1 for vid in ids}}))
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    for extra in ([], ["--dict", dict_file]):
        args = ("decode", "--f", composed, "--solution", sel, "--ug", game,
                *extra)
        assert run(capsys, *args) == (
            0, "u0 = 0\nu1 = 1\nv0 = 0\nv1 = 0\nsatisfied weight: 1\n", "")
        code, out, err = run(capsys, *args, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "labels": {"v0": 0, "v1": 0, "u0": 0, "u1": 1},
            "satisfied_weight": "1/1",
            "influences": {"v0": zeros, "v1": zeros}}


def test_decode_chain_under_a_tilt_below_the_smallest_float(tmp_path,
                                                            capsys):
    """A tilt below 1e-308 is a point mass once it is a float, so the
    decoding reads zeros for it instead of refusing the bias."""
    _decode_tilted_chain(tmp_path, capsys, f"1/{10**400}")


@pytest.mark.parametrize("exponent", [200, 300])
def test_decode_chain_under_a_tilt_whose_square_underflows(tmp_path, capsys,
                                                           exponent):
    """A float tilt whose (p(1-p))^2 underflows to 0 decodes as a larger
    one does: squared coefficients are then formed exactly."""
    _decode_tilted_chain(tmp_path, capsys, f"1/{10**exponent}")


def test_analyze_influences(tmp_path, capsys):
    vc = tmp_path / "vc.json"
    vc.write_text(io.serialize_instance(vc_edge()))
    dict_file = tmp_path / "dict.json"
    run(capsys, "dict", vc, "--eps", "1/2", "--delta", "1/10", "--r", "2",
        "-o", dict_file)
    D = dict_view(io.parse_instance(dict_file.read_text()))
    from smcsp.dictators import dictator_assignment
    sel = tmp_path / "sel.json"
    sel.write_text(io.serialize_assignment(D.instance,
                                           dictator_assignment(D, 1)))
    code, out, _ = run(capsys, "analyze", "influences", dict_file,
                       "--assignment", sel, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["argmax"][1] == 1
    # --p overrides the recovered bias of every cube
    code, out, _ = run(capsys, "analyze", "influences", dict_file,
                       "--assignment", sel, "--p", "1/3", "--json")
    assert code == 0
    biased = dataclasses.replace(D, tilde_values=(F(1, 3),) * D.m)
    report = pseudo_random_check(biased, dictator_assignment(D, 1), F(0),
                                 D.r)
    assert json.loads(out) == io.to_json(report)
    # a bias outside [0, 1] is no measure: it used to print zeros and True
    for p in ("3/2", "-1/3"):
        code, out, err = run(capsys, "analyze", "influences", dict_file,
                             "--assignment", sel, f"--p={p}")
        assert (code, out) == (3, "")
        assert f"tilt {p} is outside [0, 1]" in err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(FIXTURES.parent / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_one_parser_serves_many_calls(capsys):
    """In-process calls print what a fresh process prints for each."""
    env = _src_env()
    vc = str(FIXTURES / "vc_edge.json")
    calls = [["lp", vc, "--lambdas"], ["lp", vc],
             ["round", hvc3(), "--eps", "1/6", "--report"],
             ["round", hvc3(), "--eps", "1/6"],
             ["analyze", "correlation", hvc3(), "--edge", "0",
              "--split", "1|2,3", "--json"]]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "smcsp.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                      fresh.stderr)


def test_lp_leaves_scipy_unimported():
    """Only the Gaussian layer needs scipy, so nothing else loads it."""
    script = ("import sys\n"
              "from smcsp import cli\n"
              f"code = cli.main(['lp', {str(FIXTURES / 'vc_edge.json')!r}, "
              "'--json'])\n"
              "print(code, 'scipy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr


def test_missing_file_is_exit_3(capsys):
    code, _, err = run(capsys, "lp", "/no/such/file.json")
    assert code == 3
    assert "error" in err


def test_bad_document_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 2}')
    code, _, err = run(capsys, "lp", bad)
    assert code == 3
    assert "missing keys" in err
    # well-formed JSON whose weights violate an instance invariant
    doc = json.loads((FIXTURES / "vc_edge.json").read_text())
    doc["vertices"][1]["weight"] = "1/4"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "lp", bad)
    assert code == 3
    assert "weights sum to 3/4" in err


def test_a_long_non_string_weight_is_echoed_clipped(tmp_path, capsys):
    doc = json.loads((FIXTURES / "vc_edge.json").read_text())
    doc["vertices"][0]["weight"] = [1] * 3000
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "oracle", bad)
    assert (code, out) == (3, "")
    assert err == ("error: weight of u: expected 'num/den' string or "
                   "integer, got [1, 1, 1, 1, 1, 1, 1...\n")
    assert len(err.encode()) < 120


def test_usage_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "round", hvc3())  # --eps is required
    assert code == 2


def test_cap_is_exit_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SMCSP_CAP_DICT", "3")
    vc = tmp_path / "vc.json"
    vc.write_text(io.serialize_instance(vc_edge()))
    code, _, err = run(capsys, "dict", vc, "--eps", "1/2", "--delta",
                       "1/10", "--r", "4", "-o", tmp_path / "d.json")
    assert code == 4
    assert "SMCSP_CAP_DICT" in err


def test_lp_past_the_pivot_cap_is_exit_4(capsys, monkeypatch):
    # the hull LP of hvc3 takes 4 pivots
    monkeypatch.setenv("SMCSP_CAP_PIVOT", "2")
    assert run(capsys, "lp", hvc3())[0] == 0
    monkeypatch.setenv("SMCSP_CAP_PIVOT", "1")
    assert run(capsys, "lp", hvc3()) == (
        4, "", "error: exact simplex pivots: 3 exceeds 2^1 "
               "(SMCSP_CAP_PIVOT)\n")


def test_dict_refuses_a_large_r_before_building_its_count(tmp_path, capsys,
                                                        monkeypatch):
    # 2 * 2**20000 has more digits than Python prints by default
    monkeypatch.delenv("SMCSP_CAP_DICT", raising=False)
    code, _, err = run(capsys, "dict", FIXTURES / "vc_edge.json", "--eps",
                       "1/2", "--delta", "1/10", "--r", "20000", "-o",
                       tmp_path / "d.json")
    assert code == 4
    assert err == ("error: hypercube vertex count: at least 2^20000 exceeds "
                   "2^20 (SMCSP_CAP_DICT)\n")


def test_cap_of_any_size_builds_no_number(capsys, monkeypatch):
    monkeypatch.setenv("SMCSP_CAP_ENUM", str(2 ** 70))
    assert run(capsys, "oracle", FIXTURES / "triangle.json")[0] == 0
    monkeypatch.setenv("SMCSP_CAP_ENUM", "1000000000")
    tracemalloc.start()
    try:
        caps.check_bits("ENUM", 8, "labeling search space")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cap_override_past_the_int_digit_limit(capsys, monkeypatch):
    # 5000 digits is past int()'s default parse limit, and allows any search
    monkeypatch.setenv("SMCSP_CAP_ENUM", "1" * 5000)
    code, out, _ = run(capsys, "oracle", FIXTURES / "triangle.json")
    assert (code, out.splitlines()[0]) == (0, "2/3")
    assert caps.cap("ENUM") == (10 ** 5000 - 1) // 9
    monkeypatch.setenv("SMCSP_CAP_ENUM", "1" * 4999 + "x")
    code, _, err = run(capsys, "oracle", FIXTURES / "triangle.json")
    assert code == 3
    assert err == ("error: SMCSP_CAP_ENUM must be an integer, got "
                   "'11111111111111111111...'\n")


def test_oracle_on_thousands_of_free_vertices(tmp_path, capsys,
                                              monkeypatch):
    # 2**2000 labelings, and the first leaf the search reaches is the
    # optimum: the search returns at once, and no recursion runs deep
    monkeypatch.setenv("SMCSP_CAP_ENUM", "4000")
    free = tmp_path / "free.json"
    free.write_text(io.serialize_instance(
        model.make_instance(2, [F(1, 2000)] * 2000, [], [])))
    code, out, _ = run(capsys, "oracle", free, "--json")
    doc = json.loads(out)
    assert code == 0
    assert F(doc["opt"]) == 0
    assert set(doc["labels"].values()) == {0} and len(doc["labels"]) == 2000


def test_cap_names_a_count_too_long_to_print_by_its_bits(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.delenv("SMCSP_CAP_ENUM", raising=False)
    wide = tmp_path / "wide.json"
    wide.write_text(io.serialize_instance(
        model.make_instance(10 ** 3000, [F(1, 2)] * 2, [], [])))
    code, _, err = run(capsys, "oracle", wide)
    assert code == 4
    assert err == ("error: labeling search space: a 19932-bit number "
                   "exceeds 2^24 (SMCSP_CAP_ENUM)\n")


def test_lowered_expand_cap_holds_for_a_cached_accepting_set(capsys,
                                                             monkeypatch):
    monkeypatch.delenv("SMCSP_CAP_EXPAND", raising=False)
    assert run(capsys, "oracle", hvc3())[0] == 0
    monkeypatch.setenv("SMCSP_CAP_EXPAND", "0")
    code, _, err = run(capsys, "oracle", hvc3())
    assert code == 4
    assert "SMCSP_CAP_EXPAND" in err


@pytest.mark.parametrize("argv", [
    ("oracle",),
    ("round", "--eps", "1/3"),
    ("dict-check", "--eps", "1/2", "--delta", "1/10", "--r", "2"),
])
def test_enum_cap_bounds_every_labeling_search(capsys, monkeypatch, argv):
    # the oracle, bucket rounding and the cube-constant optimum share
    # one search and one budget
    monkeypatch.setenv("SMCSP_CAP_ENUM", "1")
    code, _, err = run(capsys, argv[0], hvc3(), *argv[1:])
    assert code == 4
    assert "SMCSP_CAP_ENUM" in err


@pytest.mark.parametrize("cap, code, message", [
    ("3", 4, "composed vertex count: 16 exceeds 2^3 (SMCSP_CAP_UG)"),
    ("5", 4, "composed constraint tuples: 36 exceeds 2^5 (SMCSP_CAP_UG)"),
    ("6", 0, ""),
])
def test_ug_cap_bounds_the_composition(tmp_path, capsys, monkeypatch, cap,
                                       code, message):
    dict_file = tmp_path / "dict.json"
    assert run(capsys, "dict", FIXTURES / "vc_edge.json", "--eps", "1/2",
               "--delta", "1/10", "--r", "2", "-o", dict_file)[0] == 0
    monkeypatch.setenv("SMCSP_CAP_UG", cap)
    got, _, err = run(capsys, "reduce", "--ug", FIXTURES / "ug_small.json",
                      "--dict", dict_file, "-o", tmp_path / "f.json")
    assert got == code
    assert err == (f"error: {message}\n" if message else "")


@pytest.mark.parametrize("env, argv, message", [
    ({"SMCSP_CAP_ENUM": "abc"}, ("oracle", hvc3()),
     "SMCSP_CAP_ENUM must be an integer, got 'abc'"),
    ({"SMCSP_CAP_ENUM": "-1"}, ("oracle", hvc3()),
     "SMCSP_CAP_ENUM must be nonnegative, got -1"),
    ({}, ("analyze", "correlation", hvc3(), "--edge", "5", "--split", "1|2"),
     "--edge must be in 0..0"),
    ({}, ("analyze", "correlation", hvc3(), "--edge", "0", "--split", "1|9"),
     "--split coordinates must be in 1..3"),
    ({}, ("analyze", "correlation", hvc3(), "--edge", "0", "--split",
          "1,x|2"), "--split coordinates must be in 1..3"),
    ({}, ("check", "x"),
     "unknown criteria: ['x'] (give criterion numbers, or 'all' alone)"),
    ({}, ("check", "all", "3"),
     "unknown criteria: ['all'] (give criterion numbers, or 'all' alone)"),
    ({}, ("check", "1" * 5000, "2", "y"),
     "unknown criteria: ['11111111111111111111...', 'y'] "
     "(give criterion numbers, or 'all' alone)"),
    ({}, ("round", hvc3(), "--eps", "1/" + "1" * 5000),
     "--eps: rational '1/111111111111111111...' has a part of 5000 digits, "
     "past the 4300-digit limit of Python's int"),
])
def test_bad_setting_or_argument_is_exit_3(capsys, monkeypatch, env, argv,
                                           message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == f"error: {message}\n"


def test_correlation_on_an_edgeless_instance_is_exit_3(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(io.serialize_instance(model.make_instance(2, [F(1)], [],
                                                              [])))
    code, _, err = run(capsys, "analyze", "correlation", bare, "--edge", "0",
                       "--split", "1|2")
    assert code == 3
    assert err == "error: --edge: the instance has no edges\n"


@pytest.mark.parametrize("module, name, broken, argv, message", [
    ("simplex", "solve_standard_form",
     lambda *args: simplex.SimplexResult(simplex.INFEASIBLE, None, None,
                                         None),
     ("lp", hvc3()), "hull relaxation did not solve to optimality"),
    ("model", "upward_closure", lambda pred: (), ("oracle", hvc3()),
     "no feasible assignment"),
    ("simplex", "_bland_loop", lambda *args: False, ("lp", hvc3()),
     "phase 1 unbounded"),
])
def test_broken_invariant_is_exit_1(capsys, monkeypatch, module, name,
                                    broken, argv, message):
    # both LPs are feasible and bounded, phase 1 is bounded below, and
    # every upward-closed predicate accepts the all-top labeling; a fault
    # that breaks any of these is reported as a property, not a traceback
    monkeypatch.setattr(globals()[module], name, broken)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"property violated: {message}")


def test_check_subcommand_single_criterion(capsys):
    code, out, _ = run(capsys, "check", "1")
    assert code == 0
    assert "[PASS] criterion  1" in out
    assert "1/1 criteria passed" in out


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

# sha256 over every command of ``_pinned_cli_records`` below: argv, exit
# code, stdout, stderr and the bytes of the file it writes; it changes
# only if some output byte on the fixtures changes
CLI_DIGEST = ("0b8beb3fcf30799daf0571a8dc64baa4"
              "dbadd8a79bb422120b7395525e330bec")

INSTANCES = ("hvc3", "hvc4", "ternary_chain", "triangle", "vc_edge")
BOOLEAN = ("hvc3", "hvc4", "triangle", "vc_edge")
GAMES = ("ug_small", "ug_twisted_cycle")


def _pinned_cli_records(capsys) -> list:
    """Every command below in human and ``--json`` mode, run in the
    current directory, which holds a copy of ``fixtures/``."""
    records = []

    def call(*argv, output=None):
        for mode in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *mode)
            written = None
            if output is not None and Path(output).exists():
                written = hashlib.sha256(Path(output).read_bytes()).hexdigest()
            records.append([list(argv) + mode, code, out, err, written])

    def selection(path, rule):
        ids = [v["id"] for v in json.loads(Path(path).read_text())["vertices"]]
        sel = f"sel_{len(records)}.json"
        Path(sel).write_text(json.dumps(
            {"labels": {vid: rule(i) for i, vid in enumerate(ids)}}))
        return sel

    patterns = (lambda i: 1, lambda i: int(i % 3 != 1))
    for name in INSTANCES:
        inst = f"fixtures/{name}.json"
        call("lp", inst)
        call("lp", inst, "--lambdas")
        call("oracle", inst)
        for k in range(2, 7):
            call("round", inst, "--eps", f"1/{k}")
            call("round", inst, "--eps", f"1/{k}", "--report")
        for r in (1, 2):
            dict_file = f"dict_{name}_{r}.json"
            args = (inst, "--eps", "1/2", "--delta", "1/10", "--r", str(r))
            call("dict", *args, "-o", dict_file, output=dict_file)
            call("dict-check", *args)
    for extra in ([], ["--report"]):
        call("round", "fixtures/hvc3.json", "--eps", "1/6", "--solution",
             "fixtures/hvc3_uniform.solution.json", *extra)
    for name in BOOLEAN:
        for r in (1, 2):
            dict_file = f"dict_{name}_{r}.json"
            for rule in patterns:
                call("analyze", "influences", dict_file, "--assignment",
                     selection(dict_file, rule))
        dict_file = f"dict_{name}_2.json"
        for game in GAMES:
            composed = f"composed_{name}_{game}.json"
            game_file = f"fixtures/{game}.json"
            call("reduce", "--ug", game_file, "--dict", dict_file, "-o",
                 composed, output=composed)
            for rule in patterns:
                args = ("decode", "--f", composed, "--solution",
                        selection(composed, rule), "--ug", game_file)
                call(*args)
                call(*args, "--dict", dict_file)
    return records


def test_cli_outputs_pinned(tmp_path, capsys, monkeypatch):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    text = json.dumps(_pinned_cli_records(capsys), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_DIGEST
