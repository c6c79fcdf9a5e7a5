"""Relations between two runs of the package.

Each test transforms an input in a way that must leave some values
unchanged, runs the package on both inputs and compares those values.
A relation needs no oracle, so it also reaches inputs no oracle
finishes on.  The transforms are in ``oracles``.
"""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from smcsp import cli, io
from smcsp.dictators import (bucket_constant_opt, completeness_check,
                             generate_dict)
from smcsp.lp import solve_lp
from smcsp.model import brute_force_opt
from smcsp.randgen import (random_cover_instance, random_feasible_solution,
                           random_game, random_instance,
                           random_monotone_predicate)
from smcsp.rounding import integrality_report, perturb, round_solution
from smcsp.unique_games import ug_brute_force

# names a JSON writer must escape, and a space; no '/', which joins a
# left id to a cube id in the composed ids
_NAMES = st.text(alphabet='ab z"\\é', min_size=1, max_size=6)


@st.composite
def renamed_games(draw):
    """(game, the game with every id renamed, order kept)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    game, _ = random_game(rng, draw(st.integers(1, 3)),
                          draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                          draw(st.integers(0, 4)))
    names = draw(st.lists(_NAMES, min_size=game.n_left + game.n_right,
                          max_size=game.n_left + game.n_right, unique=True))
    return game, oracles.relabel_game(game, names[:game.n_left],
                                      names[game.n_left:])


def _back(game, renamed, by_id: dict) -> dict:
    """``by_id``, keyed by the renamed game's ids, keyed by ``game``'s."""
    old = dict(zip(renamed.left + renamed.right, game.left + game.right))
    return {old[vid]: value for vid, value in by_id.items()}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(renamed_games())
def test_renaming_the_game_leaves_its_optimum(case):
    game, renamed = case
    value, labels = ug_brute_force(renamed)
    assert (value, _back(game, renamed, labels)) == ug_brute_force(game)


def _run(capsys, *argv) -> tuple:
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# each example drains capsys, so sharing it is safe
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(renamed_games(), st.integers(0, 2**32 - 1))
def test_renaming_the_game_leaves_the_decoded_labeling(tmp_path_factory,
                                                       capsys, case, seed):
    """Decode reads the same labels, influences and satisfied weight off
    the same selection when every game id is renamed, order kept."""
    game, renamed = case
    rng = random.Random(seed)
    work = tmp_path_factory.mktemp("renamed")
    dict_file = work / "dict.json"
    (work / "base.json").write_text(io.serialize_instance(random_instance(
        rng, 2, rng.randint(2, 4), rng.randint(1, 2), 3)))
    assert _run(capsys, "dict", work / "base.json", "--eps", "1/2",
                "--delta", "1/10", "--r", game.r, "-o", dict_file)[0] == 0
    selection = None
    decoded = []
    for k, ug in enumerate((game, renamed)):
        files = {name: work / f"{name}{k}.json"
                 for name in ("game", "composed", "sel")}
        files["game"].write_text(io.serialize_ug(ug))
        assert _run(capsys, "reduce", "--ug", files["game"], "--dict",
                    dict_file, "-o", files["composed"])[0] == 0
        if selection is None:
            doc = json.loads(files["composed"].read_text())
            selection = labels = {v["id"]: rng.randrange(2)
                                  for v in doc["vertices"]}
        else:
            labels = oracles.relabel_selection(selection, game.left,
                                               renamed.left)
        files["sel"].write_text(json.dumps({"labels": labels}))
        for extra in ([], ["--dict", dict_file]):
            code, out, err = _run(capsys, "decode", "--f", files["composed"],
                                  "--solution", files["sel"], "--ug",
                                  files["game"], "--json", *extra)
            assert (code, err) == (0, "")
            decoded.append(json.loads(out))
    for before, after in zip(decoded[:2], decoded[2:]):
        assert after["satisfied_weight"] == before["satisfied_weight"]
        assert _back(game, renamed, after["labels"]) == before["labels"]
        assert (_back(game, renamed, after["influences"])
                == before["influences"])


# ---------------------------------------------------------------------------
# relations on instances: the LP, the oracle, the rounding and the blowup
# ---------------------------------------------------------------------------

EPS, DELTA = F(1, 4), F(1, 10)


@st.composite
def instances(draw):
    """A small random or covering instance, q in {2, 3}, n <= 7."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_instance(rng, draw(st.sampled_from([2, 3])),
                               draw(st.integers(2, 6)),
                               draw(st.integers(1, 5)))
    n = draw(st.integers(3, 7))
    return random_cover_instance(rng, n, draw(st.integers(1, n + 2)),
                                 draw(st.integers(2, 3)))


def _document(inst) -> dict:
    return json.loads(io.serialize_instance(inst))


def _values(inst, x: dict, r: int) -> tuple:
    """The LP value, OPT, the rounding value and bucket count of ``x``
    (keyed by vertex id), and the bucket-constant optimum, dictator cost
    and source value of the blowup of x's snap."""
    point = [x[vid] for vid in inst.vertex_ids]
    rounded = round_solution(inst, point, EPS)
    D = generate_dict(inst, perturb(inst, point, EPS).x_eps, r, DELTA, EPS)
    return (solve_lp(inst).objective, brute_force_opt(inst)[0],
            rounded.value, len(rounded.bucket_values),
            bucket_constant_opt(D)[0], completeness_check(D)["dictator_cost"],
            D.source_value)


def _permutation(data, n: int) -> list:
    return data.draw(st.permutations(range(n)))


def _relabel(data, doc):
    # the digits keep the drawn names distinct
    ids = [v["id"] for v in doc["vertices"]]
    names = {vid: f"{data.draw(_NAMES)}{k}" for k, vid in enumerate(ids)}
    return (oracles.relabel_vertices(doc, names,
                                     _permutation(data, len(ids))), names)


def _vertices(data, doc) -> list:
    """Two or three distinct vertex ids of ``doc``."""
    ids = [v["id"] for v in doc["vertices"]]
    return data.draw(st.lists(st.sampled_from(ids), min_size=2,
                              max_size=min(3, len(ids)), unique=True))


def _always_true_edge(data, doc):
    on = _vertices(data, doc)
    return oracles.add_edge(doc, on, [[0] * len(on)]), None


# each draws (transformed document, vertex renaming or None)
RELATIONS = {
    "relabel the vertices": _relabel,
    "shuffle the edges": lambda data, doc: (oracles.reorder(
        doc, "edges", _permutation(data, len(doc["edges"]))), None),
    "permute the predicates": lambda data, doc: (oracles.reorder(
        doc, "predicates", _permutation(data, len(doc["predicates"]))),
        None),
    "duplicate an edge": lambda data, doc: (oracles.duplicate_edge(
        doc, data.draw(st.integers(0, len(doc["edges"]) - 1))), None),
    "add an always-true edge": _always_true_edge,
}


@pytest.mark.parametrize("relation", RELATIONS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2**32 - 1),
       r=st.integers(1, 2), data=st.data())
def test_relation_leaves_the_values(relation, inst, seed, r, data):
    """The transformed instance has the same LP value, OPT, rounding
    value and bucket count, and its blowup the same bucket-constant
    optimum, dictator cost and source value, for the same solution: a
    mix of feasible labelings, so no LP optimum is needed to round."""
    doc, names = RELATIONS[relation](data, _document(inst))
    other = io.parse_instance(json.dumps(doc))
    x = dict(zip(inst.vertex_ids,
                 random_feasible_solution(random.Random(seed), inst)))
    moved = {(names or {}).get(vid, vid): pt for vid, pt in x.items()}
    assert _values(other, moved, r) == _values(inst, x, r)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(inst=instances(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_adding_an_edge_never_lowers_lp_or_opt(inst, seed, data):
    """One-sided: a new edge under any monotone predicate, on any
    vertices or on those of an edge already there, can only raise the LP
    value and OPT; and LP <= OPT <= round on both instances."""
    doc = _document(inst)
    on = (data.draw(st.sampled_from([e["vertices"] for e in doc["edges"]]))
          if data.draw(st.booleans()) else _vertices(data, doc))
    predicate = random_monotone_predicate(random.Random(seed), inst.q,
                                          len(on), "new")
    bigger = io.parse_instance(json.dumps(oracles.add_edge(
        doc, on, [list(m) for m in predicate.minimal])))
    reports = [integrality_report(i, EPS) for i in (inst, bigger)]
    for rep in reports:
        assert rep["lp"] <= rep["opt"] <= rep["round"]
    assert reports[1]["lp"] >= reports[0]["lp"]
    assert reports[1]["opt"] >= reports[0]["opt"]
