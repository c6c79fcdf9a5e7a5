"""Relations between two runs of the package.

Each test transforms an input in a way that must leave some values
unchanged, runs the package on both inputs and compares those values.
A relation needs no oracle, so it also reaches inputs no oracle
finishes on.  The transforms are in ``oracles``.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from smcsp import cli, io
from smcsp.randgen import random_game, random_instance
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
