"""Malformed documents: the parsers reject them, and the CLI exits 3.

Every single-node mutation of a valid document (a node replaced by
another JSON type, an object key deleted or added) must either parse
to a value that survives a serialize/parse round trip or raise
``ParseError``; nothing else may escape.  The named cases are documents
that were once misread or crashed the parser.  ``decode``, which reads
four documents, exits 0 or 3 on a single mutation of any one of them.
"""

import copy
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from smcsp import cli, io
from smcsp.dictators import dictator_assignment, generate_dict
from smcsp.randgen import ternary_chain, vc_edge
from smcsp.unique_games import UgInstance, completeness_solution, compose

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# one of each JSON type, plus empty and nested containers
REPLACEMENTS = (True, False, 0, 3, -1, 0.5, "", "u", None, [], ["u", "v"],
                [0, 1], [[1]], {}, {"id": "u"})

HVC3 = io.parse_instance((FIXTURES / "hvc3.json").read_text())
TERNARY = ternary_chain()


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _round_trip_instance(inst):
    return io.parse_instance(io.serialize_instance(inst)) == inst


def _round_trip_ug(ug):
    return io.parse_ug(io.serialize_ug(ug)) == ug


# name -> (valid document, parser, round-trip check of an accepted value)
BASES = {
    "vc_edge": (_fixture("vc_edge.json"), io.parse_instance,
                _round_trip_instance),
    "ternary_chain": (_fixture("ternary_chain.json"), io.parse_instance,
                      _round_trip_instance),
    "hvc3_uniform.solution": (
        _fixture("hvc3_uniform.solution.json"),
        lambda text: io.parse_solution(text, HVC3),
        lambda x: io.parse_solution(io.serialize_solution(HVC3, x),
                                    HVC3) == x),
    "ug_twisted_cycle": (_fixture("ug_twisted_cycle.json"), io.parse_ug,
                         _round_trip_ug),
    "ternary_assignment": (
        json.loads(io.serialize_assignment(TERNARY, (2, 0, 1))),
        lambda text: io.parse_assignment(text, TERNARY),
        lambda labels: io.parse_assignment(
            io.serialize_assignment(TERNARY, labels), TERNARY) == labels),
}


def _paths(node, path=()):
    """Every node of a JSON document, as key/index paths (root first)."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _with(doc, path, change):
    """A deep copy of ``doc`` with ``change(parent, key)`` applied at path."""
    if not path:
        return change(None, None)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return doc


def _mutations(doc):
    """(label, mutated document) for every single-node mutation."""
    for path, node in _paths(doc):
        for value in REPLACEMENTS:
            def replace(parent, key, value=value):
                if parent is None:
                    return value
                parent[key] = value
            yield f"{list(path)} := {value!r}", _with(doc, path, replace)
        if isinstance(node, dict):
            for key in node:
                yield (f"{list(path)} del {key!r}",
                       _with(doc, path + (key,),
                             lambda parent, k: parent.pop(k)))
            yield (f"{list(path)} add 'zz'",
                   _with(doc, path + ("zz",),
                         lambda parent, k: parent.__setitem__(k, 1)))


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_mutation_parses_or_raises_parse_error(base):
    doc, parse, round_trips = BASES[base]
    round_trips(parse(json.dumps(doc)))
    escaped, bad_values = [], []
    for label, mutated in _mutations(doc):
        try:
            value = parse(json.dumps(mutated))
        except io.ParseError:
            continue
        except Exception as exc:  # noqa: BLE001 - the property under test
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if not round_trips(value):
            bad_values.append(label)
    assert not escaped, escaped[:5]
    assert not bad_values, bad_values[:5]


# ---------------------------------------------------------------------------
# named malformed documents, through the CLI
# ---------------------------------------------------------------------------

def _set(path, value):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _arity_true(doc):
    doc["predicates"][0].update(arity=True, minimal=[[1]])
    doc["edges"][0]["vertices"] = ["u"]


def _labels_bool(doc):
    doc["labels"] = {vid: bool(a) for vid, a in doc["labels"].items()}


# (name, document kind, mutation of the valid document of that kind)
NAMED = [
    ("edge-vertices-string", "instance",
     _set(["edges", 0, "vertices"], "uv")),
    ("minimal-bools", "instance",
     _set(["predicates", 0, "minimal"], [[True, False], [False, True]])),
    ("arity-true", "instance", _arity_true),
    ("edge-vertex-list", "instance",
     _set(["edges", 0, "vertices"], [["u"], "v"])),
    ("vertices-int", "instance", _set(["vertices"], 5)),
    ("minimal-int", "instance", _set(["predicates", 0, "minimal"], 5)),
    ("predicate-list", "instance",
     _set(["edges", 0, "predicate"], ["cover2"])),
    ("predicates-int", "instance", _set(["predicates"], 3)),
    ("edges-int", "instance", _set(["edges"], 3)),
    ("predicate-object", "instance", _set(["edges", 0, "predicate"], {})),
    ("minimal-label-bool", "instance",
     _set(["predicates", 0, "minimal", 0, 1], True)),
    ("pi-bool", "game", _set(["edges", 0, "pi"], [True, 2])),
    ("game-edges-int", "game", _set(["edges"], 3)),
    ("u-list", "game", _set(["edges", 0, "u"], ["u0"])),
    ("v-list", "game", _set(["edges", 0, "v"], ["v0"])),
    ("pi-string", "game", _set(["edges", 0, "pi"], [1, "2"])),
    ("labels-bool", "assignment", _labels_bool),
    ("x-value-list", "solution", _set(["x", "v0"], ["1/3"])),
    ("x-array", "solution", _set(["x"], ["1/3", "1/3", "1/3"])),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid companion files: a blown-up vc_edge and a dictator selection."""
    work = tmp_path_factory.mktemp("named")
    D = generate_dict(vc_edge(), [F(1, 2)] * 2, 2, F(1, 10), F(1, 2))
    paths = {"dict": work / "dict.json", "assignment": work / "sel.json",
             "bad": work / "bad.json", "out": work / "out.json"}
    paths["dict"].write_text(io.serialize_instance(D.instance))
    paths["assignment"].write_text(
        io.serialize_assignment(D.instance, dictator_assignment(D, 1)))
    return paths


def _commands(kind, bad, files):
    hvc3 = FIXTURES / "hvc3.json"
    game = FIXTURES / "ug_twisted_cycle.json"
    if kind == "instance":
        return [["lp", bad],
                ["reduce", "--ug", game, "--dict", bad, "-o", files["out"]]]
    if kind == "game":
        return [["reduce", "--ug", bad, "--dict", files["dict"],
                 "-o", files["out"]]]
    if kind == "solution":
        return [["round", hvc3, "--eps", "1/2", "--solution", bad]]
    return [["analyze", "influences", files["dict"], "--assignment", bad]]


def _valid(kind, files):
    if kind == "instance":
        return _fixture("vc_edge.json")
    if kind == "game":
        return _fixture("ug_twisted_cycle.json")
    if kind == "solution":
        return _fixture("hvc3_uniform.solution.json")
    return json.loads(files["assignment"].read_text())


@pytest.mark.parametrize("name,kind,mutate", NAMED,
                         ids=[name for name, _, _ in NAMED])
def test_named_malformed_document_is_exit_3(name, kind, mutate, files,
                                            capsys):
    doc = _valid(kind, files)
    mutate(doc)
    files["bad"].write_text(json.dumps(doc))
    for argv in _commands(kind, files["bad"], files):
        code = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 3, (argv[0], err)
        assert err.startswith("error: "), err


# ---------------------------------------------------------------------------
# well-formed solutions outside the value domain
# ---------------------------------------------------------------------------

# (instance fixture, solution outside the simplex)
OUT_OF_DOMAIN = [
    ("hvc3.json", {"v0": "3/2", "v1": "1/3", "v2": "1/3"}),
    ("hvc3.json", {"v0": "5/4", "v1": "1/2", "v2": "1/2"}),
    ("hvc3.json", {"v0": "-1/2", "v1": "1/1", "v2": "1/1"}),
    ("ternary_chain.json", {vid: ["1/2", "1/2", "1/2"]
                            for vid in ("a", "b", "c")}),
    ("ternary_chain.json", {"a": ["-1/2", "1/2", "1/1"],
                            "b": ["0/1", "0/1", "1/1"],
                            "c": ["0/1", "0/1", "1/1"]}),
]


@pytest.mark.parametrize("argv", [
    ["round", "--eps", "1/2"],
    ["round", "--eps", "1/3", "--report"],
    ["dict", "--eps", "1/2", "--delta", "1/10", "--r", "1", "-o", "OUT"],
    ["dict-check", "--eps", "1/4", "--delta", "1/10", "--r", "1"],
])
@pytest.mark.parametrize("fixture,x", OUT_OF_DOMAIN)
def test_solution_outside_the_value_domain_is_exit_3(argv, fixture, x,
                                                     files, capsys):
    files["bad"].write_text(json.dumps({"x": x}))
    argv = [str(files["out"]) if a == "OUT" else a for a in argv]
    code = cli.main([argv[0], str(FIXTURES / fixture), *argv[1:],
                     "--solution", str(files["bad"])])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == "error: solution is not hull-feasible\n"


@pytest.mark.parametrize("x", [
    [(F(1, 2), F(1, 2))] * 2,  # distributions where q = 2 wants scalars
    [F(1, 2)] * 3,             # one entry too many
    [F(1, 2), 1],              # an int, not a Fraction
])
def test_generate_dict_rejects_a_misshapen_solution(x):
    with pytest.raises(ValueError):
        generate_dict(vc_edge(), x, 2, F(1, 10), F(1, 2))


# ---------------------------------------------------------------------------
# decode on a single mutation of one of its four documents
# ---------------------------------------------------------------------------

DECODE_SAMPLE = 400  # mutations kept of a document that has more


@pytest.fixture(scope="module")
def decode_files(tmp_path_factory):
    """The valid inputs of ``decode``: a composed instance, a selection
    on it, its game and its hypercube instance."""
    work = tmp_path_factory.mktemp("decode")
    D = generate_dict(vc_edge(), [F(1, 2)] * 2, 2, F(1, 10), F(1, 2))
    ug = UgInstance(2, ("L0", "L1"), ("R0",),
                    ((0, 0, F(1, 2), (0, 1)), (1, 0, F(1, 2), (1, 0))))
    composed = compose(ug, D)
    selection, _ = completeness_solution(ug, {"L0": 0, "L1": 1, "R0": 0},
                                         D, composed)
    texts = {"f": io.serialize_instance(composed),
             "solution": io.serialize_assignment(composed, selection),
             "ug": io.serialize_ug(ug),
             "dict": io.serialize_instance(D.instance)}
    paths = {"bad": work / "bad.json"}
    for key, text in texts.items():
        paths[key] = work / f"{key}.json"
        paths[key].write_text(text)
    return paths


@pytest.mark.parametrize("target,with_dict", [
    ("f", False), ("f", True), ("solution", False), ("solution", True),
    ("ug", False), ("ug", True), ("dict", True)])
def test_decode_on_a_mutated_input_exits_0_or_3(target, with_dict,
                                                decode_files, capsys):
    keys = ("f", "solution", "ug") + (("dict",) if with_dict else ())
    argv = ["decode"]
    for key in keys:
        argv += [f"--{key}", str(decode_files[key])]
    assert cli.main(argv) == 0, capsys.readouterr().err
    argv[argv.index(str(decode_files[target]))] = str(decode_files["bad"])
    mutations = list(_mutations(json.loads(decode_files[target].read_text())))
    if len(mutations) > DECODE_SAMPLE:
        mutations = random.Random(target).sample(mutations, DECODE_SAMPLE)
    escaped = []
    for label, mutated in mutations:
        decode_files["bad"].write_text(json.dumps(mutated))
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - the property under test
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if code not in (0, 3):
            escaped.append(f"{label}: {code}")
    assert not escaped, escaped[:5]
