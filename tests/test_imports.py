"""Package hygiene: every module uses every name it imports, every
unexported top-level definition is used somewhere in the package, every
member of a package class is read somewhere, no check is an ``assert``
statement, only the model reads the rows of an edge list, only the
file reader and writer pause the garbage collector, influences and
command output each have one owner, and the Gaussian layer loads
neither scipy's quadrature nor its statistics package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import smcsp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smcsp"


def unused_imports(path: Path) -> list:
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_package_modules_use_every_import():
    # __init__.py imports to re-export, so it is left out
    found = {path.name: unused_imports(path)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_package_has_no_assert_statement():
    # python -O strips assert statements; every check must survive it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _references(node) -> Counter:
    """How often each name is read, as a name or an attribute, in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_unexported_definition_is_used():
    # a top-level def or class that smcsp.__all__ does not export must be
    # referenced somewhere in the package outside its own body
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()),
                     Counter())
    unused = [f"{name}:{node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in smcsp.__all__
              and everywhere[node.name] == _references(node)[node.name]]
    assert unused == []


def _attribute_reads(node) -> Counter:
    """How often each name is read as an attribute in node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def test_every_class_member_is_read():
    """Each method, property and dataclass field of a package class is
    read as an attribute in the package, ``perfbench/`` or ``demos/``,
    outside its own body.

    The check goes by name only, so it cannot catch an unread member
    whose name another class reads, such as ``eps``, ``x`` or
    ``bucket_values``.
    """
    readers = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               *(ROOT / "demos").glob("*.py")]
    reads = sum((_attribute_reads(ast.parse(p.read_text(encoding="utf-8")))
                 for p in readers), Counter())
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name, own = node.name, _attribute_reads(node)[node.name]
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    name, own = node.target.id, 0
                else:
                    continue
                if not name.startswith("__") and reads[name] == own:
                    unread.append(f"{path.name}:{cls.name}.{name}")
    assert unread == []


def test_only_the_model_reads_edge_rows():
    # the padded row layout of EdgeRows (-1 past an edge's size, the
    # predicate in the last column) is known to model.py alone; other
    # modules read its accessors
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if path.name != "model.py"
               and _attribute_reads(ast.parse(path.read_text(
                   encoding="utf-8")))["rows"]]
    assert readers == []


def _gc_attributes(node) -> list:
    """The ``gc.<name>`` attributes that ``node`` reads."""
    return [n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "gc"]


def test_one_site_pauses_the_collector():
    # each paused function was measured with gc.callbacks; a new pause
    # site, or another use of the collector, needs its own measurement
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    imports = [(name, type(node).__name__) for name, tree in trees.items()
               for node in ast.walk(tree)
               if (isinstance(node, ast.Import)
                   and "gc" in [a.name for a in node.names])
               or (isinstance(node, ast.ImportFrom) and node.module == "gc")]
    # a plain ``import gc``, so every use reads as gc.<name>
    assert imports == [("io.py", "Import")]
    functions = {node.name: node for node in trees["io.py"].body
                 if isinstance(node, ast.FunctionDef)}
    assert sorted(_gc_attributes(trees["io.py"])) == \
        sorted(_gc_attributes(functions["_collector_paused"])) == \
        ["disable", "enable", "isenabled"]
    paused = [name for name, node in functions.items()
              if "_collector_paused" in [d.id for d in node.decorator_list
                                         if isinstance(d, ast.Name)]]
    assert paused == ["_load", "parse_instance", "serialize_instance"]
    # and nowhere else: not called, not passed around
    assert _references(trees["io.py"])["_collector_paused"] == len(paused)


def _calls_by_function(name: str, keep=lambda call: True) -> list:
    """``(module, top-level function)`` of every call of ``name``, as a
    name or an attribute, in the package that ``keep`` accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and keep(node)
                        and name in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))):
                    found.append((path.name, getattr(top, "name", None)))
    return found


def test_fourier_owns_the_influence_rules():
    # one reader turns a cube function into influence rows; the measure
    # rules (degree bound, point mass, bias range) live in fourier alone
    callers = {call for call in _calls_by_function("influences")
               if call[0] != "fourier.py"}
    assert callers == {("dictators.py", "cube_influence_rows"),
                       ("acceptance.py", "criterion_12")}
    for message in ("degree bound must be nonnegative", "is outside [0, 1]"):
        holders = [path.name for path in sorted(SRC.glob("*.py"))
                   if message in path.read_text(encoding="utf-8")]
        assert holders == ["fourier.py"], message


def test_main_prints_every_command_output():
    # commands return (doc, human); main alone writes to stdout
    to_stdout = _calls_by_function(
        "print", lambda call: not any(k.arg == "file" for k in call.keywords))
    assert to_stdout == [("cli.py", "main")]


def test_one_simplex_routine_clears_a_column():
    # the objective is the tableau's last row: one routine subtracts a
    # multiple of the pivot row from the rows it clears, objective and
    # constraints alike, and no function takes the objective as an
    # argument of its own
    tree = ast.parse((SRC / "simplex.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    subtracting = [node.name for node in functions
                   if any(isinstance(n, ast.AugAssign)
                          and isinstance(n.op, ast.Sub)
                          and isinstance(n.value, ast.BinOp)
                          and isinstance(n.value.op, ast.Mult)
                          for n in ast.walk(node))]
    assert subtracting == ["_clear"]
    params = {a.arg for node in functions for a in node.args.args}
    assert not params & {"obj", "cost", "costs"}


def test_gaussian_layer_leaves_quadrature_and_stats_unimported():
    script = ("import sys\n"
              "import smcsp\n"
              "smcsp.gamma(0.5, 0.3, 0.4)\n"
              "smcsp.gamma_mc(0.5, 0.3, 0.4, n=1000)\n"
              "smcsp.check_gamma_inequalities()\n"
              "print(sorted({'scipy.integrate', 'scipy.stats'}"
              " & set(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.stdout.splitlines()[-1:] == ["[]"], done.stderr
