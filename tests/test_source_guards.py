"""Static checks on the package source.

No module may hold a mutable container at top level, and no module-level
function may be memoized by ``functools.cache`` or ``functools.lru_cache``:
such a global outlives every call, so a memo kept in one would leak results
between runs.  Memo tables belong to a ``decompose.Run``.

No module may import anything outside numpy, the standard library and the
package itself, anywhere in its source: numpy is the one declared
dependency.

Each ``##`` heading of ``docs/schemas.md`` names, in backticks inside its
parentheses, the functions that write and read that format, and each of them
must be defined in the package, so that the file-format document cannot
outlive the code it describes.

Each backticked identifier of ``README.md`` that begins with an underscore
must be a top-level function or class of the package, so that the README
names no private function that is gone.

Once ``greencorr.cli`` is imported, no CLI command imports another module:
every command runs in a fresh interpreter, so a lazy import on the run path
is paid by every call (the first plain ``np.unique`` imports ``numpy.ma``).
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "greencorr"
SCHEMAS = ROOT / "docs" / "schemas.md"
README = ROOT / "README.md"
MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict",
                           "OrderedDict", "Counter", "deque"})
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                 ast.SetComp)
MEMO_DECORATORS = frozenset({"cache", "lru_cache"})
ALLOWED_IMPORTS = frozenset({"numpy", "greencorr"}) | sys.stdlib_module_names


def called_name(func: ast.expr) -> str | None:
    """The last part of a dotted name: ``lru_cache`` of
    ``functools.lru_cache``."""
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def is_mutable_container(node: ast.expr | None) -> bool:
    if isinstance(node, MUTABLE_NODES):
        return True
    if isinstance(node, ast.Call):
        return called_name(node.func) in MUTABLE_CALLS
    return False


def module_level_mutables(source: str) -> list[str]:
    """Line and target of each top-level assignment of a mutable container."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and \
                is_mutable_container(stmt.value):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            found.append(f"{stmt.lineno}: {', '.join(map(ast.unparse, targets))}")
    return found


def module_level_memos(source: str) -> list[str]:
    """Line and name of each top-level function with a cache decorator,
    called (``@lru_cache(maxsize=None)``) or not (``@functools.cache``)."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                called_name(d.func if isinstance(d, ast.Call) else d)
                in MEMO_DECORATORS for d in stmt.decorator_list):
            found.append(f"{stmt.lineno}: {stmt.name}")
    return found


def foreign_imports(source: str) -> list[str]:
    """Line and module of each import, at any depth, of a top-level package
    outside ALLOWED_IMPORTS; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend(f"{node.lineno}: {name}" for name in names
                     if name.split(".")[0] not in ALLOWED_IMPORTS)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_stay_within_the_declared_dependencies(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import scipy\n",
    "import scipy.sparse.csgraph as csgraph\n",
    "from scipy.sparse import csgraph\n",
    "import math, networkx\n",
    "def f():\n    import sympy\n    return sympy\n",
])
def test_import_guard_flags_each_foreign_import(source):
    assert len(foreign_imports(source)) == 1


def test_import_guard_allows_numpy_the_standard_library_and_the_package():
    assert foreign_imports(
        "from __future__ import annotations\nimport math\n"
        "import numpy as np\nfrom numpy.linalg import matrix_rank\n"
        "from . import linalg\nfrom .errors import InputError\n"
        "import greencorr.modules\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_mutable_containers(path):
    assert module_level_mutables(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_memoized_module_level_functions(path):
    assert module_level_memos(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import functools\n@functools.cache\ndef f(x):\n    return x\n",
    "import functools\n@functools.lru_cache\ndef f(x):\n    return x\n",
    "from functools import lru_cache\n@lru_cache(maxsize=None)\n"
    "def f(x):\n    return x\n",
    "from functools import cache\n@staticmethod\n@cache\n"
    "async def f(x):\n    return x\n",
])
def test_memo_guard_flags_each_cache_decorator(source):
    assert len(module_level_memos(source)) == 1


def test_memo_guard_allows_cached_properties_and_plain_decorators():
    assert module_level_memos(
        "from functools import cached_property, wraps\n"
        "class A:\n    @cached_property\n    def x(self):\n        return 1\n"
        "@wraps(print)\ndef f():\n    pass\n") == []


@pytest.mark.parametrize("line", [
    "_CACHE = {}",
    "_CACHE: dict[bytes, int] = {}",
    "_SEEN = set()",
    "_ITEMS = [1, 2]",
    "_BY_KEY = collections.defaultdict(list)",
    "_BY_KEY = defaultdict(list)",
    "_SQUARES = {k: k * k for k in range(3)}",
])
def test_guard_flags_each_kind_of_container(line):
    assert len(module_level_mutables(line)) == 1


def test_guard_allows_constants_and_function_locals():
    assert module_level_mutables(
        "LIMIT = 32\nNAMES = ('a', 'b')\nKEYS = frozenset({1})\n"
        "def f():\n    memo = {}\n    return memo\n") == []


def heading_names(markdown: str) -> list[str]:
    """Each backticked Python identifier inside the parentheses of a ``##``
    heading; paths such as ``<out>/verify.json`` are not identifiers."""
    return [name for line in markdown.splitlines() if line.startswith("## ")
            for inner in re.findall(r"\(([^()]*)\)", line)
            for name in re.findall(r"`([^`]*)`", inner) if name.isidentifier()]


def package_names() -> set[str]:
    """Every function and class defined at the top level of a package
    module."""
    return {stmt.name for path in PACKAGE.glob("*.py")
            for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}


def test_file_formats_name_functions_the_package_defines():
    names = heading_names(SCHEMAS.read_text())
    assert "module_from_json" in names
    assert [name for name in names if name not in package_names()] == []


def test_format_guard_reads_identifiers_in_heading_parentheses():
    assert heading_names(
        "# File formats (`title`)\n"
        "## Groupoid document (`groupoid_to_json` / `groupoid_from_json`)\n"
        "Round trip: `groupoid_to_json(doc)` (`in_text`).\n"
        "## `verify` report (`<out>/verify.json`, or `stdout`)\n") == [
            "groupoid_to_json", "groupoid_from_json", "stdout"]
    assert "groupoid_to_json" not in package_names()


def private_names(markdown: str) -> list[str]:
    """Each backticked Python identifier that begins with an underscore; a
    call such as ``_f(x)`` or a dotted name is not an identifier."""
    return [name for name in re.findall(r"`([^`\n]+)`", markdown)
            if name.isidentifier() and name.startswith("_")]


def test_readme_names_private_functions_the_package_defines():
    names = private_names(README.read_text())
    assert "_tally" in names
    assert [name for name in names if name not in package_names()] == []


def test_readme_guard_reads_backticked_private_identifiers():
    assert private_names(
        "First fit (`_tally`) calls `_iso_indec(M, N)` and `decompose`,\n"
        "then `_gone`, `run._memo` and `_tally`.\n"
        "```sh\n_x = 1\n```\n") == ["_tally", "_gone", "_tally"]
    assert "_gone" not in package_names()


# Runs every command on two configs, and vertex on a module file (the 2-dim
# simple kS3-module at p = 2, whose load checks the group relations), and
# prints the modules it imported after the snapshot.  argv: output
# directory, then "mutant" to put np.unique back in place of
# groupoids._distinct.  The snapshot follows one build_parser(): argparse
# translates its messages through gettext, which imports locale when the
# first parser is built, in every argparse program.
RUN_PATH_SCRIPT = """
import contextlib, io, json, sys
import numpy
from greencorr import cli, groupoids
out, mode = sys.argv[1:]
if mode == "mutant":
    groupoids._distinct = numpy.unique
module = f"{out}/s3_simple.json"
with open(module, "w") as f:
    json.dump({"p": 2, "dim": 2,
               "group_ref": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
               "action": {"0": [0, 1, 1, 0], "1": [0, 1, 1, 1]}}, f)
cli.build_parser()
before = set(sys.modules)
argvs = []
for config in ("configs/s3_c2_c2.json", "configs/s4_d8_c4.json"):
    for command in ("verify", "isocomma", "partial", "decompose", "vertex",
                    "correspond", "families"):
        argv = [command, "--scenario", config]
        if command == "vertex":
            argv += ["--module", "trivial"]
        argvs.append(argv)
argvs.append(["vertex", "--scenario", "configs/s3_c2_c2.json",
              "--module", module])
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv + ["--out", f"{out}/{len(codes)}"]))
print(json.dumps({"codes": codes,
                  "added": sorted(set(sys.modules) - before)}))
"""


def modules_added_by_commands(out: Path, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RUN_PATH_SCRIPT, str(out), mode], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_import_nothing_after_the_cli(tmp_path):
    result = modules_added_by_commands(tmp_path, "as-is")
    assert result["codes"] == [0] * 15
    assert result["added"] == []


def test_run_path_guard_catches_a_plain_unique(tmp_path):
    result = modules_added_by_commands(tmp_path, "mutant")
    assert result["codes"] == [0] * 15
    assert "numpy.ma" in result["added"]
