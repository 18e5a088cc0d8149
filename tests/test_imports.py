"""Every name a package module imports is used in it, every private
module-level name is read somewhere in the package, only ``rationals``
parses raw rationals, only ``jsonio`` renders JSON, and only ``space``
decides how a rank string becomes a table and allocates square tables.
Every module the tests import is declared in ``pyproject.toml`` unless it
is the standard library's or this repository's own.  ``code_lines`` is
the one count of code lines that CHANGES.md cites.

No linter is part of the test dependencies, so unused imports are found
with the standard library's ast: a name an import binds must be read
somewhere in the module, or be listed in its ``__all__``."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "echelon"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Optional, Sequence\n\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 2)"]
    assert unused_imports("from .space import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "rationals.py"], ids=lambda p: p.name
)
def test_only_rationals_names_zero_division(path):
    """``exact_rational`` is the one reader of raw rationals; a module that
    names ZeroDivisionError is parsing them on its own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {getattr(node, "id", None) for node in ast.walk(tree)}
    names |= {getattr(node, "attr", None) for node in ast.walk(tree)}
    assert "ZeroDivisionError" not in names


def calls_json_dumps(source: str) -> bool:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name == "dumps" for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr == "dumps":
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                return True
    return False


def test_the_check_sees_a_json_dumps_call():
    assert calls_json_dumps("import json\nprint(json.dumps({}))\n")
    assert calls_json_dumps("from json import dumps\n")
    assert not calls_json_dumps("from . import jsonio\nprint(jsonio.dumps({}))\n")


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "jsonio.py"], ids=lambda p: p.name
)
def test_only_jsonio_renders_json(path):
    """``jsonio.dumps`` is the one renderer of documents and diagnostics."""
    assert not calls_json_dumps(path.read_text(encoding="utf-8"))


def names_table_reader(source: str) -> bool:
    tree = ast.parse(source)
    names = {getattr(node, "id", None) for node in ast.walk(tree)}
    names |= {getattr(node, "attr", None) for node in ast.walk(tree)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return "_table_reader" in names


def test_the_check_sees_a_table_reader():
    assert names_table_reader("from .space import _table_reader\n")
    assert names_table_reader("from . import space\nread = space._table_reader(3, [])\n")
    assert not names_table_reader("from .space import _colex_reader\nread = _colex_reader(3)\n")


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "space.py"], ids=lambda p: p.name
)
def test_only_space_reads_rank_strings_into_tables(path):
    """``space._colex_reader`` is the reader the other modules share; one
    that names ``_table_reader`` is choosing a pair order of its own."""
    assert not names_table_reader(path.read_text(encoding="utf-8"))


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp)


def _square_comprehension(node: ast.AST) -> bool:
    """A comprehension whose element is a comprehension, both loops running
    over the same ``range(...)`` expression: ``[[f(u, v) for v in range(n)]
    for u in range(n)]``, a square table filled pair by ordered pair."""
    if not (isinstance(node, COMPREHENSIONS) and isinstance(node.elt, COMPREHENSIONS)):
        return False
    outer, inner = node.generators[0].iter, node.elt.generators[0].iter
    return (
        isinstance(outer, ast.Call)
        and isinstance(outer.func, ast.Name)
        and outer.func.id == "range"
        and ast.dump(outer) == ast.dump(inner)
    )


def allocates_square_table(source: str) -> bool:
    """Whether ``source`` builds a table of rows as ``[[x] * n for _ in range(n)]``,
    or as a comprehension of comprehensions over the same ``range(n)``."""
    return any(
        (
            isinstance(node, ast.ListComp)
            and isinstance(node.elt, ast.BinOp)
            and isinstance(node.elt.op, ast.Mult)
            and ast.List in (type(node.elt.left), type(node.elt.right))
        )
        or _square_comprehension(node)
        for node in ast.walk(ast.parse(source))
    )


def test_the_check_sees_a_square_table():
    assert allocates_square_table("table = [[zero] * m for _ in range(m)]\n")
    assert allocates_square_table("slot = [m * [0] for _ in range(m)]\n")
    assert allocates_square_table("t = [[self.rank(u, v) for v in range(self.m)] for u in range(self.m)]\n")
    assert not allocates_square_table("copies = [[] for _ in copies_a]\n")
    assert not allocates_square_table("row = [0] * m\n")
    # _fraction_rows' triangle: the inner range is not the outer one
    triangle = "[[f(t[i][j]) for j in range(i)] for i in range(1, len(t))]\n"
    assert not allocates_square_table(triangle)


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "space.py"], ids=lambda p: p.name
)
def test_only_space_allocates_square_tables(path):
    """``space._colex_reader`` turns pair values into a square table; a
    module that allocates one fills it in a pair order of its own."""
    assert not allocates_square_table(path.read_text(encoding="utf-8"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_x``, not dunders) that no module of
    ``sources`` reads, as ``module: name``.  A name is read where it is
    loaded as a Name, named as an attribute or imported by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__") and name not in read:
                    out.append(f"{module}: {name}")
    return out


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "def _used():\n    _local = 1\n\ndef _dead():\n    pass\n\n_CAP: int = 3\nx = _used()\n",
        "b.py": "from .a import _CAP\n\nclass _Gone:\n    pass\n",
    }
    assert unread_private_names(sources) == ["a.py: _dead", "b.py: _Gone"]
    assert unread_private_names({"a.py": "def _f():\n    pass\n", "b.py": "from . import a\na._f()\n"}) == []


def test_every_private_name_is_read():
    """A private helper that nothing in the package reads is dead code."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


NON_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines that hold a token other than a comment, a line break, an
    indent or the end marker, outside module, class and function
    docstrings.  A token that spans lines, such as a multi-line string,
    holds every line it spans."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_the_count_sees_only_code_lines():
    source = "\n".join(
        [
            '"""Module docstring,',  # docstring
            'over two lines."""',  # docstring
            "",
            "# a comment",
            "def f(x):",  # 1
            "    '''Function docstring.'''",  # docstring
            "    y = g(",  # 2
            "        x,  # a trailing comment",  # 3
            "    )",  # 4
            "",
            '    text = """one',  # 5
            "",  # 6, inside the string
            'two"""',  # 7
            "    return y, text",  # 8
            "",
            "class C:",  # 9
            '    """Class docstring."""',  # docstring
            "    z = 1",  # 10
            "",
        ]
    )
    assert code_lines(source) == 10
    assert code_lines("") == 0


ROOT = PACKAGE.parent.parent


def declared_modules(pyproject: str) -> set[str]:
    """The module names of the runtime dependencies and the ``test`` extra
    of a ``pyproject.toml``: each requirement's project name, lower-cased,
    with dashes read as underscores.  That reading holds for every project
    this package depends on."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(pyproject)["project"]
    requirements = project.get("dependencies", []) + project.get("optional-dependencies", {}).get("test", [])
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def undeclared_imports(sources: dict[str, str], declared: set[str], local: set[str]) -> list[str]:
    """Top-level modules that ``sources`` import absolutely and that are
    neither in the standard library nor ``local`` nor ``declared``, as
    ``file: module``."""
    out = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in (module.split(".")[0] for module in modules):
                if top not in sys.stdlib_module_names and top not in local | declared:
                    out.append(f"{name}: {top}")
    return out


def test_the_check_sees_an_undeclared_import():
    source = "import os.path\nimport numpy as np\nfrom py_test import x\nfrom . import y\nimport helpers\nimport yaml\n"
    sources = {"a.py": source, "b.py": "def f():\n    from sympy import stirling\n"}
    assert undeclared_imports(sources, {"numpy", "py_test"}, {"helpers"}) == ["a.py: yaml", "b.py: sympy"]
    pyproject = '[project]\ndependencies = ["numpy>=1.24"]\n[project.optional-dependencies]\ntest = ["Py-Test"]\n'
    assert declared_modules(pyproject) == {"numpy", "py_test"}


def test_every_test_import_is_declared():
    """A module the tests import is in the standard library, is this
    package or a module of tests/ or benchmarks/, or is declared as a
    runtime dependency or in the ``test`` extra, so that
    ``pip install -e ".[test]"`` can run every test module."""
    declared = declared_modules((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    local = {"echelon"} | {p.stem for folder in ("tests", "benchmarks") for p in (ROOT / folder).glob("*.py")}
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))}
    assert undeclared_imports(sources, declared, local) == []


if __name__ == "__main__":  # python tests/test_imports.py: the count of each module and of the package
    counts = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16}{count:6}")
    print(f"{'src/echelon':16}{sum(counts.values()):6}")
