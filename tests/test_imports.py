"""Every name a package module imports is used in it, every private
module-level name is read somewhere in the package, only ``rationals``
parses raw rationals, only ``jsonio`` renders JSON, ``cli`` renders no
whole text, and only ``space`` decides how a rank string becomes a table
and allocates square tables.  Every method and property of a package
class is read by the package or the benchmarks.
Every module the tests import is declared in ``pyproject.toml`` unless it
is the standard library's or this repository's own.  ``code_lines`` is
the one count of code lines that CHANGES.md cites.

No linter is part of the test dependencies, so unused imports are found
with the standard library's ast: a name an import binds must be read
somewhere in the module, or be listed in its ``__all__``."""

import ast
import builtins
import importlib
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "echelon"
ROOT = PACKAGE.parent.parent


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


def dumps_readers(source: str) -> list[str]:
    """The functions of ``source`` that read ``jsonio.dumps`` as an
    attribute of ``jsonio`` or of an alias of it, and "<module>" for each
    import of ``dumps`` from ``jsonio`` by name."""
    tree = ast.parse(source)
    aliases = {"jsonio"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname and alias.name.split(".")[-1] == "jsonio"
    }
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "dumps":
                if isinstance(child.value, ast.Name) and child.value.id in aliases:
                    found.append(scope)
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[-1] == "jsonio":
                found.extend("<module>" for alias in child.names if alias.name == "dumps")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, "<module>")
    return found


def test_the_check_sees_a_document_rendered_whole():
    assert dumps_readers("from . import jsonio\n\ndef main():\n    print(jsonio.dumps({}))\n") == ["main"]
    assert dumps_readers("from . import jsonio as J\n\ntext = J.dumps({})\n") == ["<module>"]
    assert dumps_readers("from .jsonio import FORMAT, dumps\n") == ["<module>"]
    diagnostic = "from . import jsonio\n\ndef _diagnostic():\n    jsonio.dumps({})\n\ndef main():\n    jsonio.dump({}, print)\n"
    assert dumps_readers(diagnostic) == ["_diagnostic"]


def test_the_cli_renders_no_whole_text():
    """``cli`` writes every document and every diagnostic through
    ``jsonio.dump``, one row per write; it never reads ``jsonio.dumps``,
    which joins the whole text."""
    assert dumps_readers((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


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


def names_read(tree: ast.AST) -> set[str]:
    """The names a module reads: loaded as a Name, named as an attribute
    or imported by name."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def module_level_names(tree: ast.Module) -> list[str]:
    """The names a module's own definitions and assignments bind at its top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_x``, not dunders) that no module of
    ``sources`` reads, as ``module: name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


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


def reads_through_modules(tree: ast.AST) -> set[tuple[str, str]]:
    """The (module, name) pairs a module reads through the name's own
    module: ``module.name`` where the expression before the dot ends in the
    module's name or in an alias an import binds to it (``prng.x``,
    ``E.cli.main``), and ``from .module import name`` or ``from
    package.module import name``."""
    aliases = {
        alias.asname: alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    read: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            stem = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if stem is not None:
                read.add((aliases.get(stem, stem), node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            read.update((node.module.split(".")[-1], alias.name) for alias in node.names)
    return read


def unused_public_names(sources: dict[str, str], exported: set[str], outside: dict[str, str]) -> list[str]:
    """Module-level public names of ``sources`` that ``exported`` does not
    list and that nothing reads through their own module: neither a module
    of ``sources`` or of ``outside`` (see :func:`reads_through_modules`)
    nor, by the bare name, the module itself.  A method or attribute of the
    same name elsewhere is not a read.  As ``module: name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(reads_through_modules, [*trees.values(), *map(ast.parse, outside.values())]))
    out = []
    for module, tree in trees.items():
        stem = module.removesuffix(".py")
        bare = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [
            f"{module}: {name}"
            for name in module_level_names(tree)
            if not name.startswith("_") and name not in exported | bare and (stem, name) not in read
        ]
    return out


def public_names_bound(source: str) -> set[str]:
    """The public names a module binds at its top level, imports included."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return {name for name in imported | set(module_level_names(tree)) if not name.startswith("_")}


def test_the_check_sees_an_unused_public_name():
    sources = {
        "a.py": "def used():\n    pass\n\ndef gone():\n    pass\n\nLISTED = 1\nBENCHED: int = 2\n_private = used\n",
        "b.py": "from . import a\n\nclass Unread:\n    pass\n\n__version__ = '1'\n",
    }
    outside = {"run.py": "from echelon.a import BENCHED\n"}
    assert unused_public_names(sources, {"LISTED"}, outside) == ["a.py: gone", "b.py: Unread"]
    assert unused_public_names(sources, {"LISTED", "gone", "Unread"}, outside) == []
    source = "from .a import f, g as h\nimport os.path\nfrom . import b\n__version__ = '1'\n_x = 2\nY = 3\n"
    assert public_names_bound(source) == {"f", "h", "os", "b", "Y"}


def test_the_check_reads_a_name_only_through_its_own_module():
    """A method of the same name in another module, or an attribute of the
    same name on another object, does not hide an unused function."""
    sources = {
        "a.py": "def colour():\n    pass\n\ndef key():\n    pass\n\ndef law():\n    pass\n\nSTEP = 1\n",
        "b.py": "class Colouring:\n    def colour(self):\n        return self.law\n\nColouring().colour()\n",
    }
    assert unused_public_names(sources, set(), {}) == ["a.py: colour", "a.py: key", "a.py: law", "a.py: STEP"]
    reads = {
        "c.py": "from . import a as A\nfrom .a import law\nA.key()\n",
        "run.py": "def run(E, a):\n    return E.a.colour, a.STEP\n",
    }
    assert unused_public_names(sources, set(), reads) == []
    # a bare name is a read only inside its own module
    shadows = {**sources, "b.py": "colour = key = law = STEP = None\nprint(colour, key, law, STEP)\n"}
    assert unused_public_names(shadows, set(), {}) == ["a.py: colour", "a.py: key", "a.py: law", "a.py: STEP"]
    assert unused_public_names({"a.py": "def colour():\n    pass\n\nSTEP = colour\n"}, set(), {}) == ["a.py: STEP"]


def test_every_public_name_is_used_or_exported():
    """A public name that neither the package nor the benchmarks read, and
    that ``echelon`` does not export, serves only the tests: it belongs in
    ``tests/helpers.py``, or nowhere.  ``__all__`` lists exactly the public
    names ``echelon/__init__.py`` binds."""
    import echelon  # here, so that running this file counts lines without the package on the path

    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    outside = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "benchmarks").glob("*.py"))}
    exported = set(echelon.__all__)
    assert unused_public_names(sources, exported, outside) == []
    assert len(echelon.__all__) == len(exported)
    assert public_names_bound(sources["__init__.py"]) == exported


def outside_base(base: ast.expr, imports: dict[str, tuple[str, str]]) -> object:
    """The object a base class expression names when it comes from outside
    the package: a builtin (``ValueError``), a name imported absolutely
    (``NamedTuple``) or an attribute of an absolutely imported module
    (``argparse.ArgumentParser``); None for anything else.  ``imports``
    maps each name a module's absolute imports bind to the module and the
    attribute it names ("" for the module itself)."""
    dotted = ast.unparse(base).split(".")
    head = dotted[0]
    if head in imports:
        module, attr = imports[head]
        obj = importlib.import_module(module)
        obj = getattr(obj, attr) if attr else obj
    else:
        obj = getattr(builtins, head, None)
    for part in dotted[1:]:
        obj = getattr(obj, part, None)
    return obj


def unread_members(sources: dict[str, str], outside: dict[str, str]) -> list[str]:
    """Methods and properties of the classes of ``sources`` that no module
    of ``sources`` or ``outside`` reads as an attribute, as ``module:
    Class.name``.  Dunders are exempt, and so is a member that a base from
    outside the package defines, such as ``argparse.ArgumentParser.error``:
    the base's own code calls the override."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.attr
        for tree in [*trees.values(), *map(ast.parse, outside.values())]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    out = []
    for module, tree in trees.items():
        imports = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imports.update({alias.asname or alias.name: (alias.name, "") for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = [outside_base(base, imports) for base in cls.bases]
            out += [
                f"{module}: {cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in read
                and not any(hasattr(base, node.name) for base in bases)
            ]
    return out


def test_the_check_sees_a_member_only_tests_read():
    sources = {
        "a.py": (
            "import argparse\n\n"
            "class Space:\n    def __len__(self):\n        return 0\n\n"
            "    def rank(self):\n        return self.table\n\n"
            "    def only_tested(self):\n        pass\n\n"
            "    @property\n    def chain(self):\n        pass\n\n"
            "class Parser(argparse.ArgumentParser):\n    def error(self, message):\n        pass\n\n"
            "    def extra(self):\n        pass\n"
        ),
        "b.py": "from .a import Space\n\nclass Model(Space):\n    def rank(self):\n        return 1\n",
    }
    outside = {"run.py": "def run(space):\n    return space.rank(), space.chain\n"}
    assert unread_members(sources, outside) == ["a.py: Space.only_tested", "a.py: Parser.extra"]
    outside["bench.py"] = "def bench(space, parser):\n    space.only_tested()\n    parser.extra()\n"
    assert unread_members(sources, outside) == []
    # a base from inside the package exempts nothing
    inside = {
        "a.py": "class Base:\n    def error(self):\n        pass\n",
        "b.py": "from .a import Base\n\nclass Model(Base):\n    def error(self):\n        pass\n",
    }
    assert unread_members(inside, {}) == ["a.py: Base.error", "b.py: Model.error"]


def test_every_class_member_is_read():
    """A method or property that neither the package nor the benchmarks
    read serves only the tests: it belongs in ``tests/helpers.py``, or
    nowhere."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    outside = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "benchmarks").glob("*.py"))}
    assert unread_members(sources, outside) == []


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


if __name__ == "__main__":  # python tests/test_imports.py: the count of each module, of the package and of tests/
    counts = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16}{count:6}")
    print(f"{'src/echelon':16}{sum(counts.values()):6}")
    tests = sum(code_lines(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "tests").glob("*.py")))
    print(f"{'tests':16}{tests:6}")
