"""The README's library quick tour runs as written, the values its
comments state are the values it computes, its list of public names
is ``echelon.__all__``, and its caps table states every row of
``cli.BOUNDS``."""

import re
from fractions import Fraction
from pathlib import Path

import echelon
from echelon.cli import BOUNDS

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first Python block after the quick-tour heading."""
    text = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_the_quick_tour_states_what_it_computes():
    tour = {}
    exec(compile(quick_tour(), str(README), "exec"), tour)
    x, ext = tour["x"], tour["ext"]
    assert (x.rank(0, 1), x.rank(1, 2)) == (1, 2)
    nonzero = {q for row in tour["d"] for q in row if q}
    assert min(nonzero) == Fraction(4, 3) and max(nonzero) == Fraction(5, 3)
    assert tour["from_metric"](tour["d"]) == x
    result = tour["result"]
    assert result.space.m == 4
    assert (result.g1, result.g2) == ((0, 1, 2), (3, 0, 1))
    assert tour["kx"].m == 1731 == 3 + 12**3
    assert tour["realize_extension"](x, ext).g == (0, 1, 2, 631)
    assert tour["det"].rank_label(tour["z"], 0) == Fraction(5, 3)
    cert = tour["cert"]
    assert cert.left_space == cert.right_space


def public_names() -> list[str]:
    """The names of the README's public-name list: each bullet of that
    section, after its module, lists names in backticks."""
    text = README.read_text(encoding="utf-8").split("## Public names", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `[\w.]+`: (.*?)(?=^- |\Z)", text, re.S | re.M)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_the_public_name_list_is_all_of_echelon():
    names = public_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(echelon.__all__)
    assert f"these {len(echelon.__all__)} names" in README.read_text(encoding="utf-8")


def caps_table() -> list[list[str]]:
    """The cells of each body row of the README's caps table, the one
    whose header names a row of ``cli.BOUNDS``."""
    text = README.read_text(encoding="utf-8").split("| option | row of `cli.BOUNDS` |", 1)[1]
    rows = re.findall(r"^\|(.*)\|$", text.split("\n\n", 1)[0], re.M)[1:]  # the first is the separator row
    return [[cell.strip() for cell in row.split(" | ")] for row in rows]


def test_the_caps_table_states_every_bounds_row():
    rows = caps_table()
    for key, bound in BOUNDS.items():
        named = [cells for cells in rows if cells[1] == f"`{key}`"]
        assert len(named) == 1, key
        _, _, limit, code, _ = named[0]
        assert code == f"`{bound.code}`" and re.search(rf"(?<![\d/]){re.escape(str(bound))}(?![\d/])", limit), key
