"""The README's library quick tour runs as written, and the values its
comments state are the values it computes."""

import re
from fractions import Fraction
from pathlib import Path

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
