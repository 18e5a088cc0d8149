"""Command-line surface over the package.

One process, one subcommand, one JSON document out (stdout or --out).
Inputs are JSON files, with "-" for stdin.  Every output embeds the
format tag and re-validates under the ``validate`` subcommand.  Exit
codes: 0 success, 2 validation error (JSON diagnostic on stderr),
64 usage, 65 malformed JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import jsonio
from .amalgam import AmalgamResult, amalgamate, jep
from .colgraph import GeometricColouring, random_coloured_graph
from .errors import CapExceeded, EchelonError, ValidationError
from .jsonio import FORMAT, fraction_to_str
from .katetov import katetov_map, katetov_space, one_point_extensions, realize_extension
from .limit import back_and_forth, limit_new
from .metrize import metrize_dull
from .ramsey import ARROW_BUDGET, _arrow, witness_search
from .rationals import exact_rational
from .space import are_isomorphic, enumerate_spaces, from_weights


@dataclass(frozen=True)
class Bound:
    """One row of the command line's bounds table.  An int ``limit`` caps
    the option ``flag``; the Fraction limit of ``--p`` is its floor, and a
    value outside (0, 1) is left to ``as_probability``.  ``main`` checks a
    leaf parser's rows before its handler runs, so nothing is built past one."""

    flag: str
    limit: int | Fraction
    code: str
    unit: str = ""

    def check(self, value) -> None:
        if isinstance(self.limit, Fraction):
            if 0 < value < self.limit:
                raise CapExceeded(self.code, f"{self.flag} {fraction_to_str(value)} is below the floor of {self}")
        elif value > self.limit:
            raise CapExceeded(self.code, f"{self.flag} {value} exceeds the cap of {self}")

    def __str__(self) -> str:  # the limit as messages and help strings state it
        return fraction_to_str(self.limit) if isinstance(self.limit, Fraction) else f"{self.limit}{self.unit}"


BOUNDS = {
    # the emitted K(X) table has m^2 entries, about a million at this cap
    "materialize": Bound("--materialize-cap", 1024, "katetov/materialize-cap", " points"),
    # the output of `limit sample` carries n(n-1)/2 exact labels
    "points": Bound("--n", 1024, "limit/points-cap", " points"),
    # back-and-forth between two deterministic models takes under 0.1 s at
    # this depth and about 4x more per doubling
    "depth": Bound("--depth", 40, "limit/depth-cap"),
    # `ramsey search` at both caps samples 500 spaces of each size 5..12 and
    # ends in under 1 s (worst case in the README's cap table)
    "size": Bound("--cap", 12, "ramsey/size-cap"),
    "samples": Bound("--samples", 500, "ramsey/samples-cap"),
    # the colourings either `ramsey` subcommand may explore
    "budget": Bound("--budget", ARROW_BUDGET, "ramsey/budget-cap"),
    # `graph` stores n(n-1)/2 edge colours
    "vertices": Bound("--n", 2048, "graph/vertices-cap", " vertices"),
    # a colour rate p has about 44/p exact CDF thresholds
    # (prng.geometric_thresholds), built in about 0.25 s at this floor and
    # about 4x longer per halving of p
    "p": Bound("--p", Fraction(1, 256), "prob/cap"),
}
# The C of `ramsey check` comes from its document, so its handler checks
# this row: every A- and B-copy in C is listed, under 2 s for a flat C at the cap.
BOUNDS["c-points"] = replace(BOUNDS["size"], flag="--c point count")


class _UsageError(Exception):
    """A command line that argparse refuses: exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite(text: str) -> float:
    """A JSON number as a float.  JSON (RFC 8259) has no NaN or infinities,
    so ``NaN``, ``Infinity``, ``-Infinity`` and a literal that overflows
    are malformed."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


def _read_doc(path: str):
    """Parse a JSON input; bytes that are not UTF-8 and input the decoder
    refuses (nesting too deep, integers too long, numbers not finite) are
    malformed JSON.

    The encode check refuses the lone surrogates that a non-UTF-8 locale's
    stdin decoding leaves in place of undecodable bytes."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        text.encode("utf-8")
        return json.loads(text, parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeError are ValueErrors
        raise ValidationError("json/parse", str(exc)) from None


def _read_space(path: str):
    return jsonio.space_from_json(_read_doc(path))


def _read_ordered(path: str):
    return jsonio.ordered_space_from_json(_read_doc(path))


def _parse_map(value: str) -> tuple[int, ...]:
    """A point map, either inline ("0,2,1") or a JSON file (a list or a map document)."""
    try:
        return tuple(int(t) for t in value.split(","))
    except ValueError:
        pass
    return jsonio.map_from_json(_read_doc(value))[1]


def _fraction_arg(value: str) -> Fraction:
    q = exact_rational(value)
    if q is None:
        raise argparse.ArgumentTypeError(f"not a rational: {value!r}")
    return q


def _seed_arg(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if not 0 <= seed < 1 << 64:  # seeds are 64-bit words; others would alias
        raise argparse.ArgumentTypeError(f"seed {seed} is outside [0, 2^64)")
    return seed


def _amalgam_doc(result: AmalgamResult) -> dict:
    return jsonio._document(
        "amalgam",
        space=jsonio.space_to_json(result.space),
        g1=list(result.g1),
        g2=list(result.g2),
        chain=asdict(result.chain),
    )


# --- subcommand handlers; each returns the output document ---


def _cmd_validate(args) -> dict:
    return jsonio.validate(_read_doc(args.input))


def _cmd_echelon(args) -> dict:
    m, weights = jsonio.weights_from_json(_read_doc(args.input))
    return jsonio.space_to_json(from_weights(m, weights))


def _cmd_metrize(args) -> dict:
    return jsonio._dump_metric(metrize_dull(_read_space(args.input)))


def _cmd_from_metric(args) -> dict:
    return jsonio.space_to_json(jsonio.space_from_metric_json(_read_doc(args.input)))


def _cmd_amalgamate(args) -> dict:
    result = amalgamate(
        _read_space(args.a),
        _read_space(args.b1),
        _read_space(args.b2),
        _parse_map(args.f1),
        _parse_map(args.f2),
    )
    return _amalgam_doc(result)


def _cmd_jep(args) -> dict:
    return _amalgam_doc(jep(_read_space(args.b1), _read_space(args.b2)))


def _cmd_katetov(args) -> dict:
    base = _read_space(args.space)
    kx = katetov_space(base)
    doc = jsonio._document("katetov", base=jsonio.space_to_json(base), **jsonio._derived(kx))
    if kx.m <= args.materialize_cap:
        doc["space"] = jsonio.space_to_json(kx.materialize(cap=args.materialize_cap))
    if args.map is not None:
        target, phi = jsonio.map_from_json(_read_doc(args.map))
        if target is None:
            raise ValidationError("json/schema", "--map expects a map document with a target space")
        ky = katetov_space(target)
        doc["map"] = {
            "target": jsonio.space_to_json(target),
            "values": list(katetov_map(kx, ky, phi)),
        }
    if args.extend is not None:
        realization = realize_extension(base, _read_space(args.extend))
        doc["extension"] = {"g": list(realization.g)}
    return doc


def _cmd_extend(args) -> dict:
    extensions = list(one_point_extensions(_read_space(args.input)))
    if args.count:
        return jsonio._document("report", count=len(extensions))
    return jsonio.space_list_to_json([jsonio.space_to_json(sp) for sp in extensions])


def _cmd_limit_sample(args) -> dict:
    model = limit_new(args.mode, args.seed, args.p)
    space = model.sample_prefix(args.n)
    doc = jsonio.space_to_json(space)
    doc["mode"] = args.mode
    doc["seed"] = args.seed
    doc["p"] = fraction_to_str(args.p)
    # a fresh model's existing labels are exactly the prefix's levels, rank by rank
    names = [fraction_to_str(q) for q in model.existing_labels()]
    doc["labels"] = [[names[r - 1] for r in space.table[i][:i]] for i in range(1, args.n)]
    return doc


def _cmd_limit_bnf(args) -> dict:
    first = limit_new(args.mode1, args.seed1, args.p)
    second = limit_new(args.mode2, args.seed2, args.p)
    cert = back_and_forth(first, second, args.depth)
    return jsonio._document(
        "bnf",
        depth=args.depth,
        left=list(cert.left),
        right=list(cert.right),
        left_space=jsonio.space_to_json(cert.left_space),
        right_space=jsonio.space_to_json(cert.right_space),
        left_labels=[fraction_to_str(q) for q in cert.left_labels],
        right_labels=[fraction_to_str(q) for q in cert.right_labels],
    )


def _cmd_ramsey_check(args) -> dict:
    c = _read_ordered(args.c)
    BOUNDS["c-points"].check(c.m)
    arrows, copies_a, copies_b = _arrow(c, _read_ordered(args.a), _read_ordered(args.b), args.k, args.budget)
    return jsonio._document(
        "report",
        arrow=arrows,
        k=args.k,
        a_copies=len(copies_a),
        b_copies=len(copies_b),
    )


def _cmd_ramsey_search(args) -> dict:
    witness = witness_search(
        _read_ordered(args.a),
        _read_ordered(args.b),
        args.k,
        size_cap=args.cap,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
    )
    if witness is None:
        return jsonio._document("report", found=False)
    return jsonio.space_to_json(witness.space, order=witness.order)


def _cmd_enumerate(args) -> dict:
    spaces = enumerate_spaces(args.m, up_to_iso=args.up_to_iso)
    if args.count:
        return jsonio._document("report", count=sum(1 for _ in spaces))
    return jsonio.space_list_to_json([jsonio.space_to_json(sp) for sp in spaces])


def _cmd_iso(args) -> dict:
    witness = are_isomorphic(_read_space(args.a), _read_space(args.b))
    return jsonio._document(
        "report",
        isomorphic=witness is not None,
        map=None if witness is None else list(witness),
    )


def _cmd_graph(args) -> dict:
    colouring = GeometricColouring(args.p, args.seed)
    return jsonio.graph_to_json(random_coloured_graph(args.n, colouring))


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; each leaf parser carries its
    handler and the ``BOUNDS`` rows of its options."""
    b = BOUNDS
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write the output document here instead of stdout")
    format_help = f"expected document format tag (default {FORMAT})"
    common.add_argument("--format", dest="format_tag", default=FORMAT, help=format_help)
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed_arg, default=0, help="PRNG seed in [0, 2^64) (default 0)")
    rated = _Parser(add_help=False)
    p_help = f"colour rate of a random model or graph (default 1/2, at least {b['p']})"
    rated.add_argument("--p", type=_fraction_arg, default=Fraction(1, 2), help=p_help)

    parser = _Parser(prog="echelon", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, handler, text in (
        ("validate", _cmd_validate, "re-validate and normalize a document"),
        ("echelon", _cmd_echelon, "rank-compress a weights document into a space"),
        ("metrize", _cmd_metrize, "realize a space as a dull metric"),
        ("from-metric", _cmd_from_metric, "echelon a metric by comparing distances"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("input")
        p.set_defaults(handler=handler)

    p = sub.add_parser("amalgamate", parents=[common], help="strong amalgam over a shared subspace")
    p.add_argument("--a", required=True, help="shared space document")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--f1", required=True, help="embedding of a into b1 (inline '0,1' or JSON)")
    p.add_argument("--f2", required=True, help="embedding of a into b2")
    p.set_defaults(handler=_cmd_amalgamate)

    p = sub.add_parser("jep", parents=[common], help="joint embedding of two spaces")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.set_defaults(handler=_cmd_jep)

    p = sub.add_parser("katetov", parents=[common], help="one-point-extension space K(X)")
    p.add_argument("--space", required=True)
    p.add_argument("--map", help="map document {kind: map, target, map} for the functor action")
    p.add_argument("--extend", help="one-point extension to realize inside K(X)")
    cap_help = f"emit the full K(X) table up to this many points (default 512, at most {b['materialize']})"
    p.add_argument("--materialize-cap", type=int, default=512, help=cap_help)
    p.set_defaults(handler=_cmd_katetov, bounds=(b["materialize"],))

    p = sub.add_parser("extend", parents=[common], help="enumerate one-point extensions")
    p.add_argument("input")
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.set_defaults(handler=_cmd_extend)

    limit_help = "generative models of the limit space"
    limit_sub = sub.add_parser("limit", help=limit_help).add_subparsers(dest="limit_command", required=True)

    q = limit_sub.add_parser("sample", parents=[common, seeded, rated], help="echelon the first n points")
    q.add_argument("--mode", choices=("random", "deterministic"), required=True)
    q.add_argument("--n", type=int, required=True, help=f"prefix size (at most {b['points']})")
    q.set_defaults(handler=_cmd_limit_sample, bounds=(b["points"], b["p"]))

    q = limit_sub.add_parser("bnf", parents=[common, rated], help="back-and-forth certificate")
    q.add_argument("--seed1", type=_seed_arg, required=True)
    q.add_argument("--seed2", type=_seed_arg, required=True)
    q.add_argument("--depth", type=int, required=True, help=f"points matched on each side (at most {b['depth']})")
    q.add_argument("--mode1", choices=("random", "deterministic"), default="random")
    q.add_argument("--mode2", choices=("random", "deterministic"), default="deterministic")
    q.set_defaults(handler=_cmd_limit_bnf, bounds=(b["depth"], b["p"]))

    ramsey_help = "partition arrow checks"
    ramsey_sub = sub.add_parser("ramsey", help=ramsey_help).add_subparsers(dest="ramsey_command", required=True)
    budget_help = f"most colourings (default and cap {b['budget']})"

    q = ramsey_sub.add_parser("check", parents=[common], help="decide C -> (B) over A-copies")
    q.add_argument("--c", required=True, help=f"ordered space of at most {b['c-points']} points")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--budget", type=int, default=b["budget"].limit, help=budget_help)
    q.set_defaults(handler=_cmd_ramsey_check, bounds=(b["budget"],))

    q = ramsey_sub.add_parser("search", parents=[common, seeded], help="hunt for a witness C")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--cap", type=int, default=4, help=f"largest size to try (default 4, at most {b['size']})")
    q.add_argument("--samples", type=int, default=200, help=f"random probes per size beyond 4 (at most {b['samples']})")
    q.add_argument("--budget", type=int, default=b["budget"].limit, help=budget_help)
    q.set_defaults(handler=_cmd_ramsey_search, bounds=(b["size"], b["samples"], b["budget"]))

    p = sub.add_parser("enumerate", parents=[common], help="all labeled spaces on m points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("iso", parents=[common], help="isomorphism test with witness map")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("graph", parents=[common, seeded, rated], help="seeded geometric edge colouring")
    p.add_argument("--n", type=int, required=True, help=f"vertex count (at most {b['vertices']})")
    p.set_defaults(handler=_cmd_graph, bounds=(b["vertices"], b["p"]))

    return parser


def _reads_p(args) -> bool:
    """``graph`` always reads ``--p``; ``limit`` reads it only through a random model."""
    modes = [getattr(args, key) for key in ("mode", "mode1", "mode2") if hasattr(args, key)]
    return not modes or "random" in modes


def _diagnostic(code: str, message: str) -> None:
    sys.stderr.write(jsonio.dumps({"error": {"code": code, "message": message}}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        _diagnostic("usage", str(exc))
        return 64
    except SystemExit as exc:  # --help prints and exits
        return 0 if exc.code is None else int(exc.code)
    if args.format_tag != FORMAT:
        _diagnostic("json/format", f"unsupported format tag {args.format_tag!r}")
        return 2
    try:
        for bound in getattr(args, "bounds", ()):
            if bound is not BOUNDS["p"] or _reads_p(args):
                bound.check(getattr(args, bound.flag[2:].replace("-", "_")))
        doc = args.handler(args)
    except EchelonError as exc:
        _diagnostic(exc.code, exc.message)
        return 65 if exc.code == "json/parse" else 2
    except OSError as exc:
        _diagnostic("io/read", str(exc))
        return 2
    text = jsonio.dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
