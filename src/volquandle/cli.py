"""Command line front end.

Subcommands: dilog, parse, volume, invariant, enumerate, symmetry.
Exit codes: 0 success, 1 input or validation error, 2 numeric failure
(a state sum off the {-V, 0, +V} lattice, or unparseable numbers).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .diagram import Diagram, parse_pd
from .dilog import bloch_wigner
from .errors import InputError, OutOfLattice, VolquandleError
from .fixtures import FIXTURES
from .holquandle import HolonomyRep, load_holonomy
from .invariant import (
    FLAG_WITNESSES,
    PhiResult,
    coloring_from_doc,
    first_generator,
    phi,
    reference_volume,
    symmetry_report,
    tally_colorings,
)

MAX_DEPTH = 6
MAX_CAP = 10**6


# dest: (lowest, highest, message) for the numeric flags a subcommand takes
_RANGES = {
    "depth": (0, MAX_DEPTH, f"depth must be in 0..{MAX_DEPTH}"),
    "cap": (1, MAX_CAP, f"cap must be in 1..{MAX_CAP}"),
    "precision": (1, math.inf, "precision must be at least 1"),
}


def _check_ranges(args) -> None:
    given = vars(args)
    for dest, (lowest, highest, message) in _RANGES.items():
        if dest in given and not lowest <= given[dest] <= highest:
            raise InputError(message)


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _fixture(args) -> dict | None:
    name = getattr(args, "fixture", None)
    if name is None:
        return None
    try:
        return FIXTURES[name]
    except KeyError:
        raise InputError(f"unknown fixture {name!r}") from None


def _load_diagram(args) -> Diagram:
    fixture = _fixture(args)
    if getattr(args, "pd", None):
        return parse_pd(_read_text(args.pd))
    if fixture is not None:
        return parse_pd(fixture["pd"])
    raise InputError("no diagram given: use --pd FILE or --fixture NAME")


def _load_rep(args, d: Diagram, reversed_: bool = False) -> HolonomyRep | None:
    key = "holonomy_reversed" if reversed_ else "holonomy"
    path = getattr(args, key, None)
    if path:
        return load_holonomy(_read_json(path), d)
    fixture = _fixture(args)
    if fixture is not None:
        return load_holonomy(fixture[key], d)
    return None


def _require_rep(args, d: Diagram) -> HolonomyRep:
    h = _load_rep(args, d)
    if h is None:
        raise InputError("no holonomy given: use --holonomy FILE or --fixture NAME")
    return h


def _emit(doc: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _print_phi(args, result: PhiResult) -> int:
    p = args.precision
    doc = {
        "phi": float(_fmt(result.phi, p)),
        "volume": float(_fmt(result.volume, p)),
        "k": result.k,
        "residual": float(f"{result.residual:.{p}e}"),
    }
    lines = [
        f"phi      = {_fmt(result.phi, p)}",
        f"volume   = {_fmt(result.volume, p)}",
        f"k        = {result.k:+d}",
        f"residual = {result.residual:.{p}e}",
    ]
    _emit(doc, lines, args.json)
    return 0


def cmd_dilog(args) -> int:
    try:
        z = complex(float(args.re), float(args.im))
        if math.isnan(z.real) or math.isnan(z.imag):  # no point of CP^1
            raise ValueError(z)
    except ValueError:
        print("dilog: arguments must be real numbers", file=sys.stderr)
        return 2
    value = bloch_wigner(z)
    if args.json:
        print(json.dumps({"z": [z.real, z.imag], "D": value}))
    else:
        print(_fmt(value, args.precision))
    return 0


def cmd_parse(args) -> int:
    d = _load_diagram(args)
    doc = d.to_json_dict()
    doc["writhe"] = sum(d.signs())
    doc["n_arcs"] = len(d.arcs)
    doc["n_regions"] = d.n_regions
    lines = [f"crossings: {d.n_crossings}"]
    for cr in d.crossings:
        lines.append(
            "  X({},{},{},{})  sign {:+d}".format(*cr.edges, cr.sign)
        )
    lines.append(f"arcs: {len(d.arcs)}")
    for i, arc in enumerate(d.arcs):
        lines.append(f"  arc {i}: edges {list(arc)}")
    lines.append(f"regions: {d.n_regions}")
    lines.append(f"writhe: {sum(d.signs())}")
    _emit(doc, lines, args.json)
    return 0


def cmd_volume(args) -> int:
    d = _load_diagram(args)
    volume = reference_volume(_require_rep(args, d), d)
    return _print_phi(args, PhiResult(phi=volume, volume=volume, k=1, residual=0.0))


def cmd_invariant(args) -> int:
    d = _load_diagram(args)
    h = _require_rep(args, d)
    if not getattr(args, "coloring", None):
        raise InputError("no coloring given: use --coloring FILE")
    s = coloring_from_doc(d, h, _read_json(args.coloring))
    return _print_phi(args, phi(d, s, first_generator(h), reference_volume(h, d)))


def cmd_enumerate(args) -> int:
    d = _load_diagram(args)
    h = _require_rep(args, d)
    tally = tally_colorings(d, h, args.depth, args.cap)
    doc = tally.to_json_dict()
    doc["depth"] = args.depth
    lines = [f"colorings: {tally.total} (depth {args.depth})"]
    for k in (-1, 0, 1):
        lines.append(f"  k = {k:+d}: {tally.counts.get(k, 0)}")
    lines.append(f"max residual: {tally.max_residual:.{args.precision}e}")
    lines.append(f"truncated: {'yes' if tally.truncated else 'no'}")
    _emit(doc, lines, args.json)
    return 0


def cmd_symmetry(args) -> int:
    d = _load_diagram(args)
    h_std = _require_rep(args, d)
    h_rev = _load_rep(args, d, reversed_=True)
    report = symmetry_report(d, h_std, h_rev, args.depth, args.cap)
    doc = report.to_json_dict()
    lines = []
    for flag in FLAG_WITNESSES:
        lines.append(f"{flag}: {doc[flag]}")
        witness = doc["witnesses"][flag]
        if witness is not None:
            arcs = ", ".join(f"{i}: {word}" for i, word in witness.items())
            lines.append(f"  witness arcs {{{arcs}}}")
    _emit(doc, lines, args.json)
    return 0


_FLAGS = {
    "re": dict(help="real part"),
    "im": dict(help="imaginary part"),
    "--precision": dict(type=int, default=12, help="printed digits"),
    "--pd": dict(help="PD-code file"),
    "--holonomy": dict(help="holonomy JSON file"),
    "--holonomy-reversed": dict(help="reversed-orientation holonomy JSON"),
    "--fixture": dict(help="built-in fixture name (fig8)"),
    "--coloring": dict(help="coloring JSON file (arc words)"),
    "--depth": dict(type=int, default=2, help="conjugation depth"),
    "--cap": dict(type=int, default=100000, help="coloring cap"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volquandle",
        description=(
            "Hyperbolic-volume quandle cocycle invariant of knot diagrams"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    files = ("--pd", "--holonomy", "--fixture")
    state_sum = ("--precision", *files)
    # each subcommand takes only the flags it reads
    for name, func, help_text, flags in [
        ("dilog", cmd_dilog, "evaluate the Bloch-Wigner function D",
         ("re", "im", "--precision")),
        ("parse", cmd_parse, "parse a PD code and print the diagram",
         ("--pd", "--fixture")),
        ("volume", cmd_volume, "state sum of the natural coloring", state_sum),
        ("invariant", cmd_invariant, "state sum of a supplied coloring",
         (*state_sum, "--coloring")),
        ("enumerate", cmd_enumerate, "classify all pool colorings",
         (*state_sum, "--depth", "--cap")),
        ("symmetry", cmd_symmetry, "bounded symmetry detection",
         (*files, "--holonomy-reversed", "--depth", "--cap")),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except OutOfLattice as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VolquandleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
