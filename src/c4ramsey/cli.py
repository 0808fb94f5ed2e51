"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 verification failure / cannot
derive / infeasible where feasibility was asserted, 3 budget exhausted,
141 stdout closed by its reader before the output was written (as in
`c4ramsey derive C4,C4,K8,K8 | head -1`; 128 + SIGPIPE, the code a shell
reports for a tool that SIGPIPE ends), with nothing printed on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .bounds import BoundQuery, theorem_mt_bound
from .derive import CannotDeriveError, derive, replay
from .graphs import (
    coloring_from_text,
    coloring_to_text,
    graph6_decode,
)
from .registry import RamseyFact, Registry, load_registry, seed_registry
from .search import (
    UNKNOWN,
    SearchBudget,
    computed_ramsey,
    partition_check,
    ramsey_by_search,
    search_coloring,
)
from .targets import parse_target_sequence, parse_targets
from .witness import (
    BadWitnessError,
    extend_with_disjoint_clique,
    lower_bound_fact,
    verify_lower_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _load_registry_arg(path: Optional[str]) -> Registry:
    if path is None:
        return seed_registry()
    return load_registry(path)


def _read_arg_or_file(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text()
    return value


def _budget(args) -> SearchBudget:
    return SearchBudget(
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    default = SearchBudget()
    p.add_argument("--node-limit", type=int, default=default.node_limit)
    p.add_argument("--time-limit", type=float, default=default.time_limit, metavar="SECS")


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _cmd_bound(args) -> int:
    value = theorem_mt_bound(BoundQuery(args.m, tuple(args.r)))
    _emit(args, {"command": "bound", "value": value}, str(value))
    return EXIT_OK


def _cmd_derive(args) -> int:
    reg = _load_registry_arg(args.registry)
    targets = parse_targets(args.targets)
    try:
        tree = derive(targets, reg)
    except CannotDeriveError as e:
        if args.json:
            print(json.dumps({"command": "derive", "status": "cannot-derive", "missing": e.missing}))
        else:
            print(e, file=sys.stderr)
        return EXIT_VERIFY
    replay(tree, reg)
    if args.json:
        print(json.dumps({"command": "derive", "status": "ok", "tree": tree.to_dict()}, indent=2))
    else:
        print(f"{tree.value}\n{tree.render_text()}")
    return EXIT_OK


def _cite_path(path: str) -> str:
    """The path as a fact line can carry it in a citation.

    '|' splits a fact line's fields, '#' starts a comment, a line break ends
    the line and outer blanks are stripped, so '%', '|', '#', every blank
    but ' ' and trailing ' ' are written as %XX of their UTF-8 bytes;
    urllib.parse.unquote reads the path back.
    """
    cited = "".join(
        "".join(f"%{b:02X}" for b in ch.encode()) if ch in "%|#" or (ch.isspace() and ch != " ") else ch
        for ch in path
    )
    kept = cited.rstrip(" ")
    return kept + "%20" * (len(cited) - len(kept))


def _cmd_verify(args) -> int:
    coloring = coloring_from_text(_read_arg_or_file(args.coloring))
    targets = parse_target_sequence(args.targets)
    try:
        source = _cite_path(args.coloring[1:]) if args.coloring.startswith("@") else "inline coloring"
        fact = verify_lower_bound(coloring, targets, source=source)
    except BadWitnessError as e:
        doc = {
            "command": "verify",
            "status": "bad-witness",
            "color": e.color,
            "target": str(e.target),
            "vertices": list(e.vertices),
        }
        _emit(args, doc, f"BAD WITNESS: {e}")
        return EXIT_VERIFY
    doc = {"command": "verify", "status": "ok", "fact": fact.to_line()}
    _emit(args, doc, fact.to_line())
    return EXIT_OK


def _report(args, command: str, outcome, **extra) -> int:
    """Write a found witness to --witness-out if given, print the outcome
    (its fields, then extra) and return its exit code."""
    doc = {"command": command, **outcome.to_dict(), **extra}
    if args.witness_out and doc["witness"] is not None:  # the text to_dict rendered
        Path(args.witness_out).write_text(doc["witness"])
    _emit(args, doc, f"{outcome.status.capitalize()} ({outcome.nodes_explored} nodes)")
    return EXIT_BUDGET if outcome.status == UNKNOWN else EXIT_OK


def _cmd_search(args) -> int:
    targets = parse_target_sequence(args.targets)
    budget = _budget(args)
    if args.n_min is not None or args.n_max is not None:
        if args.n_min is None or args.n_max is None:
            raise SystemExit("--n-min and --n-max go together")
        if args.n is not None:
            raise SystemExit("--n and --n-min/--n-max do not go together")
        for flag, value in (("--degree-caps", args.degree_caps), ("--witness-out", args.witness_out)):
            if value is not None:
                raise SystemExit(f"{flag} needs --n; it does not apply to --n-min/--n-max")
        outcomes = ramsey_by_search(targets, args.n_min, args.n_max, budget)
        value = computed_ramsey(outcomes)
        doc = {
            "command": "search",
            "outcomes": {str(n): o.to_dict() for n, o in outcomes.items()},
            "ramsey_number": value,
        }
        lines = [f"N={n}: {o.status.capitalize()} ({o.nodes_explored} nodes)" for n, o in outcomes.items()]
        if value is not None:
            lines.append(f"R = {value}")
        _emit(args, doc, "\n".join(lines))
        if any(o.status == UNKNOWN for o in outcomes.values()):
            return EXIT_BUDGET
        return EXIT_OK
    if args.n is None:
        raise SystemExit("need --n or --n-min/--n-max")
    outcome = search_coloring(args.n, targets, budget, args.degree_caps)
    return _report(args, "search", outcome, n=args.n)


def _cmd_partition_check(args) -> int:
    g = graph6_decode(_read_arg_or_file(args.graph6))
    outcome = partition_check(g, parse_target_sequence(args.targets), _budget(args))
    return _report(args, "partition-check", outcome)


def _cmd_witness(args) -> int:
    coloring = coloring_from_text(_read_arg_or_file(args.coloring))
    targets = parse_target_sequence(args.targets)
    try:
        extended, promoted = extend_with_disjoint_clique(
            coloring, targets, args.add_clique, args.c4_color, args.clique_color
        )
    except (ValueError, BadWitnessError) as e:
        _emit(args, {"command": "witness", "status": "error", "message": str(e)}, f"ERROR: {e}")
        return EXIT_VERIFY
    text = coloring_to_text(extended)
    if args.witness_out:
        Path(args.witness_out).write_text(text)
    # extend_with_disjoint_clique has verified the extended coloring
    fact = lower_bound_fact(promoted, extended.n, source="disjoint-clique extension")
    doc = {
        "command": "witness",
        "status": "ok",
        "targets": ",".join(str(t) for t in promoted),
        "fact": fact.to_line(),
        "witness": text,
    }
    _emit(args, doc, fact.to_line())
    return EXIT_OK


def _cmd_registry(args) -> int:
    reg = _load_registry_arg(args.registry)
    if args.add:
        fact = RamseyFact.from_line(args.add)
        reg.add(fact)
        if args.registry:
            reg.save(args.registry)
    lines = [f.to_line() for f in reg.facts()]
    _emit(args, {"command": "registry", "facts": lines}, "\n".join(lines))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, as for every other usage error; the subcommand
        # parsers are made from this class too
        raise SystemExit(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="c4ramsey",
        description="Ramsey upper-bound derivations and desk-scale coloring searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate Theorem MT on m and r_1..r_n")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=int, nargs="*", default=(), metavar="R")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("derive", help="derive an upper bound with an audit tree")
    p.add_argument("targets")
    p.add_argument("--registry", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify", help="verify a lower-bound witness coloring")
    p.add_argument("targets")
    p.add_argument("--coloring", required=True, metavar="STR|@FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for a good coloring of K_N")
    p.add_argument("--targets", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--degree-caps", type=int, nargs="+")
    p.add_argument("--witness-out", metavar="PATH")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("partition-check", help="split a C4-free graph's non-edges")
    p.add_argument("--graph6", required=True, metavar="STR|@FILE")
    p.add_argument("--targets", default="K3,K4")
    p.add_argument("--witness-out", metavar="PATH")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_partition_check)

    p = sub.add_parser("witness", help="extend a witness by a disjoint clique")
    p.add_argument("targets")
    p.add_argument("--coloring", required=True, metavar="STR|@FILE")
    p.add_argument("--add-clique", type=int, default=3, metavar="K")
    p.add_argument("--c4-color", type=int, default=0)
    p.add_argument("--clique-color", type=int, default=1)
    p.add_argument("--witness-out", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("registry", help="list or extend a fact registry")
    p.add_argument("--registry", metavar="PATH")
    p.add_argument("--add", metavar="FACT_LINE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_registry)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls: each one fills a new Namespace
    # from the defaults, so one parser serves every run() in the process
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as e:
        if isinstance(e.code, str):
            return _usage_error(e.code)
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit has somewhere to write what is still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OverflowError, OSError) as e:
        return _usage_error(str(e))


def _usage_error(message: str) -> int:
    # one stderr line, also where the message quotes a multi-line argument
    print("error:", " ".join(message.splitlines()), file=sys.stderr)
    return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
