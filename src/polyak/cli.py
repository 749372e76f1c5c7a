"""Command-line toolkit: enumeration, presentations, group structure,
invariant tables, evaluation, classification, and standalone SNF.

Primary output (stdout or --out files) is machine-parseable and
byte-deterministic for fixed inputs and flags; progress goes to stderr.
Exit codes: 0 success, 1 usage error, 2 computation fault.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .classify import classify, machine_lines, report
from .invariant import build_table, element_order, evaluate, load_table, save_table
from .presentation import build_presentation, relation_counts, save_presentation
from .smith import load_matrix_text, snf_dense_naive, snf_sparse_mod2k
from .words import _iter_canonical_bytes, canonicalize, format_text

MAX_ENUMERATE_RANK = 12
SNF_ORACLE_LIMIT = 200  # per-side guard for the dense integer engine


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def group_structure(divisors) -> tuple[str, dict[int, int]]:
    """Human form of Z (+) torsion, plus the per-divisor exponent map."""
    powers = Counter(d for d in divisors if d > 1)
    parts = ["ℤ"]
    for d in sorted(powers):
        e = powers[d]
        cyclic = f"ℤ/{d}"
        parts.append(f"({cyclic})^{e}" if e > 1 else cyclic)
    return " ⊕ ".join(parts), dict(sorted(powers.items()))


def cmd_enumerate(args) -> int:
    if args.rank < 0:
        raise _UsageError("--rank must be nonnegative")
    if args.rank > MAX_ENUMERATE_RANK:
        raise _UsageError(f"--rank above {MAX_ENUMERATE_RANK} refused (output size)")
    out = open(args.out, "w") if args.out else sys.stdout
    count = 0
    try:
        for raw in _iter_canonical_bytes(args.rank):
            out.write(format_text(raw) + "\n")
            count += 1
    finally:
        if args.out:
            out.close()
    print(f"count {count}", file=sys.stderr)
    return 0


def cmd_presentation(args) -> int:
    if args.counts_only:
        counts = relation_counts(args.degree, workers=args.workers, progress=_progress)
        sink = open(args.out, "w") if args.out else sys.stdout
        try:
            sink.write(f"degree {counts.degree}\n")
            sink.write(f"generators {counts.generators}\n")
            sink.write(f"g2_raw {counts.g2_raw}\n")
            sink.write(f"g3_raw {counts.g3_raw}\n")
            sink.write(f"unique {counts.unique}\n")
        finally:
            if args.out:
                sink.close()
        return 0
    pres = build_presentation(args.degree, workers=args.workers, progress=_progress)
    if args.out:
        save_presentation(pres, args.out)
    else:
        save_presentation(pres, sys.stdout)
    return 0


def cmd_group(args) -> int:
    pres = build_presentation(args.degree, workers=args.workers, progress=_progress)
    g2_raw, g3_raw = pres.raw_counts
    print(f"generators {len(pres.generators)}")
    print(f"relations {len(pres.relations)} (raw {g2_raw} + {g3_raw})")
    if args.degree == 1 or not pres.relations:
        divisors: tuple[int, ...] = ()
    else:
        result = snf_sparse_mod2k(pres.matrix(), args.degree - 1, progress=_progress)
        divisors = result.divisors
    structure, powers = group_structure(divisors)
    print(f"G_{args.degree} = {structure}")
    print("exponents " + " ".join(f"{d}:{e}" for d, e in powers.items()))
    return 0


def cmd_table(args) -> int:
    table = build_table(args.degree, workers=args.workers, progress=_progress)
    save_table(table, args.out)
    print(
        f"degree {table.degree}: {len(table)} nonzero words, "
        f"moduli {' '.join(map(str, table.moduli))}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    table = load_table(args.table)
    word = canonicalize(args.word)
    value = evaluate(table, word)
    if not value:
        print("0")
        return 0
    text = " ".join(map(str, value))
    order = element_order(value, table.moduli)
    if order > 1:
        text += f" (order {order})"
    print(text)
    return 0


def cmd_classify(args) -> int:
    table = load_table(args.table)
    result = classify(
        args.max_rank,
        table,
        rank_cap=args.rank_cap,
        node_budget=args.node_budget,
        progress=_progress,
    )
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "machine":
            for line in machine_lines(result):
                sink.write(line + "\n")
        else:
            report(result, sink)
    finally:
        if args.out:
            sink.close()
    print(
        f"classes {len(result.classes)} unresolved {len(result.unresolved)}",
        file=sys.stderr,
    )
    return 0


def cmd_snf(args) -> int:
    A = load_matrix_text(args.matrix)
    if A.rows > SNF_ORACLE_LIMIT or A.cols > SNF_ORACLE_LIMIT:
        raise RuntimeError(
            f"matrix exceeds the {SNF_ORACLE_LIMIT}x{SNF_ORACLE_LIMIT} naive-engine guard"
        )
    divisors, _, _ = snf_dense_naive(A)
    print("divisors " + " ".join(map(str, divisors)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polyak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list canonical Gauss words of one rank")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("presentation", help="build and save a presentation")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--counts-only", action="store_true")
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("group", help="compute the group structure for a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("table", help="build and save an invariant table")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("eval", help="evaluate a saved table on a word")
    p.add_argument("--table", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="classify words up to homotopy")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--rank-cap", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=10**6)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("snf", help="Smith normal form of a matrix file")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_snf)
    return parser


def _resolve_workers(args) -> None:
    import os

    if getattr(args, "workers", None) is None and hasattr(args, "workers"):
        args.workers = os.cpu_count() or 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_workers(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
