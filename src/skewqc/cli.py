"""Command-line front end.

Subcommands: ``factor`` (divisors and linear factorizations of x^s - 1),
``build`` (construct a code and show its structure), ``distance`` (exact or
sampled minimum distance), ``similar`` (similarity of two skew polynomials),
``search`` (seeded campaign over generator tuples), ``verify-table``
(re-check the shipped catalog; exits nonzero if any asserted row fails or
the selection holds no row).

Every command runs in this one process.  Bad input that argparse cannot see
(a catalog name or family that does not exist, a polynomial or code given on
the command line that cannot be parsed or built, missing code flags, a bad
search config) is reported as "error: ..." with exit status 1, not a
traceback; so is a request over its work budget, followed by the command's
"hint: ..." when it has one.  ``main`` is the one place that turns these
errors into messages.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .codes import CodeSpec, CodeStructure, build_code, build_degenerate_code
from .distance import _exact_scan, min_distance, min_distance_sampled
from .errors import DEFAULT_BUDGET, DEFAULT_OPEN_BUDGET, BudgetExceededError
from .errors import ConsistencyError
from .factorization import all_linear_factorizations, modulus_right_divisors
from .field import FieldSpec, make_field
from .notation import parse_coeff_string, poly_coeff_string, poly_to_terms
from .search import (
    DEFAULT_SAMPLE_TRIALS,
    export_records,
    load_config,
    run_search,
    table_ok,
    verify_table,
)
from .similarity import are_similar
from .skewpoly import x_pow_minus_one
from .tables import CatalogEntry, catalog, entries, families, get


def _field_from(text: str) -> FieldSpec:
    try:
        p, t, m = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"field must be 'p,t,m' (e.g. 2,1,2 for GF(4)), got {text!r}"
        )
    return make_field(p, t, m)


def _int_at_least(low: int, kind: str):
    """argparse type: an integer >= ``low``, else "expected a <kind> integer"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1  # reported below like any other value out of range
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _entry(name: str) -> CatalogEntry:
    try:
        return get(name)
    except KeyError:
        raise ValueError(f"unknown catalog entry {name!r}; see 'skewqc verify-table' "
                         "for the names") from None


def _add_field_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--field",
        type=_field_from,
        default=None,
        metavar="p,t,m",
        help="base field and automorphism (default 2,1,2 = GF(4) with z -> z^2)",
    )


def _field(args) -> FieldSpec:
    return args.field if args.field is not None else make_field(2, 1, 2)


def _split_strings(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommands


def cmd_factor(args) -> int:
    F = _field(args)
    modulus = x_pow_minus_one(F, args.s)
    print(f"x^{args.s} - 1 over GF({F.q}) = {poly_to_terms(modulus)}")
    if args.degree is not None:
        divs = modulus_right_divisors(
            F, args.s, args.degree, budget=args.budget or DEFAULT_BUDGET
        )
        print(f"monic right divisors of degree {args.degree}: {len(divs)}")
        for g in divs:
            print(f"  {poly_coeff_string(g):24s} {poly_to_terms(g)}")
        return 0
    factorizations = all_linear_factorizations(
        modulus, budget=args.budget or DEFAULT_OPEN_BUDGET
    )
    print(f"complete factorizations into monic linear factors: {len(factorizations)}")
    for factors in factorizations:
        print("  " + "".join(f"({poly_to_terms(f)})" for f in factors))
    return 0


def _resolve_code(args) -> CodeStructure:
    if args.name:
        return _entry(args.name).build()
    F = _field(args)
    if args.s is None:
        raise ValueError("either --name or --s with a tuple is required")
    if args.multipliers is not None:
        if not args.generator:
            raise ValueError("--multipliers requires --generator")
        g = parse_coeff_string(F, args.generator)
        fs = [parse_coeff_string(F, t) for t in _split_strings(args.multipliers)]
        return build_degenerate_code(F, args.s, g, fs)
    if args.tuple is None:
        raise ValueError("provide --tuple components or --generator with --multipliers")
    components = tuple(
        parse_coeff_string(F, t) for t in _split_strings(args.tuple)
    )
    if args.generator:
        g = parse_coeff_string(F, args.generator)
        return CodeStructure(CodeSpec(F, args.s, components), generator=g)
    return build_code(F, args.s, components)


def _add_code_flags(parser: argparse.ArgumentParser) -> None:
    _add_field_flag(parser)
    parser.add_argument("--name", help="catalog entry name (see verify-table output)")
    parser.add_argument("--s", type=_positive_int, help="block length s (m must divide s)")
    parser.add_argument(
        "--tuple",
        help="comma-separated coefficient strings: the generating tuple components",
    )
    parser.add_argument(
        "--generator",
        help="generator polynomial g; with --tuple, pins the first s - deg g "
        "shift images as the row space",
    )
    parser.add_argument(
        "--multipliers",
        help="comma-separated multiplier strings f_i; builds the tuple "
        "(g, f_1*g, ...) from --generator",
    )


def cmd_build(args) -> int:
    code = _resolve_code(args)
    spec = code.spec
    print(f"[{code.n},{code.k}] skew quasi-cyclic code: s={spec.s} l={spec.l} "
          f"q={spec.field.q}")
    print(f"generator polynomial g = {poly_coeff_string(code.g)}  "
          f"({poly_to_terms(code.g)})")
    print(f"parity polynomial    h = {poly_coeff_string(code.h)}  "
          f"({poly_to_terms(code.h)})")
    print(f"tuple components: {', '.join(poly_coeff_string(f) for f in spec.generators)}")
    print(f"shift-module closed: {code.module_closed}")
    if args.matrix:
        tokens = spec.field.tokens
        for row in code.genmatrix:
            print("  " + " ".join(tokens[c] for c in row))
    return 0


def cmd_distance(args) -> int:
    code = _resolve_code(args)
    enumerator = None
    kind = "exact"
    if args.enumerator:  # the exact scan gives d and the witness, so --sampled is not run
        args.hint = "raise --budget"
        enumerator, rep = _exact_scan(code, args.budget, True)
    elif args.sampled is not None:
        rep = min_distance_sampled(code, trials=args.sampled, seed=args.seed)
        kind = f"sampled upper bound over {args.sampled} codewords"
    else:
        rep = min_distance(code, budget=args.budget)
    if code.k == 0:
        print(f"[{code.n},{code.k}]  zero code: it has no nonzero codeword, "
              "so its minimum distance is undefined")
    elif rep.d is None:
        print(f"[{code.n},{code.k}]  no upper bound: none of the {args.sampled} sampled "
              "messages was nonzero")
    else:
        print(f"[{code.n},{code.k},{rep.d}]  d is {kind}  "
              f"({rep.enumerated} rows in {rep.elapsed:.2f}s)")
    if rep.witness is not None and args.witness:
        tokens = code.spec.field.tokens
        print("witness: " + " ".join(tokens[c] for c in rep.witness))
    for line in enumerator.tsv_lines() if enumerator else []:
        print(line)
    return 0


def cmd_similar(args) -> int:
    F = _field(args)
    a = parse_coeff_string(F, args.f)
    b = parse_coeff_string(F, args.g)
    result = are_similar(a, b, side=args.side, budget=args.budget)
    print(f"{poly_to_terms(a)}  vs  {poly_to_terms(b)}: {result.status}")
    if result.witness is not None:
        print(f"witness u = {poly_coeff_string(result.witness)}  "
              f"({poly_to_terms(result.witness)})")
    return 0


def cmd_search(args) -> int:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val
    for key in ("s", "l", "trials", "seed"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    if args.output is not None:
        overrides["output"] = args.output
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.progress else None
    try:
        config = load_config(args.config, overrides)
        # checked before the first candidate, so a bad path costs no campaign
        folder = os.path.dirname(config.output) or "."
        if config.output and not os.path.isdir(folder):
            raise ValueError(f"cannot write {config.output}: no directory {folder}")
        if os.path.isdir(config.output):
            raise ValueError(f"cannot write {config.output}: is a directory")
        records = list(run_search(config, progress=progress))  # reads the bounds first
    except OSError as exc:  # the config or bounds file
        raise SystemExit(f"error: cannot read {exc.filename}: {exc.strerror}") from None
    text = export_records(records, args.format)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(records)} records to {config.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_table(args) -> int:
    if args.name:
        rows = [_entry(n) for n in args.name]
    elif args.family:
        unknown = set(args.family) - set(families())
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}; "
                             f"known: {families()}")
        rows = [e for f in args.family for e in entries(f)]
    else:
        rows = catalog()
    if args.max_k is not None:
        rows = [e for e in rows if e.k <= args.max_k]
    if not rows:
        raise ValueError("no catalog row matches the selection")
    progress = None if args.quiet else print
    reports = verify_table(
        rows,
        budget=args.budget,
        sample_trials=args.trials,
        seed=args.seed,
        progress=progress,
    )
    ok = sum(1 for r in reports if r.passed is True)
    failed = sum(1 for r in reports if r.passed is False)
    unverified = sum(1 for r in reports if r.passed is None)
    print(f"{ok} ok, {failed} failed, {unverified} reported unverified "
          f"({len(reports)} rows)")
    return 0 if table_ok(reports) else 1


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewqc",
        description="skew quasi-cyclic codes over small fields: construct, "
        "measure, search, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^s - 1 over F[x;theta]")
    _add_field_flag(p)
    p.add_argument("--s", type=_positive_int, required=True)
    p.add_argument("--degree", type=_non_negative_int,
                   help="list monic right divisors of this degree instead of "
                   "complete linear factorizations")
    p.add_argument("--budget", type=_positive_int,
                   help=f"with --degree: max monic candidates scanned (default "
                   f"{DEFAULT_BUDGET}); without: max factorization-tree nodes "
                   f"(default {DEFAULT_OPEN_BUDGET})")
    p.set_defaults(func=cmd_factor, hint="raise --budget")

    p = sub.add_parser("build", help="construct a code and print its structure")
    _add_code_flags(p)
    p.add_argument("--matrix", action="store_true", help="print the generator matrix")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("distance", help="minimum distance of a code")
    _add_code_flags(p)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="exact enumeration allowed up to q^k <= BUDGET messages "
                   "(default %(default)s)")
    p.add_argument("--sampled", type=_positive_int, metavar="TRIALS",
                   help="sampled upper bound instead of exact enumeration")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--witness", action="store_true",
                   help="print a codeword achieving the reported weight")
    p.add_argument("--enumerator", action="store_true",
                   help="print the full weight distribution; its exact scan also "
                   "gives d, so --sampled is not run")
    p.set_defaults(func=cmd_distance, hint="raise --budget or use --sampled N")

    p = sub.add_parser("similar", help="decide similarity of two skew polynomials")
    _add_field_flag(p)
    p.add_argument("--f", required=True, help="first polynomial (coefficient string)")
    p.add_argument("--g", required=True, help="second polynomial (coefficient string)")
    p.add_argument("--side", choices=("right", "left"), default="right")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_OPEN_BUDGET,
                   help="max witnesses tried (default %(default)s)")
    p.set_defaults(func=cmd_similar)

    p = sub.add_parser("search", help="run a seeded generator-tuple campaign")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--s", type=_positive_int)
    p.add_argument("--l", type=_positive_int)
    p.add_argument("--trials", type=_non_negative_int,
                   help="candidate tuples to evaluate (0 runs an empty campaign)")
    p.add_argument("--seed", type=_non_negative_int)
    p.add_argument("--output", help="write records here (default: config output "
                   "path, else stdout)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--progress", action="store_true",
                   help="stream per-candidate lines to stderr")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-table", help="re-check the shipped code catalog")
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--family", action="append",
                      help="restrict to a catalog family (repeatable)")
    rows.add_argument("--name", action="append",
                      help="restrict to specific entries (repeatable)")
    p.add_argument("--max-k", type=int, help="only rows with dimension <= this")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="exact distance when q^k <= BUDGET messages, else sampled "
                   "(default %(default)s)")
    p.add_argument("--trials", type=_positive_int, default=DEFAULT_SAMPLE_TRIALS,
                   help="sampled codewords for rows beyond the budget "
                   "(default %(default)s)")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--quiet", action="store_true", help="summary line only")
    p.set_defaults(func=cmd_verify_table)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "hint", None):
            print(f"hint: {args.hint}", file=sys.stderr)
        return 1
    except (ValueError, ConsistencyError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
