"""Command-line front end: parse chains and trees, dispatch computations, run
verification suites, and emit deterministic text or JSON reports.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bases import evenrun_experiment, h_basis, lie_basis, section4_table
from .chains import Chain
from .dims import dimension_report
from .moves import eta, fold_l, fold_prime
from .quotients import canonical_l, canonical_prime
from .scalars import InputError, ResourceLimitError, check_characteristic
from .textio import parse_chain, parse_swingword, render_chain, render_tensor
from .trees import diagram_class, rho, tree_from_json
from .verify import SUITE_NAMES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingwords",
        description="exact word-model computations for acyclic uni-trivalent "
                    "diagram spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, chain=False):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("-p", "--alphabet", type=int, default=None, metavar="P",
                        help="alphabet bound (letters 1..P; default 2, or the "
                             "tree file's own bound)")
        sp.add_argument("--char", type=int, default=None, metavar="Q",
                        help="odd-prime residue characteristic (default: rationals)")
        if chain:
            sp.add_argument("--chain", required=True, help="chain text, e.g. '3*[1,2,1] - 1/2*[2,1,1]'")

    sp = sub.add_parser("eta", help="apply the antisymmetrization map")
    add_common(sp, chain=True)

    sp = sub.add_parser("fold", help="apply a fold move")
    add_common(sp, chain=True)
    sp.add_argument("--kind", choices=("l", "prime"), required=True)
    sp.add_argument("--n", type=int, required=True, metavar="K", help="fold index")

    sp = sub.add_parser("reduce", help="canonical form in a quotient")
    add_common(sp, chain=True)
    sp.add_argument("--space", choices=("l", "prime"), required=True)

    sp = sub.add_parser("rho", help="expand a swing word into a chain")
    add_common(sp)
    sp.add_argument("--swingword", required=True, help="e.g. '<1 | (2 3) | 4>'")

    sp = sub.add_parser("class", help="canonical class of a tree file")
    add_common(sp)
    sp.add_argument("--tree", required=True, metavar="FILE", help="tree JSON file")

    sp = sub.add_parser("dims", help="dimension formulas and rank oracles")
    sp.add_argument("kind", choices=("witt", "necklace", "h"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--multidegree", default=None, help="comma list, e.g. 3,3,3")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check by relation-span rank")
    sp.add_argument("--char", type=int, default=None)
    sp.add_argument("--max-words", type=int, default=None,
                    help="refusal threshold for the oracle's word enumeration")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("enumerate", help="enumerate a basis per multidegree")
    sp.add_argument("--space", choices=("lie", "h"), required=True)
    sp.add_argument("--multidegree", required=True, help="comma list, e.g. 3,3,3")
    sp.add_argument("--format", choices=("text", "json"), default="json")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=SUITE_NAMES, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("section4",
                        help="recompute the degree-9, 9-letter dimension table")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("evenruns", help="even-run predicate experiment")
    sp.add_argument("--multidegree", required=True, help="two-letter list, e.g. 3,5")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        md = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad multidegree {text!r}") from exc
    if not md or any(x < 0 for x in md):
        raise InputError(f"bad multidegree {text!r}")
    return md


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _chain_payload(chain: Chain) -> dict:
    return {"p": chain.p, "chain": render_chain(chain)}


# suite -> (parameter that --max-degree sets, parameter that --p sets); rho
# turns --max-degree into its two leg bounds instead
_VERIFY_PARAMS = {"lemmas": ("max_total", "p"), "exactness": ("max_degree", "p_max"),
                  "rho": (None, "p"), "maxlen": ("max_degree", "p")}


def _run(args) -> int:
    if getattr(args, "char", None) is not None:
        check_characteristic(args.char)
    if hasattr(args, "alphabet") and args.alphabet is not None and args.alphabet < 1:
        raise InputError("alphabet bound must be >= 1")
    alphabet = getattr(args, "alphabet", None) or 2

    if args.command == "eta":
        chain = parse_chain(args.chain, alphabet, args.char)
        result = eta(chain)
        _emit(_chain_payload(result), args.format, [render_chain(result)])
        return 0

    if args.command == "fold":
        chain = parse_chain(args.chain, alphabet, args.char)
        lengths = {len(w) for w in chain.terms}
        if args.n < 2 or (lengths and args.n > max(lengths)):
            print(f"note: fold index {args.n} is out of range for every term; "
                  "the move is the identity there", file=sys.stderr)
        result = fold_l(args.n, chain) if args.kind == "l" else fold_prime(args.n, chain)
        _emit(_chain_payload(result), args.format, [render_chain(result)])
        return 0

    if args.command == "reduce":
        chain = parse_chain(args.chain, alphabet, args.char)
        if args.space == "l":
            lie = canonical_l(chain, args.char)
            payload = {"space": "l", "degree": lie.degree, "method": lie.method,
                       "canonical": render_chain(lie.chain)}
            _emit(payload, args.format, [render_chain(lie.chain)])
        else:
            prime = canonical_prime(chain)
            payload = {"space": "prime", "degree": prime.degree,
                       "canonical": render_tensor(prime.image)}
            _emit(payload, args.format, [render_tensor(prime.image)])
        return 0

    if args.command == "rho":
        sw = parse_swingword(args.swingword)
        result = rho(sw, alphabet)
        _emit(_chain_payload(result), args.format, [render_chain(result)])
        return 0

    if args.command == "class":
        try:
            with open(args.tree, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read tree file: {exc}") from exc
        tree = tree_from_json(text, args.alphabet)
        cls = diagram_class(tree)
        payload = {"degree": cls.degree, "class": render_tensor(cls.image)}
        _emit(payload, args.format, [render_tensor(cls.image)])
        return 0

    if args.command == "dims":
        md = _parse_multidegree(args.multidegree) if args.multidegree else None
        report = dimension_report(args.kind, n=args.n, p=args.p, multidegree=md,
                                  oracle=args.oracle, char=args.char,
                                  max_words=args.max_words)
        _emit(report.to_dict(), args.format,
              [f"{report.query} = {report.value}" +
               (f"  [{report.method}]" if report.method != "formula" else "")])
        return 0

    if args.command == "enumerate":
        md = _parse_multidegree(args.multidegree)
        basis = lie_basis(md) if args.space == "lie" else h_basis(md)
        payload = basis.to_dict()
        lines = [f"{basis.space} basis at multidegree {md}: dimension {len(basis.words)}"]
        lines += ["  " + "".join(str(a) for a in w) for w in basis.words]
        lines.append(f"certificate: {basis.certificate}")
        _emit(payload, args.format, lines)
        return 0

    if args.command == "verify":
        degree_param, p_param = _VERIFY_PARAMS[args.suite]
        params = {}
        if args.max_degree is not None:
            if args.suite == "rho":
                params["max_legs"] = min(max(3, args.max_degree), 7)
                params["exhaustive_legs"] = max(3, min(args.max_degree, 6))
            else:
                params[degree_param] = args.max_degree
        if args.p is not None:
            params[p_param] = args.p
        report = run_suite(args.suite, **params)
        lines = [f"{r.status.upper():4s} | {r.anchor} | expected: {r.expected} | "
                 f"computed: {r.computed}" for r in report.records]
        lines.append(f"suite {report.name}: {report.status.upper()}")
        _emit(report.to_dict(), args.format, lines)
        return report.exit_code

    if args.command == "section4":
        table = section4_table()
        lines = []
        for line in table["lines"]:
            status = "PASS" if line["match"] else "FAIL"
            pattern = ",".join(str(x) for x in line["pattern"])
            lines.append(f"{status} ({pattern}): {line['assignments']} x "
                         f"{line['per_assignment']} = {line['computed']} "
                         f"(printed {line['printed']})")
        status = "PASS" if table["match"] else "FAIL"
        lines.append(f"{status} grand total: {table['grand_total']} "
                     f"(printed {table['printed_total']}, formula {table['formula_total']})")
        _emit(table, args.format, lines)
        return 0 if table["match"] else 1

    if args.command == "evenruns":
        md = _parse_multidegree(args.multidegree)
        result = evenrun_experiment(md)
        lines = [f"multidegree {md}: target dimension {result['target_dimension']}"]
        for v in result["variants"]:
            lines.append(f"INFO {v['variant']}: count {v['count']}, rank {v['rank']}, "
                         f"independent {v['independent']}, spanning {v['spanning']}, "
                         f"matches dimension {v['matches_dimension']}")
        _emit(result, args.format, lines)
        return 0

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print(f"error: {exc}; the residue characteristic divides a scale this "
              "computation inverts, so it needs characteristic zero or a "
              "different prime", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
