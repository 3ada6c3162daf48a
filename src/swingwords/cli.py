"""Command-line front end: parse chains and trees, dispatch computations, run
verification suites, and emit deterministic text or JSON reports.

Exit codes: 0 success, 1 verification failure (a failed suite record, or a
certificate or rank cross-check that disagrees), 2 input error (including
input nested too deeply to read).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bases import evenrun_experiment, h_basis, lie_basis, section4_table
from .chains import Chain, check_alphabet, check_multidegree
from .dims import dimension_report
from .moves import eta, fold_l, fold_prime
from .quotients import canonical_l, canonical_prime
from .scalars import InputError, ResourceLimitError
from .textio import parse_chain, parse_swingword, render_chain, render_tensor
from .trees import diagram_class, rho, tree_from_json
from .verify import SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingwords",
        description="exact word-model computations for acyclic uni-trivalent "
                    "diagram spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, chain=False):
        sp.add_argument("-p", "--alphabet", type=int, default=None, metavar="P",
                        help="alphabet bound (letters 1..P; default 2, or the "
                             "tree file's own bound)")
        if chain:
            sp.add_argument("--char", type=int, default=None, metavar="Q",
                            help="odd-prime residue characteristic (default: rationals)")
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
    sp.add_argument("--char", type=int, default=None, metavar="Q",
                    help="odd-prime residue characteristic of the rank oracle")

    sp = sub.add_parser("enumerate", help="enumerate a basis per multidegree")
    sp.add_argument("--space", choices=("lie", "h"), required=True)
    sp.add_argument("--multidegree", required=True, help="comma list, e.g. 3,3,3")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=tuple(SUITES), required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)

    sp = sub.add_parser("section4",
                        help="recompute the degree-9, 9-letter dimension table")

    sp = sub.add_parser("evenruns", help="even-run predicate experiment")
    sp.add_argument("--multidegree", required=True, help="two-letter list, e.g. 3,5")

    for name, sp in sub.choices.items():
        sp.add_argument("--format", choices=("text", "json"),
                        default="json" if name == "enumerate" else "text")
    return parser


def _parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        md = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad multidegree {text!r}") from exc
    return check_multidegree(md)


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _chain_output(chain: Chain) -> tuple[dict, list[str], int]:
    text = render_chain(chain)
    return {"p": chain.p, "chain": text}, [text], 0


def _run(args) -> tuple[dict, list[str], int]:
    """Compute one command: its JSON payload, its text lines and its exit
    code. Each result is rendered once, for both formats."""
    # --char is checked by the library function that reads it
    if getattr(args, "alphabet", None) is not None:
        check_alphabet(args.alphabet)
    alphabet = getattr(args, "alphabet", None) or 2
    if hasattr(args, "chain"):
        chain = parse_chain(args.chain, alphabet, args.char)

    if args.command == "eta":
        return _chain_output(eta(chain))

    if args.command == "fold":
        # fold first, so a rejected index fails before the note is printed
        result = fold_l(args.n, chain) if args.kind == "l" else fold_prime(args.n, chain)
        lengths = {len(w) for w in chain.terms}
        # the primed fold kills a single letter at every index
        if ((args.n < 2 or (lengths and args.n > max(lengths)))
                and (args.kind == "l" or 1 not in lengths)):
            print(f"note: fold index {args.n} is out of range for every term; "
                  "the move is the identity there", file=sys.stderr)
        return _chain_output(result)

    if args.command == "reduce":
        if args.space == "l":
            lie = canonical_l(chain, args.char)
            text = render_chain(lie.chain)
            return ({"space": "l", "degree": lie.degree, "method": lie.method,
                     "canonical": text}, [text], 0)
        prime = canonical_prime(chain)
        text = render_tensor(prime.image)
        return {"space": "prime", "degree": prime.degree, "canonical": text}, [text], 0

    if args.command == "rho":
        return _chain_output(rho(parse_swingword(args.swingword), alphabet))

    if args.command == "class":
        try:
            with open(args.tree, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read tree file: {exc}") from exc
        cls = diagram_class(tree_from_json(text, args.alphabet))
        text = render_tensor(cls.image)
        return {"degree": cls.degree, "class": text}, [text], 0

    if args.command == "dims":
        md = _parse_multidegree(args.multidegree) if args.multidegree else None
        report = dimension_report(args.kind, n=args.n, p=args.p, multidegree=md,
                                  oracle=args.oracle, char=args.char)
        method = f"  [{report.method}]" if report.method != "formula" else ""
        return report.to_dict(), [f"{report.query} = {report.value}{method}"], 0

    if args.command == "enumerate":
        md = _parse_multidegree(args.multidegree)
        basis = lie_basis(md) if args.space == "lie" else h_basis(md)
        lines = [f"{basis.space} basis at multidegree {md}: dimension {len(basis.words)}"]
        lines += ["  " + "".join(str(a) for a in w) for w in basis.words]
        lines.append(f"certificate: {basis.certificate}")
        return basis.to_dict(), lines, 0

    if args.command == "verify":
        report = run_suite(args.suite, args.max_degree, args.p)
        lines = [f"{r.status.upper():4s} | {r.anchor} | expected: {r.expected} | "
                 f"computed: {r.computed}" for r in report.records]
        lines.append(f"suite {report.name}: {report.status.upper()}")
        return report.to_dict(), lines, report.exit_code

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
        return table, lines, 0 if table["match"] else 1

    # evenruns: argparse admits no other command
    md = _parse_multidegree(args.multidegree)
    result = evenrun_experiment(md)
    lines = [f"multidegree {md}: target dimension {result['target_dimension']}"]
    for v in result["variants"]:
        lines.append(f"INFO {v['variant']}: count {v['count']}, rank {v['rank']}, "
                     f"independent {v['independent']}, spanning {v['spanning']}, "
                     f"matches dimension {v['matches_dimension']}")
    return result, lines, 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--opt=--" as an empty list, not as the string "--"
    if [] in vars(args).values():
        print("error: '--' is not a value for any option", file=sys.stderr)
        return 2
    try:
        payload, lines, code = _run(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: input nested too deeply; nesting depth is limited to about "
              f"{sys.getrecursionlimit()} levels", file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print(f"error: {exc}; the residue characteristic divides a scale this "
              "computation inverts, so it needs characteristic zero or a "
              "different prime", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a certificate or cross-check disagreed: a verification failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
