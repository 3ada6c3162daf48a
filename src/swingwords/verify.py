"""Machine verification suites: the identity lemmas, the exact sequence, the
diagram-move compatibilities, and the finite-characteristic experiment.

Each suite returns a Report whose records carry a human-readable anchor for
the identity checked, the expected and computed summaries, and a pass, fail,
info or skip status; skip marks a family of checks that is empty at the
given sizes. Record order is fixed by the input enumeration order, so
identical invocations render byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, permutations, product, starmap

from .bases import ell_ranks, enum_words, eta_at, lyndon_columns
from .chains import Chain, Word
from .dims import h_dim_total, rank_oracle, witt_total
from .linalg import RowSpace, row_space
from .moves import eta, eta_word, fold_l, linear_image
from .quotients import (PrimeCanonical, canonical_l, canonical_prime, choose_head_by_letter,
                        g_map, relation_span)
from .scalars import InputError
from .trees import (SwingWord, as_swap, diagram_class, enumerate_topologies, ihx_expand,
                    relabel_legs, rho, rho_alt, split_positions, tree_chain, validate)


@dataclass
class Record:
    anchor: str
    status: str  # pass | fail | info | skip
    expected: str = ""
    computed: str = ""

    def to_dict(self) -> dict:
        return {"anchor": self.anchor, "status": self.status,
                "expected": self.expected, "computed": self.computed}


@dataclass
class Report:
    name: str
    records: list[Record] = field(default_factory=list)

    def add(self, anchor: str, ok: bool, expected: str, computed: str) -> None:
        self.records.append(Record(anchor, "pass" if ok else "fail", expected, computed))

    def tally(self, anchor: str, noun: str, outcomes) -> None:
        """Record a family of checks, one boolean per case: fail if any case
        fails, skip if the family is empty at this size, pass otherwise."""
        total = bad = 0
        for ok in outcomes:
            total += 1
            bad += not ok
        status = "fail" if bad else "pass" if total else "skip"
        self.records.append(Record(anchor, status, f"0 failures over {total} {noun}",
                                   f"{bad} failures"))

    def info(self, anchor: str, expected: str, computed: str) -> None:
        self.records.append(Record(anchor, "info", expected, computed))

    @property
    def status(self) -> str:
        return "fail" if any(r.status == "fail" for r in self.records) else "pass"

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "pass" else 1

    def to_dict(self) -> dict:
        return {"suite": self.name, "status": self.status,
                "records": [r.to_dict() for r in self.records]}


def _words(p: int, n: int):
    return product(range(1, p + 1), repeat=n)


def _word_tuples(p: int, parts: int, lo: int, hi: int):
    """Every tuple of `parts` nonempty words whose lengths sum to lo..hi, by
    total, then by the lengths, then lexicographically."""
    for total in range(lo, hi + 1):
        for cuts in combinations(range(1, total), parts - 1):
            bounds = (0, *cuts, total)
            yield from product(*(_words(p, b - a) for a, b in zip(bounds, bounds[1:])))


def _sample_tuples(p: int, parts: int, total: int, count: int, rng: random.Random):
    """count random tuples of `parts` nonempty words with lengths summing to
    total: the lengths are drawn first, then the letters."""
    for _ in range(count):
        lengths, left = [], total
        for rest in range(parts - 1, 0, -1):
            lengths.append(rng.randint(1, left - rest))
            left -= lengths[-1]
        lengths.append(left)
        yield tuple(tuple(rng.randint(1, p) for _ in range(n)) for n in lengths)


def suite_lemmas(max_total: int = 6, p: int = 3, spot_degree: int = 7,
                 spot_count: int = 40, seed: int = 20060906) -> Report:
    """The identity lemmas, exhaustively to max_total and sampled at
    spot_degree."""
    report = Report("lemmas")
    rng = random.Random(seed)

    def cases(parts: int, lo: int):
        """Every tuple of `parts` words with total length lo..max_total, then
        spot_count random ones of total length spot_degree."""
        yield from _word_tuples(p, parts, lo, max_total)
        yield from _sample_tuples(p, parts, spot_degree, spot_count, rng)

    def eta_scaling_holds(w: Word) -> bool:
        n = len(w)
        c = Chain.of_word(p, w)
        return eta(eta(c)) == eta(c).scale(n if (n - 1) % 2 == 0 else -n)
    report.tally("eta(eta(w)) = (-1)^(n-1) * n * eta(w)", "words",
                 starmap(eta_scaling_holds, cases(1, 1)))

    def eta_kill_holds(w1: Word, w2: Word) -> bool:
        # general form; the symmetrized eta vanishes exactly on equal lengths
        n1, n2 = len(w1), len(w2)
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        sign = 1 if (n1 + n2 - 1) % 2 == 0 else -1
        return eta(e1 * e2 + e2 * e1) == (e1 * e2 - e2 * e1).scale(sign * (n1 - n2))
    report.tally("eta(eta(w1)eta(w2) + eta(w2)eta(w1)) = "
                 "(-1)^(n1+n2-1) * (n1-n2) * (eta(w1)eta(w2) - eta(w2)eta(w1))",
                 "pairs", starmap(eta_kill_holds, cases(2, 3)))
    # at equal lengths the general form reads eta(...) = 0
    report.tally("eta(eta(w1)eta(w2) + eta(w2)eta(w1)) = 0 for equal lengths", "pairs",
                 (eta_kill_holds(w1, w2) for w1, w2 in _word_tuples(p, 2, 3, max_total)
                  if len(w1) == len(w2)))

    def baker_holds(w1: Word, w2: Word) -> bool:
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        sign = 1 if len(w2) % 2 == 0 else -1
        return eta(Chain.of_word(p, w1) * e2) == (e1 * e2 - e2 * e1).scale(sign)
    report.tally("eta(w1 * eta(w2)) = (-1)^len(w2) * (eta(w1)eta(w2) - eta(w2)eta(w1))",
                 "pairs", starmap(baker_holds, cases(2, 2)))

    def fold_absorbs():
        for n in range(2, max_total + 1):
            for w in _words(p, n):
                c = Chain.of_word(p, w)
                for j in range(2, n + 1):
                    for i in range(j + 1, n + 1):
                        yield fold_l(i, fold_l(j, c)) == fold_l(i, c)
    report.tally("fold_l(i, fold_l(j, w)) = fold_l(i, w) for i > j >= 2", "cases",
                 fold_absorbs())

    def equal_letter_folds_agree():
        for n in range(2, max_total + 1):
            for w in _words(p, n):
                c = Chain.of_word(p, w)
                for i in range(1, n):
                    if w[i - 1] == w[i]:
                        yield canonical_l(fold_l(i, c)) == canonical_l(fold_l(i + 1, c))
    report.tally("fold_l(i, w) = fold_l(i+1, w) when a_i = a_{i+1}, in the left quotient",
                 "cases", equal_letter_folds_agree())

    def head_indep_holds(w1: Word, w2: Word) -> bool:
        n = len(w1) + len(w2)
        sign = 1 if (n - 1) % 2 == 0 else -1
        lhs = canonical_l(Chain.of_word(p, w1) * eta(Chain.of_word(p, w2)))
        rhs = canonical_l((Chain.of_word(p, w2) * eta(Chain.of_word(p, w1))).scale(sign))
        return lhs == rhs
    report.tally("w1*eta(w2) = (-1)^(n-1) * w2*eta(w1) in the left quotient", "pairs",
                 starmap(head_indep_holds, cases(2, 2)))

    def gen_head_holds(w1: Word, w2: Word, w3: Word) -> bool:
        # three-factor form, with Baker's (-1)^len(w2) correcting the printed sign
        sign = 1 if (len(w1) + len(w3)) % 2 == 0 else -1
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        lhs = canonical_l(Chain.of_word(p, w1) * e2 * eta(Chain.of_word(p, w3)))
        rhs = canonical_l((Chain.of_word(p, w3) * (e2 * e1 - e1 * e2)).scale(sign))
        return lhs == rhs
    report.tally("w1*eta(w2)*eta(w3) = (-1)^(n1+n3) * w3*(eta(w2)eta(w1) - eta(w1)eta(w2))",
                 "triples", starmap(gen_head_holds, cases(3, 3)))

    def eta_is_scaling(w: Word) -> bool:
        n = len(w)
        c = Chain.of_word(p, w)
        return canonical_l(eta(c)) == canonical_l(c.scale(n if (n - 1) % 2 == 0 else -n))
    report.tally("eta(w) = (-1)^(n-1) * n * w in the left quotient", "words",
                 starmap(eta_is_scaling, _word_tuples(p, 1, 1, max_total)))

    prime_nonzero = []

    def dying_cases():
        for nw in range(1, 4):
            for w in _words(2, nw):
                base = Chain.of_word(2, w) * eta(Chain.of_word(2, w))
                for nwp in range(0, 3):
                    for wp in _words(2, nwp):
                        v = base * Chain.of_word(2, wp)
                        yield canonical_l(v).is_zero()
                        if nwp >= 1:
                            yield canonical_prime(v).is_zero()
                        elif not canonical_prime(v).is_zero():
                            prime_nonzero.append(w)
    report.tally("w*eta(w)*w' dies: always in the left quotient, and in the primed "
                 "quotient whenever w' is nonempty", "cases", dying_cases())
    report.info("w*eta(w) with empty w' in the primed quotient (boundary case, "
                "not asserted)",
                "nonzero exactly when eta(w) != 0",
                f"nonzero for {len(prime_nonzero)} of the tested words")

    def rechosen_heads():
        for n in range(2, 7):
            w = tuple(range(1, n + 1))
            c = Chain.of_word(n, w)
            for m in range(2, n + 1):
                folded = fold_l(m, c)
                for i in range(1, n):
                    yield choose_head_by_letter(folded, w[i - 1]) == fold_l(i, c)
    report.tally("fold then re-choosing letter a_i as head equals fold_l(i, w)", "cases",
                 rechosen_heads())

    def round_trips():
        for n in range(2, 7):
            w = tuple(range(1, n + 1))
            c = Chain.of_word(n, w)
            for trial in range(6):
                state = c
                for _ in range(rng.randint(1, 5)):
                    state = fold_l(rng.randint(2, n), state)
                yield choose_head_by_letter(state, w[0]) == c
    report.tally("random folds then choosing the original head recovers the word",
                 "round trips", round_trips())

    def eta_classes_match():
        for n in range(1, min(max_total, 4) + 1):
            group = list(_words(p, n))
            projected = {w: canonical_l(Chain.of_word(p, w)) for w in group}
            etas = {w: eta(Chain.of_word(p, w)) for w in group}
            for a in group:
                for b in group:
                    yield (etas[a] == etas[b]) == (projected[a] == projected[b])
    report.tally("eta(w1) = eta(w2) iff the canonical forms agree", "pairs",
                 eta_classes_match())
    return report


def kernel_matches_relations(n: int, p: int) -> bool:
    """ker(eta) on degree-n chains equals the left relation span, block by
    multidegree: every stored relation row dies under eta, so the span lies
    in the kernel, and the span's rank plus the rank of eta's image is the
    number of words, so the two have one dimension. eta's image lies in
    Lie_n, so its rows are ranked at the Lyndon words of the block only, and
    built there only (`bases.eta_at`), as in `bases.lie_basis`."""
    for md, block in relation_span(n, p, "l").blocks.items():
        if any(linear_image(row, eta_word) for row in block.pivots.values()):
            return False
        words = enum_words(md)
        columns = lyndon_columns(md)
        image = row_space(eta_at(w, columns) for w in words)
        if block.rank + image.rank != len(words):
            return False
    return True


def suite_exactness(max_degree: int = 6, p_max: int = 3,
                    kernel_max_degree: int = 5) -> Report:
    """The sequence checks: the composite vanishes, ranks match the formula
    dimensions, the section map scales by the degree, and the two equality
    deciders agree; plus the kernel identification at lower degree."""
    report = Report("exactness")
    for p in range(1, p_max + 1):
        for n in range(2, max_degree + 1):
            ell_dies, section_scales = [], []
            image = RowSpace()
            for w in _words(p, n):
                c = Chain.of_word(p, w)
                # g(w) is a chain of words: ell and g_tilde are the canonical maps
                t = g_map(c)
                ell_dies.append(canonical_l(t).is_zero())
                section_scales.append(
                    canonical_prime(t) == canonical_prime(c.scale(n)))
                image.insert(dict(t.terms))
            report.tally(f"ell(g(w)) = 0 [n={n}, p={p}]", "words", ell_dies)
            report.tally(f"g_tilde(g(w)) = n * class(w) [n={n}, p={p}]", "words",
                         section_scales)
            h_dim = h_dim_total(n, p)
            report.add(f"rank(Im g) = h-dimension [n={n}, p={p}]", image.rank == h_dim,
                       str(h_dim), str(image.rank))
            span = relation_span(n, p, "prime")
            # rows of different multidegrees share no column, so the ranks add
            # over the span's blocks, one per multidegree of degree n
            ambient, ell_image = map(sum, zip(*map(ell_ranks, span.blocks)))
            report.add(f"tensor-space ambient rank [n={n}, p={p}]",
                       ambient == p * witt_total(n - 1, p),
                       str(p * witt_total(n - 1, p)), str(ambient))
            ker_ell = ambient - ell_image
            report.add(f"dim ker ell = h-dimension [n={n}, p={p}]", ker_ell == h_dim,
                       str(h_dim), str(ker_ell))
            dead = all(canonical_prime(c).is_zero() for c in span.basis_chains())
            report.add(f"primed relations die under the canonical map [n={n}, p={p}]",
                       dead, "all zero", "all zero" if dead else "nonzero found")
            report.add(f"canonical rank equals the span quotient [n={n}, p={p}]",
                       image.rank == span.quotient_dim(),
                       str(span.quotient_dim()), str(image.rank))
    for p in range(1, p_max + 1):
        for n in range(1, kernel_max_degree + 1):
            ok = kernel_matches_relations(n, p)
            report.add(f"ker(eta) = left relation span [n={n}, p={p}]", ok,
                       "equal row spaces", "equal" if ok else "different")
    for p in range(1, p_max + 1):
        for n in range(1, max_degree + 1):
            witt = witt_total(n, p)
            oracle_l = rank_oracle(n, p, "l")
            report.add(f"rank oracle, left family [n={n}, p={p}]", oracle_l == witt,
                       str(witt), str(oracle_l))
            h_dim = h_dim_total(n, p)
            oracle_h = rank_oracle(n, p, "prime")
            report.add(f"rank oracle, primed family [n={n}, p={p}]", oracle_h == h_dim,
                       str(h_dim), str(oracle_h))
    return report


def _all_magma_terms(leaves: int, p: int):
    if leaves == 1:
        return list(range(1, p + 1))
    return [(left, right) for k in range(1, leaves) for left in _all_magma_terms(k, p)
            for right in _all_magma_terms(leaves - k, p)]


def _all_bead_tuples(total: int, p: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for bead in _all_magma_terms(first, p):
            for rest in _all_bead_tuples(total - first, p):
                yield (bead,) + rest


def suite_rho(max_bead_leaves: int = 4, max_legs: int = 7, p: int = 2,
              samples_at_max: int = 150, seed: int = 20060906) -> Report:
    """Breakdown-order independence, head/tail independence, and the two
    local move compatibilities.

    The head/tail, swap and edge-expansion records read every shape with 3
    to min(max_legs, 6) legs once, with the distinct letters 1..legs. Every
    tree move and every word map behind a class is positional: it moves
    letters and never reads them, so a class commutes with specialising the
    letters, and agreement at distinct letters carries over to every
    lettering. The sampled 7-leg record letters its trees from 1..p, where
    the class space may be zero; then it also checks the zero class."""
    report = Report("rho")
    rng = random.Random(seed)

    def schedules_agree():
        for tail, head in product(range(1, p + 1), repeat=2):
            for beads in _all_bead_tuples(max_bead_leaves, p):
                sw = SwingWord(tail=tail, beads=beads, head=head)
                reference = rho(sw, p)
                for schedule in permutations(split_positions(sw)):
                    yield rho_alt(sw, list(schedule), p) == reference
    report.tally(f"every breakdown schedule reproduces the expansion "
                 f"(beads up to {max_bead_leaves} leaves, p={p})", "schedules",
                 schedules_agree())

    shapes = {legs: enumerate_topologies(legs) for legs in range(3, max_legs + 1)}

    # one walk over the shapes: each tree's first head/tail choice is
    # to_vertebrate's, so its class is the tree's diagram class, the base that
    # its other choices, its orientation swaps and its edge expansions match
    distinct_legs = min(max_legs, 6)
    agreements, swaps, expansions = [], [], []
    for legs in range(3, distinct_legs + 1):
        for shape in shapes[legs]:
            validate(shape)  # relabel_legs passes the flag on
            tree = relabel_legs(shape, range(1, legs + 1), legs)
            leg_ids = tree.leg_vertices()
            classes = [canonical_prime(tree_chain(tree, h, t))
                       for h in leg_ids for t in leg_ids if h != t]
            base = classes[0]
            agreements += (c == base for c in classes)
            for vertex in sorted(tree.cyclic):
                swapped, sign = as_swap(tree, vertex)
                swaps.append(canonical_prime(tree_chain(swapped).scale(sign)) == base)
            for index, (u, v) in enumerate(tree.edges):
                if u in tree.legs or v in tree.legs:
                    continue
                # canonical_prime is linear, so the sum of the parts'
                # chains has the sum of their classes
                merged = sum((tree_chain(part).scale(coeff)
                              for part, coeff in ihx_expand(tree, index)), Chain.zero(legs))
                expansions.append(canonical_prime(merged) == base)
    report.tally(f"head/tail choices agree on every shape through {distinct_legs} legs "
                 "(distinct letters)", "choices", agreements)

    if max_legs >= 7:
        dim7 = rank_oracle(7, p, "prime")
        formula7 = h_dim_total(7, p)
        report.add(f"7-leg class space dimension over p={p} (oracle vs formula)",
                   dim7 == formula7, str(formula7), str(dim7))
        shapes7 = shapes[7]

        def sampled_agree():
            for _ in range(samples_at_max):
                shape = shapes7[rng.randrange(len(shapes7))]
                letters = tuple(rng.randint(1, p) for _ in range(7))
                tree = relabel_legs(shape, letters, p)
                leg_ids = tree.leg_vertices()
                pairs = [(h, t) for h in leg_ids for t in leg_ids if h != t]
                classes = [canonical_prime(tree_chain(tree, h, t))
                           for h, t in rng.sample(pairs, 4)]
                # one outcome per tree; a zero space also needs the zero class
                yield (all(c == classes[0] for c in classes)
                       and (dim7 != 0 or classes[0].is_zero()))
        report.tally(f"sampled 7-leg trees agree across head/tail choices "
                     f"({samples_at_max} trees)", "trees", sampled_agree())

    report.tally(f"orientation swaps negate the class (through {distinct_legs} legs, "
                 "distinct letters)", "swaps", swaps)
    report.tally(f"internal-edge expansions sum to the class (through {distinct_legs} "
                 "legs, distinct letters)", "expansions", expansions)

    report.tally("word to swing to word round trip is the identity", "words",
                 (rho(SwingWord(tail=w[0], beads=tuple(w[1:-1]), head=w[-1]), p)
                  == Chain.of_word(p, w) for n in range(2, 7) for w in _words(p, n)))

    def comparator_matches():
        for legs in (4, 5):
            for shape in shapes.get(legs, [])[:3]:
                tree = relabel_legs(shape, [1 + (i % p) for i in range(legs)], p)
                key = diagram_class(tree)
                rebuilt = PrimeCanonical(legs, key.image)
                yield key == rebuilt and hash(key) == hash(rebuilt)
    report.tally("scaled comparator matches the canonical image", "trees",
                 comparator_matches())
    return report


def suite_maxlen(chars: tuple[int, ...] = (3, 5), p: int = 2,
                 max_degree: int = 7) -> Report:
    """Quotient dimensions of the left quotient over small residue fields,
    reported against the characteristic-zero dimensions and against the
    claimed vanishing bound; informational, asserts neither reading."""
    report = Report("maxlen")
    for q in chars:
        for n in range(1, max_degree + 1):
            dim_q = rank_oracle(n, p, "l", char=q)
            witt = witt_total(n, p)
            beyond = n > q + 1
            report.info(
                f"left quotient dimension over F_{q} [n={n}, p={p}]",
                f"char-0 dimension {witt}; claimed bound predicts "
                f"{'0' if beyond else 'no constraint'}",
                f"{dim_q} (matches char-0: {dim_q == witt}; "
                f"matches claimed bound: {(dim_q == 0) == beyond if beyond else 'n/a'})")
    return report


# suite -> (suite function, size parameter -> smallest accepted value, the
# parameter that the CLI's --max-degree sets, the one that its --p sets).
# Below a minimum at least one exhaustive family of checks that the parameter
# bounds is empty, and the suite would check no case. A few smaller families
# are still empty at these minimums and read SKIP: the lemmas' equal-length
# pairs below max_total 4, and the rho suite's edge expansions and comparator
# trees below 4 legs.
SUITES = {
    "lemmas": (suite_lemmas, {"max_total": 3, "p": 1}, "max_total", "p"),
    "exactness": (suite_exactness, {"max_degree": 2, "p_max": 1, "kernel_max_degree": 1},
                  "max_degree", "p_max"),
    "rho": (suite_rho, {"max_bead_leaves": 1, "max_legs": 3, "p": 1}, "max_legs", "p"),
    "maxlen": (suite_maxlen, {"p": 1, "max_degree": 1}, "max_degree", "p"),
}


def run_suite(name: str, **params) -> Report:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suite, minimums, _, _ = SUITES[name]
    for param, minimum in minimums.items():
        if params.get(param, minimum) < minimum:
            raise InputError(f"suite {name} needs {param} >= {minimum}; "
                             f"at {params[param]} some of its checks run over no case")
    return suite(**params)
