"""Machine verification suites: the identity lemmas, the exact sequence, the
diagram-move compatibilities, and the finite-characteristic experiment.

Each suite returns a Report whose records carry a human-readable anchor for
the identity checked, the expected and computed summaries, and a pass, fail,
info or skip status; skip marks a family of checks that is empty at the
given sizes. Record order is fixed by the input enumeration order, so
identical invocations render byte-identical reports.

Every suite takes two sizes, max_degree and p. The rest are constants: the
lemmas' SPOT_COUNT random cases at total length SPOT_DEGREE, drawn from
SEED; the rho suite's beads up to MAX_BEAD_LEAVES leaves and SAMPLED_TREES
sampled 7-leg trees, drawn from SEED; the exactness suite's kernel check
through KERNEL_MAX_DEGREE; and the residue fields MAXLEN_CHARS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, permutations, product, starmap

from .bases import ell_ranks, enum_words, eta_at, lyndon_columns
from .chains import Chain, Word, check_integer
from .dims import h_dim_total, rank_oracle, witt_total
from .linalg import rank
from .moves import eta, eta_word, fold_l, linear_image
from .quotients import (PrimeCanonical, canonical_l, canonical_prime, choose_head_by_letter,
                        g_map, relation_span)
from .scalars import InputError
from .trees import (SwingWord, as_swap, diagram_class, enumerate_topologies, ihx_expand,
                    relabel_legs, rho, rho_alt, split_positions, tree_chain, validate)


# The suite sizes that max_degree and p leave fixed.
SPOT_DEGREE = 7  # the lemmas' sampled cases have this total length ...
SPOT_COUNT = 40  # ... and there are this many of each
SEED = 20060906  # seeds the lemmas' samples and the rho suite's sampled trees
MAX_BEAD_LEAVES = 4  # the rho suite's breakdown schedules read beads up to this size
SAMPLED_TREES = 150  # the rho suite's sampled 7-leg trees
KERNEL_MAX_DEGREE = 5  # ker(eta) is matched to the left relations through this degree
MAXLEN_CHARS = (3, 5)  # the residue fields of the finite-characteristic experiment


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


def suite_lemmas(max_degree: int = 6, p: int = 3) -> Report:
    """The identity lemmas, exhaustively to total length max_degree and
    sampled at SPOT_DEGREE."""
    report = Report("lemmas")
    rng = random.Random(SEED)

    def cases(parts: int, lo: int):
        """Every tuple of `parts` words with total length lo..max_degree, then
        SPOT_COUNT random ones of total length SPOT_DEGREE."""
        yield from _word_tuples(p, parts, lo, max_degree)
        yield from _sample_tuples(p, parts, SPOT_DEGREE, SPOT_COUNT, rng)

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
                 (eta_kill_holds(w1, w2) for w1, w2 in _word_tuples(p, 2, 3, max_degree)
                  if len(w1) == len(w2)))

    def baker_holds(w1: Word, w2: Word) -> bool:
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        sign = 1 if len(w2) % 2 == 0 else -1
        return eta(Chain.of_word(p, w1) * e2) == (e1 * e2 - e2 * e1).scale(sign)
    report.tally("eta(w1 * eta(w2)) = (-1)^len(w2) * (eta(w1)eta(w2) - eta(w2)eta(w1))",
                 "pairs", starmap(baker_holds, cases(2, 2)))

    def fold_absorbs():
        for n in range(2, max_degree + 1):
            for w in _words(p, n):
                c = Chain.of_word(p, w)
                for j in range(2, n + 1):
                    for i in range(j + 1, n + 1):
                        yield fold_l(i, fold_l(j, c)) == fold_l(i, c)
    report.tally("fold_l(i, fold_l(j, w)) = fold_l(i, w) for i > j >= 2", "cases",
                 fold_absorbs())

    def equal_letter_folds_agree():
        for n in range(2, max_degree + 1):
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
                 starmap(eta_is_scaling, _word_tuples(p, 1, 1, max_degree)))

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
        for n in range(1, min(max_degree, 4) + 1):
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
        image = rank((eta_at(w, columns) for w in words), columns=len(columns))
        if block.rank + image != len(words):
            return False
    return True


def suite_exactness(max_degree: int = 6, p: int = 3) -> Report:
    """The sequence checks over every alphabet 1..p: the composite vanishes,
    ranks match the formula dimensions, the section map scales by the degree,
    and the two equality deciders agree; plus the kernel identification
    through KERNEL_MAX_DEGREE."""
    report = Report("exactness")
    alphabets = range(1, p + 1)
    for p in alphabets:
        for n in range(2, max_degree + 1):
            ell_dies, section_scales, images = [], [], []
            for w in _words(p, n):
                c = Chain.of_word(p, w)
                # g(w) is a chain of words: ell and g_tilde are the canonical maps
                t = g_map(c)
                ell_dies.append(canonical_l(t).is_zero())
                section_scales.append(
                    canonical_prime(t) == canonical_prime(c.scale(n)))
                images.append(t.terms)
            report.tally(f"ell(g(w)) = 0 [n={n}, p={p}]", "words", ell_dies)
            report.tally(f"g_tilde(g(w)) = n * class(w) [n={n}, p={p}]", "words",
                         section_scales)
            h_dim, image = h_dim_total(n, p), rank(images)
            report.add(f"rank(Im g) = h-dimension [n={n}, p={p}]", image == h_dim,
                       str(h_dim), str(image))
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
                       image == span.quotient_dim(),
                       str(span.quotient_dim()), str(image))
    for p in alphabets:
        for n in range(1, KERNEL_MAX_DEGREE + 1):
            ok = kernel_matches_relations(n, p)
            report.add(f"ker(eta) = left relation span [n={n}, p={p}]", ok,
                       "equal row spaces", "equal" if ok else "different")
    for p in alphabets:
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


def suite_rho(max_degree: int = 7, p: int = 2) -> Report:
    """Breakdown-order independence, head/tail independence, and the two
    local move compatibilities, on trees of 3 to max_degree legs. A
    max_degree below 3 reads as 3 and one above 7 as 7: the suite has
    checks for 3 to 7 legs only.

    The head/tail, swap and edge-expansion records read every shape with 3
    to min(legs, 6) legs once, with the distinct letters 1..legs. Every
    tree move and every word map behind a class is positional: it moves
    letters and never reads them, so a class commutes with specialising the
    letters, and agreement at distinct letters carries over to every
    lettering. The sampled 7-leg record letters SAMPLED_TREES trees from
    1..p, where the class space may be zero; then it also checks the zero
    class."""
    report = Report("rho")
    rng = random.Random(SEED)
    max_legs = min(max(3, max_degree), 7)

    def schedules_agree():
        for tail, head in product(range(1, p + 1), repeat=2):
            for beads in _all_bead_tuples(MAX_BEAD_LEAVES, p):
                sw = SwingWord(tail=tail, beads=beads, head=head)
                reference = rho(sw, p)
                for schedule in permutations(split_positions(sw)):
                    yield rho_alt(sw, list(schedule), p) == reference
    report.tally(f"every breakdown schedule reproduces the expansion "
                 f"(beads up to {MAX_BEAD_LEAVES} leaves, p={p})", "schedules",
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
            for _ in range(SAMPLED_TREES):
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
                     f"({SAMPLED_TREES} trees)", "trees", sampled_agree())

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


def suite_maxlen(max_degree: int = 7, p: int = 2) -> Report:
    """Quotient dimensions of the left quotient over the residue fields
    MAXLEN_CHARS, reported against the characteristic-zero dimensions and
    against the claimed vanishing bound; informational, asserts neither
    reading."""
    report = Report("maxlen")
    for q in MAXLEN_CHARS:
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


# suite -> (suite function, smallest accepted max_degree, smallest accepted p).
# Below a minimum at least one exhaustive family of checks that the size
# bounds is empty, and the suite would check no case. The rho suite reads any
# max_degree as 3 to 7 legs, so it takes every one. A few smaller families are
# still empty at these minimums and read SKIP: the lemmas' equal-length pairs
# below max_degree 4, and the rho suite's edge expansions and comparator trees
# below 4 legs.
SUITES = {
    "lemmas": (suite_lemmas, 3, 1),
    "exactness": (suite_exactness, 2, 1),
    "rho": (suite_rho, None, 1),
    "maxlen": (suite_maxlen, 1, 1),
}


def run_suite(name: str, max_degree: int | None = None, p: int | None = None) -> Report:
    """Run a suite at the given sizes; a size left None takes its default."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suite, *minimums = SUITES[name]
    sizes = {"max_degree": max_degree, "p": p}
    for (size, value), minimum in zip(sizes.items(), minimums):
        if value is not None:
            check_integer(value, size)
        if None not in (value, minimum) and value < minimum:
            raise InputError(f"suite {name} needs {size} >= {minimum}; "
                             f"at {value} some of its checks run over no case")
    return suite(**{size: value for size, value in sizes.items() if value is not None})
