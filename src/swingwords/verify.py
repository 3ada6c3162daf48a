"""Machine verification suites: the identity lemmas, the exact sequence, the
diagram-move compatibilities, and the finite-characteristic experiment.

Each suite returns a Report whose records carry a human-readable anchor for
the identity checked, the expected and computed summaries, and a pass, fail,
or info status. Record order is fixed by the input enumeration order, so
identical invocations render byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations, product

from .bases import ell_ranks
from .chains import Chain, Word, accumulate
from .dims import h_dim_total, rank_oracle, witt_total
from .linalg import RowSpace, kernel_basis
from .moves import eta, eta_word, fold_l
from .quotients import (canonical_l, canonical_prime, choose_head_by_letter, g_image_key,
                        g_map, g_tilde, ell_map, relation_span)
from .scalars import InputError
from .trees import (Vertebrate, as_swap, diagram_class, enumerate_topologies,
                    ihx_expand, read_swingword, relabel_legs, rho, rho_alt,
                    split_positions, to_vertebrate)

SUITE_NAMES = ("lemmas", "exactness", "rho", "maxlen")


@dataclass
class Record:
    anchor: str
    status: str  # pass | fail | info
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


def _word_pairs(p: int, total: int):
    for n1 in range(1, total):
        for w1 in _words(p, n1):
            for w2 in _words(p, total - n1):
                yield w1, w2


def _sample_pairs(p: int, total: int, count: int, rng: random.Random):
    for _ in range(count):
        n1 = rng.randint(1, total - 1)
        w1 = tuple(rng.randint(1, p) for _ in range(n1))
        w2 = tuple(rng.randint(1, p) for _ in range(total - n1))
        yield w1, w2


def suite_lemmas(max_total: int = 6, p: int = 3, spot_degree: int = 7,
                 spot_count: int = 40, seed: int = 20060906) -> Report:
    """The identity lemmas, exhaustively to max_total and sampled at
    spot_degree."""
    report = Report("lemmas")
    rng = random.Random(seed)

    def eta_scaling_holds(w: Word) -> bool:
        n = len(w)
        c = Chain.of_word(p, w)
        return eta(eta(c)) == eta(c).scale(n if (n - 1) % 2 == 0 else -n)

    total = bad = 0
    for n in range(1, max_total + 1):
        for w in _words(p, n):
            total += 1
            bad += not eta_scaling_holds(w)
    for _ in range(spot_count):
        w = tuple(rng.randint(1, p) for _ in range(spot_degree))
        total += 1
        bad += not eta_scaling_holds(w)
    report.add("eta(eta(w)) = (-1)^(n-1) * n * eta(w)", bad == 0,
               f"0 failures over {total} words", f"{bad} failures")

    def eta_kill_holds(w1: Word, w2: Word) -> bool:
        # general form; the symmetrized eta vanishes exactly on equal lengths
        n1, n2 = len(w1), len(w2)
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        sign = 1 if (n1 + n2 - 1) % 2 == 0 else -1
        return eta(e1 * e2 + e2 * e1) == (e1 * e2 - e2 * e1).scale(sign * (n1 - n2))

    total = bad = 0
    zero_total = zero_bad = 0
    for s in range(3, max_total + 1):
        for w1, w2 in _word_pairs(p, s):
            total += 1
            bad += not eta_kill_holds(w1, w2)
            if len(w1) == len(w2):
                zero_total += 1
                e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
                zero_bad += not eta(e1 * e2 + e2 * e1).is_zero()
    for w1, w2 in _sample_pairs(p, spot_degree, spot_count, rng):
        total += 1
        bad += not eta_kill_holds(w1, w2)
    report.add("eta(eta(w1)eta(w2) + eta(w2)eta(w1)) = "
               "(-1)^(n1+n2-1) * (n1-n2) * (eta(w1)eta(w2) - eta(w2)eta(w1))",
               bad == 0, f"0 failures over {total} pairs", f"{bad} failures")
    report.add("eta(eta(w1)eta(w2) + eta(w2)eta(w1)) = 0 for equal lengths",
               zero_bad == 0, f"0 failures over {zero_total} pairs",
               f"{zero_bad} failures")

    def baker_holds(w1: Word, w2: Word) -> bool:
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        sign = 1 if len(w2) % 2 == 0 else -1
        return eta(Chain.of_word(p, w1) * e2) == (e1 * e2 - e2 * e1).scale(sign)

    total = bad = 0
    for s in range(2, max_total + 1):
        for w1, w2 in _word_pairs(p, s):
            total += 1
            bad += not baker_holds(w1, w2)
    for w1, w2 in _sample_pairs(p, spot_degree, spot_count, rng):
        total += 1
        bad += not baker_holds(w1, w2)
    report.add("eta(w1 * eta(w2)) = (-1)^len(w2) * (eta(w1)eta(w2) - eta(w2)eta(w1))",
               bad == 0, f"0 failures over {total} pairs", f"{bad} failures")

    total = bad = 0
    for n in range(2, max_total + 1):
        for w in _words(p, n):
            c = Chain.of_word(p, w)
            for j in range(2, n + 1):
                for i in range(j + 1, n + 1):
                    total += 1
                    bad += fold_l(i, fold_l(j, c)) != fold_l(i, c)
    report.add("fold_l(i, fold_l(j, w)) = fold_l(i, w) for i > j >= 2", bad == 0,
               f"0 failures over {total} cases", f"{bad} failures")

    total = bad = 0
    for n in range(2, max_total + 1):
        for w in _words(p, n):
            c = Chain.of_word(p, w)
            for i in range(1, n):
                if w[i - 1] != w[i]:
                    continue
                total += 1
                lhs = canonical_l(fold_l(i, c))
                rhs = canonical_l(fold_l(i + 1, c))
                bad += lhs != rhs
    report.add("fold_l(i, w) = fold_l(i+1, w) when a_i = a_{i+1}, in the left quotient",
               bad == 0, f"0 failures over {total} cases", f"{bad} failures")

    def head_indep_holds(w1: Word, w2: Word) -> bool:
        n = len(w1) + len(w2)
        sign = 1 if (n - 1) % 2 == 0 else -1
        lhs = canonical_l(Chain.of_word(p, w1) * eta(Chain.of_word(p, w2)))
        rhs = canonical_l((Chain.of_word(p, w2) * eta(Chain.of_word(p, w1))).scale(sign))
        return lhs == rhs

    total = bad = 0
    for s in range(2, max_total + 1):
        for w1, w2 in _word_pairs(p, s):
            total += 1
            bad += not head_indep_holds(w1, w2)
    for w1, w2 in _sample_pairs(p, spot_degree, spot_count, rng):
        total += 1
        bad += not head_indep_holds(w1, w2)
    report.add("w1*eta(w2) = (-1)^(n-1) * w2*eta(w1) in the left quotient", bad == 0,
               f"0 failures over {total} pairs", f"{bad} failures")

    def gen_head_holds(w1: Word, w2: Word, w3: Word) -> bool:
        # three-factor form, with Baker's (-1)^len(w2) correcting the printed sign
        sign = 1 if (len(w1) + len(w3)) % 2 == 0 else -1
        e1, e2 = eta(Chain.of_word(p, w1)), eta(Chain.of_word(p, w2))
        lhs = canonical_l(Chain.of_word(p, w1) * e2 * eta(Chain.of_word(p, w3)))
        rhs = canonical_l((Chain.of_word(p, w3) * (e2 * e1 - e1 * e2)).scale(sign))
        return lhs == rhs

    total = bad = 0
    for s in range(3, max_total + 1):
        for n1 in range(1, s - 1):
            for n2 in range(1, s - n1):
                for w1 in _words(p, n1):
                    for w2 in _words(p, n2):
                        for w3 in _words(p, s - n1 - n2):
                            total += 1
                            bad += not gen_head_holds(w1, w2, w3)
    for _ in range(spot_count):
        n1 = rng.randint(1, spot_degree - 2)
        n2 = rng.randint(1, spot_degree - n1 - 1)
        w1 = tuple(rng.randint(1, p) for _ in range(n1))
        w2 = tuple(rng.randint(1, p) for _ in range(n2))
        w3 = tuple(rng.randint(1, p) for _ in range(spot_degree - n1 - n2))
        total += 1
        bad += not gen_head_holds(w1, w2, w3)
    report.add("w1*eta(w2)*eta(w3) = (-1)^(n1+n3) * w3*(eta(w2)eta(w1) - eta(w1)eta(w2))",
               bad == 0, f"0 failures over {total} triples", f"{bad} failures")

    total = bad = 0
    for n in range(1, max_total + 1):
        for w in _words(p, n):
            total += 1
            c = Chain.of_word(p, w)
            lhs = canonical_l(eta(c))
            rhs = canonical_l(c.scale(n if (n - 1) % 2 == 0 else -n))
            bad += lhs != rhs
    report.add("eta(w) = (-1)^(n-1) * n * w in the left quotient", bad == 0,
               f"0 failures over {total} words", f"{bad} failures")

    total = bad = 0
    prime_nonzero = []
    for nw in range(1, 4):
        for w in _words(2, nw):
            base = Chain.of_word(2, w) * eta(Chain.of_word(2, w))
            for nwp in range(0, 3):
                for wp in _words(2, nwp):
                    v = base * Chain.of_word(2, wp)
                    total += 1
                    bad += not canonical_l(v).is_zero()
                    if nwp >= 1:
                        total += 1
                        bad += not canonical_prime(v).is_zero()
                    elif not canonical_prime(v).is_zero():
                        prime_nonzero.append(w)
    report.add("w*eta(w)*w' dies: always in the left quotient, and in the primed "
               "quotient whenever w' is nonempty", bad == 0,
               f"0 failures over {total} cases", f"{bad} failures")
    report.info("w*eta(w) with empty w' in the primed quotient (boundary case, "
                "not asserted)",
                "nonzero exactly when eta(w) != 0",
                f"nonzero for {len(prime_nonzero)} of the tested words")

    total = bad = 0
    for n in range(2, 7):
        w = tuple(range(1, n + 1))
        c = Chain.of_word(n, w)
        for m in range(2, n + 1):
            folded = fold_l(m, c)
            for i in range(1, n):
                total += 1
                bad += choose_head_by_letter(folded, w[i - 1]) != fold_l(i, c)
    report.add("fold then re-choosing letter a_i as head equals fold_l(i, w)",
               bad == 0, f"0 failures over {total} cases", f"{bad} failures")

    total = bad = 0
    for n in range(2, 7):
        w = tuple(range(1, n + 1))
        c = Chain.of_word(n, w)
        for trial in range(6):
            state = c
            for _ in range(rng.randint(1, 5)):
                state = fold_l(rng.randint(2, n), state)
            total += 1
            bad += choose_head_by_letter(state, w[0]) != c
    report.add("random folds then choosing the original head recovers the word",
               bad == 0, f"0 failures over {total} round trips", f"{bad} failures")

    total = bad = 0
    for n in range(1, min(max_total, 4) + 1):
        words = list(_words(p, n))
        projected = {w: canonical_l(Chain.of_word(p, w)) for w in words}
        etas = {w: eta(Chain.of_word(p, w)) for w in words}
        for a in words:
            for b in words:
                total += 1
                bad += (etas[a] == etas[b]) != (projected[a] == projected[b])
    report.add("eta(w1) = eta(w2) iff the canonical forms agree", bad == 0,
               f"0 failures over {total} pairs", f"{bad} failures")
    return report


def kernel_matches_relations(n: int, p: int) -> bool:
    """ker(eta) on degree-n chains equals the left relation span, as row
    spaces, block by multidegree."""
    span = relation_span(n, p, "l")
    by_md: dict = {}
    for w in _words(p, n):
        from .chains import word_multidegree

        by_md.setdefault(word_multidegree(w, p), []).append(w)
    for md, words in sorted(by_md.items()):
        # matrix of eta with source words as columns: row per target word
        transposed = []
        for w in words:
            row = {}
            for w2 in words:
                c = eta_word(w2).get(w, 0)
                if c:
                    row[w2] = c
            transposed.append(row)
        kernel = RowSpace()
        for vec in kernel_basis(transposed, words):
            kernel.insert(vec)
        block = span.blocks[md]
        rel = RowSpace()
        for row in block.rows():
            rel.insert(dict(row))
        if kernel != rel:
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
            words = list(_words(p, n))
            bad_ell = bad_section = 0
            image = RowSpace()
            for w in words:
                c = Chain.of_word(p, w)
                t = g_map(c)
                if not ell_map(t).is_zero():
                    bad_ell += 1
                if g_tilde(t).image != canonical_prime(c).image.scale(n):
                    bad_section += 1
                image.insert(dict(t.terms))
            report.add(f"ell(g(w)) = 0 [n={n}, p={p}]", bad_ell == 0,
                       f"0 failures over {len(words)} words", f"{bad_ell} failures")
            report.add(f"g_tilde(g(w)) = n * class(w) [n={n}, p={p}]", bad_section == 0,
                       f"0 failures over {len(words)} words", f"{bad_section} failures")
            h_dim = h_dim_total(n, p)
            report.add(f"rank(Im g) = h-dimension [n={n}, p={p}]", image.rank == h_dim,
                       str(h_dim), str(image.rank))
            ambient, ell_image = ell_ranks(
                ((u, b) for u in _words(p, n - 1) for b in range(1, p + 1)), p)
            report.add(f"tensor-space ambient rank [n={n}, p={p}]",
                       ambient == p * witt_total(n - 1, p),
                       str(p * witt_total(n - 1, p)), str(ambient))
            ker_ell = ambient - ell_image
            report.add(f"dim ker ell = h-dimension [n={n}, p={p}]", ker_ell == h_dim,
                       str(h_dim), str(ker_ell))
            span = relation_span(n, p, "prime")
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
        return [letter for letter in range(1, p + 1)]
    out = []
    for k in range(1, leaves):
        for left in _all_magma_terms(k, p):
            for right in _all_magma_terms(leaves - k, p):
                out.append((left, right))
    return out


def _all_bead_tuples(total: int, p: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for bead in _all_magma_terms(first, p):
            for rest in _all_bead_tuples(total - first, p):
                yield (bead,) + rest


def _scaled_class(tree, head: int | None = None, tail: int | None = None) -> tuple:
    """Integer-scaled canonical key of a tree's primed class, read from the
    given head and tail legs (default: to_vertebrate's choice); same scale per
    degree, so equality matches canonical_prime equality."""
    v = to_vertebrate(tree) if head is None else Vertebrate(tree, head, tail)
    return tuple(sorted(g_image_key(rho(read_swingword(v), tree.p)).items()))


def _head_tail_disagreements(tree) -> tuple[int, int]:
    """Number of (head, tail) leg choices, and how many of them give another
    class than the first choice."""
    legs = tree.leg_vertices()
    classes = [_scaled_class(tree, h, t) for h in legs for t in legs if h != t]
    return len(classes), sum(c != classes[0] for c in classes)


def suite_rho(max_bead_leaves: int = 4, max_legs: int = 7, p: int = 2,
              exhaustive_legs: int = 6, samples_at_max: int = 150,
              seed: int = 20060906) -> Report:
    """Breakdown-order independence, head/tail independence, and the two
    local move compatibilities."""
    from .trees import SwingWord

    report = Report("rho")
    rng = random.Random(seed)

    total = bad = 0
    for tail in range(1, p + 1):
        for head in range(1, p + 1):
            for beads in _all_bead_tuples(max_bead_leaves, p):
                sw = SwingWord(tail=tail, beads=beads, head=head)
                reference = rho(sw, p)
                for schedule in permutations(split_positions(sw)):
                    total += 1
                    bad += rho_alt(sw, list(schedule), p) != reference
    report.add(f"every breakdown schedule reproduces the expansion "
               f"(beads up to {max_bead_leaves} leaves, p={p})", bad == 0,
               f"0 failures over {total} schedules", f"{bad} failures")

    shapes = {legs: enumerate_topologies(legs) for legs in range(3, max_legs + 1)}

    total = bad = 0
    for legs in range(3, exhaustive_legs + 1):
        for shape in shapes[legs]:
            for letters in product(range(1, p + 1), repeat=legs):
                choices, disagreements = _head_tail_disagreements(
                    relabel_legs(shape, letters, p))
                total += choices
                bad += disagreements
    report.add(f"head/tail choices agree exhaustively through {exhaustive_legs} legs "
               f"(p={p})", bad == 0, f"0 failures over {total} choices", f"{bad} failures")

    if max_legs >= 7:
        dim7 = rank_oracle(7, p, "prime")
        formula7 = h_dim_total(7, p)
        report.add(f"7-leg class space dimension over p={p} (oracle vs formula)",
                   dim7 == formula7, str(formula7), str(dim7))
        total = bad = 0
        shapes7 = shapes[7]
        for _ in range(samples_at_max):
            shape = shapes7[rng.randrange(len(shapes7))]
            letters = tuple(rng.randint(1, p) for _ in range(7))
            tree = relabel_legs(shape, letters, p)
            leg_ids = tree.leg_vertices()
            pairs = [(h, t) for h in leg_ids for t in leg_ids if h != t]
            chosen = rng.sample(pairs, 4)
            classes = [_scaled_class(tree, h, t) for h, t in chosen]
            total += 1
            bad += any(c != classes[0] for c in classes)
            if dim7 == 0:
                bad += any(c != () for c in classes)
        report.add(f"sampled 7-leg trees agree across head/tail choices "
                   f"({samples_at_max} trees)", bad == 0,
                   f"0 failures over {total} trees", f"{bad} failures")

    # all-distinct-letter run at 6 legs: a nonvacuous space, and agreement for
    # distinct letters implies it for every specialization (moves are positional)
    total = bad = 0
    distinct_legs = min(6, max_legs)
    for shape in shapes[distinct_legs]:
        choices, disagreements = _head_tail_disagreements(
            relabel_legs(shape, range(1, distinct_legs + 1), distinct_legs))
        total += choices
        bad += disagreements
    report.add(f"head/tail choices agree on all {distinct_legs}-leg shapes "
               "with distinct letters",
               bad == 0, f"0 failures over {total} choices", f"{bad} failures")

    total = bad = 0
    for legs in range(3, exhaustive_legs + 1):
        for shape in shapes[legs]:
            for letters in product(range(1, p + 1), repeat=legs):
                tree = relabel_legs(shape, letters, p)
                base = _scaled_class(tree)
                for vertex in sorted(tree.cyclic):
                    swapped, sign = as_swap(tree, vertex)
                    total += 1
                    flipped = tuple((k, sign * v) for k, v in _scaled_class(swapped))
                    bad += tuple(sorted(flipped)) != base
    report.add(f"orientation swaps negate the class (through {exhaustive_legs} legs, "
               f"p={p})", bad == 0, f"0 failures over {total} swaps", f"{bad} failures")

    total = bad = 0
    for legs in range(4, exhaustive_legs + 1):
        for shape in shapes[legs]:
            for letters in product(range(1, p + 1), repeat=legs):
                tree = relabel_legs(shape, letters, p)
                base = _scaled_class(tree)
                for index, (u, v) in enumerate(tree.edges):
                    if u in tree.legs or v in tree.legs:
                        continue
                    merged = accumulate((key, coeff * value)
                                        for part, coeff in ihx_expand(tree, index)
                                        for key, value in _scaled_class(part))
                    total += 1
                    bad += tuple(sorted(merged.items())) != base
    report.add(f"internal-edge expansions sum to the class (through "
               f"{exhaustive_legs} legs, p={p})", bad == 0,
               f"0 failures over {total} expansions", f"{bad} failures")

    total = bad = 0
    for n in range(2, 7):
        for w in _words(p, n):
            sw = SwingWord(tail=w[0], beads=tuple(w[1:-1]), head=w[-1])
            total += 1
            bad += rho(sw, p) != Chain.of_word(p, w)
    report.add("word to swing to word round trip is the identity", bad == 0,
               f"0 failures over {total} words", f"{bad} failures")

    spot = bad = 0
    for legs in (4, 5):
        if legs not in shapes:
            continue
        for shape in shapes[legs][:3]:
            tree = relabel_legs(shape, [1 + (i % p) for i in range(legs)], p)
            scaled = dict(_scaled_class(tree))
            image = diagram_class(tree).image
            expected = {k: v * (legs - 1) for k, v in image.terms.items()}
            spot += 1
            bad += {k: v for k, v in scaled.items()} != expected
    report.add("scaled comparator matches the canonical image", bad == 0,
               f"0 failures over {spot} trees", f"{bad} failures")
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


# suite -> size parameter -> smallest accepted value. Below it at least one
# exhaustive family of checks that the parameter bounds is empty, and the suite
# would report a pass over no case. Two records still read "over 0" at these
# minimums: the lemmas' equal-length pairs below max_total 4 and the rho
# suite's edge expansions below exhaustive_legs 4.
_SIZE_MINIMUMS = {
    "lemmas": {"max_total": 3, "p": 1},
    "exactness": {"max_degree": 2, "p_max": 1, "kernel_max_degree": 1},
    "rho": {"max_bead_leaves": 1, "max_legs": 3, "p": 1, "exhaustive_legs": 3},
    "maxlen": {"p": 1, "max_degree": 1},
}


def run_suite(name: str, **params) -> Report:
    for param, minimum in _SIZE_MINIMUMS.get(name, {}).items():
        if params.get(param, minimum) < minimum:
            raise InputError(f"suite {name} needs {param} >= {minimum}; "
                             f"at {params[param]} some of its checks run over no case")
    if name == "lemmas":
        return suite_lemmas(**params)
    if name == "exactness":
        return suite_exactness(**params)
    if name == "rho":
        return suite_rho(**params)
    if name == "maxlen":
        return suite_maxlen(**params)
    raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
