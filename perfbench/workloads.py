"""Seeded inputs and checked jobs for the four benchmark workloads.

`make_jobs(sw, workload, seed)` builds every input from `random.Random(seed)`
and returns the jobs plus a record of input properties. A job is a
zero-argument callable returning `(ok, output)`: `ok` is the result of the
job's own correctness check and `output` is the rendered result whose digest
the golden files pin. Jobs reach the library only through attribute lookups
on the `sw` package at call time, so the tracer's wrappers see every call.

Sizes are chosen so that one round (one fresh process running every job of a
workload once) takes a few seconds on a 2-core x86 machine under Python 3.11,
and so that the mix of expensive and cheap cases is the same for every seed:
the seed changes which words, trees and primes appear, not how many of each
kind, which keeps run-to-run spread across seeds small.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

DEFAULT_SEED = 1
WORKLOADS = ("basis", "spans", "trees", "words")

# Greedy basis selection: (space, multidegree). h at (2,2,4) and (2,3,3) and
# lie at (2,2,2,2) are left out to keep a round near 3 s; lie runs at degree
# 7 and 8 instead.
BASIS_CASES = (("h", (2, 2, 3)), ("h", (2, 2, 2, 1)), ("lie", (2, 2, 3)),
               ("lie", (2, 2, 2, 1)), ("lie", (2, 3, 3)))

# Relation-span rank oracles: (degree, alphabet, family, over Q too).
# Every case runs over the seed's prime; the three costliest rational builds
# (both l cases and prime at (8,3)) are left out to keep a round near 3 s.
SPAN_CASES = ((7, 3, "l", False), (7, 3, "prime", True), (6, 4, "l", False),
              (6, 4, "prime", True), (8, 3, "prime", False))
# Primes above every degree. Eliminating over 3 or 7, which divide a degree
# here, took up to 1.5x as long as over 11 or 13, which would tie a round's
# time to the seed; small primes are covered by the span fallbacks below.
SPAN_PRIMES = (11, 13, 17, 19, 23)
# canonical_l falls back to the relation span when char divides the degree.
FALLBACK_CASES = ((6, 3, 3), (7, 2, 7))  # (degree, alphabet, char)
# The rank oracles and the first query on each fallback span, nine jobs in
# all, take 2 ms to 1 s; the other queries about 0.06 ms. With 4000 queries,
# the p99 of a round's latencies lies 31 jobs into the queries' own tail, not
# at the edge of those nine, where one preempted query moved it by 2x.
SPAN_REDUCE_QUERIES = 3200
SPAN_FALLBACK_QUERIES = 800

TREE_LEGS = (5, 6, 7)
TREE_ALPHABET = 3
TREE_JOBS = 1000
TREE_CHOICES = 3
# Trees with letters in 1..3 repeat words often, and a job whose words are
# all memoised takes a fifth of one that is not, so a round's median job sits
# where memo hits give way to misses. A fresh draw of trees per seed moved
# that median by up to 20% between seeds. So the trees, their head/tail
# choices, swap vertices and IHX edges come from this fixed draw, and the
# seed draws a relabelling of the letters and the order of the jobs.
TREE_BASE_SEED = "trees:base"

WORD_OPS = ("eta", "fold_l", "fold_prime", "canonical_l", "canonical_prime")
WORD_DEGREES = (4, 5, 6, 7, 8)
WORD_ALPHABETS = (2, 3, 4)
WORDS_PER_OP_DEGREE = 160      # 5 ops x 5 degrees x 160 = 4000 queries
# The exactness triple over more than 1024 words (4 letters past degree 5, 3
# letters past degree 6) takes 0.05-2.7 s per query depending on the words
# drawn, which would tie a round's wall time to the seed, so it runs only on
# the 10 (degree, alphabet) cells within that size: 10 x 6 = 60 queries.
EXACTNESS_PER_CELL = 6
EXACTNESS_MAX_WORDS = 1024
# A fold at index k turns a word into 2^(k-2) words, and checking a degree-8
# result costs about 3 ms a word, so indices stop at 5 to keep one query's
# cost from swinging with the seed.
MAX_FOLD_INDEX = 5
# Hot words per (alphabet, degree). With 5, which hot words a seed drew moved
# the median job by up to 20% between seeds; with 20 it moved by about 5%.
HOT_POOL = 20
HOT_TERMS, HOT_CYCLE = 3, 5    # 3 of every 5 terms come from the hot pool
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
          Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(5, 3))

# Sizes for the self-tests: every workload through the same check path.
TINY = {"trees": 6, "words": 1}
TINY_BASIS_CASES = (("h", (1, 2, 2)), ("lie", (1, 2, 2)))


def make_jobs(sw, workload: str, seed: int, tiny: bool = False):
    """Return (jobs, inputs, after): a list of (name, callable), a dict of
    input properties for the record, and a callable run after the timed jobs
    that returns the properties only the results reveal."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "basis":
        return _basis_jobs(sw, rng, tiny)
    if workload == "spans":
        return _spans_jobs(sw, rng, tiny)
    if workload == "trees":
        return _trees_jobs(sw, rng, tiny)
    if workload == "words":
        return _words_jobs(sw, rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _render_words(words) -> str:
    return ";".join("".join(map(str, w)) for w in words)


def _random_word(rng, p: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, p) for _ in range(n))


# --- basis -----------------------------------------------------------------

def _permuted(rng, md: tuple[int, ...]) -> tuple[int, ...]:
    # The greedy scan's cost depends mostly on how often letter 1 occurs, so
    # letter 1 always takes a largest count and the seed permutes the rest.
    top = max(md)
    perms = sorted(q for q in set(itertools.permutations(md)) if q[0] == top)
    return rng.choice(perms)


def _basis_job(sw, space: str, md, kept):
    def job():
        if space == "h":
            basis = sw.h_basis(md)
            target = sw.h_dim_multidegree(md)
            ok = (len(basis.words) == target
                  and basis.certificate["ell_kernel_dim"] == target)
        else:
            basis = sw.lie_basis(md)
            target = sw.witt_multidegree(md)
            ok = len(basis.words) == target
        kept.append((md, basis.words))
        return ok, f"{space}{md}:{_render_words(basis.words)}:{basis.certificate}"
    return job


def _basis_jobs(sw, rng, tiny):
    cases = TINY_BASIS_CASES if tiny else BASIS_CASES
    jobs = []
    kept = []
    for space, md in cases:
        md = _permuted(rng, md)
        jobs.append((f"{space}{md}", _basis_job(sw, space, md, kept)))

    def after():
        # words the greedy scans enumerated against the rank-increasing rows
        # they kept
        enumerated = rows = 0
        for md, words in kept:
            order = sw.enum_words(md)
            enumerated += order.index(words[-1]) + 1 if words else len(order)
            rows += len(words)
        return {"words_enumerated": enumerated, "rank_increasing_rows": rows,
                "useful_share": round(rows / enumerated, 6) if enumerated else 0.0}
    return jobs, {"cases": [name for name, _ in jobs]}, after


# --- spans -----------------------------------------------------------------

def _formula_dim(sw, n, p, family):
    return sw.witt_total(n, p) if family == "l" else sw.h_dim_total(n, p)


def _oracle_job(sw, n, p, family, char):
    def job():
        dim = sw.rank_oracle(n, p, family, char)
        formula = _formula_dim(sw, n, p, family)
        # A prime can only lower the relation rank, never raise it.
        ok = dim == formula if char is None else dim >= formula
        return ok, f"{n},{p},{family},{char}:{dim}"
    return job


def _fold(sw, family):
    return sw.fold_l if family == "l" else sw.fold_prime


def _relation(sw, rng, n, p, family):
    word = _random_word(rng, p, n)
    k = rng.randint(2, n)
    base = sw.Chain.of_word(p, word)
    return _fold(sw, family)(k, base) - base


def _span_chain(sw, rng, n, p, char):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice((1, 2, -1, 3)) if char else rng.choice(COEFFS)
        terms[_random_word(rng, p, n)] = coeff
    return sw.Chain(p, terms)


def _reduce_job(sw, key, chain, relation, scale):
    n, p, family, char = key

    def job():
        span = sw.relation_span(n, p, family, char)
        normal = span.reduce(chain)
        ok = (span.contains(relation)
              and span.reduce(chain + relation.scale(scale)) == normal
              and span.reduce(normal) == normal)
        return ok, sw.render_chain(normal)
    return job


def _fallback_job(sw, chain, relation, char):
    def job():
        lie = sw.canonical_l(chain, char)
        moved = sw.canonical_l(chain + relation, char)
        ok = lie.method == "span" and moved == lie
        return ok, sw.render_chain(lie.chain)
    return job


def _spans_jobs(sw, rng, tiny):
    q = rng.choice(SPAN_PRIMES)
    cases = SPAN_CASES[1:2] if tiny else SPAN_CASES
    keys = []
    for n, p, family, rational in cases:
        if tiny:
            n -= 3
        keys.append((n, p, family, q))
        if rational:
            keys.append((n, p, family, None))
    jobs = [(f"oracle{key}", _oracle_job(sw, *key)) for key in keys]
    rational = sum(key[3] is None for key in keys)
    reduce_count = 8 if tiny else SPAN_REDUCE_QUERIES
    fallback_count = 4 if tiny else SPAN_FALLBACK_QUERIES
    for i in range(reduce_count):
        key = keys[i % len(keys)]
        n, p, family, char = key
        rational += char is None
        chain = _span_chain(sw, rng, n, p, char)
        relation = _relation(sw, rng, n, p, family)
        jobs.append((f"reduce{key}#{i}",
                     _reduce_job(sw, key, chain, relation, rng.randint(1, 3))))
    for i in range(fallback_count):
        n, p, char = FALLBACK_CASES[i % len(FALLBACK_CASES)]
        chain = _span_chain(sw, rng, n, p, char)
        relation = _relation(sw, rng, n, p, "l").scale(rng.randint(1, 3))
        jobs.append((f"fallback{(n, p, char)}#{i}", _fallback_job(sw, chain, relation, char)))
    inputs = {"prime": q, "jobs_over_q_share": round(rational / len(jobs), 6),
              "jobs_over_fq_share": round(1 - rational / len(jobs), 6),
              "span_fallback_queries": fallback_count}
    return jobs, inputs, None


# --- trees -----------------------------------------------------------------

def _tree_class(sw, vertebrate, p):
    sword = sw.read_swingword(vertebrate)
    return sword, sw.canonical_prime(sw.rho(sword, p))


def _tree_job(sw, tree, choices, vertex, edge):
    p = tree.p

    def job():
        first, base = _tree_class(sw, sw.to_vertebrate(tree), p)
        ok = all(_tree_class(sw, sw.Vertebrate(tree, head, tail), p)[1] == base
                 for head, tail in choices)
        swapped, sign = sw.as_swap(tree, vertex)
        ok = ok and _tree_class(sw, sw.to_vertebrate(swapped), p)[1].image == base.image.scale(sign)
        total = None
        for part, coeff in sw.ihx_expand(tree, edge):
            image = _tree_class(sw, sw.to_vertebrate(part), p)[1].image.scale(coeff)
            total = image if total is None else total + image
        ok = ok and total == base.image
        text = sw.render_swingword(first)
        ok = ok and sw.parse_swingword(text) == first
        return ok, f"{text}={sw.render_tensor(base.image)}"
    return job


def _trees_jobs(sw, rng, tiny):
    legs_range = TREE_LEGS[:1] if tiny else TREE_LEGS
    shapes = {legs: sw.enumerate_topologies(legs) for legs in legs_range}
    count = TINY["trees"] if tiny else TREE_JOBS
    relabel = rng.sample(range(1, TREE_ALPHABET + 1), TREE_ALPHABET)
    draw, jobs = random.Random(TREE_BASE_SEED), []
    for i in range(count):
        legs = legs_range[i % len(legs_range)]
        shape = draw.choice(shapes[legs])
        letters = [relabel[draw.randint(1, TREE_ALPHABET) - 1] for _ in range(legs)]
        tree = sw.relabel_legs(shape, letters, TREE_ALPHABET)
        cyclic = {v: (o[1], o[0], o[2]) if draw.random() < 0.5 else o
                  for v, o in tree.cyclic.items()}
        tree = sw.JacobiTree(tree.vertices, tree.edges, cyclic, tree.legs, TREE_ALPHABET)
        leg_ids = tree.leg_vertices()
        pairs = [(h, t) for h in leg_ids for t in leg_ids if h != t]
        choices = draw.sample(pairs, TREE_CHOICES)
        vertex = draw.choice(sorted(tree.cyclic))
        internal = [j for j, (u, v) in enumerate(tree.edges)
                    if u not in tree.legs and v not in tree.legs]
        edge = draw.choice(internal)
        jobs.append((f"tree{legs}#{i}", _tree_job(sw, tree, choices, vertex, edge)))
    rng.shuffle(jobs)
    return jobs, {"legs": list(legs_range), "trees": count, "relabel": relabel}, None


# --- words -----------------------------------------------------------------

def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _chain_text(terms) -> str:
    pieces = []
    for word, coeff in terms:
        body = f"{_coeff_text(abs(coeff))}*[{','.join(map(str, word))}]"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


def _word_job(sw, text, p, op, k):
    def job():
        chain = sw.parse_chain(text, p)
        n = chain.degree()
        ok = sw.parse_chain(sw.render_chain(chain), p) == chain
        if op == "eta":
            result = sw.eta(chain)
            # every word's image is a commutator, whose coefficients sum to 0
            ok = ok and sum(result.terms.values()) == 0
            out = sw.render_chain(result)
        elif op == "fold_l":
            result = sw.fold_l(k, chain)
            ok = ok and sw.canonical_l(result) == sw.canonical_l(chain)
            out = sw.render_chain(result)
        elif op == "fold_prime":
            result = sw.fold_prime(k, chain)
            ok = ok and sw.canonical_prime(result) == sw.canonical_prime(chain)
            out = sw.render_chain(result)
        elif op == "canonical_l":
            result = sw.canonical_l(chain)
            ok = ok and sw.canonical_l(sw.fold_l(2, chain)) == result
            out = sw.render_chain(result.chain)
        elif op == "canonical_prime":
            result = sw.canonical_prime(chain)
            # the top primed fold reverses a word with sign (-1)^n
            mirrored = sw.canonical_prime(chain.reverse().scale(-1 if n % 2 else 1))
            ok = ok and mirrored == result
            out = sw.render_tensor(result.image)
        else:
            image = sw.g_map(chain)
            ok = (ok and sw.ell_map(image).is_zero()
                  and sw.g_tilde(image) == sw.canonical_prime(chain.scale(n)))
            out = sw.render_tensor(image)
        return ok, out
    return job


def _words_jobs(sw, rng, tiny):
    per_cell = TINY["words"] if tiny else WORDS_PER_OP_DEGREE
    per_exact = TINY["words"] if tiny else EXACTNESS_PER_CELL
    degrees = WORD_DEGREES[:2] if tiny else WORD_DEGREES
    pools = {(p, n): [_random_word(rng, p, n) for _ in range(HOT_POOL)]
             for p in WORD_ALPHABETS for n in degrees}
    # (op, degree, alphabet, terms, slot) in fixed proportions; the slot fixes
    # which terms are hot and the fold index, the seed draws the words,
    # coefficients and order
    cells = [(op, n, WORD_ALPHABETS[j % 3], 1 + j // 3 % 3, j)
             for op in WORD_OPS for n in degrees for j in range(per_cell)]
    cells += [("exactness", n, p, 1 + j % 3, j) for n in degrees for p in WORD_ALPHABETS
              for j in range(per_exact) if p ** n <= EXACTNESS_MAX_WORDS]
    rng.shuffle(cells)
    jobs = []
    seen = set()
    repeats = above_memo = 0
    for i, (op, n, p, count, slot) in enumerate(cells):
        terms = {}
        for t in range(count):
            # a fixed share of terms draws from the hot pool
            hot = (slot + t) % HOT_CYCLE < HOT_TERMS
            word = rng.choice(pools[p, n]) if hot else _random_word(rng, p, n)
            terms[word] = rng.choice(COEFFS)
        repeats += any(w in seen for w in terms)
        seen.update(terms)
        above_memo += n > 7
        text = _chain_text(terms.items())
        fold_index = 2 + slot % min(n - 1, MAX_FOLD_INDEX - 1)
        jobs.append((f"{op}/n{n}/p{p}#{i}", _word_job(sw, text, p, op, fold_index)))
    inputs = {"queries": len(jobs),
              "above_degree_7_share": round(above_memo / len(jobs), 6),
              "repeat_word_share": round(repeats / len(jobs), 6)}
    return jobs, inputs, None
