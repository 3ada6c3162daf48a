"""The word maps on integer terms against their termwise coefficient form.

The package clears a chain's coefficients to integers over one scale, runs the
word maps on integers and divides once at the output (`scalars.cleared`,
`scalars.divided`). The reference below is the earlier implementation, which
multiplied every word-map term by the chain's own coefficient (an int or a
Fraction over Q, a residue over F_q) and scaled the result by 1/n or 1/(n - 1)
in the chain's field. Both must give the same chains over the same field, the
same rendered text and the same exceptions.
"""

import random
from fractions import Fraction

import pytest

from g_image_reference import ref_g_image_scaled as _ref_g_image_scaled, ref_split as _ref_split
from swingwords.chains import Chain, accumulate
from swingwords.moves import eta, eta_word, fold_l, fold_l_word, fold_prime, fold_prime_word
from swingwords.quotients import (LieCanonical, PrimeCanonical, canonical_l, canonical_prime,
                                  g_map, g_prime_map, relation_span)
from swingwords.scalars import InputError, cleared, divided
from swingwords.textio import render_chain

PRIMES = (3, 5, 7)
KINDS = ("int", "fraction") + tuple(f"mod{q}" for q in PRIMES)


# --- the reference: termwise coefficient arithmetic --------------------------

def _ref_extension(chain, word_map):
    return Chain(chain.p, accumulate((w, coeff * c) for word, coeff in chain.terms.items()
                                     for w, c in word_map(word).items()), chain.char)


def ref_eta(chain):
    return _ref_extension(chain, eta_word)


def ref_fold_l(n, chain):
    return _ref_extension(chain, lambda w: fold_l_word(n, w))


def ref_fold_prime(n, chain):
    return _ref_extension(chain, lambda w: fold_prime_word(n, w))


def ref_canonical_l(chain, char=None):
    degree = chain.degree()
    q = chain.char if char is None else char
    if degree is None or degree == 0:
        return LieCanonical(degree or 0, chain)
    if q is not None and degree % q == 0:
        span = relation_span(degree, chain.p, "l", q)
        return LieCanonical(degree, span.reduce(Chain(chain.p, chain.terms, q)),
                            method="span")
    signed = degree if (degree - 1) % 2 == 0 else -degree
    image = ref_eta(chain)
    if char is not None:
        image = Chain(chain.p, image.terms, char)
    return LieCanonical(degree, image.scale(Fraction(1, signed)))


def _ref_split_scale(chain):
    degree = chain.degree()
    if degree is None:
        raise InputError("the zero chain has no well-defined degree")
    if degree < 2:
        raise InputError("the tensor image requires degree >= 2")
    return degree, Fraction(1, degree - 1)


def ref_g_prime_map(chain):
    degree, scale = _ref_split_scale(chain)
    sign = 1 if degree % 2 == 0 else -1
    out = {}
    for word, coeff in chain.terms.items():
        accumulate(_ref_split(word, sign * coeff), out)
    return Chain(chain.p, out, chain.char).scale(scale)


def ref_g_map(chain):
    _, scale = _ref_split_scale(chain)
    out = {}
    for word, coeff in chain.terms.items():
        accumulate(((k, coeff * c) for k, c in _ref_g_image_scaled(word).items()), out)
    return Chain(chain.p, out, chain.char).scale(scale)


def ref_canonical_prime(chain):
    degree = chain.degree()
    if degree is None or degree <= 1:
        return PrimeCanonical(degree or 0, Chain(chain.p, {}, chain.char))
    return PrimeCanonical(degree, ref_g_map(chain))


# --- comparison ----------------------------------------------------------------

def _coefficient(kind, rng):
    value = rng.choice((1, 2, 3, -1, -2, 4, 6, 7))
    if kind == "int":
        return value
    if kind == "fraction":
        return Fraction(value, rng.choice((1, 2, 3, 5, 6, 7)))
    return value


def _chain(rng, kind, degree, p):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.randint(1, p) for _ in range(degree))
        terms[word] = _coefficient(kind, rng)
    return Chain(p, terms, int(kind[3:]) if kind.startswith("mod") else None)


def _outcome(fn, *args):
    """('ok', value) or ('raises', exception type, message)."""
    try:
        return ("ok", fn(*args))
    except (ZeroDivisionError, InputError) as exc:
        return ("raises", type(exc), str(exc))


def _shape(chain):
    """A chain's field and terms; a residue lies in 1..q-1."""
    q = chain.char
    assert q is None or all(type(c) is int and 0 < c < q for c in chain.terms.values())
    return q, chain.terms


def _assert_same(new, ref, label):
    assert new[0] == ref[0], (label, new, ref)
    if new[0] == "raises":
        assert new[1:] == ref[1:], label
        return
    a, b = new[1], ref[1]
    if isinstance(a, Chain):
        a_chain, b_chain = a, b
    else:
        assert type(a) is type(b) and a == b and hash(a) == hash(b), label
        assert a.degree == b.degree, label
        assert getattr(a, "method", None) == getattr(b, "method", None), label
        a_chain = a.chain if isinstance(a, LieCanonical) else a.image
        b_chain = b.chain if isinstance(b, LieCanonical) else b.image
    assert _shape(a_chain) == _shape(b_chain), label
    assert render_chain(a_chain) == render_chain(b_chain), label


def _cases():
    rng = random.Random(20051)
    for kind in KINDS:
        for degree in range(1, 8):
            for _ in range(12):
                chain = _chain(rng, kind, degree, rng.randint(1, 3))
                if not chain.is_zero():
                    yield kind, chain


CASES = list(_cases())


@pytest.mark.parametrize("kind", KINDS)
def test_word_maps_match_the_termwise_reference(kind):
    for chain_kind, chain in CASES:
        if chain_kind != kind:
            continue
        degree = chain.degree()
        label = (kind, render_chain(chain))
        _assert_same(_outcome(eta, chain), _outcome(ref_eta, chain), label + ("eta",))
        for k in range(1, degree + 2):
            _assert_same(_outcome(fold_l, k, chain), _outcome(ref_fold_l, k, chain),
                         label + ("fold_l", k))
            _assert_same(_outcome(fold_prime, k, chain), _outcome(ref_fold_prime, k, chain),
                         label + ("fold_prime", k))
        _assert_same(_outcome(g_prime_map, chain), _outcome(ref_g_prime_map, chain),
                     label + ("g_prime_map",))
        _assert_same(_outcome(g_map, chain), _outcome(ref_g_map, chain), label + ("g_map",))
        _assert_same(_outcome(canonical_prime, chain), _outcome(ref_canonical_prime, chain),
                     label + ("canonical_prime",))
        # a rational chain over Q and read mod every q; a residue chain with
        # and without its own characteristic named
        q = int(kind[3:]) if kind.startswith("mod") else None
        for char in (None,) + (PRIMES if q is None else (q,)):
            _assert_same(_outcome(canonical_l, chain, char),
                         _outcome(ref_canonical_l, chain, char), label + ("canonical_l", char))


def test_cases_cover_the_span_fallback_and_the_refused_residue_images():
    fallbacks = refusals = fraction_refusals = 0
    for kind, chain in CASES:
        degree = chain.degree()
        q = int(kind[3:]) if kind.startswith("mod") else None
        if q is not None and degree % q == 0:
            fallbacks += canonical_l(chain, q).method == "span"
        if q is not None and degree >= 2 and (degree - 1) % q == 0:
            for fn in (g_map, ref_g_map, g_prime_map, ref_g_prime_map,
                       canonical_prime, ref_canonical_prime):
                with pytest.raises(ZeroDivisionError, match=f"division by zero mod {q}"):
                    fn(chain)
            refusals += 1
        if kind == "fraction":
            for char in PRIMES:
                fraction_refusals += _outcome(canonical_l, chain, char)[0] == "raises"
    assert fallbacks >= 10 and refusals >= 10 and fraction_refusals >= 10


def test_residue_chain_falls_back_to_the_span_when_q_divides_the_degree():
    # the fallback follows the chain's own field, named or not: the projector
    # would need 1/n mod q
    for word, normal in (((1, 1, 1), "0"), ((1, 2, 2), "2*[2,1,2]"), ((1, 2, 1), "2*[2,1,1]")):
        chain = Chain(2, {word: 1}, 3)
        own, named = canonical_l(chain), canonical_l(chain, 3)
        assert own == named and hash(own) == hash(named)
        assert own.method == named.method == "span"
        assert render_chain(own.chain) == render_chain(named.chain) == normal
        assert own.chain.char == 3


def test_cleared_and_divided_are_inverse():
    terms = {(1,): Fraction(1, 2), (2,): Fraction(-2, 3), (1, 2): 4, (2, 2): 0}
    ints, scale = cleared(terms)
    assert (ints, scale) == ({(1,): 3, (2,): -4, (1, 2): 24}, 6)
    back = divided(ints, scale)
    assert back == {k: v for k, v in terms.items() if v}
    assert isinstance(back[(1, 2)], int)
    assert cleared({(1,): 4, (2,): 0, (3,): 10}, 5) == ({(1,): 4}, 1)
    assert cleared({(1,): Fraction(1, 2), (2,): 5}, 5) == ({(1,): 3}, 1)
    residues = divided({(1,): 8, (2,): 10}, 4, 5)
    assert residues == {(1,): 2} and type(residues[(1,)]) is int
    with pytest.raises(ZeroDivisionError, match="division by zero mod 5"):
        divided({}, 10, 5)
    with pytest.raises(ZeroDivisionError, match="division by zero mod 3"):
        cleared({(1,): Fraction(1, 3)}, 3)
    # the field comes from the chain: a residue chain refuses a second field
    with pytest.raises(InputError, match="mixed residue characteristics"):
        canonical_l(Chain(1, {(1,): 1}, 5), 3)
