"""Each kind of caller input has one check, applied where it enters: letters
(`chains.check_word`), the alphabet bound (`chains.check_alphabet`), letter
contents (`chains.check_multidegree`), any other integer argument such as
a fold index (`chains.check_integer`) and the residue characteristic
(`scalars.check_characteristic`). An integer is an object of type int, so
bool and float inputs are refused with an InputError naming the input. A
word, a chain's terms, a magma node and a tree read for its swing word are
refused by shape, also with an InputError; so is a non-iterable where a
sequence belongs (`chains.check_sequence`)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swingwords.bases import (enum_words, evenrun_experiment, h_basis, lie_basis, lyndon_columns,
                              pattern_assignments)
from swingwords.chains import Chain, reverse
from swingwords.dims import (dimension_report, h_dim_multidegree, h_dim_total, mobius,
                             rank_oracle, witt_multidegree, witt_total)
from swingwords.moves import commutator_expand, fold_l, fold_prime
from swingwords.quotients import RelationSpan, canonical_l, choose_head, relation_span
from swingwords.scalars import InputError
from swingwords.textio import parse_chain, render_chain
from swingwords.trees import (JacobiTree, SwingWord, Vertebrate, enumerate_topologies,
                              ihx_expand, is_swing, read_swingword, relabel_legs, rho, tree_chain,
                              validate)
from swingwords.verify import run_suite

LETTER = r"^letter True outside alphabet 1\.\.2$"
LEAF = r"^magma leaf True outside alphabet 1\.\.2$"
LABEL = r"^label: letter True outside alphabet 1\.\.2$"
ALPHABET = r"^alphabet bound must be an integer, got "
MULTIDEGREE = r"^multidegree must be non-negative integers, got "


def _shape():
    return enumerate_topologies(4)[0]


def _tree(legs, p):
    """The single-edge tree with legs 1 and 2."""
    return JacobiTree((1, 2), [(1, 2)], {}, legs, p)


CHAIN = Chain(2, {(1, 2): 1, (2, 1): -1})

CASES = {
    "Chain bool letter": (lambda: Chain(2, {(True, 2): 1}), LETTER),
    "Chain float p": (lambda: Chain(2.5, {(1,): 1}), ALPHABET),
    "Chain bool p": (lambda: Chain(True, {(1,): 1}), ALPHABET),
    "parse_chain float p": (lambda: parse_chain("[1]", 2.0), ALPHABET),
    "parse_chain bool p": (lambda: parse_chain("[1]", True), ALPHABET),
    "rho bool tail": (lambda: rho(SwingWord(tail=True, beads=(2,), head=2), 2), LETTER),
    "rho bool head": (lambda: rho(SwingWord(tail=1, beads=(2,), head=True), 2), LETTER),
    "rho bool single letter": (lambda: rho(SwingWord(tail=True, beads=(), head=None), 2), LETTER),
    "rho bool bead leaf": (lambda: rho(SwingWord(tail=1, beads=((True, 2),), head=2), 2), LEAF),
    "rho float p": (lambda: rho(SwingWord(tail=1, beads=(2,), head=2), 2.5), ALPHABET),
    "rho bool p": (lambda: rho(SwingWord(tail=1, beads=(), head=1), True), ALPHABET),
    "commutator_expand bool leaf": (lambda: commutator_expand((True, 2), 2), LEAF),
    "commutator_expand float leaf": (lambda: commutator_expand((1.0, 2), 2),
                                     r"^magma leaf 1\.0 outside alphabet 1\.\.2$"),
    "commutator_expand float p": (lambda: commutator_expand((1, 2), 2.5), ALPHABET),
    "commutator_expand bool p": (lambda: commutator_expand((1, 1), True), ALPHABET),
    "relabel_legs bool letter": (lambda: relabel_legs(_shape(), (1, True, 2, 2), 2), LABEL),
    "relabel_legs float p": (lambda: relabel_legs(_shape(), (1, 1, 2, 2), 2.5), ALPHABET),
    "relabel_legs bool p": (lambda: relabel_legs(_shape(), (1, 1, 1, 1), True), ALPHABET),
    "validate bool letter": (lambda: validate(_tree({1: 1, 2: True}, 2)), LABEL),
    "validate float p": (lambda: validate(_tree({1: 1, 2: 2}, 2.5)), ALPHABET),
    "validate bool p": (lambda: validate(_tree({1: 1, 2: 1}, True)), ALPHABET),
    "validate single leg float p": (
        lambda: validate(JacobiTree((1,), [], {}, {1: 1}, 1.0)), ALPHABET),
    "canonical_l char 4": (lambda: canonical_l(CHAIN, 4),
                           r"^characteristic must be an odd prime, got 4$"),
    "canonical_l char 2": (lambda: canonical_l(CHAIN, 2), r"^characteristic 2 is not supported$"),
    "canonical_l bool char": (lambda: canonical_l(CHAIN, True),
                              r"^characteristic must be an integer, got True$"),
}
DEGREE = r"^degree must be an integer, got "
NODE = r"^a magma node must be a pair, got "
# two disjoint struts, and the path 1-2-3 whose middle vertex has valence 2
STRUTS = JacobiTree([1, 2, 3, 4], [(1, 2), (3, 4)], {}, {1: 1, 2: 2, 3: 1, 4: 2}, 2)
PATH = JacobiTree([1, 2, 3], [(1, 2), (2, 3)], {}, {1: 1, 3: 2}, 2)
CASES.update({
    "witt_total float n": (lambda: witt_total(2.0, 2), DEGREE),
    "h_dim_total float n": (lambda: h_dim_total(2.0, 2), DEGREE),
    "witt_total bool p": (lambda: witt_total(3, True), ALPHABET),
    "witt_total float p": (lambda: witt_total(3, 2.5), ALPHABET),
    "h_dim_total bool p": (lambda: h_dim_total(3, True), ALPHABET),
    "witt_total n 0": (lambda: witt_total(0, 3), r"^degree must be >= 1, got 0$"),
    "h_dim_total p 0": (lambda: h_dim_total(3, 0), r"^alphabet bound must be >= 1, got 0$"),
    "rank_oracle bool p": (lambda: rank_oracle(3, True, "l"), ALPHABET),
    "relation_span bool p": (lambda: relation_span(2, True, "l"), ALPHABET),
    "relation_span float degree": (lambda: relation_span(2.0, 2, "l"), DEGREE),
    "RelationSpan degree 0": (lambda: RelationSpan(0, 2, "prime"),
                              r"^degree must be >= 1, got 0$"),
    "dimension_report float p": (lambda: dimension_report("witt", n=3, p=2.5), ALPHABET),
    "dimension_report bool n": (lambda: dimension_report("h", n=True, p=2), DEGREE),
    "dimension_report p 0": (lambda: dimension_report("h", n=3, p=0),
                             r"^alphabet bound must be >= 1, got 0$"),
    "RelationSpan.reduce letter": (
        lambda: relation_span(2, 2, "l").reduce(Chain(3, {(1, 3): 1})),
        r"^letter 3 outside alphabet 1\.\.2$"),
    "Chain int word": (lambda: Chain(2, {1: 1}), r"^a word must be a sequence of letters, got 1$"),
    "Chain list of terms": (lambda: Chain(2, [((1,), 1)]),
                            r"^chain terms must be a mapping of words to coefficients, got list$"),
    "commutator_expand triple": (lambda: commutator_expand((1, 2, 1), 2), NODE),
    "commutator_expand empty node": (lambda: commutator_expand((), 2), NODE),
    "commutator_expand inner triple": (lambda: commutator_expand((1, (2, 1, 2)), 2), NODE),
    "rho triple bead": (lambda: rho(SwingWord(tail=1, beads=((1, 2, 3),), head=2), 3), NODE),
    "tree_chain disjoint struts": (lambda: tree_chain(STRUTS, 1, 2), r"^connected: "),
    "tree_chain disjoint struts across": (lambda: tree_chain(STRUTS, 1, 3), r"^connected: "),
    "tree_chain valence 2": (lambda: tree_chain(PATH, 1, 3), r"^valence: vertex 2 "),
    "is_swing valence 2": (lambda: is_swing(Vertebrate(PATH, 3, 1)), r"^valence: vertex 2 "),
    "read_swingword head not a leg": (
        lambda: read_swingword(Vertebrate(JacobiTree((1,), [], {}, {1: 1}, 1), 2, 2)),
        r"^head and tail must be legs$"),
    # integer arguments other than letters, degrees and alphabet bounds:
    # `chains.check_integer` once where each enters, then its own range test
    "fold_l bool index": (lambda: fold_l(True, CHAIN), r"^fold index must be an integer, got True$"),
    "fold_l float index": (lambda: fold_l(2.0, CHAIN), r"^fold index must be an integer, got 2\.0$"),
    "fold_l float index, zero chain": (lambda: fold_l(2.0, Chain.zero(2)),
                                       r"^fold index must be an integer, got 2\.0$"),
    "fold_prime float index": (lambda: fold_prime(2.0, CHAIN),
                               r"^fold index must be an integer, got 2\.0$"),
    # the range of the fold index is checked once per call, so a chain with
    # no term is refused too
    "fold_l index 0, zero chain": (lambda: fold_l(0, Chain.zero(2)),
                                   r"^fold index must be positive, got 0$"),
    "fold_prime index -3, zero chain": (lambda: fold_prime(-3, Chain.zero(2)),
                                        r"^fold index must be positive, got -3$"),
    "choose_head bool position": (lambda: choose_head((1, 2), True),
                                  r"^position must be an integer, got True$"),
    "mobius float": (lambda: mobius(2.0), r"^mobius argument must be an integer, got 2\.0$"),
    "mobius bool": (lambda: mobius(True), r"^mobius argument must be an integer, got True$"),
    "run_suite float max_degree": (lambda: run_suite("rho", 3.0),
                                   r"^max_degree must be an integer, got 3\.0$"),
    "run_suite bool p": (lambda: run_suite("maxlen", 1, True), r"^p must be an integer, got True$"),
    "ihx_expand float edge": (lambda: ihx_expand(enumerate_topologies(4)[0], 0.0),
                              r"^edge index must be an integer, got 0\.0$"),
    "enumerate_topologies float legs": (lambda: enumerate_topologies(3.0),
                                        r"^number of legs must be an integer, got 3\.0$"),
})
for name, entry in {"enum_words": enum_words, "lie_basis": lie_basis, "h_basis": h_basis,
                    "evenrun_experiment": evenrun_experiment,
                    "witt_multidegree": witt_multidegree,
                    "h_dim_multidegree": h_dim_multidegree}.items():
    for md in ((True, 1), (1, True), (1.0, 1), (1.5, 1), 5):
        CASES[f"{name} {md}"] = ((lambda entry=entry, md=md: entry(md)), MULTIDEGREE)
# a non-iterable where a sequence belongs, refused by `chains.check_sequence`
# with the noun of that sequence before any other check of it
WORD = r"^a word must be a sequence of letters, got 5$"
CASES.update({
    "lyndon_columns 5": (lambda: lyndon_columns(5), MULTIDEGREE),
    "dimension_report multidegree 5": (
        lambda: dimension_report("necklace", multidegree=5), MULTIDEGREE),
    "pattern_assignments 5": (lambda: pattern_assignments(5),
                              r"^a pattern must be a sequence of part sizes, got 5$"),
    "Chain.of_word 5": (lambda: Chain.of_word(2, 5), WORD),
    "Chain.coefficient 5": (lambda: CHAIN.coefficient(5), WORD),
    "choose_head 5": (lambda: choose_head(5, 1), WORD),
    "relabel_legs 5": (lambda: relabel_legs(_shape(), 5, 2),
                       r"^leg labels must be a sequence of letters, got 5$"),
    "reverse 5": (lambda: reverse(5), WORD),
})


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_each_entry_point_refuses_a_bad_input_kind_with_its_noun(call, message):
    with pytest.raises(InputError, match=message):
        call()


P = 3
words = st.lists(st.integers(min_value=1, max_value=P), max_size=4).map(tuple)
# denominators below 5, so every coefficient has a residue mod 5 and mod 7
coeffs = st.one_of(st.integers(min_value=-12, max_value=12),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
fields = st.sampled_from([None, 5, 7])


def _term_text(word, coeff) -> str:
    """One term with a leading sign, e.g. '- 3/2*[1,2]', or '+ 4' for the
    empty word."""
    sign = "-" if coeff < 0 else "+"
    letters = f"*[{','.join(map(str, word))}]" if word else ""
    return f"{sign} {abs(coeff)}{letters}"


@given(st.dictionaries(words, coeffs, max_size=5), fields)
def test_parse_chain_reads_back_every_rendered_chain(terms, q):
    chain = Chain(P, terms, q)
    parsed = parse_chain(render_chain(chain), P, q)
    assert parsed == chain == Chain(P, chain.terms, q)
    assert all(type(c) in (int, Fraction) for c in parsed.terms.values())


@given(st.lists(st.tuples(words, coeffs), min_size=1, max_size=8), fields)
def test_parse_chain_sums_repeated_terms_in_the_field(pairs, q):
    """Terms that repeat a word are summed and read in the field: residues
    that sum to a multiple of q cancel, as chain arithmetic says."""
    text = " ".join(_term_text(w, c) for w, c in pairs).lstrip("+ ")
    expected = Chain(P, {}, q)
    for word, coeff in pairs:
        expected = expected + Chain(P, {word: coeff}, q)
    assert parse_chain(text, P, q) == expected


@pytest.mark.parametrize("text, q, expected", [
    ("3*[1] + 2*[1]", 5, {}),
    ("3*[1] + 2*[1]", 7, {(1,): 5}),
    ("4*[1,2] + 4*[1,2] - [2,1]", 7, {(1, 2): 1, (2, 1): 6}),
    ("1/2*[1] + 1/2*[1]", None, {(1,): 1}),
    ("2 - 7", 5, {}),
])
def test_parse_chain_residue_sums_that_cancel(text, q, expected):
    chain = parse_chain(text, 2, q)
    assert chain.terms == expected and chain.char == q
