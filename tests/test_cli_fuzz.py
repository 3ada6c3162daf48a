"""Hypothesis fuzzing of the CLI on tree files, swing-word text and chain text.

Whatever the input, `main` returns 0, 1 or 2 and raises nothing, and when it
refuses the input (exit 2) stdout stays empty and stderr carries the error.
Tree files start from valid trees (every shape through 5 legs, relabelled)
and take up to three structural mutations, then perhaps a field of the wrong
type or a dropped key; swing words and chains start from rendered valid ones,
get characters inserted or replaced, or are arbitrary text. Chains go through
`eta`, both folds and both reductions, over Q and over F_q for q = 3, 5, 7.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from swingwords.chains import Chain
from swingwords.cli import main
from swingwords.textio import render_chain, render_swingword
from swingwords.trees import SwingWord, enumerate_topologies, relabel_legs, tree_to_json

SHAPES = [shape for legs in range(2, 6) for shape in enumerate_topologies(legs)]

# stand-ins for a well-typed field: wrong types, booleans, out-of-range integers
ODD_VALUES = st.one_of(st.booleans(), st.none(), st.floats(), st.text(max_size=3),
                       st.integers(-2, 9), st.lists(st.booleans(), max_size=3),
                       st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))


def _drop_edge(draw, payload):
    if payload["edges"]:
        del payload["edges"][draw(st.integers(0, len(payload["edges"]) - 1))]


def _duplicate_edge(draw, payload):
    if payload["edges"]:
        payload["edges"].append(draw(st.sampled_from(payload["edges"])))


def _repoint_edge(draw, payload):
    if payload["edges"]:
        edge = draw(st.sampled_from(payload["edges"]))
        edge[draw(st.integers(0, 1))] = draw(st.integers(-1, len(payload["vertices"]) + 2))


def _wrong_cyclic(draw, payload):
    vertex = draw(st.sampled_from(payload["vertices"]))
    payload["cyclic"][str(vertex)] = draw(st.one_of(
        st.permutations(range(3)),
        st.lists(st.integers(-1, len(payload["edges"])), max_size=4)))


def _odd_field(draw, payload):
    payload[draw(st.sampled_from(["vertices", "edges", "cyclic", "legs", "p"]))] = draw(ODD_VALUES)


def _boolean_entry(draw, payload):
    flag = draw(st.booleans())
    field = draw(st.sampled_from(["vertices", "edges", "cyclic", "legs"]))
    if field == "vertices":
        payload["vertices"][draw(st.integers(0, len(payload["vertices"]) - 1))] = flag
    elif field == "edges" and payload["edges"]:
        draw(st.sampled_from(payload["edges"]))[draw(st.integers(0, 1))] = flag
    elif field == "cyclic" and any(payload["cyclic"].values()):
        order = draw(st.sampled_from([o for o in payload["cyclic"].values() if o]))
        order[draw(st.integers(0, len(order) - 1))] = flag
    elif field == "legs":
        payload["legs"][draw(st.sampled_from(sorted(payload["legs"])))] = flag


def _drop_key(draw, payload):
    del payload[draw(st.sampled_from(sorted(payload)))]


# these keep every field's JSON type, so they compose; the two below do not
MUTATIONS = [_drop_edge, _duplicate_edge, _repoint_edge, _wrong_cyclic, _boolean_entry]


@st.composite
def tree_texts(draw):
    shape = draw(st.sampled_from(SHAPES))
    p = draw(st.integers(1, 3))
    letters = draw(st.lists(st.integers(1, p), min_size=len(shape.legs),
                            max_size=len(shape.legs)))
    payload = json.loads(tree_to_json(relabel_legs(shape, letters, p)))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(draw, payload)
    last = draw(st.sampled_from([None, _odd_field, _drop_key]))
    if last is not None:
        last(draw, payload)
    return json.dumps(payload)


magmas = st.recursive(st.integers(0, 4), lambda inner: st.tuples(inner, inner), max_leaves=4)
swing_words = st.builds(SwingWord, tail=st.integers(0, 4),
                        beads=st.lists(magmas, max_size=3).map(tuple),
                        head=st.one_of(st.none(), st.integers(0, 4)),
                        sign=st.sampled_from((1, -1))).map(render_swingword)


@st.composite
def edited(draw, texts):
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    keep = draw(st.booleans())
    return text[:at] + draw(st.characters()) + text[at + (0 if keep else 1):]


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), argv


# drawing a tree over every shape through 5 legs can pass the time limit of
# the too_slow health check on a slow machine, with no fault in the program
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(tree_texts(), st.one_of(st.none(), st.integers(1, 3)), st.sampled_from(["text", "json"]))
def test_class_on_fuzzed_tree_files_keeps_the_exit_contract(text, p, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.json"
        path.write_text(text, encoding="utf-8")
        argv = ["class", "--tree", str(path), "--format", fmt]
        _assert_contract(argv + ([] if p is None else ["-p", str(p)]))


@settings(max_examples=200)
@given(st.one_of(swing_words, edited(swing_words), st.text(max_size=20)),
       st.integers(1, 3), st.sampled_from(["text", "json"]))
# '²' passes str.isdigit, but int() refuses it
@example("<²>", 1, "text")
@example("<² |  | 1>", 1, "text")
# argparse reads "--swingword=--" as an empty list
@example("--", 1, "text")
def test_rho_on_fuzzed_swing_words_keeps_the_exit_contract(text, p, fmt):
    _assert_contract(["rho", f"--swingword={text}", "-p", str(p), "--format", fmt])


@st.composite
def chains(draw):
    """A rendered chain over 1..3: homogeneous of degree 1-5, or of mixed degrees."""
    degree = draw(st.one_of(st.just(None), st.integers(1, 5)))
    length = st.integers(1, 5) if degree is None else st.just(degree)
    words = length.flatmap(lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = draw(st.dictionaries(words.map(tuple), coeffs, max_size=4))
    return render_chain(Chain(3, terms))


CHAIN_COMMANDS = (["eta"], ["fold", "--kind", "l"], ["fold", "--kind", "prime"],
                  ["reduce", "--space", "l"], ["reduce", "--space", "prime"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(chains(), edited(chains()), st.text(max_size=20)),
       st.sampled_from(CHAIN_COMMANDS), st.integers(-1, 6),
       st.sampled_from((None, 3, 5, 7)), st.sampled_from((2, 3)),
       st.sampled_from(["text", "json"]))
def test_chain_commands_on_fuzzed_chains_keep_the_exit_contract(text, command, n, char, p, fmt):
    argv = command + (["--n", str(n)] if command[0] == "fold" else [])
    argv += [f"--chain={text}", "-p", str(p), "--format", fmt]
    _assert_contract(argv + ([] if char is None else ["--char", str(char)]))
