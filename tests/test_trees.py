import random
from itertools import permutations, product

import pytest

from swingwords.chains import Chain
from swingwords.quotients import canonical_prime
from swingwords.scalars import InputError
from swingwords.trees import (JacobiTree, SwingWord, Vertebrate, _view, as_swap,
                              diagram_class, enumerate_topologies, ihx_expand,
                              is_swing, read_swingword, relabel_legs, rho,
                              rho_alt, split_positions, to_vertebrate, tree_chain,
                              tree_from_json, tree_to_json, validate)
from test_cli import _comb_tree


def strut(a=1, b=2, p=2):
    return JacobiTree([1, 2], [(1, 2)], {}, {1: a, 2: b}, p)


def y_tree():
    return JacobiTree([1, 2, 3, 4], [(1, 4), (2, 4), (3, 4)], {4: (0, 1, 2)},
                      {1: 1, 2: 2, 3: 3}, 3)


def test_validate_strut():
    validate(strut())


def test_validate_four_valent():
    bad = JacobiTree([1, 2, 3, 4, 5], [(1, 5), (2, 5), (3, 5), (4, 5)],
                     {5: (0, 1, 2)}, {i: 1 for i in range(1, 5)}, 2)
    with pytest.raises(InputError, match="valence"):
        validate(bad)


def test_validate_disconnected():
    bad = JacobiTree([1, 2, 3, 4], [(1, 2), (3, 4)], {}, {i: 1 for i in range(1, 5)}, 2)
    with pytest.raises(InputError, match="connected"):
        validate(bad)


def test_validate_cycle():
    bad = JacobiTree([1, 2, 3], [(1, 2), (2, 3), (3, 1)], {}, {}, 2)
    with pytest.raises(InputError, match="acyclic|valence"):
        validate(bad)


def test_validate_missing_label():
    bad = JacobiTree([1, 2], [(1, 2)], {}, {1: 1}, 2)
    with pytest.raises(InputError, match="label"):
        validate(bad)


def test_degenerate_single_vertex():
    t = JacobiTree([1], [], {}, {1: 2}, 2)
    validate(t)
    v = to_vertebrate(t)
    assert v.head == v.tail == 1
    sw = read_swingword(v)
    assert sw.head is None and sw.tail == 2
    assert rho(sw, 2) == Chain.of_word(2, (2,))
    assert canonical_prime(rho(sw, 2)).is_zero()


def test_to_vertebrate_ordering_rule():
    v = to_vertebrate(strut())
    assert v.head == 1 and v.tail == 2
    vy = to_vertebrate(y_tree())
    assert (vy.head, vy.tail) == (1, 2)
    swy = read_swingword(vy)
    assert swy.beads and isinstance(swy.beads[0], int)


def test_read_swingword_strut():
    sw = read_swingword(Vertebrate(strut(), head=2, tail=1))
    assert sw == SwingWord(tail=1, beads=(), head=2, sign=1)


def test_read_swingword_caterpillar():
    # column 1 - 5 - 6 - 2 with pendant legs 3 at 5 and 4 at 6
    t = JacobiTree([1, 2, 3, 4, 5, 6],
                   [(1, 5), (5, 3), (5, 6), (6, 4), (6, 2)],
                   {5: (0, 1, 2), 6: (2, 3, 4)},
                   {1: 1, 2: 2, 3: 1, 4: 2}, 2)
    validate(t)
    sw = read_swingword(Vertebrate(t, head=2, tail=1))
    assert sw.tail == 1 and sw.head == 2
    assert sw.beads == (1, 2)
    assert is_swing(sw)


def test_is_swing_on_tree_bead():
    sw = SwingWord(tail=1, beads=(((1, 2), 2),), head=2)
    assert not is_swing(sw)
    assert is_swing(SwingWord(tail=1, beads=(), head=2))


def test_rho_strut_and_bead():
    assert rho(SwingWord(tail=1, beads=(), head=2), 2) == Chain.of_word(2, (1, 2))
    chain = rho(SwingWord(tail=1, beads=((2, 3),), head=4), 4)
    assert chain == Chain(4, {(1, 2, 3, 4): 1, (1, 3, 2, 4): -1})


def test_rho_sign_scales():
    sw = SwingWord(tail=1, beads=(2,), head=1, sign=-1)
    assert rho(sw, 2) == Chain.of_word(2, (1, 2, 1), -1)


@pytest.mark.parametrize("sw, p, message", [
    (SwingWord(tail=3, beads=(1,), head=2), 2, r"letter 3 outside alphabet 1\.\.2"),
    (SwingWord(tail=1, beads=(1, 2), head=0), 2, r"letter 0 outside alphabet 1\.\.2"),
    (SwingWord(tail=3, beads=((1, 3),), head=2), 2, r"magma leaf 3 outside alphabet 1\.\.2"),
    (SwingWord(tail=1, beads=(), head=2, sign=1.0), 2, "not an int or a Fraction"),
    (SwingWord(tail=1, beads=(), head=1), 0, "alphabet bound must be >= 1"),
])
def test_rho_checks_letters_and_sign_before_making_its_chain(sw, p, message):
    with pytest.raises(InputError, match=message):
        rho(sw, p)


def test_rho_alt_all_schedules_agree():
    sw = SwingWord(tail=1, beads=(((1, 2), 2), (2, 1)), head=2)
    reference = rho(sw, 2)
    count = 0
    for schedule in permutations(split_positions(sw)):
        assert rho_alt(sw, list(schedule), 2) == reference
        count += 1
    assert count == 6


def test_rho_alt_rejects_bad_schedules():
    sw = SwingWord(tail=1, beads=(((1, 2), 2),), head=2)
    positions = split_positions(sw)
    with pytest.raises(InputError):
        rho_alt(sw, positions[:1], 2)
    with pytest.raises(InputError):
        rho_alt(sw, positions + positions[:1], 2)
    with pytest.raises(InputError):
        rho_alt(sw, [(0, (9,))], 2)


def test_as_swap_negates_class():
    t = y_tree()
    swapped, sign = as_swap(t, 4)
    assert sign == -1
    assert diagram_class(swapped).image == diagram_class(t).image.scale(-1)
    double, _ = as_swap(swapped, 4)
    assert diagram_class(double) == diagram_class(t)


def test_as_swap_requires_trivalent():
    with pytest.raises(InputError):
        as_swap(y_tree(), 1)


def test_ihx_requires_internal_edge():
    with pytest.raises(InputError):
        ihx_expand(y_tree(), 0)


def test_ihx_sums_to_class():
    t = JacobiTree([1, 2, 3, 4, 5, 6],
                   [(1, 5), (5, 2), (5, 6), (6, 3), (6, 4)],
                   {5: (0, 1, 2), 6: (2, 3, 4)},
                   {1: 1, 2: 2, 3: 1, 4: 2}, 2)
    validate(t)
    base = diagram_class(t)
    parts = ihx_expand(t, 2)
    total = None
    for part, coeff in parts:
        validate(part)
        image = diagram_class(part).image.scale(coeff)
        total = image if total is None else total + image
    assert total == base.image


def test_ihx_then_as_flips_the_part():
    t = JacobiTree([1, 2, 3, 4, 5, 6],
                   [(1, 5), (5, 2), (5, 6), (6, 3), (6, 4)],
                   {5: (0, 1, 2), 6: (2, 3, 4)},
                   {1: 1, 2: 2, 3: 1, 4: 2}, 2)
    part, coeff = ihx_expand(t, 2)[0]
    assert coeff == 1
    vertex = next(iter(part.cyclic))
    swapped, sign = as_swap(part, vertex)
    assert diagram_class(swapped).image == diagram_class(part).image.scale(sign)


def test_diagram_class_strut_reversal():
    assert diagram_class(strut(1, 2)) == diagram_class(strut(2, 1))


def test_json_round_trip():
    t = y_tree()
    text = tree_to_json(t)
    back = tree_from_json(text)
    assert back == t
    assert diagram_class(back) == diagram_class(t)


def test_json_readme_example_parses():
    text = ('{"vertices": [1, 2, 3, 4], "edges": [[1, 4], [2, 4], [3, 4]],'
            ' "cyclic": {"4": [0, 1, 2]}, "legs": {"1": 1, "2": 2, "3": 3},'
            ' "p": 3}')
    tree = tree_from_json(text)
    assert tree == y_tree()


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        tree_from_json("{not json")
    with pytest.raises(InputError):
        tree_from_json('{"vertices": [1]}')


def test_topology_counts():
    assert len(enumerate_topologies(3)) == 1
    assert len(enumerate_topologies(4)) == 3
    assert len(enumerate_topologies(5)) == 15
    assert len(enumerate_topologies(6)) == 105
    for shape in enumerate_topologies(5):
        validate(shape)


def test_relabel_legs():
    shape = enumerate_topologies(4)[0]
    tree = relabel_legs(shape, (2, 1, 2, 1), 2)
    validate(tree)
    assert [tree.legs[v] for v in tree.leg_vertices()] == [2, 1, 2, 1]


def test_relabel_legs_keeps_the_flag_of_its_input():
    shape = enumerate_topologies(5)[2]
    assert not relabel_legs(shape, (1, 2, 1, 2, 1), 2)._valid
    validate(shape)
    tree = relabel_legs(shape, (1, 2, 1, 2, 1), 2)
    assert tree._valid
    tree._valid = False
    validate(tree)  # the full check agrees with the carried flag


@pytest.mark.parametrize("validated", [False, True])
@pytest.mark.parametrize("letters, p", [((1, 2, 3, 1), 2), ((0, 1, 1, 1), 2),
                                        ((1, 1, 1, 1), 0)])
def test_relabel_legs_refuses_a_letter_outside_the_alphabet(validated, letters, p):
    shape = enumerate_topologies(4)[1]
    if validated:
        validate(shape)
    with pytest.raises(InputError, match="outside alphabet"):
        relabel_legs(shape, letters, p)


def test_head_tail_choice_is_class_invariant():
    for shape in enumerate_topologies(4):
        for letters in product((1, 2), repeat=4):
            tree = relabel_legs(shape, letters, 2)
            legs = tree.leg_vertices()
            classes = {canonical_prime(rho(read_swingword(Vertebrate(tree, h, t)), 2))
                       for h in legs for t in legs if h != t}
            assert len(classes) == 1


def test_degree_bookkeeping():
    t = y_tree()
    chain = rho(read_swingword(to_vertebrate(t)), t.p)
    assert chain.degree() == 3
    assert chain.multidegree() == (1, 1, 1)


def _reference_read(v):
    """The earlier reader, kept as the reference: a parent map from the tail,
    a backtrack from the head into a list of column edges, a forward walk
    over that list, and a scan of the incidence list for each bead edge."""
    tree = v.tree

    def other_end(edge_index, vertex):
        u, w = tree.edges[edge_index]
        if vertex == u:
            return w
        if vertex == w:
            return u
        raise AssertionError(f"edge {edge_index} is not incident to vertex {vertex}")

    def after(vertex, edge_index):
        order = tree.cyclic[vertex]
        i = order.index(edge_index)
        return order[(i + 1) % 3], order[(i + 2) % 3]

    def bead(vertex, entry_edge):
        child = other_end(entry_edge, vertex)
        if child in tree.legs:
            return tree.legs[child]
        first, second = after(child, entry_edge)
        return (bead(child, first), bead(child, second))

    inc = {x: [] for x in tree.vertices}
    for index, (a, b) in enumerate(tree.edges):
        inc[a].append(index)
        inc[b].append(index)
    parent_edge = {v.tail: None}
    frontier = [v.tail]
    while frontier:
        x = frontier.pop()
        for e in inc[x]:
            y = other_end(e, x)
            if y not in parent_edge:
                parent_edge[y] = e
                frontier.append(y)
    column_edges = []
    x = v.head
    while x != v.tail:
        column_edges.append(parent_edge[x])
        x = other_end(parent_edge[x], x)
    column_edges.reverse()
    beads = []
    sign = 1
    current = v.tail
    for in_edge, out_edge in zip(column_edges, column_edges[1:]):
        current = other_end(in_edge, current)
        bead_edge = next(e for e in inc[current] if e not in (in_edge, out_edge))
        if after(current, in_edge) != (bead_edge, out_edge):
            sign = -sign
        beads.append(bead(current, bead_edge))
    return SwingWord(tail=tree.legs[v.tail], beads=tuple(beads),
                     head=tree.legs[v.head], sign=sign)


def test_read_swingword_matches_reference_reader_through_six_legs():
    draw = random.Random(7)
    reads = 0
    for num_legs in range(2, 7):
        for shape in enumerate_topologies(num_legs):
            # a seeded draw flips each trivalent vertex's orientation or not
            cyclic = {x: (order[1], order[0], order[2]) if draw.random() < 0.5 else order
                      for x, order in shape.cyclic.items()}
            shape = JacobiTree(shape.vertices, shape.edges, cyclic, shape.legs, 2)
            legs = shape.leg_vertices()
            for letters in product((1, 2), repeat=num_legs):
                tree = relabel_legs(shape, letters, 2)
                for head, tail in permutations(legs, 2):
                    v = Vertebrate(tree, head, tail)
                    assert read_swingword(v) == _reference_read(v), (tree, head, tail)
                    reads += 1
    assert reads == 8 + 48 + 576 + 9600 + 201600


def test_read_swingword_reads_a_deep_comb_bead_without_recursion():
    depth = 1500
    tree = _comb_tree(depth)
    sw = read_swingword(Vertebrate(tree, 2, 1))
    assert (sw.tail, sw.head, len(sw.beads)) == (2, 1, 1)
    # the bead is (2, (2, ... (2, 1))): walked down here, since comparing
    # tuples nested this deep would itself recurse
    term = sw.beads[0]
    for _ in range(depth):
        assert isinstance(term, tuple) and term[0] == 2
        term = term[1]
    assert term == 1


def _moves(tree):
    """Every orientation swap and every internal-edge part of the tree."""
    outputs = [as_swap(tree, vertex)[0] for vertex in sorted(tree.cyclic)]
    for index, (u, v) in enumerate(tree.edges):
        if u not in tree.legs and v not in tree.legs:
            outputs.extend(part for part, _ in ihx_expand(tree, index))
    return outputs


def test_move_outputs_of_valid_trees_pass_the_full_check_through_seven_legs():
    checked = 0
    for legs in range(3, 8):
        for shape in enumerate_topologies(legs):
            tree = relabel_legs(shape, range(1, legs + 1), legs)
            validate(tree)
            for output in _moves(tree):
                assert output._valid
                output._valid = False  # so every check runs again
                validate(output)
                assert output._valid
                checked += 1
    # a shape with L legs has L - 2 trivalent vertices and L - 3 internal edges
    assert checked == sum(count * ((legs - 2) + 2 * (legs - 3))
                          for legs, count in ((3, 1), (4, 3), (5, 15), (6, 105), (7, 945)))


def _invalid_trees():
    four_legs = ([1, 2, 3, 4, 5, 6], [(1, 5), (5, 2), (5, 6), (6, 3), (6, 4)],
                 {5: (0, 1, 2), 6: (2, 3, 4)})
    return {
        "letter outside the alphabet": JacobiTree(*four_legs, {1: 1, 2: 2, 3: 1, 4: 9}, 2),
        "missing cyclic order": JacobiTree(four_legs[0], four_legs[1], {5: (0, 1, 2)},
                                           {1: 1, 2: 2, 3: 1, 4: 2}, 2),
        "cycle": JacobiTree([1, 2, 3], [(1, 2), (2, 3), (3, 1)], {}, {1: 1, 2: 1, 3: 1}, 1),
        "unlabeled leg": JacobiTree([1, 2, 3, 4], [(1, 4), (2, 4), (3, 4)],
                                    {4: (0, 1, 2)}, {1: 1, 2: 2}, 2),
    }


@pytest.mark.parametrize("name", list(_invalid_trees()))
def test_hand_built_invalid_tree_raises_from_every_reader(name):
    tree = _invalid_trees()[name]
    for read in (to_vertebrate, tree_chain, diagram_class):
        with pytest.raises(InputError):
            read(tree)
    assert not tree._valid


def test_moves_of_an_unvalidated_tree_return_unflagged_trees():
    bad = _invalid_trees()["letter outside the alphabet"]
    for output in _moves(bad):
        assert not output._valid
        with pytest.raises(InputError, match="outside alphabet"):
            to_vertebrate(output)
    good = relabel_legs(enumerate_topologies(5)[0], [1, 2, 1, 2, 1], 2)
    assert all(not output._valid for output in _moves(good))


def _all_reads(tree):
    return [read_swingword(Vertebrate(tree, head, tail))
            for head, tail in permutations(tree.leg_vertices(), 2)]


def test_reads_through_the_cached_view_match_reads_from_a_cleared_cache():
    a = relabel_legs(enumerate_topologies(6)[7], range(1, 7), 6)
    b = ihx_expand(a, next(i for i, (u, v) in enumerate(a.edges)
                           if u not in a.legs and v not in a.legs))[0][0]
    a_swapped = as_swap(a, sorted(a.cyclic)[0])[0]
    assert a.vertices == b.vertices and a.edges != b.edges
    sequence = (a, b, a, a_swapped)

    def fresh(tree):
        _view.cache_clear()
        return _all_reads(tree)
    expected = [fresh(tree) for tree in sequence]
    _view.cache_clear()
    assert [_all_reads(tree) for tree in sequence] == expected
    assert expected[0] != expected[1] and expected[0] != expected[3]


def test_mutating_the_incidence_map_changes_no_later_read():
    tree = relabel_legs(enumerate_topologies(5)[3], range(1, 6), 5)
    before = _all_reads(tree)
    inc = tree.incidence()
    for neighbours in inc.values():
        neighbours.clear()
    inc.clear()
    assert _all_reads(tree) == before
    assert tree.incidence() is not inc and tree.incidence() == _view(tree.vertices,
                                                                       tree.edges).inc
