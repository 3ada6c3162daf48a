"""Labeled uni-trivalent trees with cyclic vertex orientations, their local
moves, and the expansion of pendant subtrees into word chains.

Orientation conventions (any consistent choice works; the move-compatibility
suite pins these):
  * at a column vertex, the reading (in-edge, bead-edge, out-edge) taken as a
    cyclic sequence is positive; the opposite cyclic class contributes -1;
  * inside a bead, the two children of a vertex are read in cyclic order after
    the edge toward the column, and that order is the magma order.
The pair is mutually consistent: head/tail re-choice and internal-edge
expansion then agree in the primed quotient, which the suite verifies.
Trees are compared through their stored vertex ordering; no graph-isomorphism
canonicalization is attempted, and equality of diagram classes is always
decided through the primed canonical form.

Every walk runs over the neighbour map of `JacobiTree.incidence()`, which
sends each vertex to {edge index: other end}. A swing word is read by
rooting that map at the head, so each vertex knows its edge toward the head,
and then walking once from the tail along those edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .chains import Chain, Word, accumulate
from .moves import MagmaTerm, check_magma, expand_word, magma_nodes
from .quotients import PrimeCanonical, canonical_prime
from .scalars import InputError


class JacobiTree:
    """A connected acyclic graph, every vertex of valence 1 or 3, univalent
    vertices labeled by letters, trivalent vertices cyclically oriented."""

    __slots__ = ("vertices", "edges", "cyclic", "legs", "p")

    def __init__(self, vertices, edges, cyclic, legs, p: int):
        self.vertices = tuple(vertices)
        self.edges = tuple((u, v) for u, v in edges)
        self.cyclic = {v: tuple(order) for v, order in cyclic.items()}
        self.legs = dict(legs)
        self.p = p

    def incidence(self) -> dict[int, dict[int, int]]:
        """Each vertex's neighbour map {edge index: other end}, in edge order."""
        inc: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        for index, (u, v) in enumerate(self.edges):
            inc[u][index] = v
            inc[v][index] = u
        return inc

    def leg_vertices(self) -> list[int]:
        """Legs in the stored vertex order."""
        return [v for v in self.vertices if v in self.legs]

    def _key(self):
        return (self.vertices, self.edges, tuple(sorted(self.cyclic.items())),
                tuple(sorted(self.legs.items())), self.p)

    def __eq__(self, other):
        if not isinstance(other, JacobiTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"JacobiTree(vertices={self.vertices}, edges={self.edges}, legs={self.legs})"


def validate(tree: JacobiTree) -> None:
    """Check every structural invariant; raises InputError naming the first
    violated one."""
    if not tree.vertices:
        raise InputError("empty: tree has no vertices")
    if len(set(tree.vertices)) != len(tree.vertices):
        raise InputError("vertices: duplicate vertex ids")
    known = set(tree.vertices)
    for what, keyed in (("legs", tree.legs), ("cyclic", tree.cyclic)):
        stray = sorted(set(keyed) - known)
        if stray:
            raise InputError(f"{what}: key {stray[0]} names no vertex of the tree")
    if len(tree.vertices) == 1:
        v = tree.vertices[0]
        if tree.edges:
            raise InputError("acyclic: single vertex with edges")
        if v not in tree.legs:
            raise InputError("label: degenerate vertex must be labeled")
        _check_letter(tree.legs[v], tree.p)
        return
    for u, v in tree.edges:
        if u not in known or v not in known:
            raise InputError(f"edges: edge ({u},{v}) references unknown vertex")
        if u == v:
            raise InputError("acyclic: self-loop")
    inc = tree.incidence()
    if len(_parent_edges(inc, tree.vertices[0])) != len(tree.vertices):
        raise InputError("connected: graph is not connected")
    if len(tree.edges) != len(tree.vertices) - 1:
        raise InputError("acyclic: graph contains a cycle")
    for v in tree.vertices:
        degree = len(inc[v])
        if degree not in (1, 3):
            raise InputError(f"valence: vertex {v} has valence {degree}")
        if degree == 1:
            if v not in tree.legs:
                raise InputError(f"label: leg {v} is unlabeled")
            _check_letter(tree.legs[v], tree.p)
            if v in tree.cyclic:
                raise InputError(f"cyclic: leg {v} must not carry a cyclic order")
        else:
            if v in tree.legs:
                raise InputError(f"label: trivalent vertex {v} is labeled")
            order = tree.cyclic.get(v)
            if order is None or sorted(order) != sorted(inc[v]):
                raise InputError(f"cyclic: vertex {v} needs a cyclic order of its 3 edges")


def _parent_edges(inc: dict[int, dict[int, int]], root: int) -> dict[int, int | None]:
    """Walk the neighbour map from root; map each vertex reached to the edge
    it was reached by, the edge toward root (None for the root)."""
    parent_edge = {root: None}
    frontier = [root]
    while frontier:
        x = frontier.pop()
        for e, y in inc[x].items():
            if y not in parent_edge:
                parent_edge[y] = e
                frontier.append(y)
    return parent_edge


def _check_letter(letter, p):
    if not isinstance(letter, int) or not 1 <= letter <= p:
        raise InputError(f"label: letter {letter!r} outside alphabet 1..{p}")


def _cyclic_after(tree: JacobiTree, vertex: int, edge_index: int) -> tuple[int, int]:
    order = tree.cyclic[vertex]
    i = order.index(edge_index)
    return order[(i + 1) % 3], order[(i + 2) % 3]


def as_swap(tree: JacobiTree, vertex: int) -> tuple[JacobiTree, int]:
    """Transpose two edges in the vertex's cyclic order; the class negates."""
    order = tree.cyclic.get(vertex)
    if order is None:
        raise InputError(f"vertex {vertex} is not trivalent")
    cyclic = dict(tree.cyclic)
    cyclic[vertex] = (order[1], order[0], order[2])
    return JacobiTree(tree.vertices, tree.edges, cyclic, tree.legs, tree.p), -1


def ihx_expand(tree: JacobiTree, edge_index: int) -> list[tuple[JacobiTree, int]]:
    """Expand an internal edge into the two re-associated trees whose classes
    sum to the class of the input."""
    if not 0 <= edge_index < len(tree.edges):
        raise InputError(f"no edge with index {edge_index}")
    u, v = tree.edges[edge_index]
    if u in tree.legs or v in tree.legs:
        raise InputError("edge touches a leg; expansion needs an internal edge")
    edge_a, edge_b = _cyclic_after(tree, u, edge_index)
    edge_c, edge_d = _cyclic_after(tree, v, edge_index)

    def rewire(move_to_v: int, move_to_u: int, cyclic_u, cyclic_v) -> JacobiTree:
        edges = list(tree.edges)
        eu, ev = edges[move_to_v]
        edges[move_to_v] = (v if eu == u else eu, v if ev == u else ev)
        eu, ev = edges[move_to_u]
        edges[move_to_u] = (u if eu == v else eu, u if ev == v else ev)
        cyclic = dict(tree.cyclic)
        cyclic[u] = cyclic_u
        cyclic[v] = cyclic_v
        return JacobiTree(tree.vertices, edges, cyclic, tree.legs, tree.p)

    # Locally the input reads ((A B) C) toward D; the replacements are
    # ((A C) B) and (A (B C)), the two other association patterns.
    h_tree = rewire(edge_b, edge_c,
                    (edge_index, edge_a, edge_c),
                    (edge_index, edge_b, edge_d))
    x_tree = rewire(edge_a, edge_c,
                    (edge_index, edge_b, edge_c),
                    (edge_a, edge_index, edge_d))
    return [(h_tree, 1), (x_tree, 1)]


@dataclass(frozen=True)
class Vertebrate:
    """A tree with distinguished head and tail legs; the vertebral column is
    the unique path between them."""

    tree: JacobiTree
    head: int
    tail: int


@dataclass(frozen=True)
class SwingWord:
    """Tail letter, ordered pendant beads along the column, head letter, and
    the accumulated orientation sign. head None encodes the degenerate
    single-letter case."""

    tail: int
    beads: tuple[MagmaTerm, ...]
    head: int | None
    sign: int = 1

    def __repr__(self):
        from .textio import render_swingword

        return f"SwingWord({render_swingword(self)!r})"


def to_vertebrate(tree: JacobiTree) -> Vertebrate:
    """Choose the lowest-ordered leg as head and the next as tail; any other
    choice gives the same primed class."""
    validate(tree)
    legs = tree.leg_vertices()
    if len(legs) == 1:
        return Vertebrate(tree, legs[0], legs[0])
    return Vertebrate(tree, legs[0], legs[1])


def _bead_term(tree: JacobiTree, inc: dict[int, dict[int, int]], vertex: int,
               entry_edge: int) -> MagmaTerm:
    child = inc[vertex][entry_edge]
    if child in tree.legs:
        return tree.legs[child]
    first, second = _cyclic_after(tree, child, entry_edge)
    return (_bead_term(tree, inc, child, first), _bead_term(tree, inc, child, second))


def read_swingword(v: Vertebrate) -> SwingWord:
    """Walk the column once from tail to head, collecting pendant rooted
    subtrees as beads. Of the two edges after the in-edge in a column
    vertex's cyclic order, the one not toward the head is the bead edge; the
    positive reading is (in, bead, out), so the sign flips when the edge
    toward the head comes first."""
    tree = v.tree
    if v.head == v.tail:
        if len(tree.vertices) == 1:
            return SwingWord(tail=tree.legs[v.head], beads=(), head=None)
        raise InputError("head and tail coincide on a non-degenerate tree")
    if v.head not in tree.legs or v.tail not in tree.legs:
        raise InputError("head and tail must be legs")
    inc = tree.incidence()
    toward_head = _parent_edges(inc, v.head)
    beads = []
    sign = 1
    in_edge = toward_head[v.tail]
    current = inc[v.tail][in_edge]
    while current != v.head:
        out_edge = toward_head[current]
        bead_edge, other = _cyclic_after(tree, current, in_edge)
        if bead_edge == out_edge:
            sign = -sign
            bead_edge = other
        beads.append(_bead_term(tree, inc, current, bead_edge))
        in_edge, current = out_edge, inc[current][out_edge]
    return SwingWord(tail=tree.legs[v.tail], beads=tuple(beads),
                     head=tree.legs[v.head], sign=sign)


def is_swing(value) -> bool:
    """True when every bead is a single leaf (the strut counts vacuously)."""
    sw = read_swingword(value) if isinstance(value, Vertebrate) else value
    return all(isinstance(b, int) for b in sw.beads)


def rho(sw: SwingWord, p: int) -> Chain:
    """Expand a swing word into the word algebra: tail letter, the commutator
    expansion of each bead in column order, head letter, all scaled by the
    orientation sign."""
    if sw.head is None:
        return Chain.of_word(p, (sw.tail,), sw.sign)
    terms: dict[Word, int] = {(sw.tail,): sw.sign}
    for bead in sw.beads:
        check_magma(bead, p)
        expansion = expand_word(bead).items()
        terms = accumulate((w1 + w2, c1 * c2) for w1, c1 in terms.items()
                           for w2, c2 in expansion)
    return Chain(p, {w + (sw.head,): c for w, c in terms.items()})


def split_positions(sw: SwingWord) -> list[tuple[int, tuple[int, ...]]]:
    """All (bead index, node path) positions a breakdown schedule must cover."""
    positions = []
    for i, bead in enumerate(sw.beads):
        positions.extend((i, path) for path in magma_nodes(bead))
    return positions


def rho_alt(sw: SwingWord, schedule, p: int) -> Chain:
    """Stepwise breakdown in the scheduled order of bead nodes; every
    admissible schedule reproduces rho exactly."""
    required = split_positions(sw)
    given = list(schedule)
    if sorted(given) != sorted(required):
        raise InputError("schedule must cover every non-leaf bead node exactly once")
    if sw.head is None:
        return Chain.of_word(p, (sw.tail,), sw.sign)
    for bead in sw.beads:
        check_magma(bead, p)

    def to_state(term):
        if isinstance(term, int):
            return term
        return ["n", to_state(term[0]), to_state(term[1])]

    def split_at(node, path):
        if not path:
            if not (isinstance(node, list) and node[0] == "n"):
                raise InputError("schedule addresses a node that is not splittable")
            return (["s", node[1], node[2], False], ["s", node[1], node[2], True])
        if not isinstance(node, list):
            raise InputError("schedule addresses a missing node")
        step = path[0]
        child_plus, child_minus = split_at(node[1 + step], path[1:])
        plus = node[:]
        plus[1 + step] = child_plus
        minus = node[:]
        minus[1 + step] = child_minus
        return plus, minus

    terms = [(sw.sign, [to_state(b) for b in sw.beads])]
    for bead_index, path in given:
        next_terms = []
        for sign, beads in terms:
            plus, minus = split_at(beads[bead_index], path)
            beads_plus = list(beads)
            beads_plus[bead_index] = plus
            beads_minus = list(beads)
            beads_minus[bead_index] = minus
            next_terms.append((sign, beads_plus))
            next_terms.append((-sign, beads_minus))
        terms = next_terms

    def flatten(node) -> tuple[int, ...]:
        if isinstance(node, int):
            return (node,)
        tag, left, right, flipped = node
        a, b = flatten(left), flatten(right)
        return b + a if flipped else a + b

    def word_of(beads) -> Word:
        return (sw.tail,) + sum((flatten(node) for node in beads), ()) + (sw.head,)

    return Chain(p, accumulate((word_of(beads), sign) for sign, beads in terms))


def tree_chain(tree: JacobiTree, head: int | None = None, tail: int | None = None) -> Chain:
    """rho of the tree's swing word read from the given head and tail legs
    (default: to_vertebrate's choice)."""
    v = to_vertebrate(tree) if head is None else Vertebrate(tree, head, tail)
    return rho(read_swingword(v), tree.p)


def diagram_class(tree: JacobiTree) -> PrimeCanonical:
    """The primed canonical form of the tree: invariant under orientation
    swaps (with sign), internal-edge expansion, and head/tail choice."""
    return canonical_prime(tree_chain(tree))


def tree_to_json(tree: JacobiTree) -> str:
    payload = {
        "vertices": list(tree.vertices),
        "edges": [list(e) for e in tree.edges],
        "cyclic": {str(v): list(order) for v, order in sorted(tree.cyclic.items())},
        "legs": {str(v): letter for v, letter in sorted(tree.legs.items())},
        "p": tree.p,
    }
    return json.dumps(payload, sort_keys=True)


def _is_int(value) -> bool:
    """JSON integers only: bool is a subclass of int, but true is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, what: str) -> list:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise InputError(f"tree JSON: {what} must be a list of integers")
    return value


def _int_keyed(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"tree JSON: {what!r} must be an object")
    try:
        return {int(k): v for k, v in value.items()}
    except ValueError:
        raise InputError(f"tree JSON: {what!r} keys must be vertex ids") from None


def tree_from_json(text: str, p: int | None = None) -> JacobiTree:
    try:
        payload = json.loads(text)
    except ValueError as exc:  # malformed JSON, or a number past the digit limit
        raise InputError(f"invalid tree JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("tree JSON must be an object")
    for key in ("vertices", "edges", "legs"):
        if key not in payload:
            raise InputError(f"tree JSON is missing {key!r}")
    legs = _int_keyed(payload["legs"], "legs")
    if not all(_is_int(letter) for letter in legs.values()):
        raise InputError("tree JSON: leg letters must be integers")
    edges = payload["edges"]
    if not isinstance(edges, list) or any(len(_int_list(e, "each edge")) != 2 for e in edges):
        raise InputError("tree JSON: 'edges' must be a list of vertex pairs")
    cyclic = {v: tuple(_int_list(order, "each cyclic order"))
              for v, order in _int_keyed(payload.get("cyclic", {}), "cyclic").items()}
    if "p" in payload and not (_is_int(payload["p"]) and payload["p"] >= 1):
        raise InputError("tree JSON: 'p' must be a positive integer")
    if p is None:
        p = payload.get("p", max(legs.values(), default=1))
    tree = JacobiTree(_int_list(payload["vertices"], "'vertices'"),
                      [tuple(e) for e in edges], cyclic, legs, p)
    validate(tree)
    return tree


def enumerate_topologies(num_legs: int) -> list[JacobiTree]:
    """All leaf-labeled uni-trivalent tree shapes with the given number of
    legs (legs get vertex ids 1..L in order, all labeled 1), one fixed
    orientation each. Counts follow the double-factorial growth 1, 3, 15, ...
    """
    if num_legs < 2:
        raise InputError("a tree shape needs at least 2 legs")
    shapes = [[(1, 2)]]
    for leaf in range(3, num_legs + 1):
        internal = num_legs + leaf - 2
        shapes = [edges[:i] + edges[i + 1:] + [(u, internal), (internal, v), (internal, leaf)]
                  for edges in shapes for i, (u, v) in enumerate(edges)]
    vertices = range(1, 2 * num_legs - 1)
    legs = {v: 1 for v in range(1, num_legs + 1)}
    trees = []
    for edges in shapes:
        inc = JacobiTree(vertices, edges, {}, legs, 1).incidence()
        cyclic = {v: tuple(at) for v, at in inc.items() if len(at) == 3}
        trees.append(JacobiTree(vertices, edges, cyclic, legs, 1))
    return trees


def relabel_legs(tree: JacobiTree, letters, p: int) -> JacobiTree:
    """Assign the given letters to the legs in stored vertex order."""
    legs = tree.leg_vertices()
    letters = list(letters)
    if len(letters) != len(legs):
        raise InputError(f"need {len(legs)} letters, got {len(letters)}")
    return JacobiTree(tree.vertices, tree.edges, tree.cyclic,
                      dict(zip(legs, letters)), p)
