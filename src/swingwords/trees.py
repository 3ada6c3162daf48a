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

Trees are hashable values: nothing mutates a JacobiTree after construction.
Every walk runs over one structure view of the tree's shape, `_view(vertices,
edges)`: the neighbour map, sending each vertex to {edge index: other end},
and the parent map toward each root, each filled in when first asked for.
The view depends on the vertex and edge tuples alone, and the last one is
kept (`lru_cache(maxsize=1)`), so `validate`, `read_swingword`, every
head/tail choice of one tree, its orientation swaps and its relabellings
share one view. A swing word is read by taking the parent map toward the
head, so each vertex knows its edge toward the head, and walking once from
the tail along those edges. The view is not stored on the tree, which would
keep one alive for every tree held.

`validate` sets the tree's `_valid` flag and returns at once on a tree that
has it. `as_swap`, `ihx_expand` and `relabel_legs` copy the flag from their
input (their outputs are trees whenever the input is one; `relabel_legs`
checks the new letters), so a tree is checked once, when it is loaded or
built, and a move's or a relabelling's outputs need no second walk.
`read_swingword`, and so `tree_chain` and `is_swing`, calls `validate`
first: a tree built by hand is checked when it is first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .chains import Chain, Word, accumulate, check_alphabet, check_integer, check_word
from .moves import MagmaTerm, check_magma, expand_word, expansion_bound, magma_nodes
from .quotients import PrimeCanonical, canonical_prime
from .scalars import MAX_WORDS, InputError, check_work, field_coefficient
from .textio import _int


class JacobiTree:
    """A connected acyclic graph, every vertex of valence 1 or 3, univalent
    vertices labeled by letters, trivalent vertices cyclically oriented."""

    __slots__ = ("vertices", "edges", "cyclic", "legs", "p", "_valid")

    def __init__(self, vertices, edges, cyclic, legs, p: int):
        self.vertices = tuple(vertices)
        self.edges = tuple((u, v) for u, v in edges)
        self.cyclic = {v: tuple(order) for v, order in cyclic.items()}
        self.legs = dict(legs)
        self.p = p
        self._valid = False

    def incidence(self) -> dict[int, dict[int, int]]:
        """Each vertex's neighbour map {edge index: other end}, in edge order;
        a fresh dict on every call."""
        return _neighbours(self.vertices, self.edges)

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


def _neighbours(vertices, edges) -> dict[int, dict[int, int]]:
    inc: dict[int, dict[int, int]] = {v: {} for v in vertices}
    for index, (u, v) in enumerate(edges):
        inc[u][index] = v
        inc[v][index] = u
    return inc


class _View:
    """The neighbour map of one tree shape and its parent maps toward the
    roots asked for so far."""

    __slots__ = ("inc", "_toward")

    def __init__(self, vertices, edges):
        self.inc = _neighbours(vertices, edges)
        self._toward: dict[int, dict[int, int | None]] = {}

    def toward(self, root: int) -> dict[int, int | None]:
        """Each vertex reached from root mapped to its edge toward root (None
        for the root)."""
        parent_edge = self._toward.get(root)
        if parent_edge is None:
            parent_edge = {root: None}
            frontier = [root]
            while frontier:
                x = frontier.pop()
                for e, y in self.inc[x].items():
                    if y not in parent_edge:
                        parent_edge[y] = e
                        frontier.append(y)
            self._toward[root] = parent_edge  # stored only once complete
        return parent_edge


@lru_cache(maxsize=1)
def _view(vertices: tuple, edges: tuple) -> _View:
    return _View(vertices, edges)


def validate(tree: JacobiTree) -> None:
    """Check every structural invariant; raises InputError naming the first
    violated one. A tree that passed is flagged and not checked again."""
    if tree._valid:
        return
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
        check_word((tree.legs[v],), tree.p, "label: letter")
        check_alphabet(tree.p)
        tree._valid = True
        return
    for u, v in tree.edges:
        if u not in known or v not in known:
            raise InputError(f"edges: edge ({u},{v}) references unknown vertex")
        if u == v:
            raise InputError("acyclic: self-loop")
    view = _view(tree.vertices, tree.edges)
    inc = view.inc
    if len(view.toward(tree.vertices[0])) != len(tree.vertices):
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
            check_word((tree.legs[v],), tree.p, "label: letter")
            if v in tree.cyclic:
                raise InputError(f"cyclic: leg {v} must not carry a cyclic order")
        else:
            if v in tree.legs:
                raise InputError(f"label: trivalent vertex {v} is labeled")
            order = tree.cyclic.get(v)
            if order is None or sorted(order) != sorted(inc[v]):
                raise InputError(f"cyclic: vertex {v} needs a cyclic order of its 3 edges")
    # a leg's letter lies in 1..p, so only a p that is not an int is left to refuse
    check_alphabet(tree.p)
    tree._valid = True


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
    swapped = JacobiTree(tree.vertices, tree.edges, cyclic, tree.legs, tree.p)
    swapped._valid = tree._valid
    return swapped, -1


def ihx_expand(tree: JacobiTree, edge_index: int) -> list[tuple[JacobiTree, int]]:
    """Expand an internal edge into the two re-associated trees whose classes
    sum to the class of the input."""
    if not 0 <= check_integer(edge_index, "edge index") < len(tree.edges):
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
        part = JacobiTree(tree.vertices, edges, cyclic, tree.legs, tree.p)
        part._valid = tree._valid
        return part

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
    """The magma term of the subtree across entry_edge from vertex, built
    with an explicit stack: a pair (vertex, edge) reads the subtree across
    that edge, and None joins the last two terms read."""
    legs = tree.legs
    child = inc[vertex][entry_edge]
    if child in legs:  # a single-leaf bead, the common case
        return legs[child]
    todo: list = [(vertex, entry_edge)]
    built: list = []
    while todo:
        item = todo.pop()
        if item is None:
            right = built.pop()
            built[-1] = (built[-1], right)
            continue
        parent, edge = item
        child = inc[parent][edge]
        if child in legs:
            built.append(legs[child])
        else:
            first, second = _cyclic_after(tree, child, edge)
            todo += (None, (child, second), (child, first))
    return built[0]


def read_swingword(v: Vertebrate) -> SwingWord:
    """Walk the column once from tail to head, collecting pendant rooted
    subtrees as beads. Of the two edges after the in-edge in a column
    vertex's cyclic order, the one not toward the head is the bead edge; the
    positive reading is (in, bead, out), so the sign flips when the edge
    toward the head comes first."""
    tree = v.tree
    validate(tree)
    if v.head not in tree.legs or v.tail not in tree.legs:
        raise InputError("head and tail must be legs")
    if v.head == v.tail:
        if len(tree.vertices) == 1:
            return SwingWord(tail=tree.legs[v.head], beads=(), head=None)
        raise InputError("head and tail coincide on a non-degenerate tree")
    view = _view(tree.vertices, tree.edges)
    inc = view.inc
    toward_head = view.toward(v.head)
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
    orientation sign. The bead leaves, the tail and the head are checked
    once, so every word built is valid and the chain is made unchecked.
    Before each bead is expanded and multiplied in, the terms that step can
    build are bounded by `expansion_bound`, and past MAX_WORDS refused."""
    check_alphabet(p)
    if sw.head is None:
        return Chain.of_word(p, (sw.tail,), sw.sign)
    terms: dict[Word, object] = accumulate([((sw.tail,), field_coefficient(sw.sign))])
    for bead in sw.beads:
        leaves = check_magma(bead, p)
        if len(terms) << (len(leaves) - 1) > MAX_WORDS:
            check_work(len(terms) * expansion_bound(leaves), "rho of the swing word")
        expansion = expand_word(bead).items()
        terms = accumulate((w1 + w2, c1 * c2) for w1, c1 in terms.items()
                           for w2, c2 in expansion)
    check_word((sw.tail, sw.head), p)
    return Chain._make(p, {w + (sw.head,): c for w, c in terms.items()})


def split_positions(sw: SwingWord) -> list[tuple[int, tuple[int, ...]]]:
    """All (bead index, node path) positions a breakdown schedule must cover."""
    positions = []
    for i, bead in enumerate(sw.beads):
        positions.extend((i, path) for path in magma_nodes(bead))
    return positions


def rho_alt(sw: SwingWord, schedule, p: int) -> Chain:
    """Stepwise breakdown in the scheduled order of bead nodes: each split
    doubles the terms, one keeping the node's two halves in order and one,
    with the sign flipped, reversing them. A term is a sign and the
    orientation chosen at each split, in schedule order; each bead is
    flattened once at the end. Every admissible schedule reproduces rho."""
    given = list(schedule)
    if sorted(given) != sorted(split_positions(sw)):
        raise InputError("schedule must cover every non-leaf bead node exactly once")
    if sw.head is None:
        return Chain.of_word(p, (sw.tail,), sw.sign)
    for bead in sw.beads:
        check_magma(bead, p)
    terms = [(sw.sign, ())]
    for _ in given:
        terms = [term for sign, flips in terms
                 for term in ((sign, flips + (False,)), (-sign, flips + (True,)))]
    step = {position: i for i, position in enumerate(given)}

    def flatten(flips, index: int, node, path=()) -> Word:
        if isinstance(node, int):
            return (node,)
        left = flatten(flips, index, node[0], path + (0,))
        right = flatten(flips, index, node[1], path + (1,))
        return right + left if flips[step[index, path]] else left + right

    return Chain(p, accumulate(
        ((sw.tail,) + sum((flatten(flips, i, b) for i, b in enumerate(sw.beads)), ())
         + (sw.head,), sign) for sign, flips in terms))


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


def _int_list(value, what: str) -> list:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
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
        payload = json.loads(text, parse_int=lambda digits: _int(digits, "a number"))
    except ValueError as exc:  # malformed JSON, or a number past the digit limit
        raise InputError(f"invalid tree JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("tree JSON must be an object")
    for key in ("vertices", "edges", "legs"):
        if key not in payload:
            raise InputError(f"tree JSON is missing {key!r}")
    legs = _int_keyed(payload["legs"], "legs")
    if not all(type(letter) is int for letter in legs.values()):
        raise InputError("tree JSON: leg letters must be integers")
    edges = payload["edges"]
    if not isinstance(edges, list) or any(len(_int_list(e, "each edge")) != 2 for e in edges):
        raise InputError("tree JSON: 'edges' must be a list of vertex pairs")
    cyclic = {v: tuple(_int_list(order, "each cyclic order"))
              for v, order in _int_keyed(payload.get("cyclic", {}), "cyclic").items()}
    try:
        check_alphabet(payload.get("p", 1))
    except InputError:
        raise InputError("tree JSON: 'p' must be a positive integer") from None
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
    if check_integer(num_legs, "number of legs") < 2:
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
        inc = _neighbours(vertices, edges)
        cyclic = {v: tuple(at) for v, at in inc.items() if len(at) == 3}
        trees.append(JacobiTree(vertices, edges, cyclic, legs, 1))
    return trees


def relabel_legs(tree: JacobiTree, letters, p: int) -> JacobiTree:
    """Assign the given letters to the legs in stored vertex order. The
    letters and p are checked, so the result keeps the input's `_valid` flag."""
    legs = tree.leg_vertices()
    letters = tuple(letters)
    if len(letters) != len(legs):
        raise InputError(f"need {len(legs)} letters, got {len(letters)}")
    check_word(letters, p, "label: letter")
    check_alphabet(p)  # after the letters, which name a p below 1
    relabelled = JacobiTree(tree.vertices, tree.edges, tree.cyclic,
                            dict(zip(legs, letters)), p)
    relabelled._valid = tree._valid
    return relabelled
