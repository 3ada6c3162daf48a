"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install()` replaces each traced function or method with a wrapper
at every place it is bound in the loaded `swingwords` modules (a name imported
with `from .x import y` is a second binding of the same object), and
`Tracer.restore()` puts every original back. Each wrapper records a span:
its duration, the share of it covered by child spans (calls into other traced
functions), its call count and optional counters. Self time is duration minus
child time; `total_s` counts only outermost calls, so recursion is not counted
twice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "swingwords"


@dataclass
class Stat:
    """Counters of one traced function; `useful`, `items`, `peak` and `bits`
    are filled only by the hooks that name them."""

    calls: int = 0
    hits: int = 0
    useful: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    items: int = 0
    peak: int = 0
    bits: int = 0


def _memo_has(module_name: str, memo: str):
    def probe(args, kwargs):
        table = getattr(sys.modules[f"{PACKAGE}.{module_name}"], memo, None)
        return table is not None and args[0] in table
    return probe


def _span_memo_has(args, kwargs):
    table = getattr(sys.modules[f"{PACKAGE}.quotients"], "_SPAN_MEMO", None)
    char = args[3] if len(args) > 3 else kwargs.get("char")
    return table is not None and tuple(args[:3]) + (char,) in table


def _count_words(stat, args, kwargs, result):
    stat.items += len(result)


def _insert_shape(stat, args, kwargs, result):
    space, row = args[0], args[1]
    stat.items += len(row)
    if result:
        stat.useful += 1
        pivots = getattr(space, "pivots", None)
        if pivots:
            stored = next(reversed(pivots.values()))
            stat.peak = max(stat.peak, len(stored))
            for value in stored.values():
                stat.bits = max(stat.bits, getattr(value, "denominator", 1).bit_length())


def _span_fallback(stat, args, kwargs, result):
    stat.useful += getattr(result, "method", "") == "span"


# (metric prefix, module, qualified attribute, hit probe, after-call hook)
TARGETS = (
    ("bases.h_basis", "bases", "h_basis", None, None),
    ("bases.lie_basis", "bases", "lie_basis", None, None),
    ("bases.ell_kernel_dim", "bases", "_ell_kernel_dim", None, None),
    ("bases.enum_words", "bases", "enum_words", None, _count_words),
    ("linalg.insert", "linalg", "RowSpace.insert", None, _insert_shape),
    ("linalg.reduce", "linalg", "RowSpace.reduce", None, None),
    ("moves.eta_word", "moves", "eta_word", _memo_has("moves", "_ETA_MEMO"), None),
    ("moves.expand_word", "moves", "expand_word", _memo_has("moves", "_EXPAND_MEMO"), None),
    ("moves.fold_l_word", "moves", "fold_l_word", None, None),
    ("moves.fold_prime_word", "moves", "fold_prime_word", None, None),
    ("quotients.g_image_scaled", "quotients", "_g_image_scaled",
     _memo_has("quotients", "_PRIME_IMAGE_MEMO"), None),
    ("quotients.g_map", "quotients", "g_map", None, None),
    ("quotients.canonical_l", "quotients", "canonical_l", None, _span_fallback),
    ("quotients.canonical_prime", "quotients", "canonical_prime", None, None),
    ("quotients.RelationSpan.build", "quotients", "RelationSpan.__init__", None, None),
    ("quotients.RelationSpan.reduce", "quotients", "RelationSpan.reduce", None, None),
    ("quotients.relation_span", "quotients", "relation_span", _span_memo_has, None),
    ("trees.read_swingword", "trees", "read_swingword", None, None),
    ("trees.to_vertebrate", "trees", "to_vertebrate", None, None),
    ("trees.validate", "trees", "validate", None, None),
    ("trees.incidence", "trees", "JacobiTree.incidence", None, None),
    ("trees.rho", "trees", "rho", None, None),
    ("trees.as_swap", "trees", "as_swap", None, None),
    ("trees.ihx_expand", "trees", "ihx_expand", None, None),
    ("trees.enumerate_topologies", "trees", "enumerate_topologies", None, None),
    ("textio.parse_chain", "textio", "parse_chain", None, None),
    ("textio.render_chain", "textio", "render_chain", None, None),
    ("textio.render_tensor", "textio", "render_tensor", None, None),
    ("textio.parse_swingword", "textio", "parse_swingword", None, None),
    ("chains.Chain.add", "chains", "Chain.__add__", None, None),
    ("chains.Chain.scale", "chains", "Chain.scale", None, None),
    ("dims.rank_oracle", "dims", "rank_oracle", None, None),
    ("dims.witt_multidegree", "dims", "witt_multidegree", None, None),
    ("dims.h_dim_multidegree", "dims", "h_dim_multidegree", None, None),
    ("scalars.make_coefficient", "scalars", "make_coefficient", None, None),
    ("scalars.invert_integer", "scalars", "invert_integer", None, None),
)

# Memo tables whose size the record reports: (metric, module, attribute).
MEMOS = (
    ("moves.eta_memo_entries", "moves", "_ETA_MEMO"),
    ("moves.expand_memo_entries", "moves", "_EXPAND_MEMO"),
    ("quotients.prime_image_memo_entries", "quotients", "_PRIME_IMAGE_MEMO"),
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Wraps the traced functions of the loaded package; see the module doc."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.saved: list[tuple[object, str, object, bool]] = []
        self._stack: list[float] = []

    def _wrap(self, prefix, fn, probe, after):
        stat = self.stats.setdefault(prefix, Stat())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if probe is not None and probe(args, kwargs):
                stat.hits += 1
            stat.depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.depth -= 1
                stat.self_s += elapsed - stack.pop()
                if not stat.depth:
                    stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__qualname__ = getattr(fn, "__qualname__", prefix)
        wrapper.__doc__ = fn.__doc__
        wrapper.perfbench_traced = True
        return wrapper

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for prefix, module_name, qualname, probe, after in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original, probe, after)
            if path:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original, own = self.saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def metrics(self) -> dict[str, float]:
        s = self.stats
        out: dict[str, float] = {}

        def put(prefix, *fields):
            stat = s[prefix]
            for f in fields:
                if f == "memo_hit_ratio":
                    out[f"{prefix}.{f}"] = _ratio(stat.hits, stat.calls)
                else:
                    out[f"{prefix}.{f}"] = getattr(stat, f)

        put("bases.h_basis", "total_s")
        put("bases.lie_basis", "total_s")
        put("bases.ell_kernel_dim", "total_s")
        put("bases.enum_words", "calls", "self_s")
        out["bases.enum_words.words_out"] = s["bases.enum_words"].items
        ins = s["linalg.insert"]
        put("linalg.insert", "calls", "self_s")
        out["linalg.insert.useful_ratio"] = _ratio(ins.useful, ins.calls)
        put("linalg.reduce", "calls", "self_s")
        out["linalg.row_nnz_in"] = _ratio(ins.items, ins.calls)
        out["linalg.pivot_nnz_peak"] = ins.peak
        out["linalg.pivot_den_bits_max"] = ins.bits
        put("moves.eta_word", "calls", "self_s", "memo_hit_ratio")
        put("moves.expand_word", "calls", "self_s", "memo_hit_ratio")
        put("moves.fold_l_word", "calls", "self_s")
        put("moves.fold_prime_word", "calls", "self_s")
        put("quotients.g_image_scaled", "calls", "self_s", "memo_hit_ratio")
        put("quotients.g_map", "self_s")
        put("quotients.canonical_l", "calls", "self_s")
        out["quotients.canonical_l.span_fallbacks"] = s["quotients.canonical_l"].useful
        put("quotients.canonical_prime", "calls", "self_s")
        put("quotients.RelationSpan.build", "calls", "self_s")
        put("quotients.RelationSpan.reduce", "calls", "self_s")
        put("quotients.relation_span", "memo_hit_ratio")
        put("trees.read_swingword", "calls", "self_s")
        put("trees.to_vertebrate", "self_s")
        put("trees.validate", "calls", "self_s")
        put("trees.incidence", "calls")
        put("trees.rho", "calls", "self_s")
        put("trees.as_swap", "self_s")
        put("trees.ihx_expand", "self_s")
        put("trees.enumerate_topologies", "self_s")
        put("textio.parse_chain", "calls", "self_s")
        put("textio.render_chain", "self_s")
        put("textio.render_tensor", "self_s")
        put("textio.parse_swingword", "self_s")
        put("chains.Chain.add", "calls", "self_s")
        put("chains.Chain.scale", "calls", "self_s")
        put("dims.rank_oracle", "total_s")
        put("dims.witt_multidegree", "calls")
        put("dims.h_dim_multidegree", "calls")
        put("scalars.make_coefficient", "calls")
        put("scalars.invert_integer", "calls")
        for metric, module_name, attr in MEMOS:
            table = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr, None)
            out[metric] = len(table) if table is not None else 0
        return out
