"""Annotated graphs, skeleton graphs, the subgraph order, and instantiation.

An annotated graph is a finite directed graph over string nodes together with
a total annotation map assigning a finite set of strings to every node and
every edge. A skeleton graph is the same shape except that nodes and
annotations may be placeholders *1, *2, ... which `substitute` fills with
concrete strings simultaneously.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import CollisionError, DegreeGapError

Edge = tuple[str, str]


@dataclass(frozen=True, order=True)
class Placeholder:
    """The i-th substitution slot of a skeleton graph (written *i)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"placeholder index must be positive, got {self.index}")

    def __repr__(self) -> str:
        return f"*{self.index}"


SkelValue = Union[str, Placeholder]
SkelEdge = tuple[SkelValue, SkelValue]


def _value_key(v: SkelValue) -> tuple[int, object]:
    # Strings sort before placeholders so serialized output is stable.
    if isinstance(v, Placeholder):
        return (1, v.index)
    return (0, v)


def _edge_key(e: SkelEdge) -> tuple:
    return (_value_key(e[0]), _value_key(e[1]))


def _check_values(values: Iterable[SkelValue], what: str, allow_placeholder: bool) -> None:
    for v in values:
        if isinstance(v, str):
            continue
        if isinstance(v, Placeholder):
            if allow_placeholder:
                continue
            raise TypeError(f"{what} may not contain placeholders: {v!r}")
        raise TypeError(f"{what} must be strings, got {type(v).__name__}")


class _GraphBase:
    """Shared construction and comparison logic for both graph kinds."""

    __slots__ = ("nodes", "edges", "node_set", "edge_set", "_anno", "_hash")

    _allow_placeholders = False

    def __init__(
        self,
        nodes: Iterable[SkelValue],
        edges: Iterable[SkelEdge] = (),
        anno: Mapping[object, Iterable[SkelValue]] | None = None,
    ):
        allow = self._allow_placeholders
        node_set = frozenset(nodes)
        _check_values(node_set, "nodes", allow)
        edge_list = []
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2:
                raise ValueError(f"edge must be a pair, got {e!r}")
            edge_list.append(pair)
        edge_set = frozenset(edge_list)
        for a, b in edge_set:
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a!r}, {b!r}) has an endpoint outside nodes")
        amap: dict = {u: frozenset() for u in node_set}
        for e in edge_set:
            amap[e] = frozenset()
        if anno:
            for key, values in anno.items():
                norm = tuple(key) if isinstance(key, (tuple, list)) else key
                if norm not in amap:
                    raise ValueError(f"annotation key {key!r} is not a node or edge")
                vs = frozenset(values)
                _check_values(vs, "annotations", allow)
                amap[norm] = vs
        object.__setattr__(self, "nodes", tuple(sorted(node_set, key=_value_key)))
        object.__setattr__(self, "edges", tuple(sorted(edge_set, key=_edge_key)))
        object.__setattr__(self, "node_set", node_set)
        object.__setattr__(self, "edge_set", edge_set)
        object.__setattr__(self, "_anno", amap)
        object.__setattr__(self, "_hash", hash((self.nodes, self.edges,
                                                frozenset(amap.items()))))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError(f"{type(self).__name__} is immutable")

    def anno(self, item) -> frozenset:
        """Annotation set of a node or edge; KeyError if absent."""
        key = tuple(item) if isinstance(item, (tuple, list)) else item
        return self._anno[key]

    def anno_items(self) -> Iterator[tuple[object, frozenset]]:
        """All (node-or-edge, annotation set) pairs in canonical order."""
        for u in self.nodes:
            yield u, self._anno[u]
        for e in self.edges:
            yield e, self._anno[e]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.node_set == other.node_set
                and self.edge_set == other.edge_set
                and self._anno == other._anno)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"{type(self).__name__}({len(self.nodes)} nodes, "
                f"{len(self.edges)} edges)")


class AnnotatedGraph(_GraphBase):
    """Object-level graph: string nodes, directed edges, total annotation map."""

    _allow_placeholders = False


class SkeletonGraph(_GraphBase):
    """Graph whose nodes and annotations may be placeholders.

    Construction does not insist that placeholder indices are gap-free;
    `degree_of` performs that check so a malformed skeleton is still
    representable long enough to be diagnosed.
    """

    _allow_placeholders = True

    def all_values(self) -> Iterator[SkelValue]:
        for u in self.nodes:
            yield u
        for _, vs in self.anno_items():
            yield from vs

    def to_annotated(self) -> AnnotatedGraph:
        """Lossless conversion, defined exactly for degree-0 skeletons."""
        n = degree_of(self)
        if n != 0:
            raise ValueError(f"cannot convert a degree-{n} skeleton directly")
        return AnnotatedGraph(self.nodes, self.edges, dict(self.anno_items()))


def leq(g1: AnnotatedGraph, g2: AnnotatedGraph) -> bool:
    """Subgraph order: nodes, edges, and annotations all included pointwise."""
    if not (g1.node_set <= g2.node_set and g1.edge_set <= g2.edge_set):
        return False
    a2 = g2._anno
    return all(vs <= a2[k] for k, vs in g1._anno.items())


def degree_of(s: SkeletonGraph) -> int:
    """Largest placeholder index, 0 if none. DegreeGapError on missing *j.

    Accepts any graph shape with all_values(), typed graph literals included.
    """
    seen = {v.index for v in s.all_values() if isinstance(v, Placeholder)}
    if not seen:
        return 0
    top = max(seen)
    for j in range(1, top + 1):
        if j not in seen:
            raise DegreeGapError(j, top)
    return top


def substitute(s: SkeletonGraph, args: tuple[str, ...]) -> AnnotatedGraph:
    """Fill *i with args[i-1] everywhere, simultaneously.

    Raises CollisionError when two distinct skeleton nodes end up as the same
    string (annotations are sets and may collapse freely).
    """
    n = degree_of(s)
    if len(args) != n:
        raise ValueError(f"skeleton has degree {n}, got {len(args)} arguments")
    for a in args:
        if not isinstance(a, str):
            raise TypeError(f"substitution arguments must be strings, got {a!r}")

    def fill(v: SkelValue) -> str:
        return args[v.index - 1] if isinstance(v, Placeholder) else v

    node_map = {u: fill(u) for u in s.nodes}
    seen: dict[str, SkelValue] = {}
    for u, filled in node_map.items():
        if filled in seen and seen[filled] != u:
            raise CollisionError(filled)
        seen[filled] = u
    edges = [(node_map[a], node_map[b]) for a, b in s.edges]
    anno = {}
    for key, vs in s.anno_items():
        new_key = node_map[key] if not isinstance(key, tuple) else (
            node_map[key[0]], node_map[key[1]])
        anno[new_key] = {fill(v) for v in vs}
    return AnnotatedGraph(node_map.values(), edges, anno)


def instantiates(args: tuple[str, ...], s: SkeletonGraph, m: AnnotatedGraph) -> bool:
    """True iff substitution succeeds and the result embeds into m."""
    try:
        g = substitute(s, args)
    except CollisionError:
        return False
    return leq(g, m)


def compile_skeleton_test(s: SkeletonGraph, m: AnnotatedGraph) -> Callable:
    """Compile `instantiates(args, s, m)` to a closure over args.

    The plan replays substitution and the subgraph test directly on the
    argument tuple instead of building a graph per call: fill the node slots,
    reject on any missing node or collision, then check edges and the
    annotation inclusions. args must have length degree_of(s); instantiates
    stays the executable spec, and a property test checks the two agree.
    """
    def plan(v):
        return v.index - 1 if isinstance(v, Placeholder) else v

    node_plan = tuple(plan(u) for u in s.nodes)
    edge_plan = tuple((plan(a), plan(b)) for a, b in s.edges)
    anno_plan = []
    for key, vs in s.anno_items():
        if not vs:
            continue
        if isinstance(key, tuple):
            anno_plan.append(((plan(key[0]), plan(key[1])), tuple(plan(v) for v in vs)))
        else:
            anno_plan.append((plan(key), tuple(plan(v) for v in vs)))
    anno_plan = tuple(anno_plan)
    node_set = m.node_set
    edge_set = m.edge_set
    anno = m._anno

    def test(vals: tuple[str, ...]) -> bool:
        filled = [vals[p] if type(p) is int else p for p in node_plan]
        for v in filled:
            if v not in node_set:
                return False
        if len(set(filled)) != len(filled):
            return False
        for pa, pb in edge_plan:
            e = (vals[pa] if type(pa) is int else pa,
                 vals[pb] if type(pb) is int else pb)
            if e not in edge_set:
                return False
        for key, req in anno_plan:
            if type(key) is tuple:
                pa, pb = key
                target = anno[(vals[pa] if type(pa) is int else pa,
                               vals[pb] if type(pb) is int else pb)]
            else:
                target = anno[vals[key] if type(key) is int else key]
            for r in req:
                if (vals[r] if type(r) is int else r) not in target:
                    return False
        return True

    return test


def match_tuples(s: SkeletonGraph, m: AnnotatedGraph) -> list[tuple[str, ...]]:
    """Every tuple over m's values that instantiates s below m, sorted.

    Backtracking search: placeholders used as skeleton nodes draw candidates
    from m's nodes, annotation-only placeholders from m's annotation values,
    most constrained slot first. Partial assignments are pruned on edge,
    annotation and injectivity violations; each completed assignment is
    confirmed with the compiled instantiation test, so pruning can only ever
    cost time, not soundness.
    """
    n = degree_of(s)
    confirm = compile_skeleton_test(s, m)
    if n == 0:
        return [()] if confirm(()) else []
    for u in s.nodes:
        if not isinstance(u, Placeholder) and u not in m.node_set:
            return []
    node_ph = {u.index for u in s.nodes if isinstance(u, Placeholder)}
    anno_values: set[str] = set()
    for _, vs in m.anno_items():
        anno_values |= vs
    pools = {i: sorted(m.node_set) if i in node_ph else sorted(anno_values)
             for i in range(1, n + 1)}
    order = sorted(pools, key=lambda i: (len(pools[i]), i))

    asg: dict[int, str] = {}

    def value(x: SkelValue) -> str | None:
        return asg.get(x.index) if isinstance(x, Placeholder) else x

    def consistent() -> bool:
        filled = [value(u) for u in s.nodes]
        decided = [v for v in filled if v is not None]
        if len(set(decided)) != len(decided):
            return False
        for v in decided:
            if v not in m.node_set:
                return False
        for a, b in s.edges:
            va, vb = value(a), value(b)
            if va is not None and vb is not None and (va, vb) not in m.edge_set:
                return False
        for key, req in s.anno_items():
            if not req:
                continue
            if isinstance(key, tuple):
                ka, kb = value(key[0]), value(key[1])
                if ka is None or kb is None:
                    continue
                target = m._anno.get((ka, kb))
            else:
                ku = value(key)
                if ku is None:
                    continue
                target = m._anno.get(ku)
            if target is None:
                return False
            for r in req:
                rv = value(r)
                if rv is not None and rv not in target:
                    return False
        return True

    results: list[tuple[str, ...]] = []

    def search(slot: int) -> None:
        if slot == n:
            args = tuple(asg[i] for i in range(1, n + 1))
            if confirm(args):
                results.append(args)
            return
        i = order[slot]
        for v in pools[i]:
            asg[i] = v
            if consistent():
                search(slot + 1)
            del asg[i]

    search(0)
    return sorted(results)


_PLACEHOLDER_RE = re.compile(r"\*([1-9][0-9]*)$")


def parse_placeholder(text: str) -> Placeholder | None:
    """The placeholder a string "*i" denotes; None for any other string."""
    mo = _PLACEHOLDER_RE.match(text)
    return Placeholder(int(mo.group(1))) if mo else None


def _decode_value(text: str, skeleton: bool) -> SkelValue:
    ph = parse_placeholder(text)
    if ph is None:
        return text
    if not skeleton:
        raise ValueError(
            f"placeholder string {text!r} is not allowed in an object-level graph")
    return ph


def _encode_value(v: SkelValue) -> str:
    return f"*{v.index}" if isinstance(v, Placeholder) else v


def graph_from_dict(data: Mapping, *, skeleton: bool = False):
    """Build a graph from the shared JSON shape.

    {"nodes": [{"id": str, "anno": [str...]}...],
     "edges": [{"from": str, "to": str, "anno": [str...]}...]}

    Placeholders are the literal strings "*1", "*2", ...; they are decoded
    only when `skeleton` is set and rejected otherwise.
    """
    if not isinstance(data, Mapping):
        raise ValueError("graph JSON must be an object")
    nodes = []
    anno: dict = {}
    for entry in data.get("nodes", []):
        v = _decode_value(str(entry["id"]), skeleton)
        nodes.append(v)
        anno[v] = [_decode_value(str(a), skeleton) for a in entry.get("anno", [])]
    edges = []
    for entry in data.get("edges", []):
        a = _decode_value(str(entry["from"]), skeleton)
        b = _decode_value(str(entry["to"]), skeleton)
        edges.append((a, b))
        anno[(a, b)] = [_decode_value(str(x), skeleton) for x in entry.get("anno", [])]
    cls = SkeletonGraph if skeleton else AnnotatedGraph
    return cls(nodes, edges, anno)


def graph_to_dict(g: _GraphBase) -> dict:
    """Inverse of graph_from_dict, canonical ordering throughout."""
    nodes = [{"id": _encode_value(u), "anno": sorted(_encode_value(v) for v in g.anno(u))}
             for u in g.nodes]
    edges = [{"from": _encode_value(a), "to": _encode_value(b),
              "anno": sorted(_encode_value(v) for v in g.anno((a, b)))}
             for a, b in g.edges]
    return {"nodes": nodes, "edges": edges}
