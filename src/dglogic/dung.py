"""Equivalence-aware abstract argumentation over annotated graphs.

A model here is an annotated graph in which every node carries exactly one
annotation (its equivalence id) and every edge carries exactly {"attacks"}.
Two nodes are equivalent when they share an id. Extension notions come in a
simple flavour (about the set itself) and a wide flavour (about the set's
equivalence closure), crossed with closure requirements by defence, by
equivalence, or both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceeded, InvalidModelError
from .graphs import AnnotatedGraph
from .semantics import Model

SIGMAS = ("simple", "wide")
TAUS = ("defence", "equivalence", "both")
MUS = ("admissible", "complete", "preferred", "grounded", "stable")


@dataclass(frozen=True)
class ExtensionSpec:
    """(sigma, tau, mu) selector; tau is irrelevant when mu is admissible."""

    sigma: str
    tau: str
    mu: str

    def __post_init__(self) -> None:
        if self.sigma not in SIGMAS:
            raise ValueError(f"sigma must be one of {SIGMAS}, got {self.sigma!r}")
        if self.tau not in TAUS:
            raise ValueError(f"tau must be one of {TAUS}, got {self.tau!r}")
        if self.mu not in MUS:
            raise ValueError(f"mu must be one of {MUS}, got {self.mu!r}")

    @classmethod
    def parse(cls, text: str) -> "ExtensionSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected sigma:tau:mu, got {text!r}")
        return cls(*parts)

    def __str__(self) -> str:
        return f"{self.sigma}:{self.tau}:{self.mu}"


class EquivDungModel:
    """Validated argumentation view of an annotated graph."""

    __slots__ = ("graph", "nodes", "node_set", "attacks", "id_of", "_groups",
                 "_attackers", "_model")

    def __init__(self, graph: AnnotatedGraph):
        problems = []
        for u in graph.nodes:
            anno = graph.anno(u)
            if len(anno) != 1:
                problems.append(
                    f"node {u!r} carries {len(anno)} annotations, expected exactly 1")
        for e in graph.edges:
            if graph.anno(e) != frozenset({"attacks"}):
                shown = sorted(graph.anno(e))
                problems.append(
                    f"edge {e!r} carries annotations {shown}, expected ['attacks']")
        if problems:
            raise InvalidModelError(problems)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "nodes", graph.nodes)
        object.__setattr__(self, "node_set", graph.node_set)
        object.__setattr__(self, "attacks", graph.edge_set)
        id_of = {u: next(iter(graph.anno(u))) for u in graph.nodes}
        object.__setattr__(self, "id_of", id_of)
        groups: dict[str, set[str]] = {}
        for u, i in id_of.items():
            groups.setdefault(i, set()).add(u)
        object.__setattr__(self, "_groups",
                           {i: frozenset(g) for i, g in groups.items()})
        attackers: dict[str, tuple[str, ...]] = {u: () for u in graph.nodes}
        acc: dict[str, list[str]] = {u: [] for u in graph.nodes}
        for a, b in graph.edges:
            acc[b].append(a)
        for u, lst in acc.items():
            attackers[u] = tuple(sorted(lst))
        object.__setattr__(self, "_attackers", attackers)
        object.__setattr__(self, "_model", None)

    def __setattr__(self, name, value):
        raise AttributeError("EquivDungModel is immutable")

    @property
    def model(self) -> Model:
        if self._model is None:
            object.__setattr__(self, "_model", Model(self.graph))
        return self._model

    def attackers_of(self, u: str) -> tuple[str, ...]:
        return self._attackers[u]

    def group(self, ident: str) -> frozenset[str]:
        return self._groups[ident]

    def __repr__(self):
        return (f"EquivDungModel({len(self.nodes)} nodes, "
                f"{len(self.attacks)} attacks, {len(self._groups)} ids)")


def _as_node_set(m: EquivDungModel, s: Iterable[str]) -> frozenset[str]:
    out = frozenset(s)
    stray = out - m.node_set
    if stray:
        raise ValueError(f"not nodes of the model: {sorted(stray)}")
    return out


def closure_sim(m: EquivDungModel, s: Iterable[str]) -> frozenset[str]:
    """All nodes sharing an equivalence id with some member of s."""
    s = _as_node_set(m, s)
    out: set[str] = set()
    for u in s:
        out |= m.group(m.id_of[u])
    return frozenset(out)


def is_conflict_free(m: EquivDungModel, s: Iterable[str], sigma: str = "simple") -> bool:
    """No attack inside s (simple) or inside its closure (wide)."""
    s = _as_node_set(m, s)
    t = closure_sim(m, s) if sigma == "wide" else s
    for a, b in m.attacks:
        if a in t and b in t:
            return False
    return True


def _simple_defends(m: EquivDungModel, s: frozenset[str], u: str) -> bool:
    for a in m.attackers_of(u):
        if not any((d, a) in m.attacks for d in s):
            return False
    return True


def defends(m: EquivDungModel, s: Iterable[str], u: str, sigma: str = "simple") -> bool:
    """Simple: counter-attack every attacker of u. Wide: do so for u's whole
    equivalence class."""
    s = _as_node_set(m, s)
    if u not in m.node_set:
        raise ValueError(f"not a node of the model: {u!r}")
    if sigma == "wide":
        return all(_simple_defends(m, s, v) for v in m.group(m.id_of[u]))
    return _simple_defends(m, s, u)


def is_admissible(m: EquivDungModel, s: Iterable[str], sigma: str = "simple") -> bool:
    s = _as_node_set(m, s)
    if not is_conflict_free(m, s, sigma):
        return False
    return all(defends(m, s, u, sigma) for u in s)


def is_closed(m: EquivDungModel, s: Iterable[str], sigma: str, tau: str) -> bool:
    """Closure by defence: contains everything it sigma-defends. Closure by
    equivalence: equals its own equivalence closure. Both: both."""
    s = _as_node_set(m, s)
    if tau in ("defence", "both"):
        for u in m.nodes:
            if u not in s and defends(m, s, u, sigma):
                return False
    if tau in ("equivalence", "both"):
        if closure_sim(m, s) != s:
            return False
    return True


def subsets(nodes: Sequence[str], max_k: int | None = None) -> Iterator[tuple[str, ...]]:
    """Every subset of nodes as a tuple, by size and then in combinations
    order; only those with at most max_k members when it is given."""
    top = len(nodes) if max_k is None else min(max_k, len(nodes))
    for k in range(top + 1):
        yield from combinations(nodes, k)


def _complete_family(m: EquivDungModel, sigma: str, tau: str) -> list[frozenset[str]]:
    return [s for s in map(frozenset, subsets(m.nodes))
            if is_admissible(m, s, sigma) and is_closed(m, s, sigma, tau)]


def _attacks_all_outside(m: EquivDungModel, s: frozenset[str]) -> bool:
    return all(any((a, u) in m.attacks for a in s)
               for u in m.nodes if u not in s)


def is_extension(m: EquivDungModel, s: Iterable[str], spec: ExtensionSpec) -> bool:
    s = _as_node_set(m, s)
    if spec.mu == "admissible":
        return is_admissible(m, s, spec.sigma)
    complete = (is_admissible(m, s, spec.sigma)
                and is_closed(m, s, spec.sigma, spec.tau))
    if spec.mu == "complete":
        return complete
    if spec.mu == "stable":
        return complete and _attacks_all_outside(m, s)
    if not complete:
        return False
    family = _complete_family(m, spec.sigma, spec.tau)
    if spec.mu == "preferred":
        return not any(s < t for t in family)
    return not any(t < s for t in family)  # grounded: minimal


def _ordered(sets: Iterable[frozenset[str]]) -> tuple[frozenset[str], ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))))


def enumerate_extensions(m: EquivDungModel, spec: ExtensionSpec,
                         bound: int = 20) -> tuple[frozenset[str], ...]:
    """All spec-extensions, ordered by size then lexicographically.

    Enumerates every subset of the nodes, so the node count must stay within
    `bound` (BoundExceeded otherwise).
    """
    n = len(m.nodes)
    if n > bound:
        raise BoundExceeded(f"{n} nodes exceed the enumeration bound {bound}")
    if spec.mu == "admissible":
        return _ordered(s for s in map(frozenset, subsets(m.nodes))
                        if is_admissible(m, s, spec.sigma))
    family = _complete_family(m, spec.sigma, spec.tau)
    if spec.mu == "complete":
        return _ordered(family)
    if spec.mu == "stable":
        return _ordered(s for s in family if _attacks_all_outside(m, s))
    if spec.mu == "preferred":
        return _ordered(s for s in family
                        if not any(s < t for t in family))
    return _ordered(s for s in family if not any(t < s for t in family))


def grounded_via_lfp(m: EquivDungModel, bound: int = 20) -> tuple[frozenset[str], ...]:
    """Minimal fixpoints of monotone wide-defence expansion chains from {}.

    At each set S the chain may add any nonempty selection of nodes S
    wide-defends but does not contain; a fixpoint is a set defending nothing
    new. Because the defended-node set only grows along a chain, every
    selection chain is simulated by single-node additions, so the search
    branches one node at a time. The minimal fixpoints are returned in
    deterministic order. This route is independent of enumerate_extensions.
    """
    n = len(m.nodes)
    if n > bound:
        raise BoundExceeded(f"{n} nodes exceed the enumeration bound {bound}")
    fixpoints: set[frozenset[str]] = set()
    seen: set[frozenset[str]] = set()
    start: frozenset[str] = frozenset()
    stack = [start]
    seen.add(start)
    while stack:
        s = stack.pop()
        candidates = [u for u in m.nodes
                      if u not in s and defends(m, s, u, "wide")]
        if not candidates:
            fixpoints.add(s)
            continue
        for u in candidates:
            nxt = s | {u}
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    minimal = [s for s in fixpoints
               if not any(t < s for t in fixpoints)]
    return _ordered(minimal)


def random_model(seed: int | None = None, *, rng: random.Random | None = None,
                 max_nodes: int = 7, edge_prob: float = 0.3,
                 distinct_ids: bool = False) -> EquivDungModel:
    """Seeded random model generator.

    Draws a node count from 1..max_nodes, an id-alphabet size from
    1..node-count (or one id per node when distinct_ids is set), assigns each
    node a uniform id, and keeps each ordered node pair (self-attacks
    included) as an attack edge with probability edge_prob. Nodes are named
    u1..un and ids ID1..IDa, so results are reproducible from the seed alone.
    """
    if rng is None:
        rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    nodes = [f"u{i}" for i in range(1, n + 1)]
    if distinct_ids:
        ids = {u: f"ID{i}" for i, u in enumerate(nodes, start=1)}
    else:
        alphabet = rng.randint(1, n)
        ids = {u: f"ID{rng.randint(1, alphabet)}" for u in nodes}
    edges = []
    for a in nodes:
        for b in nodes:
            if rng.random() < edge_prob:
                edges.append((a, b))
    anno: dict = {u: {ids[u]} for u in nodes}
    for e in edges:
        anno[e] = {"attacks"}
    return EquivDungModel(AnnotatedGraph(nodes, edges, anno))
