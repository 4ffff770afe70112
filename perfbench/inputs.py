"""Seeded input generator for the benchmark.

Everything here is plain Python over dicts and lists: nothing imports dglogic,
so a change to the program cannot change what it is fed. Every function takes
its seed explicitly and returns JSON-ready data in the shapes the dglogic CLI
reads (graph files, skeleton files, environment files, formula text).
"""

from __future__ import annotations

import random

ROLES = ("claim", "grounds", "warrant", "backing", "qualifier", "rebuttal")


def _graph(nodes, edges, node_anno, edge_anno):
    return {
        "nodes": [{"id": u, "anno": list(node_anno[u])} for u in nodes],
        "edges": [{"from": a, "to": b, "anno": list(edge_anno.get((a, b), ()))}
                  for a, b in edges],
    }


def _labels(rng: random.Random, count: int, alphabet: list[str]) -> list[str]:
    """`count` labels using every label of `alphabet` at least once."""
    labels = alphabet + [rng.choice(alphabet) for _ in range(count - len(alphabet))]
    rng.shuffle(labels)
    return labels


def equivalence_model(seed: int, nodes: int, ids: int, attacks: int) -> dict:
    """An argumentation model of exactly `nodes` nodes u1..un.

    Each node carries one identifier and exactly `ids` identifiers ID1..
    are in use (nodes that share one are equivalent); exactly `attacks`
    distinct attack edges are drawn from all ordered pairs, self-attacks
    included.
    """
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(1, nodes + 1)]
    labels = _labels(rng, nodes, [f"ID{i}" for i in range(1, ids + 1)])
    ident = {u: (label,) for u, label in zip(names, labels)}
    pairs = [(a, b) for a in names for b in names]
    edges = sorted(rng.sample(pairs, attacks),
                   key=lambda e: (names.index(e[0]), names.index(e[1])))
    return _graph(names, edges, ident, {e: ("attacks",) for e in edges})


def relabel(graph: dict, seed: int, *, identifiers: bool) -> tuple[dict, dict]:
    """An isomorphic copy of a graph with its node names permuted (and, with
    identifiers=True, its node annotations permuted too), nodes listed in
    name order. Returns the copy and the node renaming."""
    rng = random.Random(seed)
    names = [n["id"] for n in graph["nodes"]]
    moved = dict(zip(names, rng.sample(names, len(names))))
    annos = sorted({a for n in graph["nodes"] for a in n["anno"]})
    renamed = dict(zip(annos, rng.sample(annos, len(annos)) if identifiers else annos))
    node_anno = {moved[n["id"]]: tuple(renamed[a] for a in n["anno"])
                 for n in graph["nodes"]}
    edge_anno = {(moved[e["from"]], moved[e["to"]]): tuple(e["anno"])
                 for e in graph["edges"]}
    edges = sorted(edge_anno, key=lambda e: (names.index(e[0]), names.index(e[1])))
    return _graph(names, edges, node_anno, edge_anno), moved


def pairs_model(seed: int, nodes: int) -> dict:
    """nodes/2 mutually attacking pairs, one identifier per node.

    With no attack between pairs every pair independently contributes
    "first in", "second in" or "neither", so the simple complete extensions
    number 3^(nodes/2). The seed only shuffles the node names.
    """
    if nodes % 2:
        raise ValueError("a pairs model needs an even node count")
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(1, nodes + 1)]
    rng.shuffle(names)
    edges = []
    for i in range(0, nodes, 2):
        a, b = names[i], names[i + 1]
        edges += [(a, b), (b, a)]
    order = sorted(names, key=lambda u: int(u[1:]))
    ident = {u: (f"ID{u[1:]}",) for u in order}
    return _graph(order, edges, ident, {e: ("attacks",) for e in edges})


def discussion_graph(seed: int, nodes: int, edges: int, roles: int) -> dict:
    """A connected discussion of `nodes` statements d1..dn with one role each
    and exactly `roles` distinct roles in use.

    A random spanning tree keeps the graph connected; the remaining edges are
    drawn without self-loops. Edges carry no annotation, so the domain of
    discourse is the nodes plus the roles in use: nodes + roles values.
    """
    rng = random.Random(seed)
    names = [f"d{i}" for i in range(1, nodes + 1)]
    labels = _labels(rng, nodes, rng.sample(ROLES, roles))
    role = {u: (label,) for u, label in zip(names, labels)}
    chosen = set()
    for i in range(1, nodes):
        a, b = names[i], names[rng.randrange(i)]
        chosen.add((a, b) if rng.random() < 0.5 else (b, a))
    spare = [(a, b) for a in names for b in names
             if a != b and (a, b) not in chosen and (b, a) not in chosen]
    chosen.update(rng.sample(spare, max(0, edges - len(chosen))))
    ordered = sorted(chosen, key=lambda e: (names.index(e[0]), names.index(e[1])))
    return _graph(names, ordered, role, {})


def toulmin_graph() -> dict:
    """The worked Toulmin argument: six statements, one per role."""
    names = [f"txt_{i}" for i in range(1, 7)]
    roles = ("backing", "warrant", "grounds", "qualifier", "claim", "rebuttal")
    edges = [("txt_1", "txt_2"), ("txt_2", "txt_4"), ("txt_2", "txt_5"),
             ("txt_3", "txt_4"), ("txt_4", "txt_5"), ("txt_6", "txt_5")]
    return _graph(names, edges, {u: (r,) for u, r in zip(names, roles)}, {})


def _adjacency(graph: dict) -> tuple[list[str], set, dict]:
    names = [n["id"] for n in graph["nodes"]]
    edges = {(e["from"], e["to"]) for e in graph["edges"]}
    role = {n["id"]: n["anno"][0] for n in graph["nodes"]}
    return names, edges, role


def pattern(seed: int, graph: dict, arity: int, *, embedded: bool) -> dict:
    """A skeleton of `arity` placeholder nodes *1..*k.

    The skeleton copies a connected k-node piece of the graph: its roles as
    node annotations and its edges. With embedded=False one more edge joins
    two placeholders whose source nodes are not adjacent, which usually (not
    always) leaves the pattern without a match; the pinned references record
    which.
    """
    rng = random.Random(seed)
    names, edges, role = _adjacency(graph)
    if arity > len(names):
        raise ValueError(f"pattern arity {arity} exceeds the graph size")
    undirected = {u: set() for u in names}
    for a, b in edges:
        undirected[a].add(b)
        undirected[b].add(a)
    piece = [rng.choice(names)]
    while len(piece) < arity:
        frontier = sorted({v for u in piece for v in undirected[u]} - set(piece))
        piece.append(rng.choice(frontier))
    slot = {u: f"*{i}" for i, u in enumerate(piece, start=1)}
    kept = [(a, b) for a, b in sorted(edges) if a in slot and b in slot]
    if not embedded:
        gaps = [(a, b) for a in piece for b in piece
                if a != b and (a, b) not in edges and (b, a) not in edges]
        if gaps:
            kept.append(rng.choice(gaps))
        else:
            kept.append((piece[-1], piece[-1]))
    node_anno = {slot[u]: (role[u],) for u in piece}
    skel_edges = [(slot[a], slot[b]) for a, b in kept]
    return _graph([slot[u] for u in piece], skel_edges, node_anno, {})


def role_skeleton(role: str) -> dict:
    return {"nodes": [{"id": "*1", "anno": [role]}], "edges": []}


def edge_skeleton() -> dict:
    return {"nodes": [{"id": "*1", "anno": []}, {"id": "*2", "anno": []}],
            "edges": [{"from": "*1", "to": "*2", "anno": []}]}


def conjunctive_query(seed: int, graph: dict, width: int, *,
                      embedded: bool) -> str:
    """exists x1..xk. a conjunction of role atoms and edge atoms.

    The atoms describe a connected k-node piece of the graph (role_<r>(x) for
    each variable, e(x, y) for each edge in the piece); with embedded=False
    one edge atom joins two variables whose nodes are not adjacent.
    """
    skel = pattern(seed, graph, width, embedded=embedded)
    var = {n["id"]: f"x{n['id'][1:]}" for n in skel["nodes"]}
    atoms = [f"role_{n['anno'][0]}({var[n['id']]})" for n in skel["nodes"]]
    atoms += [f"e({var[e['from']]}, {var[e['to']]})" for e in skel["edges"]]
    prefix = " ".join(f"exists {var[n['id']]}." for n in skel["nodes"])
    return f"{prefix} {' & '.join(atoms)}\n"


def pattern_query(arity: int, pred: str) -> str:
    xs = [f"x{i}" for i in range(1, arity + 1)]
    prefix = " ".join(f"exists {x}." for x in xs)
    return f"{prefix} {pred}({', '.join(xs)})\n"


def environment(predicates: dict[str, dict]) -> dict:
    """An environment file binding each named predicate to its skeleton."""
    preds = []
    for name in sorted(predicates):
        skel = predicates[name]
        arity = len(skel["nodes"])
        preds.append({"name": name, "arity": arity, "graph": skel})
    return {"constants": {}, "functions": [], "predicates": preds}
