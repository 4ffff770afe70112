import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dglogic import (AnnotatedGraph, CollisionError, DegreeGapError,
                     Placeholder, SkeletonGraph, degree_of, graph_from_dict,
                     graph_to_dict, instantiates, leq, match_tuples,
                     substitute)
from dglogic.graphs import compile_skeleton_test

P1, P2, P3 = Placeholder(1), Placeholder(2), Placeholder(3)


def pair_skeleton():
    """Degree-2 skeleton: *1:{u1} and u2:{u3} attacking each other with *2."""
    return SkeletonGraph(
        [P1, "u2"],
        [(P1, "u2"), ("u2", P1)],
        {P1: ["u1"], "u2": ["u3"], (P1, "u2"): [P2], ("u2", P1): [P2]})


def pair_object():
    return AnnotatedGraph(
        ["u4", "u2", "u8"],
        [("u4", "u2"), ("u2", "u4"), ("u2", "u8"), ("u8", "u2")],
        {"u4": ["u1"], "u2": ["u3"], "u8": ["u1"],
         ("u4", "u2"): ["u5", "u6"], ("u2", "u4"): ["u5"],
         ("u2", "u8"): ["u7"], ("u8", "u2"): ["u7"]})


# --------------------------------------------------------------------------
# order


def test_leq_reflexive(toulmin_graph):
    assert leq(toulmin_graph, toulmin_graph)


def test_leq_single_node(chain_model):
    m = chain_model.graph
    assert leq(AnnotatedGraph(["u1"]), m)
    assert not leq(AnnotatedGraph(["fresh"]), m)


def test_leq_annotation_not_included():
    small = AnnotatedGraph(["a"], [], {"a": ["x"]})
    bare = AnnotatedGraph(["a"])
    assert not leq(small, bare)
    assert leq(bare, small)


def test_leq_missing_edge():
    g1 = AnnotatedGraph(["a", "b"], [("a", "b")])
    g2 = AnnotatedGraph(["a", "b"])
    assert not leq(g1, g2)


# --------------------------------------------------------------------------
# degree


def test_degree_of_pair_skeleton():
    assert degree_of(pair_skeleton()) == 2


def test_degree_zero_without_placeholders(toulmin_graph):
    s = SkeletonGraph(toulmin_graph.nodes, toulmin_graph.edges,
                      dict(toulmin_graph.anno_items()))
    assert degree_of(s) == 0


def test_degree_gap():
    s = SkeletonGraph([P2])
    with pytest.raises(DegreeGapError):
        degree_of(s)


def test_degree_counts_annotation_placeholders():
    s = SkeletonGraph([P1], [], {P1: [P2]})
    assert degree_of(s) == 2


# --------------------------------------------------------------------------
# substitution and instantiation


def test_substitute_pair_example():
    got = substitute(pair_skeleton(), ("u4", "u5"))
    want = AnnotatedGraph(
        ["u4", "u2"], [("u4", "u2"), ("u2", "u4")],
        {"u4": ["u1"], "u2": ["u3"], ("u4", "u2"): ["u5"], ("u2", "u4"): ["u5"]})
    assert got == want


def test_substitute_degree_zero_identity():
    s = SkeletonGraph(["a", "b"], [("a", "b")], {"a": ["x"], ("a", "b"): ["y"]})
    assert substitute(s, ()) == s.to_annotated()


def test_substitute_node_collision():
    s = SkeletonGraph([P1, P2])
    with pytest.raises(CollisionError):
        substitute(s, ("a", "a"))


def test_substitute_concrete_collision():
    s = SkeletonGraph([P1, "u2"])
    with pytest.raises(CollisionError):
        substitute(s, ("u2",))


def test_substitute_annotations_may_collapse():
    s = SkeletonGraph([P1], [], {P1: [P2, "fixed"]})
    got = substitute(s, ("n", "fixed"))
    assert got.anno("n") == frozenset({"fixed"})


def test_substitute_arity_checked():
    with pytest.raises(ValueError):
        substitute(pair_skeleton(), ("u4",))


def test_instantiates_pair_example():
    s, m = pair_skeleton(), pair_object()
    assert instantiates(("u4", "u5"), s, m)
    assert instantiates(("u8", "u7"), s, m)
    assert not instantiates(("u2", "u5"), s, m)


def test_instantiates_all_pairs_match_oracle():
    s, m = pair_skeleton(), pair_object()
    plain_s = to_plain(s)
    plain_m = to_plain(m)
    domain = oracles.graph_domain(plain_m)
    for args in itertools.product(domain, repeat=2):
        assert instantiates(args, s, m) == oracles.naive_instantiates(
            args, plain_s, plain_m), args


def test_distinctness_skeleton_semantics(chain_model):
    m = chain_model.graph
    s = SkeletonGraph([P1, P2, P3])
    for args in itertools.product(sorted(m.node_set), repeat=3):
        assert instantiates(args, s, m) == (len(set(args)) == 3), args


# --------------------------------------------------------------------------
# matching


def test_match_tuples_pair_example():
    assert match_tuples(pair_skeleton(), pair_object()) == [
        ("u4", "u5"), ("u8", "u7")]


def test_match_tuples_degree_zero():
    s = SkeletonGraph(["a"])
    assert match_tuples(s, AnnotatedGraph(["a", "b"])) == [()]
    assert match_tuples(s, AnnotatedGraph(["b"])) == []


def test_match_tuples_toulmin(toulmin_graph, toulmin_skeleton):
    assert match_tuples(toulmin_skeleton, toulmin_graph) == [
        ("txt_1", "txt_2", "txt_3", "txt_4", "txt_5", "txt_6")]


# --------------------------------------------------------------------------
# JSON shape


def test_graph_roundtrip(toulmin_graph):
    assert graph_from_dict(graph_to_dict(toulmin_graph)) == toulmin_graph


def test_skeleton_roundtrip(toulmin_skeleton):
    d = graph_to_dict(toulmin_skeleton)
    assert graph_from_dict(d, skeleton=True) == toulmin_skeleton


def test_object_loader_rejects_placeholders():
    with pytest.raises(ValueError):
        graph_from_dict({"nodes": [{"id": "*1", "anno": []}], "edges": []})


def test_edge_endpoint_must_exist():
    with pytest.raises(ValueError):
        AnnotatedGraph(["a"], [("a", "b")])


def test_annotation_key_must_exist():
    with pytest.raises(ValueError):
        AnnotatedGraph(["a"], [], {"b": ["x"]})


# --------------------------------------------------------------------------
# randomized properties


def to_plain(g):
    def conv(v):
        return repr(v) if isinstance(v, Placeholder) else v

    nodes = [conv(u) for u in g.nodes]
    edges = [(conv(a), conv(b)) for a, b in g.edges]
    anno = {}
    for key, vs in g.anno_items():
        k = (conv(key[0]), conv(key[1])) if isinstance(key, tuple) else conv(key)
        anno[k] = {conv(v) for v in vs}
    return oracles.graph_of(nodes, edges, anno)


NODE_NAMES = ["a", "b", "c", "d"]
ANNO_NAMES = ["p", "q"]


@st.composite
def annotated_graphs(draw):
    nodes = sorted(draw(st.sets(st.sampled_from(NODE_NAMES), max_size=4)))
    edges = sorted(draw(st.sets(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
        max_size=5))) if nodes else []
    anno = {}
    for key in list(nodes) + list(edges):
        anno[key] = draw(st.sets(st.sampled_from(ANNO_NAMES), max_size=2))
    return AnnotatedGraph(nodes, edges, anno)


@st.composite
def subgraph_of(draw, g):
    nodes = sorted(draw(st.sets(st.sampled_from(sorted(g.node_set)),
                                max_size=len(g.node_set))) if g.node_set
                   else set())
    kept = set(nodes)
    edges = [e for e in g.edges if e[0] in kept and e[1] in kept
             and draw(st.booleans())]
    anno = {}
    for key in list(nodes) + list(edges):
        full = sorted(g.anno(key))
        anno[key] = draw(st.sets(st.sampled_from(full),
                                 max_size=len(full))) if full else set()
    return AnnotatedGraph(nodes, edges, anno)


@st.composite
def skeletons(draw):
    """Small skeletons of degree 1 or 2 mixing node and annotation slots."""
    degree = draw(st.integers(1, 2))
    phs = [Placeholder(i) for i in range(1, degree + 1)]
    as_nodes = draw(st.sets(st.sampled_from(phs), max_size=degree))
    concrete = sorted(draw(st.sets(st.sampled_from(NODE_NAMES), max_size=2)))
    nodes = sorted(as_nodes, key=lambda p: p.index) + concrete
    if not nodes:
        nodes = [phs[0]]
        as_nodes = {phs[0]}
    edges = sorted(draw(st.sets(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=2)),
        key=repr)
    spare = [p for p in phs if p not in as_nodes]
    anno_pool = ANNO_NAMES + spare
    anno = {}
    for key in list(nodes) + list(edges):
        anno[key] = draw(st.sets(st.sampled_from(anno_pool), max_size=2))
    # every placeholder must occur somewhere; park the unused ones on a node
    used = {v.index for v in SkeletonGraph(nodes, edges, anno).all_values()
            if isinstance(v, Placeholder)}
    missing = [p for p in phs if p.index not in used]
    if missing:
        host = nodes[0]
        anno[host] = set(anno[host]) | set(missing)
    return SkeletonGraph(nodes, edges, anno)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_leq_preorder(data):
    g3 = data.draw(annotated_graphs())
    g2 = data.draw(subgraph_of(g3))
    g1 = data.draw(subgraph_of(g2))
    assert leq(g1, g1) and leq(g2, g2) and leq(g3, g3)
    assert leq(g1, g2) and leq(g2, g3)
    assert leq(g1, g3)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_instantiates_monotone(data):
    m2 = data.draw(annotated_graphs())
    m1 = data.draw(subgraph_of(m2))
    s = data.draw(skeletons())
    n = degree_of(s)
    domain = oracles.graph_domain(to_plain(m1)) or ["a"]
    args = tuple(data.draw(st.sampled_from(domain)) for _ in range(n))
    if instantiates(args, s, m1):
        assert instantiates(args, s, m2)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_compiled_skeleton_test_agrees_with_instantiates(data):
    m = data.draw(annotated_graphs())
    s = data.draw(skeletons())
    test = compile_skeleton_test(s, m)
    plain_s, plain_m = to_plain(s), to_plain(m)
    # the skeleton's constant nodes join the domain so that arguments can
    # collide with them as well as with each other
    constants = {u for u in s.nodes if isinstance(u, str)}
    domain = sorted(set(oracles.graph_domain(plain_m)) | constants | {"a"})
    for args in itertools.product(domain, repeat=degree_of(s)):
        want = oracles.naive_instantiates(args, plain_s, plain_m)
        assert instantiates(args, s, m) == want, args
        assert test(args) == want, args


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_match_tuples_equals_brute_force(data):
    m = data.draw(annotated_graphs())
    s = data.draw(skeletons())
    plain_m = to_plain(m)
    got = match_tuples(s, m)
    want = oracles.all_matches(to_plain(s), plain_m, degree_of(s))
    assert [tuple(t) for t in got] == [tuple(t) for t in want]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_roundtrip_random(data):
    g = data.draw(annotated_graphs())
    assert graph_from_dict(graph_to_dict(g)) == g
