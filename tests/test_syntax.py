import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dglogic import (And, Apply, Atom, BOTTOM, Bottom, DegreeGapError, Equal,
                     Exists, Forall, Implies, Not, Or, ParseError, Placeholder,
                     SymbolRef, TOP, Variable, atom, big_and, big_or, constant,
                     f_k_cf, format_formula, formula_size, free_vars,
                     is_well_formed, parse_formula, parse_graph_literal,
                     parse_term, symbols_of)
from dglogic.syntax import free_name_map, signature_of

X, Y = Variable("x"), Variable("y")


# --------------------------------------------------------------------------
# parsing


def test_parse_negation_binds_tighter_than_and():
    f = parse_formula("~p(a) & q(b)")
    assert f == And(Not(atom("p", constant("a"))), atom("q", constant("b")))


def test_parse_quantifier_scopes_below_implication():
    f = parse_formula("forall x. p(x) -> q(x)")
    assert isinstance(f, Implies)
    assert f.left == Forall("x", atom("p", X))
    assert f.right == atom("q", X)


def test_parse_nested_exists():
    f = parse_formula("exists x1. exists x2. p(x1, x2)")
    assert f == Exists("x1", Exists("x2",
                       atom("p", Variable("x1"), Variable("x2"))))


def test_parse_quantifier_absorbs_rest_of_group():
    f = parse_formula("p(a) & forall x. q(x) & r(x)")
    assert f == And(atom("p", constant("a")),
                    Forall("x", And(atom("q", X), atom("r", X))))


def test_parse_implies_right_associative():
    f = parse_formula("p(a) -> q(a) -> r(a)")
    assert isinstance(f, Implies)
    assert isinstance(f.right, Implies)


def test_parse_and_or_left_associative():
    f = parse_formula("p(a) & q(a) & r(a)")
    assert f == And(And(atom("p", constant("a")), atom("q", constant("a"))),
                    atom("r", constant("a")))


def test_parse_brackets_interchangeable():
    assert parse_formula("[p(a) | q(a)] & r(a)") == \
        parse_formula("(p(a) | q(a)) & r(a)")


def test_parse_equality_and_constants():
    f = parse_formula("x = c1")
    assert f == Equal(X, constant("c1"))


def test_parse_true_false():
    assert parse_formula("true") is TOP
    assert parse_formula("false") is BOTTOM


def test_parse_function_application():
    f = parse_formula("g(h(x), c) = x")
    assert f == Equal(Apply("g", (Apply("h", (X,)), constant("c"))), X)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p(a) &")
    assert exc.value.position == 6


def test_parse_rejects_bad_variable():
    with pytest.raises(ParseError):
        parse_formula("forall alpha. p(alpha)")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse_formula("p(a) q(b)")


def test_parse_rejects_negated_bare_quantifier():
    with pytest.raises(ParseError):
        parse_formula("~forall x. p(x)")
    assert parse_formula("~(forall x. p(x))") == Not(Forall("x", atom("p", X)))


def test_variable_lexical_class():
    assert parse_term("v12") == Variable("v12")
    assert parse_term("u1") == constant("u1")
    assert parse_term("x") == X


# --------------------------------------------------------------------------
# free variables and well-formedness


def test_free_vars_atom():
    assert free_vars(atom("p", X)) == {"x"}


def test_free_vars_bound():
    assert free_vars(Forall("x", atom("p", X))) == set()


def test_free_vars_mixed():
    assert free_vars(Forall("x", atom("p", X, Y))) == {"y"}


def test_free_vars_shadowing():
    f = And(atom("p", X), Forall("x", atom("q", X)))
    assert free_vars(f) == {"x"}


def test_is_well_formed():
    assert is_well_formed(TOP)
    assert not is_well_formed(atom("p", X))
    for k in range(6):
        assert is_well_formed(f_k_cf(k, [f"c{i}" for i in range(1, k + 1)]))


def test_formula_size():
    assert formula_size(TOP) == 1
    assert formula_size(And(TOP, Not(BOTTOM))) == 4
    assert formula_size(Forall("x", Equal(X, X))) == 2


def test_big_operators_empty():
    assert big_and([]) is TOP
    assert big_or([]) is BOTTOM


def test_atom_arity_checked():
    with pytest.raises(ValueError):
        Atom(SymbolRef("p", 2), (X,))


# --------------------------------------------------------------------------
# printing round-trip


PINNED = [
    "true",
    "false",
    "~p(a) & q(b)",
    "forall x. p(x) -> q(x)",
    "exists x1. exists x2. p(x1, x2)",
    "p(a) | q(a) & r(a)",
    "x = y",
    "forall x. (p(x) -> exists y. q(x, y))",
]


@pytest.mark.parametrize("text", PINNED)
def test_roundtrip_pinned(text):
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


def _names(kind):
    return st.sampled_from(kind)


terms = st.recursive(
    st.one_of(_names(["x", "y", "z1"]).map(Variable),
              _names(["a", "b", "c1"]).map(constant)),
    lambda kids: st.tuples(_names(["g", "h"]), st.lists(kids, min_size=1,
                                                        max_size=2)).map(
        lambda t: Apply(t[0], tuple(t[1]))),
    max_leaves=4)


formulas = st.recursive(
    st.one_of(
        st.just(TOP), st.just(BOTTOM),
        st.tuples(_names(["p", "q"]), st.lists(terms, max_size=2)).map(
            lambda t: Atom(SymbolRef(t[0], len(t[1])), tuple(t[1]))),
        st.tuples(terms, terms).map(lambda t: Equal(*t))),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda t: And(*t)),
        st.tuples(kids, kids).map(lambda t: Or(*t)),
        st.tuples(kids, kids).map(lambda t: Implies(*t)),
        st.tuples(_names(["x", "y", "z1"]), kids).map(lambda t: Forall(*t)),
        st.tuples(_names(["x", "y", "z1"]), kids).map(lambda t: Exists(*t))),
    max_leaves=12)


@given(formulas)
@settings(max_examples=300, deadline=None)
def test_roundtrip_random(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas)
@settings(max_examples=100, deadline=None)
def test_size_positive_and_stable(f):
    assert formula_size(f) >= 1
    assert formula_size(parse_formula(format_formula(f))) == formula_size(f)


# --------------------------------------------------------------------------
# formula analyses against a plain tree walk


def ref_term_vars(t):
    if isinstance(t, Variable):
        return {t.name}
    return set().union(*(ref_term_vars(a) for a in t.args))


def ref_term_functions(t):
    if isinstance(t, Variable):
        return set()
    return {(t.name, len(t.args))}.union(*(ref_term_functions(a) for a in t.args))


def ref_free_vars(f):
    if isinstance(f, Atom):
        return set().union(*(ref_term_vars(t) for t in f.args))
    if isinstance(f, Equal):
        return ref_term_vars(f.left) | ref_term_vars(f.right)
    if isinstance(f, Not):
        return ref_free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return ref_free_vars(f.left) | ref_free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return ref_free_vars(f.body) - {f.var}
    return set()


def ref_children(f):
    if isinstance(f, (Not, Forall, Exists)):
        return [f.body]
    if isinstance(f, (And, Or, Implies)):
        return [f.left, f.right]
    return []


def ref_signature(f):
    if isinstance(f, Atom):
        return {f.pred}, set().union(*(ref_term_functions(t) for t in f.args))
    if isinstance(f, Equal):
        return set(), ref_term_functions(f.left) | ref_term_functions(f.right)
    preds, funcs = set(), set()
    for g in ref_children(f):
        p, fs = ref_signature(g)
        preds |= p
        funcs |= fs
    return preds, funcs


def ref_subformulas(f):
    yield f
    for g in ref_children(f):
        yield from ref_subformulas(g)


# One node object reused under several parents, including under a binder of
# one of its own free variables and next to a free occurrence of it.
shared_formulas = st.recursive(
    formulas,
    lambda kids: st.one_of(
        kids.map(lambda k: And(k, Not(k))),
        st.tuples(_names(["x", "y", "z1"]), kids).map(
            lambda t: Or(t[1], Forall(t[0], t[1]))),
        st.tuples(_names(["x", "y", "z1"]), kids, kids).map(
            lambda t: Exists(t[0], Implies(t[1], Forall(t[0], And(t[1], t[2]))))),
    ),
    max_leaves=4)


@given(shared_formulas)
@settings(max_examples=300, deadline=None)
def test_analyses_agree_with_tree_walk(f):
    assert free_vars(f) == ref_free_vars(f)
    assert is_well_formed(f) == (not ref_free_vars(f))
    preds, funcs = signature_of(f)
    assert (preds, funcs) == ref_signature(f)
    assert symbols_of(f) == preds
    fmap = free_name_map(f)
    for g in ref_subformulas(f):
        assert fmap[id(g)] == tuple(sorted(ref_free_vars(g)))


# --------------------------------------------------------------------------
# typed graph literals


def test_parse_graph_literal_display_example():
    text = json.dumps({
        "nodes": [{"id": "*1", "anno": ["c1"]}, {"id": "c2", "anno": ["c3"]}],
        "edges": [{"from": "*1", "to": "c2", "anno": ["*2"]},
                  {"from": "c2", "to": "*1", "anno": ["*2"]}],
    })
    g = parse_graph_literal(text)
    assert g.degree() == 2
    assert Placeholder(1) in g.nodes
    assert g.anno(Placeholder(1)) == frozenset({constant("c1")})
    assert g.anno((constant("c2"), Placeholder(1))) == frozenset({Placeholder(2)})


def test_parse_graph_literal_empty():
    g = parse_graph_literal('{"nodes": [], "edges": []}')
    assert g.degree() == 0
    assert g.nodes == ()


def test_parse_graph_literal_gap():
    with pytest.raises(DegreeGapError):
        parse_graph_literal(json.dumps(
            {"nodes": [{"id": "*3", "anno": []}], "edges": []}))


def test_parse_graph_literal_bad_json():
    with pytest.raises(ParseError):
        parse_graph_literal("{nodes: }")


def test_parse_graph_literal_variables_are_terms():
    g = parse_graph_literal(json.dumps(
        {"nodes": [{"id": "x", "anno": ["f(x)"]}], "edges": []}))
    assert g.nodes == (X,)
    assert g.anno(X) == frozenset({Apply("f", (X,))})
