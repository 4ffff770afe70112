"""Satisfaction of first-order formulas over an annotated graph.

The domain of discourse of a graph M is nodes(M) together with every string
occurring in an annotation set of M. A predicate symbol of arity n is
interpreted by a degree-n skeleton graph; an atom p(t1..tn) holds when the
evaluated arguments instantiate that skeleton below M. Equality is string
equality on the domain. Function symbols are interpreted by finite lookup
tables (constants are 0-ary functions).

Formulas are evaluated by compiling them once into nested closures over an
integer-slot environment. Ground-atom verdicts are cached per checker, and
quantified subformulas with at most two free variables are memoized on their
free-variable values; both caches are sound because satisfaction of a
subformula depends only on those values once the model and interpretation are
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import (CollisionError, NotClosedError, TableMiss, UnboundVariable,
                     UnknownSymbol)
from .graphs import (AnnotatedGraph, Placeholder, SkeletonGraph,
                     compile_skeleton_test, degree_of, graph_from_dict,
                     graph_to_dict)
from .syntax import (And, Atom, Bottom, Equal, Exists, Forall, Formula,
                     Implies, Not, Or, Term, Top, TypedGraph, Variable,
                     free_name_map, free_vars)


class Model:
    """An annotated graph together with its domain of discourse."""

    __slots__ = ("graph", "domain", "domain_set")

    def __init__(self, graph: AnnotatedGraph):
        values = set(graph.nodes)
        for _, vs in graph.anno_items():
            values |= vs
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "domain", tuple(sorted(values)))
        object.__setattr__(self, "domain_set", frozenset(values))

    def __setattr__(self, name, value):
        raise AttributeError("Model is immutable")

    def __repr__(self):
        return f"Model({len(self.graph.nodes)} nodes, |domain|={len(self.domain)})"


FunctionSpec = str | Mapping[tuple[str, ...], str]


@dataclass(frozen=True, eq=False)
class Interpretation:
    """Maps function symbols to tables and predicate symbols to skeletons.

    Keys are (name, arity) pairs; the same name may carry several arities.
    A 0-ary function may be given directly as its value string.
    """

    functions: Mapping[tuple[str, int], FunctionSpec] = field(default_factory=dict)
    predicates: Mapping[tuple[str, int], SkeletonGraph] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (name, arity), skel in self.predicates.items():
            deg = degree_of(skel)
            if deg != arity:
                raise ValueError(
                    f"predicate {name}/{arity} interpreted by a degree-{deg} skeleton")
        for (name, arity), spec in self.functions.items():
            if isinstance(spec, str):
                if arity != 0:
                    raise ValueError(
                        f"function {name}/{arity} needs a lookup table, not a bare value")
            else:
                for args in spec:
                    if len(args) != arity:
                        raise ValueError(
                            f"table row of {name}/{arity} has {len(args)} arguments")


@dataclass(frozen=True, eq=False)
class Evaluation:
    """An interpretation plus a variable assignment."""

    interp: Interpretation
    assign: Mapping[str, str] = field(default_factory=dict)


def eval_term(t: Term, e: Evaluation) -> str:
    """Value of a term under an evaluation."""
    if isinstance(t, Variable):
        try:
            return e.assign[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    spec = e.interp.functions.get((t.name, len(t.args)))
    if spec is None:
        raise UnknownSymbol(t.name, len(t.args), "function")
    if isinstance(spec, str):
        return spec
    args = tuple(eval_term(a, e) for a in t.args)
    try:
        return spec[args]
    except KeyError:
        raise TableMiss(t.name, args) from None


class ModelChecker:
    """Compiles and evaluates formulas against one (model, interpretation).

    Reusable across many formulas and assignments; the ground-atom cache and
    the quantifier memo persist for the checker's lifetime.
    """

    def __init__(self, model: Model, interp: Interpretation):
        self.model = model
        self.interp = interp
        self._atom_cache: dict = {}
        self._memo: dict = {}
        self._pred_index: dict[tuple[str, int], int] = {}
        self._pred_tests: dict[tuple[str, int], Callable] = {}
        # keep checked formulas alive so id()-keyed memo entries stay valid
        self._roots: list = []
        # environment slots the formula being compiled needs
        self._env_size = 0

    # -- term compilation ---------------------------------------------------

    def _term(self, t: Term, scope: Mapping[str, int]) -> Callable:
        if isinstance(t, Variable):
            slot = scope.get(t.name)
            if slot is None:
                name = t.name

                def missing(env, _name=name):
                    raise UnboundVariable(_name)

                return missing
            return lambda env, _s=slot: env[_s]
        sig = (t.name, len(t.args))
        spec = self.interp.functions.get(sig)
        if spec is None:
            raise UnknownSymbol(t.name, len(t.args), "function")
        if isinstance(spec, str):
            return lambda env, _v=spec: _v
        getters = tuple(self._term(a, scope) for a in t.args)
        name = t.name

        def apply(env, _g=getters, _tab=spec, _n=name):
            args = tuple(g(env) for g in _g)
            try:
                return _tab[args]
            except KeyError:
                raise TableMiss(_n, args) from None

        return apply

    # -- formula compilation ------------------------------------------------

    def _compile(self, f: Formula, scope: Mapping[str, int], depth: int,
                 fmap: Mapping[int, tuple[str, ...]]) -> Callable:
        if isinstance(f, Top):
            return lambda env: True
        if isinstance(f, Bottom):
            return lambda env: False
        if isinstance(f, Atom):
            sig = (f.pred.name, f.pred.arity)
            skel = self.interp.predicates.get(sig)
            if skel is None:
                raise UnknownSymbol(f.pred.name, f.pred.arity, "predicate")
            test = self._pred_tests.get(sig)
            if test is None:
                test = compile_skeleton_test(skel, self.model.graph)
                self._pred_tests[sig] = test
            getters = tuple(self._term(t, scope) for t in f.args)
            if f.pred.arity > 3:
                # wide atoms are cheap to retest and their key space is huge
                def ev_atom_direct(env, _g=getters, _t=test):
                    return _t(tuple(g(env) for g in _g))

                return ev_atom_direct
            pidx = self._pred_index.setdefault(sig, len(self._pred_index))
            cache = self._atom_cache

            def ev_atom(env, _g=getters, _p=pidx, _t=test):
                vals = tuple(g(env) for g in _g)
                key = (_p, vals)
                r = cache.get(key)
                if r is None:
                    r = _t(vals)
                    cache[key] = r
                return r

            return ev_atom
        if isinstance(f, Equal):
            lg = self._term(f.left, scope)
            rg = self._term(f.right, scope)
            return lambda env: lg(env) == rg(env)
        if isinstance(f, Not):
            body = self._compile(f.body, scope, depth, fmap)
            return lambda env: not body(env)
        if isinstance(f, (And, Or)):
            kind = type(f)
            kids: list = []

            def spine(g) -> None:
                if type(g) is kind:
                    spine(g.left)
                    spine(g.right)
                else:
                    kids.append(g)

            spine(f)
            fns = tuple(self._compile(k, scope, depth, fmap) for k in kids)
            if len(fns) == 2:
                lf, rf = fns
                if kind is And:
                    return lambda env: lf(env) and rf(env)
                return lambda env: lf(env) or rf(env)
            if kind is And:
                def ev_and(env, _fns=fns):
                    for fn in _fns:
                        if not fn(env):
                            return False
                    return True

                return ev_and

            def ev_or(env, _fns=fns):
                for fn in _fns:
                    if fn(env):
                        return True
                return False

            return ev_or
        if isinstance(f, Implies):
            lf = self._compile(f.left, scope, depth, fmap)
            rf = self._compile(f.right, scope, depth, fmap)
            return lambda env: (not lf(env)) or rf(env)
        if isinstance(f, (Forall, Exists)):
            slot = depth
            if slot >= self._env_size:
                self._env_size = slot + 1
            inner_scope = dict(scope)
            inner_scope[f.var] = slot
            dom = self.model.domain
            if isinstance(f, Forall):
                if isinstance(f.body, Implies):
                    # the dominant schema shape; skip one call per iteration
                    guard = self._compile(f.body.left, inner_scope, depth + 1, fmap)
                    rest = self._compile(f.body.right, inner_scope, depth + 1, fmap)

                    def raw(env, _g=guard, _r=rest, _s=slot, _d=dom):
                        for v in _d:
                            env[_s] = v
                            if _g(env) and not _r(env):
                                return False
                        return True
                else:
                    body = self._compile(f.body, inner_scope, depth + 1, fmap)

                    def raw(env, _b=body, _s=slot, _d=dom):
                        for v in _d:
                            env[_s] = v
                            if not _b(env):
                                return False
                        return True
            else:
                body = self._compile(f.body, inner_scope, depth + 1, fmap)

                def raw(env, _b=body, _s=slot, _d=dom):
                    for v in _d:
                        env[_s] = v
                        if _b(env):
                            return True
                    return False
            names = fmap[id(f)]
            if len(names) <= 2 and all(n in scope for n in names):
                fslots = tuple(scope[n] for n in names)
                memo = self._memo
                nid = id(f)

                def memoized(env, _raw=raw, _fs=fslots, _id=nid):
                    key = (_id,) + tuple(env[s] for s in _fs)
                    r = memo.get(key)
                    if r is None:
                        r = _raw(env)
                        memo[key] = r
                    return r

                return memoized
            return raw
        raise TypeError(f"not a formula: {f!r}")

    # -- public entry points --------------------------------------------------

    def satisfies(self, f: Formula, assign: Mapping[str, str] | None = None) -> bool:
        assign = dict(assign or {})
        for name, value in assign.items():
            if value not in self.model.domain_set:
                raise ValueError(f"assigned value {value!r} for {name} is outside "
                                 "the domain of discourse")
        self._roots.append(f)
        names = sorted(assign)
        scope = {n: i for i, n in enumerate(names)}
        self._env_size = len(names)
        fn = self._compile(f, scope, len(names), free_name_map(f))
        env = [None] * self._env_size
        for n, i in scope.items():
            env[i] = assign[n]
        return fn(env)


def satisfies(m: Model, e: Evaluation, f: Formula) -> bool:
    """One-shot satisfaction check under an assignment."""
    return ModelChecker(m, e.interp).satisfies(f, e.assign)


def satisfies_closed(m: Model, i: Interpretation, f: Formula) -> bool:
    """Satisfaction for closed formulas; NotClosedError otherwise."""
    fv = free_vars(f)
    if fv:
        raise NotClosedError(tuple(fv))
    return ModelChecker(m, i).satisfies(f, {})


def eval_typed_graph(tg: TypedGraph, e: Evaluation) -> SkeletonGraph:
    """Evaluate every term of a typed graph, keeping placeholders.

    Raises CollisionError when two distinct node terms evaluate to the same
    string (mirroring substitution's collision rule).
    """
    node_map: dict = {}
    seen: dict[str, object] = {}
    for u in tg.nodes:
        v = u if isinstance(u, Placeholder) else eval_term(u, e)
        if isinstance(v, str):
            if v in seen and seen[v] != u:
                raise CollisionError(v)
            seen[v] = u
        node_map[u] = v

    def val(x):
        return x if isinstance(x, Placeholder) else eval_term(x, e)

    edges = [(node_map[a], node_map[b]) for a, b in tg.edges]
    anno = {}
    for key, vs in tg.anno_items():
        new_key = node_map[key] if not isinstance(key, tuple) else (
            node_map[key[0]], node_map[key[1]])
        anno[new_key] = {val(v) for v in vs}
    return SkeletonGraph(node_map.values(), edges, anno)


# --------------------------------------------------------------------------
# Environment (interpretation) files


def interpretation_from_dict(data: Mapping) -> Interpretation:
    """Read the JSON environment shape.

    {"constants": {name: value},
     "functions": [{"name":..., "arity": n, "table": [{"args": [...], "value": ...}]}],
     "predicates": [{"name":..., "arity": n, "graph": <skeleton graph JSON>}]}
    """
    functions: dict[tuple[str, int], FunctionSpec] = {}
    for name, value in (data.get("constants") or {}).items():
        functions[(str(name), 0)] = str(value)
    for fn in data.get("functions", []):
        name = str(fn["name"])
        arity = int(fn["arity"])
        table = {tuple(str(a) for a in row["args"]): str(row["value"])
                 for row in fn.get("table", [])}
        if arity == 0 and () in table:
            functions[(name, 0)] = table[()]
        else:
            functions[(name, arity)] = table
    predicates = {}
    for p in data.get("predicates", []):
        predicates[(str(p["name"]), int(p["arity"]))] = graph_from_dict(
            p["graph"], skeleton=True)
    return Interpretation(functions, predicates)


def interpretation_to_dict(interp: Interpretation) -> dict:
    constants = {}
    functions = []
    for (name, arity), spec in sorted(interp.functions.items()):
        if isinstance(spec, str):
            constants[name] = spec
        else:
            functions.append({
                "name": name, "arity": arity,
                "table": [{"args": list(args), "value": value}
                          for args, value in sorted(spec.items())],
            })
    predicates = [{"name": name, "arity": arity, "graph": graph_to_dict(skel)}
                  for (name, arity), skel in sorted(interp.predicates.items())]
    return {"constants": constants, "functions": functions, "predicates": predicates}
