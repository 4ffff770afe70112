"""Quantifier expansion over the finite domain of discourse.

A closed formula evaluated against a fixed model and interpretation only ever
consults finitely many ground atoms, so it can be rewritten as a propositional
formula: every universal quantifier becomes a conjunction over the domain,
every existential a disjunction, ground equalities fold to constants by string
comparison, and each remaining ground atom becomes a propositional variable
named "pred/arity(v1,...,vn)". Evaluating that formula under the valuation
induced by the model (truth of each ground atom) agrees with the first-order
satisfaction relation; the agreement is what the test suite checks.

Expansion memoizes subformula results on the values of their free variables,
so the output is a DAG rather than a tree. Folding happens during
construction: a conjunction stops at the first false child, a disjunction at
the first true one. Nothing beyond constant folding is simplified; the point
is characterisation, not compactness.

to_dimacs exports a Tseitin-style CNF, equisatisfiable with the formula, with
source variables numbered first (sorted by name) and one auxiliary variable
per connective. The mapping between numbers and names travels both in the
comment block and in a sidecar dict for JSON serialization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import BoundExceeded, DecodeError, MissingVar, NotClosedError, UnknownSymbol
from .graphs import compile_skeleton_test
from .semantics import Evaluation, Interpretation, Model, eval_term
from .syntax import (And, Atom, Bottom, Equal, Exists, Forall, Formula, Implies,
                     Not, Or, Top, free_name_map, signature_of)


# --------------------------------------------------------------------------
# Propositional syntax


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PTrue:
    pass


@dataclass(frozen=True)
class PFalse:
    pass


PTRUE = PTrue()
PFALSE = PFalse()


@dataclass(frozen=True, eq=False)
class PNot:
    body: "PropFormula"


@dataclass(frozen=True, eq=False)
class PAnd:
    children: tuple["PropFormula", ...]


@dataclass(frozen=True, eq=False)
class POr:
    children: tuple["PropFormula", ...]


@dataclass(frozen=True, eq=False)
class PImplies:
    left: "PropFormula"
    right: "PropFormula"


PropFormula = Union[PVar, PTrue, PFalse, PNot, PAnd, POr, PImplies]

Valuation = Mapping[str, bool]


def pnot(x: PropFormula) -> PropFormula:
    if isinstance(x, PTrue):
        return PFALSE
    if isinstance(x, PFalse):
        return PTRUE
    return PNot(x)


def pand(children) -> PropFormula:
    kept = []
    for c in children:
        if isinstance(c, PFalse):
            return PFALSE
        if not isinstance(c, PTrue):
            kept.append(c)
    if not kept:
        return PTRUE
    if len(kept) == 1:
        return kept[0]
    return PAnd(tuple(kept))


def por(children) -> PropFormula:
    kept = []
    for c in children:
        if isinstance(c, PTrue):
            return PTRUE
        if not isinstance(c, PFalse):
            kept.append(c)
    if not kept:
        return PFALSE
    if len(kept) == 1:
        return kept[0]
    return POr(tuple(kept))


def pimplies(left: PropFormula, right: PropFormula) -> PropFormula:
    if isinstance(left, PFalse) or isinstance(right, PTrue):
        return PTRUE
    if isinstance(left, PTrue):
        return right
    if isinstance(right, PFalse):
        return pnot(left)
    return PImplies(left, right)


def _children(p: PropFormula) -> tuple:
    if isinstance(p, PNot):
        return (p.body,)
    if isinstance(p, (PAnd, POr)):
        return p.children
    if isinstance(p, PImplies):
        return (p.left, p.right)
    return ()


def _postorder(root: PropFormula) -> Iterator[PropFormula]:
    """Each DAG node once, children before parents. Iterative: shared
    conjunction spines can be deeper than the interpreter's recursion limit.

    Nodes are marked done only when yielded; a node reachable along paths of
    different lengths may be pushed more than once, and the done check keeps
    every extra visit a no-op.
    """
    done: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        nid = id(node)
        if nid in done:
            continue
        if expanded:
            done.add(nid)
            yield node
            continue
        stack.append((node, True))
        for ch in _children(node):
            if id(ch) not in done:
                stack.append((ch, False))


def vars_of(p: PropFormula) -> frozenset[str]:
    """Names of the propositional variables occurring in p."""
    return frozenset(n.name for n in _postorder(p) if isinstance(n, PVar))


def prop_size(p: PropFormula) -> int:
    """Printed (tree) size: every shared occurrence counts again."""
    size: dict[int, int] = {}
    for node in _postorder(p):
        size[id(node)] = 1 + sum(size[id(c)] for c in _children(node))
    return size[id(p)]


def dag_size(p: PropFormula) -> int:
    """Number of distinct nodes in the shared representation."""
    return sum(1 for _ in _postorder(p))


# --------------------------------------------------------------------------
# Ground-atom variable names


_ATOM_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)/([0-9]+)\((.*)\)\Z", re.DOTALL)


def encode_atom(name: str, arity: int, values: tuple[str, ...]) -> str:
    return f"{name}/{arity}({','.join(values)})"


def decode_atom(text: str) -> tuple[str, int, tuple[str, ...]]:
    """Inverse of encode_atom.

    Splits the argument blob on commas, so domain values that themselves
    contain a comma round-trip to the wrong arity and raise DecodeError;
    the canonical naming scheme assumes comma-free values.
    """
    mo = _ATOM_NAME.match(text)
    if mo is None:
        raise DecodeError(f"not a ground-atom name: {text!r}")
    name, arity, blob = mo.group(1), int(mo.group(2)), mo.group(3)
    args = tuple(blob.split(",")) if blob else ()
    if len(args) != arity:
        raise DecodeError(
            f"{text!r} declares arity {arity} but carries {len(args)} arguments")
    return name, arity, args


# --------------------------------------------------------------------------
# Grounding

# Memoize a subformula only while keying on its free-variable values stays
# cheaper than recomputation; past this many free variables the key space
# outgrows the work saved.
_MEMO_MAX_FREE = 3


def expansion_bound(f: Formula, domain_size: int) -> int:
    """Upper bound on the subformula visits ground() would make.

    Each node is visited once per combination of values of the quantifiers
    enclosing it, so the bound multiplies the domain size per quantifier on
    the path. Short-circuiting and memoization usually undercut this by one
    or two orders of magnitude; the bound is for deciding whether to attempt
    a grounding at all, not for predicting its exact cost.
    """
    def walk(g: Formula, mult: int) -> int:
        if isinstance(g, Not):
            return mult + walk(g.body, mult)
        if isinstance(g, (And, Or, Implies)):
            return mult + walk(g.left, mult) + walk(g.right, mult)
        if isinstance(g, (Forall, Exists)):
            return mult + walk(g.body, mult * domain_size)
        return mult

    return walk(f, 1)


def ground(f: Formula, m: Model, interp: Interpretation, *,
           max_ops: int | None = None) -> PropFormula:
    """Expand every quantifier of a closed formula over m's domain.

    max_ops bounds the number of subformula expansions (BoundExceeded when
    crossed); preferred/grounded characterisation schemas blow up as
    |domain|^depth and the budget turns that into a clean refusal.
    """
    fmap = free_name_map(f)
    if fmap[id(f)]:
        raise NotClosedError(fmap[id(f)])
    preds, funcs = signature_of(f)
    for ref in preds:
        if (ref.name, ref.arity) not in interp.predicates:
            raise UnknownSymbol(ref.name, ref.arity, "predicate")
    for name, arity in funcs:
        if (name, arity) not in interp.functions:
            raise UnknownSymbol(name, arity, "function")

    domain = m.domain
    env: dict[str, str] = {}
    ev = Evaluation(interp, env)
    memo: dict = {}
    atoms: dict[str, PVar] = {}
    ops = 0

    def charge() -> None:
        nonlocal ops
        ops += 1
        if max_ops is not None and ops > max_ops:
            raise BoundExceeded(f"grounding exceeded the budget of {max_ops} steps")

    def walk(g: Formula) -> PropFormula:
        tg = type(g)
        if tg is Top:
            return PTRUE
        if tg is Bottom:
            return PFALSE
        if tg is Equal:
            charge()
            return PTRUE if eval_term(g.left, ev) == eval_term(g.right, ev) else PFALSE
        if tg is Atom:
            charge()
            vals = tuple(eval_term(t, ev) for t in g.args)
            key = encode_atom(g.pred.name, g.pred.arity, vals)
            v = atoms.get(key)
            if v is None:
                v = PVar(key)
                atoms[key] = v
            return v
        names = fmap[id(g)]
        use_memo = len(names) <= _MEMO_MAX_FREE
        if use_memo:
            mkey = (id(g),) + tuple(env[n] for n in names)
            hit = memo.get(mkey)
            if hit is not None:
                return hit
        charge()
        if tg is Not:
            out: PropFormula = pnot(walk(g.body))
        elif tg is And:
            left = walk(g.left)
            out = PFALSE if left is PFALSE else pand((left, walk(g.right)))
        elif tg is Or:
            left = walk(g.left)
            out = PTRUE if left is PTRUE else por((left, walk(g.right)))
        elif tg is Implies:
            left = walk(g.left)
            out = PTRUE if left is PFALSE else pimplies(left, walk(g.right))
        elif tg is Forall or tg is Exists:
            var = g.var
            had = var in env
            saved = env.get(var)
            parts: list[PropFormula] = []
            folded: PropFormula | None = None
            if tg is Forall:
                for value in domain:
                    env[var] = value
                    child = walk(g.body)
                    if child is PFALSE:
                        folded = PFALSE
                        break
                    if child is not PTRUE:
                        parts.append(child)
                out = pand(parts) if folded is None else folded
            else:
                for value in domain:
                    env[var] = value
                    child = walk(g.body)
                    if child is PTRUE:
                        folded = PTRUE
                        break
                    if child is not PFALSE:
                        parts.append(child)
                out = por(parts) if folded is None else folded
            if had:
                env[var] = saved
            else:
                env.pop(var, None)
        else:
            raise TypeError(f"not a formula: {g!r}")
        if use_memo:
            memo[mkey] = out
        return out

    return walk(f)


def induced_valuation(m: Model, interp: Interpretation, names) -> dict[str, bool]:
    """Truth of each named ground atom in the model.

    Every name must decode to an interpreted predicate applied to domain
    values; the valuation is exactly what the satisfaction relation assigns
    to those atoms.
    """
    out: dict[str, bool] = {}
    tests: dict = {}
    for text in sorted(names):
        name, arity, args = decode_atom(text)
        skel = interp.predicates.get((name, arity))
        if skel is None:
            raise DecodeError(f"predicate {name}/{arity} is not interpreted")
        for a in args:
            if a not in m.domain_set:
                raise DecodeError(f"{a!r} is not in the domain of discourse")
        test = tests.get((name, arity))
        if test is None:
            test = tests[(name, arity)] = compile_skeleton_test(skel, m.graph)
        out[text] = test(args)
    return out


def eval_prop(p: PropFormula, v: Valuation) -> bool:
    """Evaluate under a valuation total on vars_of(p); MissingVar otherwise."""
    value: dict[int, bool] = {}
    for node in _postorder(p):
        if isinstance(node, PVar):
            try:
                r = bool(v[node.name])
            except KeyError:
                raise MissingVar(node.name) from None
        elif isinstance(node, PTrue):
            r = True
        elif isinstance(node, PFalse):
            r = False
        elif isinstance(node, PNot):
            r = not value[id(node.body)]
        elif isinstance(node, PAnd):
            r = all(value[id(c)] for c in node.children)
        elif isinstance(node, POr):
            r = any(value[id(c)] for c in node.children)
        else:
            r = (not value[id(node.left)]) or value[id(node.right)]
        value[id(node)] = r
    return value[id(p)]


# --------------------------------------------------------------------------
# CNF export


def to_dimacs(p: PropFormula) -> tuple[str, dict]:
    """Tseitin encoding; returns the DIMACS text and the name mapping.

    Source variables take 1..s in name order; every connective gets an
    auxiliary variable after them; a final unit clause asserts the root. The
    two constant formulas degenerate: PTrue becomes the empty CNF "p cnf 0 0"
    and PFalse a single empty clause. The mapping dict mirrors the comment
    block: {"root", "constant", "source": name -> number,
    "auxiliary": number -> connective}.
    """
    if isinstance(p, PTrue):
        text = "c formula is the constant true\np cnf 0 0\n"
        return text, {"root": None, "constant": True, "source": {}, "auxiliary": {}}
    if isinstance(p, PFalse):
        text = "c formula is the constant false\np cnf 0 1\n0\n"
        return text, {"root": None, "constant": False, "source": {}, "auxiliary": {}}

    order = list(_postorder(p))
    source = {node.name for node in order if isinstance(node, PVar)}
    number = {name: i for i, name in enumerate(sorted(source), start=1)}
    code: dict[int, int] = {}
    aux: dict[int, str] = {}
    clauses: list[tuple[int, ...]] = []
    nxt = len(number) + 1
    for node in order:
        if isinstance(node, PVar):
            code[id(node)] = number[node.name]
            continue
        x = nxt
        nxt += 1
        code[id(node)] = x
        if isinstance(node, PTrue):
            aux[x] = "true"
            clauses.append((x,))
        elif isinstance(node, PFalse):
            aux[x] = "false"
            clauses.append((-x,))
        elif isinstance(node, PNot):
            b = code[id(node.body)]
            aux[x] = "not"
            clauses.append((-x, -b))
            clauses.append((x, b))
        elif isinstance(node, PAnd):
            kids = [code[id(c)] for c in node.children]
            aux[x] = "and"
            for c in kids:
                clauses.append((-x, c))
            clauses.append(tuple([x] + [-c for c in kids]))
        elif isinstance(node, POr):
            kids = [code[id(c)] for c in node.children]
            aux[x] = "or"
            for c in kids:
                clauses.append((x, -c))
            clauses.append(tuple([-x] + kids))
        else:
            a = code[id(node.left)]
            b = code[id(node.right)]
            aux[x] = "implies"
            clauses.append((-x, -a, b))
            clauses.append((x, a))
            clauses.append((x, -b))
    root = code[id(p)]
    clauses.append((root,))

    lines = [f"c source {i} {name}"
             for name, i in sorted(number.items(), key=lambda kv: kv[1])]
    lines.extend(f"c aux {i} {kind}" for i, kind in aux.items())
    lines.append(f"c root {root}")
    lines.append(f"p cnf {nxt - 1} {len(clauses)}")
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    mapping = {
        "root": root,
        "constant": None,
        "source": dict(sorted(number.items())),
        "auxiliary": {str(i): kind for i, kind in aux.items()},
    }
    return "\n".join(lines) + "\n", mapping
