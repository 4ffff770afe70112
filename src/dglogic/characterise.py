"""Generators for the formula families that characterise argumentation notions,
the standard environment they are evaluated in, and a cross-validation harness
that checks every formula against the combinatorial definitions.

Each builder is parametric in argument terms. Bound variables follow the
schema names (y1, z2, x0, ...) but are freshened deterministically whenever an
argument term's free variable would be captured, so nesting builders into one
another stays sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .dung import (EquivDungModel, ExtensionSpec, closure_sim, defends,
                   enumerate_extensions, is_admissible, is_conflict_free,
                   is_extension, subsets)
from .errors import ArityMismatch, BoundExceeded, UnknownSymbol
from .graphs import Placeholder, SkeletonGraph
from .semantics import Interpretation, ModelChecker
from .syntax import (And, Apply, Atom, Equal, Exists, Forall, Formula,
                     Implies, Not, Or, Term, TOP, BOTTOM, Variable, atom,
                     big_and, big_or, constant, signature_of, term_free_vars)

MAX_GENERATION_SIZE = 8

PRED_IN = "p_D"
PRED_ATTACK = "p_A"
PRED_ANNOEQ = "p_AnnoEq"


def _check_size(n: int, allow_large: bool) -> None:
    if n < 0:
        raise ArityMismatch(f"model-size parameter must be >= 0, got {n}")
    if n > MAX_GENERATION_SIZE and not allow_large:
        raise BoundExceeded(
            f"refusing to generate for size {n} > {MAX_GENERATION_SIZE}; "
            "pass allow_large=True to override")


def _coerce(t: Term | str) -> Term:
    if isinstance(t, str):
        return constant(t)
    if isinstance(t, (Variable, Apply)):
        return t
    raise TypeError(f"expected a term or symbol name, got {t!r}")


def _terms(consts: Sequence[Term | str], k: int, what: str) -> tuple[Term, ...]:
    ts = tuple(_coerce(t) for t in consts)
    if len(ts) != k:
        raise ArityMismatch(f"{what} needs {k} argument terms, got {len(ts)}")
    return ts


def _fresh(wanted: Sequence[str], avoid: set[str]) -> list[str]:
    """Keep each schema name unless it clashes; clashes get the smallest
    unused index of the same letter family."""
    taken = set(avoid)
    out = []
    for name in wanted:
        if name not in taken:
            out.append(name)
            taken.add(name)
            continue
        letter = name[0]
        j = 1
        while f"{letter}{j}" in taken:
            j += 1
        out.append(f"{letter}{j}")
        taken.add(f"{letter}{j}")
    return out


def _forall_chain(names: Sequence[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Forall(name, body)
    return body


def _exists_chain(names: Sequence[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Exists(name, body)
    return body


def _in_discussion(*ts: Term) -> Atom:
    return atom(PRED_IN, *ts)


def _attacks(a: Term, b: Term) -> Atom:
    return atom(PRED_ATTACK, a, b)


def _self_attacks(a: Term) -> Atom:
    return atom(PRED_ATTACK, a)


def _anno_eq(a: Term, b: Term, c: Term) -> Atom:
    return atom(PRED_ANNOEQ, a, b, c)


# --------------------------------------------------------------------------
# Conflict-freeness and closure families


def f_k_cf(k: int, consts: Sequence[Term | str]) -> Formula:
    """k members are in the discussion, pairwise distinct, and attack-free
    (self-attacks included). True outright for k = 0."""
    ts = _terms(consts, k, "conflict-freeness")
    if k == 0:
        return TOP
    y1n, y2n = _fresh(["y1", "y2"], term_free_vars(*ts))
    y1, y2 = Variable(y1n), Variable(y2n)
    ante = big_and([
        _in_discussion(y1),
        _in_discussion(y2),
        big_or(Equal(y1, t) for t in ts),
        big_or(Equal(y2, t) for t in ts),
    ])
    conseq = Or(
        big_and([Not(Equal(y1, y2)), Not(_attacks(y1, y2)), Not(_attacks(y2, y1))]),
        And(Equal(y1, y2), Not(_self_attacks(y1))),
    )
    return And(_in_discussion(*ts), Forall(y1n, Forall(y2n, Implies(ante, conseq))))


def f_kl_cl(k: int, l: int, consts: Sequence[Term | str]) -> Formula:
    """The l arguments form exactly the equivalence closure of the first k."""
    ts = _terms(consts, l, "closure")
    if k < 0 or l < 0:
        raise ArityMismatch("closure indices must be >= 0")
    if k == 0 and l == 0:
        return TOP
    if (k == 0 and l != 0) or (1 <= k and l < k):
        return BOTTOM
    z1n, z2n, z3n = _fresh(["z1", "z2", "z3"], term_free_vars(*ts))
    z1, z2, z3 = Variable(z1n), Variable(z2n), Variable(z3n)
    nothing_more = Forall(z1n, Forall(z2n, Implies(
        big_and([
            _in_discussion(z1, z2),
            big_or(Equal(z1, t) for t in ts[:k]),
            Exists(z3n, _anno_eq(z1, z2, z3)),
        ]),
        big_or(Equal(z2, t) for t in ts))))
    everything_reached = Forall(z1n, Implies(
        And(_in_discussion(z1), big_or(Equal(z1, t) for t in ts[k:])),
        Exists(z2n, Exists(z3n, And(
            big_or(Equal(z2, t) for t in ts[:k]),
            _anno_eq(z1, z2, z3))))))
    return big_and([_in_discussion(*ts), nothing_more, everything_reached])


def f_kn_wcf(k: int, N: int, consts: Sequence[Term | str], *,
             allow_large: bool = False) -> Formula:
    """Wide conflict-freeness: conflict-free, and so is every closure
    extension reachable within the N-node discussion."""
    _check_size(N, allow_large)
    ts = _terms(consts, k, "wide conflict-freeness")
    if k > N:
        raise ArityMismatch(f"k = {k} exceeds the discussion size N = {N}")
    if k == 0:
        return TOP
    avoid = term_free_vars(*ts)
    items = []
    for i in range(k + 1, N + 1):
        ynames = _fresh([f"y{j}" for j in range(k + 1, i + 1)], avoid)
        yvars = [Variable(nm) for nm in ynames]
        guard = f_kl_cl(k, i, list(ts) + yvars)
        body = f_k_cf(i, list(ts) + yvars)
        items.append(_forall_chain(ynames, Implies(guard, body)))
    return And(f_k_cf(k, ts), big_and(items))


# --------------------------------------------------------------------------
# Defence families


def f_k_df(k: int, c: Term | str, consts: Sequence[Term | str]) -> Formula:
    """The k members defend c: every attacker of c is counter-attacked by one
    of them (k = 0 asserts c simply has no attacker)."""
    t = _coerce(c)
    ts = _terms(consts, k, "defence")
    avoid = term_free_vars(t, *ts)
    if k == 0:
        (yn,) = _fresh(["y"], avoid)
        y = Variable(yn)
        conseq = Or(
            And(Not(Equal(y, t)), Not(_attacks(y, t))),
            And(Equal(y, t), Not(_self_attacks(y))),
        )
        return And(_in_discussion(t), Forall(yn, Implies(_in_discussion(y), conseq)))
    yn, xn = _fresh(["y", "x0"], avoid)
    y, x = Variable(yn), Variable(xn)
    attacker = And(_in_discussion(y), Or(
        And(Not(Equal(y, t)), _attacks(y, t)),
        And(Equal(y, t), _self_attacks(y)),
    ))
    counter = big_and([
        _in_discussion(x),
        big_or(Equal(x, ti) for ti in ts),
        Or(And(Not(Equal(x, y)), _attacks(x, y)),
           And(Equal(x, y), _self_attacks(x))),
    ])
    return big_and([
        _in_discussion(t),
        _in_discussion(*ts),
        Forall(yn, Exists(xn, Implies(attacker, counter))),
    ])


def f_kn_wdf(k: int, N: int, c: Term | str, consts: Sequence[Term | str], *,
             allow_large: bool = False) -> Formula:
    """Wide defence: the k members defend every node in c's equivalence
    closure, whatever that closure turns out to be within size N."""
    _check_size(N, allow_large)
    t = _coerce(c)
    ts = _terms(consts, k, "wide defence")
    if k > N:
        raise ArityMismatch(f"k = {k} exceeds the discussion size N = {N}")
    avoid = term_free_vars(t, *ts)
    (y0n,) = _fresh(["y0"], avoid)
    y0 = Variable(y0n)
    # one shared defence subformula across all closure sizes, so the
    # evaluator's memo can reuse verdicts per y0 value
    df = f_k_df(k, y0, ts)
    head: list[Formula] = [_in_discussion(t)]
    if k >= 1:
        head.append(_in_discussion(*ts))
    items = []
    for i in range(1, N + 1):
        ynames = _fresh([f"y{j}" for j in range(2, i + 1)], avoid | {y0n})
        yvars = [Variable(nm) for nm in ynames]
        guard = f_kl_cl(1, i, [t] + yvars)
        member = And(_in_discussion(y0),
                     big_or([Equal(y0, t)] + [Equal(y0, yv) for yv in yvars]))
        inner = Forall(y0n, Implies(member, df))
        items.append(_forall_chain(ynames, Implies(guard, inner)))
    return big_and(head + items)


# --------------------------------------------------------------------------
# Admissibility and completeness


def f_adm(sigma: str, k: int, N: int | None, consts: Sequence[Term | str], *,
          allow_large: bool = False) -> Formula:
    """Conflict-free plus defence of every member, simple or wide."""
    if sigma == "simple":
        ts = _terms(consts, k, "admissibility")
        return And(f_k_cf(k, ts),
                   big_and(f_k_df(k, tj, ts) for tj in ts))
    if sigma == "wide":
        if N is None:
            raise ArityMismatch("wide admissibility needs the discussion size N")
        ts = _terms(consts, k, "admissibility")
        return And(f_kn_wcf(k, N, ts, allow_large=allow_large),
                   big_and(f_kn_wdf(k, N, tj, ts, allow_large=allow_large)
                           for tj in ts))
    raise ArityMismatch(f"sigma must be 'simple' or 'wide', got {sigma!r}")


CMP_VARIANTS = ("D-CMP", "W-D-CMP", "E-CMP")


def f_cmp(variant: str, k: int, N: int | None, consts: Sequence[Term | str], *,
          allow_large: bool = False) -> Formula:
    """Complete-extension characterisations: admissible plus closure by
    defence (D-CMP simple, W-D-CMP wide) or by equivalence (E-CMP)."""
    ts = _terms(consts, k, "completeness")
    avoid = term_free_vars(*ts)
    if variant == "D-CMP":
        (xn,) = _fresh(["x"], avoid)
        closure = Forall(xn, Implies(
            f_k_df(k, Variable(xn), ts),
            big_or(Equal(Variable(xn), tl) for tl in ts)))
        return And(f_adm("simple", k, N, ts), closure)
    if variant == "W-D-CMP":
        if N is None:
            raise ArityMismatch("W-D-CMP needs the discussion size N")
        (xn,) = _fresh(["x"], avoid)
        closure = Forall(xn, Implies(
            f_kn_wdf(k, N, Variable(xn), ts, allow_large=allow_large),
            big_or(Equal(Variable(xn), tl) for tl in ts)))
        return And(f_adm("wide", k, N, ts, allow_large=allow_large), closure)
    if variant == "E-CMP":
        return And(f_adm("simple", k, N, ts), f_kl_cl(k, k, ts))
    raise ArityMismatch(f"variant must be one of {CMP_VARIANTS}, got {variant!r}")


# --------------------------------------------------------------------------
# Preferred, grounded, stable (items 4..12)

EXTENSION_ITEMS: Mapping[int, tuple[str, str, str]] = {
    4: ("simple", "defence", "preferred"),
    5: ("wide", "defence", "preferred"),
    6: ("simple", "equivalence", "preferred"),
    7: ("simple", "defence", "grounded"),
    8: ("wide", "defence", "grounded"),
    9: ("simple", "equivalence", "grounded"),
    10: ("simple", "defence", "stable"),
    11: ("wide", "defence", "stable"),
    12: ("simple", "equivalence", "stable"),
}

_ITEM_VARIANT = {
    4: "D-CMP", 5: "W-D-CMP", 6: "E-CMP",
    7: "D-CMP", 8: "W-D-CMP", 9: "E-CMP",
    10: "D-CMP", 11: "W-D-CMP", 12: "E-CMP",
}


def f_extension(item: int, k: int, N: int, consts: Sequence[Term | str], *,
                allow_large: bool = False) -> Formula:
    """Characterisation of preferred (4-6), grounded (7-9), and stable
    (10-12) extensions for a discussion of N nodes."""
    if item not in EXTENSION_ITEMS:
        raise ArityMismatch(f"item must be in 4..12, got {item}")
    _check_size(N, allow_large)
    ts = _terms(consts, k, "extension characterisation")
    if k > N:
        raise ArityMismatch(f"k = {k} exceeds the discussion size N = {N}")
    variant = _ITEM_VARIANT[item]
    base = f_cmp(variant, k, N, ts, allow_large=allow_large)
    mu = EXTENSION_ITEMS[item][2]
    avoid = term_free_vars(*ts)
    if mu == "preferred":
        # no strictly larger member set is complete
        conjuncts = []
        for m in range(k + 1, N + 1):
            xnames = _fresh([f"x{i}" for i in range(m, N + 1)], avoid)
            xvars = [Variable(nm) for nm in xnames]
            bigger = f_cmp(variant, k + len(xvars), N, list(ts) + xvars,
                           allow_large=allow_large)
            conjuncts.append(Not(_exists_chain(xnames, bigger)))
        return And(base, big_and(conjuncts))
    if mu == "grounded":
        # no complete set assembled from strictly fewer of the same members
        conjuncts = []
        for m in range(0, k):
            xnames = _fresh([f"x{i}" for i in range(1, m + 1)], avoid)
            xvars = [Variable(nm) for nm in xnames]
            membership = big_and(
                big_or(Equal(tn, xv) for tn in ts)
                for xv in xvars)
            smaller = f_cmp(variant, m, N, xvars, allow_large=allow_large)
            conjuncts.append(Not(_exists_chain(xnames, And(membership, smaller))))
        return And(base, big_and(conjuncts))
    # stable: every non-member is attacked by a member
    zn, xn = _fresh(["z", "x"], avoid)
    z, x = Variable(zn), Variable(xn)
    outside = And(_in_discussion(z), big_and(Not(Equal(z, tj)) for tj in ts))
    attacked = Exists(xn, And(big_or(Equal(x, tl) for tl in ts), _attacks(x, z)))
    return And(base, Forall(zn, Implies(outside, attacked)))


# --------------------------------------------------------------------------
# Distinctness of blocks and whole-family characterisation


def f_distinct(k1: int, k2: int, consts: Sequence[Term | str]) -> Formula:
    """Two blocks of members denote different sets (each block is a set of
    discussion nodes by itself)."""
    ts = _terms(consts, k1 + k2, "distinctness")
    if k1 < 0 or k2 < 0:
        raise ArityMismatch("block sizes must be >= 0")
    if k1 == 0 and k2 == 0:
        return BOTTOM
    first, second = ts[:k1], ts[k1:]
    if k1 == 0:
        return _in_discussion(*second)
    if k2 == 0:
        return _in_discussion(*first)
    w1n, w2n = _fresh(["w1", "w2"], term_free_vars(*ts))
    w1, w2 = Variable(w1n), Variable(w2n)

    def only_in(block, other):
        return And(
            big_or(Equal(w1, t) for t in block),
            Forall(w2n, Implies(
                And(_in_discussion(w2), big_or(Equal(w2, t) for t in other)),
                Not(Equal(w1, w2)))))

    witness = Exists(w1n, And(_in_discussion(w1),
                              Or(only_in(first, second), only_in(second, first))))
    return big_and([_in_discussion(*first), _in_discussion(*second), witness])


def f_cmps(k_list: Sequence[int], N: int, consts: Sequence[Term | str], *,
           allow_large: bool = False) -> Formula:
    """The given blocks are pairwise distinct wide defence-complete sets and
    every wide defence-complete set appears among them."""
    _check_size(N, allow_large)
    sizes = [int(k) for k in k_list]
    if any(k < 0 for k in sizes):
        raise ArityMismatch("block sizes must be >= 0")
    total = sum(sizes)
    ts = _terms(consts, total, "family characterisation")
    blocks = []
    at = 0
    for k in sizes:
        blocks.append(ts[at:at + k])
        at += k
    pairwise = []
    for j1 in range(len(blocks)):
        for j2 in range(j1 + 1, len(blocks)):
            pairwise.append(f_distinct(
                sizes[j1], sizes[j2], list(blocks[j1]) + list(blocks[j2])))
    each_complete = [
        f_cmp("W-D-CMP", sizes[j], N, blocks[j], allow_large=allow_large)
        for j in range(len(blocks))]
    avoid = term_free_vars(*ts)
    nothing_else = []
    for j in range(0, N + 1):
        vnames = _fresh([f"v{i}" for i in range(1, j + 1)], avoid)
        vvars = [Variable(nm) for nm in vnames]
        any_block = big_or(
            Not(f_distinct(j, sizes[mp], vvars + list(blocks[mp])))
            for mp in range(len(blocks)))
        nothing_else.append(_forall_chain(
            vnames,
            Implies(f_cmp("W-D-CMP", j, N, vvars, allow_large=allow_large),
                    any_block)))
    return And(And(big_and(pairwise), big_and(each_complete)),
               big_and(nothing_else))


# --------------------------------------------------------------------------
# Standard environment


def _std_skeleton(name: str, arity: int) -> SkeletonGraph:
    p = [Placeholder(i) for i in range(1, 4)]
    if name == PRED_ATTACK and arity == 2:
        return SkeletonGraph([p[0], p[1]], [(p[0], p[1])],
                             {(p[0], p[1]): ["attacks"]})
    if name == PRED_ATTACK and arity == 1:
        return SkeletonGraph([p[0]], [(p[0], p[0])], {(p[0], p[0]): ["attacks"]})
    if name == PRED_IN and arity >= 1:
        return SkeletonGraph([Placeholder(i) for i in range(1, arity + 1)])
    if name == PRED_ANNOEQ and arity == 3:
        return SkeletonGraph([p[0], p[1]], [], {p[0]: [p[2]], p[1]: [p[2]]})
    raise UnknownSymbol(name, arity, "predicate")


def std_environment(f: Formula, constants: Mapping[str, str]) -> Interpretation:
    """The fixed reading of the builder predicates, plus the given constants.

    Interprets exactly the symbols occurring in f: attack atoms by the
    attacks-edge (or self-loop) shape, membership atoms by pairwise-distinct
    node tuples, annotation-sharing atoms by a common annotation, and each
    constant by its designated node. Anything else raises UnknownSymbol.
    """
    preds, funcs = signature_of(f)
    predicates = {}
    for ref in preds:
        predicates[(ref.name, ref.arity)] = _std_skeleton(ref.name, ref.arity)
    functions: dict[tuple[str, int], str] = {}
    for name, arity in funcs:
        if arity != 0:
            raise UnknownSymbol(name, arity, "function")
        if name not in constants:
            raise UnknownSymbol(name, 0, "constant")
        functions[(name, 0)] = constants[name]
    return Interpretation(functions, predicates)


def const_names(k: int, prefix: str = "c") -> list[str]:
    return [f"{prefix}{i}" for i in range(1, k + 1)]


# --------------------------------------------------------------------------
# Cross-validation harness

FAMILIES = (
    "CF", "CL", "WCF", "DF", "WDF", "ADM", "WADM",
    "D-CMP", "W-D-CMP", "E-CMP", "B-CMP", "W-B-CMP",
    "D-PRF", "W-D-PRF", "E-PRF",
    "D-GRD", "W-D-GRD", "E-GRD",
    "D-STB", "W-D-STB", "E-STB",
    "DISTINCT", "CMPS",
)

_FAMILY_ITEM = {
    "D-PRF": 4, "W-D-PRF": 5, "E-PRF": 6,
    "D-GRD": 7, "W-D-GRD": 8, "E-GRD": 9,
    "D-STB": 10, "W-D-STB": 11, "E-STB": 12,
}


@dataclass
class ValidationReport:
    family: str
    nodes: int
    checks: int = 0
    mismatches: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "nodes": self.nodes,
            "checks": self.checks,
            "mismatches": self.mismatches,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
        }


def _bind(names: Sequence[str], values: Sequence[str]) -> dict[str, str]:
    return dict(zip(names, values))


def _drop_last_conjunct(f: Formula) -> Formula:
    """Deliberate corruption for mutation testing."""
    if isinstance(f, And):
        return f.left
    return Not(f)


def _family_checks(m: EquivDungModel, family: str, max_k):
    """Yield (params, formula, constant bindings, expected verdict)."""
    nodes = m.nodes
    n = len(nodes)
    if family in ("CF", "WCF", "ADM", "WADM", "D-CMP", "W-D-CMP", "E-CMP",
                  "B-CMP", "W-B-CMP") or family in _FAMILY_ITEM:
        for combo in subsets(nodes, max_k):
            k = len(combo)
            names = const_names(k)
            cs = _bind(names, combo)
            s = frozenset(combo)
            if family == "CF":
                yield ({"k": k, "set": list(combo)}, f_k_cf(k, names), cs,
                       is_conflict_free(m, s, "simple"))
            elif family == "WCF":
                yield ({"k": k, "set": list(combo)}, f_kn_wcf(k, n, names), cs,
                       is_conflict_free(m, s, "wide"))
            elif family == "ADM":
                yield ({"k": k, "set": list(combo)}, f_adm("simple", k, None, names),
                       cs, is_admissible(m, s, "simple"))
            elif family == "WADM":
                yield ({"k": k, "set": list(combo)}, f_adm("wide", k, n, names),
                       cs, is_admissible(m, s, "wide"))
            elif family in ("D-CMP", "W-D-CMP", "E-CMP"):
                spec = {"D-CMP": ("simple", "defence"),
                        "W-D-CMP": ("wide", "defence"),
                        "E-CMP": ("simple", "equivalence")}[family]
                yield ({"k": k, "set": list(combo)},
                       f_cmp(family, k, n if family == "W-D-CMP" else None, names),
                       cs,
                       is_extension(m, s, ExtensionSpec(spec[0], spec[1], "complete")))
            elif family in ("B-CMP", "W-B-CMP"):
                sigma = "simple" if family == "B-CMP" else "wide"
                dvar = "D-CMP" if sigma == "simple" else "W-D-CMP"
                both = And(f_cmp(dvar, k, n, names), f_cmp("E-CMP", k, None, names))
                yield ({"k": k, "set": list(combo)}, both, cs,
                       is_extension(m, s, ExtensionSpec(sigma, "both", "complete")))
            else:
                item = _FAMILY_ITEM[family]
                sigma, tau, mu = EXTENSION_ITEMS[item]
                yield ({"k": k, "set": list(combo), "item": item},
                       f_extension(item, k, n, names), cs,
                       is_extension(m, s, ExtensionSpec(sigma, tau, mu)))
    elif family == "CL":
        for big in subsets(nodes, max_k):
            big_set = frozenset(big)
            for core in subsets(big):
                core_set = frozenset(core)
                ordered = list(core) + sorted(big_set - core_set)
                k, l = len(core), len(big)
                names = const_names(l)
                cs = _bind(names, ordered)
                expected = (k > 0 or l == 0) and \
                    (closure_sim(m, core_set) == big_set if k > 0 else l == 0)
                yield ({"k": k, "l": l, "core": list(core), "set": sorted(big_set)},
                       f_kl_cl(k, l, names), cs, expected)
    elif family in ("DF", "WDF"):
        sigma = "simple" if family == "DF" else "wide"
        for combo in subsets(nodes, max_k):
            k = len(combo)
            names = const_names(k)
            for u in nodes:
                cs = _bind(["c0"] + names, (u,) + combo)
                formula = (f_k_df(k, "c0", names) if family == "DF"
                           else f_kn_wdf(k, n, "c0", names))
                yield ({"k": k, "set": list(combo), "target": u}, formula, cs,
                       defends(m, frozenset(combo), u, sigma))
    elif family == "DISTINCT":
        for left in subsets(nodes, max_k):
            for right in subsets(nodes, max_k):
                k1, k2 = len(left), len(right)
                names = const_names(k1 + k2)
                cs = _bind(names, left + right)
                yield ({"k1": k1, "k2": k2, "left": list(left), "right": list(right)},
                       f_distinct(k1, k2, names), cs,
                       frozenset(left) != frozenset(right))
    elif family == "CMPS":
        yield from _cmps_checks(m)
    else:
        raise ArityMismatch(f"unknown family {family!r}; known: {FAMILIES}")


def _cmps_blocks_formula(m: EquivDungModel, blocks: Sequence[tuple[str, ...]]):
    sizes = [len(b) for b in blocks]
    flat = [u for b in blocks for u in b]
    names = const_names(len(flat))
    return f_cmps(sizes, len(m.nodes), names), _bind(names, flat)


def _cmps_checks(m: EquivDungModel):
    family = enumerate_extensions(m, ExtensionSpec("wide", "defence", "complete"))
    true_blocks = [tuple(sorted(s)) for s in family]
    formula, cs = _cmps_blocks_formula(m, true_blocks)
    yield ({"blocks": [list(b) for b in true_blocks]}, formula, cs, True)
    for i in range(len(true_blocks)):
        dropped = true_blocks[:i] + true_blocks[i + 1:]
        formula, cs = _cmps_blocks_formula(m, dropped)
        yield ({"blocks": [list(b) for b in dropped], "note": "dropped one"},
               formula, cs, False)
    member_sets = set(family)
    extra = next((c for c in subsets(m.nodes) if frozenset(c) not in member_sets),
                 None)
    if extra is not None:
        padded = true_blocks + [extra]
        formula, cs = _cmps_blocks_formula(m, padded)
        yield ({"blocks": [list(b) for b in padded], "note": "added non-member"},
               formula, cs, False)
    if true_blocks:
        doubled = true_blocks + [true_blocks[0]]
        formula, cs = _cmps_blocks_formula(m, doubled)
        yield ({"blocks": [list(b) for b in doubled], "note": "duplicated block"},
               formula, cs, False)


def cross_validate(m: EquivDungModel, family: str, max_k: int | None = None, *,
                   bound: int = 12, mutate: bool = False) -> ValidationReport:
    """Check one formula family against the combinatorial definitions on all
    subsets of m's nodes (up to max_k members when given).

    Every check evaluates the generated closed formula in the standard
    environment with the constants bound to the subset and compares against
    the direct definition. With mutate=True each formula is deliberately
    corrupted first, to demonstrate that mismatches are caught.
    """
    n = len(m.nodes)
    if n > bound:
        raise BoundExceeded(f"{n} nodes exceed the validation bound {bound}")
    report = ValidationReport(family=family, nodes=n)
    started = time.perf_counter()
    for params, formula, constants, expected in _family_checks(m, family, max_k):
        if mutate:
            formula = _drop_last_conjunct(formula)
        env = std_environment(formula, constants)
        got = ModelChecker(m.model, env).satisfies(formula)
        report.checks += 1
        if got != expected:
            report.mismatches.append(
                {"family": family, "params": params,
                 "expected": expected, "got": got})
    report.elapsed = time.perf_counter() - started
    return report
