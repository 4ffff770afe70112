"""First-order syntax over discussion graphs.

Terms are variables or applications of function symbols (constants are 0-ary
applications). Formulas are atoms over predicate symbols, equalities, the
constants true/false, and the usual connectives and quantifiers.

Concrete grammar (ASCII):

    ~ f          negation              f & g   conjunction
    f | g        disjunction           f -> g  implication
    forall x. f  universal             exists x. f  existential
    t1 = t2      equality              true, false
    p(t1, t2)    atom                  ( ) and [ ] group (must pair up)

Precedence, strongest first: ~, then & and | together (left-associative),
then quantifiers (whose scope runs to the end of the enclosing group), then
-> (right-associative, weakest). So `forall x. p(x) -> q(x)` is
`(forall x. p(x)) -> q(x)` and `a & exists y. b -> c` is
`(a & exists y. b) -> c`.

Lexical convention: an identifier consisting of one letter v..z followed by
optional digits (x, y2, w10, ...) is a variable; every other identifier is a
constant or function/predicate symbol. Quantifiers only accept variable-class
names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import ParseError
from .graphs import Placeholder, degree_of, parse_placeholder


# --------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Apply:
    name: str
    args: tuple["Term", ...] = ()


Term = Union[Variable, Apply]


def constant(name: str) -> Apply:
    return Apply(name, ())


@dataclass(frozen=True)
class SymbolRef:
    """A predicate symbol together with its arity (p/1 and p/2 are distinct)."""

    name: str
    arity: int


@dataclass(frozen=True)
class Atom:
    pred: SymbolRef
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"{self.pred.name}/{self.pred.arity} applied to {len(self.args)} arguments")


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, Equal, Top, Bottom, Not, And, Or, Implies, Forall, Exists]

_VARIABLE_RE = re.compile(r"[v-z][0-9]*")


def is_variable_name(name: str) -> bool:
    return _VARIABLE_RE.fullmatch(name) is not None


def atom(name: str, *args: Term) -> Atom:
    """Atom over a symbol whose arity is the number of arguments given."""
    return Atom(SymbolRef(name, len(args)), tuple(args))


def big_and(items) -> Formula:
    """Left-nested conjunction chain; true when empty."""
    out: Formula | None = None
    for f in items:
        out = f if out is None else And(out, f)
    return TOP if out is None else out


def big_or(items) -> Formula:
    """Left-nested disjunction chain; false when empty."""
    out: Formula | None = None
    for f in items:
        out = f if out is None else Or(out, f)
    return BOTTOM if out is None else out


def term_free_vars(*terms: Term) -> set[str]:
    """Names of the variables occurring in the given terms."""
    out: set[str] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Variable):
            out.add(t.name)
        else:
            stack.extend(t.args)
    return out


def free_name_map(root: Formula) -> dict[int, tuple[str, ...]]:
    """id(subformula) -> its free variable names, sorted, for every
    subformula of root.

    A subformula shared by several parents (the characterisation generators
    build DAGs) is analysed once. Keys are id()s, so the map is meaningful
    only while root is alive.
    """
    out: dict[int, tuple[str, ...]] = {}

    def walk(f: Formula) -> set[str]:
        key = id(f)
        if key in out:
            return set(out[key])
        if isinstance(f, Atom):
            fv = term_free_vars(*f.args)
        elif isinstance(f, Equal):
            fv = term_free_vars(f.left, f.right)
        elif isinstance(f, Not):
            fv = walk(f.body)
        elif isinstance(f, (And, Or, Implies)):
            fv = walk(f.left) | walk(f.right)
        elif isinstance(f, (Forall, Exists)):
            fv = walk(f.body) - {f.var}
        else:
            fv = set()
        out[key] = tuple(sorted(fv))
        return fv

    walk(root)
    return out


def free_vars(f: Formula) -> frozenset[str]:
    """Free variables of a formula."""
    return frozenset(free_name_map(f)[id(f)])


def is_well_formed(f: Formula) -> bool:
    """Closed formulas are the well-formed ones."""
    return not free_vars(f)


def formula_size(f: Formula) -> int:
    """Number of formula nodes (terms not counted)."""
    if isinstance(f, Not):
        return 1 + formula_size(f.body)
    if isinstance(f, (And, Or, Implies)):
        return 1 + formula_size(f.left) + formula_size(f.right)
    if isinstance(f, (Forall, Exists)):
        return 1 + formula_size(f.body)
    return 1


def signature_of(f: Formula) -> tuple[frozenset[SymbolRef],
                                      frozenset[tuple[str, int]]]:
    """The predicate symbols and the function symbols (name, arity),
    constants included, occurring in f. A shared subformula is visited once."""
    preds: set[SymbolRef] = set()
    funcs: set[tuple[str, int]] = set()
    seen: set[int] = set()

    def walk_term(t: Term) -> None:
        if isinstance(t, Apply):
            funcs.add((t.name, len(t.args)))
            for a in t.args:
                walk_term(a)

    def walk(g: Formula) -> None:
        if id(g) in seen:
            return
        seen.add(id(g))
        if isinstance(g, Atom):
            preds.add(g.pred)
            for t in g.args:
                walk_term(t)
        elif isinstance(g, Equal):
            walk_term(g.left)
            walk_term(g.right)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)

    walk(f)
    return frozenset(preds), frozenset(funcs)


def symbols_of(f: Formula) -> frozenset[SymbolRef]:
    """Every predicate symbol occurring in f."""
    return signature_of(f)[0]


# --------------------------------------------------------------------------
# Lexer


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],.~&|=])
""", re.VERBOSE)

_KEYWORDS = {"forall", "exists", "true", "false"}

_PUNCT_KIND = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    ",": "COMMA", ".": "DOT", "~": "TILDE", "&": "AMP",
    "|": "PIPE", "=": "EQ",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        mo = _TOKEN_RE.match(text, i)
        if mo is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        i = mo.end()
        if mo.lastgroup == "ws":
            continue
        if mo.lastgroup == "arrow":
            out.append(_Token("ARROW", "->", mo.start()))
        elif mo.lastgroup == "ident":
            word = mo.group()
            kind = word.upper() if word in _KEYWORDS else "IDENT"
            out.append(_Token(kind, word, mo.start()))
        else:
            out.append(_Token(_PUNCT_KIND[mo.group()], mo.group(), mo.start()))
    out.append(_Token("EOF", "", len(text)))
    return out


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.pos, (what or kind,))
        return self.take()

    # formula := implies
    def formula(self):
        return self._implies()

    def _implies(self):
        left = self._quantified()
        if self.peek().kind == "ARROW":
            self.take()
            return Implies(left, self._implies())
        return left

    def _quantified(self):
        tok = self.peek()
        if tok.kind in ("FORALL", "EXISTS"):
            self.take()
            var = self.expect("IDENT", "variable name")
            if not is_variable_name(var.text):
                raise ParseError(
                    f"{var.text!r} is not in the variable lexical class [v-z][0-9]*",
                    var.pos, ("variable",))
            self.expect("DOT", "'.'")
            body = self._quantified()
            return (Forall if tok.kind == "FORALL" else Exists)(var.text, body)
        return self._and_or()

    def _and_or(self):
        left = self._unary()
        while self.peek().kind in ("AMP", "PIPE"):
            op = self.take()
            # A quantifier on the right of &/| scopes to the end of the
            # enclosing group, so hand the rest of the input to it.
            if self.peek().kind in ("FORALL", "EXISTS"):
                right = self._quantified()
            else:
                right = self._unary()
            left = (And if op.kind == "AMP" else Or)(left, right)
        return left

    def _unary(self):
        tok = self.peek()
        if tok.kind == "TILDE":
            self.take()
            nxt = self.peek()
            if nxt.kind in ("FORALL", "EXISTS"):
                raise ParseError(
                    "negation binds tighter than quantifiers; parenthesize the "
                    "quantified formula", nxt.pos, ("(", "["))
            return Not(self._unary())
        return self._atom()

    def _atom(self):
        tok = self.peek()
        if tok.kind == "TRUE":
            self.take()
            return TOP
        if tok.kind == "FALSE":
            self.take()
            return BOTTOM
        if tok.kind in ("LPAREN", "LBRACK"):
            self.take()
            inner = self._implies()
            closing = "RPAREN" if tok.kind == "LPAREN" else "RBRACK"
            self.expect(closing, ")" if closing == "RPAREN" else "]")
            return inner
        if tok.kind == "IDENT":
            t = self.term()
            if self.peek().kind == "EQ":
                self.take()
                return Equal(t, self.term())
            if isinstance(t, Variable):
                raise ParseError(f"variable {t.name!r} is not a formula", tok.pos,
                                 ("=",))
            return Atom(SymbolRef(t.name, len(t.args)), t.args)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos,
                         ("formula",))

    def term(self) -> Term:
        name = self.expect("IDENT", "term")
        if self.peek().kind == "LPAREN":
            self.take()
            args = [self.term()]
            while self.peek().kind == "COMMA":
                self.take()
                args.append(self.term())
            self.expect("RPAREN", ")")
            return Apply(name.text, tuple(args))
        if is_variable_name(name.text):
            return Variable(name.text)
        return Apply(name.text, ())


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))
    return t


# --------------------------------------------------------------------------
# Printer

_LEVEL_IMPLIES = 1
_LEVEL_QUANT = 2
_LEVEL_ANDOR = 3
_LEVEL_NOT = 4
_LEVEL_ATOM = 5


def _level(f: Formula) -> int:
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    if isinstance(f, (Forall, Exists)):
        return _LEVEL_QUANT
    if isinstance(f, (And, Or)):
        return _LEVEL_ANDOR
    if isinstance(f, Not):
        return _LEVEL_NOT
    return _LEVEL_ATOM


def format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if not t.args:
        return t.name
    return t.name + "(" + ", ".join(format_term(a) for a in t.args) + ")"


def format_formula(f: Formula) -> str:
    """Render with the minimum parentheses that reparse to the same tree."""

    def fmt(g: Formula, minlevel: int) -> str:
        lv = _level(g)
        if isinstance(g, Top):
            s = "true"
        elif isinstance(g, Bottom):
            s = "false"
        elif isinstance(g, Atom):
            s = format_term(Apply(g.pred.name, g.args))
        elif isinstance(g, Equal):
            s = f"{format_term(g.left)} = {format_term(g.right)}"
        elif isinstance(g, Not):
            s = "~" + fmt(g.body, _LEVEL_NOT)
        elif isinstance(g, (And, Or)):
            op = "&" if isinstance(g, And) else "|"
            s = f"{fmt(g.left, _LEVEL_ANDOR)} {op} {fmt(g.right, _LEVEL_NOT)}"
        elif isinstance(g, (Forall, Exists)):
            kw = "forall" if isinstance(g, Forall) else "exists"
            s = f"{kw} {g.var}. {fmt(g.body, _LEVEL_QUANT)}"
        else:
            s = f"{fmt(g.left, _LEVEL_QUANT)} -> {fmt(g.right, _LEVEL_IMPLIES)}"
        if lv < minlevel:
            return "(" + s + ")"
        return s

    return fmt(f, _LEVEL_IMPLIES)


# --------------------------------------------------------------------------
# Typed graph literals (graphs whose node/annotation slots hold terms)

TypedValue = Union[Term, Placeholder]


def _typed_key(v: TypedValue) -> tuple[int, object]:
    if isinstance(v, Placeholder):
        return (1, v.index)
    return (0, format_term(v))


class TypedGraph:
    """A graph shape over terms and placeholders, used as a symbolic literal.

    Evaluating the terms under an assignment (see semantics.eval_typed_graph)
    turns it into a skeleton graph that keeps the placeholders.
    """

    __slots__ = ("nodes", "edges", "_anno")

    def __init__(self, nodes, edges=(), anno=None):
        nodes = tuple(sorted(set(nodes), key=_typed_key))
        edge_set = set()
        for a, b in edges:
            edge_set.add((a, b))
        node_set = set(nodes)
        for a, b in edge_set:
            if a not in node_set or b not in node_set:
                raise ValueError("edge endpoint is not a node of the typed graph")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(sorted(
            edge_set, key=lambda e: (_typed_key(e[0]), _typed_key(e[1])))))
        amap = {u: frozenset() for u in nodes}
        for e in self.edges:
            amap[e] = frozenset()
        for key, vs in (anno or {}).items():
            norm = tuple(key) if isinstance(key, (tuple, list)) else key
            if norm not in amap:
                raise ValueError(f"annotation key {key!r} is not a node or edge")
            amap[norm] = frozenset(vs)
        object.__setattr__(self, "_anno", amap)

    def __setattr__(self, name, value):
        raise AttributeError("TypedGraph is immutable")

    def anno(self, item) -> frozenset:
        key = tuple(item) if isinstance(item, (tuple, list)) else item
        return self._anno[key]

    def anno_items(self) -> Iterator[tuple[object, frozenset]]:
        for u in self.nodes:
            yield u, self._anno[u]
        for e in self.edges:
            yield e, self._anno[e]

    def all_values(self) -> Iterator[TypedValue]:
        for u in self.nodes:
            yield u
        for _, vs in self.anno_items():
            yield from vs

    def degree(self) -> int:
        return degree_of(self)

    def __eq__(self, other):
        if not isinstance(other, TypedGraph):
            return NotImplemented
        return (self.nodes == other.nodes and self.edges == other.edges
                and self._anno == other._anno)

    def __hash__(self):
        return hash((self.nodes, self.edges, frozenset(self._anno.items())))

    def __repr__(self):
        return f"TypedGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def _typed_value(text: str) -> TypedValue:
    ph = parse_placeholder(text)
    return parse_term(text) if ph is None else ph


def parse_graph_literal(text: str) -> TypedGraph:
    """Parse the JSON graph shape with term-valued ids and annotations.

    Node ids and annotation entries are either placeholder strings "*i" or
    term text; edges refer to nodes by the same literal text. Placeholder
    indices must be gap-free.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(data, dict):
        raise ParseError("graph literal must be a JSON object", 0)
    nodes = []
    anno: dict = {}
    for entry in data.get("nodes", []):
        v = _typed_value(str(entry["id"]))
        nodes.append(v)
        anno[v] = [_typed_value(str(a)) for a in entry.get("anno", [])]
    edges = []
    for entry in data.get("edges", []):
        a = _typed_value(str(entry["from"]))
        b = _typed_value(str(entry["to"]))
        edges.append((a, b))
        anno[(a, b)] = [_typed_value(str(x)) for x in entry.get("anno", [])]
    g = TypedGraph(nodes, edges, anno)
    g.degree()  # placeholder indices must be gap-free
    return g
