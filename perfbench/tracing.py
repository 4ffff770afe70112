"""Per-layer spans recorded from outside the program.

The tracer rebinds the public functions of each dglogic module in the modules
that import them (and wraps a few methods on their classes), so every call
that crosses a layer boundary opens a span: key, start, end and parent.
Calls a module makes to its own functions are left alone, which keeps the
2^n inner loop of enumerate_extensions unwrapped; OWN_CALLS lists the only
exceptions, the entry points the per-layer metrics need that are reached only
from inside their own module. Spans stay in memory until write_spans.

A span's self time is its duration minus the time its child spans cover.
Size counts are computed from returned values with the span clock paused,
so counting never shows up as time in any layer.
"""

from __future__ import annotations

import inspect
import re
import time
from collections import Counter
from functools import wraps

LAYERS = ("cli", "syntax", "semantics", "graphs", "dung", "characterise",
          "grounding")

# Formula and term constructors build the AST node by node, like the node
# classes themselves, and ground calls eval_term once per atom argument
# (half a million times in one traced ground run); their cost stays with
# the caller.
NOT_ENTRY_POINTS = {"syntax": {"atom", "constant", "big_and", "big_or",
                               "is_variable_name"},
                    "semantics": {"eval_term"}}

GENERATORS = ("f_k_cf", "f_kl_cl", "f_kn_wcf", "f_k_df", "f_kn_wdf", "f_adm",
              "f_cmp", "f_extension", "f_distinct", "f_cmps")

# cross_validate reaches the generators and std_environment, and match_tuples
# reaches instantiates, only through their own module's globals.
OWN_CALLS = {"characterise": set(GENERATORS) | {"std_environment"},
             "graphs": {"instantiates"}}

# A generator called from inside a generator adds no span of its own: its
# time belongs to the outermost generator call.
FOLDED = {f"characterise.{name}" for name in GENERATORS}

# Classes are data (AST nodes, graphs, specs) and stay unwrapped, except
# these constructors and methods, which do their layer's work.
METHODS = {"semantics": {"Model": ("__init__",),
                         "ModelChecker": ("__init__", "satisfies")},
           "dung": {"EquivDungModel": ("__init__",)}}

DEFINITIONS = ("is_extension", "is_admissible", "defends", "is_conflict_free",
               "closure_sim", "is_closed")

# metric -> span keys whose self time (…_s) or count (…_calls) it sums
GROUPS = {
    "cli.self_s": ["cli.main"],
    "syntax.parse": ["syntax.parse_formula", "syntax.parse_term",
                     "syntax.parse_graph_literal"],
    "syntax.format_s": ["syntax.format_formula", "syntax.format_term"],
    "syntax.walk": ["syntax.free_vars", "syntax.symbols_of",
                    "syntax.function_symbols_of", "syntax.formula_size"],
    "characterise.gen": [f"characterise.{b}" for b in GENERATORS],
    "characterise.env_s": ["characterise.std_environment"],
    "characterise.validate_self_s": ["characterise.cross_validate"],
    "semantics.checker_new_s": ["semantics.ModelChecker.__init__"],
    "semantics.satisfies": ["semantics.ModelChecker.satisfies"],
    "semantics.interp_load_s": ["semantics.interpretation_from_dict"],
    "graphs.load_s": ["graphs.graph_from_dict"],
    "graphs.match": ["graphs.match_tuples"],
    "graphs.instantiates": ["graphs.instantiates"],
    "dung.model_s": ["dung.EquivDungModel.__init__"],
    "dung.enumerate": ["dung.enumerate_extensions"],
    "dung.definition": [f"dung.{d}" for d in DEFINITIONS],
    "grounding.ground": ["grounding.ground"],
    "grounding.dimacs_s": ["grounding.to_dimacs"],
    "grounding.valuation_s": ["grounding.induced_valuation"],
    "grounding.eval_s": ["grounding.eval_prop"],
}

# span keys whose returned values _count measures
COUNTED = {"characterise.cross_validate", "semantics.ModelChecker.satisfies",
           "graphs.match_tuples", "dung.enumerate_extensions",
           "grounding.ground", "grounding.to_dimacs"}

COUNTS = ("characterise.checks", "characterise.formula_tree_nodes",
          "characterise.formula_dag_nodes", "graphs.matches_found",
          "dung.extensions_found", "grounding.dag_nodes", "grounding.prop_vars",
          "grounding.cnf_vars", "grounding.cnf_clauses")


def _metric_units() -> dict[str, str]:
    units = {}
    for group in GROUPS:
        if group.endswith("_s"):
            units[group] = "s"
        else:
            units.update({f"{group}_s": "s", f"{group}_calls": "count"})
    units.update({name: "count" for name in COUNTS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({"cli.output_bytes": "B", "trace_overhead": "x"})
    return units


# every per-layer metric the traced run reports, with its unit
METRICS = _metric_units()


def _subformulas(node) -> tuple:
    kind = type(node).__name__
    if kind in ("Not", "Forall", "Exists"):
        return (node.body,)
    if kind in ("And", "Or", "Implies"):
        return (node.left, node.right)
    return ()


def _formula_sizes(root) -> tuple[int, int]:
    """(tree size, distinct node objects) of a formula DAG; terms are not
    counted, as in syntax.formula_size."""
    tree: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in tree:
            continue
        kids = _subformulas(node)
        if ready:
            tree[key] = 1 + sum(tree[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in tree)
    return tree[id(root)], len(tree)


def _prop_sizes(root) -> tuple[int, int]:
    """(distinct nodes, distinct variables) of a propositional DAG."""
    seen: set[int] = set()
    names: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = type(node).__name__
        if kind == "PVar":
            names.add(node.name)
        elif kind == "PNot":
            stack.append(node.body)
        elif kind in ("PAnd", "POr"):
            stack.extend(node.children)
        elif kind == "PImplies":
            stack += [node.left, node.right]
    return len(seen), len(names)


class _ModuleView:
    """Stands in for a module object another module imported whole
    (cli's `ch`): wrapped names first, everything else from the module."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # closed spans as (id, key, start, end, parent id); tuples of
        # scalars, so the garbage collector stops tracking them
        self.spans: list[tuple] = []
        self._open: list[tuple[int, str]] = []   # (id, key), innermost last
        self._ids = 0
        self.paused = 0.0             # seconds spent counting, off the clock
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def _now(self) -> float:
        return time.perf_counter() - self.paused

    def _count(self, key: str, args: tuple, result) -> None:
        if key == "characterise.cross_validate":
            self.counts["characterise.checks"] += result.checks
        elif key == "semantics.ModelChecker.satisfies":
            if self._open and self._open[-1][1] == "characterise.cross_validate":
                tree, dag = _formula_sizes(args[1])
                self.counts["characterise.formula_tree_nodes"] += tree
                self.counts["characterise.formula_dag_nodes"] += dag
        elif key == "graphs.match_tuples":
            self.counts["graphs.matches_found"] += len(result)
        elif key == "dung.enumerate_extensions":
            self.counts["dung.extensions_found"] += len(result)
        elif key == "grounding.ground":
            nodes, names = _prop_sizes(result)
            self.counts["grounding.dag_nodes"] += nodes
            self.counts["grounding.prop_vars"] += names
        elif key == "grounding.to_dimacs":
            header = re.search(r"^p cnf (\d+) (\d+)$", result[0], re.MULTILINE)
            self.counts["grounding.cnf_vars"] += int(header.group(1))
            self.counts["grounding.cnf_clauses"] += int(header.group(2))

    def wrap(self, layer: str, key: str, fn):
        spans, opened, errors = self.spans, self._open, self.errors
        folded = key in FOLDED
        counted = key in COUNTED

        @wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_key = opened[-1] if opened else (-1, None)
            if folded and parent_key in FOLDED:
                return fn(*args, **kwargs)
            span = self._ids
            self._ids += 1
            opened.append((span, key))
            start = self._now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                spans.append((span, key, start, self._now(), parent))
                opened.pop()
            if counted:
                paused = time.perf_counter()
                self._count(key, args, result)
                self.paused += time.perf_counter() - paused
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the entry points of every layer module in `modules`
        (layer name -> module object; "cli" included)."""
        by_module = {}
        for layer in LAYERS[1:]:
            mod = modules[layer]
            skip = NOT_ENTRY_POINTS.get(layer, set())
            wrapped = {}
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[name] = (fn, self.wrap(layer, f"{layer}.{name}", fn))
            by_module[mod] = wrapped
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(
                        layer, f"{layer}.{cls_name}.{meth}", fn))
        for other in modules.values():
            for attr, value in list(vars(other).items()):
                if inspect.ismodule(value) and value in by_module:
                    view = {n: w for n, (_, w) in by_module[value].items()}
                    setattr(other, attr, _ModuleView(value, view))
        for mod, wrapped in by_module.items():
            layer = mod.__name__.rsplit(".", 1)[-1]
            own = OWN_CALLS.get(layer, set())
            for name, (fn, traced) in wrapped.items():
                for other in modules.values():
                    if other is mod and name not in own:
                        continue
                    if vars(other).get(name) is fn:
                        setattr(other, name, traced)

    def metrics(self) -> dict[str, float]:
        covered = [0.0] * self._ids
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for span, key, start, end, _ in self.spans:
            self_time[key] += (end - start) - covered[span]
            calls[key] += 1
        out: dict[str, float] = {}
        for group, keys in GROUPS.items():
            seconds = float(sum(self_time[k] for k in keys))
            if group.endswith("_s"):
                out[group] = seconds
            else:
                out[f"{group}_s"] = seconds
                out[f"{group}_calls"] = sum(calls[k] for k in keys)
        for name in COUNTS:
            out[name] = self.counts[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                t for k, t in self_time.items() if k.split(".", 1)[0] == layer))
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tkey\tstart\tend\tparent\n")
            for span, key, start, end, parent in sorted(self.spans):
                fh.write(f"{span}\t{key}\t{start:.9f}\t{end:.9f}\t{parent}\n")
