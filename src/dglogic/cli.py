"""Command-line front end.

Subcommands: check a formula against a model and environment, enumerate
argumentation extensions, match a skeleton pattern, generate characterisation
formulas, ground a formula to DIMACS CNF, and run the cross-validation
suites. Graphs and environments travel as JSON files, formulas as text in the
ASCII grammar.

Exit codes: 0 success (for validate: all families passed), 1 validation
mismatches, 2 malformed input (JSON, grammar, flag values), 3 semantic errors
(uninterpreted symbols, free variables, bad arities), 4 model invariant
violations, 5 exceeded size or work bounds (formula nesting depth included).

JSON output is deterministic: keys sorted, two-space indentation, identical
inputs and seed giving byte-identical reports. Every JSON report validates
against schemas/report.schema.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import characterise as ch
from .dung import (EquivDungModel, ExtensionSpec, enumerate_extensions,
                   random_model)
from .errors import (BoundExceeded, DegreeGapError, DglError, InvalidModelError,
                     NotClosedError, ParseError)
from .graphs import degree_of, graph_from_dict, match_tuples
from .grounding import eval_prop, ground, induced_valuation, to_dimacs, vars_of
from .semantics import (Interpretation, Model, ModelChecker,
                        interpretation_from_dict, interpretation_to_dict)
from .syntax import (And, Atom, Exists, Formula, Variable, format_formula,
                     free_vars, parse_formula)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_MODEL = 4
EXIT_BOUND = 5


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str, *, skeleton: bool = False):
    return graph_from_dict(json.loads(_read(path)), skeleton=skeleton)


def _load_env(path: str) -> Interpretation:
    return interpretation_from_dict(json.loads(_read(path)))


# --------------------------------------------------------------------------
# check


def _exists_prefix(f: Formula) -> tuple[list[str], Formula]:
    names: list[str] = []
    body = f
    while isinstance(body, Exists) and body.var not in names:
        names.append(body.var)
        body = body.body
    return names, body


def _witness_via_match(checker: ModelChecker, names: list[str],
                       body: Formula) -> dict[str, str] | None:
    """Fast path: a bare atom over exactly the prefix variables delegates to
    the subgraph matcher instead of scanning domain^n assignments."""
    if not isinstance(body, Atom):
        return None
    if not all(isinstance(t, Variable) for t in body.args):
        return None
    argnames = [t.name for t in body.args]
    if sorted(argnames) != sorted(names) or len(set(argnames)) != len(argnames):
        return None
    skel = checker.interp.predicates.get((body.pred.name, body.pred.arity))
    if skel is None:
        return None
    tuples = match_tuples(skel, checker.model.graph)
    if not tuples:
        return {}
    return dict(zip(argnames, tuples[0]))


def _find_witness(checker: ModelChecker, names: list[str],
                  body: Formula) -> dict[str, str] | None:
    """One satisfying tuple for an outermost existential prefix, found by
    fixing the variables left to right."""
    fast = _witness_via_match(checker, names, body)
    if fast is not None:
        return fast or None
    assign: dict[str, str] = {}
    for pos, x in enumerate(names):
        inner = body
        for v in reversed(names[pos + 1:]):
            inner = Exists(v, inner)
        for value in checker.model.domain:
            assign[x] = value
            if checker.satisfies(inner, assign):
                break
        else:
            return None
    return assign


def run_check(args) -> int:
    model = Model(_load_graph(args.model))
    interp = _load_env(args.env)
    f = parse_formula(_read(args.formula))
    fv = free_vars(f)
    if fv:
        raise NotClosedError(tuple(fv))
    checker = ModelChecker(model, interp)
    verdict = checker.satisfies(f)
    witness = None
    names, body = _exists_prefix(f)
    if verdict and names:
        witness = _find_witness(checker, names, body)
    if args.format == "json":
        print(_dumps({"command": "check", "verdict": verdict, "witness": witness}))
    else:
        print("true" if verdict else "false")
        if witness:
            print("witness: " + " ".join(f"{x}={witness[x]}" for x in names))
    return EXIT_OK


# --------------------------------------------------------------------------
# extensions


def run_extensions(args) -> int:
    m = EquivDungModel(_load_graph(args.model))
    spec = ExtensionSpec.parse(args.spec)
    listing = [sorted(s) for s in enumerate_extensions(m, spec, bound=args.bound)]
    if args.format == "json":
        print(_dumps({"command": "extensions", "spec": args.spec,
                      "bound": args.bound, "count": len(listing),
                      "extensions": listing}))
    else:
        print(_dumps(listing))
    return EXIT_OK


# --------------------------------------------------------------------------
# match


def run_match(args) -> int:
    m = _load_graph(args.model)
    skel = _load_graph(args.skeleton, skeleton=True)
    tuples = [list(t) for t in match_tuples(skel, m)]
    if args.format == "json":
        print(_dumps({"command": "match", "degree": degree_of(skel),
                      "count": len(tuples), "tuples": tuples}))
    else:
        print(_dumps(tuples))
    return EXIT_OK


# --------------------------------------------------------------------------
# validate


def run_validate(args) -> int:
    families = [f.strip() for f in args.families.split(",")] if args.families \
        else list(ch.FAMILIES)
    for fam in families:
        if fam not in ch.FAMILIES:
            raise ValueError(f"unknown family {fam!r}; choose from "
                             + ", ".join(ch.FAMILIES))
    models: list[tuple[str, EquivDungModel]] = []
    if args.model:
        models.append((args.model, EquivDungModel(_load_graph(args.model))))
    else:
        for i in range(args.random):
            seed = args.seed + i
            models.append((f"random(seed={seed})",
                           random_model(seed, max_nodes=args.nodes)))
    out_models = []
    total_checks = 0
    total_bad = 0
    for source, m in models:
        reports = []
        for fam in families:
            rep = ch.cross_validate(m, fam, args.max_k, bound=args.bound,
                                    mutate=args.mutate)
            # wall-clock time would break byte-identical reports
            entry = rep.to_dict()
            del entry["elapsed"]
            reports.append(entry)
            total_checks += rep.checks
            total_bad += len(rep.mismatches)
            if args.format != "json":
                status = "PASS" if rep.ok else "FAIL"
                print(f"{source} {fam:8s} {status} checks={rep.checks} "
                      f"elapsed={rep.elapsed:.3f}s")
                for miss in rep.mismatches[:3]:
                    print(f"  counterexample: params={miss['params']} "
                          f"expected={miss['expected']} got={miss['got']}")
        out_models.append({"source": source, "reports": reports})
    ok = total_bad == 0
    if args.format == "json":
        print(_dumps({"command": "validate",
                      "seed": None if args.model else args.seed,
                      "bound": args.bound, "mutate": args.mutate,
                      "families": families, "models": out_models,
                      "checks": total_checks, "mismatch_count": total_bad,
                      "ok": ok}))
    else:
        print(f"total checks={total_checks} mismatches={total_bad} "
              + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_FAIL


# --------------------------------------------------------------------------
# gen


def _csv(text: str | None) -> list[str]:
    return [part.strip() for part in text.split(",")] if text else []


def _need(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"family {args.family} needs --" + ", --".join(missing))


def _gen_formula(args) -> tuple[Formula, dict]:
    fam = args.family
    allow = args.allow_large

    def consts(count: int, offset: int = 0) -> list[str]:
        given = _csv(args.constants)
        if given:
            if len(given) != count:
                raise ValueError(
                    f"family {fam} needs {count} constants, got {len(given)}")
            return given
        return [f"c{i}" for i in range(1 + offset, count + 1 + offset)]

    if fam == "CF":
        _need(args, ["k"])
        return ch.f_k_cf(args.k, consts(args.k)), {"k": args.k}
    if fam == "CL":
        _need(args, ["k", "l"])
        return ch.f_kl_cl(args.k, args.l, consts(args.l)), {"k": args.k, "l": args.l}
    if fam == "WCF":
        _need(args, ["k", "N"])
        return (ch.f_kn_wcf(args.k, args.N, consts(args.k), allow_large=allow),
                {"k": args.k, "N": args.N})
    if fam == "DF":
        _need(args, ["k"])
        return (ch.f_k_df(args.k, args.target, consts(args.k)),
                {"k": args.k, "target": args.target})
    if fam == "WDF":
        _need(args, ["k", "N"])
        return (ch.f_kn_wdf(args.k, args.N, args.target, consts(args.k),
                            allow_large=allow),
                {"k": args.k, "N": args.N, "target": args.target})
    if fam in ("ADM", "WADM"):
        _need(args, ["k"] if fam == "ADM" else ["k", "N"])
        sigma = "simple" if fam == "ADM" else "wide"
        return (ch.f_adm(sigma, args.k, args.N, consts(args.k), allow_large=allow),
                {"k": args.k, "N": args.N})
    if fam in ch.CMP_VARIANTS:
        _need(args, ["k", "N"])
        return (ch.f_cmp(fam, args.k, args.N, consts(args.k), allow_large=allow),
                {"k": args.k, "N": args.N})
    if fam in ("B-CMP", "W-B-CMP"):
        _need(args, ["k", "N"])
        cs = consts(args.k)
        defence = "D-CMP" if fam == "B-CMP" else "W-D-CMP"
        return (And(ch.f_cmp(defence, args.k, args.N, cs, allow_large=allow),
                    ch.f_cmp("E-CMP", args.k, args.N, cs, allow_large=allow)),
                {"k": args.k, "N": args.N})
    if fam in ch._FAMILY_ITEM:
        _need(args, ["k", "N"])
        item = ch._FAMILY_ITEM[fam]
        return (ch.f_extension(item, args.k, args.N, consts(args.k),
                               allow_large=allow),
                {"item": item, "k": args.k, "N": args.N})
    if fam == "DISTINCT":
        _need(args, ["k", "l"])
        return (ch.f_distinct(args.k, args.l, consts(args.k + args.l)),
                {"k1": args.k, "k2": args.l})
    if fam == "CMPS":
        _need(args, ["k_list", "N"])
        ks = [int(x) for x in _csv(args.k_list)]
        return (ch.f_cmps(ks, args.N, consts(sum(ks)), allow_large=allow),
                {"k-list": ks, "N": args.N})
    raise ValueError(f"unknown family {fam!r}; choose from " + ", ".join(ch.FAMILIES))


def run_gen(args) -> int:
    f, params = _gen_formula(args)
    text = format_formula(f)
    if args.env_out or args.bind:
        binds = {}
        for item in args.bind or []:
            name, _, value = item.partition("=")
            if not value:
                raise ValueError(f"--bind wants name=value, got {item!r}")
            binds[name.strip()] = value.strip()
        env = ch.std_environment(f, binds)
        if args.env_out:
            with open(args.env_out, "w", encoding="utf-8") as fh:
                fh.write(_dumps(interpretation_to_dict(env)) + "\n")
    if args.format == "json":
        print(_dumps({"command": "gen", "family": args.family,
                      "params": params, "formula": text}))
    else:
        print(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# ground


def run_ground(args) -> int:
    model = Model(_load_graph(args.model))
    interp = _load_env(args.env)
    f = parse_formula(_read(args.formula))
    p = ground(f, model, interp, max_ops=args.bound)
    dimacs, mapping = to_dimacs(p)
    verdict = None
    if args.eval:
        verdict = eval_prop(p, induced_valuation(model, interp, vars_of(p)))
    if args.map:
        with open(args.map, "w", encoding="utf-8") as fh:
            fh.write(_dumps(mapping) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dimacs)
    if args.format == "json":
        print(_dumps({"command": "ground", "vars": len(vars_of(p)),
                      "mapping": mapping, "dimacs": dimacs,
                      "verdict": verdict}))
    else:
        if not args.out:
            sys.stdout.write(dimacs)
        if verdict is not None:
            print("eval: " + ("true" if verdict else "false"))
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dglogic",
        description="Check, enumerate, match, generate, ground, validate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    p = sub.add_parser("check", help="evaluate a closed formula on a model")
    p.add_argument("--model", required=True, help="object-level graph JSON file")
    p.add_argument("--env", required=True, help="environment JSON file")
    p.add_argument("--formula", required=True, help="formula text file")
    add_format(p)
    p.set_defaults(run=run_check)

    p = sub.add_parser("extensions", help="enumerate acceptability extensions")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True,
                   help="sigma:tau:mu, e.g. wide:defence:complete")
    p.add_argument("--bound", type=int, default=20,
                   help="refuse models with more nodes than this (default 20)")
    add_format(p)
    p.set_defaults(run=run_extensions)

    p = sub.add_parser("match", help="find all tuples instantiating a skeleton")
    p.add_argument("--model", required=True)
    p.add_argument("--skeleton", required=True, help="skeleton graph JSON file")
    add_format(p)
    p.set_defaults(run=run_match)

    p = sub.add_parser("validate", help="cross-validate formula families")
    p.add_argument("--model", help="graph JSON file (omit to use --random)")
    p.add_argument("--random", type=int, default=0, metavar="COUNT",
                   help="number of random models to generate")
    p.add_argument("--nodes", type=int, default=5,
                   help="max nodes per random model (default 5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--families", help="comma-separated; default all")
    p.add_argument("--max-k", type=int, default=None,
                   help="cap the subset size driving each family")
    p.add_argument("--bound", type=int, default=12,
                   help="refuse models with more nodes than this (default 12)")
    p.add_argument("--mutate", action="store_true",
                   help="corrupt each formula first; failures are expected")
    add_format(p)
    p.set_defaults(run=run_validate)

    p = sub.add_parser("gen", help="print a characterisation formula")
    p.add_argument("--family", required=True,
                   help="one of " + ", ".join(ch.FAMILIES))
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int, help="second size (CL prefix, DISTINCT)")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--k-list", dest="k_list", help="comma-separated block sizes")
    p.add_argument("--constants", help="comma-separated constant names")
    p.add_argument("--target", default="c0",
                   help="defended constant for DF/WDF (default c0)")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the N > 8 generation guardrail")
    p.add_argument("--bind", action="append", metavar="NAME=NODE",
                   help="bind a constant for --env-out (repeatable)")
    p.add_argument("--env-out", help="write the standard environment here")
    add_format(p)
    p.set_defaults(run=run_gen)

    p = sub.add_parser("ground", help="expand quantifiers and emit DIMACS CNF")
    p.add_argument("--model", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="work budget for the expansion (steps)")
    p.add_argument("--out", help="write the CNF here instead of stdout")
    p.add_argument("--map", help="write the variable mapping JSON here")
    p.add_argument("--eval", action="store_true",
                   help="also evaluate under the induced valuation")
    add_format(p)
    p.set_defaults(run=run_ground)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate" and not args.model and args.random <= 0:
        parser.error("validate needs --model or --random COUNT")
    try:
        return args.run(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except RecursionError:
        # the formula walkers recurse once per nesting level
        print("error: formula nesting depth exceeds the interpreter's "
              "recursion limit", file=sys.stderr)
        return EXIT_BOUND
    except InvalidModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ParseError, DegreeGapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
