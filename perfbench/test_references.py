"""Checks the pinned references once against independent sources.

    python3 -m pytest perfbench/test_references.py -q

Each test re-runs pool jobs, requires the output digest to equal the pinned
one, and checks the output itself against something that shares no code
with dglogic: tests/oracles.py (a textbook argumentation solver and a
brute-force matcher) or, for validate, the report's own mismatch count.
The slowest oracles run on a documented part of the pool only.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import product

import pytest

import run
import tracing
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402

BENCHMARK = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module", autouse=True)
def _at_root():
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    yield
    os.chdir(cwd)


@pytest.fixture(scope="module")
def references():
    with open(run.REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_outputs(name: str, indices, references):
    """Set up the given pool entries and yield (entry, job, stdout) for every
    job, after checking its exit code and digest against the pin."""
    workload = WORKLOADS[name]
    modules, entries = run.setup(workload, list(indices))
    main = modules["cli"].main
    for entry in entries:
        for job in entry.jobs:
            elapsed, rc, text, files = run.run_job(main, job)
            assert elapsed is not None, job.key
            assert [rc, run.digest(rc, text, files)] == references[name][job.key], job.key
            yield entry, job, text


def plain_model(entry, path):
    graph = json.loads(entry.files[path])
    ids = {n["id"]: n["anno"][0] for n in graph["nodes"]}
    attacks = frozenset((e["from"], e["to"]) for e in graph["edges"])
    return ids, attacks


def plain_graph(graph: dict):
    anno = {n["id"]: n["anno"] for n in graph["nodes"]}
    anno.update({(e["from"], e["to"]): e["anno"] for e in graph["edges"]})
    return oracles.graph_of([n["id"] for n in graph["nodes"]],
                            [(e["from"], e["to"]) for e in graph["edges"]], anno)


def test_benchmark_json_names_what_run_reports():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_references_cover_every_pool_job(references):
    for name, workload in WORKLOADS.items():
        keys = {job.key for i in range(workload.pool)
                for job in workload.entry(i).jobs}
        assert keys == set(references[name]), name
        assert {rc for rc, _ in references[name].values()} == {0}, name


def test_validate_reports_pass(references):
    for _, job, text in pinned_outputs("validate", range(WORKLOADS["validate"].pool),
                                       references):
        report = json.loads(text)
        assert report["ok"] is True and report["mismatch_count"] == 0, job.key
        assert report["families"] == [job.meta["family"]]


# Oracle cost grows as 2^n times the complete-family size squared; on the
# 16-node pairs model the preferred filter compares 6561^2 pairs, so that
# model is left to the digest check.
ORACLE_EXTENSION_MODELS = ("eq16", "pairs14")


def test_extension_listings_match_the_oracle(references):
    for entry, job, text in pinned_outputs(
            "extensions", range(WORKLOADS["extensions"].pool), references):
        if job.meta["label"] not in ORACLE_EXTENSION_MODELS:
            continue
        ids, attacks = plain_model(entry, job.meta["model"])
        sigma, tau, mu = job.meta["spec"].split(":")
        want = [sorted(s) for s in oracles.extensions(ids, attacks, sigma, tau, mu)]
        report = json.loads(text)
        assert report["extensions"] == want, job.key
        assert report["count"] == len(want)


def _ground_expected(fam, k, l, binds, ids, attacks):
    members = [binds[f"c{i}"] for i in range(1, k + 1)]
    s = frozenset(members)
    if fam in ("CF", "WCF"):
        return oracles.conflict_free(ids, attacks, s, wide=fam == "WCF")
    if fam == "CL":
        whole = frozenset(binds[f"c{i}"] for i in range(1, l + 1))
        return oracles.closure(ids, s) == whole
    if fam in ("DF", "WDF"):
        return oracles.defends(ids, attacks, s, binds["c0"], wide=fam == "WDF")
    if fam == "ADM":
        return oracles.admissible(ids, attacks, s, wide=False)
    if fam == "DISTINCT":
        return s != frozenset(binds[f"c{i}"] for i in range(k + 1, k + l + 1))
    tau = {"D": "defence", "E": "equivalence", "B": "both"}[fam[0]]
    mu = {"CMP": "complete", "STB": "stable", "GRD": "grounded",
          "PRF": "preferred"}[fam[2:]]
    return s in oracles.extensions(ids, attacks, "simple", tau, mu)


def test_ground_verdicts_match_the_definitions(references):
    seen = set()
    for entry, job, text in pinned_outputs("ground", range(WORKLOADS["ground"].pool),
                                           references):
        meta = job.meta
        ids, attacks = plain_model(entry, meta["model"])
        want = _ground_expected(meta["family"], meta["k"], meta["l"],
                                meta["binds"], ids, attacks)
        assert text == f"eval: {'true' if want else 'false'}\n", job.key
        seen.add(want)
    assert seen == {True, False}


def _first_solution(domain, atoms, arity):
    """Smallest assignment, in domain order and variable order, making every
    (truth table, variable positions) atom true."""
    def extend(prefix):
        if len(prefix) == arity:
            return prefix
        for value in domain:
            trial = prefix + (value,)
            if all(table[tuple(trial[p] for p in pos)]
                   for table, pos in atoms if max(pos) < len(trial)):
                found = extend(trial)
                if found:
                    return found
        return None
    return extend(())


def _conjunctive_witness(text, graph, env):
    obj = plain_graph(graph)
    domain = oracles.graph_domain(obj)
    skeletons = {p["name"]: plain_graph(p["graph"]) for p in env["predicates"]}
    head, _, body = text.rpartition(".")
    names = [part.split()[1] for part in head.split(".")]
    atoms = []
    for item in body.split("&"):
        pred, _, args = item.strip().partition("(")
        pos = [names.index(a.strip()) for a in args.rstrip(")").split(",")]
        table = {vals: oracles.naive_instantiates(vals, skeletons[pred], obj)
                 for vals in product(domain, repeat=len(pos))}
        atoms.append((table, pos))
    found = _first_solution(domain, atoms, len(names))
    return None if found is None else dict(zip(names, found))


# all_matches walks |D|^k tuples: about half a second for k = 5 and ten
# seconds for k = 6, so the oracle covers the first entries of the pool.
ORACLE_QUERY_ENTRIES = 24
ORACLE_QUERY_WIDE_ENTRIES = 2


def test_query_verdicts_and_witnesses_match_the_oracle(references):
    verdicts = set()
    for entry, job, text in pinned_outputs("query", range(WORKLOADS["query"].pool),
                                           references):
        index = int(job.key.split("/", 1)[0][1:])
        if index >= ORACLE_QUERY_ENTRIES:
            continue
        meta = job.meta
        graph = json.loads(entry.files[meta["model"]])
        report = json.loads(text)
        if report["command"] == "match":
            skel = json.loads(entry.files[meta["skeleton"]])
            arity = len(skel["nodes"])
            if arity == 6 and index >= ORACLE_QUERY_WIDE_ENTRIES:
                continue
            want = oracles.all_matches(plain_graph(skel), plain_graph(graph), arity)
            assert report["tuples"] == [list(t) for t in want], job.key
            continue
        formula = entry.files[meta["formula"]]
        env = json.loads(entry.files[meta["env"]])
        if "&" in formula:
            witness = _conjunctive_witness(formula, graph, env)
        else:
            pred = formula.rsplit("(", 1)[0].split()[-1]
            (skel,) = [p["graph"] for p in env["predicates"] if p["name"] == pred]
            arity = len(skel["nodes"])
            found = oracles.all_matches(plain_graph(skel), plain_graph(graph), arity)
            witness = ({f"x{i}": v for i, v in enumerate(found[0], start=1)}
                       if found else None)
        assert report["verdict"] is (witness is not None), job.key
        assert report["witness"] == witness, job.key
        verdicts.add(report["verdict"])
    assert verdicts == {True, False}
