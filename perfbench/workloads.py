"""The four benchmark workloads and the jobs they run.

Each workload owns a fixed pool of entries. An entry is a handful of input
files plus the CLI jobs that read them, and is built from its pool index
alone, so the pinned references in references.json cover every job any seed
can produce. Entry i belongs to stratum i % prepared; the entries of one
stratum are relabelled copies (node names permuted) of one seeded base input.
A run's seed picks one entry per stratum and the order of their jobs; one
entry's jobs make one round of the closed loop.

Strata keep runs comparable: job costs swing by a factor of two or more
between random inputs of the same size, and a run has time for only a few
inputs, so every run covers every base input and seeds differ in names and
evaluation order only.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import inputs

WORK = ".perfbench/work"

FAMILIES = (
    "CF", "CL", "WCF", "DF", "WDF", "ADM", "WADM",
    "D-CMP", "W-D-CMP", "E-CMP", "B-CMP", "W-B-CMP",
    "D-PRF", "W-D-PRF", "E-PRF",
    "D-GRD", "W-D-GRD", "E-GRD",
    "D-STB", "W-D-STB", "E-STB",
    "DISTINCT", "CMPS",
)

SPECS = tuple(f"{sigma}:{tau}:{mu}"
              for sigma in ("simple", "wide")
              for tau in ("defence", "equivalence", "both")
              for mu in ("admissible", "complete", "preferred", "grounded",
                         "stable"))


@dataclass(frozen=True)
class Job:
    key: str                      # reference key, "<entry>/<job>"
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files the job writes
    meta: dict = field(default_factory=dict, compare=False)


@dataclass
class Entry:
    files: dict[str, str]         # path -> text, written at set-up
    jobs: list[Job]
    # gen calls run at set-up: (argv, path that receives the printed formula)
    gens: list[tuple[tuple[str, ...], str]] = field(default_factory=list)


def _text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


class Workload:
    name = ""
    pool = 0          # entries pinned in references.json
    prepared = 0      # entries a run sets up; rounds cycle over them
    trace_rounds = 0  # rounds the traced run replays, untraced and traced

    def entry(self, index: int) -> Entry:
        raise NotImplementedError

    def choose(self, seed: int) -> list[int]:
        """One entry from each stratum, in seeded order."""
        rng = random.Random(seed)
        picks = [j + self.prepared * rng.randrange(self.pool // self.prepared)
                 for j in range(self.prepared)]
        rng.shuffle(picks)
        return picks

    def _dir(self, index: int) -> str:
        return f"{WORK}/{self.name}/e{index}"


class Validate(Workload):
    """Every formula family cross-validated on one 5-node model per entry."""

    name = "validate"
    pool = 28
    prepared = 7
    trace_rounds = 3

    def entry(self, index: int) -> Entry:
        model = f"{self._dir(index)}/model.json"
        base = inputs.equivalence_model(10_000 + index % self.prepared,
                                        nodes=5, ids=3, attacks=6)
        graph, _ = inputs.relabel(base, 10_000 + index, identifiers=True)
        jobs = [Job(f"e{index}/{fam}",
                    ("validate", "--model", model, "--families", fam,
                     "--format", "json"),
                    meta={"family": fam, "model": model})
                for fam in FAMILIES]
        return Entry({model: _text(graph)}, jobs)


# (family, k, l); l is the closure size for CL and the second block for DISTINCT
GROUND_COMMON = (
    ("CF", 3, None), ("CL", 1, 2), ("CL", 2, 3), ("DF", 2, None),
    ("ADM", 2, None), ("ADM", 3, None), ("D-CMP", 2, None),
    ("E-CMP", 2, None), ("B-CMP", 2, None), ("D-STB", 2, None),
    ("E-STB", 2, None), ("D-GRD", 2, None), ("E-GRD", 2, None),
    ("DISTINCT", 2, 1), ("WCF", 4, None), ("D-GRD", 3, None),
)
GROUND_BY_SIZE = {
    4: GROUND_COMMON + (("WCF", 3, None), ("WDF", 2, None), ("D-PRF", 3, None),
                        ("E-PRF", 3, None)),
    5: GROUND_COMMON + (("WCF", 3, None), ("E-PRF", 4, None), ("D-PRF", 4, None)),
}


class Ground(Workload):
    """Formula texts from `gen`, expanded to DIMACS by `ground --eval`."""

    name = "ground"
    pool = 48
    prepared = 16
    trace_rounds = 8

    def entry(self, index: int) -> Entry:
        stratum = index % self.prepared
        n = 4 if stratum % 2 == 0 else 5
        where = self._dir(index)
        model = f"{where}/model.json"
        base = inputs.equivalence_model(20_000 + stratum, nodes=n, ids=n - 2,
                                        attacks=n + 2)
        graph, moved = inputs.relabel(base, 20_000 + index, identifiers=True)
        nodes = [node["id"] for node in base["nodes"]]
        rng = random.Random(20_000 + stratum)
        gens, jobs = [], []
        for t, (fam, k, l) in enumerate(GROUND_BY_SIZE[n]):
            width = k + (l or 0) if fam == "DISTINCT" else (l or k)
            picked = rng.sample(nodes, width)
            binds = {f"c{i}": moved[u] for i, u in enumerate(picked, start=1)}
            if fam == "DF" or fam == "WDF":
                binds["c0"] = moved[rng.choice(nodes)]
            name = f"t{t}-{fam}-k{k}" + (f"-l{l}" if l else "")
            env, formula = f"{where}/{name}.env.json", f"{where}/{name}.txt"
            argv = ["gen", "--family", fam, "--k", str(k), "--N", str(n)]
            if l:
                argv += ["--l", str(l)]
            for c, u in binds.items():
                argv += ["--bind", f"{c}={u}"]
            gens.append((tuple(argv + ["--env-out", env]), formula))
            out = f"{where}/{name}.cnf"
            jobs.append(Job(
                f"e{index}/{name}",
                ("ground", "--model", model, "--env", env, "--formula", formula,
                 "--out", out, "--map", out + ".map.json", "--eval"),
                (out, out + ".map.json"),
                meta={"family": fam, "k": k, "l": l, "binds": binds,
                      "model": model}))
        return Entry({model: _text(graph)}, jobs, gens)


class Extensions(Workload):
    """All 30 sigma:tau:mu specs on a 16-node equivalence model with few
    extensions (the 2^n subset walk dominates) and on 14- and 16-node
    mutual-attack-pair models with thousands (the preferred filter and the
    JSON listing dominate)."""

    name = "extensions"
    pool = 12
    prepared = 2
    trace_rounds = 1

    def entry(self, index: int) -> Entry:
        where = self._dir(index)
        base = inputs.equivalence_model(30_000 + index % self.prepared,
                                        nodes=16, ids=8, attacks=24)
        models = {
            "eq16": inputs.relabel(base, 30_000 + index, identifiers=True)[0],
            "pairs14": inputs.pairs_model(30_000 + index, nodes=14),
            "pairs16": inputs.pairs_model(30_000 + index, nodes=16),
        }
        files, jobs = {}, []
        for label, graph in models.items():
            path = f"{where}/{label}.json"
            files[path] = _text(graph)
            jobs += [Job(f"e{index}/{label}/{spec}",
                         ("extensions", "--model", path, "--spec", spec,
                          "--format", "json"),
                         meta={"spec": spec, "model": path, "label": label})
                     for spec in SPECS]
        return Entry(files, jobs)


class Query(Workload):
    """check (verdict and witness) and match on role-annotated discussions."""

    name = "query"
    pool = 96
    prepared = 24
    trace_rounds = 20

    def entry(self, index: int) -> Entry:
        where = self._dir(index)
        seed = 40_000 + index % self.prepared
        # patterns and queries name roles and placeholders, never nodes, so
        # they fit every relabelled copy of the graph they were cut from
        bases = {"g": inputs.discussion_graph(seed, nodes=6, edges=8, roles=4),
                 "toulmin": inputs.toulmin_graph()}
        files: dict[str, str] = {}
        jobs: list[Job] = []
        preds = {f"role_{r}": inputs.role_skeleton(r) for r in inputs.ROLES}
        preds["e"] = inputs.edge_skeleton()
        plans = {"g": {"check": (3, 4, 5), "match": (3, 4, 5, 6), "conj": (3, 4, 5)},
                 "toulmin": {"check": (4,), "match": (6,), "conj": ()}}
        for label, graph in bases.items():
            model = f"{where}/{label}.json"
            files[model] = _text(inputs.relabel(graph, 40_000 + index,
                                                identifiers=False)[0])
            plan = plans[label]
            skels = {}
            for k in sorted(set(plan["check"]) | set(plan["match"])):
                for embedded in (True, False):
                    pname = f"p{k}{'t' if embedded else 'f'}"
                    skels[pname] = inputs.pattern(seed * 10 + k, graph, k,
                                                  embedded=embedded)
            env = f"{where}/{label}.env.json"
            files[env] = _text(inputs.environment({**preds, **skels}))
            for pname, skel in skels.items():
                k = len(skel["nodes"])
                if k in plan["match"]:
                    path = f"{where}/{label}-{pname}.skel.json"
                    files[path] = _text(skel)
                    jobs.append(Job(f"e{index}/{label}/match-{pname}",
                                    ("match", "--model", model, "--skeleton",
                                     path, "--format", "json"),
                                    meta={"model": model, "skeleton": path}))
                if k in plan["check"]:
                    path = f"{where}/{label}-{pname}.txt"
                    files[path] = inputs.pattern_query(k, pname)
                    jobs.append(Job(f"e{index}/{label}/check-{pname}",
                                    ("check", "--model", model, "--env", env,
                                     "--formula", path, "--format", "json"),
                                    meta={"model": model, "env": env,
                                          "formula": path}))
            for k in plan["conj"]:
                for embedded in (True, False):
                    cname = f"c{k}{'t' if embedded else 'f'}"
                    path = f"{where}/{label}-{cname}.txt"
                    files[path] = inputs.conjunctive_query(
                        seed * 10 + 5 + k, graph, k, embedded=embedded)
                    jobs.append(Job(f"e{index}/{label}/check-{cname}",
                                    ("check", "--model", model, "--env", env,
                                     "--formula", path, "--format", "json"),
                                    meta={"model": model, "env": env,
                                          "formula": path}))
        return Entry(files, jobs)


WORKLOADS = {w.name: w for w in (Validate(), Ground(), Extensions(), Query())}
