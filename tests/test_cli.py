import json
from importlib import resources

import jsonschema
import pytest

from conftest import DATA
from dglogic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    ref = resources.files("dglogic") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


SCHEMA = load_schema()


def check_schema(out):
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


CHAIN = str(DATA / "attack_chain.json")
CYCLE = str(DATA / "attack_cycle.json")
TOULMIN = str(DATA / "toulmin.json")
PATTERN = str(DATA / "toulmin_pattern.json")
TOULMIN_ENV = str(DATA / "toulmin_env.json")
QUERY = str(DATA / "toulmin_query.txt")


# --------------------------------------------------------------------------
# check


def test_check_text_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--model", TOULMIN,
                       "--env", TOULMIN_ENV, "--formula", QUERY)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "true"
    assert lines[1].startswith("witness: x1=txt_1 x2=txt_2")


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "--model", TOULMIN,
                       "--env", TOULMIN_ENV, "--formula", QUERY,
                       "--format", "json")
    assert code == 0
    doc = check_schema(out)
    assert doc["verdict"] is True
    assert doc["witness"] == {f"x{i}": f"txt_{i}" for i in range(1, 7)}


def test_check_false_formula(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text("exists x1. p(x1, x1, x1, x1, x1, x1)\n")
    code, out, _ = run(capsys, "check", "--model", TOULMIN,
                       "--env", TOULMIN_ENV, "--formula", str(f))
    assert code == 0
    assert out.splitlines() == ["false"]


def test_check_free_variable_is_semantic_error(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text("p(x1, x2, x3, x4, x5, x6)\n")
    code, _, err = run(capsys, "check", "--model", TOULMIN,
                       "--env", TOULMIN_ENV, "--formula", str(f))
    assert code == 3
    assert "error" in err


def test_check_unknown_predicate(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text("exists x1. p_Z(x1)\n")
    code, _, _ = run(capsys, "check", "--model", TOULMIN,
                     "--env", TOULMIN_ENV, "--formula", str(f))
    assert code == 3


def test_check_grammar_error(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text("exists x1 p(x1)\n")
    code, _, _ = run(capsys, "check", "--model", TOULMIN,
                     "--env", TOULMIN_ENV, "--formula", str(f))
    assert code == 2


# --------------------------------------------------------------------------
# extensions


def test_extensions_text(capsys):
    code, out, _ = run(capsys, "extensions", "--model", CHAIN,
                       "--spec", "simple:defence:complete")
    assert code == 0
    assert json.loads(out) == [["u1", "u3", "u4"]]


def test_extensions_json(capsys):
    code, out, _ = run(capsys, "extensions", "--model", CYCLE,
                       "--spec", "wide:defence:complete", "--format", "json")
    assert code == 0
    doc = check_schema(out)
    assert doc["count"] == 3
    assert doc["extensions"] == [[], ["u5"], ["u1", "u3", "u4", "u6"]]


def test_extensions_bad_spec(capsys):
    code, _, _ = run(capsys, "extensions", "--model", CHAIN,
                     "--spec", "simple:defence")
    assert code == 2


def test_extensions_bound(capsys):
    code, _, err = run(capsys, "extensions", "--model", CYCLE,
                       "--spec", "wide:defence:complete", "--bound", "3")
    assert code == 5
    assert "error" in err


def test_extensions_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [{"id": "a", "anno": ["ID1", "ID2"]}], "edges": []}))
    code, _, _ = run(capsys, "extensions", "--model", str(bad),
                     "--spec", "simple:defence:complete")
    assert code == 4


# --------------------------------------------------------------------------
# match


def test_match_text(capsys):
    code, out, _ = run(capsys, "match", "--model", TOULMIN,
                       "--skeleton", PATTERN)
    assert code == 0
    assert json.loads(out) == [[f"txt_{i}" for i in range(1, 7)]]


def test_match_json(capsys):
    code, out, _ = run(capsys, "match", "--model", TOULMIN,
                       "--skeleton", PATTERN, "--format", "json")
    assert code == 0
    doc = check_schema(out)
    assert doc["degree"] == 6 and doc["count"] == 1


def test_match_degree_gap(tmp_path, capsys):
    skel = tmp_path / "skel.json"
    skel.write_text(json.dumps({
        "nodes": [{"id": "*1", "anno": []}, {"id": "*3", "anno": []}],
        "edges": []}))
    code, _, _ = run(capsys, "match", "--model", TOULMIN,
                     "--skeleton", str(skel))
    assert code == 2


# --------------------------------------------------------------------------
# validate


def test_validate_model_text(capsys):
    code, out, _ = run(capsys, "validate", "--model", CHAIN,
                       "--families", "CF,CL")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_validate_json_schema(capsys):
    code, out, _ = run(capsys, "validate", "--model", CHAIN,
                       "--families", "CF", "--format", "json")
    assert code == 0
    doc = check_schema(out)
    assert doc["ok"] is True and doc["mismatch_count"] == 0
    assert doc["models"][0]["reports"][0]["family"] == "CF"


def test_validate_reports_are_byte_identical(capsys):
    argv = ("validate", "--random", "2", "--seed", "7",
            "--families", "CF,WCF", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_validate_mutate_fails(capsys):
    code, out, _ = run(capsys, "validate", "--model", CHAIN,
                       "--families", "CF", "--mutate", "--format", "json")
    assert code == 1
    doc = check_schema(out)
    assert doc["ok"] is False
    assert doc["models"][0]["reports"][0]["mismatches"]


def test_validate_unknown_family(capsys):
    code, _, _ = run(capsys, "validate", "--model", CHAIN,
                     "--families", "NOPE")
    assert code == 2


def test_validate_needs_a_model_source(capsys):
    with pytest.raises(SystemExit):
        main(["validate", "--families", "CF"])
    capsys.readouterr()


# --------------------------------------------------------------------------
# gen


def test_gen_text_parses(capsys):
    from dglogic import parse_formula
    code, out, _ = run(capsys, "gen", "--family", "CF", "--k", "2")
    assert code == 0
    parse_formula(out)


def test_gen_json_schema(capsys):
    code, out, _ = run(capsys, "gen", "--family", "WCF", "--k", "1",
                       "--N", "3", "--format", "json")
    assert code == 0
    doc = check_schema(out)
    assert doc["family"] == "WCF" and doc["params"] == {"N": 3, "k": 1}


def test_gen_missing_parameter(capsys):
    code, _, err = run(capsys, "gen", "--family", "WCF", "--k", "1")
    assert code == 2
    assert "--N" in err


def test_gen_size_guardrail(capsys):
    code, _, _ = run(capsys, "gen", "--family", "WCF", "--k", "1", "--N", "9")
    assert code == 5
    code, out, _ = run(capsys, "gen", "--family", "WCF", "--k", "1",
                       "--N", "9", "--allow-large")
    assert code == 0 and out.strip()


def test_gen_constants_override(capsys):
    code, out, _ = run(capsys, "gen", "--family", "CF", "--k", "2",
                       "--constants", "a1,a2")
    assert code == 0
    assert "a1" in out and "a2" in out
    code, _, _ = run(capsys, "gen", "--family", "CF", "--k", "2",
                     "--constants", "a1")
    assert code == 2


# --------------------------------------------------------------------------
# gen --env-out feeding check and ground (end to end)


def gen_env_and_formula(tmp_path, capsys, binds):
    env = tmp_path / "env.json"
    argv = ["gen", "--family", "CF", "--k", "2", "--env-out", str(env)]
    for b in binds:
        argv += ["--bind", b]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    formula = tmp_path / "f.txt"
    formula.write_text(out)
    return str(env), str(formula)


def test_gen_check_roundtrip(tmp_path, capsys):
    env, formula = gen_env_and_formula(tmp_path, capsys,
                                       ["c1=u1", "c2=u4"])
    code, out, _ = run(capsys, "check", "--model", CHAIN, "--env", env,
                       "--formula", formula)
    assert (code, out.strip()) == (0, "true")
    env, formula = gen_env_and_formula(tmp_path, capsys,
                                       ["c1=u2", "c2=u3"])
    code, out, _ = run(capsys, "check", "--model", CHAIN, "--env", env,
                       "--formula", formula)
    assert (code, out.strip()) == (0, "false")


def test_ground_text_and_files(tmp_path, capsys):
    env, formula = gen_env_and_formula(tmp_path, capsys,
                                       ["c1=u1", "c2=u4"])
    cnf = tmp_path / "out.cnf"
    mapping = tmp_path / "map.json"
    code, out, _ = run(capsys, "ground", "--model", CHAIN, "--env", env,
                       "--formula", formula, "--eval",
                       "--out", str(cnf), "--map", str(mapping))
    assert code == 0
    assert out.strip() == "eval: true"
    assert cnf.read_text().splitlines()[-1].endswith("0")
    saved = json.loads(mapping.read_text())
    assert sorted(saved) == ["auxiliary", "constant", "root", "source"]


def test_ground_json_schema(tmp_path, capsys):
    env, formula = gen_env_and_formula(tmp_path, capsys,
                                       ["c1=u2", "c2=u3"])
    code, out, _ = run(capsys, "ground", "--model", CHAIN, "--env", env,
                       "--formula", formula, "--eval", "--format", "json")
    assert code == 0
    doc = check_schema(out)
    assert doc["verdict"] is False
    assert "p cnf" in doc["dimacs"]


def test_ground_budget(tmp_path, capsys):
    env, formula = gen_env_and_formula(tmp_path, capsys,
                                       ["c1=u1", "c2=u4"])
    code, _, _ = run(capsys, "ground", "--model", CHAIN, "--env", env,
                     "--formula", formula, "--bound", "10")
    assert code == 5


# --------------------------------------------------------------------------
# malformed inputs


@pytest.mark.parametrize("command", ["check", "ground"])
def test_deeply_nested_formula_is_a_bound_error(tmp_path, capsys, command):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({
        "constants": {"a": "u1"},
        "predicates": [{"name": "p", "arity": 1, "graph": {
            "nodes": [{"id": "*1", "anno": []}], "edges": []}}]}))
    formula = tmp_path / "deep.txt"
    formula.write_text(" & ".join(["p(a)"] * 3000) + "\n")
    code, _, err = run(capsys, command, "--model", CHAIN, "--env", str(env),
                       "--formula", str(formula))
    assert code == 5
    assert "nesting depth" in err
    assert "Traceback" not in err


def test_bad_json_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "extensions", "--model", str(bad),
                     "--spec", "simple:defence:complete")
    assert code == 2


def test_missing_file(capsys):
    code, _, _ = run(capsys, "extensions", "--model", "/nonexistent.json",
                     "--spec", "simple:defence:complete")
    assert code == 2
