import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import qmds
import qmds.verify
from qmds import serialize
from qmds.cli import main
from qmds.construct import ConstructionResult, additive_coset_code, reconstruct_multipliers
from qmds.field import make_field
from qmds.grs import GRSCode, generator_matrix
from qmds.poly import Poly


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def test_construct_theorem1(capsys):
    rc, out, err = run(capsys, ["construct", "theorem1", "--q", "3", "--t", "3", "--k", "2"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["quantum"] == {"n": 9, "k": 5, "d": 3, "q": 3}
    assert obj["provenance"] == "theorem1"
    assert obj["field"] == {"p": 3, "e": 1, "modulus": [1, 0, 1]}
    assert len(obj["a"]) == len(obj["v"]) == 9
    assert obj["extended"] is False
    assert len(obj["generator"]) == 2 and len(obj["generator"][0]) == 9
    assert set(obj["witnesses"]) == {"w"}
    assert "verified" in err


def test_construct_theorem2_special(capsys):
    rc, out, _ = run(capsys, ["construct", "theorem2", "--q", "3", "--t", "2", "--d", "3"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["quantum"] == {"n": 10, "k": 6, "d": 3, "q": 3}
    assert obj["provenance"] == "prop1-special"
    assert obj["extended"] is True
    assert set(obj["witnesses"]) == {"w", "m_coeffs", "gamma"}
    assert [row[-1] for row in obj["generator"]] == [0, 1]


def test_construct_excluded_triple_exits_2(capsys):
    rc, out, err = run(capsys, ["construct", "theorem2", "--q", "4", "--t", "3", "--d", "4"])
    assert rc == 2
    assert out == ""
    assert "excluded" in err


def test_construct_out_of_range_exits_2(capsys):
    rc, _, err = run(capsys, ["construct", "theorem1", "--q", "3", "--t", "3", "--k", "3"])
    assert rc == 2
    assert "invalid parameters" in err
    rc, _, _ = run(capsys, ["construct", "theorem1", "--q", "6", "--t", "1", "--k", "1"])
    assert rc == 2


def test_construct_theorem2_reports_the_range_of_d(capsys):
    rc, out, err = run(capsys, ["construct", "theorem2", "--q", "128", "--t", "2", "--d", "1"])
    assert (rc, out) == (2, "")
    assert err == "invalid parameters: d=1 out of range 2..4 for theorem2 with q=128, t=2\n"


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "theorem1", "--q", "3", "--bogus", "1"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_construct_determinism(capsys):
    argv = ["construct", "theorem2", "--q", "5", "--t", "3", "--d", "4"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "code.json"
    rc, _, _ = run(capsys, ["construct", "theorem1", "--q", "4", "--t", "2", "--k", "1", "--out", str(path)])
    assert rc == 0
    rc, out, _ = run(capsys, ["verify", str(path)])
    assert rc == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["quantum"] == {"n": 8, "k": 6, "d": 2, "q": 4}
    # parsed code equals the constructed one
    parsed = serialize.load_code(str(path))
    from qmds.construct import additive_coset_code

    assert parsed == additive_coset_code(4, 2, 1).code


def test_verify_failing_code_has_no_quantum_parameters(tmp_path, capsys):
    # the full-length extended code over GF(4) is not self-orthogonal, and
    # [[N, N-2k, k+1]] would read [[3, -3, 4]]_2
    code = GRSCode(make_field(2, 1), (0, 1), (1, 1), 3, extended=True)
    path = tmp_path / "full.json"
    serialize.save(serialize.code_to_obj(code), str(path))
    rc, out, _ = run(capsys, ["verify", str(path)])
    assert rc == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["quantum"] is None


def _constructed_file(tmp_path, capsys, name="code.json"):
    path = tmp_path / name
    rc, _, _ = run(capsys, ["construct", "theorem2", "--q", "3", "--t", "2", "--d", "3", "--out", str(path)])
    assert rc == 0
    return path, json.loads(path.read_text())


def test_verify_rejects_a_tampered_generator_entry(tmp_path, capsys):
    path, obj = _constructed_file(tmp_path, capsys)
    obj["generator"][1][4] = (obj["generator"][1][4] + 1) % 9
    serialize.save(obj, str(path))
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (2, "")
    assert err == "invalid parameters: 'generator' entry 1 is not the one the code fields give\n"
    for shipped, named in [(obj["generator"][:1], "entry 1"), ({}, "must be a list")]:
        obj["generator"] = shipped
        serialize.save(obj, str(path))
        rc, out, err = run(capsys, ["verify", str(path)])
        assert (rc, out) == (2, "")
        assert f"'generator' {named}" in err


@pytest.mark.parametrize(
    "quantum, key",
    [
        ({"n": 10, "k": 4, "d": 4, "q": 3}, "k"),  # still k = n - 2d + 2
        ({"n": 10, "k": 6, "d": 3, "q": 9}, "q"),
        ({"n": 10, "k": 6, "d": 3, "q": 3, "extra": 0}, "extra"),
        ({"n": 10, "k": 6, "d": True, "q": 3}, "d"),
        ({"n": 10, "k": 6, "q": 3}, "d"),
    ],
)
def test_verify_rejects_wrong_quantum_parameters(tmp_path, capsys, quantum, key):
    path, obj = _constructed_file(tmp_path, capsys)
    assert obj["quantum"] == {"n": 10, "k": 6, "d": 3, "q": 3}
    obj["quantum"] = quantum
    serialize.save(obj, str(path))
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (2, "")
    assert err == f"invalid parameters: 'quantum' entry {key!r} is not the one the code fields give\n"


@pytest.mark.parametrize(
    "argv, provenance",
    [
        (["theorem1", "--q", "3", "--t", "3", "--k", "2"], "theorem1"),
        (["theorem2", "--q", "5", "--t", "3", "--d", "3"], "prop1-general"),
        (["theorem2", "--q", "5", "--t", "4", "--d", "5"], "prop1-special"),
    ],
)
def test_verify_checks_the_shipped_witnesses(tmp_path, capsys, argv, provenance):
    path = tmp_path / "code.json"
    assert run(capsys, ["construct", *argv, "--out", str(path)])[0] == 0
    good = json.loads(path.read_text())
    keys = ("w",) if provenance == "theorem1" else ("w", "m_coeffs", "gamma")
    assert tuple(good["witnesses"]) == keys
    order = good["field"]["p"] ** (2 * good["field"]["e"])
    named = ", ".join(map(repr, keys))
    mismatch = f"'witnesses' ({named}) do not give the multipliers 'v'"

    def tampered(key, i, x):
        witnesses = {name: list(val) for name, val in good["witnesses"].items()}
        witnesses[key][i] = x
        return witnesses

    last = keys[-1]  # gamma, or w on the additive family
    # the extended family builds v from m and gamma alone, so w is checked
    # against gamma_i**(q+1) == -w_i and the point count
    extended = provenance != "theorem1"
    short = f"'witnesses' key 'w' must hold {len(good['a'])} entries, one per point"
    off_norm = "'witnesses' key 'w' does not satisfy gamma_i^(q+1) = -w_i"
    # m is t+1-k = 2 at (q, t, k) = (5, 3, 2), and x**q + x - pi on the special corner
    degree = 5 if provenance == "prop1-special" else 2
    wrong_m = f"'witnesses' key 'm_coeffs' must be monic of degree {degree}, its last entry 1"
    cases = [
        ({"w": [0]}, mismatch if provenance == "theorem1" else "'witnesses' key 'm_coeffs' is missing"),
        (tampered(last, 0, (good["witnesses"][last][0] + 1) % order), mismatch),
        (tampered("w", 0, (good["witnesses"]["w"][0] + 1) % order), off_norm if extended else mismatch),
        ({**good["witnesses"], "w": good["witnesses"]["w"][:3]}, short if extended else mismatch),
        (tampered(last, -1, order), f"'witnesses' key {last!r} must be a list of field elements"),
        (tampered("w", 0, True), "'witnesses' key 'w' must be a list of field elements"),
        ({**good["witnesses"], "x": []}, f"'witnesses' key 'x' is not one {provenance!r} records"),
        ([0], "'witnesses' must be a dict"),
    ]
    if extended:  # reconstruct_multipliers zips gamma with the points and trims m
        cases += [
            ({**good["witnesses"], "gamma": good["witnesses"]["gamma"] + [1]},
             f"'witnesses' key 'gamma' must hold {len(good['a'])} entries, one per point"),
            ({**good["witnesses"], "m_coeffs": good["witnesses"]["m_coeffs"] + [0]}, wrong_m),
        ]
    for witnesses, message in cases:
        serialize.save({**good, "witnesses": witnesses}, str(path))
        rc, out, err = run(capsys, ["verify", str(path)])
        assert (rc, out, err) == (2, "", f"invalid parameters: {message}\n"), witnesses
    if extended:
        # a monic cubic without a root on the points, with v and the generator
        # rebuilt from it: the file is consistent but for the degree of m
        code = serialize.code_from_obj(good)
        F = code.field
        cubic = next([c, 0, 0, 1] for c in range(1, order)
                     if all(Poly(F, [c, 0, 0, 1])(x) for x in code.a))
        witnesses = {**good["witnesses"], "m_coeffs": cubic}
        v = reconstruct_multipliers(F, code.a, provenance, witnesses)
        generator = [list(row) for row in generator_matrix(GRSCode(F, code.a, v, code.k, True))]
        serialize.save({**good, "v": list(v), "generator": generator, "witnesses": witnesses},
                       str(path))
        assert run(capsys, ["verify", str(path)]) == (2, "", f"invalid parameters: {wrong_m}\n")
    del good["witnesses"]  # the key is optional
    serialize.save(good, str(path))
    assert run(capsys, ["verify", str(path)])[0] == 0


@pytest.mark.parametrize(
    "argv, provenance",
    [
        (["theorem1", "--q", "3", "--t", "3", "--k", "2"], "theorem1"),
        (["theorem2", "--q", "5", "--t", "3", "--d", "3"], "prop1-general"),
        (["theorem2", "--q", "5", "--t", "4", "--d", "5"], "prop1-special"),
    ],
)
def test_verify_construction_fails_on_the_witnesses_verify_rejects(tmp_path, capsys, argv,
                                                                   provenance):
    # every witness case of test_verify_checks_the_shipped_witnesses, in
    # process: the report fails, and a bad witness never raises
    path = tmp_path / "code.json"
    assert run(capsys, ["construct", *argv, "--out", str(path)])[0] == 0
    good = json.loads(path.read_text())
    code = serialize.code_from_obj(good)
    F = code.field
    keys = tuple(good["witnesses"])

    def tampered(key, i, x):
        witnesses = {name: list(val) for name, val in good["witnesses"].items()}
        witnesses[key][i] = x
        return witnesses

    last = keys[-1]
    cases = [
        (code, {"w": [0]}),
        (code, tampered(last, 0, (good["witnesses"][last][0] + 1) % F.order)),
        (code, tampered("w", 0, (good["witnesses"]["w"][0] + 1) % F.order)),
        (code, {**good["witnesses"], "w": good["witnesses"]["w"][:3]}),
        (code, tampered(last, -1, F.order)),
        (code, tampered("w", 0, True)),
        (code, {**good["witnesses"], "x": []}),
        (code, [0]),
    ]
    if code.extended:
        cubic = next([c, 0, 0, 1] for c in range(1, F.order)
                     if all(Poly(F, [c, 0, 0, 1])(x) for x in code.a))
        witnesses = {**good["witnesses"], "m_coeffs": cubic}
        v = reconstruct_multipliers(F, code.a, provenance, witnesses)
        cases += [
            (code, {**good["witnesses"], "gamma": good["witnesses"]["gamma"] + [1]}),
            (code, {**good["witnesses"], "m_coeffs": good["witnesses"]["m_coeffs"] + [0]}),
            (GRSCode(F, code.a, v, code.k, True), witnesses),
        ]
    assert qmds.verify.verify_construction(ConstructionResult(code, good["witnesses"])).passed
    for case_code, witnesses in cases:
        report = qmds.verify.verify_construction(ConstructionResult(case_code, witnesses))
        assert not report.passed and report.witnesses.startswith("'witnesses'"), witnesses


def test_reports_name_a_witness_fault_and_no_singleton_field(tmp_path, capsys, monkeypatch):
    # a constructor that ships a w whose norm equation has no solution: the
    # exit-1 report of construct names the key, and verify's report of a
    # good file says no witness fault
    good = additive_coset_code(3, 3, 2)
    F = good.code.field
    w = list(good.witnesses["w"])
    w[0] = F.mul(w[0], F.generator)
    path = tmp_path / "code.json"
    serialize.save(serialize.result_to_obj(good), str(path))
    rc, out, _ = run(capsys, ["verify", str(path)])
    report = json.loads(out)
    assert rc == 0 and report["witnesses"] is None and report["passed"]
    assert list(report) == ["identity", "hermitian_self_orthogonal", "hermitian_witness",
                            "distance_method", "measured_distance", "mds", "witnesses",
                            "passed", "quantum"]
    monkeypatch.setattr("qmds.cli.additive_coset_code",
                        lambda *args: ConstructionResult(good.code, {"w": w}))
    rc, out, err = run(capsys, ["construct", "theorem1", "--q", "3", "--t", "3", "--k", "2"])
    assert (rc, out) == (1, "")
    report = json.loads(err)
    assert report["witnesses"] == "'witnesses' ('w') do not give the multipliers 'v'"
    assert (report["hermitian_self_orthogonal"], report["mds"], report["passed"]) == (True, True, False)
    assert "singleton_equality" not in report


def test_the_even_characteristic_corner_has_no_witnesses(tmp_path, capsys):
    # at (q, t, k) = (4, 3, 3) the special multiplier needs a unit of norm
    # 1/2, and 2 == 0: both routes report the corner, neither divides by 2
    path = tmp_path / "code.json"
    argv = ["construct", "theorem2", "--q", "4", "--t", "3", "--d", "3", "--out", str(path)]
    assert run(capsys, argv)[0] == 0
    obj = json.loads(path.read_text())
    for key in ("generator", "quantum", "provenance"):
        del obj[key]
    obj["k"] = 3
    obj["witnesses"]["m_coeffs"] = [1, 0, 0, 0, 1]
    serialize.save(obj, str(path))
    message = "'witnesses' give no multipliers: t = k = q-1 is excluded in even characteristic"
    assert run(capsys, ["verify", str(path)]) == (2, "", f"invalid parameters: {message}\n")
    result = ConstructionResult(serialize.code_from_obj(obj), obj["witnesses"])
    assert not qmds.verify.verify_construction(result).passed


@pytest.mark.parametrize(
    "argv, provenance",
    [
        (["theorem1", "--q", "3", "--t", "3", "--k", "2"], "theorem1"),
        (["theorem2", "--q", "5", "--t", "3", "--d", "3"], "prop1-general"),
        (["theorem2", "--q", "5", "--t", "4", "--d", "5"], "prop1-special"),  # odd q, t = k = q-1
    ],
)
def test_verify_checks_the_provenance_tag(tmp_path, capsys, argv, provenance):
    path = tmp_path / "code.json"
    assert run(capsys, ["construct", *argv, "--out", str(path)])[0] == 0
    obj = json.loads(path.read_text())
    assert obj["provenance"] == provenance
    assert run(capsys, ["verify", str(path)])[0] == 0
    for wrong in ("theorem1", "prop1-general", "prop1-special", "theorem2", "", None, 1):
        if wrong == provenance:
            continue
        obj["provenance"] = wrong
        serialize.save(obj, str(path))
        rc, out, err = run(capsys, ["verify", str(path)])
        assert (rc, out) == (2, "")
        assert err == (f"invalid parameters: 'provenance' is not {provenance!r}, "
                       "the one the code fields give\n")
    del obj["provenance"]  # the key is optional
    serialize.save(obj, str(path))
    assert run(capsys, ["verify", str(path)])[0] == 0


def test_verify_of_a_file_without_generator_or_quantum(tmp_path, capsys):
    (tmp_path / "full").mkdir()
    (tmp_path / "bare").mkdir()
    path, obj = _constructed_file(tmp_path, capsys, "full/code.json")
    del obj["generator"], obj["quantum"]
    serialize.save(obj, str(tmp_path / "bare" / "code.json"))
    reports = [run(capsys, ["verify", str(tmp_path / d / "code.json")]) for d in ("full", "bare")]
    assert reports[0][0] == reports[1][0] == 0
    assert reports[0][1] == reports[1][1]
    assert json.loads(reports[1][1])["quantum"] == {"n": 10, "k": 6, "d": 3, "q": 3}


def test_verify_missing_file_exits_3(capsys):
    rc, _, err = run(capsys, ["verify", "/nonexistent/code.json"])
    assert rc == 3
    assert "i/o error" in err


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, ["verify", str(path)])
    assert rc == 2
    assert "invalid parameters" in err


def test_verify_duplicate_points_exits_2(tmp_path, capsys):
    obj = {
        "field": {"p": 3, "e": 1, "modulus": [1, 0, 1]},
        "a": [0, 0, 1],
        "v": [1, 1, 1],
        "k": 1,
        "extended": False,
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", str(path)])
    assert rc == 2
    assert "distinct" in err


def test_verify_zero_multiplier_exits_2(tmp_path, capsys):
    obj = {
        "field": {"p": 3, "e": 1, "modulus": [1, 0, 1]},
        "a": [0, 1, 2],
        "v": [1, 0, 1],
        "k": 1,
        "extended": False,
    }
    path = tmp_path / "zerov.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", str(path)])
    assert rc == 2
    assert "nonzero" in err


def test_verify_wrong_modulus_exits_2(tmp_path, capsys):
    obj = {
        "field": {"p": 3, "e": 1, "modulus": [2, 1, 1]},
        "a": [0, 1],
        "v": [1, 1],
        "k": 1,
        "extended": False,
    }
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", str(path)])
    assert rc == 2
    assert "modulus" in err


def test_verify_failing_code_exits_1(tmp_path, capsys):
    F9 = make_field(3, 1)
    code = GRSCode(F9, tuple(range(5)), (1,) * 5, 1)
    path = tmp_path / "bad_code.json"
    serialize.save(serialize.code_to_obj(code), str(path))
    rc, out, _ = run(capsys, ["verify", str(path)])
    assert rc == 1
    report = json.loads(out)
    assert not report["hermitian_self_orthogonal"]
    assert report["hermitian_witness"] is not None


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_csv_to_stdout(capsys):
    rc, out, err = run(capsys, ["sweep", "--q", "3", "--family", "theorem1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "q,t,k,family,N,K,D,n,kq,d,status"
    assert len(lines) == 6
    assert "5 ok" in err


def test_sweep_json_format(capsys):
    rc, out, _ = run(capsys, ["sweep", "--q", "2", "--family", "both", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert any(r["status"] == "excluded-by-paper" for r in rows)
    assert all(list(r) == ["q", "t", "k", "family", "N", "K", "D", "n", "kq", "d", "status"] for r in rows)


def test_sweep_determinism(capsys):
    argv = ["sweep", "--q", "2,3", "--family", "both"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sweep_to_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    rc, out, _ = run(capsys, ["sweep", "--q", "2", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text().startswith("q,t,k,family")


def test_sweep_unwritable_destination_exits_3(tmp_path, capsys):
    rc, _, err = run(capsys, ["sweep", "--q", "2", "--out", str(tmp_path / "no" / "dir.csv")])
    assert rc == 3
    assert "i/o error" in err


def test_sweep_bad_q_exits_2(capsys):
    rc, _, _ = run(capsys, ["sweep", "--q", "2,x"])
    assert rc == 2
    rc, _, _ = run(capsys, ["sweep", "--q", "6"])
    assert rc == 2
    rc, _, _ = run(capsys, ["sweep", "--q", ""])
    assert rc == 2


def test_sweep_repeated_q_exits_2(capsys):
    rc, out, err = run(capsys, ["sweep", "--q", "2,3,2"])
    assert (rc, out) == (2, "")
    assert err == "invalid parameters: q=2 is listed more than once\n"


# ----------------------------------------------------------------------
# check-lemmas and no515
# ----------------------------------------------------------------------

def test_check_lemmas(capsys):
    rc, out, _ = run(capsys, ["check-lemmas", "--q", "2"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["q"] == 2 and obj["all_passed"]
    names = {s["name"] for s in obj["suites"]}
    assert {
        "dual-span",
        "extended-dual-span",
        "hermitian-membership",
        "extended-hermitian-membership",
        "additive-coset-products",
        "multiplicative-coset-products",
        "unity-root-factorization",
        "unity-root-cofactors",
        "root-free-polynomials",
    } <= names
    assert all(s["passed"] for s in obj["suites"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1009b17307d9b5e8ba876885e280d61d4ae0b22eec586bf42ae1fe2a87f6fc12")


def test_check_lemmas_odd_q_has_special_suite(capsys):
    rc, out, _ = run(capsys, ["check-lemmas", "--q", "3"])
    assert rc == 0
    obj = json.loads(out)
    assert any(s["name"] == "special-multiplier-expansion" for s in obj["suites"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a17f0180440d0f6cd606ffb260527efcdda656021b3176e22ec3ff5d2cec349a")


def test_check_lemmas_reports_a_broken_identity_with_exit_1(capsys, monkeypatch):
    # weights moved out of GF(q) leave -w_i with no norm-equation solution
    class Scaled(qmds.verify.MultiplicativeCosetDesign):
        def __init__(self, field, t):
            super().__init__(field, t)
            self.weights = tuple(field.mul(w, field.generator) for w in self.weights)

    monkeypatch.setattr(qmds.verify, "MultiplicativeCosetDesign", Scaled)
    rc, out, err = run(capsys, ["check-lemmas", "--q", "2"])
    assert (rc, err) == (1, "")
    assert '"all_passed": false' in out
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert suites["multiplicative-coset-products"] == {
        "name": "multiplicative-coset-products", "cases": 8, "passed": False}


def test_no515(capsys):
    rc, out, _ = run(capsys, ["no515"])
    assert rc == 0
    assert json.loads(out) == {"confirmed": True, "candidates_examined": 81}


# ----------------------------------------------------------------------
# element bound override
# ----------------------------------------------------------------------

def test_element_bound_flag(capsys):
    rc, _, err = run(capsys, ["--element-bound", "16", "construct", "theorem1", "--q", "9", "--t", "1", "--k", "1"])
    assert rc == 2
    assert "bound" in err


def test_element_bound_env(monkeypatch, capsys):
    monkeypatch.setenv("QMDS_ELEMENT_BOUND", "16")
    rc, _, err = run(capsys, ["construct", "theorem1", "--q", "9", "--t", "1", "--k", "1"])
    assert rc == 2
    monkeypatch.setenv("QMDS_ELEMENT_BOUND", "100")
    rc, _, _ = run(capsys, ["construct", "theorem1", "--q", "3", "--t", "1", "--k", "1"])
    assert rc == 0
    monkeypatch.setenv("QMDS_ELEMENT_BOUND", "not-a-number")
    rc, _, err = run(capsys, ["construct", "theorem1", "--q", "3", "--t", "1", "--k", "1"])
    assert rc == 2
    assert "QMDS_ELEMENT_BOUND" in err


def test_element_bound_outside_its_range_exits_2(monkeypatch, capsys):
    argv = ["construct", "theorem1", "--q", "3", "--t", "1", "--k", "1"]
    for bound in ("3", str(2 ** 16 + 1), "-1"):
        rc, out, err = run(capsys, ["--element-bound", bound] + argv)
        assert (rc, out) == (2, "")
        assert "element bound" in err
        monkeypatch.setenv("QMDS_ELEMENT_BOUND", bound)
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        monkeypatch.delenv("QMDS_ELEMENT_BOUND")
    rc, _, _ = run(capsys, ["--element-bound", "4", "construct", "theorem1", "--q", "2", "--t", "1", "--k", "1"])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["construct", "theorem1", "--q", "256", "--t", "1", "--k", "1"],
    ["construct", "theorem2", "--q", "243", "--t", "1", "--d", "2"],
])
def test_construct_at_the_maximum_element_bound(capsys, argv):
    # GF(2^16) and GF(3^10): the largest towers the ceiling admits
    rc, out, err = run(capsys, ["--element-bound", str(2 ** 16)] + argv)
    assert rc == 0
    assert err.startswith("verified ")
    obj = json.loads(out)
    assert obj["quantum"]["q"] == int(argv[3])
    assert obj["quantum"]["d"] == 2


# ----------------------------------------------------------------------
# huge or malformed input is rejected at the edge
# ----------------------------------------------------------------------

MERSENNE_61 = 2 ** 61 - 1  # prime: factoring it by trial division never ends


def test_huge_q_exits_2_before_factoring(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["construct", "theorem1", "--q", str(MERSENNE_61), "--t", "1", "--k", "1"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert "bound" in err


def test_huge_prime_in_a_code_file_exits_2_before_factoring(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"field": {"p": MERSENNE_61, "e": 1, "modulus": [1]}, "a": [0], "v": [1], "k": 1}
    ))
    start = time.perf_counter()
    rc, out, err = run(capsys, ["verify", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert "bound" in err


def test_huge_p_with_a_negative_e_in_a_code_file_exits_2(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(
        {"field": {"p": 10 ** 400, "e": -1, "modulus": [1]}, "a": [0], "v": [1], "k": 1}
    ))
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (2, "")
    assert "extension degree must be positive, got -1" in err


@pytest.mark.parametrize("patch", [
    {"k": 1e999},
    {"a": [1e999]},
    {"field": {"p": 3, "e": 1e999, "modulus": [1, 0, 1]}},
])
def test_infinite_numbers_in_a_code_file_exit_2(tmp_path, capsys, patch):
    obj = {"field": {"p": 3, "e": 1, "modulus": [1, 0, 1]}, "a": [0, 1], "v": [1, 1], "k": 1}
    obj.update(patch)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(obj))  # writes the literal Infinity
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (2, "")
    assert "invalid parameters" in err


def test_non_integer_number_in_a_code_file_exits_2(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps(
        {"field": {"p": 3, "e": 1, "modulus": [1, 0, 1]}, "a": [0, 1], "v": [1, 1], "k": 1.9}
    ))
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (2, "")
    assert "'k' must be an integer" in err


def test_undecodable_code_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"k": "\xff"}')
    rc, out, _ = run(capsys, ["verify", str(path)])
    assert (rc, out) == (2, "")


# ----------------------------------------------------------------------
# internal errors are told apart from bad input and failed verification
# ----------------------------------------------------------------------

@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("stray")])
def test_internal_error_exits_4(monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("qmds.cli.verify_construction", broken)
    rc, out, err = run(capsys, ["construct", "theorem1", "--q", "3", "--t", "1", "--k", "1"])
    assert (rc, out) == (4, "")
    assert f"internal error: {type(exc).__name__}: {exc}" in err


# ----------------------------------------------------------------------
# start-up
# ----------------------------------------------------------------------

STARTUP_PROBE = """
import sys
import qmds.cli
codes = [
    qmds.cli.main(["sweep", "--q", "2"]),
    qmds.cli.main(["construct", "theorem2", "--q", "3", "--t", "2", "--d", "2"]),
]
print(codes, sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "array") if m in sys.modules))
"""


def test_cli_calls_import_no_dataclasses_or_inspect():
    # every command is a fresh interpreter, so each of these modules would
    # add its import time to every call; array is loaded only by the bulk
    # root-free search on towers past 256 elements
    src = os.path.dirname(os.path.dirname(qmds.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
