import json
import time

import pytest

from qmds import serialize
from qmds.cli import main
from qmds.field import make_field
from qmds.grs import GRSCode


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


def test_check_lemmas_odd_q_has_special_suite(capsys):
    rc, out, _ = run(capsys, ["check-lemmas", "--q", "3"])
    assert rc == 0
    obj = json.loads(out)
    assert any(s["name"] == "special-multiplier-expansion" for s in obj["suites"])


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
