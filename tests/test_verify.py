import dataclasses
import io
import json
import random

import pytest

from qmds.construct import (
    ConstructionResult,
    ParameterError,
    additive_coset_code,
    multiplicative_coset_code,
)
from qmds.field import make_field
from qmds.grs import GRSCode, generator_matrix, is_hermitian_self_orthogonal
from qmds.verify import (
    CSV_COLUMNS,
    STATUS_EXCLUDED,
    STATUS_OK,
    SweepRow,
    emit,
    five_one_five_search,
    identity_suites,
    rows_to_csv,
    rows_to_json,
    sweep,
    verify_code,
    verify_construction,
)

F4 = make_field(2, 1)
F9 = make_field(3, 1)


# ----------------------------------------------------------------------
# verification reports
# ----------------------------------------------------------------------

def test_verify_additive_construction_passes():
    report = verify_construction(additive_coset_code(3, 3, 2))
    assert report.passed
    assert report.hermitian_self_orthogonal and report.hermitian_witness is None
    assert report.distance_method == "brute"
    assert report.measured_distance == 8
    assert report.singleton_equality
    assert report.identity == "theorem1 q=3 t=3 k=2"


def test_verify_special_case_distance_by_brute_force():
    # [10, 2, 9] over GF(81): 9^2 = 81^... all 6561 codewords enumerable
    report = verify_construction(multiplicative_coset_code(3, 2, 2))
    assert report.passed
    assert report.distance_method == "brute"
    assert report.measured_distance == 9


def test_verify_rank_method_kicks_in_past_brute_cap():
    report = verify_construction(multiplicative_coset_code(5, 4, 5))
    assert report.passed
    assert report.distance_method == "rank"
    assert report.measured_distance is None


def test_verify_by_construction_label_past_both_caps():
    report = verify_construction(multiplicative_coset_code(9, 8, 8))
    assert report.passed
    assert report.distance_method == "by-construction"


def test_verify_detects_tampered_code():
    good = additive_coset_code(3, 3, 2)
    v = list(good.code.v)
    v[0] = good.code.field.mul(v[0], good.code.field.generator)  # change one norm
    bad_code = GRSCode(good.code.field, good.code.a, tuple(v), good.code.k)
    tampered = ConstructionResult(bad_code, good.quantum, good.witnesses)
    report = verify_construction(tampered)
    assert not report.passed
    assert not report.hermitian_self_orthogonal
    assert report.hermitian_witness is not None


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: additive_coset_code(3, 3, 2), "w"),
        (lambda: multiplicative_coset_code(3, 2, 3), "gamma"),
        (lambda: multiplicative_coset_code(5, 3, 2), "m_coeffs"),  # root-free, degree 2
        (lambda: multiplicative_coset_code(3, 2, 2), "gamma"),  # special case
    ],
    ids=["additive-w", "extended-gamma", "extended-m_coeffs", "special-gamma"],
)
def test_verify_detects_a_tampered_witness_on_a_valid_code(build, key):
    good = build()
    F = good.code.field
    witnesses = {name: list(val) for name, val in good.witnesses.items()}
    # scaling by a subfield unit keeps w_i * span**(t-1) in GF(q), so the
    # norm equation stays solvable and only its solution changes
    witnesses[key][0] = F.mul(witnesses[key][0], F.norm(F.generator))
    assert witnesses[key][0] != good.witnesses[key][0]
    report = verify_construction(ConstructionResult(good.code, good.quantum, witnesses))
    assert report.hermitian_self_orthogonal and report.mds  # the code is untouched
    assert not report.singleton_equality
    assert not report.passed


@pytest.mark.parametrize(
    "build",
    [
        lambda: additive_coset_code(3, 3, 2),
        lambda: multiplicative_coset_code(3, 2, 3),
        lambda: multiplicative_coset_code(3, 2, 2),  # special case
    ],
    ids=["additive", "extended", "special"],
)
def test_verify_detects_a_multiplier_changed_by_a_unit_of_norm_one(build):
    # theta**(q+1) == 1, so v_0 * theta has the norm of v_0: the Gram
    # product, and with it every check but the witness check, is unchanged
    good = build()
    F = good.code.field
    theta = F.root_of_unity(F.q + 1)
    v = list(good.code.v)
    v[0] = F.mul(v[0], theta)
    assert v[0] != good.code.v[0] and F.norm(v[0]) == F.norm(good.code.v[0])
    code = dataclasses.replace(good.code, v=tuple(v))
    report = verify_construction(ConstructionResult(code, good.quantum, good.witnesses))
    assert report.hermitian_self_orthogonal and report.mds
    assert not report.singleton_equality
    assert not report.passed


def test_verify_reports_a_w_witness_without_a_norm_solution_as_a_failure():
    # scaling w_0 by the generator moves w_0 * span**(t-1) out of GF(q), so
    # no multiplier has that norm: the report must fail, not raise
    good = additive_coset_code(3, 3, 2)
    F = good.code.field
    witnesses = {name: list(val) for name, val in good.witnesses.items()}
    witnesses["w"][0] = F.mul(witnesses["w"][0], F.generator)
    report = verify_construction(ConstructionResult(good.code, good.quantum, witnesses))
    assert report.hermitian_self_orthogonal and report.mds
    assert not report.singleton_equality
    assert not report.passed


def test_verify_detects_quantum_parameters_that_do_not_match_the_code():
    good = additive_coset_code(3, 3, 2)
    wrong = dataclasses.replace(good.quantum, n=11, k=7)  # still k = n - 2d + 2
    report = verify_construction(ConstructionResult(good.code, wrong, good.witnesses))
    assert report.hermitian_self_orthogonal and report.mds
    assert not report.passed


def test_verify_code_negative_control_with_witness():
    code = GRSCode(F9, tuple(range(5)), (1,) * 5, 1)
    report = verify_code(code, identity="hand-built")
    assert not report.passed
    assert not report.hermitian_self_orthogonal
    i, j, value = report.hermitian_witness
    G = generator_matrix(code)
    acc = 0
    for x, y in zip(G[i], G[j]):
        acc = F9.add(acc, F9.mul(F9.frobenius(x), y))
    assert acc == value != 0
    assert report.mds  # a GRS code is still MDS


def test_report_dict_is_deterministic():
    a = verify_construction(additive_coset_code(2, 2, 1)).as_dict()
    b = verify_construction(additive_coset_code(2, 2, 1)).as_dict()
    assert a == b
    assert "elapsed" not in a


def test_single_multiplier_perturbations_are_always_detected():
    rng = random.Random(99)
    base = additive_coset_code(3, 3, 2)
    F = base.code.field
    breaks = 0
    for _ in range(100):
        i = rng.randrange(base.code.n)
        new = rng.randrange(1, F.order)
        if new == base.code.v[i]:
            continue
        v = list(base.code.v)
        v[i] = new
        perturbed = GRSCode(F, base.code.a, tuple(v), base.code.k)
        ok, witness = is_hermitian_self_orthogonal(perturbed)
        # independent recomputation of the full Gram matrix
        G = generator_matrix(perturbed)
        truly_zero = True
        for r in range(len(G)):
            for s in range(len(G)):
                acc = 0
                for x, y in zip(G[r], G[s]):
                    acc = F.add(acc, F.mul(F.frobenius(x), y))
                if acc != 0:
                    truly_zero = False
        assert ok == truly_zero
        if not ok:
            breaks += 1
    assert breaks > 0


# ----------------------------------------------------------------------
# sweeps and emission
# ----------------------------------------------------------------------

def test_sweep_q3_additive_rows():
    rows = sweep([3], "theorem1")
    assert [(r.t, r.k) for r in rows] == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
    assert all(r.status == STATUS_OK for r in rows)
    assert all(r.kq == r.n - 2 * r.d + 2 for r in rows)
    assert all(r.d == r.K + 1 for r in rows)


def test_sweep_q4_extended_includes_excluded_row():
    rows = sweep([4], "theorem2")
    excluded = [r for r in rows if r.status == STATUS_EXCLUDED]
    assert len(excluded) == 1
    row = excluded[0]
    assert (row.t, row.k, row.d) == (3, 3, 4)
    assert all(r.status == STATUS_OK for r in rows if r is not row)


def test_sweep_q2_contains_the_four_qubit_code():
    rows = sweep([2], "theorem1")
    assert any((r.t, r.k, r.n, r.kq, r.d) == (2, 1, 4, 2, 2) for r in rows)


def test_sweep_rejects_bad_family_and_q():
    with pytest.raises(ParameterError):
        sweep([3], "other")
    with pytest.raises(ParameterError):
        sweep([6], "theorem1")
    with pytest.raises(ParameterError):
        sweep([1], "both")


def test_sweep_is_a_pure_function():
    assert sweep([2, 3], "both") == sweep([2, 3], "both")


def test_csv_emission_shape():
    rows = sweep([3], "theorem1")
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    assert lines[1] == "3,1,1,theorem1,3,1,3,3,1,2,ok"
    assert text.endswith("\n")


def test_empty_emission_is_header_only():
    assert rows_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_json_round_trip():
    rows = sweep([2, 3], "both")
    assert [SweepRow(**obj) for obj in json.loads(rows_to_json(rows))] == rows


def test_emit_to_stream_and_file(tmp_path):
    rows = sweep([2], "both")
    buf = io.StringIO()
    emit(rows, "csv", buf)
    path = tmp_path / "rows.csv"
    emit(rows, "csv", str(path))
    assert path.read_text() == buf.getvalue()
    with pytest.raises(ValueError):
        emit(rows, "xml", buf)


def test_emission_is_byte_identical_across_runs():
    a = rows_to_csv(sweep([2, 3], "both"))
    b = rows_to_csv(sweep([2, 3], "both"))
    assert a == b


def test_sweep_row_dict_key_order():
    row = sweep([2], "theorem1")[0]
    assert tuple(row.as_dict()) == CSV_COLUMNS


# ----------------------------------------------------------------------
# nonexistence search
# ----------------------------------------------------------------------

def test_five_one_five_nonexistence():
    record = five_one_five_search()
    assert record.confirmed
    assert record.candidates_examined == 81


def test_five_one_five_single_candidate_argument():
    # the all-ones candidate: each coordinate has norm 1, so the Hermitian
    # self-product is five ones, which is 1 in characteristic 2
    acc = 0
    for c in (1, 1, 1, 1, 1):
        acc = F4.add(acc, F4.norm(c))
    assert acc == 1 != 0


def test_candidates_with_zero_coordinates_are_out_of_scope():
    # weight below 5 contradicts distance 5, so the search space is exactly
    # the all-nonzero generators up to scaling: 3^4 classes
    assert 3 ** 4 == 81


# ----------------------------------------------------------------------
# identity suites
# ----------------------------------------------------------------------

def test_identity_suites_all_pass_for_small_q():
    for q in (2, 3):
        suites = identity_suites(q, trials=60)
        assert all(s.passed for s in suites), [s for s in suites if not s.passed]
        names = {s.name for s in suites}
        assert "dual-span" in names and "multiplicative-coset-products" in names
        if q == 3:
            assert "special-multiplier-expansion" in names


def test_identity_suites_exhaustive_dual_span_for_tiny_fields():
    # order <= 9 fields take every point subset; count them for GF(4)
    suites = identity_suites(2, trials=10)
    dual = next(s for s in suites if s.name == "dual-span")
    # n=2: 6 subsets * 1 k; n=3: 4 subsets * 2 k; n=4: 1 subset * 3 k
    assert dual.cases == 6 * 1 + 4 * 2 + 1 * 3
