"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts it exactly (everything
here is exact arithmetic, zero tolerance), and prints one PASS line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import math
import subprocess
import sys
import time

from qmds.cli import main as cli_main
from qmds.construct import (
    FAMILY_ADDITIVE,
    FAMILY_EXTENDED,
    additive_coset_code,
    grid,
    multiplicative_coset_code,
    quantum_params_for_distance,
)
from qmds.grs import (
    BRUTE_FORCE_CAP,
    RANK_TEST_CAP,
    as_linear_code,
    is_hermitian_self_orthogonal,
    is_mds_by_rank,
    min_distance_bruteforce,
)
from qmds.verify import (
    STATUS_EXCLUDED,
    STATUS_OK,
    derive_quantum,
    five_one_five_search,
    identity_suites,
    sweep,
    verify_construction,
)

SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)

#: sha256 of the default sweep's CSV: the byte-for-byte output contract.
SWEEP_SHA256 = "d3e6323e6eb953b6b8942293e21a629841b646b0006b59269f55a41337e930ed"

#: sha256 of `qmds sweep --q 11 --format csv`: the same contract past the
#: default grid.
SWEEP_Q11_SHA256 = "ba59f32bd27f68e1c402e226df5ad325618e0630e0da45422736b4827bb663eb"


def _report(number, label):
    print(f"ACCEPTANCE {number} {label}: PASS")


def _admissible(family):
    for q in SWEEP_Q:
        for t, k, excluded in grid(q, family):
            if not excluded:
                yield q, t, k


def test_criterion_1_additive_family_exact_self_orthogonality():
    start = time.perf_counter()
    checked = 0
    for q, t, k in _admissible(FAMILY_ADDITIVE):
        res = additive_coset_code(q, t, k)
        ok, witness = is_hermitian_self_orthogonal(res.code)
        assert ok, f"q={q} t={t} k={k}: witness {witness}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"suite took {elapsed:.1f}s, budget is 5 minutes"
    _report(1, f"additive family self-orthogonal ({checked} codes, {elapsed:.1f}s)")


def test_criterion_2_extended_family_exact_self_orthogonality():
    start = time.perf_counter()
    checked = 0
    special = 0
    for q, t, k in _admissible(FAMILY_EXTENDED):
        res = multiplicative_coset_code(q, t, k)
        ok, witness = is_hermitian_self_orthogonal(res.code)
        assert ok, f"q={q} t={t} k={k}: witness {witness}"
        if res.quantum.provenance == "prop1-special":
            special += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"suite took {elapsed:.1f}s, budget is 10 minutes"
    assert special == 4  # odd q in the sweep set: 3, 5, 7, 9
    _report(
        2,
        f"extended family self-orthogonal ({checked} codes, "
        f"{special} special-case, {elapsed:.1f}s)",
    )


def test_criterion_3_named_instances_reproduce():
    expected = [
        (additive_coset_code(3, 3, 2), (9, 5, 3, 3)),
        (additive_coset_code(4, 4, 3), (16, 10, 4, 4)),
        (quantum_params_for_distance(3, 2, 4), (10, 4, 4, 3)),
        (quantum_params_for_distance(5, 4, 6), (26, 16, 6, 5)),
    ]
    for res, params in expected:
        qp = res.quantum
        assert (qp.n, qp.k, qp.d, qp.q) == params
        report = verify_construction(res)
        assert report.passed, (params, report)
    # length q^2, d <= q for the full additive design
    full = additive_coset_code(4, 4, 3)
    assert full.code.n == 16 and full.quantum.d <= 4

    # [[10,6,3]]_3 through the special-case [10,2,9] classical code
    special = multiplicative_coset_code(3, 2, 2)
    lc = as_linear_code(special.code)
    assert (lc.length, lc.k) == (10, 2)
    assert min_distance_bruteforce(lc) == 9
    assert verify_construction(special).passed
    qp = derive_quantum(special.code, provenance="prop1-special")
    assert (qp.n, qp.k, qp.d, qp.q) == (10, 6, 3, 3)
    _report(3, "named instances reproduce end-to-end")


def test_criterion_4_distance_oracles():
    brute_checked = 0
    rank_checked = 0
    for family in (FAMILY_ADDITIVE, FAMILY_EXTENDED):
        for q, t, k in _admissible(family):
            if family == FAMILY_ADDITIVE:
                res = additive_coset_code(q, t, k)
            else:
                res = multiplicative_coset_code(q, t, k)
            lc = as_linear_code(res.code)
            expected = lc.length - lc.k + 1
            order = res.code.field.order
            if order ** k <= BRUTE_FORCE_CAP:
                assert min_distance_bruteforce(lc) == expected, (family, q, t, k)
                brute_checked += 1
            elif math.comb(lc.length, k) <= RANK_TEST_CAP:
                assert is_mds_by_rank(lc), (family, q, t, k)
                rank_checked += 1
    assert brute_checked and rank_checked
    _report(
        4,
        f"distance oracles exact ({brute_checked} brute-force, "
        f"{rank_checked} rank-test)",
    )


def test_criterion_5_identity_suites_for_all_q():
    for q in SWEEP_Q:
        suites = identity_suites(q, trials=200)
        failed = [s.name for s in suites if not s.passed]
        assert not failed, f"q={q}: {failed}"
        by_name = {s.name: s for s in suites}
        # membership criteria get at least 200 random trials per field
        assert by_name["hermitian-membership"].cases >= 200
        assert by_name["extended-hermitian-membership"].cases >= 200
        # tiny fields get the fully exhaustive dual-span sweeps
        if q in (2, 3):
            n_max = min(10, q * q)
            expected_cases = sum(
                math.comb(q * q, n) * (n - 1) for n in range(2, n_max + 1)
            )
            assert by_name["dual-span"].cases == expected_cases
    _report(5, f"identity suites exact for q in {SWEEP_Q}")


def test_criterion_6_nonexistence_search():
    start = time.perf_counter()
    record = five_one_five_search()
    elapsed = time.perf_counter() - start
    assert record.confirmed
    assert record.candidates_examined == 81
    assert elapsed < 1.0, f"search took {elapsed:.3f}s, budget is 1 second"
    _report(6, f"[5,1,5] nonexistence confirmed ({elapsed * 1000:.1f}ms)")


def test_criterion_7_exclusion_handling(capsys):
    for q in (4, 8):
        rc = cli_main(
            ["construct", "theorem2", "--q", str(q), "--t", str(q - 1), "--d", str(q)]
        )
        captured = capsys.readouterr()
        assert rc == 2, f"q={q} expected exit 2, got {rc}"
        assert "excluded" in captured.err
        rows = sweep([q], "theorem2")
        marked = [r for r in rows if r.status == STATUS_EXCLUDED]
        assert [(r.t, r.k, r.d) for r in marked] == [(q - 1, q - 1, q)]
    _report(7, "excluded triples exit 2 and appear as excluded-by-paper rows")


def test_criterion_8_full_sweep_is_byte_identical(tmp_path):
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"sweep{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qmds.cli", "sweep", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    header, *rows = outputs[0].decode().splitlines()
    assert header == "q,t,k,family,N,K,D,n,kq,d,status"
    assert len(rows) == 272
    assert hashlib.sha256(outputs[0]).hexdigest() == SWEEP_SHA256
    statuses = [row.rsplit(",", 1)[1] for row in rows]
    assert statuses.count(STATUS_OK) == 269
    assert statuses.count(STATUS_EXCLUDED) == 3
    _report(8, f"two independent full sweeps byte-identical ({len(rows)} rows)")


def test_sweep_past_the_default_grid_is_byte_identical(capsys):
    assert cli_main(["sweep", "--q", "11", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, *rows = out.splitlines()
    assert header == "q,t,k,family,N,K,D,n,kq,d,status"
    assert len(rows) == 130
    assert [row.rsplit(",", 1)[1] for row in rows].count(STATUS_OK) == 130
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_Q11_SHA256
