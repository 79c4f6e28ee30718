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
    design_of,
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

#: sha256 of the stdout of the benchmark's `construct-highdeg` and
#: `construct-large` calls: the same contract for `v`, `generator` and
#: `m_coeffs`, which the sweep's rows do not print.
CONSTRUCT_SHA256 = (
    ("theorem2", 16, 5, 3, "321c9500206ae0ebb702911f32e372c6ae9b8a4c30b5a7e23010e3ab2104583d"),
    ("theorem2", 9, 6, 2, "f55c5899e9bbaa00cf1d0c62811154fca52188d1d465f8f397d744f9235f7a0f"),
    ("theorem2", 8, 6, 2, "ecd41a0b6f65b772f0f1dfa15c77eb72915716ae1d8b1c325a94c98136968dfa"),
    ("theorem2", 8, 4, 2, "2d98f66f2887bf9d846ad0d765f8ae1b47bf1a0f969bccc636547a5e089209b2"),
    ("theorem2", 7, 5, 2, "4e0c131ee372eebffddabbaad9166e124cd34ddd23683bae7789eb4ecfba0959"),
    ("theorem1", 128, 1, 1, "1e317f4d0e0775e97746309c555780446f5fa522230380ef92a8b56585ae2ca1"),
    ("theorem1", 121, 2, 2, "fc71186b2545e4cb7c6e562e6c9b6008d04e6e3b662b186d2688440391aa98fb"),
    ("theorem2", 128, 2, 2, "aaff30f2dbdefbda01f0d801358c58e805b56e9478d9dd1ddb0014dc15802603"),
    ("theorem2", 127, 2, 2, "0dff861aac7d82410a29ea4b19799f955a818133f8ee7670fe7c3f74d07b6f4b"),
    ("theorem2", 125, 3, 3, "05ec700668c6d66c2ae581483cac29dc912956d1bba865d7c669c716834b3692"),
    ("theorem2", 128, 3, 3, "c1a87c13d6544f25f4b4b878940996ff757719ff4e4ad9a7f621fa2f192f0d47"),
)


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
        if design_of(res.code)[1] == "prop1-special":
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
    qp = derive_quantum(special.code)
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


# Suite names in report order, and each suite's case count per q; odd q
# adds the special-multiplier suite.
SUITE_NAMES = (
    "dual-span", "extended-dual-span", "hermitian-membership",
    "extended-hermitian-membership", "additive-coset-products",
    "multiplicative-coset-products", "unity-root-factorization",
    "unity-root-cofactors", "root-free-polynomials", "special-multiplier-expansion",
)
SUITE_CASES = {
    2: (17, 28, 200, 200, 20, 8, 1, 3, 2),
    3: (1793, 2295, 200, 200, 69, 28, 1, 4, 2, 9),
    4: (942, 1129, 200, 200, 176, 66, 1, 5, 2),
    5: (944, 1132, 200, 200, 375, 128, 1, 6, 2, 25),
    7: (945, 1134, 200, 200, 1225, 348, 1, 8, 2, 49),
    8: (945, 1134, 200, 200, 1984, 518, 1, 9, 2),
    9: (945, 1134, 200, 200, 3051, 736, 1, 10, 2, 81),
}


def test_criterion_5_identity_suites_for_all_q():
    for q in SWEEP_Q:
        suites = identity_suites(q)
        assert [(s.name, s.cases) for s in suites] == list(zip(SUITE_NAMES, SUITE_CASES[q]))
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


def test_construct_outputs_are_byte_identical(capsys):
    for family, q, t, x, digest in CONSTRUCT_SHA256:
        flag = "--k" if family == "theorem1" else "--d"
        argv = ["construct", family, "--q", str(q), "--t", str(t), flag, str(x)]
        assert cli_main(argv) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_sweep_past_the_default_grid_is_byte_identical(capsys):
    assert cli_main(["sweep", "--q", "11", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, *rows = out.splitlines()
    assert header == "q,t,k,family,N,K,D,n,kq,d,status"
    assert len(rows) == 130
    assert [row.rsplit(",", 1)[1] for row in rows].count(STATUS_OK) == 130
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_Q11_SHA256
