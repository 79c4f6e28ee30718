"""The value types: read-only after construction, equal and hashed by
value where the program relies on it, and validated on construction."""

import copy
import pickle
import re

import pytest

from qmds.construct import ConstructionResult, QuantumParams
from qmds.field import PrimeField, make_field
from qmds.grs import GRSCode, LinearCode
from qmds.verify import NonexistenceRecord, SuiteResult, SweepRow, VerificationReport

F4 = make_field(2, 1)


def instances():
    """One instance of each value type, with the name of one of its fields."""
    code = GRSCode(F4, (0, 1, 2), (1, 1, 1), 2)
    qp = QuantumParams(9, 5, 3, 3)
    return [
        (PrimeField(5), "p"),
        (code, "a"),
        (LinearCode(F4, [[1, 0, 1], [0, 1, 1]]), "rows"),
        (qp, "k"),
        (ConstructionResult(code=code, witnesses={"w": [1, 1, 1]}), "code"),
        (VerificationReport(
            identity="code", hermitian_self_orthogonal=True, hermitian_witness=None,
            distance_method="brute", measured_distance=2, mds=True,
            witnesses=None, elapsed=0.0,
        ), "mds"),
        (SweepRow(q=2, t=1, k=1, family="theorem1", N=2, K=1, D=2, n=2, kq=0, d=2, status="ok"),
         "status"),
        (NonexistenceRecord(confirmed=True, candidates_examined=81), "confirmed"),
        (SuiteResult(name="dual-span", cases=1, passed=True), "passed"),
    ]


INSTANCES = instances()
IDS = [type(obj).__name__ for obj, _ in INSTANCES]


@pytest.mark.parametrize("obj, name", INSTANCES, ids=IDS)
def test_fields_are_read_only(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("obj", [obj for obj, _ in INSTANCES], ids=IDS)
def test_copies_are_equal(obj):
    assert copy.copy(obj) == copy.deepcopy(obj) == pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize(
    "cls, one, same, other",
    [
        (PrimeField, (5,), (5,), (7,)),
        (GRSCode, (F4, (0, 1, 2), (1, 1, 1), 2), (F4, [0, 1, 2], [1, 1, 1], 2),
         (F4, (0, 1, 3), (1, 1, 1), 2)),
        (GRSCode, (F4, (0, 1), (1, 1), 3, True), (F4, [0, 1], (1, 1), 3, True),
         (F4, (0, 1), (1, 1), 2, True)),
        (LinearCode, (F4, ((1, 0), (0, 1))), (F4, [[1, 0], [0, 1]], 2), (F4, [[1, 0]])),
        (QuantumParams, (9, 5, 3, 3), [9, 5, 3, 3], (9, 7, 2, 3)),
    ],
    ids=["PrimeField", "GRSCode", "GRSCode-extended", "LinearCode", "QuantumParams"],
)
def test_equal_values_give_equal_and_equally_hashed_instances(cls, one, same, other):
    # lists and tuples of the same elements, and defaults given or not, give
    # the same value
    assert cls(*one) == cls(*same) and hash(cls(*one)) == hash(cls(*same))
    assert cls(*one) != cls(*other)


def test_defaults():
    assert GRSCode(F4, (0, 1), (1, 1), 1).extended is False
    assert LinearCode(F4, [[1, 0, 1]]).length == 3
    assert LinearCode(F4, [], 4).length == 4
    assert QuantumParams(9, 5, 3, 3).degenerate is False
    assert QuantumParams.from_classical(4, 0, 2).degenerate is True


def test_records_store_no_fact_the_code_gives():
    # provenance and [[n, k, d]] are functions of the code, so no record
    # can hold ones that disagree with it
    assert QuantumParams.__slots__ == ("n", "k", "d", "q")
    assert ConstructionResult._fields == ("code", "witnesses")
    code = GRSCode(F4, (0, 1, 2), (1, 1, 1), 1)
    result = ConstructionResult(code=code, witnesses={"w": [1, 1, 1]})
    assert result.quantum == QuantumParams(3, 1, 2, 2)
    with pytest.raises(ValueError):
        result._replace(quantum=QuantumParams(3, 3, 1, 2))
    with pytest.raises(AttributeError):
        result.quantum = QuantumParams(3, 3, 1, 2)


def test_quantum_params_read_degenerate_from_the_distance():
    # degenerate follows d, so no argument may set it
    with pytest.raises(TypeError):
        QuantumParams(9, 5, 3, 3, True)
    qp = QuantumParams.from_classical(6, 0, 3)
    assert (qp.d, qp.degenerate) == (1, True)
    assert QuantumParams(6, 6, 1, 3) == qp
    assert "degenerate" not in repr(qp)  # a property, not a stored field
    with pytest.raises(AttributeError):
        qp.degenerate = False


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GRSCode(F4, (), (), 1), "at least one evaluation point is required"),
        (lambda: GRSCode(F4, (0, 1), (1,), 1), "multiplier vector length must match the point count"),
        (lambda: GRSCode(F4, (0, 4), (1, 1), 1), "evaluation point 4 is not an element of FieldTower(p=2, e=1)"),
        (lambda: GRSCode(F4, (0, True), (1, 1), 1), "evaluation point True is not an element of FieldTower(p=2, e=1)"),
        (lambda: GRSCode(F4, (1, 1), (1, 1), 1), "evaluation points must be distinct"),
        (lambda: GRSCode(F4, (0, 1), (1, 0), 1), "column multipliers must be nonzero"),
        (lambda: GRSCode(F4, (0, 1), (1, 1), 3), "dimension k=3 is not an int from 1 to 2"),
        (lambda: GRSCode(F4, (0, 1), (1, 1), 0, True), "dimension k=0 is not an int from 1 to 3"),
        (lambda: LinearCode(F4, [[1, 0], [0]]), "generator rows must all have the same length"),
        (lambda: LinearCode(F4, [[1, 0]], 3), "declared length disagrees with the generator rows"),
        (lambda: LinearCode(F4, [[1, 4]]), "generator entry 4 is not an element of FieldTower(p=2, e=1)"),
        (lambda: LinearCode(F4, [[1, 2], [2, 3]]), "generator matrix must have full row rank"),
        (lambda: LinearCode(F4, []), "length is required for a zero-dimensional code"),
        (lambda: QuantumParams(9, 6, 3, 3), "[[9,6,3]] violates k = n - 2d + 2"),
    ],
)
def test_invalid_values_are_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
