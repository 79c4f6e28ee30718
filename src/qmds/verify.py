"""Re-verification of constructed codes, the quantum parameters of a
classical code, parameter sweeps over both families, property suites for
every closed-form identity the constructions rely on, and the exhaustive
search showing no Hermitian self-orthogonal [5,1,5] code exists over GF(4).
_tally runs and counts every check of a suite, so a false identity is a
failed suite, never an exception.  The dual-span suites check each
closed-form dual basis by orthogonality and rank, the product suites each
closed form against grs.product_of_differences.

Verification policy: the Hermitian check is always exact; minimum distance
runs a strategy ladder on the code it is given (brute force while the code
has at most BRUTE_FORCE_CAP codewords, then the k-column rank test while
the subset count fits RANK_TEST_CAP, otherwise the MDS status certified by
the GRS construction is recorded as such).  A construction's witnesses
must pass construct.witness_error, the one witness check, which
load_code makes on a file too: among its rules, they must reproduce the
multipliers through construct.reconstruct_multipliers, the function the
constructors build them with, under the provenance construct.design_of
reads off the code.  A witness fault fails the report and never raises.
Quantum parameters and provenance are functions of the code, so no
construction can claim other ones.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from typing import IO, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .construct import (
    FAMILY_ADDITIVE,
    FAMILY_EXTENDED,
    ConstructionResult,
    PROVENANCE_ADDITIVE,
    AdditiveCosetDesign,
    MultiplicativeCosetDesign,
    ParameterError,
    QuantumParams,
    additive_coset_code,
    design_of,
    grid,
    multiplicative_coset_code,
    reconstruct_multipliers,
    special_scaling_poly,
    witness_error,
)
from .field import DEFAULT_ELEMENT_BOUND, FieldTower, field_for_prime_power, make_field
from .grs import (
    CapExceeded,
    GRSCode,
    LinearCode,
    as_linear_code,
    dual_basis,
    encode,
    hermitian_dual_contains,
    in_hermitian_dual,
    is_hermitian_self_orthogonal,
    is_mds_by_rank,
    min_distance_bruteforce,
    product_of_differences,
    row_products,
    w_vector,
)
from .linalg import rank
from .poly import Poly, root_free_monic
from .serialize import write_payload

#: Default q values covered by a sweep.
DEFAULT_SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)

FAMILIES = (FAMILY_ADDITIVE, FAMILY_EXTENDED, "both")

STATUS_OK = "ok"
STATUS_FAIL = "fail"
STATUS_EXCLUDED = "excluded-by-paper"

#: Random codewords per field in each Hermitian-membership suite.
MEMBERSHIP_TRIALS = 200

#: Largest point count in the dual-span suites, and the seeded subsets drawn
#: per point count on fields too large for every subset.
DUAL_SPAN_MAX_N = 10
DUAL_SPAN_SAMPLES = 20


class VerificationReport(NamedTuple):
    identity: str
    hermitian_self_orthogonal: bool
    hermitian_witness: Optional[Tuple[int, int, int]]
    distance_method: str  # "brute" | "rank" | "by-construction"
    measured_distance: Optional[int]
    mds: bool
    witnesses: Optional[str]  # None, or the fault construct.witness_error names
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.hermitian_self_orthogonal and self.mds and self.witnesses is None

    def as_dict(self) -> dict:
        # elapsed is deliberately left out: serialized reports must be
        # byte-stable across runs
        fields = self._asdict()
        del fields["elapsed"]
        return {**fields, "passed": self.passed}


def distance_ladder(code: Union[GRSCode, LinearCode]) -> Tuple[str, Optional[int], bool]:
    """(method, measured_distance, mds) for a GRS code or a LinearCode, per
    the kernels' caps.  Past both caps the method is "by-construction" with
    mds True, which only a GRS code's construction can back; callers
    holding a bare LinearCode must treat that rung as uncertified."""
    expected = code.length - code.k + 1
    try:
        measured = min_distance_bruteforce(code)
        return "brute", measured, measured == expected
    except CapExceeded:
        pass
    try:
        return "rank", None, is_mds_by_rank(code)
    except CapExceeded:
        # GRS / extended GRS codes are MDS by construction; record that no
        # independent method ran.
        return "by-construction", None, True


def derive_quantum(code: Union[GRSCode, LinearCode]) -> QuantumParams:
    """[[N, N-2k, k+1]]_q from a Hermitian self-orthogonal classical [N, k]
    MDS code over GF(q^2); raises if either premise fails.

    GRS codes are MDS by construction; a bare LinearCode gets a distance
    check through distance_ladder, and is refused when neither brute force
    nor the rank test fits its cap.  The k = 0 edge yields the degenerate
    [[N, N, 1]] parameters, flagged.
    """
    ok, witness = is_hermitian_self_orthogonal(code)
    if not ok:
        raise ValueError(f"code is not Hermitian self-orthogonal: witness {witness}")
    if isinstance(code, LinearCode) and code.k:
        method, _, mds = distance_ladder(code)
        if method == "by-construction":
            raise ValueError("cannot certify the MDS premise")
        if not mds:
            raise ValueError("code is not MDS")
    return QuantumParams.from_classical(code.length, code.k, code.field.q)


def verify_code(code: GRSCode, identity: str = "code") -> VerificationReport:
    """Exact Hermitian self-orthogonality and the MDS distance via the
    ladder, for a bare GRS code (e.g. parsed from a file, whose witnesses
    load_code checks), so the report names no witness fault."""
    start = time.perf_counter()
    ok, witness = is_hermitian_self_orthogonal(code)
    method, measured, mds = distance_ladder(code)
    return VerificationReport(
        identity=identity,
        hermitian_self_orthogonal=ok,
        hermitian_witness=witness,
        distance_method=method,
        measured_distance=measured,
        mds=mds,
        witnesses=None,
        elapsed=time.perf_counter() - start,
    )


def verify_construction(result: ConstructionResult) -> VerificationReport:
    """verify_code plus the witness check: the report's `witnesses` holds
    the fault construct.witness_error names, the check load_code makes on
    a file, and a report with a fault fails."""
    code = result.code
    t, provenance = design_of(code)
    report = verify_code(code, f"{provenance} q={code.field.q} t={t} k={code.k}")
    return report._replace(witnesses=witness_error(code, result.witnesses))


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

class SweepRow(NamedTuple):
    """One construction instance: classical [N, K, D] over GF(q^2) and the
    derived quantum [[n, kq, d]]_q, with its verification status."""

    q: int
    t: int
    k: int
    family: str
    N: int
    K: int
    D: int
    n: int
    kq: int
    d: int
    status: str


CSV_COLUMNS = SweepRow._fields


def sweep(
    q_list: Sequence[int] = DEFAULT_SWEEP_Q,
    family: str = "both",
    element_bound: int = DEFAULT_ELEMENT_BOUND,
) -> List[SweepRow]:
    """One verified row per admissible (q, t, k); excluded parameter triples
    appear as explicit rows rather than silent gaps.  Output is a pure
    function of the arguments."""
    if family not in FAMILIES:
        raise ParameterError(f"family must be one of {FAMILIES}, got {family!r}")
    repeated = [q for q in q_list if q_list.count(q) > 1]
    if repeated:
        raise ParameterError(f"q={repeated[0]} is listed more than once")
    families = (FAMILY_ADDITIVE, FAMILY_EXTENDED) if family == "both" else (family,)
    rows: List[SweepRow] = []
    for q in q_list:
        field_for_prime_power(q, element_bound)  # rejects q before any row
        for fam in families:
            build = additive_coset_code if fam == FAMILY_ADDITIVE else multiplicative_coset_code
            for t, k, excluded in grid(q, fam):
                if excluded:
                    length, status = t * (q + 1) + 2, STATUS_EXCLUDED
                else:
                    res = build(q, t, k, element_bound)
                    passed = verify_construction(res).passed
                    length, status = res.code.length, STATUS_OK if passed else STATUS_FAIL
                qp = QuantumParams.from_classical(length, k, q)
                rows.append(SweepRow(
                    q=q, t=t, k=k, family=fam, N=length, K=k, D=length - k + 1,
                    n=qp.n, kq=qp.k, d=qp.d, status=status,
                ))
    return rows


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[SweepRow]) -> str:
    return json.dumps([row._asdict() for row in rows], indent=2) + "\n"


def emit(rows: Sequence[SweepRow], fmt: str, destination: Union[str, IO[str]]) -> None:
    """Write rows in the given format ("csv" or "json"); bit-stable output."""
    formats = {"csv": rows_to_csv, "json": rows_to_json}
    if fmt not in formats:
        raise ValueError(f"unknown format {fmt!r}")
    write_payload(formats[fmt](rows), destination)


# ----------------------------------------------------------------------
# Nonexistence of a Hermitian self-orthogonal [5,1,5] code over GF(4)
# ----------------------------------------------------------------------

class NonexistenceRecord(NamedTuple):
    confirmed: bool
    candidates_examined: int


def five_one_five_search() -> NonexistenceRecord:
    """Exhaustive check that no Hermitian self-orthogonal [5,1,5] MDS code
    exists over GF(4).

    Distance 5 forces every generator coordinate nonzero, and a
    one-dimensional code is self-orthogonal iff the generator's Hermitian
    inner product with itself vanishes.  Scaling the generator scales that
    sum by a norm, so normalizing the first coordinate to 1 leaves 3**4 = 81
    candidate classes; each is examined.
    """
    F = make_field(2, 1)
    examined = 0
    for tail in itertools.product(F.nonzero_elements(), repeat=4):
        examined += 1
        total = F.norm(1)
        for c in tail:
            total = F.add(total, F.norm(c))
        if total == 0:
            return NonexistenceRecord(confirmed=False, candidates_examined=examined)
    return NonexistenceRecord(confirmed=True, candidates_examined=examined)


# ----------------------------------------------------------------------
# Property suites behind the check-lemmas subcommand
# ----------------------------------------------------------------------

class SuiteResult(NamedTuple):
    name: str
    cases: int
    passed: bool


def _tally(name: str, checks: Iterable[bool]) -> SuiteResult:
    """Run every check, even after one fails, and count them."""
    results = list(checks)
    return SuiteResult(name, len(results), all(results))


def _point_sets(field: FieldTower):
    """Point sets for the dual-span suites: exhaustive subsets when the
    field is small enough, otherwise canonical prefixes plus a seeded
    sample of subsets."""
    order = field.order
    sizes = range(2, min(DUAL_SPAN_MAX_N, order) + 1)
    if order <= 9:
        for n in sizes:
            yield from itertools.combinations(range(order), n)
    else:
        rng = random.Random(order)
        for n in sizes:
            seen = {tuple(range(n))}
            yield tuple(range(n))
            for _ in range(DUAL_SPAN_SAMPLES):
                cand = tuple(sorted(rng.sample(range(order), n)))
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def _suite_dual_spans(field: FieldTower, extended: bool) -> SuiteResult:
    """The closed-form dual basis D of each unit-multiplier code spans its
    Euclidean dual: every row of D is orthogonal to every generator row,
    rank(D) == len(D), and len(D) == length - k.  The generator's rank is
    k because the LinearCode it builds checks full row rank."""

    def spans(points: Tuple[int, ...], k: int) -> bool:
        code = as_linear_code(GRSCode(field, points, (1,) * len(points), k, extended=extended))
        described = dual_basis(field, points, k, extended)
        return (
            not any(any(row_products(field, d, code.rows)) for d in described)
            and len(described) == code.length - code.k == rank(field, described)
        )

    checks = (
        spans(points, k)
        for points in _point_sets(field)
        for k in range(1, len(points) + 1 if extended else len(points))
    )
    return _tally("extended-dual-span" if extended else "dual-span", checks)


def _suite_membership(field: FieldTower, extended: bool) -> SuiteResult:
    rng = random.Random(field.order * 2 + int(extended))

    def agrees() -> bool:
        n = rng.randrange(2, min(8, field.order) + 1)
        points = tuple(rng.sample(range(field.order), n))
        k = rng.randrange(1, n + 1)
        v = tuple(rng.randrange(1, field.order) for _ in range(n))
        code = GRSCode(field, points, v, k, extended=extended)
        f = Poly(field, [rng.randrange(field.order) for _ in range(k)])
        return in_hermitian_dual(code, f) == hermitian_dual_contains(code, encode(code, f))

    name = "extended-hermitian-membership" if extended else "hermitian-membership"
    return _tally(name, (agrees() for _ in range(MEMBERSHIP_TRIALS)))


def _suite_additive_products(field: FieldTower) -> SuiteResult:
    """Each AdditiveCosetDesign closed form against the product it names;
    per point, w_i against w_vector and the multipliers' norm equations
    solvable (reconstruct_multipliers returns None otherwise)."""
    sub = field.subfield_elements()
    checks: List[bool] = []
    for t in sorted({t for t, _, _ in grid(field.q, FAMILY_ADDITIVE)}):
        design = AdditiveCosetDesign(field, t)
        cosets = [design.coset_elements(s) for s in range(t)]
        checks += (
            product_of_differences(field, field.mul(tau, design.alpha), sub)
            == design.full_span_product(tau)
            for tau in sub
        )
        checks += (
            product_of_differences(field, b, (h for h in coset if h != b))
            == design.within_coset_product()
            for coset in cosets
            for b in coset
        )
        checks += (
            product_of_differences(field, b, other) == design.cross_coset_product(s, j)
            for s, coset in enumerate(cosets)
            for j, other in enumerate(cosets)
            if j != s
            for b in coset
        )
        brute_w = w_vector(field, design.points)
        v = reconstruct_multipliers(field, design.points, PROVENANCE_ADDITIVE, {"w": brute_w})
        checks += (w == design.weights[i] and v is not None for i, w in enumerate(brute_w))
    return _tally("additive-coset-products", checks)


def _suite_multiplicative_products(field: FieldTower) -> SuiteResult:
    """Per point of each MultiplicativeCosetDesign: the closed-form
    difference product is the inverse of w_vector's w_i and lies in GF(q),
    and gamma_i solves gamma_i**(q+1) == -w_i."""
    checks: List[bool] = []
    for t in sorted({t for t, _, _ in grid(field.q, FAMILY_EXTENDED)}):
        design = MultiplicativeCosetDesign(field, t)
        try:
            gamma = design.gamma()
        except ValueError:  # some -w_i is not a norm: no gamma_i can pass
            gamma = (0,) * design.n
        for i, w in enumerate(w_vector(field, design.points)):
            closed = design.difference_product(i)
            checks.append(field.mul(w, closed) == 1 and field.in_subfield(closed))
            checks.append(gamma[i] != 0 and field.norm(gamma[i]) == field.neg(design.weights[i]))
    return _tally("multiplicative-coset-products", checks)


def _suite_unity_root_factorization(field: FieldTower) -> SuiteResult:
    q = field.q
    theta = field.root_of_unity(q + 1)
    prod = Poly.one(field)
    for l in range(q + 1):
        prod = prod * Poly(field, (field.neg(field.pow(theta, l)), 1))
    target = Poly(field, [field.neg(1)] + [0] * q + [1])
    return _tally("unity-root-factorization", [prod == target])


def _suite_unity_root_cofactors(field: FieldTower) -> SuiteResult:
    """prod_{l != m}(theta**m - theta**l) == theta**(q*m) for each m."""
    q = field.q
    theta = field.root_of_unity(q + 1)
    roots = [field.pow(theta, l) for l in range(q + 1)]
    checks = (
        product_of_differences(field, r, (h for h in roots if h != r)) == field.pow(theta, q * m)
        for m, r in enumerate(roots)
    )
    return _tally("unity-root-cofactors", checks)


def _suite_root_free(field: FieldTower) -> SuiteResult:
    def root_free(m: Poly, degree: int) -> bool:
        return m.is_monic() and m.degree == degree and all(m(x) != 0 for x in field.elements())

    checks = (root_free(root_free_monic(field, degree), degree) for degree in (2, 3))
    return _tally("root-free-polynomials", checks)


def _suite_special_multiplier(field: FieldTower) -> SuiteResult:
    """Expansion of the norm of m(x) = x**q + x - pi: with s = a**q + a,
    m(a)**(q+1) = (s - pi**q)(s - pi)
                = a**2 + a**2q + 2a**(q+1) - (pi + pi**q)(a**q + a) + pi**(q+1)
    at every point a.  Odd characteristic only (the 2a**(q+1) term, which
    the special-case multiplier relies on, vanishes mod 2)."""
    q = field.q
    pi = field.generator
    m = special_scaling_poly(field)
    two = field.from_int(2)
    pi_trace = field.add(pi, field.frobenius(pi))

    def expands(a: int) -> bool:
        rhs = field.add(field.mul(a, a), field.pow(a, 2 * q))
        rhs = field.add(rhs, field.mul(two, field.norm(a)))
        rhs = field.sub(rhs, field.mul(pi_trace, field.add(field.frobenius(a), a)))
        rhs = field.add(rhs, field.norm(pi))
        return field.norm(m(a)) == rhs

    return _tally("special-multiplier-expansion", (expands(a) for a in field.elements()))


def identity_suites(q: int, element_bound: int = DEFAULT_ELEMENT_BOUND) -> List[SuiteResult]:
    """All property suites for one q: dual spans, membership criteria,
    coset product closed forms, root-of-unity identities, norm-equation
    multipliers, root-free polynomials, and (odd q) the special-case
    multiplier expansion."""
    field = field_for_prime_power(q, element_bound)
    suites = [
        _suite_dual_spans(field, extended=False),
        _suite_dual_spans(field, extended=True),
        _suite_membership(field, extended=False),
        _suite_membership(field, extended=True),
        _suite_additive_products(field),
        _suite_multiplicative_products(field),
        _suite_unity_root_factorization(field),
        _suite_unity_root_cofactors(field),
        _suite_root_free(field),
    ]
    if field.p != 2:
        suites.append(_suite_special_multiplier(field))
    return suites
