import random

import pytest

from qmds.construct import (
    FAMILY_ADDITIVE,
    FAMILY_EXTENDED,
    AdditiveCosetDesign,
    ExcludedParameters,
    MultiplicativeCosetDesign,
    ParameterError,
    QuantumParams,
    additive_coset_code,
    dimension_bound,
    grid,
    multiplicative_coset_code,
    quantum_params_for_distance,
    reconstruct_multipliers,
    select_scaling_poly,
)
from qmds.field import field_for_prime_power, make_field
from qmds.grs import (
    LinearCode,
    as_linear_code,
    in_hermitian_dual,
    is_hermitian_self_orthogonal,
    min_distance_bruteforce,
)
from qmds.poly import Poly
from qmds.verify import derive_quantum

SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)


def _multiplier_inputs(res):
    return res.code.field, res.code.a, res.quantum.provenance, res.witnesses


def brute_difference_product(F, points, i):
    acc = 1
    for j, x in enumerate(points):
        if j != i:
            acc = F.mul(acc, F.sub(points[i], x))
    return acc


# ----------------------------------------------------------------------
# additive-coset design
# ----------------------------------------------------------------------

def test_additive_points_smallest_case():
    F = make_field(2, 1)
    design = AdditiveCosetDesign(F, 1)
    # the first coset representative is 0, so the points are GF(2) itself
    assert set(design.points) == {0, 1}
    assert design.n == 2


@pytest.mark.parametrize("q", SWEEP_Q)
def test_additive_points_distinct_and_cover(q):
    F = field_for_prime_power(q)
    for t in range(1, q + 1):
        design = AdditiveCosetDesign(F, t)
        assert len(set(design.points)) == t * q
    full = AdditiveCosetDesign(F, q)
    assert set(full.points) == set(F.elements())


def test_additive_design_rejects_bad_t():
    F = make_field(3, 1)
    for t in (0, 4):
        with pytest.raises(ParameterError):
            AdditiveCosetDesign(F, t)


def test_additive_closed_forms_trivia():
    F = make_field(3, 1)
    design = AdditiveCosetDesign(F, 2)
    assert design.full_span_product(0) == 0
    assert design.within_coset_product() == F.pow(F.neg(1), 3) == F.from_int(2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_additive_closed_forms_match_brute_products(q):
    F = field_for_prime_power(q)
    sub = F.subfield_elements()
    for t in range(1, q + 1):
        design = AdditiveCosetDesign(F, t)
        for tau in sub:
            acc = 1
            for h in sub:
                acc = F.mul(acc, F.sub(F.mul(tau, design.alpha), h))
            assert acc == design.full_span_product(tau)
        for s in range(t):
            for b in design.coset_elements(s):
                acc = 1
                for h in design.coset_elements(s):
                    if h != b:
                        acc = F.mul(acc, F.sub(b, h))
                assert acc == design.within_coset_product()
                for j in range(t):
                    if j != s:
                        acc = 1
                        for h in design.coset_elements(j):
                            acc = F.mul(acc, F.sub(b, h))
                        assert acc == design.cross_coset_product(s, j)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_additive_difference_products_and_subfield_units(q):
    F = field_for_prime_power(q)
    for t in range(1, q + 1):
        design = AdditiveCosetDesign(F, t)
        for i in range(design.n):
            assert design.difference_product(i) == brute_difference_product(
                F, design.points, i
            )
            unit = design.subfield_unit(i)
            assert unit != 0 and F.in_subfield(unit)


def test_additive_single_coset_reduces_to_sign():
    F = make_field(3, 1)
    design = AdditiveCosetDesign(F, 1)
    for i in range(design.n):
        assert design.difference_product(i) == F.pow(F.neg(1), 3)


# ----------------------------------------------------------------------
# additive-coset construction
# ----------------------------------------------------------------------

def test_grid_over_the_default_q_set():
    rows = [
        (q, family, t, k, excluded)
        for q in SWEEP_Q
        for family in (FAMILY_ADDITIVE, FAMILY_EXTENDED)
        for t, k, excluded in grid(q, family)
    ]
    assert len(rows) == 272
    assert [(q, family, t, k) for q, family, t, k, excluded in rows if excluded] == [
        (q, FAMILY_EXTENDED, q - 1, q - 1) for q in (2, 4, 8)
    ]
    assert list(grid(3, FAMILY_ADDITIVE)) == [
        (1, 1, False), (2, 1, False), (2, 2, False), (3, 1, False), (3, 2, False)
    ]
    with pytest.raises(ParameterError):
        list(grid(3, "theorem3"))


def test_dimension_bound_values():
    assert dimension_bound(3, 3) == 2
    assert dimension_bound(4, 4) == 3
    assert dimension_bound(9, 9) == 8


def test_additive_construction_q3():
    res = additive_coset_code(3, 3, 2)
    assert (res.quantum.n, res.quantum.k, res.quantum.d, res.quantum.q) == (9, 5, 3, 3)
    assert res.quantum.provenance == "theorem1"
    assert is_hermitian_self_orthogonal(res.code)[0]
    assert reconstruct_multipliers(*_multiplier_inputs(res)) == res.code.v


def test_additive_construction_full_length_q4():
    res = additive_coset_code(4, 4, 3)
    assert (res.quantum.n, res.quantum.k, res.quantum.d, res.quantum.q) == (16, 10, 4, 4)
    assert res.code.n == 16  # length q^2
    assert res.quantum.d <= 4
    assert is_hermitian_self_orthogonal(res.code)[0]


def test_additive_construction_rejects_out_of_range():
    with pytest.raises(ParameterError, match="out of range"):
        additive_coset_code(3, 3, 3)  # k exceeds floor(11/4) = 2
    with pytest.raises(ParameterError, match="out of range"):
        additive_coset_code(3, 4, 1)
    with pytest.raises(ParameterError, match="out of range"):
        additive_coset_code(3, 0, 1)


def test_additive_membership_of_every_low_degree_message():
    rng = random.Random(20)
    res = additive_coset_code(3, 2, 2)
    for _ in range(25):
        f = Poly(res.code.field, [rng.randrange(9) for _ in range(res.code.k)])
        assert in_hermitian_dual(res.code, f)


def test_additive_degree_bookkeeping():
    # g = (alpha^q - alpha)^(t-1) * frobenius(f) has degree q*deg(f) <= n-k-1
    for q, t in ((3, 2), (4, 3), (5, 4)):
        F = field_for_prime_power(q)
        span = F.sub(F.frobenius(F.generator), F.generator)
        scale = F.pow(span, t - 1)
        n = t * q
        k = dimension_bound(q, t)
        rng = random.Random(q * t)
        for _ in range(10):
            f = Poly(F, [rng.randrange(1, F.order) for _ in range(k)])
            g = f.frobenius().scaled(scale)
            assert g.degree == F.q * f.degree
            assert g.degree <= n - k - 1


def test_construction_is_deterministic():
    a = additive_coset_code(5, 3, 2)
    b = additive_coset_code(5, 3, 2)
    assert a.code == b.code and a.witnesses == b.witnesses


# ----------------------------------------------------------------------
# multiplicative-coset design
# ----------------------------------------------------------------------

def test_multiplicative_points_example():
    F = make_field(3, 1)
    design = MultiplicativeCosetDesign(F, 1)
    w = F.generator
    expected = (1, F.pow(w, 2), F.pow(w, 4), F.pow(w, 6), 0)
    assert design.points == expected == (1, 3, 5, 7, 0)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_multiplicative_points_sizes_and_cover(q):
    F = field_for_prime_power(q)
    for t in range(1, q):
        design = MultiplicativeCosetDesign(F, t)
        assert len(set(design.points)) == t * (q + 1) + 1
        assert design.points[-1] == 0
        assert design.points.count(0) == 1
    full = MultiplicativeCosetDesign(F, q - 1)
    assert set(full.points) == set(F.elements())


def test_multiplicative_zero_product_example():
    F = make_field(3, 1)
    design = MultiplicativeCosetDesign(F, 1)
    # brute product over (1, w^2, w^4, w^6)
    acc = 1
    for x in design.points[:-1]:
        acc = F.mul(acc, F.sub(0, x))
    assert design.zero_difference_product() == acc == F.from_int(2)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_multiplicative_difference_products(q):
    F = field_for_prime_power(q)
    for t in range(1, q):
        design = MultiplicativeCosetDesign(F, t)
        for i in range(design.n):
            closed = design.difference_product(i)
            assert closed == brute_difference_product(F, design.points, i)
            assert F.in_subfield(closed)


def test_multiplicative_single_coset_product_is_a_norm():
    F = make_field(3, 1)
    design = MultiplicativeCosetDesign(F, 1)
    for i in range(design.n - 1):
        assert design.nonzero_difference_product(i) == F.norm(design.points[i])


@pytest.mark.parametrize("q", SWEEP_Q)
def test_gamma_solves_the_norm_equation(q):
    F = field_for_prime_power(q)
    for t in range(1, q):
        design = MultiplicativeCosetDesign(F, t)
        gamma = design.gamma()
        assert gamma == design.gamma()  # deterministic
        for i, g in enumerate(gamma):
            assert g != 0
            assert F.norm(g) == F.neg(design.w(i))


# ----------------------------------------------------------------------
# scaling polynomial selection
# ----------------------------------------------------------------------

def test_scaling_poly_constant_when_dimension_is_maximal():
    F = make_field(3, 1)
    design = MultiplicativeCosetDesign(F, 2)
    assert select_scaling_poly(design, 3) == Poly.one(F)


def test_scaling_poly_linear_case_uses_first_unused_point():
    F = field_for_prime_power(4)
    design = MultiplicativeCosetDesign(F, 2)  # t=2 < q-1=3, 11 points
    m = select_scaling_poly(design, 2)  # ell = 1
    assert m.degree == 1 and m.is_monic()
    root = F.neg(m.coeff(0))
    assert root not in design.points
    assert all(x in design.points for x in range(root))  # first unused


def test_scaling_poly_quadratic_and_higher_are_root_free():
    F = field_for_prime_power(5)
    design = MultiplicativeCosetDesign(F, 4)
    for k in (1, 2, 3):
        m = select_scaling_poly(design, k)
        assert m.degree == 4 + 1 - k
        assert all(m(a) != 0 for a in design.points)


def test_scaling_poly_special_case_q3():
    F = make_field(3, 1)
    design = MultiplicativeCosetDesign(F, 2)
    m = select_scaling_poly(design, 2)  # (t, k) = (q-1, q-1), odd p
    pi = F.generator
    expected = Poly(F, (F.neg(pi), 1, 0, 1))  # x^3 + x - pi
    assert m == expected
    assert all(m(a) != 0 for a in F.elements())


def test_scaling_poly_even_characteristic_corner_excluded():
    F = field_for_prime_power(4)
    design = MultiplicativeCosetDesign(F, 3)
    with pytest.raises(ExcludedParameters):
        select_scaling_poly(design, 3)


def test_special_multiplier_norm_expansion():
    # norm(m(a)) for m = x^q + x - pi: with s = a^q + a the norm is
    # (s - pi^q)(s - pi) = s^2 - (pi + pi^q)s + pi^(q+1), and expanding
    # s^2 = a^2 + 2a^(q+1) + a^2q gives the pointwise identity below
    for q in (3, 5, 7, 9):
        F = field_for_prime_power(q)
        pi = F.generator
        coeffs = [0] * (q + 1)
        coeffs[0] = F.neg(pi)
        coeffs[1] = 1
        coeffs[q] = F.add(coeffs[q], 1)
        m = Poly(F, coeffs)
        two = F.from_int(2)
        trace = F.add(pi, F.frobenius(pi))
        for a in F.elements():
            rhs = F.add(F.mul(a, a), F.pow(a, 2 * q))
            rhs = F.add(rhs, F.mul(two, F.norm(a)))
            rhs = F.sub(rhs, F.mul(trace, F.add(F.frobenius(a), a)))
            rhs = F.add(rhs, F.norm(pi))
            assert F.norm(m(a)) == rhs


# ----------------------------------------------------------------------
# extended construction
# ----------------------------------------------------------------------

def test_extended_construction_general_case():
    res = multiplicative_coset_code(3, 2, 3)
    assert res.code.length == 10 and res.code.k == 3 and res.code.extended
    assert res.quantum.provenance == "prop1-general"
    assert is_hermitian_self_orthogonal(res.code)[0]
    assert reconstruct_multipliers(*_multiplier_inputs(res)) == res.code.v
    assert set(res.witnesses) == {"w", "m_coeffs", "gamma"}


def test_extended_construction_special_case():
    res = multiplicative_coset_code(3, 2, 2)
    assert res.quantum.provenance == "prop1-special"
    assert res.code.length == 10 and res.code.k == 2
    assert is_hermitian_self_orthogonal(res.code)[0]
    assert reconstruct_multipliers(*_multiplier_inputs(res)) == res.code.v
    # classical distance 9: [q^2+1, q-1, q^2-q+3] for q=3
    assert min_distance_bruteforce(as_linear_code(res.code)) == 9
    # the special multiplier has norm 1/2
    F = res.code.field
    unit = F.solve_norm(F.inv(F.from_int(2)))
    assert F.norm(unit) == F.inv(F.from_int(2))


def test_extended_construction_rejections():
    with pytest.raises(ExcludedParameters, match="excluded"):
        multiplicative_coset_code(4, 3, 3)
    with pytest.raises(ParameterError, match="out of range"):
        multiplicative_coset_code(3, 3, 1)  # t > q-1
    with pytest.raises(ParameterError, match="out of range"):
        multiplicative_coset_code(3, 2, 4)  # k > t+1


def test_extended_membership_covers_both_coefficient_branches():
    rng = random.Random(21)
    res = multiplicative_coset_code(3, 2, 3)
    F = res.code.field
    k = res.code.k
    for _ in range(10):
        top = Poly(F, [rng.randrange(9) for _ in range(k - 1)] + [rng.randrange(1, 9)])
        low = Poly(F, [rng.randrange(9) for _ in range(k - 1)])
        assert top.degree == k - 1
        assert low.degree < k - 1
        assert in_hermitian_dual(res.code, top)
        assert in_hermitian_dual(res.code, low)
    # special case too
    res = multiplicative_coset_code(3, 2, 2)
    for _ in range(10):
        f = Poly(res.code.field, [rng.randrange(9) for _ in range(res.code.k)])
        assert in_hermitian_dual(res.code, f)


# ----------------------------------------------------------------------
# quantum parameter derivation
# ----------------------------------------------------------------------

def test_distance_parameterization():
    res = quantum_params_for_distance(3, 2, 4)
    assert (res.quantum.n, res.quantum.k, res.quantum.d, res.quantum.q) == (10, 4, 4, 3)
    res = quantum_params_for_distance(5, 4, 6)
    assert (res.quantum.n, res.quantum.k, res.quantum.d, res.quantum.q) == (26, 16, 6, 5)
    # d = 2 maps to classical dimension 1
    res = quantum_params_for_distance(3, 1, 2)
    assert res.code.k == 1
    with pytest.raises(ExcludedParameters):
        quantum_params_for_distance(4, 3, 4)
    with pytest.raises(ParameterError):
        quantum_params_for_distance(3, 2, 5)  # d > t+2


def test_derive_quantum_from_classical_codes():
    special = multiplicative_coset_code(3, 2, 2)
    qp = derive_quantum(special.code, provenance="prop1-special")
    assert (qp.n, qp.k, qp.d, qp.q) == (10, 6, 3, 3)
    additive = additive_coset_code(3, 3, 2)
    qp = derive_quantum(additive.code, provenance="theorem1")
    assert (qp.n, qp.k, qp.d, qp.q) == (9, 5, 3, 3)


def test_derive_quantum_checks_a_bare_linear_code_through_the_ladder():
    # brute force, then the rank test, certify these two
    for res in (additive_coset_code(3, 3, 2), multiplicative_coset_code(5, 4, 5)):
        qp = derive_quantum(as_linear_code(res.code), provenance="manual")
        assert (qp.n, qp.k) == (res.quantum.n, res.quantum.k)
    # a zero column keeps the code self-orthogonal but not MDS
    good = as_linear_code(additive_coset_code(3, 3, 2).code)
    padded = LinearCode(good.field, tuple(row + (0,) for row in good.rows))
    with pytest.raises(ValueError, match="not MDS"):
        derive_quantum(padded, provenance="manual")
    # past both caps nothing independent can run
    big = as_linear_code(multiplicative_coset_code(9, 8, 8).code)
    with pytest.raises(ValueError, match="cannot certify the MDS premise"):
        derive_quantum(big, provenance="manual")


def test_derive_quantum_rejects_non_self_orthogonal_input():
    F = make_field(3, 1)
    from qmds.grs import GRSCode

    bad = GRSCode(F, tuple(range(5)), (1,) * 5, 1)
    with pytest.raises(ValueError):
        derive_quantum(bad, provenance="manual")


def test_derive_quantum_degenerate_zero_dimension():
    F = make_field(3, 1)
    empty = LinearCode(F, (), length=6)
    qp = derive_quantum(empty, provenance="manual")
    assert (qp.n, qp.k, qp.d) == (6, 6, 1)
    assert qp.degenerate


def test_quantum_params_enforce_singleton_equality():
    with pytest.raises(ValueError):
        QuantumParams(n=10, k=5, d=3, q=3, provenance="manual")
    QuantumParams(n=10, k=6, d=3, q=3, provenance="manual")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_all_emitted_parameters_saturate_the_quantum_singleton_bound(q):
    for family, build in (
        (FAMILY_ADDITIVE, additive_coset_code),
        (FAMILY_EXTENDED, multiplicative_coset_code),
    ):
        for t, k, excluded in grid(q, family):
            if not excluded:
                qp = build(q, t, k).quantum
                assert qp.k == qp.n - 2 * qp.d + 2
