import random

import pytest

from qmds.construct import (
    FAMILY_ADDITIVE,
    FAMILY_EXTENDED,
    PROVENANCE_ADDITIVE,
    AdditiveCosetDesign,
    ExcludedParameters,
    MultiplicativeCosetDesign,
    ParameterError,
    QuantumParams,
    additive_coset_code,
    check_admissible,
    design_of,
    dimension_bound,
    grid,
    multiplicative_coset_code,
    quantum_params_for_distance,
    reconstruct_multipliers,
    select_scaling_poly,
)
from qmds.field import field_for_prime_power, make_field
from qmds.grs import (
    GRSCode,
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
    return res.code.field, res.code.a, design_of(res.code)[1], res.witnesses


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


def test_additive_closed_forms_reject_arguments_off_their_domain():
    F = make_field(3, 1)
    design = AdditiveCosetDesign(F, 2)
    outside = F.generator  # alpha is never in GF(q)
    assert not F.in_subfield(outside)
    with pytest.raises(ValueError, match="^tau must lie in the subfield$"):
        design.full_span_product(outside)
    with pytest.raises(ValueError, match="^cosets must differ$"):
        design.cross_coset_product(1, 1)
    for i in (-1, design.n):
        with pytest.raises(ValueError, match=rf"^index {i} out of range$"):
            design.difference_product(i)


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
        # None when some w_i * (alpha**q - alpha)**(t-1) is not a unit of GF(q)
        v = reconstruct_multipliers(F, design.points, PROVENANCE_ADDITIVE, {"w": list(design.weights)})
        assert v is not None


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


def reference_check_admissible(q, family, t, k):
    """check_admissible from the whole grid: the exception it should raise
    as (type, message), or None."""
    ks = {k2: excluded for t2, k2, excluded in grid(q, family) if t2 == t}
    if not ks:
        return ParameterError, f"t={t} out of range for {family} with q={q}"
    if k not in ks:
        return ParameterError, f"k={k} out of range 1..{max(ks)} for {family} with q={q}, t={t}"
    if ks[k]:
        return ExcludedParameters, (
            f"{family} with q={q}, t={t}, k={k} is excluded: no construction "
            "in even characteristic with t = k = q-1 (quantum distance q)")
    return None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
@pytest.mark.parametrize("family", [FAMILY_ADDITIVE, FAMILY_EXTENDED])
def test_check_admissible_matches_the_whole_grid(q, family):
    for t in range(q + 2):
        for k in range(t + 4):
            expected = reference_check_admissible(q, family, t, k)
            try:
                check_admissible(q, family, t, k)
            except ParameterError as exc:
                assert (type(exc), str(exc)) == expected, (t, k)
            else:
                assert expected is None, (t, k)


def test_check_admissible_hands_each_caller_its_own_map():
    ks = check_admissible(5, FAMILY_EXTENDED, 3)
    ks.clear()
    assert check_admissible(5, FAMILY_EXTENDED, 3) == {1: False, 2: False, 3: False, 4: False}


@pytest.mark.parametrize(
    "build, design_cls, q, t, ks",
    [
        (additive_coset_code, AdditiveCosetDesign, 7, 5, (1, 2, 3, 4)),
        (multiplicative_coset_code, MultiplicativeCosetDesign, 7, 4, (1, 2, 3, 4, 5)),
    ],
    ids=["additive", "extended"],
)
def test_each_coset_design_is_built_once_per_field_and_t(monkeypatch, build, design_cls, q, t, ks):
    # an earlier test may have built it already; then it is built 0 times
    built = []
    original = design_cls.__init__

    def counting(self, field, t):
        built.append(t)
        original(self, field, t)

    monkeypatch.setattr(design_cls, "__init__", counting)
    codes = [build(q, t, k).code for k in ks]
    assert len(built) <= 1
    assert len({code.a for code in codes}) == 1


def test_dimension_bound_values():
    assert dimension_bound(3, 3) == 2
    assert dimension_bound(4, 4) == 3
    assert dimension_bound(9, 9) == 8


def test_additive_construction_q3():
    res = additive_coset_code(3, 3, 2)
    assert (res.quantum.n, res.quantum.k, res.quantum.d, res.quantum.q) == (9, 5, 3, 3)
    assert design_of(res.code) == (3, "theorem1")
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
    assert design.difference_product(design.n - 1) == acc == F.from_int(2)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_multiplicative_difference_products(q):
    F = field_for_prime_power(q)
    for t in range(1, q):
        design = MultiplicativeCosetDesign(F, t)
        for i in range(design.n):
            closed = design.difference_product(i)
            assert closed == brute_difference_product(F, design.points, i)
            assert F.in_subfield(closed)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_multiplicative_difference_product_at_the_zero_point_and_out_of_range(q):
    F = field_for_prime_power(q)
    for t in range(1, q):
        design = MultiplicativeCosetDesign(F, t)
        zero = design.n - 1
        # (-1)**(n-1+qt) * prod_s beta_s**(q+1)
        closed = F.pow(F.neg(1), zero + q * t)
        for beta in design.betas:
            closed = F.mul(closed, F.norm(beta))
        assert design.points[zero] == 0
        assert design.difference_product(zero) == closed
        for i in (-1, design.n, design.n + 1):
            with pytest.raises(ValueError, match="out of range"):
                design.difference_product(i)


def test_multiplicative_single_coset_product_is_a_norm():
    F = make_field(3, 1)
    design = MultiplicativeCosetDesign(F, 1)
    for i in range(design.n - 1):
        assert design.difference_product(i) == F.norm(design.points[i])


@pytest.mark.parametrize("q", SWEEP_Q)
def test_gamma_solves_the_norm_equation(q):
    F = field_for_prime_power(q)
    for t in range(1, q):
        design = MultiplicativeCosetDesign(F, t)
        gamma = design.gamma()
        assert design.gamma() is gamma  # solved once per design
        for i, g in enumerate(gamma):
            assert g != 0
            assert F.norm(g) == F.neg(design.weights[i])


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
    assert design_of(res.code) == (2, "prop1-general")
    assert is_hermitian_self_orthogonal(res.code)[0]
    assert reconstruct_multipliers(*_multiplier_inputs(res)) == res.code.v
    assert set(res.witnesses) == {"w", "m_coeffs", "gamma"}


def test_extended_construction_special_case():
    res = multiplicative_coset_code(3, 2, 2)
    assert design_of(res.code) == (2, "prop1-special")
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
# negative controls: the Hermitian check fails one dimension further
# ----------------------------------------------------------------------

# k_true for q in SWEEP_Q and t = 1..q: the largest k at which the
# multipliers additive_coset_code emits for (q, t) (they do not depend on k)
# keep GRS_k Hermitian self-orthogonal.  It is at least the paper's
# dimension_bound(q, t), and above it at 20 of these 38 pairs.
ADDITIVE_K_TRUE = {
    2: (1, 1),
    3: (1, 2, 2),
    4: (2, 3, 3, 3),
    5: (2, 3, 3, 4, 4),
    7: (3, 4, 4, 5, 5, 6, 6),
    8: (4, 5, 6, 6, 6, 7, 7, 7),
    9: (4, 5, 5, 6, 7, 7, 7, 8, 8),
}


def _self_orthogonal(code, k):
    grown = GRSCode(code.field, code.a, code.v, k, extended=code.extended)
    return is_hermitian_self_orthogonal(grown)[0]


@pytest.mark.parametrize("q", SWEEP_Q)
def test_additive_multipliers_stop_being_self_orthogonal_after_k_true(q):
    ks = ADDITIVE_K_TRUE[q]
    assert len(ks) == q
    for t, k_true in enumerate(ks, start=1):
        code = additive_coset_code(q, t, 1).code
        assert dimension_bound(q, t) <= k_true < code.n
        assert _self_orthogonal(code, k_true), (t, k_true)
        assert not _self_orthogonal(code, k_true + 1), (t, k_true)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_extended_multipliers_with_m_one_stop_at_k_t_plus_one(q):
    # k = t + 1 is the top of the grid, where the scaling polynomial m is 1
    for t in range(1, q):
        res = multiplicative_coset_code(q, t, t + 1)
        assert res.witnesses["m_coeffs"] == [1]
        assert _self_orthogonal(res.code, t + 1)
        assert not _self_orthogonal(res.code, t + 2), t


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
    with pytest.raises(ParameterError, match=r"^d=5 out of range 2\.\.4 "):
        quantum_params_for_distance(3, 2, 5)  # d > t+2
    with pytest.raises(ParameterError, match=r"^d=1 out of range 2\.\.4 "):
        quantum_params_for_distance(3, 2, 1)


def test_derive_quantum_from_classical_codes():
    special = multiplicative_coset_code(3, 2, 2)
    qp = derive_quantum(special.code)
    assert (qp.n, qp.k, qp.d, qp.q) == (10, 6, 3, 3)
    additive = additive_coset_code(3, 3, 2)
    qp = derive_quantum(additive.code)
    assert (qp.n, qp.k, qp.d, qp.q) == (9, 5, 3, 3)


def test_derive_quantum_checks_a_bare_linear_code_through_the_ladder():
    # brute force, then the rank test, certify these two
    for res in (additive_coset_code(3, 3, 2), multiplicative_coset_code(5, 4, 5)):
        qp = derive_quantum(as_linear_code(res.code))
        assert (qp.n, qp.k) == (res.quantum.n, res.quantum.k)
    # a zero column keeps the code self-orthogonal but not MDS
    good = as_linear_code(additive_coset_code(3, 3, 2).code)
    padded = LinearCode(good.field, tuple(row + (0,) for row in good.rows))
    with pytest.raises(ValueError, match="not MDS"):
        derive_quantum(padded)
    # past both caps nothing independent can run
    big = as_linear_code(multiplicative_coset_code(9, 8, 8).code)
    with pytest.raises(ValueError, match="cannot certify the MDS premise"):
        derive_quantum(big)


def test_derive_quantum_rejects_non_self_orthogonal_input():
    F = make_field(3, 1)
    bad = GRSCode(F, tuple(range(5)), (1,) * 5, 1)
    with pytest.raises(ValueError):
        derive_quantum(bad)


def test_derive_quantum_degenerate_zero_dimension():
    F = make_field(3, 1)
    empty = LinearCode(F, (), length=6)
    qp = derive_quantum(empty)
    assert (qp.n, qp.k, qp.d) == (6, 6, 1)
    assert qp.degenerate


def test_quantum_params_enforce_singleton_equality():
    with pytest.raises(ValueError):
        QuantumParams(n=10, k=5, d=3, q=3)
    QuantumParams(n=10, k=6, d=3, q=3)


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_design_of_reads_the_constructors_provenance_off_the_code(q):
    # the tags the constructors emitted while results stored them: theorem1
    # for every additive code, prop1-special exactly at (t, k) = (q-1, q-1),
    # which grid excludes in even characteristic, prop1-general elsewhere.
    # Up to q = 5 on the constructed codes, above on their point designs.
    F = field_for_prime_power(q)
    for family, build, design in (
        (FAMILY_ADDITIVE, additive_coset_code, AdditiveCosetDesign),
        (FAMILY_EXTENDED, multiplicative_coset_code, MultiplicativeCosetDesign),
    ):
        extended = family == FAMILY_EXTENDED
        for t, k, excluded in grid(q, family):
            corner = extended and (t, k) == (q - 1, q - 1)
            assert excluded == (corner and q % 2 == 0)
            if excluded:
                continue
            if q <= 5:
                code = build(q, t, k).code
            else:
                points = design(F, t).points
                code = GRSCode(F, points, (1,) * len(points), k, extended)
            tag = "prop1-special" if corner else "prop1-general" if extended else "theorem1"
            assert design_of(code) == (t, tag)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_design_of_gives_an_extended_length_off_the_family_the_general_tag(q):
    # every extended length N on GF(q^2): the special case needs
    # (N-2)/(q+1) == q-1 exactly, so each N-2 that is no multiple of q+1
    # gets prop1-general, even at k = q-1
    F = field_for_prime_power(q)
    for n in range(1, q * q + 1):
        for k in range(1, n + 2):
            code = GRSCode(F, range(n), (1,) * n, k, extended=True)
            special = (n - 1) / (q + 1) == q - 1 and k == q - 1
            assert design_of(code)[1] == ("prop1-special" if special else "prop1-general")
