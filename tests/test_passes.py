"""The per-point passes against the per-element loops they replace.

Each tower gives its unary maps (`frobenius_map`, `norm_map`, `neg_map`,
`norm_root_map`) as byte-table lookups up to LOOKUP_TABLE_MAX_ORDER and as
its methods past it; the passes that run them must give what one method
call per element gave.  Every element of every tower up to 256 elements is
checked, in characteristic 2 and odd, and sampled elements of GF(17^2) and
GF(2^14), zero and the elements outside GF(q) included."""

import random

import pytest

from qmds.construct import (
    PROVENANCE_ADDITIVE,
    PROVENANCE_EXTENDED,
    PROVENANCE_EXTENDED_SPECIAL,
    AdditiveCosetDesign,
    MultiplicativeCosetDesign,
    multiplicative_coset_code,
    reconstruct_multipliers,
    witness_error,
)
from qmds.field import LOOKUP_TABLE_MAX_ORDER, make_field
from qmds.grs import hermitian_gram

#: Every tower of at most 256 elements: q = 2, 4, 8, 16, 3, 9, 5, 7, 11, 13.
TABLED = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]
#: GF(17^2) and GF(2^14), past the table limit, sampled.
PAST = [(17, 1), (2, 7)]
SAMPLE = 300


def elements(F):
    """Every element up to the table limit; past it a seeded sample with
    0, 1, the generator (outside GF(q)) and the last encoding."""
    if F.order <= LOOKUP_TABLE_MAX_ORDER:
        return list(F.elements())
    rng = random.Random(F.order)
    return [0, 1, F.generator, F.order - 1] + rng.sample(range(F.order), min(SAMPLE, F.order))


def reference_norm_root(F, w):
    try:
        return F.solve_norm(w)
    except ValueError:
        return 0


def reference_horner(F, coeffs, a):
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def reference_multipliers(F, points, provenance, witnesses):
    """reconstruct_multipliers as one method call per element."""
    if provenance == PROVENANCE_ADDITIVE:
        t = len(points) // F.q
        scale = F.pow(F.sub(F.frobenius(F.generator), F.generator), t - 1)
        norms = [F.mul(w, scale) for w in witnesses["w"]]
        if not all(x and F.in_subfield(x) for x in norms):
            return None
        return tuple(F.solve_norm(x) for x in norms)
    m = witnesses["m_coeffs"]
    v = [F.mul(reference_horner(F, m, a), g) for a, g in zip(points, witnesses["gamma"])]
    if provenance == PROVENANCE_EXTENDED_SPECIAL:
        unit = F.solve_norm(F.inv(F.from_int(2)))
        v = [F.mul(unit, x) for x in v]
    return tuple(v)


def raised(call):
    """(type, message) of what call() raises, or its value."""
    try:
        return call()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.fixture(params=TABLED + PAST, ids=lambda pe: f"GF({pe[0]}^{2 * pe[1]})")
def field(request):
    return make_field(*request.param)


def test_unary_maps_equal_the_methods(field):
    F = field
    maps = (F.frobenius_map, F.norm_map, F.neg_map, F.norm_root_map)
    if F.order <= LOOKUP_TABLE_MAX_ORDER:
        assert all(type(f.__self__) is bytes for f in maps)
    else:
        assert maps == (F.frobenius, F.norm, F.neg, F.norm_root)
    xs = elements(F)
    assert list(map(F.frobenius_map, xs)) == [F.frobenius(x) for x in xs]
    assert list(map(F.norm_map, xs)) == [F.norm(x) for x in xs]
    assert list(map(F.neg_map, xs)) == [F.neg(x) for x in xs]
    roots = list(map(F.norm_root_map, xs))
    assert roots == [reference_norm_root(F, x) for x in xs]
    # zero and the elements outside GF(q) are exactly the 0 entries
    assert [x for x, r in zip(xs, roots) if not r] == [
        x for x in xs if x == 0 or not F.in_subfield(x)]


def test_additive_points_and_multipliers_equal_the_loops(field):
    F = field
    rng = random.Random(F.order + 1)
    outside = F.generator
    for t in sorted({1, 2, F.q} if F.order <= LOOKUP_TABLE_MAX_ORDER else {1, 2}):
        design = AdditiveCosetDesign(F, t)
        points = design.points
        sub = F.subfield_elements()
        expected = [F.add(x, F.mul(beta, design.alpha)) for beta in design.betas for x in sub]
        assert points == tuple(expected)
        w = list(design.weights)
        cases = [w, [rng.choice(elements(F)) for _ in w]]
        for bad in (0, outside):  # no multipliers: a zero norm, a norm outside GF(q)
            i = rng.randrange(len(w))
            cases.append(w[:i] + [bad] + w[i + 1:])
        for ws in cases:
            witnesses = {"w": ws}
            got = reconstruct_multipliers(F, points, PROVENANCE_ADDITIVE, witnesses)
            assert got == reference_multipliers(F, points, PROVENANCE_ADDITIVE, witnesses)
        assert reconstruct_multipliers(F, points, PROVENANCE_ADDITIVE, {"w": w}) is not None
        assert reconstruct_multipliers(F, points, PROVENANCE_ADDITIVE, {"w": cases[-1]}) is None


def test_extended_multipliers_equal_the_loop(field):
    F = field
    rng = random.Random(F.order + 2)
    design = MultiplicativeCosetDesign(F, 1)
    points = design.points
    xs = elements(F)
    for degree in (0, 1, 2, 5):
        m = [rng.choice(xs) for _ in range(degree)] + [1]
        gamma = [rng.choice(xs) for _ in points]  # zeros included
        for provenance in (PROVENANCE_EXTENDED, PROVENANCE_EXTENDED_SPECIAL):
            witnesses = {"w": [], "m_coeffs": m, "gamma": gamma}
            # the special unit needs 1/2: in characteristic 2 both raise
            assert raised(lambda: reconstruct_multipliers(F, points, provenance, witnesses)) == \
                raised(lambda: reference_multipliers(F, points, provenance, witnesses))
    # a gamma shorter than the points stops both at its end
    witnesses = {"w": [], "m_coeffs": [3 % F.order, 1], "gamma": [1, 2]}
    assert reconstruct_multipliers(F, points, PROVENANCE_EXTENDED, witnesses) == \
        reference_multipliers(F, points, PROVENANCE_EXTENDED, witnesses)


def test_gamma_equals_the_loop_and_raises_its_error(field):
    F = field
    design = MultiplicativeCosetDesign(F, 1)
    assert design.gamma() == tuple(F.solve_norm(F.neg(w)) for w in design.weights)
    weights = design.weights
    for i, bad in ((0, 0), (len(weights) - 1, F.neg(F.generator))):
        tampered = MultiplicativeCosetDesign(F, 1)
        tampered.weights = weights[:i] + (bad,) + weights[i + 1:]
        expected = raised(lambda: tuple(F.solve_norm(F.neg(w)) for w in tampered.weights))
        assert expected[0] is ValueError
        assert raised(tampered.gamma) == expected


def test_witness_norm_check_equals_the_loop(field):
    F = field
    q = F.q
    res = multiplicative_coset_code(q, 2, 2) if q > 2 else multiplicative_coset_code(q, 1, 2)
    rng = random.Random(F.order + 3)
    gamma = res.witnesses["gamma"]
    verdicts = set()
    for draw in range(8):
        w = list(res.witnesses["w"])
        i = rng.randrange(len(w))
        w[i] = [0, F.generator, rng.randrange(F.order), w[i]][draw % 4]
        holds = all(F.norm(g) == F.neg(x) for g, x in zip(gamma, w))
        got = witness_error(res.code, dict(res.witnesses, w=w))
        assert (got is None) == holds
        if not holds:
            assert got == "'witnesses' key 'w' does not satisfy gamma_i^(q+1) = -w_i"
        verdicts.add(holds)
    assert verdicts == {True, False}


def test_hermitian_gram_equals_the_loop(field):
    F = field
    rng = random.Random(F.order + 4)
    xs = elements(F)
    rows = [[rng.choice(xs) for _ in range(7)] for _ in range(4)]
    rows.append([0] * 7)
    expected = [[0] * len(rows) for _ in rows]
    for i, r in enumerate(rows):
        for j, s in enumerate(rows):
            acc = 0
            for x, y in zip(r, s):
                acc = F.add(acc, F.mul(F.frobenius(x), y))
            expected[i][j] = acc
    assert hermitian_gram(F, rows) == expected
