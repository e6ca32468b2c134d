import cmath
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat.cyclotomic import (
    CycElem,
    _power_table,
    CycPoly,
    cyclotomic_polynomial,
    express_in_submodulus,
    minimal_polynomial,
    zeta,
    zeta_power,
)
from trigrat.numtheory import divisors, euler_phi
from trigrat.polynomials import RatPoly


@lru_cache(maxsize=None)
def phi_by_division(m):
    """Independent cyclotomic polynomial: divide x^m - 1 by Phi_d for every
    proper divisor d of m.  No Moebius function involved."""
    p = RatPoly.monomial(m) - 1
    for d in divisors(m):
        if d != m:
            q, r = divmod(p, phi_by_division(d))
            assert r.is_zero()
            p = q
    return p


def test_cyclotomic_polynomial_matches_division_oracle():
    for m in range(1, 61):
        assert cyclotomic_polynomial(m) == phi_by_division(m), m


def test_cyclotomic_product_identity():
    for m in range(1, 101):
        prod = RatPoly([1])
        for d in divisors(m):
            prod = prod * cyclotomic_polynomial(d)
        assert prod == RatPoly.monomial(m) - 1, m


def test_cyclotomic_known_values():
    assert cyclotomic_polynomial(1) == RatPoly([-1, 1])
    assert cyclotomic_polynomial(2) == RatPoly([1, 1])
    assert cyclotomic_polynomial(4) == RatPoly([1, 0, 1])
    assert cyclotomic_polynomial(12) == RatPoly([1, 0, -1, 0, 1])
    # first index with a coefficient outside {-1, 0, 1}
    assert 2 in [abs(c) for c in cyclotomic_polynomial(105).coeffs]


def test_zeta_power_examples():
    assert zeta_power(4, 2).as_rational() == -1
    assert zeta_power(7, 0).as_rational() == 1
    assert zeta_power(5, 7) == zeta_power(5, 2)
    # zeta_8^-1 = -zeta_8^3 in the power basis
    assert zeta_power(8, -1).coeffs == (0, 0, 0, -1)


# Frozen table-based reference: products, Galois images and embeddings
# reduced through the rows of the power table, a route to the coordinates
# that shares no code with the reduction kernel.

def _reference_combination(m, terms):
    table = _power_table(m)
    out = [Fraction(0)] * len(table[0])
    for k, c in terms:
        if c:
            for i, t in enumerate(table[k]):
                out[i] += c * t
    return CycElem(m, out)


def reference_mul(x, y):
    conv = [Fraction(0)] * (2 * len(x.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            conv[i + j] += a * b
    return _reference_combination(x.modulus, enumerate(conv))


def reference_galois_apply(x, c):
    m = x.modulus
    return _reference_combination(m, [(i * c % m, a) for i, a in enumerate(x.coeffs)])


def reference_embed(x, big):
    stride = big // x.modulus
    return _reference_combination(big, [(i * stride, a) for i, a in enumerate(x.coeffs)])


def test_zeta_power_matches_power_table_rows():
    for m in range(1, 151):
        for k, row in enumerate(_power_table(m)):
            assert zeta_power(m, k).coeffs == row, (m, k)


def test_arithmetic_matches_table_reference():
    rng = random.Random(20201)
    for m in (1, 2, 3, 4, 7, 8, 11, 12, 15, 60, 105):
        phi = euler_phi(m)
        units = [c for c in range(1, m + 1) if gcd(c, m) == 1]
        for _ in range(6):
            x, y = (
                CycElem(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)])
                for _ in range(2)
            )
            assert x * y == reference_mul(x, y), m
            c = rng.choice(units)
            assert x.galois_apply(c) == reference_galois_apply(x, c), (m, c)
            big = m * rng.choice([1, 2, 3, 5])
            assert x.embed(big) == reference_embed(x, big), (m, big)


def test_sqrt2_combination():
    s = zeta_power(8, 1) + zeta_power(8, -1)
    assert (s * s).as_rational() == 2
    assert s.is_real()
    assert s.as_rational() is None


moduli = st.integers(1, 40)


@st.composite
def elements(draw, modulus=None):
    m = modulus if modulus is not None else draw(moduli)
    phi = euler_phi(m)
    coeffs = draw(
        st.lists(
            st.fractions(max_denominator=6, min_value=-5, max_value=5),
            min_size=phi,
            max_size=phi,
        )
    )
    return CycElem(m, coeffs)


@st.composite
def element_pairs(draw):
    m = draw(moduli)
    return draw(elements(modulus=m)), draw(elements(modulus=m))


@st.composite
def element_triples(draw):
    m = draw(moduli)
    return tuple(draw(elements(modulus=m)) for _ in range(3))


@given(element_pairs())
def test_field_commutativity(pair):
    x, y = pair
    assert x + y == y + x
    assert x * y == y * x


@given(element_triples())
def test_field_distributivity_and_associativity(triple):
    x, y, z = triple
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)


@given(elements())
def test_additive_and_multiplicative_identity(x):
    m = x.modulus
    assert x + CycElem.zero(m) == x
    assert x * CycElem.one(m) == x
    assert x - x == CycElem.zero(m)


@given(elements())
def test_inverse_on_nonzero(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert (x * x.inverse()).as_rational() == 1


def test_inverse_examples():
    assert zeta(5).inverse() == zeta_power(5, 4)
    s = zeta_power(8, 1) + zeta_power(8, -1)
    assert s.inverse() == s * Fraction(1, 2)


@given(element_pairs(), st.integers(1, 200))
def test_galois_action_is_field_homomorphism(pair, c):
    x, y = pair
    m = x.modulus
    if gcd(c, m) != 1:
        with pytest.raises(ValueError):
            x.galois_apply(c)
        return
    assert (x + y).galois_apply(c) == x.galois_apply(c) + y.galois_apply(c)
    assert (x * y).galois_apply(c) == x.galois_apply(c) * y.galois_apply(c)


@given(elements(), st.integers(1, 100), st.integers(1, 100))
def test_galois_action_composes(x, c, d):
    m = x.modulus
    if gcd(c, m) != 1 or gcd(d, m) != 1:
        return
    assert x.galois_apply(c).galois_apply(d) == x.galois_apply(c * d % m)


@given(elements())
def test_galois_identity_and_rational_fixed(x):
    assert x.galois_apply(1) == x
    r = CycElem.from_rational(x.modulus, Fraction(3, 7))
    if euler_phi(x.modulus) >= 1:
        for c in range(1, x.modulus + 1):
            if gcd(c, x.modulus) == 1:
                assert r.galois_apply(c) == r


def test_galois_conjugation_example():
    s = zeta_power(8, 1) + zeta_power(8, -1)
    assert s.galois_apply(3) == -s


def test_is_real():
    assert not zeta(4).is_real()
    assert zeta_power(4, 2).is_real()
    assert CycElem.from_rational(7, Fraction(3, 2)).is_real()
    assert (zeta(5) + zeta(5).conjugate()).is_real()


def test_as_rational_completeness():
    x = CycElem.from_rational(12, Fraction(-7, 3))
    assert x.as_rational() == Fraction(-7, 3)
    assert zeta(8).as_rational() is None


@given(elements(), st.integers(1, 4))
def test_embed_preserves_arithmetic(x, k):
    m = x.modulus
    big = m * k
    y = x.embed(big)
    assert (x * x).embed(big) == y * y
    assert x.as_rational() == y.as_rational()


def test_embed_examples():
    assert zeta(4).embed(8) == zeta_power(8, 2)
    s = zeta_power(8, 1) + zeta_power(8, -1)
    assert (s.embed(24) * s.embed(24)).as_rational() == 2
    with pytest.raises(ValueError):
        zeta(8).embed(12)


def test_express_in_submodulus_roundtrip():
    s = zeta_power(8, 1) + zeta_power(8, -1)
    lifted = s.embed(24)
    back = express_in_submodulus(lifted, 8)
    assert back == s
    # zeta_8 itself is not in Q(zeta_12)
    assert express_in_submodulus(zeta(8).embed(24), 12) is None
    with pytest.raises(ValueError):
        express_in_submodulus(s, 3)


def test_minimal_polynomial_of_roots_of_unity():
    for m in range(1, 21):
        assert minimal_polynomial(zeta(m)) == cyclotomic_polynomial(m), m


def test_minimal_polynomial_examples():
    assert minimal_polynomial(CycElem.from_rational(5, Fraction(2, 3))) == RatPoly(
        [Fraction(-2, 3), 1]
    )
    assert minimal_polynomial(zeta(4)) == RatPoly([1, 0, 1])
    s = zeta_power(8, 1) + zeta_power(8, -1)
    assert minimal_polynomial(s) == RatPoly([-2, 0, 1])


@given(elements())
@settings(max_examples=30)
def test_minimal_polynomial_annihilates(x):
    if x.modulus > 16:
        return
    p = minimal_polynomial(x)
    acc = CycElem.zero(x.modulus)
    power = CycElem.one(x.modulus)
    for c in p.coeffs:
        acc = acc + power * c
        power = power * x
    assert acc.is_zero()


def test_numeric_eval_sanity():
    for m in (1, 2, 3, 8, 12):
        approx = zeta(m).numeric_eval()
        exact = cmath.exp(2j * cmath.pi / m)
        assert abs(approx - exact) < 1e-12
    s = zeta_power(8, 1) + zeta_power(8, -1)
    assert abs(s.numeric_eval() - 2 ** 0.5) < 1e-12


def test_json_roundtrip():
    x = CycElem(12, [Fraction(1, 2), 0, Fraction(-3, 7), 5])
    assert CycElem.from_json(x.to_json()) == x
    assert x.to_json()["modulus"] == 12
    assert x.to_json()["coeffs"][0] == "1/2"


def test_modulus_mismatch_is_rejected():
    with pytest.raises(ValueError):
        zeta(8) + zeta(12)
    with pytest.raises(ValueError):
        zeta(8) * zeta(12)


def test_coordinate_length_is_validated():
    with pytest.raises(ValueError):
        CycElem(8, [1, 2, 3])


def test_cycpoly_remark_shape():
    # (x - z)(x - z^-1) over Q(zeta_5) has rational-free middle coefficient
    z = zeta(5)
    p = CycPoly(5, [z, CycElem.from_rational(5, -1)]) * CycPoly(
        5, [z.inverse(), CycElem.from_rational(5, -1)]
    )
    assert p.degree == 2
    assert p[0].as_rational() == 1
    assert p.as_rational_poly() is None


def test_cycpoly_evaluate():
    # x^8 - 2 at x = sqrt(2) gives 16 - 2 = 14
    z = zeta(8)
    poly = CycPoly.from_ratpoly(RatPoly([-2, 0, 0, 0, 0, 0, 0, 0, 1]), 8)
    value = poly.evaluate(z + z.inverse())
    assert value.as_rational() == 14
