import cmath
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat import cyclotomic
from trigrat.cyclotomic import (
    _DIVISOR_PAIRS,
    CycElem,
    _cyclotomic_divisor,
    _cyclotomic_int_coeffs,
    _power_table,
    cyclotomic_polynomial,
    minimal_polynomial,
    zeta,
    zeta_power,
)
from trigrat.numtheory import divisors, euler_phi
from trigrat.kummer import sqrt_in_cyclotomic
from trigrat.polynomials import RatPoly, _monic_tail, _poly_mul
from trigrat.trig import Angle, TrigFunc, trig_elem

from reference import (
    express_in_submodulus,
    poly_divmod,
    reference_cyclotomic_coeffs,
    reference_embed,
    reference_galois_apply,
    reference_mul,
)


@lru_cache(maxsize=None)
def phi_by_division(m):
    """Independent cyclotomic polynomial: divide x^m - 1 by Phi_d for every
    proper divisor d of m.  No Moebius function involved."""
    p = RatPoly.monomial(m) - 1
    for d in divisors(m):
        if d != m:
            q, r = poly_divmod(p, phi_by_division(d))
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


def test_cyclotomic_coeffs_match_moebius_reference():
    """One binomial at a time at the radical of m gives the coefficients of
    the dense Moebius product over all divisors of m."""
    for m in [*range(1, 2001), 4620]:
        assert _cyclotomic_int_coeffs(m) == reference_cyclotomic_coeffs(m), m
    # 30030 = 2*15015 and 60060 = 4*15015, 15015 = 3*5*7*11*13: monic,
    # palindromic, Phi(1) = 1, degree phi
    for m in (30030, 60060):
        coeffs = _cyclotomic_int_coeffs(m)
        assert len(coeffs) == euler_phi(m) + 1 and coeffs[-1] == 1, m
        assert coeffs == coeffs[::-1] and sum(coeffs) == 1, m
    # Phi_60060(x) = Phi_30030(x^2)
    assert _cyclotomic_int_coeffs(60060)[::2] == _cyclotomic_int_coeffs(30030)
    assert not any(_cyclotomic_int_coeffs(60060)[1::2])


@pytest.mark.parametrize("odd", [1, 3, 105, 1155, 1009])
def test_cyclotomic_coeffs_at_each_power_of_two_match_reference(odd):
    """Phi_m is built at the odd radical r of m and, for even m, turned into
    Phi_2r(x) = Phi_r(-x) (Phi_2 = x + 1) before the stride: it matches the
    dense Moebius product, which counts 2 as one more prime, at
    m = 2^a * odd for a = 0..6, up to m = 2*10^4."""
    for a in range(7):
        m = 2**a * odd
        if m <= 20000:
            assert _cyclotomic_int_coeffs(m) == reference_cyclotomic_coeffs(m), m


@pytest.mark.parametrize("m, primes", [(4, (2, 2)), (8, (2, 4))])
def test_inexact_binomial_division_raises(monkeypatch, m, primes):
    """Wrong Moebius data leaves a binomial that does not divide.  With 2
    counted twice, x^2 - 1 is divided out of (x^4 - 1)(x - 1) twice; with 4
    posing as a prime, x^2 - 1 is divided out of (x^4 + 1)(x - 1).  The
    first fails in the block-by-block recurrence, the second in the one
    along residue classes."""
    monkeypatch.setattr("trigrat.cyclotomic.prime_divisors", lambda n: primes)
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        _cyclotomic_int_coeffs(m)


def test_zeta_power_examples():
    assert zeta_power(4, 2).as_rational() == -1
    assert zeta_power(7, 0).as_rational() == 1
    assert zeta_power(5, 7) == zeta_power(5, 2)
    # zeta_8^-1 = -zeta_8^3 in the power basis
    assert zeta_power(8, -1).coeffs == (0, 0, 0, -1)


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
    assert s.galois_apply(7) == s
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


def test_division_by_a_rational_builds_no_galois_image(monkeypatch):
    """1/r for a rational r is its reciprocal: at m = 1009 the Galois norm
    would take 1007 images and products."""
    x = zeta(1009) + Fraction(2, 3)

    def forbidden(self, c):
        raise AssertionError("Galois image built")

    monkeypatch.setattr(CycElem, "galois_apply", forbidden)
    assert x / 2 == x * Fraction(1, 2)
    assert x / Fraction(-3, 4) == x * Fraction(-4, 3)
    r = CycElem.from_rational(1009, Fraction(-3, 4))
    assert r.inverse() == CycElem.from_rational(1009, Fraction(-4, 3))


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
    """Complex conjugation is the automorphism zeta_m -> zeta_m^(m - 1)."""
    assert zeta(4).galois_apply(3) != zeta(4)
    assert zeta_power(4, 2).galois_apply(3) == zeta_power(4, 2)
    half = CycElem.from_rational(7, Fraction(3, 2))
    assert half.galois_apply(6) == half
    s = zeta(5) + zeta(5).galois_apply(4)
    assert s.galois_apply(4) == s


def test_as_rational_completeness():
    x = CycElem.from_rational(12, Fraction(-7, 3))
    assert x.as_rational() == Fraction(-7, 3)
    assert zeta(8).as_rational() is None


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_rational_elements_and_constants_hash_as_their_rational(value):
    """A rational CycElem and a constant RatPoly equal their rational, so
    each hashes as it and forms a one-element set with it."""
    for elem in (CycElem.from_rational(1, value), CycElem.from_rational(12, value), RatPoly([value])):
        assert elem == value
        assert hash(elem) == hash(value)
        assert len({elem, value}) == 1


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


def random_elements(m, count, seed):
    """Seeded elements of Q(zeta_m) with zero, negative, huge and
    fractional coordinates over a mix of denominators."""
    rng = random.Random(f"{m}:{seed}")
    for _ in range(count):
        yield CycElem(m, [
            Fraction(rng.choice([0, rng.randint(-9, 9), rng.randint(-10 ** 40, 10 ** 40)]),
                     rng.choice([1, 1, 2, 6, 35, rng.randint(1, 10 ** 12)]))
            for _ in range(euler_phi(m))
        ])


def test_numeric_eval_is_the_float_of_each_fraction():
    for m in (1, 2, 12, 60, 105):
        for x in random_elements(m, 20, "numeric"):
            expected = sum(
                (float(c) * cmath.exp(2j * cmath.pi * k / m) for k, c in enumerate(x.coeffs) if c),
                complex(0),
            )
            assert x.numeric_eval() == expected


@pytest.mark.parametrize("m", [1, 2, 12, 60, 105])
def test_to_json_prints_each_fraction(m):
    seen = set()
    for x in random_elements(m, 40, "json"):
        assert x.to_json() == {"modulus": m, "coeffs": [str(c) for c in x.coeffs]}
        for c in x.coeffs:
            seen.add("zero" if c == 0 else "negative" if c < 0 else "positive")
            seen.add("integer" if c.denominator == 1 else "fraction")
    assert seen == {"zero", "negative", "positive", "integer", "fraction"}


def test_json_roundtrip():
    x = CycElem(12, [Fraction(1, 2), 0, Fraction(-3, 7), 5])
    assert CycElem.from_json(x.to_json()) == x
    assert x.to_json()["modulus"] == 12
    assert x.to_json()["coeffs"][0] == "1/2"


@given(
    st.integers(1, 60),
    st.integers(2, 30),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_json_roundtrip_with_repeated_and_negative_numerators(m, den, pool, rng):
    """Coordinates drawn from a few numerators over one denominator den > 1,
    which 1/den keeps: each distinct numerator is formatted once, and every
    coordinate reads back."""
    x = CycElem(m, [Fraction(1, den)] + [Fraction(rng.choice(pool), den) for _ in range(euler_phi(m) - 1)])
    data = x.to_json()
    assert data == {"modulus": m, "coeffs": [str(c) for c in x.coeffs]}
    assert CycElem.from_json(data) == x


def test_witness_to_json_is_pinned():
    # cos(pi/5) = (z^2 + z^-2)/2 = (1 + z^4 - z^6)/2 for z = zeta_20
    witness = trig_elem(TrigFunc.COS, Angle(1, 5))
    assert witness.to_json() == {"modulus": 20, "coeffs": ["1/2", "0", "0", "0", "1/2", "0", "-1/2", "0"]}


@pytest.mark.parametrize("x, text", [
    (CycElem(5, [Fraction(1, 2), Fraction(-3, 4), 0, 1]), "1/2 - 3/4*z5 + z5^3"),
    (CycElem(8, [0, 0, -1, Fraction(2, 3)]), "-z8^2 + 2/3*z8^3"),
    (CycElem(12, [0, -1, Fraction(7, 2), -1]), "-z12 + 7/2*z12^2 - z12^3"),
    (CycElem(7, [Fraction(-5, 3), 0, 0, 0, 0, 0]), "-5/3"),
    (CycElem(1, [Fraction(-2, 9)]), "-2/9"),
    (CycElem.zero(12), "0"),
])
def test_str_rendering(x, text):
    """Fractional coordinates, a negative leading term, a rational-only
    value and zero print as RatPoly terms do, in z_m and lowest power first."""
    assert str(x) == text
    assert repr(x) == f"CycElem(m={x.modulus}, {text})"


@pytest.mark.parametrize("build", [
    lambda: zeta(0),
    lambda: zeta(3).embed(0),
    lambda: zeta(-3),
    lambda: zeta_power(-4, 1),
    lambda: zeta(12).embed(-24),
], ids=["zeta(0)", "zeta(3).embed(0)", "zeta(-3)", "zeta_power(-4, 1)", "zeta(12).embed(-24)"])
def test_nonpositive_moduli_are_refused(build):
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        build()


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
    minus_one = CycElem.from_rational(5, -1)
    p = _poly_mul([z, minus_one], [z.inverse(), minus_one])
    assert len(p) == 3 and not p[-1].is_zero()  # degree 2
    assert p[0].as_rational() == 1
    assert any(c.as_rational() is None for c in p)  # not in Q[x]


def test_cycpoly_evaluate():
    # x^8 - 2 at x = sqrt(2) gives 16 - 2 = 14
    z = zeta(8)
    poly = RatPoly([-2, 0, 0, 0, 0, 0, 0, 0, 1])
    value = CycElem.zero(8)
    for c in reversed(poly.coeffs):
        value = value * (z + z.inverse()) + c
    assert value.as_rational() == 14


def test_pow_does_no_wasted_product(monkeypatch):
    """x ** n costs floor(log2 n) squarings and popcount(n) - 1 products."""
    x = zeta(7) + 2
    powers = [CycElem.one(7)]
    for _ in range(8):
        powers.append(powers[-1] * x)
    calls = []
    product = CycElem.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(CycElem, "__mul__", counting)
    counts = []
    for n in range(1, 9):
        calls.clear()
        assert x ** n == powers[n], n
        counts.append(len(calls))
    assert counts == [0, 1, 2, 2, 3, 3, 4, 3]


def test_divisor_cache_is_bounded_by_pairs_not_moduli():
    """Witnesses are reduced modulo Phi_M through ``_cyclotomic_divisor``,
    which keeps one tail of at most _DIVISOR_PAIRS (j, c) pairs: cos at
    twelve primes q near 10^4 (M = 4q, a tail of q - 1 pairs each) and at
    q = 100003 (10^5 pairs, more than it keeps) retain under 4 MB, where
    one tail per modulus retained 20 MB."""
    primes = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093, 10099, 10103, 100003)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for q in primes:
            trig_elem.__wrapped__(TrigFunc.COS, Angle(1, q))  # past trig_elem's own cache
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4_000_000, retained


@pytest.fixture
def phi_builds(monkeypatch):
    """The moduli at which Phi is built from here on, one entry a build."""
    builds = []
    build = cyclotomic._radical_cyclotomic

    def counting(m):
        builds.append(m)
        return build(m)

    monkeypatch.setattr(cyclotomic, "_radical_cyclotomic", counting)
    return builds


def test_a_witness_and_its_powers_build_phi_once(phi_builds):
    """The tail of the modulus reduced last is kept: sqrt_in_cyclotomic at
    a fresh conductor builds Phi once for its witness and the check of its
    square, and x ** 8 builds it once for its three squarings."""
    x = zeta(7) + 1
    expected = x * x * x * x * x * x * x * x
    zeta(5)
    phi_builds.clear()
    assert sqrt_in_cyclotomic(4003)[0] == 16012
    assert phi_builds == [16012]
    zeta(5)
    phi_builds.clear()
    assert x ** 8 == expected
    assert phi_builds == [7]


def test_a_tail_over_the_pair_bound_is_rebuilt_and_not_kept(phi_builds):
    """Phi_40009 has 40008 (j, c) pairs below its leading term, more than
    _DIVISOR_PAIRS: it is built on each request, and the tail kept before
    it stays kept."""
    _cyclotomic_divisor(7)
    phi_builds.clear()
    divisors = [_cyclotomic_divisor(40009) for _ in range(2)]
    _cyclotomic_divisor(7)
    assert phi_builds == [40009, 40009]
    assert divisors[0] == divisors[1] == (40008, tuple((j, 1) for j in range(40008)))
    assert len(divisors[0][1]) > _DIVISOR_PAIRS


def test_the_tail_read_off_phi_r_is_the_tail_of_the_dense_phi():
    for m in range(1, 3001):
        assert _cyclotomic_divisor(m) == _monic_tail(_cyclotomic_int_coeffs(m)), m
