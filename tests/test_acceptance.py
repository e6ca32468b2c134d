"""The acceptance gate: ten checks, one test per criterion, run at full size.

Each test prints a single PASS line describing what was established; the
suite fails loudly if any bound, value set or verdict is off.  Module-scoped
fixtures share the two expensive computations (the full sweep and the
irreducibility grid) between criteria.
"""

import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from trigrat.cyclotomic import (
    CycElem,
    cyclotomic_polynomial,
    minimal_polynomial,
    zeta,
    zeta_power,
)
from trigrat.kummer import (
    RootJustification,
    binomial_irreducible,
    gauss_sum_case_check,
    meta_group_checks,
    nth_root_in_cyclotomic,
    sqrt_in_cyclotomic,
    subset_factorizations,
    subset_unity_product,
    verify_remark_factorization,
)
from trigrat.numtheory import divisors, euler_phi
from trigrat.polynomials import RatPoly
from trigrat.sweep import SweepConfig, verify_theorem_sweep
from trigrat.trig import (
    Angle,
    Case,
    TrigFunc,
    classify,
    theorem_value_list,
    trig_elem,
    value_descriptor,
)

SWEEP_TIME_BUDGET = 60.0
GRID_TIME_BUDGET = 120.0
GAUSS_TIME_BUDGET = 30.0


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    report = verify_theorem_sweep(SweepConfig(q_max=24, n_max=8))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_grid():
    """Every alpha = a/b with a, b <= 12 against every degree 2..8: the
    subset scan's factor list plus the radical-criterion verdict."""
    start = time.perf_counter()
    rows = []
    for a in range(1, 13):
        for b in range(1, 13):
            alpha = Fraction(a, b)
            for n in range(2, 9):
                rows.append((alpha, n, subset_factorizations(alpha, n), binomial_irreducible(alpha, n)))
    return rows, time.perf_counter() - start


def test_criterion_01_sweep_clean_and_value_sets(sweep):
    report, elapsed = sweep
    assert report.violations == [], report.violations[:5]
    assert report.queries == sum(
        8 * (2 if func is not TrigFunc.TAN or q != 2 else 0) * euler_phi(q)
        for func in (TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN)
        for q in range(1, 25)
    )
    observed = {func: set() for func in report.config.funcs}
    for hit in report.hits:
        observed[hit.func].add(value_descriptor(classify(hit.func, hit.angle)))
    for func in (TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN):
        assert observed[func] == theorem_value_list(func, "even"), func
    assert elapsed < SWEEP_TIME_BUDGET
    print(
        f"PASS criterion 1: sweep q<=24 n<=8 clean ({report.queries} queries, "
        f"{len(report.hits)} hits, value sets exact, {elapsed:.1f}s)"
    )


def test_criterion_02_parity_of_hits(sweep):
    report, _ = sweep
    odd_hits = even_irrational_hits = 0
    for hit in report.hits:
        classification = classify(hit.func, hit.angle)
        if hit.n % 2 == 1:
            assert classification.case is Case.VALUE_RATIONAL, hit
            odd_hits += 1
        if classification.case is Case.SQUARE_RATIONAL:
            assert hit.n % 2 == 0, hit
            even_irrational_hits += 1
    print(
        f"PASS criterion 2: all {odd_hits} odd-exponent hits have rational base; "
        f"all {even_irrational_hits} irrational-base hits have even exponent"
    )


def test_criterion_03_oracle_matches_radical_criterion(oracle_grid):
    rows, elapsed = oracle_grid
    assert len(rows) == 12 * 12 * 7
    for alpha, n, factorizations, irreducible in rows:
        assert bool(factorizations) == (not irreducible), (alpha, n)
    assert elapsed < GRID_TIME_BUDGET
    print(
        f"PASS criterion 3: radical criterion equals subset oracle on "
        f"{len(rows)} (alpha, n) pairs ({elapsed:.1f}s)"
    )


def test_criterion_04_unity_products(oracle_grid):
    rows, _ = oracle_grid
    factors = 0
    for alpha, n, factorizations, _ in rows:
        for f in factorizations:
            value = subset_unity_product(n, f.subset).as_rational()
            assert value in (1, -1), (alpha, n, sorted(f.subset))
            factors += 1
    assert factors > 0
    print(f"PASS criterion 4: root-of-unity product is +-1 for all {factors} found factors")


def test_criterion_05_gauss_sum_cases():
    start = time.perf_counter()
    for m in range(1, 61):
        assert gauss_sum_case_check(m), m
    elapsed = time.perf_counter() - start
    assert elapsed < GAUSS_TIME_BUDGET
    print(f"PASS criterion 5: Gauss sum case identities verified for m <= 60 ({elapsed:.1f}s)")


def test_criterion_06_sqrt_witnesses():
    targets = [2, 3, 5, 6, 7, 10, 15, Fraction(1, 2), Fraction(9, 4)]
    for alpha in targets:
        modulus, witness = sqrt_in_cyclotomic(alpha)
        assert (witness * witness).as_rational() == alpha, alpha
        numeric = witness.numeric_eval()
        assert abs(numeric.imag) < 1e-9 and numeric.real > 0, alpha
    modulus, witness = sqrt_in_cyclotomic(2)
    assert modulus == 8
    assert witness == zeta_power(8, 1) + zeta_power(8, -1)
    print(f"PASS criterion 6: verified positive sqrt witnesses for {len(targets)} values")


def test_criterion_07_remark_factorization():
    assert verify_remark_factorization()
    print("PASS criterion 7: octic splits as conjugate quartics over Q(zeta_8)")


def test_criterion_08_group_structure():
    for n in range(2, 13):
        report = meta_group_checks(n)
        assert report.order == n * euler_phi(n), n
        assert report.abelian == (n == 2), n
        assert report.relation_holds, n
    print("PASS criterion 8: group order, commutativity pattern and relation hold for n <= 12")


def test_criterion_09_root_membership(sweep):
    verdict = nth_root_in_cyclotomic(2, 2, 8)
    assert verdict.member
    assert (verdict.witness ** 2).as_rational() == 2

    verdict = nth_root_in_cyclotomic(2, 2, 12)
    assert not verdict.member
    assert verdict.justification is RootJustification.GALOIS_INVARIANCE

    for m in range(1, 101):
        verdict = nth_root_in_cyclotomic(2, 3, m)
        assert not verdict.member, m
        assert verdict.justification is RootJustification.THEOREM_1_3, m

    report, _ = sweep
    for hit in report.hits:
        assert classify(hit.func, hit.angle).case is not Case.NEVER, hit
    print(
        "PASS criterion 9: sqrt(2) lives in Q(zeta_8) but not Q(zeta_12), "
        "2^(1/3) in no Q(zeta_m) for m <= 100, and no never-rational angle ever hit"
    )


def test_criterion_10_algebraic_infrastructure():
    # field axioms, spot-checked on concrete elements of Q(zeta_12)
    x = zeta(12) + CycElem.from_rational(12, Fraction(1, 2))
    y = zeta_power(12, 5) * 3 - 1
    z = zeta_power(12, 7) / 2 + zeta_power(12, 2)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == CycElem.zero(12)
    assert x * x.inverse() == CycElem.one(12)
    assert x * y == y * x

    # the Galois action is a field automorphism and c -> tau_c a homomorphism
    for c in (5, 7, 11):
        assert (x + y).galois_apply(c) == x.galois_apply(c) + y.galois_apply(c)
        assert (x * y).galois_apply(c) == x.galois_apply(c) * y.galois_apply(c)
    assert x.galois_apply(5).galois_apply(7) == x.galois_apply(35 % 12)

    # product of cyclotomic polynomials over the divisors
    for m in range(1, 101):
        product = RatPoly([1])
        for d in divisors(m):
            product = product * cyclotomic_polynomial(d)
        assert product == RatPoly.monomial(m) - 1, m

    # trig identities across every reduced angle with q <= 30
    for q in range(1, 31):
        for p in range(0, 2 * q):
            if gcd(p, q) != 1:
                continue
            angle = Angle(p, q)
            c = trig_elem(TrigFunc.COS, angle)
            s = trig_elem(TrigFunc.SIN, angle)
            assert (c * c + s * s).as_rational() == 1, angle
            doubled = Angle.normalized(2 * p, q)
            m = lcm(c.modulus, trig_elem(TrigFunc.COS, doubled).modulus)
            half = (trig_elem(TrigFunc.COS, doubled).embed(m) + 1) * Fraction(1, 2)
            assert (c * c).embed(m) == half, angle
            if q != 2:
                t = trig_elem(TrigFunc.TAN, angle)
                assert t * t == (c * c).inverse() - 1, angle

    # the golden-ratio cosine has the expected quadratic minimal polynomial
    expected = RatPoly([Fraction(-1, 4), Fraction(-1, 2), Fraction(1)])
    assert minimal_polynomial(trig_elem(TrigFunc.COS, Angle(1, 5))) == expected
    print(
        "PASS criterion 10: field axioms, Galois action, cyclotomic factorization "
        "to m = 100, trig identities to q = 30 and the quadratic minimal polynomial all check"
    )
