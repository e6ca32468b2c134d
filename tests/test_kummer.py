import cmath
import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat import kummer
from trigrat.cli import run_cli
from trigrat.cyclotomic import CycElem, zeta_power
from trigrat.kummer import (
    _IMAG_TOLERANCE,
    MAX_MEMBER_MODULUS,
    MAX_WITNESS_MODULUS,
    GroupReport,
    MetaGaloisElem,
    RootJustification,
    binomial_irreducible,
    gauss_sum,
    gauss_sum_case_check,
    meta_compose,
    meta_group_checks,
    nth_root_in_cyclotomic,
    sqrt_in_cyclotomic,
    subset_factorizations,
    subset_unity_product,
    verify_remark_factorization,
    _constant_term_sizes,
    _rational_root_degree,
    _real_subset_products,
)
from trigrat.numtheory import divisors, mobius, nth_root_rational, prime_factorization
from trigrat.polynomials import RatPoly, _poly_mul

from reference import (
    express_in_submodulus,
    reference_sqrt_member,
    reference_sqrt_witness,
    reference_subset_factorizations,
)


# ----------------------------------------------------------------------
# binomial irreducibility and the subset oracle

def test_binomial_irreducible_examples():
    assert binomial_irreducible(2, 8)
    assert binomial_irreducible(2, 2)
    assert binomial_irreducible(3, 9)
    assert binomial_irreducible(Fraction(2, 3), 6)
    assert not binomial_irreducible(8, 6)       # 8^(1/3) = 2
    assert not binomial_irreducible(4, 2)       # sqrt(4) = 2
    assert not binomial_irreducible(Fraction(27, 8), 3)
    assert not binomial_irreducible(1, 5)
    assert not binomial_irreducible(Fraction(16, 81), 4)


def test_binomial_irreducible_rejects_bad_input():
    with pytest.raises(ValueError):
        binomial_irreducible(2, 1)
    with pytest.raises(ValueError):
        binomial_irreducible(0, 2)
    with pytest.raises(ValueError):
        binomial_irreducible(-2, 3)


def test_subset_factorizations_quartic():
    found = subset_factorizations(4, 4)
    polys = {f.factor for f in found}
    assert polys == {
        RatPoly([-2, 0, 1]),  # x^2 - 2
        RatPoly([2, 0, 1]),   # x^2 + 2
    }
    for f in found:
        assert f.factor * f.cofactor == RatPoly.monomial(4) - 4


def test_subset_factorizations_sextic():
    found = subset_factorizations(8, 6)
    polys = {f.factor for f in found}
    assert RatPoly([-2, 0, 1]) in polys
    assert RatPoly([-2, 0, 0, 1]) not in polys  # x^3 - 2 is not a factor
    target = RatPoly.monomial(6) - 8
    for f in found:
        assert f.factor * f.cofactor == target
        assert divmod(target, f.factor)[1].is_zero()


def test_subset_factorizations_irreducible_case_is_empty():
    assert subset_factorizations(2, 4) == []
    assert subset_factorizations(3, 5) == []


def test_subset_oracle_range():
    with pytest.raises(ValueError):
        subset_factorizations(2, 1)
    with pytest.raises(ValueError):
        subset_factorizations(2, 13)
    # 10^400 overflows a float and 10^-400 rounds to 0, so no root can be placed
    for alpha in (Fraction(10 ** 400), Fraction(1, 10 ** 400)):
        with pytest.raises(ValueError, match="float range"):
            subset_factorizations(alpha, 2)


@given(
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    st.integers(2, 7),
)
@settings(max_examples=40)
def test_oracle_agrees_with_radical_criterion(alpha, n):
    assert bool(subset_factorizations(alpha, n)) == (not binomial_irreducible(alpha, n))


def test_unity_product_is_plus_or_minus_one_on_found_factors():
    for alpha, n in [(4, 4), (8, 6), (Fraction(1, 4), 2), (64, 6), (Fraction(27, 8), 3)]:
        found = subset_factorizations(alpha, n)
        assert found, (alpha, n)
        for f in found:
            value = subset_unity_product(n, f.subset).as_rational()
            assert value in (1, -1), (alpha, n, sorted(f.subset))


def subset_keys(found):
    return [(f.subset, f.factor.coeffs, f.cofactor.coeffs) for f in found]


def test_subset_scan_matches_per_subset_reference():
    """The depth-first scan finds the same subsets, factors and cofactors,
    in the same order, as multiplying out and dividing every subset."""
    shapes = (2, 3, 4, 6, 8, 12)
    small = sorted({Fraction(a, b) for a in range(1, 7) for b in range(1, 7)})
    cases = [(alpha, n) for alpha in small for n in range(2, 13)]
    cases += [(Fraction(c, 1009) ** k, n) for c in (1, 2) for k in shapes for n in shapes]
    assert len(cases) == 325
    for alpha, n in cases:
        expected = subset_keys(reference_subset_factorizations(alpha, n))
        assert subset_keys(subset_factorizations(alpha, n)) == expected, (alpha, n)
    # today's behaviour, not a right answer: x - 1/1009^2 divides
    # x^2 - 1/1009^4, but its constant term's denominator is past the
    # reconstruction cap, so both scans miss it (the subset-oracle false
    # alarm that ROADMAP.md lists)
    assert subset_factorizations(Fraction(1, 1009 ** 4), 2) == []
    assert reference_subset_factorizations(Fraction(1, 1009 ** 4), 2) == []
    # today's behaviour at large alpha, not a right answer: x^4 - 10^40 has
    # six proper monic factors (x -+ 10^10, x^2 -+ 10^20 and two cubics),
    # but the rounding error in the imaginary parts of their float
    # coefficients grows with the roots, past _IMAG_TOLERANCE for all but
    # x - 10^10, so both scans find that one alone; at 10^300 they find
    # nothing and the oracle contradicts the radical criterion
    found = subset_factorizations(10 ** 40, 4)
    assert [str(f.factor) for f in found] == [f"x - {10 ** 10}"]
    assert subset_keys(found) == subset_keys(reference_subset_factorizations(10 ** 40, 4))
    assert subset_factorizations(10 ** 300, 12) == reference_subset_factorizations(10 ** 300, 12) == []
    assert run_cli(["irreducible", "1" + "0" * 300, "12", "--oracle", "--json"]) == 1


@pytest.mark.parametrize("alpha, n, divisions", [
    (Fraction(8, 7), 12, 0),
    (4, 4, 2),
    (8, 6, 6),
    (9, 12, 20),
    (Fraction(1, 1036488922561), 2, 0),
    (Fraction(27, 8), 3, 2),
])
def test_subset_scan_divides_only_after_the_constant_term_check(monkeypatch, alpha, n, divisions):
    """A real-looking subset is divided out only when its constant term c0
    has c0^n = (-1)^(n*size) * alpha^size, as every monic divisor's has."""
    count = 0
    divmod_ = RatPoly.__divmod__

    def counting(self, other):
        nonlocal count
        count += 1
        return divmod_(self, other)

    monkeypatch.setattr(RatPoly, "__divmod__", counting)
    found = subset_factorizations(alpha, n)
    assert count == divisions
    monkeypatch.undo()
    assert subset_keys(found) == subset_keys(reference_subset_factorizations(alpha, n))


def is_conjugation_closed(subset, n):
    return set(subset) == {(n - j) % n for j in subset}


class CountingRoots(list):
    """Roots that count their single-index reads: the walk reads one root
    per subset it visits."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)


@pytest.mark.parametrize("n, visited, closed", [(11, 222, 62), (12, 446, 126)])
def test_subset_walk_visits_only_subsets_that_can_close(n, visited, closed):
    """2^n - 2 subsets shrink to the ones that can still close under
    j -> n - j; on the unit circle exactly the closed ones look real."""
    roots = CountingRoots(cmath.exp(2j * cmath.pi * j / n) for j in range(n))
    passing = [subset for subset, _ in _real_subset_products(roots)]
    assert roots.reads == visited
    expected = [
        subset
        for size in range(1, n)
        for subset in itertools.combinations(range(n), size)
        if is_conjugation_closed(subset, n)
    ]
    assert len(expected) == closed
    assert passing == expected


def test_generic_alpha_rebuilds_no_constant_term(monkeypatch):
    """5^s has no rational 12th root for 0 < s < 12, so no subset of any
    size gets as far as limit_denominator; 9 does, at size 6."""
    calls = 0
    limit_denominator = Fraction.limit_denominator

    def counting(self, cap):
        nonlocal calls
        calls += 1
        return limit_denominator(self, cap)

    monkeypatch.setattr(Fraction, "limit_denominator", counting)
    assert subset_factorizations(5, 12) == []
    assert calls == 0
    assert subset_factorizations(9, 12)
    assert calls > 0


@pytest.mark.parametrize("alpha, n", [(5, 12)] + [(Fraction(2, 3), n) for n in range(2, 13)])
def test_scan_with_no_admissible_size_builds_no_root_or_subset(monkeypatch, alpha, n):
    """alpha^s has no rational n-th root for any 0 < s < n, so no factor can
    have a rational constant term: the scan returns before the roots, the
    target polynomial or the walk."""
    def forbidden(*args):
        raise AssertionError("float work with no admissible size")

    monkeypatch.setattr(kummer, "_real_subset_products", forbidden)
    monkeypatch.setattr(kummer.cmath, "exp", forbidden)
    monkeypatch.setattr(RatPoly, "monomial", forbidden)
    assert subset_factorizations(alpha, n) == []


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 12), st.integers(2, 12))
@settings(max_examples=200)
def test_constant_term_sizes_follow_the_divisor_rule(a, b, k, n):
    """The sizes read off alpha are those at which alpha^s itself has a
    rational n-th root."""
    alpha = Fraction(a, b) ** k
    direct = [s for s in range(1, n) if nth_root_rational(alpha ** s, n) is not None]
    assert list(_constant_term_sizes(alpha, n)) == direct


def test_subset_scan_matches_reference_at_every_root_degree():
    """alpha = base^d with base a prime over a coprime integer, so alpha's
    largest rational root degree among the divisors of n is d; d runs over
    every divisor of n for n = 2..12."""
    rng = random.Random(20261019)
    primes = (2, 3, 5, 7, 11, 13)
    cases = 0
    for n in range(2, 13):
        for d in divisors(n):
            for _ in range(2):
                p = rng.choice(primes)
                base = Fraction(p, rng.choice([b for b in range(1, 30) if b % p]))
                alpha = base ** d
                assert _rational_root_degree(alpha, n) == d, (alpha, n)
                expected = subset_keys(reference_subset_factorizations(alpha, n))
                assert subset_keys(subset_factorizations(alpha, n)) == expected, (alpha, n)
                cases += 1
    assert cases == 68


@pytest.mark.parametrize("alpha, n", [
    (Fraction(1, 1100) ** 6, 3),
    (Fraction(1, 1009) ** 8, 4),
    (Fraction(1, 1009) ** 6, 12),
])
def test_subset_scan_with_tiny_roots_matches_reference(alpha, n):
    """Roots this small make subsets that are not closed under j -> n - j
    look real to the float filter.  The walk drops them, and still finds
    what the per-subset scan finds, all of it closed."""
    rho = float(alpha) ** (1.0 / n)
    roots = [rho * cmath.exp(2j * cmath.pi * j / n) for j in range(n)]

    def looks_real(subset):
        coeffs = [complex(1.0)]
        for j in subset:
            coeffs = [0j] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= roots[j] * coeffs[k + 1]
        return all(abs(c.imag) <= _IMAG_TOLERANCE for c in coeffs)

    assert any(
        looks_real(subset) and not is_conjugation_closed(subset, n)
        for size in range(1, n)
        for subset in itertools.combinations(range(n), size)
    )
    expected = reference_subset_factorizations(alpha, n)
    assert subset_keys(subset_factorizations(alpha, n)) == subset_keys(expected)
    assert all(is_conjugation_closed(f.subset, n) for f in expected)


@pytest.mark.parametrize("alpha, n, expected", [
    (Fraction(1, 10 ** 42), 7, [([0], "x - 1/1000000")]),
    (Fraction(1, 10 ** 36), 6, [([0], "x - 1/1000000"), ([3], "x + 1/1000000")]),
])
def test_subset_scan_reports_only_closed_subsets(alpha, n, expected):
    """Roots of modulus 10^-6 make single roots look real and round to the
    true factor x -+ 10^-6.  Only subsets closed under j -> n - j are
    reported, so each such factor is listed once, at its real root."""
    found = subset_factorizations(alpha, n)
    assert [(sorted(f.subset), str(f.factor)) for f in found] == expected


# ----------------------------------------------------------------------
# the semidirect product acting on the roots

def test_meta_constructor_validation():
    with pytest.raises(ValueError):
        MetaGaloisElem(1, 0, 1)
    with pytest.raises(ValueError):
        MetaGaloisElem(6, 0, 2)   # 2 not a unit mod 6
    with pytest.raises(ValueError):
        MetaGaloisElem(5, 5, 1)   # a out of range
    with pytest.raises(ValueError):
        MetaGaloisElem(5, 0, 0)   # c must be >= 1


def test_meta_compose_mixed_moduli():
    with pytest.raises(ValueError):
        meta_compose(MetaGaloisElem.sigma(5), MetaGaloisElem.sigma(7))


def test_meta_defining_relation_worked_example():
    # tau_2 sigma = sigma^2 tau_2 in the n = 5 group
    n, c = 5, 2
    sigma = MetaGaloisElem.sigma(n)
    tau = MetaGaloisElem.tau(n, c)
    left = meta_compose(tau, sigma)
    assert left == MetaGaloisElem(n, c, c)
    sigma_c = meta_compose(sigma, sigma)
    assert left == meta_compose(sigma_c, tau)


def test_meta_sigma_has_order_n():
    n = 7
    sigma = MetaGaloisElem.sigma(n)
    power = MetaGaloisElem.identity(n)
    for k in range(1, n):
        power = meta_compose(power, sigma)
        assert power != MetaGaloisElem.identity(n)
    assert meta_compose(power, sigma) == MetaGaloisElem.identity(n)


def test_meta_embeddings_are_injective_homomorphisms():
    n = 12
    units = [c for c in range(1, n) if gcd(c, n) == 1]
    for c1 in units:
        for c2 in units:
            assert meta_compose(
                MetaGaloisElem.tau(n, c1), MetaGaloisElem.tau(n, c2)
            ) == MetaGaloisElem.tau(n, c1 * c2 % n)
    for a1 in range(n):
        for a2 in range(n):
            assert meta_compose(
                MetaGaloisElem(n, a1, 1), MetaGaloisElem(n, a2, 1)
            ) == MetaGaloisElem(n, (a1 + a2) % n, 1)
    assert len({MetaGaloisElem.tau(n, c) for c in units}) == len(units)
    assert len({MetaGaloisElem(n, a, 1) for a in range(n)}) == n


def test_meta_translation_subgroup_is_normal():
    for n in (5, 8, 12):
        units = [c for c in range(n) if gcd(c, n) == 1]
        elems = [MetaGaloisElem(n, a, c) for a in range(n) for c in units]
        inverse = {
            g: next(h for h in elems if meta_compose(g, h) == MetaGaloisElem.identity(n))
            for g in elems
        }
        for g in elems:
            for a in range(n):
                conj = meta_compose(meta_compose(g, MetaGaloisElem(n, a, 1)), inverse[g])
                assert conj.c == 1


def test_meta_group_checks_reports():
    report = meta_group_checks(5)
    assert report == GroupReport(n=5, order=20, abelian=False, relation_holds=True)
    assert meta_group_checks(2).abelian
    assert meta_group_checks(6).order == 12
    assert not meta_group_checks(3).abelian
    with pytest.raises(ValueError):
        meta_group_checks(1)


# ----------------------------------------------------------------------
# Gauss sums and square-root witnesses

def test_gauss_sum_small_values():
    assert gauss_sum(1).as_rational() == 1
    assert gauss_sum(2).is_zero()
    assert gauss_sum(3).coeffs == (Fraction(1), Fraction(2))       # 1 + 2 zeta_3
    assert gauss_sum(4).coeffs == (Fraction(2), Fraction(2))       # 2 + 2i
    assert gauss_sum(6).is_zero()
    assert gauss_sum(8) == zeta_power(8, 1) * 4
    assert (gauss_sum(5) ** 2).as_rational() == 5
    assert (gauss_sum(7) ** 2).as_rational() == -7
    with pytest.raises(ValueError):
        gauss_sum(0)


def test_gauss_sum_case_check_small_moduli():
    for m in range(1, 21):
        assert gauss_sum_case_check(m), m


def test_gauss_sums_past_the_witness_limit_are_refused(monkeypatch):
    """g(m) is one combination at m, checked by one dense square at phi(m),
    the cost of a square-root witness, so m has the same limit."""
    def forbidden(*args):
        raise AssertionError("sum built before the limit was checked")

    monkeypatch.setattr(kummer, "root_combination", forbidden)
    for m in (MAX_WITNESS_MODULUS + 1, 1000000007):
        limit = f"modulus {m} is above the limit {MAX_WITNESS_MODULUS}"
        with pytest.raises(ValueError, match=limit):
            gauss_sum(m)
        with pytest.raises(ValueError, match=limit):
            gauss_sum_case_check(m)


SQRT_MODULI = {
    2: 8,
    3: 12,
    5: 5,
    6: 24,
    7: 28,
    10: 40,
    15: 60,
    21: 21,
    33: 33,
    Fraction(1, 2): 8,
    Fraction(9, 4): 1,
    Fraction(50, 9): 8,
}


def test_sqrt_witness_moduli_and_squares():
    for alpha, expected_modulus in SQRT_MODULI.items():
        modulus, witness = sqrt_in_cyclotomic(alpha)
        assert modulus == expected_modulus, alpha
        assert witness.modulus == expected_modulus
        assert (witness * witness).as_rational() == alpha
        numeric = witness.numeric_eval()
        assert abs(numeric.imag) < 1e-9 and numeric.real > 0


def test_sqrt_witness_for_two_is_the_classical_one():
    modulus, witness = sqrt_in_cyclotomic(2)
    assert modulus == 8
    assert witness == zeta_power(8, 1) + zeta_power(8, -1)
    assert witness.coeffs == (0, 1, 0, -1)


def test_sqrt_witness_modulus_is_minimal():
    """No proper cyclotomic subfield already contains the root: for every
    proper divisor d of the modulus some automorphism fixing Q(zeta_d)
    moves the witness, and the linear descent to the maximal subfields
    fails too."""
    for alpha in (2, 3, 5, 6, 21):
        modulus, witness = sqrt_in_cyclotomic(alpha)
        for d in divisors(modulus)[:-1]:
            moved = any(
                witness.galois_apply(c) != witness
                for c in range(1, modulus + 1)
                if gcd(c, modulus) == 1 and (c - 1) % d == 0
            )
            assert moved, (alpha, d)
        for p, _ in prime_factorization(modulus):
            sub = modulus // p
            assert express_in_submodulus(witness, sub) is None, (alpha, sub)


def test_sqrt_witness_matches_product_reference():
    """The closed-form root combination is the element the product of r,
    sqrt(2), the Gauss sum and 1/i gives: same modulus, same coordinates."""
    for d in range(1, 301):
        if mobius(d) == 0:
            continue
        for r in (1, Fraction(3, 2), Fraction(2, 7)):
            alpha = r * r * d
            modulus, witness = sqrt_in_cyclotomic(alpha)
            expected_modulus, expected = reference_sqrt_witness(alpha)
            assert modulus == witness.modulus == expected_modulus, alpha
            assert witness == expected, alpha


@pytest.mark.parametrize("alpha", [3 * 10 ** 700, Fraction(7, 10 ** 800), Fraction(2 * 10 ** 700, 9)],
                         ids=["3e700", "7e-800", "2e700/9"])
def test_sqrt_witness_past_the_float_range(alpha, capsys):
    """The positive-root check reads the roots of unity at unit scale, so a
    root r sqrt(d) with r far outside the float range is still written,
    checked by its square and equal to the product reference, and
    sqrt-embed and a YES root-member print it."""
    modulus, witness = sqrt_in_cyclotomic(alpha)
    assert (witness * witness).as_rational() == alpha
    assert (modulus, witness) == reference_sqrt_witness(alpha)
    for argv in (["sqrt-embed", str(alpha), "--json"], ["root-member", str(alpha), "2", str(4 * modulus), "--json"]):
        assert run_cli(argv) == 0, argv
        data = json.loads(capsys.readouterr().out)
        assert data["witness"]["modulus"] in (modulus, 4 * modulus), argv
    assert data["answer"] == "YES"


def test_sqrt_witness_is_one_combination_checked_once(monkeypatch, capsys):
    """The witness is built with no product, embedding, root of unity or
    Gauss sum; its one product is the check witness * witness == alpha."""
    def forbidden(*args, **kwargs):
        raise AssertionError("square-root witness built from field elements")

    products = []  # the modulus of each dense product or power

    def counting(original):
        def counted(self, *args):
            products.append(self.modulus)
            return original(self, *args)
        return counted

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(CycElem, name, counting(getattr(CycElem, name)))
    with monkeypatch.context() as patch:
        patch.setattr(CycElem, "embed", forbidden)
        patch.setattr("trigrat.kummer.zeta_power", forbidden)
        patch.setattr("trigrat.kummer.gauss_sum", forbidden)
        for alpha in (2, 3, 5, 6, 7, 10, 15, 21, 30, Fraction(50, 9), Fraction(9, 4)):
            products.clear()
            modulus, _ = sqrt_in_cyclotomic(alpha)
            assert products == [modulus], alpha

    # m is the conductor of Q(sqrt(15)): the YES is checked once, at 60
    products.clear()
    code = run_cli(["root-member", "15", "2", "60", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "YES"
    assert products == [60]


def kummer_digest(capsys, commands):
    """sha256 over each command line, its exit code, stdout and stderr."""
    digest = hashlib.sha256()
    for argv in commands:
        code = run_cli(argv)
        captured = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\n{code}\n{captured.out}{captured.err}".encode())
    return digest.hexdigest()


def coprime_fractions(bound):
    return [f"{a}/{b}" for b in range(1, bound + 1) for a in range(1, bound + 1) if gcd(a, b) == 1]


# the same digests as printed by the witness built as a product of field
# elements and checked a second time after the embedding
SQRT_EMBED_30_DIGEST = "87002b3edc1cd95a33fc0c1487da0749358cf243f6b1f4980e614a95a5b5f967"
ROOT_MEMBER_12_DIGEST = "effbf581c1c6b920a9b0b3cbb12800fc90c315cf5c2f9ccf0d9f203d6a94f92d"


def test_sqrt_embed_payloads_match_product_digest(capsys):
    commands = [["sqrt-embed", alpha, "--json"] for alpha in coprime_fractions(30)]
    assert kummer_digest(capsys, commands) == SQRT_EMBED_30_DIGEST


def test_root_member_payloads_match_product_digest(capsys):
    commands = [
        ["root-member", alpha, str(n), str(m), "--json"]
        for alpha in coprime_fractions(12)
        for n in (1, 2, 4, 6)
        for m in range(1, 61)
    ]
    assert kummer_digest(capsys, commands) == ROOT_MEMBER_12_DIGEST


# irreducible --oracle --json at n = 2..8 for coprime a/b with a, b <= 12,
# and at the (n, k) of the kummer benchmark's perfect powers (a/b)^k, a <= 9
# prime to b, b in 1001..1010, and the same grid at n = 2..12; the same
# digests as the per-subset scan (scripts/payload_digests.py prints the
# second)
ORACLE_8_DIGEST = "08c2297130885ee36dbcba4fb33dcad330da72f3b54c0a79cbe1792b25207257"
ORACLE_12_DIGEST = "e617dc2f3fb1ba8be9bf57aecca2292c2f4ac4559afcbb62adfdcae05fd09d0a"


def oracle_commands(n_max):
    for alpha in coprime_fractions(12):
        for n in range(2, n_max + 1):
            yield ["irreducible", alpha, str(n), "--oracle", "--json"]
    for n, k in ((2, 4), (3, 6), (4, 2), (6, 3), (2, 2)):
        for b in range(1001, 1011):
            for a in range(1, 10):
                if n <= n_max and gcd(a, b) == 1:
                    yield ["irreducible", str(Fraction(a, b) ** k), str(n), "--oracle", "--json"]


def test_oracle_payloads_match_per_subset_digest(capsys):
    assert kummer_digest(capsys, oracle_commands(8)) == ORACLE_8_DIGEST


def test_full_oracle_grid_matches_per_subset_digest(capsys):
    assert kummer_digest(capsys, oracle_commands(12)) == ORACLE_12_DIGEST


def test_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        sqrt_in_cyclotomic(0)
    with pytest.raises(ValueError):
        sqrt_in_cyclotomic(-4)


# ----------------------------------------------------------------------
# root membership

def test_root_membership_sqrt2_in_zeta8():
    verdict = nth_root_in_cyclotomic(2, 2, 8)
    assert verdict.member and verdict.answer == "YES"
    assert verdict.justification is RootJustification.GALOIS_INVARIANCE
    assert verdict.witness.coeffs == (0, 1, 0, -1)
    assert (verdict.witness ** 2).as_rational() == 2


def test_root_membership_sqrt2_not_in_zeta12():
    verdict = nth_root_in_cyclotomic(2, 2, 12)
    assert not verdict.member and verdict.answer == "NO"
    assert verdict.justification is RootJustification.GALOIS_INVARIANCE
    assert verdict.witness is None


def test_root_membership_cube_roots_never_cyclotomic():
    for m in (1, 2, 3, 7, 8, 9, 12, 54, 100):
        verdict = nth_root_in_cyclotomic(2, 3, m)
        assert not verdict.member
        assert verdict.justification is RootJustification.THEOREM_1_3


def test_root_membership_quartic_root_never_cyclotomic():
    verdict = nth_root_in_cyclotomic(2, 4, 8)
    assert not verdict.member
    assert verdict.justification is RootJustification.THEOREM_1_3


def test_root_membership_exponent_reduction():
    # 8^(1/6) = sqrt(2), so the sextic query reduces to the quadratic one
    verdict = nth_root_in_cyclotomic(8, 6, 8)
    assert verdict.member
    assert verdict.justification is RootJustification.GALOIS_INVARIANCE
    assert (verdict.witness ** 6).as_rational() == 8

    verdict = nth_root_in_cyclotomic(4, 2, 5)
    assert verdict.member
    assert verdict.justification is RootJustification.EXPONENT_REDUCED
    assert verdict.witness.as_rational() == 2

    verdict = nth_root_in_cyclotomic(Fraction(64, 729), 6, 1)
    assert verdict.member
    assert verdict.justification is RootJustification.EXPONENT_REDUCED
    assert verdict.witness.as_rational() == Fraction(2, 3)


def test_root_membership_degree_one():
    verdict = nth_root_in_cyclotomic(Fraction(7, 3), 1, 12)
    assert verdict.member
    assert verdict.justification is RootJustification.CONSTRUCTED_WITNESS
    assert verdict.witness.as_rational() == Fraction(7, 3)


def test_root_membership_matches_conductor_rule():
    """For squarefree-free quadratic queries the verdict must agree with the
    conductor of Q(sqrt(alpha)) dividing the (normalised) modulus."""
    for alpha in (2, 3, 5, 6, 7, 10, Fraction(1, 2), Fraction(5, 4)):
        conductor, _ = sqrt_in_cyclotomic(alpha)
        for m in range(1, 41):
            m_norm = m // 2 if m % 4 == 2 else m
            verdict = nth_root_in_cyclotomic(alpha, 2, m)
            assert verdict.member == (m_norm % conductor == 0), (alpha, m)
            if verdict.member:
                assert (verdict.witness ** 2).as_rational() == alpha
                assert verdict.witness.modulus == m


def test_root_membership_matches_galois_reference():
    for alpha in (2, 3, 5, 6, 7, 10, 15, 21, Fraction(1, 2), Fraction(3, 5)):
        for m in range(1, 61):
            verdict = nth_root_in_cyclotomic(alpha, 2, m)
            expected = reference_sqrt_member(alpha, m)
            assert verdict.member == (expected is not None), (alpha, m)
            assert verdict.witness == expected, (alpha, m)


def test_sqrt_membership_needs_no_galois_action_or_descent(monkeypatch, capsys):
    """Square-root membership is decided by the conductor alone: the CLI
    answers with the Galois action disabled (the linear descent lives only
    in the tests)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("general Galois machinery on the square-root decision path")

    monkeypatch.setattr(CycElem, "galois_apply", forbidden)

    sqrt2 = {"modulus": 8, "coeffs": ["0", "1", "0", "-1"]}
    sqrt3 = {"modulus": 24, "coeffs": ["0", "0", "2", "0", "0", "0", "-1", "0"]}
    cases = [
        (("2", "2", "8"), "YES", sqrt2),
        (("8", "6", "8"), "YES", sqrt2),
        (("3", "2", "24"), "YES", sqrt3),
        (("2", "2", "12"), "NO", None),
        (("15", "2", "239"), "NO", None),
    ]
    for (alpha, n, m), answer, witness in cases:
        code = run_cli(["root-member", alpha, n, m, "--json"])
        assert code == 0, (alpha, n, m)
        assert json.loads(capsys.readouterr().out) == {
            "alpha": alpha,
            "n": int(n),
            "modulus": int(m),
            "answer": answer,
            "justification": "galois_invariance",
            "witness": witness,
        }, (alpha, n, m)


def test_sqrt_non_membership_builds_no_witness(monkeypatch, capsys):
    """A square-root NO follows from the conductor of the squarefree part:
    the CLI answers with the witness construction disabled."""
    def forbidden(*args, **kwargs):
        raise AssertionError("square-root witness built for a NO")

    monkeypatch.setattr("trigrat.kummer.sqrt_in_cyclotomic", forbidden)
    monkeypatch.setattr("trigrat.kummer.gauss_sum", forbidden)
    for alpha, n, m in (("4199", "2", "7"), ("15", "2", "239"), ("2", "2", "12"), ("9", "4", "8")):
        code = run_cli(["root-member", alpha, n, m, "--json"])
        assert code == 0, (alpha, n, m)
        assert json.loads(capsys.readouterr().out) == {
            "alpha": alpha,
            "n": int(n),
            "modulus": int(m),
            "answer": "NO",
            "justification": "galois_invariance",
            "witness": None,
        }, (alpha, n, m)


def test_sqrt_non_membership_at_a_product_of_large_primes_factors_nothing(monkeypatch, capsys):
    """(10^9 + 7)(10^9 + 9) shares no prime with 12 and is not a square, so
    its square root lies outside Q(zeta_12); the answer comes without
    factoring it, which trial division would take minutes to do."""
    def forbidden(*args, **kwargs):
        raise AssertionError("squarefree part computed")

    monkeypatch.setattr("trigrat.numtheory.squarefree_decompose", forbidden)
    monkeypatch.setattr("trigrat.kummer._squarefree_part", forbidden)
    start = time.perf_counter()
    code = run_cli(["root-member", "1000000016000000063", "2", "12", "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "alpha": "1000000016000000063",
        "n": 2,
        "modulus": 12,
        "answer": "NO",
        "justification": "galois_invariance",
        "witness": None,
    }


def test_sqrt_non_membership_with_a_large_square_factor_factors_nothing(monkeypatch, capsys):
    """3 (10^9 + 7)^2: what is left after the gcds with m is a square, so
    every prime of d = 3 divides m, and only the 2-part of the conductor
    12 is left to decide; at m = 6 the answer is NO with nothing factored."""
    def forbidden(*args, **kwargs):
        raise AssertionError("squarefree part computed")

    monkeypatch.setattr("trigrat.numtheory.squarefree_decompose", forbidden)
    monkeypatch.setattr("trigrat.kummer._squarefree_part", forbidden)
    monkeypatch.setattr("trigrat.kummer.sqrt_in_cyclotomic", forbidden)
    start = time.perf_counter()
    code = run_cli(["root-member", "3000000042000000147", "2", "6", "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "NO"


@pytest.mark.parametrize("argv, code, out", [
    (["root-member", "3000000042000000147", "2", "12"],
     0, "3000000042000000147^(1/2) in Q(zeta_12): YES  [galois_invariance]"
        "  witness = 2000000014*z12 - 1000000007*z12^3\n"),
    (["root-member", "3000000042000000147", "2", "6"], 0, "3000000042000000147^(1/2) in Q(zeta_6): NO  [galois_invariance]\n"),
    (["sqrt-embed", "1000000016000000063"], 2, ""),
    (["root-member", "2", "1000000007", "12"], 0, "2^(1/1000000007) in Q(zeta_12): NO  [theorem_1_3]\n"),
    (["irreducible", "2", "1000000007"], 0, "x^1000000007 - 2 is irreducible over Q\n"),
])
def test_large_prime_factors_answer_within_a_second(argv, code, out):
    """No command trial-divides alpha up to its square root, and no n-th
    root of alpha forms 2^n at a large prime n: each answers, or refuses
    with a message, in a fresh process within 1 s."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "trigrat", *argv], capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 1.0, argv
    assert (result.returncode, result.stdout) == (code, out), result.stderr
    if code == 2:
        assert result.stderr == f"error: the conductor of Q(sqrt(1000000016000000063)) is above the limit {MAX_WITNESS_MODULUS}\n"


def _factored_conductor(beta):
    d = prod(p for p, e in prime_factorization(beta.numerator * beta.denominator) if e % 2)
    return d if d % 4 == 1 else 4 * d


@given(st.integers(1, 10 ** 4), st.integers(1, 10 ** 4), st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=6),
       st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 11, 13]), max_size=4), st.integers(1, 50))
@settings(max_examples=400)
def test_conductor_divides_matches_the_factored_conductor(a, b, shared, m_factors, cofactor):
    """The gcd strip, the square test and the 2-part rule agree with the
    conductor read off the factored squarefree part, on alphas that share
    primes with m."""
    beta = Fraction(a, b)
    for p in shared:
        beta *= p
    m = cofactor
    for p in m_factors:
        m *= p
    assert kummer._conductor_divides(beta, m) == (m % _factored_conductor(beta) == 0), (beta, m)


def test_root_membership_json_shape():
    data = nth_root_in_cyclotomic(2, 2, 8).to_json()
    assert data["answer"] == "YES"
    assert data["justification"] == "galois_invariance"
    assert data["alpha"] == "2"
    assert data["witness"]["modulus"] == 8

    data = nth_root_in_cyclotomic(2, 3, 8).to_json()
    assert data["answer"] == "NO"
    assert data["justification"] == "theorem_1_3"
    assert data["witness"] is None


def test_root_membership_rejects_bad_input():
    with pytest.raises(ValueError):
        nth_root_in_cyclotomic(-1, 2, 8)
    with pytest.raises(ValueError):
        nth_root_in_cyclotomic(2, 0, 8)
    with pytest.raises(ValueError):
        nth_root_in_cyclotomic(2, 2, 0)


def test_witnesses_past_the_modulus_limits_are_refused():
    top = MAX_MEMBER_MODULUS
    assert nth_root_in_cyclotomic(4, 2, top).witness == CycElem.from_rational(top, 2)
    for alpha, n in ((4, 2), (4, 1), (5, 2)):  # 5 is 1 mod 4: conductor 5
        with pytest.raises(ValueError, match=f"modulus {top + 5} is above the limit {top}"):
            nth_root_in_cyclotomic(alpha, n, top + 5)
    # prime and 1 mod 4: the conductor of sqrt(50021) is 50021
    limit = f"modulus 50021 is above the limit {MAX_WITNESS_MODULUS}"
    with pytest.raises(ValueError, match=limit):
        sqrt_in_cyclotomic(50021)
    with pytest.raises(ValueError, match=limit):
        nth_root_in_cyclotomic(50021, 2, 50021)
    # a NO builds no witness, so it has no limit
    for alpha, n in ((3, 2), (2, 3), (50021, 2)):
        verdict = nth_root_in_cyclotomic(alpha, n, 10 ** 9)
        assert (verdict.member, verdict.witness) == (False, None)


# ----------------------------------------------------------------------
# the octic worked example

def test_remark_factorization_holds():
    assert verify_remark_factorization()


def test_remark_factorization_is_sign_sensitive():
    s = zeta_power(8, 1) + zeta_power(8, -1)
    wrong = _poly_mul([-s, 0, 0, 0, 1], [-s, 0, 0, 0, 1])
    octic = [-2, 0, 0, 0, 0, 0, 0, 0, 1]
    assert wrong != octic


def test_remark_expansion_has_no_middle_terms():
    s = zeta_power(8, 1) + zeta_power(8, -1)
    product = _poly_mul([-s, 0, 0, 0, 1], [s, 0, 0, 0, 1])
    assert all(product[k] == 0 for k in range(1, 8))
    assert product[0] == -(s * s)
    assert (s * s).as_rational() == 2
