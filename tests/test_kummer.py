import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat.cli import run_cli
from trigrat.cyclotomic import CycElem, zeta_power
from trigrat.kummer import (
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
)
from trigrat.numtheory import divisors, mobius, prime_factorization
from trigrat.polynomials import RatPoly, _poly_mul

from reference import express_in_submodulus, reference_sqrt_member, reference_sqrt_witness


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
