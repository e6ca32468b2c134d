"""Seeded inputs for the three workloads.

A workload run is a sequence of passes.  One pass is a fixed design of CLI
calls whose values are drawn from ``random.Random`` seeded with the
workload, the benchmark seed and the pass index, so the same seed always
gives the same argv lists.  A pass is split into batches; each batch runs
in its own fresh child process, which therefore starts with empty caches.

The designs keep the mix of call kinds, functions and sizes the same in
every pass and every seed, and let the seed choose the values inside each
stratum (kummer's heaviest queries and its call order are fixed, see
_heavy_non_members); that is what keeps the per-run medians steady from
seed to seed.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from fractions import Fraction

from oracles import FUNCS, conductor, phi, rational_root, squarefree_part

# sweep: the paper's exhaustive check at one size
SWEEP_Q_MAX = 32
SWEEP_N_MAX = 8

# classify_cold: q in [100, 200), every modulus lcm(2q, 4) once per pass
COLD_Q_RANGE = (100, 200)
COLD_BATCHES = 2

# kummer: root-member moduli up to a few dozen; the square-root non-members
# are spread over bands of power-table size (integers held), see
# _heavy_non_members
KUMMER_M_MAX = 48
KUMMER_TABLE_LOW, KUMMER_TABLE_HIGH, KUMMER_BANDS = 5 * 10 ** 5, 15 * 10 ** 6, 12
# two blocks of 60 calls per pass, one block per batch: each child keeps
# its power tables for 60 calls, so the unbounded caches show in its RSS
KUMMER_BLOCKS = 2
# (n, k) for the perfect powers (a/b)^k, b past 10^3, in the irreducible
# slice; (2, 4) and (3, 6) hit the known subset-oracle false alarm: every
# proper factor has a denominator past the oracle's reconstruction cap
PERFECT_POWER_SHAPES = ((2, 4), (3, 6), (4, 2), (6, 3), (2, 2))


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _small_fraction(rng: random.Random, top: int) -> Fraction:
    while True:
        a, b = rng.randint(1, top), rng.randint(1, top)
        if math.gcd(a, b) == 1 and a != b:
            return Fraction(a, b)


def _split(calls: list[dict], batches: int, rng: random.Random) -> list[list[dict]]:
    """Deal the calls round-robin into batches (each batch sees the same
    mix) and shuffle the order inside each batch."""
    dealt = [calls[i::batches] for i in range(batches)]
    for batch in dealt:
        rng.shuffle(batch)
    return dealt


# ----------------------------------------------------------------------
# sweep

def sweep_pass(rng: random.Random) -> list[list[dict]]:
    funcs = list(FUNCS)
    rng.shuffle(funcs)  # the work is the same in any order
    argv = ["verify", "sweep", "--q-max", str(SWEEP_Q_MAX), "--n-max", str(SWEEP_N_MAX),
            "--funcs", ",".join(funcs), "--json"]
    return [[{"kind": "sweep", "argv": argv, "q_max": SWEEP_Q_MAX, "n_max": SWEEP_N_MAX,
              "funcs": funcs}]]


# ----------------------------------------------------------------------
# classify_cold

def cold_moduli() -> dict[int, list[int]]:
    """Denominators q in COLD_Q_RANGE grouped by their modulus lcm(2q, 4)."""
    groups: dict[int, list[int]] = {}
    for q in range(*COLD_Q_RANGE):
        groups.setdefault(math.lcm(2 * q, 4), []).append(q)
    return groups


def classify_cold_pass(rng: random.Random) -> list[list[dict]]:
    calls = []
    for i, (modulus, qs) in enumerate(sorted(cold_moduli().items())):
        func = FUNCS[i % 3]
        q = rng.choice(qs)
        while True:
            p = rng.randrange(1, 2 * q)
            if math.gcd(p, q) == 1:
                break
        calls.append({"kind": "classify", "argv": ["classify", func, f"{p}/{q}", "--json"],
                      "func": func, "p": p, "q": q})
    return _split(calls, COLD_BATCHES, rng)


# ----------------------------------------------------------------------
# kummer

def _root_member(alpha: Fraction, n: int, m: int) -> dict:
    return {"kind": "root-member", "argv": ["root-member", str(alpha), str(n), str(m), "--json"],
            "alpha": str(alpha), "n": n, "m": m}


def table_entries(modulus: int) -> int:
    """Integers in trigrat's power table for one modulus: rows * phi."""
    f = phi(modulus)
    return max(modulus, 2 * f - 1) * f


@functools.lru_cache(maxsize=None)
def _non_member_pool() -> list[tuple[int, Fraction, int]]:
    """Every square-root non-member query (beta, m), beta = a/b with
    a, b <= 12 no square and 2 <= m <= KUMMER_M_MAX, with the size of the
    power table trigrat builds for it: at the lcm of m (halved when
    m = 2 mod 4) and the conductor of sqrt(beta).  Sorted by that size."""
    pool = []
    for a in range(1, 13):
        for b in range(1, 13):
            beta = Fraction(a, b)
            if math.gcd(a, b) != 1 or a == b or rational_root(beta, 2) is not None:
                continue
            cond = conductor(squarefree_part(beta))
            for m in range(2, KUMMER_M_MAX + 1):
                if m % cond:
                    m_norm = m // 2 if m % 4 == 2 else m
                    pool.append((table_entries(math.lcm(m_norm, cond)), beta, m))
    pool.sort(key=lambda entry: entry[0])
    return pool


def _square_root_query(rng: random.Random, beta: Fraction, m: int) -> dict:
    """alpha^(1/n) with alpha = beta^(n/2): a square root after exponent
    reduction."""
    n = rng.choice((2, 4, 6))
    return _root_member(beta ** (n // 2), n, m)


def kummer_pass(rng: random.Random) -> list[list[dict]]:
    blocks = [_kummer_block(rng, block) for block in range(KUMMER_BLOCKS)]
    for index, block in enumerate(blocks):
        # the same order for every seed: what a call costs depends on the
        # caches and heap the calls before it left behind
        random.Random(f"kummer-order:{index}").shuffle(block)
    return blocks


def _heavy_non_members(block: int) -> list[tuple[Fraction, int]]:
    """One square-root non-member (beta, m) from each of KUMMER_BANDS
    geometric bands of power-table size, taken at the same quantile of the
    band in every pass.  Their cost also depends on how many Galois
    elements fix the witness before one moves it, which no band captures,
    so they are fixed rather than drawn: the 90th percentile latency falls
    among them and would otherwise follow the draw."""
    pool = _non_member_pool()
    sizes = [entry[0] for entry in pool]
    ratio = KUMMER_TABLE_HIGH / KUMMER_TABLE_LOW
    bands = [KUMMER_TABLE_LOW * ratio ** (k / KUMMER_BANDS) for k in range(KUMMER_BANDS + 1)]
    chosen = []
    for low, high in zip(bands, bands[1:]):
        first, end = bisect.bisect_right(sizes, low), bisect.bisect_right(sizes, high)
        _, beta, m = pool[first + (end - first) * (block + 1) // (KUMMER_BLOCKS + 1)]
        chosen.append((beta, m))
    return chosen


def _kummer_block(rng: random.Random, block: int) -> list[dict]:
    calls = []
    # root-member, 36 calls.  4 square-root members (m a multiple of the
    # conductor); 12 square-root non-members with power tables of 5*10^5
    # to 1.5*10^7 integers (moduli up to about 7500); 10 outright rational
    # roots; 10 roots of degree >= 3.
    for _ in range(4):
        while True:
            beta = _small_fraction(rng, 12)
            cond = conductor(squarefree_part(beta))
            if rational_root(beta, 2) is None and cond <= KUMMER_M_MAX:
                break
        calls.append(_square_root_query(rng, beta, cond * rng.randint(1, KUMMER_M_MAX // cond)))
    for beta, m in _heavy_non_members(block):
        calls.append(_square_root_query(rng, beta, m))
    for i in range(10):
        n = (2, 3, 4, 6)[i % 4]
        calls.append(_root_member(_small_fraction(rng, 12) ** n, n, rng.randint(1, KUMMER_M_MAX)))
    for i in range(10):
        n = (3, 4, 6)[i % 3]
        beta = _small_fraction(rng, 12)
        while any(rational_root(beta, r) is not None for r in (2, 3)):
            beta = _small_fraction(rng, 12)
        # n = 6 with beta^2 reduces to a cube root; the rest stay generic
        alpha = beta ** 2 if n == 6 and i % 2 else beta
        calls.append(_root_member(alpha, n, rng.randint(1, KUMMER_M_MAX)))

    # irreducible --oracle, 15 calls: degrees 3..12 on small alphas, and
    # perfect powers (a/b)^k with b past 10^3
    for n in range(3, 13):
        alpha = _small_fraction(rng, 12)
        calls.append(_irreducible(alpha, n))
    for n, k in PERFECT_POWER_SHAPES:
        while True:
            a, b = rng.randint(1, 9), rng.randint(1001, 1200)
            if math.gcd(a, b) == 1:
                break
        calls.append(_irreducible(Fraction(a, b) ** k, n))

    # sqrt-embed, 9 calls: r^2 * a/b with a, b <= 12
    for _ in range(9):
        alpha = _small_fraction(rng, 12) * _small_fraction(rng, 6) ** 2
        calls.append({"kind": "sqrt-embed", "argv": ["sqrt-embed", str(alpha), "--json"],
                      "alpha": str(alpha)})
    return calls


def _irreducible(alpha: Fraction, n: int) -> dict:
    return {"kind": "irreducible", "argv": ["irreducible", str(alpha), str(n), "--oracle", "--json"],
            "alpha": str(alpha), "n": n}


PASSES = {
    "sweep": sweep_pass,
    "classify_cold": classify_cold_pass,
    "kummer": kummer_pass,
}


def make_pass(workload: str, seed: int, pass_index: int) -> list[list[dict]]:
    """The batches of one pass; each batch is a list of call descriptions
    with the argv the program receives and what the checks need."""
    return PASSES[workload](_rng(workload, seed, pass_index))
