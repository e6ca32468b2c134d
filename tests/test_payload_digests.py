"""The byte-identity gate: every grid of ``scripts/payload_digests.py``
prints its pinned digest, so every verdict, witness, JSON payload, usage
message and exit code those grids cover keeps its bytes.  A change that
alters a grid on purpose updates its pin here and gives the reason in
CHANGES.md."""

import re

import pytest

PINS = {
    "classify+eval q<=60": "20211efc6c62501836e3698464b7e506db912f809b57ceef26a46af4ab8dd3ad",
    "verify sweep q<=32 n<=8": "0b4454e4edee6b5c78e0ad96b78ed21a8c4769af13c2a151426bf35407561da2",
    "verify sweep q<=96 n<=8": "222b4c25101f9f6a9038cba88d6a8ed5ff054f62d2b482393f0d56858ced3020",
    "verify sweep q<=48 n<=12 --funcs tan,sin,cos": "1965a4216f5d774c970a8131682714e66e62fbfd764a2e1bf227a60bfdb26326",
    "classify 100<=q<200": "d11d011d5f5978321889d240c5f9a21d4d621687a1b0f944b622c1087fcf8c89",
    "root-member a/b<=12 n in 1,2,4,6 m<=60": "effbf581c1c6b920a9b0b3cbb12800fc90c315cf5c2f9ccf0d9f203d6a94f92d",
    "sqrt-embed a/b<=30": "87002b3edc1cd95a33fc0c1487da0749358cf243f6b1f4980e614a95a5b5f967",
    "gauss m<=120": "3216896f99e4baac134837c16dabf9c45df7cbb32316d9bb244262cbbdf259f2",
    "eval --pow 31,64,257,1000 at 1/q, eight q <= 97":
        "a0fc6311bf96ef2f9450ef7d4fd5a94e5a2dc651be34903c97f6185db9e61628",
    "eval --pow 1,2,3,12 at p/q, q in 105,385,1155": "a63cfd60ac45686a526236119300670d99583647d70f7b2b9d9c795a6c648fab",
    "irreducible --oracle a/b<=12 n<=12, perfect powers":
        "79fa03390b95e5a120dd52e5fb92216bbdc9e55be4b32f95a3ff026d90e0a30c",
    "irreducible --oracle 10^e, e = 1, 8, ..., 295, n<=12":
        "e2b531367379b74071fc02459cec58e88533a7ecaed9b53610e7f28e2e7a356f",
    "verify sweep q<=1000 n<=12": "fd75d1d376fc9c64f4ad24ef3d88639289c90416cdf843a1b5f6d24c34fb93b5",
    "verify sweep q<=12 n<=1000": "d4311314c7bb3d6b8718a2aabdc3d4cb970ff4af58d57c8b41eb7f7aa13b0f87",
    "usage errors and help": "9e2423d2c090ce9a5ecac5565ac77f425c235ec62c4e1f355d3a2e55ff8d85f4",
    "group 2..12, verify gauss|group|remark, text and --json":
        "72785bcb091809a4d9498e04efe532665080df943309b8f3e327823a066690af",
    "verify sweep q<=24 n<=8 --funcs subsets, verify refusals, text and --json":
        "547c7e3735dc129c315f88751c86c2c1f343d861b9c2b5d639c4d73d6fb1dfd7",
    "irreducible --oracle outside the float range and at 1000 digits, text and --json":
        "a25913dc5fbed8000ae68c6b8353779fba61e2279c07f0cf1334f8430b92b11e",
    "classify as text: 100<=q<200, slow witnesses, modulus refusals":
        "d7734b1c28c07956835e0bdfae44b1fafc420049d2d4d272cd4501c80733843d",
    "argv shapes, text and --json": "c596e3e1de5ff1562b892e045dfa5a720b92bbebd60d4aa21c1a8f196bb502d8",
    "witnesses at three and four odd primes: classify, root-member, gauss, sqrt-embed":
        "c2dcf9e66c4f496d29551367ca0f9f8dbddb9d968b60b89a2194c25ade5f7e03",
    "verify sweep --json, --funcs cos|sin|tan|sin,cos, q<=1,2,3,5,6,7,13,26, n<=1,2,3":
        "aeb17593a159a69978fd7af82e6705f6958885bb6370f7355a3723c4841f1212",
}


def slug(name):
    return re.sub(r"[^0-9a-z]+", "-", name.lower()).strip("-")


def test_every_grid_has_a_pin_and_every_pin_a_grid(payload_digests):
    assert set(PINS) == set(payload_digests.GRIDS)


@pytest.mark.parametrize("name", PINS, ids=slug)
def test_grid_prints_its_pinned_digest(payload_digests, name):
    assert payload_digests.GRIDS[name]() == PINS[name]
