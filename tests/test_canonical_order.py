"""Strata come out in canonical order by construction.

``enumerate_strata`` reads each canonical key off its enumeration node
instead of keying the built graph, and keeps no dedup dict.  These
tests hold ``canonical_key`` of the materialized graph as the
reference for the node key, and strictly increasing keys as the guard
against duplicates.
"""

import hashlib

import pytest

from treelevel.bruteforce import brute_force_strata
from treelevel.graphs import canonical_key
from treelevel.strata import (
    FM,
    M0,
    MULT,
    SCALED,
    _node_key,
    _placed,
    _raw_strata,
    enumerate_strata,
)

# OEIS A000311 (Schroeder's fourth problem), a(0..7): m0(n) has a(n-1)
# strata and fm(n) has 2*a(n).
A000311 = (0, 1, 1, 4, 26, 236, 2752, 39208)

SPACES = ([M0(n) for n in range(3, 8)] + [FM(n) for n in range(6)]
          + [MULT(n) for n in range(1, 6)] + [SCALED(n) for n in range(5)])


# SHA-256 of repr(list(_raw_strata(space))), pinned before the
# recursion's loops were merged: the nodes in the order the recursion
# yields them, before any sorting.
RAW_STRATA_SHA256 = {
    "m0(3)":
        "f290363af4a386142cea7792a19226ed6866686f3ff3acb14e690c2a08ec9ee3",
    "m0(4)":
        "2af4b6dae70c72506812120d7105fb96aa1fbe142f29fec1da7fe087e43f0c5a",
    "m0(5)":
        "cc1a86e8a4c7a1a4adb493ae6e460450fa90b64dbbc6c4fd3c286e0cba53b16c",
    "m0(6)":
        "a49dea0084bb8a6bc7433a9063517bea03c91c59bd55399f364cb73d96418a90",
    "m0(7)":
        "46ccddf1d4ba073d0c42dc154661e3374bb03dbf914b2dad45414586406e7b3e",
    "fm(0)":
        "aad02351db96851da6e36aa3fef4f05f8a6bc79779544fe1b5729b5f6cc3f5a3",
    "fm(1)":
        "ad2381c1b7dcdb8247079556576e911352579113f57738a205980259d6a910ee",
    "fm(2)":
        "8cd73548737690aaab5afd93c43158a95f8535d225eb3af94e4da29910a50ae2",
    "fm(3)":
        "10ed48b50ef464b01c6f572c16539e1e4ff8a7c72fb7140fac65e18db53ae8b1",
    "fm(4)":
        "ee03914006b368b693715cc9401f2de19898290f09d0b007642cc349187fad2a",
    "fm(5)":
        "421e9ff4755809bd2e87e19bfc1f5b40e1ab50358b6c3a1777c800ef093d8332",
    "mult(1)":
        "ccc8006a0bbde4d8d22fdc238184cbec6823972e49ef76f224bad040e753135e",
    "mult(2)":
        "48b2b7fb954b462e5fee4e4aaf98987dd8ad6edce1266d1a58f18354e03dc28a",
    "mult(3)":
        "9a123388f8cd301bcd01dfc770a78d4ec29875be640a6e93652d47ca46b604e2",
    "mult(4)":
        "53fa513d5d60fcd6019d37e4fe2b4e7ee4622a1f180404bdcecfbe51da91ca65",
    "mult(5)":
        "c8aa2d3816dbc09d61c835be8f855b5c535700b104feec964ae59e812f29d15a",
    "scaled(0)":
        "c9fcb230b661c7a5944b22e13adae529fcd05f524464fe863365762f514fe113",
    "scaled(1)":
        "42e6262519158e92c9a37aefdd73d6a7e2fd48067f21024201a00f3acecc2d3d",
    "scaled(2)":
        "401a6b1b453ceba03dd6c8d32a076b9d06f61607c3b7a0744f76bc6a9420e8d7",
    "scaled(3)":
        "506e0d95468c06d8bbfca2569e2a6aac04f9f213cb31d4d59fcf6748af7cf9f4",
    "scaled(4)":
        "0f416d69c60eb8346d0e88861e2b0f31283c9863572d9125c67b13de5723a759",
    "scaled(5)":
        "a71d38199d45d053eda99d87d106a0446f0e99f05d3c8b809b5f26c9157e28fb",
}


@pytest.mark.parametrize("space", SPACES + [SCALED(5)], ids=str)
def test_raw_strata_are_pinned(space):
    raw = repr(list(_raw_strata(space))).encode()
    assert hashlib.sha256(raw).hexdigest() == RAW_STRATA_SHA256[str(space)]


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_node_key_is_canonical_key(space):
    nodes = list(_raw_strata(space))
    memo = {}
    for node in nodes:
        expected = canonical_key(_placed(space, node)[0])
        assert _node_key(space, node, {}) == expected
        assert _node_key(space, node, memo) == expected


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_keys_strictly_increase(space):
    keys = [canonical_key(g) for g in enumerate_strata(space)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_calls_no_canonical_key(monkeypatch):
    from treelevel import graphs, strata

    def forbidden(g):
        raise AssertionError("enumerate_strata computed a canonical key")

    monkeypatch.setattr(graphs, "canonical_key", forbidden)
    monkeypatch.setattr(strata, "canonical_key", forbidden)
    assert len(enumerate_strata(MULT(4))) == 170
    assert len(enumerate_strata(M0(6))) == 236


def test_graphs_are_validated_lazily(monkeypatch):
    from treelevel import graphs

    calls = []
    real = graphs.validate
    monkeypatch.setattr(graphs, "validate",
                        lambda g: calls.append(g) or real(g))
    strata = enumerate_strata(SCALED(3))
    assert calls == []
    for g in strata:
        graphs.require_valid(g)
        graphs.require_valid(g)
    assert len(calls) == len(strata)


@pytest.mark.parametrize("space, count", [
    (M0(6), A000311[5]),
    (M0(7), A000311[6]),
    (FM(5), 2 * A000311[5]),
    (MULT(5), 2208),
    (SCALED(5), 2 * 2208),
], ids=str)
def test_counts_past_brute_force(space, count):
    assert len(enumerate_strata(space)) == count


@pytest.mark.slow
def test_mult6_node_keys():
    space = MULT(6)
    memo = {}
    nodes = list(_raw_strata(space))
    assert len(nodes) == 36648
    for node in nodes:
        assert (_node_key(space, node, memo)
                == canonical_key(_placed(space, node)[0]))


@pytest.mark.slow
def test_mult6_matches_brute_force():
    keys = [canonical_key(g) for g in enumerate_strata(MULT(6))]
    assert keys == sorted(brute_force_strata(MULT(6)))
