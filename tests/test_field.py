"""Exhaustive field-axiom checks for every supported field."""

import itertools

import numpy as np
import pytest

from agcodes.errors import DivisionByZero, NotPrimePower, Unsupported
from agcodes.field import make_field

SUPPORTED_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_axioms_exhaustive(q):
    F = make_field(q)
    els = range(F.q)
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_no_zero_divisors(q):
    F = make_field(q)
    for a in range(1, q):
        for b in range(1, q):
            assert F.mul(a, b) != 0


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_frobenius_is_additive(q):
    F = make_field(q)
    for a in range(q):
        for b in range(q):
            lhs = F.pow(int(F.add(a, b)), F.p)
            rhs = F.add(F.pow(a, F.p), F.pow(b, F.p))
            assert lhs == rhs


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_pow_table_and_fermat(q):
    F = make_field(q)
    for a in range(q):
        acc = 1
        for e in range(q):
            assert F.pow_table[a, e] == acc
            assert F.pow(a, e) == acc
            acc = int(F.mul(acc, a))
    for a in range(1, q):
        assert F.pow(a, q - 1) == 1
    assert F.pow(0, 0) == 1


def test_pow_large_exponent_reduction():
    F = make_field(9)
    for a in range(1, 9):
        assert F.pow(a, 1000) == F.pow(a, 1000 % 8)


@pytest.mark.parametrize("q", [6, 10, 12, 15, 1, 0])
def test_not_prime_power_rejected(q):
    with pytest.raises(NotPrimePower):
        make_field(q)


@pytest.mark.parametrize("q", [17, 25, 27, 32])
def test_cap_enforced(q):
    with pytest.raises((Unsupported, NotPrimePower)):
        make_field(q)


def test_inverse_of_zero_raises():
    F = make_field(5)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):  # subclass relationship
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.inv(np.array([1, 0, 2], dtype=np.uint8))


def test_vectorized_ops_match_scalar():
    F = make_field(8)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 8, 50).astype(np.uint8)
    b = rng.integers(0, 8, 50).astype(np.uint8)
    assert all(int(x) == F.add(int(u), int(v))
               for x, u, v in zip(F.add(a, b), a, b))
    assert all(int(x) == F.mul(int(u), int(v))
               for x, u, v in zip(F.mul(a, b), a, b))
    assert all(int(F.sub(int(u), int(v))) == int(F.add(int(u), F.neg(int(v))))
               for u, v in zip(a, b))


def test_make_field_is_cached():
    assert make_field(4) is make_field(4)
