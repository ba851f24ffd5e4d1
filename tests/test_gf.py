import cmath

import pytest

from oracles import field_add, field_mul
from qharm.errors import FieldError
from qharm.gf import SUPPORTED_Q, FieldCtx, get_field


def test_f4_multiplication_by_hand():
    # omega * omega = omega + 1 under x^2 + x + 1 (encodings 2*2 -> 3)
    f4 = get_field(4)
    assert field_mul(f4, 2, 2) == 3


def test_multiplicative_identity_all_fields():
    for q in SUPPORTED_Q:
        f = get_field(q)
        for x in range(f.q):
            assert field_mul(f, 1, x) == x


def test_f5_inverse_of_two():
    assert get_field(5).inv(2) == 3


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError):
        get_field(4).inv(0)


def test_every_nonzero_element_invertible():
    for q in SUPPORTED_Q:
        f = get_field(q)
        for x in range(1, q):
            assert field_mul(f, x, f.inv(x)) == 1


def test_field_axioms_exhaustive_small():
    # commutativity, associativity, distributivity for q <= 16
    for q in (4, 8, 9, 16):
        f = get_field(q)
        els = list(range(f.q))
        for a in els:
            for b in els:
                assert field_add(f, a, b) == field_add(f, b, a)
                assert field_mul(f, a, b) == field_mul(f, b, a)
                for c in els[:4]:
                    assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
                    assert field_mul(f, a, field_add(f, b, c)) == field_add(f, field_mul(f, a, b), field_mul(f, a, c))


def test_trace_prime_field_is_identity():
    for q in (2, 3, 5, 7, 11, 13):
        f = get_field(q)
        for x in range(f.q):
            assert f.trace_table[x] == x


def test_trace_f4_values():
    f4 = get_field(4)
    assert f4.trace_table[1] == 0  # 1 + 1 = 0 in characteristic 2
    assert f4.trace_table[2] == 1  # omega + omega^2 = omega + omega + 1 = 1


def test_trace_additive_and_frobenius_invariant():
    for q in SUPPORTED_Q:
        f = get_field(q)
        for x in range(f.q):
            xp = 1
            for _ in range(f.p):
                xp = field_mul(f, xp, x)
            assert f.trace_table[xp] == f.trace_table[x]
            for y in range(f.q):
                assert f.trace_table[field_add(f, x, y)] == (int(f.trace_table[x]) + int(f.trace_table[y])) % f.p


def test_character_values():
    assert abs(get_field(2).char_table[1] + 1.0) < 1e-12
    for q in SUPPORTED_Q:
        assert abs(get_field(q).char_table[0] - 1.0) < 1e-12
    w = get_field(3).char_table[1]
    assert abs(w - cmath.exp(2j * cmath.pi / 3)) < 1e-12
    assert abs(w - complex(-0.5, 0.8660254037844386)) < 1e-9


def test_character_homomorphism_exhaustive():
    for q in SUPPORTED_Q:
        f = get_field(q)
        for x in range(f.q):
            for y in range(f.q):
                assert abs(f.char_table[field_add(f, x, y)] - f.char_table[x] * f.char_table[y]) < 1e-12


def test_character_sums_vanish():
    for q in SUPPORTED_Q:
        f = get_field(q)
        for c in range(f.q):
            s = sum(f.char_table[field_mul(f, c, x)] for x in range(f.q))
            if c == 0:
                assert abs(s - q) < 1e-9
            else:
                assert abs(s) < 1e-9


def test_unsupported_q_rejected():
    with pytest.raises(FieldError):
        FieldCtx(6)
    with pytest.raises(FieldError):
        FieldCtx(32)
