"""Finite-field arithmetic for small prime powers q = p^m.

Elements are encoded as integers in [0, q): the base-p digits of the
integer are the coefficients of a polynomial over F_p (value = sum of
c_i * p^i), reduced modulo a fixed monic irreducible polynomial of
degree m.  One modulus is built in per supported field size so that
encodings are stable across runs:

    q=4  : x^2 + x + 1
    q=8  : x^3 + x + 1
    q=9  : x^2 + 1
    q=16 : x^4 + x + 1

All arithmetic is table-driven; a FieldCtx is immutable after
construction and safe to share between workers.  The additive character
phi(x) = exp(2*pi*i*Tr(x)/p), with Tr the absolute trace down to F_p, is
precomputed into a length-q complex table.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import FieldError

# Monic irreducible moduli for the extension fields, coefficients low to high.
_EXTENSION_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
}

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise FieldError(f"q={q} is not a prime power")
            return p, m
    raise FieldError(f"q={q} is not a supported prime power")


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while len(a) < dm:
        a.append(0)
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Exhaustive root/factor check, valid for degree <= 4."""
    deg = len(mod) - 1
    if deg == 1:
        return True
    # No roots in F_p rules out linear factors (enough for deg 2, 3).
    for x in range(p):
        acc = 0
        for c in reversed(mod):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # Degree 4: also rule out monic quadratic factors by trial division.
    for c0 in range(p):
        for c1 in range(p):
            quad = [c0, c1, 1]
            if not any(_poly_mod(mod, quad, p)):
                return False
    return True


class FieldCtx:
    """Arithmetic tables for F_q, q = p^m with m <= 4 and q <= 16.

    Attributes (all numpy arrays, read-only by convention):
        add_table, mul_table : (q, q) element tables
        neg_table, inv_table : (q,) tables; inv_table[0] is 0 and unused
        trace_table          : (q,) absolute trace values in [0, p)
        char_table           : (q,) complex values of the additive character
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise FieldError(f"unsupported field size q={q}; supported: {SUPPORTED_Q}")
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            self.modulus = (0, 1)  # the polynomial x; arithmetic is plain mod p
        else:
            self.modulus = _EXTENSION_MODULI[q]
        if not _is_irreducible(list(self.modulus), p):
            raise FieldError(f"modulus for q={q} is reducible")

        digits = [self._decode(x) for x in range(q)]

        add = np.zeros((q, q), dtype=np.uint8)
        for x in range(q):
            for y in range(q):
                add[x, y] = self._encode([(a + b) % p for a, b in zip(digits[x], digits[y])])
        mul = np.zeros((q, q), dtype=np.uint8)
        mod = list(self.modulus)
        for x in range(q):
            for y in range(q):
                prod = _poly_mod(_poly_mul(digits[x], digits[y], p), mod, p)
                mul[x, y] = self._encode(prod)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.array(
            [self._encode([(-c) % p for c in digits[x]]) for x in range(q)], dtype=np.uint8
        )

        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.uint8)  # row 0 holds no 1, so 0 -> 0

        # Tr(x) = x + x^p + ... + x^(p^(m-1)), the Frobenius x -> x^p read off
        # p - 1 products
        xs = np.arange(q)
        frob = xs
        for _ in range(p - 1):
            frob = mul[frob, xs]
        conj, tr = xs, xs
        for _ in range(m - 1):
            conj = frob[conj]
            tr = add[tr, conj]
        if np.any(tr >= p):
            raise FieldError("absolute trace left the prime subfield")
        self.trace_table = tr = tr.astype(np.uint8)
        self.char_table = np.array(
            [cmath.exp(2j * cmath.pi * int(tr[x]) / p) for x in range(q)], dtype=np.complex128
        )

    # -- encoding -----------------------------------------------------------

    def _decode(self, x: int) -> list[int]:
        return [(x // self.p**i) % self.p for i in range(self.m)]

    def _encode(self, digits: list[int]) -> int:
        return sum(c * self.p**i for i, c in enumerate(digits))

    # -- scalar operations --------------------------------------------------

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def inv(self, x: int) -> int:
        if x == 0:
            raise FieldError("zero has no multiplicative inverse")
        return int(self.inv_table[x])

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q})"


_FIELD_CACHE: dict[int, FieldCtx] = {}


def get_field(q: int) -> FieldCtx:
    """Shared immutable FieldCtx per supported q."""
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = FieldCtx(q)
    return _FIELD_CACHE[q]
