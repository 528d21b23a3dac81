"""The dual Hopf algebra F_2[xi_1, xi_2, ...]: polynomials and conjugates.

Monomials reuse the exponent-tuple shape of the Milnor basis: the tuple
(e1,...,el) is xi_1^e1 ... xi_l^el, dual to Sq(e1,...,el).  Polynomials are
mod-2 monomial sets.  The conjugate (antipode image) of xi_n is written
zeta_n; since the dual is commutative, conjugation is a ring map.
"""

from __future__ import annotations

from functools import lru_cache

from steen.milnor import Monomial

__all__ = [
    "Poly",
    "poly_mul",
    "poly_pow",
    "xi_mono",
    "zeta_in_xi",
]

Poly = frozenset[Monomial]

P_ONE: Poly = frozenset({()})


def xi_mono(n: int, e: int = 1) -> Monomial:
    """The monomial xi_n^e; xi_0 = 1."""
    if n < 0 or e < 0:
        raise ValueError(f"xi_{n}^{e} is not defined")
    if n == 0 or e == 0:
        return ()
    return (0,) * (n - 1) + (e,)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def poly_mul(p: Poly, q: Poly) -> Poly:
    acc: set[Monomial] = set()
    for a in p:
        for b in q:
            acc ^= {_mono_mul(a, b)}
    return frozenset(acc)


def poly_pow(p: Poly, e: int) -> Poly:
    acc = P_ONE
    for _ in range(e):
        acc = poly_mul(acc, p)
    return acc


@lru_cache(maxsize=None)
def zeta_in_xi(n: int) -> Poly:
    """zeta_n as a xi polynomial: zeta_n = sum_{i=1}^{n} zeta_{n-i}^{2^i} xi_i."""
    if n == 0:
        return P_ONE
    acc: set[Monomial] = set()
    for i in range(1, n + 1):
        for m in poly_mul(poly_pow(zeta_in_xi(n - i), 1 << i), frozenset({xi_mono(i)})):
            acc ^= {m}
    return frozenset(acc)
