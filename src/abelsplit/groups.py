"""Exact arithmetic for finite abelian groups given as products of cyclic factors."""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Iterable

from .record import Record

Element = tuple[int, ...]
PrimePower = tuple[int, int]

# Deterministic Miller-Rabin witness set; exact for every n below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_LIMIT = 10**6


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin over a fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[PrimePower, ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending.

    Trial division covers factors up to 10**6, and a cofactor left above 1
    is recorded when it is prime. So the domain is every n < 10**12, plus
    any n whose cofactor after trial division is prime; any other n raises
    ValueError. factorize(1) is the empty product.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    whole = n
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    f, stride = 7, 4
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += stride
        stride = 6 - stride
    if n > 1:
        if f * f <= n and not is_prime(n):
            raise ValueError(
                f"cannot factor {whole}: its cofactor {n} has no prime factor "
                f"up to {_TRIAL_LIMIT} and is not prime"
            )
        counts[n] = counts.get(n, 0) + 1
    return tuple(sorted(counts.items()))


def p_adic_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n, for n >= 1 and p prime."""
    if n < 1:
        raise ValueError(f"valuation needs a positive integer, got {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class FiniteAbelianGroup(Record):
    """Direct product Z_{d_1} x ... x Z_{d_r}, written additively.

    Elements are tuples of reduced coordinates, one per factor, so they hash
    and compare canonically. A single factor (N,) is the cyclic form Z_N;
    the splitter search, the stratification and the tiling require that form.
    The __dict__ holds only the cached order and its factorization.
    """

    __slots__ = ("factors", "__dict__")

    def __init__(self, factors: tuple[int, ...]) -> None:
        checked = tuple(map(int, factors))
        if not checked or any(d < 1 for d in checked):
            raise ValueError(f"group factors must be positive integers, got {factors!r}")
        self._fill(checked, {})

    @classmethod
    def cyclic(cls, n: int) -> "FiniteAbelianGroup":
        return cls((n,))

    def __str__(self) -> str:
        return "x".join(f"Z{d}" for d in self.factors)

    @cached_property
    def order(self) -> int:
        return math.prod(self.factors)

    @cached_property
    def order_factorization(self) -> tuple[PrimePower, ...]:
        return factorize(self.order)

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) == 1

    @property
    def modulus(self) -> int:
        if not self.is_cyclic:
            raise ValueError(f"{self} is not in cyclic form")
        return self.factors[0]

    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def element(self, coords: Iterable[int]) -> Element:
        """Canonical element: coordinates reduced modulo their factors."""
        coords = tuple(coords)
        factors = self.factors
        if len(coords) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates, got {len(coords)}")
        return tuple(int(c) % d for c, d in zip(coords, factors))

    def scalar_mul(self, m: int, g: Element) -> Element:
        """m*g coordinate-wise; negative m acts through the inverse."""
        return tuple(m * c % d for c, d in zip(g, self.factors))

    def element_order(self, g: Element) -> int:
        """Least t >= 1 with t*g = 0: lcm over coordinates of d / gcd(c, d)."""
        return math.lcm(*(d // math.gcd(c, d) for c, d in zip(g, self.factors)))
