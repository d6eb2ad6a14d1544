"""Finite abelian groups in invariant-factor canonical form."""

from __future__ import annotations

from dataclasses import dataclass


def _factorize(n):
    n = int(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FinAb:
    """A finite abelian group as its divisibility chain d_1 | d_2 | ... | d_k.

    Two values are equal iff their chains are equal; the empty chain is the
    trivial group.  Construct through :meth:`from_factors`, which
    canonicalizes an arbitrary list of cyclic orders.
    """

    factors: tuple

    def __post_init__(self):
        fs = tuple(int(d) for d in self.factors)
        object.__setattr__(self, "factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {fs}")

    @staticmethod
    def trivial():
        return FinAb(())

    @staticmethod
    def cyclic(n):
        n = int(n)
        return FinAb(()) if n == 1 else FinAb((n,))

    @staticmethod
    def from_factors(orders):
        """Canonicalize any iterable of cyclic orders (1s are dropped)."""
        primary = {}  # prime -> descending exponent list
        for n in orders:
            n = int(n)
            if n < 1:
                raise ValueError("cyclic orders must be positive")
            for p, e in _factorize(n).items():
                primary.setdefault(p, []).append(e)
        for p in primary:
            primary[p].sort(reverse=True)
        depth = max((len(v) for v in primary.values()), default=0)
        chain = []
        for i in range(depth):
            d = 1
            for p, exps in primary.items():
                if i < len(exps):
                    d *= p ** exps[i]
            chain.append(d)
        chain.reverse()
        return FinAb(tuple(chain))

    @property
    def order(self):
        n = 1
        for d in self.factors:
            n *= d
        return n

    @property
    def exponent(self):
        return self.factors[-1] if self.factors else 1

    def is_trivial(self):
        return not self.factors

    def primary_part(self, p):
        """The p-primary component."""
        p = int(p)
        parts = []
        for d in self.factors:
            q = 1
            while d % p == 0:
                q *= p
                d //= p
            if q > 1:
                parts.append(q)
        return FinAb.from_factors(parts)

    def __add__(self, other):
        """Direct sum, re-canonicalized."""
        return FinAb.from_factors(self.factors + other.factors)

    def embeds_in(self, other):
        """Whether some subgroup of `other` is isomorphic to this group.

        Per prime, the exponent partition (sorted descending) must be
        dominated entrywise by the other group's.
        """
        primes = set()
        for d in self.factors:
            primes.update(_factorize(d))
        for p in primes:
            mine = sorted(
                (e for d in self.factors for q, e in _factorize(d).items() if q == p),
                reverse=True,
            )
            theirs = sorted(
                (e for d in other.factors for q, e in _factorize(d).items() if q == p),
                reverse=True,
            )
            if len(mine) > len(theirs):
                return False
            if any(a > b for a, b in zip(mine, theirs)):
                return False
        return True

    def __str__(self):
        return "[" + ", ".join(str(d) for d in self.factors) + "]"

    def to_list(self):
        return list(self.factors)
