"""Seeded random number generator with a pinned algorithm.

Every stochastic choice in the library (synthetic data, fold splits,
permutation importance shuffles) flows through this generator so that a
seed reproduces bit-identical results across processes and machines.
The algorithm is a 64-bit linear congruential generator; uniforms are the
high 53 bits of the state, which map exactly onto IEEE-754 doubles.
"""

from __future__ import annotations

import math

from tempoframe.errors import InvalidSpec

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1
_TWO_POW_MINUS_53 = 2.0 ** -53


def check_seed(seed: int, where: str = "seed", error=InvalidSpec) -> int:
    """`seed` if it is a signed 64-bit integer, else `error` naming `where`:
    the state keeps a seed modulo 2**64, so a wider one would alias."""
    if not -(1 << 63) <= seed < 1 << 63:
        raise error(f"{where} must be a signed 64-bit integer, in "
                    f"[-2**63, 2**63), got {seed}")
    return seed


class Lcg:
    """Deterministic generator; one instance per independent random stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = check_seed(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the high 53 bits."""
        return (self.next_u64() >> 11) * _TWO_POW_MINUS_53

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return int(self.uniform() * n)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def coin(self) -> int:
        """Fair coin: 0 or 1."""
        return 1 if self.uniform() >= 0.5 else 0

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms.

        Uses 1-u for the radial draw so the argument to log is never zero.
        """
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        out = list(range(n))
        self.shuffle(out)
        return out
