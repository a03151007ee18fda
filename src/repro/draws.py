"""Scalar draws of a PCG64 ``Generator`` replayed from raw 64-bit blocks.

A scalar ``Generator`` call costs 0.7–4 µs, almost all of it numpy's
per-call overhead. ``Draws`` takes the generator's raw PCG64 outputs
``BLOCK`` at a time with one ``bit_generator.random_raw(BLOCK)`` call and
computes each draw from them in Python, with numpy's own arithmetic
(numpy 1.26, ``distributions.c`` and ``pcg64.h``), so the values are
bit-identical to the same sequence of calls on the generator itself:

* ``random()`` is ``next_double``: one raw output ``x`` gives
  ``(x >> 11) * 2**-53``. The conversion is exact on both sides.
* ``integers(n)`` is ``Generator.integers(0, n)`` for ``1 <= n <= 2**32``.
  numpy draws such a bound from 32-bit outputs: ``next_uint32`` returns the
  low half of a raw output and keeps the high half for the next 32-bit draw
  (``random()`` neither uses nor clears it). ``n == 1`` consumes nothing,
  ``n == 2**32`` is one 32-bit output, and any other bound is Lemire's
  multiply-shift (``m = x32 * n``, result ``m >> 32``), redrawn while the
  low 32 bits of ``m`` are below ``(2**32 - n) % n``. Bounds above 2**32
  take numpy's 64-bit path, which is not replayed: they raise.
* ``doubles(k)`` is ``Generator.random(k)``: ``k`` successive ``random()``
  values, as a float64 array.

The replay reads the bit generator alone, so its generator must draw
nothing else once it is wrapped, and must not hold a buffered 32-bit half
(a fresh ``default_rng(seed)`` does not).
"""
from __future__ import annotations

import numpy as np

__all__ = ["Draws"]

BLOCK = 512  # raw outputs taken per refill
_TWO32 = 1 << 32


class Draws:
    """Bit-identical scalar ``random`` and ``integers(0, n)`` draws of
    ``rng`` (see the module docstring)."""

    __slots__ = ("_bitgen", "_raw", "_dbl", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        self._bitgen = rng.bit_generator
        # One block, next draw last: its raw outputs and their doubles. The
        # length of ``_dbl`` is the cursor; ``_raw`` is read at it.
        self._raw: list[int] = []
        self._dbl: list[float] = []
        self._half = -1  # buffered high half of a 32-bit draw, or -1

    def _refill(self) -> list[float]:
        x = self._bitgen.random_raw(BLOCK)[::-1]
        self._raw = x.tolist()
        dbl = self._dbl = ((x >> np.uint64(11)) * 2.0**-53).tolist()
        return dbl

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._dbl or self._refill()).pop()

    def _uint32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        dbl = self._dbl or self._refill()
        dbl.pop()
        x = self._raw[len(dbl)]
        self._half = x >> 32
        return x & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``1 <= n <= 2**32``."""
        if not 1 < n < _TWO32:
            if n == 1:
                return 0
            if n == _TWO32:
                return self._uint32()
            raise ValueError(f"bound {n} is not in [1, 2**32]")
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:  # rejection is possible only here
            threshold = (_TWO32 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return m >> 32

    def doubles(self, k: int) -> np.ndarray:
        """``Generator.random(k)``."""
        dbl = self._dbl
        take = min(k, len(dbl))
        head = dbl[len(dbl) - take:]
        del dbl[len(dbl) - take:]
        head.reverse()
        out = np.array(head, dtype=np.float64)
        if take < k:
            x = self._bitgen.random_raw(k - take)
            out = np.concatenate([out, (x >> np.uint64(11)) * 2.0**-53])
        return out
