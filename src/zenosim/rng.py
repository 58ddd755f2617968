"""Reproducible counter-based random streams.

Every Monte Carlo realization draws from its own Philox-4x64 stream whose
128-bit key packs ``(master_seed, realization_index)``; the draw index is
the Philox counter itself. Philox is a published, platform-independent
counter-based generator, so ensembles are bitwise reproducible for a given
master seed however realizations are chunked.

Two ways to read the streams give the same raw 64-bit words, the words
numpy's ``Generator.random`` turns into the doubles (x >> 11) 2^-53.
``StreamFamily`` keys numpy's C generator for one realization at a time,
from any draw on, which suits long rows; its ``bit_generator.random_raw``
reads the words themselves, and it holds mutable state, so each loop
that reads streams opens a family of its own. ``philox_words`` runs
Philox-4x64-10 itself, in numpy integer operations over a whole block
of realizations at once (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), which suits many short rows: it costs more
per draw than the C generator but nothing per realization.
``uniforms_from_words`` and ``word_threshold`` keep the map from a word
to its uniform in this module: the uniforms themselves, bit for bit,
and the integer edge a uniform's comparison with a float comes to.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["DEFAULT_SEED", "substream", "StreamFamily", "philox_words", "uniforms_from_words",
           "word_threshold"]

#: master seed of a preset or config-file run that names none
DEFAULT_SEED = 20160719

_MASK64 = (1 << 64) - 1
# Philox-4x64 round multipliers and Weyl key increments
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
#: counters (four draws each) per vectorized slab; the slab's ten uint64
#: work arrays then take under 1 MB
_SLAB_COUNTERS = 8192
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def substream(master_seed: int, realization_index: int = 0) -> Generator:
    """Independent generator for one realization of an ensemble.

    Both arguments are taken modulo 2**64 and packed into the Philox key,
    so distinct ``(master_seed, realization_index)`` pairs never share a
    stream.
    """
    key = ((master_seed & _MASK64) << 64) | (realization_index & _MASK64)
    return Generator(Philox(key=key))


class StreamFamily:
    """All substreams of one master seed behind a single Philox instance.

    ``select(i, draw=k)`` re-keys the generator in place and sets its
    counter so that the stream starts at its draw k, as if k draws had
    been read: Philox is counter based, so any stretch of a stream can be
    read on its own. Each counter gives four draws, so k must be a
    multiple of 4; ``select(i)`` starts at draw 0 and is bitwise
    equivalent to ``substream(master_seed, i)``, cheaper than
    constructing a fresh bit generator, but it still costs a few
    microseconds per realization; blocks of short rows are cheaper with
    ``philox_words``. The family owns mutable state: each loop that
    reads streams, and so each thread, opens its own.
    """

    def __init__(self, master_seed: int):
        self._bitgen = Philox(key=0)
        self._generator = Generator(self._bitgen)
        # the fresh state (counter 0, output buffer empty), re-keyed and set
        # per select; setting copies it in, so it stays fresh. Little-endian
        # key words (index low, master seed high) match substream()'s key.
        self._state = self._bitgen.state
        self._key, self._counter = self._state["state"]["key"], self._state["state"]["counter"]
        self._key[1] = master_seed & _MASK64

    def select(self, realization_index: int, draw: int = 0) -> Generator:
        if draw % 4 or draw < 0:
            raise ValueError(f"a stream starts at a multiple of 4 draws, not {draw}")
        self._key[0] = realization_index & _MASK64
        # the counter steps before each block of four, so block draw // 4 comes next
        self._counter[0] = draw // 4
        self._bitgen.state = self._state
        self._counter[0] = 0
        return self._generator


def _mulhi(x, mul: int, hi, t0, t1, t2) -> None:
    """hi = the high word of the 128-bit product x * mul, from 32-bit
    halves (Hacker's Delight, mulhu); t0-t2 are scratch of x's shape."""
    mul_lo, mul_hi = np.uint64(mul & 0xFFFFFFFF), np.uint64(mul >> 32)
    np.bitwise_and(x, _LOW32, out=t0)
    np.right_shift(x, _SHIFT32, out=t1)
    np.multiply(t0, mul_lo, out=t2)
    t2 >>= _SHIFT32
    np.multiply(t1, mul_lo, out=hi)
    hi += t2  # x1 mul_lo + carry-in, below 2**64
    t0 *= mul_hi
    np.bitwise_and(hi, _LOW32, out=t2)
    t2 += t0  # middle word, below 2**64
    hi >>= _SHIFT32
    t2 >>= _SHIFT32
    hi += t2
    t1 *= mul_hi
    hi += t1


def _philox_rounds(master_seed: int, first_index: int, rows: int, first_block: int,
                   blocks: int) -> list[np.ndarray]:
    """The four output words, each (rows, blocks), of Philox-4x64-10 at
    key (first_index + row, master_seed) and counter first_block + block + 1."""
    shape = (rows, blocks)
    words = [np.zeros(shape, dtype=np.uint64) for _ in range(4)]
    words[0][:] = np.arange(first_block + 1, first_block + blocks + 1, dtype=np.uint64)
    key0 = np.empty(shape, dtype=np.uint64)  # full, not broadcast: xor is faster
    key0[:] = np.uint64(first_index & _MASK64) + np.arange(rows, dtype=np.uint64)[:, None]
    spare = [np.empty(shape, dtype=np.uint64) for _ in range(5)]
    for r in range(_ROUNDS):
        if r:
            key0 += np.uint64(_BUMP[0])
        key1 = np.uint64((master_seed + r * _BUMP[1]) & _MASK64)
        x0, x1, x2, x3 = words
        h0, h1, *scratch = spare
        _mulhi(x0, _MUL[0], h0, *scratch)
        _mulhi(x2, _MUL[1], h1, *scratch)
        h1 ^= x1
        h1 ^= key0
        h0 ^= x3
        h0 ^= key1
        np.multiply(x2, np.uint64(_MUL[1]), out=x1)
        np.multiply(x0, np.uint64(_MUL[0]), out=x3)
        words = [h1, x1, h0, x3]
        spare = [x0, x2, *scratch]
    return words


def philox_words(master_seed: int, first_index: int, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous uint64 (rows, m) block ``out`` so that row j
    holds ``substream(master_seed, first_index + j).bit_generator.random_raw(m)``
    word for word, and return it.

    That stream's block b is Philox-4x64-10 at counter b + 1 under key
    words (index, seed), whose four words are read in order; numpy's
    ``random`` turns word x into the double (x >> 11) 2**-53. Work runs in
    slabs of whole rows, of about ``_SLAB_COUNTERS`` counters or one row
    where a row has more, so the uint64 temporaries stay small for the
    short rows ``montecarlo`` passes (at most 128 draws, 32 counters).
    Raises ``TypeError`` for another dtype and ``ValueError`` for another
    shape or layout.
    """
    if not isinstance(out, np.ndarray) or out.dtype != np.uint64:
        raise TypeError("philox_words fills a uint64 array")
    if out.ndim != 2 or not out.flags.c_contiguous:
        raise ValueError("philox_words fills a C-contiguous (rows, m) array")
    rows, m = out.shape
    if out.size == 0:
        return out
    seed = master_seed & _MASK64
    blocks = -(-m // 4)
    slab_rows = max(1, _SLAB_COUNTERS // blocks)
    for r0 in range(0, rows, slab_rows):
        r1 = min(rows, r0 + slab_rows)
        words = np.stack(_philox_rounds(seed, first_index + r0, r1 - r0, 0, blocks), axis=-1)
        out[r0:r1] = words.reshape(r1 - r0, -1)[:, :m]  # a row's last block may overhang it
    return out


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """The doubles (x >> 11) 2**-53 on [0, 1) that numpy's
    ``Generator.random`` makes of the raw words x of the uint64 array
    ``words``, bit for bit (both steps are exact), in a new array; the
    words are only read."""
    shifted = np.right_shift(words, _SHIFT11)
    return np.multiply(shifted, 2.0**-53, out=shifted.view(np.float64))


def word_threshold(edge: float) -> np.uint64:
    """The word G with x > G exactly where the uniform of x, (x >> 11)
    2**-53, is above ``edge``: floor(edge 2**53) 2**11 + 2**11 - 1, as
    x >> 11 is an integer, worked out in Python integers from the exact
    edge 2**53. An edge of 1 or more, above every uniform, gives the
    largest word, 2**64 - 1, which no word is above."""
    return np.uint64(min((math.floor(edge * 2.0**53) << 11) + 2047, _MASK64))
