"""Reproducible counter-based random streams.

Every Monte Carlo realization draws from its own Philox-4x64 stream whose
128-bit key packs ``(master_seed, realization_index)``; the draw index is
the Philox counter itself. Philox is a published, platform-independent
counter-based generator, so ensembles are bitwise reproducible for a given
master seed however realizations are chunked.
"""

from __future__ import annotations

from numpy.random import Generator, Philox

__all__ = ["substream", "StreamFamily"]

_MASK64 = (1 << 64) - 1


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

    ``select(i)`` re-keys the generator in place and rewinds its counter,
    which is bitwise equivalent to ``substream(master_seed, i)`` but
    several times cheaper than constructing a fresh bit generator per
    realization (that cost dominates large ensembles of short sequences).
    The family owns mutable state: use one instance per thread.
    """

    def __init__(self, master_seed: int):
        self._bitgen = Philox(key=0)
        self._generator = Generator(self._bitgen)
        # the fresh state (counter 0, output buffer empty), re-keyed and set
        # per select; setting copies it in, so it stays fresh. Little-endian
        # key words (index low, master seed high) match substream()'s key.
        self._state = self._bitgen.state
        self._state["state"]["key"][1] = master_seed & _MASK64

    def select(self, realization_index: int) -> Generator:
        self._state["state"]["key"][0] = realization_index & _MASK64
        self._bitgen.state = self._state
        return self._generator
