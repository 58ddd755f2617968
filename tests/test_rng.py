from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import same_bits

from zenosim import rng
from zenosim.rng import philox_words, substream, uniforms_from_words

TOP = 2**64 - 1


def reference(seed, first, rows, m):
    """Row j's raw words from a fresh numpy generator keyed (seed, first + j)."""
    return np.array([substream(seed, first + j).bit_generator.random_raw(m)
                     for j in range(rows)], dtype=np.uint64).reshape(rows, m)


def filled(seed, first, rows, m):
    out = np.full((rows, m), 0xDEADBEEF, dtype=np.uint64)
    assert philox_words(seed, first, out) is out
    return out


near_top = st.integers(TOP - 100, TOP)
keys = st.one_of(st.integers(0, TOP), near_top, st.integers(0, 100))


class TestPhiloxWords:
    @settings(max_examples=80)
    @given(seed=keys, first=keys, rows=st.integers(1, 24), m=st.integers(1, 70),
           slab=st.one_of(st.integers(1, 40), st.just(rng._SLAB_COUNTERS)))
    def test_matches_numpy_philox(self, seed, first, rows, m, slab):
        # small slabs put slab edges inside and between rows
        with mock.patch.object(rng, "_SLAB_COUNTERS", slab):
            got = filled(seed, first, rows, m)
        assert np.array_equal(got, reference(seed, first, rows, m))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 9, 13, 22, 31])
    def test_rows_not_a_multiple_of_four_draws(self, m):
        assert np.array_equal(filled(2024, 5, 9, m), reference(2024, 5, 9, m))

    @pytest.mark.parametrize("seed", [TOP - 100, TOP - 1, TOP])
    def test_indices_wrap_past_the_top_of_the_key_space(self, seed):
        first = TOP - 6  # rows 7.. wrap to indices 0, 1, ...
        assert np.array_equal(filled(seed, first, 12, 7), reference(seed, first, 12, 7))

    def test_seed_and_index_taken_modulo_two_to_the_64(self):
        assert np.array_equal(filled(-1, -3, 5, 6), reference(TOP, TOP - 2, 5, 6))
        assert np.array_equal(filled(2**64 + 9, 2**65 + 4, 3, 5), reference(9, 4, 3, 5))

    def test_blocks_across_the_default_slab(self):
        # 3000 rows x 4 counters and one row of 8197 counters, each more
        # than one slab of _SLAB_COUNTERS
        assert 3000 * 4 > rng._SLAB_COUNTERS
        assert np.array_equal(filled(77, 10, 3000, 13), reference(77, 10, 3000, 13))
        m = 4 * rng._SLAB_COUNTERS + 18
        assert np.array_equal(filled(77, 10, 1, m), reference(77, 10, 1, m))

    def test_empty_blocks(self):
        assert filled(1, 0, 0, 5).shape == (0, 5)
        assert filled(1, 0, 4, 0).shape == (4, 0)

    @pytest.mark.parametrize("out", [
        np.empty((3, 4)),
        np.empty((3, 4), dtype=np.int64),
        [[0] * 4] * 3,
    ])
    def test_wrong_dtype_is_a_type_error(self, out):
        with pytest.raises(TypeError):
            philox_words(1, 0, out)

    @pytest.mark.parametrize("out", [
        np.empty((3, 8), dtype=np.uint64)[:, ::2],
        np.empty((3, 4), dtype=np.uint64, order="F"),
        np.empty(12, dtype=np.uint64),
        np.empty((2, 3, 4), dtype=np.uint64),
    ])
    def test_wrong_layout_is_a_value_error(self, out):
        with pytest.raises(ValueError):
            philox_words(1, 0, out)

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("m", [1, 7, 20, 129])
    def test_uniforms_from_words_are_numpys(self, m, writeable):
        # the uniforms a power-law row is mapped from have the bits of
        # Generator.random on the same stream, in a new array, and the
        # words are left alone, writeable or not
        words = filled(2016, 3, 4, m)
        words.flags.writeable = writeable
        u = uniforms_from_words(words)
        assert same_bits(u, np.array([substream(2016, 3 + j).random(m) for j in range(4)]))
        assert not np.shares_memory(u, words)
        assert np.array_equal(words, reference(2016, 3, 4, m))


class TestStreamSeek:
    # select(i, draw=k) starts realization i's stream at its draw k
    @pytest.mark.parametrize("k", [0, 4, 8 * 65_536])
    def test_seek_matches_reading_past_the_skipped_draws(self, k):
        family = rng.StreamFamily(2016)
        got = family.select(5, draw=k).random(37)
        assert same_bits(got, substream(2016, 5).random(k + 37)[k:])

    @pytest.mark.parametrize("k", [2**32 + 4, 2**40 + 8, 4 * (2**64 - 1)])
    def test_seek_past_two_to_the_32_draws(self, k):
        # too far to read through: advance numpy's own bit generator by
        # k / 4 counters, and cross-check with the vectorized Philox words
        expected = substream(2016, 5)
        expected.bit_generator.advance(k // 4)
        got = rng.StreamFamily(2016).select(5, draw=k).random(9)
        assert same_bits(got, expected.random(9))
        if k // 4 + 3 < 2**63:  # the vectorized words take counters below 2**63
            words = rng._philox_rounds(2016, 5, 1, k // 4, 3)
            draws = np.stack([(word[0] >> np.uint64(11)) * 2.0**-53 for word in words], axis=1)
            assert same_bits(got, draws.reshape(-1)[:9])

    def test_reselect_after_a_seek_starts_at_draw_zero(self):
        family = rng.StreamFamily(3)
        family.select(1, draw=1024).random(10)
        assert same_bits(family.select(1).random(20), substream(3, 1).random(20))
        family.select(2, draw=8)
        assert same_bits(family.select(1, draw=4).random(6), substream(3, 1).random(10)[4:])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 65_537, -4])
    def test_draw_off_a_counter_boundary_is_a_value_error(self, k):
        with pytest.raises(ValueError):
            rng.StreamFamily(3).select(0, draw=k)
