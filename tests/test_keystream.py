import math

import numpy as np
import pytest

from qbaker.chaos import ChaoticSequences, ScmParams, generate_sequences, rank
from qbaker.images import BlockLayout, ImageSet, pack, plan_layout
from qbaker.keystream import (
    KEY_SCALE,
    alpha_beta,
    derive_seed,
    intensity_seed,
    key_table,
    seed_from_header,
)

LAMBDAS = ScmParams((49.0, 23.0, 58.0, 120.0, 237.0))


# Pointwise oracle for key_table: one key digit straight from the formula.


def _mirrored(length: int, i: int) -> int:
    return (length - i + 1) % length


def _cheb(k: int, x: float) -> float:
    # Same ufuncs as the vectorized table so both paths floor identically.
    return float(np.cos(k * np.arccos(x)))


def key_bits(
    seqs: ChaoticSequences, layout: BlockLayout, b: int, m: int, i: int, j: int
) -> int:
    """Key digit for block b, image m, pixel (i, j)."""
    if not (0 <= b < len(seqs.ts) and 0 <= m < len(seqs.zs)):
        raise ValueError("block or image index outside the layout")
    if not (0 <= i < len(seqs.xs) and 0 <= j < len(seqs.ys)):
        raise ValueError("pixel index outside the grid")
    lplanes = (layout.images_per_block - 1).bit_length()
    # Multiplication order matches key_table so both floor identically.
    prod = (
        _cheb(seqs.rs[m], seqs.ts[_mirrored(len(seqs.ts), b)])
        * _cheb(seqs.ss[b], seqs.zs[_mirrored(len(seqs.zs), m)])
        * _cheb(seqs.ns[i], seqs.ys[_mirrored(len(seqs.ys), i)])
        * _cheb(seqs.ks[j], seqs.xs[_mirrored(len(seqs.xs), j)])
    )
    return int(math.floor(abs(prod) * KEY_SCALE)) % (1 << lplanes)


def _sequences(n, layout, seed=(0.1, 0.5, 0.2, -0.8, 0.9)):
    lengths = (1 << n, 1 << n, layout.images_per_block, layout.block_count)
    return generate_sequences(seed, LAMBDAS, lengths)


class TestIntensitySeed:
    def test_all_zero(self):
        assert intensity_seed(ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int))) == 0.0

    def test_all_max(self):
        assert intensity_seed(ImageSet(1, 8, np.full((2, 2, 2), 255))) == 1.0

    def test_direct_summation(self):
        imgs = np.array([[[10, 20], [30, 40]], [[1, 2], [3, 4]]])
        want = imgs.sum() / (2 * 4 * 255)
        assert intensity_seed(ImageSet(1, 8, imgs)) == want


class TestAlphaBeta:
    def test_all_zero(self):
        tensor = pack(ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int)))
        assert alpha_beta(tensor) == (0, 0)

    def test_all_ones_tensor(self):
        tensor = pack(ImageSet(1, 8, np.zeros((8, 2, 2), dtype=int)))
        bits = np.ones_like(tensor.bits)
        full = type(tensor)(tensor.n, tensor.lplanes, bits)
        s = tensor.block_count * (1 << tensor.lplanes) ** 2
        assert alpha_beta(full) == (s, s * s)

    def test_brute_force_small(self):
        rng = np.random.default_rng(9)
        imgs = rng.integers(0, 256, size=(3, 2, 2))
        tensor = pack(ImageSet(1, 8, imgs))
        sums = np.zeros((2, 2), dtype=int)
        for t in range(tensor.block_count):
            for m in range(8):
                for x in range(2):
                    for y in range(2):
                        for l in range(8):
                            sums[x, y] += tensor.bits[t, m, x, y, l]
        want_alpha = int(sums.sum()) // 4
        want_beta = int((sums**2).sum()) // 4
        assert alpha_beta(tensor) == (want_alpha, want_beta)


class TestDeriveSeed:
    def test_all_zero_plaintext(self):
        s = ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int))
        seed = derive_seed(s, pack(s))
        assert seed.x0 == 0.0 and seed.z0 == 0.0
        assert seed.alpha == 0 and seed.beta == 0
        assert seed.y0 == 1.0 and seed.t0 == 1.0  # T_0 is constant 1

    def test_alpha_one_passes_x0_through(self):
        seed = seed_from_header(0.375, 1, 0)
        assert seed.y0 == pytest.approx(0.375, abs=1e-15)

    def test_one_bit_flip_changes_seed(self):
        rng = np.random.default_rng(2)
        imgs = rng.integers(0, 256, size=(2, 2, 2))
        s1 = ImageSet(1, 8, imgs)
        flipped = imgs.copy()
        flipped[0, 0, 0] ^= 1
        s2 = ImageSet(1, 8, flipped)
        seed1 = derive_seed(s1, pack(s1))
        seed2 = derive_seed(s2, pack(s2))
        assert seed1 != seed2

    def test_state_component_order(self):
        seed = seed_from_header(0.25, 2, 3)
        assert seed.state() == (seed.x0, seed.y0, seed.z0, seed.t0, seed.w0)

    def test_header_roundtrip_matches_derivation(self):
        rng = np.random.default_rng(4)
        s = ImageSet(1, 8, rng.integers(0, 256, size=(2, 2, 2)))
        seed = derive_seed(s, pack(s))
        assert seed == seed_from_header(seed.x0, seed.alpha, seed.beta)


def _const_sequences(layout, n):
    """Synthetic sequences whose ranks are all zero where we probe."""
    side = 1 << n
    asc = tuple(np.linspace(0.1, 0.9, side))
    z = tuple(np.linspace(0.2, 0.8, layout.images_per_block))
    t = tuple(np.linspace(0.3, 0.7, layout.block_count))
    return ChaoticSequences(
        asc, asc, z, t,
        tuple(rank(asc)), tuple(rank(asc)), tuple(rank(z)), tuple(rank(t)),
    )


class TestKeyBits:
    def test_all_unit_factors(self):
        # rank 0 everywhere at probe (0, 0, 0, 0) makes every factor T_0 = 1,
        # so the digit is 10^10 mod 8 = 0
        layout = plan_layout(10, 8)
        seqs = _const_sequences(layout, 2)
        assert key_bits(seqs, layout, 0, 0, 0, 0) == 0

    def test_range(self):
        layout = plan_layout(10, 8)
        seqs = _sequences(2, layout)
        for b in range(layout.block_count):
            for m in range(layout.images_per_block):
                k = key_bits(seqs, layout, b, m, 1, 2)
                assert 0 <= k < 8

    def test_out_of_range_rejected(self):
        layout = plan_layout(10, 8)
        seqs = _sequences(2, layout)
        with pytest.raises(ValueError):
            key_bits(seqs, layout, layout.block_count, 0, 0, 0)

    def test_table_matches_straight_line_evaluation(self):
        layout = plan_layout(10, 8)
        seqs = _sequences(1, layout)
        table = key_table(seqs, layout, 1)
        for b in range(layout.block_count):
            for m in range(layout.images_per_block):
                for i in range(2):
                    for j in range(2):
                        assert table[b, m, i, j] == key_bits(seqs, layout, b, m, i, j)

    def test_table_shape_validated(self):
        layout = plan_layout(10, 8)
        seqs = _sequences(1, layout)
        with pytest.raises(ValueError):
            key_table(seqs, layout, 3)


class TestPlaintextSensitivity:
    def test_key_tables_diverge_on_bit_flip(self):
        rng = np.random.default_rng(21)
        diffs = []
        layout = plan_layout(8, 8)
        for _ in range(8):
            imgs = rng.integers(0, 256, size=(8, 16, 16))
            s1 = ImageSet(4, 8, imgs)
            flipped = imgs.copy()
            flipped[0, 0, 0] ^= 1 << int(rng.integers(0, 8))
            s2 = ImageSet(4, 8, flipped)
            t1 = key_table(
                _sequences(4, layout, derive_seed(s1, pack(s1)).state()), layout, 4
            )
            t2 = key_table(
                _sequences(4, layout, derive_seed(s2, pack(s2)).state()), layout, 4
            )
            diffs.append(np.mean(t1 != t2))
        assert np.mean(diffs) >= 0.40
