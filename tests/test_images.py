import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import images
from qbaker.images import BitTensor, ImageSet, pack, plan_layout, unpack


class TestPlanLayout:
    def test_paper_case_200(self):
        layout = plan_layout(200, 8)
        assert layout.block_count == 32
        assert layout.images_per_block == 8
        assert layout.blank_count(200) == 56

    def test_exact_fit(self):
        layout = plan_layout(8, 8)
        assert (layout.block_count, layout.blank_count(8)) == (1, 0)

    def test_paper_case_30(self):
        layout = plan_layout(30, 8)
        assert layout.block_count == 4
        assert layout.blank_count(30) == 2

    def test_single_image(self):
        layout = plan_layout(1, 8)
        assert layout.padded_total == 8

    @pytest.mark.parametrize("L,want", [(2, 1), (3, 2), (8, 3), (9, 4), (16, 4)])
    def test_lplanes(self, L, want):
        layout = plan_layout(40, L)
        assert layout.lplanes == want
        assert layout.images_per_block == 1 << want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_layout(0, 8)
        with pytest.raises(ValueError):
            plan_layout(4, 1)


class TestPack:
    def test_single_pixel_binary_expansion(self):
        s = ImageSet(0, 8, np.array([[[5]]]))
        tensor = pack(s)
        bits = tensor.bits[0, 0, 0, 0]
        assert bits.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_all_zero(self):
        s = ImageSet(1, 8, np.zeros((3, 2, 2), dtype=int))
        assert pack(s).bits.sum() == 0

    def test_against_per_pixel_expansion(self):
        rng = np.random.default_rng(3)
        imgs = rng.integers(0, 256, size=(3, 2, 2))
        tensor = pack(ImageSet(1, 8, imgs))
        layout = plan_layout(3, 8)
        for idx in range(3):
            t, m = divmod(idx, layout.images_per_block)
            for x in range(2):
                for y in range(2):
                    for l in range(8):
                        assert tensor.bits[t, m, x, y, l] == (imgs[idx, x, y] >> l) & 1

    def test_padding_images_zero(self):
        imgs = np.full((3, 2, 2), 255, dtype=int)
        tensor = pack(ImageSet(1, 8, imgs))
        assert tensor.bits[0, 3:].sum() == 0

    def test_address_bits_match_width_claim(self):
        # 2n + ceil(log2 L) + ceil(log2 M)
        tensor = pack(ImageSet(2, 8, np.zeros((30, 4, 4), dtype=int)))
        assert tensor.address_bits() == 2 * 2 + 3 + 5

    def test_intensity_range_checked(self):
        with pytest.raises(ValueError):
            ImageSet(1, 8, np.full((1, 2, 2), 256))


class TestUnpack:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        imgs = rng.integers(0, 256, size=(5, 4, 4))
        s = ImageSet(2, 8, imgs)
        layout = plan_layout(5, 8)
        back = unpack(pack(s), layout, 5)
        assert np.array_equal(back.images, imgs)

    def test_padding_content_ignored(self):
        s = ImageSet(1, 8, np.arange(12).reshape(3, 2, 2))
        tensor = pack(s)
        dirty = tensor.bits.copy()
        dirty[0, 3:] = 1  # scribble over the blank images
        back = unpack(BitTensor(1, 3, dirty), plan_layout(3, 8), 3)
        assert np.array_equal(back.images, s.images)

    def test_zero_roundtrip(self):
        s = ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int))
        back = unpack(pack(s), plan_layout(2, 8), 2)
        assert back.images.sum() == 0

    @pytest.mark.parametrize("L,dtype", [(8, np.uint8), (12, np.uint16), (2, np.uint8)])
    def test_narrowest_dtype(self, L, dtype):
        imgs = np.arange(3 * 4, dtype=np.int64).reshape(3, 2, 2) % (1 << L)
        back = unpack(pack(ImageSet(1, L, imgs)), plan_layout(3, L), 3, L)
        assert back.images.dtype == dtype
        assert np.array_equal(back.images, imgs)

    def test_layout_mismatch_reported(self):
        tensor = pack(ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int)))
        with pytest.raises(ValueError):
            unpack(tensor, plan_layout(100, 8), 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_pack_unpack_identity(m, seed):
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(m, 2, 2))
    s = ImageSet(1, 8, imgs)
    back = unpack(pack(s), plan_layout(m, 8), m)
    assert np.array_equal(back.images, imgs)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(4, 4)).astype(np.uint8)
        path = tmp_path / "a.pgm"
        images.write_pgm(path, img)
        assert np.array_equal(images.read_pgm(path), img)

    def test_comment_and_whitespace(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        assert images.read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
        with pytest.raises(ValueError):
            images.read_pgm(path)

    def test_manifest(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(3):
            images.write_pgm(tmp_path / f"{i}.pgm",
                             rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        manifest = tmp_path / "list.txt"
        manifest.write_text("0.pgm\n1.pgm\n2.pgm\n")
        s = images.read_manifest(manifest)
        assert s.M == 3 and s.n == 2
        assert s.images.dtype == np.uint8  # no wider copy of the pixels
