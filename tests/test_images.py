import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbaker import images
from qbaker.cipher import MasterKey, decrypt, encrypt
from qbaker.images import ImageSet, block_chunks, pack, plan_layout, unpack

import oracles


class TestPlanLayout:
    def test_paper_case_200(self):
        layout = plan_layout(200, 8)
        assert layout.block_count == 32
        assert layout.images_per_block == 8
        assert layout.images_per_block * layout.block_count - 200 == 56

    def test_exact_fit(self):
        layout = plan_layout(8, 8)
        assert (layout.block_count, layout.images_per_block * layout.block_count - 8) == (1, 0)

    def test_paper_case_30(self):
        layout = plan_layout(30, 8)
        assert layout.block_count == 4
        assert layout.images_per_block * layout.block_count - 30 == 2

    def test_single_image(self):
        layout = plan_layout(1, 8)
        assert layout.images_per_block * layout.block_count == 8

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
        bits = pack(s, slice(None))[0, 0, 0, 0]
        assert bits.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_all_zero(self):
        s = ImageSet(1, 8, np.zeros((3, 2, 2), dtype=int))
        assert pack(s, slice(None)).sum() == 0

    def test_against_per_pixel_expansion(self):
        rng = np.random.default_rng(3)
        imgs = rng.integers(0, 256, size=(3, 2, 2))
        bits = pack(ImageSet(1, 8, imgs), slice(None))
        layout = plan_layout(3, 8)
        for idx in range(3):
            t, m = divmod(idx, layout.images_per_block)
            for x in range(2):
                for y in range(2):
                    for l in range(8):
                        assert bits[t, m, x, y, l] == (imgs[idx, x, y] >> l) & 1

    def test_padding_images_zero(self):
        imgs = np.full((3, 2, 2), 255, dtype=int)
        bits = pack(ImageSet(1, 8, imgs), slice(None))
        assert bits[0, 3:].sum() == 0

    def test_chunks_are_slices_of_the_cube(self):
        # 17 images in 4 blocks of 8: block 2 holds one image, block 3 none
        s = ImageSet(1, 8, np.random.default_rng(4).integers(1, 256, size=(17, 2, 2)))
        whole = pack(s, slice(None))
        assert whole.shape == (4, 8, 2, 2, 8)
        for chunk in [slice(b, b + 1) for b in range(4)] + [slice(1, 3), slice(2, 4)]:
            assert np.array_equal(pack(s, chunk), whole[chunk])
        assert whole[2, 1:].sum() == 0 and whole[3].sum() == 0

    def test_address_bits_match_width_claim(self):
        # 2n + ceil(log2 L) + ceil(log2 M)
        bits = pack(ImageSet(2, 8, np.zeros((30, 4, 4), dtype=int)), slice(None))
        assert bits.size == 1 << (2 * 2 + 3 + 5)

    def test_intensity_range_checked(self):
        with pytest.raises(ValueError):
            ImageSet(1, 8, np.full((1, 2, 2), 256))

    @pytest.mark.parametrize("L", [65, 128])
    def test_bit_depth_past_64_refused(self, L):
        with pytest.raises(ValueError, match=f"L={L} above 64"):
            ImageSet(1, L, np.zeros((1, 2, 2), dtype=int))

    @pytest.mark.parametrize("n, L, imgs, reason", [
        (-1, 8, np.zeros((1, 1, 1), dtype=int), "n must be"),
        (1, 1, np.zeros((1, 2, 2), dtype=int), "L must be"),
        (1, 8, np.zeros((1, 2, 4), dtype=int), "shape"),
        (1, 8, np.zeros((0, 2, 2), dtype=int), "at least one image"),
        (1, 8, np.zeros((1, 2, 2)), "integers"),
    ], ids=["n-negative", "L-below-2", "not-square", "no-images", "float"])
    def test_bad_image_sets_refused(self, n, L, imgs, reason):
        with pytest.raises(ValueError, match=reason):
            ImageSet(n, L, imgs)


def _unpacked(bits, M, L=8):
    out = np.empty((M, *bits.shape[2:4]), dtype=np.uint64)
    unpack(bits, L, out)
    return out


class TestUnpack:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        imgs = rng.integers(0, 256, size=(5, 4, 4))
        s = ImageSet(2, 8, imgs)
        assert np.array_equal(_unpacked(pack(s, slice(None)), 5), imgs)

    def test_padding_content_ignored(self):
        s = ImageSet(1, 8, np.arange(12).reshape(3, 2, 2))
        dirty = pack(s, slice(None))
        dirty[0, 3:] = 1  # scribble over the blank images
        assert np.array_equal(_unpacked(dirty, 3), s.images)

    def test_zero_roundtrip(self):
        s = ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int))
        assert _unpacked(pack(s, slice(None)), 2).sum() == 0

    @pytest.mark.parametrize("L,dtype", [(8, np.uint8), (12, np.uint16), (2, np.uint8)])
    def test_narrowest_dtype(self, L, dtype):
        imgs = np.arange(3 * 4, dtype=np.int64).reshape(3, 2, 2) % (1 << L)
        key = MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 3)
        back = decrypt(encrypt(ImageSet(1, L, imgs), key), key)
        assert back.images.dtype == dtype
        assert np.array_equal(back.images, imgs)

    def test_layout_mismatch_reported(self):
        bits = pack(ImageSet(1, 8, np.zeros((2, 2, 2), dtype=int)), slice(None))
        with pytest.raises(ValueError):
            _unpacked(bits, 100)


@settings(max_examples=60)
@given(st.integers(2, 32), st.integers(1, 40), st.integers(1, 3), st.integers(0, 10**6))
@example(2, 3, 1, 0)  # two planes in a byte word
@example(4, 5, 2, 0)  # four planes in a byte word
@example(8, 9, 1, 0)  # eight planes: a byte word, full
@example(16, 40, 3, 0)  # uint16 words
@example(32, 33, 1, 0)  # uint32 words
def test_pack_unpack_identity(L, M, n, seed):
    side = 1 << n
    imgs = np.random.default_rng(seed).integers(0, 1 << L, size=(M, side, side))
    layout = plan_layout(M, L)
    s = ImageSet(n, L, imgs)
    bits = pack(s, slice(None))
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, oracles.cube_bits(s))
    back = np.empty_like(imgs)
    per_block = layout.images_per_block
    for chunk in block_chunks(layout.block_count, 1 << (2 * n + 2 * layout.lplanes)):
        unpack(bits[chunk], L, back[chunk.start * per_block : chunk.stop * per_block])
    assert np.array_equal(back, imgs)


class TestRegularFiles:
    """``read_file`` and ``write_regular`` refuse a directory and a device
    with ValueError naming the path."""

    @pytest.fixture(params=["directory", "dev-null"])
    def not_regular(self, request, tmp_path):
        return str(tmp_path) if request.param == "directory" else "/dev/null"

    def test_read_refused(self, not_regular):
        with pytest.raises(ValueError, match=f"^{not_regular}: not a regular file$"):
            images.read_file(not_regular)

    def test_write_refused(self, not_regular):
        with pytest.raises(ValueError, match=f"^{not_regular}: not a regular file$"):
            images.write_regular(not_regular, b"x")


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(4, 4)).astype(np.uint8)
        path = tmp_path / "a.pgm"
        images.write_pgm(path, img)
        assert np.array_equal(oracles.read_pgm(path), img)

    def test_comment_and_whitespace(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        assert oracles.read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
        with pytest.raises(ValueError):
            oracles.read_pgm(path)

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

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 2\n255\n" + bytes(4) + b"EXTRA",
            b"P5\n2 2\n255\n" + bytes(3),
            b"P5\n0 0\n255\n",
            b"P5\n2 2\n65535\n" + bytes(8),
            b"P5 2 2 255",
            b"P2\n2 2\n255\n" + bytes(4),
        ],
        ids=["trailing-bytes", "short-payload", "side-0", "maxval", "no-raster", "magic"],
    )
    def test_rejects_naming_the_file(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            oracles.read_pgm(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("value, dtype", [(16000, np.uint16), (256, np.int64), (-1, np.int64)])
    def test_refuses_values_outside_a_byte(self, tmp_path, value, dtype):
        path = tmp_path / "wide.pgm"
        img = np.array([[0, 255], [value, 7]], dtype=dtype)
        with pytest.raises(ValueError, match=r"\[0, 255\]") as exc:
            images.write_pgm(path, img)
        assert str(path) in str(exc.value)
        img[1, 0] = 200  # in range: written as the bytes it holds
        images.write_pgm(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 200, 7])

    def test_check_refuses_non_square(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            images.check_pgm(tmp_path / "wide.pgm", np.zeros((2, 4), dtype=np.uint8))
        assert not (tmp_path / "wide.pgm").exists()

    def test_overwrite_truncates(self, tmp_path):
        path = tmp_path / "old.pgm"
        path.write_bytes(b"x" * 1000)
        img = np.arange(4, dtype=np.uint8).reshape(2, 2)
        images.write_pgm(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3])

    def test_manifest_names_bad_file(self, tmp_path):
        images.write_pgm(tmp_path / "a.pgm", np.zeros((2, 2), dtype=np.uint8))
        images.write_pgm(tmp_path / "b.pgm", np.zeros((4, 4), dtype=np.uint8))
        (tmp_path / "c.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(5))
        for second, reason in (("b.pgm", "share one size"), ("c.pgm", "pixel bytes")):
            (tmp_path / "list.txt").write_text(f"a.pgm\n{second}\n")
            with pytest.raises(ValueError) as exc:
                images.read_manifest(tmp_path / "list.txt")
            assert str(tmp_path / second) in str(exc.value)
            assert reason in str(exc.value)


# -- read_pgm against arbitrary bytes and against the byte-loop oracle --------

_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
_COMMENT = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")


def _separator(first_whitespace: bool):
    """Whitespace and comments; after a field it must open with whitespace,
    because the oracle reads a '#' that touches a field as part of it."""
    rest = st.lists(st.one_of(st.sampled_from(_WHITESPACE), _COMMENT), max_size=3)
    head = st.sampled_from(_WHITESPACE) if first_whitespace else st.one_of(
        st.just(b""), st.sampled_from(_WHITESPACE), _COMMENT
    )
    return st.tuples(head, rest).map(lambda t: t[0] + b"".join(t[1]))


# Header-like byte soup: the tokens a PGM header is built from, in any order.
_TOKENS = st.sampled_from(
    [b"P5", b"P2", b"2", b"4", b"16", b"255", b"0", b"-2", b"+2", b"2_0", b"#", b"x"]
    + _WHITESPACE
)
_PGM_LIKE = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.lists(_TOKENS, max_size=12), st.binary(max_size=20)).map(
        lambda t: b"P5" + b"".join(t[0]) + t[1]
    ),
    # a valid header and a payload of about the right length
    st.sampled_from(
        [(b"P5\n2 2\n255\n", 4), (b"P5 1 1 255 ", 1), (b"P5\t4\r4 #c\n255\n", 16)]
    ).flatmap(lambda h: st.binary(min_size=h[1] - 1, max_size=h[1] + 1).map(h[0].__add__)),
)


@pytest.fixture(scope="module")
def pgm_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.pgm"


@settings(max_examples=400)
@given(_PGM_LIKE)
def test_read_pgm_any_bytes(pgm_file, data):
    pgm_file.write_bytes(data)
    try:
        img = oracles.read_pgm(pgm_file)
    except ValueError:
        return
    side = img.shape[0]
    assert img.dtype == np.uint8 and img.shape == (side, side)
    assert side >= 1 and not side & (side - 1)
    assert img.tobytes() == data[len(data) - side * side :]


@settings(max_examples=300)
@given(
    st.data(),
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from([255, 255, 255, 1, 256, 65535]),
)
def test_read_pgm_agrees_with_oracle(pgm_file, data, width, height, maxval):
    after_magic = data.draw(_separator(first_whitespace=False))
    header = b"P5" + after_magic + b"%d" % width
    header += data.draw(_separator(first_whitespace=True)) + b"%d" % height
    header += data.draw(_separator(first_whitespace=True)) + b"%d" % maxval
    header += data.draw(st.sampled_from(_WHITESPACE))
    pixels = data.draw(st.binary(min_size=width * height, max_size=width * height))
    pgm_file.write_bytes(header + pixels)
    if not after_magic:
        # "P52 2 255": netpbm needs whitespace after the magic number.  The
        # oracle reads past it; the reader refuses it.
        with pytest.raises(ValueError):
            oracles.read_pgm(pgm_file)
        return
    *fields, offset = oracles.pgm_header(header + pixels)
    assert (*fields, offset) == (width, height, maxval, len(header))
    if oracles.pgm_accepts(*fields, len(pixels)):
        assert oracles.read_pgm(pgm_file).tobytes() == pixels
    else:
        with pytest.raises(ValueError):
            oracles.read_pgm(pgm_file)
