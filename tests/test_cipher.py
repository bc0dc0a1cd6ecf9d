import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import baker
from qbaker.cipher import (
    MAX_SCHEDULE_N,
    MODES,
    Ciphertext,
    KeySchedule,
    MasterKey,
    decrypt,
    derive_schedule,
    diffuse,
    encrypt,
    iterated_tables,
    read_ciphertext,
    read_key,
    scramble,
    write_ciphertext,
    write_key,
)
from qbaker.cli import main
from qbaker.images import ImageSet, pack, plan_layout

import oracles

KEY = MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 0x1234ABCD)


def random_images(rng, M=3, n=2):
    return ImageSet(n, 8, rng.integers(0, 256, size=(M, 1 << n, 1 << n)))


class TestMasterKey:
    def test_lambda_bound(self):
        with pytest.raises(ValueError):
            MasterKey((0.2, 1.0, 1.0, 1.0, 1.0), 1)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            MasterKey((1.0,) * 5, 1, "sloppy")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "key.txt"
        write_key(path, KEY)
        assert read_key(path) == KEY

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_lambda_refused_when_read(self, tmp_path, bad):
        path = tmp_path / "key.txt"
        write_key(path, KEY)
        path.write_text(path.read_text().replace("lambda1 = 49.0", f"lambda1 = {bad}"))
        with pytest.raises(ValueError, match="lambda"):
            read_key(path)


class TestSchedule:
    def test_deterministic(self):
        layout = plan_layout(3, 8)
        a = derive_schedule(KEY, 2, layout)
        b = derive_schedule(KEY, 2, layout)
        assert np.array_equal(a.s1_part, b.s1_part)
        assert np.array_equal(a.s2_iter, b.s2_iter)

    def test_simplified_is_position_independent(self):
        layout = plan_layout(3, 8)
        key = MasterKey(KEY.lambdas, KEY.schedule_seed, "simplified")
        sched = derive_schedule(key, 2, layout)
        assert len(np.unique(sched.s1_part)) == 1
        assert len(np.unique(sched.s1_iter)) == 1
        assert len(np.unique(sched.s2_part)) == 1

    def test_seed_bit_flip_changes_schedule(self):
        layout = plan_layout(3, 8)
        a = derive_schedule(KEY, 2, layout)
        b = derive_schedule(
            MasterKey(KEY.lambdas, KEY.schedule_seed ^ 1), 2, layout
        )
        assert not (
            np.array_equal(a.s1_part, b.s1_part)
            and np.array_equal(a.s1_iter, b.s1_iter)
            and np.array_equal(a.s2_part, b.s2_part)
            and np.array_equal(a.s2_iter, b.s2_iter)
        )

    def test_iterations_in_range(self):
        layout = plan_layout(3, 8)
        sched = derive_schedule(KEY, 2, layout)
        assert sched.s1_iter.min() >= 1 and sched.s1_iter.max() <= 16
        assert sched.s2_iter.min() >= 1 and sched.s2_iter.max() <= 16

    def test_ranks_index_admissible_partitions(self):
        layout = plan_layout(200, 8)
        sched = derive_schedule(KEY, 5, layout)
        assert (sched.plane_n, sched.pixel_n) == (3, 5)
        assert 0 <= sched.s1_part.min() and sched.s1_part.max() < baker.count_admissible(3)
        assert 0 <= sched.s2_part.min() and sched.s2_part.max() < baker.count_admissible(5)

    def test_never_enumerates(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("derive_schedule enumerated partitions")

        monkeypatch.setattr(baker, "enumerate_admissible", refuse)
        for mode in ("simplified", "non_simplified"):
            key = MasterKey(KEY.lambdas, KEY.schedule_seed, mode)
            sched = derive_schedule(key, 6, plan_layout(4, 8))
            assert sched.s2_part.shape == (8, 8, 1)

    @pytest.mark.parametrize("n, L", [(7, 8), (8, 8), (3, 128), (3, 1 << 40)])
    def test_squares_past_the_64_bit_draw_rejected(self, n, L):
        # 4.4e22 partitions at n=7: digest % count could not reach most of them
        assert baker.count_admissible(MAX_SCHEDULE_N) < 1 << 64
        assert baker.count_admissible(MAX_SCHEDULE_N + 1) >= 1 << 64
        for mode in ("simplified", "non_simplified"):
            with pytest.raises(ValueError, match="64-bit"):
                derive_schedule(MasterKey(KEY.lambdas, 1, mode), n, plan_layout(2, L))


class TestIteratedTables:
    def test_one_key_per_row_at_n5(self):
        rng = np.random.default_rng(3)
        ranks = rng.integers(0, baker.count_admissible(5), 40)
        iters = rng.integers(1, 17, 40)
        tables = iterated_tables(5, ranks, iters)
        for row, i, r in zip(tables, ranks, iters):
            step = baker.rank_tables(5, [int(i)])[0]
            want = np.arange(1024)
            for _ in range(int(r)):
                want = step[want]
            assert np.array_equal(row, want)


def _identity_schedule(n, layout):
    lplanes = layout.lplanes
    side = 1 << n
    per = layout.images_per_block
    blocks = layout.block_count
    # (n,) is the lexicographically last admissible partition
    id_plane = baker.count_admissible(lplanes) - 1
    id_pixel = baker.count_admissible(n) - 1
    return KeySchedule(
        lplanes,
        n,
        np.full((side, side, blocks), id_plane),
        np.ones((side, side, blocks), dtype=np.int64),
        np.full((per, per, blocks), id_pixel),
        np.ones((per, per, blocks), dtype=np.int64),
    )


def _with_identity_stage2(sched):
    """The same stage 1, and stage 2 the identity at every position."""
    ident = baker.count_admissible(sched.pixel_n) - 1
    return KeySchedule(
        sched.plane_n, sched.pixel_n, sched.s1_part, sched.s1_iter,
        np.full_like(sched.s2_part, ident), np.ones_like(sched.s2_iter),
    )


def _lit(tensor, cell):
    bits = np.zeros_like(tensor.bits)
    bits[cell] = 1
    return type(tensor)(tensor.n, tensor.lplanes, bits)


MODES = ("simplified", "non_simplified")


class TestScrambling:
    """``scramble`` against the pointwise baker map, stage 1 then stage 2."""

    def test_identity_partitions_leave_tensor_alone(self):
        rng = np.random.default_rng(5)
        tensor = pack(random_images(rng, M=20))
        layout = plan_layout(20, 8)
        same = _identity_schedule(2, layout)
        # any iteration count of the identity is the identity; varied counts
        # give every block its own keys
        varied = KeySchedule(
            same.plane_n, same.pixel_n,
            same.s1_part, rng.integers(1, 17, same.s1_iter.shape),
            same.s2_part, rng.integers(1, 17, same.s2_iter.shape),
        )
        for sched in (same, varied):
            for inverse in (False, True):
                assert np.array_equal(scramble(tensor, sched, inverse).bits, tensor.bits)

    def test_single_bit_follows_iterated_map(self):
        rng = np.random.default_rng(4)
        layout = plan_layout(20, 8)  # 4 blocks of 8 images, 4x4 pixels
        empty = pack(ImageSet(2, 8, np.zeros((20, 4, 4), dtype=int)))
        scheds = [
            derive_schedule(MasterKey(KEY.lambdas, KEY.schedule_seed, mode), 2, layout)
            for mode in MODES
        ]
        # a few keys per stage, mixed over positions: tables shared by blocks
        keyed = scheds[1]
        scheds.append(KeySchedule(
            keyed.plane_n, keyed.pixel_n,
            rng.choice([3, 17], keyed.s1_part.shape), rng.integers(1, 3, keyed.s1_iter.shape),
            rng.choice([0, 2], keyed.s2_part.shape), rng.integers(1, 3, keyed.s2_iter.shape),
        ))
        for sched in scheds:
            for _ in range(24):
                t, m, x, y, l = (int(v) for v in rng.integers(0, [4, 8, 4, 4, 8]))
                p1 = baker.unrank_admissible(sched.plane_n, int(sched.s1_part[x, y, t]))
                m2, l2 = oracles.iterate(p1, int(sched.s1_iter[x, y, t]), (m, l))
                p2 = baker.unrank_admissible(sched.pixel_n, int(sched.s2_part[l2, m2, t]))
                x2, y2 = oracles.iterate(p2, int(sched.s2_iter[l2, m2, t]), (x, y))
                out = scramble(_lit(empty, (t, m, x, y, l)), sched).bits
                assert out[t, m2, x2, y2, l2] == 1 and out.sum() == 1
                back = scramble(_lit(empty, (t, m2, x2, y2, l2)), sched, inverse=True).bits
                assert back[t, m, x, y, l] == 1 and back.sum() == 1

    def test_stage_inverses(self):
        rng = np.random.default_rng(6)
        tensor = pack(random_images(rng, M=20))
        layout = plan_layout(20, 8)
        assert layout.block_count == 4
        for mode in MODES:
            sched = derive_schedule(MasterKey(KEY.lambdas, KEY.schedule_seed, mode), 2, layout)
            out = scramble(tensor, sched)
            assert not np.array_equal(out.bits, tensor.bits)
            assert np.array_equal(scramble(out, sched, inverse=True).bits, tensor.bits)
            assert np.array_equal(scramble(scramble(tensor, sched, True), sched).bits, tensor.bits)

    def test_multiset_preserved_per_plane(self):
        # with stage 2 the identity, stage 1 only reorders (m, l) at each pixel
        rng = np.random.default_rng(7)
        tensor = pack(random_images(rng, M=20))
        sched = _with_identity_stage2(derive_schedule(KEY, 2, plan_layout(20, 8)))
        out = scramble(tensor, sched)
        assert not np.array_equal(out.bits, tensor.bits)
        assert np.array_equal(tensor.bits.sum(axis=(1, 4)), out.bits.sum(axis=(1, 4)))

    def test_schedule_entry_localized(self):
        rng = np.random.default_rng(8)
        tensor = pack(random_images(rng, M=20))
        sched = _with_identity_stage2(derive_schedule(KEY, 2, plan_layout(20, 8)))
        x, y, t = 1, 1, 2
        rank, iters = sched.s1_part[x, y, t], sched.s1_iter[x, y, t]
        table = iterated_tables(sched.plane_n, np.array([rank] * 16), np.arange(1, 17))
        # an iteration count whose table differs from the scheduled one
        other = next(r for r in range(1, 17) if not np.array_equal(table[r - 1], table[iters - 1]))
        tweaked_iter = sched.s1_iter.copy()
        tweaked_iter[x, y, t] = other
        tweaked = KeySchedule(
            sched.plane_n, sched.pixel_n,
            sched.s1_part, tweaked_iter, sched.s2_part, sched.s2_iter,
        )
        a = scramble(tensor, sched).bits
        b = scramble(tensor, tweaked).bits
        differs = (a != b).any(axis=(1, 4))  # collapse (m, l) per (t, x, y)
        assert differs[t, x, y]
        differs[t, x, y] = False
        assert not differs.any()


class TestDiffuse:
    def test_zero_keys_identity(self):
        rng = np.random.default_rng(9)
        tensor = pack(random_images(rng))
        keys = np.zeros((1, 8, 4, 4), dtype=np.uint8)
        assert np.array_equal(diffuse(tensor, keys).bits, tensor.bits)

    def test_involution(self):
        rng = np.random.default_rng(10)
        tensor = pack(random_images(rng))
        keys = rng.integers(0, 8, size=(1, 8, 4, 4)).astype(np.uint8)
        twice = diffuse(diffuse(tensor, keys), keys)
        assert np.array_equal(twice.bits, tensor.bits)

    def test_single_digit_flips_predicted_planes(self):
        tensor = pack(ImageSet(0, 8, np.zeros((1, 1, 1), dtype=int)))
        keys = np.zeros((1, 8, 1, 1), dtype=np.uint8)
        keys[0, 0, 0, 0] = 0b101  # digit bits cycle over the 8 planes
        out = diffuse(tensor, keys)
        assert out.bits[0, 0, 0, 0].tolist() == [1, 0, 1, 1, 0, 1, 1, 0]

    def test_layout_mismatch(self):
        rng = np.random.default_rng(11)
        tensor = pack(random_images(rng))
        with pytest.raises(ValueError):
            diffuse(tensor, np.zeros((2, 8, 4, 4), dtype=np.uint8))

    def test_peak_memory_within_two_cubes(self):
        # 4096 images of 16x16: a 512-block, 8.4 MB cube
        tensor = pack(ImageSet(4, 8, np.zeros((4096, 16, 16), dtype=np.uint8)))
        keys = np.random.default_rng(12).integers(0, 8, size=(512, 8, 16, 16)).astype(np.uint8)
        tracemalloc.start()
        try:
            out = diffuse(tensor, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.bits.sum() > 0
        assert peak <= 2 * tensor.bits.nbytes


class TestPipeline:
    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        s = random_images(rng)
        ct = encrypt(s, KEY)
        back = decrypt(ct, KEY)
        assert np.array_equal(back.images, s.images)

    def test_roundtrip_simplified_mode(self):
        rng = np.random.default_rng(13)
        s = random_images(rng)
        key = MasterKey(KEY.lambdas, KEY.schedule_seed, "simplified")
        assert np.array_equal(decrypt(encrypt(s, key), key).images, s.images)

    def test_encrypt_deterministic(self):
        rng = np.random.default_rng(14)
        s = random_images(rng)
        assert np.array_equal(
            encrypt(s, KEY).tensor.bits, encrypt(s, KEY).tensor.bits
        )

    def test_mode_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        ct = encrypt(random_images(rng), KEY)
        other = MasterKey(KEY.lambdas, KEY.schedule_seed, "simplified")
        with pytest.raises(ValueError):
            decrypt(ct, other)

    def test_wrong_lambda_ruins_decryption(self):
        rng = np.random.default_rng(16)
        s = random_images(rng, M=10, n=4)
        ct = encrypt(s, KEY)
        bad = MasterKey((49.0 + 1e-9, 23.0, 58.0, 120.0, 237.0), KEY.schedule_seed)
        recovered = decrypt(ct, bad)
        bits_true = np.unpackbits(s.images.astype(np.uint8).reshape(-1))
        bits_got = np.unpackbits(recovered.images.astype(np.uint8).reshape(-1))
        assert np.mean(bits_true != bits_got) >= 0.40

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        s = random_images(rng, M=4)
        ct = encrypt(s, KEY)
        path = tmp_path / "ct.bin"
        write_ciphertext(path, ct)
        loaded = read_ciphertext(path)
        assert loaded.x0 == ct.x0
        assert loaded.alpha == ct.alpha and loaded.beta == ct.beta
        assert np.array_equal(loaded.tensor.bits, ct.tensor.bits)
        assert np.array_equal(decrypt(loaded, KEY).images, s.images)

    def test_ciphertext_header_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a ciphertext")
        with pytest.raises(ValueError):
            read_ciphertext(path)

    def test_roundtrip_keyed_n6(self):
        s = ImageSet(6, 8, (np.arange(4 * 64 * 64).reshape(4, 64, 64) * 7 + 3) % 256)
        ct = encrypt(s, KEY)
        assert not np.array_equal(ct.tensor.bits, pack(s).bits)
        assert np.array_equal(decrypt(ct, KEY).images, s.images)

    def test_n7_images_rejected(self):
        s = ImageSet(7, 8, np.zeros((2, 128, 128), dtype=int))
        with pytest.raises(ValueError, match="64-bit"):
            encrypt(s, KEY)


def _arithmetic_images(M, n):
    side = 1 << n
    return ImageSet(n, 8, (np.arange(M * side * side).reshape(M, side, side) * 37 + 11) % 256)


class TestBitIdentity:
    """SHA-256 of ciphertext files, recorded before the schedule moved from
    enumerating partitions to count-and-unrank; format QBMI1 must not drift."""

    @pytest.mark.parametrize("mode, n, M, digest", [
        ("non_simplified", 3, 5,
         "236373b311ab8fcd80e7c426b4c29c586948fa29f809ed258b312565320a03fd"),
        ("non_simplified", 2, 12,
         "f2786a1924491bbfc7aafffbdbc0cc9c3278c90e7efd3f04808c19f62d49f95b"),
        ("simplified", 3, 5,
         "8706c401f9feef9d464067dc041a971de69ecf7275f7b12b62e1723bfde30259"),
        ("simplified", 4, 20,
         "54b8dee83c7dbcd4a0614ccbb00d581409c033994b9e8a8ada30b3470668d446"),
    ])
    def test_ciphertext_digest(self, tmp_path, mode, n, M, digest):
        key = MasterKey((49.0, 23.0, 58.0, 120.0, 237.0), 0x5EED, mode)
        path = tmp_path / "ct.bin"
        write_ciphertext(path, encrypt(_arithmetic_images(M, n), key))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCiphertextFile:
    """Damaged files raise ValueError, and ``qbaker decrypt`` exits 1."""

    @pytest.fixture
    def written(self, tmp_path):
        ct = encrypt(_arithmetic_images(5, 3), KEY)
        path = tmp_path / "ct.bin"
        write_ciphertext(path, ct)
        key = tmp_path / "key.txt"
        write_key(key, KEY)
        return path, key

    @staticmethod
    def _rejected(path, key, capsys):
        with pytest.raises(ValueError):
            read_ciphertext(path)
        rc = main(["decrypt", "--in", str(path), "--key", str(key),
                   "--out-dir", str(path.parent / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_intact_file_decrypts(self, written, capsys):
        path, key = written
        assert main(["decrypt", "--in", str(path), "--key", str(key),
                     "--out-dir", str(path.parent / "out")]) == 0

    def test_truncated_payload(self, written, capsys):
        path, key = written
        blob = path.read_bytes()
        payload = len(blob) - blob.index(b"---\n") - 4
        path.write_bytes(blob[: len(blob) - payload // 2])
        self._rejected(path, key, capsys)

    def test_trailing_bytes(self, written, capsys):
        path, key = written
        path.write_bytes(path.read_bytes() + b"\0")
        self._rejected(path, key, capsys)

    @pytest.mark.parametrize("field", ["n", "L", "M", "blocks", "x0", "alpha", "beta", "mode"])
    def test_missing_field(self, written, capsys, field):
        path, key = written
        blob = path.read_bytes()
        head, sep, payload = blob.partition(b"---\n")
        lines = [ln for ln in head.split(b"\n") if not ln.startswith(field.encode() + b" =")]
        path.write_bytes(b"\n".join(lines) + sep + payload)
        self._rejected(path, key, capsys)

    @staticmethod
    def _replace_line(path, line, bad):
        head, sep, payload = path.read_bytes().partition(b"---\n")
        lines = [bad if ln.startswith(line) else ln for ln in head.split(b"\n")]
        path.write_bytes(b"\n".join(lines) + sep + payload)

    @pytest.mark.parametrize("line, bad", [
        (b"alpha = ", b"alpha = many"),
        (b"x0 = ", b"x0 = zero"),
        (b"n = ", b"n = -3"),
        (b"blocks = ", b"blocks = 2"),
        (b"L = ", b"L = 1"),
        (b"mode = ", b"mode = sloppy"),
    ])
    def test_unparsable_or_inconsistent_field(self, written, capsys, line, bad):
        path, key = written
        self._replace_line(path, line, bad)
        self._rejected(path, key, capsys)

    @pytest.mark.parametrize("line, bad", [
        (b"beta = ", b"beta = 99999999999999999999"),
        (b"beta = ", b"beta = 0"),  # below alpha^2
        (b"alpha = ", b"alpha = -1"),
        (b"alpha = ", b"alpha = 65"),  # a pixel spans 64 bits here
        (b"x0 = ", b"x0 = 1.5"),
        (b"x0 = ", b"x0 = nan"),
        (b"x0 = ", b"x0 = -inf"),
    ])
    def test_impossible_aggregates(self, written, capsys, line, bad):
        path, key = written
        self._replace_line(path, line, bad)
        self._rejected(path, key, capsys)

    @pytest.mark.parametrize("n", ["0", "7", "100000", "400000000", "10000000000"])
    def test_header_n_refused_at_once(self, written, capsys, n):
        path, key = written
        self._replace_line(path, b"n = ", b"n = " + n.encode())
        start = time.process_time()
        with pytest.raises(ValueError, match=f"n={n} outside"):
            read_ciphertext(path)
        assert time.process_time() - start < 1.0
        self._rejected(path, key, capsys)


# -- fuzzed key and ciphertext files -------------------------------------------

KEY_FIELDS = [f"lambda{i}" for i in range(1, 6)] + ["schedule_seed", "mode"]
_FIELD_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-(10**25), 10**25).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1_0", "0x10", "simplified", ""]),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f"


def _key_text(fields: dict[str, str]) -> str:
    return "".join(f"{name} = {value}\n" for name, value in fields.items())


def _check_key(fuzz_file):
    """read_key gives a key that writes and reads back unchanged, or ValueError."""
    try:
        key = read_key(fuzz_file)
    except ValueError:
        return
    assert all(1 <= lam < float("inf") for lam in key.lambdas) and key.mode in MODES
    write_key(fuzz_file, key)
    assert read_key(fuzz_file) == key


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=160))
def test_read_key_any_bytes(fuzz_file, data):
    fuzz_file.write_bytes(data)
    _check_key(fuzz_file)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KEY_FIELDS), st.one_of(st.none(), _FIELD_VALUES))
def test_read_key_one_field_replaced(fuzz_file, field, value):
    values = (*KEY.lambdas, KEY.schedule_seed, KEY.mode)
    fields = {name: str(v) for name, v in zip(KEY_FIELDS, values)}
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    fuzz_file.write_text(_key_text(fields))
    _check_key(fuzz_file)


@pytest.fixture(scope="module")
def small_ciphertext(tmp_path_factory):
    path = tmp_path_factory.mktemp("ct") / "ct.bin"
    write_ciphertext(path, encrypt(_arithmetic_images(3, 1), KEY))
    return path.read_bytes()


def _check_ciphertext(fuzz_file):
    """read_ciphertext gives a ciphertext whose header agrees with its cube
    and that writes and reads back unchanged, or ValueError."""
    try:
        ct = read_ciphertext(fuzz_file)
    except ValueError:
        return
    assert 1 <= ct.n <= MAX_SCHEDULE_N and ct.mode in MODES
    layout = plan_layout(ct.M, ct.L)
    assert ct.tensor.n == ct.n and ct.tensor.block_count == layout.block_count
    assert ct.tensor.lplanes == layout.lplanes
    write_ciphertext(fuzz_file, ct)
    again = read_ciphertext(fuzz_file)
    assert (again.n, again.L, again.M, again.x0, again.alpha, again.beta, again.mode) == (
        ct.n, ct.L, ct.M, ct.x0, ct.alpha, ct.beta, ct.mode)
    assert np.array_equal(again.tensor.bits, ct.tensor.bits)


_CT_TOKENS = st.sampled_from(
    [b"n", b"L", b"M", b"blocks", b"x0", b"alpha", b"beta", b"mode", b" = ", b"=",
     b"1", b"3", b"8", b"0.5", b"-1", b"nan", b"simplified", b"#", b"\n", b" ", b"\xff"]
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(max_size=160),
    st.tuples(st.lists(_CT_TOKENS, max_size=24), st.binary(max_size=40)).map(
        lambda t: b"QBMI1\n" + b"".join(t[0]) + b"\n---\n" + t[1]
    ),
))
def test_read_ciphertext_any_bytes(fuzz_file, data):
    fuzz_file.write_bytes(data)
    _check_ciphertext(fuzz_file)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["n", "L", "M", "blocks", "x0", "alpha", "beta"]),
    st.one_of(
        st.integers(),
        st.integers(-(10**40), 10**40),
        st.sampled_from([0, 1, 7, 400_000_000, 10**10, 10**4000]),
    ),
)
def test_read_ciphertext_one_field_replaced(fuzz_file, small_ciphertext, field, value):
    head, sep, payload = small_ciphertext.partition(b"---\n")
    lines = [f"{field} = {value}".encode() if ln.startswith(field.encode() + b" =") else ln
             for ln in head.split(b"\n")]
    fuzz_file.write_bytes(b"\n".join(lines) + sep + payload)
    start = time.process_time()
    _check_ciphertext(fuzz_file)
    assert time.process_time() - start < 1.0
