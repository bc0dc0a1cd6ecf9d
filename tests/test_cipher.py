import dataclasses
import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import baker, cipher
from qbaker.cipher import (
    MAX_ITERATIONS,
    MODES,
    Ciphertext,
    KeySchedule,
    MasterKey,
    _Scrambler,
    _StageTables,
    _draws,
    decrypt,
    derive_schedule,
    diffuse,
    encrypt,
    read_ciphertext,
    read_key,
    write_ciphertext,
)
from qbaker.cli import main
from qbaker.images import ImageSet, block_chunks, pack, plan_layout

import oracles
from oracles import write_key

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

    def test_simplified_holds_one_draw_per_stage(self):
        # a broadcast view over the positions: nothing the size of the layout
        sched = derive_schedule(MasterKey(KEY.lambdas, 1, "simplified"), 4, plan_layout(4096, 8))
        assert sched.s1_part.shape == (16, 16, 512) and sched.s2_part.shape == (8, 8, 512)
        for a in (sched.s1_part, sched.s1_iter, sched.s2_part, sched.s2_iter):
            assert a.strides == (0,) * a.ndim

    @pytest.mark.parametrize("count", [
        *(pytest.param(baker.count_admissible(n), id=str(n)) for n in range(1, 9)),
        # Horner's rule groups (63 - b) // 8 byte columns per reduction for
        # counts of b < 56 bits: 7 columns, 6, then one, at the tightest
        # int64 count and at the first count on the Python-int path.  A count
        # just below 2^48 overflows int64 if its groups are one column wider
        # than the bound allows
        pytest.param((1 << 7) - 1, id="2^7-1"),
        pytest.param(1 << 7, id="2^7"),
        pytest.param((1 << 47) + 1, id="2^47+1"),
        pytest.param((1 << 48) - 1, id="2^48-1"),
        pytest.param((1 << 55) - 1, id="2^55-1"),
        pytest.param(1 << 55, id="2^55"),
    ])
    def test_draws_match_oracle(self, count, monkeypatch):
        # both stage labels at every square of n <= 8 and at the counts
        # where the grouped reduction changes; n >= 7 takes the Python-int
        # path (count_admissible(7) is about 4.4e22).  Horner's rule runs a
        # slice of positions at a time: 30 positions in one slice, in slices
        # of 7 (the last one 2), and in two slices of the program's bound, the
        # last one 11 positions.  The oracle's SHAKE-256 is hashlib's, so the
        # two Keccak implementations are compared too
        bound = cipher._SLICE_CELLS
        for shape, cells in (((3, 5, 2), bound), ((3, 5, 2), 7), ((bound + 11,), bound)):
            monkeypatch.setattr(cipher, "_SLICE_CELLS", cells)
            for label in (b"stage1", b"stage2"):
                part, iters = _draws(KEY.schedule_seed, label, shape, count)
                assert part.dtype == np.min_scalar_type(count - 1) and iters.dtype == np.uint8
                want = oracles.schedule_draws(KEY.schedule_seed, label, count, part.size)
                assert (part.ravel().tolist(), iters.ravel().tolist()) == want

    def test_keyed_stream_past_the_builtin_digest_refused(self, monkeypatch):
        # _sha3 digests stop below 2^29 bytes: keyed n=8 with 4097 images
        # would draw 671 MB for stage 1, refused before any hashing, while
        # 4096 images (335 MB) get as far as the hash
        class Hashed(Exception):
            pass

        def no_hash(*args):
            raise Hashed

        monkeypatch.setattr(cipher, "shake_256", no_hash)
        with pytest.raises(ValueError, match="stage1 draws a SHAKE-256 stream of 671088640"):
            derive_schedule(KEY, 8, plan_layout(4097, 8))
        with pytest.raises(Hashed):
            derive_schedule(KEY, 8, plan_layout(4096, 8))
        monkeypatch.undo()
        # simplified mode makes one draw per stage, whatever the layout
        sched = derive_schedule(MasterKey(KEY.lambdas, 1, "simplified"), 8, plan_layout(4097, 8))
        assert sched.s1_part.shape == (256, 256, 1024)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, L", [(1, 2), (3, 8), (5, 64), (8, 16)])
    def test_schedule_matches_oracle(self, mode, n, L):
        # each stage's positions in C order, or one draw when simplified
        layout = plan_layout(3 * L, L)
        sched = derive_schedule(MasterKey(KEY.lambdas, 99, mode), n, layout)
        stages = ((b"stage1", sched.plane_n, sched.s1_part, sched.s1_iter),
                  (b"stage2", sched.pixel_n, sched.s2_part, sched.s2_iter))
        for label, side_n, part, iters in stages:
            positions = 1 if mode == "simplified" else part.size
            ranks, counts = oracles.schedule_draws(99, label, baker.count_admissible(side_n),
                                                   positions)
            if mode == "simplified":
                ranks, counts = ranks * part.size, counts * part.size
            assert part.ravel().tolist() == ranks and iters.ravel().tolist() == counts

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

    @pytest.mark.parametrize("n, L", [(16, 8), (0, 8), (3, 128), (3, 1 << 40), (10, 64), (13, 8)])
    def test_squares_and_blocks_past_the_limits_rejected(self, n, L):
        # past baker.MAX_N, MAX_BIT_DEPTH or 2^31 cells a block: refused before
        # any array is sized, so in well under a second and with almost
        # nothing allocated
        match = f"n={n} outside" if L <= 64 else f"{plan_layout(2, L).images_per_block} planes"
        for mode in MODES:
            start = time.process_time()
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=match):
                    derive_schedule(MasterKey(KEY.lambdas, 1, mode), n, plan_layout(2, L))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.process_time() - start < 1.0 and peak < 64 << 10, peak


class TestIteratedTables:
    def test_one_key_per_row_at_n5(self):
        rng = np.random.default_rng(3)
        ranks = rng.integers(0, baker.count_admissible(5), 40)
        iters = rng.integers(1, 17, 40)
        tables, at = oracles.iterated_tables(5, ranks, iters)
        for row, i, r in zip(tables[at], ranks, iters):
            step = oracles.rank_tables(5, [int(i)])[0]
            want = np.arange(1024)
            for _ in range(int(r)):
                want = step[want]
            assert np.array_equal(row, want)

    def test_one_table_per_distinct_pair(self):
        # a 2-D grid of positions: repeated (rank, iterations) pairs share a
        # row, and count 0 is the identity whatever the rank, also as uint8
        ranks = np.array([[7, 7, 3, 7], [3, 7, 7, 0]])
        iters = np.array([[2, 2, 2, 5], [2, 0, 0, 0]], dtype=np.uint8)
        tables, at = oracles.iterated_tables(3, ranks, iters)
        assert at.shape == ranks.shape
        assert len(tables) == len(set(zip(ranks.ravel().tolist(), iters.ravel().tolist()))) == 5
        assert at[0, 0] == at[0, 1] and at[0, 2] == at[1, 0] and at[1, 1] == at[1, 2]
        assert len({at[0, 0], at[0, 2], at[0, 3], at[1, 1], at[1, 3]}) == 5
        for cell in ((1, 1), (1, 2), (1, 3)):
            assert np.array_equal(tables[at[cell]], np.arange(64))
        step = oracles.rank_tables(3, [7])[0]
        assert np.array_equal(tables[at[0, 0]], step[step])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_count_matches_naive_composition(self, n):
        # three ranks (repeats allowed) at every count 0..16, so equal-count
        # slices hold several rows and a rank recurs at several counts
        rng = np.random.default_rng(n)
        pool = rng.integers(0, baker.count_admissible(n), 3)
        ranks = rng.choice(pool, 51)
        iters = np.repeat(np.arange(MAX_ITERATIONS + 1), 3)
        rng.shuffle(iters)
        tables, at = oracles.iterated_tables(n, ranks, iters)
        for row, step, count in zip(tables[at], oracles.rank_tables(n, ranks), iters):
            want = np.arange(4**n)
            for _ in range(count):
                want = step[want]
            assert np.array_equal(row, want)

    def test_n8_ranks_just_below_int64(self):
        rng = np.random.default_rng(8)
        ranks = rng.integers(1 << 62, (1 << 63) - 1, 4, dtype=np.int64)
        iters = np.array([1, 6, 11, 16])
        tables, at = oracles.iterated_tables(8, ranks, iters)
        for row, i, count in zip(tables[at], ranks.tolist(), iters):
            step = baker.partition_tables(8, [oracles.unrank(8, i)])[0]
            want = np.arange(1 << 16)
            for _ in range(count):
                want = step[want]
            assert np.array_equal(row, want)


class TestStageTables:
    def test_keyed_stages_unrank_once_per_call(self, monkeypatch):
        # four chunks of blocks, and every key a chunk draws needs tables
        # per chunk (neither stage's every-key tables fit one block's cells)
        calls = []

        def counted(n, ranks):
            calls.append(n)
            return unrank_rows(n, ranks)

        unrank_rows = baker.unrank_rows
        monkeypatch.setattr(baker, "unrank_rows", counted)
        layout = plan_layout(1040, 8)
        sched = derive_schedule(KEY, 2, layout)
        words = pack(random_images(np.random.default_rng(2), M=1040), slice(None))
        for inverse in (False, True):
            calls.clear()
            scrambler = _Scrambler(sched, inverse)
            assert scrambler.stage1.whole is None and scrambler.stage2.whole is None
            chunks = block_chunks(layout.block_count, scrambler.cells)
            assert len(chunks) == 4
            for chunk in chunks:
                scrambler(words[chunk], chunk)
            assert sorted(calls) == [sched.pixel_n, sched.plane_n]

    def test_both_directions_hand_out_the_same_tables(self):
        # keyed n=2, M=1040, four chunks of blocks: encrypt scatters and
        # decrypt gathers through the same forward tables, so both build the
        # same (tables, row) for every chunk and stage
        layout = plan_layout(1040, 8)
        sched = derive_schedule(KEY, 2, layout)
        forward, backward = _Scrambler(sched, False), _Scrambler(sched, True)
        chunks = block_chunks(layout.block_count, forward.cells)
        assert len(chunks) == 4
        for chunk in chunks:
            for a, b in ((forward.stage1, backward.stage1), (forward.stage2, backward.stage2)):
                (tables, row), (want, want_row) = (s.tables(s.keys[..., chunk]) for s in (a, b))
                assert np.array_equal(tables, want) and np.array_equal(row, want_row)

    @pytest.mark.parametrize("n, M", [(2, 20), (3, 40), (5, 200)])
    def test_shared_and_per_block_tables_agree(self, n, M):
        # chunk slices as scramble takes them: tables built from a chunk's
        # keys, and every key's tables where they fit in 2^22 cells, give
        # each position the oracle's table (n=5's stage 2 would need
        # 458,330 x 16 tables of 1,024 cells, so it is checked per chunk only)
        layout = plan_layout(M, 8)
        sched = derive_schedule(KEY, n, layout)
        stages = (
            (sched.plane_n, sched.s1_part, sched.s1_iter),
            (sched.pixel_n, sched.s2_part, sched.s2_iter),
        )
        cells = layout.images_per_block ** 2 << (2 * n)
        for stage_n, ranks, iters in stages:
            built = [_StageTables(stage_n, ranks, iters, 0)]
            assert built[0].whole is None
            every = baker.count_admissible(stage_n) * MAX_ITERATIONS << (2 * stage_n)
            if every <= 1 << 22:  # the every-key path at its budget's edge
                built.append(_StageTables(stage_n, ranks, iters, every))
                assert built[1].whole is not None
            assert len(built) == 1 + ((n, stage_n) != (5, 5))
            for chunk in [slice(1, 2), *block_chunks(layout.block_count, cells)]:
                want, at = oracles.iterated_tables(stage_n, ranks[..., chunk], iters[..., chunk])
                for stage in built:
                    tables, row = stage.tables(stage.keys[..., chunk])
                    assert row.shape == ranks[..., chunk].shape
                    assert np.array_equal(tables[row], want[at])

    def test_every_key_tables_sort_nothing(self, monkeypatch):
        # keyed n=5 stage 1: every (rank, count) key's tables fit one block,
        # so setup and every chunk's tables run no np.unique, and a key is
        # one byte or two per position, not an int64 rank plus an intp row
        layout = plan_layout(200, 8)
        sched = derive_schedule(KEY, 5, layout)
        ranks, iters = sched.s1_part, sched.s1_iter
        cells = layout.images_per_block ** 2 << 10
        chunks = block_chunks(layout.block_count, cells)
        wants = [oracles.iterated_tables(3, ranks[..., c], iters[..., c]) for c in chunks]

        def refused(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refused)
        stage = _StageTables(3, ranks, iters, cells)
        assert stage.whole.shape == (baker.count_admissible(3) * MAX_ITERATIONS, 64)
        assert stage.keys.shape == ranks.shape and stage.keys.itemsize <= 2
        for chunk, (want, at) in zip(chunks, wants):
            tables, row = stage.tables(stage.keys[..., chunk])
            assert np.array_equal(tables[row], want[at])

    def test_constant_stage_built_from_one_position(self, monkeypatch):
        # simplified mode: each stage's tables come from block 0's positions
        # alone, and the one index they compose to covers one block's cells
        built = []

        def counted(n, exponents, counts):
            built.append((n, len(counts)))
            return powers(n, exponents, counts)

        powers = cipher._powers
        monkeypatch.setattr(cipher, "_powers", counted)
        layout = plan_layout(4096, 8)
        sched = derive_schedule(MasterKey(KEY.lambdas, 1, "simplified"), 4, layout)
        assert layout.block_count == 512
        for inverse in (False, True):
            built.clear()
            tracemalloc.start()
            try:
                scrambler = _Scrambler(sched, inverse)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sorted(built) == [(3, 1), (4, 1)]  # one table per stage
            stages = (scrambler.stage1, scrambler.stage2)
            assert sorted(stage.keys.shape for stage in stages) == [(8, 8, 1), (16, 16, 1)]
            assert scrambler.shared.shape == (scrambler.cells,)
            assert peak < sched.s1_part.size * 8  # one int64 copy of stage 1's keys


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


def _lit(bits, cell):
    """Bits shaped like ``bits`` with the one cell (t, m, x, y, l) lit."""
    lit = np.zeros_like(bits)
    lit[cell] = 1
    return lit


def _scrambled(bits, sched, inverse=False):
    """The cube's bits through both stages (in reverse with ``inverse``), a
    chunk of blocks at a time, as encrypt and decrypt move them."""
    scrambler = _Scrambler(sched, inverse)
    out = np.empty_like(bits)
    for chunk in block_chunks(len(bits), scrambler.cells):
        out[chunk] = scrambler(bits[chunk], chunk)
    return out


MODES = ("simplified", "non_simplified")


class TestScrambling:
    """``_Scrambler`` against the pointwise baker map, stage 1 then stage 2."""

    def test_identity_partitions_leave_tensor_alone(self):
        rng = np.random.default_rng(5)
        bits = pack(random_images(rng, M=20), slice(None))
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
                out = _scrambled(bits, sched, inverse)
                assert np.array_equal(out, bits)

    def test_single_bit_follows_iterated_map(self):
        rng = np.random.default_rng(4)
        # 4 blocks of 8 images, 4x4 pixels, in one chunk; and 256 blocks in
        # four chunks of 64, lit in the last chunk
        for M, blocks in ((20, range(4)), (1040, range(192, 256))):
            layout = plan_layout(M, 8)
            empty = pack(ImageSet(2, 8, np.zeros((M, 4, 4), dtype=int)), slice(None))
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
                    m, x, y, l = (int(v) for v in rng.integers(0, [8, 4, 4, 8]))
                    t = int(rng.choice(blocks))
                    p1 = oracles.unrank_admissible(sched.plane_n, int(sched.s1_part[x, y, t]))
                    m2, l2 = oracles.iterate(p1, int(sched.s1_iter[x, y, t]), (m, l))
                    p2 = oracles.unrank_admissible(sched.pixel_n, int(sched.s2_part[l2, m2, t]))
                    x2, y2 = oracles.iterate(p2, int(sched.s2_iter[l2, m2, t]), (x, y))
                    out = _scrambled(_lit(empty, (t, m, x, y, l)), sched)
                    assert out[t, m2, x2, y2, l2] == 1 and out.sum() == 1
                    back = _scrambled(_lit(empty, (t, m2, x2, y2, l2)), sched, True)
                    assert back[t, m, x, y, l] == 1 and back.sum() == 1

    def test_one_cell_map_per_chunk_or_one_shared(self, monkeypatch):
        # 256 blocks in four chunks: keyed mode runs each stage once per
        # chunk, simplified mode runs each once to compose one shared index
        calls = []

        def counted(name, stage):
            def run(cube, *args):
                calls.append((name, len(cube)))
                return stage(cube, *args)
            return run

        for name in ("scramble_stage1", "scramble_stage2"):
            monkeypatch.setattr(cipher, name, counted(name, getattr(cipher, name)))
        bits = pack(random_images(np.random.default_rng(12), M=1040), slice(None))
        for mode, blocks in (("simplified", [1]), ("non_simplified", [64] * 4)):
            sched = derive_schedule(MasterKey(KEY.lambdas, 1, mode), 2, plan_layout(1040, 8))
            for inverse, order in ((False, (1, 2)), (True, (2, 1))):
                calls.clear()
                _scrambled(bits, sched, inverse)
                want = [(f"scramble_stage{s}", b) for b in blocks for s in order]
                assert calls == want, (mode, inverse, calls)

    def test_stage2_ranks_near_int64_max(self):
        # n=7 ranks in [2^62, 2^63): no table key built from them may leave
        # int64; the schedule is built by hand, since a draw among the 4.4e22
        # n=7 partitions lands in [2^62, 2^63) with probability about 1e-4
        rng = np.random.default_rng(11)
        n, layout = 7, plan_layout(2, 2)  # one block of 2 images, 2 planes
        side = 1 << n
        sched = KeySchedule(
            layout.lplanes, n,
            rng.integers(0, baker.count_admissible(1), (side, side, 1)),
            rng.integers(1, 17, (side, side, 1)),
            rng.integers(1 << 62, 1 << 63, (2, 2, 1)),
            rng.integers(1, 17, (2, 2, 1)),
        )
        images = rng.integers(0, 4, (2, side, side))
        bits = pack(ImageSet(n, 2, images), slice(None))
        out = _scrambled(bits, sched)
        assert not np.array_equal(out, bits)
        assert np.array_equal(_scrambled(out, sched, inverse=True), bits)
        t, m, x, y, l = 0, 1, 93, 17, 0
        p1 = oracles.unrank_admissible(1, int(sched.s1_part[x, y, t]))
        m2, l2 = oracles.iterate(p1, int(sched.s1_iter[x, y, t]), (m, l))
        p2 = oracles.unrank_admissible(n, int(sched.s2_part[l2, m2, t]))
        x2, y2 = oracles.iterate(p2, int(sched.s2_iter[l2, m2, t]), (x, y))
        lit = _scrambled(_lit(bits, (t, m, x, y, l)), sched)
        assert lit[t, m2, x2, y2, l2] == 1 and lit.sum() == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_blocks_moved_in_many_slices(self, mode, monkeypatch):
        # n=2, four blocks of 1,024 cells in one chunk: with slices of 48
        # cells, stage 1 moves one 64-cell row at a time, stage 2 three 16-cell
        # rows (with a two-row slice closing each image's run of 8 planes),
        # and the shared index gathers 48 cells at a time; the scramble does
        # not change, and decrypt undoes it
        layout = plan_layout(20, 8)
        bits = pack(random_images(np.random.default_rng(25), M=20), slice(None))
        sched = derive_schedule(MasterKey(KEY.lambdas, KEY.schedule_seed, mode), 2, layout)
        want = _scrambled(bits, sched)
        monkeypatch.setattr(cipher, "_SLICE_CELLS", 48)
        out = _scrambled(bits, sched)
        assert np.array_equal(out, want)
        assert np.array_equal(_scrambled(out, sched, inverse=True), bits)

    def test_stage_inverses(self):
        rng = np.random.default_rng(6)
        bits = pack(random_images(rng, M=20), slice(None))
        layout = plan_layout(20, 8)
        assert layout.block_count == 4
        for mode in MODES:
            sched = derive_schedule(MasterKey(KEY.lambdas, KEY.schedule_seed, mode), 2, layout)
            out = _scrambled(bits, sched)
            assert not np.array_equal(out, bits)
            assert np.array_equal(_scrambled(out, sched, inverse=True), bits)
            back = _scrambled(_scrambled(bits, sched, True), sched)
            assert np.array_equal(back, bits)

    def test_multiset_preserved_per_plane(self):
        # with stage 2 the identity, stage 1 only reorders (m, l) at each pixel
        rng = np.random.default_rng(7)
        bits = pack(random_images(rng, M=20), slice(None))
        sched = _with_identity_stage2(derive_schedule(KEY, 2, plan_layout(20, 8)))
        out = _scrambled(bits, sched)
        assert not np.array_equal(out, bits)
        assert np.array_equal(bits.sum(axis=(1, 4)), out.sum(axis=(1, 4)))

    def test_schedule_entry_localized(self):
        rng = np.random.default_rng(8)
        bits = pack(random_images(rng, M=20), slice(None))
        sched = _with_identity_stage2(derive_schedule(KEY, 2, plan_layout(20, 8)))
        x, y, t = 1, 1, 2
        rank, iters = sched.s1_part[x, y, t], sched.s1_iter[x, y, t]
        tables, at = oracles.iterated_tables(sched.plane_n, np.array([rank] * 16), np.arange(1, 17))
        table = tables[at]
        # an iteration count whose table differs from the scheduled one
        other = next(r for r in range(1, 17) if not np.array_equal(table[r - 1], table[iters - 1]))
        tweaked_iter = sched.s1_iter.copy()
        tweaked_iter[x, y, t] = other
        tweaked = KeySchedule(
            sched.plane_n, sched.pixel_n,
            sched.s1_part, tweaked_iter, sched.s2_part, sched.s2_iter,
        )
        a = _scrambled(bits, sched)
        b = _scrambled(bits, tweaked)
        differs = (a != b).any(axis=(1, 4))  # collapse (m, l) per (t, x, y)
        assert differs[t, x, y]
        differs[t, x, y] = False
        assert not differs.any()


class TestMove:
    """``cipher._move`` a slice of rows at a time, against one row at a time."""

    @staticmethod
    def _stage(n, lead, budget):
        """Stage tables of random keys at the positions ``lead``, and each
        position's table by the oracle, flattened."""
        rng = np.random.default_rng(len(lead) + budget)
        ranks = rng.integers(0, baker.count_admissible(n), lead)
        iters = rng.integers(1, MAX_ITERATIONS + 1, lead)
        want, at = oracles.iterated_tables(n, ranks, iters)
        return _StageTables(n, ranks, iters, budget), want[at.reshape(-1)]

    @staticmethod
    def _per_row(rows, tables, send):
        out = np.empty((len(tables), tables.shape[1]), dtype=rows.dtype)
        for i, (row, table) in enumerate(zip(rows.reshape(out.shape), tables)):
            if send:
                out[i][table] = row
            else:
                out[i] = row[table]
        return out.reshape(rows.shape)

    @pytest.mark.parametrize("budget", [0, 1 << 20], ids=["per_slice", "every_key"])
    @pytest.mark.parametrize("cells", [16, 48, 96, None])
    def test_matches_one_row_at_a_time(self, monkeypatch, budget, cells):
        # 4x4 rows (n=2) with leading axes (2, 3, 5): slices of 1 and 3 rows
        # split the last axis (3 + 2), slices of up to 6 rows take it whole
        # (5 rows), and the program's bound (None) takes all 30 at once.  Inputs:
        # rows as they lie, rows whose reshape(-1, 16) is a view with inner
        # strides (stage 2 fed a (t, x, y, m, l) array), and rows seen
        # through a transpose that no reshape flattens (stage 1's input)
        cells = cells or cipher._SLICE_CELLS
        monkeypatch.setattr(cipher, "_SLICE_CELLS", cells)
        rng = np.random.default_rng(cells)
        plain = rng.integers(0, 1 << 30, (2, 3, 5, 4, 4)).astype(np.int32)
        view = rng.integers(0, 256, (1, 4, 4, 3, 5)).astype(np.uint8).transpose(0, 3, 4, 1, 2)
        assert np.shares_memory(view.reshape(-1, 16), view) and not view.flags.c_contiguous
        strided = rng.integers(0, 256, (2, 4, 3, 5, 4)).astype(np.uint8).transpose(0, 2, 3, 1, 4)
        for rows in (plain, view, strided):
            stage, tables = self._stage(2, rows.shape[:-2], budget)
            assert (stage.whole is None) == (budget == 0)
            for send in (True, False):
                index = np.full(max(cells, 16), -1, dtype=np.intp)
                out = np.empty(rows.size, dtype=rows.dtype)
                moved = cipher._move(rows, stage, stage.keys, send, index, out)
                assert moved.shape == rows.shape and np.shares_memory(moved, out)
                assert np.array_equal(moved, self._per_row(rows, tables, send))


class TestDiffuse:
    def test_zero_keys_identity(self):
        rng = np.random.default_rng(9)
        bits = pack(random_images(rng), slice(None))
        keys = np.zeros((1, 8, 4, 4), dtype=np.uint8)
        assert np.array_equal(diffuse(bits, keys), bits)

    def test_involution(self):
        rng = np.random.default_rng(10)
        bits = pack(random_images(rng), slice(None))
        keys = rng.integers(0, 8, size=(1, 8, 4, 4)).astype(np.uint8)
        twice = diffuse(diffuse(bits, keys), keys)
        assert np.array_equal(twice, bits)

    def test_single_digit_flips_predicted_planes(self):
        bits = pack(ImageSet(0, 8, np.zeros((1, 1, 1), dtype=int)), slice(None))
        keys = np.zeros((1, 8, 1, 1), dtype=np.uint8)
        keys[0, 0, 0, 0] = 0b101  # digit bits cycle over the 8 planes
        out = diffuse(bits, keys)
        assert out[0, 0, 0, 0].tolist() == [1, 0, 1, 1, 0, 1, 1, 0]

    def test_layout_mismatch(self):
        rng = np.random.default_rng(11)
        bits = pack(random_images(rng), slice(None))
        with pytest.raises(ValueError):
            diffuse(bits, np.zeros((2, 8, 4, 4), dtype=np.uint8))

    def test_peak_memory_within_two_cubes(self):
        # 4096 images of 16x16: a 512-block, 8.4 MB cube
        bits = pack(ImageSet(4, 8, np.zeros((4096, 16, 16), dtype=np.uint8)), slice(None))
        keys = np.random.default_rng(12).integers(0, 8, size=(512, 8, 16, 16)).astype(np.uint8)
        tracemalloc.start()
        try:
            out = diffuse(bits, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.sum() > 0
        # the XOR's output and np.take's intp copy of the uint8 keys, each
        # one byte per cell at L=8, and under 1 kB of small objects
        assert peak <= 2 * bits.nbytes + 1024, peak


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
        assert np.array_equal(encrypt(s, KEY).payload, encrypt(s, KEY).payload)

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
        assert np.array_equal(loaded.payload, ct.payload)
        assert np.array_equal(decrypt(loaded, KEY).images, s.images)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("L", [2, 4, 16, 32, 64])
    def test_file_roundtrip_every_word_width(self, tmp_path, mode, L):
        rng = np.random.default_rng(L)
        s = ImageSet(1, L, rng.integers(0, 1 << L, size=(3, 2, 2), dtype=np.uint64))
        key = MasterKey(KEY.lambdas, KEY.schedule_seed, mode)
        ct = encrypt(s, key)
        path = tmp_path / "ct.bin"
        write_ciphertext(path, ct)
        loaded = read_ciphertext(path)
        assert np.array_equal(loaded.payload, ct.payload)
        assert np.array_equal(decrypt(loaded, key).images, s.images)

    @staticmethod
    def _traced_peaks(tmp_path, s, key):
        """Traced peaks of encrypt with the file write, and of the file read
        with decrypt; the roundtrip must be exact."""
        path = tmp_path / "ct.bin"
        tracemalloc.start()
        try:
            write_ciphertext(path, encrypt(s, key))
            encrypt_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = decrypt(read_ciphertext(path), key)
            decrypt_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.images, s.images)
        return encrypt_peak, decrypt_peak

    def test_bulk_peak_memory(self, tmp_path):
        # 4096 images of 16x16 in simplified mode, 1 MB of pixels and 1 MB
        # of ciphertext words: each direction traces at most 4 MB
        s = ImageSet(4, 8, np.random.default_rng(18).integers(0, 256, (4096, 16, 16), np.uint8))
        key = MasterKey(KEY.lambdas, KEY.schedule_seed, "simplified")
        peaks = self._traced_peaks(tmp_path, s, key)
        assert max(peaks) <= 4e6, peaks

    def test_read_holds_one_chunk_of_payload(self, tmp_path):
        # a 1 MB payload read once into its array: besides the payload, the
        # read holds one header block, not a second copy of the file
        s = ImageSet(4, 8, np.random.default_rng(18).integers(0, 256, (4096, 16, 16), np.uint8))
        path = tmp_path / "ct.bin"
        write_ciphertext(path, encrypt(s, MasterKey(KEY.lambdas, KEY.schedule_seed, "simplified")))
        tracemalloc.start()
        try:
            payload = read_ciphertext(path).payload.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload == 1 << 20 and peak <= payload + 5e5, peak

    def test_keyed_peak_memory(self, tmp_path):
        # 200 images of 32x32 in keyed mode: 32 blocks of 65,536 cells, each
        # with its own map and stage-2 tables, and 34,816 schedule draws;
        # each direction traces at most 4 MB
        s = ImageSet(5, 8, np.random.default_rng(19).integers(0, 256, (200, 32, 32), np.uint8))
        peaks = self._traced_peaks(tmp_path, s, KEY)
        assert max(peaks) <= 4e6, peaks

    def test_block_above_a_slice_peak_memory(self, tmp_path):
        # keyed n=7: one block of 2^20 cells, many slices.  Stage moves,
        # stage-2 table builds (16,384-cell rows) and schedule draws stay
        # within a slice, so each direction traces at most five bytes a
        # cell: a few one-byte arrays of the chunk's bits
        s = ImageSet(7, 8, np.random.default_rng(24).integers(0, 256, (8, 128, 128), np.uint8))
        assert cipher._SLICE_CELLS <= 1 << 15
        peaks = self._traced_peaks(tmp_path, s, KEY)
        assert max(peaks) <= 5 << 20, peaks

    def test_ciphertext_header_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a ciphertext")
        with pytest.raises(ValueError):
            read_ciphertext(path)

    def test_header_read_is_bounded(self, tmp_path):
        # a 1 MiB file with no separator is refused from its first block
        path = tmp_path / "long.bin"
        path.write_bytes(cipher.MAGIC + b"\n" + b"a" * (1 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="not a ciphertext"):
                read_ciphertext(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10, peak

    @pytest.mark.parametrize("bad", [
        lambda p: p[:-1],
        lambda p: p.astype(np.int16),
        lambda p: p.reshape(2, -1),
        lambda p: np.repeat(p, 2)[::2],
    ], ids=["byte_short", "int16", "2d", "strided"])
    def test_payload_checked_where_made(self, bad):
        ct = encrypt(random_images(np.random.default_rng(20)), KEY)
        with pytest.raises(ValueError, match="payload must be"):
            dataclasses.replace(ct, payload=bad(ct.payload))

    def test_roundtrip_keyed_n6(self):
        s = ImageSet(6, 8, (np.arange(4 * 64 * 64).reshape(4, 64, 64) * 7 + 3) % 256)
        ct = encrypt(s, KEY)
        assert not np.array_equal(ct.payload, oracles.cube_payload(oracles.cube_bits(s)))
        assert np.array_equal(decrypt(ct, KEY).images, s.images)

    @pytest.mark.parametrize("mode", MODES)
    def test_roundtrip_n8(self, mode):
        # the paper's 256x256 images, two blocks of 8: stage 2 draws n=8
        # ranks of up to 151 bits as Python ints in keyed mode
        s = ImageSet(8, 8, np.random.default_rng(23).integers(0, 256, (9, 256, 256), np.uint8))
        key = MasterKey(KEY.lambdas, KEY.schedule_seed, mode)
        ct = encrypt(s, key)
        assert not np.array_equal(ct.payload, oracles.cube_payload(oracles.cube_bits(s)))
        assert np.array_equal(decrypt(ct, key).images, s.images)


def _arithmetic_images(M, n):
    side = 1 << n
    return ImageSet(n, 8, (np.arange(M * side * side).reshape(M, side, side) * 37 + 11) % 256)


class TestBitIdentity:
    """SHA-256 of ciphertext files; format QBMI2 must not drift.  All six
    were recorded when the format became QBMI2 (one SHAKE-256 stream per
    schedule stage, key factors through ``math``), after the draw and digit
    oracles agreed with the program; the last two hold four chunks of blocks
    each."""

    @pytest.mark.parametrize("mode, n, M, digest", [
        ("non_simplified", 3, 5,
         "428ef45de54bfa9c083105d5d2aa3a6a8b9e70bd8510112c9cbe9e8947873e76"),
        ("non_simplified", 2, 12,
         "5a2d1836ca4abaa034453f2bd87993d90d16ca0787518dde17a1e06cf54e2862"),
        ("simplified", 3, 5,
         "d0ebb22deaafa1805d8943d5fec89ee5526c35fe8118332d10ee7154eae47897"),
        ("simplified", 4, 20,
         "34ad0de33b36345c144ddcb75800cf2299c699d7b93a49e448dbf6e5a6bd13d6"),
        ("non_simplified", 5, 20,
         "adaa764e49782e2e41a43bc93ebd3d3c45c11007d3575cc8ad05b919c005b7a8"),
        ("simplified", 4, 80,
         "decb91c63ce2284bc34fd4d93f5553ad7aac35e27e1c389bca46bca62fa8aa8b"),
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

    def test_header_L_past_64_refused(self, tmp_path, capsys):
        # L=65 needs 128 planes: a payload of the length that implies is
        # still refused, before any word is sized from L
        path, key = tmp_path / "ct.bin", tmp_path / "key.txt"
        write_key(key, KEY)
        header = "n = 1\nL = 65\nM = 1\nblocks = 1\nx0 = 0.5\nalpha = 0\nbeta = 0\n"
        payload = bytes(128 * 4 * 128 // 8)
        path.write_bytes(cipher.MAGIC + b"\n" + header.encode() + b"mode = simplified\n---\n"
                         + payload)
        with pytest.raises(ValueError, match="L=65 outside"):
            read_ciphertext(path)
        self._rejected(path, key, capsys)

    def test_retired_format_named(self, written, capsys):
        # a QBMI1 file is refused by its format's name, and decrypt writes
        # no image
        path, key = written
        path.write_bytes(b"QBMI1" + path.read_bytes()[len(cipher.MAGIC):])
        with pytest.raises(ValueError, match="format QBMI1, but this program reads QBMI2"):
            read_ciphertext(path)
        self._rejected(path, key, capsys)
        assert not (path.parent / "out").exists()

    @pytest.mark.parametrize("n", ["0", "16", "100000", "400000000", "10000000000"])
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


@settings(max_examples=100)
@given(st.binary(max_size=160))
def test_read_key_any_bytes(fuzz_file, data):
    fuzz_file.write_bytes(data)
    _check_key(fuzz_file)


@settings(max_examples=100)
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
    assert 1 <= ct.n <= baker.MAX_N and ct.mode in MODES
    layout = plan_layout(ct.M, ct.L)
    assert ct.payload.size == layout.block_count * layout.images_per_block**2 << 2 * ct.n >> 3
    write_ciphertext(fuzz_file, ct)
    again = read_ciphertext(fuzz_file)
    assert (again.n, again.L, again.M, again.x0, again.alpha, again.beta, again.mode) == (
        ct.n, ct.L, ct.M, ct.x0, ct.alpha, ct.beta, ct.mode)
    assert np.array_equal(again.payload, ct.payload)


_CT_TOKENS = st.sampled_from(
    [b"n", b"L", b"M", b"blocks", b"x0", b"alpha", b"beta", b"mode", b" = ", b"=",
     b"1", b"3", b"8", b"0.5", b"-1", b"nan", b"simplified", b"#", b"\n", b" ", b"\xff"]
)


@settings(max_examples=100)
@given(st.one_of(
    st.binary(max_size=160),
    st.tuples(st.lists(_CT_TOKENS, max_size=24), st.binary(max_size=40)).map(
        lambda t: cipher.MAGIC + b"\n" + b"".join(t[0]) + b"\n---\n" + t[1]
    ),
))
def test_read_ciphertext_any_bytes(fuzz_file, data):
    fuzz_file.write_bytes(data)
    _check_ciphertext(fuzz_file)


@settings(max_examples=100)
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
