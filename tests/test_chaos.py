import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker import chaos
from qbaker.chaos import ScmParams, chebyshev, generate_sequences, rank, scm_step

import oracles

APPENDIX_LAMBDAS = (49.0, 23.0, 58.0, 120.0, 237.0)
APPENDIX_INIT = (0.1, 0.5, 0.2, -0.8, 0.9)
GOLDEN = Path(__file__).parent / "data" / "chaos_trace_golden.csv"

# First two iterates from the 60-digit reference evaluator below, frozen.
MP_STEP1 = (
    0.24868988716485478824,
    -0.21200710992205464055,
    0.92977648588825140366,
    0.95105651629515357212,
    -0.80901699437494742410,
)
MP_STEP2 = (
    -0.96089654193033027397,
    0.65719966030320360941,
    0.94405843628004023669,
    0.71425285396955767292,
    -0.78628658437689202551,
)


def mp_reference(init_strs, lambdas, steps):
    """Independent high-precision evaluator for the wrapped map."""
    mp.mp.dps = 60
    a, b, c, d, e, f, g = (mp.mpf(v) for v in ("30", "10", "15.7", "5", "2.5", "4.45", "38.5"))
    state = tuple(mp.mpf(s) for s in init_strs)
    out = []
    for _ in range(steps):
        x1, x2, x3, x4, x5 = state
        phi = (
            a * (x2 - x1) + x2 * x3 * x4,
            b * (x1 + x2) + x5 - x1 * x3 * x4,
            -c * x2 - d * x3 - e * x4 + x1 * x2 * x4,
            -f * x4 + x1 * x2 * x3,
            -g * (x1 + x2),
        )
        state = tuple(mp.sin(mp.pi * lam * p) for lam, p in zip(lambdas, phi))
        out.append(tuple(float(v) for v in state))
    return out


class TestScmStep:
    def test_outputs_in_unit_interval(self):
        params = ScmParams(APPENDIX_LAMBDAS)
        state = APPENDIX_INIT
        for _ in range(500):
            state = scm_step(state, params)
            assert all(-1.0 <= v <= 1.0 for v in state)

    def test_zero_argument_component(self):
        # x2 == x1 and x2*x3*x4 == 0 make the first component sin(0) = 0
        params = ScmParams((7.0, 1.0, 1.0, 1.0, 1.0))
        nxt = scm_step((0.5, 0.5, 0.3, 0.0, 0.2), params)
        assert nxt[0] == 0.0

    def test_first_steps_match_high_precision_reference(self):
        ref = mp_reference(("0.1", "0.5", "0.2", "-0.8", "0.9"), APPENDIX_LAMBDAS, 2)
        assert ref[0] == pytest.approx(MP_STEP1, abs=1e-15)
        assert ref[1] == pytest.approx(MP_STEP2, abs=1e-12)
        params = ScmParams(APPENDIX_LAMBDAS)
        s1 = scm_step(APPENDIX_INIT, params)
        s2 = scm_step(s1, params)
        # sine of large arguments amplifies argument rounding; chaos makes
        # step 2 looser and anything much deeper incomparable
        assert s1 == pytest.approx(MP_STEP1, abs=1e-10)
        assert s2 == pytest.approx(MP_STEP2, abs=1e-6)

    def test_lambda_bound_enforced(self):
        with pytest.raises(ValueError):
            ScmParams((0.5, 1.0, 1.0, 1.0, 1.0))


class TestGoldenTrajectory:
    def test_reproduces_frozen_250_steps(self):
        rows = GOLDEN.read_text().strip().splitlines()[1:]
        assert len(rows) == 250
        params = ScmParams(APPENDIX_LAMBDAS)
        state = APPENDIX_INIT
        for row in rows:
            state = scm_step(state, params)
            want = tuple(float(v) for v in row.split(",")[1:])
            assert state == want  # bit-identical determinism

    def test_determinism(self):
        params = ScmParams(APPENDIX_LAMBDAS)
        a = oracles.trajectory(APPENDIX_INIT, params, 100)
        b = oracles.trajectory(APPENDIX_INIT, params, 100)
        assert a == b


class TestRank:
    def test_counting_oracle(self):
        assert rank((0.3, 0.1, 0.2)) == [2, 0, 1]

    def test_ascending_is_identity(self):
        assert rank((0.1, 0.2, 0.5, 0.9)) == [0, 1, 2, 3]

    def test_descending_reverses(self):
        assert rank((0.9, 0.5, 0.2, 0.1)) == [3, 2, 1, 0]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            rank((0.1, 0.1, 0.2))

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40, unique=True))
    def test_matches_counting_definition(self, values):
        got = rank(values)
        want = [sum(1 for other in values if other < v) for v in values]
        assert got == want
        assert sorted(got) == list(range(len(values)))


class TestChebyshev:
    def test_base_cases(self):
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert chebyshev(0, x) == 1.0
            assert chebyshev(1, x) == pytest.approx(x, abs=1e-15)

    def test_t2(self):
        assert chebyshev(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_trig_identity(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(0, math.pi, size=25):
            for k in range(51):
                assert chebyshev(k, math.cos(theta)) == pytest.approx(
                    math.cos(k * theta), abs=1e-9
                )

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            chebyshev(3, 1.5)
        with pytest.raises(ValueError):
            chebyshev(-1, 0.5)


class TestGenerateSequences:
    def test_appendix_instance(self):
        seqs = generate_sequences(
            APPENDIX_INIT, ScmParams(APPENDIX_LAMBDAS), (4, 4, 2, 2)
        )
        for values, ranks in (
            (seqs.xs, seqs.ns),
            (seqs.ys, seqs.ks),
            (seqs.zs, seqs.rs),
            (seqs.ts, seqs.ss),
        ):
            assert len(set(values)) == len(values)
            assert sorted(ranks) == list(range(len(values)))
            assert list(ranks) == rank(values)

    def test_burn_in_is_exactly_one_hundred(self):
        params = ScmParams(APPENDIX_LAMBDAS)
        seqs = generate_sequences(APPENDIX_INIT, params, (1, 1, 1, 1))
        state = APPENDIX_INIT
        for _ in range(101):
            state = scm_step(state, params)
        assert seqs.xs[0] == state[0]
        assert seqs.ys[0] == state[1]
        assert seqs.zs[0] == state[2]
        assert seqs.ts[0] == state[3]

    def test_seed_sensitivity_changes_ranks(self):
        params = ScmParams(APPENDIX_LAMBDAS)
        base = generate_sequences(APPENDIX_INIT, params, (8, 8, 4, 4))
        nudged_init = (0.1 + 1e-10, 0.5, 0.2, -0.8, 0.9)
        nudged = generate_sequences(nudged_init, params, (8, 8, 4, 4))
        assert (
            base.ns != nudged.ns
            or base.ks != nudged.ks
            or base.rs != nudged.rs
            or base.ss != nudged.ss
        )

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            generate_sequences(APPENDIX_INIT, ScmParams(APPENDIX_LAMBDAS), (0, 1, 1, 1))

    def test_degenerate_parameters_diagnosed(self, monkeypatch):
        # an exact fixed point at zero never yields distinct values
        monkeypatch.setattr(chaos, "MAX_STEPS", 2000)
        params = ScmParams((1.0, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(RuntimeError, match="2000 steps"):
            generate_sequences((0.0, 0.0, 0.0, 0.0, 0.0), params, (4, 4, 2, 2))
