"""Stage partitioning, serial/parallel index maps and known-symbol windows."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsic import sic


class TestKappa:
    def test_first_stage_first_symbol(self):
        assert sic.kappa(1, 1, 3) == 1

    def test_first_stage_row(self):
        assert [sic.kappa(1, t, 3) for t in range(1, 6)] == [1, 4, 7, 10, 13]

    def test_last_entry_of_grid(self):
        assert sic.kappa(3, 5, 3) == 15

    def test_out_of_range_stage(self):
        with pytest.raises(ValueError):
            sic.kappa(0, 1, 3)
        with pytest.raises(ValueError):
            sic.kappa(4, 1, 3)
        with pytest.raises(ValueError):
            sic.kappa(1, 0, 3)


class TestPartition:
    def test_single_stage_identity(self):
        x = np.arange(10)
        (v1,) = sic.partition(x, 1)
        assert np.array_equal(v1, x)

    def test_three_stages_grid(self):
        x = np.arange(1, 16)
        v = sic.partition(x, 3)
        assert np.array_equal(v[0], [1, 4, 7, 10, 13])
        assert np.array_equal(v[1], [2, 5, 8, 11, 14])
        assert np.array_equal(v[2], [3, 6, 9, 12, 15])

    def test_one_symbol_per_stage(self):
        x = np.arange(6)
        v = sic.partition(x, 6)
        assert all(len(row) == 1 for row in v)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            sic.partition(np.arange(10), 3)
        with pytest.raises(ValueError):
            sic.SicPlan(3, 10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_partition_interleave_roundtrip(self, s, per_stage, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=s * per_stage)
        assert np.array_equal(sic.interleave(sic.partition(x, s)), x)

    def test_partition_matches_kappa(self):
        x = np.arange(100.0)
        s_total = 5
        v = sic.partition(x, s_total)
        for s in range(1, s_total + 1):
            for t in range(1, len(v[s - 1]) + 1):
                assert v[s - 1][t - 1] == x[sic.kappa(s, t, s_total) - 1]


def brute_force_window(known_idx, known_val, target, l_ic):
    """Independent oracle: minimize the summed distance over all subsets of
    size l_ic, breaking ties toward the lexicographically smallest sorted
    serial-index tuple; report values ascending by serial index."""
    if len(known_idx) == 0:
        return np.zeros(l_ic)
    take = min(l_ic, len(known_idx))
    best = min(
        itertools.combinations(range(len(known_idx)), take),
        key=lambda c: (sum(abs(known_idx[i] - target) for i in c),
                       tuple(sorted(known_idx[i] for i in c))),
    )
    order = sorted(best, key=lambda i: known_idx[i])
    vals = [known_val[i] for i in order]
    return np.concatenate([np.zeros(l_ic - take), vals])


def ic_window(j, t, view, l_ic):
    """Values of the decided symbols ic_window_indices picks in the view's
    first block, with 0 in a zero-filled slot."""
    slots = sic.ic_window_indices(j, t, view.plan, view.known_idx, l_ic)
    return np.append(view.known_val[0], 0.0)[slots]


class TestIcWindow:
    def make_view(self, s, n_stages, n):
        plan = sic.SicPlan(n_stages, n)
        x = np.arange(1.0, n + 1.0)  # value == serial index + 1, easy to read
        return sic.stage_view(plan, s, x[None])

    def test_stage_one_all_zeros(self):
        view = self.make_view(1, 3, 12)
        assert np.array_equal(ic_window(1, 2, view, 6), np.zeros(6))
        assert np.array_equal(sic.ic_window_indices(1, 2, view.plan,
                                                    view.known_idx, 6),
                              np.full(6, -1))

    def test_l_ic_zero_empty(self):
        view = self.make_view(2, 3, 12)
        assert len(ic_window(2, 1, view, 0)) == 0

    def test_two_stage_example(self):
        # S=2, s=2: known serial (1-based) {1,3,5,...}; target kappa(2,3)=6
        view = self.make_view(2, 2, 16)
        assert np.array_equal(ic_window(2, 3, view, 2), [5.0, 7.0])
        # serial 0-based 4 and 6 are the third and fourth decided symbols
        assert np.array_equal(
            sic.ic_window_indices(2, 3, view.plan, view.known_idx, 2), [2, 3])

    def test_against_brute_force(self):
        rng = np.random.default_rng(77)
        for n_stages in (2, 3, 4):
            n = n_stages * 6
            for s in range(2, n_stages + 1):
                view = self.make_view(s, n_stages, n)
                for _ in range(20):
                    j = int(rng.integers(s, n_stages + 1))
                    t = int(rng.integers(1, n // n_stages + 1))
                    l_ic = int(rng.integers(1, 9))
                    got = ic_window(j, t, view, l_ic)
                    want = brute_force_window(view.known_idx, view.known_val[0],
                                              sic.kappa(j, t, n_stages) - 1, l_ic)
                    assert np.array_equal(got, want), (j, t, l_ic)

    def test_tie_breaks_toward_smaller_serial(self):
        # known at serial 0-based {2, 6}, target 4: both at distance 2
        plan = sic.SicPlan(4, 8)
        view = sic.StageView(plan=plan, s=3, known_idx=np.array([2, 6]),
                             known_val=np.array([[20.0, 60.0]]))
        assert np.array_equal(ic_window(1, 2, view, 1), [20.0])

    def test_deterministic(self):
        view = self.make_view(3, 3, 18)
        a = ic_window(3, 4, view, 5)
        b = ic_window(3, 4, view, 5)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 8), st.integers(1, 6), st.integers(1, 8))
    def test_window_nesting(self, n_stages, per_stage, t, l_ic):
        n = n_stages * per_stage
        view = self.make_view(n_stages, n_stages, n)
        t = min(t, per_stage)
        small = ic_window(n_stages, t, view, l_ic)
        large = ic_window(n_stages, t, view, l_ic + 2)
        small = small[small != 0.0]
        large = list(large[large != 0.0])
        # existing entries appear in the larger window, in the same order
        it = iter(large)
        assert all(v in it for v in small)


class TestStageView:
    def test_known_positions_are_earlier_stages(self):
        plan = sic.SicPlan(3, 15)
        x = np.arange(30.0).reshape(2, 15)
        view = sic.stage_view(plan, 3, x)
        expect = sorted(set(range(0, 15, 3)) | set(range(1, 15, 3)))
        assert np.array_equal(view.known_idx, expect)
        assert np.array_equal(plan.known_positions(3), expect)
        assert np.array_equal(view.known_val, x[:, expect])
        assert not set(view.known_idx) & set(view.targets)

    def test_targets(self):
        plan = sic.SicPlan(2, 8)
        view = sic.stage_view(plan, 2, np.arange(8.0)[None])
        assert np.array_equal(view.targets, [1, 3, 5, 7])

    def test_stage_one_has_no_knowns(self):
        plan = sic.SicPlan(4, 8)
        view = sic.stage_view(plan, 1, np.arange(24.0).reshape(3, 8))
        assert len(view.known_idx) == 0
        assert view.known_val.shape == (3, 0)

    def test_rejects_blocks_of_another_length_or_stage(self):
        plan = sic.SicPlan(2, 8)
        with pytest.raises(ValueError):
            sic.stage_view(plan, 2, np.zeros((3, 6)))
        with pytest.raises(ValueError):
            sic.stage_view(plan, 2, np.zeros(8))
        with pytest.raises(ValueError):
            sic.stage_view(plan, 3, np.zeros((3, 8)))

    def test_observations_must_match_the_blocks(self):
        view = sic.stage_view(sic.SicPlan(2, 8), 2, np.zeros((3, 8)))
        assert view.observations(np.ones((3, 16)), 2).dtype == np.float64
        for shape in ((2, 16), (3, 8), (48,)):
            with pytest.raises(ValueError):
                view.observations(np.ones(shape), 2)
