import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import (EmptyAffinityError, Graph, UNREACHABLE, affinity,
                       all_pairs_distances, calibrate_row, composite_loss_and_grad,
                       joint_p, pairwise_sq_euclidean, studentt_q)

from conftest import finite_difference_grads, max_relative_error
from oracles import (calibrate_row_loop, joint_p_loop, joint_p_reference,
                     naive_sq_euclidean, whole_array_sq_euclidean)


def draw_distances(data, n):
    """A symmetric n x n matrix of tied integer, real and unreachable
    entries, with fully unreachable rows and an arbitrary diagonal."""
    entry = (st.integers(0, 6).map(float) | st.floats(0.0, 1e3)
             | st.just(UNREACHABLE))
    iu = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[iu] = data.draw(st.lists(entry, min_size=iu[0].size, max_size=iu[0].size))
    d += d.T
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=n)):
        d[i, :] = d[:, i] = UNREACHABLE  # a fully unreachable row
    d[np.diag_indices(n)] = data.draw(st.lists(st.floats(), min_size=n,
                                               max_size=n))
    return d


class TestRowBlocks:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 200), st.data())
    def test_slices_cover_each_row_once_in_order(self, n, data):
        block = data.draw(st.sampled_from([1, 3, n + 1]))
        with mock.patch.object(affinity, "_ROW_BLOCK", block):
            slices = list(affinity.row_blocks(n))
        assert all(type(rows) is slice and rows.step is None for rows in slices)
        assert all(0 < rows.stop - rows.start <= block for rows in slices)
        # each slice starts where the last stopped, the first at 0, the last stops at n
        bounds = [0] + [rows.stop for rows in slices]
        assert [rows.start for rows in slices] == bounds[:-1] and bounds[-1] == n


class TestPairwiseSqEuclidean:
    def test_identical_rows_zero(self):
        x = np.ones((4, 3))
        assert np.array_equal(pairwise_sq_euclidean(x), np.zeros((4, 4)))

    def test_three_four_five_triangle(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_sq_euclidean(x)
        assert d[0, 1] == pytest.approx(25.0, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(size=(40, 7))
        d = pairwise_sq_euclidean(x)
        assert np.abs(d - naive_sq_euclidean(x)).max() <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 9), st.integers(0, 2**32 - 1),
           st.sampled_from(["normal", "integer", "repeated", "scaled"]))
    def test_row_blocks_match_whole_array_bit_for_bit(self, n, dim, seed, kind):
        """n crosses the 64-row block boundaries; repeated rows and integer
        coordinates give exact zeros and ties."""
        rng = np.random.default_rng(seed)
        x = {"normal": lambda: rng.normal(size=(n, dim)),
             "integer": lambda: rng.integers(-3, 4, size=(n, dim)),
             "repeated": lambda: rng.normal(size=(3, dim))[rng.integers(0, 3, size=n)],
             "scaled": lambda: rng.normal(size=(n, dim)) * 10.0 ** rng.integers(
                 -150, 150, size=(n, 1))}[kind]()
        d = pairwise_sq_euclidean(x)
        assert d.tobytes() == whole_array_sq_euclidean(x).tobytes()
        assert np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0)

    def test_exactly_symmetric_zero_diagonal(self, rng):
        # at this size a general (not syrk) product of a strided or reversed
        # x can round d[i, j] and d[j, i] differently
        x = rng.normal(size=(70, 240))
        for layout in (x, np.asfortranarray(x), x[:, ::2], x[::-1],
                       rng.integers(-50, 50, size=(70, 240)), x > 0.0):
            d = pairwise_sq_euclidean(layout)
            assert np.array_equal(d, d.T)
            assert np.array_equal(np.diag(d), np.zeros(70))


class TestCalibrateRow:
    def test_uniform_row_perplexity_is_count(self):
        row = np.full(29, 3.7)
        res = calibrate_row(row, 29.0)
        assert np.allclose(res.conditional, 1.0 / 29)
        assert res.perplexity == pytest.approx(29.0, abs=1e-9)
        assert res.converged

    def test_random_row_hits_target(self, rng):
        row = rng.random(100) * 10
        res = calibrate_row(row, 30.0)
        # recompute the entropy of the returned vector independently
        p = res.conditional[res.conditional > 0]
        achieved = 2.0 ** (-np.sum(p * np.log2(p)))
        assert abs(achieved - 30.0) <= 1e-3

    def test_single_finite_entry_reports_bound_hit(self):
        row = np.array([2.0, UNREACHABLE, UNREACHABLE])
        res = calibrate_row(row, 30.0)
        assert np.array_equal(res.conditional, [1.0, 0.0, 0.0])
        assert res.perplexity == pytest.approx(1.0)
        assert res.bound_hit and not res.converged

    def test_all_unreachable_degenerate(self):
        res = calibrate_row(np.full(5, UNREACHABLE), 30.0)
        assert res.degenerate
        assert np.array_equal(res.conditional, np.zeros(5))

    def test_unreachable_entries_get_zero_probability(self):
        row = np.array([1.0, 2.0, UNREACHABLE, 3.0])
        res = calibrate_row(row, 2.0)
        assert res.conditional[2] == 0.0
        assert res.conditional.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            calibrate_row(np.array([1.0, -0.5]), 5.0)


class TestJointP:
    def test_two_points_forced_half(self):
        d = np.array([[0.0, 4.2], [4.2, 0.0]])
        aff = joint_p(d, 30.0)
        assert aff.p[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert aff.p[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_three_equidistant_sixths(self):
        d = np.full((3, 3), 2.0)
        np.fill_diagonal(d, 0.0)
        aff = joint_p(d, 2.0)
        off = aff.p[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0 / 6, atol=1e-12)

    def test_matches_independent_reference(self, rng):
        x = rng.normal(size=(20, 4))
        d = pairwise_sq_euclidean(x)
        mine = joint_p(d, 8.0).p
        ref = joint_p_reference(d, 8.0)
        assert np.abs(mine - ref).max() <= 1e-10

    def test_reference_match_with_unreachable_rows(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        d = pairwise_sq_euclidean(x)
        d[3, :] = UNREACHABLE
        d[:, 3] = UNREACHABLE
        d[3, 3] = 0.0
        mine = joint_p(d, 4.0)
        ref = joint_p_reference(d, 4.0)
        assert mine.n_degenerate == 1
        assert np.abs(mine.p - ref).max() <= 1e-10

    def test_sums_to_one(self, rng):
        d = pairwise_sq_euclidean(rng.normal(size=(25, 3)))
        assert joint_p(d, 10.0).p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self, rng):
        d = pairwise_sq_euclidean(rng.normal(size=(30, 4)))
        a = joint_p(d, 12.0).p
        b = joint_p(d * 37.5, 12.0).p
        assert np.abs(a - b).max() <= 1e-6

    def test_all_degenerate_raises(self):
        d = np.full((4, 4), UNREACHABLE)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(EmptyAffinityError):
            joint_p(d, 5.0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference_property(self, data):
        n = data.draw(st.integers(2, 12))
        d = draw_distances(data, n)
        perplexity = data.draw(st.floats(2.0, 8.0))
        off = np.where(np.eye(n, dtype=bool), UNREACHABLE, d)
        degenerate = int((~np.isfinite(off)).all(axis=1).sum())
        if degenerate == n:
            with pytest.raises(EmptyAffinityError):
                joint_p(d, perplexity)
            return
        aff = joint_p(d, perplexity)
        assert np.abs(aff.p - joint_p_reference(d, perplexity)).max() <= 1e-10
        assert np.array_equal(aff.p, aff.p.T)
        assert abs(aff.p.sum() - 1.0) <= 1e-12
        assert np.all(np.diag(aff.p) == 0.0) and np.all(aff.p >= 0.0)
        assert aff.n_degenerate == degenerate

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_lockstep_search_matches_row_loop(self, data):
        """Rows calibrated in blocks of any height find the sigmas and counts
        that one bisection per row finds, and its P up to summation order."""
        n = data.draw(st.integers(1, 12))
        d = draw_distances(data, n)
        perplexity = data.draw(st.floats(2.0, 8.0))
        block = data.draw(st.sampled_from([1, 3, n + 1]))
        expected = joint_p_loop(d, perplexity)
        given_bytes = d.tobytes()
        with mock.patch.object(affinity, "_ROW_BLOCK", block):
            if expected is None:
                with pytest.raises(EmptyAffinityError):
                    joint_p(d, perplexity)
                with pytest.raises(EmptyAffinityError):
                    affinity._joint_p_owned(d.copy(), perplexity)
            else:
                aff = joint_p(d, perplexity)
                owned = d.copy()
                in_place = affinity._joint_p_owned(owned, perplexity)
                p, sigmas, n_degenerate, n_converged, n_bound_hit = expected
                assert (aff.n_converged, aff.n_degenerate, aff.n_bound_hit) == (
                    n_converged, n_degenerate, n_bound_hit)
                np.testing.assert_allclose(aff.sigmas, sigmas, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(aff.p, p, rtol=1e-12, atol=0.0)
                # one kernel: the copy the public call makes changes no bit
                assert in_place.p is owned
                assert in_place.p.tobytes() == aff.p.tobytes()
                assert in_place.sigmas.tobytes() == aff.sigmas.tobytes()
                assert (in_place.n_converged, in_place.n_degenerate,
                        in_place.n_bound_hit) == (n_converged, n_degenerate, n_bound_hit)
        assert d.tobytes() == given_bytes  # the public joint_p never writes its input
        for i in range(n):
            row = d[i].copy()
            row[i] = UNREACHABLE
            res = calibrate_row(row, perplexity)
            sigma, conditional, perp, converged, bound_hit, degenerate = \
                calibrate_row_loop(row, perplexity)
            assert (res.converged, res.bound_hit, res.degenerate) == (
                converged, bound_hit, degenerate)
            np.testing.assert_allclose(res.sigma, sigma, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(res.conditional, conditional, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(res.perplexity, perp, rtol=1e-12, atol=0.0)
            # the reported perplexity is the one the search stopped on
            assert res.converged == (abs(res.perplexity - perplexity)
                                     <= affinity.PERPLEXITY_TOL)
            assert not res.degenerate or res.perplexity == 0.0

    def test_rows_reaching_fewer_nodes_than_the_perplexity_count_as_bound_hit(self):
        # a 40-node path and a 4-node path: at most 3 nodes are reachable from
        # the short path's rows, so their perplexity cannot reach 30
        edges = [(i, i + 1) for i in range(39)] + [(40, 41), (41, 42), (42, 43)]
        d = all_pairs_distances(Graph.from_edges(44, edges))
        with mock.patch.object(affinity, "_ROW_BLOCK", 16):  # rows 40-43 share a block
            aff = joint_p(d, 30.0)
        assert (aff.n_converged, aff.n_bound_hit, aff.n_degenerate) == (40, 4, 0)
        assert np.all(aff.sigmas[40:] > 0.1 * affinity.SIGMA_HI)  # searched up to the bound

    def test_input_matrix_freed_before_p_is_made(self):
        """The kernel the trainer calls makes P in the distance matrix it is
        handed, so no other N x N array is alive at once; the public joint_p
        adds only its copy of the input, which becomes P."""
        n = 1500
        x = np.random.default_rng(0).normal(size=(n, 16))
        for calibrate, arrays in ((affinity._joint_p_owned, 1), (joint_p, 2)):
            tracemalloc.start()
            try:
                calibrate(pairwise_sq_euclidean(x), 30.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # here the 64-row blocks of the calibration hold about 0.4 N^2
            assert peak < (arrays + 0.75) * n * n * 8, calibrate.__name__

    def test_asymmetric_input_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            joint_p(d, 5.0)

    @pytest.mark.parametrize("entry, value", [((100, 3), 1.0), ((3, 100), 1.0),
                                              ((100, 3), UNREACHABLE),
                                              ((3, 100), UNREACHABLE)])
    def test_asymmetry_across_row_blocks_rejected(self, rng, entry, value):
        """One entry of one triangle changed, its row and column in different
        64-row blocks: the check of either block finds it."""
        d = pairwise_sq_euclidean(rng.normal(size=(130, 3)))
        d[entry] += value
        for block in (affinity._ROW_BLOCK, 1, 3, 131):
            with mock.patch.object(affinity, "_ROW_BLOCK", block):
                with pytest.raises(ValueError, match="symmetric"):
                    joint_p(d, 10.0)
                with pytest.raises(ValueError, match="symmetric"):
                    affinity._joint_p_owned(d.copy(), 10.0)

    def test_symmetry_tolerance_is_measured_from_both_entries(self, rng):
        """allclose measures |a - b| against |b|: a pair within tolerance of
        one entry but not of the other is rejected in either triangle."""
        b = 1e-7
        a = b + (1e-12 + 1e-9 * b)  # about where b's tolerance ends
        while np.allclose(a, b, rtol=1e-9, atol=1e-12):
            a = np.nextafter(a, np.inf)
        assert np.allclose(b, a, rtol=1e-9, atol=1e-12)
        d = pairwise_sq_euclidean(rng.normal(size=(130, 3)))
        for i, j in ((100, 3), (3, 100)):
            asymmetric = d.copy()
            asymmetric[i, j], asymmetric[j, i] = a, b
            with pytest.raises(ValueError, match="symmetric"):
                joint_p(asymmetric, 10.0)

    def test_p_log_p_and_sum_made_once_over_row_blocks(self, rng):
        p = joint_p(pairwise_sq_euclidean(rng.normal(size=(150, 3))), 10.0).p
        pm = p[p > 0.0]
        for block in (affinity._ROW_BLOCK, 1, 3, 151):
            aff = affinity.AffinityMatrix(p=p, sigmas=np.full(150, np.nan))
            with mock.patch.object(affinity, "_ROW_BLOCK", block):
                h, total = aff.p_log_p_and_sum
            assert h == pytest.approx(float(np.sum(pm * np.log(pm))), rel=1e-12)
            assert total == pytest.approx(1.0, rel=1e-12)
            assert aff.p_log_p_and_sum is aff.p_log_p_and_sum
        zero = affinity.AffinityMatrix(p=np.zeros((3, 3)), sigmas=np.full(3, np.nan))
        assert zero.p_log_p_and_sum == (0.0, 0.0)


class TestStudenttQ:
    def test_two_points_half(self):
        q = studentt_q(np.array([[0.0, 0.0], [5.0, 1.0]]))
        assert q.q[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_equilateral_triangle_sixths(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        q = studentt_q(y)
        off = q.q[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0 / 6, atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        y = rng.normal(size=(25, 2))
        w = np.zeros((25, 25))
        for i in range(25):
            for j in range(25):
                if i != j:
                    diff = y[i] - y[j]
                    w[i, j] = 1.0 / (1.0 + np.dot(diff, diff))
        oracle = w / w.sum()
        assert np.abs(studentt_q(y).q - oracle).max() <= 1e-12

    def test_sums_to_one(self, rng):
        y = rng.normal(size=(40, 2))
        assert studentt_q(y).q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            studentt_q(np.array([[1.0, 2.0]]))


class TestKlLossAndGrad:
    def test_matched_distributions_zero(self):
        y = np.array([[0.0, 0.0], [3.0, 0.0]])
        p = studentt_q(y).q    # for 2 points q is 1/2 regardless of layout
        kl = composite_loss_and_grad(p, p, y, 1.0)
        assert kl.total == pytest.approx(0.0, abs=1e-12)
        assert np.abs(kl.grad).max() <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        y = rng.normal(size=(10, 2))
        d = pairwise_sq_euclidean(rng.normal(size=(10, 3)))
        p = joint_p(d, 4.0)
        grad = composite_loss_and_grad(p, p, y, 1.0).grad
        (fd,) = finite_difference_grads(
            lambda: composite_loss_and_grad(p, p, y, 1.0).total, [y])
        assert max_relative_error(grad, fd, floor=1e-8) <= 1e-6

    def test_attraction_when_p_exceeds_q(self):
        y = np.array([[-50.0, 0.0], [50.0, 0.0], [0.0, 1e6]])
        p = np.zeros((3, 3))
        p[0, 1] = p[1, 0] = 0.5   # want 0 and 1 together; far third point
        grad = composite_loss_and_grad(p, p, y, 1.0).grad
        assert grad[0, 0] < 0.0 < grad[1, 0]  # moving against grad pulls them closer

    def test_loss_nonnegative(self, rng):
        for trial in range(5):
            y = rng.normal(size=(15, 2))
            p = joint_p(pairwise_sq_euclidean(rng.normal(size=(15, 3))), 5.0)
            assert composite_loss_and_grad(p, p, y, 1.0).total >= 0.0
