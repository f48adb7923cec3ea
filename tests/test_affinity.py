import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import (EmptyAffinityError, UNREACHABLE, calibrate_row,
                       composite_loss_and_grad, joint_p, pairwise_sq_euclidean,
                       studentt_q)

from conftest import finite_difference_grads, max_relative_error
from oracles import joint_p_reference, naive_sq_euclidean


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

    def test_exactly_symmetric_zero_diagonal(self, rng):
        x = rng.normal(size=(30, 5))
        d = pairwise_sq_euclidean(x)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(30))


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

    def test_asymmetric_input_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            joint_p(d, 5.0)


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
