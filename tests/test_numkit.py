import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from xgkn.errors import (
    EmptyInputError,
    NumericError,
    OptimizerStateError,
    ShapeError,
    StatisticsError,
)
from xgkn import numkit as nk
from xgkn.graphs import Rng

from oracles import (
    adam_per_tensor,
    batch_norm_chain,
    block_transpose,
    clip_min,
    exp,
    finite_difference_check,
    gather_rows,
    group_col_sums,
    log,
    negative_entropy_chain,
    segment_col_max_loop,
    sigmoid,
    spearman_closed_form,
    sqrt,
    symmetric_adjacency_chain,
    tsum,
)


class TestScatterRows:
    # segment ids come unordered and leave some segments empty; row scales
    # spread over 16 decades, so any change of summation order shows
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(0, 40), st.integers(1, 6), st.integers(1, 10),
           st.integers(0, 2**32 - 1))
    def test_byte_equal_to_add_at(self, rows, cols, num_segments, seed):
        rng = Rng(seed)
        seg = rng.integers(0, num_segments, size=rows)
        values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9, size=(rows, 1))
        want = np.zeros((num_segments, cols))
        np.add.at(want, seg, values)
        summed = nk.segment_sum_rows(nk.Tensor(values), seg, num_segments)
        assert summed.values.tobytes() == want.tobytes()
        # gather_rows's backward scatters the upstream rows by the same ids
        b = nk.Tensor(rng.normal(size=(num_segments, cols)), requires_grad=True)
        nk.backward(tsum(nk.mul(gather_rows(b, seg), nk.Tensor(values))))
        assert b.grad.tobytes() == want.tobytes()


class TestBackward:
    def test_linear_map_gradient_is_column_sums(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        x = nk.Tensor(np.ones((2, 1)), requires_grad=True)
        out = tsum(nk.Tensor(a) @ x)
        nk.backward(out)
        assert np.allclose(x.grad.reshape(-1), a.sum(axis=0))

    def test_square_at_three(self):
        x = nk.Tensor([[3.0]], requires_grad=True)
        nk.backward(nk.mul(x, x))
        assert x.grad.item() == pytest.approx(6.0)

    def test_chain_matmul_log_sum_matches_finite_differences(self):
        rng = Rng(5)
        a = nk.Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        b = nk.Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)

        def f():
            return tsum(log(a @ b))

        assert finite_difference_check(f, [a, b]) < 1e-4

    def test_non_scalar_output_rejected(self):
        x = nk.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            nk.backward(x)

    def test_repeated_backward_accumulates(self):
        x = nk.Tensor([[2.0]], requires_grad=True)
        out = nk.mul(x, x)
        nk.backward(out)
        nk.backward(out)
        assert x.grad.item() == pytest.approx(8.0)

    def test_grad_reuses_node_in_graph(self):
        # d/dx (x*x + x) = 2x + 1
        x = nk.Tensor([[4.0]], requires_grad=True)
        nk.backward(nk.add(nk.mul(x, x), x))
        assert x.grad.item() == pytest.approx(9.0)

    def test_only_leaves_keep_grad_and_accumulate(self):
        # d/dx sum(exp(x)^2) = 2 exp(2x), twice over two backward calls
        x = nk.Tensor([[0.5, -1.0]], requires_grad=True)
        mid = exp(x)
        out = tsum(mid * mid)
        nk.backward(out)
        nk.backward(out)
        assert mid.grad is None and out.grad is None
        assert np.allclose(x.grad, 4.0 * np.exp(2.0 * x.values))

    def test_non_finite_intermediate_gradient_raises(self):
        # the stop-gradient node hands its leaf a finite (zero) gradient, so
        # only the check on the intermediate gradient can catch the 1/0
        x = nk.Tensor([[0.0]], requires_grad=True)
        stopped = nk._op(x.values.copy(), (x,), lambda g: (np.zeros((1, 1)),))
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            nk.backward(log(stopped))


class TestOpGradients:
    def params_and_check(self, build, shapes, seed=0, tol=1e-4):
        rng = Rng(seed)
        params = [nk.Tensor(rng.random(s) + 0.5, requires_grad=True) for s in shapes]
        assert finite_difference_check(lambda: build(*params), params) < tol

    def test_div_broadcast(self):
        self.params_and_check(
            lambda a, b: tsum(nk.div(a, b)), [(3, 4), (3, 1)], seed=1)

    def test_sigmoid_exp_sqrt(self):
        self.params_and_check(
            lambda a: tsum(sqrt(exp(sigmoid(a)))), [(2, 3)], seed=2)

    def test_row_unit_normalize(self):
        weights = nk.Tensor(Rng(30).normal(size=(4, 3)))
        self.params_and_check(
            lambda a: tsum(nk.mul(nk.row_unit_normalize(a), weights)),
            [(4, 3)], seed=3)

    def test_row_unit_normalize_zero_row_guard(self):
        a = nk.Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
        out = nk.row_unit_normalize(a)
        assert np.allclose(out.values[0], 0.0)
        assert np.allclose(out.values[1], [0.6, 0.8])
        nk.backward(tsum(out))
        assert np.allclose(a.grad[0], 0.0)

    def test_gather_and_segment_sum(self):
        def build(a):
            picked = gather_rows(a, np.array([0, 2, 2]))
            summed = nk.segment_sum_rows(picked, np.array([0, 0, 1]), 2)
            return tsum(nk.mul(summed, summed))
        self.params_and_check(build, [(3, 2)], seed=4)

    def test_block_transpose(self):
        a = nk.Tensor(np.arange(8.0).reshape(4, 2))
        assert block_transpose(a).values.tolist() == [[0, 2], [1, 3], [4, 6], [5, 7]]
        weights = nk.Tensor(Rng(31).normal(size=(6, 3)))
        self.params_and_check(
            lambda a: tsum(nk.mul(block_transpose(a), weights)), [(6, 3)], seed=5)
        with pytest.raises(ShapeError):
            block_transpose(nk.Tensor(np.ones((5, 2))))

    def test_group_col_sums(self):
        # the oracle op that walk_horner_responses sums each filter's columns by
        a = nk.Tensor(np.arange(12.0).reshape(2, 6))
        assert group_col_sums(a, 3).values.tolist() == [[3, 12], [21, 30]]
        weights = nk.Tensor(Rng(32).normal(size=(3, 2)))
        self.params_and_check(
            lambda a: tsum(nk.mul(group_col_sums(a, 2), weights)), [(3, 4)], seed=6)
        with pytest.raises(ShapeError):
            group_col_sums(a, 4)

    def test_clip_min_blocks_gradient_below(self):
        a = nk.Tensor(np.array([[0.5, 2.0]]), requires_grad=True)
        nk.backward(tsum(clip_min(a, 1.0)))
        assert np.allclose(a.grad, [[0.0, 1.0]])

    def test_cross_entropy_matches_finite_differences(self):
        labels = np.array([0, 2, 1])
        self.params_and_check(
            lambda a: nk.cross_entropy(a, labels), [(3, 3)], seed=7)

    def test_cross_entropy_value(self):
        logits = nk.Tensor(np.zeros((2, 4)))
        loss = nk.cross_entropy(logits, np.array([1, 3]))
        assert loss.item() == pytest.approx(math.log(4.0))

    def test_segment_col_max_routes_gradient(self):
        a = nk.Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 7.0]]), requires_grad=True)
        out, argrow = nk.segment_col_max(a, np.array([0, 0, 1]), 2)
        assert np.allclose(out.values, [[3.0, 5.0], [0.0, 7.0]])
        assert argrow.tolist() == [[1, 0], [2, 2]]
        nk.backward(tsum(out))
        assert np.allclose(a.grad, [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def assert_bytes_equal(got, want) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def leaf(values) -> nk.Tensor:
    return nk.Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def pull(out: nk.Tensor, upstream: np.ndarray) -> None:
    """Backward from ``out`` under the cotangent ``upstream``."""
    nk.backward(tsum(out * nk.Tensor(upstream)))


class TestFusedOps:
    """Each fused op against the chain of autograd nodes it replaces
    (``tests/oracles.py``): forward values and every gradient byte for byte,
    and the gradients against central differences."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_symmetric_adjacency_equals_the_chain(self, num_filters, size, seed):
        rng = Rng(seed)
        logits = rng.normal(size=(num_filters * size, size)) * 10.0 ** rng.integers(-2, 2)
        upstream = rng.normal(size=logits.shape)
        got, want = leaf(logits), leaf(logits)
        out, ref = nk.symmetric_adjacency(got), symmetric_adjacency_chain(want)
        assert_bytes_equal(out.values, ref.values)
        pull(out, upstream)
        pull(ref, upstream)
        assert_bytes_equal(got.grad, want.grad)

    def test_symmetric_adjacency_gradients(self):
        weights = nk.Tensor(Rng(40).normal(size=(6, 3)))
        logits = leaf(Rng(41).normal(size=(6, 3)))
        assert finite_difference_check(
            lambda: tsum(nk.symmetric_adjacency(logits) * weights), [logits]) < 1e-6
        with pytest.raises(ShapeError):
            nk.symmetric_adjacency(leaf(np.ones((5, 2))))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.integers(1, 5),
           st.sampled_from(["global", "per_column"]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_negative_entropy_equals_the_chain(self, sizes, cols, norm_scope, row_local, seed):
        # segments of one row occur, and about a quarter of the responses
        # sit at or below eps (zeros, negatives), which the guard clamps
        rng = Rng(seed)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        values = rng.random((seg.size, cols)) * 10.0 ** rng.integers(-3, 3)
        values[rng.random(values.shape) < 0.15] = 0.0
        values[rng.random(values.shape) < 0.1] *= -1.0
        upstream = rng.normal(size=(len(sizes), cols))
        got, want = leaf(values), leaf(values)
        z, contributions = nk.negative_entropy(got, seg, len(sizes), 1e-8, norm_scope, row_local)
        ref, ref_contributions = negative_entropy_chain(want, seg, len(sizes), 1e-8,
                                                        norm_scope, row_local)
        assert_bytes_equal(z.values, ref.values)
        assert_bytes_equal(contributions, ref_contributions)
        pull(z, upstream)
        pull(ref, upstream)
        assert_bytes_equal(got.grad, want.grad)

    @pytest.mark.parametrize("norm_scope", ["global", "per_column"])
    @pytest.mark.parametrize("row_local", [False, True])
    def test_negative_entropy_gradients(self, norm_scope, row_local):
        seg = np.array([0, 0, 0, 1, 2, 2])
        r = leaf(Rng(42).random((6, 3)) + 0.1)
        weights = nk.Tensor(Rng(43).normal(size=(3, 3)))
        assert finite_difference_check(lambda: tsum(nk.negative_entropy(
            r, seg, 3, 1e-8, norm_scope, row_local)[0] * weights), [r]) < 1e-5

    def test_negative_entropy_guard_blocks_the_gradient(self):
        # responses at or below eps are clamped and get no gradient
        r = leaf([[0.0, 2.0], [-1.0, 1.0], [3.0, 1e-9]])
        nk.backward(tsum(nk.negative_entropy(r, np.zeros(3, np.int64), 1, 1e-8)[0]))
        assert (r.grad[[0, 1, 2], [0, 0, 1]] == 0.0).all()
        assert (r.grad[[0, 1, 2], [1, 1, 0]] != 0.0).all()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_batch_norm_equals_the_chain(self, rows, cols, seed):
        rng = Rng(seed)
        z = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 3) + rng.normal(size=(1, cols))
        gamma, beta = rng.normal(size=(1, cols)), rng.normal(size=(1, cols))
        upstream = rng.normal(size=(rows, cols))
        got, want = [leaf(z), leaf(gamma), leaf(beta)], [leaf(z), leaf(gamma), leaf(beta)]
        out, mean, var = nk.batch_norm(*got, 1e-5)
        ref, ref_mean, ref_var = batch_norm_chain(*want, 1e-5)
        for a, b in ((out.values, ref.values), (mean, ref_mean), (var, ref_var)):
            assert_bytes_equal(a, b)
        pull(out, upstream)
        pull(ref, upstream)
        for a, b in zip(got, want):
            assert_bytes_equal(a.grad, b.grad)

    def test_batch_norm_gradients(self):
        params = [leaf(Rng(44).normal(size=s)) for s in ((7, 3), (1, 3), (1, 3))]
        weights = nk.Tensor(Rng(45).normal(size=(7, 3)))
        assert finite_difference_check(
            lambda: tsum(nk.batch_norm(*params, 1e-5)[0] * weights), params) < 1e-5


class TestSegmentColMax:
    # few distinct values (signed zeros and -inf among them), so columns tie
    # within a segment; segment ids come unordered, some segments get one
    # row and some none
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_byte_equal_to_the_loop(self, rows, cols, num_segments, seed):
        rng = Rng(seed)
        palette = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0])
        values = palette[rng.integers(0, palette.size, size=(rows, cols))]
        seg = rng.integers(0, num_segments, size=rows)
        upstream = rng.normal(size=(num_segments, cols))
        a = nk.Tensor(values, requires_grad=True)
        out, argrow = nk.segment_col_max(a, seg, num_segments)
        with np.errstate(invalid="ignore"):  # the loss sums -inf maxima of both signs
            nk.backward(tsum(out * nk.Tensor(upstream)))
        maxima, want_rows, grad, _ = segment_col_max_loop(values, seg, num_segments, upstream)
        for got, want in ((out.values, maxima), (argrow, want_rows), (a.grad, grad)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_empty_segments_hold_minus_inf_at_row_zero(self):
        out, argrow = nk.segment_col_max(nk.Tensor(np.array([[1.0, -2.0]])), np.array([2]), 4)
        assert out.values.tolist() == [[-np.inf, -np.inf]] * 2 + [[1.0, -2.0]] + [[-np.inf, -np.inf]]
        assert argrow.tolist() == [[0, 0]] * 4


class TestRowMatmul:
    SHAPES = [(n, k, o) for n in (1, 2, 7, 60, 130) for k, o in ((8, 2), (8, 1), (16, 3))]

    @pytest.mark.parametrize("n,k,o", SHAPES)
    def test_close_to_matmul(self, n, k, o):
        rng = Rng(n * 100 + k * 10 + o)
        a, b = rng.normal(size=(n, k)), rng.normal(size=(k, o))
        got = nk.row_matmul(nk.Tensor(a), nk.Tensor(b)).values
        want = a @ b
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("n,k,o", SHAPES)
    def test_each_row_equals_the_row_alone(self, n, k, o):
        rng = Rng(n * 100 + k * 10 + o + 1)
        a, b = rng.normal(size=(n, k)), nk.Tensor(rng.normal(size=(k, o)))
        batch = nk.row_matmul(nk.Tensor(a), b).values
        for i in range(n):
            assert np.array_equal(batch[i], nk.row_matmul(nk.Tensor(a[i]), b).values[0])

    def test_gradients_match_finite_differences(self):
        weights = nk.Tensor(Rng(32).normal(size=(4, 2)))
        params = [nk.Tensor(Rng(33).normal(size=s), requires_grad=True)
                  for s in ((4, 3), (3, 2))]
        assert finite_difference_check(
            lambda: tsum(nk.mul(nk.row_matmul(*params), weights)), params) < 1e-4

    def test_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            nk.row_matmul(nk.Tensor(np.ones((2, 3))), nk.Tensor(np.ones((2, 3))))


class TestAdam:
    def test_zero_gradient_no_decay_keeps_params(self):
        p = nk.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        state = nk.adam_init([p], lr=0.01, weight_decay=0.0)
        p.grad = np.zeros_like(p.values)
        before = p.values.copy()
        nk.adam_step([p], state)
        assert np.array_equal(p.values, before)

    def test_first_step_displacement_is_learning_rate(self):
        # closed-form first Adam step with g = 1: bias-corrected update = lr
        p = nk.Tensor([[0.0]], requires_grad=True)
        state = nk.adam_init([p], lr=0.01)
        p.grad = np.array([[1.0]])
        nk.adam_step([p], state)
        assert p.values.item() == pytest.approx(-0.01, rel=1e-6)

    def test_converges_on_quadratic(self):
        p = nk.Tensor([[3.0]], requires_grad=True)
        state = nk.adam_init([p], lr=0.01)
        for _ in range(500):
            diff = nk.sub(p, nk.Tensor([[2.0]]))
            loss = nk.mul(diff, diff)
            nk.backward(loss)
            nk.adam_step([p], state)
        assert abs(p.values.item() - 2.0) < 0.05

    def test_missing_grad_raises(self):
        p = nk.Tensor([[1.0]], requires_grad=True)
        state = nk.adam_init([p])
        with pytest.raises(OptimizerStateError):
            nk.adam_step([p], state)

    def test_lr_zero_wd_zero_is_identity(self):
        p = nk.Tensor(np.array([[3.0, -1.0]]), requires_grad=True)
        state = nk.adam_init([p], lr=0.0, weight_decay=0.0)
        before = p.values.copy()
        p.grad = np.array([[5.0, 5.0]])
        nk.adam_step([p], state)
        assert np.array_equal(p.values, before)

    def test_grads_zeroed_after_step(self):
        p = nk.Tensor([[1.0]], requires_grad=True)
        state = nk.adam_init([p])
        p.grad = np.array([[1.0]])
        nk.adam_step([p], state)
        assert p.grad is None

    def test_flat_buffer_equals_the_per_tensor_loop(self):
        # five steps over tensors of several shapes, gradients over seven
        # decades, against the loop over the tensors that the flat buffer
        # replaces
        rng = Rng(46)
        shapes = ((3, 4), (1, 4), (5, 2), (1, 1))
        start = [rng.normal(size=s) for s in shapes]
        flat, looped = [leaf(v) for v in start], [leaf(v) for v in start]
        state = nk.adam_init(flat, lr=0.05, weight_decay=1e-3)
        assert all(p.values.base is state.flat for p in flat)
        moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
        for step in range(1, 6):
            for p, q in zip(flat, looped):
                p.grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3)
                q.grad = p.grad.copy()
            nk.adam_step(flat, state)
            adam_per_tensor(looped, moments, step, lr=0.05, weight_decay=1e-3)
            for p, q in zip(flat, looped):
                assert_bytes_equal(p.values, q.values)
                assert p.grad is None
        assert_bytes_equal(state.m, np.concatenate([m.ravel() for m, _ in moments]))

    def test_replaced_values_are_refused(self):
        p = nk.Tensor([[1.0, 2.0]], requires_grad=True)
        state = nk.adam_init([p])
        p.values = np.array([[3.0, 4.0]])
        p.grad = np.ones((1, 2))
        with pytest.raises(OptimizerStateError, match="adam_init"):
            nk.adam_step([p], state)


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        assert np.allclose(nk.softmax(np.zeros(4)), 0.25)

    def test_closed_form(self):
        out = nk.softmax(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        v = np.array([0.3, -1.2, 4.0, 0.0])
        assert np.allclose(nk.softmax(v), nk.softmax(v + 123.4), atol=1e-12)

    def test_sums_to_one(self):
        v = Rng(3).normal(size=50)
        assert abs(nk.softmax(v).sum() - 1.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            nk.softmax(np.array([]))


class TestSpearman:
    def test_monotone_identity(self):
        x = np.array([3.0, 1.0, 7.0, 2.0])
        assert nk.spearman_abs(x, x) == pytest.approx(1.0)

    def test_reversed_is_one_in_absolute(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert nk.spearman_abs(x, x[::-1]) == pytest.approx(1.0)

    def test_fixture_matches_rank_formula_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [3.0, 1.0, 4.0, 5.0, 2.0]
        expected = abs(spearman_closed_form(x, y))
        assert nk.spearman_abs(x, y) == pytest.approx(expected)
        # frozen from the oracle: d^2 sums to 16, so 1 - 96/120 = 0.2
        assert nk.spearman_abs(x, y) == pytest.approx(0.2)

    def test_random_fixtures_match_oracle(self):
        rng = Rng(17)
        for trial in range(20):
            x = rng.permutation(8).astype(float)
            y = rng.permutation(8).astype(float)
            assert nk.spearman_abs(x, y) == pytest.approx(
                abs(spearman_closed_form(x, y)), abs=1e-12)

    def test_constant_vector_returns_zero(self):
        assert nk.spearman_abs([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_symmetry_and_monotone_invariance(self):
        rng = Rng(19)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert nk.spearman_abs(x, y) == pytest.approx(nk.spearman_abs(y, x))
        assert nk.spearman_abs(np.exp(x), y) == pytest.approx(nk.spearman_abs(x, y))

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nk.spearman_abs([1.0, 2.0], [1.0, 2.0, 3.0])


class TestWelch:
    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0, 4.0]
        res = nk.welch_ttest(a, list(a))
        assert res.t == pytest.approx(0.0)
        assert res.p_value == pytest.approx(1.0)
        assert not res.significant

    def test_textbook_fixture(self):
        # hand-computed: equal variances 2.5, se = 1, t = -1, Satterthwaite df = 8
        res = nk.welch_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0])
        assert res.t == pytest.approx(-1.0)
        assert res.df == pytest.approx(8.0)
        assert res.p_value == pytest.approx(0.3466, abs=2e-4)

    def test_large_shift_is_significant(self):
        rng = Rng(23)
        a = rng.normal(size=10)
        res = nk.welch_ttest(a, a + 10.0)
        assert res.p_value < 0.001
        assert res.significant

    def test_matches_scipy_on_random_samples(self):
        rng = Rng(29)
        pairs = []
        for trial in range(20):
            a = rng.normal(size=int(rng.integers(3, 15)))
            b = rng.normal(loc=rng.random(), size=int(rng.integers(3, 15)))
            pairs.append((a, b))
        # extreme corners of the t tail: |t| = 50 at df ~ 1.47, |t| = 1e-3 at
        # df = 18, and |t| ~ 24 at df = 26 (p ~ 3e-19)
        shift = 0.25 + 50.0 * math.sqrt(0.3125)
        pairs.append(([0.0, 1.0], [shift, shift + 0.5]))
        a = rng.normal(size=10)
        pairs.append((a, a + 1e-3 * math.sqrt(2.0 * a.var(ddof=1) / 10)))
        a = rng.normal(size=14)
        pairs.append((a, a + 10.0))
        for a, b in pairs:
            ours = nk.welch_ttest(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert ours.t == pytest.approx(ref.statistic, abs=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_degenerate_samples_raise(self):
        with pytest.raises(StatisticsError):
            nk.welch_ttest([1.0, 1.0], [2.0, 2.0])
        with pytest.raises(StatisticsError):
            nk.welch_ttest([1.0], [2.0, 3.0])
