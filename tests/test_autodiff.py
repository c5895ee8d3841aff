import gc
import itertools
import weakref

import numpy as np
import pytest

from stilab import autodiff as ad
from stilab.autodiff import (
    AutodiffError,
    NonScalarOutputError,
    ParameterStore,
    ShapeMismatchError,
    Tape,
    finite_difference_check,
    parameter_gradients,
)


def grad_of(build):
    """Build a scalar graph on a fresh tape; return (tape grads, leaves dict)."""
    tape = Tape()
    loss, leaves = build(tape)
    return tape.backward(loss), leaves


class TestPrimitiveBackwardRules:
    def test_relu_subgradient(self):
        grads, leaves = grad_of(
            lambda tape: (ad.sum_reduce(ad.relu(tape.leaf(np.array([2.0, -2.0])))), None)
        )
        (only,) = [g for tid, g in grads.items()]
        assert np.array_equal(only, [1.0, 0.0])

    def test_relu_turns_negative_zero_positive_and_passes_nan(self):
        tape = Tape()
        x = tape.leaf(np.array([-0.0, 0.0, -1.0, 2.0, np.nan]))
        y = ad.relu(x)
        assert np.array_equal(y.data[:4], [0.0, 0.0, 0.0, 2.0])
        assert not np.signbit(y.data[:4]).any()
        assert np.isnan(y.data[4])
        grad = tape.backward(ad.sum_reduce(ad.mul(y, tape.constant(np.ones(5)))))[x.tid]
        assert np.array_equal(grad, [0.0, 0.0, 0.0, 1.0, 0.0])

    def test_softmax_backward_analytic_jacobian(self):
        # oracle: ds_i = s_i (delta_ij - s_j) contracted with upstream (1, 0)
        tape = Tape()
        x = tape.leaf(np.array([0.0, 0.0]))
        s = ad.softmax(x, axis=0)
        loss = ad.sum_reduce(ad.mul(s, tape.constant(np.array([1.0, 0.0]))))
        grads = tape.backward(loss)
        s_val = np.array([0.5, 0.5])
        upstream = np.array([1.0, 0.0])
        oracle = s_val * (upstream - np.sum(upstream * s_val))
        assert np.allclose(grads[x.tid], oracle, atol=1e-15)
        assert np.allclose(grads[x.tid], [0.25, -0.25], atol=1e-15)

    def test_l2_normalize_gradient_orthogonal_to_input(self):
        rng = np.random.default_rng(0)
        x_val = rng.standard_normal(6)
        x_val /= np.linalg.norm(x_val)
        upstream = rng.standard_normal(6)
        upstream -= upstream @ x_val * x_val  # orthogonal component only
        tape = Tape()
        x = tape.leaf(x_val)
        loss = ad.sum_reduce(ad.mul(ad.l2_normalize(x, axis=0), tape.constant(upstream)))
        grads = tape.backward(loss)
        assert abs(grads[x.tid] @ x_val) < 1e-12

    def test_max_reduce_routes_ties_to_smallest_index(self):
        tape = Tape()
        x = tape.leaf(np.array([3.0, 3.0, 1.0]))
        loss = ad.max_reduce(x, axis=0)
        grads = tape.backward(loss)
        assert np.array_equal(grads[x.tid], [1.0, 0.0, 0.0])

    def test_max_reduce_routes_to_argmax(self):
        tape = Tape()
        x = tape.leaf(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 7.0]]))
        loss = ad.sum_reduce(ad.max_reduce(x, axis=1))
        grads = tape.backward(loss)
        assert np.array_equal(grads[x.tid], [[0, 1, 0], [1, 0, 0]])

    def test_max_reduce_records_its_public_name(self):
        tape = Tape()
        ad.max_reduce(tape.leaf(np.ones((2, 3))), axis=1)
        assert [rec.op for rec in tape.records] == ["max_reduce"]

    def test_clip_gradient_masks_outside(self):
        tape = Tape()
        x = tape.leaf(np.array([-2.0, 0.5, 2.0]))
        loss = ad.sum_reduce(ad.clip(x, -1.0, 1.0))
        grads = tape.backward(loss)
        assert np.array_equal(grads[x.tid], [0.0, 1.0, 0.0])


class TestBackwardStructure:
    def test_sum_of_linear_map_has_rank_one_gradient(self):
        # f = sum(x . W) for a row x: dW = outer(x, ones), from the hand formula
        rng = np.random.default_rng(1)
        x_val = rng.standard_normal(4)
        tape = Tape()
        w = tape.leaf(rng.standard_normal((4, 3)))
        loss = ad.sum_reduce(ad.matmul(tape.constant(x_val[None, :]), w))
        grads = tape.backward(loss)
        assert np.allclose(grads[w.tid], np.outer(x_val, np.ones(3)), atol=1e-15)
        assert np.linalg.matrix_rank(grads[w.tid]) == 1

    def test_constant_output_gives_all_zero_parameter_gradients(self):
        store = ParameterStore()
        store.register("w", np.ones((2, 2)))
        tape = Tape()
        store.leaves(tape)
        loss = ad.sum_reduce(tape.constant(np.ones(3)))
        grads = parameter_gradients(loss, store)
        assert np.array_equal(grads["w"], np.zeros((2, 2)))

    def test_disconnected_parameter_gets_exact_zero(self):
        store = ParameterStore()
        store.register("used", np.array([1.0, 2.0]))
        store.register("unused", np.array([[3.0]]))
        tape = Tape()
        leaves = store.leaves(tape)
        loss = ad.sum_reduce(ad.mul(leaves["used"], leaves["used"]))
        grads = parameter_gradients(loss, store)
        assert np.array_equal(grads["used"], [2.0, 4.0])
        assert np.array_equal(grads["unused"], [[0.0]])

    def test_backward_linearity(self):
        rng = np.random.default_rng(2)
        x_val = rng.standard_normal(5)
        a, b = 2.5, -1.25

        def build(combine):
            tape = Tape()
            x = tape.leaf(x_val)
            f = ad.sum_reduce(ad.mul(x, x))
            g = ad.sum_reduce(ad.exp(x))
            loss = combine(f, g)
            return tape.backward(loss)[x.tid]

        combined = build(lambda f, g: ad.add(ad.mul(f, a), ad.mul(g, b)))
        separate = a * build(lambda f, g: f) + b * build(lambda f, g: g)
        assert np.allclose(combined, separate, atol=1e-12)

    def test_identical_tapes_give_bitwise_identical_gradients(self):
        rng = np.random.default_rng(3)
        x_val = rng.standard_normal((3, 4))

        def run():
            tape = Tape()
            x = tape.leaf(x_val)
            y = ad.softmax(ad.matmul(x, tape.constant(rng_w)), axis=1)
            return tape.backward(ad.sum_reduce(ad.mul(y, y)))[x.tid]

        rng_w = rng.standard_normal((4, 4))
        assert np.array_equal(run(), run())

    def test_non_scalar_backward_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(NonScalarOutputError):
            tape.backward(ad.mul(x, 2.0))

    def test_cross_tape_mixing_rejected(self):
        a = Tape().leaf(np.ones(2))
        b = Tape().leaf(np.ones(2))
        with pytest.raises(AutodiffError):
            ad.add(a, b)

    def test_gradient_accumulates_over_reuse(self):
        tape = Tape()
        x = tape.leaf(np.array(3.0))
        loss = ad.add(ad.mul(x, x), ad.mul(x, 4.0))  # x^2 + 4x
        grads = tape.backward(loss)
        assert float(grads[x.tid]) == 10.0


def dense_maxsim_chain(patches, words):
    """The unfused MaxSim graph: similarities, max over words, max over patches."""
    sims = ad.segment_matmul(patches, words)
    return ad.max_reduce(ad.max_reduce(sims, axis=-1), axis=-1)


def maxsim_grads(build, patches, words, upstream, *, patches_leaf=True, words_leaf=True):
    """Gradients of sum(upstream * build(P, W)) for the requested leaves."""
    tape = Tape()
    p = tape.leaf(patches) if patches_leaf else tape.constant(patches)
    w = tape.leaf(words) if words_leaf else tape.constant(words)
    scores = build(p, w)
    grads = tape.backward(ad.sum_reduce(ad.mul(scores, tape.constant(upstream))))
    return scores.data, grads.get(p.tid), grads.get(w.tid)


class TestMaxSim:
    LEADING = [(), (3,), (2, 3), (2, 1, 3)]

    def instances(self, integer):
        rng = np.random.default_rng(20 + integer)
        for lead in self.LEADING:
            if integer:  # small integers make exact ties between pairs common
                patches = rng.integers(0, 3, size=lead + (5, 4)).astype(float)
                words = rng.integers(0, 3, size=(3, 4)).astype(float)
            else:
                patches = rng.standard_normal(lead + (5, 4))
                words = rng.standard_normal((3, 4))
            yield patches, words, rng.standard_normal(lead)

    @pytest.mark.parametrize("integer", [False, True])
    def test_forward_bitwise_equals_dense_chain(self, integer):
        for patches, words, _ in self.instances(integer):
            tape = Tape()
            p, w = tape.constant(patches), tape.constant(words)
            fused = ad.maxsim(p, w)
            assert fused.shape == patches.shape[:-2]
            assert np.array_equal(fused.data, dense_maxsim_chain(p, w).data)

    @pytest.mark.parametrize("integer", [False, True])
    def test_backward_matches_dense_chain(self, integer):
        for patches, words, upstream in self.instances(integer):
            _, gp, gw = maxsim_grads(ad.maxsim, patches, words, upstream)
            _, dense_gp, dense_gw = maxsim_grads(dense_maxsim_chain, patches, words, upstream)
            assert np.allclose(gp, dense_gp, rtol=0.0, atol=1e-12)
            assert np.allclose(gw, dense_gw, rtol=0.0, atol=1e-12)

    def test_only_winning_patch_rows_receive_gradient(self):
        for patches, words, upstream in self.instances(False):
            _, gp, _ = maxsim_grads(ad.maxsim, patches, words, upstream)
            sims = patches @ words.T
            flat = sims.reshape(sims.shape[:-2] + (-1,))
            winner = np.argmax(flat, axis=-1) // words.shape[0]
            rows = np.arange(patches.shape[-2]) == winner[..., None]  # (..., N_p)
            assert np.all(gp[~rows] == 0.0)
            assert np.all(np.any(gp[rows] != 0.0, axis=-1))

    def test_ties_route_to_smallest_patch_then_smallest_word(self):
        # patches 1 and 2 tie against words 1 and 2 (all four products are 2)
        patches = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        words = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        score, gp, gw = maxsim_grads(ad.maxsim, patches, words, np.array(1.0))
        assert score == 2.0
        assert np.array_equal(gp, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(gw, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_word_gradient_sums_over_every_slot_a_word_wins(self):
        patches = np.array([[[1.0, 0.0]], [[2.0, 0.0]], [[0.0, 3.0]]])  # three slots, N_p=1
        words = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, _, gw = maxsim_grads(ad.maxsim, patches, words, np.array([1.0, 0.5, 2.0]))
        assert np.array_equal(gw, [[2.0, 0.0], [0.0, 6.0]])

    def test_constant_patches_or_words(self):
        patches, words, upstream = next(iter(self.instances(False)))
        _, full_gp, full_gw = maxsim_grads(ad.maxsim, patches, words, upstream)
        _, gp, gw = maxsim_grads(ad.maxsim, patches, words, upstream, words_leaf=False)
        assert gw is None and np.array_equal(gp, full_gp)
        _, gp, gw = maxsim_grads(ad.maxsim, patches, words, upstream, patches_leaf=False)
        assert gp is None and np.array_equal(gw, full_gw)

    def test_finite_differences(self):
        rng = np.random.default_rng(24)
        store = ParameterStore()
        store.register("p", rng.standard_normal((2, 4, 3)))
        store.register("w", rng.standard_normal((5, 3)))
        upstream = rng.standard_normal(2)

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            scores = ad.maxsim(leaves["p"], leaves["w"])
            return ad.sum_reduce(ad.mul(scores, tape.constant(upstream)))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-6

    @pytest.mark.parametrize(
        "p_shape, w_shape",
        [((4, 3), (2, 4)), ((3,), (2, 3)), ((2, 4, 3), (3,)), ((0, 3), (2, 3)), ((4, 3), (0, 3))],
    )
    def test_shape_errors(self, p_shape, w_shape):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.maxsim(tape.constant(np.ones(p_shape)), tape.constant(np.ones(w_shape)))


def random_segments(rng, count):
    """K+1 offsets splitting ``count`` rows into K >= 1 non-empty segments."""
    cuts = np.sort(rng.choice(np.arange(1, count), size=int(rng.integers(0, count)), replace=False))
    return np.concatenate([[0], cuts, [count]])


def sequential_maxsim_grads(patches, words, segments, upstream):
    """MaxSim gradients from a plain loop over the scores in row-major
    order, each adding its upstream gradient into its winning pair."""
    gp, gw = np.zeros_like(patches), np.zeros_like(words)
    for slot in np.ndindex(patches.shape[:-2]):
        for k, (lo, hi) in enumerate(zip(segments[:-1], segments[1:])):
            sims = np.matmul(patches[slot], words[lo:hi].T)
            p, w = np.unravel_index(np.argmax(sims), sims.shape)
            g = upstream[slot + (k,)]
            gp[slot + (p,)] += g * words[lo + w]
            gw[lo + w] += g * patches[slot + (p,)]
    return gp, gw


class TestSegmentedMaxSim:
    LEADING = TestMaxSim.LEADING

    def instances(self, integer, seed):
        rng = np.random.default_rng(seed)
        for lead in self.LEADING:
            for _ in range(10):
                n_w = int(rng.integers(1, 9))
                if integer:  # small integers make exact ties within a segment common
                    patches = rng.integers(0, 3, size=lead + (4, 3)).astype(float)
                    words = rng.integers(0, 3, size=(n_w, 3)).astype(float)
                else:
                    patches = rng.standard_normal(lead + (4, 3))
                    words = rng.standard_normal((n_w, 3))
                segments = random_segments(rng, n_w)
                upstream = rng.standard_normal(lead + (segments.size - 1,))
                yield patches, words, segments, upstream

    def test_forward_equals_one_call_per_segment(self):
        for patches, words, segments, _ in self.instances(True, 40):
            tape = Tape()
            scores = ad.maxsim(tape.constant(patches), tape.constant(words), segments)
            assert scores.shape == patches.shape[:-2] + (segments.size - 1,)
            for k, (lo, hi) in enumerate(zip(segments[:-1], segments[1:])):
                one = ad.maxsim(tape.constant(patches), tape.constant(words[lo:hi]))
                assert np.array_equal(scores.data[..., k], one.data)

    @pytest.mark.parametrize("integer", [False, True])
    def test_gradients_equal_per_segment_reference(self, integer):
        for patches, words, segments, upstream in self.instances(integer, 41):
            build = lambda p, w: ad.maxsim(p, w, segments)  # noqa: E731
            _, gp, gw = maxsim_grads(build, patches, words, upstream)
            want_gp = np.zeros_like(patches)
            want_gw = []
            for k, (lo, hi) in enumerate(zip(segments[:-1], segments[1:])):
                _, gp_k, gw_k = maxsim_grads(ad.maxsim, patches, words[lo:hi], upstream[..., k])
                want_gp += gp_k
                want_gw.append(gw_k)
            assert np.allclose(gp, want_gp, rtol=0.0, atol=1e-12)
            assert np.allclose(gw, np.concatenate(want_gw), rtol=0.0, atol=1e-12)

    def test_each_segment_routes_ties_to_smallest_patch_then_word(self):
        # every patch-word product is 1 except patch 0 against word 2 (0):
        # segment [0, 2) ties everywhere and picks (patch 0, word 0); segment
        # [2, 4) loses patch 0 to word 3's tie and picks (patch 0, word 3)
        patches = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        patches[0] = [0.0, 1.0]
        words = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        scores, gp, gw = maxsim_grads(
            lambda p, w: ad.maxsim(p, w, [0, 2, 4]), patches, words, np.array([1.0, 10.0])
        )
        assert np.array_equal(scores, [1.0, 1.0])
        assert np.array_equal(gp, [[0.0, 11.0], [0.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(gw, [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 10.0]])

    def test_one_segment_equals_no_segments_bitwise(self):
        for patches, words, _, upstream in self.instances(False, 42):
            one = [0, words.shape[0]]
            seg = maxsim_grads(lambda p, w: ad.maxsim(p, w, one), patches, words, upstream[..., :1])
            plain = maxsim_grads(ad.maxsim, patches, words, upstream[..., 0])
            assert np.array_equal(seg[0][..., 0], plain[0])
            assert np.array_equal(seg[1], plain[1]) and np.array_equal(seg[2], plain[2])

    @pytest.mark.parametrize("dim", [4, 32, 64])
    @pytest.mark.parametrize("integer", [False, True])
    def test_gradients_equal_a_sequential_loop_over_the_scores_bitwise(self, dim, integer):
        rng = np.random.default_rng(45 + dim)
        for lead in self.LEADING:
            for _ in range(4):
                n_w = int(rng.integers(1, 12))
                if integer:  # small integers make exact ties within a segment common
                    patches = rng.integers(-1, 2, size=lead + (6, dim)).astype(float)
                    words = rng.integers(-1, 2, size=(n_w, dim)).astype(float)
                else:
                    patches = rng.standard_normal(lead + (6, dim))
                    words = rng.standard_normal((n_w, dim))
                segments = random_segments(rng, n_w)
                upstream = rng.standard_normal(lead + (segments.size - 1,))
                build = lambda p, w: ad.maxsim(p, w, segments)  # noqa: E731
                _, gp, gw = maxsim_grads(build, patches, words, upstream)
                want_gp, want_gw = sequential_maxsim_grads(patches, words, segments, upstream)
                assert np.array_equal(gp, want_gp) and np.array_equal(gw, want_gw)

    def test_finite_differences(self):
        rng = np.random.default_rng(43)
        store = ParameterStore()
        store.register("p", rng.standard_normal((2, 3, 4, 3)))
        store.register("w", rng.standard_normal((7, 3)))
        upstream = rng.standard_normal((2, 3, 3))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            scores = ad.maxsim(leaves["p"], leaves["w"], [0, 1, 4, 7])
            return ad.sum_reduce(ad.mul(scores, tape.constant(upstream)))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-6

    @pytest.mark.parametrize("segments", [
        [0, 2, 2, 3], [1, 3], [0, 2], [0, 4], [3], [[0, 3]], [0.0, 3.0], [0, 2, 1, 3],
    ])
    def test_malformed_segments_rejected(self, segments):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.maxsim(tape.constant(np.ones((2, 3))), tape.constant(np.ones((3, 3))), segments)


def projected_maxsim_grads(build, patches, words, weight, segments, upstream, leaves, bias=None):
    """Scores and (patch, word, weight[, bias]) gradients of
    sum(upstream * scores), with each input a leaf or a constant as
    ``leaves`` says. ``build`` is the fused primitive or the
    relu(add(matmul)) composition it replaces; it gets ``None`` for a
    missing bias."""
    tape = Tape()
    values = (patches, words, weight) + (() if bias is None else (bias,))
    tensors = [
        tape.leaf(value) if leaf else tape.constant(value) for value, leaf in zip(values, leaves)
    ]
    scores = build(*tensors[:3], segments, tensors[3] if bias is not None else None)
    grads = tape.backward(ad.sum_reduce(ad.mul(scores, tape.constant(upstream))))
    return scores.data, [grads.get(t.tid) for t in tensors]


def fused(p, w, wp, segments, c=None):
    return ad.maxsim(p, w, segments, weight=wp, bias=c)


def composed(p, w, wp, segments, c=None):
    z = ad.matmul(p, wp)
    return ad.maxsim(ad.relu(z if c is None else ad.add(z, c)), w, segments)


LEAF_CHOICES = [
    (p, w, wp) for p in (True, False) for w in (True, False) for wp in (True, False)
    if p or w or wp
]


class TestProjectedMaxSim:
    """``maxsim(p, w, segments, weight=W_p)`` against the unfused
    ``maxsim(relu(matmul(p, W_p)), w, segments)``."""

    def instances(self, integer, seed):
        rng = np.random.default_rng(seed)
        for lead in TestMaxSim.LEADING:
            for count in range(1, 5):
                n_w = count + int(rng.integers(0, 4))
                cuts = np.sort(rng.choice(np.arange(1, n_w), size=count - 1, replace=False))
                segments = np.concatenate([[0], cuts, [n_w]])
                if integer:  # small integers: exact ties, and projected rows with zeros
                    patches = rng.integers(-1, 3, size=lead + (5, 3)).astype(float)
                    weight = rng.integers(-1, 2, size=(3, 4)).astype(float)
                    words = rng.integers(0, 3, size=(n_w, 4)).astype(float)
                else:
                    patches = rng.standard_normal(lead + (5, 3))
                    weight = rng.standard_normal((3, 4))
                    words = rng.standard_normal((n_w, 4))
                upstream = rng.standard_normal(lead + (count,))
                yield patches, words, weight, segments, upstream

    @pytest.mark.parametrize("integer", [False, True])
    def test_forward_bitwise_equals_the_composition(self, integer):
        for patches, words, weight, segments, _ in self.instances(integer, 60):
            tape = Tape()
            p, w, wp = tape.constant(patches), tape.constant(words), tape.constant(weight)
            scores = fused(p, w, wp, segments)
            assert scores.shape == patches.shape[:-2] + (segments.size - 1,)
            assert np.array_equal(scores.data, composed(p, w, wp, segments).data)

    @pytest.mark.parametrize("leaves", LEAF_CHOICES)
    @pytest.mark.parametrize("integer", [False, True])
    def test_gradients_match_the_composition(self, integer, leaves):
        for patches, words, weight, segments, upstream in self.instances(integer, 61):
            args = (patches, words, weight, segments, upstream, leaves)
            scores, grads = projected_maxsim_grads(fused, *args)
            want_scores, want_grads = projected_maxsim_grads(composed, *args)
            assert np.array_equal(scores, want_scores)
            for leaf, got, want in zip(leaves, grads, want_grads):
                if not leaf:
                    assert got is None
                    continue
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_one_patch_matrix_per_chunk_changes_no_bit(self, monkeypatch):
        weighted = [
            (fused, (p, w, wp, s, u, (True, True, True)))
            for integer, seed in ((True, 64), (False, 65))
            for p, w, wp, s, u in self.instances(integer, seed)
        ]
        unweighted = [
            (lambda p, w, _, s, c: ad.maxsim(p, w, s), (p, w, np.eye(3), s, u, (True, True, False)))
            for p, w, s, u in TestSegmentedMaxSim().instances(True, 66)
        ]
        cases = weighted + unweighted
        whole = [projected_maxsim_grads(build, *args) for build, args in cases]
        monkeypatch.setattr(ad, "MAXSIM_CHUNK_VALUES", 1)
        for (build, args), (want_scores, want_grads) in zip(cases, whole):
            scores, grads = projected_maxsim_grads(build, *args)
            assert np.array_equal(scores, want_scores)
            for got, want in zip(grads, want_grads):
                assert (got is None and want is None) or np.array_equal(got, want)

    def test_zero_components_of_a_winning_row_pass_no_gradient(self):
        # z = relu(patches @ W_p) = [[1, 0], [2, 0]]: component 1 is negative
        # before the ReLU for patch 0 and exactly 0 for patch 1, which wins
        patches = np.array([[1.0, -1.0], [2.0, 0.0]])
        weight = np.array([[1.0, 0.0], [0.0, 1.0]])
        words = np.array([[1.0, 5.0]])
        scores, (gp, gw, g_weight) = projected_maxsim_grads(
            fused, patches, words, weight, None, np.array(-1.0), (True, True, True)
        )
        assert scores == 2.0
        assert np.array_equal(gp, [[0.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(gw, [[-2.0, 0.0]])
        assert np.array_equal(g_weight, [[-2.0, 0.0], [0.0, 0.0]])

    def test_a_tape_that_records_nothing_keeps_nothing(self):
        rng = np.random.default_rng(62)
        tape = Tape()
        scores = ad.maxsim(
            tape.constant(rng.standard_normal((2, 5, 3))),
            tape.constant(rng.standard_normal((4, 3))),
            [0, 1, 4],
            weight=tape.constant(rng.standard_normal((3, 3))),
        )
        assert scores.shape == (2, 2) and not scores.requires_grad and tape.records == ()

    def test_finite_differences(self):
        rng = np.random.default_rng(63)
        store = ParameterStore()
        store.register("p", rng.standard_normal((2, 3, 4, 3)))
        store.register("w", rng.standard_normal((7, 5)))
        store.register("wp", rng.standard_normal((3, 5)))
        upstream = rng.standard_normal((2, 3, 3))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            scores = ad.maxsim(leaves["p"], leaves["w"], [0, 1, 4, 7], weight=leaves["wp"])
            return ad.sum_reduce(ad.mul(scores, tape.constant(upstream)))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-6

    @pytest.mark.parametrize("weight_shape", [(4, 3), (3,), (3, 4, 1)])
    def test_weight_shape_errors(self, weight_shape):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.maxsim(
                tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 3))),
                weight=tape.constant(np.ones(weight_shape)),
            )


def maxsim_winners(patches, words, segments, weight=None):
    """The scores of ``ad.maxsim`` and, per score, the winning (patch, word)
    pair it reports: the one patch row and the one word row that a backward
    of that score alone reaches."""
    scores = None
    p_won, w_won = {}, {}
    for index in np.ndindex(patches.shape[:-2] + (len(segments) - 1,)):
        tape = Tape()
        p, w = tape.leaf(patches), tape.leaf(words)
        out = ad.maxsim(p, w, segments, weight=None if weight is None else tape.constant(weight))
        upstream = np.zeros(out.shape)
        upstream[index] = 1.0
        grads = tape.backward(ad.sum_reduce(ad.mul(out, tape.constant(upstream))))
        (patch_rows,) = np.nonzero(np.any(grads[p.tid][index[:-1]] != 0.0, axis=-1))
        (word_rows,) = np.nonzero(np.any(grads[w.tid] != 0.0, axis=-1))
        assert patch_rows.size == word_rows.size == 1, index
        p_won[index], w_won[index] = int(patch_rows[0]), int(word_rows[0])
        scores = out.data
    return scores, p_won, w_won


class TestMaxSimWinners:
    """Every score is, bit for bit, the similarity of the winner that the
    backward reaches, and that winner is the first maximum in row-major
    (patch, word) order: on tied maxima, and on a maximum that is a zero."""

    def instances(self):
        rng = np.random.default_rng(70)
        # small positive integers: ties within and across patch rows, and no
        # zero row, so every winner shows in both gradients
        yield (rng.integers(1, 3, size=(3, 2, 5, 3)).astype(float),
               rng.integers(1, 3, size=(7, 3)).astype(float), [0, 3, 4, 7], None)
        # matrix 0 scores zeros only; matrix 1 has negative similarities and
        # a zero maximum, with -0.0 among the patch values
        patches = np.array([
            [[-0.0, 1.0], [0.0, 2.0], [-0.0, -1.0]],
            [[-1.0, 5.0], [-0.0, 3.0], [0.0, 1.0]],
        ])
        yield patches, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), [0, 2, 3], None
        yield (rng.standard_normal((2, 3, 6, 4)), rng.standard_normal((5, 3)), [0, 2, 5],
               rng.standard_normal((4, 3)))

    @pytest.mark.parametrize("chunk_values", [ad.MAXSIM_CHUNK_VALUES, 1])
    def test_each_score_is_its_winners_similarity(self, monkeypatch, chunk_values):
        monkeypatch.setattr(ad, "MAXSIM_CHUNK_VALUES", chunk_values)
        for patches, words, segments, weight in self.instances():
            scores, p_won, w_won = maxsim_winners(patches, words, segments, weight)
            for index, score in np.ndenumerate(scores):
                z = patches[index[:-1]]
                if weight is not None:
                    z = np.maximum(np.matmul(z, weight), 0.0)
                lo, hi = segments[index[-1]], segments[index[-1] + 1]
                sims = np.matmul(z, words[lo:hi].T)
                first = np.unravel_index(np.argmax(sims), sims.shape)
                assert (p_won[index], w_won[index] - lo) == first, index
                winner = sims[p_won[index], w_won[index] - lo]
                assert score.tobytes() == winner.tobytes(), index  # sign of a zero included

    def test_the_signed_zero_instance_has_zero_maxima(self):
        _, (patches, words, segments, _), _ = self.instances()
        scores, _, _ = maxsim_winners(patches, words, segments)
        assert np.array_equal(scores, [[0.0, 0.0], [0.0, 0.0]])
        assert patches[1, 1, 0] == 0.0 and np.signbit(patches[1, 1, 0])


BIASED_LEAF_CHOICES = [
    choice for choice in itertools.product((True, False), repeat=4) if any(choice)
]


class TestBiasedMaxSim:
    """``maxsim(p, w, segments, weight=W, bias=c)`` against the unfused
    ``maxsim(relu(add(matmul(p, W), c)), w, segments)``."""

    def instances(self, integer, seed):
        rng = np.random.default_rng(seed)
        projected = TestProjectedMaxSim().instances(integer, seed)
        for patches, words, weight, segments, upstream in projected:
            if integer:  # small integers: exact ties, and projected rows with zeros
                bias = rng.integers(-1, 2, size=weight.shape[1]).astype(float)
            else:
                bias = rng.standard_normal(weight.shape[1])
            yield patches, words, weight, segments, upstream, bias

    @pytest.mark.parametrize("integer", [False, True])
    def test_forward_bitwise_equals_the_composition(self, integer):
        for patches, words, weight, segments, _, bias in self.instances(integer, 70):
            tape = Tape()
            p, w, wp, c = map(tape.constant, (patches, words, weight, bias))
            scores = fused(p, w, wp, segments, c)
            assert scores.shape == patches.shape[:-2] + (segments.size - 1,)
            assert np.array_equal(scores.data, composed(p, w, wp, segments, c).data)

    @pytest.mark.parametrize("leaves", BIASED_LEAF_CHOICES)
    @pytest.mark.parametrize("integer", [False, True])
    def test_gradients_match_the_composition(self, integer, leaves):
        for patches, words, weight, segments, upstream, bias in self.instances(integer, 71):
            args = (patches, words, weight, segments, upstream, leaves, bias)
            scores, grads = projected_maxsim_grads(fused, *args)
            want_scores, want_grads = projected_maxsim_grads(composed, *args)
            assert np.array_equal(scores, want_scores)
            for leaf, got, want in zip(leaves, grads, want_grads):
                if not leaf:
                    assert got is None
                    continue
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_one_patch_matrix_per_chunk_changes_no_bit(self, monkeypatch):
        cases = [
            (p, w, wp, s, u, (True,) * 4, c)
            for integer, seed in ((True, 72), (False, 73))
            for p, w, wp, s, u, c in self.instances(integer, seed)
        ]
        whole = [projected_maxsim_grads(fused, *args) for args in cases]
        monkeypatch.setattr(ad, "MAXSIM_CHUNK_VALUES", 1)
        for args, (want_scores, want_grads) in zip(cases, whole):
            scores, grads = projected_maxsim_grads(fused, *args)
            assert np.array_equal(scores, want_scores)
            assert all(np.array_equal(got, want) for got, want in zip(grads, want_grads))

    def test_a_tape_that_records_nothing_keeps_nothing(self):
        rng = np.random.default_rng(76)
        tape = Tape()
        scores = ad.maxsim(
            tape.constant(rng.standard_normal((2, 5, 3))),
            tape.constant(rng.standard_normal((4, 3))),
            [0, 1, 4],
            weight=tape.constant(rng.standard_normal((3, 3))),
            bias=tape.constant(rng.standard_normal(3)),
        )
        assert scores.shape == (2, 2) and not scores.requires_grad and tape.records == ()

    def test_finite_differences(self):
        rng = np.random.default_rng(77)
        store = ParameterStore()
        store.register("p", rng.standard_normal((2, 3, 4, 3)))
        store.register("w", rng.standard_normal((7, 5)))
        store.register("wp", rng.standard_normal((3, 5)))
        store.register("c", rng.standard_normal(5))
        upstream = rng.standard_normal((2, 3, 3))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            scores = ad.maxsim(
                leaves["p"], leaves["w"], [0, 1, 4, 7], weight=leaves["wp"], bias=leaves["c"]
            )
            return ad.sum_reduce(ad.mul(scores, tape.constant(upstream)))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-6

    @pytest.mark.parametrize("weight_shape, bias_shape", [
        (None, (3,)), ((3, 4), (3,)), ((3, 4), (1, 4)), ((3, 4), ()), ((3, 4), (4, 1)),
    ])
    def test_bias_shape_errors(self, weight_shape, bias_shape):
        tape = Tape()
        width = 3 if weight_shape is None else weight_shape[1]
        with pytest.raises(ShapeMismatchError, match="bias"):
            ad.maxsim(
                tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, width))),
                weight=None if weight_shape is None else tape.constant(np.ones(weight_shape)),
                bias=tape.constant(np.ones(bias_shape)),
            )


class TestWeightedSumColumns:
    def test_each_column_matches_naive_loop_exactly(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            t, d, k = (int(n) for n in rng.integers(1, 7, size=3))
            values = rng.standard_normal((2, t, d))
            weights = rng.standard_normal((2, t, k))
            tape = Tape()
            out = ad.weighted_sum(tape.constant(values), tape.constant(weights)).data
            assert out.shape == (2, k, d)
            for column in range(k):
                naive = values[:, 0] * weights[:, 0, column, None]
                for step in range(1, t):
                    naive = naive + values[:, step] * weights[:, step, column, None]
                assert np.array_equal(out[:, column], naive)

    def test_finite_differences(self):
        rng = np.random.default_rng(45)
        store = ParameterStore()
        store.register("v", rng.standard_normal((2, 4, 3)))
        store.register("w", rng.standard_normal((2, 4, 5)))
        upstream = rng.standard_normal((2, 5, 3))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            out = ad.weighted_sum(leaves["v"], leaves["w"])
            return ad.sum_reduce(ad.mul(out, tape.constant(upstream)))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-8


class TestSegmentOps:
    SEGMENTS = [0, 2, 3, 7]

    def test_one_segment_of_segment_matmul_is_one_matmul_bitwise(self):
        rng = np.random.default_rng(47)
        for lead in [(), (1,), (3,), (2, 3)]:
            for m, n in [(1, 1), (1, 5), (6, 1), (8, 7)]:
                a, w = rng.standard_normal(lead + (m, 16)), rng.standard_normal((n, 16))
                tape = Tape()
                out = ad.segment_matmul(tape.constant(a), tape.constant(w)).data
                assert np.array_equal(out, np.matmul(a, w.T))

    def test_each_segment_of_segment_matmul_is_its_own_product_bitwise(self):
        rng = np.random.default_rng(48)
        a, w = rng.standard_normal((3, 8, 16)), rng.standard_normal((7, 16))
        tape = Tape()
        out = ad.segment_matmul(tape.constant(a), tape.constant(w), self.SEGMENTS).data
        for start, stop in itertools.pairwise(self.SEGMENTS):
            alone = ad.segment_matmul(tape.constant(a), tape.constant(w[start:stop])).data
            assert np.array_equal(out[..., start:stop], alone)

    def test_segment_mean_averages_each_segment(self):
        x = np.arange(14.0).reshape(2, 7)
        tape = Tape()
        out = ad.segment_mean(tape.constant(x), self.SEGMENTS).data
        want = [[0.5, 2.0, 4.5], [7.5, 9.0, 11.5]]
        assert np.array_equal(out, want)
        assert np.array_equal(ad.segment_mean(tape.constant(x)).data, x.mean(axis=-1)[:, None])

    def test_segment_spread_repeats_each_value_over_its_segment(self):
        x = np.arange(6.0).reshape(2, 3)
        tape = Tape()
        out = ad.segment_spread(tape.constant(x), self.SEGMENTS, 7).data
        assert np.array_equal(out, [[0, 0, 1, 2, 2, 2, 2], [3, 3, 4, 5, 5, 5, 5]])

    def test_finite_differences(self):
        rng = np.random.default_rng(49)
        store = ParameterStore()
        store.register("a", rng.standard_normal((2, 4, 5)))
        store.register("w", rng.standard_normal((7, 5)))
        upstream = rng.standard_normal((2, 4, 7))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            logits = ad.segment_matmul(leaves["a"], leaves["w"], self.SEGMENTS)
            means = ad.segment_mean(ad.mul(logits, logits), self.SEGMENTS)
            spread = ad.segment_spread(means, self.SEGMENTS, 7)
            return ad.sum_reduce(ad.mul(ad.mul(logits, spread), tape.constant(upstream)))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-8

    def test_shape_and_segment_errors(self):
        tape = Tape()
        a, w = tape.constant(np.ones((2, 3))), tape.constant(np.ones((4, 3)))
        with pytest.raises(ShapeMismatchError):
            ad.segment_matmul(a, tape.constant(np.ones((4, 2))))
        with pytest.raises(ShapeMismatchError):
            ad.segment_matmul(tape.constant(np.ones(3)), w)
        with pytest.raises(ShapeMismatchError):
            ad.segment_matmul(a, w, [0, 2, 2, 4])
        with pytest.raises(ShapeMismatchError):
            ad.segment_mean(a, [0, 2])
        with pytest.raises(ShapeMismatchError):
            ad.segment_spread(a, [0, 2, 4], 4)


def out_of_place_backward(tape, output):
    """Reference gradient loop that always sums into a fresh array."""
    grads = {output.tid: np.ones((), dtype=np.float64)}
    for rec in reversed(tape.records):
        g = grads.pop(rec.output_id, None)
        if g is None:
            continue
        for tid, needed, gi in zip(rec.input_ids, rec.input_requires, rec.backward_fn(g)):
            if needed and gi is not None:
                prev = grads.get(tid)
                grads[tid] = gi if prev is None else prev + gi
    return grads


def fan_out_graph():
    """One leaf x feeding six consumers, two of which pass g straight through;
    a 0-d leaf s also feeds three consumers."""
    rng = np.random.default_rng(30)
    tape = Tape()
    x = tape.leaf(rng.standard_normal((4, 3)))
    s = tape.leaf(np.array(0.7))
    w = tape.constant(rng.standard_normal((3, 3)))
    branches = [
        ad.add(x, tape.constant(rng.standard_normal((4, 3)))),
        ad.mul(x, s),
        ad.relu(ad.matmul(x, w)),
        ad.add(x, x),
        ad.softmax(ad.mul(x, s), axis=0),
        ad.mul(ad.exp(x), s),
        ad.mul(ad.reshape(ad.mean_reduce(x, 0), (1, 3)), s),  # a read-only broadcast gradient
    ]
    total = branches[0]
    for branch in branches[1:]:
        total = ad.add(total, ad.mul(branch, tape.constant(rng.standard_normal((4, 3)))))
    return tape, ad.sum_reduce(total), (x, s)


def every_primitive_loss(store, tape):
    """A scalar loss on ``tape`` whose graph applies every tape primitive."""
    leaves = store.leaves(tape)
    x, w = leaves["x"], leaves["w"]
    nodes = [
        ad.add(x, x), ad.mul(x, 2.0), ad.div(x, 3.0), ad.neg(x), ad.exp(x), ad.relu(x),
        ad.clip(x, 0.0, 1.0), ad.matmul(x, w), ad.segment_matmul(x, w, [0, 1, 3]),
        ad.maxsim(x, w, [0, 1, 3]),
        ad.maxsim(x, w, [0, 1, 3], weight=w),
        ad.maxsim(x, w, [0, 1, 3], weight=w, bias=ad.mean_reduce(w, 0)),
        ad.l2_normalize(x), ad.max_reduce(x, 1), ad.mean_reduce(x, 1),
        ad.segment_mean(x, [0, 1, 3]), ad.segment_spread(x, [0, 1, 2, 5], 5), ad.softmax(x),
        ad.log_softmax(x), ad.weighted_sum(x, ad.index_select(x, [0, 2], 2)),
        ad.reshape(x, (1,) + x.shape), ad.stack([x, x]),
        ad.matmul(ad.sum_reduce(x, 0), ad.reshape(ad.mean_reduce(w, 0), (-1, 1))),
    ]
    return ad.sum_reduce(ad.stack([ad.sum_reduce(node) for node in nodes]))


class TestTapeLifetime:
    def test_reference_counting_frees_a_used_tape(self):
        # no tape object takes part in a reference cycle, so dropping the
        # loss frees its tape and every saved array without the cycle collector
        store = ParameterStore()
        store.register("x", np.random.default_rng(46).random((2, 3, 3)))
        store.register("w", np.eye(3))
        gc.disable()
        try:
            loss = every_primitive_loss(store, Tape())
            parameter_gradients(loss, store)
            tape = weakref.ref(loss.tape)
            del loss
            assert tape() is None
        finally:
            gc.enable()

    def test_backward_consumes_the_tape(self):
        tape, loss, leaves = fan_out_graph()
        assert tape.records
        grads = tape.backward(loss)
        assert all(leaf.tid in grads for leaf in leaves)
        assert tape.records == ()
        with pytest.raises(AutodiffError, match="single-use"):
            tape.backward(loss)

    def test_each_record_is_freed_before_the_next_vjp_runs(self):
        # every closure is wrapped in a VJP that checks, by weak reference,
        # that the wrapper which ran just before it is gone: backward must drop
        # each record, and so the arrays its closure saved, once it has run
        store = ParameterStore()
        store.register("x", np.random.default_rng(47).random((2, 3, 3)))
        store.register("w", np.eye(3))
        ran: list[weakref.ref] = []
        stale: list[str] = []

        class CheckedVJP:
            def __init__(self, op, fn):
                self.op, self.fn = op, fn

            def __call__(self, g):
                previous = ran[-1]() if ran else None
                if previous is not None:
                    stale.append(f"{previous.op} still alive when {self.op} ran")
                ran.append(weakref.ref(self))
                return self.fn(g)

        def checked_loss():
            loss = every_primitive_loss(store, Tape())
            for rec in loss.tape.records:
                rec.backward_fn = CheckedVJP(rec.op, rec.backward_fn)
            return loss

        gc.disable()
        try:
            loss = checked_loss()
            count = len(loss.tape.records)
            parameter_gradients(loss, store)
        finally:
            gc.enable()
        assert len(ran) == count > 20
        assert stale == []


class TestInPlaceAccumulation:
    def test_fan_out_gradients_bitwise_equal_out_of_place_loop(self):
        tape, loss, leaves = fan_out_graph()
        got = tape.backward(loss)
        ref_tape, ref_loss, _ = fan_out_graph()
        want = out_of_place_backward(ref_tape, ref_loss)
        assert got.keys() == want.keys()
        for tid in want:
            assert got[tid].shape == want[tid].shape
            assert np.array_equal(got[tid], want[tid]), tid
        for leaf in leaves:
            assert np.all(got[leaf.tid] != 0.0)

    def test_arrays_returned_by_backward_closures_are_never_mutated(self):
        tape, loss, _ = fan_out_graph()
        returned = []

        def keep(fn):
            def wrapped(g):
                out = fn(g)
                returned.extend((gi, gi.copy()) for gi in out if gi is not None)
                return out

            return wrapped

        for rec in tape.records:
            rec.backward_fn = keep(rec.backward_fn)
        tape.backward(loss)
        assert any(gi.ndim for gi, _ in returned)
        for gi, snapshot in returned:
            assert np.array_equal(gi, snapshot)


class TestShapeErrors:
    def test_matmul_inner_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.matmul(tape.constant(np.ones((2, 3))), tape.constant(np.ones((4, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,))])
    def test_vector_operands_rejected(self, a_shape, b_shape):
        # matmul takes a stack of matrices and one matrix, never a vector
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.matmul(tape.constant(np.ones(a_shape)), tape.constant(np.ones(b_shape)))

    def test_weighted_sum_shape_check(self):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.weighted_sum(tape.constant(np.ones((3, 4))), tape.constant(np.ones(2)))

    @pytest.mark.parametrize("weights_shape", [(2, 1), (3,), (4,), (3, 4, 1), (1, 3, 4)])
    def test_weighted_sum_column_shape_check(self, weights_shape):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.weighted_sum(tape.constant(np.ones((3, 4))), tape.constant(np.ones(weights_shape)))

    def test_stack_shape_check(self):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.stack([tape.constant(np.ones(2)), tape.constant(np.ones(3))])


class TestCompositePlumbingGradients:
    def test_finite_differences_through_every_plumbing_op(self):
        # one graph using segment_matmul, stack, index_select, reshape, clip,
        # exp, log, div, mean/sum, log_softmax, l2_normalize and matmul
        rng = np.random.default_rng(4)
        store = ParameterStore()
        store.register("w", rng.standard_normal((4, 4)) * 0.3 + np.eye(4))
        store.register("v", rng.standard_normal(4))
        base = rng.standard_normal((3, 4))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            x = ad.segment_matmul(tape.constant(base), leaves["w"])
            x = ad.log_softmax(x, axis=1)
            picked = ad.index_select(x, np.array([0, 2, 1]), axis=0)
            scaled = ad.mul(picked, ad.reshape(ad.exp(leaves["v"]), (1, 4)))
            vec = ad.mean_reduce(scaled, axis=0)
            unit = ad.l2_normalize(vec, axis=0)
            stacked = ad.stack([unit, ad.clip(vec, -0.5, 0.5)], axis=0)
            return ad.sum_reduce(ad.div(stacked, 3.0))

        err = finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=5, seed=0)
        assert err < 1e-6


class TestIndexSelectBackward:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_scatter_equals_sequential_add_at_bitwise(self, axis):
        rng = np.random.default_rng(46 + axis)
        x = rng.standard_normal((4, 5, 3))
        indices = rng.integers(0, x.shape[axis], size=9)  # repeats are likely
        tape = Tape()
        leaf = tape.leaf(x)
        picked = ad.index_select(leaf, indices, axis)
        upstream = rng.standard_normal(picked.shape)
        grads = tape.backward(ad.sum_reduce(ad.mul(picked, tape.constant(upstream))))
        want = np.zeros_like(x)
        np.add.at(want, (slice(None),) * axis + (indices,), upstream)
        assert np.array_equal(grads[leaf.tid], want)
        assert grads[leaf.tid].flags.c_contiguous


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        store = ParameterStore()
        store.register("x", np.array(3.0))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            return ad.mul(leaves["x"], leaves["x"])

        err = finite_difference_check(loss_fn, store, eps=1e-4)
        assert err < 1e-7

    def test_analytic_gradient_value_matches_hand_derivative(self):
        store = ParameterStore()
        store.register("x", np.array(3.0))
        tape = Tape()
        leaves = store.leaves(tape)
        loss = ad.mul(leaves["x"], leaves["x"])
        grads = parameter_gradients(loss, store)
        assert float(grads["x"]) == 6.0

    def test_independent_parameter_reports_zero_both_ways(self):
        store = ParameterStore()
        store.register("x", np.array(2.0))
        store.register("dead", np.array(5.0))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            return ad.mul(leaves["x"], leaves["x"])

        err = finite_difference_check(loss_fn, store, eps=1e-5)
        assert err < 1e-7
        tape = Tape()
        leaves = store.leaves(tape)
        grads = parameter_gradients(ad.mul(leaves["x"], leaves["x"]), store)
        assert float(grads["dead"]) == 0.0

    def test_non_finite_loss_rejected(self):
        store = ParameterStore()
        store.register("x", np.array(1000.0))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            return ad.exp(leaves["x"])  # exp(1000) overflows to inf

        with np.errstate(over="ignore"):
            with pytest.raises(AutodiffError):
                finite_difference_check(loss_fn, store)

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda p: None, ParameterStore(), eps=0.0)


class TestParameterStore:
    def test_duplicate_registration_rejected(self):
        store = ParameterStore()
        store.register("a", np.zeros(2))
        with pytest.raises(KeyError):
            store.register("a", np.zeros(2))

    def test_set_value_shape_checked(self):
        store = ParameterStore()
        store.register("a", np.zeros((2, 2)))
        with pytest.raises(ShapeMismatchError):
            store.set_value("a", np.zeros(3))

    def test_values_are_read_only_snapshots(self):
        store = ParameterStore()
        store.register("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.value("a")[0] = 1.0
        before = store.value("a")
        store.set_value("a", np.ones(2))
        assert np.array_equal(before, np.zeros(2))

    def test_fingerprint_tracks_values(self):
        store = ParameterStore()
        store.register("a", np.zeros(2))
        first = store.fingerprint()
        store.set_value("a", np.ones(2))
        assert store.fingerprint() != first

    def test_duplicate_named_leaf_on_one_tape_rejected(self):
        store = ParameterStore()
        store.register("a", np.zeros(2))
        tape = Tape()
        store.leaves(tape)
        with pytest.raises(AutodiffError):
            store.leaves(tape)
