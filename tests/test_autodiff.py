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
    sims = ad.matmul(patches, ad.transpose(words))
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


def projected_maxsim_grads(build, patches, words, weight, segments, upstream, leaves):
    """Scores and (patch, word, weight) gradients of sum(upstream * scores),
    with each input a leaf or a constant as ``leaves`` says. ``build`` is the
    fused primitive or the relu(matmul) composition it replaces."""
    tape = Tape()
    p, w, wp = (
        tape.leaf(value) if leaf else tape.constant(value)
        for value, leaf in zip((patches, words, weight), leaves)
    )
    scores = build(p, w, wp, segments)
    grads = tape.backward(ad.sum_reduce(ad.mul(scores, tape.constant(upstream))))
    return scores.data, [grads.get(t.tid) for t in (p, w, wp)]


def fused(p, w, wp, segments):
    return ad.maxsim(p, w, segments, weight=wp)


def composed(p, w, wp, segments):
    return ad.maxsim(ad.relu(ad.matmul(p, wp)), w, segments)


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
            (lambda p, w, _, s: ad.maxsim(p, w, s), (p, w, np.eye(3), s, u, (True, True, False)))
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


def encoded_maxsim_grads(build, raw, inputs, segments, upstream, leaves):
    """Frames, scores and (W_v, b, words, W_p) gradients of
    sum(u_f * frames) + sum(u_s * scores), with each of the four inputs a
    leaf or a constant as ``leaves`` says (words None: frames only). ``build``
    is the fused primitive or the matmul/add/maxsim/mean_reduce composition."""
    tape = Tape()
    wv, b, words, wp = (
        None if value is None else tape.leaf(value) if leaf else tape.constant(value)
        for value, leaf in zip(inputs, leaves)
    )
    frames, scores = build(tape.constant(raw), wv, b, words, wp, segments)
    loss = ad.sum_reduce(ad.mul(frames, tape.constant(upstream[0])))
    if scores is not None:
        loss = ad.add(loss, ad.sum_reduce(ad.mul(scores, tape.constant(upstream[1]))))
    grads = tape.backward(loss) if loss.requires_grad else {}
    outputs = (frames.data, None if scores is None else scores.data)
    return outputs, [None if t is None else grads.get(t.tid) for t in (wv, b, words, wp)]


def encoded(raw, wv, b, words, wp, segments):
    return ad.encoded_maxsim(raw, wv, b, words, segments, weight=wp)


def encoded_composed(raw, wv, b, words, wp, segments):
    e = ad.add(ad.matmul(raw, wv), b)
    scores = None if words is None else ad.maxsim(e, words, segments, weight=wp)
    return ad.mean_reduce(e, axis=-2), scores


ENCODED_LEAF_CHOICES = [
    choice for choice in itertools.product((True, False), repeat=4) if any(choice)
]


class TestEncodedMaxSim:
    """``encoded_maxsim(raw, W_v, b, words, segments, weight=W_p)`` against
    the composition ``e = add(matmul(raw, W_v), b)``,
    ``maxsim(e, words, segments, weight=W_p)`` and ``mean_reduce(e, -2)``."""

    def instances(self, integer, seed):
        rng = np.random.default_rng(seed)
        for lead in TestMaxSim.LEADING:
            for count in range(1, 5):
                n_w = count + int(rng.integers(0, 4))
                cuts = np.sort(rng.choice(np.arange(1, n_w), size=count - 1, replace=False))
                segments = np.concatenate([[0], cuts, [n_w]])
                if integer:  # small integers: exact ties, and projected rows with zeros
                    raw = rng.integers(-1, 3, size=lead + (5, 3)).astype(float)
                    inputs = (
                        rng.integers(-1, 2, size=(3, 4)).astype(float),
                        rng.integers(-1, 2, size=4).astype(float),
                        rng.integers(0, 3, size=(n_w, 6)).astype(float),
                        rng.integers(-1, 2, size=(4, 6)).astype(float),
                    )
                else:
                    raw = rng.standard_normal(lead + (5, 3))
                    inputs = (
                        rng.standard_normal((3, 4)),
                        rng.standard_normal(4),
                        rng.standard_normal((n_w, 6)),
                        rng.standard_normal((4, 6)),
                    )
                upstream = (rng.standard_normal(lead + (4,)), rng.standard_normal(lead + (count,)))
                yield raw, inputs, segments, upstream

    @pytest.mark.parametrize("integer", [False, True])
    def test_forward_bitwise_equals_the_composition(self, integer):
        for raw, inputs, segments, upstream in self.instances(integer, 70):
            for weighted in (True, False):
                if not weighted:  # score the encoded patches themselves
                    inputs = inputs[:2] + (inputs[2][:, :4], None)
                (frames, scores), _ = encoded_maxsim_grads(
                    encoded, raw, inputs, segments, upstream, (False,) * 4
                )
                want, _ = encoded_maxsim_grads(
                    encoded_composed, raw, inputs, segments, upstream, (False,) * 4
                )
                assert frames.shape == raw.shape[:-2] + (4,)
                assert scores.shape == raw.shape[:-2] + (segments.size - 1,)
                assert np.array_equal(frames, want[0]) and np.array_equal(scores, want[1])

    @pytest.mark.parametrize("leaves", ENCODED_LEAF_CHOICES)
    @pytest.mark.parametrize("integer", [False, True])
    def test_gradients_match_the_composition(self, integer, leaves):
        for raw, inputs, segments, upstream in self.instances(integer, 71):
            args = (raw, inputs, segments, upstream, leaves)
            outputs, grads = encoded_maxsim_grads(encoded, *args)
            want_outputs, want_grads = encoded_maxsim_grads(encoded_composed, *args)
            assert all(np.array_equal(o, w) for o, w in zip(outputs, want_outputs))
            for leaf, got, want in zip(leaves, grads, want_grads):
                if not leaf:
                    assert got is None
                    continue
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("words", [True, False])
    def test_one_patch_matrix_per_chunk_changes_no_bit(self, monkeypatch, words):
        leaves = (True, True, words, True)
        cases = [
            (raw, inputs if words else inputs[:2] + (None, inputs[3]), segments, upstream, leaves)
            for integer, seed in ((True, 72), (False, 73))
            for raw, inputs, segments, upstream in self.instances(integer, seed)
        ]
        whole = [encoded_maxsim_grads(encoded, *args) for args in cases]
        monkeypatch.setattr(ad, "MAXSIM_CHUNK_VALUES", 1)
        for args, (want_outputs, want_grads) in zip(cases, whole):
            outputs, grads = encoded_maxsim_grads(encoded, *args)
            for got, want in zip(outputs + tuple(grads), want_outputs + tuple(want_grads)):
                assert (got is None and want is None) or np.array_equal(got, want)

    @pytest.mark.parametrize("integer", [False, True])
    def test_frames_only_without_words(self, integer):
        # the spatial stage off: one loop, one record, and the encoder
        # gradients of the frame mean alone
        for raw, (wv, b, _, wp), segments, upstream in self.instances(integer, 74):
            args = (raw, (wv, b, None, wp), segments, upstream, (True, True, False, True))
            (frames, scores), grads = encoded_maxsim_grads(encoded, *args)
            (want_frames, _), want_grads = encoded_maxsim_grads(encoded_composed, *args)
            assert scores is None and np.array_equal(frames, want_frames)
            for got, want in zip(grads[:2], want_grads[:2]):
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            assert grads[2:] == [None, None]
        tape = Tape()
        frames, scores = ad.encoded_maxsim(
            tape.constant(raw), tape.leaf(wv), tape.leaf(b), weight=tape.leaf(wp)
        )
        assert scores is None and [rec.op for rec in tape.records] == ["encode"]

    def test_two_single_output_records(self):
        raw, (wv, b, words, wp), segments, _ = next(self.instances(False, 75))
        tape = Tape()
        frames, scores = ad.encoded_maxsim(
            tape.constant(raw), tape.leaf(wv), tape.leaf(b), tape.constant(words), segments,
            weight=tape.leaf(wp),
        )
        assert [(rec.op, rec.output_id) for rec in tape.records] == [
            ("encode", frames.tid), ("maxsim", scores.tid)
        ]

    def test_a_tape_that_records_nothing_keeps_nothing(self):
        rng = np.random.default_rng(76)
        tape = Tape()
        frames, scores = ad.encoded_maxsim(
            tape.constant(rng.standard_normal((2, 5, 3))),
            tape.constant(rng.standard_normal((3, 3))),
            tape.constant(rng.standard_normal(3)),
            tape.constant(rng.standard_normal((4, 3))),
            [0, 1, 4],
            weight=tape.constant(rng.standard_normal((3, 3))),
        )
        assert frames.shape == (2, 3) and scores.shape == (2, 2)
        assert not (frames.requires_grad or scores.requires_grad) and tape.records == ()

    def test_finite_differences(self):
        rng = np.random.default_rng(77)
        raw = rng.standard_normal((2, 3, 4, 3))
        store = ParameterStore()
        store.register("wv", rng.standard_normal((3, 4)))
        store.register("b", rng.standard_normal(4))
        store.register("w", rng.standard_normal((7, 5)))
        store.register("wp", rng.standard_normal((4, 5)))
        upstream = (rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 3)))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            frames, scores = ad.encoded_maxsim(
                tape.constant(raw), leaves["wv"], leaves["b"], leaves["w"], [0, 1, 4, 7],
                weight=leaves["wp"],
            )
            return ad.add(
                ad.sum_reduce(ad.mul(frames, tape.constant(upstream[0]))),
                ad.sum_reduce(ad.mul(scores, tape.constant(upstream[1]))),
            )

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-6

    def test_raw_leaf_rejected(self):
        tape = Tape()
        with pytest.raises(AutodiffError, match="constant"):
            ad.encoded_maxsim(tape.leaf(np.ones((2, 3))), tape.leaf(np.eye(3)), tape.leaf(np.ones(3)))

    @pytest.mark.parametrize("weight_shape, bias_shape", [
        ((4, 3), (3,)), ((3,), (3,)), ((3, 3), (4,)), ((3, 3), (1, 3)), ((3, 3), ()),
    ])
    def test_encoder_shape_errors(self, weight_shape, bias_shape):
        tape = Tape()
        with pytest.raises(ShapeMismatchError):
            ad.encoded_maxsim(
                tape.constant(np.ones((2, 3))), tape.constant(np.ones(weight_shape)),
                tape.constant(np.ones(bias_shape)), tape.constant(np.ones((2, 3))),
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
        ad.clip(x, 0.0, 1.0), ad.matmul(x, w), ad.transpose(x), ad.maxsim(x, w, [0, 1, 3]),
        ad.maxsim(x, w, [0, 1, 3], weight=w),
        *ad.encoded_maxsim(tape.constant(x.data), w, ad.mean_reduce(w, 0), w, [0, 1, 3], weight=w),
        ad.l2_normalize(x), ad.max_reduce(x, 1), ad.mean_reduce(x, 1), ad.softmax(x),
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
        # one graph using transpose, stack, index_select, reshape, clip,
        # exp, log, div, mean/sum, log_softmax, l2_normalize and matmul
        rng = np.random.default_rng(4)
        store = ParameterStore()
        store.register("w", rng.standard_normal((4, 4)) * 0.3 + np.eye(4))
        store.register("v", rng.standard_normal(4))
        base = rng.standard_normal((3, 4))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            x = ad.matmul(tape.constant(base), ad.transpose(leaves["w"]))
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
