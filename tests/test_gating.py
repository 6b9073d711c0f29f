"""Gating head, sharpening, head combination, mixing, hard selection."""

import numpy as np
import pytest

from framegate.autodiff import Tape, Tensor, apply, backward, constant, grad_check
from framegate.gating import (GatingHead, SharpenParams, combine_heads, gate_weights,
                              hard_select, head_input, mix, sharpen)

TOL = 1e-5


def make_head(rng, d, hidden=8):
    return GatingHead(
        w1=rng.normal(0, 0.5, size=(2 * d, hidden)),
        b1=rng.normal(0, 0.5, size=hidden),
        w2=rng.normal(0, 0.5, size=(hidden, d)),
        b2=rng.normal(0, 0.5, size=d),
    )


def random_simplex(rng, d):
    raw = rng.random(d) + 1e-3
    return raw / raw.sum()


# ---- gate_weights ----

def test_zero_head_gives_uniform_weights():
    d = 6
    head = GatingHead(w1=np.zeros((2 * d, 8)), b1=np.zeros(8),
                      w2=np.zeros((8, d)), b2=np.zeros(d))
    w = gate_weights(np.ones(d), -np.ones(d), head)
    assert np.array_equal(w.data, np.full(d, 1.0 / d))


def test_gate_weights_on_simplex():
    rng = np.random.default_rng(3)
    head = make_head(rng, 5)
    for _ in range(50):
        w = gate_weights(rng.normal(size=5), rng.normal(size=5), head).data
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) < 1e-9


def test_gate_weights_permutation_equivariant():
    # Permuting the latent axis everywhere it appears in the head must
    # permute the output the same way.
    rng = np.random.default_rng(4)
    d, hidden = 5, 7
    head = make_head(rng, d, hidden)
    h_prev, h_curr = rng.normal(size=d), rng.normal(size=d)
    perm = rng.permutation(d)
    permuted = GatingHead(
        w1=np.concatenate([head.w1[:d][perm], head.w1[d:][perm]], axis=0),
        b1=head.b1,
        w2=head.w2[:, perm],
        b2=head.b2[perm],
    )
    base = gate_weights(h_prev, h_curr, head).data
    moved = gate_weights(h_prev[perm], h_curr[perm], permuted).data
    assert np.allclose(moved, base[perm], atol=1e-12)


def test_gate_weights_see_only_the_change():
    # The head reads curr - prev: an offset shared by both latents leaves the
    # weights alone, while scaling the change moves them.
    rng = np.random.default_rng(5)
    head = make_head(rng, 6)
    h_prev, h_curr = rng.normal(size=6), rng.normal(size=6)
    base = gate_weights(h_prev, h_curr, head).data
    offset = rng.normal(size=6) * 10.0
    shifted = gate_weights(h_prev + offset, h_curr + offset, head).data
    assert np.allclose(shifted, base, atol=1e-12)
    assert not np.allclose(gate_weights(h_prev, 3.0 * h_curr, head).data, base)


def test_head_input_stacks_change_and_its_square():
    rng = np.random.default_rng(6)
    h_prev, h_curr = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    rows = head_input(h_prev, h_curr).data
    delta = h_curr - h_prev
    assert np.allclose(rows, np.concatenate([delta, delta * delta], axis=1), atol=1e-15)
    assert np.array_equal(head_input(h_prev[1], h_curr[1]).data, rows[1])


def test_gate_weights_rejects_bad_shapes():
    head = make_head(np.random.default_rng(0), 4)
    with pytest.raises(ValueError, match="differ"):
        gate_weights(np.zeros(4), np.zeros(5), head)
    with pytest.raises(ValueError, match="differ"):
        gate_weights(np.zeros((2, 4)), np.zeros((3, 4)), head)


def test_gate_weights_of_a_row_block_match_each_row():
    rng = np.random.default_rng(7)
    head = make_head(rng, 4)
    h_prev, h_curr = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    rows = gate_weights(h_prev, h_curr, head).data
    for i in range(3):
        assert np.allclose(rows[i], gate_weights(h_prev[i], h_curr[i], head).data, atol=1e-15)


# ---- sharpen ----

def test_sharpen_gamma_one_no_noise_is_identity():
    w = Tensor(np.array([0.5, 0.5]))
    out = sharpen(w, SharpenParams(gamma=1.0, sigma=0.0))
    assert out is w


def test_sharpen_gamma_two_frozen_example():
    out = sharpen(np.array([0.8, 0.2]), SharpenParams(gamma=2.0)).data
    assert np.allclose(out, [16 / 17, 1 / 17], atol=1e-12)


def test_sharpen_large_gamma_saturates():
    out = sharpen(np.array([0.6, 0.4]), SharpenParams(gamma=64.0)).data
    assert out.max() >= 0.999


def sharpen_oracle(w, gamma):
    # Straight scalar transcription of the sharpening rule, kept independent
    # of the tensor primitives on purpose.
    base = [max(x, 1e-12) ** gamma for x in w]
    total = sum(base)
    return np.array([b / total for b in base])


def test_sharpen_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 12))
        w = random_simplex(rng, d)
        for gamma in (1.0, 2.0, 4.0, 16.0, 64.0):
            got = sharpen(w, SharpenParams(gamma=gamma)).data
            assert np.abs(got - sharpen_oracle(w, gamma)).max() <= 1e-12


def test_sharpen_argmax_invariant_without_noise():
    rng = np.random.default_rng(12)
    for _ in range(200):
        w = random_simplex(rng, 8)
        if np.sum(w == w.max()) > 1:
            continue
        for gamma in (1.0, 3.0, 17.0):
            assert hard_select(sharpen(w, SharpenParams(gamma=gamma))) == hard_select(w)


def entropy(p):
    p = np.clip(p, 1e-300, None)
    return float(-(p * np.log(p)).sum())


def test_sharpen_entropy_non_increasing_in_gamma():
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = random_simplex(rng, 6)
        ents = [entropy(sharpen(w, SharpenParams(gamma=g)).data)
                for g in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b - 1e-12 for a, b in zip(ents, ents[1:]))


def test_sharpen_stays_on_simplex_with_noise():
    rng = np.random.default_rng(14)
    params = SharpenParams(gamma=3.0, sigma=0.5)
    for _ in range(100):
        out = sharpen(random_simplex(rng, 10), params, rng).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-9


def test_sharpen_rows_normalize_independently():
    rows = np.stack([np.array([0.8, 0.2]), np.array([0.25, 0.75])])
    out = sharpen(rows, SharpenParams(gamma=2.0)).data
    assert np.allclose(out[0], [16 / 17, 1 / 17], atol=1e-12)
    assert np.allclose(out[1], sharpen_oracle([0.25, 0.75], 2.0), atol=1e-12)


def test_sharpen_noise_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        sharpen(np.array([0.5, 0.5]), SharpenParams(gamma=2.0, sigma=0.1))


def test_sharpen_params_validated():
    with pytest.raises(ValueError, match="gamma"):
        SharpenParams(gamma=0.5)
    with pytest.raises(ValueError, match="sigma"):
        SharpenParams(gamma=1.0, sigma=-0.1)
    with pytest.raises(ValueError, match="gamma"):
        SharpenParams(gamma=float("nan"))
    with pytest.raises(ValueError, match="sigma"):
        SharpenParams(gamma=1.0, sigma=float("nan"))


# ---- combine_heads / mix / hard_select ----

def test_combine_single_head_passthrough():
    w = Tensor(np.array([0.3, 0.7]))
    assert combine_heads([w]) is w


def test_combine_disjoint_one_hots():
    m = combine_heads([np.eye(3)[0], np.eye(3)[2]]).data
    assert np.array_equal(m, [1.0, 0.0, 1.0])


def test_combine_two_half_heads():
    m = combine_heads([np.full(2, 0.5), np.full(2, 0.5)]).data
    assert np.allclose(m, [0.75, 0.75], atol=1e-15)


def test_combine_rejects_empty():
    with pytest.raises(ValueError):
        combine_heads([])


def test_combine_monotone_in_each_component():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b = rng.random(5), rng.random(5)
        base = combine_heads([a, b]).data
        bumped = a.copy()
        i = int(rng.integers(5))
        bumped[i] = min(1.0, bumped[i] + 0.1)
        assert combine_heads([bumped, b]).data[i] >= base[i] - 1e-12


def test_mix_one_hot_swaps_single_component():
    h_prev = np.array([1.0, 2.0, 3.0])
    h_curr = np.array([10.0, 20.0, 30.0])
    out = mix(h_prev, h_curr, np.eye(3)[1]).data
    assert np.array_equal(out, [1.0, 20.0, 3.0])


def test_mix_endpoints_exact():
    rng = np.random.default_rng(22)
    h_prev, h_curr = rng.normal(size=6), rng.normal(size=6)
    assert np.array_equal(mix(h_prev, h_curr, np.zeros(6)).data, h_prev)
    assert np.array_equal(mix(h_prev, h_curr, np.ones(6)).data, h_curr)


def test_mix_bounded_by_inputs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        h_prev, h_curr = rng.normal(size=4), rng.normal(size=4)
        m = rng.random(4)
        out = mix(h_prev, h_curr, m).data
        lo = np.minimum(h_prev, h_curr) - 1e-12
        hi = np.maximum(h_prev, h_curr) + 1e-12
        assert ((out >= lo) & (out <= hi)).all()


def test_hard_select_examples():
    assert hard_select(np.array([0.1, 0.7, 0.2])) == 1
    assert hard_select(np.array([0.5, 0.5])) == 0
    assert hard_select(np.array([[0.1, 0.7, 0.2], [0.5, 0.2, 0.5]])).tolist() == [1, 0]
    with pytest.raises(ValueError):
        hard_select(np.array([]))


def test_hard_select_commutes_with_sharpen():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        w = random_simplex(rng, 7)
        if np.sum(w == w.max()) > 1:
            continue
        gamma = float(rng.uniform(1.0, 32.0))
        assert hard_select(sharpen(w, SharpenParams(gamma=gamma))) == hard_select(w)


# ---- Gradients ----

def weighted(t, coeffs):
    return apply("sum", [apply("hadamard", [t, constant(coeffs)])])


def test_gate_weights_gradient_each_argument():
    rng = np.random.default_rng(31)
    d, hidden = 4, 5
    arrays = {
        "h_prev": rng.normal(size=d), "h_curr": rng.normal(size=d),
        "w1": rng.normal(0, 0.5, size=(2 * d, hidden)), "b1": rng.normal(size=hidden),
        "w2": rng.normal(0, 0.5, size=(hidden, d)), "b2": rng.normal(size=d),
    }
    cot = rng.normal(size=d)
    for name in arrays:
        def f(leaf, vary=name):
            vals = dict(arrays)
            vals[vary] = leaf
            head = GatingHead(vals["w1"], vals["b1"], vals["w2"], vals["b2"])
            return weighted(gate_weights(vals["h_prev"], vals["h_curr"], head), cot)

        # The head reads delta * delta, whose small entries leave some w1
        # coordinates near 1e-8, where rounding in central differences at a
        # step of 1e-6 already costs 1e-5; a step of 1e-5 resolves them.
        assert grad_check(f, arrays[name], step=1e-5) <= TOL, name


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_sharpen_gradient_with_frozen_noise(sigma):
    rng = np.random.default_rng(32)
    w0 = random_simplex(rng, 6)
    cot = rng.normal(size=6)
    params = SharpenParams(gamma=3.0, sigma=sigma)

    def f(leaf):
        noise_rng = np.random.default_rng(99)  # same draw every call
        return weighted(sharpen(leaf, params, noise_rng), cot)

    assert grad_check(f, w0) <= TOL


def test_combine_and_mix_gradient_each_argument():
    rng = np.random.default_rng(33)
    arrays = {
        "wa": random_simplex(rng, 5), "wb": random_simplex(rng, 5),
        "h_prev": rng.normal(size=5), "h_curr": rng.normal(size=5),
    }
    cot = rng.normal(size=5)
    for name in arrays:
        def f(leaf, vary=name):
            vals = dict(arrays)
            vals[vary] = leaf
            mask = combine_heads([vals["wa"], vals["wb"]])
            return weighted(mix(vals["h_prev"], vals["h_curr"], mask), cot)

        assert grad_check(f, arrays[name]) <= TOL, name
