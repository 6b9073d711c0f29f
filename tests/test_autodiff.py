"""Tensor engine: forward values, tape behavior, gradients against central differences."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from framegate.autodiff import (CLAMP_MIN, PRIMITIVE_KINDS, ShapeMismatch, Tape, Tensor,
                                _forward, apply, backward, constant, grad_check)
from framegate.streams import stream

TOL = 1e-5
STEP = 1e-6


# ---- Forward values ----

def test_matmul_identity_is_identity():
    v = np.array([3.0, -1.0, 2.5])
    out = apply("matmul", [np.eye(3), v])
    assert np.array_equal(out.data, v)


def test_matmul_matrix_matrix():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(apply("matmul", [a, b]).data, a @ b)


def test_add_sub_hadamard_elementwise():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([10.0, 20.0, 30.0])
    assert np.array_equal(apply("add", [a, b]).data, a + b)
    assert np.array_equal(apply("sub", [a, b]).data, a - b)
    assert np.array_equal(apply("hadamard", [a, b]).data, a * b)


def test_add_broadcasts_vector_over_rows():
    m = np.arange(6.0).reshape(2, 3)
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(apply("add", [m, v]).data, m + v)


def test_scalar_pow_clamps_base():
    out = apply("scalar-pow", [np.array([4.0, 0.0, -3.0])], {"exponent": 2.0})
    assert out.data[0] == 16.0
    assert out.data[1] == CLAMP_MIN ** 2
    assert out.data[2] == CLAMP_MIN ** 2


def test_relu_zero_gradient_convention():
    tape = Tape()
    x = tape.leaf(np.array([-1.0, 0.0, 2.0]))
    loss = apply("sum", [apply("relu", [x])])
    grads = backward(loss)
    assert np.array_equal(grads[x.node], [0.0, 0.0, 1.0])


def test_sigmoid_is_half_at_zero():
    assert apply("sigmoid", [np.zeros(4)]).data.tolist() == [0.5] * 4


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7))
    out = apply("softmax", [x], {"axis": -1}).data
    assert np.allclose(out.sum(axis=-1), 1.0)
    assert (out > 0).all()


def test_softmax_uniform_on_equal_scores():
    out = apply("softmax", [np.zeros(8)], {"axis": -1}).data
    assert np.array_equal(out, np.full(8, 1.0 / 8))


def test_concat_and_slice_roundtrip():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0, 5.0])
    joined = apply("concat", [a, b], {"axis": 0})
    assert np.array_equal(joined.data, [1, 2, 3, 4, 5])
    back = apply("slice", [joined], {"axis": 0, "range": (2, 5)})
    assert np.array_equal(back.data, b)


def test_sum_and_mse_are_scalars():
    total = apply("sum", [np.ones((3, 4))])
    assert total.shape == () and total.item() == 12.0
    err = apply("mean-squared-error", [np.array([1.0, 0.0]), np.zeros(2)])
    assert err.shape == () and err.item() == 0.5


def test_mse_identical_inputs_is_zero():
    x = np.random.default_rng(1).normal(size=10)
    assert apply("mean-squared-error", [x, x.copy()]).item() == 0.0


# ---- Contracts ----

def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown primitive"):
        apply("transpose", [np.eye(2)])


def test_shape_mismatch_names_shapes():
    with pytest.raises(ShapeMismatch, match=r"\(2,\).*\(3,\)"):
        apply("add", [np.zeros(2), np.zeros(3)])
    with pytest.raises(ShapeMismatch):
        apply("matmul", [np.zeros((2, 3)), np.zeros((2, 3))])
    with pytest.raises(ShapeMismatch):
        apply("hadamard", [np.zeros((2, 3)), np.zeros(3)])
    # A vector broadcasts over a matrix's rows only as the second input.
    for kind in ("add", "sub"):
        with pytest.raises(ShapeMismatch, match=rf"{kind}: shapes \(3,\) and \(2, 3\) do not conform"):
            apply(kind, [np.zeros(3), np.zeros((2, 3))])


def test_slice_range_validated():
    with pytest.raises(ShapeMismatch):
        apply("slice", [np.zeros(4)], {"axis": 0, "range": (2, 6)})
    with pytest.raises(ShapeMismatch):
        apply("slice", [np.zeros(4)], {"axis": 0, "range": (3, 3)})
    with pytest.raises(ShapeMismatch, match=r"slice: axis 1 out of range for shape \(4,\)"):
        apply("slice", [np.zeros(4)], {"axis": 1, "range": (0, 2)})


@pytest.mark.parametrize("call, error, match", [
    (lambda: Tensor(np.zeros(2)).item(), ValueError,
     r"item\(\) needs a one-element tensor, got shape \(2,\)"),
    (lambda: apply("relu", [np.zeros(2), np.zeros(2)]), ShapeMismatch,
     "relu takes exactly one input"),
    (lambda: apply("matmul", [np.zeros((2, 2))]), ShapeMismatch,
     "matmul takes exactly two inputs"),
    (lambda: apply("matmul", [np.zeros((2, 2, 2)), np.zeros((2, 2))]), ShapeMismatch,
     r"matmul supports vectors and matrices, got \(2, 2, 2\) and \(2, 2\)"),
    (lambda: apply("scalar-pow", [np.ones(2)]), ValueError,
     "scalar-pow needs an 'exponent' attribute"),
    (lambda: apply("softmax", [np.zeros((2, 3))], {"axis": 2}), ShapeMismatch,
     r"softmax: axis 2 out of range for shape \(2, 3\)"),
    (lambda: apply("concat", [np.zeros(2)]), ShapeMismatch,
     "concat takes at least two inputs"),
    (lambda: apply("concat", [np.zeros(2), np.zeros(3)], {"axis": 1}), ShapeMismatch,
     r"concat: axis 1 out of range for shape \(2,\)"),
    (lambda: apply("concat", [np.zeros((2, 3)), np.zeros(3)]), ShapeMismatch,
     r"concat: ranks differ, \(2, 3\) vs \(3,\)"),
    (lambda: apply("concat", [np.zeros((2, 3)), np.zeros((2, 4))]), ShapeMismatch,
     r"concat: shapes \(2, 3\) and \(2, 4\) disagree off axis 0"),
], ids=["item", "relu-arity", "matmul-arity", "matmul-rank", "pow-exponent", "softmax-axis",
        "concat-arity", "concat-axis", "concat-rank", "concat-shape"])
def test_refusals_name_the_problem(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("attrs, missing", [({"range": (0, 2)}, "axis"),
                                            ({"axis": 0}, "range"), ({}, "axis")])
def test_slice_refuses_a_missing_attribute(attrs, missing):
    with pytest.raises(ValueError, match=f"slice is missing its '{missing}' attribute"):
        apply("slice", [np.zeros(4)], attrs)


def test_backward_requires_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    y = apply("relu", [x])
    with pytest.raises(ValueError, match="scalar"):
        backward(y)


def test_constant_only_loss_gives_empty_map():
    loss = apply("sum", [constant(np.ones(4))])
    assert backward(loss) == {}


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ValueError, match="different tapes"):
        apply("add", [a, b])


def test_backward_skips_records_off_the_loss_path():
    # A record whose output the loss never reads gets no adjoint, so its vjp
    # is never called and the leaves' gradients are those of the tape without it.
    def leaf_grads(detour):
        tape = Tape()
        x = tape.leaf(np.array([1.0, -2.0, 3.0]))
        w = tape.leaf(np.array([0.5, 0.25, 2.0]))
        h = apply("hadamard", [x, w])
        if detour:
            apply("tanh", [h])

            def called(grad, needs):
                raise AssertionError("vjp of a record off the loss path was called")
            tape.records[-1].vjp = called
        return backward(apply("sum", [apply("relu", [h])]))

    plain, detoured = leaf_grads(False), leaf_grads(True)
    assert plain.keys() == detoured.keys() == {0, 1}
    assert all(np.array_equal(plain[nid], detoured[nid]) for nid in plain)


def test_unreachable_leaf_gets_zero_gradient():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    unused = tape.leaf(np.array([5.0]))
    loss = apply("sum", [x])
    grads = backward(loss)
    assert np.array_equal(grads[x.node], [1.0, 1.0])
    assert np.array_equal(grads[unused.node], [0.0])


def record_every_kind(tape):
    """Apply each primitive once on `tape`; returns every output, the scalar loss last."""
    rng = np.random.default_rng(3)
    x = tape.leaf(rng.normal(size=(4, 3)))
    w = tape.leaf(rng.normal(size=(3, 3)))
    outs, kinds = [], []

    def rec(kind, inputs, attrs=None):
        kinds.append(kind)
        outs.append(apply(kind, inputs, attrs))
        return outs[-1]

    h = rec("sub", [rec("add", [rec("matmul", [x, w]), rng.normal(size=3)]), x])
    p = rec("scalar-pow", [rec("hadamard", [h, h])], {"exponent": 0.5})
    g = rec("concat", [rec("relu", [h]), rec("tanh", [p]), rec("sigmoid", [x])], {"axis": 1})
    s = rec("softmax", [rec("slice", [g], {"axis": 1, "range": (2, 7)})], {"axis": -1})
    rec("add", [rec("sum", [s]), rec("mean-squared-error", [s, rng.normal(size=(4, 5))])])
    assert set(kinds) == PRIMITIVE_KINDS and outs[-1].shape == ()
    return outs


def test_tape_is_freed_once_its_handles_are_gone():
    # No primitive's vjp holds a Tensor or the tape, so no reference cycle
    # runs through the records: refcounting alone frees the tape and every
    # array it recorded, with the cyclic collector off.
    gc.disable()
    try:
        tape = Tape()
        outs = record_every_kind(tape)
        grads = backward(outs[-1])
        assert len(grads) == 2
        freed = weakref.ref(tape)
        del tape, outs
        assert freed() is None
    finally:
        gc.enable()


def test_node_ids_topologically_ordered():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    y = apply("hadamard", [x, x])
    c = apply("add", [y, constant(np.ones(3))])
    z = apply("sum", [c])
    assert tape.records[1].input_ids == (y.node, None)
    for rec in tape.records:
        assert all(i < rec.output_id for i in rec.input_ids if i is not None)
    assert z.node == tape.num_nodes - 1
    assert tape.num_nodes == len(tape.leaves) + len(tape.records)


def test_backward_leaves_every_recorded_array_bit_identical():
    # A vjp reads the arrays it holds and never writes them: the leaves and
    # every output read the same bytes after backward, and a second sweep
    # gives the same gradients.
    tape = Tape()
    outs = record_every_kind(tape)
    arrays = list(tape.leaves.values()) + [t.data for t in outs]
    before = [arr.tobytes() for arr in arrays]
    first = backward(outs[-1])
    assert [arr.tobytes() for arr in arrays] == before
    second = backward(outs[-1])
    assert all(first[nid].tobytes() == second[nid].tobytes() for nid in tape.leaves)


def test_backward_frees_each_adjoint_once_its_record_has_consumed_it():
    # x -> relu -> hadamard -> relu -> hadamard -> sum: every vjp allocates
    # the gradient it hands down. When the k-th vjp of the sweep runs, the
    # gradient of the one before it is its input and every earlier one is
    # gone; the gradients match those of an unwrapped sweep of the same tape.
    tape = Tape()
    rng = np.random.default_rng(5)
    x = tape.leaf(rng.normal(size=(3, 4)))
    y = x
    for _ in range(2):
        y = apply("hadamard", [apply("relu", [y]), rng.normal(size=(3, 4))])
    loss = apply("sum", [y])
    plain = backward(loss)

    handed, dead = [], []

    def wrapped(vjp):
        def call(grad, needs):
            dead.append([ref() is None for ref in handed])
            out = vjp(grad, needs)
            handed.extend(weakref.ref(g) for g in out if g is not None)
            return out
        return call

    for rec in tape.records:
        rec.vjp = wrapped(rec.vjp)
    swept = backward(loss)
    assert dead == [[True] * (k - 1) + [False] * (k > 0) for k in range(len(tape.records))]
    assert swept[x.node].tobytes() == plain[x.node].tobytes()


def test_no_recording_without_differentiable_inputs():
    tape = Tape()
    tape.leaf(np.ones(2))  # unrelated leaf
    out = apply("add", [constant(np.ones(2)), constant(np.ones(2))])
    assert out.node is None
    assert tape.records == []


@pytest.mark.parametrize("kind, shapes", [("matmul", ((3, 4), (4, 2))),
                                          ("matmul", ((4,), (4, 2))),
                                          ("hadamard", ((2, 3), (2, 3))),
                                          ("sub", ((2, 3), (3,))),
                                          ("mean-squared-error", ((5,), (5,))),
                                          ("add", ((2, 3), (3,))),
                                          ("concat", ((2, 3), (4, 3))),
                                          ("matmul", ((3, 4), (4,))),
                                          ("matmul", ((0, 4), (4, 2)))])
@pytest.mark.parametrize("slot", [0, 1])
def test_backward_skips_inputs_that_need_no_gradient(kind, shapes, slot):
    # The vjp that _forward returns computes only the flagged inputs' gradients.
    rng = np.random.default_rng(8)
    inputs = [rng.normal(size=shape) for shape in shapes]
    output, vjp = _forward(kind, inputs, {})
    grad = rng.normal(size=output.shape)
    full = vjp(grad, [True, True])
    assert [g.shape for g in full] == list(shapes)
    needs = [i != slot for i in range(2)]
    partial = vjp(grad, needs)
    assert partial[slot] is None
    assert np.array_equal(partial[1 - slot], full[1 - slot])


def test_tensor_keeps_float64_contiguous_arrays_and_converts_others():
    a = np.arange(6.0).reshape(2, 3)
    assert Tensor(a).data is a
    for other in (a.T, np.arange(6).reshape(2, 3), [[0.0, 1.0]], 2.0):
        data = Tensor(other).data
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert np.array_equal(data, np.asarray(other, dtype=np.float64))
    assert Tensor(2.0).data.shape == ()


# ---- Memory a primitive holds ----

# 16,384 values (128 KiB) per array: below numpy's 256 KiB threshold for
# reusing a temporary's buffer, so each count below is what the code asks for.
MEMORY_N = 1 << 14
SLACK = 4096


def _traced(fn):
    """fn's result, then how far traced memory grew and peaked above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - start, peak - start


def test_mse_record_keeps_its_inputs_and_no_copy_of_their_difference():
    # Both inputs of the model's loss are already held by other records.
    rng = np.random.default_rng(6)
    tape = Tape()
    a, b = tape.leaf(rng.normal(size=MEMORY_N)), rng.normal(size=MEMORY_N)
    loss, grown, _ = _traced(lambda: apply("mean-squared-error", [a, constant(b)]))
    assert grown < MEMORY_N * 8
    assert backward(loss)[a.node].tobytes() == ((a.data - b) * (2.0 / MEMORY_N)).tobytes()


def test_sigmoid_runs_in_place_on_its_output():
    x = np.random.default_rng(7).normal(size=MEMORY_N)
    y, _, peak = _traced(lambda: apply("sigmoid", [x]))
    assert peak <= MEMORY_N * 8 + SLACK
    assert y.data.tobytes() == (0.5 * (np.tanh(0.5 * x) + 1.0)).tobytes()


def test_sigmoid_vjp_holds_its_result_and_one_temporary():
    rng = np.random.default_rng(8)
    tape = Tape()
    y = apply("sigmoid", [tape.leaf(rng.normal(size=MEMORY_N))])
    grad = rng.normal(size=MEMORY_N)
    (local,), _, peak = _traced(lambda: tape.records[-1].vjp(grad, [True]))
    assert peak <= 2 * MEMORY_N * 8 + SLACK
    assert local.tobytes() == (grad * y.data * (1.0 - y.data)).tobytes()


# ---- Frozen oracle values ----

def test_mse_gradient_example():
    tape = Tape()
    x = tape.leaf(np.array([2.0]))
    loss = apply("mean-squared-error", [x, np.zeros(1)])
    grads = backward(loss)
    assert np.array_equal(grads[x.node], [4.0])  # d/dx mean((x-0)^2) = 2x


def test_sum_of_square_gradient_is_two_x():
    tape = Tape()
    x = tape.leaf(np.array([3.0, -2.0, 0.5]))
    loss = apply("sum", [apply("hadamard", [x, x])])
    grads = backward(loss)
    assert np.allclose(grads[x.node], [6.0, -4.0, 1.0], atol=0, rtol=0)


def test_gradient_accumulates_over_shared_input():
    tape = Tape()
    x = tape.leaf(np.array([1.5]))
    # x used twice: loss = sum(x + x) -> grad 2
    loss = apply("sum", [apply("add", [x, x])])
    assert backward(loss)[x.node][0] == 2.0


# ---- grad_check harness ----

def test_grad_check_constant_function_is_zero():
    err = grad_check(lambda z: constant(np.asarray(3.0)), np.array([1.0, -2.0]), STEP)
    assert err == 0.0


def _weighted_sum(t, weights):
    return apply("sum", [apply("hadamard", [t, constant(weights)])])


def _simplex(rng, n):
    u = rng.uniform(0.1, 1.0, n)
    return u / u.sum()


def _random_case(kind, rng):
    """(f, point) pairs exercising one primitive with a random cotangent."""
    if kind == "matmul":
        b = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 3))
        cot_a = rng.normal(size=(5, 4))
        cot_b = rng.normal(size=(3, 3))
        cot_v = rng.normal(size=4)
        cot_u = rng.normal(size=3)
        v = rng.normal(size=4)
        cot_m = rng.normal(size=5)
        return [
            (lambda t: _weighted_sum(apply("matmul", [t, constant(b)]), cot_a), rng.normal(size=(5, 3))),
            (lambda t: _weighted_sum(apply("matmul", [constant(b), t]), cot_b), rng.normal(size=(4, 3))),
            (lambda t: _weighted_sum(apply("matmul", [constant(w), t]), cot_v), rng.normal(size=3)),
            (lambda t: _weighted_sum(apply("matmul", [t, constant(w)]), cot_u), rng.normal(size=4)),
            (lambda t: _weighted_sum(apply("matmul", [t, constant(v)]), cot_m), rng.normal(size=(5, 4))),
        ]
    if kind in ("add", "sub"):
        other = rng.normal(size=(4, 3))
        vec = rng.normal(size=3)
        cot = rng.normal(size=(4, 3))
        return [
            (lambda t: _weighted_sum(apply(kind, [t, constant(other)]), cot), rng.normal(size=(4, 3))),
            (lambda t: _weighted_sum(apply(kind, [constant(other), t]), cot), rng.normal(size=3)),
        ]
    if kind == "hadamard":
        other = rng.normal(size=6)
        cot = rng.normal(size=6)
        return [(lambda t: _weighted_sum(apply(kind, [t, constant(other)]), cot), rng.normal(size=6))]
    if kind == "scalar-pow":
        exponent = float(rng.choice([2.0, 3.0, 0.5, -1.0, 1.0]))
        cot = rng.normal(size=5)
        # keep bases away from the clamp kink
        point = rng.uniform(0.1, 2.0, 5)
        return [(lambda t: _weighted_sum(apply(kind, [t], {"exponent": exponent}), cot), point)]
    if kind == "relu":
        cot = rng.normal(size=8)
        point = rng.normal(size=8)
        point[np.abs(point) < 1e-4] = 0.1  # keep clear of the kink
        return [(lambda t: _weighted_sum(apply(kind, [t]), cot), point)]
    if kind in ("tanh", "sigmoid"):
        cot = rng.normal(size=8)
        return [(lambda t: _weighted_sum(apply(kind, [t]), cot), rng.normal(size=8))]
    if kind == "softmax":
        cot = rng.normal(size=(3, 5))
        return [(lambda t: _weighted_sum(apply(kind, [t], {"axis": -1}), cot), rng.normal(size=(3, 5)))]
    if kind == "concat":
        other = rng.normal(size=(2, 3))
        cot = rng.normal(size=(5, 3))
        return [(lambda t: _weighted_sum(apply(kind, [t, constant(other)], {"axis": 0}), cot),
                 rng.normal(size=(3, 3)))]
    if kind == "slice":
        cot = rng.normal(size=(2, 4))
        return [(lambda t: _weighted_sum(apply(kind, [t], {"axis": 0, "range": (1, 3)}), cot),
                 rng.normal(size=(5, 4)))]
    if kind == "sum":
        return [(lambda t: apply(kind, [t]), rng.normal(size=(3, 3)))]
    if kind == "mean-squared-error":
        other = rng.normal(size=7)
        return [
            (lambda t: apply(kind, [t, constant(other)]), rng.normal(size=7)),
            (lambda t: apply(kind, [constant(other), t]), rng.normal(size=7)),
        ]
    raise AssertionError(f"no case for {kind}")


def _analytic_grad(f, point):
    tape = Tape()
    leaf = tape.leaf(np.asarray(point, dtype=float).copy())
    grads = backward(f(leaf))
    return grads.get(leaf.node, np.zeros_like(leaf.data))


@pytest.mark.parametrize("kind", sorted(PRIMITIVE_KINDS))
def test_primitive_gradients_match_central_differences(kind):
    # 100 random inputs per primitive, spread over its variants, and at least
    # 25 for each variant.  Central differences at STEP carry absolute
    # roundoff noise near 1e-9 here, so a coordinate whose true gradient sits
    # in (0, 1e-3) cannot be resolved to TOL however correct the adjoint is;
    # redraw those points.  Exact zeros are fine: the loss ignores that
    # coordinate and both sides agree on 0.
    rng = stream(0, kind)
    done = {}
    attempts = 0
    while not done or sum(done.values()) < 100 or min(done.values()) < 25:
        attempts += 1
        assert attempts < 2000, "too many ill-conditioned draws"
        for variant, (f, point) in enumerate(_random_case(kind, rng)):
            done.setdefault(variant, 0)
            grad = _analytic_grad(f, point)
            if np.any((grad != 0.0) & (np.abs(grad) < 1e-3)):
                continue
            assert grad_check(f, point, STEP) <= TOL
            done[variant] += 1


def test_grad_check_catches_a_wrong_gradient():
    # relu forward with a deliberately wrong backward stand-in: tanh loss says
    # the harness itself can tell right from wrong.
    f_good = lambda t: apply("sum", [apply("tanh", [t])])
    f_bad = lambda t: apply("sum", [apply("tanh", [apply("hadamard", [t, constant([1.0, 1.0, 1.001])])])])
    point = np.array([0.3, -0.4, 0.9])
    assert grad_check(f_good, point, STEP) <= TOL
    # mismatched function pair: analytic grad of f_bad vs numeric of f_bad agrees,
    # but f_good numeric vs f_bad analytic would not; emulate by comparing values.
    tape = Tape()
    leaf = tape.leaf(point)
    grads = backward(f_bad(leaf))
    assert not np.allclose(grads[leaf.node], np.cosh(point) ** -2, rtol=1e-6)
