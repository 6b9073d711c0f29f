"""Dense float64 tensors with a recorded tape and reverse-mode gradients.

Values are contiguous row-major numpy arrays. `apply` runs one primitive and
records it on a tape whenever one of its inputs is tracked there. Each
primitive is defined once, in `_forward`, which returns its output and its
vector-Jacobian product (vjp); a record holds that vjp, with its input and
output node ids. `backward` walks the records in reverse, calling each vjp,
and returns d(loss)/d(leaf) for every leaf registered on that tape. The
primitive set is deliberately small: exactly what a dense two-frame
autoencoder with sharpened gating needs.

A tape is single-threaded. Distinct tapes share nothing and may live on
distinct threads.
"""

from __future__ import annotations

import numpy as np

# Floor applied to scalar-pow bases so fractional and negative exponents stay finite.
CLAMP_MIN = 1e-12

PRIMITIVE_KINDS = frozenset({
    "matmul",
    "add",
    "sub",
    "hadamard",
    "scalar-pow",
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "concat",
    "slice",
    "sum",
    "mean-squared-error",
})


class ShapeMismatch(ValueError):
    """Input shapes do not conform to the requested primitive."""


_FLOAT64 = np.dtype(np.float64)


def _as_array(data) -> np.ndarray:
    if type(data) is np.ndarray and data.dtype is _FLOAT64 and data.flags.c_contiguous:
        return data
    # order="C" keeps 0-d arrays 0-d (ascontiguousarray would promote them).
    return np.asarray(data, dtype=_FLOAT64, order="C")


class Tensor:
    """A dense array, optionally tracked as a node on a tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "Tape | None" = None, node: int | None = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))


def constant(data) -> Tensor:
    """Tensor that never tracks gradients."""
    return Tensor(data)


class Record:
    """One primitive application: its inputs' node ids (None for a constant),
    its vector-Jacobian product and its output's node id."""

    __slots__ = ("input_ids", "vjp", "output_id")

    def __init__(self, input_ids: tuple[int | None, ...], vjp, output_id: int):
        self.input_ids = input_ids
        self.vjp = vjp
        self.output_id = output_id


class Tape:
    """Ordered log of primitive applications, plus the arrays of its leaves.

    Node ids are assigned in creation order, so inputs always precede the
    outputs that consume them and the record list is already topologically
    sorted for the backward sweep. Only leaves and record outputs take ids.

    Leaf handles point at their tape and the tape keeps only their arrays,
    so with no cycle between them a tape is freed as soon as its last handle
    goes, rather than at the next full garbage collection.
    """

    def __init__(self):
        self.leaves: dict[int, np.ndarray] = {}
        self.records: list[Record] = []
        self.num_nodes = 0

    def leaf(self, data) -> Tensor:
        """Register a differentiable leaf (a parameter) and return its handle."""
        arr = _as_array(data)
        node = self.num_nodes
        self.num_nodes += 1
        self.leaves[node] = arr
        return Tensor(arr, tape=self, node=node)


def _inputs(kind: str, arrays: list[np.ndarray], count: int) -> list[np.ndarray]:
    """The inputs of a primitive that takes exactly `count` of them."""
    if len(arrays) != count:
        raise ShapeMismatch(f"{kind} takes exactly {('one input', 'two inputs')[count - 1]}")
    return arrays


def _pair(kind: str, arrays: list[np.ndarray], allow_row_broadcast: bool) -> list[np.ndarray]:
    """The two inputs of an elementwise primitive, checked to conform."""
    a, b = _inputs(kind, arrays, 2)
    if a.shape == b.shape:
        return arrays
    # A second-input vector may broadcast across the rows of a matrix (bias
    # terms in batched affine layers). Nothing wider than that.
    if allow_row_broadcast and a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return arrays
    raise ShapeMismatch(f"{kind}: shapes {a.shape} and {b.shape} do not conform")


def _forward(kind: str, arrays: list[np.ndarray], attrs: dict):
    """Check the inputs of one primitive, then return its output and its vjp.

    `vjp(grad, needs)` maps the output's gradient to one entry per input: that
    input's gradient where `needs` is set, None elsewhere. A record exists
    only when some input needs a gradient, so single-input kinds always
    compute theirs. A vjp holds arrays and plain values only, never a Tensor
    or a tape, and only what its gradient reads.

    Messages are formatted only on failure: apply runs this on every call.
    """
    if kind == "matmul":
        a, b = _inputs(kind, arrays, 2)
        if not (1 <= a.ndim <= 2 and 1 <= b.ndim <= 2):
            raise ShapeMismatch(
                f"matmul supports vectors and matrices, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[0]:
            raise ShapeMismatch(f"matmul: shapes {a.shape} and {b.shape} do not conform")

        def vjp(grad, needs):
            # A vector a is one row and a vector b one column, so one formula
            # serves every rank; each result takes its input's shape back.
            rows, cols = np.atleast_2d(a), np.atleast_2d(b.T).T
            g = grad.reshape(len(rows), cols.shape[1])
            return [(g @ cols.T).reshape(a.shape) if needs[0] else None,
                    (rows.T @ g).reshape(b.shape) if needs[1] else None]
        return a @ b, vjp
    if kind in ("add", "sub"):
        a, b = _pair(kind, arrays, allow_row_broadcast=True)
        negate, shape_b = kind == "sub", b.shape

        def vjp(grad, needs):
            # Only b may be a row-broadcast vector: its gradient sums the rows.
            grad_b = (grad if grad.shape == shape_b else grad.sum(axis=0)) if needs[1] else None
            return [grad if needs[0] else None, -grad_b if negate and needs[1] else grad_b]
        return a - b if negate else a + b, vjp
    if kind == "hadamard":
        a, b = _pair(kind, arrays, allow_row_broadcast=False)
        return a * b, lambda grad, needs: [grad * b if needs[0] else None,
                                           grad * a if needs[1] else None]
    if kind == "scalar-pow":
        (x,) = _inputs(kind, arrays, 1)
        if "exponent" not in attrs:
            raise ValueError("scalar-pow needs an 'exponent' attribute")
        exponent = float(attrs["exponent"])

        def vjp(grad, needs):
            local = exponent * np.power(np.maximum(x, CLAMP_MIN), exponent - 1.0)
            # Below the clamp the output is constant in the input.
            return [grad * local * (x >= CLAMP_MIN)]
        return np.power(np.maximum(x, CLAMP_MIN), exponent), vjp
    if kind == "relu":
        (x,) = _inputs(kind, arrays, 1)
        return np.maximum(x, 0.0), lambda grad, needs: [grad * (x > 0.0)]
    if kind == "tanh":
        (x,) = _inputs(kind, arrays, 1)
        out = np.tanh(x)
        return out, lambda grad, needs: [grad * (1.0 - out * out)]
    if kind == "sigmoid":
        (x,) = _inputs(kind, arrays, 1)
        # tanh form avoids exp overflow for large negative inputs
        out = 0.5 * (np.tanh(0.5 * x) + 1.0)
        return out, lambda grad, needs: [grad * out * (1.0 - out)]
    if kind == "softmax":
        (x,) = _inputs(kind, arrays, 1)
        axis = int(attrs.get("axis", -1))
        if not -x.ndim <= axis < x.ndim:
            raise ShapeMismatch(f"softmax: axis {axis} out of range for shape {x.shape}")
        shifted = x - np.max(x, axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / np.sum(e, axis=axis, keepdims=True)
        return out, lambda grad, needs: [
            (grad - np.sum(grad * out, axis=axis, keepdims=True)) * out]
    if kind == "concat":
        if len(arrays) < 2:
            raise ShapeMismatch("concat takes at least two inputs")
        axis = int(attrs.get("axis", 0))
        first = arrays[0]
        if not -first.ndim <= axis < first.ndim:
            raise ShapeMismatch(f"concat: axis {axis} out of range for shape {first.shape}")
        axis = axis % first.ndim
        for other in arrays[1:]:
            if other.ndim != first.ndim:
                raise ShapeMismatch(f"concat: ranks differ, {first.shape} vs {other.shape}")
            for d in range(first.ndim):
                if d != axis and other.shape[d] != first.shape[d]:
                    raise ShapeMismatch(f"concat: shapes {first.shape} and {other.shape} "
                                        f"disagree off axis {axis}")
        extents = [arr.shape[axis] for arr in arrays[:-1]]
        return np.concatenate(arrays, axis=axis), lambda grad, needs: [
            part.copy() if need else None
            for part, need in zip(np.split(grad, np.cumsum(extents), axis=axis), needs)]
    if kind == "slice":
        (x,) = _inputs(kind, arrays, 1)
        for key in ("axis", "range"):
            if key not in attrs:
                raise ValueError(f"slice is missing its {key!r} attribute")
        axis = int(attrs["axis"])
        start, stop = attrs["range"]
        if not -x.ndim <= axis < x.ndim:
            raise ShapeMismatch(f"slice: axis {axis} out of range for shape {x.shape}")
        extent = x.shape[axis]
        if not 0 <= start < stop <= extent:
            raise ShapeMismatch(f"slice: range ({start}, {stop}) invalid for extent {extent}")
        # Axes after the sliced one are taken whole.
        index = (slice(None),) * (axis % x.ndim) + (slice(int(start), int(stop)),)
        shape = x.shape

        def vjp(grad, needs):
            full = np.zeros(shape)
            full[index] = grad
            return [full]
        return x[index].copy(), vjp
    if kind == "sum":
        (x,) = _inputs(kind, arrays, 1)
        shape = x.shape
        return np.asarray(np.sum(x)), lambda grad, needs: [np.full(shape, float(grad))]
    if kind == "mean-squared-error":
        a, b = _pair(kind, arrays, allow_row_broadcast=False)
        diff = a - b

        def vjp(grad, needs):
            scaled = diff * (2.0 / diff.size * float(grad))
            return [scaled if needs[0] else None, -scaled if needs[1] else None]
        return np.asarray(np.mean(diff * diff)), vjp
    raise ValueError(f"unknown primitive kind: {kind!r}")


def apply(kind: str, inputs, attrs: dict | None = None) -> Tensor:
    """Run one primitive; records it on the inputs' tape when any input has one.

    Inputs may be Tensors or anything numpy can coerce; plain arrays become
    constants, which take no node id. All tracked inputs must share one tape.
    """
    tensors = []
    tape: Tape | None = None
    for x in inputs:
        t = x if isinstance(x, Tensor) else Tensor(x)
        tensors.append(t)
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("inputs recorded on different tapes")
    out, vjp = _forward(kind, [t.data for t in tensors], attrs or {})
    if tape is None:
        return Tensor(out)
    out_id = tape.num_nodes
    tape.num_nodes += 1
    tape.records.append(Record(tuple(t.node for t in tensors), vjp, out_id))
    return Tensor(out, tape=tape, node=out_id)


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss with respect to every leaf on its tape.

    The map is keyed by leaf node id. Leaves that the loss does not depend
    on get zero gradients. A loss with no tape (all-constant computation)
    yields an empty map.

    Records are swept in reverse, so every consumer of a record's output has
    handed its gradient down before that record runs: each output's adjoint
    is dropped as soon as its record has consumed it, and the sweep holds
    only the adjoints still pending. The tape itself is left untouched and
    can be swept again.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None or loss.node is None:
        return {}
    adjoints: dict[int, np.ndarray] = {loss.node: np.ones((), dtype=np.float64)}
    for rec in reversed(tape.records):
        out_grad = adjoints.pop(rec.output_id, None)
        if out_grad is None:
            continue
        needs = [nid is not None for nid in rec.input_ids]
        for nid, g in zip(rec.input_ids, rec.vjp(out_grad, needs)):
            if g is None:
                continue
            held = adjoints.get(nid)
            adjoints[nid] = g if held is None else held + g
    return {nid: adjoints[nid] if nid in adjoints else np.zeros_like(arr)
            for nid, arr in tape.leaves.items()}


def grad_check(f, point, step: float = 1e-6) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    f maps one tensor to a scalar tensor and must be deterministic: any noise
    inside it has to be frozen (same draw on every call). The error for each
    coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    x0 = _as_array(point.data if isinstance(point, Tensor) else point)
    tape = Tape()
    leaf = tape.leaf(x0.copy())
    loss = f(leaf)
    grads = backward(loss)
    analytic = grads.get(leaf.node, np.zeros_like(x0))

    worst = 0.0
    flat0 = x0.reshape(-1)
    flat_a = analytic.reshape(-1)
    for i in range(flat0.size):
        bumped = x0.copy()
        bumped.reshape(-1)[i] = flat0[i] + step
        f_plus = f(Tensor(bumped)).item()
        bumped = x0.copy()
        bumped.reshape(-1)[i] = flat0[i] - step
        f_minus = f(Tensor(bumped)).item()
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = float(flat_a[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
