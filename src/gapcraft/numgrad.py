"""Dense float64 matrices plus a minimal reverse-mode tape.

Every value is a 2-D float64 numpy array ("matrix"); scalars live as 1x1
matrices.  Operations append nodes to a :class:`Tape` (a Wengert list); a
node records its primitive name, parent indices, and the computed value.
``Tape.backward`` walks the list once in reverse and accumulates
vector-Jacobian products.

The primitive set is what :func:`models.mlp_vjp` needs: an MLP forward
(matmul, add, tanh, relu) and the scalar ``sum(out * g)`` whose backward
sweep pulls an output cotangent ``g`` back to the layer parameters.  Every
trained loss supplies that cotangent in closed form.  add and mul
broadcast over singleton axes.  Values are frozen (read-only) once
emitted, so sharing a tape's values across readers is safe; tapes
themselves are single-owner.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Matrix",
    "Tape",
    "Tensor",
    "Gradients",
    "DimensionError",
    "ContractError",
    "as_matrix",
    "freeze",
    "forward",
    "matmul",
    "add",
    "mul",
    "tanh",
    "relu",
    "sum",
]

Matrix = np.ndarray


class DimensionError(ValueError):
    """Operand shapes are incompatible for a primitive."""


class ContractError(ValueError):
    """An operation was called outside its contract (e.g. non-scalar backward)."""


def as_matrix(data, name: str = "matrix") -> Matrix:
    """Coerce to a fresh 2-D float64 array; 0-D/1-D inputs become rows."""
    arr = np.array(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionError(f"{name} must be at most 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` as contiguous float64, marked read-only (copied only if needed)."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # Collapse gradient back onto an operand that was broadcast along
    # singleton axes.
    for axis in (0, 1):
        if shape[axis] == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


# op -> forward kernel over parent values
_KERNELS: dict[str, Callable[..., np.ndarray]] = {
    "matmul": lambda a, b: a @ b,
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "tanh": np.tanh,
    "relu": lambda a: np.maximum(a, 0.0),
    "sum": lambda a: np.array([[a.sum()]]),
}


def _bwd_matmul(g, out, a, b):
    return [g @ b.T, a.T @ g]


def _bwd_add(g, out, a, b):
    return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]


def _bwd_mul(g, out, a, b):
    return [_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)]


# op -> vjp; takes (grad_out, node_value, *parent_values)
_BACKWARD: dict[str, Callable[..., list[np.ndarray]]] = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "mul": _bwd_mul,
    "tanh": lambda g, out, a: [g * (1.0 - out * out)],
    "relu": lambda g, out, a: [g * (a > 0.0)],
    "sum": lambda g, out, a: [np.full_like(a, g[0, 0])],
}


class Tensor:
    """Handle to one tape node."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def value(self) -> Matrix:
        return self.tape.values[self.index]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(node={self.index}, shape={self.shape})"


class Tape:
    """Wengert list: ops, parent indices, and values in topological order."""

    def __init__(self):
        self.ops: list[str] = []
        self.parents: list[tuple[int, ...]] = []
        self.values: list[Matrix] = []

    def __len__(self) -> int:
        return len(self.ops)

    def input(self, data) -> Tensor:
        """Register a leaf matrix (parameter, batch, or constant)."""
        return self._emit("input", (), as_matrix(data, "input"))

    # `constant` is an alias: leaves whose gradient the caller will ignore.
    constant = input

    def _emit(self, op: str, parents: tuple[int, ...], value: np.ndarray) -> Tensor:
        index = len(self.ops)
        if not np.all(np.isfinite(value)):
            raise FloatingPointError(f"{op} produced non-finite values at node {index}")
        self.ops.append(op)
        self.parents.append(parents)
        self.values.append(freeze(value))
        return Tensor(self, index)

    def apply(self, op: str, *args: Tensor) -> Tensor:
        for t in args:
            if t.tape is not self:
                raise ContractError(f"{op}: operands belong to different tapes")
        vals = [t.value for t in args]
        _check_shapes(op, vals, len(self.ops))
        # the finite check in _emit is the single error path; numpy's own
        # overflow/divide warnings on the way there are redundant
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = _KERNELS[op](*vals)
        return self._emit(op, tuple(t.index for t in args), out)

    def replay(self) -> Matrix:
        """Re-execute every recorded primitive from the leaf values.

        Returns the value of the final node; used to check that the tape is a
        faithful, bit-reproducible record of the forward computation.
        """
        vals: list[np.ndarray] = []
        for op, parents in zip(self.ops, self.parents):
            if op == "input":
                vals.append(self.values[len(vals)])
            else:
                vals.append(_KERNELS[op](*[vals[p] for p in parents]))
        return vals[-1]

    def backward(self, output: Tensor) -> "Gradients":
        """Reverse-mode sweep from a scalar output node.

        Visits each node at most once, in reverse topological order.
        """
        if output.tape is not self:
            raise ContractError("backward: output belongs to a different tape")
        if output.shape != (1, 1):
            raise ContractError(
                f"backward requires a scalar (1x1) output, got shape {output.shape}"
            )
        grads: list[np.ndarray | None] = [None] * (output.index + 1)
        grads[output.index] = np.ones((1, 1))
        for i in range(output.index, -1, -1):
            g = grads[i]
            if g is None or self.ops[i] == "input":
                continue
            op = self.ops[i]
            parent_vals = [self.values[p] for p in self.parents[i]]
            pgrads = _BACKWARD[op](g, self.values[i], *parent_vals)
            for p, pg in zip(self.parents[i], pgrads):
                if grads[p] is None:
                    grads[p] = pg.copy()
                else:
                    grads[p] = grads[p] + pg
        return Gradients(self, grads)


class Gradients:
    """Per-node gradients from one backward sweep."""

    def __init__(self, tape: Tape, grads: list[np.ndarray | None]):
        self._tape = tape
        self._grads = grads

    def wrt(self, t: Tensor) -> Matrix:
        if t.tape is not self._tape:
            raise ContractError("gradient requested for a tensor from another tape")
        g = self._grads[t.index] if t.index < len(self._grads) else None
        if g is None:
            return np.zeros(t.shape)
        return g


def _check_shapes(op: str, vals: Sequence[np.ndarray], index: int) -> None:
    if op == "matmul":
        a, b = vals
        if a.shape[1] != b.shape[0]:
            raise DimensionError(
                f"matmul at node {index}: inner dimensions {a.shape} x {b.shape}"
            )
    elif op in ("add", "mul"):
        a, b = vals
        if not _broadcastable(a.shape, b.shape):
            raise DimensionError(
                f"{op} at node {index}: shapes {a.shape} and {b.shape} "
                "are not broadcast-compatible"
            )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return a.tape.apply("matmul", a, b)


def add(a: Tensor, b: Tensor) -> Tensor:
    return a.tape.apply("add", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return a.tape.apply("mul", a, b)


def tanh(a: Tensor) -> Tensor:
    return a.tape.apply("tanh", a)


def relu(a: Tensor) -> Tensor:
    return a.tape.apply("relu", a)


def sum(a: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    return a.tape.apply("sum", a)


def forward(graph: Callable[..., Tensor], inputs: Sequence) -> tuple[Matrix, Tape]:
    """Evaluate ``graph`` over fresh leaf tensors; return (value, tape)."""
    tape = Tape()
    leaves = [tape.input(m) for m in inputs]
    out = graph(*leaves)
    return out.value, tape
