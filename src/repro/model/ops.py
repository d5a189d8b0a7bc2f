"""Elementary tensor operations shared by the model and the simulator."""

from __future__ import annotations

import numpy as np

#: The paper evaluates a 32-bit single-precision floating point model.
MODEL_DTYPE = np.float32


def as_model_dtype(x: np.ndarray) -> np.ndarray:
    """View/convert an array to the model precision (fp32)."""
    return np.asarray(x, dtype=MODEL_DTYPE)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight + bias``.

    ``x`` is ``(..., in)``; ``weight`` is ``(in, out)``; ``bias`` is
    ``(out,)`` or None.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"inner-dimension mismatch: x has {x.shape[-1]}, "
            f"weight expects {weight.shape[0]}"
        )
    out = x @ weight
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (weight.shape[1],):
            raise ValueError(
                f"bias must have shape ({weight.shape[1]},); got {bias.shape}"
            )
        out = out + bias
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x), 0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    exp = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return exp / np.add.reduce(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return (shifted - log_z).astype(x.dtype)
