"""Layer normalization and the Add-Norm residual block (Eq. 3.4)."""

from __future__ import annotations

import numpy as np


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-12,
) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then scale.

    Implements ``N = w * (x - mu) / sigma + b`` per Eq. 3.4 of the paper
    (population variance, i.e. divide by D).
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    d = x.shape[-1]
    if weight.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"weight/bias must have shape ({d},); "
            f"got {weight.shape} and {bias.shape}"
        )
    # ``x.mean`` and ``x.var``'s own ufunc sequence (sum / n, then the
    # squared deviation summed / n), without their wrappers and with
    # the deviation computed once: bit for bit the same statistics.
    dev = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(np.square(dev), axis=-1, keepdims=True) / d
    return dev / np.sqrt(var + eps) * weight + bias


def add_norm(
    sublayer_out: np.ndarray,
    residual: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-12,
) -> np.ndarray:
    """Residual add followed by layer normalization.

    ``X`` in Eq. 3.4 is "the sum of MHA/FFN output and Add-Norm input".
    """
    a = np.asarray(sublayer_out)
    b = np.asarray(residual)
    if a.shape != b.shape:
        raise ValueError(
            f"shape mismatch in residual add: {a.shape} vs {b.shape}"
        )
    return layer_norm(a + b, weight, bias, eps=eps)
