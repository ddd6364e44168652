"""Reference implementations that the optimized code must match bit for bit.

These are the allocating, table-sized formulations the package used before
embedding gradients became row-sparse and Adam became in place: a dense
zero gradient scattered into with ``np.add.at``, and an Adam update that
builds a new array per operation.
"""
import numpy as np

from aefs.numerics import AdamState, DimensionError, RowGrad


def dense_scatter(table, ids, g):
    """Accumulate ``g[i]`` into row ``ids[i]`` of a dense ``table.grad``."""
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    np.add.at(table.grad, ids, g)


def adam_step(param, grad, state: AdamState):
    """One bias-corrected Adam update, in place on `param` and `state`."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise DimensionError(f"adam_step shapes param={param.shape} grad={grad.shape}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return param, state


def reference_adam_step(opt):
    """`Adam.step` by the reference formula, on densified gradients."""
    for p, st in zip(opt.params, opt.states):
        if p.grad is not None:
            g = p.grad.dense() if isinstance(p.grad, RowGrad) else p.grad
            adam_step(p.data, g, st)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
