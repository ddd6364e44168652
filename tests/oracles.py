"""Reference implementations that the optimized code must match bit for bit.

These are the allocating formulations the package used before embedding
gradients became row-sparse, Adam became in place and the tape began
handing gradient buffers to their parents: a dense zero gradient scattered
into with ``np.add.at``, an Adam update that builds a new array per
operation, a gradient accumulator that copies every first gradient,
batch normalization through ``np.mean``/``np.var`` with one new array per
operation, and the embedding alignment loss composed from tape ops.
"""
import numpy as np

from aefs import numerics
from aefs.numerics import AdamState, DegenerateBatchError, DimensionError, RowGrad, Tensor


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


def copying_accum(t, g, owned=False):
    """The tape's gradient accumulator, copying every first gradient."""
    if not t.requires_grad:
        return
    if isinstance(t.grad, RowGrad):
        t.grad = t.grad.dense()
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
        if t.grad.shape != t.data.shape:
            t.grad = np.broadcast_to(t.grad, t.data.shape).copy()
    else:
        t.grad += g


def batchnorm_reference(bn, x, training, update_running=True):
    """``BatchNorm1d.__call__`` by the textbook formula, one array per op."""
    if x.ndim != 2 or x.shape[1] != bn.num_features:
        raise DimensionError(f"batch_norm input {x.shape}, expected (*, {bn.num_features})")
    if training:
        if x.shape[0] < 2:
            raise DegenerateBatchError("batch_norm training mode needs batch >= 2")
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        std = np.sqrt(var + bn.eps)
        xn = (x.data - mu) / std
        if update_running:
            m = bn.momentum
            bn.running_mean = (1.0 - m) * bn.running_mean + m * mu
            bn.running_var = (1.0 - m) * bn.running_var + m * var
    else:
        std = np.sqrt(bn.running_var + bn.eps)
        xn = (x.data - bn.running_mean) / std
    gamma, beta = bn.gamma, bn.beta
    out = gamma.data * xn + beta.data

    def bw(g):
        copying_accum(gamma, (g * xn).sum(axis=0))
        copying_accum(beta, g.sum(axis=0))
        if x.requires_grad:
            dxn = g * gamma.data
            if training:
                dx = (dxn - dxn.mean(axis=0) - xn * (dxn * xn).mean(axis=0)) / std
            else:
                dx = dxn / std
            copying_accum(x, dx)

    return Tensor(out, parents=(x, gamma, beta), backward=bw)


def use_reference_tape(monkeypatch):
    """Route the tape through the copying accumulator and the reference
    batch normalization for the rest of a test (or monkeypatch context)."""
    monkeypatch.setattr(numerics, "_accum", copying_accum)
    monkeypatch.setattr(numerics.BatchNorm1d, "__call__", batchnorm_reference)


def composed_embedding_alignment_loss(aux_embeds, main_embeds, fc):
    """``embedding_alignment_loss`` as eight tape nodes: reshape, affine
    (matmul and add), reshape, subtract, square, sum and scale."""
    if aux_embeds.shape[:2] != main_embeds.shape[:2]:
        raise DimensionError(f"selection shapes differ: {aux_embeds.shape} vs {main_embeds.shape}")
    b, k, d2 = aux_embeds.shape
    d1 = main_embeds.shape[2]
    mapped = fc(aux_embeds.reshape(b * k, d2)).reshape(b, k, d1)
    diff = mapped - main_embeds
    return (diff * diff).mean()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
