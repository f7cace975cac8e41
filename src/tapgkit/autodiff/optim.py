"""First-order optimizers for the tensor library."""

from __future__ import annotations

import numpy as np

from tapgkit.errors import EmptyInputError
from tapgkit.autodiff.tensor import Tensor


class Adam:
    """Adam with bias-corrected moment estimates.

    Per step, for each parameter p with gradient g:
        m <- b1*m + (1-b1)*g
        v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        params = list(params)
        if not params:
            raise EmptyInputError("optimizer needs at least one parameter")
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / c1
            v_hat = v / c2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)
