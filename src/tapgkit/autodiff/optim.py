"""First-order optimizers for the tensor library."""

from __future__ import annotations

import numpy as np

from tapgkit.errors import EmptyInputError, GraphError
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
        fixed = [i for i, p in enumerate(params) if not p.requires_grad]
        if fixed:
            raise GraphError(f"optimizer given tensors without requires_grad at {fixed}")
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.t = 0
        # gradient, m and v as flat rows, plus one scratch row; _m and _v are
        # per-parameter views of theirs, _updates of the gradient row, which a
        # step overwrites with the update
        self._bounds = np.cumsum([0] + [p.data.size for p in params])
        dtype = np.result_type(*(p.data.dtype for p in params))
        self._flat = np.zeros((3, self._bounds[-1]), dtype=dtype)
        self._scratch = np.empty(self._bounds[-1], dtype=dtype)
        self._updates, self._m, self._v = (self._views(row) for row in self._flat)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[a:b].reshape(p.data.shape)
                for p, a, b in zip(self.params, self._bounds[:-1], self._bounds[1:])]

    def step(self) -> None:
        """One update of every parameter from its current gradient.

        Every operation runs in place, in the order of the formula above, so
        a step allocates no array the size of the parameters.
        """
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g, m, v = self._flat
        s = self._scratch
        np.concatenate([p.grad.reshape(-1) for p in self.params], out=g)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - self.beta2
        v += s
        # s <- sqrt(v_hat) + eps; g <- lr * m_hat / s, the update
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        np.divide(m, c1, out=g)
        g *= self.lr
        g /= s
        for p, step in zip(self.params, self._updates):
            p.data -= step
