"""Reverse-mode gradients from the tape, checked against finite differences.

The tape records every op eagerly; backward() then walks the recording in
reverse. No graph compilation, no framework. This demo differentiates a
two-layer scoring function and prints the worst relative error against
central differences.
"""

import numpy as np

from kgrec.autodiff import Tape, Tensor

rng = np.random.default_rng(0)

w1 = Tensor(rng.standard_normal((4, 6)) * 0.3, requires_grad=True)
b1 = Tensor(np.zeros(4), requires_grad=True)
w2 = Tensor(rng.standard_normal((1, 4)) * 0.3, requires_grad=True)
x = Tensor(rng.standard_normal((1, 6)))  # one input row


def loss_value(tape):
    h = tape.relu(tape.linear(x, w1, b1))
    out = tape.linear(h, w2)
    return tape.sum(tape.mul(out, out))


tape = Tape()
loss = loss_value(tape)
grads = tape.backward(loss, wrt=[w1, b1, w2])
print(f"loss = {float(loss.data):.6f}")

eps = 1e-6
worst = 0.0
for name, t in (("w1", w1), ("b1", b1), ("w2", w2)):
    fd = np.zeros_like(t.data)
    flat, fd_flat = t.data.ravel(), fd.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = float(loss_value(Tape()).data)
        flat[i] = keep - eps
        lo = float(loss_value(Tape()).data)
        flat[i] = keep
        fd_flat[i] = (hi - lo) / (2 * eps)
    err = np.max(np.abs(grads[t] - fd) / np.maximum(np.abs(fd), 1e-7))
    worst = max(worst, err)
    print(f"d loss / d {name}: max rel err vs finite differences = {err:.2e}")

print(f"worst over all parameters: {worst:.2e}")
