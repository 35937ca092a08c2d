"""A tour of the autodiff engine.

Build expressions on rank-0..3 tensors inside a Graph, run one backward
pass, and read gradients out of the GradientMap as numpy arrays. The
tape is first-order: a backward pass records nothing. The gradient
penalty's second order is taken off the tape, by one complex-step pass
(demo 02).

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from tsforge import tensor as T
from tsforge.tensor import Graph, Tensor

print("== scalars ==")
with Graph() as g:
    x = Tensor(np.asarray(3.0))
    y = T.square(x)
    grads = T.backward(g, y)
    print(f"d(x^2)/dx at x=3      -> {grads[x].item()}   (expect 6)")

with Graph() as g:
    x = Tensor(np.asarray(2.0))
    y = Tensor(np.asarray(5.0))
    grads = T.backward(g, T.mul(x, y))
    print(f"d(xy)/dx, d(xy)/dy    -> {grads[x].item()}, {grads[y].item()}   (expect 5, 2)")

print()
print("== tensors ==")
rng = np.random.default_rng(0)
X = Tensor(rng.normal(size=(2, 3)))
with Graph() as g:
    out = T.reduce("sum", T.square(T.reduce("sum", X, axis=1)))
grads = T.backward(g, out)
print("grad of sum_i (sum_j X_ij)^2 wrt X:")
print(grads[X])
print("(each row holds twice its row sum:", 2.0 * X.data.sum(axis=1), ")")

print()
print("== an input gradient ==")
# The gradient penalty starts from the critic's gradient with respect to
# its input; T.grad returns it as a plain array, and the graph is unchanged.
with Graph() as g:
    w = Tensor(np.asarray(0.7))
    x = Tensor(np.array([3.0, 4.0]))
    score = T.reduce("sum", T.mul(x, w))
n = len(g)
gx = T.grad(score, x, g)
print(f"d score / d x         -> {gx}   (expect [0.7 0.7])")
print(f"tape nodes before and after the backward: {n}, {len(g)}")
