"""A tour of the autodiff engine.

Build expressions on rank-0..3 tensors inside a Graph, run one backward
pass, and read gradients out of the GradientMap. The engine records its
own backward rules on the same tape, which is what makes second-order
gradients possible (demo 02 shows why the GAN needs them).

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
print("== matrices ==")
rng = np.random.default_rng(0)
A = Tensor(rng.normal(size=(2, 3)))
B = Tensor(rng.normal(size=(3, 2)))
with Graph() as g:
    out = T.reduce("sum", T.matmul(A, B))
    grads = T.backward(g, out)
    print("grad of sum(A @ B) wrt A equals row sums of B^T broadcast:")
    print(grads[A].data)
    print("(each row is the column sums of B)")

print()
print("== second order ==")
# f(x) = x^3. The first backward produces df/dx = 3x^2 as a graph node,
# so a second backward differentiates it again: d2f/dx2 = 6x.
with Graph() as g:
    x = Tensor(np.asarray(2.0))
    y = T.mul(T.mul(x, x), x)
    dy_dx = T.grad(y, x, g)
    d2y_dx2 = T.backward(g, dy_dx)[x]
    print(f"f=x^3 at x=2: df/dx={dy_dx.item()} (expect 12), "
          f"d2f/dx2={d2y_dx2.item()} (expect 12)")

print()
print("== the pattern the gradient penalty uses ==")
# A scalar function of a *gradient norm*, differentiated w.r.t. a weight.
xv = np.array([3.0, 4.0])
with Graph() as g:
    w = Tensor(np.asarray(0.7))
    x = Tensor(xv)
    score = T.reduce("sum", T.mul(x, w))          # "critic" score
    gx = T.grad(score, x, g)                      # gradient w.r.t. input
    norm = T.sqrt(T.reduce("sum", T.square(gx)))  # ||grad||
    penalty = T.square(T.sub(norm, 1.0))          # (||grad|| - 1)^2
    dpen_dw = T.backward(g, penalty)[w].item()
norm_value = abs(0.7) * np.sqrt(2.0)
analytic = 2 * (norm_value - 1) * np.sqrt(2.0)
print(f"d penalty / d weight  -> {dpen_dw:.12f}")
print(f"closed form           -> {analytic:.12f}")
