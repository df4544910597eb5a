"""
Reverse-mode autodiff on float64 tensors
========================================

The numerics package provides a small tape-based Tensor, a free `backward`
function, and a finite-difference checker. This walk-through fits a tiny
two-layer network on a fixed regression problem and verifies its gradients.
"""

import numpy as np

from xrhead.numerics import (
    Tensor,
    add,
    backward,
    constant,
    cross_entropy,
    finite_diff_check,
    matmul,
    mul,
    no_grad,
    relu,
    tsum,
)

rng = np.random.default_rng(0)

# a fixed dataset: 16 points in 3 dimensions, scalar targets
x = constant(rng.standard_normal((16, 3)))
y = rng.standard_normal((16, 1))

# two trainable layers: leaf tensors that track gradients, each with a name
w1 = Tensor(rng.standard_normal((3, 8)) * 0.5, requires_grad=True, name="w1")
w2 = Tensor(rng.standard_normal((8, 1)) * 0.5, requires_grad=True, name="w2")


def loss_fn():
    pred = matmul(relu(matmul(x, w1)), w2)
    err = add(pred, constant(-y))
    return tsum(mul(err, err)) * (1.0 / 16.0)  # scalar loss, shape ()


# one forward pass, one backward pass
loss = loss_fn()
backward(loss)
print(f"loss            {float(loss.values):.6f}")
print(f"grad w1 norm    {np.linalg.norm(w1.grad):.6f}")
print(f"grad w2 norm    {np.linalg.norm(w2.grad):.6f}")

# the checker perturbs every coordinate of each parameter and compares
# central differences against the backprop gradient, keyed by name
errors = finite_diff_check(loss_fn, [w1, w2])
for name, err in errors.items():
    print(f"finite diff     {name}: max rel err {err:.3e}")
assert max(errors.values()) < 1e-6

# under no_grad the tape is suspended: nothing requires gradients
with no_grad():
    silent = loss_fn()
print(f"no_grad loss    {float(silent.values):.6f} (requires_grad={silent.requires_grad})")

# cross_entropy pairs logits with integer labels, averaged over the batch
logits = constant(rng.standard_normal((4, 5)))
labels = np.array([0, 2, 4, 1])
ce = cross_entropy(logits, labels)
print(f"cross entropy   {float(ce.values):.6f} (chance would be {np.log(5):.6f})")
