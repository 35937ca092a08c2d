"""Pinned trajectories and tape sizes of tiny training runs.

The golden values were recorded from the unfused implementation (one
matmul per LSTM gate, separate critic calls for real and fake windows,
every LSTM step on the tape). Fused ops may reorder floating-point sums,
so they are compared with a relative tolerance, but any change to the
maths moves them far past it. Every LSTM pass now runs through
``nn.lstm_scan``, one tape node with a numpy BPTT, and the gradient
penalty's second order through its complex-step vjp, so no tape pin
depends on the sequence length.
"""

import numpy as np
import pytest

from tsforge import gan, tensor
from tsforge.data import fit_scale
from tsforge.optim import OptimConfig

RTOL = 1e-9


def tiny_dataset():
    rng = np.random.Generator(np.random.Philox(11))
    return fit_scale(rng.standard_normal((48, 6)) * 0.02)


def tiny_config(variant: str, epochs: int = 3) -> gan.TrainConfig:
    return gan.TrainConfig(epochs=epochs, n_critic=5, batch_size=4, noise_len=2, seq_len=6,
                           lstm_units=3, loss_variant=variant, seed=7, checkpoint_every=1000,
                           optim=OptimConfig(learning_rate=1e-3))


# variant: (critic loss, generator loss, wasserstein, penalty, (generator sum, critic sum))
GOLDEN = {
    "wgan_gp": (
        [7.621491802806181, 7.661191106797768, 7.3879448533156555],
        [-0.007065661673743402, 0.028201867755900063, 0.036369704445939885],
        [-0.00014148346601657123, 0.012553407158747809, -0.03387284400909934],
        [7.621350319340165, 7.673744513956516, 7.354072009306556],
        (-6.445878329478258, 5.302946572828696),
    ),
    "wgan_clip": (
        [-5.895001879306974e-06, -8.769814650423519e-06, -7.93311558667081e-06],
        [1.237408470750337e-05, 7.47571824094193e-06, 1.6299219707657497e-06],
        [5.895001879306974e-06, 8.769814650423519e-06, 7.93311558667081e-06],
        [0.0, 0.0, 0.0],
        (-6.445061214035621, 0.04241213414282115),
    ),
    "gan": (
        [1.3981810282921225, 1.404229673416301, 1.398658081766024],
        [-0.6898391973615576, -0.6834344669498711, -0.6761152162452658],
        [-0.022652238278688334, -0.035271095121104, -0.023915958620956607],
        [0.0, 0.0, 0.0],
        (-6.427099157503375, 5.345810708055228),
    ),
}


@pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
def test_golden_trajectory(variant):
    gen, critic, h, _ = gan.train(tiny_config(variant), tiny_dataset())
    critic_loss, gen_loss, wasserstein, penalty, sums = GOLDEN[variant]
    assert h.epochs == [1, 2, 3]
    np.testing.assert_allclose(h.critic_loss, critic_loss, rtol=RTOL, atol=0)
    np.testing.assert_allclose(h.generator_loss, gen_loss, rtol=RTOL, atol=0)
    np.testing.assert_allclose(h.wasserstein, wasserstein, rtol=RTOL, atol=0)
    np.testing.assert_allclose(h.gradient_penalty, penalty, rtol=RTOL, atol=0)
    got = [sum(float(t.data.sum()) for _, t in ps.items()) for ps in (gen, critic)]
    np.testing.assert_allclose(got, sums, rtol=RTOL, atol=0)


# variant: tape length at Graph.clear of (each critic step, the generator step)
TAPE_NODES = {"wgan_gp": (60, 38), "wgan_clip": (29, 38), "gan": (38, 42)}


@pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
def test_tape_nodes_per_step(variant, monkeypatch):
    """The outer backward adds nothing to the tape; the tape sizes are pinned."""
    backward, grad, clear = tensor.backward, tensor.grad, tensor.Graph.clear
    inner = [0]
    outer, cleared = [], []

    def counting_grad(*args, **kwargs):
        inner[0] += 1
        try:
            return grad(*args, **kwargs)
        finally:
            inner[0] -= 1

    def counting_backward(graph, *args, **kwargs):
        before = len(graph)
        out = backward(graph, *args, **kwargs)
        if not inner[0]:
            outer.append((before, len(graph)))
        return out

    def counting_clear(graph):
        cleared.append(len(graph))
        clear(graph)

    monkeypatch.setattr(tensor, "grad", counting_grad)
    monkeypatch.setattr(tensor, "backward", counting_backward)
    monkeypatch.setattr(tensor.Graph, "clear", counting_clear)
    gan.train(tiny_config(variant, epochs=1), tiny_dataset())
    assert len(outer) == 6
    assert all(before == after for before, after in outer)
    critic, generator = TAPE_NODES[variant]
    assert cleared == [critic] * 5 + [generator]
