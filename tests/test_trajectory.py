"""Pinned trajectories and tape sizes of tiny training runs.

The golden values were recorded from the unfused implementation (one
matmul per LSTM gate, separate critic calls for real and fake windows,
every LSTM step on the tape). Fused ops may reorder floating-point sums,
so they are compared with a relative tolerance, but any change to the
maths moves them far past it. Every LSTM pass and its dense head now
run through ``nn.lstm_scan`` as plain numpy calls, each BPTT called
explicitly, and the gradient penalty's second order runs in one
complex-step pass. A tape records only the scalar heads between the
critic's scores (or its input gradient) and a loss, so no tape pin
depends on the sequence length or the batch.
"""

import numpy as np
import pytest

from tsforge import gan, nn, tensor
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
    got = [sum(float(t.sum()) for _, t in ps.items()) for ps in (gen, critic)]
    np.testing.assert_allclose(got, sums, rtol=RTOL, atol=0)


# variant: tape lengths at Graph.clear of (each critic step's graphs, the
# generator step). A wgan_gp critic step records the penalty head on the
# input gradient (13 nodes) and then the Wasserstein head on the scores (9),
# each on its own tape. The leaves and constants count as nodes.
TAPE_NODES = {"wgan_gp": ((13, 9), 5), "wgan_clip": ((9,), 5), "gan": ((18,), 9)}


@pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
def test_tape_nodes_per_step(variant, monkeypatch):
    """One backward per graph, and none adds to a tape; the tape sizes are pinned."""
    backward, clear = tensor.backward, tensor.Graph.clear
    passes, cleared = [], []

    def counting_backward(graph, *args, **kwargs):
        before = len(graph)
        out = backward(graph, *args, **kwargs)
        passes.append((before, len(graph)))
        return out

    def counting_clear(graph):
        cleared.append(len(graph))
        clear(graph)

    monkeypatch.setattr(tensor, "backward", counting_backward)
    monkeypatch.setattr(tensor.Graph, "clear", counting_clear)
    gan.train(tiny_config(variant, epochs=1), tiny_dataset())
    critic, generator = TAPE_NODES[variant]
    assert len(passes) == 5 * len(critic) + 1
    assert all(before == after for before, after in passes)
    assert cleared == list(critic) * 5 + [generator]


# variant: LSTM steps (nn.lstm_cell_step calls) in one epoch. Each scan of T
# steps calls it T times and no BPTT calls it, so wgan_gp makes 22 scans: five
# critic steps of four each (the generator, the critic on [real; fake], the
# critic on x-hat and the penalty's complex step) and a generator step of two.
# wgan_clip and gan make 12: two per critic step and two for the generator.
# That is 22 T and 12 T, 1,100 and 600 at the paper's T = 50; here T = 6.
LSTM_STEPS = {"wgan_gp": 132, "wgan_clip": 72, "gan": 72}


@pytest.mark.parametrize("variant", gan.LOSS_VARIANTS)
def test_lstm_steps_per_epoch(variant, monkeypatch):
    calls = []
    step = nn.lstm_cell_step
    monkeypatch.setattr(nn, "lstm_cell_step", lambda *args: calls.append(1) or step(*args))
    gan.train(tiny_config(variant, epochs=1), tiny_dataset())
    assert len(calls) == LSTM_STEPS[variant]
