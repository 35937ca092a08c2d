"""Self-tests of the benchmark at tiny sizes: ``python -m pytest benchmarks``."""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))

END_TO_END = {m["name"] for m in run.SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in run.SPEC["per_layer"]}

_SMALL = {"seq_len": 6, "lstm_units": 3, "noise_len": 2, "batch_size": 4}
TINY = {
    "gp_paper": run.TrainWorkload({**_SMALL, "loss_variant": "wgan_gp"}),
    "gan_b128": run.TrainWorkload({**_SMALL, "loss_variant": "gan"}),
    "cli_roundtrip": run.CliWorkload(
        ("--loss-variant", "wgan_clip", "--units", "3", "--batch-size", "4",
         "--noise-len", "2", "--lipschitz-pairs", "5", "--grid-samples", "4"),
        epochs=2, checkpoint_every=1, seq_len=6, n=8),
}


def tiny_run(name: str, trace: bool, seed: int = 3) -> dict:
    result = run.run_workload(name, seed, 0, trace, workload=TINY[name])
    assert result["correct"], result["_report"]["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    metrics = tiny_run(name, trace=False)
    assert set(metrics) == END_TO_END
    assert all(v > 0 for v in metrics.values())


def test_traced_runs_emit_every_layer_metric_and_split_the_layers():
    got = {name: tiny_run(name, trace=True) for name in run.WORKLOADS}
    for metrics in got.values():
        assert set(metrics) == PER_LAYER
    assert got["gp_paper"]["tensor.grad_s"] > 0 and got["gan_b128"]["tensor.grad_s"] == 0
    assert got["gp_paper"]["gan.gradient_penalty_s"] > 0
    assert got["gan_b128"]["gan.gradient_penalty_s"] == 0
    assert got["gan_b128"]["gan.wasserstein_estimate_s"] > 0
    assert got["gp_paper"]["gan.wasserstein_estimate_s"] == 0
    for metric in ("stats.compare_distributions_s", "plot.write_svg_s",
                   "checkpoint.save_checkpoint_s"):
        assert got["cli_roundtrip"][metric] > 0
        assert got["gp_paper"][metric] == 0 and got["gan_b128"][metric] == 0


def test_tracer_restores_every_wrapped_name():
    from tsforge.tensor import Graph
    modules = [importlib.import_module(m) for m in spans.MODULES]
    before = [(mod, dict(vars(mod))) for mod in modules]
    clear = Graph.__dict__["clear"]
    gan = importlib.import_module("tsforge.gan")
    original = gan.critic_forward
    with spans.Tracer():
        assert gan.critic_forward is not original
    for mod, names in before:
        for attr, value in names.items():
            assert getattr(mod, attr) is value, f"{mod.__name__}.{attr}"
    assert Graph.__dict__["clear"] is clear
    tiny_run("gp_paper", trace=True)
    for mod, names in before:
        for attr, value in names.items():
            assert getattr(mod, attr) is value, f"{mod.__name__}.{attr}"


def test_tape_node_counts_repeat_exactly():
    keys = [k for k in PER_LAYER if k.startswith("tensor.") and not k.endswith("_s")]
    first = tiny_run("gp_paper", trace=True, seed=3)
    second = tiny_run("gp_paper", trace=True, seed=4)
    assert all(first[k] > 0 for k in keys)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


def test_quiet_speed_cancels_a_slowdown_shared_with_the_probes():
    # the second epoch ran while the host was 1.5x slower; the third failed
    walls, probes = [2.0, 3.0, 9.0], [[1.0, 1.2, 1.0], [1.5, 1.6, 1.5], []]
    assert run.at_quiet_speed(walls, probes) == [2.0, 2.0]


def test_self_time_subtracts_children():
    outer, inner = spans.Span("a", 0.0, None), spans.Span("b", 1.0, 0)
    outer.end, inner.end = 5.0, 3.0
    assert spans.self_times([outer, inner]) == [3.0, 2.0]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "gp_paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
