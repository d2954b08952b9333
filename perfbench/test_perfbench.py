"""Tests of the benchmark's own arithmetic and wrapping.

    python3 -m pytest perfbench
"""

import sys
import types

import pytest

import refloop
import stats
import tracer
import workloads


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert stats.samples_beyond(200, 95.0) == 10
    assert stats.samples_beyond(199, 95.0) == 9


def test_tail_uses_the_supported_percentile():
    values = [float(i) for i in range(1, 201)]  # 200 samples
    p, v = stats.tail(values)
    assert p == 95.0
    assert v == pytest.approx(stats.percentile(values, 95.0))
    assert sum(1 for x in values if x > v) >= stats.MIN_BEYOND


def test_tail_falls_back_to_the_median_with_few_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_percentile_interpolates():
    assert stats.percentile([0.0, 10.0], 50.0) == 5.0
    assert stats.percentile([4.0], 95.0) == 4.0


# ------------------------------------------------------ self-time arithmetic


def test_self_time_subtracts_nested_spans():
    rec = tracer.SpanRecorder()
    rec.watch("model.train")
    # model.train [0, 10] calls autodiff.add [1, 4], which calls linalg.eig
    # [2, 3]; then nets.step [5, 9], which calls nets.adam [6, 7].
    rec.enter("model", "model.train", 0.0)
    rec.enter("autodiff", "autodiff.add", 1.0)
    rec.enter("linalg", "linalg.eig", 2.0)
    rec.exit(3.0)
    rec.exit(4.0)
    rec.enter("nets", "nets.step", 5.0)
    rec.enter("nets", "nets.adam", 6.0)
    rec.exit(7.0)
    rec.exit(9.0)
    rec.exit(10.0)

    assert rec.self_s == pytest.approx({"model": 3.0, "autodiff": 2.0, "linalg": 1.0, "nets": 4.0})
    assert sum(rec.self_s.values()) == pytest.approx(10.0)  # self times tile the root span
    assert rec.inclusive_s["nets.step"] == pytest.approx(4.0)
    assert rec.layer_calls == {"model": 1, "autodiff": 1, "linalg": 1, "nets": 2}
    assert rec.children["model.train"] == [("autodiff.add", 3.0), ("nets.step", 4.0)]


def test_reset_clears_figures_but_keeps_watched_parents():
    rec = tracer.SpanRecorder()
    rec.watch("theory.report")
    rec.enter("theory", "theory.report", 0.0)
    rec.exit(1.0)
    rec.reset()
    assert not rec.self_s and rec.children == {"theory.report": []}


# ---------------------------------------------------------------- wrapping


def _module(name, source):
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    sys.modules[name] = mod
    return mod


@pytest.fixture
def fakepkg():
    """A package with a `nets` layer that lacks `mlp_apply` and a `model`
    layer that trains with three optimizers."""
    pkg = _module("fakepkg", "")
    nets = _module("fakepkg.nets", '''
class Optimizer:
    def step(self, grads):
        return grads

    @classmethod
    def build(cls):
        return cls()

def mlp_forward(x):
    return x + 1

def _private(x):
    return x
''')
    model = _module("fakepkg.model", '''
from fakepkg.nets import mlp_forward, Optimizer

class Model:
    def __init__(self):
        self.optimizers = {name: Optimizer.build() for name in ("vae", "critic", "gen")}

def init_model():
    return Model()

def train(batches):
    model = init_model()
    for _ in range(batches):
        for name in ("vae", "critic", "gen"):
            model.optimizers[name].step(mlp_forward(1))
    return model
''')
    pkg.mlp_forward = nets.mlp_forward  # a re-export holds its own reference
    yield pkg, nets, model
    for name in ("fakepkg", "fakepkg.nets", "fakepkg.model"):
        del sys.modules[name]


def test_public_callables_are_found_by_enumeration(fakepkg):
    _, nets, _ = fakepkg
    names = {name for name, _, _ in tracer.public_callables(nets)}
    assert names == {"Optimizer.step", "Optimizer.build", "mlp_forward"}


def test_wrapping_tolerates_a_missing_function(fakepkg):
    pkg, nets, model = fakepkg
    original = nets.mlp_forward
    t = tracer.LayerTracer("fakepkg")
    t.install()
    try:
        model.train(2)
        assert pkg.mlp_forward is not original  # the re-export is patched too
        assert model.mlp_forward is nets.mlp_forward is pkg.mlp_forward
    finally:
        t.uninstall()
    assert t.inclusive("nets.mlp_apply") is None  # absent, not an error
    assert t.inclusive("nets.mlp_forward") >= 0.0
    assert t.recorder.layer_calls == {"model": 2, "nets": 6 + 6 + 3}  # forward, step, build
    assert set(t.phase_s) == {"recon", "critic", "gen"}
    assert nets.mlp_forward is original and pkg.mlp_forward is original
    assert model.Model().optimizers["vae"].step(3) == 3


def test_uninstall_restores_methods(fakepkg):
    _, nets, _ = fakepkg
    step = nets.Optimizer.__dict__["step"]
    build = nets.Optimizer.__dict__["build"]
    t = tracer.LayerTracer("fakepkg")
    t.install()
    assert nets.Optimizer.__dict__["step"] is not step
    assert isinstance(nets.Optimizer.__dict__["build"], classmethod)
    assert isinstance(nets.Optimizer.build(), nets.Optimizer)
    t.uninstall()
    assert nets.Optimizer.__dict__["step"] is step
    assert nets.Optimizer.__dict__["build"] is build


# ------------------------------------------------- reference loop normalization


def test_an_op_is_measured_against_the_reference_runs_around_it():
    out = workloads.Outcome()
    out.reference_s.append(1.0)
    out.record("a", 3.0, 1, [])
    out.record("a", 6.0, 1, [])
    out.reference_s.append(3.0)
    out.record("b", 9.0, 4, [])
    out.reference_s.append(6.0)
    unit = refloop.SECONDS
    assert out.scaled("a") == pytest.approx([1.5 * unit, 3.0 * unit])
    assert out.scaled("b") == pytest.approx([2.0 * unit])


def test_an_op_without_a_reference_run_after_it_is_refused():
    out = workloads.Outcome()
    out.reference_s.append(1.0)
    out.record("a", 3.0, 1, [])
    with pytest.raises(ValueError):
        out.scaled("a")


def test_tick_records_the_reference_loop_time():
    out = workloads.Outcome()
    out.tick()
    assert len(out.reference_s) == 1 and out.reference_s[0] > 0.0
