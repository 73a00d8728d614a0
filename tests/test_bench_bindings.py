"""The benchmark under `perfbench/` patches program objects by name. Installing
and uninstalling its probes here makes a renamed or deleted binding fail the
test suite, not only a traced benchmark run."""

from pathlib import Path

from daplab import analysis, datagen, priors, tensor, trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_probes_install_and_restore_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import timing
    import tracer

    def bindings():
        return (tensor.conv2d, tensor.SGD.step, trainer.pseudo_label, analysis.evaluate,
                trainer.run, trainer.Trainer.save_train_state, trainer.Trainer.train_step,
                priors.proj, priors.downsample_embedding, tensor.OpRecord, tensor.backward,
                tensor.bilinear_resize, tensor.nearest_resize)

    originals = bindings()
    for probe in (tracer.Tracer(), timing.StepTimer()):
        try:
            probe.install()
        finally:
            probe.uninstall()
    assert all(now is before for now, before in zip(bindings(), originals))


def test_train_workload_configs_build_a_trainer(monkeypatch, tmp_path):
    """Each train workload's config, unchanged, must still make a Trainer: a
    config field or prior kind the benchmark passes cannot silently go."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    source_spec, target_spec = datagen.preset_specs("gap-default", seed=0)
    datagen.make_benchmark(source_spec, target_spec, 9, 1, 1, tmp_path, height=16, width=16)
    bundle = datagen.DatasetBundle(tmp_path)
    names = [name for name, workload in workloads.WORKLOADS.items()
             if isinstance(workload, workloads.TrainWorkload)]
    assert names
    for name in names:
        trainer.Trainer(workloads.WORKLOADS[name].config(1), bundle)


def test_a_traced_step_fires_every_backward_span_and_keeps_its_gradients(monkeypatch,
                                                                        tmp_path):
    """A train step under the tracer, whose op-record factory stands in for
    `tensor.OpRecord`: each op kind's backward span fires, and the parameter
    gradients equal an untraced step's bit for bit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    source_spec, target_spec = datagen.preset_specs("gap-default", seed=0)
    datagen.make_benchmark(source_spec, target_spec, 4, 2, 1, tmp_path, height=16, width=16)
    bundle = datagen.DatasetBundle(tmp_path)
    config = trainer.TrainConfig(steps=2, heldout_source=0, checkpoint_every=0, seed=3)

    def step_gradients():
        step = trainer.Trainer(config, bundle)
        step.train_step()
        return {name: p.grad for name, p in step.student.named()}

    untraced = step_gradients()
    probe = tracer.Tracer()
    try:
        probe.install()
        traced = step_gradients()
    finally:
        probe.uninstall()
    assert {f"tensor.{kind}.bwd" for kind in tracer.OP_KINDS} <= probe.fired()
    assert untraced.keys() == traced.keys()
    for name, grad in untraced.items():
        assert grad.dtype == traced[name].dtype and grad.shape == traced[name].shape, name
        assert grad.tobytes() == traced[name].tobytes(), name
