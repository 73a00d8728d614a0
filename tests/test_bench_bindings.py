"""The benchmark under `perfbench/` patches program objects by name. Installing
and uninstalling its probes here makes a renamed or deleted binding fail the
test suite, not only a traced benchmark run."""

from pathlib import Path

from daplab import analysis, priors, tensor, trainer

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
