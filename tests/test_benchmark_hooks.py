"""The benchmark's span tracer (perfbench/tracer.py) finds the functions it
wraps: a renamed hook would otherwise surface only as a failed benchmark run."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import permpatterns
from permpatterns import FitConfig, plant_factorization

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    """Every function the tracer may replace, by where it is bound."""
    modules = [permpatterns] + [
        importlib.import_module(f"permpatterns.{layer}")
        for layer in tracer.LAYERS]
    out = {(mod.__name__, attr): obj for mod in modules
           for attr, obj in vars(mod).items() if inspect.isfunction(obj)}
    cli = importlib.import_module("permpatterns.cli")
    for command in cli.main.commands.values():
        out[("command", command.name)] = command.callback
    out[("Dataset", "to_matrix")] = permpatterns.Dataset.to_matrix
    return out


def test_tracer_installs_records_and_uninstalls(tmp_path):
    tracer = load_tracer()
    for name in tracer.ATTRS:
        layer, attr = name.split(".")
        module = importlib.import_module(f"permpatterns.{layer}")
        assert inspect.isfunction(getattr(module, attr)), name
    before = bindings(tracer)
    x, _, _ = plant_factorization(40, 6, 2, 0.3, 0.4, 0.0, 0.5, seed=0)
    config = FitConfig(seed=0, cooling_factor=0.5, max_inner_iterations=5)

    spans = tracer.Tracer(tmp_path)
    uninstall = tracer.install(spans)
    try:
        assert permpatterns.select_k is not before[("permpatterns",
                                                    "select_k")]
        permpatterns.select_k(x, [2, 3], repetitions=2, config=config)
        permpatterns.instability(x, 2, repetitions=1, config=config)
    finally:
        uninstall()
    spans.flush()

    recorded = tracer.load_spans(tmp_path)
    names = [span["name"] for span in recorded]
    assert {"selection.select_k", "engine.fit"} <= set(names)
    # one pool job per fit of a half: 2 halves x 2 repetitions x 2 K values
    assert names.count("cli.instability_job") == 8
    assert [span["k"] for span in recorded
            if span["name"] == "selection.instability"] == [2]
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_fit_records_one_em_step_span_per_step(tmp_path, monkeypatch):
    # the fitting loop hands each step's tables to the next through the
    # module's em_step, so the tracer's wrapper sees every step
    engine = importlib.import_module("permpatterns.engine")
    update_z = engine._update_z
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return update_z(*args, **kwargs)

    monkeypatch.setattr(engine, "_update_z", counted)
    tracer = load_tracer()
    x, _, _ = plant_factorization(40, 6, 2, 0.3, 0.4, 0.0, 0.5, seed=0)
    spans = tracer.Tracer(tmp_path)
    uninstall = tracer.install(spans)
    try:
        permpatterns.fit(x, 2, FitConfig(seed=0, cooling_factor=0.5))
    finally:
        uninstall()
    spans.flush()

    names = [span["name"] for span in tracer.load_spans(tmp_path)]
    assert names.count("engine.fit") == 1
    assert steps and names.count("engine.em_step") == len(steps)
