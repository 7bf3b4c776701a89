"""The benchmark's span tracer (perfbench/tracer.py) finds the functions it
wraps, and its checks (perfbench/checks.py) find what they read in the
outputs: a renamed hook or a dropped output key would otherwise surface only
as a failed benchmark run."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from click.testing import CliRunner

import permpatterns
from permpatterns import FitConfig, plant_factorization
from permpatterns.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def load_module(name, path):
    """Import a perfbench script by its path; it is registered before it
    runs, as ``dataclass`` looks its module up there."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("perfbench_tracer", TRACER_PATH)


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
    # in the sweep, and 2 halves x 1 repetition in instability's sweep
    assert names.count("cli.instability_job") == 10
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


def test_outputs_hold_what_the_benchmark_checks_read(tmp_path, monkeypatch):
    corpus = load_module("perfbench_corpus", PERFBENCH / "corpus.py")
    checks = load_module("perfbench_checks", PERFBENCH / "checks.py")
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(main, list(map(str, args)))
        assert result.exit_code == 0, result.output

    mine_corpus = corpus.facebook([1, 0], 400, k=5)
    corpus.write_csv(mine_corpus, "mine.csv")
    run("mine", "--input", "mine.csv", "--out-dir", "mine", "-k", 5)
    problems, _ = checks.mine("mine", mine_corpus, "mine.csv")
    assert problems == []

    select_corpus = corpus.facebook([1, 0], 200, k=5, tiers=(1.0, 0.0, 0.0))
    corpus.write_csv(select_corpus, "select.csv")
    run("select-k", "--input", "select.csv", "--out-dir", "select",
        "--k-min", 4, "--k-max", 6, "--repetitions", 1)
    problems, _ = checks.select_k("select", "select.csv", 5, range(4, 7), 1)
    assert problems == []

    android = corpus.android([1], 3000)
    corpus.write_csv(android, "android.csv")
    run("stats", "--input", "android.csv", "--out-dir", "stats",
        "--top-n", corpus.ANDROID_D)
    assert checks.stats("stats", android.x, android.permissions,
                        android.prices) == []
    run("simulate", "--input", "android.csv", "--out-dir", "simulate")
    assert checks.simulate("simulate", android.x) == []
