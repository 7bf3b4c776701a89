"""Check that another source tree writes the same CLI outputs as this one.

    python tools/same_outputs.py OTHER_SRC

OTHER_SRC is a directory holding the ``permpatterns`` package, such as the
``src`` of another commit::

    mkdir ../parent && git archive HEAD src | tar -x -C ../parent
    python tools/same_outputs.py ../parent/src

The corpora come from ``perfbench/corpus.py``, which is imported by path
and only read: ``mine -k 5`` and ``select-k`` over K 4..6 run on two
Facebook-shaped corpora, ``stats`` and ``simulate`` on a 30,000-app
Android-shaped one.  Every command runs once with this checkout's ``src``
on ``PYTHONPATH`` and once with OTHER_SRC, one BLAS thread per process,
and the outputs are compared byte for byte.  Manifests are compared after
dropping ``duration_seconds`` and the output-directory prefix of the
listed outputs.

The written files round beta, so the fits behind them are compared as
well: on each Facebook corpus, the ``mine`` training set at K=5 and every
``select-k`` half at each of its K are fitted again with each source tree,
and z, beta, r, epsilon and the log-likelihood must be equal bit for bit.
For each fit that differs, the script says whether z and u (beta
binarized) are equal and prints the largest relative difference of beta,
r, epsilon and the log-likelihood.

Scoring is compared on held-out apps: those of the Android corpus against
its planted K=30 model, and those of each Facebook corpus against the
model its ``mine`` run fitted (this checkout's ``factorization.json``).
Each tree scores them with ``assign_matrix`` as one batch, with
``assign_matrix`` in slices of the benchmark's batch size (22 Android
apps, 100 Facebook apps) and with ``assign_patterns`` one app at a time,
and every assignment must be equal.  The Facebook apps are then scored
once more with the two models' calls alternating, app by app and slice
by slice, and these assignments must equal the per-model ones as well.
Prints each file, fit and scoring that differs and exits 1 if any does.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FACEBOOK_SEEDS = (44, 45)
FACEBOOK_APPS = 400
ANDROID_SEED = 7
ANDROID_APPS = 30_000
SCORED_APPS = 2_000
# the apps of one assign_matrix batch in perfbench/run.py
ANDROID_SLICE, FACEBOOK_SLICE = 22, 100
SELECT_KS, SELECT_REPETITIONS = (4, 5, 6), 2
SELECT_K = ("select-k", "--k-min", str(SELECT_KS[0]),
            "--k-max", str(SELECT_KS[-1]),
            "--repetitions", str(SELECT_REPETITIONS), "--threads", "2")
# run in a child process with one tree's package: print the result of the
# function of this module named by argv[2] on the JSON argument argv[3]
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "import same_outputs; print(json.dumps(getattr(same_outputs, "
         "sys.argv[2])(json.loads(sys.argv[3]))))")


def _corpus_module():
    """perfbench/corpus.py, loaded without writing its bytecode cache."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "corpus", ROOT / "perfbench" / "corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(work: Path, out_root: Path):
    """Write the corpora and the held-out apps under work.  Returns the
    (name, command, input, seed) of each command run and the (name, apps,
    model, slice size) of each scoring; a Facebook model is the
    factorization.json that the corpus's mine run writes under out_root."""
    corpus = _corpus_module()
    runs, scorings = [], []
    for seed in FACEBOOK_SEEDS:
        data = corpus.facebook(seed, FACEBOOK_APPS)
        path = work / f"facebook-{seed}.csv"
        corpus.write_csv(data, path)
        runs.append((f"mine-{seed}", ("mine", "-k", "5"), path, seed))
        runs.append((f"select-k-{seed}", SELECT_K, path, seed))
        apps = work / f"facebook-{seed}-apps.npy"
        np.save(apps, corpus.facebook_apps([seed, 1], data.u, SCORED_APPS))
        model = out_root / f"mine-{seed}" / "factorization.json"
        scorings.append((f"facebook-{seed} fitted K=5", str(apps), str(model),
                         FACEBOOK_SLICE))
    data = corpus.android(ANDROID_SEED, ANDROID_APPS)
    path = work / "android.csv"
    corpus.write_csv(data, path)
    runs.append(("stats", ("stats", "--top-n", "130"), path, ANDROID_SEED))
    runs.append(("simulate", ("simulate",), path, ANDROID_SEED))
    apps, model = work / "android-apps.npy", work / "android-model.json"
    np.save(apps, corpus.android_apps([ANDROID_SEED, 1], data.u, SCORED_APPS))
    model.write_text(json.dumps({"u": data.u.tolist(), "r": data.r,
                                 "epsilon": data.epsilon}))
    scorings.append(("android planted K=30", str(apps), str(model),
                     ANDROID_SLICE))
    return runs, scorings


def _env(src: Path) -> dict[str, str]:
    """The environment of a child that imports the package from src."""
    return {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONDONTWRITEBYTECODE": "1"}


def run_all(src: Path, out_root: Path, runs) -> None:
    """Run every command with src on PYTHONPATH, each into its own
    directory under out_root; exit if one fails or if the package is not
    imported from src."""
    env = _env(src)
    where = subprocess.run(
        [sys.executable, "-c", "import permpatterns; print(permpatterns.__file__)"],
        env=env, capture_output=True, text=True).stdout.strip()
    if not where or not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"permpatterns is not imported from {src} (got {where!r})")
    for name, command, path, seed in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "permpatterns.cli", *command,
             "--input", str(path), "--seed", str(seed),
             "--out-dir", str(out_root / name)],
            env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"{name} exited {proc.returncode} with {src}:\n"
                     f"{proc.stderr}")


def fit_digests(corpora) -> dict[str, dict]:
    """For each (csv path, seed) in corpora, the SHA-256 of each fit's
    exact z, beta, r, epsilon and log-likelihood, with those values: the
    ``mine`` training set at K=5, then each ``select-k`` half at each K,
    fitted as the commands fit them.  Runs with the package that is on the
    path."""
    from permpatterns import FitConfig, fit
    from permpatterns.dataset import (ReputationCriteria, filter_reputation,
                                      load_dataset)
    from permpatterns.selection import split_dataset

    def digest(fact) -> dict:
        values = (fact.r, fact.epsilon, fact.log_likelihood)
        return {"digest": hashlib.sha256(
                    fact.z.data.tobytes() + fact.beta.tobytes()
                    + repr(values).encode()).hexdigest(),
                "z": fact.z.data.tolist(), "u": fact.u.data.tolist(),
                "beta": fact.beta.tolist(), "r": fact.r,
                "epsilon": fact.epsilon,
                "log_likelihood": fact.log_likelihood}

    digests = {}
    for path, seed in corpora:
        name = Path(path).stem
        ds = load_dataset(path)
        train = filter_reputation(ds, ReputationCriteria())[0].to_matrix()
        digests[f"{name} mine K=5"] = digest(
            fit(train, 5, FitConfig(seed=seed)))
        x = ds.to_matrix()
        for rep in range(SELECT_REPETITIONS):
            halves = split_dataset(x, seed + rep)
            for k in SELECT_KS:
                for h, half in enumerate(halves):
                    digests[f"{name} select-k K={k} repetition {rep} "
                            f"half {h + 1}"] = digest(
                        fit(half, k, FitConfig(seed=seed + rep)))
    return digests


def fit_difference(ours: dict, theirs: dict) -> str:
    """How two fit_digests entries of one fit differ: whether z and u are
    equal, and the largest relative difference of each float."""
    parts = [f"{name} {'equal' if ours[name] == theirs[name] else 'differ'}"
             for name in ("z", "u")]
    for name in ("beta", "r", "epsilon", "log_likelihood"):
        a, b = np.asarray(ours[name]), np.asarray(theirs[name])
        if a.shape != b.shape:
            parts.append(f"{name} shapes {a.shape} and {b.shape}")
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
        rel = np.where(a == b, 0.0, rel)
        parts.append(f"{name} rel {float(rel.max(initial=0.0)):.2e}")
    return ", ".join(parts)


def score_digests(scorings) -> dict[str, str]:
    """For each (name, apps, model, slice size) in scorings, the SHA-256
    of the assignments of the apps (an .npy file) against the model (a
    JSON file with u, r and epsilon): by assign_matrix in one batch and in
    slices of the given size, and by assign_patterns one app at a time.
    Then the apps of the Facebook scorings once more, with their models
    alternating app by app with assign_patterns and slice by slice with
    assign_matrix, so that what a call keeps of one model cannot reach
    another model's call unseen: these assignments get one digest, and
    the function exits if they differ from the per-model ones.  Runs with
    the package that is on the path."""
    from permpatterns import BinaryMatrix, assign_matrix, assign_patterns

    def digest(z) -> str:
        return hashlib.sha256(z.astype(np.uint8).tobytes()).hexdigest()

    digests, facebook = {}, []
    for name, apps, model, size in scorings:
        x = np.load(apps)
        fact = json.loads(Path(model).read_text())
        u = BinaryMatrix(np.array(fact["u"], dtype=np.uint8))
        r, eps = fact["r"], fact["epsilon"]
        batch = assign_matrix(BinaryMatrix(x), u, r, eps).data
        sliced = np.vstack([
            assign_matrix(BinaryMatrix(x[lo:lo + size]), u, r, eps).data
            for lo in range(0, len(x), size)])
        single = np.array([assign_patterns(row, u, r, eps) for row in x])
        for entry, z in (("assign_matrix", batch),
                         (f"assign_matrix in slices of {size}", sliced),
                         ("assign_patterns", single)):
            digests[f"{name} {entry}"] = digest(z)
        if name.startswith("facebook"):
            facebook.append((x, (u, r, eps), single, sliced))
    # each Facebook model's single and sliced assignments once more, with
    # the calls alternating between the models
    again = [([], []) for _ in facebook]
    for i in range(SCORED_APPS):
        for (x, model, *_), (rows, _) in zip(facebook, again):
            rows.append(assign_patterns(x[i], *model))
    for lo in range(0, SCORED_APPS, FACEBOOK_SLICE):
        for (x, model, *_), (_, slices) in zip(facebook, again):
            slices.append(assign_matrix(
                BinaryMatrix(x[lo:lo + FACEBOOK_SLICE]), *model).data)
    again = [np.vstack(z) for pair in again for z in pair]
    once = [z for *_, single, sliced in facebook for z in (single, sliced)]
    if not all(map(np.array_equal, again, once)):
        sys.exit("the Facebook models' assignments differ when their calls "
                 "alternate")
    digests["facebook models alternating"] = digest(np.vstack(again))
    return digests


def run_child(src: Path, function: str, arg) -> dict[str, str]:
    """function(arg), one of this module's digest functions, run with the
    package in src."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent), function,
         json.dumps(arg)],
        env=_env(src), capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{function} exited {proc.returncode} with {src}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout)


def _digest(entry):
    """The digest of a fit_digests or score_digests entry."""
    return entry["digest"] if isinstance(entry, dict) else entry


def comparable(out_root: Path, name: Path):
    """A file's bytes, or for a manifest its content without the run time
    and with the outputs relative to out_root."""
    path = out_root / name
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    del manifest["duration_seconds"]
    manifest["outputs"] = [str(Path(p).relative_to(out_root))
                           for p in manifest["outputs"]]
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", type=Path,
                        help="directory holding the other permpatterns")
    other = parser.parse_args().other_src
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sides = (work / "this", work / "other")
        runs, scorings = write_inputs(work, sides[0])
        for src, out_root in zip((ROOT / "src", other), sides):
            run_all(src, out_root, runs)
        files = sorted({p.relative_to(side) for side in sides
                        for p in side.rglob("*") if p.is_file()})
        differ = [f for f in files
                  if not all((side / f).is_file() for side in sides)
                  or comparable(sides[0], f) != comparable(sides[1], f)]
        corpora = [(str(path), seed) for _, command, path, seed in runs
                   if command[0] == "mine"]
        compared = []
        for what, function, arg in (("fit", "fit_digests", corpora),
                                    ("scoring", "score_digests", scorings)):
            ours, theirs = (run_child(src, function, arg)
                            for src in (ROOT / "src", other))
            compared.append((what, ours, theirs, [
                name for name in ours if _digest(ours[name])
                != _digest(theirs.get(name))]))
    for name in differ:
        print(f"differs: {name}")
    for what, ours, theirs, names in compared:
        for name in names:
            print(f"{what} differs: {name}")
            if what == "fit" and name in theirs:
                print(f"  {fit_difference(ours[name], theirs[name])}")
    print(f"{len(differ)} of {len(files)} files differ")
    for what, ours, _, names in compared:
        print(f"{len(names)} of {len(ours)} {what}s differ")
    return 1 if differ or any(names for *_, names in compared) else 0


if __name__ == "__main__":
    sys.exit(main())
