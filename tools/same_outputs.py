"""Check that another source tree writes the same CLI outputs as this one.

    python tools/same_outputs.py OTHER_SRC

OTHER_SRC is a directory holding the ``permpatterns`` package, such as the
``src`` of another commit::

    mkdir ../parent && git archive HEAD src | tar -x -C ../parent
    python tools/same_outputs.py ../parent/src

The corpora come from ``perfbench/corpus.py``, which is imported by path
and only read: ``mine -k 5`` and ``select-k`` over K 4..6 run on two
Facebook-shaped corpora, ``stats`` and ``simulate`` on a 30,000-app
Android-shaped one, ``simulate`` twice: with its defaults (20 bins, as
many simulated apps as real ones) and with ``--bins 7 --sim-n 5000``.
That corpus is written with "\\n" line ends and no quotes, which the
loader splits as plain text, so ``stats`` and both ``simulate`` runs also
run on a copy with "\\r\\n" line ends, which the loader reads with the
csv module, and on a JSON copy.  ``mine -k 5`` runs on a JSON copy of the
first Facebook corpus as well.  A JSON copy holds the apps as an array of
objects: price, rating and count as JSON numbers, except that on every
other app a number equal to 0 or 1 is written as false or true, an
unrated app's rating as null and the permissions as a list.  So the
JSON runs compare every kind of cell that the loader converts: numbers,
booleans, null, and equal numbers and booleans in one column.  Every
command runs once with this checkout's ``src`` on ``PYTHONPATH`` and once
with OTHER_SRC, one BLAS thread per process, and the outputs are compared
byte for byte.  Manifests are compared after dropping
``duration_seconds`` and the output-directory prefix of the listed
outputs.

The written files round beta, so the fits behind them are compared as
well: on each Facebook corpus, the ``mine`` training set at K=5 and every
``select-k`` half at each of its K are fitted again with each source tree,
and z, beta, r, epsilon and the log-likelihood must be equal bit for bit.
For each fit that differs, the script says whether z and u (beta
binarized) are equal and prints the largest relative difference of beta,
r, epsilon and the log-likelihood.

The fits above are Facebook-shaped (K <= 6, D = 40), so EM steps are also
compared at the Android shape, K=30 and D=130: on the distinct rows of
the first 10,000 Android apps, from z assigned by ``assign_matrix``
against the planted patterns, beta 0.05 on the patterns and 0.95
elsewhere, the planted r and epsilon and T = 1, each tree runs 12 steps,
each on the table the step before handed on, and the z, beta, r,
epsilon and log-likelihood after every step must be equal bit for bit.
For each step that differs, the script says whether z is equal and
prints the largest relative difference of beta, r, epsilon and the
log-likelihood.

Scoring is compared on held-out apps: those of the Android corpus against
its planted K=30 model, and those of each Facebook corpus against the
model its ``mine`` run fitted (this checkout's ``factorization.json``).
Each tree scores them with ``assign_matrix`` as one batch, with
``assign_matrix`` in slices of the benchmark's batch size (22 Android
apps, 100 Facebook apps) and with ``assign_patterns`` one app at a time,
and every assignment must be equal.  ``assign_patterns`` packs a row by
its dtype, so it also scores them as ``bool``, ``int64`` and ``float64``
rows and as Python lists, each a scoring of its own.  The paths run one
search, but they call it with different rows and at different points of
the model cache, so a model kept across calls that leaks into the wrong
one shows as a difference between them.  The Facebook apps are then scored
once more with the two models' calls alternating, app by app and slice
by slice, and these assignments must equal the per-model ones as well.
On those apps no greedy start but the empty one changes an assignment, so
a scoring set built to tie is compared too, on the same three paths: small
K and D, duplicate and empty patterns and unions of patterns, rows that
are unions of patterns with and without a few entries flipped, at r and
epsilon 0.5 and at the clip bounds 1e-6 and 1 - 1e-6.  Those rows mostly
end at a perfect cover, a set of patterns that covers every requested
entry and no other, which reaches the search's upper bound on the
set's score at once.  So a near-cover scoring set is compared as
well, whose rows end at the bound short of a perfect cover or run on
to later starts: on the same three paths and at the same r and epsilon,
rows that are unions of 1-3 patterns with one entry of one of them
dropped, with one entry of a pattern outside the union added, or with
one entry that no pattern covers added, against the planted K=30
Android patterns and against the patterns of the set built to tie.
Prints each file, fit, step and scoring that differs and exits 1 if any
does.
"""
from __future__ import annotations

import argparse
import csv
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
# the K=30 EM steps: how many, on the distinct rows of how many apps
STEPS, STEP_APPS = 12, 10_000
# the apps of one assign_matrix batch in perfbench/run.py
ANDROID_SLICE, FACEBOOK_SLICE = 22, 100
SELECT_KS, SELECT_REPETITIONS = (4, 5, 6), 2
# the scoring set built to tie: its seed, its cases and their rows, the
# slice size of its sliced scoring, and the r and epsilon it is scored at
# (each pair of them): 0.5, where different count pairs tie exactly, and
# the clip bounds, where a tie breaks by the least
TIE_SEED, TIE_CASES, TIE_ROWS, TIE_SLICE = 25, 400, 6, 4
TIE_PROBABILITIES = (0.5, 1e-6, 1 - 1e-6)
# the near-cover scoring set: its seed and its rows against the Android
# patterns (those against each tie-built case are TIE_ROWS)
NEAR_SEED, NEAR_ANDROID_ROWS = 26, 600
# simulate's non-default run, beside the one at its default 20 bins
SIMULATE_BINS = ("simulate", "--bins", "7", "--sim-n", "5000")
SELECT_K = ("select-k", "--k-min", str(SELECT_KS[0]),
            "--k-max", str(SELECT_KS[-1]),
            "--repetitions", str(SELECT_REPETITIONS), "--threads", "2")
# run in a child process with one tree's package: print the result of the
# function of this module named by argv[2] on the JSON argument argv[3]
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "import same_outputs; print(json.dumps(getattr(same_outputs, "
         "sys.argv[2])(json.loads(sys.argv[3]))))")


def _perfbench(name: str):
    """perfbench/<name>.py, loaded without writing its bytecode cache."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(work: Path, out_root: Path):
    """Write the corpora, the held-out apps and the rows of the K=30 steps
    under work.  Returns the (name, command, input, seed) of each command
    run, the (name, apps, model, slice size) of each scoring, a Facebook
    model being the factorization.json that the corpus's mine run writes
    under out_root, and the (rows, model) of the K=30 steps."""
    corpus = _perfbench("corpus")
    runs, scorings = [], []
    for seed in FACEBOOK_SEEDS:
        data = corpus.facebook(seed, FACEBOOK_APPS)
        path = work / f"facebook-{seed}.csv"
        corpus.write_csv(data, path)
        runs.append((f"mine-{seed}", ("mine", "-k", "5"), path, seed))
        if seed == FACEBOOK_SEEDS[0]:
            runs.append((f"mine-{seed}-json", ("mine", "-k", "5"),
                         write_json_copy(path), seed))
        runs.append((f"select-k-{seed}", SELECT_K, path, seed))
        apps = work / f"facebook-{seed}-apps.npy"
        np.save(apps, corpus.facebook_apps([seed, 1], data.u, SCORED_APPS))
        model = out_root / f"mine-{seed}" / "factorization.json"
        scorings.append((f"facebook-{seed} fitted K=5", str(apps), str(model),
                         FACEBOOK_SLICE))
    data = corpus.android(ANDROID_SEED, ANDROID_APPS)
    path = work / "android.csv"
    corpus.write_csv(data, path)
    crlf = work / "android-crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for suffix, source in (("", path), ("-crlf", crlf),
                           ("-json", write_json_copy(path))):
        runs.append((f"stats{suffix}", ("stats", "--top-n", "130"), source,
                     ANDROID_SEED))
        runs.append((f"simulate{suffix}", ("simulate",), source,
                     ANDROID_SEED))
        runs.append((f"simulate-bins{suffix}", SIMULATE_BINS, source,
                     ANDROID_SEED))
    apps, model = work / "android-apps.npy", work / "android-model.json"
    np.save(apps, corpus.android_apps([ANDROID_SEED, 1], data.u, SCORED_APPS))
    model.write_text(json.dumps({"u": data.u.tolist(), "r": data.r,
                                 "epsilon": data.epsilon}))
    scorings.append(("android planted K=30", str(apps), str(model),
                     ANDROID_SLICE))
    rows = work / "android-step-rows.npy"
    np.save(rows, np.unique(data.x[:STEP_APPS], axis=0))
    return runs, scorings, (str(rows), str(model))


def write_json_copy(path: Path) -> Path:
    """Write the apps of a CSV corpus as a JSON array of objects beside it:
    price, rating and count as JSON numbers, but as false or true on every
    other app where they equal 0 or 1, an unrated app's rating as null and
    the permissions as a list.  Returns the JSON file's path."""
    with open(path, newline="", encoding="utf-8") as fh:
        apps = list(csv.DictReader(fh))
    for i, app in enumerate(apps):
        for key in ("price", "avg_rating", "num_ratings"):
            value = json.loads(app[key]) if app[key] else None
            app[key] = bool(value) if i % 2 and value in (0, 1) else value
        perms = app["permissions"]
        app["permissions"] = perms.split(";") if perms else []
    copy = path.with_suffix(".json")
    copy.write_text(json.dumps(apps))
    return copy


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


def difference(ours: dict, theirs: dict) -> str:
    """How two fit_digests or step_digests entries of one fit or step
    differ: whether z and, for a fit, u are equal, and the largest
    relative difference of each float."""
    parts = [f"{name} {'equal' if ours[name] == theirs[name] else 'differ'}"
             for name in ("z", "u") if name in ours]
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
    slices of the given size, and by assign_patterns one app at a time,
    the apps given as uint8, bool, int64 and float64 rows and as lists.
    Then the apps of the Facebook scorings once more, with their models
    alternating app by app with assign_patterns and slice by slice with
    assign_matrix, so that what a call keeps of one model cannot reach
    another model's call unseen: these assignments get one digest, and
    the function exits if they differ from the per-model ones.  Runs with
    the package that is on the path."""
    from permpatterns import BinaryMatrix, assign_matrix, assign_patterns

    def digest(z) -> str:
        return hashlib.sha256(z.astype(np.uint8).tobytes()).hexdigest()

    def paths(x, u, r, eps, size) -> dict:
        """The assignments of the rows x by assign_matrix in one batch and
        in slices of size, and by assign_patterns one row at a time."""
        return {
            "assign_matrix": assign_matrix(BinaryMatrix(x), u, r, eps).data,
            f"assign_matrix in slices of {size}": np.vstack([
                assign_matrix(BinaryMatrix(x[lo:lo + size]), u, r, eps).data
                for lo in range(0, len(x), size)]),
            "assign_patterns": np.array([assign_patterns(row, u, r, eps)
                                         for row in x])}

    digests, facebook = {}, []
    for name, apps, model, size in scorings:
        x = np.load(apps)
        fact = json.loads(Path(model).read_text())
        u = BinaryMatrix(np.array(fact["u"], dtype=np.uint8))
        r, eps = fact["r"], fact["epsilon"]
        found = paths(x, u, r, eps, size)
        for entry, z in found.items():
            digests[f"{name} {entry}"] = digest(z)
        for kind, rows in (("bool", x.astype(bool)),
                           ("int64", x.astype(np.int64)),
                           ("float64", x.astype(np.float64)),
                           ("list", x.tolist())):
            digests[f"{name} assign_patterns on {kind} rows"] = digest(
                np.array([assign_patterns(row, u, r, eps) for row in rows]))
        if name.startswith("facebook"):
            single, sliced = (found["assign_patterns"],
                              found[f"assign_matrix in slices of {size}"])
            facebook.append((x, (u, r, eps), single, sliced))
        else:
            android = u
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
    # the sets built to tie and to fall short of a perfect cover, every
    # case at every (r, epsilon)
    ties = tie_cases()
    rng = np.random.default_rng(NEAR_SEED)
    sets = {"tie set": ties,
            "near-cover set android K=30": [(near_cover_rows(
                rng, android.data, NEAR_ANDROID_ROWS), android)],
            "near-cover set tie-built": [
                (near_cover_rows(rng, u.data, TIE_ROWS), u) for _, u in ties]}
    for set_name, cases in sets.items():
        for r in TIE_PROBABILITIES:
            for eps in TIE_PROBABILITIES:
                found = [paths(x, u, r, eps, TIE_SLICE) for x, u in cases]
                for entry in found[0]:
                    digests[f"{set_name} r={r} epsilon={eps} {entry}"] = (
                        digest(np.concatenate([z[entry].ravel()
                                               for z in found])))
    return digests


def near_cover_rows(rng, u, rows):
    """rows rows, each the union of 1-3 of the patterns u (a K x D 0/1
    array) made to miss a perfect cover in one of three ways, drawn
    evenly: one entry of one of its patterns dropped, one entry of a
    pattern outside the union added, or one entry that no pattern covers
    added.  A row stays the union where the way drawn finds no entry."""
    k, d = u.shape
    x = np.zeros((rows, d), dtype=np.uint8)
    for row in x:
        picks = rng.choice(k, size=min(k, int(rng.integers(1, 4))),
                           replace=False)
        row[:] = u[picks].max(axis=0)
        kind = rng.integers(0, 3)
        if kind == 0:
            pool = np.flatnonzero(u[rng.choice(picks)])
        elif kind == 1:
            others = np.setdiff1d(np.arange(k), picks)
            pool = np.flatnonzero(u[others].max(axis=0, initial=0) > row)
        else:
            pool = np.flatnonzero(u.max(axis=0) == 0)
        if pool.size:
            row[rng.choice(pool)] ^= 1
    return x


def tie_cases():
    """Seeded (x, u) cases built to tie: K 1-9 and D 2-23; a pattern
    empty, a copy of an earlier one, the union of two earlier ones or
    random; a row random, the union of 1-3 patterns, or such a union with
    about a tenth of its entries flipped."""
    from permpatterns import BinaryMatrix

    rng = np.random.default_rng(TIE_SEED)
    cases = []
    for _ in range(TIE_CASES):
        k, d = int(rng.integers(1, 10)), int(rng.integers(2, 24))
        u = np.zeros((k, d), dtype=np.uint8)
        for j in range(k):
            kind = rng.integers(0, 4)
            if kind == 0 and j:
                u[j] = u[rng.integers(0, j)]
            elif kind == 1 and j > 1:
                u[j] = u[rng.choice(j, 2, replace=False)].max(axis=0)
            elif kind == 2:
                u[j] = 0
            else:
                u[j] = rng.random(d) < rng.uniform(0.1, 0.5)
        x = np.zeros((TIE_ROWS, d), dtype=np.uint8)
        for row in x:
            kind = rng.integers(0, 3)
            if kind == 0:
                row[:] = rng.random(d) < rng.uniform(0.0, 1.0)
            else:
                picks = rng.integers(0, k, size=rng.integers(1, 4))
                row[:] = u[picks].max(axis=0)
                if kind == 2:
                    row ^= rng.random(d) < 0.1
        cases.append((x, BinaryMatrix(u)))
    return cases


def step_digests(arg) -> dict[str, dict]:
    """The SHA-256 of the exact z, beta, r, epsilon and log-likelihood
    after each of STEPS EM steps on the rows (an .npy file) from the start
    the model (a JSON file with u, r and epsilon) gives: z assigned by
    assign_matrix, beta 0.05 on the patterns and 0.95 elsewhere, the
    model's r and epsilon and T = 1, with those values, z as the SHA-256
    of its bytes.  Each step runs on the table the step before handed on.
    Runs with the package that is on the path."""
    from permpatterns import BinaryMatrix, assign_matrix
    from permpatterns.engine import FitState, em_step

    rows, model = arg
    x = BinaryMatrix(np.load(rows))
    fact = json.loads(Path(model).read_text())
    u = BinaryMatrix(np.array(fact["u"], dtype=np.uint8))
    r, eps = fact["r"], fact["epsilon"]
    state = FitState(beta=np.where(u.data == 1, 0.05, 0.95),
                     z=assign_matrix(x, u, r, eps).data, r=r, epsilon=eps,
                     temperature=1.0)
    digests = {}
    for step in range(STEPS):
        state = em_step(x, state, state.table)
        values = (state.r, state.epsilon, state.log_likelihood)
        digests[f"android K=30 step {step + 1}"] = {
            "digest": hashlib.sha256(
                state.z.tobytes() + state.beta.tobytes()
                + repr(values).encode()).hexdigest(),
            "z": hashlib.sha256(state.z.tobytes()).hexdigest(),
            "beta": state.beta.tolist(), "r": state.r,
            "epsilon": state.epsilon,
            "log_likelihood": state.log_likelihood}
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
    """The digest of a fit_digests, step_digests or score_digests entry."""
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
        runs, scorings, steps = write_inputs(work, sides[0])
        for src, out_root in zip((ROOT / "src", other), sides):
            run_all(src, out_root, runs)
        files = sorted({p.relative_to(side) for side in sides
                        for p in side.rglob("*") if p.is_file()})
        differ = [f for f in files
                  if not all((side / f).is_file() for side in sides)
                  or comparable(sides[0], f) != comparable(sides[1], f)]
        corpora = [(str(path), seed) for _, command, path, seed in runs
                   if command[0] == "mine" and path.suffix == ".csv"]
        compared = []
        for what, function, arg in (("fit", "fit_digests", corpora),
                                    ("step", "step_digests", steps),
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
            if what != "scoring" and name in theirs:
                print(f"  {difference(ours[name], theirs[name])}")
    print(f"{len(differ)} of {len(files)} files differ")
    for what, ours, _, names in compared:
        print(f"{len(names)} of {len(ours)} {what}s differ")
    return 1 if differ or any(names for *_, names in compared) else 0


if __name__ == "__main__":
    sys.exit(main())
