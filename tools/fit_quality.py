"""Print how well this source tree's fitter recovers planted models, and
another tree's beside it.

    python tools/fit_quality.py [OTHER_SRC] [--android]

OTHER_SRC is a directory holding the ``permpatterns`` package, such as the
``src`` of another commit::

    mkdir ../parent && git archive HEAD src | tar -x -C ../parent
    python tools/fit_quality.py ../parent/src

Fits change with the fitter, so ``tools/same_outputs.py`` can only say
that they differ; this panel says whether they got better or worse.  The
corpora come from ``perfbench/corpus.py`` and are matched with
``perfbench/checks.py``, both imported by path and only read.  Each row is
a set of planted corpora, fitted by each tree in a child process of its
own with one BLAS thread, the trees one after the other:

- ``facebook n=400``: K=5 on the high-reputation apps of
  ``corpus.facebook([seed, 0], 400)`` (130-185 rows), seeds 44-107, as
  ``mine`` fits the benchmark's corpora;
- ``facebook n=3000``: the same at 3,000 apps (1,167-1,239 rows), seeds
  44-59;
- ``select-k``: ``select_k`` over K 4-6, one repetition, serially, on all
  200 apps of ``corpus.facebook([seed, 1], 200, tiers=(1, 0, 0))``,
  seeds 100-163, as the benchmark's ``select-k`` runs;
- with ``--android``, ``android n=40000``: K=30 on the high-reputation
  apps of ``corpus.android(seed, 40000)`` (2,712-2,874 rows), seeds 3, 7
  and 11.  Each fit takes about a minute.

Every fit starts from ``FitConfig(seed=0)`` with the tree's defaults.
For each row and tree the panel prints the fits that recovered the
planted patterns exactly, by ``checks.matched_hamming`` for K <= 8, and
their total Hamming distance after matching.  ``matched_hamming`` tries
all K! pairings, so at K=30 it prints each fit's count of planted
patterns found exactly among the fitted ones.  Then the fitted patterns
left empty, the median fitted epsilon over the planted one, the fits
whose r ended above 0.99 (the planted r is 0.5 on Facebook and 0.02 on
Android), the median EM step count and fit time, and the row's total
time.  A ``select-k`` row prints instead how often the planted K=5
was selected, the median instability at K=5 and how many sweeps it
exceeded 0.2 in, and the steps and time of a whole sweep.  Prints a
Markdown table.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from same_outputs import _env, _perfbench

ROOT = Path(__file__).resolve().parents[1]
# name: (corpus or select-k, corpus seeds, apps, K)
ROWS = {
    "facebook n=400": ("facebook", range(44, 108), 400, 5),
    "facebook n=3000": ("facebook", range(44, 60), 3000, 5),
    "select-k": ("select-k", range(100, 164), 200, 5),
}
ANDROID_ROWS = {
    "android n=40000": ("android", (3, 7, 11), 40_000, 30),
}
SELECT_KS = (4, 5, 6)
# above these, a fit's r counts as pinned near its clip bound and a
# sweep's instability at the planted K as a failed fit of a half
R_PINNED, UNSTABLE = 0.99, 0.2
# run in a child process with one tree's package: print where the package
# was imported from and row_fits of the row named by argv[2]
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "import fit_quality, permpatterns; "
         "print(json.dumps([permpatterns.__file__, "
         "fit_quality.row_fits(sys.argv[2])]))")


def row_fits(name: str) -> list[dict]:
    """Each fit (or select-k sweep) of the row, with the package that is on
    the path: what it recovered, its EM steps and its time."""
    from permpatterns import BinaryMatrix, FitConfig, engine, fit, select_k

    corpus, checks = _perfbench("corpus"), _perfbench("checks")
    kind, seeds, n, k = {**ROWS, **ANDROID_ROWS}[name]
    steps = 0
    em_step = engine.em_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return em_step(*args)

    engine.em_step = counted
    fits = []
    for seed in seeds:
        if kind == "select-k":
            data = corpus.facebook([seed, 1], n, k=k, tiers=(1, 0, 0))
            steps, start = 0, time.perf_counter()
            report = select_k(BinaryMatrix(data.x), SELECT_KS, 1,
                              FitConfig(seed=0))
            seconds = time.perf_counter() - start
            planted = next(rec for rec in report.records if rec.k == k)
            fits.append({"selected": report.selected_k,
                         "instability": planted.median,
                         "steps": steps, "seconds": seconds})
            continue
        data = (corpus.android(seed, n) if kind == "android"
                else corpus.facebook([seed, 0], n, k=k))
        x = BinaryMatrix(data.x[checks.reputation_tiers(data)[0]])
        steps, start = 0, time.perf_counter()
        fact = fit(x, k, FitConfig(seed=0))
        seconds = time.perf_counter() - start
        u = fact.u.data
        record = {"empty": int((u.sum(axis=1) == 0).sum()),
                  "epsilon_ratio": fact.epsilon / data.epsilon, "r": fact.r,
                  "steps": steps, "seconds": seconds}
        if k <= 8:
            record["hamming"] = checks.matched_hamming(data.u, u)
        else:
            fitted = {row.tobytes() for row in u}
            record["found"] = sum(row.tobytes() in fitted for row in data.u)
        fits.append(record)
    return fits


def run_child(src: Path, name: str) -> list[dict]:
    """row_fits(name) run with the package in src; exits if the package
    was not imported from src."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent), name],
        env=_env(src), capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"row {name!r} exited {proc.returncode} with {src}:\n"
                 f"{proc.stderr}")
    where, fits = json.loads(proc.stdout)
    if not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"permpatterns is not imported from {src} (got {where!r})")
    return fits


def summary(fits: list[dict], k: int) -> list[str]:
    """The panel's cells of one row and tree."""
    median = statistics.median
    count = len(fits)
    cost = [f"{median(f['steps'] for f in fits):.0f}",
            f"{median(f['seconds'] for f in fits):.3f}",
            f"{sum(f['seconds'] for f in fits):.1f}"]
    if "selected" in fits[0]:
        unstable = sum(f["instability"] > UNSTABLE for f in fits)
        return ["-"] * 5 + [
            f"{sum(f['selected'] == k for f in fits)} / {count}",
            f"{median(f['instability'] for f in fits):.3f}"
            f" (> {UNSTABLE} in {unstable})", *cost]
    if "hamming" in fits[0]:
        exact = (f"{sum(f['hamming'] == 0 for f in fits)} / {count}",
                 str(sum(f["hamming"] for f in fits)))
    else:
        exact = (" ".join(str(f["found"]) for f in fits) + f" of {k}", "-")
    return [*exact, str(sum(f["empty"] for f in fits)),
            f"{median(f['epsilon_ratio'] for f in fits):.3f}",
            f"{sum(f['r'] > R_PINNED for f in fits)} / {count}", "-", "-",
            *cost]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", type=Path, nargs="?",
                        help="directory holding the other permpatterns")
    parser.add_argument("--android", action="store_true",
                        help="also fit the K=30 Android rows (minutes)")
    args = parser.parse_args()
    trees = [("this", ROOT / "src")]
    if args.other_src:
        trees.append(("other", args.other_src))
    rows = {**ROWS, **(ANDROID_ROWS if args.android else {})}
    print("| row | tree | exact | Hamming | empty | eps / planted | "
          f"r > {R_PINNED} | planted K selected | planted-K instability | "
          "median steps | median s | total s |")
    print("|---" * 12 + "|")
    for name, (_, _, _, k) in rows.items():
        for tree, src in trees:
            cells = summary(run_child(src, name), k)
            print(f"| {name} | {tree} | " + " | ".join(cells) + " |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
