"""Command-line front end: stats, select-k, mine, simulate.

Every command takes a single ``--seed`` from which all sub-seeds are
derived, writes its outputs as plain CSV/JSON into ``--out-dir``, and
finishes by writing a run manifest.  The library modules return data;
this module alone writes files.  Exit codes: 0 success, 2 input or
configuration error.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from itertools import zip_longest
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import ConfigError, FitConfig
from .dataset import (
    Dataset,
    DatasetError,
    ReputationCriteria,
    _cyclic_gc_paused,
    load_dataset,
    filter_reputation,
    summary_stats,
)
from .engine import assign_matrix, fit
from .evaluation import (
    category_divergence,
    error_rates,
    pcp_matrix,
    average_pcp,
)
# _instability_job is bound here too: perfbench/tracer.py traces the
# select-k pool job as cli._instability_job
from .selection import _instability_job, select_k  # noqa: F401
from .simulate import (marginal_probs, pcp_bins, pcp_histogram,
                       simulate_independent)

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _column(values):
    """A column's cells.  In a column of floats (Python or numpy float64),
    each distinct value's repr is made once, and NaN is an empty cell; any
    other column is written as it is."""
    array = np.asarray(values)
    if array.dtype != np.float64:
        return values
    # distinct by bit pattern, so that -0.0 and 0.0 keep their own repr
    bits, which = np.unique(array.view(np.uint64), return_inverse=True)
    floats = bits.view(np.float64)
    text = list(map(repr, floats.tolist()))
    for i in np.flatnonzero(np.isnan(floats)).tolist():
        text[i] = ""
    return list(map(text.__getitem__, which.tolist()))


def _open(path: Path, **kwargs):
    """Open an output file for writing, creating its directory first; a
    directory that cannot be created exits with code 2."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot create output directory {path.parent}: {exc.strerror}")
    return open(path, "w", **kwargs)


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write one table: a float cell as its repr, NaN as an empty cell.
    The cells are converted a column at a time."""
    with _open(path, newline="") as fh, _cyclic_gc_paused():
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(_column, zip(*rows))))
    return path


def _write_json(path: Path, obj) -> Path:
    with _open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def _write_manifest(out_dir: Path, command: str, input_path: str, seed: int,
                    config: dict, outputs: list[Path], started: float) -> Path:
    return _write_json(out_dir / "manifest.json", {
        "command": command,
        "config": {**config, "input": input_path},
        "input_digests": {str(Path(input_path)): _sha256(Path(input_path))},
        "seed": seed,
        "version": __version__,
        "outputs": sorted(str(p) for p in outputs),
        "duration_seconds": round(time.monotonic() - started, 3),
    })


def _read_dataset(input_path: str, column_map_path: str | None) -> Dataset:
    """Load the input; an unreadable or malformed input or column map
    exits with code 2."""
    column_map = None
    if column_map_path:
        try:
            with open(column_map_path, encoding="utf-8-sig") as fh:
                column_map = json.load(fh)
        except (OSError, RecursionError, ValueError) as exc:
            _fail(f"bad column map: {exc}")
        if not (isinstance(column_map, dict)
                and all(isinstance(v, str) for v in column_map.values())):
            _fail(f"bad column map: {column_map_path} is not a JSON object "
                  "of column names")
    try:
        return load_dataset(input_path, column_map=column_map)
    except DatasetError as exc:
        _fail(str(exc))


def _fail(message: str):
    """Report an input or configuration error on one line and exit 2."""
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
@click.version_option(__version__)
def main():
    """Mine overlapping permission-request patterns from app datasets."""


common_input = [
    click.option("--input", "input_path", required=True, help="CSV/JSON dataset."),
    click.option("--column-map", "column_map_path", default=None,
                 help="JSON file mapping schema columns to input columns."),
    click.option("--seed", default=0, show_default=True,
                 type=click.IntRange(min=0)),
    click.option("--out-dir", "out_dir", required=True,
                 type=click.Path(file_okay=False)),
]


def with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@main.command()
@with_options(common_input)
@click.option("--top-n", default=15, show_default=True,
              type=click.IntRange(min=0))
def stats(input_path, column_map_path, seed, out_dir, top_n):
    """Descriptive statistics: permission frequencies, prices, ratings."""
    started, out = time.monotonic(), Path(out_dir)
    summary = summary_stats(_read_dataset(input_path, column_map_path),
                            top_n=top_n)
    outputs = [
        _write_csv(out / "permission_frequencies.csv",
                   ["permission", "fraction"], summary.permission_frequencies),
        _write_csv(out / "price_cumulative.csv",
                   ["price", "cumulative_fraction"], summary.price_cumulative),
        _write_csv(out / "ratings.csv", ["avg_rating", "num_ratings"],
                   summary.rating_table),
    ]
    outputs.append(_write_manifest(out, "stats", input_path, seed,
                                   {"top_n": top_n}, outputs, started))
    click.echo(f"wrote {len(outputs)} files to {out}")


@main.command("select-k")
@with_options(common_input)
@click.option("--k-min", required=True, type=click.IntRange(min=1))
@click.option("--k-max", required=True, type=click.IntRange(min=1))
@click.option("--repetitions", default=5, show_default=True,
              type=click.IntRange(min=1))
@click.option("--threads", default=1, show_default=True,
              type=click.IntRange(min=1),
              help="Worker processes, at most one per CPU; each fit of a "
                   "half is one job. Results do not depend on it.")
def select_k_cmd(input_path, column_map_path, seed, out_dir,
                 k_min, k_max, repetitions, threads):
    """Instability sweep over K; selects the minimum-median K."""
    started, out = time.monotonic(), Path(out_dir)
    if k_min > k_max:
        _fail(f"invalid K range [{k_min}, {k_max}]")
    x = _read_dataset(input_path, column_map_path).to_matrix()
    if k_max > x.cols:
        _fail(f"k_max={k_max} exceeds the number of permissions D={x.cols}")
    if x.rows < 2:
        _fail(f"select-k needs at least 2 apps to split, got {x.rows}")
    report = select_k(x, range(k_min, k_max + 1), repetitions,
                      FitConfig(seed=seed), threads=threads)
    rows = [(rec.k, rep, rep_seed, s, rec.median, rec.std,
             int(rec.k == report.selected_k))
            for rec in report.records
            for rep, (rep_seed, s) in enumerate(zip(rec.seeds, rec.values))]
    outputs = [_write_csv(out / "instability.csv",
                          ["K", "repetition", "seed", "s", "median_s", "std_s",
                           "selected"], rows)]
    cfg = {"k_min": k_min, "k_max": k_max, "repetitions": repetitions,
           "selected_k": report.selected_k, "failed_k": report.failed_k}
    _write_manifest(out, "select-k", input_path, seed, cfg, outputs, started)
    click.echo(f"selected K = {report.selected_k}")


@main.command()
@with_options(common_input)
@click.option("-k", "--patterns", "k", required=True,
              type=click.IntRange(min=1),
              help="Number of patterns to fit.")
@click.option("--reputation-config", "reputation_path", default=None,
              help="JSON with min_avg_rating, min_num_ratings, "
                   "max_low_num_ratings, test_size, split_seed.")
@click.option("--kl-smoothing", default=0.5, show_default=True, type=float)
def mine(input_path, column_map_path, seed, out_dir, k,
         reputation_path, kl_smoothing):
    """Fit patterns on high-reputation apps and evaluate all three subsets."""
    started, out = time.monotonic(), Path(out_dir)
    if not (math.isfinite(kl_smoothing) and kl_smoothing >= 0):
        _fail("--kl-smoothing must be a finite number >= 0, "
              f"got {kl_smoothing}")
    criteria = ReputationCriteria()
    if reputation_path:
        try:
            with open(reputation_path, encoding="utf-8-sig") as fh:
                criteria = ReputationCriteria(**json.load(fh))
        except (OSError, RecursionError, TypeError, ValueError) as exc:
            _fail(f"bad reputation config: {exc}")
    ds = _read_dataset(input_path, column_map_path)
    try:
        train_ds, test_high_ds, test_low_ds = filter_reputation(ds, criteria)
    except DatasetError as exc:
        _fail(str(exc))
    if train_ds.n == 0:
        _fail("reputation filter left an empty training set")
    x_train = train_ds.to_matrix()
    try:
        fact = fit(x_train, k, FitConfig(seed=seed))
    except ConfigError as exc:
        _fail(str(exc))

    # (tag, apps, residuals) of each nonempty subset
    rates_train = error_rates(x_train, fact.z, fact.u)
    scored = [("train", train_ds.n, rates_train)]
    for tag, subset in (("test_high", test_high_ds), ("test_low", test_low_ds)):
        if subset.n:
            x_sub = subset.to_matrix()
            z_sub = assign_matrix(x_sub, fact.u, fact.r, fact.epsilon)
            scored.append((tag, subset.n, error_rates(x_sub, z_sub, fact.u)))
    curves = [(tag, t, fn, fp) for tag, _, rates in scored
              for t, (fn, fp) in enumerate(zip_longest(
                  rates.cumulative_fn, rates.cumulative_fp, fillvalue=0.0))]

    # Table-5-style summary: one row per pattern, most frequent first, the
    # order fit returns them in
    freq = fact.z.data.mean(axis=0)
    kl = category_divergence(fact.z, train_ds.categories, kl_smoothing)
    patterns = [(j + 1, freq[j], kl[j],
                 ";".join(perm for perm, bit
                          in zip(train_ds.vocabulary, fact.u.data[j]) if bit))
                for j in range(k)]

    outputs = [
        _write_json(out / "factorization.json", fact.to_json_dict()),
        _write_csv(out / "error_curves.csv",
                   ["dataset", "t", "fraction_fn_gt_t", "fraction_fp_gt_t"],
                   curves),
        _write_csv(out / "pattern_summary.csv",
                   ["pattern", "frequency", "kl_bits", "permissions"], patterns),
        _write_json(out / "residuals.json",
                    {tag: {"mean_fn": rates.mean_fn, "mean_fp": rates.mean_fp,
                           "n": n} for tag, n, rates in scored}),
    ]
    cfg = {"K": k, "reputation": criteria.__dict__,
           "kl_smoothing": kl_smoothing}
    _write_manifest(out, "mine", input_path, seed, cfg, outputs, started)
    click.echo(f"fitted K={k}: mean fn={rates_train.mean_fn:.4f} "
               f"fp={rates_train.mean_fp:.4f}")


@main.command()
@with_options(common_input)
@click.option("--bins", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--sim-n", default=None, type=click.IntRange(min=1),
              help="Simulated dataset size (default: same as input).")
def simulate(input_path, column_map_path, seed, out_dir, bins, sim_n):
    """Independent-request null model versus the real PCP distribution."""
    started, out = time.monotonic(), Path(out_dir)
    # numpy refuses an array larger than its index range with ValueError
    try:
        edges, centers = pcp_bins(bins)
    except (MemoryError, ValueError):
        _fail(f"--bins {bins}: {bins} bins do not fit in memory")
    x = _read_dataset(input_path, column_map_path).to_matrix()
    if x.rows < 1:
        _fail("simulate needs at least one app")
    sim_n = x.rows if sim_n is None else sim_n
    probs = marginal_probs(x)
    try:
        sim = simulate_independent(probs, sim_n, seed)
    except (MemoryError, ValueError):
        _fail(f"--sim-n {sim_n}: {sim_n} simulated apps of {x.cols} "
              "permissions do not fit in memory")
    pcp_real, undef_real = pcp_matrix(x)
    pcp_sim, undef_sim = pcp_matrix(sim)
    avg_real, flag_real = average_pcp(pcp_real, undef_real)
    avg_sim, flag_sim = average_pcp(pcp_sim, undef_sim)
    outputs = [
        _write_csv(out / "pcp_histogram.csv",
                   ["bin_center", "count_real", "count_sim"],
                   zip(centers, pcp_histogram(pcp_real, edges),
                       pcp_histogram(pcp_sim, edges))),
        _write_json(out / "pcp_summary.json", {
            "average_pcp_real": avg_real,
            "average_pcp_simulated": avg_sim,
            "no_defined_pairs_real": flag_real,
            "no_defined_pairs_simulated": flag_sim,
            "undefined_columns_real": undef_real,
            "undefined_columns_simulated": undef_sim,
        }),
    ]
    _write_manifest(out, "simulate", input_path, seed,
                    {"bins": bins, "sim_n": sim_n}, outputs, started)
    click.echo(f"average PCP: real={avg_real:.4f} simulated={avg_sim:.4f}")


if __name__ == "__main__":
    main()
