"""Command-line front end: stats, select-k, mine, simulate.

Every command takes a single ``--seed`` from which all sub-seeds are
derived, writes its outputs as plain CSV/JSON into ``--out-dir``, and
finishes by writing a run manifest.  Exit codes: 0 success, 2 input or
configuration error, 3 internal numeric failure.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import click

from . import __version__
from .core import ConfigError, FitConfig
from .dataset import (
    Dataset,
    DatasetError,
    ReputationCriteria,
    load_dataset,
    filter_reputation,
    summary_stats,
    write_summary_csvs,
)
from .engine import assign_matrix, fit
from .evaluation import (
    UndefinedDivergenceError,
    category_divergence,
    error_rates,
    pattern_frequencies,
    pcp_matrix,
    average_pcp,
    write_error_curves,
    write_pattern_summary,
)
# _instability_job is bound here too: perfbench/tracer.py traces the
# select-k pool job as cli._instability_job
from .selection import _instability_job, select_k  # noqa: F401
from .simulate import marginal_probs, pcp_histogram, simulate_independent

EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: list[Path], seed: int, outputs: list[Path],
                    started: float, failed_stage: str | None = None) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "input_digests": {str(p): _sha256(p) for p in inputs if p.exists()},
        "seed": seed,
        "version": __version__,
        "outputs": sorted(str(p) for p in outputs),
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    if failed_stage:
        manifest["failed_stage"] = failed_stage
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _read_dataset(input_path: str, fmt: str | None,
                  column_map_path: str | None) -> Dataset:
    column_map = None
    if column_map_path:
        with open(column_map_path) as fh:
            column_map = json.load(fh)
    return load_dataset(input_path, fmt=fmt, column_map=column_map)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
@click.version_option(__version__)
def main():
    """Mine overlapping permission-request patterns from app datasets."""


common_input = [
    click.option("--input", "input_path", required=True, help="CSV/JSON dataset."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default=None, help="Input format (default: by extension)."),
    click.option("--column-map", "column_map_path", default=None,
                 help="JSON file mapping schema columns to input columns."),
    click.option("--seed", default=0, show_default=True, type=int),
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
@click.option("--top-n", default=15, show_default=True, type=int)
def stats(input_path, fmt, column_map_path, seed, out_dir, top_n):
    """Descriptive statistics: permission frequencies, prices, ratings."""
    started = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        ds = _read_dataset(input_path, fmt, column_map_path)
        outputs = write_summary_csvs(summary_stats(ds, top_n=top_n), out)
    except DatasetError as exc:
        _fail(str(exc), EXIT_INPUT_ERROR)
    outputs.append(_write_manifest(out, "stats",
                                   {"top_n": top_n, "input": input_path},
                                   [Path(input_path)], seed, outputs, started))
    click.echo(f"wrote {len(outputs)} files to {out}")


@main.command("select-k")
@with_options(common_input)
@click.option("--k-min", required=True, type=int)
@click.option("--k-max", required=True, type=int)
@click.option("--repetitions", default=5, show_default=True, type=int)
@click.option("--threads", default=1, show_default=True,
              type=click.IntRange(min=1),
              help="Worker processes, one K each; results do not depend on it.")
def select_k_cmd(input_path, fmt, column_map_path, seed, out_dir,
                 k_min, k_max, repetitions, threads):
    """Instability sweep over K; selects the minimum-median K."""
    started = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if k_min > k_max or k_min < 1:
        _fail(f"invalid K range [{k_min}, {k_max}]", EXIT_INPUT_ERROR)
    if repetitions < 1:
        _fail("repetitions must be at least 1", EXIT_INPUT_ERROR)
    try:
        x = _read_dataset(input_path, fmt, column_map_path).to_matrix()
    except DatasetError as exc:
        _fail(str(exc), EXIT_INPUT_ERROR)
    if k_max > x.cols:
        _fail(f"k_max={k_max} exceeds the number of permissions D={x.cols}",
              EXIT_INPUT_ERROR)
    if x.rows < 2:
        _fail(f"select-k needs at least 2 apps to split, got {x.rows}",
              EXIT_INPUT_ERROR)
    report = select_k(x, range(k_min, k_max + 1), repetitions,
                      FitConfig(seed=seed), threads=threads)
    if report.selected_k is None:
        _fail("all K values failed: " + json.dumps(report.failed_k),
              EXIT_NUMERIC_ERROR)
    csv_path = out / "instability.csv"
    report.write_csv(csv_path)
    cfg = {"k_min": k_min, "k_max": k_max, "repetitions": repetitions,
           "selected_k": report.selected_k, "failed_k": report.failed_k,
           "input": input_path}
    outputs = [csv_path]
    outputs.append(_write_manifest(out, "select-k", cfg, [Path(input_path)],
                                   seed, outputs, started))
    click.echo(f"selected K = {report.selected_k}")


@main.command()
@with_options(common_input)
@click.option("-k", "--patterns", "k", required=True, type=int,
              help="Number of patterns to fit.")
@click.option("--reputation-config", "reputation_path", default=None,
              help="JSON with min_avg_rating, min_num_ratings, "
                   "max_low_num_ratings, test_size, split_seed.")
@click.option("--kl-smoothing", default=0.5, show_default=True, type=float)
def mine(input_path, fmt, column_map_path, seed, out_dir, k,
         reputation_path, kl_smoothing):
    """Fit patterns on high-reputation apps and evaluate all three subsets."""
    started = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if k < 1:
        _fail("K must be at least 1", EXIT_INPUT_ERROR)
    criteria = ReputationCriteria()
    if reputation_path:
        try:
            with open(reputation_path) as fh:
                criteria = ReputationCriteria(**json.load(fh))
        except (OSError, TypeError, ValueError) as exc:
            _fail(f"bad reputation config: {exc}", EXIT_INPUT_ERROR)
    try:
        ds = _read_dataset(input_path, fmt, column_map_path)
        train_ds, test_high_ds, test_low_ds = filter_reputation(ds, criteria)
    except DatasetError as exc:
        _fail(str(exc), EXIT_INPUT_ERROR)
    if train_ds.n == 0:
        _fail("reputation filter left an empty training set", EXIT_INPUT_ERROR)
    x_train = train_ds.to_matrix()
    if k > x_train.cols:
        _fail(f"K={k} exceeds the number of permissions D={x_train.cols}",
              EXIT_INPUT_ERROR)
    try:
        fact = fit(x_train, k, FitConfig(seed=seed))
    except ConfigError as exc:
        _fail(str(exc), EXIT_INPUT_ERROR)
    except FloatingPointError as exc:
        _fail(str(exc), EXIT_NUMERIC_ERROR)

    outputs = []
    model_path = out / "factorization.json"
    with open(model_path, "w") as fh:
        json.dump(fact.to_json_dict(), fh, indent=2, sort_keys=True)
    outputs.append(model_path)

    curves_path = out / "error_curves.csv"
    rates_train = error_rates(x_train, fact.z, fact.u)
    write_error_curves(curves_path, rates_train, "train")
    summary = {"train": {"mean_fn": rates_train.mean_fn,
                         "mean_fp": rates_train.mean_fp, "n": train_ds.n}}
    for tag, subset in (("test_high", test_high_ds), ("test_low", test_low_ds)):
        if subset.n == 0:
            continue
        x_sub = subset.to_matrix()
        z_sub = assign_matrix(x_sub, fact.u, fact.r, fact.epsilon)
        rates = error_rates(x_sub, z_sub, fact.u)
        write_error_curves(curves_path, rates, tag, append=True)
        summary[tag] = {"mean_fn": rates.mean_fn, "mean_fp": rates.mean_fp,
                        "n": subset.n}
    outputs.append(curves_path)

    freq, order = pattern_frequencies(fact.z)
    categories = [a.category for a in train_ds.apps]
    kl = []
    for idx in range(k):
        try:
            kl.append(category_divergence(fact.z, categories, idx,
                                          smoothing=kl_smoothing))
        except UndefinedDivergenceError:
            kl.append(float("nan"))
    summary_path = out / "pattern_summary.csv"
    write_pattern_summary(summary_path, fact.u, freq, order, kl,
                          train_ds.vocabulary)
    outputs.append(summary_path)

    residuals_path = out / "residuals.json"
    with open(residuals_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    outputs.append(residuals_path)

    cfg = {"K": k, "reputation": criteria.__dict__,
           "kl_smoothing": kl_smoothing, "input": input_path}
    outputs.append(_write_manifest(out, "mine", cfg, [Path(input_path)],
                                   seed, outputs, started))
    click.echo(f"fitted K={k}: mean fn={rates_train.mean_fn:.4f} "
               f"fp={rates_train.mean_fp:.4f}")


@main.command()
@with_options(common_input)
@click.option("--bins", default=20, show_default=True, type=int)
@click.option("--sim-n", default=None, type=int,
              help="Simulated dataset size (default: same as input).")
def simulate(input_path, fmt, column_map_path, seed, out_dir,
             bins, sim_n):
    """Independent-request null model versus the real PCP distribution."""
    started = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        x = _read_dataset(input_path, fmt, column_map_path).to_matrix()
    except DatasetError as exc:
        _fail(str(exc), EXIT_INPUT_ERROR)
    probs = marginal_probs(x)
    sim = simulate_independent(probs, sim_n or x.rows, seed)
    pcp_real, undef_real = pcp_matrix(x)
    pcp_sim, undef_sim = pcp_matrix(sim)
    hist = pcp_histogram(pcp_real, pcp_sim, bins=bins)
    hist_path = out / "pcp_histogram.csv"
    hist.write_csv(hist_path)
    avg_real, flag_real = average_pcp(pcp_real, undef_real)
    avg_sim, flag_sim = average_pcp(pcp_sim, undef_sim)
    summary_path = out / "pcp_summary.json"
    with open(summary_path, "w") as fh:
        json.dump({
            "average_pcp_real": avg_real,
            "average_pcp_simulated": avg_sim,
            "no_defined_pairs_real": flag_real,
            "no_defined_pairs_simulated": flag_sim,
            "undefined_columns_real": undef_real,
            "undefined_columns_simulated": undef_sim,
        }, fh, indent=2, sort_keys=True)
    outputs = [hist_path, summary_path]
    outputs.append(_write_manifest(out, "simulate",
                                   {"bins": bins, "sim_n": sim_n or x.rows,
                                    "input": input_path},
                                   [Path(input_path)], seed, outputs, started))
    click.echo(f"average PCP: real={avg_real:.4f} simulated={avg_sim:.4f}")


if __name__ == "__main__":
    main()
