"""permpatterns benchmark: the paper's pipeline on Facebook and Android corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The program is run from that source tree: CLI commands as subprocesses,
exactly as a user runs ``permpatterns``, and the scoring path through the
public library API in one scoring process per run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced and traced
rounds and reports per-layer metrics from spans recorded around every
module's public functions.  Both workloads report every metric.
See perfbench/README.md for the workloads, inputs and metrics.
"""
import os

# one BLAS/OpenMP thread per process; select-k's 2 pool workers then use
# at most 2 threads in all
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import itertools
import json
import math
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import corpus
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_REPEATS = 3
# every process must end this long after the benchmark started, so that a
# hung or very slow program still gives a result within 180 s
DEADLINE_S = 170
STARTED = time.perf_counter()

PLANTED_K = 5
SELECT_APPS = 200          # high-reputation only; halves of 100 apps
SELECT_K_RANGE = range(4, 7)
SELECT_REPETITIONS = 1
SELECT_THREADS = 2
MINE_APPS = 400            # about 160 high-reputation training apps
FACEBOOK_SCORED = 300      # held-out apps per round, in 3 slices, every app
                           # scored in a batch and one at a time
ANDROID_APPS = 188_389     # the paper's Android corpus size
ANDROID_SCORED = 400       # held-out apps per round, scored one at a time
                           # in 9 slices; half also scored in batches
# the 95th percentile has 20 samples beyond it on android and 75 on
# facebook; see the README for why no higher one is used
TAIL_PERCENTILE = 95


class OperationFailed(Exception):
    pass


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for;
    children include the pool workers of the CLI processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """One benchmark run: a work directory, a seed and the counters."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes = 0
        self.trace_dir: Path | None = None   # set for a traced round
        self.scorer = Scorer(self)

    def run(self, cmd: list[str], operations: int) -> float:
        """Run one program process that does ``operations`` operations;
        returns its wall time in seconds.  A process that exits non-zero
        or runs past DEADLINE_S fails all of its operations; on a timeout
        its whole process group, pool workers too, is killed."""
        self.attempted += operations
        what = " ".join(map(str, cmd[1:4]))
        start = time.perf_counter()
        with subprocess.Popen(cmd, env=self.env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=max(
                    1.0, STARTED + DEADLINE_S - time.perf_counter()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                self.failed += operations
                raise OperationFailed(
                    f"{what} ran past {DEADLINE_S} s") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.failed += operations
            raise OperationFailed(f"{what} exited {proc.returncode}: "
                                  f"{stderr.strip()[-500:]}")
        return elapsed

    def cli(self, *args, operation: bool = True) -> float:
        """Run one CLI command; returns its wall time in seconds.

        A command run with ``operation=False`` is set-up and not counted.
        """
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "permpatterns.cli", *map(str, args)]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(self.trace_dir), *map(str, args)]
        return self.run(cmd, int(operation))

    def call(self, fn, *args):
        """Run one library operation, counting it and its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{fn.__name__}: {exc!r}") from exc

    def command_output(self, name: str) -> Path:
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        return out


class Scorer:
    """The run's scoring process (scorer.py): it imports the library once
    and scores one slice of apps per request, between the CLI commands."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        # same process group as the benchmark, so that it goes with it;
        # it also ends when its input closes
        self.stderr = open(self.bench.work / "scorer.err", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "scorer.py")], env=self.bench.env,
            cwd=ROOT, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr)

    def request(self, slice_in: Path, slice_out: Path, operations: int) -> None:
        """Score one slice, which is ``operations`` operations.  An error
        answer, a process that ended, or one still busy at DEADLINE_S fails
        them; a process that ended or hung is replaced for the next one."""
        bench = self.bench
        bench.attempted += operations
        if self.proc is None:
            self.start()
        trace_dir = "" if bench.trace_dir is None else str(bench.trace_dir)
        answer = ""
        try:
            self.proc.stdin.write(f"{slice_in}\t{slice_out}\t{trace_dir}\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(
                1.0, STARTED + DEADLINE_S - time.perf_counter()))
            answer = self.proc.stdout.readline().strip() if ready else ""
        except (BrokenPipeError, OSError):
            pass
        if answer == "done":
            return
        bench.failed += operations
        if not answer.startswith("error "):
            self.close(kill=True)
            answer = ("the scoring process ended or ran past "
                      f"{DEADLINE_S} s: " + self.last_error())
        raise OperationFailed(f"scoring: {answer}")

    def last_error(self) -> str:
        return (self.bench.work / "scorer.err").read_text()[-500:].strip()

    def close(self, kill: bool = False) -> None:
        """End the process and wait for it; it stops when its input closes,
        and is killed if it does not within 5 s or ``kill`` is set."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if kill:
            proc.kill()
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self.stderr.close()


# ---------------------------------------------------------------- workloads

class Workload:
    """Rounds of operations.  Every round runs the workload's CLI commands
    and scores held-out apps through the library; ``verdict`` gates the
    fit quality over the whole run."""
    min_rounds = 1
    min_pairs = 1       # of an untraced and a traced round on the same inputs

    def __init__(self):
        # per round, how well the program recovered the planted model
        self.mine_qualities: list[dict] = []
        self.select_qualities: list[dict] = []

    def verdict(self) -> list[str]:
        return (checks.mine_run(self.mine_qualities)
                + checks.select_k_run(self.select_qualities))

    def quality_metrics(self) -> dict:
        """Medians and counts over the run's rounds of how well the fits
        recovered the planted model; 0 where the workload does not fit."""
        mine, select = self.mine_qualities, self.select_qualities

        def median(values) -> float:
            return float(statistics.median(values)) if values else 0.0
        return {
            "engine.fit.recovered_share": (
                sum(map(checks.recovered, mine)) / len(mine) if mine else 0.0,
                "ratio"),
            "engine.fit.pattern_bits": (
                median([q["pattern_bits"] for q in mine]), "bits"),
            "engine.fit.epsilon_log_error": (median(
                [abs(math.log(q["epsilon_ratio"])) for q in mine]), "ratio"),
            "evaluation.low_over_train_residual": (
                median([q["low_over_train"] for q in mine]), "ratio"),
            "selection.selected_k_misses": (
                float(sum(q["selected_k_error"] > 0 for q in select)), "count"),
            "selection.planted_k_instability": (median(
                [q["planted_k_instability"] for q in select]), "ratio"),
        }

    def score(self, bench: Bench, samples: dict, u: np.ndarray, r: float,
              epsilon: float, x: np.ndarray,
              n_batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Score the apps ``x`` against the model (u, r, epsilon) in the
        run's scoring process: the first ``n_batch`` as one batch, then
        every app one at a time.  Returns the batch and the single-app
        assignments."""
        slice_in = bench.work / "slice-in.npz"
        slice_out = bench.work / "slice-out.npz"
        np.savez(slice_in, u=u, x=x, n_batch=n_batch, r=r, epsilon=epsilon)
        bench.scorer.request(slice_in, slice_out, 1 + len(x))
        with np.load(slice_out) as out:
            samples.setdefault("batch_s", []).append(float(out["batch_s"]))
            samples.setdefault("batch_apps", []).append(n_batch)
            samples.setdefault("score_ms", []).extend(
                out["latencies_ms"].tolist())
            return out["z_batch"], out["z_single"]

    def check_scoring(self, bench: Bench, x: np.ndarray, z_single, batch_rows,
                      z_batch, u: np.ndarray, r: float, epsilon: float) -> None:
        """``error_rates`` on the single-app result, then the checks."""
        pp = importlib.import_module("permpatterns")
        rates = bench.call(pp.error_rates, pp.BinaryMatrix(x),
                           pp.BinaryMatrix(z_single), pp.BinaryMatrix(u))
        bench.problems.extend(checks.scoring(
            x, z_single, batch_rows, z_batch, u, r, epsilon, rates))

    def end_to_end(self, samples: dict) -> dict:
        latencies = samples["score_ms"]
        return {
            "cli_s": (statistics.median(samples["cli_s"]), "s"),
            "assign_apps_per_s": (statistics.median(
                apps / took for apps, took in
                zip(samples["batch_apps"], samples["batch_s"])), "apps/s"),
            "score_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
            "score_tail_ms": (
                float(np.percentile(latencies, TAIL_PERCENTILE)), "ms"),
        }


class Facebook(Workload):
    """mine at the planted K and select-k, with held-out apps scored against
    the fitted model: fit, check the choice of K, classify new apps."""
    min_rounds = 5      # the fit-quality gates take the whole run
    min_pairs = 4       # a pair runs on one input, so 4 inputs for the gates

    def prepare(self, bench: Bench, index: int) -> None:
        self.cli_seed = corpus.round_seed(bench.seed, index)
        self.mine_corpus = corpus.facebook([bench.seed, index], MINE_APPS,
                                           k=PLANTED_K)
        self.mine_input = bench.work / "facebook.csv"
        corpus.write_csv(self.mine_corpus, self.mine_input)
        self.select_corpus = corpus.facebook(
            [bench.seed, index], SELECT_APPS, k=PLANTED_K, tiers=(1.0, 0.0, 0.0))
        self.select_input = bench.work / "facebook-select.csv"
        corpus.write_csv(self.select_corpus, self.select_input)
        self.scored = corpus.facebook_apps([bench.seed, index, 1],
                                           self.mine_corpus.u, FACEBOOK_SCORED)

    def round(self, bench: Bench, samples: dict) -> None:
        """mine, then the scoring slices before and after select-k, so that
        the latency samples span the round."""
        cli_s = self.mine(bench)
        with open(bench.work / "mine" / "factorization.json") as fh:
            fact = json.load(fh)
        u = np.array(fact["u"], dtype=np.uint8)
        r, epsilon = fact["r"], fact["epsilon"]
        slices = np.array_split(np.arange(FACEBOOK_SCORED), 3)
        z_batch = np.zeros((FACEBOOK_SCORED, PLANTED_K), dtype=np.uint8)
        z_single = np.zeros_like(z_batch)
        for rows, step in zip(slices, (self.select_k, None, None)):
            z_batch[rows], z_single[rows] = self.score(
                bench, samples, u, r, epsilon, self.scored[rows], len(rows))
            if step is not None:
                cli_s += step(bench)
        samples.setdefault("cli_s", []).append(cli_s)
        self.check_scoring(bench, self.scored, z_single,
                           np.arange(FACEBOOK_SCORED), z_batch, u, r, epsilon)

    def select_k(self, bench: Bench) -> float:
        out = bench.command_output("select-k")
        elapsed = bench.cli(
            "select-k", "--input", self.select_input, "--out-dir", out,
            "--k-min", SELECT_K_RANGE.start, "--k-max", SELECT_K_RANGE.stop - 1,
            "--repetitions", SELECT_REPETITIONS, "--threads", SELECT_THREADS,
            "--seed", self.cli_seed)
        bench.output_bytes += dir_bytes(out)
        problems, quality = checks.select_k(out, self.select_input, PLANTED_K,
                                            SELECT_K_RANGE, SELECT_REPETITIONS)
        bench.problems.extend(problems)
        if quality:
            print(f"note: select-k {quality}", file=sys.stderr)
            self.select_qualities.append(quality)
        return elapsed

    def mine(self, bench: Bench) -> float:
        out = bench.command_output("mine")
        elapsed = bench.cli("mine", "--input", self.mine_input, "--out-dir", out,
                            "-k", PLANTED_K, "--seed", self.cli_seed)
        bench.output_bytes += dir_bytes(out)
        problems, quality = checks.mine(out, self.mine_corpus, self.mine_input)
        bench.problems.extend(problems)
        if quality:
            print("note: mine " + " ".join(f"{k}={v:.4g}" for k, v in
                                          quality.items()), file=sys.stderr)
            self.mine_qualities.append(quality)
        return elapsed


class Android(Workload):
    """stats and simulate at the paper's scale, and scoring against the
    planted K=30 model."""

    def prepare(self, bench: Bench, index: int) -> None:
        """Round 0 makes the corpus and its CSV; every round draws its own
        held-out apps from the same patterns."""
        self.cli_seed = corpus.round_seed(bench.seed, index)
        if index == 0:
            self.corpus = corpus.android([bench.seed], ANDROID_APPS)
            self.input = bench.work / "android.csv"
            corpus.write_csv(self.corpus, self.input)
        self.scored = corpus.android_apps([bench.seed, index], self.corpus.u,
                                          ANDROID_SCORED)

    def round(self, bench: Bench, samples: dict) -> None:
        """stats and simulate, with the scoring slices between them so that
        the latency samples span the whole round, not one stretch of it."""
        u, r, epsilon = self.corpus.u, self.corpus.r, self.corpus.epsilon
        # 3 slices before stats, 3 between stats and simulate, 3 after: the
        # batch throughput is a median, and 9 batches outvote a slow one
        slices = np.array_split(np.arange(ANDROID_SCORED), 9)
        steps = (None, None, self.stats, None, None, self.simulate,
                 None, None, None)
        z_single = np.zeros((ANDROID_SCORED, corpus.ANDROID_K), dtype=np.uint8)
        batch_rows, z_batch = [], []
        cli_s = 0.0
        for rows, step in zip(slices, steps):
            n_batch = len(rows) // 2
            batch, single = self.score(bench, samples, u, r, epsilon,
                                       self.scored[rows], n_batch)
            z_batch.append(batch)
            z_single[rows] = single
            batch_rows.extend(rows[:n_batch].tolist())
            if step is not None:
                cli_s += step(bench)
        samples.setdefault("cli_s", []).append(cli_s)
        self.check_scoring(bench, self.scored, z_single, np.array(batch_rows),
                           np.vstack(z_batch), u, r, epsilon)

    def stats(self, bench: Bench) -> float:
        out = bench.command_output("stats")
        elapsed = bench.cli("stats", "--input", self.input, "--out-dir", out,
                            "--top-n", corpus.ANDROID_D,
                            "--seed", self.cli_seed)
        bench.output_bytes += dir_bytes(out)
        bench.problems.extend(checks.stats(
            out, self.corpus.x, self.corpus.permissions, self.corpus.prices))
        return elapsed

    def simulate(self, bench: Bench) -> float:
        out = bench.command_output("simulate")
        elapsed = bench.cli("simulate", "--input", self.input, "--out-dir", out,
                            "--seed", self.cli_seed)
        bench.output_bytes += dir_bytes(out)
        bench.problems.extend(checks.simulate(out, self.corpus.x))
        return elapsed


WORKLOADS = {
    "facebook": Facebook,
    "android": Android,
}


# -------------------------------------------------------------------- runs

def setup(bench: Bench, workload, repeats: int) -> float:
    """Make the first inputs and start the program once, ``repeats`` times;
    returns the median.  The program start warms the file cache."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.prepare(bench, 0)
        bench.cli("--version", operation=False)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_round(bench: Bench, workload, samples: dict) -> float:
    """One round; a failed operation or an output the checks cannot read
    ends it."""
    start = time.perf_counter()
    try:
        workload.round(bench, samples)
    except OperationFailed as exc:
        print(f"operation failed: {exc}", file=sys.stderr)
    except Exception as exc:    # a missing or malformed output
        bench.problems.append(f"round {workload.__class__.__name__}: {exc!r}")
    return time.perf_counter() - start


def measure(bench: Bench, workload, seconds: float) -> dict:
    """Whole rounds until the next one would end past ``seconds``, and at
    least the workload's ``min_rounds``.

    Round i runs on the i-th corpus of the seed, so that a run's median
    spans several inputs rather than the cost of one.
    """
    samples: dict = {}
    start = time.perf_counter()
    for index in itertools.count():
        if index:
            workload.prepare(bench, index)
        took = timed_round(bench, workload, samples)
        if (index + 1 >= workload.min_rounds
                and time.perf_counter() - start + took > seconds):
            return samples


def measure_traced(bench: Bench, workload, seconds: float,
                   trace_dir: Path) -> dict:
    """Alternate untraced and traced rounds on the same inputs, at least
    the workload's ``min_pairs`` pairs; per-layer metrics per round."""
    shutil.rmtree(trace_dir, ignore_errors=True)
    plain, traced = [], []
    samples: dict = {}
    start = time.perf_counter()
    for index in itertools.count():
        if index:
            workload.prepare(bench, index)
        plain.append(timed_round(bench, workload, samples))
        bench.trace_dir = trace_dir
        spans = tracer.Tracer(trace_dir)
        uninstall = tracer.install(spans)
        bytes_before = bench.output_bytes
        try:
            traced.append(timed_round(bench, workload, samples))
        finally:
            uninstall()
            spans.flush()
            bench.trace_dir = None
        round_bytes = bench.output_bytes - bytes_before
        if (len(traced) >= workload.min_pairs
                and time.perf_counter() - start + plain[-1] + traced[-1]
                > seconds):
            break
    rounds = len(traced)
    metrics = tracer.layer_metrics(tracer.load_spans(trace_dir), rounds,
                                   SELECT_K_RANGE)
    metrics.update(workload.quality_metrics())
    metrics["cli.output_bytes"] = (float(round_bytes), "bytes")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permpatterns" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from the root of "
              "a permpatterns checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.seed, work)
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            setup(bench, workload, 1)
            bench.scorer.start()
            trace_dir = (HERE / ".work" / "traces"
                         / f"{args.workload}-seed{args.seed}-{os.getpid()}")
            metrics = measure_traced(bench, workload, args.seconds, trace_dir)
        else:
            setup_s = setup(bench, workload, SETUP_REPEATS)
            bench.scorer.start()
            samples = measure(bench, workload, args.seconds)
            # a run in which no round got as far as scoring has no timings
            metrics = (workload.end_to_end(samples)
                       if samples.get("cli_s") and samples.get("score_ms")
                       else {})
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    finally:
        bench.scorer.close()
        shutil.rmtree(work, ignore_errors=True)
    bench.problems.extend(workload.verdict())
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
