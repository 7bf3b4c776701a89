import codecs
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import permpatterns
from permpatterns import ConfigError, cli, selection
from permpatterns.cli import main
from permpatterns.dataset import load_dataset
from permpatterns.simulate import plant_factorization

CSV_HEADER = "id,name,category,price,avg_rating,num_ratings,permissions\n"


def planted_csv(path, n=300, d=12, k=3, epsilon=0.0, seed=0,
                rating=4.5, num_ratings=500, categories=("Tools", "Games")):
    """Planted-model dataset where every app is high reputation."""
    x, z_true, u_true = plant_factorization(n, d, k, 0.3, 0.3, epsilon,
                                            0.5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    lines = [CSV_HEADER]
    for i in range(n):
        perms = ";".join(f"perm{j}" for j in np.nonzero(x[i])[0])
        cat = categories[rng.integers(len(categories))]
        lines.append(f"app{i},App {i},{cat},0,{rating},{num_ratings},{perms}\n")
    path.write_text("".join(lines))
    return path


def read_table(path):
    """Header and rows of an output CSV, whose every line ends in CRLF."""
    text = path.read_bytes().decode()
    assert text.endswith("\r\n")
    assert "\n" not in text.replace("\r\n", "")
    header, *rows = [line.split(",") for line in text[:-2].split("\r\n")]
    return header, rows


def is_float_cell(cell):
    return repr(float(cell)) == cell


def is_int_cell(cell):
    return str(int(cell)) == cell


def assert_json_format(path):
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.fixture
def runner():
    return CliRunner()


class TestStats:
    def test_writes_three_tables(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv")
        out = tmp_path / "out"
        result = runner.invoke(main, ["stats", "--input", str(data),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        for name in ("permission_frequencies.csv", "price_cumulative.csv",
                     "ratings.csv", "manifest.json"):
            assert (out / name).exists()

    def test_output_format(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", d=6)
        out = tmp_path / "out"
        result = runner.invoke(main, ["stats", "--input", str(data),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = read_table(out / "permission_frequencies.csv")
        assert header == ["permission", "fraction"]
        assert rows[0][0].startswith("perm") and is_float_cell(rows[0][1])
        header, rows = read_table(out / "price_cumulative.csv")
        assert header == ["price", "cumulative_fraction"]
        assert rows == [["0.0", "1.0"]]
        header, rows = read_table(out / "ratings.csv")
        assert header == ["avg_rating", "num_ratings"]
        assert rows[0] == ["4.5", "500"] and len(rows) == 300
        assert_json_format(out / "manifest.json")

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["stats", "--input",
                                      str(tmp_path / "nope.csv"),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "nope.csv" in result.output

    @pytest.mark.parametrize("name,content,message", [
        ("latin1.csv", CSV_HEADER.encode() + b"a1,Caf\xe9,Tools,0,4.5,200,a\n",
         "not UTF-8"),
        ("latin1.json", b'[{"id": "a1", "name": "Caf\xe9"}]', "not UTF-8"),
        # an integer over the interpreter's 4,300-digit conversion limit
        ("long.json", b'[{"id": 1' + b"0" * 4300 + b'}]',
         "Exceeds the limit (4300 digits)"),
        # one field over the csv module's 131,072-character limit
        ("long.csv", (CSV_HEADER + "a1,A,Tools,0,4.5,200,"
                      + ";".join(f"p{i}" for i in range(30000))).encode(),
         "line 2: field larger than field limit"),
        ("folder", None, "cannot read"),
    ])
    def test_unreadable_input_exits_2(self, runner, tmp_path, name, content,
                                      message):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        result = runner.invoke(main, ["stats", "--input", str(path),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert message in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("command", [["stats"], ["simulate"],
                                         ["mine", "-k", "2"]])
    def test_deeply_nested_json_exits_2(self, runner, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        result = runner.invoke(main, command + [
            "--input", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("content", [None, "{", '["id"]',
                                         '{"id": 3}'])
    def test_bad_column_map_exits_2(self, runner, tmp_path, content):
        # a missing file, malformed JSON, not an object, a non-string name
        data = planted_csv(tmp_path / "apps.csv", n=30, d=5)
        mapping = tmp_path / "map.json"
        if content is not None:
            mapping.write_text(content)
        result = runner.invoke(main, ["stats", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "--column-map", str(mapping)])
        assert result.exit_code == 2
        assert "error: bad column map" in result.output

    def test_column_map_with_byte_order_mark(self, runner, tmp_path):
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER.replace("name", "title")
                        + "a0,A,Tools,0,4.5,500,p0;p1\n")
        mapping = tmp_path / "map.json"
        mapping.write_text('{"name": "title"}', encoding="utf-8-sig")
        out = tmp_path / "out"
        args = ["stats", "--input", str(data), "--out-dir", str(out)]
        # without the map the file lacks a name column
        assert runner.invoke(main, args).exit_code == 2
        result = runner.invoke(main, [*args, "--column-map", str(mapping)])
        assert result.exit_code == 0, result.output
        assert (out / "permission_frequencies.csv").exists()

    def test_utf8_column_map_under_ascii_locale(self, tmp_path):
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER.replace("name", "n\u00e4me")
                        + "a0,A,Tools,0,4.5,500,p0;p1\n", encoding="utf-8")
        mapping = tmp_path / "map.json"
        mapping.write_text('{"name": "n\u00e4me"}', encoding="utf-8")
        src = str(Path(permpatterns.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0", LC_ALL="C")
        code = "import locale; print(locale.getpreferredencoding(False))"
        encoding = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout.strip()
        assert encoding.lower() not in ("utf-8", "utf8")
        proc = subprocess.run(
            [sys.executable, "-m", "permpatterns.cli", "stats",
             "--input", str(data), "--out-dir", str(tmp_path / "out"),
             "--column-map", str(mapping)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_negative_top_n_exits_2(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=30, d=4)
        result = runner.invoke(main, ["stats", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "--top-n", "-1"])
        assert result.exit_code == 2
        assert "--top-n" in result.output

    def test_top_n_larger_than_d(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", d=5)
        out = tmp_path / "out"
        result = runner.invoke(main, ["stats", "--input", str(data),
                                      "--out-dir", str(out),
                                      "--top-n", "999"])
        assert result.exit_code == 0
        lines = (out / "permission_frequencies.csv").read_text().splitlines()
        assert len(lines) <= 6 + 1  # header + at most D rows


VALID_INPUT = {
    "csv": (CSV_HEADER + "a1,One,Tools,0,4.5,200,p;q\n"
            "a2,Two,Games,0.99,,,q\n\n\"a3\",\"T,3\",X,1,1,5,\"p;\nr\"\n"
            ).encode(),
    "json": json.dumps([
        {"id": "a1", "name": "One", "category": "Tools", "price": 0,
         "avg_rating": 4.5, "num_ratings": 200, "permissions": ["p", "q"]},
        {"id": 2, "price": 0.99, "avg_rating": None, "permissions": "q;r"},
    ]).encode(),
}


@st.composite
def mutated_input(draw):
    """A valid CSV or JSON input with a few bytes deleted, replaced or
    inserted."""
    fmt = draw(st.sampled_from(sorted(VALID_INPUT)))
    content = bytearray(VALID_INPUT[fmt])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(content)))
        cut = draw(st.integers(0, 3))
        content[at:at + cut] = draw(st.one_of(
            st.binary(max_size=3),
            st.sampled_from([b"", b",", b"\n", b'"', b"{", b"-", b"NaN",
                             b"null", b"\xff", b"\x00"]),
            # long runs: deep nesting, long fields and numbers
            st.builds(bytes.__mul__, st.sampled_from([b"[", b"9", b";a"]),
                      st.integers(1, 100_000))))
    return fmt, bytes(content)


# the commands whose ingest the exit-code properties run; each example
# draws one, so every command sees about a quarter of the examples.  K = 1
# and one repetition keep select-k's fits tiny.
INGEST_COMMANDS = (("stats",), ("simulate",), ("mine", "-k", "1"),
                   ("select-k", "--k-min", "1", "--k-max", "1",
                    "--repetitions", "1"))


def run_on(tmp_path_factory, command, fmt, content):
    """The result of ``command`` on a fresh input file holding
    ``content``."""
    path = tmp_path_factory.mktemp("in") / f"apps.{fmt}"
    path.write_bytes(content)
    return CliRunner().invoke(main, [*command, "--input", str(path),
                                     "--out-dir", str(path.parent / "out")])


def stats_on(tmp_path_factory, fmt, content):
    """The result of ``stats`` on a fresh input file holding ``content``."""
    return run_on(tmp_path_factory, ("stats",), fmt, content)


def assert_exit_contract(result):
    """Exit 0, or exit 2 with one error line and no traceback."""
    assert result.exit_code in (0, 2), (result.exit_code, result.exception)
    if result.exit_code == 2:
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in result.output


def assert_input_error(result, message):
    """Exit 2 with one error line that holds message, and no traceback."""
    assert result.exit_code == 2, (result.exit_code, result.exception)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert message in lines[0]
    assert "Traceback" not in result.output


class TestIngestExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(INGEST_COMMANDS),
           fmt=st.sampled_from(["csv", "json"]), content=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, command, fmt, content):
        assert_exit_contract(run_on(tmp_path_factory, command, fmt, content))

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(INGEST_COMMANDS), case=mutated_input())
    def test_mutated_valid_input(self, tmp_path_factory, command, case):
        assert_exit_contract(run_on(tmp_path_factory, command, *case))

    @pytest.mark.parametrize("fmt", sorted(VALID_INPUT))
    def test_valid_inputs_load(self, tmp_path_factory, fmt):
        result = stats_on(tmp_path_factory, fmt, VALID_INPUT[fmt])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("fmt", sorted(VALID_INPUT))
    def test_byte_order_mark_is_skipped(self, tmp_path_factory, fmt):
        result = stats_on(tmp_path_factory, fmt,
                          codecs.BOM_UTF8 + VALID_INPUT[fmt])
        assert result.exit_code == 0, result.output

    def test_fractional_json_count_exits_2(self, tmp_path_factory):
        content = '[{"id": "a1", "avg_rating": 4.5, "num_ratings": 99.9}]'
        result = stats_on(tmp_path_factory, "json", content.encode())
        assert_input_error(result,
                           "line 1: num_ratings 99.9 is not a whole number")

    @pytest.mark.parametrize("content,message", [
        ('{"id": "a1", "permissions": ["p"]}',
         "expected a JSON array of objects"),
        ('[{"id": "a1", "permissions": ["p"]}, ["a2"]]',
         "entry 2 is not an object"),
    ], ids=["not-an-array", "entry-not-an-object"])
    def test_json_shape_exits_2(self, tmp_path_factory, content, message):
        result = stats_on(tmp_path_factory, "json", content.encode())
        assert_input_error(result, message)


# column maps: a valid rename (the input's columns then carry the new
# names), one naming a column the input lacks, a non-object and one with
# non-string values, one of them unhashable
COLUMN_MAPS = {"rename": {"id": "app_id", "permissions": "perms"},
               "missing": {"category": "genre"},
               "non-object": ["id"],
               "non-string": {"id": 3, "permissions": ["perms"]}}

# a value one below the range of each option that takes a count
BELOW_RANGE = {"--top-n": "-1", "--bins": "0", "--sim-n": "0", "-k": "0",
               "--repetitions": "0", "--threads": "0"}


@st.composite
def small_input(draw):
    """(format, content, column map or None) of a small input: a header and
    0-4 apps over up to three permissions, each app requesting none, all or
    some of them, so that a row or a column can be all zeros or all ones
    (an all-zero column in a subset of the apps that ``mine`` splits off);
    ratings and rating counts on both sides of the default reputation
    thresholds; maybe a duplicate id, maybe a byte-order mark, and in
    about half the draws one of COLUMN_MAPS."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    perms = ["p0", "p1", "p2"]
    apps = []
    for i in range(draw(st.integers(0, 4))):
        requested = draw(st.sampled_from([[], perms])
                         | st.lists(st.sampled_from(perms), unique=True))
        # two high-reputation (rating, count) pairs, one low and one unrated
        rating, count = draw(st.sampled_from([(4.5, 500), (5, 500), (1, 5),
                                              (None, 0)]))
        apps.append({"id": f"a{i}", "name": f"App {i}",
                     "category": draw(st.sampled_from(["Tools", "Games"])),
                     "price": draw(st.sampled_from([0, 0.99])),
                     "avg_rating": rating, "num_ratings": count,
                     "permissions": ";".join(requested)})
    if len(apps) > 1 and draw(st.integers(0, 3)) == 3:
        apps[-1]["id"] = apps[0]["id"]
    kind = draw(st.none() | st.sampled_from(sorted(COLUMN_MAPS)))
    renamed = COLUMN_MAPS["rename"] if kind == "rename" else {}
    apps = [{renamed.get(k, k): v for k, v in app.items()} for app in apps]
    if fmt == "json":
        text = json.dumps(apps)
    else:
        text = ",".join(renamed.get(k, k) for k in CSV_HEADER[:-1].split(","))
        text += "\n" + "".join(
            ",".join("" if v is None else str(v) for v in app.values()) + "\n"
            for app in apps)
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    columns = None if kind is None else COLUMN_MAPS[kind]
    return fmt, bom + text.encode(), columns


@st.composite
def command_line(draw):
    """(command, reputation config or None, option below its range or
    None): a command and its options, each value drawn from its edges: the
    least value the option takes, 1 or 2, and a huge one; NaN, inf and a
    negative value for --kl-smoothing.  In about a quarter of the draws one
    option that takes a count gets its BELOW_RANGE value instead, which
    click rejects.  Every draw that sizes work stays small: --sim-n at
    most 7, at most two repetitions on one thread, and a huge K or test
    size exits before any fit."""
    def edge(*values):
        return str(draw(st.sampled_from(values)))

    name = draw(st.sampled_from(["stats", "simulate", "mine", "select-k"]))
    reputation = None
    if name == "stats":
        args = ["--top-n", edge(0, 1, 10 ** 9)]
    elif name == "simulate":
        args = ["--bins", edge(1, 2, 50), "--sim-n", edge(1, 2, 7)]
    elif name == "mine":
        # NaN, inf and -1 in fewer draws, since they exit 2 before the
        # input is read
        args = ["-k", edge(1, 2, 3, 10 ** 9), "--kl-smoothing",
                edge(0.0, 0.5, 1e308) if draw(st.integers(0, 3)) < 3
                else edge("nan", "inf", -1)]
        if draw(st.booleans()):
            reputation = {
                "min_num_ratings": draw(st.sampled_from([0, 100])),
                "max_low_num_ratings": draw(st.sampled_from([0, 10])),
                "test_size": draw(st.sampled_from([0, 1, 10 ** 9]))}
    else:
        args = ["--k-min", edge(1, 2), "--k-max", edge(1, 2, 3, 10 ** 9),
                "--repetitions", edge(1, 2), "--threads", "1"]
    below = None
    if draw(st.integers(0, 3)) == 0:
        below = draw(st.sampled_from([o for o in args if o in BELOW_RANGE]))
        args[args.index(below) + 1] = BELOW_RANGE[below]
    command = [name, *args, "--seed", edge(0, 2 ** 32 - 1, 2 ** 63)]
    return command, reputation, below


class TestExitCodeContract:
    @settings(max_examples=100, deadline=None)
    @given(line=command_line(), case=small_input())
    def test_small_inputs_and_edge_options(self, tmp_path_factory, line,
                                           case):
        (command, reputation, below), (fmt, content, columns) = line, case
        folder = tmp_path_factory.mktemp("contract")
        path, out = folder / f"apps.{fmt}", folder / "out"
        path.write_bytes(content)
        for option, config in (("--reputation-config", reputation),
                               ("--column-map", columns)):
            if config is not None:
                config_path = folder / f"{option[2:]}.json"
                config_path.write_text(json.dumps(config))
                command = [*command, option, str(config_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, [*command, "--input", str(path),
                                               "--out-dir", str(out)])
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], caught
        if below:
            # click's usage error, before anything is read
            assert result.exit_code == 2, result.output
            error = result.output.splitlines()[-1]
            assert error.startswith(f"Error: Invalid value for '{below}'")
            assert "is not in the range" in error
            assert "Traceback" not in result.output
        else:
            assert_exit_contract(result)
        if result.exit_code == 2:
            assert not out.exists()
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            assert all(Path(p).is_file() for p in manifest["outputs"])


@pytest.mark.parametrize("command", [
    ("select-k", "--k-min", "0", "--k-max", "2"),
    ("select-k", "--k-min", "1", "--k-max", "0"),
    ("select-k", "--k-min", "1", "--k-max", "2", "--repetitions", "0"),
    ("mine", "-k", "0"),
], ids=["k-min", "k-max", "repetitions", "mine-k"])
def test_count_below_1_is_a_usage_error(runner, tmp_path, command):
    data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, "--input", str(data),
                                  "--out-dir", str(out)])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "is not in the range x>=1" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", INGEST_COMMANDS,
                         ids=lambda command: command[0])
def test_negative_seed_is_a_usage_error(runner, tmp_path, command):
    data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, "--input", str(data),
                                  "--out-dir", str(out), "--seed", "-1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error: ")]
    assert errors == ["Error: Invalid value for '--seed': -1 is not in the "
                      "range x>=0."]
    assert not out.exists()


@pytest.mark.parametrize("command", INGEST_COMMANDS,
                         ids=lambda command: command[0])
def test_out_dir_under_a_file_exits_2(runner, tmp_path, command):
    # mkdir fails with ENOTDIR, which, unlike permission bits, stops root
    data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
    result = runner.invoke(main, [*command, "--input", str(data),
                                  "--out-dir", str(data / "sub")])
    assert_input_error(result, f"cannot create output directory {data}/sub: "
                               "Not a directory")


@pytest.mark.parametrize("command", INGEST_COMMANDS,
                         ids=lambda command: command[0])
def test_missing_input_leaves_no_out_dir(runner, tmp_path, command):
    result = runner.invoke(main, [*command, "--input",
                                  str(tmp_path / "nope.csv"), "--out-dir",
                                  str(tmp_path / "o1" / "sub")])
    assert_input_error(result, "nope.csv")
    assert not (tmp_path / "o1").exists()


@pytest.mark.parametrize("command, message", [
    (("select-k", "--k-min", "3", "--k-max", "2"), "invalid K range [3, 2]"),
    (("mine", "-k", "2", "--kl-smoothing", "nan"), "--kl-smoothing"),
], ids=["select-k-range", "mine-kl-smoothing"])
def test_rejected_option_leaves_no_out_dir(runner, tmp_path, command,
                                           message):
    data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
    result = runner.invoke(main, [*command, "--input", str(data),
                                  "--out-dir", str(tmp_path / "o1" / "sub")])
    assert_input_error(result, message)
    assert not (tmp_path / "o1").exists()


class TestSelectK:
    def test_single_k(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=120, d=8, k=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["select-k", "--input", str(data),
                                      "--out-dir", str(out),
                                      "--k-min", "3", "--k-max", "3",
                                      "--repetitions", "1"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["selected_k"] == 3
        assert (out / "instability.csv").exists()

    def test_output_format(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=80, d=8, k=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["select-k", "--input", str(data),
                                      "--out-dir", str(out), "--seed", "4",
                                      "--k-min", "2", "--k-max", "3",
                                      "--repetitions", "2"])
        assert result.exit_code == 0, result.output
        header, rows = read_table(out / "instability.csv")
        assert header == ["K", "repetition", "seed", "s", "median_s",
                          "std_s", "selected"]
        # one row per (K, repetition); the seed of repetition i is seed + i
        assert [row[:3] for row in rows] == [["2", "0", "4"], ["2", "1", "5"],
                                             ["3", "0", "4"], ["3", "1", "5"]]
        for row in rows:
            assert all(is_float_cell(cell) for cell in row[3:6])
        selected = json.loads((out / "manifest.json").read_text())[
            "config"]["selected_k"]
        assert [row[6] for row in rows] == [
            str(int(int(row[0]) == selected)) for row in rows]
        assert_json_format(out / "manifest.json")

    def test_k_max_exceeding_d_exits_2(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        result = runner.invoke(main, ["select-k", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "--k-min", "2", "--k-max", "9"])
        assert result.exit_code == 2

    def test_invalid_range_exits_2(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        result = runner.invoke(main, ["select-k", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "--k-min", "4", "--k-max", "2"])
        assert result.exit_code == 2

    def test_fewer_than_two_apps_exits_2(self, runner, tmp_path):
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER + "app0,App 0,Tools,0,4.5,500,p0;p1;p2\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["select-k", "--input", str(data),
                                      "--out-dir", str(out),
                                      "--k-min", "1", "--k-max", "2",
                                      "--repetitions", "1"])
        assert result.exit_code == 2
        assert "at least 2 apps" in result.output
        assert not (out / "instability.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_zero_repetitions_exits_2(self, runner, tmp_path, threads):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        result = runner.invoke(main, ["select-k", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "--k-min", "2", "--k-max", "3",
                                      "--repetitions", "0",
                                      "--threads", threads])
        assert result.exit_code == 2
        assert "repetitions" in result.output

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers see the patched fit only "
                               "when forked")
    def test_threads_do_not_change_outputs(self, runner, tmp_path,
                                           monkeypatch):
        real_fit = selection.fit

        def fit(x, k, config):
            if k == 3:
                raise ConfigError("overflow in em_step")
            return real_fit(x, k, config)

        monkeypatch.setattr(selection, "fit", fit)
        data = planted_csv(tmp_path / "apps.csv", n=80, d=8, k=2)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            result = runner.invoke(main, ["select-k", "--input", str(data),
                                          "--out-dir", str(out),
                                          "--k-min", "2", "--k-max", "4",
                                          "--repetitions", "2",
                                          "--threads", threads])
            assert result.exit_code == 0, result.output
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config["failed_k"] == {"3": "overflow in em_step"}
            outputs.append((out / "instability.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestMine:
    def test_noiseless_planted_zero_residuals(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=300, d=12, k=3, seed=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(out), "-k", "3"])
        assert result.exit_code == 0, result.output
        residuals = json.loads((out / "residuals.json").read_text())
        assert residuals["train"]["mean_fn"] == 0.0
        assert residuals["train"]["mean_fp"] == 0.0
        model = json.loads((out / "factorization.json").read_text())
        assert model["K"] == 3
        assert (out / "error_curves.csv").exists()
        assert (out / "pattern_summary.csv").exists()

    def test_low_reputation_separation(self, runner, tmp_path):
        # high-reputation apps from one planted model, low-reputation apps
        # from a different one
        n, d, k = 300, 14, 3
        x_hi, _, _ = plant_factorization(n, d, k, 0.3, 0.3, 0.0, 0.5, seed=1)
        x_lo, _, _ = plant_factorization(80, d, k, 0.3, 0.3, 0.0, 0.5, seed=99)
        lines = [CSV_HEADER]
        for i in range(n):
            perms = ";".join(f"perm{j}" for j in np.nonzero(x_hi[i])[0])
            lines.append(f"hi{i},A,Tools,0,4.5,500,{perms}\n")
        for i in range(80):
            perms = ";".join(f"perm{j}" for j in np.nonzero(x_lo[i])[0])
            lines.append(f"lo{i},B,Games,0,5.0,2,{perms}\n")
        data = tmp_path / "apps.csv"
        data.write_text("".join(lines))
        out = tmp_path / "out"
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(out), "-k", str(k)])
        assert result.exit_code == 0, result.output
        residuals = json.loads((out / "residuals.json").read_text())
        hi = residuals["train"]["mean_fn"] + residuals["train"]["mean_fp"]
        lo = residuals["test_low"]["mean_fn"] + residuals["test_low"]["mean_fp"]
        assert lo > hi

    def test_output_format(self, runner, tmp_path, monkeypatch):
        # noisy high-reputation apps, 30 of them held out, and low-reputation
        # apps from another model: all three subsets have residual curves
        x_hi, _, _ = plant_factorization(200, 10, 3, 0.3, 0.3, 0.05, 0.5,
                                         seed=3)
        x_lo, _, _ = plant_factorization(40, 10, 3, 0.3, 0.3, 0.1, 0.5,
                                         seed=4)
        lines = [CSV_HEADER]
        for tag, x, ratings in (("hi", x_hi, 500), ("lo", x_lo, 2)):
            for i in range(x.rows):
                perms = ";".join(f"perm{j}" for j in np.nonzero(x[i])[0])
                lines.append(f"{tag}{i},A,Tools,0,4.5,{ratings},{perms}\n")
        data = tmp_path / "apps.csv"
        data.write_text("".join(lines))
        config = tmp_path / "reputation.json"
        config.write_text(json.dumps({"test_size": 30}))
        # pattern 1 gets no divergence, as when no app is assigned it
        real_divergence = cli.category_divergence

        def divergence(z, categories, smoothing):
            kl = real_divergence(z, categories, smoothing)
            kl[1] = np.nan
            return kl

        monkeypatch.setattr(cli, "category_divergence", divergence)
        out = tmp_path / "out"
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(out), "-k", "3",
                                      "--reputation-config", str(config)])
        assert result.exit_code == 0, result.output

        header, rows = read_table(out / "error_curves.csv")
        assert header == ["dataset", "t", "fraction_fn_gt_t",
                          "fraction_fp_gt_t"]
        tags = [row[0] for row in rows]
        assert sorted(set(tags), key=tags.index) == ["train", "test_high",
                                                     "test_low"]
        for tag in set(tags):
            curve = [row[1:] for row in rows if row[0] == tag]
            assert [t for t, _, _ in curve] == [str(t) for t in
                                                range(len(curve))]
            assert all(is_float_cell(fn) and is_float_cell(fp)
                       for _, fn, fp in curve)
            # both curves end at 0.0, the longer one at its first t that
            # no app exceeds, the shorter one padded with zeros up to it
            assert curve[-1][1:] == ["0.0", "0.0"]
            assert len(curve) == 1 or curve[-2][1:] != ["0.0", "0.0"]

        header, rows = read_table(out / "pattern_summary.csv")
        assert header == ["pattern", "frequency", "kl_bits", "permissions"]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(is_float_cell(row[1]) for row in rows)
        assert sum(row[2] == "" for row in rows) == 1
        assert all(is_float_cell(row[2]) for row in rows if row[2])
        vocabulary = load_dataset(data).vocabulary
        model = json.loads((out / "factorization.json").read_text())
        expected = sorted(";".join(p for p, bit in zip(vocabulary, u) if bit)
                          for u in model["u"])
        assert sorted(row[3] for row in rows) == expected
        assert any(";" in row[3] for row in rows)

        residuals = json.loads((out / "residuals.json").read_text())
        assert {tag: residuals[tag]["n"] for tag in residuals} == {
            "train": 170, "test_high": 30, "test_low": 40}
        for name in ("factorization.json", "residuals.json",
                     "manifest.json"):
            assert_json_format(out / name)

    @pytest.mark.parametrize("config", [
        {"test_size": 1.5},
        {"min_avg_rating": "4"},
        {"min_num_ratings": True, "test_size": True},
    ])
    def test_mistyped_reputation_config_exits_2(self, runner, tmp_path,
                                                config):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        path = tmp_path / "reputation.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "2", "--reputation-config",
                                      str(path)])
        assert result.exit_code == 2
        assert "bad reputation config" in result.output

    @pytest.mark.parametrize("name", ["min_num_ratings",
                                      "max_low_num_ratings", "test_size",
                                      "split_seed"])
    def test_negative_reputation_config_exits_2(self, runner, tmp_path, name):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        path = tmp_path / "reputation.json"
        path.write_text(json.dumps({name: -1}))
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "2", "--reputation-config",
                                      str(path)])
        assert_input_error(result, "bad reputation config: ")
        assert "must be non-negative" in result.output
        assert not (tmp_path / "out").exists()

    def test_test_size_above_high_reputation_count_exits_2(self, runner,
                                                           tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        path = tmp_path / "reputation.json"
        path.write_text(json.dumps({"test_size": 41}))
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "2", "--reputation-config",
                                      str(path)])
        assert_input_error(result, "test size")

    def test_k_above_d_exits_2(self, runner, tmp_path):
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER + "".join(
            f"app{i},App {i},Tools,0,4.5,500,p;q;r\n" for i in range(20)))
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "4"])
        assert_input_error(result,
                           "K=4 exceeds the number of permissions D=3")

    def test_reputation_config_with_byte_order_mark(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=60, d=6, k=2)
        config = tmp_path / "reputation.json"
        config.write_text('{"test_size": 20}', encoding="utf-8-sig")
        out = tmp_path / "out"
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(out), "-k", "2",
                                      "--reputation-config", str(config)])
        assert result.exit_code == 0, result.output
        residuals = json.loads((out / "residuals.json").read_text())
        assert (residuals["train"]["n"], residuals["test_high"]["n"]) == (
            40, 20)

    @pytest.mark.parametrize("option,message", [
        ("--column-map", "bad column map"),
        ("--reputation-config", "bad reputation config")])
    def test_deeply_nested_config_exits_2(self, runner, tmp_path, option,
                                          message):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "2", option, str(path)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {message}: ")
        assert result.output.count("\n") == 1

    def test_k_zero_exits_2(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_kl_smoothing_exits_2(self, runner, tmp_path, value):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "2", "--kl-smoothing", value])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "--kl-smoothing" in errors[0]
        assert "Traceback" not in result.output

    def test_huge_kl_smoothing_gives_finite_divergences(self, runner,
                                                         tmp_path):
        categories = tuple(f"C{i}" for i in range(8))
        data = planted_csv(tmp_path / "apps.csv", n=120, d=8, k=2, seed=5,
                           categories=categories)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["mine", "--input", str(data),
                                          "--out-dir", str(out), "-k", "2",
                                          "--kl-smoothing", "1e308"])
        assert result.exit_code == 0, result.output
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        _, rows = read_table(out / "pattern_summary.csv")
        kl = [float(row[2]) for row in rows if float(row[1]) > 0]
        assert kl and all(math.isfinite(v) for v in kl)

    def test_zero_kl_smoothing_writes_inf_without_warning(self, runner,
                                                          tmp_path):
        # 40 apps over 8 categories: some pattern misses a category, and
        # its unsmoothed divergence is infinite
        categories = tuple(f"C{i}" for i in range(8))
        data = planted_csv(tmp_path / "apps.csv", n=40, d=8, k=2, seed=5,
                           categories=categories)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["mine", "--input", str(data),
                                          "--out-dir", str(out), "-k", "2",
                                          "--kl-smoothing", "0"])
        assert result.exit_code == 0, result.output
        assert not caught
        _, rows = read_table(out / "pattern_summary.csv")
        assert "inf" in [row[2] for row in rows]

    def test_empty_train_set_exits_2(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=30, d=5, rating=2.0,
                           num_ratings=3)
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "2"])
        assert result.exit_code == 2
        assert "empty training set" in result.output


class TestSimulate:
    def test_outputs_and_separation(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=800, d=15, k=3)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(out), "--seed", "5"])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "pcp_summary.json").read_text())
        assert summary["average_pcp_real"] > summary["average_pcp_simulated"]
        assert (out / "pcp_histogram.csv").exists()

    def test_output_format(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=200, d=10, k=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(out), "--bins", "8"])
        assert result.exit_code == 0, result.output
        header, rows = read_table(out / "pcp_histogram.csv")
        assert header == ["bin_center", "count_real", "count_sim"]
        assert len(rows) == 8
        for center, real, sim in rows:
            assert is_float_cell(center)
            assert is_int_cell(real) and is_int_cell(sim)
        d = len(load_dataset(data).vocabulary)
        for col in (1, 2):
            assert sum(int(row[col]) for row in rows) == d * (d - 1)
        for name in ("pcp_summary.json", "manifest.json"):
            assert_json_format(out / name)

    def test_no_apps_exits_2(self, runner, tmp_path):
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER)
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "at least one app" in result.output

    @pytest.mark.parametrize("option,value", [
        ("--sim-n", "-5"), ("--sim-n", "0"), ("--bins", "0")])
    def test_bad_size_exits_2(self, runner, tmp_path, option, value):
        data = planted_csv(tmp_path / "apps.csv", n=30, d=5)
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      option, value])
        assert result.exit_code == 2
        assert option in result.output

    def test_sim_n_beyond_memory_exits_2(self, runner, tmp_path):
        # 10^17 apps of 2 permissions take 2 * 10^17 bytes, more than a
        # 2^57-byte user address space, so the allocation fails at once
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER + "a0,A,Tools,0,4.5,500,p0;p1\n"
                        "a1,B,Games,0,4.5,500,p1\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(out),
                                      "--sim-n", str(10 ** 17)])
        assert result.exit_code == 2, result.output
        assert "--sim-n" in result.output and "memory" in result.output
        assert not out.exists()

    # 2^62 simulated apps of 2 permissions, or 2^62 float64 bin edges, pass
    # numpy's largest array size, which it refuses with ValueError; 2^55
    # bin edges take 2^58 bytes, more than a 2^57-byte user address space,
    # so the allocation fails at once with MemoryError
    @pytest.mark.parametrize("option,value", [
        ("--sim-n", 2 ** 62), ("--bins", 2 ** 62), ("--bins", 2 ** 55)])
    def test_size_beyond_numpy_exits_2(self, runner, tmp_path, option, value):
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER + "a0,A,Tools,0,4.5,500,p0;p1\n"
                        "a1,B,Games,0,4.5,500,p1\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(out),
                                      option, str(value)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.output == (f"error: {option} {value}: " + (
            f"{value} simulated apps of 2 permissions" if option == "--sim-n"
            else f"{value} bins") + " do not fit in memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", [2 ** 62, 2 ** 55])
    def test_bins_checked_before_simulating(self, runner, tmp_path,
                                            monkeypatch, value):
        def simulated(*args):
            raise AssertionError("simulated before --bins was checked")

        monkeypatch.setattr(cli, "simulate_independent", simulated)
        data = tmp_path / "apps.csv"
        data.write_text(CSV_HEADER + "a0,A,Tools,0,4.5,500,p0;p1\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(out),
                                      "--bins", str(value)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert result.output == (f"error: --bins {value}: {value} bins do "
                                 "not fit in memory\n")
        assert not out.exists()

    def test_fixed_seed_byte_identical(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=200, d=10, k=2)
        outputs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            result = runner.invoke(main, ["simulate", "--input", str(data),
                                          "--out-dir", str(out),
                                          "--seed", "7"])
            assert result.exit_code == 0
            outputs.append({
                "hist": (out / "pcp_histogram.csv").read_bytes(),
                "summary": (out / "pcp_summary.json").read_bytes(),
            })
        assert outputs[0] == outputs[1]


def per_cell(value):
    """The table cell rule, one cell at a time: a float as its repr, NaN as
    an empty cell, anything else as it is."""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return value


class TestWriteCsv:
    def test_columns_follow_the_per_cell_rule(self, tmp_path):
        # a float column mixes Python floats, numpy float64 and -0.0;
        # float32 values are no Python floats and stay as they are; strings
        # need quoting
        rows = [("p,q", 1, 0.1, -0.0, np.float32(0.1), np.int64(7)),
                ("r", 2, float("nan"), 0.0, np.float32(2.5), np.int64(-3)),
                ("s\"t", 3, 1e16, np.float64(1e-5), np.float32("nan"),
                 np.int64(0)),
                ("r", 2, 0.1, -0.0, np.float32(0.1), np.int64(7))]
        header = ["name", "i", "f", "zero", "f32", "n"]
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([per_cell(v) for v in row] for row in rows)
        got = cli._write_csv(tmp_path / "got.csv", header, rows)
        assert got.read_bytes() == want.read_bytes()
        assert b",-0.0," in got.read_bytes()

    def test_no_rows_writes_the_header(self, tmp_path):
        got = cli._write_csv(tmp_path / "t.csv", ["a", "b"], [])
        assert got.read_bytes() == b"a,b\r\n"


class TestManifest:
    def test_outputs_listed_and_exist(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=100, d=8, k=2)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--input", str(data),
                                      "--out-dir", str(out)])
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["input_digests"]
        for path in manifest["outputs"]:
            import pathlib
            assert pathlib.Path(path).exists()
