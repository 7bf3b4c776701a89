import json
import multiprocessing

import numpy as np
import pytest
from click.testing import CliRunner

from permpatterns import cli, selection
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
                raise FloatingPointError("overflow in em_step")
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
        d = load_dataset(data).d
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
