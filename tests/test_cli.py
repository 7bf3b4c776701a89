import json
import multiprocessing

import numpy as np
import pytest
from click.testing import CliRunner

from permpatterns import selection
from permpatterns.cli import main
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
        perms = ";".join(f"perm{j}" for j in np.nonzero(x.row(i))[0])
        cat = categories[rng.integers(len(categories))]
        lines.append(f"app{i},App {i},{cat},0,{rating},{num_ratings},{perms}\n")
    path.write_text("".join(lines))
    return path


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

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["stats", "--input",
                                      str(tmp_path / "nope.csv"),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "nope.csv" in result.output

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
            perms = ";".join(f"perm{j}" for j in np.nonzero(x_hi.row(i))[0])
            lines.append(f"hi{i},A,Tools,0,4.5,500,{perms}\n")
        for i in range(80):
            perms = ";".join(f"perm{j}" for j in np.nonzero(x_lo.row(i))[0])
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

    def test_k_zero_exits_2(self, runner, tmp_path):
        data = planted_csv(tmp_path / "apps.csv", n=40, d=5)
        result = runner.invoke(main, ["mine", "--input", str(data),
                                      "--out-dir", str(tmp_path / "out"),
                                      "-k", "0"])
        assert result.exit_code == 2

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
