import json

import numpy as np
import pytest

from permpatterns import (
    Dataset,
    DatasetError,
    ReputationCriteria,
    filter_reputation,
    load_dataset,
    marginal_probs,
    summary_stats,
)

CSV_HEADER = "id,name,category,price,avg_rating,num_ratings,permissions\n"


def write_csv(path, rows):
    path.write_text(CSV_HEADER + "".join(rows))
    return path


class TestLoadDataset:
    def test_small_csv(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,a\n",
            "app2,Two,Games,0.99,3.0,50,a;b\n",
        ])
        ds = load_dataset(path)
        assert ds.d == 2
        assert ds.vocabulary == ("a", "b")
        assert ds.to_matrix().data.tolist() == [[1, 0], [1, 1]]

    def test_empty_permission_field(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,a\n",
            "app2,Two,Games,0,3.0,50,\n",
        ])
        ds = load_dataset(path)
        assert ds.to_matrix().row(1).tolist() == [0]

    def test_duplicate_id(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,a\n",
            "app1,Dup,Games,0,3.0,50,b\n",
        ])
        with pytest.raises(DatasetError, match="app1"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "apps.csv"
        path.write_text("id,name\napp1,One\n")
        with pytest.raises(DatasetError, match="missing columns"):
            load_dataset(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,a\n",
            "app2,Two,Games,oops,3.0,50,b\n",
        ])
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(path)

    def test_json_input(self, tmp_path):
        path = tmp_path / "apps.json"
        path.write_text(json.dumps([
            {"id": "a1", "name": "One", "category": "Tools", "price": 0,
             "avg_rating": 4.2, "num_ratings": 150, "permissions": ["a", "b"]},
            {"id": "a2", "name": "Two", "category": "Games", "price": 1.99,
             "avg_rating": None, "num_ratings": 0, "permissions": "b;c"},
        ]))
        ds = load_dataset(path)
        assert ds.vocabulary == ("a", "b", "c")
        assert ds.apps[1].avg_rating is None
        assert ds.missing_rating_ids == ("a2",)
        for entry, message in (
                ({"name": "No id", "permissions": ["a"]},
                 "entry 1 lacks an id"),
                ({"id": None, "name": "Null id", "permissions": ["a"]},
                 "line 1: empty id")):
            path.write_text(json.dumps([entry]))
            with pytest.raises(DatasetError, match=message):
                load_dataset(path)

    def test_column_map(self, tmp_path):
        path = tmp_path / "apps.csv"
        path.write_text(
            "package,title,cat,cost,stars,votes,perms\n"
            "p1,One,Tools,0,4.5,200,a;b\n")
        mapping = {"id": "package", "name": "title", "category": "cat",
                   "price": "cost", "avg_rating": "stars",
                   "num_ratings": "votes", "permissions": "perms"}
        json_path = tmp_path / "apps.json"
        json_path.write_text(json.dumps([
            {"package": "p1", "title": "One", "cat": "Tools", "cost": 0,
             "stars": 4.5, "votes": 200, "perms": ["a", "b"]}]))
        for source in (path, json_path):
            ds = load_dataset(source, column_map=mapping)
            assert ds.apps[0].id == "p1"
            assert ds.apps[0].permissions == {"a", "b"}

    def test_rating_out_of_range(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv",
                         ["app1,One,Tools,0,6.0,10,a\n"])
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_matrix_row_lookup_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,c;a\n",
            "app2,Two,Games,0,3.0,50,b\n",
        ])
        ds = load_dataset(path)
        m = ds.to_matrix()
        for i, app in enumerate(ds.apps):
            perms = {ds.vocabulary[d] for d in np.nonzero(m.row(i))[0]}
            assert perms == set(app.permissions)


def make_dataset(specs):
    from permpatterns.dataset import AppRecord
    apps = []
    vocab = set()
    for i, (rating, count, perms) in enumerate(specs):
        apps.append(AppRecord(id=f"app{i}", name=f"App {i}", category="Tools",
                              price=0.0, avg_rating=rating, num_ratings=count,
                              permissions=frozenset(perms)))
        vocab |= set(perms)
    return Dataset(apps=tuple(apps), vocabulary=tuple(sorted(vocab)))


class TestFilterReputation:
    def test_inclusive_thresholds(self):
        ds = make_dataset([(4.0, 100, {"a"})])
        train, test_high, test_low = filter_reputation(
            ds, ReputationCriteria(test_size=0))
        assert train.n == 1 and test_high.n == 0 and test_low.n == 0

    def test_count_rule_dominates_score(self):
        ds = make_dataset([(5.0, 9, {"a"})])
        train, _, test_low = filter_reputation(ds, ReputationCriteria())
        assert train.n == 0 and test_low.n == 1

    def test_middle_band_excluded(self):
        ds = make_dataset([(3.5, 50, {"a"})])
        train, test_high, test_low = filter_reputation(ds, ReputationCriteria())
        assert train.n == test_high.n == test_low.n == 0

    def test_subsets_disjoint(self):
        rng = np.random.default_rng(0)
        specs = [(float(rng.uniform(1, 5)), int(rng.integers(0, 300)), {"a"})
                 for _ in range(200)]
        ds = make_dataset(specs)
        train, test_high, test_low = filter_reputation(
            ds, ReputationCriteria(test_size=5, split_seed=1))
        ids = [a.id for subset in (train, test_high, test_low)
               for a in subset.apps]
        high_ids = {a.id for a in train.apps} | {a.id for a in test_high.apps}
        assert len(high_ids) == train.n + test_high.n
        assert high_ids.isdisjoint({a.id for a in test_low.apps})

    def test_oversized_test_set_rejected(self):
        ds = make_dataset([(4.5, 200, {"a"})])
        with pytest.raises(DatasetError, match="test size"):
            filter_reputation(ds, ReputationCriteria(test_size=5))

    def test_sampling_deterministic(self):
        specs = [(4.5, 200, {"a"}) for _ in range(50)]
        ds = make_dataset(specs)
        crit = ReputationCriteria(test_size=10, split_seed=3)
        _, th1, _ = filter_reputation(ds, crit)
        _, th2, _ = filter_reputation(ds, crit)
        assert [a.id for a in th1.apps] == [a.id for a in th2.apps]


class TestSummaryStats:
    def test_universal_permission(self):
        ds = make_dataset([(4.0, 10, {"a"}), (3.0, 5, {"a"})])
        stats = summary_stats(ds)
        assert stats.permission_frequencies[0] == ("a", 1.0)

    def test_top_n_truncation(self):
        ds = make_dataset([(4.0, 10, {"a", "b", "c"})])
        stats = summary_stats(ds, top_n=2)
        assert len(stats.permission_frequencies) == 2

    def test_frequencies_match_marginals(self):
        ds = make_dataset([(4.0, 10, {"a"}), (3.0, 5, {"a", "b"}),
                           (2.0, 1, set())])
        stats = summary_stats(ds)
        probs = dict(zip(ds.vocabulary, marginal_probs(ds.to_matrix())))
        for perm, frac in stats.permission_frequencies:
            assert frac == pytest.approx(probs[perm])

    def test_zero_rating_apps_excluded_from_rating_table(self):
        ds = make_dataset([(4.0, 10, {"a"}), (None, 0, {"a"})])
        stats = summary_stats(ds)
        assert len(stats.rating_table) == 1

    def test_price_curve_cumulative(self):
        from permpatterns.dataset import AppRecord
        apps = tuple(
            AppRecord(id=f"a{i}", name="", category="", price=price,
                      avg_rating=4.0, num_ratings=10,
                      permissions=frozenset({"p"}))
            for i, price in enumerate([1.99, 0.0, 0.99, 0.0, 4.99, 0.99, 0.0,
                                       1.99])
        )
        ds = Dataset(apps=apps, vocabulary=("p",))
        stats = summary_stats(ds)
        prices = [app.price for app in apps]
        assert [p for p, _ in stats.price_cumulative] == [0.0, 0.99, 1.99, 4.99]
        for price, frac in stats.price_cumulative:
            assert frac == sum(p <= price for p in prices) / len(prices)
        assert stats.price_cumulative[0] == (0.0, 0.375)
        assert stats.price_cumulative[-1] == (4.99, 1.0)
