import codecs
import csv
import gc
import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permpatterns import (
    BinaryMatrix,
    Dataset,
    DatasetError,
    DimensionError,
    ReputationCriteria,
    filter_reputation,
    load_dataset,
    marginal_probs,
)
from permpatterns import dataset
from permpatterns.dataset import summary_stats

from helpers import reference_load_dataset

CSV_HEADER = "id,name,category,price,avg_rating,num_ratings,permissions\n"


def write_csv(path, rows):
    path.write_text(CSV_HEADER + "".join(rows))
    return path


VALID = {"id": "app1", "name": "One", "category": "Tools", "price": "0.99",
         "avg_rating": "4.5", "num_ratings": "200", "permissions": "a;b"}
# the line number of the first app: CSV counts the header, JSON entries
FIRST_LINE = {"csv": 2, "json": 1}


def write_records(tmp_path, fmt, records):
    """The same apps as a CSV or a JSON file, values as given."""
    path = tmp_path / f"apps.{fmt}"
    if fmt == "json":
        path.write_text(json.dumps(records))
    else:
        write_csv(path, [",".join(r[key] for key in VALID) + "\n"
                         for r in records])
    return path


class TestLoadDataset:
    def test_small_csv(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,a\n",
            "app2,Two,Games,0.99,3.0,50,a;b\n",
        ])
        ds = load_dataset(path)
        assert ds.vocabulary == ("a", "b")
        assert ds.to_matrix().data.tolist() == [[1, 0], [1, 1]]

    def test_empty_permission_field(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,a\n",
            "app2,Two,Games,0,3.0,50,\n",
        ])
        ds = load_dataset(path)
        assert ds.to_matrix()[1].tolist() == [0]

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
        assert np.isnan(ds.avg_rating).tolist() == [False, True]
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
            assert ds.ids == ("p1",)
            assert permission_sets(ds) == [{"a", "b"}]

    def test_rating_out_of_range(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv",
                         ["app1,One,Tools,0,6.0,10,a\n"])
        with pytest.raises(DatasetError):
            load_dataset(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("field,value,message", [
        ("id", " ", "empty id"),
        ("id", "app1", "duplicate app id 'app1'"),
        ("price", "oops", "could not convert string to float: 'oops'"),
        ("avg_rating", "x", "could not convert string to float: 'x'"),
        ("avg_rating", "6.0", "avg_rating 6.0 outside [1, 5]"),
        ("avg_rating", "nan", "avg_rating nan outside [1, 5]"),
        ("num_ratings", "many",
         "invalid literal for int() with base 10: 'many'"),
        ("num_ratings", "-1", "negative num_ratings"),
        ("price", "-2", "price -2.0 is negative or not finite"),
        ("price", "nan", "price nan is negative or not finite"),
        ("price", "inf", "price inf is negative or not finite"),
        ("price", "-1e400", "price -inf is negative or not finite"),
    ])
    def test_row_error_message_and_line(self, tmp_path, fmt, field, value,
                                        message):
        bad = {**VALID, "id": "app3", field: value}
        path = write_records(tmp_path, fmt,
                             [VALID, dict(VALID, id="app2"), bad, bad])
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"line {FIRST_LINE[fmt] + 2}: {message}"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_first_failing_row_wins(self, tmp_path, fmt):
        # the first app with an error is reported, whatever the later apps
        # fail; within one app the id comes first, then price, rating and
        # count, then the rating's range, the count's sign and the price's
        # range
        records = [VALID,
                   dict(VALID, id="app2", price="x", num_ratings="-3"),
                   dict(VALID, id="app3", avg_rating="9", num_ratings="y"),
                   dict(VALID, id="")]
        for rows, line, message in (
                (records, 1, "could not convert string to float: 'x'"),
                (records[2:], 0,
                 "invalid literal for int() with base 10: 'y'"),
                ([dict(records[2], id="")], 0, "empty id"),
                ([VALID, dict(VALID, price="x")], 1,
                 "duplicate app id 'app1'"),
                ([dict(VALID, id="app2", avg_rating="9", num_ratings="-1")],
                 0, "avg_rating 9.0 outside [1, 5]"),
                ([dict(VALID, price="-1", num_ratings="-3")], 0,
                 "negative num_ratings"),
                ([dict(VALID, price="nan", avg_rating="7")], 0,
                 "avg_rating 7.0 outside [1, 5]"),
                ([dict(VALID, price="inf"), dict(VALID, id="app2", price="x")],
                 0, "price inf is negative or not finite")):
            path = write_records(tmp_path, fmt, rows)
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            line += FIRST_LINE[fmt]
            assert str(info.value) == f"line {line}: {message}"

    def test_json_false_values_are_rated(self, tmp_path):
        # only null and "" leave an app unrated; a false value is a rating
        for value, message in ((0, "avg_rating 0.0 outside [1, 5]"),
                               (False, "avg_rating 0.0 outside [1, 5]"),
                               (-0.0, "avg_rating -0.0 outside [1, 5]"),
                               ([], "float() argument must be a string or "
                                    "a real number, not 'list'")):
            path = write_records(tmp_path, "json",
                                 [VALID, dict(VALID, id="app2",
                                              avg_rating=value)])
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            assert str(info.value) == f"line 2: {message}"

    def test_json_fractional_count_rejected(self, tmp_path):
        # int() would cut 99.9 off to 99, and the CSV cell "99.9" is an
        # error too; a whole float is a count
        for value, message in ((99.9, "num_ratings 99.9 is not a whole "
                                      "number"),
                               (-0.5, "num_ratings -0.5 is not a whole "
                                      "number"),
                               (float("nan"),
                                "cannot convert float NaN to integer")):
            path = write_records(tmp_path, "json",
                                 [VALID, dict(VALID, id="app2",
                                              num_ratings=value)])
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            assert str(info.value) == f"line 2: {message}"
        path = write_records(tmp_path, "json", [dict(VALID, num_ratings=2e2)])
        assert load_dataset(path).num_ratings.tolist() == [200]

    def test_json_price_literals(self, tmp_path):
        # json writes NaN and -Infinity as bare literals, which it reads back
        path = tmp_path / "apps.json"
        for price, literal in ((float("nan"), "NaN"),
                               (float("-inf"), "-Infinity"), (-0.5, "-0.5")):
            path.write_text(json.dumps([
                dict(VALID, price=0), dict(VALID, id="app2", price=price)]))
            assert f'"price": {literal}' in path.read_text()
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            assert str(info.value) == (f"line 2: price {price} is negative or "
                                       "not finite")
        # a false value, negative zero among them, is a price of zero
        path.write_text(json.dumps([dict(VALID, price=-0.0),
                                    dict(VALID, id="app2", price=False)]))
        price = load_dataset(path).price
        assert price.tolist() == [0.0, 0.0] and not np.signbit(price).any()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_count_beyond_int64_rejected(self, tmp_path, fmt):
        path = write_records(tmp_path, fmt, [
            VALID, dict(VALID, id="app2", num_ratings=str(2 ** 63))])
        line = FIRST_LINE[fmt] + 1
        with pytest.raises(DatasetError, match=f"^line {line}: "):
            load_dataset(path)

    def test_each_count_converted_once_until_the_first_rejected(
            self, tmp_path, monkeypatch):
        converted = []
        whole = dataset._whole

        def counted(cell):
            converted.append(cell)
            return whole(cell)

        monkeypatch.setattr(dataset, "_whole", counted)
        path = write_records(tmp_path, "csv", [
            dict(VALID, id=f"app{i}", num_ratings=count)
            for i, count in enumerate(["5", "x", "5", "7"])])
        with pytest.raises(DatasetError, match="^line 3: invalid literal"):
            load_dataset(path)
        assert converted == ["5", "x"]

    def test_short_csv_row_loads_with_defaults(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,2.5,4.5,200,a\n",
            "app2,Two\n",
        ])
        ds = load_dataset(path)
        assert ds.n == 2 and ds.vocabulary == ("a",)
        assert np.isnan(ds.avg_rating).tolist() == [False, True]
        assert ds.to_matrix().data.tolist() == [[1], [0]]
        stats = summary_stats(ds)
        assert stats.price_cumulative == ((0.0, 0.5), (2.5, 1.0))
        assert stats.rating_table == ((4.5, 200),)
        path.write_text(CSV_HEADER + "app1,One,Tools,0,4.5,200,a\n\n"
                        "app2,Two,Tools,oops,4.5,200,a\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        # the blank line is not a record
        assert str(info.value) == (
            "line 3: could not convert string to float: 'oops'")

    def test_unrated_count_forced_to_zero(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,,500,a\n",
            "app2,Two,Tools,0,4.0,7,a\n",
        ])
        ds = load_dataset(path)
        assert np.isnan(ds.avg_rating).tolist() == [True, False]
        assert summary_stats(ds).rating_table == ((4.0, 7),)
        _, _, low = filter_reputation(
            ds, ReputationCriteria(max_low_num_ratings=1))
        assert low.n == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_permission_tokens(self, tmp_path, fmt):
        # whitespace around tokens, a token repeated in one field, empty
        # tokens and an empty field; the vocabulary is sorted
        path = write_records(tmp_path, fmt, [
            dict(VALID, permissions=" b ; a;;b ;"),
            dict(VALID, id="app2", permissions="c;c"),
            dict(VALID, id="app3", permissions=""),
            dict(VALID, id="app4", permissions=" "),
        ])
        ds = load_dataset(path)
        assert ds.vocabulary == ("a", "b", "c")
        assert ds.to_matrix().data.tolist() == [
            [1, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]
        assert summary_stats(ds).permission_frequencies == (
            ("a", 0.25), ("b", 0.25), ("c", 0.25))

    def test_json_permission_list(self, tmp_path):
        path = write_records(tmp_path, "json", [
            dict(VALID, permissions=[" b", "a", "b", " ", ""]),
            dict(VALID, id="app2", permissions=[]),
            dict(VALID, id="app3", permissions=None),
        ])
        ds = load_dataset(path)
        assert ds.vocabulary == ("a", "b")
        assert ds.to_matrix().data.tolist() == [[1, 1], [0, 0], [0, 0]]

    def test_matrix_row_lookup_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "apps.csv", [
            "app1,One,Tools,0,4.5,200,c;a\n",
            "app2,Two,Games,0,3.0,50,b\n",
        ])
        ds = load_dataset(path)
        m = ds.to_matrix()
        assert ds.ids == ("app1", "app2")
        for i, perms in enumerate([{"a", "c"}, {"b"}]):
            assert {ds.vocabulary[d] for d in np.nonzero(m[i])[0]} == perms


def test_csv_line_ends_and_quotes_load_alike(tmp_path):
    # "\n" lines without quotes are split as plain text; "\r\n" lines or a
    # quoted field go through the csv module, with or without a byte-order
    # mark
    lines = [CSV_HEADER.rstrip("\n"), "app1,One,Tools,0.99,4.5,200,a;b",
             "app2,Two,Games,0,,7,b", "", "app3,Three,Tools,,3.25,12,"]
    path = tmp_path / "apps.csv"
    path.write_text("\n".join(lines) + "\n")
    want = load_dataset(path)
    assert want.ids == ("app1", "app2", "app3")
    quoted = [line.replace(",Two,", ',"Two",') for line in lines]
    for text in ("\n".join(lines), "\r\n".join(lines) + "\r\n",
                 "\n".join(quoted) + "\n"):
        for bom in ("", "\ufeff"):
            path.write_text(bom + text, encoding="utf-8", newline="")
            assert_same_dataset(load_dataset(path), want)


def test_json_byte_order_mark_is_skipped(tmp_path):
    path = write_records(tmp_path, "json", [VALID, dict(VALID, id="app2")])
    want = load_dataset(path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert_same_dataset(load_dataset(path), want)


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("line,error", [
    # the csv module reads a NUL from Python 3.11 on
    ("app1,N\0ame,Tools,0,4.5,200,a",
     None if sys.version_info >= (3, 11) else "line 2: line contains NUL"),
    ("x" * LIMIT, None),
    ("x" * (LIMIT + 1), f"line 2: field larger than field limit ({LIMIT})"),
    ("app1,One,Tools,0,4.5,200," + "p" * LIMIT, None),
    ("app1,One,Tools,0,4.5,200," + "p" * (LIMIT + 1),
     f"line 2: field larger than field limit ({LIMIT})"),
], ids=["nul", "line-at-limit", "line-over-limit", "field-at-limit",
        "field-over-limit"])
def test_csv_edge_lines_read_as_csv_module_reads_them(tmp_path, line, error):
    path = write_csv(tmp_path / "apps.csv", [line + "\n"])
    (ds, message), (ref, ref_message) = (load_or_error(path),
                                         reference_or_error(path))
    assert message == ref_message == (error and f"{path}: {error}")
    if ref is not None:
        assert_same_dataset(ds, ref)


def permission_sets(ds):
    """The permission names of each app, read back from the matrix."""
    return [{p for p, bit in zip(ds.vocabulary, row) if bit}
            for row in ds.to_matrix().data]


def make_dataset(specs, prices=None):
    """A dataset of (avg_rating or None, num_ratings, permissions) apps."""
    vocab = tuple(sorted(set().union(*(perms for _, _, perms in specs))))
    ids = tuple(f"app{i}" for i in range(len(specs)))
    data = np.array([[p in perms for p in vocab] for _, _, perms in specs],
                    dtype=np.uint8).reshape(len(specs), len(vocab))
    return Dataset(
        ids=ids, names=tuple(f"App {i}" for i in range(len(specs))),
        categories=("Tools",) * len(specs),
        price=np.zeros(len(specs)) if prices is None else prices,
        avg_rating=[np.nan if r is None else r for r, _, _ in specs],
        num_ratings=[count for _, count, _ in specs],
        matrix=BinaryMatrix(data), vocabulary=vocab)


def test_vocabulary_length_checked():
    ds = make_dataset([(4.0, 100, {"a", "b"})])
    assert ds.vocabulary == ("a", "b")
    for vocabulary in (("a",), ("a", "b", "c")):
        with pytest.raises(DimensionError, match="vocabulary"):
            replace(ds, vocabulary=vocabulary)


@pytest.mark.parametrize("name", ["ids", "names", "categories", "price",
                                  "avg_rating", "num_ratings"])
def test_column_lengths_checked(name):
    ds = make_dataset([(4.0, 100, {"a"}), (3.0, 5, {"a"})])
    with pytest.raises(DimensionError, match=f"1 {name} for 2 matrix rows"):
        replace(ds, **{name: getattr(ds, name)[:1]})


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
        high_ids = set(train.ids) | set(test_high.ids)
        assert len(high_ids) == train.n + test_high.n
        assert high_ids.isdisjoint(test_low.ids)

    def test_oversized_test_set_rejected(self):
        ds = make_dataset([(4.5, 200, {"a"})])
        with pytest.raises(DatasetError, match="test size"):
            filter_reputation(ds, ReputationCriteria(test_size=5))

    def test_negative_split_seed_rejected(self):
        # numpy's generators take only non-negative seeds
        with pytest.raises(ValueError, match="split seed must be non-negative"):
            ReputationCriteria(split_seed=-1)

    def test_sampling_deterministic(self):
        specs = [(4.5, 200, {"a"}) for _ in range(50)]
        ds = make_dataset(specs)
        crit = ReputationCriteria(test_size=10, split_seed=3)
        _, th1, _ = filter_reputation(ds, crit)
        _, th2, _ = filter_reputation(ds, crit)
        assert th1.ids == th2.ids


@pytest.mark.parametrize("collecting", [True, False])
def test_cyclic_gc_left_as_found(tmp_path, collecting):
    # load_dataset and summary_stats pause the collector while they work
    path = write_csv(tmp_path / "apps.csv", ["app1,One,Tools,0,4.5,200,a\n"])
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        summary_stats(load_dataset(path))
        with pytest.raises(DatasetError):
            load_dataset(write_csv(tmp_path / "bad.csv", ["a,A,T,x,4,1,p\n"]))
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


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
        prices = [1.99, 0.0, 0.99, 0.0, 4.99, 0.99, 0.0, 1.99]
        ds = make_dataset([(4.0, 10, {"p"})] * len(prices), prices=prices)
        stats = summary_stats(ds)
        assert [p for p, _ in stats.price_cumulative] == [0.0, 0.99, 1.99, 4.99]
        for price, frac in stats.price_cumulative:
            assert frac == sum(p <= price for p in prices) / len(prices)
        assert stats.price_cumulative[0] == (0.0, 0.375)
        assert stats.price_cumulative[-1] == (4.99, 1.0)


def test_random_csv_matches_numpy(tmp_path):
    """A 5,000-app CSV with repeated permission sets, tied prices and
    unrated apps loads into the arrays it was written from."""
    rng = np.random.default_rng(11)
    n, d = 5000, 12
    vocab = tuple(f"perm{j:02d}" for j in range(d))
    templates = (rng.random((40, d)) < 0.3).astype(np.uint8)
    x = templates[rng.integers(0, 40, n)]
    x[rng.random((n, d)) < 0.02] ^= 1
    x[np.arange(d), np.arange(d)] = 1
    price = rng.choice([0.0, 0.0, 0.99, 1.99, 4.99], n)
    unrated = rng.random(n) < 0.2
    rating = rng.integers(100, 501, n) / 100
    count = rng.integers(0, 1000, n)   # an unrated app's count is ignored
    ids = tuple(f"app{i}" for i in range(n))
    lines = [CSV_HEADER]
    for i in range(n):
        perms = ";".join(vocab[j]
                         for j in rng.permutation(np.flatnonzero(x[i])))
        shown = "" if unrated[i] else repr(float(rating[i]))
        lines.append(f"{ids[i]},App {i},C{i % 7},{float(price[i])!r},{shown},"
                     f"{count[i]},{perms}\n")
    path = tmp_path / "apps.csv"
    path.write_text("".join(lines))
    ds = load_dataset(path)

    m = ds.to_matrix()
    assert np.array_equal(m.data, x)
    assert ds.vocabulary == vocab
    assert ds.ids == ids
    assert np.array_equal(np.isnan(ds.avg_rating), unrated)
    count = np.where(unrated, 0, count)
    assert np.array_equal(ds.num_ratings, count)

    stats = summary_stats(ds)
    fractions = x.sum(axis=0) / n
    assert stats.permission_frequencies == tuple(sorted(
        zip(vocab, fractions.tolist()), key=lambda item: (-item[1], item[0])))
    assert stats.price_cumulative == tuple(
        (p, int((price <= p).sum()) / n) for p in np.unique(price).tolist())
    shown = ~unrated & (count > 0)
    assert stats.rating_table == tuple(zip(rating[shown].tolist(),
                                           count[shown].tolist()))

    criteria = ReputationCriteria(test_size=100, split_seed=5)
    train, test_high, test_low = filter_reputation(ds, criteria)
    high = np.flatnonzero(~unrated & (rating >= 4.0) & (count >= 100))
    held = np.isin(np.arange(len(high)), np.random.default_rng(5).choice(
        len(high), size=100, replace=False))
    for subset, rows in ((train, high[~held]), (test_high, high[held]),
                         (test_low, np.flatnonzero(count < 10))):
        assert subset.ids == tuple(np.array(ids)[rows])
        assert np.array_equal(subset.to_matrix().data, x[rows])
        assert subset.vocabulary == vocab
        assert np.array_equal(subset.price, price[rows])
        assert np.array_equal(subset.num_ratings, count[rows])
        assert subset.categories == tuple(f"C{i % 7}" for i in rows)


# Loader equivalence: small generated tables load into the same Dataset as
# the per-value reference loader, or fail with the same message.
TEXT = st.text(alphabet=" ,;\n\"'aéZ0.", max_size=5)
# text the csv module writes unquoted: with "\n" line ends such a table is
# split as plain text.  \x0b, \x1c and \u2028 end a line for
# str.splitlines, not for the csv module.
PLAIN_TEXT = st.text(alphabet=" ;'aéZ0.\x0b\x1c\u2028", max_size=5)
CSV_VALUES = {
    "name": TEXT,
    "category": TEXT,
    "price": st.sampled_from(["", "0", "0.99", "-0", "2", " 1.5 ", "1e2"]),
    "avg_rating": st.sampled_from(["", "1", "4.5", "5", "3.25", " 2 "]),
    "num_ratings": st.sampled_from(["", "0", "7", "200", " 12 ", "+3"]),
    "permissions": st.lists(st.sampled_from(
        ["a", " b", "c ", "", " ", "a b", "é", "x,y", "q\nr"]),
        max_size=4).map(";".join),
}
# values that some column rejects, or that look like an error and are not
CSV_ODD = st.sampled_from(["oops", "nan", "inf", "-inf", "-2", "6", "0.5",
                           "-1", "2.5", "9" * 20, "", " ", "1_0", "0x1"])
JSON_NUMBER = st.one_of(st.integers(-3, 600), st.floats(-2, 600),
                        st.sampled_from([-0.0, 0.0, 0, 1, 5]))
CSV_PLAIN_VALUES = {
    **CSV_VALUES, "name": PLAIN_TEXT, "category": PLAIN_TEXT,
    "permissions": st.lists(st.sampled_from(
        ["a", " b", "c ", "", " ", "a b", "é", "\u2028"]),
        max_size=4).map(";".join),
}
JSON_VALUES = {
    "name": st.one_of(st.none(), TEXT, st.integers(), st.booleans(),
                      st.lists(TEXT, max_size=2)),
    "price": st.one_of(st.none(), st.just(""), st.booleans(),
                       st.sampled_from([0, 0.0, -0.0, 1, 0.99, "1.5", []])),
    "avg_rating": st.one_of(st.none(), st.just(""), st.sampled_from(
        [1, 5, 4.5, 3.25, "2", True])),
    "num_ratings": st.one_of(st.none(), st.just(""), st.integers(0, 500),
                             st.sampled_from([4.7, "12", False])),
    "permissions": st.one_of(
        st.none(), st.sampled_from(["", 0, False, "a; b", {}]),
        st.lists(st.one_of(TEXT, st.integers(0, 3), st.none()), max_size=4)),
}
JSON_VALUES["category"] = JSON_VALUES["name"]
JSON_ODD = st.one_of(CSV_ODD, JSON_NUMBER, st.booleans(), st.none(),
                     st.sampled_from([float("nan"), float("inf"), [1], {"a": 1},
                                      2 ** 64, [], "5"]))


@st.composite
def tables(draw, fmt):
    """Up to 8 apps, with at most one cell set to an odd value: JSON
    objects with some keys missing, or a CSV line end and (blank-line flag,
    fields) rows, some of them short."""
    plain = fmt == "csv" and draw(st.booleans())
    values = {"csv": CSV_PLAIN_VALUES if plain else CSV_VALUES,
              "json": JSON_VALUES}[fmt]
    text = PLAIN_TEXT if plain else TEXT
    n = draw(st.integers(0, 8))
    # an id is mostly a fresh one (None here), else text or a JSON number
    given_id = text if fmt == "csv" else st.one_of(text, st.integers(0, 3))
    ids = draw(st.lists(st.integers(0, 7).flatmap(
        lambda k: given_id if k == 7 else st.none()), min_size=n, max_size=n))
    rows = [{"id": f"app{i}" if app_id is None else app_id,
             **{key: draw(strategy) for key, strategy in values.items()}}
            for i, app_id in enumerate(ids)]
    if n and draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        key = draw(st.sampled_from(list(VALID)))
        rows[row][key] = draw(CSV_ODD if fmt == "csv" else JSON_ODD)
    if fmt == "json":
        for row in rows:
            for key in draw(st.sets(st.sampled_from(list(VALID)[1:]),
                                    max_size=2)):
                del row[key]
        return rows
    # each row keeps its first `width` fields and may follow a blank line
    shape = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(
        [7, 7, 7, 7, 1, 3, 6])), min_size=n, max_size=n))
    return draw(st.sampled_from(["\n", "\r\n"])), [
        (blank, [row[key] for key in VALID][:width])
        for row, (blank, width) in zip(rows, shape)]


def write_table(path, fmt, table):
    if fmt == "json":
        path.write_text(json.dumps(table))
        return
    newline, rows = table
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(list(VALID))
        for blank, fields in rows:
            if blank:
                fh.write(newline)
            writer.writerow(fields)


def load_or_error(path):
    try:
        return load_dataset(path), None
    except DatasetError as exc:
        return None, str(exc)


def reference_or_error(path):
    try:
        return reference_load_dataset(path), None
    except DatasetError as exc:
        return None, str(exc)


def assert_same_dataset(ds, ref):
    assert (ds.ids, ds.names, ds.categories) == (ref.ids, ref.names,
                                                 ref.categories)
    for name in ("price", "avg_rating", "num_ratings"):
        got, want = getattr(ds, name), getattr(ref, name)
        # bytes, so that -0.0 and NaN count
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ds.vocabulary == ref.vocabulary
    assert np.array_equal(ds.matrix.data, ref.matrix.data)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_matches_per_value_reference(tmp_path_factory, fmt, data):
    table = data.draw(tables(fmt))
    path = tmp_path_factory.mktemp("oracle") / f"apps.{fmt}"
    write_table(path, fmt, table)
    (ds, error), (ref, ref_error) = load_or_error(path), reference_or_error(path)
    assert error == ref_error
    if ref is not None:
        assert_same_dataset(ds, ref)
