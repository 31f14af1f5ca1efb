"""Dataset core: factorization, entity arrays, metrics, CSV ingestion."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entity_sampler.dataset import (
    AmbiguousEntityWarning,
    CsvSchema,
    Dataset,
    DatasetError,
    DiscreteDistribution,
    TokenTable,
    char_ngrams,
    float_cells,
    ingest_csv,
    relative_error,
    tv_distance,
    uniform_distribution,
    write_csv_columns,
)
from entity_sampler.dataset import _factorize_features, _factorize_objects


def toy():
    return Dataset(
        ids=("a", "b", "c"),
        features=np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]),
        entity_labels=["x", "x", "y"],
        values=np.array([10.0, 20.0, 30.0]),
    )


def test_dedup_groups_identical_feature_rows():
    d = toy()
    codes = d.dedup_codes
    assert codes[0] == codes[1] != codes[2]
    assert sorted(d.dedup_freqs.tolist()) == [1, 2]


def test_dedup_folds_negative_zero():
    features = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, -1.0]])
    d = Dataset(ids=(0, 1, 2), features=features)
    assert sorted(d.dedup_freqs.tolist()) == [1, 2]
    assert d.dedup_codes[0] == d.dedup_codes[1]
    assert np.signbit(d.features[1, 0])  # the records keep their values
    assert Dataset(ids=(0, 1), features=[[0.0], [-0.0]]).dedup_freqs.tolist() == [2]


def reference_codes(features):
    """Codes of np.unique over a void view of the rows, -0.0 folded first."""
    rows = np.ascontiguousarray(features + 0.0)
    view = rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()
    return np.unique(view, return_inverse=True)[1].ravel()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_factorize_features_matches_the_void_view_codes(d):
    rng = np.random.default_rng(d)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e6, -1e6,
                     np.nextafter(1e6, np.inf), np.nextafter(-1e6, -np.inf),
                     1e6 + 0.5, -1e6 - 0.5, 3e-310, -3e-310])
    features = rng.choice(pool, size=(3000, d))
    features = np.concatenate([features, features[:500]])  # exact duplicates
    codes = _factorize_features(features)
    assert np.array_equal(codes, reference_codes(features))
    assert codes.dtype == np.int64
    assert np.array_equal(_factorize_features(features[:1]), [0])


def test_factorize_features_of_a_column_slice():
    rng = np.random.default_rng(7)
    table = rng.integers(-3, 3, size=(2000, 5)).astype(np.float64) * 1e6
    table[::7, 2] = -0.0
    for cols in (slice(1, 2), slice(0, 5, 2), slice(3, 0, -1)):
        part = table[:, cols]
        assert not part.flags.c_contiguous
        assert np.array_equal(_factorize_features(part), reference_codes(part))


def test_entity_codes_first_appearance_order():
    d = Dataset(
        ids=(0, 1, 2, 3),
        features=np.zeros((4, 1)),
        entity_labels=[5, 3, 5, 7],
    )
    assert d.entity_codes.tolist() == [0, 1, 0, 2]
    assert d.entity_names == (5, 3, 7)
    assert d.entity_freqs.tolist() == [2, 1, 1]


def test_entity_codes_object_and_array_paths_agree():
    feats = np.zeros((5, 1))
    obj = Dataset(
        ids=tuple(range(5)), features=feats, entity_labels=["b", "a", "b", "c", "a"]
    )
    arr = Dataset(
        ids=tuple(range(5)), features=feats, entity_labels=np.array([1, 0, 1, 2, 0])
    )
    assert obj.entity_codes.tolist() == arr.entity_codes.tolist()
    assert arr.entity_names == (1, 0, 2)


def first_appearance(items):
    """Dict reference: codes and names in order of first appearance."""
    table: dict = {}
    codes = [table.setdefault(x, len(table)) for x in items]
    return codes, list(table)


def assert_factorized_like_the_reference(arr):
    codes, names = _factorize_objects(arr)
    ref_codes, ref_names = first_appearance(arr.tolist())
    assert codes.dtype == np.int64
    assert codes.tolist() == ref_codes
    assert names == ref_names
    assert [type(x) for x in names] == [type(x) for x in ref_names]


_ints = st.lists(st.integers(-40, 40), min_size=1, max_size=60)


@given(_ints, st.sampled_from([np.int8, np.int16, np.int64]))
def test_factorize_narrow_int_labels_matches_first_appearance(values, dtype):
    assert_factorized_like_the_reference(np.array(values, dtype=dtype))


@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=30))
def test_factorize_wide_int_labels_matches_first_appearance(values):
    # a span far wider than n takes the sort
    assert_factorized_like_the_reference(np.array(values + [-(2**62), 2**62]))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=40), st.booleans())
def test_factorize_uint64_labels_above_2_63_matches_first_appearance(offsets, wide):
    base = 2**63 if wide else 2**64 - 6
    values = [base + k for k in offsets if 0 <= base + k < 2**64]
    if wide:
        values.append(2**64 - 1)  # with the offsets around 2^63, a wide span
    if values:
        assert_factorized_like_the_reference(np.array(values, dtype=np.uint64))


@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_factorize_bool_labels_matches_first_appearance(values):
    assert_factorized_like_the_reference(np.array(values))


@given(st.lists(st.text(max_size=3), min_size=1, max_size=30))
def test_factorize_str_labels_matches_first_appearance(values):
    arr = np.array(values, dtype=str)
    assert_factorized_like_the_reference(arr)


@given(st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2),
                          st.tuples(st.integers(0, 2))), min_size=1, max_size=30))
def test_factorize_mixed_object_labels_matches_first_appearance(values):
    assert_factorized_like_the_reference(
        np.fromiter(values, dtype=object, count=len(values)))


def test_int_labels_straddling_2_63_keep_exact_offsets():
    arr = np.array([2**63 + 1, 2**63 - 2, 2**63 + 1, 2**63 - 1], dtype=np.uint64)
    codes, names = _factorize_objects(arr)
    assert codes.tolist() == [0, 1, 0, 2]
    assert names == [2**63 + 1, 2**63 - 2, 2**63 - 1]


def test_ids_and_labels_from_tuples_and_lists_become_columns():
    for ids, labels in [((0, 1), ("a", "b")), ([0, 1], ["a", "b"])]:
        d = Dataset(ids=ids, features=np.zeros((2, 1)), entity_labels=labels)
        assert isinstance(d.ids, np.ndarray) and d.ids.shape == (2,)
        assert d.ids.tolist() == [0, 1]
        assert d.entity_labels.tolist() == ["a", "b"]
        assert d.entity_names == ("a", "b")
    # items that np.asarray would stack into rows stay items of an object column
    d = Dataset(ids=[(0, 1), (2, 3)], features=np.zeros((2, 1)),
                entity_labels=[(1,), (1, 2)])
    assert d.ids.dtype == object and d.ids.tolist() == [(0, 1), (2, 3)]
    assert d.entity_names == ((1,), (1, 2))
    with pytest.raises(DatasetError, match="entity label column length"):
        Dataset(ids=(0, 1), features=np.zeros((2, 1)), entity_labels=["a"])


def test_dataset_requires_content():
    with pytest.raises(DatasetError):
        Dataset(ids=(0, 1), entity_labels=["x", "y"])


def test_entity_values_takes_first_record_per_entity():
    assert toy().entity_values().tolist() == [10.0, 30.0]


def test_entity_freqs_align_with_names():
    d = toy()
    assert d.entity_names == ("x", "y")
    assert d.entity_freqs.tolist() == [2, 1]


def test_ambiguous_labels_warn():
    d = Dataset(
        ids=(0, 1),
        features=np.array([[1.0], [1.0]]),
        entity_labels=["x", "y"],
    )
    with pytest.warns(AmbiguousEntityWarning):
        d.check_label_consistency()


def test_ambiguous_labels_warning_counts_both_identities():
    d = Dataset(
        ids=tuple(range(5)),
        features=np.array([[1.0], [1.0], [2.0], [3.0], [3.0]]),
        entity_labels=["x", "y", "z", "w", "w"],
    )
    with pytest.warns(AmbiguousEntityWarning, match="3 distinct by content vs 4 by label"):
        d.check_label_consistency()
    consistent = Dataset(ids=(0, 1, 2), features=[[1.0], [1.0], [2.0]],
                         entity_labels=["x", "x", "y"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        consistent.check_label_consistency()


def test_second_label_at_the_last_record_of_a_content_warns():
    # content [1.0] carries "x" at records 0-3 and "y" only at record 5
    d = Dataset(ids=tuple(range(6)),
                features=[[1.0], [1.0], [1.0], [1.0], [2.0], [1.0]],
                entity_labels=["x", "x", "x", "x", "z", "y"])
    with pytest.warns(AmbiguousEntityWarning, match="2 distinct by content vs 3 by label"):
        d.check_label_consistency()


def test_mixed_type_labels_and_ids_stay_distinct_items():
    d = Dataset(ids=[0, 1, 2], features=[[0.0], [1.0], [2.0]],
                entity_labels=[1, "1", 2])
    assert d.entity_names == (1, "1", 2)
    assert d.entity_freqs.tolist() == [1, 1, 1]
    mixed = Dataset(ids=[0, "a"], features=np.zeros((2, 1)))
    assert mixed.ids.tolist() == [0, "a"]
    # as floats, 2**60 + 1 and 2**60 would be one id and one label
    big = [2**60 + 1, 2**60, 0.5]
    wide = Dataset(ids=big, features=[[0.0], [1.0], [2.0]], entity_labels=big)
    assert wide.ids.tolist() == big
    assert wide.entity_names == (2**60 + 1, 2**60, 0.5)
    assert wide.entity_freqs.tolist() == [1, 1, 1]
    # lists of floats, lists of ints and arrays keep their numpy dtype
    for ids, kind in (([0.5, 1.5], "f"), ([0, 2**60], "i"), (np.array([0, 0.5]), "f")):
        assert Dataset(ids=ids, features=np.zeros((2, 1))).ids.dtype.kind == kind
    # all-text lists and arrays keep their numpy dtype
    assert Dataset(ids=["0", "a"], features=np.zeros((2, 1))).ids.dtype.kind == "U"
    assert Dataset(ids=np.array([b"0", b"a"]),
                   features=np.zeros((2, 1))).ids.dtype.kind == "S"


def test_char_ngrams():
    assert char_ngrams("abcd") == frozenset({"abc", "bcd"})
    # strings shorter than n collapse to a single whole-string token
    assert char_ngrams("ab") == frozenset({"ab"})
    assert char_ngrams("abab") == frozenset({"aba", "bab"})


def test_tv_distance_hand_case():
    p = DiscreteDistribution(("a", "b", "c"), [0.5, 0.5, 0.0])
    q = DiscreteDistribution(("a", "b", "c"), [0.2, 0.3, 0.5])
    assert tv_distance(p, q) == pytest.approx(0.5)
    assert tv_distance(p, p) == 0.0


def test_tv_distance_rejects_different_supports():
    p = DiscreteDistribution(("a", "b"), [0.5, 0.5])
    with pytest.raises(DatasetError, match="supports"):
        tv_distance(p, uniform_distribution(("a", "b", "c")))
    with pytest.raises(DatasetError, match="supports"):
        tv_distance(p, uniform_distribution(("b", "a")))


def test_uniform_and_label_lookup():
    u = uniform_distribution(("a", "b", "c", "d"))
    assert u.support == ("a", "b", "c", "d")
    assert u.p.tolist() == [0.25] * 4
    assert u["c"] == 0.25
    assert u["zzz"] == 0.0


def test_distribution_validation():
    with pytest.raises(DatasetError):
        DiscreteDistribution(("a", "b"), [-0.1, 1.1])
    with pytest.raises(DatasetError):
        DiscreteDistribution(("a", "b"), [0.6, 0.6])
    with pytest.raises(DatasetError):
        DiscreteDistribution(("a", "b"), [np.nan, 1.0])
    with pytest.raises(DatasetError, match="duplicate"):
        DiscreteDistribution(("a", "a"), [0.5, 0.5])
    with pytest.raises(DatasetError, match="2 masses for 3 labels"):
        DiscreteDistribution(("a", "b", "c"), [0.5, 0.5])


def test_relative_error():
    assert relative_error(10.0, 11.0) == pytest.approx(0.1)
    with pytest.raises(DatasetError):
        relative_error(0.0, 1.0)


weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5)


@given(weights.filter(any), weights.filter(any))
def test_tv_distance_is_a_metric(wa, wb):
    p = DiscreteDistribution(tuple("abcde"), np.array(wa) / sum(wa))
    q = DiscreteDistribution(tuple("abcde"), np.array(wb) / sum(wb))
    assert tv_distance(p, q) == tv_distance(q, p)
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-12


def write_csv(tmp_path, text):
    path = tmp_path / "toy.csv"
    path.write_text(text)
    return str(path)


def test_ingest_csv_round_trip(tmp_path):
    path = write_csv(
        tmp_path,
        "id,x,y,who,amount\nr1,1.0,2.0,x,10\nr2,1.0,2.0,x,20\nr3,3.0,4.0,y,30\n",
    )
    schema = CsvSchema(
        feature_cols=("x", "y"),
        text_cols=(),
        entity_col="who",
        value_col="amount",
        id_col="id",
    )
    d = ingest_csv(path, schema)
    assert d.n == 3
    assert d.ids.tolist() == ["r1", "r2", "r3"]
    assert d.features.tolist() == [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]
    assert d.entity_names == ("x", "y")
    assert d.values.tolist() == [10.0, 20.0, 30.0]


def test_ingest_csv_text_columns_do_not_take_the_longest_cell_per_row(tmp_path):
    long_id = "https://example.org/" + "x" * 2000
    ids = [long_id] + [f"r{i}" for i in range(999)]
    path = write_csv(tmp_path, "id,x,who\n" + "".join(
        f"{rid},{i}.0,{'y' * 2000 if i == 0 else 'e'}\n"
        for i, rid in enumerate(ids)))
    schema = CsvSchema(feature_cols=("x",), entity_col="who", id_col="id")
    d = ingest_csv(path, schema)
    assert d.ids.tolist() == ids
    # one pointer per row, not 4 bytes per character of the longest id
    assert d.ids.nbytes <= 8 * d.n
    assert d.entity_labels.nbytes <= 8 * d.n
    assert d.entity_names == ("y" * 2000, "e")


def test_ingest_csv_reports_bad_row(tmp_path):
    path = write_csv(tmp_path, "x\n1.0\nnot_a_number\n")
    schema = CsvSchema(feature_cols=("x",), text_cols=())
    with pytest.raises(DatasetError, match="row 1"):
        ingest_csv(path, schema)


def test_ingest_csv_rejects_a_short_row(tmp_path):
    schema = CsvSchema(feature_cols=("x",), entity_col="who", id_col="id")
    path = write_csv(tmp_path, "x,id,who\n1.0,r1,a\n2.0,r2\n")
    with pytest.raises(DatasetError, match="row 1: no 'who' cell"):
        ingest_csv(path, schema)
    path = write_csv(tmp_path, "x,who,id\n1.0,a,r1\n2.0,b\n")
    with pytest.raises(DatasetError, match="row 1: no 'id' cell"):
        ingest_csv(path, schema)
    # extra cells beyond the header are still accepted
    path = write_csv(tmp_path, "x,who,id\n1.0,a,r1,extra\n")
    assert ingest_csv(path, schema).ids.tolist() == ["r1"]
    # empty id cells stay empty text
    path = write_csv(tmp_path, "x,who,id\n1.0,a,\n2.0,b,\n")
    assert ingest_csv(path, schema).ids.tolist() == ["", ""]


def test_ingest_csv_missing_column(tmp_path):
    path = write_csv(tmp_path, "x\n1.0\n")
    schema = CsvSchema(feature_cols=("nope",), text_cols=())
    with pytest.raises(DatasetError):
        ingest_csv(path, schema)


def test_schema_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"feature_cols": ["x"], "text_cols": [], "bogus": 1}')
    with pytest.raises(DatasetError):
        CsvSchema.from_json(str(path))


def test_schema_from_json_refuses_a_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("[]")
    with pytest.raises(DatasetError, match="JSON object"):
        CsvSchema.from_json(str(path))


def test_schema_from_json_refuses_a_string_of_columns(tmp_path):
    # "f0" used to be split into the columns 'f' and '0'
    path = tmp_path / "schema.json"
    path.write_text('{"feature_cols": "f0"}')
    with pytest.raises(DatasetError, match="feature_cols must be a list"):
        CsvSchema.from_json(str(path))


@pytest.mark.parametrize("key", ["feature_cols", "text_cols"])
@pytest.mark.parametrize("names", ["name", 3, ["name", 3]])
def test_schema_refuses_columns_that_are_not_a_list_of_names(key, names):
    with pytest.raises(DatasetError, match=f"{key} must be a list"):
        CsvSchema(**{key: names})
    assert getattr(CsvSchema(**{key: ["a", "b"]}), key) == ("a", "b")


@pytest.mark.parametrize("delimiter", [5, "", ";;", None])
def test_schema_refuses_a_delimiter_that_is_not_one_character(delimiter):
    with pytest.raises(DatasetError, match="delimiter must be one character"):
        CsvSchema(feature_cols=("x",), delimiter=delimiter)


@pytest.mark.parametrize("ngram", [0, -1, 1.5, 3.0, "3"])
def test_schema_refuses_an_ngram_that_is_not_a_positive_integer(ngram):
    # ngram 0 used to tokenize every text to {''}, one block for all
    with pytest.raises(ValueError, match="ngram"):
        CsvSchema(text_cols=("name",), ngram=ngram)
    assert CsvSchema(text_cols=("name",), ngram=np.int64(2)).ngram == 2


def test_text_schema_builds_token_sets(tmp_path):
    path = write_csv(tmp_path, "name\nabcdef\nabcxyz\n")
    schema = CsvSchema(feature_cols=(), text_cols=("name",), ngram=3)
    d = ingest_csv(path, schema)
    assert d.tokens is not None
    assert "abc" in d.tokens[0] and "abc" in d.tokens[1]
    assert "xyz" in d.tokens[1] and "xyz" not in d.tokens[0]


def test_ingest_csv_skips_blank_lines_without_counting_them(tmp_path):
    path = write_csv(tmp_path, "x,who\n1.0,a\n\n2.0,b\n\nbad,c\n")
    schema = CsvSchema(feature_cols=("x",), entity_col="who")
    with pytest.raises(DatasetError, match="malformed row 2: could not convert"):
        ingest_csv(path, schema)
    path = write_csv(tmp_path, "x,who\n1.0,a\n\n2.0,b\n")
    d = ingest_csv(path, schema)
    assert np.array_equal(d.ids, np.arange(2))
    assert d.features.tolist() == [[1.0], [2.0]]
    assert d.entity_labels.tolist() == ["a", "b"]


def test_ingest_csv_names_a_bad_float_in_the_last_row(tmp_path):
    rows = "".join(f"{i}.5,{i}\n" for i in range(50))
    path = write_csv(tmp_path, "x,amount\n" + rows + "7.0,oops\n")
    schema = CsvSchema(feature_cols=("x",), value_col="amount")
    with pytest.raises(DatasetError, match="malformed row 50: .*'oops'"):
        ingest_csv(path, schema)


def test_ingest_csv_rejects_a_row_short_of_a_feature_or_value_cell(tmp_path):
    schema = CsvSchema(feature_cols=("x", "y"), value_col="amount")
    path = write_csv(tmp_path, "amount,x,y\n1,2,3\n4,5\n")
    with pytest.raises(DatasetError, match="malformed row 1: no 'y' cell"):
        ingest_csv(path, schema)
    path = write_csv(tmp_path, "x,y,amount\n1,2,3\n4,5,6\n7,8\n")
    with pytest.raises(DatasetError, match="malformed row 2: no 'amount' cell"):
        ingest_csv(path, schema)


def test_ingest_csv_header_only_has_no_data_rows(tmp_path):
    path = write_csv(tmp_path, "x,who\n")
    schema = CsvSchema(feature_cols=("x",), entity_col="who")
    with pytest.raises(DatasetError, match="no data rows"):
        ingest_csv(path, schema)


def test_ingest_csv_text_columns_match_per_row_ngrams(tmp_path):
    rows = [("acme corp", "12 main st"), ("acme co", ""), ("zz", "x"), ("", "")]
    text = "name,street,who\n" + "".join(f"{a},{b},e{i}\n" for i, (a, b) in enumerate(rows))
    path = write_csv(tmp_path, text)
    schema = CsvSchema(text_cols=("name", "street"), entity_col="who", ngram=3)
    d = ingest_csv(path, schema)
    assert tuple(d.tokens) == tuple(char_ngrams(f"{a} {b}", 3) for a, b in rows)
    assert np.array_equal(d.ids, np.arange(4))


@given(st.lists(st.text(alphabet="ab \x00\u00e9\U0001f600", max_size=8), max_size=6),
       st.integers(1, 5))
def test_token_table_from_texts_matches_char_ngrams(texts, n):
    # n = 1..3 packs each window in one key, n = 4, 5 sorts two keys
    table = TokenTable.from_texts(texts, n)
    assert len(table) == len(texts)
    for i, text in enumerate(texts):
        assert table[i] == char_ngrams(text, n)
    # the same sets give the same table, whichever way it is built
    again = TokenTable.from_sets([char_ngrams(text, n) for text in texts])
    assert again.vocab.tolist() == table.vocab.tolist()
    assert np.array_equal(again.ids, table.ids)
    assert np.array_equal(again.offsets, table.offsets)
    # an n past the longest text makes every row its whole text
    assert list(TokenTable.from_texts(texts, 9)) == [char_ngrams(t, 9) for t in texts]


def test_token_table_from_sets_round_trips_rows_of_any_iterable():
    rows = [frozenset({"b", "a"}), frozenset(), ["c", "a", "c"], ("b",), {"a"}]
    table = TokenTable.from_sets(rows)
    assert list(table) == [frozenset(row) for row in rows]
    assert [table[i] for i in range(-len(rows), 0)] == list(table)
    assert table.vocab.tolist() == ["a", "b", "c"]
    assert table.offsets.tolist() == [0, 2, 2, 4, 5, 6]
    assert table.ids.dtype == np.int32 and not table.ids.flags.writeable
    with pytest.raises(IndexError):
        table[len(rows)]
    assert list(TokenTable.from_sets([])) == []


def test_token_table_refuses_a_str_row_and_a_non_str_token():
    # a str row would be hashed as the set of its characters
    with pytest.raises(DatasetError, match="row 1 is a str"):
        Dataset(ids=(0, 1), tokens=({"abc"}, "abcdeg"))
    with pytest.raises(DatasetError, match="not a str"):
        Dataset(ids=(0, 1), tokens=({"abc"}, {"abc", 3}))
    with pytest.raises(DatasetError, match="row 0"):
        TokenTable.from_sets([5])


@pytest.mark.parametrize("ids, offsets, match", [
    ([0, 1], [0, 2, 1], "offsets must rise"),  # not monotone
    ([0, 1, 2], np.array([0, 3, 1, 3], dtype=np.uint64), "offsets must rise"),
    ([0, 1], [0, 1], "offsets must rise"),  # does not end at ids.size
    ([0, 1], [1, 2], "offsets must rise"),  # does not start at 0
    ([0, 3], [0, 1, 2], "outside the vocabulary"),
    ([0, -1], [0, 1, 2], "outside the vocabulary"),
    ([1, 0], [0, 2], "not sorted and distinct"),
    ([1, 1], [0, 2], "not sorted and distinct"),
])
def test_dataset_refuses_a_malformed_token_table(ids, offsets, match):
    with pytest.raises(DatasetError, match=match):
        Dataset(ids=(0, 1)[: len(offsets) - 1],
                tokens=TokenTable(np.array(ids), np.array(offsets), ["a", "b", "c"]))


def test_token_table_refuses_an_unsorted_vocabulary():
    with pytest.raises(DatasetError, match="vocabulary is not sorted"):
        TokenTable(np.array([0]), np.array([0, 1]), ["b", "a"])
    with pytest.raises(DatasetError, match="non-str"):
        TokenTable(np.array([0]), np.array([0, 1]), ["a", 1])


@given(st.lists(st.frozensets(st.sampled_from("abcd"), max_size=3), min_size=1,
                max_size=25))
def test_token_only_dedup_codes_number_rows_in_first_appearance_order(rows):
    codes = Dataset(ids=np.arange(len(rows)), tokens=rows).dedup_codes
    first: dict = {}
    assert codes.tolist() == [first.setdefault(row, len(first)) for row in rows]


def test_float_cells_round_trip_across_chunks(tmp_path):
    values = np.random.default_rng(3).normal(1e5, 1e5, size=10_000)
    values[:3] = [-0.0, 1e-300, np.nextafter(1e6, np.inf)]
    path = tmp_path / "cols.csv"
    write_csv_columns(str(path), ["i", "v"], [range(values.size), float_cells(values)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,v" and len(lines) == values.size + 1
    assert lines[1:] == [f"{i},{v:.17g}" for i, v in enumerate(values)]
    back = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(back, values) and np.signbit(back[0])
