"""Dataset core: factorization, entity arrays, metrics, CSV ingestion."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entity_sampler.dataset import (
    AmbiguousEntityWarning,
    CsvSchema,
    Dataset,
    DatasetError,
    DiscreteDistribution,
    char_ngrams,
    ingest_csv,
    relative_error,
    tv_distance,
    uniform_distribution,
)


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
    assert d.ids == ("r1", "r2", "r3")
    assert d.features.tolist() == [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]
    assert d.entity_names == ("x", "y")
    assert d.values.tolist() == [10.0, 20.0, 30.0]


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
    assert ingest_csv(path, schema).ids == ("r1",)


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


def test_text_schema_builds_token_sets(tmp_path):
    path = write_csv(tmp_path, "name\nabcdef\nabcxyz\n")
    schema = CsvSchema(feature_cols=(), text_cols=("name",), ngram=3)
    d = ingest_csv(path, schema)
    assert d.tokens is not None
    assert "abc" in d.tokens[0] and "abc" in d.tokens[1]
    assert "xyz" in d.tokens[1] and "xyz" not in d.tokens[0]
