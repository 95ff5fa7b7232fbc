"""Driver-contract simulation: run every queries() entry at sf0.001 and
diff SQL-expressible ones against their DuckDB oracle (row count, schema,
order-insensitive values)."""

import sys
from pathlib import Path

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import __ray_entry__ as entrymod  # noqa: E402

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM "
              f"read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


SQL_QUERIES = sorted(entrymod.oracle_sql())


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_query_matches_oracle(ray_session, con, name):
    ray_result = to_pandas(entrymod.queries()[name](SF_DIR))
    sql_result = con.sql(entrymod.oracle_sql()[name]).df()
    got = normalize(ray_result)
    want = normalize(sql_result)
    assert list(got.columns) == list(want.columns), \
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True, obj=name)


def test_rows_only_queries_run(ray_session):
    q = entrymod.queries()
    rows_only = [k for k in q if k not in entrymod.oracle_sql()]
    assert rows_only  # bm25, minhash, etc.
    for name in rows_only:
        df = to_pandas(q[name](SF_DIR))
        assert df is not None and len(df.columns) > 0, name


def test_bm25_topk_docs_matches_oracle(ray_session, tmp_path, monkeypatch):
    """``bm25_topk_docs`` indexes ``documents.text`` from a Dataset source;
    its top-k is rank- and float32-score-identical to the oracle over the
    same texts in doc_id order. The index dir is redirected so a cached
    index cannot stand in for this build."""
    import numpy as np
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines import fulltext
    from lucene_solr_ray.search.oracle import OracleIndex

    monkeypatch.setattr(fulltext, "_docs_index_dir",
                        lambda sf_dir: str(tmp_path / "docs_idx"))
    got = fulltext.bm25_topk_docs(SF_DIR, k=10).to_pylist()
    assert (tmp_path / "docs_idx" / "manifest.json").exists()

    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"]).sort_by("doc_id")
    assert docs.column("doc_id").to_pylist() == list(range(docs.num_rows))
    oracle = OracleIndex()
    oracle.add_all(enumerate(docs.column("text").to_pylist()))
    want = [(q, rank, d, float(np.float32(s)))
            for q in fulltext.DOC_QUERIES
            for rank, (d, s) in enumerate(oracle.search(q, k=10))]
    assert want
    assert [(r["query"], r["rank"], r["doc_id"], r["score"])
            for r in got] == want


def test_entry_smoke(ray_session):
    df = entrymod.entry()
    assert len(df) > 0
    assert list(df.columns) == ["query", "rank", "doc_id", "score"]


def test_bpe_token_counts_known_values(ray_session, tmp_path):
    """BPE pretokenizer counts on hand-tokenized strings."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.pipelines.textstats import bpe_token_counts

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["I'll have 42 apples, won't you?",
                          "hello  world", ""]),
    }), str(tmp_path / "documents.parquet"))
    out = (bpe_token_counts(str(tmp_path)).to_pandas()
           .set_index("doc_id")["n_bpe_tokens"].to_dict())
    # I |'ll| have| 42| apples|,| won|'t| you|? -> 10
    assert out == {0: 10, 1: 3, 2: 0}
