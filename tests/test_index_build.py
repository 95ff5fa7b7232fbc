"""End-to-end distributed build + search vs the single-process oracle
(BaseDistributedSearchTestCase control-instance pattern), partition-count
equivalence, and resume."""

import json
import shutil
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts, transcripts_path
from lucene_solr_ray.index.build import build_index, read_manifest
from lucene_solr_ray.search.oracle import OracleIndex
from lucene_solr_ray.search.searcher import IndexSearcher

QUERIES = [
    "ray", "data", "index", "the", "t00001", "zzzmissing",
    "ray AND data", "ray OR merge", "ray data index",
    "+index -error", "query NOT cache",
    '"ray data"', '"the quick"',
    "engine scale batch", "İstanbul", "foo.bar",
    "ra*", "t0000*", "?ndex", "merg~1", "[scale TO shard]",
    "ra* AND data", "eng*ne",
]


@pytest.fixture(scope="module")
def tiny_index(ray_session, tmp_path_factory):
    src = transcripts_path("tiny")
    out = tmp_path_factory.mktemp("idx") / "tiny_index"
    manifest = build_index(src, str(out), num_shards=4)
    return src, str(out), manifest


@pytest.fixture(scope="module")
def oracle(tiny_index):
    src, _, _ = tiny_index
    table = pq.read_table(src)
    oi = OracleIndex()
    texts = table.column("text").to_pylist()
    oi.add_all(enumerate(texts))
    return oi


def test_manifest_stats_match_oracle(tiny_index, oracle):
    _, _, manifest = tiny_index
    assert manifest["stats"]["doc_count"] == oracle.doc_count
    assert manifest["stats"]["sum_total_term_freq"] == oracle.sum_total_term_freq
    assert manifest["stats"]["num_docs"] == len(oracle.doc_lengths)
    total_postings = sum(s["posting_count"] for s in manifest["shards"])
    assert total_postings == sum(len(v) for v in oracle.postings.values())


def test_global_df_matches_oracle(tiny_index, oracle):
    _, out, _ = tiny_index
    searcher = IndexSearcher(out)
    for term in ["ray", "data", "index", "t00001"]:
        from lucene_solr_ray.search.query import TermQuery

        assert searcher.global_df(TermQuery(term)).get(term, 0) == \
            oracle.doc_freq(term), term


def test_search_rank_identical_to_oracle(tiny_index, oracle):
    _, out, _ = tiny_index
    searcher = IndexSearcher(out)
    for q in QUERIES:
        expected = oracle.search(q, k=10)
        got = searcher.search(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in expected], f"query={q!r}"
        for (d1, s1), (d2, s2) in zip(got, expected):
            assert s1 == s2, f"score mismatch for {q!r} doc {d1}: {s1} != {s2}"


def test_partition_count_equivalence(ray_session, tiny_index, oracle, tmp_path):
    """1-shard and 8-shard builds return identical results (N-vs-1 control)."""
    src, _, _ = tiny_index
    out1 = tmp_path / "idx1"
    out8 = tmp_path / "idx8"
    build_index(src, str(out1), num_shards=1)
    build_index(src, str(out8), num_shards=8)
    s1, s8 = IndexSearcher(str(out1)), IndexSearcher(str(out8))
    for q in QUERIES:
        r1 = [(d, float(s)) for d, s in s1.search(q, k=10)]
        r8 = [(d, float(s)) for d, s in s8.search(q, k=10)]
        assert r1 == r8, f"query={q!r}"


def test_norms_match_oracle(tiny_index, oracle):
    _, out, _ = tiny_index
    searcher = IndexSearcher(out)
    for sh in (searcher.segment,):
        lo = sh.base
        hi = min(sh.base + sh.size, len(oracle.doc_lengths))
        for d in range(lo, hi):
            assert int(sh.norms[d - lo]) == oracle.norms[d], f"doc {d}"


def test_resume_skips_completed_shards(ray_session, tmp_path):
    src = transcripts_path("tiny")
    out = tmp_path / "idx_resume"
    m1 = build_index(src, str(out), num_shards=4, keep_runs=True)
    # delete one shard, resume: only that shard is rebuilt, result identical
    shards = sorted((out / "shards").iterdir())
    shutil.rmtree(shards[1])
    m2 = build_index(src, str(out), num_shards=4, resume=True, keep_runs=True)
    assert m1["stats"] == m2["stats"]
    assert m1["shards"] == m2["shards"]
    s = IndexSearcher(str(out))
    assert s.search("ray", k=5)  # index is functional after resume


def _tree_bytes(root: Path, pattern: str) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.glob(pattern)) if p.is_file()}


def test_resume_after_lost_tokenize_task_is_byte_identical(ray_session,
                                                           tmp_path):
    """A wave-A tokenize task killed mid-write (no SUCCESS marker, its run
    files truncated, the shards they feed never encoded) is redone on
    resume, and the index comes out byte-identical."""
    src = tmp_path / "src.parquet"
    # 2,048-row row groups: the ~20k turns plan as three tokenize tasks
    pq.write_table(generate_transcripts(3000, seed=5), src,
                   row_group_size=2048)
    out = tmp_path / "idx"
    m1 = build_index(str(src), str(out), num_shards=8, keep_runs=True)
    assert len(m1["lineage"]) >= 2
    shard_files = _tree_bytes(out, "shards/**/terms.parquet")
    norm_files = _tree_bytes(out, "norms/**/*")
    assert shard_files and norm_files

    task = len(m1["lineage"]) // 2
    (out / "runs" / f"_task{task:05d}_SUCCESS").unlink()
    lost = sorted((out / "runs").glob(f"shard=*/run-{task:05d}.arrow"))
    assert lost
    for run in lost + sorted(
            (out / "norms").glob(f"doc_shard=*/run-{task:05d}.parquet")):
        run.write_bytes(run.read_bytes()[:run.stat().st_size // 2])
    for run in lost:
        shutil.rmtree(out / "shards" / run.parent.name)

    m2 = build_index(str(src), str(out), num_shards=8, resume=True,
                     keep_runs=True)
    assert _tree_bytes(out, "shards/**/terms.parquet") == shard_files
    assert _tree_bytes(out, "norms/**/*") == norm_files
    assert m2["stats"] == m1["stats"]
    assert m2["shards"] == m1["shards"]


def test_doc_id_is_rank_of_sorted_order(ray_session, tmp_path):
    """doc_id must equal the rank under (conv_id, turn_idx) — verify via norms
    docmap against an explicitly sorted source read."""
    src = transcripts_path("tiny")
    out = tmp_path / "idx_rank"
    build_index(src, str(out), num_shards=2)
    import pyarrow.dataset as pads

    norms = pads.dataset(str(out / "norms"), format="parquet",
                         partitioning="hive").to_table(
        columns=["doc_id", "conv_id", "turn_idx"])
    order = np.argsort(norms.column("doc_id").to_numpy(zero_copy_only=False))
    conv = np.asarray(norms.column("conv_id").to_pylist(), dtype=object)[order]
    turn = norms.column("turn_idx").to_numpy(zero_copy_only=False)[order]
    src_table = pq.read_table(src, columns=["conv_id", "turn_idx"])
    assert list(conv) == src_table.column("conv_id").to_pylist()
    np.testing.assert_array_equal(
        turn, src_table.column("turn_idx").to_numpy(zero_copy_only=False))


def _norm_rows(index_dir: Path) -> list[dict]:
    import pyarrow.dataset as pads

    return (pads.dataset(str(index_dir / "norms"), format="parquet",
                         partitioning="hive")
            .to_table().sort_by("doc_id").to_pylist())


def _blocks(table, rows: int = 500) -> list:
    return [table.slice(i, rows) for i in range(0, table.num_rows, rows)]


def test_dataset_and_unsorted_sources_match_path_build(ray_session,
                                                       tmp_path):
    """A sorted Dataset, a shuffled Dataset and a reverse-sorted file (the
    last two with assume_sorted=False) build the path build's index: the
    same terms.parquet bytes, norms rows and manifest stats/shards. The
    reverse-sorted file without the flag is refused."""
    import ray.data as rd

    t = generate_transcripts(300, seed=7)
    src = tmp_path / "t.parquet"
    pq.write_table(t, src)
    rev = tmp_path / "rev.parquet"
    pq.write_table(t.take(np.arange(t.num_rows)[::-1]), rev)
    base = tmp_path / "path"
    m0 = build_index(str(src), str(base), num_shards=4)
    terms0 = _tree_bytes(base, "shards/**/terms.parquet")
    assert terms0
    cases = {
        "sorted_ds": (rd.from_arrow(_blocks(t)), True),
        "shuffled_ds": (rd.from_arrow(_blocks(t)).random_shuffle(seed=3),
                        False),
        "reverse_file": (str(rev), False),
    }
    for name, (source, assume_sorted) in cases.items():
        out = tmp_path / name
        m = build_index(source, str(out), num_shards=4,
                        assume_sorted=assume_sorted)
        assert _tree_bytes(out, "shards/**/terms.parquet") == terms0, name
        assert _norm_rows(out) == _norm_rows(base), name
        assert m["stats"] == m0["stats"], name
        assert m["shards"] == m0["shards"], name
        assert not (out / "source").exists(), name
    with pytest.raises(ValueError, match="not sorted"):
        build_index(str(rev), str(tmp_path / "refused"), num_shards=4)


def test_unsorted_keys_rejected_null_and_repeat(ray_session, tmp_path):
    """Wave A rejects a null conv_id and a repeated (conv_id, turn_idx)
    key as rows not sorted."""
    import pyarrow as pa

    t = generate_transcripts(40, seed=8)
    conv = t.column("conv_id").to_pylist()
    conv[5] = None
    bad = {"null": t.set_column(t.column_names.index("conv_id"), "conv_id",
                                pa.array(conv, type=pa.string())),
           "repeat": t.take(np.r_[0:6, 5:t.num_rows])}
    for name, rows in bad.items():
        pq.write_table(rows, tmp_path / f"{name}.parquet")
        with pytest.raises(ValueError, match="not sorted"):
            build_index(str(tmp_path / f"{name}.parquet"),
                        str(tmp_path / f"{name}_idx"), num_shards=2)


def test_segment_writer_rejects_duplicate_dictionary_terms(tmp_path):
    """A term dictionary holding one string twice would write two rows
    for one term: SegmentWriter refuses it."""
    import pyarrow as pa

    from lucene_solr_ray.index.build import SegmentWriter

    group = pa.table({
        "doc_shard": pa.array([0, 0], type=pa.int32()),
        "term": pa.DictionaryArray.from_arrays(
            pa.array([0, 1], type=pa.int32()), pa.array(["ray", "ray"])),
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "freq": pa.array([1, 1], type=pa.int64()),
        "positions": pa.LargeListArray.from_arrays(
            [0, 1, 2], pa.array([0, 0], type=pa.int32())),
    })
    with pytest.raises(ValueError, match="duplicate term"):
        SegmentWriter(str(tmp_path), docs_per_shard=10)(group)
    assert not (tmp_path / "shards").exists()


def test_resume_dataset_source_reuses_materialized_source(ray_session,
                                                         tmp_path):
    """A Dataset build kept with keep_runs=True resumes from its sorted
    ``source/`` copy and persisted plan: only the deleted shard is
    re-encoded, and the index comes out byte-identical."""
    import ray.data as rd

    t = generate_transcripts(300, seed=8)
    ds = rd.from_arrow(_blocks(t)).random_shuffle(seed=4)
    out = tmp_path / "idx"
    m1 = build_index(ds, str(out), num_shards=4, assume_sorted=False,
                     keep_runs=True)
    parts = sorted((out / "source").glob("part-*.parquet"))
    assert parts and (out / "source" / "_SUCCESS").exists()
    shard_files = _tree_bytes(out, "shards/**/terms.parquet")
    lost = sorted((out / "shards").iterdir())[1]
    untouched = parts + [f for f in sorted(out.glob("shards/*/terms.parquet"))
                         if f.parent != lost]
    mtimes = {p: p.stat().st_mtime_ns for p in untouched}
    shutil.rmtree(lost)

    m2 = build_index(ds, str(out), num_shards=4, assume_sorted=False,
                     resume=True, keep_runs=True)
    assert _tree_bytes(out, "shards/**/terms.parquet") == shard_files
    assert m2["stats"] == m1["stats"]
    assert m2["shards"] == m1["shards"]
    assert {p: p.stat().st_mtime_ns for p in untouched} == mtimes


def test_manifest_records_input_lineage(tiny_index):
    _, _, manifest = tiny_index
    lineage = manifest["lineage"]
    assert lineage and lineage[0]["doc_lo"] == 0
    # lineage spans cover every doc exactly once, in order
    hi = 0
    for entry in lineage:
        assert entry["doc_lo"] == hi
        hi = entry["doc_hi"]
    assert hi == manifest["stats"]["num_docs"]
    assert all("file" in e and e["row_groups"] for e in lineage)


def test_manifest_records_task_cpu_per_wave(tiny_index):
    """Each wave's summed task CPU sits beside ``phases``, not in it (the
    phases are driver wall time) and not in the shard rows."""
    _, _, manifest = tiny_index
    cpu = manifest["task_cpu_s"]
    assert set(cpu) == {"tokenize_runs", "term_group_encode"}
    assert all(v > 0 for v in cpu.values())
    assert "task_cpu_s" not in manifest["phases"]
    assert all(set(r) == {"shard_id", "doc_lo", "doc_hi", "term_count",
                          "posting_count", "doc_count",
                          "sum_total_term_freq"}
               for r in manifest["shards"])


def test_resume_over_runs_of_another_format_rebuilds(ray_session, tmp_path):
    """A build plan that records no run format (runs written as Parquet)
    is unusable on resume: its markers are dropped and the runs rebuilt,
    so no shard is encoded from a runs dir wave B cannot read."""
    src = tmp_path / "src.parquet"
    pq.write_table(generate_transcripts(600, seed=9), src,
                   row_group_size=1024)
    fresh = tmp_path / "fresh"
    build_index(str(src), str(fresh), num_shards=4)
    out = tmp_path / "idx"
    m1 = build_index(str(src), str(out), num_shards=4, keep_runs=True)
    runs = sorted((out / "runs").glob("shard=*/run-*.arrow"))
    assert runs
    for run in runs:
        run.rename(run.with_suffix(".parquet"))
    params_file = out / "_BUILD_PARAMS.json"
    params = json.loads(params_file.read_text())
    del params["run_format"]
    params_file.write_text(json.dumps(params))
    shutil.rmtree(out / "shards")

    m2 = build_index(str(src), str(out), num_shards=4, resume=True)
    assert _tree_bytes(out, "shards/**/terms.parquet") == \
        _tree_bytes(fresh, "shards/**/terms.parquet")
    assert m2["shards"] == m1["shards"]
    assert m2["stats"] == m1["stats"]


def test_dataset_source_blocks_finishing_out_of_order(ray_session,
                                                      tmp_path):
    """A Dataset whose blocks finish in reverse order is still written
    in key order: the build equals the path build of the same rows."""
    import time

    import ray.data as rd

    t = generate_transcripts(300, seed=7)
    src = tmp_path / "t.parquet"
    pq.write_table(t, src)
    base = tmp_path / "path"
    build_index(str(src), str(base), num_shards=4)
    blocks = _blocks(t, rows=-(-t.num_rows // 4))
    rank = {(b.column("conv_id")[0].as_py(), b.column("turn_idx")[0].as_py()):
            i for i, b in enumerate(blocks)}
    assert len(rank) == 4

    def later_blocks_first(batch):
        key = (batch.column("conv_id")[0].as_py(),
               batch.column("turn_idx")[0].as_py())
        time.sleep(0.5 * (len(rank) - rank[key]))
        return batch

    ds = rd.from_arrow(blocks).map_batches(
        later_blocks_first, batch_format="pyarrow", batch_size=None,
        concurrency=4)
    out = tmp_path / "ds"
    build_index(ds, str(out), num_shards=4)
    assert _tree_bytes(out, "shards/**/terms.parquet") == \
        _tree_bytes(base, "shards/**/terms.parquet")
    assert _norm_rows(out) == _norm_rows(base)


def test_one_task_over_many_tokenize_chunks_matches_split_plan(ray_session,
                                                               tmp_path):
    """One wave-A task of more than ``_TOKENIZE_CHUNK_DOCS`` rows writes
    runs whose pieces hold several chunks, each with its own term
    dictionary: the shards equal those of the same rows planned as
    several tasks."""
    from lucene_solr_ray.index.build import _TOKENIZE_CHUNK_DOCS

    t = generate_transcripts(1600, seed=11)
    assert t.num_rows >= 10_000
    one, many = tmp_path / "one.parquet", tmp_path / "many.parquet"
    pq.write_table(t, one, row_group_size=t.num_rows)
    pq.write_table(t, many, row_group_size=2048)
    m1 = build_index(str(one), str(tmp_path / "one_idx"), num_shards=8)
    m2 = build_index(str(many), str(tmp_path / "many_idx"), num_shards=8)
    assert len(m1["lineage"]) == 1
    assert m1["lineage"][0]["doc_hi"] > _TOKENIZE_CHUNK_DOCS
    assert len(m2["lineage"]) > 1
    assert _tree_bytes(tmp_path / "one_idx", "shards/**/terms.parquet") == \
        _tree_bytes(tmp_path / "many_idx", "shards/**/terms.parquet")
    assert m1["shards"] == m2["shards"]


def test_segment_writer_wide_vocabulary(tmp_path):
    """A shard of more than 65,536 distinct terms sorts on a wider key:
    its segment decodes with the terms sorted and each term's doc ids
    ascending."""
    import pyarrow as pa

    from lucene_solr_ray.index import segment
    from lucene_solr_ray.index.build import SegmentWriter

    rng = np.random.default_rng(3)
    n_terms, n_docs = 70_000, 40
    vocab = np.array([f"w{i:06d}" for i in rng.permutation(n_terms)])
    # every term in two distinct docs; rows in doc order, as runs are
    term = np.concatenate((np.arange(n_terms), np.arange(n_terms)))
    doc = np.concatenate((rng.integers(0, n_docs // 2, n_terms),
                          rng.integers(n_docs // 2, n_docs, n_terms)))
    order = np.argsort(doc, kind="stable")
    term, doc = term[order], doc[order]
    group = pa.table({
        "doc_shard": pa.array(np.zeros(len(doc), dtype=np.int32)),
        "term": pa.DictionaryArray.from_arrays(
            pa.array(term, type=pa.int32()), pa.array(vocab)),
        "doc_id": pa.array(doc, type=pa.int64()),
        "freq": pa.array(np.ones(len(doc), dtype=np.int64)),
        "positions": pa.LargeListArray.from_arrays(
            np.arange(len(doc) + 1),
            pa.array(np.zeros(len(doc), dtype=np.int32))),
    })
    row = SegmentWriter(str(tmp_path), docs_per_shard=n_docs)(group)
    assert row["term_count"] == n_terms and row["posting_count"] == len(doc)

    terms, term_docs, _, docs, _, _ = segment.decode_segment(
        [pq.read_table(tmp_path / "shards" / "shard=00000" / "terms.parquet")],
        [0])
    assert terms.to_pylist() == sorted(vocab.tolist())
    want = {}
    for code, d in zip(term.tolist(), doc.tolist()):
        want.setdefault(vocab[code], []).append(d)
    for i, word in enumerate(terms.to_pylist()):
        assert docs[term_docs[i]:term_docs[i + 1]].tolist() == \
            sorted(want[word]), word
