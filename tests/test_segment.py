"""Segment codec roundtrips: encode a shard's postings, decode, compare."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_solr_ray.index import segment


def build_inputs(rng, n_terms=40, n_docs=500, base=1000):
    """Random sorted (term, doc_id) postings with positions."""
    rows = []
    for t in range(n_terms):
        term = f"term{t:03d}"
        df = int(rng.integers(1, n_docs))
        docs = np.sort(rng.choice(n_docs, size=df, replace=False)) + base
        for d in docs:
            freq = int(rng.integers(1, 5))
            pos = np.sort(rng.choice(200, size=freq, replace=False))
            rows.append((term, int(d), freq, pos))
    terms = np.array([r[0] for r in rows], dtype=object)
    doc_ids = np.array([r[1] for r in rows], dtype=np.int64)
    freqs = np.array([r[2] for r in rows], dtype=np.int64)
    pos_flat = np.concatenate([r[3] for r in rows]).astype(np.int64)
    return terms, doc_ids, freqs, pos_flat


def grouped(terms):
    """(sorted vocabulary, per-term row offsets) of sorted term rows: the
    first two arguments of ``encode_shard_postings``."""
    starts = [i for i in range(len(terms)) if i == 0 or terms[i] != terms[i - 1]]
    return (pa.array(terms[starts], type=pa.string()),
            np.array(starts + [len(terms)], dtype=np.int64))


@pytest.fixture(scope="module")
def encoded():
    rng = np.random.default_rng(7)
    terms, doc_ids, freqs, pos_flat = build_inputs(rng)
    table = segment.encode_shard_postings(
        *grouped(terms), doc_ids, freqs, pos_flat, shard_base=1000)
    return table, (terms, doc_ids, freqs, pos_flat)


def test_term_stats(encoded):
    table, (terms, doc_ids, freqs, _) = encoded
    t = table.to_pydict()
    assert t["term"] == sorted(set(terms))
    for i, term in enumerate(t["term"]):
        mask = terms == term
        assert t["df"][i] == int(mask.sum())
        assert t["ttf"][i] == int(freqs[mask].sum())


def test_doc_id_roundtrip(encoded):
    table, (terms, doc_ids, freqs, _) = encoded
    t = table.to_pydict()
    for i, term in enumerate(t["term"]):
        mask = terms == term
        out = segment.decode_doc_ids(t["doc_ids_enc"][i], shard_base=1000)
        np.testing.assert_array_equal(out, doc_ids[mask])
        np.testing.assert_array_equal(
            segment.decode_freqs(t["freqs_enc"][i]), freqs[mask])


def test_positions_roundtrip(encoded):
    table, (terms, doc_ids, freqs, pos_flat) = encoded
    t = table.to_pydict()
    # reconstruct per-posting position slices
    bounds = np.concatenate(([0], np.cumsum(freqs)))
    for i, term in enumerate(t["term"]):
        idxs = np.nonzero(terms == term)[0]
        f = freqs[idxs]
        flat, offs = segment.decode_positions(t["positions_enc"][i], f)
        expected = np.concatenate([pos_flat[bounds[j]:bounds[j + 1]] for j in idxs])
        np.testing.assert_array_equal(flat, expected)
        np.testing.assert_array_equal(offs, np.concatenate(([0], np.cumsum(f))))


def test_empty_shard():
    t = segment.encode_shard_postings(
        *grouped(np.array([], dtype=object)), np.array([], dtype=np.int64),
        np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0)
    assert t.num_rows == 0


@pytest.mark.parametrize("df", [127, 128, 129, 256, 257])
def test_block_boundary_dfs(df):
    """Terms with df around 128-doc multiples round-trip through the
    whole-list decoders: doc ids, freqs and positions."""
    docs = np.arange(10, 10 + df * 3, 3, dtype=np.int64)
    freqs = (docs % 7 + 1).astype(np.int64)
    terms = np.array(["t"] * df, dtype=object)
    pos_flat = np.concatenate([np.arange(f) for f in freqs]).astype(np.int64)
    t = segment.encode_shard_postings(*grouped(terms), docs, freqs, pos_flat,
                                      0)
    d = t.to_pydict()
    assert d["df"] == [df] and d["ttf"] == [int(freqs.sum())]
    np.testing.assert_array_equal(
        segment.decode_doc_ids(d["doc_ids_enc"][0], 0), docs)
    np.testing.assert_array_equal(
        segment.decode_freqs(d["freqs_enc"][0]), freqs)
    flat, offs = segment.decode_positions(d["positions_enc"][0], freqs)
    np.testing.assert_array_equal(flat, pos_flat)
    np.testing.assert_array_equal(offs, np.concatenate(([0], np.cumsum(freqs))))


# --- segment decode: decode_segment against the per-term decoders ---

def _assert_decode_matches_per_term(index_dir):
    """Each shard decoded alone, and all shards merged into one segment
    (each term's postings the shards' lists in shard order), equal the
    per-term decoders."""
    import json
    from pathlib import Path

    import pyarrow.parquet as pq

    manifest = json.loads((Path(index_dir) / "manifest.json").read_text())
    codec = manifest["params"]["postings_codec"]
    dps = manifest["params"]["docs_per_shard"]
    files = sorted(Path(index_dir).glob("shards/shard=*/terms.parquet"))
    assert len(files) > 1
    tables, bases, merged = [], [], {}
    for f in files:
        base = int(f.parent.name.split("=")[1]) * dps
        t = pq.read_table(f)
        terms, term_docs, term_pos, docs, freqs, flat = \
            segment.decode_segment([t], [base], codec)
        assert docs.dtype == np.int64
        assert freqs.dtype == flat.dtype == np.int32
        assert terms.to_pylist() == t["term"].to_pylist()
        assert len(term_docs) == len(term_pos) == t.num_rows + 1
        for i in range(t.num_rows):
            d = segment.decode_doc_ids(t["doc_ids_enc"][i].as_py(), base,
                                       codec)
            fr = segment.decode_freqs(t["freqs_enc"][i].as_py(), codec)
            p, _ = segment.decode_positions(t["positions_enc"][i].as_py(),
                                            fr, codec)
            a, b = term_docs[i], term_docs[i + 1]
            np.testing.assert_array_equal(docs[a:b], d)
            np.testing.assert_array_equal(freqs[a:b], fr)
            np.testing.assert_array_equal(
                flat[term_pos[i]:term_pos[i + 1]], p)
            merged.setdefault(terms[i].as_py(), []).append((d, fr, p))
        tables.append(t)
        bases.append(base)
    terms, term_docs, term_pos, docs, freqs, flat = \
        segment.decode_segment(tables, bases, codec)
    assert terms.to_pylist() == sorted(merged)
    for i, term in enumerate(terms.to_pylist()):
        d, fr, p = (np.concatenate(x) for x in zip(*merged[term]))
        np.testing.assert_array_equal(docs[term_docs[i]:term_docs[i + 1]], d)
        np.testing.assert_array_equal(freqs[term_docs[i]:term_docs[i + 1]],
                                      fr)
        np.testing.assert_array_equal(flat[term_pos[i]:term_pos[i + 1]], p)


@pytest.mark.parametrize("codec", ["varint", "raw32"])
def test_decode_segment_matches_per_term_decode(ray_session, tmp_path,
                                                codec):
    """On a fresh 8-shard build, after update_index (a merged tail
    shard) and after expunge_deletes (rewritten shards)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.update import (delete_documents,
                                              expunge_deletes, update_index)

    table = generate_transcripts(60, seed=5)
    cut = sorted(set(table.column("conv_id").to_pylist()))[45]
    conv = table.column("conv_id")
    pq.write_table(table.filter(pc.less(conv, cut)), tmp_path / "a.parquet")
    pq.write_table(table.filter(pc.greater_equal(conv, cut)),
                   tmp_path / "b.parquet")
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "a.parquet"), idx, num_shards=8,
                postings_codec=codec)
    _assert_decode_matches_per_term(idx)
    update_index(idx, str(tmp_path / "b.parquet"))
    _assert_decode_matches_per_term(idx)
    delete_documents(idx, doc_ids=[0, 3, 40, 41, 200])
    assert expunge_deletes(idx)["expunged_now"] == 5
    _assert_decode_matches_per_term(idx)


def test_decode_segment_rejects_short_positions():
    terms, doc_ids, freqs, pos_flat = build_inputs(
        np.random.default_rng(3), n_terms=5, n_docs=50)
    t = segment.encode_shard_postings(*grouped(terms), doc_ids, freqs,
                                      pos_flat, 1000)
    segment.decode_segment([t], [1000])  # intact: decodes
    short = t.to_pydict()
    # one byte fewer is one position fewer (a dangling varint byte
    # decodes to nothing)
    short["positions_enc"][-1] = short["positions_enc"][-1][:-1]
    bad = pa.table(short, schema=t.schema)
    with pytest.raises(ValueError, match="positions"):
        segment.decode_segment([bad], [1000])


def test_resident_postings_memory_bound(ray_session, tmp_path):
    """A searcher's decoded postings take at most 12 B per posting (int64
    doc id + int32 freq), 4 B per position (int32) and 16 B per term (two
    int64 offsets), plus one leading offset each: widening any column
    breaks the bound. Checked per shard and for the 4 shards merged into
    one group segment (terms counted once over the union vocabulary)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import transcripts_path
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import ShardSearcher

    idx = tmp_path / "idx"
    build_index(transcripts_path("tiny"), str(idx), num_shards=4)
    for sids in ([0], [1], [2], [3], [0, 1, 2, 3]):
        t = pa.concat_tables([pq.read_table(
            idx / "shards" / f"shard={sid:05d}" / "terms.parquet",
            columns=["term", "df", "ttf"]) for sid in sids])
        n_terms = len(set(t["term"].to_pylist()))
        n_post = int(t["df"].to_numpy().sum())
        n_pos = int(t["ttf"].to_numpy().sum())
        sh = ShardSearcher(str(idx), sids)
        assert len(sh._terms) == n_terms
        resident = sum(a.nbytes for a in (
            sh._term_docs, sh._term_pos, sh._docs, sh._freqs, sh._flat_pos))
        assert n_post > 0 and n_pos >= n_post
        assert resident <= 12 * n_post + 4 * n_pos + 16 * (n_terms + 1)


def test_resident_docvalues_memory_bound(ray_session, tmp_path):
    """A segment's doc-value column is a typed Arrow array: at most 8 B
    per doc plus its dictionary's bytes. A string field is a dictionary
    array over its sorted distinct values (SORTED doc values), so one
    ordinal per doc replaces one Python object per doc."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from lucene_solr_ray.data.transcripts import transcripts_path
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import ShardSearcher

    idx = tmp_path / "idx"
    build_index(transcripts_path("tiny"), str(idx), num_shards=4)
    for sids in ([1], [0, 1, 2, 3]):
        sh = ShardSearcher(str(idx), sids)
        for field in ("role", "conv_id", "turn_idx"):
            col = sh.docvalues.column(field)
            assert isinstance(col, pa.Array), field
            assert len(col) == sh.size and col.null_count == 0
            dict_bytes = 0
            if field != "turn_idx":
                assert pa.types.is_dictionary(col.type), field
                d = col.dictionary
                assert d.equals(pc.unique(d).sort()), field
                dict_bytes = d.nbytes
            assert col.nbytes <= 8 * sh.size + dict_bytes, field
