"""Segment codec roundtrips: encode a shard's postings, decode, compare."""

import numpy as np
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


@pytest.fixture(scope="module")
def encoded():
    rng = np.random.default_rng(7)
    terms, doc_ids, freqs, pos_flat = build_inputs(rng)
    table = segment.encode_shard_postings(
        terms, doc_ids, freqs, pos_flat, shard_base=1000)
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
        np.array([], dtype=object), np.array([], dtype=np.int64),
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
    t = segment.encode_shard_postings(terms, docs, freqs, pos_flat, 0)
    d = t.to_pydict()
    assert d["df"] == [df] and d["ttf"] == [int(freqs.sum())]
    np.testing.assert_array_equal(
        segment.decode_doc_ids(d["doc_ids_enc"][0], 0), docs)
    np.testing.assert_array_equal(
        segment.decode_freqs(d["freqs_enc"][0]), freqs)
    flat, offs = segment.decode_positions(d["positions_enc"][0], freqs)
    np.testing.assert_array_equal(flat, pos_flat)
    np.testing.assert_array_equal(offs, np.concatenate(([0], np.cumsum(freqs))))
