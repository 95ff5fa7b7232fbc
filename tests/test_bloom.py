"""Per-shard term bloom filters (BloomFilteringPostingsFormat analog):
no false negatives, scatter pruning for rare terms, pruned results
identical to the unpruned in-process searcher."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.data.transcripts import generate_transcripts
from lucene_solr_ray.index.bloom import (
    TermBloomSet,
    _hash_terms,
    build_term_blooms,
)
from lucene_solr_ray.index.build import build_index

RARE = "zzyzxuniq"


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("bloom")
    t = generate_transcripts(600, seed=5)
    texts = t.column("text").to_pylist()
    texts[-1] += f" {RARE}"
    t = t.set_column(t.column_names.index("text"), "text",
                     pa.array(texts))
    src = base / "src.parquet"
    pq.write_table(t, src)
    out = base / "idx"
    build_index(str(src), str(out), num_shards=4)
    build_term_blooms(str(out))
    return str(out)


def test_no_false_negatives(idx):
    bl = TermBloomSet.load(idx)
    terms = pq.read_table(f"{idx}/shards/shard=00000/terms.parquet",
                          columns=["term"]).column("term") \
        .to_numpy(zero_copy_only=False)
    assert bl.maybe_in_shard(0, _hash_terms(terms)).all()


def test_rare_term_prunes_shards(idx):
    bl = TermBloomSet.load(idx)
    cand = bl.shards_maybe([RARE])
    last = int(max(bl.shard_ids))
    assert last in cand            # the shard that really has it
    assert len(cand) <= 3          # 10% fp per other shard
    # union semantics: common terms light up everything
    assert len(bl.shards_maybe(["the", "data"])) >= len(cand)


def test_results_identical_and_fanout_pruned(idx):
    from lucene_solr_ray.search.actors import DistributedSearcher
    from lucene_solr_ray.search.searcher import IndexSearcher

    with_b = DistributedSearcher(idx, num_actors=4)
    unpruned = IndexSearcher(idx)
    assert with_b.blooms is not None
    n_actors = len(with_b.actors)
    for q in (RARE, "ray AND data", '"ray data"', "missingtermxyzq",
              f"{RARE} OR lake"):
        assert with_b.search(q, k=10) == unpruned.search(q, k=10), q
    with_b.search(RARE, k=10)
    assert with_b.last_fanout is not None and with_b.last_fanout <= 3
    with_b.search("missingtermxyzq", k=10)
    assert with_b.last_fanout == 0
    # non-prunable shapes fall back to full fan-out
    with_b.search("ra*", k=10)
    assert with_b.last_fanout == n_actors


def test_rebuild_is_noop(idx):
    import os

    p = f"{idx}/term_blooms.parquet"
    before = os.stat(p).st_mtime_ns
    build_term_blooms(idx)
    assert os.stat(p).st_mtime_ns == before


def test_stale_blooms_disabled_after_update(ray_session, tmp_path):
    """Index mutation bumps the manifest version; stale blooms must not
    load (pruning with them would silently drop matching docs)."""
    import pyarrow as pa
    import pyarrow.parquet as papq
    from lucene_solr_ray.index.update import update_index
    from lucene_solr_ray.search.actors import DistributedSearcher

    t = generate_transcripts(300, seed=7)
    src = tmp_path / "src.parquet"
    papq.write_table(t, src)
    out = tmp_path / "idx"
    build_index(str(src), str(out), num_shards=3)
    build_term_blooms(str(out))
    assert TermBloomSet.load(str(out)) is not None

    extra = pa.table({
        "conv_id": ["zzz-new-conv"], "turn_idx": [0],
        "role": ["user"], "text": ["freshterm appears here"],
        "tool": [""],
        "ts": pa.array([t.column("ts")[0].as_py()],
                       type=t.schema.field("ts").type),
    })
    inc = tmp_path / "inc.parquet"
    papq.write_table(extra, inc)
    update_index(str(out), str(inc))

    assert TermBloomSet.load(str(out)) is None      # stale -> disabled
    ds = DistributedSearcher(str(out), num_actors=3)
    assert ds.blooms is None
    hits = ds.search("freshterm", k=5)
    assert len(hits) == 1
    # rebuilding re-enables pruning and still finds the new term
    build_term_blooms(str(out))
    ds2 = DistributedSearcher(str(out), num_actors=3)
    assert ds2.blooms is not None
    assert ds2.search("freshterm", k=5) == hits


def test_rebuild_after_parquet_deleted(idx):
    """A matching meta sidecar with a MISSING term_blooms.parquet must
    not be treated as fresh: rebuild has to recreate the parquet (a
    permanent no-op would leave pruning silently disabled forever)."""
    import os

    p = f"{idx}/term_blooms.parquet"
    os.remove(p)
    out = build_term_blooms(idx)
    assert os.path.exists(out) and os.path.exists(p)
    assert TermBloomSet.load(idx) is not None
