"""CLI round trip: build -> check -> search -> update via module entry."""

import json

from lucene_solr_ray.cli import main
from lucene_solr_ray.data.transcripts import transcripts_path


def test_cli_build_check_search(ray_session, tmp_path, capsys):
    src = transcripts_path("tiny")
    idx = str(tmp_path / "idx")
    assert main(["build", src, idx, "--num-shards", "2"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["shards"] == 2 and out["stats"]["num_docs"] > 0
    assert set(out["task_cpu_s"]) == {"tokenize_runs", "term_group_encode"}

    assert main(["check", idx]) == 0
    assert json.loads(capsys.readouterr().out.strip())["status"] == "ok"

    assert main(["search", idx, "ray AND data", "-k", "5"]) == 0
    hits = json.loads(capsys.readouterr().out.strip())
    assert hits and {"doc_id", "score", "conv_id", "turn_idx"} <= set(hits[0])


def test_cli_get_and_atomic_update(ray_session, tmp_path, capsys):
    import json
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.cli import main
    from lucene_solr_ray.data.transcripts import generate_transcripts

    t = generate_transcripts(10, seed=3)
    t = t.append_column("score", pa.array(
        np.zeros(t.num_rows, dtype=np.int64), type=pa.int64()))
    src = tmp_path / "src.parquet"
    pq.write_table(t, str(src))
    idx = str(tmp_path / "idx")
    assert main(["build", str(src), idx, "--num-shards", "2"]) == 0
    conv = t.column("conv_id")[0].as_py()
    capsys.readouterr()
    assert main(["get", idx, "--key", conv, "0"]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(rows) == 1 and rows[0]["conv_id"] == conv
    ups = json.dumps([{"conv_id": conv, "turn_idx": 0,
                       "score": {"inc": 7}}])
    assert main(["atomic-update", idx, ups]) == 0
    capsys.readouterr()
    assert main(["get", idx, "--key", conv, "0"]) == 0
    rows2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rows2[0]["score"] == 7


def test_cli_terms_spellcheck_facet_analyze(ray_session, tmp_path, capsys):
    import json

    import pyarrow.parquet as pq

    from lucene_solr_ray.cli import main
    from lucene_solr_ray.data.transcripts import generate_transcripts

    src = tmp_path / "src.parquet"
    pq.write_table(generate_transcripts(10, seed=4), str(src))
    idx = str(tmp_path / "idx")
    assert main(["build", str(src), idx, "--num-shards", "2"]) == 0
    capsys.readouterr()
    assert main(["terms", idx, "--prefix", "r", "--limit", "5"]) == 0
    terms = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(t.startswith("r") for t, _ in terms)
    assert main(["analyze", "The Quick Fox"]) == 0
    stages = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [s["stage"] for s in stages] == ["StandardTokenizer",
                                            "LowerCaseFilter", "StopFilter"]
    assert main(["facet", idx, "ray", "role", "--limit", "3"]) == 0
    fac = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(isinstance(n, int) for _, n in fac)
    assert main(["spellcheck", idx, "rey"]) == 0
    sc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert isinstance(sc, list)


def test_cli_search_with_highlight(ray_session, tmp_path, capsys):
    import json

    import pyarrow.parquet as pq

    from lucene_solr_ray.cli import main
    from lucene_solr_ray.data.transcripts import generate_transcripts

    src = tmp_path / "src.parquet"
    pq.write_table(generate_transcripts(20, seed=8), str(src))
    idx = str(tmp_path / "idx")
    assert main(["build", str(src), idx, "--num-shards", "2"]) == 0
    capsys.readouterr()
    assert main(["search", idx, "ray", "-k", "3",
                 "--highlight", str(src)]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rows
    for r in rows:
        assert "snippet" in r
        assert "<b>" in r["snippet"].lower() or r["snippet"]  # wrapped hit
    assert any("<b>" in r["snippet"] for r in rows)


def test_cli_datemath_ts_filter(ray_session, tmp_path, capsys):
    """--filter accepts Solr date-math endpoints on the ts docvalue."""
    src = transcripts_path("tiny")
    idx = str(tmp_path / "dmidx")
    assert main(["build", src, idx, "--num-shards", "2"]) == 0
    capsys.readouterr()
    # transcripts ts starts 2026-01-01; a since-2020 filter keeps hits
    assert main(["search", idx, "ray", "--filter", "ts",
                 "2020-01-01T00:00:00Z/YEAR", "-", "-k", "3"]) == 0
    hits = json.loads(capsys.readouterr().out.strip())
    assert hits
    # an upper bound before the corpus epoch filters everything
    assert main(["search", idx, "ray", "--filter", "ts", "-",
                 "2019-12-31T23:59:59Z/DAY", "-k", "3"]) == 0
    assert json.loads(capsys.readouterr().out.strip()) == []


def test_cli_filter_bounds_take_the_field_type(ray_session, tmp_path,
                                               capsys):
    """--filter casts its bounds to the field's doc-value type: number-like
    bounds on a string field compare as strings, and on an integer field
    as numbers."""
    from lucene_solr_ray.search.searcher import IndexSearcher

    src = transcripts_path("tiny")
    idx = str(tmp_path / "fidx")
    assert main(["build", src, idx, "--num-shards", "2"]) == 0
    capsys.readouterr()
    s = IndexSearcher(idx)
    rows = {}
    for field, lo, hi, want in (("tool", "1", "5", ("1", "5")),
                                ("tool", "-", "5", (None, "5")),
                                ("turn_idx", "2", "5", (2, 5))):
        assert main(["search", idx, "ray", "--filter", field, lo, hi,
                     "-k", "50"]) == 0
        rows[field, lo] = json.loads(capsys.readouterr().out)
        assert [h["doc_id"] for h in rows[field, lo]] == [
            h["doc_id"] for h in s.resolve_hits(s.search(
                "ray", k=50, filter_range={field: want}))], (field, lo, hi)
    assert rows["tool", "-"]  # "" (no tool) sorts below "5"
    assert rows["turn_idx", "2"]
    assert all(2 <= h["turn_idx"] <= 5 for h in rows["turn_idx", "2"])


def test_cli_qop_rejected_with_non_classic_syntax(ray_session, tmp_path,
                                                  capsys):
    """--qop AND only makes sense for the classic parser; any other
    --syntax must fail loud (same convention as unsupported --bf
    combinations), never silently ignore the operator."""
    import pytest

    src = transcripts_path("tiny")
    idx = str(tmp_path / "idx")
    assert main(["build", src, idx, "--num-shards", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["search", idx, "ray data", "--qop", "AND",
              "--syntax", "simple"])
    # classic + qop still works
    assert main(["search", idx, "ray data", "--qop", "AND"]) == 0


def test_cli_update_prints_its_phases(ray_session, tmp_path, capsys):
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lucene_solr_ray.data.transcripts import generate_transcripts

    t = generate_transcripts(20, seed=5)
    cut = sorted(set(t.column("conv_id").to_pylist()))[14]
    conv = t.column("conv_id")
    pq.write_table(t.filter(pc.less(conv, pa.scalar(cut))),
                   tmp_path / "a.parquet")
    pq.write_table(t.filter(pc.greater_equal(conv, pa.scalar(cut))),
                   tmp_path / "b.parquet")
    idx = str(tmp_path / "idx")
    assert main(["build", str(tmp_path / "a.parquet"), idx,
                 "--num-shards", "2"]) == 0
    capsys.readouterr()
    assert main(["update", idx, str(tmp_path / "b.parquet")]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["version"] == 2 and out["stats"]["num_docs"] == t.num_rows
    assert set(out["phases"]) == {"plan", "tokenize_runs",
                                  "term_group_encode"}
