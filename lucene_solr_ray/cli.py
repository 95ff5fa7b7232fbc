"""CLI entry points, shaped for ``ray job submit``:

    ray job submit -- python -m lucene_solr_ray.cli build SRC INDEX_DIR
    ray job submit -- python -m lucene_solr_ray.cli update INDEX_DIR SRC
    ray job submit -- python -m lucene_solr_ray.cli search INDEX_DIR "query"
    ray job submit -- python -m lucene_solr_ray.cli check INDEX_DIR

Standalone runs initialise Ray locally; under a driver-managed session
the existing connection is reused (guarded init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="lucene_solr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an inverted index")
    b.add_argument("source")
    b.add_argument("index_dir")
    b.add_argument("--num-shards", type=int, default=None)
    b.add_argument("--docs-per-shard", type=int, default=None)
    b.add_argument("--analyzer", default="standard")
    b.add_argument("--resume", action="store_true")
    b.add_argument("--unsorted", action="store_true",
                   help="input is not pre-sorted by (conv_id, turn_idx); "
                        "it is sorted once into index_dir/source/")
    b.add_argument("--store-offsets", action="store_true",
                   help="write the token char-offsets sidecar "
                        "(PostingsHighlighter-style highlighting without "
                        "re-analysis)")
    b.add_argument("--codec", default="varint",
                   choices=("varint", "raw32"),
                   help="postings codec (PostingsFormat SPI analog): "
                        "LEB128 delta streams (default) or fixed-width "
                        "uint32 (DirectPostingsFormat idea)")

    u = sub.add_parser("update", help="append new documents past checkpoint")
    u.add_argument("index_dir")
    u.add_argument("source")
    u.add_argument("--overwrite", action="store_true",
                   help="updateDocument semantics: tombstone existing "
                        "versions of incoming (conv_id, turn_idx) keys")

    d = sub.add_parser("delete", help="tombstone documents by id or key")
    d.add_argument("index_dir")
    d.add_argument("--doc-ids", type=int, nargs="*", default=None)
    d.add_argument("--key", nargs=2, metavar=("CONV_ID", "TURN_IDX"),
                   action="append", default=None)

    s = sub.add_parser("search", help="BM25 top-k query")
    s.add_argument("index_dir")
    s.add_argument("query")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--sort", default=None, metavar="FIELD[:desc]",
                   help="rank by a docvalue field instead of score "
                        "(e.g. turn_idx:desc)")
    s.add_argument("--filter", default=None, nargs=3,
                   metavar=("FIELD", "LO", "HI"),
                   help="inclusive docvalue range filter; use '-' for an "
                        "open bound")
    s.add_argument("--highlight", default=None, metavar="SOURCE_PARQUET",
                   help="attach snippets, fetching hit texts from the "
                        "source parquet (stored-fields phase)")
    s.add_argument("--highlight-offsets", default=None,
                   metavar="SOURCE_PARQUET",
                   help="offsets-based snippets (PostingsHighlighter): "
                        "no re-analysis of hit docs; requires an index "
                        "built with store_offsets")
    s.add_argument("--similarity", default="bm25",
                   choices=("bm25", "classic"),
                   help="scoring model (IndexSearcher.setSimilarity)")
    s.add_argument("--qop", default="OR", choices=("OR", "AND"),
                   help="default boolean operator for the classic "
                        "syntax (QueryParser.setDefaultOperator / q.op)")
    s.add_argument("--bf", default=None,
                   help="additive boost function (dismax bf=): a "
                        "function-registry expression whose per-doc "
                        "value adds to the score")
    s.add_argument("--boost", default=None,
                   help="multiplicative boost function ({!boost b=})")
    s.add_argument("--syntax", default="classic",
                   choices=("classic", "complexphrase", "surround",
                            "xml", "edismax", "simple", "precedence",
                            "analyzing"),
                   help="query language: classic parser, "
                        "ComplexPhraseQueryParser (wildcards/fuzzy/"
                        "groups inside quoted phrases), the surround "
                        "span language (AND/OR/NOT/nW/nN), the XML "
                        "CoreParser element set, or the lenient "
                        "edismax parser (--mm/--pf/--ps)")
    s.add_argument("--mm", default=None,
                   help="edismax minimum-should-match spec, e.g. "
                        "'50%%' or '2<-25%% 9<-3'")
    s.add_argument("--pf", type=float, default=0.0,
                   help="edismax whole-query phrase-boost weight")
    s.add_argument("--ps", type=int, default=0,
                   help="edismax phrase-boost slop")
    s.add_argument("--federate", action="append", default=None,
                   metavar="INDEX_DIR",
                   help="also search this index (repeatable): MultiReader"
                        "-style federation with combined statistics")

    g = sub.add_parser("get", help="real-time get stored fields by key/id")
    g.add_argument("index_dir")
    g.add_argument("--doc-ids", type=int, nargs="*", default=None)
    g.add_argument("--key", nargs=2, metavar=("CONV_ID", "TURN_IDX"),
                   action="append", default=None)

    au = sub.add_parser("atomic-update",
                        help="atomic partial updates (set/inc/remove) from "
                             "a JSON list, e.g. '[{\"conv_id\": \"c1\", "
                             "\"turn_idx\": 0, \"score\": {\"inc\": 1}}]'")
    au.add_argument("index_dir")
    au.add_argument("updates_json",
                    help="JSON list of update docs, or @file.json")

    t = sub.add_parser("terms", help="enumerate index terms")
    t.add_argument("index_dir")
    t.add_argument("--prefix", default="")
    t.add_argument("--regex", default=None)
    t.add_argument("--limit", type=int, default=10)
    t.add_argument("--sort", choices=("count", "index"), default="count")

    sp = sub.add_parser("spellcheck", help="did-you-mean suggestions")
    sp.add_argument("index_dir")
    sp.add_argument("term", help="a term, or a whole query with --collate")
    sp.add_argument("-k", type=int, default=5)
    sp.add_argument("--collate", action="store_true",
                    help="treat the input as a full query and return a "
                         "verified collation (SpellCheckCollator)")
    sp.add_argument("--impl", default="direct",
                    choices=("direct", "index", "file"),
                    help="direct = DirectSpellChecker over the live term "
                         "dict; index = IndexBasedSpellChecker (n-gram "
                         "spelling index w/ thresholdTokenFrequency); "
                         "file = FileBasedSpellChecker (--dictionary)")
    sp.add_argument("--dictionary", default=None,
                    help="word-list file for --impl file")
    sp.add_argument("--threshold", type=float, default=0.0,
                    help="thresholdTokenFrequency for --impl index")

    f = sub.add_parser("facet", help="field facet over a query's hits")
    f.add_argument("index_dir")
    f.add_argument("query")
    f.add_argument("field")
    f.add_argument("--limit", type=int, default=None)

    an = sub.add_parser("analyze",
                        help="per-stage analysis debug for a text")
    an.add_argument("text")
    an.add_argument("--analyzer", default="standard")

    c = sub.add_parser("check", help="validate index invariants")
    c.add_argument("index_dir")

    lk = sub.add_parser("luke", help="index introspection: fields, "
                        "stats, exact global top terms "
                        "(LukeRequestHandler)")
    lk.add_argument("index_dir")
    lk.add_argument("--top", type=int, default=10)

    sg = sub.add_parser("segments", help="per-shard index statistics "
                        "(Luke / segments info analog)")
    sg.add_argument("index_dir")

    xp = sub.add_parser("expunge", help="physically remove tombstoned "
                        "docs' postings/norms (forceMergeDeletes)")
    xp.add_argument("index_dir")

    xpl = sub.add_parser("explain", help="score explanation for one doc "
                         "(debugQuery / IndexSearcher.explain)")
    xpl.add_argument("index_dir")
    xpl.add_argument("query")
    xpl.add_argument("doc_id", type=int)

    sq = sub.add_parser("sql", help="Parallel SQL interface (SQLHandler): "
                        "run a SQL subset on the engine's operators")
    sq.add_argument("sf_dir", help="directory with the parquet tables")
    sq.add_argument("query")
    sq.add_argument("--limit-print", type=int, default=20)

    ex = sub.add_parser("expire", help="TTL expiry: tombstone docs whose "
                        "field predates a cutoff (DocExpiration reaper)")
    ex.add_argument("index_dir")
    ex.add_argument("--before", required=True,
                    help="cutoff: ISO timestamp or date-math "
                         "(NOW-7DAYS/DAY)")
    ex.add_argument("--field", default="ts")
    ex.add_argument("--expunge", action="store_true")

    bk = sub.add_parser("backup", help="snapshot the current revision "
                        "(ReplicationHandler backup)")
    bk.add_argument("index_dir")
    bk.add_argument("snapshot_dir")

    rs = sub.add_parser("restore", help="restore a snapshot as a live "
                        "index (ReplicationHandler restore)")
    rs.add_argument("snapshot_dir")
    rs.add_argument("index_dir")

    fi = sub.add_parser("fetchindex", help="incremental replica sync "
                        "from a master index (IndexFetcher)")
    fi.add_argument("master_dir")
    fi.add_argument("replica_dir")
    fi.add_argument("--verify-checksums", action="store_true")

    rc = sub.add_parser("recover",
                        help="replay the unapplied update-log tail")
    rc.add_argument("index_dir")

    ts = sub.add_parser("tlog-status", help="update-log admin view")
    ts.add_argument("index_dir")

    cb = sub.add_parser("cdcr-bootstrap",
                        help="copy index to a new CDCR target")
    cb.add_argument("index_dir")
    cb.add_argument("target_dir")

    cf = sub.add_parser("cdcr-forward",
                        help="forward logged updates to a CDCR target")
    cf.add_argument("index_dir")
    cf.add_argument("target_dir")

    ai = sub.add_parser("addindexes", help="concatenate a prebuilt source "
                        "index onto this one (IndexWriter.addIndexes)")
    ai.add_argument("index_dir")
    ai.add_argument("src_index_dir")

    si = sub.add_parser("split", help="split the index into two standalone "
                        "indexes at a shard boundary (SPLITSHARD)")
    si.add_argument("index_dir")
    si.add_argument("dst_a")
    si.add_argument("dst_b")
    si.add_argument("--split-doc", type=int, default=None,
                    help="doc boundary (multiple of docs_per_shard); "
                    "default: middle shard boundary")

    args = p.parse_args(argv)
    if args.cmd in ("update", "search", "check", "delete", "get",
                    "atomic-update", "terms", "spellcheck", "facet",
                    "recover", "tlog-status", "cdcr-bootstrap",
                    "cdcr-forward", "addindexes", "split", "luke"):
        from pathlib import Path

        if not (Path(args.index_dir) / "manifest.json").exists():
            print(f"error: no index at {args.index_dir} "
                  "(manifest.json missing)", file=sys.stderr)
            return 2
    _ensure_ray()

    if args.cmd == "build":
        from .index.build import build_index

        manifest = build_index(
            args.source, args.index_dir, num_shards=args.num_shards,
            docs_per_shard=args.docs_per_shard, analyzer=args.analyzer,
            resume=args.resume, assume_sorted=not args.unsorted,
            postings_codec=args.codec, store_offsets=args.store_offsets)
        print(json.dumps({"shards": len(manifest["shards"]),
                          "stats": manifest["stats"],
                          "phases": manifest["phases"],
                          "task_cpu_s": manifest["task_cpu_s"]}))
    elif args.cmd == "update":
        from .index.update import update_index

        manifest = update_index(args.index_dir, args.source,
                                overwrite=args.overwrite)
        print(json.dumps({"version": manifest["version"],
                          "stats": manifest["stats"],
                          "phases": manifest["phases"],
                          "task_cpu_s": manifest["task_cpu_s"]}))
    elif args.cmd == "delete":
        from .index.update import delete_documents

        keys = ([(c, int(t)) for c, t in args.key] if args.key else None)
        print(json.dumps(delete_documents(
            args.index_dir, doc_ids=args.doc_ids, keys=keys)))
    elif args.cmd == "search":
        from .search.searcher import IndexSearcher, MultiIndexSearcher

        if args.federate:
            searcher = MultiIndexSearcher(
                [args.index_dir] + list(args.federate),
                similarity=args.similarity)
        else:
            searcher = IndexSearcher(args.index_dir,
                                     similarity=args.similarity)
        sort = None
        if args.sort:
            field, _, direction = args.sort.partition(":")
            sort = [(field, direction.lower() == "desc")]
        filter_range = None
        if args.filter:
            import pyarrow as pa
            import pyarrow.dataset as pads

            field, lo, hi = args.filter
            # a bound takes the type of the field's doc-value column; a
            # field the index lacks compares as a string
            norms = pads.dataset(f"{args.index_dir}/norms", format="parquet",
                                 partitioning="hive").schema
            typ = (norms.field(field).type if field in norms.names
                   else pa.string())
            if pa.types.is_dictionary(typ):  # categorical
                typ = typ.value_type

            def _bound(x):
                if x == "-":
                    return None
                if pa.types.is_timestamp(typ):
                    # Solr date math endpoints: --filter ts NOW-7DAYS/DAY -
                    from .functions.datemath import parse_date_math

                    return parse_date_math(x)
                return pa.scalar(x).cast(typ).as_py()
            filter_range = {field: (_bound(lo), _bound(hi))}
        if args.qop == "AND" and args.syntax not in (None, "", "classic"):
            # fail loud (same convention as unsupported --bf/--boost
            # combos): only the classic parser honors a default operator
            raise SystemExit(
                f"--qop AND is only supported with the classic syntax "
                f"(got --syntax {args.syntax})")
        if args.syntax == "complexphrase":
            query = searcher.parse_complex(args.query)
        elif args.syntax == "surround":
            from .analysis import get_analyzer
            from .search.surround import parse_surround

            query = parse_surround(args.query,
                                   get_analyzer(searcher.analyzer_name))
        elif args.syntax == "xml":
            from .analysis import get_analyzer
            from .search.xmlparser import parse_xml_query

            query = parse_xml_query(args.query,
                                    get_analyzer(searcher.analyzer_name))
        elif args.syntax == "simple":
            from .analysis import get_analyzer
            from .search.simpleparser import parse_simple

            query = parse_simple(args.query,
                                 get_analyzer(searcher.analyzer_name))
        elif args.syntax == "analyzing":
            from .analysis import get_analyzer
            from .search.analyzing import parse_analyzing

            query = parse_analyzing(args.query,
                                    get_analyzer(searcher.analyzer_name))
        elif args.syntax == "precedence":
            from .analysis import get_analyzer
            from .search.precedence import parse_precedence

            query = parse_precedence(args.query,
                                     get_analyzer(searcher.analyzer_name))
        elif args.syntax == "edismax":
            from .analysis import get_analyzer
            from .search.edismax import parse_edismax

            query = parse_edismax(args.query,
                                  get_analyzer(searcher.analyzer_name),
                                  mm=args.mm, pf=args.pf, ps=args.ps,
                                  lowercase_operators=True)
        elif args.qop == "AND":
            from .analysis import get_analyzer
            from .search.query import parse_query

            query = parse_query(args.query,
                                get_analyzer(searcher.analyzer_name),
                                default_operator="AND")
        else:
            query = args.query
        if args.bf or args.boost:
            # boosted_search reranks the FULL hit set; combinations it
            # cannot honor are rejected loudly rather than silently
            # dropping a user constraint
            if args.bf and args.boost:
                raise SystemExit("--bf and --boost are mutually "
                                 "exclusive here; compose them into one "
                                 "expression instead")
            if sort or filter_range or getattr(args, "federate", None):
                raise SystemExit("--bf/--boost cannot combine with "
                                 "--sort/--filter/--federate")
            hits = searcher.boosted_search(
                query, args.bf or args.boost, k=args.k,
                mode="add" if args.bf else "multiply")
        else:
            hits = searcher.search(query, k=args.k, sort=sort,
                                   filter_range=filter_range)
        rows = searcher.resolve_hits(hits)
        if args.highlight:
            from .search.features import highlight_hits

            rows = highlight_hits(searcher, args.query, rows,
                                  args.highlight)
        if args.highlight_offsets:
            from .search.features import postings_highlight_hits

            rows = postings_highlight_hits(searcher, args.query, rows,
                                           args.highlight_offsets)
        print(json.dumps(rows, default=str))
    elif args.cmd == "get":
        from .index.update import realtime_get

        keys = ([(c, int(t)) for c, t in args.key] if args.key else None)
        t = realtime_get(args.index_dir, keys=keys, doc_ids=args.doc_ids)
        print(json.dumps(t.to_pylist() if t is not None else [],
                         default=str))
    elif args.cmd == "atomic-update":
        from .index.update import atomic_update

        raw = args.updates_json
        if raw.startswith("@"):
            from pathlib import Path

            raw = Path(raw[1:]).read_text()
        manifest = atomic_update(args.index_dir, json.loads(raw))
        print(json.dumps({"version": manifest["version"]}))
    elif args.cmd == "terms":
        from .search.searcher import IndexSearcher

        s = IndexSearcher(args.index_dir)
        print(json.dumps(s.terms(prefix=args.prefix, regex=args.regex,
                                 limit=args.limit, sort=args.sort)))
    elif args.cmd == "spellcheck":
        from .search.searcher import IndexSearcher

        s = IndexSearcher(args.index_dir)
        if args.collate:
            print(json.dumps(s.spellcheck_collate(args.term)))
        elif args.impl == "index":
            from .search.spellindex import index_based_spellchecker

            si = index_based_spellchecker(s, args.threshold)
            print(json.dumps(si.suggest(args.term, k=args.k)))
        elif args.impl == "file":
            if not args.dictionary:
                raise SystemExit("--impl file requires --dictionary")
            from .search.spellindex import SpellingIndex

            si = SpellingIndex.from_file(args.dictionary)
            print(json.dumps(si.suggest(args.term, k=args.k)))
        else:
            print(json.dumps(s.spellcheck(args.term, k=args.k)))
    elif args.cmd == "facet":
        from .search.searcher import IndexSearcher

        s = IndexSearcher(args.index_dir)
        print(json.dumps(s.facet(args.query, args.field,
                                 limit=args.limit)))
    elif args.cmd == "analyze":
        from .analysis.analyzer import analyze_debug

        print(json.dumps(analyze_debug(args.text, args.analyzer)))
    elif args.cmd == "check":
        from .index.check import check_index

        print(json.dumps(check_index(args.index_dir)))
    elif args.cmd == "expunge":
        from .index.update import expunge_deletes

        print(json.dumps(expunge_deletes(args.index_dir)))
    elif args.cmd == "explain":
        from .search.searcher import IndexSearcher

        s = IndexSearcher(args.index_dir)
        print(json.dumps(s.explain(args.query, args.doc_id)))
    elif args.cmd == "sql":
        from .pipelines.sqlhandler import sql_query

        df = sql_query(args.query, args.sf_dir).to_pandas()
        print(df.head(args.limit_print).to_json(orient="records"))
    elif args.cmd == "expire":
        from .functions.datemath import parse_date_math
        from .index.update import expire_documents

        before = args.before
        if "NOW" in before.upper():
            before = parse_date_math(before)
        print(json.dumps(expire_documents(
            args.index_dir, before, field=args.field,
            expunge=args.expunge)))
    elif args.cmd == "addindexes":
        from .index.update import add_indexes

        print(json.dumps(add_indexes(args.index_dir, args.src_index_dir)))
    elif args.cmd == "split":
        from .index.update import split_index

        print(json.dumps(split_index(args.index_dir, args.dst_a,
                                     args.dst_b,
                                     split_doc=args.split_doc)))
    elif args.cmd == "luke":
        from .index.check import luke

        print(json.dumps(luke(args.index_dir, top_n=args.top)))
    elif args.cmd == "segments":
        from .index.build import read_manifest
        from .index.replicator import revision_info

        manifest = read_manifest(args.index_dir)
        rev = revision_info(args.index_dir, checksums=False)
        print(json.dumps({
            "version": manifest["version"],
            "stats": manifest["stats"],
            "files": len(rev["files"]),
            "bytes": sum(m["size"] for m in rev["files"].values()),
            "shards": manifest["shards"],
        }))
    elif args.cmd == "backup":
        from .index.replicator import snapshot

        print(json.dumps(snapshot(args.index_dir, args.snapshot_dir)))
    elif args.cmd == "restore":
        from .index.replicator import restore

        print(json.dumps(restore(args.snapshot_dir, args.index_dir)))
    elif args.cmd == "fetchindex":
        from .index.replicator import replicate

        print(json.dumps(replicate(
            args.master_dir, args.replica_dir,
            verify_checksums=args.verify_checksums)))
    elif args.cmd == "recover":
        from .index.tlog import recover_from_log

        print(json.dumps(recover_from_log(args.index_dir)))
    elif args.cmd == "tlog-status":
        from .index.tlog import log_status

        print(json.dumps(log_status(args.index_dir)))
    elif args.cmd == "cdcr-bootstrap":
        from .index.tlog import cdcr_bootstrap

        print(json.dumps(cdcr_bootstrap(args.index_dir, args.target_dir)))
    elif args.cmd == "cdcr-forward":
        from .index.tlog import cdcr_forward

        print(json.dumps(cdcr_forward(args.index_dir, args.target_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
