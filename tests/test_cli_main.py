"""Tests for the top-level ``python -m repro`` command line."""

import pytest

from repro.cli import main
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.io import write_edge_list
from repro.utils.serialization import load_oracle

from tests.conftest import random_connected_graph


@pytest.fixture
def edge_list(tmp_path):
    graph = random_connected_graph(77, n_min=15, n_max=20)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


@pytest.fixture
def oracle_file(edge_list, tmp_path):
    path, graph = edge_list
    out = tmp_path / "oracle.json"
    assert main(["build", str(path), "-o", str(out), "--landmarks", "3"]) == 0
    return out, graph


class TestBuild:
    def test_build_writes_loadable_oracle(self, oracle_file, capsys):
        out, graph = oracle_file
        oracle = load_oracle(out)
        assert sorted(oracle.graph.edges()) == sorted(graph.edges())
        assert len(oracle.landmarks) == 3

    def test_build_csr_equals_python(self, edge_list, tmp_path):
        path, _ = edge_list
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["build", str(path), "-o", str(a), "--landmarks", "3"])
        main(["build", str(path), "-o", str(b), "--landmarks", "3", "--csr"])
        assert load_oracle(a).labelling == load_oracle(b).labelling

    def test_build_gzip_output(self, edge_list, tmp_path):
        path, _ = edge_list
        out = tmp_path / "oracle.json.gz"
        assert main(["build", str(path), "-o", str(out)]) == 0
        assert load_oracle(out).graph.num_vertices > 0

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "nope.txt"), "-o", "x.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestQueryAndPath:
    def test_query_prints_distance(self, oracle_file, capsys):
        out, graph = oracle_file
        vertices = sorted(graph.vertices())
        u, v = vertices[0], vertices[-1]
        assert main(["query", str(out), str(u), str(v)]) == 0
        printed = capsys.readouterr().out.strip()
        oracle = load_oracle(out)
        assert printed == str(int(oracle.query(u, v)))

    def test_query_unreachable(self, tmp_path, capsys):
        graph = DynamicGraph.from_edges([(0, 1), (2, 3)])
        edge_path = tmp_path / "g.txt"
        write_edge_list(graph, edge_path)
        out = tmp_path / "o.json"
        main(["build", str(edge_path), "-o", str(out), "--landmarks", "1"])
        main(["query", str(out), "0", "3"])
        assert "unreachable" in capsys.readouterr().out

    def test_path_prints_route(self, oracle_file, capsys):
        out, graph = oracle_file
        vertices = sorted(graph.vertices())
        u, v = vertices[0], vertices[-1]
        assert main(["path", str(out), str(u), str(v)]) == 0
        printed = capsys.readouterr().out.strip()
        hops = [int(x) for x in printed.split(" -> ")]
        assert hops[0] == u and hops[-1] == v
        for a, b in zip(hops, hops[1:]):
            assert graph.has_edge(a, b)


class TestUpdates:
    def test_insert_then_query(self, oracle_file, capsys):
        out, graph = oracle_file
        from tests.conftest import non_edges

        u, v = non_edges(graph)[0]
        assert main(["insert", str(out), str(u), str(v)]) == 0
        main(["query", str(out), str(u), str(v)])
        assert capsys.readouterr().out.strip().endswith("1")

    def test_delete_roundtrip_to_new_file(self, oracle_file, tmp_path, capsys):
        out, graph = oracle_file
        u, v = sorted(graph.edges())[0]
        updated = tmp_path / "updated.json"
        assert main(["delete", str(out), str(u), str(v), "-o", str(updated)]) == 0
        # original untouched, update written elsewhere
        assert load_oracle(out).graph.has_edge(u, v)
        restored = load_oracle(updated)
        assert not restored.graph.has_edge(u, v)
        from repro.core.validation import check_matches_rebuild

        check_matches_rebuild(restored.graph, restored.labelling)


class TestStats:
    def test_stats_prints_summary(self, oracle_file, capsys):
        out, _ = oracle_file
        assert main(["stats", str(out)]) == 0
        output = capsys.readouterr().out
        assert "size(L)" in output
        assert "|R|=3" in output
        assert "busiest landmark" in output


class TestServe:
    def test_serve_parser_defaults(self):
        from repro.cli import _parser

        args = _parser().parse_args(["serve", "oracle.json"])
        assert args.command == "serve"
        assert (args.host, args.port) == ("127.0.0.1", 8355)
        assert args.workers is None and args.max_batch == 128

    def test_serve_stack_from_oracle_file(self, oracle_file):
        # The blocking serve loop is exercised end-to-end via the threaded
        # server it wraps (same OracleServer.from_file warm-start path).
        from repro.serving.client import ServingClient
        from repro.serving.server import OracleServer

        out, graph = oracle_file
        server = OracleServer.from_file(out, port=0, max_batch=16)
        host, port = server.start_in_thread()
        try:
            with ServingClient(host, port) as client:
                u, v = sorted(graph.edges())[0]
                assert client.query(u, v) == 1
                assert client.stats()["num_edges"] == graph.num_edges
        finally:
            server.stop_thread()

    def test_serve_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestTop:
    def test_top_parser_defaults(self):
        from repro.cli import _parser

        args = _parser().parse_args(["top"])
        assert args.command == "top"
        assert (args.host, args.port) == ("127.0.0.1", 8355)
        assert args.interval == 2.0
        assert not args.once and args.count is None

    def test_format_top_single_node(self):
        from repro.cli import format_top

        stats = {
            "epoch": 3, "num_vertices": 16, "num_edges": 24,
            "label_entries": 120, "pending": 0, "running": True,
            "events_applied": 5, "events_rejected": 1,
            "batches": 2,
            "snapshots_published": 3,
            "queries": {"count": 10, "qps": 100.0, "p50_ms": 0.5,
                        "p95_ms": 0.9, "p99_ms": 1.2},
            "updates": {"count": 0},
            "phases": {"find": {"count": 2, "total": 12.5,
                                "p50": 6.0, "p99": 7.0}},
            "aff": {"count": 2, "total": 10, "p50": 5, "p99": 8},
        }
        frame = format_top(stats)
        assert "oracle    epoch=3 |V|=16 |E|=24 size(L)=120" in frame
        assert "queries   n=10 qps=100.0 p50=0.5ms p95=0.9ms p99=1.2ms" in frame
        assert "updates   n=0" in frame
        assert "find" in frame and "total=12.5ms" in frame
        assert "aff/batch n=2" in frame
        assert "DEGRADED" not in frame

    def test_format_top_marks_degraded_writer(self):
        from repro.cli import format_top

        frame = format_top({"running": False, "degraded": "boom"})
        assert "DEGRADED: boom" in frame

    def test_format_top_router(self):
        from repro.cli import format_top

        stats = {
            "role": "router", "log_head": 7, "log_base": 2,
            "wal": {"segments": 1, "bytes": 2048}, "fsync": "batch",
            "reads_routed": 20, "writes_appended": 7, "fanout_batches": 4,
            "router": {"queries": {"count": 20, "qps": 10.0, "p50_ms": 1.0},
                       "updates": {"count": 7}},
            "aggregate": {
                "events_applied": 14, "events_rejected": 0,
                "snapshots_published": 2,
                "queries": {"count": 20, "qps": 9.0, "p50_ms": 1.5,
                            "p95_ms": 2.0, "p99_ms": 2.5, "merge": "exact"},
                "updates": {"count": 0, "merge": "exact"},
            },
            "replicas": {
                "r0": {"healthy": True, "acked_seq": 7, "lag": 0,
                       "service": {"epoch": 7, "pending": 0,
                                   "queries": {"count": 10}}},
                "r1": {"healthy": False, "acked_seq": 5, "lag": 2},
            },
        }
        frame = format_top(stats)
        assert "cluster   log head=7 base=2 wal=1 segs/2,048B fsync=batch" in frame
        assert "merge=exact" in frame
        assert "replica r0  healthy acked=7 lag=0" in frame
        assert "replica r1  UNHEALTHY acked=5 lag=2" in frame
        assert frame.index("replica r0") < frame.index("replica r1")

    def test_format_top_sharded_router(self):
        from repro.cli import format_top

        stats = {
            "role": "router", "log_head": 4, "log_base": 0,
            "wal": {"segments": 1, "bytes": 512}, "fsync": "batch",
            "num_shards": 2,
            "reads_routed": 8, "writes_appended": 4, "fanout_batches": 2,
            "router": {"queries": {"count": 8}, "updates": {"count": 4}},
            "aggregate": {"events_applied": 16, "events_rejected": 0,
                          "snapshots_published": 0,
                          "queries": {"count": 8}, "updates": {"count": 0}},
            "shards": {
                "0": {"replicas": 2, "healthy": 2, "acked_seq": 4,
                      "lag": 0, "rss_kb_max": 30000},
                "1": {"replicas": 2, "healthy": 1, "acked_seq": 4,
                      "lag": 1, "rss_kb_max": 29000},
            },
            "replicas": {
                "s0r0": {"shard": 0, "healthy": True, "acked_seq": 4, "lag": 0},
                "s1r0": {"shard": 1, "healthy": True, "acked_seq": 3, "lag": 1},
            },
        }
        frame = format_top(stats)
        assert "shard s0   healthy=2/2 acked=4 lag=0 rss_max=30,000KiB" in frame
        assert "shard s1   healthy=1/2 acked=4 lag=1 rss_max=29,000KiB" in frame
        assert "replica s0r0  shard=s0 healthy acked=4 lag=0" in frame
        assert "replica s1r0  shard=s1 healthy acked=3 lag=1" in frame

    def test_top_once_against_live_server(self, oracle_file, capsys):
        from repro.serving.server import OracleServer

        out, _ = oracle_file
        server = OracleServer.from_file(out, port=0)
        host, port = server.start_in_thread()
        try:
            code = main(["top", "--host", host, "--port", str(port), "--once"])
        finally:
            server.stop_thread()
        assert code == 0
        frame = capsys.readouterr().out
        assert f"--- {host}:{port} at " in frame
        assert "oracle    epoch=0" in frame
        assert "writer    pending=0 running=True" in frame

    def test_top_unreachable_server_reports_error(self, capsys):
        assert main(["top", "--port", "1", "--once"]) == 1
        assert "error" in capsys.readouterr().err


class TestWatchAndGrowth:
    def test_top_watch_parser(self):
        from repro.cli import _parser

        args = _parser().parse_args(["top", "--watch", "0.5"])
        assert args.watch == 0.5
        assert _parser().parse_args(["top"]).watch is None

    def test_format_top_appends_wal_growth_when_present(self):
        from repro.cli import format_top

        stats = {
            "role": "router", "log_head": 7, "log_base": 2,
            "wal": {"segments": 1, "bytes": 2048,
                    "wal_growth_bytes_per_s": 512.25},
            "fsync": "batch",
            "reads_routed": 0, "writes_appended": 7, "fanout_batches": 4,
            "router": {"queries": {"count": 0}, "updates": {"count": 7}},
            "aggregate": {"events_applied": 14, "events_rejected": 0,
                          "snapshots_published": 2,
                          "queries": {"count": 0}, "updates": {"count": 0}},
            "replicas": {},
        }
        frame = format_top(stats)
        assert "wal=1 segs/2,048B fsync=batch growth=512B/s" in frame

    def test_format_top_omits_growth_when_unmeasured(self):
        from repro.cli import format_top

        stats = {
            "role": "router", "log_head": 0, "log_base": 0,
            "wal": {"segments": 0, "bytes": 0,
                    "wal_growth_bytes_per_s": None},
            "fsync": "batch",
            "reads_routed": 0, "writes_appended": 0, "fanout_batches": 0,
            "router": {"queries": {"count": 0}, "updates": {"count": 0}},
            "aggregate": {"events_applied": 0, "events_rejected": 0,
                          "snapshots_published": 0,
                          "queries": {"count": 0}, "updates": {"count": 0}},
            "replicas": {},
        }
        assert "growth=" not in format_top(stats)


class TestSloResolution:
    def test_serve_slo_parser_default_is_off(self):
        from repro.cli import _parser

        args = _parser().parse_args(["serve", "oracle.json"])
        assert args.slo is None and args.history is None

    def test_resolve_default_rules_per_role(self):
        from repro.cli import _resolve_slos

        assert _resolve_slos(None, "server") is None
        server_names = {s.name for s in _resolve_slos("default", "server")}
        router_names = {s.name for s in _resolve_slos("default", "router")}
        assert "wal-growth" in router_names - server_names

    def test_resolve_rules_file(self, tmp_path):
        from repro.cli import _resolve_slos

        rules = tmp_path / "rules.json"
        rules.write_text(
            '[{"name": "p99", "metric": "query_p99_ms", "objective": 5}]'
        )
        (slo,) = _resolve_slos(str(rules), "server")
        assert slo.name == "p99"


class TestDash:
    def test_dash_parser_defaults(self):
        from repro.cli import _parser

        args = _parser().parse_args(["dash"])
        assert args.command == "dash"
        assert (args.host, args.port) == ("127.0.0.1", 8355)
        assert args.interval == 2.0 and args.points == 120
        assert not args.once and args.count is None

    def test_sparkline_shapes(self):
        from repro.cli import sparkline

        assert sparkline([0, 1, 2, 3]) == "▁▃▅█"
        assert sparkline([5, 5, 5]) == "▁▁▁"  # flat series, lowest glyph
        assert sparkline([0, None, 4]) == "▁ █"  # gaps render as spaces
        assert sparkline([]) == ""
        assert len(sparkline(range(100), width=10)) == 10

    def test_format_dash_empty(self):
        from repro.cli import format_dash

        assert "no points yet" in format_dash([])

    def test_format_dash_orders_preferred_keys_first(self):
        from repro.cli import format_dash

        points = [
            {"ts": 100.0, "qps": 10.0, "zz_custom": 1, "rss_kb": 9000},
            {"ts": 105.0, "qps": 20.0, "zz_custom": 2, "rss_kb": 9100},
        ]
        frame = format_dash(points)
        assert "history   n=2 span=5s" in frame
        lines = frame.splitlines()
        order = [line.split()[0] for line in lines[1:]]
        assert order == ["qps", "rss_kb", "zz_custom"]
        assert "20" in lines[1]  # last value annotated after the sparkline

    def test_format_dash_renders_slo_lines(self):
        from repro.cli import format_dash

        alerts = {
            "evaluations": [
                {"slo": "query-p99", "firing": True, "burn": 4.0,
                 "metric": "query_p99_ms", "direction": "above",
                 "objective": 100.0},
                {"slo": "error-rate", "firing": False, "burn": 0.0,
                 "metric": "error_rate", "direction": "above",
                 "objective": 0.01},
            ],
            "slos": [],
        }
        frame = format_dash([{"ts": 1.0, "qps": 1.0}], alerts)
        assert "slo FIRING query-p99" in frame
        assert "slo ok     error-rate" in frame

    def test_format_dash_notes_rules_without_evaluations(self):
        from repro.cli import format_dash

        frame = format_dash([], {"evaluations": [], "slos": [{"name": "x"}]})
        assert "1 rule(s), no evaluations yet" in frame
        assert "(none configured)" in format_dash(
            [], {"evaluations": [], "slos": []}
        )

    def test_dash_once_against_live_server(self, oracle_file, capsys):
        from repro.serving.server import OracleServer

        out, _ = oracle_file
        server = OracleServer.from_file(out, port=0)
        host, port = server.start_in_thread()
        try:
            code = main(["dash", "--host", host, "--port", str(port),
                         "--once"])
        finally:
            server.stop_thread()
        assert code == 0
        frame = capsys.readouterr().out
        # No recorder on the server: the dash synthesizes a local point.
        assert "history   n=1" in frame

    def test_dash_unreachable_server_reports_error(self, capsys):
        assert main(["dash", "--port", "1", "--once"]) == 1
        assert "error" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_parser_defaults(self):
        from repro.cli import _parser

        args = _parser().parse_args(["profile"])
        assert args.command == "profile"
        assert args.action == "dump"
        assert args.folded is None and args.top == 5

    def test_profile_cycle_against_live_server(self, oracle_file, tmp_path,
                                               capsys):
        from repro.obs.profile import reset_profiler
        from repro.serving.server import OracleServer

        out, _ = oracle_file
        reset_profiler()
        server = OracleServer.from_file(out, port=0)
        host, port = server.start_in_thread()
        target = ["--host", host, "--port", str(port)]
        try:
            assert main(["profile", *target, "--action", "start"]) == 0
            assert "running=True" in capsys.readouterr().out
            folded_file = tmp_path / "out.folded"
            assert main(["profile", *target, "--action", "stop",
                         "--folded", str(folded_file)]) == 0
        finally:
            server.stop_thread()
            reset_profiler()
        frame = capsys.readouterr().out
        assert "running=False" in frame

    def test_profile_unreachable_server_reports_error(self, capsys):
        assert main(["profile", "--port", "1"]) == 1
        assert "error" in capsys.readouterr().err
