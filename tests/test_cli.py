from __future__ import annotations

import json
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import blank_closure, expand_jsonld, structural_form
from strategies import DEEP_JSON, MISTYPED_PROFILES, MISTYPED_RULES, hostile_text, mistyped_profiles, tif_documents
from tifsem import fixtures
from tifsem.cli import main
from tifsem.graph import XSD_DECIMAL, BlankNode, Graph, IRI, Literal, assert_io, mint_io_iri
from tifsem.ingest import RawDocument, parse_tif, save_profile
from tifsem.mapping import builtin_rules, materialize
from tifsem.query import evaluate, parse_query, to_csv
from tifsem.serialize import from_ntriples, to_ntriples


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    result = runner.invoke(main, ["fixtures", "generate", "--out-dir", str(tmp_path / "data")])
    assert result.exit_code == 0, result.output
    return tmp_path


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def two_inputs_sharing_an_id(tmp_path) -> tuple[Path, Path]:
    """Two one-resource files whose resources both carry the id R-1."""
    paths = []
    for name, title in (("a", "A"), ("b", "B")):
        path = tmp_path / f"{name}.xml"
        path.write_text(f"<TIF><Resource><DublinCore><Identifier>R-1</Identifier><Title>{title}</Title>"
                        "</DublinCore></Resource></TIF>")
        paths.append(path)
    return paths[0], paths[1]


class TestIngest:
    def test_dialects_produce_byte_identical_graphs(self, runner, workspace):
        data = workspace / "data"
        for name, profile in [("v3", "tif_v3"), ("a", "dialect_a")]:
            result = run(
                runner, "ingest", data / f"la_rochelle_{'v3' if name == 'v3' else 'dialect_a'}.xml",
                "--profile", data / "profiles" / f"{profile}.json",
                "--out", workspace / f"{name}.nt",
            )
            assert result.exit_code == 0, result.output
        assert (workspace / "v3.nt").read_bytes() == (workspace / "a.nt").read_bytes()

    def test_v3_fixture_issue_file_empty(self, runner, workspace):
        data = workspace / "data"
        result = run(runner, "ingest", data / "la_rochelle_v3.xml",
                     "--out", workspace / "clean.nt")
        assert result.exit_code == 0, result.output
        assert (workspace / "clean.issues.tsv").read_text() == ""

    def test_empty_input_list_is_usage_error(self, runner):
        result = run(runner, "ingest", "--out", "x.nt")
        assert result.exit_code == 2

    def test_unreadable_input_exits_2(self, runner, tmp_path):
        result = run(runner, "ingest", tmp_path / "missing.xml", "--out", tmp_path / "x.nt")
        assert result.exit_code == 2

    def test_jsonld_output_refused_before_reading_input(self, runner, workspace):
        data = workspace / "data"
        for source in (data / "la_rochelle_v3.xml", workspace / "missing.xml"):
            result = run(runner, "ingest", source, "--out", workspace / "x.jsonld")
            assert result.exit_code == 2
            assert "writes nt or ttl, not jsonld" in result.output
        assert not (workspace / "x.jsonld").exists()
        assert not (workspace / "x.issues.tsv").exists()

    def test_malformed_xml_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<TIF><Resource>")
        result = run(runner, "ingest", bad, "--out", tmp_path / "x.nt")
        assert result.exit_code == 1

    def test_error_issues_exit_1_but_graph_written(self, runner, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text(
            "<TIF><Resource><Geolocation><Latitude>91</Latitude></Geolocation></Resource></TIF>"
        )
        result = run(runner, "ingest", bad, "--out", tmp_path / "x.nt")
        assert result.exit_code == 1
        assert (tmp_path / "x.issues.tsv").read_text().startswith("ERROR\t")

    def test_decimal_with_huge_plain_form_is_an_error_issue(self, runner, tmp_path):
        # The 31-byte leaf would be a literal of ten million characters.
        big = tmp_path / "big.xml"
        big.write_text("<TIF><Resource><Prices><Amount>1E+10000000</Amount></Prices></Resource></TIF>")
        tracemalloc.start()
        try:
            result = run(runner, "ingest", big, "--out", tmp_path / "x.nt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 1
        assert (tmp_path / "x.issues.tsv").read_text().startswith("ERROR\t")
        assert "Prices/Amount" in (tmp_path / "x.issues.tsv").read_text()
        assert peak < 1_000_000

    def test_equal_decimals_keep_their_own_lexical_forms(self, runner, tmp_path):
        # 1.0 == 1.00 and 0 == -0, with equal hashes; each resource keeps its form.
        amounts = ["1.0", "1.00", "0", "-0", "1.0"]
        doc = tmp_path / "prices.xml"
        doc.write_text("<TIF>" + "".join(
            f"<Resource><DublinCore><Identifier>P-{i}</Identifier></DublinCore>"
            f"<Prices><Amount>{amount}</Amount></Prices></Resource>" for i, amount in enumerate(amounts)
        ) + "</TIF>", encoding="utf-8")
        result = run(runner, "ingest", doc, "--out", tmp_path / "g.nt")
        assert result.exit_code == 0, result.output
        g = from_ntriples((tmp_path / "g.nt").read_text(encoding="utf-8"))
        for i, amount in enumerate(amounts):
            io_iri = mint_io_iri("http://example.org/tifsem", f"P-{i}")
            nodes = [t.object for t in g.match(subject=io_iri) if isinstance(t.object, BlankNode)]
            lexicals = [t.object.lexical for node in nodes for t in g.match(subject=node)
                        if isinstance(t.object, Literal) and t.object.datatype == XSD_DECIMAL]
            assert lexicals == [amount]

    def test_ids_with_colliding_old_escapes_get_disjoint_granule_nodes(self, runner, tmp_path):
        # "à1" and "ก" (U+0E01) were both escaped to _e01 in blank-node labels.
        doc = tmp_path / "ids.xml"
        doc.write_text("<TIF>" + "".join(
            f"<Resource><DublinCore><Identifier>{io_id}</Identifier><Title>{io_id}</Title></DublinCore></Resource>"
            for io_id in ("à1", "ก")
        ) + "</TIF>", encoding="utf-8")
        result = run(runner, "ingest", doc, "--out", tmp_path / "g.nt")
        assert result.exit_code == 0, result.output
        g = from_ntriples((tmp_path / "g.nt").read_text(encoding="utf-8"))
        nodes = [{t.object for t in g.match(subject=mint_io_iri("http://example.org/tifsem", io_id))
                  if isinstance(t.object, BlankNode)} for io_id in ("à1", "ก")]
        assert all(nodes) and not nodes[0] & nodes[1]
        assert len(g) == 2 * 5  # per IO: type, hasGranule, granule type, identifier, title

    def test_base_iri_flag(self, runner, workspace):
        data = workspace / "data"
        result = run(runner, "ingest", data / "la_rochelle_v3.xml",
                     "--base", "https://kg.example.net/tourism",
                     "--out", workspace / "based.nt")
        assert result.exit_code == 0
        text = (workspace / "based.nt").read_text()
        assert "https://kg.example.net/tourism/io/HOT-001" in text

    def test_base_iri_env_var(self, runner, workspace, monkeypatch):
        monkeypatch.setenv("TIFSEM_BASE_IRI", "https://env.example.net/t")
        data = workspace / "data"
        result = run(runner, "ingest", data / "la_rochelle_v3.xml",
                     "--out", workspace / "env.nt")
        assert result.exit_code == 0
        assert "https://env.example.net/t/io/HOT-001" in (workspace / "env.nt").read_text()

    @pytest.mark.parametrize("base", ["http://a b/", "http://x/<>", "", "http://x/\ud800"])
    def test_hostile_base_flag_is_usage_error(self, runner, workspace, base):
        result = run(runner, "ingest", workspace / "data" / "la_rochelle_v3.xml",
                     "--base", base, "--out", workspace / "based.nt")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--base" in result.output
        assert not (workspace / "based.nt").exists()
        assert not (workspace / "based.issues.tsv").exists()

    def test_hostile_base_env_var_is_usage_error(self, runner, workspace, monkeypatch):
        monkeypatch.setenv("TIFSEM_BASE_IRI", "http://x/<>")
        result = run(runner, "ingest", workspace / "missing.xml", "--out", workspace / "env.nt")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--base" in result.output
        assert not (workspace / "env.nt").exists()
        assert not (workspace / "env.issues.tsv").exists()

    def test_warnings_do_not_fail_the_run(self, runner, tmp_path):
        noisy = tmp_path / "noisy.xml"
        noisy.write_text(
            "<TIF><Resource>"
            "<DublinCore><Identifier>W-1</Identifier></DublinCore>"
            "<Mystery>kept nowhere</Mystery>"
            "</Resource></TIF>"
        )
        result = run(runner, "ingest", noisy, "--out", tmp_path / "w.nt")
        assert result.exit_code == 0, result.output
        assert "WARNING\t" in (tmp_path / "w.issues.tsv").read_text()

    def test_wrong_profile_names_itself_and_keeps_every_resource(self, runner, workspace):
        # Dialect A under the dialect-B profile maps no canonical field, so
        # each resource is told apart by its extension fields.
        data = workspace / "data"
        result = run(runner, "ingest", data / "la_rochelle_dialect_a.xml",
                     "--profile", data / "profiles" / "dialect_b.json", "--out", workspace / "wrong.nt")
        assert result.exit_code == 0, result.output
        assert "0 error(s), 25 warning(s)" in result.output
        report = [line.split("\t") for line in (workspace / "wrong.issues.tsv").read_text().splitlines()]
        assert [(severity, path, message) for severity, _, path, message in report] == [
            ("WARNING", "Objet", "no canonical field mapped; check the profile")] * 25
        assert len({io_id for _, io_id, _, _ in report}) == 25
        graph = from_ntriples((workspace / "wrong.nt").read_text())
        assert len(list(graph.match(object=IRI("http://example.org/tifsem/ns#InformationObject")))) == 25

    def test_multiple_inputs_merge(self, runner, tmp_path):
        one = tmp_path / "one.xml"
        two = tmp_path / "two.xml"
        one.write_text("<TIF><Resource><DublinCore><Identifier>A-1</Identifier></DublinCore></Resource></TIF>")
        two.write_text("<TIF><Resource><DublinCore><Identifier>B-1</Identifier></DublinCore></Resource></TIF>")
        result = run(runner, "ingest", one, two, "--out", tmp_path / "merged.nt")
        assert result.exit_code == 0, result.output
        text = (tmp_path / "merged.nt").read_text()
        assert "io/A-1" in text and "io/B-1" in text

    def test_id_in_an_earlier_input_blocks_it_in_every_input(self, runner, tmp_path):
        one, two = two_inputs_sharing_an_id(tmp_path)
        result = run(runner, "ingest", one, two, "--out", tmp_path / "g.nt")
        assert result.exit_code == 1, result.output
        assert "io/R-1" not in (tmp_path / "g.nt").read_text()
        assert (tmp_path / "g.issues.tsv").read_text() == (
            "ERROR\tR-1\tDublinCore/Identifier\tduplicate identifier 'R-1' in an earlier input\n")

    def test_the_same_input_twice_is_an_error(self, runner, tmp_path):
        one, _ = two_inputs_sharing_an_id(tmp_path)
        result = run(runner, "ingest", one, one, "--out", tmp_path / "g.nt")
        assert result.exit_code == 1, result.output
        assert (tmp_path / "g.nt").read_text() == ""

    def test_turtle_output_inferred_from_extension(self, runner, workspace):
        data = workspace / "data"
        result = run(runner, "ingest", data / "la_rochelle_v3.xml",
                     "--out", workspace / "graph.ttl")
        assert result.exit_code == 0, result.output
        assert (workspace / "graph.ttl").read_text().startswith("@prefix")

    def test_format_option_is_usage_error(self, runner, workspace):
        # The --out extension names the graph format; there is no --format.
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        for args in (["ingest", data / "la_rochelle_v3.xml"], ["map", "--graph", workspace / "g.nt"]):
            result = run(runner, *args, "--format", "nt", "--out", workspace / "graph.ttl")
            assert result.exit_code == 2
            assert "No such option" in result.output and "--format" in result.output
            assert not (workspace / "graph.ttl").exists()


class TestMap:
    def test_jsonld_output_refused_before_reading_graph(self, runner, workspace):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        for graph in (workspace / "g.nt", workspace / "missing.nt"):
            result = run(runner, "map", "--graph", graph, "--out", workspace / "m.jsonld")
            assert result.exit_code == 2
            assert "writes nt or ttl, not jsonld" in result.output
        assert not (workspace / "m.jsonld").exists()

    def test_map_reports_inferred_and_lacking(self, runner, workspace):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        result = run(runner, "map", "--graph", workspace / "g.nt", "--out", workspace / "m.nt")
        assert result.exit_code == 0, result.output
        assert result.output.startswith("inferred ")
        lacking = [l for l in result.output.splitlines() if "has no Schema.org mapping" in l]
        assert len(lacking) == 10

    def test_already_materialized_infers_zero(self, runner, workspace):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        run(runner, "map", "--graph", workspace / "g.nt", "--out", workspace / "m1.nt")
        result = run(runner, "map", "--graph", workspace / "m1.nt", "--out", workspace / "m2.nt")
        assert "inferred 0 triple(s)" in result.output
        assert (workspace / "m1.nt").read_bytes() == (workspace / "m2.nt").read_bytes()

    @pytest.mark.parametrize("text", [
        '[{"source": "tifsem:Nope", "target": "schema:Thing", "relation": "SubClassOf"}]',
        *MISTYPED_RULES,
        pytest.param(DEEP_JSON, id="deep-json"),
    ])
    def test_bad_rules_file_exits_1(self, runner, tmp_path, text):
        graph = tmp_path / "g.nt"
        graph.write_text('<http://e/s> <http://e/p> "x" .\n', encoding="utf-8")
        rules = tmp_path / "rules.json"
        rules.write_text(text, encoding="utf-8")
        result = run(runner, "map", "--graph", graph, "--rules", rules, "--out", tmp_path / "m.nt")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {rules}: ") and result.stdout == ""
        assert not (tmp_path / "m.nt").exists()

    def test_surrogate_escape_exits_1(self, runner, tmp_path):
        graph = tmp_path / "g.nt"
        graph.write_text('<http://e/s> <http://e/p> "\\uD800" .\n', encoding="utf-8")
        result = run(runner, "map", "--graph", graph, "--out", tmp_path / "m.nt")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error:")
        assert not (tmp_path / "m.nt").exists()

    def test_raw_carriage_return_in_a_literal_is_kept(self, runner, tmp_path):
        graph = tmp_path / "g.nt"
        graph.write_bytes(b'<http://e/s> <http://e/p> "a\rb" .\r\n')
        result = run(runner, "map", "--graph", graph, "--out", tmp_path / "m.nt")
        assert result.exit_code == 0, result.output
        assert '<http://e/s> <http://e/p> "a\\rb" .' in (tmp_path / "m.nt").read_text(encoding="utf-8")
        query = tmp_path / "q.rq"
        query.write_text("SELECT ?o WHERE { <http://e/s> <http://e/p> ?o }", encoding="utf-8")
        result = run(runner, "query", "--graph", graph, "--query", query)
        assert result.exit_code == 0, result.output
        assert result.stdout == 'o\n------\n"a\\rb"\n'

    def test_errors_name_the_line_the_library_names(self, runner, tmp_path):
        text = '\r\r\n<http://e/s> <http://e/p> "a" .\r\r\n# c\r\n<http://e/s> <http://e/p> "b"\r\r\r\n'
        graph = tmp_path / "g.nt"
        graph.write_bytes(text.encode("utf-8"))
        result = run(runner, "map", "--graph", graph, "--out", tmp_path / "m.nt")
        assert result.exit_code == 1
        assert result.stderr == f"error: {graph}: line 4: column 30: statement must end with '.'\n"

    def test_non_utf8_graph_exits_2(self, runner, tmp_path):
        graph = tmp_path / "g.nt"
        graph.write_bytes(b'<http://e/s> <http://e/p> "\xe9" .\n')
        result = run(runner, "map", "--graph", graph, "--out", tmp_path / "m.nt")
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {graph}: ")
        assert not (tmp_path / "m.nt").exists()

    def test_extra_rules_applied(self, runner, workspace, tmp_path):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"source": "tifsem:Capacity", "target": "schema:Offer", "relation": "SubClassOf"},
        ]))
        result = run(runner, "map", "--graph", workspace / "g.nt",
                     "--rules", rules, "--out", workspace / "m.nt")
        assert result.exit_code == 0
        lacking = [l for l in result.output.splitlines() if "has no Schema.org mapping" in l]
        assert len(lacking) == 9


class TestQuery:
    def test_example1_csv_matches_golden(self, runner, workspace, data_dir):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        run(runner, "map", "--graph", workspace / "g.nt", "--out", workspace / "m.nt")
        result = run(runner, "query", "--graph", workspace / "m.nt",
                     "--query", data / "queries" / "example1.rq", "--format", "csv")
        assert result.exit_code == 0, result.output
        golden = (data_dir / "example1_results.csv").read_text(encoding="utf-8")
        assert result.output == golden

    def test_syntax_error_exits_1_with_position(self, runner, workspace, tmp_path):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        bad = tmp_path / "bad.rq"
        bad.write_text("SELECT WHERE { }")
        result = run(runner, "query", "--graph", workspace / "g.nt", "--query", bad)
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {bad}: at offset ")

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\u12", "\\uDFFF"])
    def test_bad_string_escape_exits_1(self, runner, tmp_path, escape):
        graph = tmp_path / "g.nt"
        graph.write_text('<http://e/s> <http://e/p> "x" .\n', encoding="utf-8")
        q = tmp_path / "q.rq"
        q.write_text(f'SELECT ?s WHERE {{ ?s ?p "{escape}" }}', encoding="utf-8")
        result = run(runner, "query", "--graph", graph, "--query", q)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error:")

    def test_non_utf8_query_exits_2(self, runner, tmp_path):
        graph = tmp_path / "g.nt"
        graph.write_text('<http://e/s> <http://e/p> "x" .\n', encoding="utf-8")
        q = tmp_path / "q.rq"
        q.write_bytes(b'SELECT ?s WHERE { ?s ?p "\xe9" }')
        result = run(runner, "query", "--graph", graph, "--query", q)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {q}: ")

    def test_limit_zero_header_only(self, runner, workspace, tmp_path):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        run(runner, "map", "--graph", workspace / "g.nt", "--out", workspace / "m.nt")
        q = tmp_path / "q.rq"
        q.write_text(fixtures.EXAMPLE2_QUERY.rstrip() + "\nLIMIT 0\n")
        result = run(runner, "query", "--graph", workspace / "m.nt", "--query", q, "--format", "csv")
        assert result.exit_code == 0
        assert result.output == "event,audience,profile\n"


class TestExport:
    def test_export_round_trips(self, runner, workspace):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        run(runner, "map", "--graph", workspace / "g.nt", "--out", workspace / "m.nt")
        root = "http://example.org/tifsem/io/HOT-001"
        result = run(runner, "export", "--graph", workspace / "m.nt",
                     "--root", root, "--out", workspace / "hotel.jsonld")
        assert result.exit_code == 0, result.output
        document = json.loads((workspace / "hotel.jsonld").read_text(encoding="utf-8"))
        graph = from_ntriples((workspace / "m.nt").read_text(encoding="utf-8"))
        expanded = expand_jsonld(document)
        closure = blank_closure(list(graph), IRI(root))
        assert structural_form(expanded, IRI(root)) == structural_form(closure, IRI(root))

    def test_graph_extension_is_usage_error(self, runner, workspace):
        result = run(runner, "export", "--graph", workspace / "missing.nt",
                     "--root", "http://example.org/tifsem/io/HOT-001", "--out", workspace / "graph.nt")
        assert result.exit_code == 2
        assert "writes jsonld, not nt" in result.output
        assert not (workspace / "graph.nt").exists()

    def test_missing_root_exits_1(self, runner, workspace):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        result = run(runner, "export", "--graph", workspace / "g.nt",
                     "--root", "http://example.org/tifsem/io/NOPE", "--out", workspace / "x.jsonld")
        assert result.exit_code == 1

    @pytest.mark.parametrize("length", [500, 5000])
    def test_deep_blank_node_chain_exits_1(self, runner, tmp_path, length):
        lines = ["<http://e/root> <http://e/p> _:b0 ."]
        lines += [f"_:b{i} <http://e/p> _:b{i + 1} ." for i in range(length - 1)]
        lines.append(f'_:b{length - 1} <http://e/p> "end" .')
        graph = tmp_path / "chain.nt"
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run(runner, "export", "--graph", graph, "--root", "http://e/root", "--out", tmp_path / "x.jsonld")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and "nested too deeply" in result.stderr
        assert not (tmp_path / "x.jsonld").exists()

    def test_iri_that_reads_back_as_another_exits_1(self, runner, tmp_path):
        graph = tmp_path / "g.nt"
        graph.write_text('<http://e/s> <tifsem:name> "x" .\n'
                         '<http://e/s> <http://example.org/tifsem/ns#name> "y" .\n', encoding="utf-8")
        result = run(runner, "export", "--graph", graph, "--root", "http://e/s", "--out", tmp_path / "x.jsonld")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: IRI tifsem:name ")
        assert not (tmp_path / "x.jsonld").exists()


class TestValidate:
    def test_clean_fixture_exits_0(self, runner, workspace):
        data = workspace / "data"
        result = run(runner, "validate", data / "la_rochelle_v3.xml")
        assert result.exit_code == 0
        assert result.output == ""

    def test_invalid_data_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text(
            "<TIF><Resource><Geolocation><Latitude>95</Latitude></Geolocation></Resource></TIF>"
        )
        result = run(runner, "validate", bad)
        assert result.exit_code == 1
        assert "ERROR\t" in result.output

    def test_id_in_an_earlier_input_exits_1(self, runner, tmp_path):
        result = run(runner, "validate", *two_inputs_sharing_an_id(tmp_path))
        assert result.exit_code == 1
        assert result.output.endswith("\tduplicate identifier 'R-1' in an earlier input\n")

    def test_nan_latitude_is_an_error_line_not_a_crash(self, runner, tmp_path):
        bad = tmp_path / "nan.xml"
        bad.write_text("<TIF><Resource><Geolocation><Latitude>NaN</Latitude></Geolocation></Resource></TIF>")
        result = run(runner, "validate", bad)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("ERROR\t")
        assert "Geolocation/Latitude" in result.output

    def test_unreadable_input_exits_2(self, runner, tmp_path):
        result = run(runner, "validate", tmp_path / "missing.xml")
        assert result.exit_code == 2

    def test_report_has_one_line_per_issue_with_three_tabs(self, runner, tmp_path):
        # An identifier holding a tab and a line feed, and one holding a
        # backslash and a carriage return.
        doc = tmp_path / "ids.xml"
        doc.write_text(
            '<TIF><Resource kind="x"><DublinCore><Identifier>A&#9;B\nC</Identifier></DublinCore>'
            "<Geolocation><Latitude>NaN</Latitude></Geolocation></Resource>"
            '<Resource kind="y"><DublinCore><Identifier>D\\E&#13;F</Identifier></DublinCore>'
            "<Mystery>m</Mystery></Resource></TIF>", encoding="utf-8")
        _, issues = parse_tif(RawDocument.from_path(doc))
        result = run(runner, "validate", doc)
        assert result.exit_code == 1
        lines = result.output.split("\n")
        assert lines.pop() == "" and len(lines) == len(issues) == 4
        assert all(line.count("\t") == 3 for line in lines)
        assert [line.split("\t")[1] for line in lines] == ["A\\tB\\nC"] * 2 + ["D\\\\E\\rF"] * 2


class TestUnreadableEncoding:
    @pytest.mark.parametrize("command", ["ingest", "validate"])
    @pytest.mark.parametrize("encoding", ["bogus", "shift_jis"])
    def test_declared_encoding_exits_1_with_error_line(self, runner, tmp_path, command, encoding):
        path = tmp_path / "in.xml"
        path.write_bytes(f'<?xml version="1.0" encoding="{encoding}"?><TIF/>'.encode("ascii"))
        args = [command, path] + (["--out", tmp_path / "g.nt"] if command == "ingest" else [])
        result = run(runner, *args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {path}: ") and result.stdout == ""


class TestMistypedProfile:
    @pytest.mark.parametrize("command", ["ingest", "validate"])
    @pytest.mark.parametrize("text", [*MISTYPED_PROFILES, pytest.param(DEEP_JSON, id="deep-json")])
    def test_mistyped_profile_exits_1_with_error_line(self, runner, tmp_path, data_dir, command, text):
        (tmp_path / "profile.json").write_text(text, encoding="utf-8")
        args = [command, data_dir / "fixture_dialect_b.xml", "--profile", tmp_path / "profile.json"]
        if command == "ingest":
            args += ["--out", tmp_path / "g.nt"]
        result = run(runner, *args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {tmp_path / 'profile.json'}: ") and result.stdout == ""
        assert not (tmp_path / "g.nt").exists()


class TestSharedParseAndValidate:
    """``ingest`` and ``validate`` report the same issues for the same inputs."""

    @pytest.mark.parametrize("name, profile", [
        ("fixture_v3.xml", fixtures.profile_v3),
        ("fixture_dialect_a.xml", fixtures.profile_dialect_a),
        ("fixture_dialect_b.xml", fixtures.profile_dialect_b),
    ])
    @pytest.mark.parametrize("with_profile", [True, False])
    def test_validate_stdout_equals_ingest_issue_file(self, runner, tmp_path, data_dir,
                                                      name, profile, with_profile):
        args = [data_dir / name]
        if with_profile:
            (tmp_path / "profile.json").write_text(save_profile(profile()), encoding="utf-8")
            args += ["--profile", tmp_path / "profile.json"]
        ingested = run(runner, "ingest", *args, "--out", tmp_path / "g.nt")
        validated = run(runner, "validate", *args)
        assert (ingested.exit_code, validated.exit_code) == (0, 0)
        report = (tmp_path / "g.issues.tsv").read_text(encoding="utf-8")
        assert validated.output == report
        assert (report == "") == (with_profile or name == "fixture_v3.xml")

    def test_ingest_and_validate_never_call_validate_io(self, runner, tmp_path, data_dir, monkeypatch):
        # parse_tif checks every leaf; the commands add no second pass.
        from tifsem import ingest

        original, calls = ingest.validate_io, []

        def counted(io, *args, **kwargs):
            calls.append(io.id)
            return original(io, *args, **kwargs)

        monkeypatch.setattr(ingest, "validate_io", counted)
        result = run(runner, "ingest", data_dir / "fixture_v3.xml", "--out", tmp_path / "g.nt")
        assert result.exit_code == 0, result.output
        result = run(runner, "validate", data_dir / "fixture_v3.xml")
        assert result.exit_code == 0, result.output
        assert calls == []

    def test_error_issues_block_only_their_io(self, runner, tmp_path):
        noisy = tmp_path / "noisy.xml"
        noisy.write_text(
            '<TIF><Resource kind="x"><DublinCore><Identifier>N-1</Identifier></DublinCore></Resource>'
            "<Resource><DublinCore><Identifier>N-1</Identifier></DublinCore></Resource>"
            "<Resource><DublinCore><Identifier>N-2</Identifier></DublinCore>"
            "<Geolocation><Latitude>NaN</Latitude></Geolocation></Resource>"
            "<Resource><DublinCore><Identifier>N-3</Identifier></DublinCore>"
            "<Prices><Amount>Infinity</Amount></Prices></Resource>"
            "<Resource><DublinCore><Identifier>N-4</Identifier></DublinCore></Resource></TIF>"
        )
        ingested = run(runner, "ingest", noisy, "--out", tmp_path / "g.nt")
        validated = run(runner, "validate", noisy)
        assert (ingested.exit_code, validated.exit_code) == (1, 1)
        assert validated.output == (tmp_path / "g.issues.tsv").read_text(encoding="utf-8")
        text = (tmp_path / "g.nt").read_text(encoding="utf-8")
        assert "io/N-4>" in text
        assert "io/N-1>" not in text and "io/N-2>" not in text and "io/N-3>" not in text
        assert "NaN" not in text and "Infinity" not in text


class TestPipelineComposition:
    def test_file_pipeline_equals_in_process(self, runner, workspace, la_rochelle_ios):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        run(runner, "map", "--graph", workspace / "g.nt", "--out", workspace / "m.nt")
        cli_result = run(runner, "query", "--graph", workspace / "m.nt",
                         "--query", data / "queries" / "example1.rq", "--format", "csv")

        doc = RawDocument(source_uri="mem", data=fixtures.emit_v3(la_rochelle_ios).encode())
        ios, _ = parse_tif(doc, fixtures.profile_v3())
        g = Graph()
        for io in ios:
            assert_io(g, io)
        materialize(g)
        table = evaluate(parse_query(fixtures.EXAMPLE1_QUERY), g)
        assert cli_result.output == to_csv(table)

    def test_staged_files_are_canonical(self, runner, workspace):
        data = workspace / "data"
        run(runner, "ingest", data / "la_rochelle_v3.xml", "--out", workspace / "g.nt")
        text = (workspace / "g.nt").read_text(encoding="utf-8")
        assert text == to_ntriples(from_ntriples(text))

    def test_readme_quick_start_runs(self, runner, tmp_path):
        # Each command of the README's "Quick start" block exits 0, in order,
        # so the docs name no flag the CLI has dropped.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("tifsem ")]
        assert len(lines) == 5
        with runner.isolated_filesystem(temp_dir=tmp_path):
            for line in lines:
                result = runner.invoke(main, shlex.split(line)[1:])
                assert result.exit_code == 0, (line, result.output)


class TestVersion:
    def test_version_is_the_project_version(self, runner):
        # From a source checkout too, where no installed metadata names it.
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert result.output.endswith(f", version {version}\n")


class TestFixturesCommand:
    def test_generate_is_deterministic(self, runner, tmp_path):
        run(runner, "fixtures", "generate", "--out-dir", tmp_path / "one")
        run(runner, "fixtures", "generate", "--out-dir", tmp_path / "two")
        for name in ["la_rochelle_v3.xml", "la_rochelle_dialect_a.xml", "la_rochelle_dialect_b.xml"]:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_seed_changes_output(self, runner, tmp_path):
        run(runner, "fixtures", "generate", "--out-dir", tmp_path / "one", "--seed", "1")
        run(runner, "fixtures", "generate", "--out-dir", tmp_path / "two", "--seed", "2")
        assert (tmp_path / "one" / "la_rochelle_v3.xml").read_bytes() != \
            (tmp_path / "two" / "la_rochelle_v3.xml").read_bytes()


# Valid contents for each kind of input file, so that drawn runs often get
# past reading their files.
_SAMPLE_IOS = fixtures.la_rochelle()[:4]
_SAMPLE_GRAPH = Graph()
for _io in _SAMPLE_IOS:
    assert_io(_SAMPLE_GRAPH, _io)
_SAMPLE_ROOT = mint_io_iri("http://example.org/tifsem", _SAMPLE_IOS[0].id).value
_VALID = {
    "profile": save_profile(fixtures.profile_dialect_a()).encode(),
    "rules": (json.dumps([
        {"source": "tifsem:Multimedia", "target": "schema:MediaObject", "relation": "EquivalentClass"},
        {"source": "tifsem:Classifications", "target": "schema:Rating", "relation": "EquivalentClass"},
        {"source": "tifsem:Contacts", "target": "schema:ContactPoint", "relation": "EquivalentClass"},
    ], indent=2) + "\n").encode(),
    "query": fixtures.EXAMPLE2_QUERY.encode(),
    "graph": to_ntriples(_SAMPLE_GRAPH).encode(),
    "xml": fixtures.emit_v3(_SAMPLE_IOS).encode(),
}


def _files(kind: str) -> st.SearchStrategy:
    """A file's bytes: missing (None), empty, not UTF-8, hostile, valid, or
    valid with hostile text after it; a profile or rules document may also
    be mistyped or nested too deeply to decode, and XML may declare an
    encoding the parser cannot read."""
    hostile = hostile_text.map(lambda text: text.encode("utf-8", "surrogatepass"))
    valid = st.just(_VALID[kind])
    choices = [
        st.none(),
        st.just(b""),
        st.binary(max_size=20).map(lambda b: b"\xff" + b),
        hostile,
        valid,
        valid,
        st.builds(bytes.__add__, valid, hostile),
    ]
    if kind == "profile":  # a JSON object whose values have the wrong types
        choices.append(mistyped_profiles.map(str.encode))
    if kind == "rules":  # a rule whose source or target is not a string
        choices.append(st.sampled_from(MISTYPED_RULES).map(str.encode))
    if kind in ("profile", "rules"):
        choices.append(st.just(DEEP_JSON.encode()))
    if kind == "xml":  # a declaration naming an encoding the parser cannot read
        choices.append(st.sampled_from(["bogus", "shift_jis", "euc-jp", "big5", "utf-32"]).map(
            lambda name: _VALID["xml"].replace(b"encoding='utf-8'", f"encoding='{name}'".encode(), 1)))
    return st.one_of(*choices)


@st.composite
def _invocations(draw) -> tuple[list[str], dict[str, bytes | None]]:
    """Arguments of one subcommand and the files it names."""
    command = draw(st.sampled_from(["ingest", "map", "query", "export", "validate"]))
    files: dict[str, bytes | None] = {}

    def path(name: str, kind: str) -> str:
        files[name] = draw(_files(kind))
        return name

    if command in ("ingest", "validate"):
        inputs = [f"in{i}.xml" for i in range(draw(st.integers(1, 2)))]
        for name in inputs:
            files[name] = draw(st.one_of(tif_documents, _files("xml")))
        args = [command, *inputs]
        if draw(st.booleans()):
            args += ["--profile", path("profile.json", "profile")]
        if command == "ingest":
            args += ["--out", draw(st.sampled_from(["out.nt", "out.ttl", "out.jsonld", "no/such/dir/out.nt"]))]
            if draw(st.booleans()):
                args += ["--base", draw(st.one_of(st.just("https://kg.example.net/t"), st.just("http://a b/"),
                                                  hostile_text))]
        return args, files
    args = [command, "--graph", path("graph.nt", "graph")]
    if command == "map":
        args += ["--out", draw(st.sampled_from(["out.nt", "out.ttl", "no/such/dir/out.nt"]))]
        args += [a for i in range(draw(st.integers(0, 2))) for a in ("--rules", path(f"rules{i}.json", "rules"))]
    elif command == "query":
        args += ["--query", path("query.rq", "query"), "--format", draw(st.sampled_from(["table", "csv"]))]
    else:
        root = draw(st.one_of(st.just(_SAMPLE_ROOT), st.just(_SAMPLE_ROOT), st.just(""), hostile_text))
        args += ["--root", root, "--out", draw(st.sampled_from(["out.jsonld", "out.nt", "no/such/dir/out.jsonld"]))]
    return args, files


class TestExitCodeContract:
    """Whatever the inputs, every subcommand exits 0, 1 or 2 without a
    traceback."""

    @given(_invocations())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_subcommands_exit_cleanly_on_any_input(self, invocation):
        args, files = invocation
        runner = CliRunner()
        with runner.isolated_filesystem():
            for name, content in files.items():
                if content is not None:
                    Path(name).write_bytes(content)
            result = runner.invoke(main, args)
        assert result.exit_code in (0, 1, 2), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exc_info)
        assert "Traceback" not in result.output
