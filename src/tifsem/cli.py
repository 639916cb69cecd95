"""Command-line pipeline: ingest, map, query, export, validate, fixtures.

Subcommands stage their work through ordinary files (canonical N-Triples for
graphs, TSV for issue reports) so every intermediate is inspectable and
diff-able.  Exit codes: 0 success, 1 domain error, 2 usage or I/O error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import NoReturn

import click

from tifsem import fixtures as fixtures_mod
from tifsem import mapping, query as query_mod, serialize
from tifsem.errors import TifsemError
from tifsem.graph import DEFAULT_BASE_IRI, Graph, IRI, _insert_io, mint_io_iri
from tifsem.ingest import (
    IDENTITY_PROFILE,
    RawDocument,
    ValidationIssue,
    format_issues,
    load_profile,
    parse_tif,
    validate_io,
)
from tifsem.ontology import InformationObject

_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")


def _checked_base(ctx: click.Context, param: click.Parameter, base: str) -> str:
    """The base IRI, refused as a usage error, before any input is read,
    unless the IRIs minted under it are valid and absolute."""
    if not _SCHEME_RE.match(base):
        raise click.BadParameter(f"{base!r} does not start with a scheme such as 'http:'", ctx, param)
    try:
        mint_io_iri(base, "x")
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from None
    return base


_BASE_OPTION = click.option(
    "--base",
    envvar="TIFSEM_BASE_IRI",
    default=DEFAULT_BASE_IRI,
    show_default=True,
    callback=_checked_base,
    help="Base IRI under which resource identifiers are minted.",
)

_EXTENSION_FORMATS = {".nt": "nt", ".ttl": "ttl", ".jsonld": "jsonld"}
_GRAPH_FORMATS = ("nt", "ttl")


def _output_format(out_path: str, fmt: str | None, writable: tuple[str, ...]) -> str:
    """The output format: ``fmt`` if given, else the one the output path's
    extension names, else the first of ``writable``.  When both are present
    they must agree, and the format must be one the command can write.
    Commands call this before reading any input."""
    suffix = Path(out_path).suffix
    ext = _EXTENSION_FORMATS.get(suffix.lower())
    if fmt is not None and ext is not None and fmt != ext:
        raise click.UsageError(f"--format {fmt} conflicts with the {suffix!r} output extension")
    chosen = fmt or ext or writable[0]
    if chosen not in writable:
        raise click.UsageError(f"this command writes {' or '.join(writable)}, not {chosen}")
    return chosen


def _write_graph(g: Graph, out_path: str, fmt: str) -> None:
    try:
        if fmt == "ttl":
            Path(out_path).write_text(serialize.to_turtle(g), encoding="utf-8")
        else:
            serialize.save_graph(g, out_path)
    except OSError as exc:
        _fail(str(exc), 2)


def _fail(message: str, code: int) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _fail(str(exc), 2)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(str(exc), 2)
    except UnicodeDecodeError as exc:
        _fail(f"{path}: {exc}", 2)


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    try:
        return serialize.from_ntriples(text)
    except TifsemError as exc:
        _fail(f"{path}: {exc}", 1)


@click.group()
@click.version_option(package_name="tifsem")
def main() -> None:
    """Turn TourInFrance XML dialects into a Schema.org-aligned graph."""


def _parse_and_validate(
    inputs: tuple[str, ...], profile_path: str | None,
) -> tuple[list[InformationObject], list[ValidationIssue]]:
    """Read the profile and every input, then parse and validate each one.

    Returns the IOs free of error issues, in input order, and every issue in
    report order: per document, its parse issues, then each IO's own.
    """
    profile = IDENTITY_PROFILE
    if profile_path is not None:
        try:
            profile = load_profile(_read_text(profile_path))
        except TifsemError as exc:
            _fail(str(exc), 1)
    documents = [RawDocument(source_uri=path, data=_read_bytes(path)) for path in inputs]
    clean: list[InformationObject] = []
    issues: list[ValidationIssue] = []
    try:
        for doc in documents:
            ios, parse_issues = parse_tif(doc, profile)
            issues.extend(parse_issues)
            blocked = {i.io_id for i in parse_issues if i.severity == "error"}
            for io in ios:
                io_issues = validate_io(io)
                issues.extend(io_issues)
                if io.id not in blocked and all(i.severity != "error" for i in io_issues):
                    clean.append(io)
    except TifsemError as exc:
        _fail(str(exc), 1)
    return clean, issues


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
@click.option("--profile", "profile_path", type=click.Path(), help="Dialect profile JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output graph file.")
@click.option("--issues", "issues_path", type=click.Path(), help="Issue report path (default: OUT.issues.tsv).")
@click.option("--format", "fmt", type=click.Choice(["nt", "ttl"]), default=None,
              help="Graph format (default: from the output extension, else nt).")
@_BASE_OPTION
def ingest(inputs: tuple[str, ...], profile_path: str | None, out_path: str,
           issues_path: str | None, fmt: str | None, base: str) -> None:
    """Parse XML INPUTS into one canonical graph plus an issue report."""
    fmt = _output_format(out_path, fmt, _GRAPH_FORMATS)
    ios, issues = _parse_and_validate(inputs, profile_path)
    g = Graph()
    for io in ios:  # validated once, by _parse_and_validate
        _insert_io(g, io, base)

    issues_file = Path(issues_path) if issues_path else Path(out_path).with_suffix(".issues.tsv")
    _write_graph(g, out_path, fmt)
    try:
        issues_file.write_text(format_issues(issues), encoding="utf-8")
    except OSError as exc:
        _fail(str(exc), 2)

    errors = sum(1 for i in issues if i.severity == "error")
    click.echo(f"ingested {len(inputs)} file(s): {len(g)} triples, "
               f"{errors} error(s), {len(issues) - errors} warning(s)")
    if errors:
        sys.exit(1)


@main.command(name="map")
@click.option("--graph", "graph_path", required=True, type=click.Path(), help="Input .nt file.")
@click.option("--rules", "rules_paths", multiple=True, type=click.Path(),
              help="Extra rule documents, appended to the builtin rules.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output graph file.")
@click.option("--format", "fmt", type=click.Choice(["nt", "ttl"]), default=None,
              help="Graph format (default: from the output extension, else nt).")
def map_cmd(graph_path: str, rules_paths: tuple[str, ...], out_path: str, fmt: str | None) -> None:
    """Materialize Schema.org alignments into the graph."""
    fmt = _output_format(out_path, fmt, _GRAPH_FORMATS)
    g = _load_graph(graph_path)
    rules = mapping.builtin_rules()
    for path in rules_paths:
        try:
            rules.extend(mapping.load_rules(_read_text(path)))
        except TifsemError as exc:
            _fail(f"{path}: {exc}", 1)
    rules = list(dict.fromkeys(rules))

    report = mapping.materialize(g, rules)
    _write_graph(g, out_path, fmt)

    click.echo(f"inferred {report.inferred_triples} triple(s)")
    for line in mapping.check_consistency(rules):
        click.echo(f"note: {line}")


@main.command(name="query")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--query", "query_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["table", "csv"]), default="table", show_default=True)
def query_cmd(graph_path: str, query_path: str, fmt: str) -> None:
    """Evaluate a query file against a graph file."""
    g = _load_graph(graph_path)
    try:
        q = query_mod.parse_query(_read_text(query_path))
        table = query_mod.evaluate(q, g)
    except TifsemError as exc:
        _fail(str(exc), 1)
    rendered = query_mod.to_csv(table) if fmt == "csv" else query_mod.to_text_table(table)
    click.echo(rendered, nl=False)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--root", "root_iri", required=True, help="Subject IRI to export.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output .jsonld file.")
def export(graph_path: str, root_iri: str, out_path: str) -> None:
    """Export one subject and its blank-node closure as JSON-LD."""
    _output_format(out_path, "jsonld", ("jsonld",))
    g = _load_graph(graph_path)
    try:
        document = serialize.to_jsonld(g, IRI(root_iri))
    except (TifsemError, ValueError) as exc:
        _fail(str(exc), 1)
    try:
        Path(out_path).write_text(document.to_text(), encoding="utf-8")
    except OSError as exc:
        _fail(str(exc), 2)
    click.echo(f"wrote {out_path}")


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
@click.option("--profile", "profile_path", type=click.Path(), help="Dialect profile JSON.")
def validate(inputs: tuple[str, ...], profile_path: str | None) -> None:
    """Parse and validate XML INPUTS, reporting issues as TSV on stdout."""
    _, issues = _parse_and_validate(inputs, profile_path)
    click.echo(format_issues(issues), nl=False)
    if any(i.severity == "error" for i in issues):
        sys.exit(1)


@main.group()
def fixtures() -> None:
    """Synthetic dataset commands."""


@fixtures.command()
@click.option("--out-dir", required=True, type=click.Path(), help="Directory to populate.")
@click.option("--seed", default=fixtures_mod.DEFAULT_SEED, show_default=True, type=int)
def generate(out_dir: str, seed: int) -> None:
    """Write the deterministic La Rochelle dataset, profiles and queries."""
    try:
        paths = fixtures_mod.generate(out_dir, seed)
    except OSError as exc:
        _fail(str(exc), 2)
    for path in paths:
        click.echo(str(path))


if __name__ == "__main__":
    main()
