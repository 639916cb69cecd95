"""Command-line pipeline: ingest, map, query, export, validate, fixtures.

Subcommands stage their work through ordinary files (canonical N-Triples for
graphs, TSV for issue reports) so every intermediate is inspectable and
diff-able.  Exit codes: 0 success, 1 domain error, 2 usage or I/O error.
Click reports usage errors itself; every other failure becomes an exit code
in one place, the ``invoke`` of ``main``'s group class, which prints one
``error:`` line on stderr.  An error about the text of an input file, its
encoding included, starts with the file's path.
"""

from __future__ import annotations

import errno
import re
import sys
from pathlib import Path
from typing import Callable, TypeVar

import click

import tifsem
from tifsem import fixtures as fixtures_mod
from tifsem import mapping, query as query_mod, serialize
from tifsem.errors import ExportError, TifsemError
from tifsem.graph import DEFAULT_BASE_IRI, Graph, IRI, _insert_ios, mint_io_iri
from tifsem.ingest import (
    IDENTITY_PROFILE,
    RawDocument,
    ValidationIssue,
    format_issues,
    load_profile,
    parse_tif,
)
from tifsem.ontology import InformationObject

_T = TypeVar("_T")
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


def _output_format(out_path: str, writable: tuple[str, ...]) -> str:
    """The output format the output path's extension names, else the first
    of ``writable``; it must be one the command can write.  Commands call
    this before reading any input."""
    chosen = _EXTENSION_FORMATS.get(Path(out_path).suffix.lower(), writable[0])
    if chosen not in writable:
        raise click.UsageError(f"this command writes {' or '.join(writable)}, not {chosen}")
    return chosen


def _write_graph(g: Graph, out_path: str, fmt: str) -> None:
    if fmt == "ttl":
        Path(out_path).write_text(serialize.to_turtle(g), encoding="utf-8")
    else:
        serialize.save_graph(g, out_path)


def _read(path: str, parse: Callable[[str], _T]) -> _T:
    """``parse`` of the UTF-8 text of the input file ``path``, with its line
    ends as written, so a file reads as the library reads its text.  Text
    that is not UTF-8 is an I/O error and text ``parse`` refuses a domain
    error; both messages start with the path."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return parse(f.read())
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None
    except TifsemError as exc:
        raise TifsemError(f"{path}: {exc}") from None


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        """Run the subcommand; the one place a failure becomes an exit code:
        1 for bad input, 2 for a file that cannot be read or written."""
        try:
            return super().invoke(ctx)
        except (TifsemError, OSError) as exc:
            if isinstance(exc, OSError) and exc.errno == errno.EPIPE:
                raise  # a closed stdout: click exits 1 without a message
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, OSError) else 1)


@click.group(cls=_Main)
@click.version_option(version=tifsem.__version__)
def main() -> None:
    """Turn TourInFrance XML dialects into a Schema.org-aligned graph."""


def _parse_and_validate(
    inputs: tuple[str, ...], profile_path: str | None,
) -> tuple[list[InformationObject], list[ValidationIssue]]:
    """Read the profile and every input, then parse each one; ``parse_tif``
    checks every value.

    Returns the IOs free of error issues, in input order, and every issue in
    report order, document by document.
    """
    profile = IDENTITY_PROFILE if profile_path is None else _read(profile_path, load_profile)
    documents = [RawDocument.from_path(path) for path in inputs]
    clean: list[InformationObject] = []
    issues: list[ValidationIssue] = []
    for doc in documents:
        ios, parse_issues = parse_tif(doc, profile)
        issues.extend(parse_issues)
        blocked = {i.io_id for i in parse_issues if i.severity == "error"}
        clean.extend(io for io in ios if io.id not in blocked)
    return clean, issues


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
@click.option("--profile", "profile_path", type=click.Path(), help="Dialect profile JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output graph file.")
@click.option("--issues", "issues_path", type=click.Path(), help="Issue report path (default: OUT.issues.tsv).")
@_BASE_OPTION
def ingest(inputs: tuple[str, ...], profile_path: str | None, out_path: str,
           issues_path: str | None, base: str) -> None:
    """Parse XML INPUTS into one canonical graph plus an issue report.

    The graph is Turtle when OUT ends in .ttl, else N-Triples."""
    fmt = _output_format(out_path, _GRAPH_FORMATS)
    ios, issues = _parse_and_validate(inputs, profile_path)
    g = Graph()
    _insert_ios(g, ios, base)  # checked by parse_tif, leaf by leaf

    issues_file = Path(issues_path) if issues_path else Path(out_path).with_suffix(".issues.tsv")
    _write_graph(g, out_path, fmt)
    issues_file.write_text(format_issues(issues), encoding="utf-8")

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
def map_cmd(graph_path: str, rules_paths: tuple[str, ...], out_path: str) -> None:
    """Materialize Schema.org alignments into the graph.

    The graph is Turtle when OUT ends in .ttl, else N-Triples."""
    fmt = _output_format(out_path, _GRAPH_FORMATS)
    g = _read(graph_path, serialize.from_ntriples)
    rules = mapping.builtin_rules()
    for path in rules_paths:
        rules.extend(_read(path, mapping.load_rules))
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
    g = _read(graph_path, serialize.from_ntriples)
    table = query_mod.evaluate(_read(query_path, query_mod.parse_query), g)
    rendered = query_mod.to_csv(table) if fmt == "csv" else query_mod.to_text_table(table)
    click.echo(rendered, nl=False)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--root", "root_iri", required=True, help="Subject IRI to export.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output .jsonld file.")
def export(graph_path: str, root_iri: str, out_path: str) -> None:
    """Export one subject and its blank-node closure as JSON-LD."""
    _output_format(out_path, ("jsonld",))
    g = _read(graph_path, serialize.from_ntriples)
    try:
        root = IRI(root_iri)
    except ValueError as exc:  # bad input, not a usage error: exit 1
        raise ExportError(str(exc)) from None
    Path(out_path).write_text(serialize.to_jsonld(g, root).to_text(), encoding="utf-8")
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
    for path in fixtures_mod.generate(out_dir, seed):
        click.echo(str(path))


if __name__ == "__main__":
    main()
