"""Facet-file parsing and writing.

Format: one facet per line, whitespace-separated vertex labels; ``#`` starts
a comment line and blank lines are ignored.  Files are read as UTF-8, with a
leading byte-order mark dropped.  Labels are arbitrary tokens, mapped to dense
integer ids in order of first appearance; the mapping is returned so outputs
can echo the original labels.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable
from io import TextIOBase

from .complexes import (
    _WITHIN_1GB, MAX_IMPLIED_EDGES, MAX_VERTICES, SimplicialComplex, build_complex,
)
from .errors import InputError

__all__ = ["ParsedFacets", "read_facets", "load_complex", "write_facets"]

# The facets as vertex-id tuples, and the labels in vertex-id order.
ParsedFacets = namedtuple("ParsedFacets", "facets labels")

# Each line of two or more labels implies an edge, and distinct one-label
# lines are bounded by the vertex limit, so only a file that repeats a
# one-label line can have more facet lines than this.
_MAX_FACET_LINES = MAX_IMPLIED_EDGES + MAX_VERTICES


def _lines(source: str | os.PathLike | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (str, os.PathLike)):
        try:
            handle = open(source, "r", encoding="utf-8-sig", errors="surrogateescape")
        except OSError as exc:
            raise InputError(f"cannot read facet file {source}: {exc}") from exc
        with handle:
            for lineno, line in enumerate(handle, start=1):
                # Undecodable bytes arrive as lone surrogates, which UTF-8 refuses to encode.
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{source}: line {lineno} is not valid UTF-8") from None
                yield line
    else:
        yield from source


def read_facets(source: str | os.PathLike | Iterable[str]) -> ParsedFacets:
    """Parse a facet file into integer facets plus the label table.

    A line that repeats the previous facet line adds no facet, but counts as
    a facet line.  A file with more than ``MAX_VERTICES`` distinct labels, or
    more than ``MAX_IMPLIED_EDGES + MAX_VERTICES`` facet lines, raises
    InputError as soon as the label or line past the limit is read.
    """
    ids: dict[str, int] = {}
    facets: list[tuple[int, ...]] = []
    lines = 0  # facet lines read, repeats included
    previous = None  # the text of the last facet line
    for lineno, raw in enumerate(_lines(source), start=1):
        repeat = raw == previous
        if not repeat:
            tokens = raw.split()
            if not tokens or tokens[0][0] == "#":
                continue
        if lines == _MAX_FACET_LINES:
            raise InputError(
                f"line {lineno}: more than {_MAX_FACET_LINES} facet lines, {_WITHIN_1GB}"
            )
        lines += 1
        if repeat:
            continue
        facet = []
        for token in tokens:
            if token not in ids:
                if len(ids) == MAX_VERTICES:
                    raise InputError(
                        f"line {lineno}: more than {MAX_VERTICES} vertex labels, {_WITHIN_1GB}"
                    )
                ids[token] = len(ids)
            facet.append(ids[token])
        if len(set(facet)) != len(facet):
            raise InputError(f"line {lineno}: repeated vertex label in facet {tokens}")
        facets.append(tuple(facet))
        previous = raw
    if not facets:
        raise InputError("no facets found in input")
    return ParsedFacets(facets, list(ids))


def load_complex(
    source: str | os.PathLike | Iterable[str],
) -> tuple[SimplicialComplex, list[str]]:
    """Read a facet file and build the complex; returns (complex, labels)."""
    facets, labels = read_facets(source)
    return build_complex(facets, len(labels)), labels


def write_facets(
    destination: str | os.PathLike | TextIOBase,
    complex_: SimplicialComplex,
    labels: list[str] | None = None,
) -> None:
    """Write the facets of a complex, one per line.

    Labels go in vertex-id order, except that each line starts with its
    first label that does not begin with ``#``, so that no facet reads back
    as a comment; a facet whose labels all begin with ``#`` raises
    ``InputError``, and so does a label that is not a string, is not one
    whitespace-free token or names two vertices, since it would not read
    back as one vertex.  Vertices outside every facet are written as
    singleton lines so the vertex count round-trips through the format.
    Nothing is written when a label or a facet is rejected.  A path that
    cannot be opened or written raises ``InputError`` too.
    """
    if labels is not None:
        if len(labels) != complex_.vertex_count:
            raise InputError("labels must cover every vertex")
        seen = set()
        for label in labels:
            if not isinstance(label, str):
                raise InputError(f"cannot write label {label!r}: it is not a string")
            if label.split() != [label]:
                raise InputError(f"cannot write label {label!r}: it is not one whitespace-free token")
            if label in seen:
                raise InputError(f"cannot write label {label!r}: it names two vertices")
            seen.add(label)

    def line(facet: Iterable[int]) -> str:
        names = [labels[v] if labels is not None else str(v) for v in sorted(facet)]
        for i, first in enumerate(names):
            if not first.startswith("#"):
                return " ".join([first, *names[:i], *names[i + 1:]])
        raise InputError(f"cannot write facet {names}: every label starts a '#' comment")

    lines = [line(facet) for facet in complex_.facets]
    covered = {v for facet in complex_.facets for v in facet}
    lines.extend(line((v,)) for v in range(complex_.vertex_count) if v not in covered)

    if isinstance(destination, (str, os.PathLike)):
        try:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write facet file {destination}: {exc}") from exc
    else:
        destination.write("\n".join(lines) + "\n")
