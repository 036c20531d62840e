import io
from itertools import chain, repeat

import pytest

from simplets import (
    GenSpec,
    InputError,
    build_complex,
    exact_counts,
    generate,
    generate_catalog,
    load_complex,
    read_facets,
    write_facets,
)
from simplets.complexes import MAX_IMPLIED_EDGES, MAX_VERTICES


def test_read_with_comments_blanks_and_labels():
    text = io.StringIO(
        """
# a filled triangle plus a pendant edge
alpha beta gamma

gamma delta
"""
    )
    facets, labels = read_facets(text)
    assert labels == ["alpha", "beta", "gamma", "delta"]
    assert facets == [(0, 1, 2), (2, 3)]


def test_labels_mapped_in_first_appearance_order():
    facets, labels = read_facets(io.StringIO("7 3\n3 x\nx 7\n"))
    assert labels == ["7", "3", "x"]
    assert facets == [(0, 1), (1, 2), (2, 0)]


def test_read_rejects_repeated_label_in_facet():
    with pytest.raises(InputError):
        read_facets(io.StringIO("a b a\n"))


def test_read_rejects_non_utf8_file_naming_file_and_line(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("a b\nb c\n\u00e9 a\n".encode("latin-1"))
    with pytest.raises(InputError, match=r"latin1\.txt: line 3 is not valid UTF-8"):
        read_facets(path)


def test_read_drops_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfa b\nb c\na c\n")
    facets, labels = read_facets(path)
    assert labels == ["a", "b", "c"]
    assert facets == [(0, 1), (1, 2), (0, 2)]
    complex_, _ = load_complex(path)
    assert list(exact_counts(complex_, generate_catalog(3)).counts) == [3, 0, 1, 0]


def test_read_rejects_empty_input():
    with pytest.raises(InputError):
        read_facets(io.StringIO("# nothing here\n\n"))


def test_roundtrip_preserves_structure(tmp_path):
    complex_ = generate(GenSpec("lm", 15, 0.3, p_tri=0.6, p_tet=0.5, seed=8))
    path = tmp_path / "facets.txt"
    write_facets(path, complex_)
    loaded, labels = load_complex(path)
    assert loaded.vertex_count == complex_.vertex_count
    original = {frozenset(f) for f in complex_.facets}
    relabel = {new: int(label) for new, label in enumerate(labels)}
    restored = {frozenset(relabel[v] for v in f) for f in loaded.facets}
    assert restored == original


def test_roundtrip_keeps_isolated_vertices(tmp_path):
    complex_ = generate(GenSpec("flag", 20, 0.03, seed=4))
    path = tmp_path / "sparse.txt"
    write_facets(path, complex_)
    loaded, _ = load_complex(path)
    assert loaded.vertex_count == 20


def test_write_with_labels(tmp_path):
    complex_, labels = load_complex(io.StringIO("a b c\nc d\n"))
    out = io.StringIO()
    write_facets(out, complex_, labels)
    lines = set(out.getvalue().splitlines())
    assert "a b c" in lines
    assert "c d" in lines
    with pytest.raises(InputError):
        write_facets(io.StringIO(), complex_, ["too", "short"])


def test_roundtrip_keeps_facets_whose_first_label_starts_with_hash():
    complex_, labels = load_complex(io.StringIO("x #a\ny #a\n"))
    assert complex_.vertex_count == 3
    out = io.StringIO()
    write_facets(out, complex_, labels)
    assert out.getvalue() == "x #a\ny #a\n"
    loaded, loaded_labels = load_complex(io.StringIO(out.getvalue()))
    assert loaded.vertex_count == 3
    named = {frozenset(labels[v] for v in f) for f in complex_.facets}
    assert {frozenset(loaded_labels[v] for v in f) for f in loaded.facets} == named


def test_write_rejects_a_facet_of_hash_labels_only():
    complex_, _ = load_complex(io.StringIO("x #a\ny #a\n"))
    with pytest.raises(InputError, match="#"):
        write_facets(io.StringIO(), complex_, ["x", "#a", "#y"])


@pytest.mark.parametrize(
    "labels, bad",
    [
        (["a b", "y", ""], "a b"),  # would read back as one triangle on three vertices
        (["x", "y z", "w"], "y z"),  # would read back as two triangles on four vertices
        (["a", "b", "a"], "a"),  # would read back as a single edge
        ([1, 2, 3], 1),  # not strings, so not tokens the reader returns
    ],
    ids=["spaced-and-empty", "spaced", "repeated", "not-a-string"],
)
def test_write_rejects_labels_that_do_not_read_back(tmp_path, labels, bad):
    complex_ = build_complex([(0, 1), (1, 2)], 3)
    out = io.StringIO()
    with pytest.raises(InputError, match=repr(bad)):
        write_facets(out, complex_, labels)
    assert out.getvalue() == ""
    path = tmp_path / "facets.txt"
    with pytest.raises(InputError):
        write_facets(path, complex_, labels)
    assert not path.exists()


def test_write_to_an_unwritable_path_is_input_error(tmp_path):
    complex_ = build_complex([(0, 1), (1, 2)], 3)
    with pytest.raises(InputError, match="cannot write facet file"):
        write_facets(tmp_path, complex_)  # a directory
    with pytest.raises(InputError, match="cannot write facet file"):
        write_facets(tmp_path / "missing" / "facets.txt", complex_)


def test_read_stops_past_the_vertex_limit():
    lines = [f"v{i}\n" for i in range(MAX_VERTICES)]
    assert len(read_facets(lines).labels) == MAX_VERTICES
    with pytest.raises(InputError, match=f"line {MAX_VERTICES + 1}: more than {MAX_VERTICES} vertex labels"):
        read_facets(lines + ["v0 extra\n"])


def test_read_stops_past_the_facet_line_limit():
    # only repeated one-label lines reach it; comments and blanks do not count
    limit = MAX_IMPLIED_EDGES + MAX_VERTICES
    lines = chain(["# header\n", "\n"], repeat("a\n", limit + 1))
    with pytest.raises(InputError, match=f"line {limit + 3}: more than {limit} facet lines"):
        read_facets(lines)


def test_read_skips_a_line_that_repeats_the_previous_facet_line():
    # a repeat after a comment still follows that facet line; one further
    # back is kept, and build_complex drops it
    parsed = read_facets(["a b\n", "a b\n", "# note\n", "a b\n", "b c\n", "a b\n", "a b"])
    assert parsed.facets == [(0, 1), (1, 2), (0, 1), (0, 1)]
    assert parsed.labels == ["a", "b", "c"]
