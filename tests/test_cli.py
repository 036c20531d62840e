import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from simplets import (
    cli, exact_counts, failure_bound, generate_catalog, load_complex, required_samples,
)
from simplets.catalog import MAX_CATALOG_VERTICES
from simplets.complexes import MAX_IMPLIED_EDGES, MAX_VERTICES
from simplets.cli import build_parser, main

SAMPLING_COMMANDS = ("approx", "validate", "bench")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_triangle(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("0 1 2\n")
    return str(path)


def test_catalog_sizes(capsys):
    code, out, _ = run(capsys, ["catalog", "--m", "4"])
    assert code == 0
    assert len(json.loads(out)) == 18
    code, out, _ = run(capsys, ["catalog", "--m", "2"])
    assert code == 0
    assert len(json.loads(out)) == 1


def _m_argv(command, tmp_path, m):
    """A full argv for ``command`` in which only ``--m`` can be wrong."""
    if command == "catalog":
        rest = []
    elif command == "bench":
        rest = ["--sizes", "14", "--avg-degree", "5"]
    else:
        rest = ["--input", write_triangle(tmp_path)]
    return [command, *rest, "--m", str(m)]


@pytest.mark.parametrize("command", ["catalog", "exact", "approx", "validate", "bench"])
def test_catalog_m_out_of_range_is_usage_error(capsys, tmp_path, command):
    parser = build_parser()
    parser.parse_args(_m_argv(command, tmp_path, MAX_CATALOG_VERTICES))
    too_small = [2] if command in SAMPLING_COMMANDS else []
    for m in [MAX_CATALOG_VERTICES + 1, *too_small]:
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(_m_argv(command, tmp_path, m))
        assert excinfo.value.code == 2
        assert "--m: invalid choice" in capsys.readouterr().err


def test_sampling_commands_share_defaults(tmp_path):
    parser = build_parser()
    shared = ("epsilon", "delta", "c", "c_mix", "seed")
    defaults = [
        {name: getattr(parser.parse_args(_m_argv(command, tmp_path, 3)), name) for name in shared}
        for command in SAMPLING_COMMANDS
    ]
    assert defaults == [{"epsilon": 0.1, "delta": 0.1, "c": 0.5, "c_mix": 1.0, "seed": 0}] * 3


def test_no_command_imports_numpy(tmp_path):
    # numpy adds about 12 MB to a process's peak RSS and is not a dependency:
    # only the transition_matrix diagnostic and the tests use it.  -S keeps
    # site-packages off the path, so the commands must run on the standard
    # library alone.  Nor does any command load dataclasses, inspect, typing
    # or pathlib, which together cost more start-up time than the modules
    # the commands need.
    facets = tmp_path / "facets.txt"
    facets.write_text("0 1 2\n2 3\n3 4 5\n")
    script = f"""
import contextlib, io, sys
from simplets.cli import main
path = {str(facets)!r}
argvs = [
    ["catalog", "--m", "4"],
    ["exact", "--input", path, "--m", "4"],
    ["approx", "--input", path, "--m", "3", "--epsilon", "0.5"],
    ["validate", "--input", path, "--m", "3", "--epsilon", "0.5", "--trials", "2",
     "--threads", "1"],
    ["gen", "--model", "flag", "--n", "12", "--p-edge", "0.3"],
    ["bench", "--sizes", "14", "--avg-degree", "5", "--m", "3", "--epsilon", "0.5"],
]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "a command imported numpy"
loaded = [name for name in ("dataclasses", "inspect", "typing", "pathlib") if name in sys.modules]
assert not loaded, f"a command imported {{loaded}}"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_exact_output_schema_and_values(capsys, tmp_path):
    code, out, _ = run(capsys, ["exact", "--input", write_triangle(tmp_path), "--m", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "exact"
    assert obj["m"] == 4
    assert obj["total"] == 4
    assert sorted(f for f in obj["frequencies"] if f) == [0.25, 0.75]
    assert len(obj["catalog"]) == 18
    assert obj["labels"] == ["0", "1", "2"]


def test_exact_and_approx_key_order(capsys, tmp_path):
    path = write_triangle(tmp_path)
    sfd_keys = ["m", "frequencies", "mode", "counts", "total", "catalog"]
    code, out, _ = run(capsys, ["exact", "--input", path, "--m", "3"])
    assert code == 0
    assert list(json.loads(out)) == sfd_keys + ["labels"]
    code, out, _ = run(capsys, ["approx", "--input", path, "--m", "3", "--epsilon", "0.5"])
    assert code == 0
    assert list(json.loads(out)) == sfd_keys + [
        "epsilon", "delta", "c", "samples", "burn_in", "seed", "labels", "failure_bound"
    ]


def test_exact_roundtrips_identically(capsys, tmp_path):
    path = write_triangle(tmp_path)
    code, out, _ = run(capsys, ["exact", "--input", path, "--m", "4"])
    parsed = json.loads(out)
    complex_, _ = load_complex(path)
    direct = exact_counts(complex_, generate_catalog(4))
    assert parsed["frequencies"] == list(direct.frequencies)
    code, out2, _ = run(capsys, ["exact", "--input", path, "--m", "4"])
    assert out == out2


def test_exact_with_arbitrary_labels(capsys, tmp_path):
    path = tmp_path / "named.txt"
    path.write_text("ant bee cat\ncat dog\n")
    code, out, _ = run(capsys, ["exact", "--input", str(path), "--m", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["labels"] == ["ant", "bee", "cat", "dog"]
    assert obj["total"] == 7


# Commands write their JSON with the catalog listing joined from per-simplex
# text; these check the bytes against json.dumps(obj, indent=2) of the object
# built from to_json_obj().
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
M_RANGE = [*range(2, MAX_CATALOG_VERTICES),
           pytest.param(MAX_CATALOG_VERTICES, marks=pytest.mark.slow)]
# An isolated vertex, and labels holding NUL, quotes, a backslash, non-ASCII
# text and JSON punctuation around the word catalog.
ODD_LABELS = 'a\x00b "q" \\x\n"q" ünï catalog\ncatalog "catalog": 7\n7 a\x00b ],\n\\x ünï 😀\nlone\n'


def assert_dumped(out, obj):
    """``out`` is ``json.dumps(obj, indent=2)`` and a newline; a mismatch names
    its first differing offset (pytest's own diff of megabytes would take minutes)."""
    expected = json.dumps(obj, indent=2) + "\n"
    if out != expected:
        at = len(os.path.commonprefix([out, expected]))
        window = slice(max(0, at - 30), at + 30)
        pytest.fail(f"differs at offset {at}: {out[window]!r} vs {expected[window]!r}")


def _input_file(monkeypatch, tmp_path, source):
    """The facet file of a pinned benchmark input ``(workload, gen seed)``, or
    of the odd-label complex for ``None``."""
    path = tmp_path / "input.txt"
    if source is None:
        path.write_text(ODD_LABELS, encoding="utf-8")
        return str(path)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    name, gen_seed = source
    entries = workloads.load_pins(smoke=False)[name]["entries"]
    entry = next(e for e in entries if e["gen_seed"] == gen_seed)
    path.write_text(workloads.check_input(workloads.WORKLOADS[name], entry)[1], encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("m", M_RANGE)
@pytest.mark.parametrize(
    "source",
    [("exact-m5", 24), ("exact-m5", 31), ("exact-m5", 46), ("validate-lm", 11), None],
    ids=["exact-m5-24", "exact-m5-31", "exact-m5-46", "validate-lm-11", "odd-labels"],
)
def test_exact_writes_the_bytes_of_json_dumps(capsys, monkeypatch, tmp_path, source, m):
    path = _input_file(monkeypatch, tmp_path, source)
    code, out, _ = run(capsys, ["exact", "--input", path, "--m", str(m)])
    assert code == 0
    complex_, labels = load_complex(path)
    catalog = generate_catalog(m)
    obj = exact_counts(complex_, catalog).to_json_obj()
    obj.update(catalog=catalog.to_json_obj(), labels=labels)
    assert_dumped(out, obj)
    if source is None:
        assert complex_.vertex_count == 10 and "catalog" in labels and "a\x00b" in labels


@pytest.mark.parametrize("m", M_RANGE[1:])
def test_approx_writes_the_bytes_of_json_dumps(capsys, monkeypatch, tmp_path, m):
    path = _input_file(monkeypatch, tmp_path, None)
    argv = ["approx", "--input", path, "--m", str(m), "--epsilon", "0.5", "--largest-component"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert_dumped(out, obj)
    assert obj["catalog"] == generate_catalog(m).to_json_obj()
    assert len(obj["labels"]) == 9 and "\\x" in obj["labels"]


@pytest.mark.parametrize("m", M_RANGE)
def test_catalog_writes_the_bytes_of_json_dumps(capsys, m):
    code, out, _ = run(capsys, ["catalog", "--m", str(m)])
    assert code == 0
    assert_dumped(out, generate_catalog(m).to_json_obj())


def test_exact_missing_file_is_input_error(capsys, tmp_path):
    code = main(["exact", "--input", str(tmp_path / "nope.txt"), "--m", "3"])
    assert code == 3


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    code, _, err = run(capsys, ["exact", "--m", "3", "--input", str(path)])
    assert code == 3
    assert "line 2" in err and "bad.txt" in err


def test_approx_reproducible(capsys, tmp_path):
    path = write_triangle(tmp_path)
    argv = ["approx", "--input", path, "--m", "3", "--epsilon", "0.1",
            "--delta", "0.1", "--seed", "7", "--c-mix", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["samples"] == 166
    assert obj["mode"] == "approx"
    assert obj["seed"] == 7
    code, out2, _ = run(capsys, argv)
    assert out == out2


def test_approx_rejects_disconnected_with_pointer(capsys, tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n1 2\n3 4\n")
    code, _, err = run(capsys, ["approx", "--input", str(path), "--m", "3"])
    assert code == 4
    assert "--largest-component" in err
    code, out, _ = run(
        capsys,
        ["approx", "--input", str(path), "--m", "3", "--largest-component", "--seed", "1"],
    )
    assert code == 0
    assert json.loads(out)["samples"] == 166


def test_validate_rejects_disconnected_with_pointer(capsys, tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n1 2\n3 4\n")
    code, _, err = run(capsys, ["validate", "--input", str(path), "--m", "3", "--trials", "2"])
    assert code == 4
    assert "--largest-component" in err


def test_validate_report(capsys, tmp_path):
    path = write_triangle(tmp_path)
    argv = ["validate", "--input", path, "--m", "3", "--epsilon", "0.15",
            "--delta", "0.2", "--trials", "20", "--seed", "5", "--c-mix", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert_dumped(out, report)
    assert report["trials"] == 20
    assert len(report["linf_errors"]) == 20
    failures = sum(1 for e in report["linf_errors"] if e > 0.15)
    assert report["failures"] == failures
    assert report["failure_fraction"] == failures / 20
    expected_threshold = 0.2 + 2 * math.sqrt(0.2 * 0.8 / 20)
    assert report["threshold"] == pytest.approx(expected_threshold)
    assert report["complex"]["n"] == 3
    assert report["params"]["samples_per_trial"] == required_samples(0.15, 0.2, 0.5)
    assert list(report)[-1] == "failure_bound"
    assert report["failure_bound"] == failure_bound(report["params"]["samples_per_trial"], 0.15)
    assert report["failure_bound"] <= 0.2

    code, out2, _ = run(capsys, argv)
    assert json.loads(out2)["linf_errors"] == report["linf_errors"]


def test_validate_threads_do_not_change_results(capsys, tmp_path):
    # On a triangle every order is sorted anyway; the generated complex has
    # adjacency sets whose iteration order a pickled copy need not keep.
    triangle = ["validate", "--input", write_triangle(tmp_path), "--m", "3", "--trials", "8",
                "--seed", "3", "--c-mix", "3"]
    generated = ["validate", "--model", "lm", "--n", "20", "--p-edge", "0.3", "--p-tri", "0.7",
                 "--p-tet", "0.7", "--largest-component", "--m", "3", "--trials", "4"]
    for base in (triangle, generated):
        _, out1, _ = run(capsys, base)
        _, out2, _ = run(capsys, base + ["--threads", "2"])
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing"), b.pop("timing")
        a["params"].pop("threads"), b["params"].pop("threads")
        assert a == b


def test_validate_from_generator(capsys):
    argv = ["validate", "--model", "flag", "--n", "12", "--p-edge", "0.5",
            "--gen-seed", "2", "--m", "3", "--trials", "5", "--seed", "1",
            "--largest-component"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["params"]["model"] == "flag"
    assert report["trials"] == 5


def test_validate_requires_exactly_one_source(capsys, tmp_path):
    path = write_triangle(tmp_path)
    code = main(["validate", "--m", "3", "--trials", "2"])
    assert code == 3
    code = main(["validate", "--input", path, "--model", "flag", "--n", "5",
                 "--p-edge", "0.5", "--m", "3", "--trials", "2"])
    assert code == 3


def test_validate_zero_trials_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--model", "flag", "--n", "8", "--p-edge", "0.5",
              "--m", "3", "--trials", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag", ["--c", "--c-mix"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_constants_are_usage_errors(tmp_path, flag, value):
    path = write_triangle(tmp_path)
    for command in (["approx", "--input", path], ["validate", "--input", path, "--trials", "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--m", "3", f"{flag}={value}"])
        assert excinfo.value.code == 2


def test_bench_non_finite_average_degree_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--sizes", "50", "--avg-degree", "nan", "--m", "3"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag", ["--c", "--c-mix"])
def test_infinite_bound_is_input_error(capsys, tmp_path, flag):
    # finite constants whose sample bound or burn-in overflows
    path = write_triangle(tmp_path)
    code, out, err = run(capsys, ["approx", "--input", path, "--m", "3", flag, "1e308"])
    assert code == 3
    assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("flag", ["--c", "--c-mix"])
def test_validate_rejects_a_bad_bound_before_the_exact_oracle(capsys, tmp_path, monkeypatch, flag):
    def no_exact_counts(*args):
        raise AssertionError("exact counting ran before the bound was checked")

    monkeypatch.setattr("simplets.cli.exact_counts", no_exact_counts)
    path = write_triangle(tmp_path)
    code, out, err = run(capsys, ["validate", "--input", path, "--m", "3", "--trials", "2",
                                  flag, "1e308"])
    assert code == 3
    assert out == "" and err.startswith("input error:")


def test_validate_starts_no_more_workers_than_trials(capsys, tmp_path, monkeypatch):
    import concurrent.futures

    workers = []

    class SerialPool:
        # records the pool size and runs the trials in this process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert cli._usable_cpus() >= 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 16)
    path = write_triangle(tmp_path)
    base = ["validate", "--input", path, "--m", "3", "--seed", "3", "--c-mix", "3"]
    _, serial, _ = run(capsys, base + ["--trials", "3"])
    _, pooled, _ = run(capsys, base + ["--trials", "3", "--threads", "64"])
    assert workers == [3]  # capped by the trials
    a, b = json.loads(serial), json.loads(pooled)
    assert b["params"]["threads"] == 64
    assert a["linf_errors"] == b["linf_errors"]
    run(capsys, base + ["--trials", "1", "--threads", "8"])  # one trial needs no pool
    assert workers == [3]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    _, capped, _ = run(capsys, base + ["--trials", "6", "--threads", "5000"])
    assert workers == [3, 2]  # capped by the CPUs
    assert json.loads(capped)["params"]["threads"] == 5000
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    run(capsys, base + ["--trials", "3", "--threads", "64"])  # one CPU needs no pool
    assert workers == [3, 2]


def test_gen_complete(capsys):
    code, out, _ = run(capsys, ["gen", "--model", "flag", "--n", "4", "--p-edge", "1.0"])
    assert code == 0
    assert out.strip().splitlines() == ["0 1 2 3"]


def test_gen_reproducible_file(capsys, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    argv = ["gen", "--model", "lm", "--n", "15", "--p-edge", "0.3",
            "--p-tri", "0.5", "--seed", "9"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    complex_, _ = load_complex(out1)
    assert complex_.vertex_count == 15


def test_gen_largest_component(capsys):
    code, out, _ = run(capsys, ["gen", "--model", "flag", "--n", "20", "--p-edge",
                                "0.08", "--seed", "3", "--largest-component"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert all(len(line.split()) >= 2 for line in lines)  # no isolated vertices left


def test_bench_single_row_and_epsilon_scaling(capsys):
    base = ["bench", "--sizes", "14", "--avg-degree", "5", "--m", "3",
            "--delta", "0.2", "--seed", "2"]
    code, out, _ = run(capsys, base + ["--epsilon", "0.3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,edges,max_degree,diameter,burn_in,samples,seconds"
    assert len(lines) == 2
    samples_coarse = int(lines[1].split(",")[5])
    assert samples_coarse == required_samples(0.3, 0.2, 0.5)

    code, out, _ = run(capsys, base + ["--epsilon", "0.15"])
    samples_fine = int(out.strip().splitlines()[1].split(",")[5])
    assert 3.8 <= samples_fine / samples_coarse <= 4.0


@pytest.mark.parametrize("command", [
    ["gen", "--model", "flag", "--n", "4", "--p-edge", "1.0"],
    ["bench", "--sizes", "14", "--avg-degree", "5", "--m", "3"],
], ids=["gen", "bench"])
def test_unwritable_output_is_input_error(capsys, tmp_path, monkeypatch, command):
    def no_sweep(*args):
        raise AssertionError("the sweep ran before the output was opened")

    monkeypatch.setattr("simplets.cli.approximate_sfd", no_sweep)
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, command + ["--output", str(path)])
    assert code == 3
    assert out == "" and err.startswith("input error: cannot write")


def test_bench_usage_errors():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--sizes", "abc", "--avg-degree", "4", "--m", "3"])
    assert excinfo.value.code == 2


def test_closed_stdout_ends_output_quietly():
    # The m=5 catalog (about 90 kB) outgrows a pipe buffer, so the writer is
    # still writing when the reader closes the pipe after its first line.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplets", "catalog", "--m", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert stderr == b""


def test_bench_average_degree_above_size_is_input_error(capsys, monkeypatch):
    def no_generate(*args):
        raise AssertionError("a complex was generated before the degree was checked")

    monkeypatch.setattr("simplets.cli.generate", no_generate)
    code, out, err = run(capsys, ["bench", "--sizes", "14", "--avg-degree", "1e300", "--m", "3"])
    assert code == 3
    assert out == "" and err.startswith("input error:") and "size 14" in err


@pytest.mark.parametrize("flag", ["--c", "--c-mix"])
def test_bound_beyond_any_run_is_input_error(capsys, tmp_path, monkeypatch, flag):
    # finite bounds too large for any run fail at once instead of sampling
    def no_sampling(*args):
        raise AssertionError("sampling began")

    monkeypatch.setattr("simplets.sampler.SimpletSampler.sample", no_sampling)
    path = write_triangle(tmp_path)
    code, out, err = run(capsys, ["approx", "--input", path, "--m", "3", flag, "1e300"])
    assert code == 3
    assert out == "" and err.startswith("input error:")


def test_gen_output_file_holds_the_stdout_bytes(capsys, tmp_path):
    for argv in (
        ["gen", "--model", "flag", "--n", "60", "--p-edge", "0.05", "--seed", "7"],
        ["gen", "--model", "lm", "--n", "40", "--p-edge", "0.2", "--p-tri", "0.5",
         "--p-tet", "0.5", "--seed", "3", "--largest-component"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        path = tmp_path / "complex.txt"
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_bytes() == out.encode("utf-8")


def test_bench_columns_match_the_pinned_sweep(capsys):
    code, out, _ = run(capsys, ["bench", "--sizes", "14,20", "--avg-degree", "5", "--m", "3",
                                "--epsilon", "0.5", "--seed", "2"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert [row[:6] for row in rows] == [
        ["n", "edges", "max_degree", "diameter", "burn_in", "samples"],
        ["14", "29", "9", "3", "214", "7"],
        ["20", "43", "8", "4", "384", "7"],
    ]
    assert rows[0][6] == "seconds" and all(float(row[6]) > 0 for row in rows[1:])


def test_failing_bench_leaves_an_existing_output_file_as_it_was(capsys, tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"n,seconds\n100,0.5\n")
    # size 3 at this degree has no edges, so the sweep fails on its first size
    code, out, err = run(capsys, ["bench", "--sizes", "3,2000", "--avg-degree", "0.001",
                                  "--m", "3", "--epsilon", "0.9", "--output", str(path)])
    assert code == 4 and err.startswith("structural error:")
    assert path.read_bytes() == b"n,seconds\n100,0.5\n"


def _hostile_line(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text(" ".join(f"v{i}" for i in range(20_000)) + "\n")
    return path


def _hostile_facets(tmp_path):
    # disjoint 300-label facets implying four times the limit, about 130 kB
    path = tmp_path / "facets.txt"
    count = 4 * MAX_IMPLIED_EDGES // (300 * 299 // 2) + 1
    path.write_text("".join(
        " ".join(f"f{j}v{i}" for i in range(300)) + "\n" for j in range(count)
    ))
    return path


def _hostile_singletons(tmp_path):
    # one label per line, one line past the vertex limit, about 1.5 MB
    path = tmp_path / "singletons.txt"
    path.write_text("".join(f"v{i}\n" for i in range(MAX_VERTICES + 1)))
    return path


def _hostile_pairs(tmp_path):
    # disjoint pairs, one pair past the vertex limit, about 1.5 MB
    path = tmp_path / "pairs.txt"
    path.write_text("".join(f"a{i} b{i}\n" for i in range(MAX_VERTICES // 2 + 1)))
    return path


def _hostile_repeats(tmp_path):
    # one label, one line past the facet-line limit, about 2 MB
    path = tmp_path / "repeats.txt"
    path.write_text("a\n" * (MAX_IMPLIED_EDGES + MAX_VERTICES + 1))
    return path


def _run_capped(args):
    """Run the interpreter on ``args`` with its address space capped at 512 MB;
    the finished process and its wall time."""
    resource = pytest.importorskip("resource")
    limit = 512 << 20

    def cap_address_space():
        # in the child only: a regression runs out of memory there and fails
        # the test, instead of exhausting the machine
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=60,
    )
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize(
    "make_input, limit",
    [(_hostile_line, "edges"), (_hostile_facets, "edges"),
     (_hostile_singletons, "vertex labels"), (_hostile_pairs, "vertex labels"),
     (_hostile_repeats, "facet lines")],
    ids=["line", "facets", "singletons", "pairs", "repeats"],
)
def test_hostile_facet_file_is_input_error_within_a_second(tmp_path, make_input, limit):
    path = make_input(tmp_path)
    proc, elapsed = _run_capped(["-m", "simplets", "exact", "--m", "3", "--input", str(path)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("input error:") and limit in proc.stderr
    assert elapsed < 1.0


def test_build_complex_over_the_vertex_limit_is_input_error_within_a_second():
    script = (
        "import sys\n"
        "from simplets import InputError, build_complex\n"
        "try:\n"
        "    build_complex([(0, 1)], 10**7)\n"
        "except InputError as exc:\n"
        "    sys.exit(f'input error: {exc}')\n"
    )
    proc, elapsed = _run_capped(["-c", script])
    assert proc.returncode == 1 and proc.stderr.startswith("input error:"), proc.stderr
    assert "vertex_count 10000000 is over" in proc.stderr
    assert elapsed < 1.0


def test_validate_output_does_not_depend_on_the_start_method():
    # Python 3.14 makes forkserver the Linux default for ProcessPoolExecutor;
    # the worker trials must give the same report under every start method
    argv = ["validate", "--model", "lm", "--n", "50", "--p-edge", "0.25", "--p-tri", "0.7",
            "--p-tet", "0.7", "--largest-component", "--m", "4", "--epsilon", "0.3",
            "--delta", "0.1", "--trials", "4", "--threads", "2", "--gen-seed", "11"]
    script = (
        "import multiprocessing, sys\n"
        "from simplets.cli import main\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    reports = []
    for method in ("fork", "forkserver", "spawn"):
        proc = subprocess.run([sys.executable, "-c", script, method, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (method, proc.stderr)
        report = json.loads(proc.stdout)
        report.pop("timing")
        reports.append(json.dumps(report))
    assert reports[1] == reports[0] and reports[2] == reports[0]
