"""Command-line interface: catalog, exact SFD, approximate SFD, validation, generation, benchmarking.

Exit codes: 0 success, 2 usage error, 3 malformed input, 4 structural error
(disconnected or too-small complex), 5 internal integrity failure.  A reader
that closes standard output early (``simplets catalog --m 5 | head -1``) ends
the output quietly: no traceback, nothing on stderr, exit code 0.  Each
command writes its output once it is complete, so a failing command leaves an
existing ``--output`` file as it was.

Every JSON output holds the bytes of ``json.dumps(obj, indent=2)``.  The
catalog listing of ``catalog``, ``exact`` and ``approx`` (22.3 MB of the
22.5 MB ``exact --m 6`` output) is joined from the cached text of its
simplices instead, since the pure-Python encoder that ``indent`` selects took
most of an m = 6 run.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import time

from .approx import (
    DEFAULT_VC_CONSTANT, approximate_sfd, failure_bound, linf_distance, required_samples,
)
from .catalog import MAX_CATALOG_VERTICES, SimpletCatalog, generate_catalog
from .complexes import SimplicialComplex, skeleton_diameter
from .errors import InputError, IntegrityError, StructuralError
from .exact import exact_counts
from .generate import MODELS, GenSpec, generate, largest_connected_restriction
from .io import load_complex, write_facets
from .sampler import DEFAULT_C_MIX, burn_in_steps

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_STRUCTURAL = 4
EXIT_INTERNAL = 5


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text}")
    return value


def _open_unit(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"expected a value strictly inside (0, 1), got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _sizes(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text}")
    if not values or any(v < 3 for v in values):
        raise argparse.ArgumentTypeError("sizes must be integers >= 3")
    return values


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    """The sampling options that approx, validate and bench share."""
    parser.add_argument("--m", type=int, choices=range(3, MAX_CATALOG_VERTICES + 1), required=True)
    parser.add_argument("--epsilon", type=_open_unit, default=0.1, help="accuracy target in (0,1)")
    parser.add_argument("--delta", type=_open_unit, default=0.1, help="failure probability in (0,1)")
    parser.add_argument("--c", type=_positive_float, default=DEFAULT_VC_CONSTANT, help="sample-bound constant")
    parser.add_argument("--c-mix", type=_positive_float, default=DEFAULT_C_MIX, help="burn-in scale factor")
    parser.add_argument("--seed", type=int, default=0)


def _add_gen_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--model", choices=MODELS, required=required, help="generator model")
    parser.add_argument("--n", type=_positive_int, help="number of vertices")
    parser.add_argument("--p-edge", type=_probability, help="edge probability")
    parser.add_argument("--p-tri", type=_probability, default=0.0, help="triangle fill probability (lm)")
    parser.add_argument("--p-tet", type=_probability, default=0.0, help="tetrahedron fill probability (lm)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplets",
        description="Exact and sampling-based simplet frequency distributions of simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    catalog_m = range(2, MAX_CATALOG_VERTICES + 1)

    p_catalog = sub.add_parser("catalog", help="print the simplet type catalog as JSON")
    p_catalog.add_argument("--m", type=int, choices=catalog_m, required=True)

    p_exact = sub.add_parser("exact", help="exact SFD vector of a facet file")
    p_exact.add_argument("--input", required=True, help="facet file path")
    p_exact.add_argument("--m", type=int, choices=catalog_m, required=True)

    p_approx = sub.add_parser("approx", help="approximate SFD vector via MCMC sampling")
    p_approx.add_argument("--input", required=True, help="facet file path")
    _add_sampling_flags(p_approx)
    p_approx.add_argument("--largest-component", action="store_true",
                          help="restrict to the largest connected component first")

    p_validate = sub.add_parser("validate", help="Monte-Carlo check of the (epsilon, delta) guarantee")
    p_validate.add_argument("--input", help="facet file path (alternative to --model)")
    _add_gen_flags(p_validate, required=False)
    p_validate.add_argument("--gen-seed", type=int, default=0, help="generator seed")
    _add_sampling_flags(p_validate)
    p_validate.add_argument("--trials", type=_positive_int, default=200)
    p_validate.add_argument("--threads", type=_positive_int, default=1)
    p_validate.add_argument("--largest-component", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a random complex and write its facet file")
    _add_gen_flags(p_gen, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_gen.add_argument("--largest-component", action="store_true")

    p_bench = sub.add_parser("bench", help="time sampling across complex sizes, emit CSV")
    p_bench.add_argument("--sizes", type=_sizes, required=True, help="comma-separated vertex counts")
    p_bench.add_argument("--avg-degree", type=_positive_float, required=True,
                         help="target average degree; edge probability is avg/(n-1)")
    p_bench.add_argument("--model", choices=MODELS, default="flag")
    p_bench.add_argument("--p-tri", type=_probability, default=0.0)
    p_bench.add_argument("--p-tet", type=_probability, default=0.0)
    _add_sampling_flags(p_bench)
    p_bench.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    return parser


def _write(path: str, text: str, mode: str = "w") -> None:
    """Write a command's finished ``text`` to the file at ``path``, or to
    stdout for ``-``.

    An unwritable path raises InputError; a reader that closed stdout ends it
    quietly.  Writing ``""`` with ``mode="a"`` checks a path before a long
    run without changing an existing file."""
    if path != "-":
        try:
            with open(path, mode, encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's final flush of
        # the unwritten rest cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _catalog_json(catalog: SimpletCatalog, pad: str) -> str:
    """``json.dumps(catalog.to_json_obj(), indent=2)`` at indent ``pad``.

    Each type's text is joined from the cached text of its simplices, of which
    there are at most 57 distinct ones up to m = 6."""
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "

    @functools.cache
    def simplex(s: tuple[int, ...]) -> str:
        return f"{p3}[\n" + ",\n".join(f"{p3}  {v}" for v in s) + f"\n{p3}]"

    return "[\n" + ",\n".join([
        f'{p1}{{\n{p2}"k": {key.vertex_count},\n{p2}"simplices": [\n'
        + ",\n".join(map(simplex, key.simplices))
        + f"\n{p2}]\n{p1}}}"
        for key in catalog.keys
    ]) + f"\n{pad}]"


def _print_json(obj: dict) -> None:
    """Print ``json.dumps(obj, indent=2)``, where a catalog value stands for
    its ``to_json_obj()`` listing."""
    text = ",\n  ".join(
        json.dumps(key) + ": " + (
            _catalog_json(value, "  ") if isinstance(value, SimpletCatalog)
            # a dumped value holds no raw newline, so this indents every line
            else json.dumps(value, indent=2).replace("\n", "\n  ")
        )
        for key, value in obj.items()
    )
    _write("-", "{\n  " + text + "\n}\n")


def cmd_catalog(args) -> int:
    _write("-", _catalog_json(generate_catalog(args.m), "") + "\n")
    return EXIT_OK


def cmd_exact(args) -> int:
    complex_, labels = load_complex(args.input)
    catalog = generate_catalog(args.m)
    sfd = exact_counts(complex_, catalog)
    _print_json({**sfd.to_json_obj(), "catalog": catalog, "labels": labels})
    return EXIT_OK


def cmd_approx(args) -> int:
    complex_, labels = load_complex(args.input)
    if args.largest_component:
        complex_, kept = largest_connected_restriction(complex_)
        labels = [labels[v] for v in kept]
    # Raises at once if disconnected, before the catalog.
    burn_in = burn_in_steps(complex_, args.c_mix)
    catalog = generate_catalog(args.m)
    sfd = approximate_sfd(
        complex_, catalog, args.epsilon, args.delta, args.c, seed=args.seed, c_mix=args.c_mix
    )
    _print_json(
        {
            **sfd.to_json_obj(),
            "catalog": catalog,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "c": args.c,
            "samples": sfd.total,
            "burn_in": burn_in,
            "seed": args.seed,
            "labels": labels,
            "failure_bound": failure_bound(sfd.total, args.epsilon),
        }
    )
    return EXIT_OK


def _generated(args, n: int | None, p_edge: float | None, seed: int, largest: bool) -> SimplicialComplex:
    """``generate`` on the generator flags with this ``n``, ``p_edge`` and
    ``seed``, restricted to its largest connected component when ``largest``."""
    if n is None or p_edge is None:
        raise InputError("--model requires --n and --p-edge")
    complex_ = generate(GenSpec(args.model, n, p_edge, args.p_tri, args.p_tet, seed))
    if largest:
        complex_, _kept = largest_connected_restriction(complex_)
    return complex_


def _complex_from_args(args) -> tuple[SimplicialComplex, dict]:
    if (args.input is None) == (args.model is None):
        raise InputError("provide exactly one of --input or --model")
    if args.model is not None:
        complex_ = _generated(args, args.n, args.p_edge, args.gen_seed, args.largest_component)
        return complex_, {
            "model": args.model,
            "n": args.n,
            "p_edge": args.p_edge,
            "p_tri": args.p_tri,
            "p_tet": args.p_tet,
            "gen_seed": args.gen_seed,
        }
    complex_, _labels = load_complex(args.input)
    if args.largest_component:
        complex_, _kept = largest_connected_restriction(complex_)
    return complex_, {"input": args.input}


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_validate(args) -> int:
    complex_, origin = _complex_from_args(args)
    diameter = skeleton_diameter(complex_)  # raises at once if disconnected, before the catalog
    # A bad bound fails here, before exact counting.
    samples = required_samples(args.epsilon, args.delta, args.c)
    burn_in = burn_in_steps(complex_, args.c_mix)
    catalog = generate_catalog(args.m)

    t0 = time.perf_counter()
    exact = exact_counts(complex_, catalog)
    exact_seconds = time.perf_counter() - t0

    # Serial and pooled trials run this one context; each pool chunk pickles it,
    # and the parent measures each trial's estimate against the exact oracle.
    trial = functools.partial(
        approximate_sfd, complex_, catalog, args.epsilon, args.delta, args.c, c_mix=args.c_mix
    )
    seeds = [args.seed * 1_000_003 + index for index in range(args.trials)]
    t0 = time.perf_counter()
    # The pool starts every worker at once, so it gets no more than there are
    # trials or CPUs to run them on.
    workers = min(args.threads, args.trials, _usable_cpus())
    if workers > 1:
        # Imported here: loading the pool module adds about 20 ms to every command.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            estimates = list(pool.map(trial, seeds, chunksize=max(1, args.trials // (4 * workers))))
    else:
        estimates = list(map(trial, seeds))
    sampling_seconds = time.perf_counter() - t0
    errors = [linf_distance(estimate, exact) for estimate in estimates]

    failures = sum(1 for e in errors if e > args.epsilon)
    threshold = args.delta + 2.0 * math.sqrt(args.delta * (1.0 - args.delta) / args.trials)
    _print_json(
        {
            "mode": "validate",
            "complex": {
                "n": complex_.vertex_count,
                "edges": complex_.edge_count,
                "max_degree": complex_.max_degree,
                "diameter": diameter.value,
            },
            "params": {
                **origin,
                "m": args.m,
                "epsilon": args.epsilon,
                "delta": args.delta,
                "c": args.c,
                "c_mix": args.c_mix,
                "samples_per_trial": samples,
                "burn_in": burn_in,
                "trials": args.trials,
                "seed": args.seed,
                "threads": args.threads,
            },
            "exact": exact.to_json_obj(),
            "trials": args.trials,
            "linf_errors": errors,
            "failures": failures,
            "failure_fraction": failures / args.trials,
            "threshold": threshold,
            "passed": failures / args.trials <= threshold,
            "timing": {"exact_seconds": exact_seconds, "sampling_seconds": sampling_seconds},
            "failure_bound": failure_bound(samples, args.epsilon),
        }
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    complex_ = _generated(args, args.n, args.p_edge, args.seed, args.largest_component)
    buffer = io.StringIO()
    write_facets(buffer, complex_)
    _write(args.output, buffer.getvalue())
    return EXIT_OK


def cmd_bench(args) -> int:
    samples = required_samples(args.epsilon, args.delta, args.c)
    for size in args.sizes:
        if args.avg_degree > size - 1:
            raise InputError(
                f"--avg-degree {args.avg_degree} exceeds n - 1 = {size - 1} for size {size}"
            )
    _write(args.output, "", "a")  # an unwritable path fails before the sweep
    catalog = generate_catalog(args.m)
    rows = ["n,edges,max_degree,diameter,burn_in,samples,seconds"]
    for index, size in enumerate(args.sizes):
        seed = args.seed + index
        complex_ = _generated(args, size, args.avg_degree / (size - 1), seed, largest=True)
        diameter = skeleton_diameter(complex_)
        t0 = time.perf_counter()
        approximate_sfd(
            complex_, catalog, args.epsilon, args.delta, args.c, seed=seed, c_mix=args.c_mix
        )
        seconds = time.perf_counter() - t0
        rows.append(
            f"{complex_.vertex_count},{complex_.edge_count},{complex_.max_degree},"
            f"{diameter.value},{burn_in_steps(complex_, args.c_mix)},{samples},{seconds:.6f}"
        )
    _write(args.output, "\n".join(rows) + "\n")
    return EXIT_OK


_COMMANDS = {
    "catalog": cmd_catalog,
    "exact": cmd_exact,
    "approx": cmd_approx,
    "validate": cmd_validate,
    "gen": cmd_gen,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except IntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
