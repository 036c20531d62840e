"""Workload definitions, pinned inputs and output checks of the benchmark.

Every workload is one ``simplets`` command run on a seeded random complex.
The benchmark seed picks one of a small table of pinned generator seeds
(``pins.json``), so a seed always gives the same input and every seed gives
an input of about the same size: the inputs vary, the amount of work does
not.  Each pinned entry records the input's profile, a content hash, and the
reference outputs the run is checked against.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``gen`` holds the ``GenSpec`` fields except the seed.  ``argv`` is the
    command line after the input arguments, which the benchmark adds: a facet
    file for ``approx`` and ``exact``, ``--gen-seed`` for ``validate``, which
    builds its complex inside the command.  Why each workload was chosen is
    in ``BENCHMARK.json`` and ``README.md``.
    """

    name: str
    command: str
    gen: dict
    largest_component: bool
    argv: tuple[str, ...]

    @property
    def m(self) -> int:
        return int(self.argv[self.argv.index("--m") + 1])

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    @property
    def processes(self) -> int:
        """Processes the command keeps busy at once."""
        return int(self.flag("--threads")) if "--threads" in self.argv else 1


def _flag_p(n: int, avg_degree: float) -> float:
    return avg_degree / (n - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "approx-n500",
            "approx",
            {"model": "flag", "n": 500, "p_edge": _flag_p(500, 8)},
            True,
            ("approx", "--m", "4", "--epsilon", "0.4", "--delta", "0.1"),
        ),
        Workload(
            "exact-m5",
            "exact",
            {"model": "flag", "n": 30, "p_edge": _flag_p(30, 8)},
            False,
            ("exact", "--m", "5"),
        ),
        Workload(
            "validate-lm",
            "validate",
            {"model": "lm", "n": 50, "p_edge": 0.25, "p_tri": 0.7, "p_tet": 0.7},
            True,
            ("validate", "--model", "lm", "--n", "50", "--p-edge", "0.25", "--p-tri", "0.7",
             "--p-tet", "0.7", "--largest-component", "--m", "4", "--epsilon", "0.3",
             "--delta", "0.1", "--trials", "4", "--threads", "2"),
        ),
    )
}

# Toy versions of the same commands, for the smoke mode.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("approx-n500", "approx", {"model": "flag", "n": 60, "p_edge": _flag_p(60, 4)},
                 True, ("approx", "--m", "4", "--epsilon", "0.3", "--delta", "0.2")),
        Workload("exact-m5", "exact", {"model": "flag", "n": 30, "p_edge": _flag_p(30, 4)},
                 False, ("exact", "--m", "5")),
        Workload("validate-lm", "validate",
                 {"model": "lm", "n": 20, "p_edge": 0.3, "p_tri": 0.7, "p_tet": 0.7}, True,
                 ("validate", "--model", "lm", "--n", "20", "--p-edge", "0.3", "--p-tri", "0.7",
                  "--p-tet", "0.7", "--largest-component", "--m", "4", "--epsilon", "0.3",
                  "--delta", "0.2", "--trials", "2", "--threads", "2")),
    )
}


class PinError(RuntimeError):
    """The regenerated input differs from the pinned one."""


def load_pins(smoke: bool) -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    return pins["smoke" if smoke else "full"]


def pinned_entry(pins: dict, workload: Workload, seed: int) -> dict:
    entries = pins[workload.name]["entries"]
    return entries[seed % len(entries)]


def make_input(workload: Workload, gen_seed: int):
    """The complex the command works on, and its facet-file text."""
    from simplets import GenSpec, generate, largest_connected_restriction, write_facets

    complex_ = generate(GenSpec(seed=gen_seed, **workload.gen))
    if workload.largest_component:
        complex_ = largest_connected_restriction(complex_).complex
    buffer = io.StringIO()
    write_facets(buffer, complex_)
    return complex_, buffer.getvalue()


def input_profile(complex_, workload: Workload, diameter: int | None = None) -> dict:
    """Profile of an input; ``diameter`` (slow on large inputs) is computed when not given."""
    from simplets import burn_in_steps, required_samples, skeleton_diameter

    by_dim: dict[str, int] = {}
    for facet in complex_.facets:
        key = str(len(facet) - 1)
        by_dim[key] = by_dim.get(key, 0) + 1
    profile = {
        "n": complex_.vertex_count,
        "edges": complex_.edge_count,
        "facets_by_dim": dict(sorted(by_dim.items())),
        "max_degree": complex_.max_degree,
    }
    if workload.command != "exact":
        if diameter is None:
            diameter = skeleton_diameter(complex_).value
        eps, delta = float(workload.flag("--epsilon")), float(workload.flag("--delta"))
        profile["diameter"] = diameter
        profile["burn_in"] = burn_in_steps(complex_, 1.0, diameter=diameter)
        profile["required_samples"] = required_samples(eps, delta)
    return profile


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_input(workload: Workload, entry: dict):
    """Regenerate the pinned input; raise PinError when it differs from the pin."""
    complex_, text = make_input(workload, entry["gen_seed"])
    digest = text_hash(text)
    if digest != entry["sha256"]:
        raise PinError(
            f"{workload.name}: generator seed {entry['gen_seed']} now gives a different "
            f"input (sha256 {digest[:12]}, pinned {entry['sha256'][:12]}); the workload "
            "changed, so its numbers are not comparable with earlier runs"
        )
    profile = input_profile(complex_, workload, diameter=entry["profile"].get("diameter"))
    if profile != entry["profile"]:
        raise PinError(f"{workload.name}: input profile {profile} differs from pin {entry['profile']}")
    return complex_, text


def command_argv(workload: Workload, entry: dict, seed: int, input_path: str) -> list[str]:
    argv = list(workload.argv)
    if workload.command == "validate":
        argv += ["--gen-seed", str(entry["gen_seed"]), "--seed", str(seed)]
    else:
        argv += ["--input", input_path]
        if workload.command == "approx":
            argv += ["--seed", str(seed)]
    return argv


@dataclass
class Verdict:
    """Outcome of one command: ``correct`` is false when the output is invalid,
    ``failed`` when the command did not deliver a good result; ``simplets`` is
    the number of simplets tallied into its SFD vectors."""

    correct: bool
    failed: bool
    simplets: int
    problems: list[str]


def _valid_sfd(obj: dict, types: int, problems: list[str]) -> None:
    freqs, counts, total = obj.get("frequencies") or [], obj.get("counts") or [], obj.get("total")
    if len(freqs) != types or len(counts) != types:
        problems.append(f"SFD has {len(freqs)} entries, catalog has {types}")
        return
    if any(not 0.0 <= f <= 1.0 for f in freqs) or not math.isclose(sum(freqs), 1.0, abs_tol=1e-9):
        problems.append("frequencies are not a distribution")
    if sum(counts) != total or any(
        not math.isclose(f, c / total, abs_tol=1e-12) for f, c in zip(freqs, counts)
    ):
        problems.append("frequencies do not match counts / total")


def check_output(workload: Workload, entry: dict, stdout: str, exit_code: int) -> Verdict:
    problems: list[str] = []
    if exit_code != 0:
        return Verdict(False, True, 0, [f"exit code {exit_code}"])
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return Verdict(False, True, 0, [f"output is not JSON: {exc}"])
    ref = entry["reference"]
    failed = False
    if workload.command == "exact":
        _valid_sfd(out, len(ref["counts"]), problems)
        if out.get("counts") != ref["counts"]:
            problems.append("exact counts differ from the pinned reference")
        simplets = out.get("total") or 0
    elif workload.command == "approx":
        _valid_sfd(out, len(ref["frequencies"]), problems)
        profile = entry["profile"]
        if out.get("samples") != profile["required_samples"]:
            problems.append(f"{out.get('samples')} samples, required {profile['required_samples']}")
        if out.get("burn_in") != profile["burn_in"]:
            problems.append(f"burn-in {out.get('burn_in')}, pinned {profile['burn_in']}")
        if not problems:
            error = max(abs(a - b) for a, b in zip(out["frequencies"], ref["frequencies"]))
            failed = error > float(workload.flag("--epsilon"))
        simplets = out.get("samples") or 0
    else:
        trials = int(workload.flag("--trials"))
        if out.get("trials") != trials or len(out.get("linf_errors", ())) != trials:
            problems.append(f"{out.get('trials')} trials reported, {trials} requested")
        if out.get("exact", {}).get("counts") != ref["counts"]:
            problems.append("exact oracle counts differ from the pinned reference")
        if out.get("params", {}).get("burn_in") != entry["profile"]["burn_in"]:
            problems.append("burn-in differs from the pinned profile")
        failed = out.get("passed") is not True
        simplets = trials * (out.get("params", {}).get("samples_per_trial") or 0)
    correct = not problems
    return Verdict(correct, failed or not correct, simplets, problems)
