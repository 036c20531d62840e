"""The README's code examples run against the current package."""

import re
from pathlib import Path

import pytest

from simplets.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert float(capsys.readouterr().out) <= 1.0


def test_readme_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [
        line.split()[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("simplets ")
    ]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: simplets {' '.join(argv)}")
