"""The README's command-line and config sections match what the code accepts."""

import importlib.metadata
import re
import shlex
import tomllib
from pathlib import Path

from aisgd.cli import SYNTHETIC_KEYS, build_parser
from aisgd.experiments import CONFIG_KEYS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def _table_keys(header: str) -> list[str]:
    """The backticked first cells of the markdown table whose header row starts with ``header``."""
    lines = _section("Command line").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith(f"| {header} |"))
    keys = []
    for line in lines[start + 2:]:
        if not line.strip().startswith("|"):
            break
        keys.append(re.match(r"\s*\| `([^`]+)` \|", line).group(1))
    return keys


def test_config_key_table_matches_config_keys():
    keys = _table_keys("config key")
    assert len(keys) == len(set(keys))
    assert set(keys) == CONFIG_KEYS


def test_synthetic_key_table_matches_cli():
    assert _table_keys("`--synthetic` key") == list(SYNTHETIC_KEYS)


def test_command_line_examples_parse():
    block = re.search(r"```\n(.*?)```", _section("Command line"), re.S).group(1)
    commands = [line.split("#")[0] for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c.strip()]
    assert len(commands) >= 4
    parser = build_parser()
    for command in commands:
        tokens = shlex.split(command)
        assert tokens[0] == "aisgd"
        parser.parse_args(tokens[1:])


def _floor(spec: str) -> tuple[int, ...]:
    """The version a ``>=X.Y`` Requires-Python specifier names."""
    version = re.fullmatch(r">=\s*([\d.]+)", spec.strip()).group(1)
    return tuple(map(int, version.split(".")))


def test_python_floor_covers_numpy_and_is_in_the_readme():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    floor = _floor(pyproject["project"]["requires-python"])
    numpy_floor = _floor(importlib.metadata.metadata("numpy")["Requires-Python"])
    assert floor >= numpy_floor  # a Python NumPy does not install on is no floor at all
    named = re.search(r"Requires Python ([\d.]+)\+", _section("Install")).group(1)
    assert named == ".".join(map(str, floor))
