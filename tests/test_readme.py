"""The README's library quickstart runs as written and documents the public
surface, every submodule's __all__ names what it defines, and the README's
command lines use only options the CLI has."""

import ast
import importlib
import pathlib
import re
import shlex

import numpy as np
import pytest

import pseudosplines
from pseudosplines import cli, errors, frames
from pseudosplines.checks import run_all
from pseudosplines.symbol import PseudoSplineOrder

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys, sample_identities, tap_identities):
    monkeypatch.chdir(tmp_path)
    ns = {"__name__": "readme_quickstart"}
    exec(compile(quickstart(), str(README), "exec"), ns)
    capsys.readouterr()
    bank = ns["bank"]
    assert max(sample_identities(frames.sample_bank(bank.order, bank.grid))) < 1e-12
    # the comment's magnitudes: the diagonal near the taps' tails, the
    # off-diagonal at rounding
    diag, off = tap_identities(bank)
    assert 1e-12 < diag < 1e-10 and off < 1e-15
    # taps truncated at eps = 1e-10; 1e-8 is the limit verify applies
    assert np.max(np.abs(ns["g"].samples - ns["f"].samples)) < 1e-8
    assert list(tmp_path.iterdir()) == []


def test_public_surface_is_the_quickstart_plus_the_error_types():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(quickstart()))
        if isinstance(node, ast.ImportFrom) and node.module == "pseudosplines"
        for alias in node.names
    ]
    error_types = [
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    ]
    assert len(imported) == 14 and len(error_types) == 10
    assert sorted(pseudosplines.__all__) == sorted(imported + error_types + ["__version__"])
    assert all(hasattr(pseudosplines, name) for name in pseudosplines.__all__)


@pytest.mark.parametrize("name", ["symbol", "cascade", "frames", "analysis", "checks", "serialize", "cli"])
def test_every_submodule_all_entry_resolves(name):
    module = importlib.import_module(f"pseudosplines.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def shell_commands() -> list[list[str]]:
    """The arguments of each `pseudosplines ...` line in the README's sh blocks,
    continuation lines joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pseudosplines"]:
                commands.append(words[1:])
    return commands


def test_readme_command_lines_parse():
    parser = cli.build_parser()[0]
    commands = shell_commands()
    assert len(commands) == 8
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pseudosplines {shlex.join(argv)}")


def test_every_flag_the_readme_names_is_a_cli_option():
    options = {
        option
        for sub in cli.build_parser()[1].values()
        for action in sub._actions
        for option in action.option_strings
    }
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text())) - {"--no-build-isolation"}
    assert sorted(named - options) == []


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_readme_lists_the_checks_verify_runs(shift):
    text = README.read_text()
    section = text[text.index("`verify` runs ") : text.index("`verify` always writes")]
    listed = re.findall(r"`((?:symbol|cascade|frames)\.\w+)`", section)
    suites, _ = run_all(PseudoSplineOrder(2.0, 1, shift=shift), signal_length=64)
    assert listed == [f"{suite}.{r.name}" for suite, results in suites.items() for r in results]
    assert section.startswith(f"`verify` runs {len(listed)} checks in three suites")
