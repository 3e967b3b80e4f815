"""The byte-identity case list in tools/outputs.py covers the whole CLI."""

import argparse
import importlib.util
from pathlib import Path

from sceneplan.cli import build_parser


def load_outputs():
    path = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
    spec = importlib.util.spec_from_file_location("outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_subcommand_has_a_case():
    outputs = load_outputs()
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    run = {cmd[2] for _, _, commands in outputs.CASES for cmd in commands
           if cmd[:2] == ["-m", "sceneplan.cli"]}
    assert sorted(subcommands) == sorted(run)
