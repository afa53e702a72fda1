"""The README's Python examples run, in order, as one session, and its CLI table matches the parser."""

import argparse
import re
from pathlib import Path

from openrmt import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["rows"].clause) == 256
    assert not namespace["inverse_failures"]


def _leaf_parsers(parser, names=()):
    """(command, suite or mode) name tuples and their parsers, for every parser without subcommands."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield names, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*names, name))


def test_readme_option_table_matches_the_parser():
    """Each row of the README's CLI table lists its parsers' options in order, and every parser has a row."""
    rows = re.findall(r"^\| (`[^|]*`) \| `([^|]*)` \|$", README.read_text(), re.M)
    table = {}
    for names, options in rows:
        first, *others = re.findall(r"`([^`]*)`", names)
        *command, name = first.split()
        for leaf in (name, *others):
            table[(*command, leaf)] = options.split()
    parsers = {
        names: [opt for action in parser._actions for opt in action.option_strings if opt not in ("-h", "--help")]
        for names, parser in _leaf_parsers(cli.build_parser(1234))
    }
    assert table == parsers
