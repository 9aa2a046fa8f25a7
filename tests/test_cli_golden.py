"""Byte-for-byte stdout and exit codes of fixed CLI invocations.

``golden/cli_outputs.txt`` holds one block per invocation: a line
``$ fracpoly <args>``, the stdout of that call, and a line ``exit <code>``.
The invocations cover every table and operator subcommand in both
coefficient domains, including float coefficients built from exact factors
(``--alpha 3/2`` at integer orders), where the order of rounding shows in
the last digits.  CI reruns the same lines through the installed console
script and diffs the file.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from fracpoly.cli import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.txt"
PROMPT = "$ fracpoly "


def _blocks() -> list[tuple[str, str]]:
    """(arguments, expected block) for each invocation in the golden file."""
    blocks = []
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith(PROMPT):
            blocks.append([line[len(PROMPT):].strip(), line])
        else:
            blocks[-1][1] += line
    return [tuple(b) for b in blocks]


BLOCKS = _blocks()


def test_golden_covers_every_table_and_operator_command():
    commands = {args.split()[0] for args, _ in BLOCKS}
    assert commands == {"numbers", "poly", "eval", "mleval", "fracderiv", "fracint"}
    assert len(BLOCKS) >= 20


@pytest.mark.parametrize("args,block", BLOCKS, ids=[args for args, _ in BLOCKS])
def test_cli_output_matches_golden(args, block):
    r = CliRunner().invoke(cli, args.split(), env={"FRACPOLY_PRECISION": None})
    assert f"{PROMPT}{args}\n{r.stdout}exit {r.exit_code}\n" == block
