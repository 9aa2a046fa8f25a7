"""Every function in the package is run by the CLI, or is allowlisted here.

A subprocess installs a ``sys.setprofile`` hook before it imports
``fracpoly.cli`` (so decorators that run at import time count), drives the
CLI in-process through a dozen calls, and reports the code objects it saw
start.  Each ``def`` under ``src/fracpoly`` must be among them: a function
that neither the CLI nor the verifier runs is surface to delete, not to
keep.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fracpoly

PACKAGE = Path(fracpoly.__file__).resolve().parent

# Functions no CLI call reaches that stay, each with the reason.
ALLOWED = {
    "scalars.Scalar.__repr__": "debugging aid; no output renders a repr",
    "series.TruncatedSeries.__repr__": "debugging aid; no output renders a repr",
    "families.Polynomial.__repr__": "debugging aid; no output renders a repr",
    "fractional.FracExpansion.__repr__": "debugging aid; no output renders a repr",
    "fractional.FracExpansion.scale": "Coefficients.scale for an expansion, whose exponents the inherited one drops",
    "scalars.Scalar.__eq__": "without it two equal values compare unequal",
    "scalars.Coefficients.__eq__": "without it two equal containers compare unequal",
    "scalars.Scalar.as_fraction": "a library caller's exact reading of a value; the CLI passes no Scalar in",
    "cli.main": "the console-script entry point; the calls below invoke the click group directly",
}

# (argument vector, expected exit code)
CALLS = [
    (["verify", "all", "--max-degree", "3", "--precision", "64"], 0),
    (["numbers", "--family", "euler", "--alpha", "1/2", "--max", "4", "--format", "json"], 0),
    (["poly", "--family", "genocchi", "--lambda", "2", "--degree", "3", "--format", "csv"], 0),
    (["eval", "--degree", "3", "--at", "1/2"], 0),
    (["eval", "--alpha", "1/2", "--degree", "2", "--at", "1/3"], 0),
    (["mleval", "--alpha", "1", "--beta", "3", "--z", "1/2", "--closed-form"], 0),
    (["fracderiv", "--degree", "3", "--order", "1/2", "--at", "1/2", "--format", "json"], 0),
    (["fracderiv", "--degree", "1", "--order", "3/2", "--at", "1/2"], 0),
    (["fracint", "--degree", "2", "--order", "1/2", "--at", "1/2", "--format", "csv"], 0),
    (["verify", "nope"], 2),
    (["verify", "eq5", "--lambda", "2"], 2),
    (["numbers", "--alpha", "1e99999", "--max", "1"], 2),
    (["eval", "--degree", "2", "--at", "1e3000"], 2),
]

PROFILED_RUN = """
import json, os, sys

seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import fracpoly.cli
from click.testing import CliRunner

runner = CliRunner()
codes = [runner.invoke(fracpoly.cli.cli, args).exit_code for args, _ in json.loads(sys.argv[1])]
sys.setprofile(None)
json.dump({"codes": codes, "seen": sorted({(os.path.realpath(f), n) for f, n in seen})}, sys.stdout)
"""


def _functions():
    """{(file, first line of the code object): dotted name} for every def."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(path, first)] = name
                visit(child, name + ".", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem + ".", str(path.resolve()))
    return out


def test_every_function_is_reached_or_allowlisted():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", PROFILED_RUN, json.dumps(CALLS)],
                         capture_output=True, text=True, check=True, env=env)
    result = json.loads(run.stdout)
    assert result["codes"] == [code for _, code in CALLS]
    seen = {tuple(key) for key in result["seen"]}
    functions = _functions()
    assert set(ALLOWED) <= set(functions.values()), "an allowlisted name no longer exists"
    unreached = sorted(name for key, name in functions.items() if key not in seen)
    assert unreached == sorted(ALLOWED)
