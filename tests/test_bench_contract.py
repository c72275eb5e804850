"""What bench/run.py needs of the package, read from its source with ast.

The benchmark wraps package functions by name (its TRACED table) and drives
the command line with fixed argument lists (the CliTours workloads). Neither
is imported here: the benchmark is read, not run, so these tests catch a
renamed function or a dropped option without a benchmark round.
"""

import ast
import importlib
from pathlib import Path

import pytest

from dstsp_lab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"
TREE = ast.parse(BENCH.read_text(encoding="utf-8"))


def _traced():
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts]
    raise AssertionError("bench/run.py defines no TRACED table")


def _classes():
    return {node.name: node for node in TREE.body
            if isinstance(node, ast.ClassDef)}


def _cli_tail():
    """The arguments CliTours.cli appends to every workload's argv, with
    the value after --seed and --out filled in."""
    method = next(node for node in _classes()["CliTours"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "cli")
    tail = next(node.right for node in ast.walk(method)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and isinstance(node.right, ast.List))
    fill = {"--seed": "7", "--out": "bench-contract.csv"}
    out = []
    for elt in tail.elts:
        out.append(elt.value if isinstance(elt, ast.Constant)
                   else fill[out[-1]])
    return out


def _workload_argvs():
    """Every argv a CliTours subclass passes to self.cli."""
    argvs = []
    for cls in _classes().values():
        if not any(getattr(b, "id", None) == "CliTours" for b in cls.bases):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) == "cli":
                argvs.append(ast.literal_eval(node.args[2]))
    return argvs


@pytest.mark.parametrize("module, attribute", _traced())
def test_every_traced_function_exists(module, attribute):
    mod = importlib.import_module(f"dstsp_lab.{module}")
    assert callable(getattr(mod, attribute, None)), f"{module}.{attribute}"


def test_the_tour_workloads_are_found():
    assert len(_workload_argvs()) >= 3


@pytest.mark.parametrize("argv", _workload_argvs(), ids=" ".join)
def test_every_workload_command_line_resolves(argv):
    tail = _cli_tail()
    args = cli.build_parser().parse_args(argv + tail)
    cfg = cli.resolve_config(args.subcommand, args)
    assert cfg.subcommand == argv[0]
    assert cfg.seed == 7 and cfg.assert_checks
    assert cfg.out == "bench-contract.csv"
