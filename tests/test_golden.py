"""Report digests: small CLI runs must write byte-identical reports.

tests/golden_reports.json holds each run's argument list (its config file,
if any, inline, and its instance file, if any, by name in tests/), the
sha256 of the report it writes, and the Python, numpy and platform that
produced the digests. A change that alters a report
updates that file in the same diff and says why. Rerecord with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib
import platform

import numpy as np
import pytest

from dstsp_lab import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
RUNS = json.loads(GOLDEN.read_text())


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def report_digest(run, workdir):
    """sha256 of the report that one golden run writes into workdir."""
    argv = list(run["argv"])
    if "config" in run:
        cfg = workdir / f"{run['name']}.config.json"
        cfg.write_text(json.dumps(run["config"]))
        argv += ["--config", str(cfg)]
    if "instance" in run:
        argv += ["--instance", str(GOLDEN.with_name(run["instance"]))]
    out = workdir / f"{run['name']}.{run.get('ext', 'csv')}"
    rc = cli.main(argv + ["--seed", "0", "--out", str(out)])
    assert rc == 0, f"{run['name']}: exit code {rc}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", RUNS["runs"], ids=lambda r: r["name"])
def test_report_digest_unchanged(run, tmp_path):
    got = report_digest(run, tmp_path)
    assert got == run["sha256"], (
        f"{run['name']} ({' '.join(run['argv'])}) wrote a different report:\n"
        f"  recorded {run['sha256']} with {RUNS['environment']}\n"
        f"  got      {got} with {environment()}")


def record(workdir):
    """Rewrite the digests and the environment from runs of this tree."""
    for run in RUNS["runs"]:
        run["sha256"] = report_digest(run, workdir)
    RUNS["environment"] = environment()
    GOLDEN.write_text(json.dumps(RUNS, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record(pathlib.Path(tmp))
