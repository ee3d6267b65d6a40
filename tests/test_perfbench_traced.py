"""The benchmark's traced mode (perfbench/traced.py) replays a CLI command as
spanned calls to qfilab's public functions. Its output files must equal the
CLI's byte for byte, which pins the public calls it makes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qfilab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def _commands(workload: str):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.commands(workload, SEED)


@pytest.mark.parametrize("workload", ["qfi_noon", "estimate_mzi", "curve_sweep"])
def test_traced_mode_matches_cli_output(workload, tmp_path):
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for index, cmd in enumerate(_commands(workload)):
        traced, cli = tmp_path / f"traced{index}", tmp_path / f"cli{index}"
        traced.mkdir()
        cli.mkdir()
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced.py"), workload, str(SEED), str(index), str(traced)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(cmd.argv(str(cli / cmd.out_name))) == cmd.expected_exit
        # every file the CLI writes (a curve's CSV and its provenance sidecar)
        written = sorted(f.name for f in cli.iterdir())
        assert sorted(f.name for f in traced.iterdir()) == written
        for name in written:
            assert (traced / name).read_bytes() == (cli / name).read_bytes(), name
