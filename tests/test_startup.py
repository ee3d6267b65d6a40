"""Which scipy subpackages a fresh qfilab process loads.

scipy is imported inside the functions that use it, so the package and
the commands that need no scipy routine start without it: import time is
most of the wall time of a small command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfilab

_REPORT = (
    "import json, sys\n"
    "from qfilab.cli import main\n"
    "if sys.argv[1:]:\n"
    "    main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')), file=sys.stderr)\n"
)


def _scipy_modules(argv):
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT, *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv", [[], ["catalog", "list"]], ids=["import", "catalog-list"])
def test_import_and_catalog_list_load_no_scipy(argv):
    assert _scipy_modules(argv) == set()


def test_two_branch_qfi_loads_neither_linalg_nor_optimize(tmp_path):
    loaded = _scipy_modules(["qfi", "catalog:zeta_noon:3:40", "--out", str(tmp_path / "q.json")])
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.linalg", "scipy.optimize"}


def test_mzi_qfi_on_a_general_input_loads_no_scipy(tmp_path):
    # |N,N> takes the splitter recurrence, not a scipy eigensolver
    assert _scipy_modules(["qfi", "catalog:dual_fock:3", "--pipeline", "MZI",
                           "--out", str(tmp_path / "q.json")]) == set()


def test_mzi_estimate_on_dual_fock_loads_special_only(tmp_path):
    # the |1,1> sector is two-branch after the first splitter, so its final
    # splitter columns take the closed form
    loaded = _scipy_modules(["estimate", "catalog:zeta_dual_fock:3:30", "--pipeline", "MZI",
                             "--phi-true", "0.3", "--trials", "100", "--out", str(tmp_path / "e.jsonl")])
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.linalg", "scipy.optimize"}
