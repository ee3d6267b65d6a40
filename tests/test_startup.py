"""Which scipy subpackages, and whether numpy.ma, a fresh qfilab process
loads, and how many threads it runs; which modules import scipy at all;
that estimation reads no kernel internals of fisher; and the public API.

scipy is imported inside the functions that use it, so the package and
the commands that need no scipy routine start without it: import time is
most of the wall time of a small command. Only curves.py, for fig3a and
fig3b, imports it. numpy imports numpy.ma lazily;
in numpy 2.x np.unique does (it asks np.ma.is_masked), so a command that
calls no np.unique starts without it.
"""

import ast
import dataclasses
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
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])),\n"
    "      file=sys.stderr)\n"
)


_THREADS = (
    "import json, os, sys\n"
    "import qfilab.cli\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task'))]),\n"
    "      file=sys.stderr)\n"
)


def _fresh_report(script, argv=(), env=None):
    """The JSON of the last stderr line of a fresh process that runs
    script with argv, with src importable, in env (default: this
    process's environment)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(qfilab.__file__).parents[1]),
                                                      env.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def _loaded_modules(argv):
    """The scipy and numpy.ma modules loaded by a fresh process that
    imports qfilab.cli and runs main(argv) when argv is not empty."""
    return set(_fresh_report(_REPORT, argv))


@pytest.mark.parametrize("argv", [[], ["catalog", "list"]], ids=["import", "catalog-list"])
def test_import_and_catalog_list_load_no_scipy(argv):
    assert _loaded_modules(argv) == set()


@pytest.mark.parametrize("command", ["qfi", "fi-scan"])
def test_two_branch_qfi_loads_no_scipy(tmp_path, command):
    # every sector is two-branch: the FI takes the closed form, which needs
    # no splitter column, so not gammaln either; and with no general
    # sector it sets up no phase kernel, so calls no np.unique (numpy.ma)
    assert _loaded_modules([command, "catalog:zeta_noon:3:40", "--out", str(tmp_path / "out")]) == set()


def test_mzi_qfi_on_a_general_input_loads_no_scipy(tmp_path):
    # |N,N> takes the splitter recurrence, not a scipy eigensolver
    loaded = _loaded_modules(["qfi", "catalog:dual_fock:3", "--pipeline", "MZI",
                             "--out", str(tmp_path / "q.json")])
    assert not {m for m in loaded if m.startswith("scipy")}


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "catalog:zeta_dual_fock:3:30", "--pipeline", "MZI", "--phi-true", "0.3",
         "--trials", "100"],
        ["qfi", "catalog:zeta_dual_fock:3", "--pipeline", "MZI"],
    ],
    ids=["estimate", "qfi-K1000"],
)
def test_mzi_estimate_on_dual_fock_loads_no_scipy(tmp_path, argv):
    # every sector is a single input |J,J>, which the MZI reads as a
    # rotation before any first splitter: no splitter column, and no phase
    # kernel (so no np.unique)
    assert _loaded_modules(argv + ["--out", str(tmp_path / "out")]) == set()


def test_mzi_qfi_on_general_sectors_loads_no_numpy_ma(tmp_path):
    # the first splitter turns the two-branch input into general sectors,
    # whose phase kernel finds its distinct eigenvalues with a sort, not
    # np.unique; the closed-form splitter columns take math.lgamma, not
    # scipy.special (which imports numpy.ma itself)
    loaded = _loaded_modules(["qfi", "catalog:noon:3", "--pipeline", "MZI", "--out", str(tmp_path / "q.json")])
    assert loaded == set()


needs_two_cpus = pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                                    reason="reads /proc/self/task; OpenBLAS starts no worker on one CPU")


@needs_two_cpus
def test_import_runs_openblas_on_one_thread():
    # an idle OpenBLAS worker spins, which made short commands use more
    # CPU than wall time; the import sets the variable before numpy loads
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _fresh_report(_THREADS, env=env) == ["1", 1]


@needs_two_cpus
def test_a_users_openblas_thread_setting_stands():
    assert _fresh_report(_THREADS, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))[0] == "2"


def test_import_after_numpy_leaves_the_thread_setting_unset():
    # numpy's OpenBLAS already runs its threads, so setting the variable
    # would change nothing here and only cap the threads of child processes
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    script = ("import json, os, sys\nimport numpy\nimport qfilab\n"
              "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS')]), file=sys.stderr)\n")
    assert _fresh_report(script, env=env) == [None]


def test_only_the_curves_module_imports_scipy():
    # read from the source text, so an import inside a function counts too
    importers = set()
    for path in sorted(Path(qfilab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in modules):
                importers.add(path.name)
    assert importers == {"curves.py"}


def test_estimation_imports_no_kernel_internals():
    # fisher owns the sector kinds and both kernels; estimation reads
    # records and phases through _logliks only
    internals = {"_rotation", "_sectors", "_distinct", "_amplitudes", "_derivative",
                 "_ROTATION", "_IMAGE", "_FIXED", "_TWO_BRANCH", "_GENERAL"}
    source = (Path(qfilab.__file__).parent / "estimation.py").read_text(encoding="utf-8")
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "fisher" and node.level == 1
                for alias in node.names}
    assert sorted(imported & internals) == []


def test_phases_are_cut_into_blocks_only_by_the_readers():
    # the kernels (_amplitudes, _rotation) evaluate exactly the phases they
    # are passed; each reader that takes many phases cuts them into blocks
    # once: the FI scan, the log-likelihood function _logliks returns, and
    # the coarse MLE pass
    source = Path(qfilab.__file__).parent
    trees = {name: ast.parse((source / f"{name}.py").read_text(encoding="utf-8")) for name in ("fisher", "estimation")}
    callers = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_phase_blocks":
                callers.add(".".join(path))
            visit(child, path)

    for name, tree in trees.items():
        visit(tree, [name])
    logliks = next(node for node in trees["fisher"].body if isinstance(node, ast.FunctionDef) and node.name == "_logliks")
    returned = next(node.value.id for node in logliks.body if isinstance(node, ast.Return))
    assert returned in {node.name for node in logliks.body if isinstance(node, ast.FunctionDef)}
    assert callers == {"fisher._fi_reduce", f"fisher._logliks.{returned}", "estimation._estimates"}


def test_report_fields_snapshot():
    # a field added to or dropped from a report shows up here, in review
    assert [f.name for f in dataclasses.fields(qfilab.FisherReport)] == [
        "phi", "fi", "qfi", "povm", "pipeline", "qfi_divergent",
    ]
    assert [f.name for f in dataclasses.fields(qfilab.EstimationRun)] == [
        "phi_true", "m_trials", "seed", "repetition", "window", "pipeline", "outcomes", "phi_hat",
        "empirical_mse", "crb_m", "period", "rng_algorithm",
    ]


def test_public_api_snapshot():
    # a change to the public API shows up here, in review
    assert sorted(qfilab.__all__) == [
        "CutoffViolationError", "DegenerateLikelihoodError", "EmptyStateError", "EstimationRun",
        "FisherReport", "InvalidNError", "Moment", "PhotonDistribution", "PoleProximityError",
        "SectorComponent", "SpecError", "TailTooHeavyError", "TwoModeState",
        "apply_beamsplitter", "apply_phase", "beamsplitter_matrix", "catalog", "classical_fi",
        "crossing_mean", "curves", "default_window", "distribution_from_state", "dual_fock",
        "estimation", "expect", "fi_observable", "fi_scan", "fig3a_point", "fig3b_point",
        "fisher", "fock", "likelihood", "likelihood_period", "likelihood_with_derivative",
        "load_state", "make_state", "max_qfi_bound", "mle_phase", "noon", "qfi_pure",
        "run_estimation", "sample_outcomes", "save_state", "sector_decompose",
        "sector_fi_decomposition", "splitter_columns", "state_from_json_dict",
        "state_to_json_dict", "tmsv", "tmsv_cutoff_for", "tmsv_noon", "vacuum", "zeta",
        "zeta_dual_fock", "zeta_noon", "zeta_noon_doubled",
    ]
