import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

import qfilab
from qfilab import estimation, fisher, make_state, save_state
from qfilab.cli import _finite, build_parser, main, resolve_state


def read_csv(path):
    header, columns, rows = None, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header = line
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, rows


def test_fig3a_csv_contract(tmp_path):
    out = tmp_path / "fig3a.csv"
    assert main(["fig3a", "--points", "60", "--out", str(out)]) == 0
    header, columns, rows = read_csv(out)
    assert header.startswith("# qfilab ")
    assert "fig3a" in header and "cutoff=" in header and "points=60" in header
    assert columns == ["mean_n", "snl", "hl", "tmsv_crb", "tmsv_noon_crb", "zeta_noon_crb"]
    assert len(rows) == 60
    for row in rows:
        mean = row[0]
        assert row[1] == pytest.approx(mean**-0.5, rel=1e-10)
        assert row[2] == pytest.approx(1 / mean, rel=1e-10)
        assert row[3] == pytest.approx((mean**2 + 2 * mean) ** -0.5, rel=1e-10)
        assert row[4] == pytest.approx((2 * mean**2 + 2 * mean) ** -0.5, rel=1e-10)
        if mean >= 1.369:
            assert row[5] == 0.0
    finite = [r for r in rows if r[5] > 0]
    assert finite, "sweep should include rows below the crossing"


def test_fig3a_sidecar_provenance(tmp_path):
    out = tmp_path / "fig3a.csv"
    main(["fig3a", "--points", "40", "--out", str(out)])
    sidecar = json.loads((tmp_path / "fig3a.csv.provenance.json").read_text())
    assert sidecar["figure"] == "fig3a"
    assert sidecar["crossing_mean"] == pytest.approx(1.36843, abs=1e-4)
    assert sidecar["divergent_rows"]
    trend = [t["mean_square"] for t in sidecar["mean_square_trend"]]
    assert all(b > a for a, b in zip(trend, trend[1:]))


def test_fig3b_csv_contract(tmp_path):
    out = tmp_path / "fig3b.csv"
    assert main(["fig3b", "--points", "80", "--out", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["mean_n", "noon_crb", "dualfock_crb"]
    crossing = 2 * 1.3684327776
    for mean, noon_crb, dual_crb in rows:
        if mean >= 2.737:
            assert noon_crb == 0.0 and dual_crb == 0.0
        elif mean < crossing - 1e-6:
            assert 0.0 < noon_crb < dual_crb


def test_curve_output_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["fig3a", "--points", "25", "--out", str(a)])
    main(["fig3a", "--points", "25", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_svg_written(tmp_path):
    out = tmp_path / "fig3a.csv"
    main(["fig3a", "--points", "25", "--out", str(out), "--svg"])
    svg = (tmp_path / "fig3a.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_unreachable_sweep_exits_2(tmp_path, capsys):
    code = main(["fig3a", "--x-min", "0.5", "--x-max", "5", "--points", "10",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_qfi_catalog_noon(capsys):
    assert main(["qfi", "catalog:noon:3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qfi"] == pytest.approx(9.0, rel=1e-9)
    assert payload["fi"] <= payload["qfi"] + 1e-8
    assert set(payload) >= {"phi", "fi", "qfi", "crb", "povm", "pipeline"}


def test_qfi_divergent_family_exits_3(capsys):
    code = main(["qfi", "catalog:zeta_noon:3:100"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["qfi"] == "divergent"
    assert payload["crb"] == 0.0
    assert "divergence" in payload


def test_qfi_reports_the_first_phase_of_a_scan_flat_to_rounding(capsys):
    # zeta_noon via MZI: the 181-point scan varies by about 2e-16 relative,
    # and that noise once picked phi = 1.466 (grid index 42)
    assert main(["qfi", "catalog:zeta_noon:3:300", "--pipeline", "MZI"]) == 3
    payload = json.loads(capsys.readouterr().out)
    phis = [2.0 * math.pi * k / 180 for k in range(181)]
    scan = qfilab.fi_scan(qfilab.zeta_noon(3.0, 300)[0], phis, "MZI")
    assert scan.max() - scan.min() <= 1e-15 * scan.max()
    assert payload["phi"] == 0.0
    assert payload["fi"] == float(scan[0])


def test_qfi_invalid_catalog_exits_2(capsys):
    assert main(["qfi", "catalog:noon:0"]) == 2
    assert main(["qfi", "catalog:wombat:3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "uri,named",
    [
        ("catalog:noon:3:junk", "noon takes N"),
        ("catalog:zeta_noon:inf:50", "x='inf'"),
        ("catalog:zeta_noon:nan:50", "x='nan'"),
        ("catalog:tmsv:nan", "mean='nan'"),
    ],
)
def test_qfi_malformed_catalog_uri_exits_2(capsys, uri, named):
    assert main(["qfi", uri]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert uri in captured.err and named in captured.err


NON_FINITE_FLAGS = [
    (["fi-scan", "catalog:noon:2", "--x-max", "inf", "--points", "3"], "--x-max"),
    (["fi-scan", "catalog:noon:2", "--x-min", "nan", "--points", "3"], "--x-min"),
    (["fig3a", "--tol", "inf", "--points", "3"], "--tol"),
    (["fig3a", "--x-max", "inf"], "--x-max"),
    (["fig3b", "--x-min=-inf"], "--x-min"),
    (["estimate", "catalog:noon:1", "--phi-true", "nan"], "--phi-true"),
    (["estimate", "catalog:noon:1", "--phi-true", "inf"], "--phi-true"),
    (["estimate", "catalog:noon:1", "--phi-true", "0.3", "--window", "0", "inf"], "--window"),
]


@pytest.mark.parametrize("argv, flag", NON_FINITE_FLAGS, ids=[" ".join(a) for a, _ in NON_FINITE_FLAGS])
def test_non_finite_float_flag_exits_2_naming_it(argv, flag, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"argument {flag}: must be a finite number" in captured.err


# every float flag, after the arguments its subcommand needs besides it
FLOAT_FLAGS = [
    (["fig3a"], "--x-min"),
    (["fig3a"], "--x-max"),
    (["fig3a"], "--tol"),
    (["fig3b"], "--x-min"),
    (["fig3b"], "--x-max"),
    (["fig3b"], "--tol"),
    (["fi-scan", "catalog:noon:2"], "--x-min"),
    (["fi-scan", "catalog:noon:2"], "--x-max"),
    (["estimate", "catalog:noon:1"], "--phi-true"),
    (["estimate", "catalog:noon:1", "--phi-true", "0.1"], "--window"),
]
FLOAT_FLAG_IDS = [f"{a[0]} {flag}" for a, flag in FLOAT_FLAGS]


def _with_flag(prefix, flag, text):
    return prefix + [flag] + [text] * (2 if flag == "--window" else 1)


def test_float_flag_table_lists_every_float_flag():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        (command, action.option_strings[0])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type is _finite
    }
    assert found == {(prefix[0], flag) for prefix, flag in FLOAT_FLAGS}


@pytest.mark.parametrize("prefix, flag", FLOAT_FLAGS, ids=FLOAT_FLAG_IDS)
def test_negative_float_flag_in_exponent_or_inf_form_is_a_value(prefix, flag, capsys):
    # argparse's own negative-number pattern knows only plain decimals
    args = build_parser().parse_args(_with_flag(prefix, flag, "-1e-3"))
    value = getattr(args, flag[2:].replace("-", "_"))
    assert value == ([-1e-3] * 2 if flag == "--window" else -1e-3)
    with pytest.raises(SystemExit) as exc:
        main(_with_flag(prefix, flag, "-inf"))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a finite number, got '-inf'" in captured.err


def test_negative_exponent_flags_run_end_to_end(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["fi-scan", "catalog:noon:2", "--x-min", "-1e-3", "--points", "3",
                 "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert "x_min=-0.001" in header and rows[0][0] == -1e-3
    out = tmp_path / "est.jsonl"
    assert main(["estimate", "catalog:noon:1", "--phi-true", "-1e-1", "--window", "-2e-1", "5e-1",
                 "--trials", "50", "--out", str(out)]) == 0
    run = json.loads(out.read_text())
    assert run["phi_true"] == -0.1 and run["window"] == [-0.2, 0.5]


def test_fi_scan_constant_for_single_photon(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["fi-scan", "catalog:noon:1", "--points", "41", "--out", str(out)]) == 0
    header, columns, rows = read_csv(out)
    assert "tol=" not in header  # fi-scan takes no tolerance
    assert columns == ["phi", "fi", "qfi"]
    for _, fi, qfi in rows:
        assert fi == pytest.approx(1.0, abs=1e-9)
        assert qfi == pytest.approx(1.0, abs=1e-12)


def test_estimate_bytes_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["estimate", "catalog:noon:1", "--phi-true", "0.3", "--trials", "200",
            "--reps", "3", "--seed", "11"]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 3
    runs = [json.loads(line) for line in lines]
    assert [r["repetition"] for r in runs] == [0, 1, 2]
    assert all(r["rng"] == "philox4x64" for r in runs)


@pytest.mark.parametrize("flag", ["--reps", "--trials"])
def test_estimate_rejects_zero_counts(flag, capsys):
    argv = ["estimate", "catalog:noon:1", "--phi-true", "0.3", flag, "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} must be >= 1" in captured.err


def test_estimate_rejects_a_negative_seed(capsys):
    argv = ["estimate", "catalog:noon:3", "--phi-true", "0.1", "--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --seed must be >= 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--phi-true", "0.3", "--trials", "0"], "--trials must be >= 1"),
        (["estimate", "--phi-true", "0.3", "--reps", "0"], "--reps must be >= 1"),
        (["estimate", "--phi-true", "0.3", "--seed", "-1"], "--seed must be >= 0"),
        (["fi-scan", "--points", "1"], "--points must be >= 2"),
        (["fi-scan", "--x-min", "1", "--x-max", "1"], "--x-max must exceed --x-min"),
    ],
    ids=["trials", "reps", "seed", "points", "x-range"],
)
def test_bad_flags_exit_2_before_the_state_is_built(argv, message, monkeypatch, capsys):
    # a large catalog state takes seconds and hundreds of MiB to build, or
    # runs out of memory, which must not hide a bad flag
    def refuse(_spec):
        raise AssertionError("built the state before checking the flags")

    monkeypatch.setattr("qfilab.cli.resolve_state", refuse)
    assert main(argv[:1] + ["catalog:zeta_noon:3:10000000"] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["qfi", "catalog:dual_fock:3"], fisher, "apply_beamsplitter"),
        (["fi-scan", "catalog:zeta_dual_fock:3:8", "--points", "11"], fisher, "apply_beamsplitter"),
        (["estimate", "catalog:zeta_dual_fock:3:8", "--phi-true", "0.3", "--trials", "200",
          "--reps", "10"], fisher, "apply_beamsplitter"),
        (["estimate", "catalog:zeta_dual_fock:3:8", "--phi-true", "0.3", "--trials", "200",
          "--reps", "10"], estimation, "_fi_reduce"),
    ],
    ids=["qfi-splitter", "fi_scan-splitter", "estimate-splitter", "estimate-fi"],
)
def test_mzi_setup_runs_once_per_command(argv, module, name, monkeypatch, capsys):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    assert main(argv + ["--pipeline", "MZI"]) == 0
    assert len(calls) == 1


def test_estimate_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ["estimate", "catalog:noon:1", "--phi-true", "0.3", "--trials", "200"]
    main(base + ["--seed", "1", "--out", str(a)])
    main(base + ["--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    text = capsys.readouterr().out
    for family in ("noon", "dual_fock", "zeta_noon", "zeta_dual_fock", "tmsv"):
        assert family in text


def test_state_validate_roundtrip(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(make_state([(1, 0, 1.0), (0, 1, 1.0j)], cutoff=2), path)
    assert main(["state", "validate", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and payload["cutoff"] == 2
    assert payload["entries"] == 2


def write_state(path, entries, cutoff=2):
    path.write_text(json.dumps({"cutoff": cutoff, "entries": entries}))
    return str(path)


@pytest.mark.parametrize(
    "cutoff, entry, field",
    [
        (2, {"na": 1.5, "nb": 0, "re": 1.0, "im": 0.0}, "entries[0].na"),
        (2, {"na": 1, "nb": 0.25, "re": 1.0, "im": 0.0}, "entries[0].nb"),
        (2.7, {"na": 1, "nb": 0, "re": 1.0, "im": 0.0}, "cutoff"),
    ],
    ids=["na", "nb", "cutoff"],
)
@pytest.mark.parametrize("command", [["state", "validate"], ["qfi"]], ids=["validate", "qfi"])
def test_non_integral_occupations_and_cutoff_exit_2(tmp_path, capsys, command, cutoff, entry, field):
    path = write_state(tmp_path / "s.json", [entry], cutoff)
    assert main([*command, path]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


def test_integral_float_occupations_and_cutoff_are_accepted(tmp_path, capsys):
    path = write_state(tmp_path / "s.json", [{"na": 2.0, "nb": 0, "re": 1.0, "im": 0.0}], 2.0)
    assert main(["state", "validate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cutoff"] == 2 and payload["occupied_sectors"] == [2]


def test_state_validate_reads_numeric_string_amplitudes_as_qfi_does(tmp_path, capsys):
    entries = [{"na": 1, "nb": 0, "re": "0.6", "im": "0"}, {"na": 0, "nb": 1, "re": 0.5, "im": "0.5"}]
    path = write_state(tmp_path / "s.json", entries)
    assert main(["state", "validate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["raw_norm"] == math.sqrt(0.6**2 + 0.0**2 + (0.5**2 + 0.5**2))
    assert payload["renormalized"] and payload["occupied_sectors"] == [1]
    assert main(["qfi", path]) == 0


def strict_json(text):
    """json.loads that refuses the non-standard Infinity and NaN tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("im", [0.0, 1e308], ids=["finite-norm", "norm-beyond-floats"])
def test_state_validate_accepts_amplitudes_whose_squares_overflow(tmp_path, capsys, im):
    # qfi reads this file; its raw norm, sqrt(3) 1e308 or 2e308, is taken
    # without squaring a part beyond the float range, and a norm beyond it
    # prints as the string "inf"
    entries = [{"na": 1, "nb": 0, "re": 1e308, "im": 1e308}, {"na": 0, "nb": 1, "re": 1e308, "im": im}]
    path = write_state(tmp_path / "s.json", entries, 5)
    assert main(["state", "validate", path]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["raw_norm"] == (math.sqrt(3.0) * 1e308 if im == 0.0 else "inf")
    assert payload["renormalized"] and payload["occupied_sectors"] == [1]
    assert main(["qfi", path]) == 0


@pytest.mark.parametrize("command, prefix", [(["state", "validate"], "invalid state file: "), (["qfi"], "error: ")],
                         ids=["validate", "qfi"])
@pytest.mark.parametrize("field", ["na", "nb"])
def test_occupations_beyond_int64_are_malformed(tmp_path, capsys, command, prefix, field):
    entry = {"na": 0, "nb": 1, "re": 1.0, "im": 0.0, field: 10**20}
    path = write_state(tmp_path / "s.json", [entry], 5)
    assert main([*command, path]) == 2
    err = capsys.readouterr().err
    assert err == f"{prefix}malformed state file: entries[0].{field} {10**20!r} is out of range\n"


def test_state_validate_names_its_file_when_out_of_memory(tmp_path, monkeypatch, capsys):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    path = write_state(tmp_path / "s.json", [{"na": 1, "nb": 0, "re": 1.0, "im": 0.0}])
    monkeypatch.setattr("qfilab.cli.make_state", exhausted)
    assert main(["state", "validate", path]) == 2
    assert capsys.readouterr().err == f"error: out of memory while evaluating {path!r}\n"


def test_state_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cutoff": 2, "entries": [{"na": 5, "nb": 0, "re": 1.0, "im": 0.0}]}')
    assert main(["state", "validate", str(bad)]) == 2
    assert "invalid" in capsys.readouterr().err


def test_state_file_whose_duplicates_overflow_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cutoff": 1, "entries": [{"na": 0, "nb": 0, "re": 1e308, "im": 0.0}, '
                   '{"na": 0, "nb": 0, "re": 1e308, "im": 0.0}, {"na": 1, "nb": 0, "re": 1.0, "im": 0.0}]}')
    assert main(["state", "validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "entry (0, 0) has a non-finite amplitude" in captured.err


@pytest.mark.parametrize("field", ['"re": NaN', '"im": Infinity'])
def test_non_finite_amplitude_in_a_state_file_exits_2(tmp_path, capsys, field):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cutoff": 2, "entries": [{"na": 1, "nb": 1, "re": 1.0, "im": 0.0}, '
                   '{"na": 2, "nb": 0, %s, %s}]}' % (field, '"im": 0.0' if "re" in field else '"re": 0.0'))
    assert main(["state", "validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "entry (2, 0) has a non-finite amplitude" in captured.err
    assert main(["qfi", str(bad), "--out", str(tmp_path / "q.json")]) == 2
    assert "entry (2, 0) has a non-finite amplitude" in capsys.readouterr().err
    assert not (tmp_path / "q.json").exists()


def strict_json(text):
    """JSON that must hold no NaN or Infinity."""
    def refuse(constant):
        raise AssertionError(f"non-finite JSON value {constant}")

    return json.loads(text, parse_constant=refuse)


def test_state_file_with_a_subnormal_peak_gives_a_finite_qfi(tmp_path, capsys):
    # the largest |amplitude| 1e-320 is subnormal: dividing by it made the
    # state NaN, and qfi printed "qfi": NaN with exit code 0
    path = write_state(tmp_path / "s.json", [{"na": 0, "nb": 2, "re": 1e-320, "im": 0.0}], 4)
    assert main(["qfi", path]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["fi"] == 0.0 and abs(report["qfi"]) <= 1e-14  # |0,2> has Var(J3) = 0


BILLIONS = {  # N of billions, where an int64 N^2 or 2 n_a n_b wrapped round to a negative FI
    "two_branch": ([{"na": 0, "nb": 4_000_000_000, "re": 1.0, "im": 0.0},
                    {"na": 4_000_000_000, "nb": 0, "re": 1.0, "im": 0.0}], "MMZI"),
    "mzi_single_input": ([{"na": 3_000_000_000, "nb": 3_000_000_000, "re": 1.0, "im": 0.0}], "MZI"),
}


@pytest.mark.parametrize("case", list(BILLIONS))
def test_fi_at_billions_of_photons_equals_the_qfi(tmp_path, capsys, case):
    # both states reach the quantum limit at every phase: FI = QFI
    entries, pipeline = BILLIONS[case]
    path = write_state(tmp_path / "s.json", entries, 8_000_000_000)
    assert main(["qfi", path, "--pipeline", pipeline]) == 0
    report = strict_json(capsys.readouterr().out)
    assert math.isclose(report["fi"], report["qfi"], rel_tol=1e-12, abs_tol=0.0)
    out = tmp_path / "scan.csv"
    assert main(["fi-scan", path, "--pipeline", pipeline, "--points", "5", "--out", str(out)]) == 0
    for _, fi, qfi in read_csv(out)[2]:
        assert math.isclose(fi, qfi, rel_tol=1e-12, abs_tol=0.0)


def test_resolve_state_file_and_catalog(tmp_path):
    path = tmp_path / "s.json"
    save_state(make_state([(2, 0, 1.0)], cutoff=2), path)
    state, dist, desc = resolve_state(str(path))
    assert desc.startswith("file:") and dist is None
    state, dist, _ = resolve_state("catalog:tmsv:2")
    assert dist is not None
    assert state.cutoff == 2 * 33  # auto cutoff from the 1e-10 tail bound


def _cap_address_space(limit=1 << 30):
    # runs in the child between fork and exec, so only the child is limited
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_default_zeta_noon_qfi_fits_in_one_gib(tmp_path):
    # the default cutoff K=1000 on MMZI; a dense splitter cache would need ~5 GiB
    out = tmp_path / "qfi.json"
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", "qfi", "catalog:zeta_noon:3", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    with mpmath.workdps(30):
        n = [mpmath.mpf(k) for k in range(1, 1001)]
        expected = float(mpmath.fsum(1 / k for k in n) / mpmath.fsum(k**-3 for k in n))
    assert math.isclose(json.loads(out.read_text())["fi"], expected, rel_tol=1e-9)


def test_million_sector_qfi_fits_in_320_mib(tmp_path):
    # the family writes its table in canonical order and each reader takes
    # the sectors from the one table the state holds: at K = 10^6 the
    # command peaks near 190 MiB, where sorting and copying the table took
    # 312 MiB and failed under this cap
    out = tmp_path / "qfi.json"
    k = 1_000_000
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", "qfi", f"catalog:zeta_noon:3:{k}", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        preexec_fn=lambda: _cap_address_space(320 << 20),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    with mpmath.workdps(30):
        expected = float(mpmath.harmonic(k) / (mpmath.zeta(3) - mpmath.zeta(3, k + 1)))
    assert math.isclose(json.loads(out.read_text())["fi"], expected, rel_tol=1e-9)


def test_long_fi_scan_fits_in_one_gib(tmp_path):
    # the kernel takes phases in blocks, so memory does not grow with
    # --points; whole-grid arrays of 30000 x 401 amplitudes would not fit
    out = tmp_path / "scan.csv"
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", "fi-scan", "catalog:noon:400", "--points", "30000",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, columns, rows = read_csv(out)
    assert columns == ["phi", "fi", "qfi"] and len(rows) == 30_000
    assert all(fi == 400**2 for _, fi, _ in rows)


def test_dual_fock_sectors_up_to_800_photons_fit_in_one_gib():
    # |N,N> inputs on the MMZI: each final splitter takes only the occupied
    # input's column, never a dense matrix
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", "qfi", "catalog:zeta_dual_fock:4:400"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["fi"] == 0.0 and report["qfi"] == 0.0


@pytest.mark.parametrize("cutoff, limit", [(100_000, 1 << 30), (1_000_000, 512 << 20)], ids=["1e5", "1e6"])
def test_zeta_noon_at_large_cutoff_fits_in_the_cap(tmp_path, cutoff, limit):
    # K equal-weight two-branch sectors add one phase-independent total,
    # and the state and its distribution are arrays, so 10^6 sectors fit
    # in 512 MiB (a dict of 10^6 weights and two sorts of the table did not)
    out = tmp_path / "qfi.json"
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", "qfi", f"catalog:zeta_noon:3:{cutoff}", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        preexec_fn=lambda: _cap_address_space(limit),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    with mpmath.workdps(50):
        expected = float(mpmath.harmonic(cutoff) / (mpmath.zeta(3) - mpmath.zeta(3, cutoff + 1)))
    assert math.isclose(json.loads(out.read_text())["fi"], expected, rel_tol=1e-13, abs_tol=0.0)


_DUAL_FOCK_4_REPORT = """{
 "phi": 0.0,
 "fi": 0.0,
 "qfi": 0.0,
 "crb": null,
 "povm": "counting:na_nb",
 "pipeline": "MMZI",
 "state": "catalog:zeta_dual_fock:4"
}
"""


def test_single_input_sectors_cost_nothing(capsys):
    # every sector of the default zeta_dual_fock:4 on the MMZI is one |N,N>
    # input (K=1000, up to 2000 photons), so the scan skips them all; the
    # report is the one the outcome tables gave in about 20 s
    start = time.monotonic()
    assert main(["qfi", "catalog:zeta_dual_fock:4"]) == 0
    elapsed = time.monotonic() - start
    assert capsys.readouterr().out == _DUAL_FOCK_4_REPORT
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_out_of_memory_exits_2_naming_the_state(monkeypatch, capsys):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr("qfilab.cli.fi_scan", exhausted)
    assert main(["qfi", "catalog:zeta_noon:3:40", "--pipeline", "MZI"]) == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and "catalog:zeta_noon:3:40" in err
    # no path builds a dense splitter, so the message guesses no cause
    monkeypatch.setattr("qfilab.cli.run_estimation", exhausted)
    assert main(["estimate", "catalog:zeta_noon:3:40", "--phi-true", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and "catalog:zeta_noon:3:40" in err
    assert "splitter" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qfi", "catalog:noon:100000000000000000000"],  # N beyond a C long
        ["estimate", "catalog:noon:1", "--phi-true", "0.3", "--trials", "100000000000000000000"],
        ["qfi", "catalog:tmsv:1e300"],  # the squeezing parameter rounds to 1
    ],
    ids=["noon-N", "estimate-trials", "tmsv-mean"],
)
def test_extreme_finite_inputs_exit_2_naming_the_state(argv):
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and argv[1] in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, fi",
    [
        # 1/N^x underflows beyond N = 1, which leaves the N = 1 NOON state
        (["qfi", "catalog:zeta_noon:1e300:5"], 1.0),
        # the float bound on zeta's term count overflows: 32 terms
        (["qfi", "catalog:zeta_noon:1e100:5"], 1.0),
        # |1,1> through the MZI: 2J(J+1)
        (["qfi", "catalog:zeta_dual_fock:1e300:2", "--pipeline", "MZI"], 4.0),
    ],
    ids=["zeta-x", "zeta-x-1e100", "zeta_dual_fock-x"],
)
def test_huge_zeta_exponents_leave_the_first_component(argv, fi, capsys):
    assert main(argv) == 0
    assert math.isclose(json.loads(capsys.readouterr().out)["fi"], fi, rel_tol=1e-15)


@pytest.mark.parametrize("phi_true", ["6e5", "1e12", "-3e9"])
def test_estimate_returns_at_phases_whose_ulp_exceeds_the_refinement_tolerance(phi_true):
    # beyond 2**19 one ulp of phi exceeds MLE_REFINE_TOL, so the search must
    # also stop when a zoom no longer narrows its bracket
    pythonpath = [str(Path(qfilab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "qfilab", "estimate", "catalog:noon:3", "--phi-true", phi_true,
         "--trials", "100"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    lo, hi = run["window"]
    assert lo <= run["phi_hat"] <= hi
    assert lo < float(phi_true) < hi


@pytest.mark.parametrize(
    "phi_true, window",
    [("3e15", None), ("1e16", None), ("3e15", ["2999999999999999", "3000000000000001"])],
    ids=["default-window-widened", "default-window-collapsed", "explicit-window"],
)
def test_estimate_refuses_a_phase_too_large_for_its_window(phi_true, window, tmp_path, capsys):
    # floats at 3e15 lie 0.5 apart: the default window of noon(3), 0.52
    # wide, rounds to 1.0, and at 1e16 to a point; an explicit window 2 wide
    # spans four floats
    out = tmp_path / "out"
    argv = ["estimate", "catalog:noon:3", "--phi-true", phi_true, "--trials", "100", "--out", str(out)]
    assert main(argv + (["--window", *window] if window else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: phi_true {float(phi_true)!r} is too large for the window [")
    assert not out.exists()
    if window:
        assert f"[{float(window[0])!r}, {float(window[1])!r}]" in err


@pytest.mark.parametrize("phi_true", ["0.3", "1e16"])
def test_estimate_refuses_a_given_zero_width_window_for_its_width(phi_true, tmp_path, capsys):
    # a given window with no width is refused for that, whatever the float
    # spacing at the phase; only a default window that rounds to a point is
    # refused for its spacing
    out = tmp_path / "out"
    argv = ["estimate", "catalog:noon:3", "--phi-true", phi_true, "--trials", "100", "--out", str(out)]
    assert main(argv + ["--window", phi_true, phi_true]) == 2
    assert capsys.readouterr().err == "error: window must have positive width\n"
    assert not out.exists()
