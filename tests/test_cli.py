"""CLI tests: golden headers, byte stability, csv/json value parity, and the
package namespace with what each import loads."""
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatedesign
from gatedesign import kinds, montecarlo, solver
from gatedesign.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# lambda-set
# ---------------------------------------------------------------------------

def test_lambda_set_d4_t2(capsys):
    code, out = run_cli(capsys, "lambda-set", "--d", "4", "--t", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lam", "norm1", "dim", "m0", "fs2"]
    dims = [int(r[2]) for r in rows]
    assert sorted(dims) == [15, 20, 45, 45, 84]
    by_lam = {r[0]: r for r in rows}
    assert by_lam["1 0 0 -1"][3] == "3"
    assert by_lam["1 0 0 -1"][4] == "1/15"
    assert by_lam["2 0 -1 -1"][4] == "0"


def test_lambda_set_d2_t2(capsys):
    code, out = run_cli(capsys, "lambda-set", "--d", "2", "--t", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["1 -1", "2 -2"]
    assert [r[2] for r in rows] == ["3", "5"]


def test_lambda_set_d3_t3_row_count_matches_oracle(capsys):
    import itertools

    brute = 0
    for cand in itertools.product(range(3, -4, -1), repeat=3):
        if any(a < b for a, b in zip(cand, cand[1:])):
            continue
        if sum(cand) != 0 or all(v == 0 for v in cand):
            continue
        if sum(v for v in cand if v > 0) > 3:
            continue
        brute += 1
    code, out = run_cli(capsys, "lambda-set", "--d", "3", "--t", "3")
    _, rows = parse_csv(out)
    assert len(rows) == brute


# ---------------------------------------------------------------------------
# bounds-curve
# ---------------------------------------------------------------------------

def test_bounds_curve_monotone_and_ordered(capsys):
    code, out = run_cli(
        capsys,
        "bounds-curve",
        "--d", "2", "--t", "2", "--size", "50",
        "--kind", "plain", "--delta-grid", "0.1:0.9:9",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "bernstein-plain", "master-plain"]
    bern = [float(r[1]) for r in rows]
    mast = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(bern, bern[1:]))
    assert all(a > b for a, b in zip(mast, mast[1:]))
    assert all(m <= b for m, b in zip(mast, bern))


def test_bounds_curve_endpoint_matches_direct_call(capsys):
    from gatedesign import bounds as bd
    from gatedesign.bounds import GateSetKind, Method

    code, out = run_cli(
        capsys,
        "bounds-curve",
        "--d", "2", "--t", "3", "--size", "40", "--kind", "symmetric",
        "--methods", "master-symmetric-simplified", "--delta-grid", "0.3,0.7",
    )
    assert code == 0
    _, rows = parse_csv(out)
    direct = bd.total_bound(
        2, 3, GateSetKind.SYMMETRIC, 40, 0.7, Method.MASTER_SYMMETRIC_SIMPLIFIED
    ).raw
    assert float(rows[-1][1]) == pytest.approx(direct, rel=1e-15)


def test_bounds_curve_rejects_mismatched_method(capsys):
    code, _ = run_cli(
        capsys,
        "bounds-curve",
        "--d", "2", "--t", "2", "--size", "50",
        "--kind", "plain", "--methods", "master-symmetric",
    )
    assert code == 1


@pytest.mark.parametrize("grid", [",", "0.1:0.9:0"])
def test_bounds_curve_rejects_empty_delta_grid(capsys, grid):
    code = main(["bounds-curve", "--d", "2", "--t", "2", "--size", "50", "--delta-grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "delta grid needs at least one point" in captured.err


@pytest.mark.parametrize("grid", ["0.1:0.9", "a:b:3"])
def test_bounds_curve_rejects_malformed_delta_grid(capsys, grid):
    code = main(["bounds-curve", "--d", "2", "--t", "2", "--size", "50", "--delta-grid", grid])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "start:stop:num or a comma list" in captured.err


# ---------------------------------------------------------------------------
# min-size / table
# ---------------------------------------------------------------------------

def test_min_size_master_cell(capsys):
    code, out = run_cli(capsys, "min-size", "--d", "2", "--t", "2")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["S_min"] == "57"
    assert row["n_pairs"] == ""


def test_min_size_symmetric_reports_pairs(capsys):
    code, out = run_cli(
        capsys, "min-size", "--d", "2", "--t", "2", "--method", "bernstein-symmetric"
    )
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["S_min"] == "94"
    assert row["n_pairs"] == "47"


def test_table_requires_flag(capsys):
    code, _ = run_cli(capsys, "table")
    assert code == 1


#: `table --table2` rows for d = 2, 4, 8, 16, 32, 64, kept as reference
PINNED_TABLE2 = Path(__file__).resolve().parent / "table2_pinned.csv"


def assert_matches_pinned(out, dims):
    """Every column equal to the pinned rows but bound_at_S_min, which may
    move by 1e-12 relative."""
    header, rows = parse_csv(out)
    pinned_header, pinned = parse_csv(PINNED_TABLE2.read_text())
    assert header == pinned_header
    want = [r for r in pinned if int(r[0]) in dims]
    assert len(rows) == len(want)
    bound = header.index("bound_at_S_min")
    for got, exp in zip(rows, want):
        assert got[:bound] == exp[:bound]
        assert float(got[bound]) == pytest.approx(float(exp[bound]), rel=1e-12, abs=0)


def test_table_subset(capsys):
    code, out = run_cli(capsys, "table", "--table2", "--dims", "2")
    assert code == 0
    header, rows = parse_csv(out)
    cells = {(r[0], r[1], r[2]): r for r in rows}
    assert cells[("2", "2", "master-plain")][header.index("S_min")] == "57"
    assert cells[("2", "500", "master-plain")][header.index("S_min")] == "136"
    assert cells[("2", "2", "bernstein-plain")][header.index("S_min")] == "69"
    assert cells[("2", "2", "bernstein-symmetric")][header.index("n_pairs")] == "47"
    assert_matches_pinned(out, {2})


def test_table_large_dimensions_match_pinned(capsys):
    code, out = run_cli(capsys, "table", "--table2", "--dims", "8,16,32,64")
    assert code == 0
    assert_matches_pinned(out, {8, 16, 32, 64})


def test_table_d4_matches_pinned(capsys):
    code, out = run_cli(capsys, "table", "--table2", "--dims", "4")
    assert code == 0
    assert_matches_pinned(out, {4})


def test_table_rejects_malformed_dims(capsys):
    # an empty list is malformed too, not a request for every dimension
    for dims in ("2,,4", ""):
        code = main(["table", "--table2", "--dims", dims])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad --dims {dims!r}")


def test_table_rejects_repeated_dims(capsys):
    code = main(["table", "--table2", "--dims", "2,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "dimension 2 is repeated" in captured.err
    with pytest.raises(ValueError, match="dimension 4 is repeated in \\(4, 2, 4\\)"):
        next(solver.table2_cells(dims=[4, 2, 4]))


def test_table_rejects_dimension_off_the_grid(capsys):
    code = main(["table", "--table2", "--dims", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "2, 4, 8, 16, 32, 64" in captured.err


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------

def test_clifford_small(capsys):
    code, out = run_cli(capsys, "clifford", "--max-qubits", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["24", "11520", "92897280"]
    ratios = [float(r[header.index("log10_ratio")]) for r in rows]
    assert ratios[2] > ratios[1] > ratios[0]
    assert ratios[2] > 0  # the Clifford group overtakes by three qubits


def test_clifford_rejects_nonpositive_qubit_count(capsys):
    code = main(["clifford", "--max-qubits", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--max-qubits" in captured.err


def test_clifford_full_range_runs_fast(capsys):
    import time

    start = time.time()
    code, out = run_cli(capsys, "clifford", "--max-qubits", "50")
    assert code == 0
    assert time.time() - start < 1.0
    _, rows = parse_csv(out)
    assert len(rows) == 50


# ---------------------------------------------------------------------------
# mc-verify
# ---------------------------------------------------------------------------

def test_mc_verify_small_run(capsys, tmp_path):
    log = tmp_path / "trials.jsonl"
    code, out = run_cli(
        capsys,
        "mc-verify",
        "--d", "2", "--t", "2", "--size", "10", "--kind", "plain",
        "--delta", "0.9", "--trials", "20", "--seed", "7",
        "--trial-log", str(log),
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["dominance"] == "PASS"
    assert 0.0 <= float(row["tail_fraction"]) <= 1.0
    recs = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(recs) == 20
    assert all({"trial", "seed", "delta", "iterations", "residual"} <= set(r) for r in recs)


def test_mc_verify_delta_zero_edge(capsys):
    code, out = run_cli(
        capsys,
        "mc-verify",
        "--d", "2", "--t", "1", "--size", "4", "--kind", "plain",
        "--delta", "1e-12", "--trials", "5", "--seed", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["tail_fraction"]) == 1.0
    assert float(row["master-plain"]) == 1.0  # clipped
    assert row["dominance"] == "PASS"


def test_mc_verify_without_applicable_bound_is_not_a_pass(capsys):
    code = main([
        "mc-verify", "--d", "3", "--t", "1", "--size", "2", "--kind", "beamsplitter",
        "--delta", "0.9", "--trials", "3", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    header, rows = parse_csv(captured.out)
    assert dict(zip(header, rows[0]))["dominance"] == "N/A"
    assert len(captured.err.strip().splitlines()) == 1
    assert "no tail bound applies" in captured.err


@pytest.mark.parametrize("kind", ["plain", "symmetric", "beamsplitter"])
def test_mc_verify_rejects_empty_gate_set(capsys, kind):
    code = main(["mc-verify", "--d", "3", "--t", "1", "--size", "0", "--kind", kind,
                 "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: need S >= 1, got S=0\n"


def test_mc_verify_rejects_negative_seed(capsys):
    code = main(["mc-verify", "--seed", "-1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: need seed >= 0, got seed=-1\n"


def test_mc_verify_seed_reproducible(capsys):
    args = [
        "mc-verify", "--d", "2", "--t", "2", "--size", "6", "--kind", "symmetric",
        "--delta", "0.8", "--trials", "10", "--seed", "3",
    ]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_csv_json_value_parity(capsys):
    code, csv_out = run_cli(capsys, "lambda-set", "--d", "3", "--t", "2")
    code, json_out = run_cli(capsys, "--format", "json", "lambda-set", "--d", "3", "--t", "2")
    header, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert payload["columns"] == header
    for csv_row, json_row in zip(rows, payload["rows"]):
        for col, raw in zip(header, csv_row):
            jval = json_row[col]
            if isinstance(jval, (int, float)) and not isinstance(jval, bool):
                assert float(raw) == float(jval)
            else:
                assert raw == str(jval)


def test_output_file_lf_only(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, _ = run_cli(capsys, "--output", str(target), "lambda-set", "--d", "2", "--t", "3")
    assert code == 0
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


def test_output_into_missing_directory_fails_before_any_work(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "clifford_cardinality", _must_not_run)
    target = tmp_path / "missing" / "x.csv"
    code = main(["--output", str(target), "clifford", "--max-qubits", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: cannot write --output {target}: no directory {target.parent}\n"
    assert not target.parent.exists()


def test_trial_log_into_missing_directory_fails_before_any_trial(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "estimate_delta", _must_not_run)
    target = tmp_path / "missing" / "trials.jsonl"
    code = main(["mc-verify", "--trials", "2", "--trial-log", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot write --trial-log {target}: no directory {target.parent}\n"
    )
    assert not target.parent.exists()


#: a command per write flag; its work function is monkeypatched to fail if called
WRITE_TARGETS = [
    ("--output", ["clifford", "--max-qubits", "2"], (solver, "clifford_cardinality")),
    ("--trial-log", ["mc-verify", "--trials", "2"], (montecarlo, "estimate_delta")),
]


def _argv(flag, command, target):
    if flag == "--output":
        return [flag, str(target), *command]
    return [*command, flag, str(target)]


@pytest.mark.parametrize("flag,command,work", WRITE_TARGETS, ids=["output", "trial-log"])
def test_directory_target_fails_before_any_work(capsys, tmp_path, monkeypatch, flag, command,
                                                work):
    monkeypatch.setattr(*work, _must_not_run)
    code = main(_argv(flag, command, tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: cannot write {flag} {tmp_path}: it is a directory\n"


@pytest.mark.parametrize("flag,command,work", WRITE_TARGETS, ids=["output", "trial-log"])
def test_unwritable_target_fails_before_any_work(capsys, tmp_path, monkeypatch, flag, command,
                                                 work):
    # a permission check on the filesystem passes for a superuser, so deny it here
    monkeypatch.setattr(*work, _must_not_run)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    target = tmp_path / "x.out"
    code = main(_argv(flag, command, target))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: cannot write {flag} {target}: permission denied\n"
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_write_failure_is_a_one_line_error(capsys):
    # every write to /dev/full fails with ENOSPC, after the checks have passed
    code = main(["--output", "/dev/full", "clifford", "--max-qubits", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_byte_stable_across_runs(capsys):
    _, a = run_cli(capsys, "bounds-curve", "--d", "2", "--t", "2", "--size", "30",
                   "--kind", "symmetric", "--delta-grid", "0.2:0.8:7")
    _, b = run_cli(capsys, "bounds-curve", "--d", "2", "--t", "2", "--size", "30",
                   "--kind", "symmetric", "--delta-grid", "0.2:0.8:7")
    assert a == b


def run_python(*argv):
    """Run a child interpreter that imports this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


def run_module(*argv):
    """Run ``python -m ...`` in a child interpreter that imports this checkout's src."""
    return run_python("-m", *argv)


def test_usage_error_exit_code():
    proc = run_module("gatedesign.cli", "min-size", "--d", "2")
    assert proc.returncode == 2


def test_entry_point_help():
    proc = run_module("gatedesign.cli", "--help")
    assert proc.returncode == 0
    assert b"mc-verify" in proc.stdout


def test_package_runs_as_module():
    proc = run_module("gatedesign", "--help")
    assert proc.returncode == 0
    assert b"mc-verify" in proc.stdout


# ---------------------------------------------------------------------------
# package namespace and what each import loads
# ---------------------------------------------------------------------------

#: the names ``gatedesign`` exports, each from the module that defines it
EXPORTS = {
    "bounds": (
        "BoundQuery", "BoundResult", "BoundUnavailableError", "GateSetKind", "Method",
        "concentration_bound_beamsplitter", "concentration_bound_lambda",
        "concentration_bound_t", "methods_for_kind", "per_label_bound", "total_bound",
    ),
    "montecarlo": (
        "GateSetSample", "HaarProjector", "MomentOperator", "PowerIterationError",
        "TailEstimate", "empirical_tail", "estimate_delta", "estimate_fs_indicator_mc",
        "sample_gate_set", "sample_haar",
    ),
    "repcore": (
        "BlockSpectrum", "block_spectrum", "enumerate_lambda_set",
        "fs_indicator", "gamma_coefficients", "sum_dimensions", "weight_multiplicity",
        "weyl_dimension", "zero_weight_multiplicity",
    ),
    "solver": (
        "MinSizeResult", "clifford_cardinality", "clifford_random_set_size",
        "clifford_random_set_size_exact", "min_size_closed_form", "min_size_search",
        "table2_cells",
    ),
    "specfun": ("log_bessel_i",),
}
EXPORTED = [name for names in EXPORTS.values() for name in names]


def test_exported_names_resolve_to_their_module_attributes():
    assert len(EXPORTED) == len(set(EXPORTED)) == 38
    assert sorted(gatedesign.__all__) == sorted([*EXPORTS, *EXPORTED])
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"gatedesign.{module}")
        for name in names:
            assert getattr(gatedesign, name) is getattr(owner, name), name
            assert vars(gatedesign)[name] is getattr(owner, name), name  # bound once resolved
    assert set(EXPORTED) <= set(dir(gatedesign))


def test_star_import_binds_every_exported_name_and_module():
    namespace = {}
    exec("from gatedesign import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(gatedesign, name), name
    for module in EXPORTS:
        assert namespace[module] is importlib.import_module(f"gatedesign.{module}"), module
    assert set(namespace) - {"__builtins__"} == {*EXPORTED, *EXPORTS}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gatedesign.no_such_name
    assert not hasattr(gatedesign, "BOUNDS")


def test_kinds_are_the_objects_bounds_exports():
    from gatedesign import bounds

    assert bounds.GateSetKind is kinds.GateSetKind
    assert bounds.Method is kinds.Method
    assert bounds.methods_for_kind is kinds.methods_for_kind


def test_submodule_resolves_after_bare_import():
    proc = run_python("-c", "import gatedesign; print(gatedesign.bounds.Method.MASTER_PLAIN.value)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"master-plain\n"


def loaded_after(code, *argv):
    """Run ``code`` in a child interpreter; return it and the modules loaded when it exits."""
    probe = "import atexit, sys\n"
    probe += "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
    proc = run_python("-c", probe + code, *argv)
    return proc, set(proc.stderr.decode().splitlines()[-1].split())


#: what ``python -m gatedesign`` runs, with the command-line arguments of the child
RUN_CLI = "import runpy\nrunpy.run_module('gatedesign', run_name='__main__', alter_sys=True)"


def test_bare_import_loads_no_submodule_and_no_numpy():
    proc, modules = loaded_after("import gatedesign")
    assert proc.returncode == 0
    assert "gatedesign" in modules
    assert "numpy" not in modules
    for name in ("bounds", "montecarlo", "repcore", "solver", "specfun"):
        assert f"gatedesign.{name}" not in modules, name


@pytest.mark.parametrize(
    "argv,code", [(("--help",), 0), (("min-size", "--d", "2"), 2)], ids=["help", "usage-error"]
)
def test_help_and_usage_error_load_no_numpy(argv, code):
    proc, modules = loaded_after(RUN_CLI, *argv)
    assert proc.returncode == code
    assert "gatedesign.cli" in modules
    assert "numpy" not in modules


def test_lambda_set_loads_no_numpy_and_matches_in_process(capsys):
    argv = ("lambda-set", "--d", "3", "--t", "2")
    proc, modules = loaded_after(RUN_CLI, *argv)
    assert proc.returncode == 0
    assert "gatedesign.repcore" in modules
    assert "numpy" not in modules
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out.encode()


@pytest.mark.parametrize(
    "argv",
    [("lambda-set", "--d", "16", "--t", "3"), ("clifford", "--max-qubits", "50")],
    ids=["lambda-set-d16", "clifford"],
)
def test_exact_command_loads_no_numpy_and_matches_in_process(capsys, argv):
    # lambda-set past the Weyl cap: delta_lambda(2) is a closed form
    proc, modules = loaded_after(RUN_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" not in modules
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out.encode()
