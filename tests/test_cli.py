"""CLI tests: golden headers, byte stability, csv/json value parity."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_lambda_set_rejects_large_d(capsys):
    code, _ = run_cli(capsys, "lambda-set", "--d", "9", "--t", "2")
    assert code == 1


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
    code = main(["table", "--table2", "--dims", "2,,4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad --dims '2,,4'")


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
    assert captured.err.startswith("error: ") and "n=0" in captured.err


def test_mc_verify_rejects_negative_seed(capsys):
    code = main(["mc-verify", "--seed", "-1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: need seed >= 0, got -1\n"


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


def test_byte_stable_across_runs(capsys):
    _, a = run_cli(capsys, "bounds-curve", "--d", "2", "--t", "2", "--size", "30",
                   "--kind", "symmetric", "--delta-grid", "0.2:0.8:7")
    _, b = run_cli(capsys, "bounds-curve", "--d", "2", "--t", "2", "--size", "30",
                   "--kind", "symmetric", "--delta-grid", "0.2:0.8:7")
    assert a == b


def run_module(*argv):
    """Run ``python -m ...`` in a child interpreter that imports this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True, env=env)


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
