import csv
import io
import json

import pytest

from bwalk import fidelity_diff_gg, fidelity_same
from bwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_curve_diff_small(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity-curve", "--n1", "5", "--n2", "4", "--scenario", "diff", "--steps", "10"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["steps", "fidelity_analytic", "fidelity_simulated", "parity"]
    assert len(rows) == 200  # 0.05 spacing up to 10 steps
    assert rows[0][0] == "0.05"
    # integer rows carry parity and a simulated value equal to the analytic one at odd steps
    row3 = rows[59]
    assert row3[0] == "3" and row3[3] == "odd"
    assert float(row3[1]) == pytest.approx(fidelity_diff_gg(5, 4, 3), abs=1e-12)
    assert float(row3[2]) == pytest.approx(float(row3[1]), abs=1e-10)
    row4 = rows[79]
    assert row4[0] == "4" and row4[3] == "even"
    assert float(row4[2]) == 0.0  # wrong parity: simulation is exactly zero


def test_curve_same_defaults_n2(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity-curve", "--n1", "100", "--scenario", "same", "--steps", "30"
    )
    assert code == 0
    _, rows = parse_csv(out)
    row22 = rows[22 * 20 - 1]
    assert row22[0] == "22" and row22[3] == "even"
    assert float(row22[1]) == pytest.approx(0.9998, abs=2e-4)
    assert float(row22[2]) == pytest.approx(fidelity_same(100, 22), abs=1e-10)


def test_curve_peak_location(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity-curve", "--n1", "100", "--n2", "100", "--scenario", "diff", "--steps", "40"
    )
    _, rows = parse_csv(out)
    best = max(rows, key=lambda row: float(row[1]))
    assert float(best[0]) == pytest.approx(15.7, abs=0.1)
    assert float(best[1]) == pytest.approx(1.0, abs=1e-4)


def test_curve_rejects_bad_sizes(capsys):
    code, _, err = run_cli(capsys, "fidelity-curve", "--n1", "0", "--n2", "3", "--scenario", "diff")
    assert code == 2
    assert "n1 must be >= 1" in err


def test_curve_rejects_zero_steps(capsys):
    code, out, err = run_cli(
        capsys, "fidelity-curve", "--n1", "5", "--n2", "4", "--scenario", "diff", "--steps", "0"
    )
    assert code == 2 and out == ""
    assert "steps must be >= 1" in err


def test_negative_vertex_indices_are_usage_errors(capsys):
    for argv in (
        ("fidelity-curve", "--n1", "5", "--n2", "4", "--scenario", "diff", "--s-index", "-1"),
        ("transfer", "--n1", "5", "--n2", "4", "--scenario", "diff", "--r-index", "-2"),
        ("active-switch", "--n1", "20", "--n2", "20", "--placement", "diff", "--s-index", "-1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "must be >= 0" in err


def test_csv_is_rfc4180_and_12_digits(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "fidelity-curve", "--n1", "5", "--n2", "4", "--scenario", "diff",
        "--steps", "4", "--out", str(out_path),
    )
    assert code == 0
    raw = out_path.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")  # CRLF terminators throughout
    value = raw.split(b"\r\n")[1].split(b",")[1].decode()
    assert value == f"{fidelity_diff_gg(5, 4, 0.05):.12g}"


def test_output_is_deterministic(capsys):
    args = ("sweep", "--n1", "30", "--n2-range", "2:6")
    code1, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert first == second


def test_sweep_closed_form_mode(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n1", "100", "--n2-range", "99:100")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n2", "fmax_gg", "steps_gg", "fmax_gi", "steps_gi"]
    last = rows[-1]
    assert last[0] == "100"
    assert float(last[1]) == pytest.approx(1.0, abs=1e-6)
    assert float(last[3]) == pytest.approx(1.0, abs=1e-6)
    assert float(last[2]) < float(last[4])


def test_sweep_includes_n2_equal_one(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n1", "12", "--n2-range", "1:3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "1"
    assert 0.0 <= float(rows[0][1]) <= 1.0


def test_sweep_grid_mode(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "16:18", "--placement", "diff")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n1", "n2", "placement", "fidelity"]
    assert len(rows) == 9
    assert all(float(row[3]) > 0.9 for row in rows)


def test_sweep_row_mode(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n1", "40", "--n2-range", "20:22", "--placement", "diff")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n2", "fidelity"]
    assert [row[0] for row in rows] == ["20", "21", "22"]
    assert all(float(row[1]) > 0.9 for row in rows)


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n1", "10")
    assert code == 2 and "sweep needs" in err
    code, _, err = run_cli(capsys, "sweep", "--n1", "10", "--n2-range", "9:5")
    assert code == 2 and "empty range" in err
    for placement in ("diff", "same"):
        code, _, err = run_cli(capsys, "sweep", "--n1", "1", "--n2-range", "2:3", "--placement", placement)
        assert code == 2 and "--n1 must be >= 2" in err


def test_transfer_json(capsys):
    code, out, _ = run_cli(
        capsys, "transfer", "--n1", "100", "--n2", "35", "--scenario", "diff", "--flavor", "gg"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == 47
    assert payload["fidelity"] == pytest.approx(0.9835, abs=5e-4)
    assert set(payload) >= {"scenario", "steps", "fidelity", "continuous_optimum", "t1", "t2", "l1", "l2"}
    assert payload["t1"] is None


def test_active_switch_json(capsys):
    code, out, _ = run_cli(capsys, "active-switch", "--n1", "100", "--n2", "100", "--placement", "diff")
    assert code == 0
    payload = json.loads(out)
    assert (payload["t1"], payload["t2"]) == (22, 22)
    assert payload["fidelity"] == pytest.approx(0.981969, abs=1e-4)
    assert payload["l1"] == pytest.approx(0.5)


def test_active_switch_rejects_equal_vertices(capsys):
    code, _, err = run_cli(
        capsys, "active-switch", "--n1", "20", "--n2", "20", "--placement", "same",
        "--s-index", "1", "--r-index", "1",
    )
    assert code == 2
    assert "distinct" in err


def test_verify_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "stationary", "--n1", "20", "--n2", "30")
    assert code == 0
    assert out.startswith("stationary")
    assert float(out.split("residual")[1].split()[0]) < 1e-12
    # at n1 = n2 = 2 the eigenvalue -1 has angle +pi from the solver and -pi
    # from the closed form; the check must compare the values themselves
    for size in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "--check", "eigen", "--n1", size, "--n2", size)
        assert code == 0 and "PASS" in out


def test_verify_fault_injection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "subspace", "--inject-fault")
    assert code == 1
    assert "FAIL" in out


def test_transfer_at_a_size_beyond_the_arc_space(capsys):
    # 2e10 arcs: only the orbit-lumped walk can run this
    code, out, _ = run_cli(capsys, "transfer", "--n1", "100000", "--n2", "100000", "--scenario", "diff")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["fidelity"] - fidelity_diff_gg(100000, 100000, payload["steps"])) < 1e-9


def test_active_switch_at_a_size_beyond_the_arc_space(capsys):
    code, out, _ = run_cli(capsys, "active-switch", "--n1", "100000", "--n2", "100000", "--placement", "diff")
    assert code == 0
    assert 0.99 < json.loads(out)["fidelity"] <= 1.0


def test_curve_simulates_every_size(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity-curve", "--n1", "1000", "--n2", "1000", "--scenario", "diff", "--steps", "60"
    )
    assert code == 0
    _, rows = parse_csv(out)
    integer_rows = [row for row in rows if row[3]]
    assert len(integer_rows) == 60 and all(row[2] for row in integer_rows)
    for row in integer_rows:
        if row[3] == "odd":
            assert float(row[2]) == pytest.approx(float(row[1]), abs=1e-10)
