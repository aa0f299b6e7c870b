import csv
import io
import json
import math

from dataclasses import replace

import pytest

from pseudobell import cli, verify
from pseudobell.biortho import basis_from_alpha
from pseudobell.cli import main, parse_angle
from pseudobell.constructor import catalog, catalog_entries
from pseudobell.entanglement import concurrence, embed, normalize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("3pi/2") == 3 * math.pi / 2
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("0.7") == 0.7
    with pytest.raises(ValueError):
        parse_angle("pie")


def test_catalog_counts(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 48
    assert len(payload["same_theta_variants"]) == 4
    groups = {}
    for e in payload["entries"]:
        groups[e["group"]] = groups.get(e["group"], 0) + 1
    assert groups == {"bell": 8, "bell-prime": 8, "ghz": 16, "w": 8, "w-same": 8}


def test_padded_name_keeps_its_closed_form(capsys):
    # the closed form is looked up by the resolved catalog name
    rows = [json.loads(run(capsys, "measure", "--name", name, "--measure", "avg_entropy",
                           "--alpha", "0.4", "--format", "json")[1])
            for name in ("W7 ", "W7")]
    assert "closed_form" in rows[0]
    assert (rows[0]["closed_form"], rows[0]["abs_diff"]) == (rows[1]["closed_form"],
                                                              rows[1]["abs_diff"])
    sweeps = [run(capsys, "sweep", "--name", name, "--measure", "avg_entropy", "--var", "alpha",
                  "--range", "0:2pi", "--steps", "5", "--out", "-")[1]
              for name in (" G1+", "G1+")]
    assert sweeps[0] == sweeps[1]
    assert all(row["closed_form"] for row in csv.DictReader(io.StringIO(sweeps[0])))


def test_catalog_filter(capsys):
    code, out, _ = run(capsys, "catalog", "--filter", "ghz", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(e["group"] == "ghz" for e in payload["entries"])
    assert len(payload["entries"]) == 16

    code, out, _ = run(capsys, "catalog", "--filter", "nonexistent")
    assert code == 0
    assert out.strip() == ""


def test_build_json_g1(capsys):
    code, out, _ = run(capsys, "build", "--name", "G1+", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"labels": ["psi0", "psi0", "psi0"], "re": 1.0, "im": 0.0},
        {"labels": ["psi1", "psi1", "psi1"], "re": 1.0, "im": 0.0},
    ]


def test_build_text_forms(capsys):
    code, out, _ = run(capsys, "build", "--name", "B1-")
    assert code == 0
    assert out.strip() == "|ψ0ψ1⟩ - |ψ1ψ0⟩"
    code, out, _ = run(capsys, "build", "--name", "W'1")
    assert code == 0
    assert out.strip() == "-|ψ0ψ0ψ1⟩ + |ψ0ψ1ψ0⟩ - |ψ1ψ0ψ0⟩"


def test_build_csv(capsys):
    code, out, _ = run(capsys, "build", "--name", "B1-", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "labels,re,im"
    assert lines[1] == "psi0;psi1,1.0,0.0"
    assert lines[2] == "psi1;psi0,-1.0,0.0"


def test_unknown_name_exit_code(capsys):
    code, _, err = run(capsys, "build", "--name", "B9+")
    assert code == 2
    assert "unknown" in err.lower()


def test_solve_round_trip(capsys):
    code, out, _ = run(capsys, "solve", "--name", "B1-", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_catalog"] is True


def test_measure_concurrence(capsys):
    code, out, _ = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                       "--alpha", "pi/4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1 / 3) < 1e-10
    assert payload["abs_diff"] <= 1e-10


def test_measure_case_b(capsys):
    code, out, _ = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                       "--s", "1", "--delta", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0) < 1e-10


def test_measure_same_theta_variant_gets_closed_form(capsys):
    code, out, _ = run(capsys, "measure", "--name", "B1-same", "--measure", "concurrence",
                       "--alpha", "0.4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["closed_form"] - 1.0) < 1e-12
    assert payload["abs_diff"] <= 1e-10


def test_measure_avg_entropy(capsys):
    code, out, _ = run(capsys, "measure", "--name", "G1+", "--measure", "avg_entropy",
                       "--alpha", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0) < 1e-12


def test_measure_degenerate_exit_code(capsys):
    code, _, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                       "--alpha", "pi/2")
    assert code == 3
    assert "degenerate" in err.lower()


def test_measure_missing_angles(capsys):
    code, _, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence")
    assert code == 2


def test_measure_config_file(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha1 = 0.785398163397448\nalpha2 = 0.785398163397448\n")
    code, out, _ = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                       "--config", str(cfg), "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1 / 3) < 1e-6


def test_measure_config_honours_skew(tmp_path, capsys):
    # s = 1, t = 4 (skew 2) at alpha = 0.4 on both sites; no closed form
    # covers s != t, so none is reported
    cfg = tmp_path / "skew.cfg"
    cfg.write_text("".join(f"r{i} = 2\ns{i} = 1\nt{i} = 4\nbeta{i} = 0.4\n" for i in (1, 2)))
    code, out, _ = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                       "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    bases = [basis_from_alpha(0.4, skew=2.0)] * 2
    state = catalog("B2-").expected
    assert payload["value"] == pytest.approx(concurrence(normalize(embed(state, bases))),
                                             abs=1e-12)
    assert payload["value"] == pytest.approx(0.3726, abs=1e-4)
    assert "closed_form" not in payload and "abs_diff" not in payload


@pytest.mark.parametrize("text, reason", [
    ("r1 = 2\ns1 = 1\nt1 = 1\nbeta1 = 1.5\nalpha2 = 0.3\n", "spectrum is not real"),
    ("alpha1 = abc\nalpha2 = 0.3\n", "bad number"),
    ("r1 = 1\ns1 = 1\nalpha2 = 0.3\n", "needs either alpha1 or all of"),
], ids=["beyond-real-regime", "bad-number", "incomplete-site"])
def test_measure_config_errors_exit_2(tmp_path, capsys, text, reason):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                         "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ") and reason in err and out == ""


def test_measure_missing_config_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                         "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert err.startswith("error: --config ") and out == ""


def test_measure_config_degenerate_exits_3(tmp_path, capsys):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(f"alpha1 = {math.pi / 2!r}\nalpha2 = 0.3\n")
    code, out, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                         "--config", str(cfg))
    assert code == 3
    assert "degenerate spectrum" in err and out == ""


def test_sweep_rejects_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--name", "B2-", "--measure", "concurrence", "--var", "alpha",
              "--range", "0:1", "--out", "-", "--config", "/nonexistent.cfg"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_sweep_deterministic_and_correct(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--name", "B2-", "--measure", "concurrence",
            "--var", "alpha", "--range", "0:2pi", "--steps", "21"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "alpha,value,closed_form,abs_diff"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert abs(float(first[1]) - 1.0) < 1e-10  # C max at alpha = 0


def test_sweep_case_b_grid(tmp_path, capsys):
    out = tmp_path / "caseb.csv"
    code = main(["sweep", "--name", "B2-", "--measure", "concurrence",
                 "--var", "s", "--range", "1:2",
                 "--var", "delta", "--range=-2:2",
                 "--steps", "5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,delta,value,closed_form,abs_diff"
    assert len(lines) == 26
    for line in lines[1:]:
        s, delta, value, closed, diff = line.split(",")
        if value != "nan":
            assert float(diff) <= 1e-10


def test_sweep_w7_bounded(tmp_path, capsys):
    out = tmp_path / "w7.csv"
    code = main(["sweep", "--name", "W7", "--measure", "avg_entropy",
                 "--var", "alpha", "--range", "0:2pi", "--steps", "21",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    values = []
    for line in out.read_text().splitlines()[1:]:
        v = line.split(",")[1]
        if v != "nan":
            values.append(float(v))
    assert values and max(values) <= 8 / 9 + 1e-10


def test_sweep_bad_output_path(capsys):
    code, _, err = run(capsys, "sweep", "--name", "B2-", "--measure", "concurrence",
                       "--var", "alpha", "--range", "0:1", "--steps", "3",
                       "--out", "/nonexistent-dir/x.csv")
    assert code == 4


def test_rejected_sweep_creates_no_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run(capsys, "sweep", "--name", "B2-", "--measure", "concurrence",
                       "--var", "alpha", "--range", "0:1", "--steps", "3",
                       "--s", "1", "--delta", "0.5", "--out", str(out))
    assert code == 2 and "case-b" in err
    assert not out.exists()


# -- inputs that would be ignored are rejected (exit 2) ------------------------


def test_sweep_rejects_alpha_var_with_case_b(capsys):
    code, _, err = run(capsys, "sweep", "--name", "B2-", "--measure", "concurrence",
                       "--var", "alpha", "--range", "0:1", "--steps", "3",
                       "--s", "1", "--delta", "0.5", "--out", "-")
    assert code == 2
    assert "case-b" in err


def test_sweep_rejects_a_variable_swept_twice(capsys):
    code, out, err = run(capsys, "sweep", "--name", "B2-", "--measure", "concurrence",
                         "--var", "alpha", "--range", "0:1", "--var", "alpha", "--range", "0:1",
                         "--steps", "3", "--out", "-")
    assert code == 2
    assert "twice" in err and out == ""


def test_measure_rejects_case_b_with_alpha(capsys):
    code, out, _ = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                       "--s", "1", "--delta", "0.5", "--alpha", "0.3")
    assert code == 2
    assert out == ""


def test_measure_rejects_config_with_case_b(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha1 = 0.3\nalpha2 = 0.3\n")
    code, out, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                         "--config", str(cfg), "--s", "1", "--delta", "0.5")
    assert code == 2
    assert "--config" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["measure", "--alpha", "0.3", "--alpha3", "0.1"],                 # no third site
    ["measure", "--alpha", "0.3", "--alpha1", "0.1", "--alpha2", "0.2"],  # --alpha sets none
    ["sweep", "--var", "alpha", "--range", "0:1", "--alpha1", "0.1", "--alpha2", "0.2",
     "--out", "-"],                                                      # swept --alpha unused
    ["sweep", "--var", "alpha1", "--range", "0:1", "--alpha1", "0.2", "--alpha2", "0.1",
     "--out", "-"],                                                      # fixed and swept
    ["sweep", "--var", "s", "--range", "1:2", "--s", "1", "--delta", "0.5", "--out", "-"],
    ["measure", "--s", "1", "--delta", "3"],                           # |delta| > 2s
])
def test_ignored_or_out_of_range_inputs_are_rejected(capsys, argv):
    command, *rest = argv
    code, out, _ = run(capsys, command, "--name", "B2-", "--measure", "concurrence", *rest)
    assert code == 2
    assert out == ""


# -- the batched sweep kernel -------------------------------------------------------


def _sweep_rows(capsys, *argv):
    code, out, _ = run(capsys, "sweep", *argv, "--out", "-")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


@pytest.mark.parametrize("name, measure, var, fixed", [
    ("B2-", "concurrence", "alpha1", ["--alpha2", "0.7"]),
    ("W7", "avg_entropy", "alpha1", ["--alpha2", "0.3", "--alpha3", "-1.1"]),
    ("G5-", "avg_entropy", "alpha1", ["--alpha2", "2.2", "--alpha3", "0.4"]),
    # a fixed per-site angle beats the swept --alpha (it used to be ignored)
    ("B'3-", "concurrence", "alpha", ["--alpha2", "0.7"]),
])
def test_sweep_row_matches_measure_text(capsys, name, measure, var, fixed):
    _, rows = _sweep_rows(capsys, "--name", name, "--measure", measure, "--var", var,
                          "--range", "0:2pi", "--steps", "9", *fixed)
    for alpha1, value, closed, _ in rows:
        code, out, _ = run(capsys, "measure", "--name", name, "--measure", measure,
                           "--alpha1", alpha1, *fixed)
        if value == "nan":
            assert code == 3
            continue
        assert code == 0
        line = out.splitlines()[1]
        assert f"value={value} " in line and f"closed_form={closed} " in line


def test_sweep_beyond_one_chunk_equals_point_by_point(capsys, monkeypatch):
    argv = ["--name", "W7", "--measure", "avg_entropy", "--var", "alpha1", "--range", "0:2pi",
            "--var", "alpha2", "--range=-1:3", "--steps", "41", "--steps", "13",
            "--alpha3", "0.9"]
    assert 41 * 13 > cli.CHUNK
    header, batched = _sweep_rows(capsys, *argv)
    monkeypatch.setattr(cli, "CHUNK", 1)
    assert _sweep_rows(capsys, *argv) == (header, batched)
    assert sum(row[2] == "nan" for row in batched) == 2 * 13   # alpha1 = pi/2, 3pi/2


def test_sweep_nan_exactly_at_degenerate_points(capsys):
    header, rows = _sweep_rows(capsys, "--name", "B2-", "--measure", "concurrence",
                               "--var", "alpha", "--range", "0:2pi", "--steps", "201")
    assert header == ["alpha", "value", "closed_form", "abs_diff"]
    nan_rows = [i for i, row in enumerate(rows) if row[1] == "nan"]
    assert nan_rows == [i for i, row in enumerate(rows) if abs(math.cos(float(row[0]))) < 1e-10]
    assert nan_rows == [50, 150]
    # the closed form is still reported there; only the measured value is NaN
    assert all(row[2] != "" and row[3] == "nan" for row in (rows[50], rows[150]))


def test_sweep_case_b_nan_and_empty_cells(capsys):
    _, rows = _sweep_rows(capsys, "--name", "B3-", "--measure", "concurrence",
                          "--var", "s", "--range", "1:2", "--var", "delta", "--range=-3:3",
                          "--steps", "5", "--steps", "13")
    assert len(rows) == 65
    for s, delta, value, closed, diff in rows:
        s, delta = float(s), float(delta)
        # |delta / 2s| >= 1: degenerate or no real spectrum, so NaN
        assert (value == "nan") == (abs(delta) >= 2 * s)
        # beyond the boundary there is no closed form either
        assert (closed == "" and diff == "") == (abs(delta) > 2 * s)
    assert sum(row[2] == "nan" for row in rows) == 12
    assert sum(row[3] == "" for row in rows) == 6


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "all checks passed" in out
    assert "[skip]" in out  # degenerate grid points are reported, not hidden
    # a second run in the same process prints the same bytes
    assert run(capsys, "verify") == (code, out, "")
    lines = out.splitlines()
    assert sum(line.startswith(("[ ok ]", "[FAIL]")) for line in lines) == 10
    assert sum(line.startswith("[skip]") for line in lines) == 32
    for delta in ("-2", "2"):
        assert f"[skip] {'case-b':<28} s=1 delta={delta}: degenerate basis" in lines


def test_verify_reports_failed_check(capsys, monkeypatch):
    entries = [replace(e, weight=-e.weight) if e.name == "B1-" else e
               for e in catalog_entries(include_variants=True)]
    table_fidelity = verify.table_fidelity
    monkeypatch.setattr(verify, "table_fidelity", lambda: table_fidelity(entries))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[FAIL] table-fidelity" in out
    assert out.splitlines()[-1] == "1 check(s) FAILED"
