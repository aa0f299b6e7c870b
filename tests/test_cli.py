import csv
import io
import itertools
import json
import math
import random
import tracemalloc
import warnings

from dataclasses import replace

import pytest

from pseudobell import cli, verify
from pseudobell.biortho import basis_from_alpha
from pseudobell.cli import main, parse_angle
from pseudobell.constructor import build_state, catalog, catalog_entries
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
    for text in ("pie", "pi/0", "3pi/0.0", "nan", "inf", "-inf", "1e400"):
        with pytest.raises(ValueError):
            parse_angle(text)


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


def test_closed_form_table_covers_exactly_the_documented_names(capsys):
    # every resolvable name: the 52 entries and both spellings of each W sign tuple
    names = [e.name for e in catalog_entries(include_variants=True)]
    names += [f"W{j}{spelling}" for j in range(1, 9)
              for signs in itertools.product("+-", repeat=3)
              for spelling in ("".join(signs), "({})".format(",".join(signs)))]
    documented = {"W7", "W7---", "W6-+-", "W6+-+"}
    rng, swept = random.Random(30), set()
    for name in names:
        entry = catalog(name)
        state = build_state(entry.weight, entry.spec)
        measure = "concurrence" if state.n_sites == 2 else "avg_entropy"
        angles = ["--alpha1", "0.3", "--alpha2", "-0.7", "--alpha3", "1.1"][:2 * state.n_sites]
        code, out, _ = run(capsys, "measure", "--name", name, "--measure", measure,
                           "--format", "json", *angles)
        assert code == 0, name
        payload = json.loads(out)
        has_form = entry.group.startswith(("bell", "ghz")) or entry.name in documented
        assert ("closed_form" in payload) == has_form, name
        if has_form:
            assert payload["abs_diff"] < 1e-12, name
        if has_form and entry.name not in swept:
            # and over a small seeded alpha1 x alpha2 grid, once per canonical name
            swept.add(entry.name)
            ranges = ["--range={}:{}".format(*sorted(rng.uniform(-7, 7) for _ in "lh"))
                      for _ in "12"]
            fixed = [f"--alpha3={rng.uniform(-7, 7)!r}"] if state.n_sites == 3 else []
            _, rows = _sweep_rows(capsys, "--name", name, "--measure", measure, "--steps", "4",
                                  "--var", "alpha1", ranges[0], "--var", "alpha2", ranges[1],
                                  *fixed)
            assert len(rows) == 16
            for *_, value, closed, diff in rows:
                if value != "nan":
                    assert closed != "" and float(diff) <= 1e-10, (name, value, closed)
    assert len(swept) == 40


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
    ("alpha1 = 0.1\nalpha2 = 0.3\nfoo = 1\n", "config key 'foo' sets none of the 2 sites"),
    ("alpha1 = 0.1\nalpha2 = 0.3\nalpha9 = 1\n", "config key 'alpha9' sets none"),
    ("alpha1 = 0.1\nalpha2 = 0.3\nalpha1 = 0.2\n", "config line 3: alpha1 is set twice"),
    ("alpha1 = 0.1\nr1 = 1\ns1 = 1\nt1 = 1\nbeta1 = 0.2\nalpha2 = 0.3\n",
     "site 1: config sets both alpha1 and r1"),
    ("alpha1 = nan\nalpha2 = 0.3\n", "config line 1: alpha1 must be finite"),
], ids=["beyond-real-regime", "bad-number", "incomplete-site", "unknown-key",
        "key-of-no-site", "repeated-key", "both-site-forms", "non-finite-value"])
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


@pytest.mark.parametrize("argv", [
    ["measure", "--alpha", "pi/0"],
    ["measure", "--alpha", "nan"],
    ["measure", "--alpha", "inf"],
    ["measure", "--s", "nan", "--delta", "0"],
    ["measure", "--s", "1", "--delta", "inf"],
    ["sweep", "--var", "alpha", "--range", "0:inf", "--steps", "3", "--out", "-"],
], ids=["zero-denominator", "nan-angle", "inf-angle", "nan-s", "inf-delta", "inf-range-end"])
def test_unparseable_numbers_are_argument_errors(capsys, argv):
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--name", "B2-", "--measure", "concurrence", *rest])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("argv, reason", [
    (["measure", "--alpha", "pi/0"], "argument --alpha: zero denominator in 'pi/0'"),
    (["measure", "--alpha2", "nan"], "argument --alpha2: not a finite number: 'nan'"),
    (["measure", "--alpha", "abc"], "argument --alpha: could not convert string to float: 'abc'"),
    (["measure", "--s", "1", "--delta", "inf"], "argument --delta: not a finite number: 'inf'"),
    (["sweep", "--var", "alpha", "--range", "0:inf", "--out", "-"],
     "argument --range: not a finite number: 'inf'"),
    (["sweep", "--var", "alpha", "--range", "3pi/0:1", "--out", "-"],
     "argument --range: zero denominator in '3pi/0'"),
])
def test_argument_errors_say_why(capsys, argv, reason):
    command, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--name", "B2-", "--measure", "concurrence", *rest])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"pseudobell {command}: error: {reason}"


def test_case_b_closed_form_that_underflows_is_left_out(capsys):
    # 4 s^2 + delta^2 underflows to 0 at s = 1e-300, delta = 0; alpha = 0 is fine
    code, out, err = run(capsys, "measure", "--name", "B3-", "--measure", "concurrence",
                         "--s", "1e-300", "--delta", "0", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert "closed_form" not in payload and abs(payload["value"] - 1) < 1e-15


def test_case_b_closed_form_that_overflows_is_left_out(capsys):
    # 4 s^2 overflows at s = 1e200, so the form reads inf/inf; alpha = -pi/6 is fine
    code, out, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                         "--s", "1e200", "--delta", "1e200", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert "closed_form" not in payload and abs(payload["value"] - 0.6) < 1e-12
    _, rows = _sweep_rows(capsys, "--name", "B2-", "--measure", "concurrence", "--var", "s",
                          "--range", "1e200:2e200", "--delta", "1e200", "--steps", "3")
    assert [row[2:] for row in rows] == [["", ""]] * 3
    assert all(float(row[1]) > 0.6 - 1e-12 for row in rows)


def test_measure_case_b_at_s_zero_names_s(capsys):
    # |delta| <= 2|s| holds at s = delta = 0; the fault is that alpha is undefined
    code, out, err = run(capsys, "measure", "--name", "B2-", "--measure", "concurrence",
                         "--s", "0", "--delta", "0")
    assert code == 2
    assert out == "" and err == "error: case b needs s != 0: alpha is undefined at s = 0\n"


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


def test_sweep_memory_is_bounded_by_the_chunk(monkeypatch):
    # a 3000 x 3000 grid as one array is 144 MB; resolving the first chunk
    # may only touch CHUNK points of it
    class FirstChunk(Exception):
        pass

    resolve = cli._resolve

    def stop_after_first(*args):
        resolve(*args)
        raise FirstChunk

    monkeypatch.setattr(cli, "_resolve", stop_after_first)
    build_state(catalog("G1+").weight, catalog("G1+").spec)   # warm the symbolic caches
    tracemalloc.start()
    try:
        with pytest.raises(FirstChunk):
            main(["sweep", "--name", "G1+", "--measure", "avg_entropy", "--var", "alpha1",
                  "--range", "0:1", "--var", "alpha2", "--range", "0:1", "--steps", "3000",
                  "--alpha3", "0.2", "--out", "-"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_sweep_nan_exactly_at_degenerate_points(capsys):
    header, rows = _sweep_rows(capsys, "--name", "B2-", "--measure", "concurrence",
                               "--var", "alpha", "--range", "0:2pi", "--steps", "201")
    assert header == ["alpha", "value", "closed_form", "abs_diff"]
    nan_rows = [i for i, row in enumerate(rows) if row[1] == "nan"]
    assert nan_rows == [i for i, row in enumerate(rows) if abs(math.cos(float(row[0]))) < 1e-10]
    assert nan_rows == [50, 150]
    # the closed form is still reported there; only the measured value is NaN
    assert all(row[2] != "" and row[3] == "nan" for row in (rows[50], rows[150]))


@pytest.mark.parametrize("name, eps", [("B1-", -1), ("B2-", 1)])
def test_sweep_leaves_out_the_closed_form_exactly_at_singular_denominators(capsys, name, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rows = _sweep_rows(capsys, "--name", name, "--measure", "concurrence",
                              "--var", "alpha1", "--range", "0:2pi",
                              "--var", "alpha2", "--range", "0:2pi", "--steps", "5")
    singular = [abs(1 + eps * math.sin(float(a1)) * math.sin(float(a2))) < 1e-12
                for a1, a2, *_ in rows]
    assert sum(singular) == 2
    assert [row[3] == "" for row in rows] == singular
    assert [row[4] == "" for row in rows] == singular


def test_sweep_range_whose_width_overflows_is_rejected(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--name", "B2-", "--measure", "concurrence",
                             "--var", "alpha", "--range=-1e308:1e308", "--steps", "3",
                             "--out", "-")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
