"""End-to-end command line tests driven through entry_point()."""

import json

import pytest

from minihls import cdfg, cli, source

ANNOTATED = ("function double(a::Int64)\n"
             "  return a + a\nend\n")


def run_cli(capsys, *argv):
    code = cli.entry_point(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_table_includes_reference_columns(capsys):
    code, out, _ = run_cli(capsys, "stats")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == list(cli.STATS_COLUMNS)
    rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert set(rows) == {"if_else", "power", "newton_raphson"}
    assert rows["if_else"][5:7] == ["5", "41"]
    assert rows["power"][5:7] == ["4", "61"]
    assert rows["newton_raphson"][5:7] == ["10", "225"]
    for row in rows.values():
        assert int(row[3]) > 0  # component totals are nonzero


def test_stats_timing_adds_one_column_per_stage(capsys, monkeypatch):
    emitted = []
    emit = cli.emit_vhdl
    monkeypatch.setattr(cli, "emit_vhdl", lambda g: emitted.append(g) or emit(g))
    code, out, _ = run_cli(capsys, "stats")
    assert code == 0 and emitted == []  # only --timing emits
    code, out, _ = run_cli(capsys, "stats", "--timing")
    assert code == 0
    header, *rows = [line.split("\t") for line in out.strip().split("\n")]
    stages = ["parse", "infer", "lower", "verify", "optimize", "build",
              "insert_buffers", "check", "emit", "lint"]
    assert header == [*cli.STATS_COLUMNS, *(f"{s}_ms" for s in stages)]
    assert len(rows) == 3 and len(emitted) == 3
    for row in rows:
        assert len(row) == len(header)
        assert all(float(v) >= 0 for v in row[len(cli.STATS_COLUMNS):])


def test_stats_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "stats")
    _, second, _ = run_cli(capsys, "stats")
    assert first == second


def test_run_and_sim_agree(capsys):
    code, out, _ = run_cli(capsys, "run", "power", "2", "10")
    assert code == 0 and out.strip() == "1024"
    code, out, err = run_cli(capsys, "sim", "power", "2", "10")
    assert code == 0 and out.strip() == "1024"
    assert "cycles=" in err


def test_run_float_formatting(capsys):
    code, out, _ = run_cli(capsys, "run", "newton_raphson", "2.0")
    assert code == 0
    assert out.strip() == "1.4142135623730951"


def test_diff_sweep_range_and_list(capsys):
    # values starting with a dash need the --sweep=value spelling
    code, out, _ = run_cli(capsys, "diff", "if_else",
                           "--sweep=-2..2", "--sweep=-1,0,3")
    assert code == 0
    assert "15 point(s), 0 mismatch(es)" in out


def test_diff_compares_float_results(capsys):
    code, out, _ = run_cli(capsys, "diff", "newton_raphson",
                           "--sweep=1.0,2.0,0.5")
    assert code == 0
    assert out.strip() == "newton_raphson: 3 point(s), 0 mismatch(es)"


@pytest.mark.parametrize("sweeps", [("--sweep=0x2", "--sweep=3"),
                                    ("--sweep=0x1..0x2", "--sweep=3")])
def test_run_and_diff_read_values_alike(capsys, sweeps):
    code, out, _ = run_cli(capsys, "run", "power", "0x2", "3")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run_cli(capsys, "diff", "power", *sweeps)
    assert code == 0 and "0 mismatch(es)" in out


@pytest.mark.parametrize("argv", [("run", "power", "2", "010"),
                                  ("diff", "power", "--sweep=2", "--sweep=010"),
                                  ("diff", "power", "--sweep=2", "--sweep=1..010")])
def test_run_and_diff_reject_a_leading_zero_alike(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "cannot parse '010' as Int64" in err


@pytest.mark.parametrize("argv", [
    ("run", "power", "9223372036854775808", "1"),
    ("sim", "power", "2", "-9223372036854775809"),
    ("diff", "power", "--sweep=0..0x10000000000000000", "--sweep=1")])
def test_int64_values_out_of_range_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error[cli] integer ") and "out of Int64 range" in err


def test_int64_range_ends_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "run", "power", "-9223372036854775808", "1")
    assert code == 0 and out == "-9223372036854775808\n"
    code, out, _ = run_cli(capsys, "run", "power", "9223372036854775807", "1")
    assert code == 0 and out == "9223372036854775807\n"


def test_diff_runs_points_as_it_makes_them(capsys):
    code, out, _ = run_cli(capsys, "diff", "power", "--sweep=-5..5", "--sweep=3")
    assert code == 0 and out == "power: 11 point(s), 0 mismatch(es)\n"
    # a sweep far too long to hold: the first point already stops the run
    code, out, err = run_cli(capsys, "diff", "power", "--fuel=1", "--sweep=1",
                             "--sweep=0..9223372036854775807")
    assert code == 1 and out == ""
    assert "evaluation fuel exhausted" in err


def test_diff_checks_its_circuit_once(capsys, monkeypatch):
    checks = []
    check = cdfg.check
    monkeypatch.setattr(cdfg, "check", lambda g: checks.append(g) or check(g))
    code, out, _ = run_cli(capsys, "diff", "power",
                           "--sweep=-1..1", "--sweep=0..3")
    assert code == 0
    assert "12 point(s), 0 mismatch(es)" in out
    assert len(checks) == 1


def test_diff_empty_sweep_warns_and_exits_zero(capsys):
    code, out, err = run_cli(capsys, "diff", "power",
                             "--sweep", "", "--sweep", "0..3")
    assert code == 0
    assert "empty sweep" in err


def test_diff_requires_one_sweep_per_parameter(capsys):
    code, _, err = run_cli(capsys, "diff", "power", "--sweep", "0..3")
    assert code == 1
    assert "error[cli]" in err


def test_compile_writes_deterministic_bundle(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(capsys, "compile", "power", "--out", str(out1))[0] == 0
    assert run_cli(capsys, "compile", "power", "--out", str(out2))[0] == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["manifest.json", "minihls_components.vhd",
                     "power_top.vhd"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["top"] == "power_top"


def test_dump_ir_shows_both_stages(capsys):
    code, out, _ = run_cli(capsys, "dump-ir", "if_else")
    assert code == 0
    assert "== unoptimized ==" in out and "== optimized ==" in out
    assert "br v4, b1, b2" in out


def test_dump_ir_no_opt_shows_single_stage(capsys):
    code, out, _ = run_cli(capsys, "dump-ir", "if_else", "--no-opt")
    assert code == 0
    assert "== optimized ==" not in out


def test_dump_cdfg_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "dump-cdfg", "power")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "power"
    code, out, _ = run_cli(capsys, "dump-cdfg", "power", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph power")


def test_dump_dispatch(capsys):
    code, out, _ = run_cli(capsys, "--dump-dispatch")
    assert code == 0
    assert "mod_i64" in out and "sitofp" in out


def test_annotated_file_needs_no_sig(tmp_path, capsys):
    f = tmp_path / "double.mjl"
    f.write_text(ANNOTATED)
    code, out, _ = run_cli(capsys, "run", str(f), "21")
    assert code == 0 and out.strip() == "42"


def test_sig_flag_overrides_inference(tmp_path, capsys):
    f = tmp_path / "poly.mjl"
    f.write_text("function poly(a, b)\n  return a * b + a\nend\n")
    code, out, _ = run_cli(capsys, "run", str(f), "2.5", "2.0",
                           "--sig", "f64,f64")
    assert code == 0 and out.strip() == "7.5"


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("no_opt=true\nmax_cycles=20000\n")
    code, out, _ = run_cli(capsys, "dump-ir", "if_else",
                           "--config", str(cfg))
    assert code == 0
    assert "== optimized ==" not in out


def test_config_rejects_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("# misspelt\nsigg=f64\n")
    code, out, err = run_cli(capsys, "run", "power", "2", "3",
                             "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error[cli] {cfg}:2: unknown key 'sigg'\n"


@pytest.mark.parametrize("argv", [("power", "--no-opt", "2", "3"),
                                  ("power", "2", "3", "--no-opt"),
                                  ("--no-opt", "power", "2", "3")])
def test_options_may_come_between_the_program_and_its_values(capsys, argv):
    assert run_cli(capsys, "run", *argv) == (0, "8\n", "")


def test_cli_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("max_cycles=5\n")
    code, _, err = run_cli(capsys, "sim", "power", "2", "6",
                           "--config", str(cfg))
    assert code == 1 and "error[sim]" in err
    code, out, _ = run_cli(capsys, "sim", "power", "2", "6",
                           "--config", str(cfg), "--max-cycles", "100000")
    assert code == 0 and out.strip() == "64"


def test_latency_flag_changes_cycle_count(capsys):
    _, _, err_fast = run_cli(capsys, "sim", "power", "2", "8",
                             "--latency", "mul_i64=0")
    _, _, err_slow = run_cli(capsys, "sim", "power", "2", "8",
                             "--latency", "mul_i64=12")
    fast = int(err_fast.split("cycles=")[1].split()[0])
    slow = int(err_slow.split("cycles=")[1].split()[0])
    assert slow > fast


def test_trace_file_has_header_and_rows(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "sim", "if_else", "1", "2",
                         "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "cycle,component,event"
    assert len(lines) > 10


def test_parse_error_diagnostic_format(tmp_path, capsys):
    f = tmp_path / "bad.mjl"
    f.write_text("function f(a)\n  x = \nend\n")
    code, _, err = run_cli(capsys, "run", str(f), "1", "--sig", "i64")
    assert code == 1
    assert err.startswith("error[parse] 2:")


def test_deep_nest_is_a_parse_diagnostic(tmp_path, capsys):
    f = tmp_path / "deep.mjl"
    f.write_text("function f(a)\n  return " + "(" * 3000 + "a" + ")" * 3000
                 + "\nend\n")
    code, _, err = run_cli(capsys, "run", str(f), "1", "--sig", "i64")
    assert code == 1
    col = 11 + source.MAX_NESTING
    assert err == f"error[parse] 2:{col}: expression nested too deeply\n"


def test_non_ascii_digit_is_a_lex_diagnostic(tmp_path, capsys):
    f = tmp_path / "digit.mjl"
    f.write_text("function f(a)\n    return a + 1٣\nend\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(f), "3", "--sig", "i64")
    assert code == 1
    assert err == "error[lex] 2:17: unexpected character '٣'\n"


def test_trap_in_circuit_is_reported_at_its_source(tmp_path, capsys):
    f = tmp_path / "mod.mjl"
    f.write_text("function f(a, b)\n    return a % b\nend\n")
    for cmd in ("run", "sim"):
        code, _, err = run_cli(capsys, cmd, "--sig", "i64,i64", str(f), "5", "0")
        assert code == 1
        assert err == "error[eval] 2:14: integer mod by zero\n"


def test_typecheck_error_diagnostic(tmp_path, capsys):
    f = tmp_path / "mix.mjl"
    f.write_text("function f(c)\n  if c > 0\n    x = 1\n  else\n"
                 "    x = 2.0\n  end\n  return x\nend\n")
    code, _, err = run_cli(capsys, "run", str(f), "1", "--sig", "i64")
    assert code == 1
    assert err.startswith("error[typecheck]")


def test_unknown_program_is_cli_error(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_prog", "1")
    assert code == 1
    assert err.startswith("error[cli]")


def test_no_subcommand_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_stats_on_user_file_has_empty_ref_columns(tmp_path, capsys):
    f = tmp_path / "double.mjl"
    f.write_text(ANNOTATED)
    code, out, _ = run_cli(capsys, "stats", str(f))
    row = out.splitlines()[-1].split("\t")  # keep trailing empty columns
    assert row[0] == "double"
    assert row[5] == "" and row[6] == ""
