"""End-to-end command line tests driven through entry_point()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minihls import cdfg, cli, source
from minihls.errors import ParseError

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
    # one untimed call to warm the caches, then the timed one
    assert len(rows) == 3 and len(emitted) == 6
    assert emitted[0::2] == emitted[1::2]
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


@pytest.mark.parametrize("program, sweeps", [
    ("if_else", ("--sweep=-5..5", "--sweep=-5..5")),
    ("power", ("--sweep=-3..3", "--sweep=0..12")),
    ("newton_raphson", ("--sweep=0.5,1.0,2.0,4.0",))])
def test_diff_finds_no_mismatch_on_the_corpus_sweeps(capsys, program, sweeps):
    code, out, _ = run_cli(capsys, "diff", program, *sweeps)
    assert code == 0 and out.endswith(" point(s), 0 mismatch(es)\n")


def add_a_stray_token(g):
    """A control Entry's constant waits forever at an adder whose other
    input comes from a Buffer-Fork ring that never holds a token."""
    entry, const, buf, fork, add, sink = (
        g.add_component(kind, ins, outs, **kw) for kind, ins, outs, kw in (
            (cdfg.ENTRY, (), (0,), {}),
            (cdfg.CONST, (0,), (64,), {"value": 1}),
            (cdfg.BUFFER, (64,), (64,), {}),
            (cdfg.FORK, (64,), (64, 64), {}),
            (cdfg.OPERATOR, (64, 64), (64,), {"opcode": "add_i64"}),
            (cdfg.SINK, (64,), (), {})))
    for src, dst, width in (((entry, 0), (const, 0), 0),
                            ((const, 0), (add, 0), 64),
                            ((buf, 0), (fork, 0), 64),
                            ((fork, 0), (buf, 0), 64),
                            ((fork, 1), (add, 1), 64),
                            ((add, 0), (sink, 0), 64)):
        g.add_channel((src[0].id, src[1]), (dst[0].id, dst[1]), width)


def test_diff_counts_leftover_tokens_as_a_mismatch(capsys, monkeypatch):
    compile_source = cli.compile_source

    def leaky(*args, **kwargs):
        res = compile_source(*args, **kwargs)
        add_a_stray_token(res.cdfg)
        return res
    monkeypatch.setattr(cli, "compile_source", leaky)
    code, out, _ = run_cli(capsys, "diff", "power", "--sweep=2",
                           "--sweep=0..1")
    assert code == 1
    assert out == ("mismatch at (2, 0): interp=1 sim=1 leftover=1\n"
                   "mismatch at (2, 1): interp=2 sim=2 leftover=1\n"
                   "power: 2 point(s), 2 mismatch(es)\n")


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


@pytest.mark.parametrize("cmd, line, message", [
    ("sim", "max_cycles=abc", "invalid value for max_cycles: 'abc'"),
    ("run", "fuel=1e3", "invalid value for fuel: '1e3'"),
    ("run", "no_opt=maybe", "invalid value for no_opt: 'maybe'")])
def test_config_value_of_the_wrong_type_is_a_cli_diagnostic(
        tmp_path, capsys, cmd, line, message):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, cmd, "power", "2", "3",
                             "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error[cli] {cfg}: {message}\n"


@pytest.mark.parametrize("argv, n", [
    (("sim", "power", "2", "3", "--max-cycles", "0"), 0),
    (("sim", "power", "2", "3", "--max-cycles=-1"), -1),
    (("diff", "power", "--sweep=2", "--sweep=3", "--max-cycles=-1"), -1)])
def test_max_cycles_below_one_is_rejected(capsys, argv, n):
    assert run_cli(capsys, *argv) == (
        1, "", f"error[cli] max_cycles must be at least 1, got {n}\n")


def test_max_cycles_below_one_is_rejected_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("max_cycles=0\n")
    assert run_cli(capsys, "sim", "power", "2", "3", "--config", str(cfg)) == (
        1, "", "error[cli] max_cycles must be at least 1, got 0\n")


@pytest.mark.parametrize("argv", [("run", "power", "2", "3"),
                                  ("diff", "power", "--sweep=2", "--sweep=3")])
@pytest.mark.parametrize("from_file", [False, True])
def test_negative_fuel_is_rejected(tmp_path, capsys, argv, from_file):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("fuel=-5\n")
    extra = ("--config", str(cfg)) if from_file else ("--fuel=-5",)
    assert run_cli(capsys, *argv, *extra) == (
        1, "", "error[cli] fuel must be at least 0, got -5\n")


def test_config_value_outside_the_flags_choices_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("format=xml\n")
    assert run_cli(capsys, "dump-cdfg", "power", "--config", str(cfg)) == (
        1, "", f"error[cli] {cfg}: invalid value for format: 'xml'\n")
    cfg.write_text("format=dot\n")
    code, out, _ = run_cli(capsys, "dump-cdfg", "power", "--config", str(cfg))
    assert code == 0 and out.startswith("digraph power {")


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


@pytest.mark.parametrize("text, where", [
    ("function f(a)\n    return a # done", "2:20"),
    ("function f(a)\n    return a # done\n", "3:1"),
    ("function f(a)\n    return a\t ", "2:15")],
    ids=["comment", "comment_then_newline", "blanks"])
def test_end_of_file_is_reported_after_the_last_character(tmp_path, capsys, text, where):
    f = tmp_path / "open.mjl"
    f.write_text(text)
    assert run_cli(capsys, "run", str(f), "1") == (
        1, "", f"error[parse] {where}: expected 'end', found 'eof'\n")


def test_a_program_file_that_is_not_utf8_is_a_cli_diagnostic(tmp_path, capsys):
    f = tmp_path / "bad.mjl"
    f.write_bytes(b"function f(a)\n  return a\xff\nend\n")
    assert run_cli(capsys, "run", str(f), "1", "--sig", "i64") == (
        1, "", f"error[cli] {f}: not UTF-8 text: byte 0xff at offset 24\n")


def test_a_config_file_that_is_not_utf8_is_a_cli_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"fuel=10\nsig=i64\xff\n")
    assert run_cli(capsys, "run", "power", "2", "3", "--config", str(cfg)) == (
        1, "", f"error[cli] {cfg}: not UTF-8 text: byte 0xff at offset 15\n")


def test_a_file_with_lone_cr_line_ends_reads_as_parse_source_reads_it(
        tmp_path, capsys):
    text = "function f(a::Int64)\r  return a\rend\r"
    f = tmp_path / "cr.mjl"
    f.write_bytes(text.encode())
    with pytest.raises(ParseError) as err:
        source.parse_source(text)
    assert str(err.value.pos) == "1:24"
    assert run_cli(capsys, "run", str(f), "1") == (
        1, "", f"error[parse] {err.value.pos}: {err.value.message}\n")


def test_a_file_with_crlf_line_ends_runs(tmp_path, capsys):
    text = "function f(a::Int64)\r\n  return a + 1\r\nend\r\n"
    f = tmp_path / "crlf.mjl"
    f.write_bytes(text.encode())
    assert source.parse_source(text).functions[0].name == "f"
    assert run_cli(capsys, "run", str(f), "3") == (0, "4\n", "")


ERROR_FILES = {
    "g.mjl": "function g(a)\n  return a\nend\n",
    "dup.mjl": "function h(a)\n  return a\nend\nfunction h(b)\n  return b\nend\n",
    "int32.mjl": "function f(a::Int32)\n  return a\nend\n",
    "empty.mjl": "# no code here\n",
    "flag.mjl": "function id(b::Bool)\n  return b\nend\n",
    "bad.cfg": "sig\n",
}


@pytest.mark.parametrize("argv, err", [
    (("run", "power", "2", "3", "--sig", "i32"),
     "error[cli] unknown signature type 'i32' (use i64, f64, or bool)"),
    (("run", "g.mjl", "1"),
     "error[cli] parameter 'a' of 'g' has no type annotation; pass --sig to "
     "supply the entry signature"),
    (("sim", "power", "2", "3", "--latency", "foo"),
     "error[cli] latency entries look like opcode=N, got 'foo'"),
    (("sim", "power", "2", "3", "--latency", "mul_i64=x"),
     "error[cli] latency for 'mul_i64' must be an integer, got 'x'"),
    (("sim", "power", "2", "3", "--latency", "bogus=1"),
     "error[cdfg] unknown opcode 'bogus' in latency map"),
    (("sim", "power", "2", "3", "--latency=mul_i64=-1"),
     "error[cdfg] negative latency for mul_i64"),
    (("run", "power", "2", "3", "--config", "bad.cfg"),
     "error[cli] bad.cfg:1: expected key=value, got 'sig'"),
    (("compile", "power"), "error[cli] compile needs --out DIR"),
    (("run", "dup.mjl", "1", "--sig", "i64"),
     "error[parse] 4:1: duplicate function name 'h'"),
    (("run", "int32.mjl", "1", "--sig", "i64"),
     "error[parse] 1:15: unknown type annotation 'Int32'"),
    (("run", "empty.mjl"), "error[parse] 2:1: program contains no functions"),
    (("run", "flag.mjl", "yes"), "error[cli] cannot parse 'yes' as Bool")],
    ids=["sig", "no_annotation", "latency_form", "latency_int",
         "latency_opcode", "latency_negative", "config_line", "compile_out",
         "duplicate_function", "unknown_annotation", "no_functions", "bool_arg"])
def test_cli_error_paths_print_one_diagnostic(tmp_path, monkeypatch, capsys, argv, err):
    monkeypatch.chdir(tmp_path)
    for name, text in ERROR_FILES.items():
        (tmp_path / name).write_text(text)
    assert run_cli(capsys, *argv) == (1, "", err + "\n")


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_a_missing_function_is_a_cli_diagnostic(tmp_path, capsys, from_config):
    prog = tmp_path / "two.mjl"
    prog.write_text("function g(a::Int64)\n  return a\nend\n"
                    "function f(a::Int64)\n  return a\nend\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("function = nope\n")
    extra = ("--config", str(cfg)) if from_config else ("--function", "nope")
    assert run_cli(capsys, "run", "power", "2", "3", *extra) == (
        1, "", "error[cli] no function 'nope' in the program; it defines power\n")
    assert run_cli(capsys, "run", str(prog), "1", *extra) == (
        1, "", "error[cli] no function 'nope' in the program; it defines g, f\n")


def test_a_bool_argument_reads_true(tmp_path, capsys):
    f = tmp_path / "flag.mjl"
    f.write_text(ERROR_FILES["flag.mjl"])
    assert run_cli(capsys, "run", str(f), "true") == (0, "true\n", "")


@pytest.mark.parametrize("argv, code, out, err", [
    (("run", "power", "2", "10"), 0, "1024\n", ""),
    (("run", "power", "2"), 1, "",
     "error[cli] power expects 2 argument(s), got 1\n")])
def test_python_dash_m_minihls_runs_the_cli(argv, code, out, err):
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src_dir), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "minihls", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_diff_counts_nan_on_both_sides_as_agreement(tmp_path, capsys):
    f = tmp_path / "ratio.mjl"
    f.write_text("function ratio(x)\n  return x / x\nend\n")
    code, out, _ = run_cli(capsys, "diff", str(f), "--sig", "f64",
                           "--sweep=0.0,1.0,-2.5")
    assert code == 0
    assert out.strip() == "ratio: 3 point(s), 0 mismatch(es)"
