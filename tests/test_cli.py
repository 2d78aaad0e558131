import json
import os
import subprocess
import sys
import time

import pytest

from propcalc import cli
from propcalc.cli import run
from propcalc.errors import InternalError

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_normalize_prints_normal_form(capsys):
    assert run(["normalize", "delta ; mu(1/2)"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=1 : 1/1"


def test_eval_diagonal_anchor(capsys):
    assert run(["eval", "--d", "1", "--term", "delta", "--point", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "(0), (1/2)"


def test_parse_and_export(capsys):
    assert run(["parse", "delta ; (eps | id)"]) == 0
    out = capsys.readouterr().out
    assert "(1,1)" in out
    assert run(["export", "delta", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"] == 1 and doc["outputs"] == 2
    assert run(["export", "delta", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_compose(capsys):
    assert run(["compose", "delta", "delta | id"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=3 : 1/1 2/1 3/1"


def test_act(capsys):
    assert run(["act", "--term", "delta", "--face", "0,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[0] (x) [0,1] + [0,1] (x) [1]"


def test_sq_on_projective_plane(capsys):
    rc = run(["sq", "--k", "1",
              "--complex", os.path.join(DATA, "rp2.sc"),
              "--cocycle", os.path.join(DATA, "rp2_h1.cc")])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out and out != "0"
    # the printed cochain is a nonzero two-cocycle
    from propcalc.complexes import (cochain_from_text, is_coboundary,
                                    is_cocycle, rp2)
    result = cochain_from_text(out)
    K = rp2()
    assert is_cocycle(K, result) and not is_coboundary(K, result)


def test_cup_files(capsys):
    rc = run(["cup", "--i", "1",
              "--complex", os.path.join(DATA, "rp2.sc"),
              "--a", os.path.join(DATA, "rp2_h1.cc"),
              "--b", os.path.join(DATA, "rp2_h1.cc")])
    assert rc == 0


def test_surface_text_and_json(capsys):
    assert run(["surface", "delta"]) == 0
    out = capsys.readouterr().out
    assert "genus 0" in out and "boundary circles 3" in out
    assert run(["surface", "delta", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 0 and doc["boundary"] == 3


def test_parse_error_exit_code(capsys):
    assert run(["normalize", "delta ; (mu(1/2) | id)"]) == 1
    assert run(["parse", "frobenius"]) == 1
    assert run(["normalize", "mu(3/2)"]) == 1


def test_verify_subcommand(capsys):
    assert run(["verify", "--only", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "criterion 2 PASS" in out


def test_verify_reproducible(capsys):
    run(["verify", "--only", "2", "--seed", "9"])
    first = capsys.readouterr().out
    run(["verify", "--only", "2", "--seed", "9"])
    second = capsys.readouterr().out
    assert _strip_times(first) == _strip_times(second)


def _strip_times(text):
    import re
    return re.sub(r"\[\s*[\d.]+s\]", "[]", re.sub(r", [\d.]+s,", ",", text))


def test_normalize_idempotent_under_reparsing(capsys):
    run(["normalize", "delta ; (delta | id)"])
    out1 = capsys.readouterr().out.strip()
    assert out1 == "surj n=1 m=3 : 1/1 2/1 3/1"


# --- bad input ends at exit code 1 --------------------------------------------

@pytest.mark.parametrize("face", ["", ",", "0,a", "-1,2", "2,0,0", "0,0,1", "1,0"],
                         ids=["empty", "comma", "non-integer", "negative",
                              "unsorted-repeated", "repeated", "unsorted"])
def test_act_rejects_bad_faces(capsys, face):
    assert run(["act", "--term", "delta", "--face=" + face]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _sq(cocycle, complex_=os.path.join(DATA, "rp2.sc")):
    return run(["sq", "--k", "0", "--complex", complex_, "--cocycle", cocycle])


def test_missing_files_exit_1(capsys, tmp_path):
    missing = str(tmp_path / "missing.cc")
    assert _sq(missing) == 1
    assert _sq(os.path.join(DATA, "rp2_h1.cc"), complex_=missing) == 1
    assert run(["cup", "--i", "1", "--complex", os.path.join(DATA, "rp2.sc"),
                "--a", os.path.join(DATA, "rp2_h1.cc"), "--b", missing]) == 1
    assert _sq(str(tmp_path)) == 1  # a directory cannot be read
    assert "error: cannot read" in capsys.readouterr().err


def test_non_integer_tokens_in_files_exit_1(capsys, tmp_path):
    bad_cc = tmp_path / "bad.cc"
    bad_cc.write_text("1 2\n2 x\n")
    assert _sq(str(bad_cc)) == 1
    bad_sc = tmp_path / "bad.sc"
    bad_sc.write_text("1 2 3\n1 q 4\n")
    assert _sq(os.path.join(DATA, "rp2_h1.cc"), complex_=str(bad_sc)) == 1
    assert capsys.readouterr().err.count("must be integers") == 2


def test_cochain_face_outside_the_complex_exit_1(capsys, tmp_path):
    stray = tmp_path / "stray.cc"
    stray.write_text("1 9\n")
    assert _sq(str(stray)) == 1
    assert "1 9 is not a simplex" in capsys.readouterr().err
    assert run(["cup", "--i", "0", "--complex", os.path.join(DATA, "rp2.sc"),
                "--a", os.path.join(DATA, "rp2_h1.cc"), "--b", str(stray)]) == 1


def test_a_cochain_face_with_a_repeated_vertex_is_stray(capsys, tmp_path):
    stray = tmp_path / "repeated.cc"
    stray.write_text("2 1 1\n")
    assert _sq(str(stray)) == 1
    assert "face 1 1 2 is not a simplex" in capsys.readouterr().err


def test_the_smallest_stray_face_is_named(capsys, tmp_path):
    stray = tmp_path / "stray.cc"
    stray.write_text("4 9\n1 9\n")
    assert _sq(str(stray)) == 1
    err = capsys.readouterr().err
    assert "face 1 9 is not a simplex" in err and "4 9" not in err


# --- the parser is built once per process ------------------------------------

def test_repeated_options_do_not_accumulate_across_calls(capsys):
    assert run(["eval", "--d", "1", "--term", "mu(1/2)", "--point", "1/4", "--point", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "(3/8)"
    # a second call sees its own one point, not three
    assert run(["eval", "--d", "1", "--term", "delta", "--point", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "(0), (1/2)"


def test_defaults_and_usage_errors_leave_the_parser_usable(capsys):
    from propcalc.verify import DEFAULT_SEED
    assert run(["verify", "--only", "1"]) == 0
    assert f"seed={DEFAULT_SEED})" in capsys.readouterr().out
    assert run(["normalize", "delta"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=2 : 1/1 2/1"
    with pytest.raises(SystemExit) as exc:
        run(["cup", "--i", "x"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert run(["normalize", "delta"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=2 : 1/1 2/1"


@pytest.mark.parametrize("argv", [
    ["normalize", "delta", "--format", "dot"],
    ["normalize", "delta", "--format", "svg"],
    ["compose", "delta", "id | id", "--format", "dot"],
    ["parse", "delta", "--format", "svg"],
    ["export", "delta", "--format", "svg"],
    ["export", "delta", "--format", "text"],
], ids=["normalize-dot", "normalize-svg", "compose-dot", "parse-svg", "export-svg",
        "export-text"])
def test_a_format_the_subcommand_does_not_render_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, formats", [
    (["parse", "delta"], ["text", "json", "dot"]),
    (["normalize", "delta"], ["text", "json"]),
    (["compose", "delta", "id | id"], ["text", "json"]),
    (["export", "delta"], ["json", "dot"]),
    (["surface", "delta"], ["text", "json", "dot", "svg"]),
], ids=["parse", "normalize", "compose", "export", "surface"])
def test_each_format_a_subcommand_accepts_prints_its_own_output(capsys, argv, formats):
    outputs = set()
    for fmt in formats:
        assert run(argv + ["--format", fmt]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == len(formats)


# --- the faces of a complex are built only where a command needs them --------

def test_one_line_40_vertex_simplex(capsys, tmp_path):
    complex_ = tmp_path / "simplex.sc"
    complex_.write_text(" ".join(map(str, range(40))) + "\n")
    every = tmp_path / "every.cc"
    every.write_text("".join(f"{v}\n" for v in range(40)))
    evens = tmp_path / "evens.cc"
    evens.write_text("".join(f"{v}\n" for v in range(0, 40, 2)))
    thirds = tmp_path / "thirds.cc"
    thirds.write_text("".join(f"{v}\n" for v in range(0, 40, 3)))

    t0 = time.perf_counter()
    assert run(["sq", "--k", "0", "--complex", str(complex_), "--cocycle", str(every)]) == 0
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().out.split() == [str(v) for v in range(40)]

    t0 = time.perf_counter()
    assert run(["cup", "--i", "0", "--complex", str(complex_),
                "--a", str(evens), "--b", str(thirds)]) == 0
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().out.split() == [str(v) for v in range(0, 40, 6)]


@pytest.mark.parametrize("text", ["sigma[]", "sigma[,]", "sigma[1,]",
                                  "(" * 2000 + "id" + ")" * 2000],
                         ids=["empty-list", "comma", "trailing-comma", "deep-nesting"])
def test_malformed_terms_exit_1(capsys, text):
    assert run(["parse", text]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("only", ["a", "12", "0", "2,x", "2,10", ""])
def test_verify_rejects_unknown_criteria(capsys, only):
    assert run(["verify", "--only", only]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # no suite ran


def test_face_with_a_leading_minus_reaches_the_face_check(capsys):
    # argparse would take "-1,2" for an option and exit 2
    assert run(["act", "--term", "delta", "--face", "-1,2"]) == 1
    assert capsys.readouterr().err.startswith("error: face '-1,2': ")


@pytest.mark.parametrize("point, message", [
    ("abc", "bad coordinate 'abc'"),
    ("1/0", "bad coordinate '1/0'"),
    ("1/4,x", "bad coordinate 'x'"),
    ("-1/2", "outside [0,1]"),
], ids=["not-a-number", "zero-denominator", "second-coordinate", "leading-minus"])
def test_eval_rejects_bad_points(capsys, point, message):
    assert run(["eval", "--term", "delta", "--point", point]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_eval_rejects_a_capped_product_of_points_of_unequal_dimension(capsys):
    assert run(["eval", "--term", "mu(1/3) ; eps", "--point", "1/4", "--point", "1/4,1/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: product needs points of equal dimension"


def test_eval_prints_a_non_monotone_point_as_rationals(capsys):
    assert run(["eval", "--term", "delta", "--point", "1/2,1/3"]) == 1
    assert capsys.readouterr().err.strip() == "error: coordinates not monotone: (1/2,1/3)"


@pytest.mark.parametrize("point", ["1e-5000", "1e-3000000", "1e99999999999",
                                   "1/" + "7" * 4301],
                         ids=["1e-5000", "1e-3000000", "1e99999999999", "4301-digit-denominator"])
def test_eval_rejects_a_coordinate_too_long_to_print_before_building_it(capsys, point):
    start = time.perf_counter()
    assert run(["eval", "--term", "id", "--point", point]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("error: point coordinate 1 needs more than")


def test_eval_prints_a_long_coordinate_within_the_limit(capsys):
    assert run(["eval", "--term", "id", "--point", "1e-4000"]) == 0
    assert capsys.readouterr().out.strip() == "(1/1" + "0" * 4000 + ")"


def test_eval_reports_a_result_too_long_to_print(capsys):
    # each denominator fits the limit, their product in the mu combination does not
    x, y = "1/" + str(3 ** 9000), "1/" + str(7 ** 5000)
    assert run(["eval", "--term", "mu(1/2)", "--point", x, "--point", y]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: a result coordinate has too many digits to print"


def test_normalize_refuses_phi(capsys):
    assert run(["normalize", "h(1/2)"]) == 1
    assert "phi generator is not part of this presentation" in capsys.readouterr().err


def test_verify_seed_defaults_to_the_suite_seed(capsys):
    from propcalc.verify import DEFAULT_SEED
    assert run(["verify", "--only", "2"]) == 0
    assert f"seed={DEFAULT_SEED})" in capsys.readouterr().out


# strand weights 1/3^8000 and 1/7^4500 are each within the limit, their product is not
_LONG_WEIGHTS = f"(mu(1/{3 ** 8000}) | id) ; mu(1/{7 ** 4500})"


@pytest.mark.parametrize("argv", [
    ["normalize", _LONG_WEIGHTS],
    ["normalize", _LONG_WEIGHTS, "--format", "json"],
    ["compose", _LONG_WEIGHTS, "id"],
    ["surface", _LONG_WEIGHTS],
    ["surface", _LONG_WEIGHTS, "--format", "json"],
    ["surface", _LONG_WEIGHTS, "--format", "dot"],
    ["surface", _LONG_WEIGHTS, "--format", "svg"],
], ids=["normalize", "normalize-json", "compose", "surface", "surface-json", "surface-dot",
        "surface-svg"])
def test_a_weight_too_long_to_print_exits_1(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: a result coordinate has too many digits to print"


def test_the_format_environment_variable_changes_nothing(capsys, monkeypatch):
    monkeypatch.setenv("PROPCALC_FORMAT", "json")
    assert run(["normalize", "delta"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=2 : 1/1 2/1"
    monkeypatch.setenv("PROPCALC_FORMAT", "xml")
    assert run(["normalize", "delta"]) == 0
    assert capsys.readouterr().out.strip() == "surj n=1 m=2 : 1/1 2/1"


# --- a zero result reads back as the zero cochain ---------------------------

def test_a_zero_cup_result_reads_back_as_the_zero_cochain(capsys, tmp_path):
    complex_ = tmp_path / "path.sc"
    complex_.write_text("0 1\n1 2\n")
    (tmp_path / "a.cc").write_text("0\n")
    (tmp_path / "b.cc").write_text("2\n")
    assert run(["cup", "--i", "0", "--complex", str(complex_),
                "--a", str(tmp_path / "a.cc"), "--b", str(tmp_path / "b.cc")]) == 0
    zero = capsys.readouterr().out
    assert zero.strip() == "# zero cochain"
    (tmp_path / "zero.cc").write_text(zero)
    assert run(["sq", "--k", "0", "--complex", str(complex_),
                "--cocycle", str(tmp_path / "zero.cc")]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "# zero cochain" and captured.err == ""


def _raise_internal(*args):
    raise InternalError("planted")


_RP2 = ["--complex", os.path.join(DATA, "rp2.sc")]
_H1 = os.path.join(DATA, "rp2_h1.cc")


@pytest.mark.parametrize("argv, code, out, err", [
    (["act", "--term", "eps", "--face", "0,1"], 0, "0\n", ""),
    (["normalize", "delta"], 2, "", "internal error: planted\n"),
    (["cup", "--i", "-1", *_RP2, "--a", _H1, "--b", _H1], 1, "",
     "error: cup index must be nonnegative\n"),
    (["parse", "(" * 3000 + "id" + ")" * 3000], 1, "", "error: term nested too deeply\n"),
    (["eval", "--term", "delta", "--point", ""], 0, "(), ()\n", ""),
], ids=["act-counit-kills-an-edge", "internal-error", "negative-cup-index",
        "3000-parentheses", "empty-point"])
def test_each_exit_path_prints_its_own_line(capsys, monkeypatch, argv, code, out, err):
    # a planted bug in normalize, which only the internal-error case reaches
    monkeypatch.setattr(cli, "normalize", _raise_internal)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
    assert "Traceback" not in captured.err


# --- python -m propcalc ------------------------------------------------------

def _module_run(*argv):
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "propcalc", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_propcalc_runs_the_command_line():
    proc = _module_run("normalize", "delta")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "surj n=1 m=2 : 1/1 2/1"


def test_python_m_propcalc_reports_an_error_without_a_traceback():
    proc = _module_run("normalize", "(((")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_an_act_on_ten_layers_of_deltas_prints_its_one_term():
    # a (1,1024) term whose cell places 1023 pieces, more than the
    # interpreter's recursion limit: the cut search runs on its own stack
    term = " ; ".join(" | ".join(["delta"] * 2 ** k) for k in range(10))
    proc = _module_run("act", "--term", term, "--face", "0")
    assert proc.returncode == 0
    assert proc.stdout == " (x) ".join(["[0]"] * 1024) + "\n"
    assert proc.stderr == ""


def _raise_recursion(args):
    raise RecursionError("maximum recursion depth exceeded")


def test_a_computation_too_deep_for_the_interpreter_exits_1_without_a_traceback(
        capsys, monkeypatch):
    monkeypatch.setattr(cli, "_render", _raise_recursion)
    assert run(["normalize", "delta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: computation too deep for the interpreter\n"
