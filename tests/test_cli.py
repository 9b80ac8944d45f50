"""Command line front end: exit codes, determinism, corpus behavior."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from kropinaflat import corpus_dir
from kropinaflat.cli import CHECK_COMMANDS, main

E1 = Path(corpus_dir()) / "minkowski.inst"
E2 = Path(corpus_dir()) / "perturbed.inst"
E3 = Path(corpus_dir()) / "beta-variable.inst"

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus_reports.json"
# Reports echo the input path, so the golden runs use this path relative to ROOT.
GOLDEN_CORPUS = Path("src") / "kropinaflat" / "corpus"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bundled_corpus_exists():
    names = sorted(p.name for p in Path(corpus_dir()).glob("*.inst"))
    assert names == [
        "beta-variable.inst",
        "conformal.inst",
        "minkowski.inst",
        "perturbed.inst",
        "random-seed-11.inst",
        "random-seed-7.inst",
    ]


def test_dually_flat_holds_exit_zero(capsys):
    code, out = run(capsys, "check-dually-flat", "--input", str(E1))
    assert code == 0
    assert "[HOLDS] dually-flat" in out
    assert "R_1 = 0" in out


def test_theorem1_fails_exit_one(capsys):
    code, out = run(capsys, "check-theorem1", "--input", str(E3))
    assert code == 1
    assert "beta-bracket" in out and "coupling" in out
    assert "C3_1" in out and "C2_1" in out
    assert "at point" in out


def test_m2_file_rejected(capsys, tmp_path):
    bad = tmp_path / "m2.inst"
    bad.write_text("n = 2\nm = 2\nA = y1*y2\nbeta = y1\n")
    code = main(["check-theorem1", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "m > 2" in err


def test_parse_error_has_position(capsys, tmp_path):
    bad = tmp_path / "bad.inst"
    bad.write_text("n = 2\nm = 3\nA = y1^(1/2) + y2^3\nbeta = y1\n")
    code = main(["check-dually-flat", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "fractional exponent" in err
    assert "position" in err


def test_missing_input_file(capsys):
    code = main(["check-dually-flat", "--input", "does-not-exist.inst"])
    assert code == 2


def test_json_report_is_deterministic(capsys):
    code1, out1 = run(capsys, "check-theorem1", "--input", str(E2), "--format", "json")
    code2, out2 = run(capsys, "check-theorem1", "--input", str(E2), "--format", "json")
    assert code1 == code2 == 1
    assert out1 == out2
    document = json.loads(out1)
    assert document["command"] == "check-theorem1"
    assert document["exit_code"] == 1
    assert document["instance"]["m"] == 3
    names = [c["name"] for c in document["checks"][0]["conditions"]]
    assert any(name.startswith("beta-bracket") for name in names)


def test_out_writes_structured_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["check-dually-flat", "--input", str(E1), "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    document = json.loads(out_path.read_text())
    assert document["checks"][0]["overall"] == "holds"


def test_verify_identities_exit_zero(capsys):
    code, out = run(capsys, "verify-identities", "--input", str(E2))
    assert code == 0
    assert "euler-identities" in out
    assert "inverse-identities" in out
    assert "contraction-probes" in out


def test_crosscheck_exit_zero(capsys):
    code, out = run(capsys, "crosscheck", "--input", str(E2), "--points", "5")
    assert code == 0
    assert "finite differences" in out


def test_crosscheck_seed_changes_points_not_verdict(capsys):
    code1, out1 = run(capsys, "crosscheck", "--input", str(E2), "--points", "4", "--seed", "1")
    code2, out2 = run(capsys, "crosscheck", "--input", str(E2), "--points", "4", "--seed", "2")
    assert code1 == code2 == 0


def test_corpus_bundled_six_rows_exit_one(capsys):
    code, out = run(capsys, "corpus")
    assert code == 1
    lines = [line for line in out.splitlines() if line.endswith(("-", "holds", "fails"))]
    assert len(lines) == 6
    assert "error" in out.splitlines()[1]  # header row
    assert out.count("fails") > 0


def test_corpus_is_byte_deterministic(capsys):
    _, out1 = run(capsys, "corpus", "--format", "json")
    _, out2 = run(capsys, "corpus", "--format", "json")
    assert out1 == out2
    document = json.loads(out1)
    assert len(document["rows"]) == 6
    assert all(row["error"] is None for row in document["rows"])


def test_corpus_empty_directory(capsys, tmp_path):
    code, out = run(capsys, "corpus", "--input", str(tmp_path))
    assert code == 0
    assert "exit: 0" in out


def test_corpus_with_malformed_file_continues(capsys, tmp_path):
    good = tmp_path / "a-good.inst"
    good.write_text(E1.read_text())
    bad = tmp_path / "b-bad.inst"
    bad.write_text("n = 2\nm = 3\nA = y1^3 +\nbeta = y1\n")
    code, out = run(capsys, "corpus", "--input", str(tmp_path))
    assert code == 2
    assert "a-good.inst" in out
    assert "b-bad.inst" in out
    assert "holds" in out  # the good row was still computed


def test_corpus_missing_directory(capsys):
    code = main(["corpus", "--input", "no-such-dir"])
    assert code == 2


def test_three_dimensional_instance(capsys, tmp_path):
    inst = tmp_path / "n3.inst"
    inst.write_text(
        "n = 3\nm = 3\nA = y1^3 + y2^3 + y3^3 + y1*y2*y3\nbeta = y1 + y3\n"
    )
    code, out = run(capsys, "verify-identities", "--input", str(inst))
    assert code == 0
    assert "inverse-identities" in out
    code, out = run(capsys, "check-dually-flat", "--input", str(inst))
    assert code == 0  # constant coefficients: still flat


def test_internal_fault_exits_three(capsys, monkeypatch):
    import kropinaflat.kropina as kropina
    from kropinaflat import MultiPoly

    monkeypatch.setattr(
        kropina, "_residual_expanded", lambda inst, kind, l: MultiPoly.const(inst.n, 1)
    )
    code = main(["check-dually-flat", "--input", str(E1)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(
        "internal error: RuntimeError: dually-flat residual routes disagree;"
        " implementation fault (at kropina.py:"
    )
    assert lines[0].endswith(" in dually_flat_residual)")
    assert len(lines) == 2 and lines[1].startswith("elapsed_ms=")


def test_prop31_guard_is_an_internal_fault(capsys, monkeypatch):
    import kropinaflat.cli as cli
    from kropinaflat import MultiPoly, prop31_condition

    real_build = cli.build_instance

    def build(spec):  # T_l cached as zero, then A_xl made nonzero
        inst = real_build(spec)
        for l in range(1, inst.n + 1):
            prop31_condition(inst, l)
        inst.derived.a_xl = [inst.a * MultiPoly.var_x(inst.n, 1)] * inst.n
        return inst

    monkeypatch.setattr(cli, "build_instance", build)
    code = main(["check-prop31", "--input", str(E1)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: RuntimeError: prop31 holds but A depends on x; implementation fault"
    )


@pytest.mark.parametrize("points", ["0", "-3"])
def test_crosscheck_rejects_nonpositive_points(capsys, points):
    code = main(["crosscheck", "--input", str(E1), "--points", points])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == f"error: number of sample points must be positive, got {points}"
    assert len(lines) == 2 and lines[1].startswith("elapsed_ms=")


@pytest.mark.parametrize("flag", [("--points", "-7"), ("--seed", "5")])
@pytest.mark.parametrize("command", [c for c in CHECK_COMMANDS if c != "crosscheck"] + ["corpus"])
def test_only_crosscheck_accepts_seed_and_points(capsys, command, flag):
    source = corpus_dir() if command == "corpus" else E1
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(source), *flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_deep_parentheses_are_a_positioned_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.inst"
    deep.write_text("n = 2\nm = 3\nA = " + "(" * 1200 + "y1" + ")" * 1200 + "^3 + y2^3\nbeta = y1\n")
    code = main(["check-dually-flat", "--input", str(deep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "error: key 'A': parentheses nested deeper than 100 levels (position 101)"
    assert len(lines) == 2 and lines[1].startswith("elapsed_ms=")
    assert "Traceback" not in captured.err


def test_corpus_keeps_a_fault_to_its_row(capsys, monkeypatch):
    import kropinaflat.cli as cli

    code, clean = run(capsys, "corpus", "--format", "json")
    assert code == 1
    real_build = cli.build_instance

    def build(spec):  # a fault of the program on one file only
        if Path(spec.source).name == "minkowski.inst":
            raise ZeroDivisionError("injected\nfault")
        return real_build(spec)

    monkeypatch.setattr(cli, "build_instance", build)
    code, out = run(capsys, "corpus", "--format", "json")
    assert code == 3
    document = json.loads(out)
    assert document["exit_code"] == 3
    rows = {row["file"]: row for row in document["rows"]}
    assert rows["minkowski.inst"] == {
        "file": "minkowski.inst",
        "n": None,
        "m": None,
        "checks": None,
        "error": "internal error: ZeroDivisionError: injected fault",
    }
    others = [r for r in json.loads(clean)["rows"] if r["file"] != "minkowski.inst"]
    assert [rows[r["file"]] for r in others] == others
    code = main(["corpus"])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal error: ZeroDivisionError: injected fault" in captured.out
    assert captured.out.rstrip().endswith("exit: 3")
    assert captured.err.startswith(
        "internal error in minkowski.inst: ZeroDivisionError: injected fault (at test_cli.py:"
    )


def test_report_reuses_the_built_instance(capsys, monkeypatch):
    import kropinaflat.cli as cli

    builds = []
    real_build = cli.build_instance

    def counting_build(spec):
        builds.append(spec)
        return real_build(spec)

    monkeypatch.setattr(cli, "build_instance", counting_build)
    code, out = run(capsys, "check-dually-flat", "--input", str(E1), "--format", "json")
    assert code == 0
    assert len(builds) == 1
    echo = json.loads(out)["instance"]
    assert echo["A_canonical"] == "y1^3 + y1*y2^2 + y2^3"
    assert echo["beta_canonical"] == "y1"


def test_report_echo_without_the_instance_derives_nothing(monkeypatch):
    import kropinaflat.cli as cli
    import kropinaflat.kropina as kropina
    from kropinaflat import load_instance_file

    spec = load_instance_file(E3)
    inst = cli.build_instance(spec)
    with_inst = cli._document("check-dually-flat", spec, [], inst)
    calls = []
    real_derive = kropina.derive

    def counting_derive(*args):
        calls.append(args)
        return real_derive(*args)

    monkeypatch.setattr(kropina, "derive", counting_derive)
    assert cli._document("check-dually-flat", spec, []) == with_inst
    assert calls == []
    assert with_inst["instance"]["A_canonical"] == str(inst.a)
    assert with_inst["instance"]["beta_canonical"] == str(inst.b)


def test_report_echo_of_an_invalid_spec_is_the_spec_alone():
    import kropinaflat.cli as cli
    from kropinaflat import InstanceError, InstanceFile

    for a_text in ("y1^2 + y2^2", "y1^3 + (y2"):
        spec = InstanceFile(n=2, m=3, a_text=a_text, beta_text="y1")
        with pytest.raises(InstanceError):
            cli.build_instance(spec)
        assert cli._instance_echo(spec) == spec.to_dict()


def corpus_reports(out: Path) -> dict:
    """{"<command> <format> <file>": {"exit_code", "sha256"}} for every check
    command in both formats on every bundled corpus file; run from ROOT.

    GOLDEN holds this mapping, written as sorted, indented JSON; a change
    that alters report bytes on purpose writes it again from its output.
    """
    reports = {}
    for path in sorted((ROOT / GOLDEN_CORPUS).glob("*.inst")):
        for command in CHECK_COMMANDS:
            for fmt in ("text", "json"):
                code = main([command, "--input", str(GOLDEN_CORPUS / path.name), "--format", fmt, "--out", str(out)])
                reports[f"{command} {fmt} {path.name}"] = {
                    "exit_code": code,
                    "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
                }
    return reports


def test_corpus_reports_match_their_golden_bytes(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 72
    assert corpus_reports(tmp_path / "report") == golden
