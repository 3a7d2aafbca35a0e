"""Convergence-order arithmetic, study plumbing, and the CLI."""

import csv
import io
import json
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from vardens import assemble, cli, linalg
from vardens.harness import (ConvergenceRecord, StudySpec, build_mesh,
                             compute_order, l2_error_at_step, parse_fraction,
                             records_from_csv, records_to_csv,
                             records_to_table, run_case, run_study,
                             study_line, study_records)
from vardens.mesh import unit_square_mesh
from vardens.mms import make_case
from vardens.projections import project_dg
from vardens.scheme import DENSITY_RESTART
from vardens.spaces import P2DGSpace


def test_parse_fraction():
    assert parse_fraction("1/8") == 0.125
    assert parse_fraction("0.25") == 0.25
    assert parse_fraction(" 3/12 ") == 0.25
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")
    for text in ("0", "-1/8", "nan", "inf", "1/nan", "-0.0"):
        with pytest.raises(ValueError, match="not finite and positive"):
            parse_fraction(text)


def test_compute_order_table_values():
    # spatial row of the 2D study
    assert compute_order(7.48e-06, 1 / 8, 4.84e-06, 1 / 10) == pytest.approx(
        1.95, abs=0.005
    )
    # exact halving
    assert compute_order(1.0, 0.5, 0.25, 0.25) == pytest.approx(2.0)
    # temporal row of the 3D study
    assert compute_order(3.45e-03, 1 / 256, 2.72e-03, 1 / 324) == pytest.approx(
        1.01, abs=0.005
    )


def test_compute_order_symmetry_and_sentinel():
    rng = np.random.default_rng(0)
    for _ in range(20):
        e1, e2 = rng.uniform(1e-8, 1.0, 2)
        h1, h2 = sorted(rng.uniform(1e-3, 1.0, 2), reverse=True)
        a = compute_order(e1, h1, e2, h2)
        b = compute_order(e2, h2, e1, h1)
        assert a == pytest.approx(b, rel=1e-12)
    assert math.isnan(compute_order(0.0, 0.5, 1.0, 0.25))
    assert math.isnan(compute_order(1.0, 0.5, -1.0, 0.25))


def test_l2_error_against_projection_oracle():
    m = unit_square_mesh(8)
    geom = assemble.CellQuadrature(m, 8)
    tab = assemble.ScalarTab(P2DGSpace(m), geom)
    case = make_case("square2d")

    def exact(x):
        return case.rho(x, 0.0)

    field = project_dg(tab, exact(geom.points))
    vals = assemble.eval_scalar(tab, field)
    err = l2_error_at_step(geom, vals, exact(geom.points))
    resid = vals - exact(geom.points)
    oracle = math.sqrt(assemble.integrate(geom, resid ** 2))
    assert err == pytest.approx(oracle, rel=1e-12)
    # a field measured against its own values has zero error
    assert l2_error_at_step(geom, vals, vals) < 1e-12


def test_study_spec_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        StudySpec(case="square2d", mode="space", params=[1 / 8, 1 / 8])
    with pytest.raises(ValueError, match="strictly decreasing"):
        StudySpec(case="square2d", mode="space", params=[])
    with pytest.raises(ValueError, match="mode"):
        StudySpec(case="square2d", mode="hp", params=[1 / 4])
    with pytest.raises(ValueError, match="not 1/n"):
        run_study(StudySpec(case="square2d", mode="time", params=[1 / 24]))


def test_study_grid_is_checked_before_any_row_runs(monkeypatch, tmp_path):
    """A study whose h is not 1/n, or whose tau is not 1/n^2 in time mode,
    is rejected when it is specified: no row runs and ``--out`` is not
    written."""
    calls = _counting_run_case(monkeypatch)
    with pytest.raises(ValueError, match=r"tau 0.05 is not 1/n\^2"):
        StudySpec(case="square2d", mode="time", params=[1 / 16, 1 / 20])
    with pytest.raises(ValueError, match="mesh size 0.3 is not 1/n"):
        StudySpec(case="square2d", mode="space", params=[1 / 2, 0.3])
    out = tmp_path / "study.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["study", "--case", "square2d", "--mode", "time",
                  "--params", "1/16,1/20", "--out", str(out)])
    assert exc.value.code == 2
    assert calls == [] and not out.exists()


def test_horizon_not_a_whole_number_of_steps_is_a_usage_error(
        monkeypatch, tmp_path, capsys):
    """T = 0.25 is not a whole number of steps of 1/3 (or of 1/9 in time
    mode): ``vardens run`` and ``vardens study`` stop with argparse's
    usage error before anything runs, and ``StudySpec`` rejects the pair
    when it is specified."""
    calls = _counting_run_case(monkeypatch)
    monkeypatch.setattr(cli, "run_case",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="not a whole number of steps"):
        StudySpec(case="square2d", mode="space", params=[1 / 2],
                  tau=1 / 3, T=0.25)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        StudySpec(case="square2d", mode="time", params=[1 / 4, 1 / 9],
                  T=0.25)
    out = tmp_path / "study.csv"
    for argv in (["run", "--case", "square2d", "--h", "1/2", "--tau", "1/3",
                  "--T", "0.25"],
                 ["study", "--case", "square2d", "--mode", "space",
                  "--params", "1/2", "--tau", "1/3", "--T", "0.25",
                  "--out", str(out)],
                 ["study", "--case", "square2d", "--mode", "time",
                  "--params", "1/4,1/9", "--T", "0.25", "--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "not a whole number of steps" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_build_mesh_resolution_errors():
    case = make_case("square2d")
    with pytest.raises(ValueError, match="not 1/n"):
        build_mesh(case, 0.3)
    case3 = make_case("cube3d_nonsmooth")
    with pytest.warns(UserWarning, match="odd subdivision"):
        build_mesh(case3, 1.0 / 3.0)


def test_degenerate_single_parameter_study():
    spec = StudySpec(case="square2d", mode="space", params=[1 / 2],
                     tau=1 / 8, T=0.25)
    records = run_study(spec)
    assert len(records) == 1
    assert not records[0].failed
    assert math.isnan(records[0].order_rho)
    csv = records_to_csv(records)
    line = csv.splitlines()[1].split(",")
    assert line[3] == "" and line[5] == ""  # empty order columns


def test_failed_row_recorded_and_study_continues(monkeypatch):
    import vardens.harness as hmod

    real = hmod.run_case
    calls = {"k": 0}

    def flaky(case, h, tau, **kw):
        calls["k"] += 1
        if calls["k"] == 1:
            raise RuntimeError("injected row failure")
        return real(case, h, tau, **kw)

    monkeypatch.setattr(hmod, "run_case", flaky)
    spec = StudySpec(case="square2d", mode="space", params=[1 / 2, 1 / 4],
                     tau=1 / 8, T=0.25)
    records = hmod.run_study(spec)
    assert records[0].failed and "injected" in records[0].message
    assert not records[1].failed
    assert math.isnan(records[1].order_rho)  # no order across a failed row
    table = records_to_table(records)
    assert "failed" in table


def test_failed_row_message_keeps_the_solver_error(monkeypatch):
    """A density GMRES failure on a row's second step reaches the row's
    message as the solver's own type, naming the phase and the step."""
    import vardens.harness as hmod

    solve = linalg.solve_gmres
    density_calls = []

    def failing(A, b, *, restart, **kwargs):
        if restart == DENSITY_RESTART:
            density_calls.append(1)
            if len(density_calls) == 2:
                raise linalg.ResidualError("gmres: injected")
        return solve(A, b, restart=restart, **kwargs)

    monkeypatch.setattr(linalg, "solve_gmres", failing)
    spec = StudySpec(case="square2d", mode="space", params=[1 / 4],
                     tau=1 / 8, T=0.25)
    [rec] = hmod.run_study(spec)
    assert rec.failed
    assert rec.message.startswith(
        "ResidualError: density solve at step 2: gmres: injected")


def test_study_row_frees_its_stepper_before_the_next_row(monkeypatch):
    """A row's result holds no stepper, so when the next row builds its
    stepper no earlier row's is alive, nor its factors and tables."""
    import vardens.harness as hmod

    init = hmod.TimeStepper.__init__
    steppers, alive = [], []

    def tracked(self, *args, **kwargs):
        alive.append([ref() is not None for ref in steppers])
        init(self, *args, **kwargs)
        steppers.append(weakref.ref(self))

    monkeypatch.setattr(hmod.TimeStepper, "__init__", tracked)
    spec = StudySpec(case="square2d", mode="space", params=[1 / 2, 1 / 4],
                     tau=1 / 8, T=0.25)
    records = hmod.run_study(spec)
    assert not any(r.failed for r in records)
    assert alive == [[], [False]]


def test_failed_row_message_stays_in_one_csv_field():
    """A failure message with commas, as ``ConstraintConflictError`` writes
    it, is quoted: every row has the header's seven fields."""
    message = ("ConstraintConflictError: constraint is inconsistent with the "
               "equations (original residual 1.000e-03, multiplier 2.000e-01)")
    recs = [ConvergenceRecord(h=0.5, tau=0.1, E_rho=1e-3, E_u=2e-3,
                              seconds=0.1),
            ConvergenceRecord(h=0.25, tau=0.1, failed=True, message=message)]
    rows = list(csv.reader(io.StringIO(records_to_csv(recs))))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert rows[2][2] == "failed" and rows[2][6] == message


def test_csv_round_trip():
    recs = [ConvergenceRecord(h=0.5, tau=0.1, E_rho=1.25e-3, E_u=2.5e-3,
                              seconds=0.125),
            ConvergenceRecord(h=0.25, tau=0.1, E_rho=3.125e-4, E_u=6.25e-4,
                              order_rho=2.0, order_u=2.0, seconds=0.5),
            ConvergenceRecord(h=0.125, tau=0.1, failed=True,
                              message='ResidualError: "x", y')]
    back = records_from_csv(records_to_csv(recs))
    assert repr(back) == repr(recs)  # repr: nan orders compare equal
    assert records_from_csv("") == []
    with pytest.raises(ValueError, match="not a study CSV"):
        records_from_csv("n,t,energy\n1,2,3\n")
    with pytest.raises(ValueError, match="study CSV row with 2 fields"):
        records_from_csv(records_to_csv(recs) + "0.0625,0.1\n")


def _counting_run_case(monkeypatch):
    import vardens.harness as hmod

    real = hmod.run_case
    calls = []

    def counted(case, h, tau, **kw):
        calls.append((h, tau))
        return real(case, h, tau, **kw)

    monkeypatch.setattr(hmod, "run_case", counted)
    return calls


def _study(out, params):
    return cli.main([
        "study", "--case", "square2d", "--mode", "space", "--params", params,
        "--tau", "1/16", "--T", "0.25", "--out", str(out),
    ])


# the study of ``_study``, whatever its params
_SPEC = StudySpec(case="square2d", mode="space", params=[1 / 2], tau=1 / 16,
                  T=0.25)


def test_cli_study_resumes_from_its_out_file(monkeypatch, tmp_path):
    """Rows already in ``--out`` are read back, not run again, and the next
    row's orders are taken against the row read back; an empty ``--out``
    file holds no rows."""
    calls = _counting_run_case(monkeypatch)
    out = tmp_path / "study.csv"
    out.write_text("")
    assert _study(out, "1/2") == 0
    assert calls == [(0.5, 1 / 16)]
    first = out.read_text().splitlines()[2]
    assert _study(out, "1/2,1/4") == 0
    assert calls == [(0.5, 1 / 16), (0.25, 1 / 16)]
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and lines[2] == first
    a, b = study_records(_SPEC, out.read_text())
    assert f"{compute_order(a.E_rho, a.h, b.E_rho, b.h):.2f}" \
        == lines[3].split(",")[3]
    assert f"{compute_order(a.E_u, a.h, b.E_u, b.h):.2f}" \
        == lines[3].split(",")[5]
    assert _study(out, "1/2,1/4") == 0
    assert len(calls) == 2  # nothing left to run


def test_cli_study_reruns_failed_rows_of_its_out_file(monkeypatch, tmp_path):
    out = tmp_path / "study.csv"
    out.write_text(study_line(_SPEC) + records_to_csv([ConvergenceRecord(
        h=0.5, tau=1 / 16, failed=True, message="MemoryError: ")]))
    calls = _counting_run_case(monkeypatch)
    assert _study(out, "1/2") == 0
    assert calls == [(0.5, 1 / 16)]
    [rec] = study_records(_SPEC, out.read_text())
    assert not rec.failed


def test_cli_study_refuses_an_out_file_of_another_study(
        monkeypatch, tmp_path, capsys):
    """``--out`` names its study on its first line.  A file of another
    study, one that names no study, or one that is not a study CSV, is a
    usage error naming what differs: no row runs and the file is kept."""
    calls = _counting_run_case(monkeypatch)
    out = tmp_path / "study.csv"
    assert _study(out, "1/2") == 0
    text = out.read_text()
    assert text.splitlines()[0] == ("# study case=square2d mode=space "
                                    "tau=0.0625 T=0.25 mu=0.001 "
                                    "cutoff=widened")
    capsys.readouterr()
    other = ["study", "--case", "cube3d", "--mode", "space", "--params",
             "1/2", "--tau", "1/16", "--T", "0.25", "--mu", "1/10",
             "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(other)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "case square2d there, cube3d here" in err
    assert "mu 0.001 there, 0.1 here" in err and "tau" not in err
    assert out.read_text() == text
    for foreign in (text.partition("\n")[2],  # rows without their study
                    "n,t,energy\n1,2,3\n"):   # a diagnostics CSV
        out.write_text(foreign)
        with pytest.raises(SystemExit) as exc:
            _study(out, "1/2")
        assert exc.value.code == 2
        assert "not a study CSV" in capsys.readouterr().err
        assert out.read_text() == foreign
    assert calls == [(0.5, 1 / 16)]


def test_csv_reproducibility_excluding_walltime():
    spec = StudySpec(case="square2d", mode="space", params=[1 / 2, 1 / 4],
                     tau=1 / 16, T=0.25)
    rows = []
    for _ in range(2):
        recs = run_study(spec)
        rows.append([
            ln.rsplit(",", 1)[0] for ln in records_to_csv(recs).splitlines()
        ])
    assert rows[0] == rows[1]  # identical apart from the seconds column


def test_run_case_trace(tmp_path):
    """The trace holds one JSON line per step: the step's record with that
    step's errors, whose maxima are the run's."""
    for name, h in (("square2d", 1 / 4), ("cube3d", 1 / 2)):
        out = tmp_path / f"{name}.jsonl"
        with open(out, "w") as fh:
            result = run_case(make_case(name), h, 1 / 16, T=0.25, mu=0.001,
                              cutoff_mode="widened", trace=fh)
        assert set(result) == {"E_rho", "E_u", "seconds", "records"}
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(lines) == 4
        for line, record in zip(lines, result["records"]):
            assert {k: v for k, v in line.items()
                    if k not in ("E_rho", "E_u")} == record
        assert [r["n"] for r in lines] == [1, 2, 3, 4]
        assert lines[0]["t"] == pytest.approx(1 / 16)
        assert max(r["E_rho"] for r in lines) == result["E_rho"]
        assert max(r["E_u"] for r in lines) == result["E_u"]


def test_markdown_table_shape():
    recs = [ConvergenceRecord(h=0.5, tau=0.1, E_rho=1e-3, E_u=2e-3,
                              seconds=0.1)]
    md = records_to_table(recs)
    assert md.startswith("| h")
    assert md.count("|", 0, md.index("\n")) == 8


def test_cli_run_and_study(tmp_path):
    trace = tmp_path / "run.jsonl"
    rc = cli.main([
        "run", "--case", "square2d", "--h", "1/2", "--tau", "1/16",
        "--T", "0.25", "--trace", str(trace),
    ])
    assert rc == 0
    lines = [json.loads(ln) for ln in trace.read_text().splitlines()]
    assert [r["n"] for r in lines] == [1, 2, 3, 4]
    assert lines[0]["t"] == pytest.approx(1 / 16)
    for bad in (["--h", "8"], ["--h", "0"], ["--h", "1/0"],
                ["--h", "1/2", "--mu", "nan"], ["--h", "1/2", "--T", "-1"]):
        with pytest.raises(SystemExit) as exc:  # argparse's usage error
            cli.main(["run", "--case", "square2d", "--tau", "1/16", *bad])
        assert exc.value.code == 2
    for params in ("1/4,1/0", ",", "1/4,1/2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["study", "--case", "square2d", "--mode", "space",
                      "--params", params])
        assert exc.value.code == 2

    out = tmp_path / "study.csv"
    rc = cli.main([
        "study", "--case", "square2d", "--mode", "space",
        "--params", "1/2,1/4", "--tau", "1/16", "--T", "0.25",
        "--out", str(out),
    ])
    assert rc == 0
    study, *lines = out.read_text().strip().splitlines()
    assert study.startswith("# study case=square2d mode=space ")
    assert lines[0] == "h,tau,E_rho,order_rho,E_u,order_u,seconds"
    assert len(lines) == 3


def test_cli_output_in_a_missing_directory_is_a_usage_error(
        monkeypatch, capsys, tmp_path):
    """An ``--out`` or ``--trace`` path whose directory does not exist, or
    that is a directory, is bad usage, reported before anything runs."""
    import vardens.harness as hmod

    def never(*args, **kwargs):
        raise AssertionError("run_case called")

    monkeypatch.setattr(hmod, "run_case", never)
    monkeypatch.setattr(cli, "run_case", never)
    missing = tmp_path / "nodir" / "t.csv"
    for argv in (["study", "--case", "square2d", "--mode", "space",
                  "--params", "1/2,1/4", "--tau", "1/16", "--out"],
                 ["run", "--case", "square2d", "--h", "1/2", "--tau", "1/16",
                  "--trace"]):
        for path in (missing, tmp_path):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, str(path)])
            assert exc.value.code == 2
            assert str(path) in capsys.readouterr().err
    assert not missing.parent.exists()


def test_cli_study_prints_the_markdown_table(capsys):
    rc = cli.main([
        "study", "--case", "square2d", "--mode", "space",
        "--params", "1/2,1/4", "--tau", "1/16", "--T", "0.25",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    header, rule, *rows = out.strip().splitlines()
    assert header.startswith("| h ") and header.endswith(" |")
    assert set(rule) == {"|", "-"}
    assert len(rows) == 2 and all(r.startswith("| ") for r in rows)


def test_cli_study_keeps_finished_rows_when_killed(monkeypatch, tmp_path):
    import vardens.harness as hmod

    real = hmod.run_case
    calls = {"k": 0}

    def interrupted(case, h, tau, **kw):
        calls["k"] += 1
        if calls["k"] == 2:
            raise KeyboardInterrupt
        return real(case, h, tau, **kw)

    monkeypatch.setattr(hmod, "run_case", interrupted)
    out = tmp_path / "study.csv"
    with pytest.raises(KeyboardInterrupt):
        cli.main([
            "study", "--case", "square2d", "--mode", "space",
            "--params", "1/2,1/4", "--tau", "1/16", "--T", "0.25",
            "--out", str(out),
        ])
    study, *lines = out.read_text().strip().splitlines()
    assert study.startswith("# study ")
    assert lines[0] == "h,tau,E_rho,order_rho,E_u,order_u,seconds"
    assert len(lines) == 2 and lines[1].startswith("0.5,0.0625,")


def test_study_orders_are_set_as_rows_finish():
    seen = []
    spec = StudySpec(case="square2d", mode="space", params=[1 / 2, 1 / 4],
                     tau=1 / 16, T=0.25)
    records = run_study(spec, progress=lambda r: seen.append(
        (r.order_rho, r.order_u)))
    assert math.isnan(seen[0][0]) and math.isnan(seen[0][1])
    assert seen[1] == (records[1].order_rho, records[1].order_u)
    assert not math.isnan(seen[1][0])


def test_cli_reports_failure_exit_code(monkeypatch):
    import vardens.harness as hmod

    def always_fail(case, h, tau, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(hmod, "run_case", always_fail)
    rc = cli.main([
        "study", "--case", "square2d", "--mode", "space",
        "--params", "1/2", "--tau", "1/16", "--T", "0.25",
    ])
    assert rc == 2


def test_cli_entry_point_installed():
    result = subprocess.run(
        [sys.executable, "-m", "vardens.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "study" in result.stdout


def test_run_case_seconds_include_setup(monkeypatch):
    import time

    import vardens.harness as hmod

    real = hmod.build_mesh

    def slow_build_mesh(case, h):
        time.sleep(0.2)
        return real(case, h)

    monkeypatch.setattr(hmod, "build_mesh", slow_build_mesh)
    out = run_case(make_case("square2d"), 1 / 2, 1 / 8, T=1 / 8, mu=0.001,
                   cutoff_mode="widened")
    assert out["seconds"] >= 0.2
