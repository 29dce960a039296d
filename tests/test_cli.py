import csv
import fcntl
import io
import itertools
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfswipt
from mfswipt import SolverOptions, SolveStatus, bundled_scenario_path, sum_rate
from mfswipt.benchmarks import SchemeId, run_scheme
from mfswipt.cli import (
    CSV_COLUMNS,
    EXIT_BAD_INPUT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNEXPECTED,
    _error_grid_text,
    _fmt,
    build_parser,
    main,
)

BUNDLED = str(bundled_scenario_path())


def cli_command(*argv):
    """A fresh interpreter running `mfswipt <argv>`, Python warnings off."""
    src = str(Path(mfswipt.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); from mfswipt.cli import main; "
    code += "sys.exit(main(sys.argv[2:]))"
    return [sys.executable, "-W", "ignore", "-c", code, src, *argv]


def no_work(*args, **kwargs):
    pytest.fail("the computation ran before the output path was checked")


def assert_unwritable(tmp_path, capsys, argv, path):
    """The command exits 4 naming `path` as unwritable and writes nothing."""
    assert main(argv) == EXIT_BAD_INPUT
    assert f"cannot write {path}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def edited_bundled(tmp_path, edit):
    """Path of the bundled scenario, edited as a parsed document and written back."""
    path = tmp_path / "edited.scenario"
    path.write_text(yaml.safe_dump(edit(yaml.safe_load(bundled_scenario_path().read_text()))))
    return str(path)


def read_table(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return comments, header, rows


class TestCheck:
    def test_bundled_scenario_validates(self, capsys):
        assert main(["check", BUNDLED]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=256" in out and "hash=" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.scenario"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "old, new", [("P0_dBm: 30.0", "P0_dBm: yes"), ("R_bpshz: 5.0", "R_bpshz: true")]
    )
    def test_boolean_number_rejected(self, tmp_path, capsys, old, new):
        # the bundled scenario with a YAML boolean for a number is refused,
        # not read as 1 dBm or 1 bps/Hz
        bad = tmp_path / "bad.scenario"
        bad.write_text(bundled_scenario_path().read_text().replace(old, new))
        assert main(["check", str(bad)]) == EXIT_BAD_INPUT
        assert old.split(":")[0] in capsys.readouterr().err

    def test_invalid_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("array: {n_antennas: 64, f_GHz: 30.0}\nbogus_key: 1\n")
        assert main(["check", str(bad)]) == EXIT_BAD_INPUT
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["barrier_mu", "fp_tolerance", "max_fp_iters", "feasibility_tolerance"]
    )
    def test_unknown_solver_option(self, tmp_path, capsys, key):
        # check rejects the solver block exactly as solve does; the solver
        # accepts only convergence_threshold and max_outer_iters
        bad = tmp_path / "bad.scenario"
        bad.write_text(bundled_scenario_path().read_text() + f"  {key}: 20.0\n")
        assert main(["check", str(bad)]) == EXIT_BAD_INPUT
        assert key in capsys.readouterr().err
        assert main(["solve", str(bad)]) == EXIT_BAD_INPUT

    def test_every_command_refuses_the_solver_block(self, tmp_path, capsys):
        # each subcommand reads the scenario and its solver block once, before
        # any work, so `correlate` refuses the block as the others do
        bad = tmp_path / "bad.scenario"
        text = bundled_scenario_path().read_text()
        bad.write_text(text.replace("solver:\n  convergence_threshold: 0.001", "solver: {bogus: 1}"))
        commands = [
            ["check", str(bad)],
            ["solve", str(bad), "--output", str(tmp_path / "row.csv")],
            ["sweep", str(bad), "--variable", "R", "--grid", "2"],
            ["correlate", str(bad), "--output-prefix", str(tmp_path / "corr")],
        ]
        for argv in commands:
            assert main(argv) == EXIT_BAD_INPUT, argv[0]
            got = capsys.readouterr()
            assert got.out == "" and "unexpected keyword argument 'bogus'" in got.err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "line",
        [
            "max_outer_iters: 0",
            "max_outer_iters: -1",
            "max_outer_iters: 2.5",
            "convergence_threshold: .nan",
        ],
        ids=["iters_zero", "iters_negative", "iters_fraction", "threshold_nan"],
    )
    def test_bad_solver_value(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.scenario"
        text = bundled_scenario_path().read_text()
        bad.write_text(text.replace("convergence_threshold: 0.001", line))
        assert main(["check", str(bad)]) == EXIT_BAD_INPUT
        assert line.split(":")[0] in capsys.readouterr().err
        assert main(["solve", str(bad)]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: {k: v for k, v in doc.items() if k != "power"},
                "missing key 'power' in scenario",
            ),
            (lambda doc: {**doc, "array": {**doc["array"], "spacing_m": 0.005}}, "not both"),
            (lambda doc: [doc], "top level must be a mapping"),
            (
                lambda doc: {**doc, "eh_receivers": doc["eh_receivers"][0]},
                "eh_receivers and id_receivers must be lists",
            ),
            (lambda doc: {**doc, "eh_model": {"zeta": 0.0}}, "must lie in (0, 1]"),
            (lambda doc: {**doc, "eh_model": {"zeta": 1.5}}, "must lie in (0, 1]"),
        ],
        ids=[
            "missing_key",
            "two_spacings",
            "top_level_list",
            "receivers_mapping",
            "zeta_zero",
            "zeta_above_one",
        ],
    )
    def test_malformed_scenario_refused(self, tmp_path, capsys, edit, message):
        # the bundled scenario, edited as a parsed document and written back
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(edit(yaml.safe_load(bundled_scenario_path().read_text()))))
        assert main(["check", str(bad)]) == EXIT_BAD_INPUT
        assert message in capsys.readouterr().err

    def test_nonlinear_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        text = bundled_scenario_path().read_text()
        nonlinear = "\n  nonlinear: {kappa: 0.02, varpi: 0.001, varrho: 150.0}"
        bad.write_text(text.replace("  zeta: 0.5", "  zeta: 0.5" + nonlinear))
        assert main(["check", str(bad)]) == EXIT_BAD_INPUT
        assert "nonlinear" in capsys.readouterr().err
        assert main(["solve", str(bad)]) == EXIT_BAD_INPUT
        sweep = ["sweep", str(bad), "--variable", "R", "--grid", "2"]
        assert main(sweep) == EXIT_BAD_INPUT


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["solve", BUNDLED, "--scheme", "bogus"],
            ["solve", BUNDLED, "--bogus"],
            ["sweep", BUNDLED, "--variable", "R", "--grid", "2", "--seed", "x"],
            ["sweep", BUNDLED, "--variable", "R", "--grid", "2", "--draws", "2"],
        ],
        ids=["no_command", "unknown_scheme", "unknown_flag", "bad_seed", "draws_flag"],
    )
    def test_usage_error_is_bad_input(self, capsys, argv):
        assert main(argv) == EXIT_BAD_INPUT
        assert "usage: mfswipt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text",
        [(["--help"], "usage: mfswipt"), (["--version"], "mfswipt 0.1.0")],
        ids=["help", "version"],
    )
    def test_help_and_version_exit_ok(self, capsys, argv, text):
        assert main(argv) == EXIT_OK
        assert text in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["basic_format", "bogus", "Info"])
    def test_log_level_must_be_a_level_name(self, value):
        # `basic_format` names a `logging` attribute that is no level, `bogus`
        # nothing; either warns once and runs at WARNING, as unset would
        env = {**os.environ, "MFSWIPT_LOG": value}
        proc = subprocess.run(
            cli_command("check", BUNDLED), env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == EXIT_OK
        assert "hash=" in proc.stdout
        warning = f"warning: MFSWIPT_LOG={value} is not a logging level; using WARNING\n"
        assert proc.stderr == ("" if value == "Info" else warning)

    @pytest.mark.parametrize("levels", [("warning", "debug"), ("debug", "warning")])
    def test_log_level_applies_on_every_call(self, levels):
        # two `main` calls in one process, each under its own MFSWIPT_LOG: the
        # second call logs at its level, not at the first one's
        src = str(Path(mfswipt.__file__).resolve().parents[1])
        code = (
            "import os, sys; sys.path.insert(0, sys.argv[1]); from mfswipt.cli import main\n"
            "for level in sys.argv[3:]:\n"
            "    os.environ['MFSWIPT_LOG'] = level\n"
            "    main(['solve', sys.argv[2]])\n"
            "    print('end of call', file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code, src, BUNDLED, *levels],
            capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        calls = proc.stderr.split("end of call\n")
        assert len(calls) == 3 and calls[2] == ""
        for level, err in zip(levels, calls):
            rounds = [ln for ln in err.splitlines() if ln.startswith("DEBUG:mfswipt.solvers:round")]
            assert bool(rounds) == (level == "debug"), (level, err)


def without_wall_times(text):
    """A sweep CSV with its wall_ms cells left out."""
    column = CSV_COLUMNS.index("wall_ms")
    return [line.split(",")[:column] + line.split(",")[column + 1 :] for line in text.splitlines()]


def test_one_parser_per_process_parses_as_fresh(capsys, monkeypatch):
    # the parser is built on the first call and reused; every call still
    # exits, prints and writes as it does in a fresh interpreter, so no call
    # leaves a flag value, a default or an error behind for the next one
    monkeypatch.delenv("MFSWIPT_LOG", raising=False)
    env = {k: v for k, v in os.environ.items() if k != "MFSWIPT_LOG"}
    sweep = ["sweep", BUNDLED, "--variable", "R", "--grid", "3", "--schemes", "as_epa,gs_opa"]
    calls = [
        (sweep + ["--timing"], EXIT_OK),
        (["solve", BUNDLED, "--scheme", "as_epa"], EXIT_OK),
        (sweep, EXIT_OK),
        (["sweep", BUNDLED, "--variable", "R"], EXIT_BAD_INPUT),  # --grid missing
        (["check", BUNDLED], EXIT_OK),
        (["--version"], EXIT_OK),
    ]
    for argv, code in calls:
        assert main(argv) == code
        got = capsys.readouterr()
        fresh = subprocess.run(
            cli_command(*argv), env=env, capture_output=True, text=True, timeout=120
        )
        assert (fresh.returncode, fresh.stderr) == (code, got.err)
        if "--timing" in argv:  # wall times differ from run to run
            rows = list(csv.DictReader(io.StringIO(got.out), CSV_COLUMNS))[2:]
            assert len(rows) == 2 and all(float(r["wall_ms"]) >= 0.0 for r in rows)
            assert without_wall_times(got.out) == without_wall_times(fresh.stdout)
        else:
            assert got.out == fresh.stdout
    assert build_parser() is build_parser()


class TestSolve:
    def test_proposed_on_bundled(self, tmp_path):
        out = tmp_path / "row.csv"
        assert main(["solve", BUNDLED, "--scheme", "proposed", "--output", str(out)]) == EXIT_OK
        comments, header, rows = read_table(out)
        assert comments and "scenario_sha256=" in comments[0]
        row = next(r for r in rows if not r["sweep_var"].startswith("#"))
        assert row["status"] == "Optimal"
        assert float(row["sum_rate_bpshz"]) >= 5.0 - 1e-5
        assert row["scheduled_mask"]
        text = out.read_text()
        assert "# allocation_W:" in text
        alloc = [float(v) for v in text.rsplit("allocation_W:", 1)[1].split()]
        assert len(alloc) == 5 and sum(alloc) <= 1.0 + 1e-7

    @pytest.mark.parametrize("scheme", [s.value for s in SchemeId])
    def test_row_sum_rate_is_the_reports(self, tmp_path, reference_setup, scheme):
        # the report's sum-rate is that of its allocation, and the row prints it
        _, scn, mats = reference_setup
        report = run_scheme(SchemeId(scheme), mats, scn, SolverOptions(**scn.solver_overrides))
        assert report.status is SolveStatus.OPTIMAL
        rate = report.residuals["sum_rate"]
        assert float(rate).hex() == float(sum_rate(mats, scn.sigma2, report.allocation)).hex()
        out = tmp_path / "row.csv"
        assert main(["solve", BUNDLED, "--scheme", scheme, "--output", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        assert rows[0]["sum_rate_bpshz"] == f"{rate:.12g}"

    @pytest.mark.parametrize("name", ["nodir/row.csv", "."], ids=["missing_dir", "is_dir"])
    def test_unwritable_output(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr("mfswipt.cli.run_scheme", no_work)
        out = tmp_path / name
        assert_unwritable(tmp_path, capsys, ["solve", BUNDLED, "--output", str(out)], out)

    def test_equal_split_infeasible_floor(self, tmp_path):
        scenario = tmp_path / "hard.scenario"
        scenario.write_text(
            bundled_scenario_path().read_text().replace("R_bpshz: 5.0", "R_bpshz: 9.0")
        )
        out = tmp_path / "row.csv"
        code = main(["solve", str(scenario), "--scheme", "as_epa", "--output", str(out)])
        assert code == EXIT_INFEASIBLE
        _, _, rows = read_table(out)
        assert rows[0]["status"] == "Infeasible"
        assert rows[0]["objective_W"] == ""

    def test_infeasible_floor_states_max_rate(self, tmp_path, capsys):
        # at the bundled 30 dBm no allocation reaches 15 bps/Hz: the CSV keeps
        # the plain Infeasible row, and stderr states the attainable maximum
        scenario = tmp_path / "r15.scenario"
        scenario.write_text(
            bundled_scenario_path().read_text().replace("R_bpshz: 5.0", "R_bpshz: 15.0")
        )
        csv_text = (
            "# mfswipt v0.1.0 scenario_sha256=4974c9f4255d9ecb\n"
            "sweep_var,sweep_value,scheme,objective_W,objective_dBm,sum_rate_bpshz,"
            "scheduled_mask,iterations,status,wall_ms,seed\n"
            "none,,proposed,,,,,0,Infeasible,,0\n"
            "# allocation_W: " + " ".join(["0.000000000e+00"] * 5) + "\n"
        )
        out = tmp_path / "row.csv"
        assert main(["solve", str(scenario), "--output", str(out)]) == EXIT_INFEASIBLE
        assert out.read_text() == csv_text
        assert main(["solve", str(scenario)]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == csv_text
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("infeasible:")]
        assert len(lines) == 2 and lines[0] == lines[1]
        match = re.fullmatch(
            r"infeasible: maximum sum-rate r\* = (\S+) bps/Hz below R = 15 bps/Hz", lines[0]
        )
        assert match and float(match[1]) == pytest.approx(11.537, abs=1e-3)
        # no schedule reaches the floor either: `exhaustive` keeps the full
        # schedule's r* and prints the same line, with its own plain row
        assert main(["solve", str(scenario), "--scheme", "exhaustive"]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == csv_text.replace(",proposed,", ",exhaustive,")
        assert captured.err == lines[0] + "\n"

    def test_greedy_pairing_states_max_rate(self, tmp_path, capsys):
        # gs_opa keeps one decoder, the one of highest gain, whose rate alone
        # at the whole budget is log2(1 + g P0 / sigma2) = 7.13 bps/Hz
        scenario = tmp_path / "r15.scenario"
        scenario.write_text(
            bundled_scenario_path().read_text().replace("R_bpshz: 5.0", "R_bpshz: 15.0")
        )
        assert main(["solve", str(scenario), "--scheme", "gs_opa"]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert "none,,gs_opa,,,,,0,Infeasible,,0\n" in captured.out
        assert captured.err == (
            "infeasible: maximum sum-rate r* = 7.13035859078 bps/Hz below R = 15 bps/Hz\n"
        )

    def test_exhaustive_logs_every_schedule(self, tmp_path, caplog):
        out = tmp_path / "row.csv"
        with caplog.at_level(logging.DEBUG, logger="mfswipt.solvers"):
            assert (
                main(["solve", BUNDLED, "--scheme", "exhaustive", "--output", str(out)])
                == EXIT_OK
            )
        logged = [rec for rec in caplog.records if rec.message.startswith("schedule ")]
        assert len(logged) == 32  # 2^5 schedules examined (solved, skipped or pruned)
        assert any(" -> pruned " in rec.message for rec in logged)

    def test_wall_time_flag(self, tmp_path):
        out = tmp_path / "row.csv"
        assert main(["solve", BUNDLED, "--scheme", "as_epa", "--output", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        assert rows[0]["wall_ms"] == ""
        assert (
            main(["solve", BUNDLED, "--scheme", "as_epa", "--output", str(out), "--timing"])
            == EXIT_OK
        )
        _, _, rows = read_table(out)
        assert rows[0]["wall_ms"] != ""


class TestSweep:
    def test_budget_sweep_cardinality(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                BUNDLED,
                "--variable",
                "P0_dBm",
                "--grid",
                "20,24,28",
                "--schemes",
                "proposed,as_epa",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        comments, header, rows = read_table(out)
        assert header[0] == "sweep_var" and header[-1] == "seed"
        assert len(rows) == 6

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep",
            BUNDLED,
            "--variable",
            "R",
            "--grid",
            "2,4",
            "--schemes",
            "proposed,gs_opa",
            "--seed",
            "3",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == EXIT_OK
        assert main(args + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_rows_infeasible_exit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                BUNDLED,
                "--variable",
                "R",
                "--grid",
                "14,15",
                "--schemes",
                "proposed",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_INFEASIBLE

    def test_error_rows_set_exit_code(self, tmp_path, capsys):
        # the bundled scenario has 3 harvesters, so both grid points fail to build
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                BUNDLED,
                "--variable",
                "K",
                "--grid",
                "1,2",
                "--schemes",
                "proposed,as_epa",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_UNEXPECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "4 of 4 rows" in err[0] and "K grid value 1 below the base count 3" in err[0]
        _, _, rows = read_table(out)
        assert [r["status"].split(":")[0] for r in rows] == ["Error"] * 4

    def test_decoder_count_below_the_base_fails_every_row(self, tmp_path, capsys):
        # the bundled scenario has 2 decoders
        out = tmp_path / "sweep.csv"
        argv = ["sweep", BUNDLED, "--variable", "M", "--grid", "1", "--output", str(out)]
        assert main(argv) == EXIT_UNEXPECTED
        assert "M grid value 1 below the base count 2" in capsys.readouterr().err

    def test_added_decoders_need_a_noise_reference(self, tmp_path, capsys):
        # a decoder-free scenario holds no noise power for an added decoder to take
        def drop_decoders(doc):
            doc.pop("id_receivers")
            return {**doc, "constraints": {"R_bpshz": 0.0}}

        scenario = edited_bundled(tmp_path, drop_decoders)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", scenario, "--variable", "M", "--grid", "1", "--output", str(out)]
        assert main(argv) == EXIT_UNEXPECTED
        err = capsys.readouterr().err
        assert "cannot add decoders to a scenario without a noise reference" in err

    def test_drawn_angle_outside_the_spatial_range_writes_nothing(self, tmp_path, capsys):
        # 2 d / lambda = 1.8 at 0.009 m and 30 GHz, so a drawn harvester whose
        # departure angle lies far from broadside maps outside [-1, 1]
        def wide_spacing(doc):
            doc["array"].pop("spacing")
            doc["array"]["spacing_m"] = 0.009
            return doc

        scenario = edited_bundled(tmp_path, wide_spacing)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", scenario, "--variable", "K", "--grid", "12", "--seed", "0"]
        assert main(argv + ["--output", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert re.search(r"spacing 0\.009 maps phi=\S+ outside the spatial-angle range", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--variable", "R", "--grid", "5,nan,1"], "must be finite"),
            (["--variable", "P0_dBm", "--grid", "inf"], "must be finite"),
            (["--variable", "P0_dBm", "--grid", "20", "--seed", "-1"], "seed must be >= 0"),
            (["--variable", "K", "--grid", "4", "--seed", "-1"], "seed must be >= 0"),
        ],
        ids=["R_nan", "P0_inf", "P0_seed", "K_seed"],
    )
    def test_refused_grid_or_seed_writes_nothing(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr("mfswipt.benchmarks.run_scheme", no_work)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", BUNDLED, *flags, "--output", str(out)]) == EXIT_BAD_INPUT
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("variable, grid", [("K", "3.5,4.9"), ("M", "2,2.5")])
    def test_fractional_receiver_count_refused(
        self, tmp_path, capsys, monkeypatch, variable, grid
    ):
        # a K or M value that is not a whole number is refused, not truncated
        monkeypatch.setattr("mfswipt.benchmarks.run_scheme", no_work)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", BUNDLED, "--variable", variable, "--grid", grid, "--output", str(out)]
        assert main(argv) == EXIT_BAD_INPUT
        assert "whole numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_output_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mfswipt.benchmarks.run_scheme", no_work)
        out = tmp_path / "nodir" / "sweep.csv"
        argv = ["sweep", BUNDLED, "--variable", "R", "--grid", "2", "--output", str(out)]
        assert_unwritable(tmp_path, capsys, argv, out)

    def test_closed_pipe_is_not_a_failure(self):
        # a reader that stops early (`mfswipt sweep ... | head -1`): the rows do
        # not fit the pipe, shrunk to one page, and the 8 KiB write buffer, so
        # the child writes into a closed pipe; every row is Optimal at R = 0,
        # so the sweep's own exit code is 0
        grid = ",".join(["0"] * 400)
        argv = ["sweep", BUNDLED, "--variable", "R", "--grid", grid, "--schemes", "as_epa"]
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            cli_command(*argv),
            stdout=write_fd,
            stderr=subprocess.PIPE,
        )
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as reader:
            assert reader.readline().startswith(b"# mfswipt v")
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == EXIT_OK

    def test_closed_pipe_before_a_small_output(self):
        # the reader is gone before the child writes; the child's stdout is
        # block-buffered, as by default, so the one line of `check` waits in
        # the buffer until `main`'s final flush, which meets the closed pipe
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        proc = subprocess.Popen(
            cli_command("check", BUNDLED), stdout=write_fd, stderr=subprocess.PIPE, env=env
        )
        os.close(write_fd)
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == EXIT_OK

    @pytest.mark.parametrize("command", ["check", "correlate"])
    def test_closed_pipe_with_unbuffered_stdout(self, tmp_path, command):
        # the reader is gone before the child writes and stdout is unbuffered,
        # so the last line of `check` or `correlate` meets the closed pipe in
        # the command itself, not in `main`'s final flush
        argv = [command, BUNDLED]
        if command == "correlate":
            argv += ["--output-prefix", str(tmp_path / "corr"), "--grid-points", "4"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        proc = subprocess.Popen(cli_command(*argv), stdout=write_fd, stderr=subprocess.PIPE, env=env)
        os.close(write_fd)
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == EXIT_OK


class TestCorrelate:
    def test_output_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mfswipt.cli.correlation_grid", no_work)
        prefix = tmp_path / "nodir" / "corr"
        argv = ["correlate", BUNDLED, "--output-prefix", str(prefix), "--grid-points", "4"]
        assert_unwritable(tmp_path, capsys, argv, f"{prefix}_matrices.csv")

    def test_error_grid_path_is_a_directory(self, tmp_path, capsys, monkeypatch):
        # both output paths are checked before any work, so the matrices file
        # is not left behind
        monkeypatch.setattr("mfswipt.cli.correlation_grid", no_work)
        prefix = tmp_path / "corr"
        grid = tmp_path / "corr_error_grid.csv"
        grid.mkdir()
        argv = ["correlate", BUNDLED, "--output-prefix", str(prefix), "--grid-points", "4"]
        assert main(argv) == EXIT_BAD_INPUT
        assert f"cannot write {grid}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [grid]

    def test_writes_matrices_and_error_grid(self, tmp_path):
        prefix = tmp_path / "corr"
        code = main(
            ["correlate", BUNDLED, "--output-prefix", str(prefix), "--grid-points", "6"]
        )
        assert code == EXIT_OK
        matrices = (tmp_path / "corr_matrices.csv").read_text().splitlines()
        assert matrices[0] == "matrix,row,col,value"
        assert len(matrices) == 1 + 2 * 5 * 5
        grid = (tmp_path / "corr_error_grid.csv").read_text().splitlines()
        assert grid[0] == "theta,r_m,exact,approx,abs_err"
        assert len(grid) == 1 + 36
        worst = max(float(ln.split(",")[-1]) for ln in grid[1:] if ln.split(",")[-1])
        assert worst <= 0.05

    def test_error_grid_rows_with_nan_keep_empty_cells(self):
        # a degenerate point leaves `approx` NaN; a NaN `exact` takes the same
        # path, and csv.writer with _fmt is the reference for both
        thetas, radii = np.array([-0.25, 0.5]), np.array([7.5, 1.0 / 3.0])
        exact = np.array([[0.125, 0.75], [math.nan, 1.0]])
        approx = np.array([[math.nan, 0.5], [0.5, math.nan]])
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["theta", "r_m", "exact", "approx", "abs_err"])
        for i, j in itertools.product(range(2), range(2)):
            e, a = float(exact[i, j]), float(approx[i, j])
            point = [_fmt(float(thetas[i])), _fmt(float(radii[j]))]
            writer.writerow(point + [_fmt(e), _fmt(a), _fmt(abs(e - a))])
        got = _error_grid_text(thetas, radii, exact, approx)
        assert got == want.getvalue()
        assert got.splitlines()[1:] == [
            "-0.25,7.5,0.125,,",
            "-0.25,0.333333333333,0.75,0.5,0.25",
            "0.5,7.5,,0.5,",
            "0.5,0.333333333333,1,,",
        ]

    def _grid(self, tmp_path, name, *flags):
        prefix = tmp_path / name
        argv = ["correlate", BUNDLED, "--output-prefix", str(prefix), "--grid-points", "4"]
        assert main(argv + list(flags)) == EXIT_OK
        return (tmp_path / f"{name}_error_grid.csv").read_bytes()

    def test_ref_r_over_z_alone_moves_reference(self, tmp_path):
        # the default reference is harvester 0 at theta = 0.0; the distance
        # flag replaces only the distance
        alone = self._grid(tmp_path, "alone", "--ref-r-over-z", "0.2")
        assert alone != self._grid(tmp_path, "default")
        assert alone == self._grid(tmp_path, "both", "--ref-theta", "0.0", "--ref-r-over-z", "0.2")

    def test_reference_without_harvesters(self, tmp_path):
        # with no harvester to sit on, the reference is theta = 0 at 0.05 Z
        scenario = edited_bundled(
            tmp_path, lambda doc: {k: v for k, v in doc.items() if k != "eh_receivers"}
        )

        def grid(name, *flags):
            prefix = tmp_path / name
            argv = ["correlate", scenario, "--output-prefix", str(prefix), "--grid-points", "7"]
            assert main(argv + list(flags)) == EXIT_OK
            return (tmp_path / f"{name}_error_grid.csv").read_bytes()

        assert grid("default") == grid("explicit", "--ref-theta", "0", "--ref-r-over-z", "0.05")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ref-theta", "0.1", "--ref-r-over-z", "0"], "distance must be > 0"),
            (["--ref-r-over-z", "-0.1"], "distance must be > 0"),
            (["--ref-r-over-z", "nan"], "distance must be > 0"),
            (["--ref-r-over-z", "1e160"], "distance must have a finite square"),
            (["--grid-points", "0"], "--grid-points"),
            (["--grid-points", "-3"], "--grid-points"),
        ],
        ids=["r_zero", "r_negative", "r_nan", "r_square_inf", "points_zero", "points_negative"],
    )
    def test_rejected_input_writes_nothing(self, tmp_path, capsys, flags, message):
        prefix = tmp_path / "corr"
        argv = ["correlate", BUNDLED, "--output-prefix", str(prefix), "--grid-points", "4"]
        assert main(argv + flags) == EXIT_BAD_INPUT
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
