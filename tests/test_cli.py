"""Command-line surface: parsing, config files, exit codes, outputs."""

import dataclasses
import json

import pytest

from bistlab import cli, netlist
from bistlab.cli import main, read_config_file
from bistlab.netlist import parse_bench
from bistlab.scheduler import CampaignConfig, run_campaign

AND2 = """\
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
"""

# One redundant fault whose proof needs backtracks, so the backtrack
# budget, collapsing and a vector file each change the campaign.
RECONVERGENT = """\
INPUT(a)
INPUT(b)
OUTPUT(z)
na = NOT(a)
p = AND(a, b)
q = AND(na, b)
z = OR(p, q)
"""


def run_cli(*argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors surface this way
        code = exc.code
    return 0 if code is None else code


# ---------------------------------------------------------------- happy path

def test_inspect(capsys):
    assert run_cli("inspect", "--bench", "s27") == 0
    out = capsys.readouterr().out
    assert "4 PI" in out
    assert "scan length 7" in out
    assert "logic depth" in out


def test_faults(capsys):
    assert run_cli("faults", "--bench", "c17") == 0
    out = capsys.readouterr().out
    assert "36 faults" in out
    assert "20 after equivalence collapsing" in out


def test_faults_export(tmp_path, capsys):
    target = tmp_path / "faults.txt"
    assert run_cli("faults", "--bench", "c17", "--collapsed",
                   "--export", str(target)) == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 20
    assert all(" SA" in line for line in lines)


def test_atpg(capsys):
    assert run_cli("atpg", "--bench", "c17") == 0
    out = capsys.readouterr().out
    assert "20/20 testable faults" in out


def test_atpg_export_round_trips(tmp_path):
    target = tmp_path / "pool.vec"
    assert run_cli("atpg", "--bench", "c17", "--export", str(target)) == 0
    lines = target.read_text().strip().splitlines()
    assert lines
    body = [line.split("#")[0].strip() for line in lines]
    assert all(set(v) <= {"0", "1"} and len(v) == 5 for v in body)


def test_campaign_stdout(capsys):
    assert run_cli("campaign", "--bench", "s27", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "terminated by target-reached" in out
    assert "# seed = 1" in out
    assert "circuit,ADV,PMDV" in out


def test_campaign_json_out(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run_cli("campaign", "--bench", "s27", "--format", "json",
                   "--out", str(target)) == 0
    doc = json.loads(target.read_text().split("\n#")[0] if
                     target.read_text().startswith("{") else target.read_text())
    assert doc["rows"][0]["circuit"] == "s27"
    assert doc["rows"][0]["pmtc"] > 0


def test_campaign_events_file(tmp_path):
    target = tmp_path / "events.csv"
    assert run_cli("campaign", "--bench", "s27", "--events", str(target)) == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("#")  # run header travels with the data
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "cycle,event,phase,new_detections,coverage"
    assert len(body) > 2


def test_campaign_signature_mode(capsys):
    assert run_cli("campaign", "--bench", "s27",
                   "--detection-mode", "signature") == 0
    out = capsys.readouterr().out
    assert "signature" in out


def test_sweep_serial(capsys):
    assert run_cli("sweep", "--bench", "s27",
                   "--th1-grid", "0.5,0.85", "--th2-ratio-grid", "0.5") == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()
            if line and not line.startswith("#")]
    assert rows[0].startswith("th1,th2_ratio,poly,seed")
    assert len(rows) == 3  # header + one row per grid cell
    assert all("target-reached" in r for r in rows[1:])


def test_sweep_parallel_matches_serial(capsys):
    args = ("sweep", "--bench", "s27", "--th1-grid", "0.5,0.85")
    assert run_cli(*args) == 0
    serial = capsys.readouterr().out
    assert run_cli(*args, "--jobs", "2") == 0
    parallel = capsys.readouterr().out
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(serial) == strip(parallel)


def test_verify_table1(capsys):
    assert run_cli("verify-table1") == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 6
    assert "mean imp_pw" in out


def test_verify_table1_names_missing_degrees(capsys):
    assert run_cli("verify-table1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all reference rows verified"
    assert lines[-2] == ("the shipped polynomial table has no degree 611 or"
                         " 700: s15850.1 (scan 611) and s13207.1 (scan 700)"
                         " need --poly")


@pytest.mark.parametrize("flags, cfg_text, cfg_kwargs", [
    (("--no-collapse",), "no_collapse = true\n", {"collapse": False}),
    (("--backtrack-budget", "0"), "backtrack_budget = 0\n",
     {"backtrack_budget": 0}),
    (("--vector-file", "{vec}"), "vector_file = {vec}\n",
     {"vector_file": "{vec}"}),
])
def test_sweep_honours_pool_flags(tmp_path, capsys, flags, cfg_text,
                                  cfg_kwargs):
    (tmp_path / "reconv.bench").write_text(RECONVERGENT)
    vec = tmp_path / "one.vec"
    vec.write_text("11\n")
    fill = lambda v: v.format(vec=vec) if isinstance(v, str) else v
    flags = [fill(f) for f in flags]
    cfg_kwargs = {k: fill(v) for k, v in cfg_kwargs.items()}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(fill(cfg_text))
    base = ["sweep", "--bench", "reconv", "--bench-dir", str(tmp_path)]

    def row(*argv):
        assert run_cli(*argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line and not line.startswith("#")]
        assert len(lines) == 2
        return dict(zip(lines[0].split(","), lines[1].split(",")))

    default = row(*base)
    flagged = row(*base, *flags)
    assert row("--config", str(cfg), *base) == flagged
    assert flagged != default  # the flag reached the grid cell
    result = run_campaign(parse_bench(RECONVERGENT, "reconv"),
                          CampaignConfig(seed=1, **cfg_kwargs))
    a = result.accounting
    assert (flagged["adv"], flagged["pmdv"], flagged["cycles"]) == \
        (str(a.adv), str(a.pmdv), str(a.cycles))
    assert float(flagged["coverage"]) == pytest.approx(result.coverage,
                                                       abs=1e-6)


def test_sweep_parses_its_circuit_once(monkeypatch, capsys):
    calls = []
    parse = netlist.parse_bench

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(netlist, "parse_bench", counted)
    assert run_cli("sweep", "--bench", "s27", "--th1-grid", "0.5,0.85",
                   "--th2-ratio-grid", "0.25,0.5") == 0
    assert len([line for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#")]) == 5
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["atpg", "campaign", "sweep"])
def test_flag_defaults_are_campaign_config_defaults(command):
    args = cli.build_parser().parse_args([command, "--bench", "s27"])
    want = CampaignConfig()
    for f in dataclasses.fields(CampaignConfig):
        if hasattr(args, f.name):
            assert getattr(args, f.name) == getattr(want, f.name), f.name
    assert (not args.no_collapse) == want.collapse
    if command == "sweep":
        assert float(args.th1_grid) == want.th1
    assert cli._campaign_config(args) == want


# -------------------------------------------------------------- config file

def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# campaign defaults\nseed = 9\nth1 = 0.5\n"
                   "detection-mode = signature\n")
    values = read_config_file(str(cfg))
    assert values == {"seed": 9, "th1": 0.5, "detection_mode": "signature"}


def test_config_file_feeds_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\n")
    assert run_cli("--config", str(cfg), "campaign", "--bench", "s27") == 0
    assert "# seed = 9" in capsys.readouterr().out


def test_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nth1 = 0.5\n")
    assert run_cli("--config", str(cfg), "campaign", "--bench", "s27",
                   "--seed", "3") == 0
    out = capsys.readouterr().out
    assert "# seed = 3" in out   # flag wins
    assert "# th1 = 0.5" in out  # file fills the rest


def test_config_file_syntax_error_names_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 9\nnonsense line\n")
    assert run_cli("--config", str(cfg), "campaign", "--bench", "s27") == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2:" in err


# --------------------------------------------------------------- exit codes

def test_usage_error_is_exit_1(capsys):
    assert run_cli("campaign") == 1             # --bench is required
    capsys.readouterr()
    assert run_cli("no-such-command") == 1
    capsys.readouterr()
    assert run_cli() == 1                       # no subcommand at all
    capsys.readouterr()


def test_bad_parameter_is_exit_1(capsys):
    assert run_cli("campaign", "--bench", "s27", "--th2", "0") == 1
    assert "th2" in capsys.readouterr().err
    assert run_cli("atpg", "--bench", "s27", "--backtrack-budget", "-1") == 1
    err = capsys.readouterr().err
    assert "bad parameter" in err and "backtrack budget" in err
    assert "Traceback" not in err


@pytest.fixture
def no_campaign(monkeypatch):
    """Fails the test if any grid cell starts a campaign."""
    def run(*_args, **_kwargs):
        raise AssertionError("a campaign ran despite a bad configuration")

    monkeypatch.setattr(cli, "run_campaign", run)


@pytest.mark.parametrize("argv, words", [
    (("--th1-grid", "0.85,1.5"), "th1"),
    (("--th2-ratio-grid", "0.5,0"), "th2 ratio"),
    (("--jobs", "0"), "--jobs"),
    (("--jobs", "-2"), "--jobs"),
    (("--poly-set", "7,3,0", "--poly-set", "5,2,0"), "degree 5"),
    (("--poly-set", ";"), "schedule is empty"),
])
def test_sweep_config_errors_stop_before_any_cell(argv, words, no_campaign,
                                                  capsys):
    assert run_cli("sweep", "--bench", "s27", *argv) == 1
    cap = capsys.readouterr()
    assert words in cap.err and "Traceback" not in cap.err
    assert cap.out == ""


@pytest.mark.parametrize("argv", [
    ("campaign", "--bench", "s27", "--poly", "5,2,0"),
    ("sweep", "--bench", "s27", "--poly-set", "5,2,0"),
])
def test_polynomial_degree_mismatch_is_exit_1(argv, capsys):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "degree 5" in err and "7-cell" in err


def test_missing_bench_is_exit_2(capsys):
    assert run_cli("inspect", "--bench", "definitely-not-here") == 2
    err = capsys.readouterr().err
    assert "definitely-not-here" in err


def test_malformed_bench_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.bench"
    bad.write_text("INPUT(a)\nz = AND(a\n")
    assert run_cli("inspect", "--bench", str(bad)) == 2
    assert "broken" in capsys.readouterr().err


def test_bench_dir_flag(tmp_path, capsys):
    (tmp_path / "tiny.bench").write_text(AND2)
    assert run_cli("inspect", "--bench", "tiny",
                   "--bench-dir", str(tmp_path)) == 0
    assert "2 PI" in capsys.readouterr().out
    assert run_cli("sweep", "--bench", "tiny",
                   "--bench-dir", str(tmp_path)) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 2 and rows[1].endswith("target-reached")


def test_bench_dir_env(tmp_path, capsys, monkeypatch):
    (tmp_path / "tiny.bench").write_text(AND2)
    monkeypatch.setenv("BENCH_DIR", str(tmp_path))
    assert run_cli("inspect", "--bench", "tiny") == 0
    assert "2 PI" in capsys.readouterr().out
