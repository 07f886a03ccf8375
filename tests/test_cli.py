import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skellam_fields import PmfTable
from skellam_fields.cli import MODELS, _format_draws, build_parser, main, parse_config_text
from skellam_fields.errors import ValidationError


def run_cli(*args, capsys=None):
    code = main(list(args))
    return code


def test_parse_config_text():
    raw = parse_config_text("model = SRF\nlambda1=2.0  # rate\n\n# comment\nn_min = -3\n")
    assert raw == {"model": "SRF", "lambda1": "2.0", "n_min": "-3"}
    with pytest.raises(ValidationError):
        parse_config_text("just a line\n")


def test_pmf_csv(tmp_path, capsys):
    out = tmp_path / "pmf.csv"
    code = main(["pmf", "--set", "model=SRF", "--set", "lambda1=2", "--set", "lambda2=1",
                 "--set", "s=1", "--set", "t=1", "--set", "n_min=-10", "--set", "n_max=10",
                 "--output", str(out)])
    assert code == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,prob"
    assert len(lines) == 22
    table = PmfTable.from_csv(text)
    assert 0.0 < float(table.probs.sum()) < 1.0
    assert table.tail_mass > 0.0


def test_pmf_zero_area_point_mass(tmp_path):
    out = tmp_path / "pmf.csv"
    code = main(["pmf", "--set", "model=SRF", "--set", "lambda1=2", "--set", "lambda2=1",
                 "--set", "s=0", "--set", "t=1", "--output", str(out)])
    assert code == 0
    table = PmfTable.from_csv(out.read_text())
    assert table.prob(0) == 1.0


def test_pmf_round_trip_json_csv(tmp_path):
    args = ["pmf", "--set", "model=FSRF2", "--set", "lambda1=1", "--set", "lambda2=0.5",
            "--set", "alpha=0.7", "--set", "s=1", "--set", "t=1",
            "--set", "n_min=-6", "--set", "n_max=6"]
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    assert main(args + ["--output", str(csv_path)]) == 0
    assert main(args + ["--output", str(json_path), "--format", "json"]) == 0
    a = PmfTable.from_csv(csv_path.read_text())
    b = PmfTable.from_json(json_path.read_text())
    assert np.allclose(a.probs, b.probs, rtol=0, atol=1e-15)
    assert abs(a.tail_mass - b.tail_mass) <= 1e-15


def test_pmf_fractional_wide_window(tmp_path):
    # far-tail entries sit at the series noise floor; the clamp keeps the
    # table valid
    out = tmp_path / "t.csv"
    code = main(["pmf", "--set", "model=FSRF1", "--set", "lambda1=1",
                 "--set", "lambda2=0.5", "--set", "alpha=0.7", "--set", "beta=0.7",
                 "--set", "s=1", "--set", "t=1", "--set", "n_min=-12",
                 "--set", "n_max=12", "--output", str(out)])
    assert code == 0
    table = PmfTable.from_csv(out.read_text())
    assert table.tail_mass < 1e-4


def test_invalid_rate_names_field(capsys):
    code = main(["pmf", "--set", "model=SRF", "--set", "lambda1=2", "--set", "lambda2=0",
                 "--set", "s=1", "--set", "t=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda2" in err


def test_unknown_key_rejected(capsys):
    # step, u and suite were once accepted although no command reads them;
    # alpha and nu1 are read by other models, and SRF once ignored them; the
    # series stopping rule is fixed, so its three former keys are unknown
    for key in ("bogus_key", "step", "u", "suite", "alpha", "nu1",
                "rel_tol", "max_terms", "consecutive_small"):
        code = main(["pmf", "--set", "model=SRF", "--set", "lambda1=2", "--set", "lambda2=1",
                     "--set", "s=1", "--set", "t=1", "--set", f"{key}=3"])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
    code = main(["moments", "--set", "model=SRF", "--set", "lambda1=2", "--set", "lambda2=1",
                 "--set", "s=1", "--set", "t=1", "--set", "alpha=0.5", "--set", "nu1=3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'alpha'" in err and "'nu1'" in err and "SRF" in err


def _assert_sample_reproducible(tmp_path, settings):
    args = ["sample", *(arg for kv in [*settings, "s=1", "t=1", "replicates=200"]
                        for arg in ("--set", kv)), "--seed", "42"]
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert len(f1.read_text().strip().split("\n")) == 200
    return f1.read_text()


def test_sample_reproducible(tmp_path):
    _assert_sample_reproducible(tmp_path, ["model=FSRF1", "lambda1=1", "lambda2=0.5",
                                           "alpha=0.7", "beta=0.7"])


def test_sample_reproducible_float_draws(tmp_path):
    text = _assert_sample_reproducible(tmp_path, ["model=INTEGRAL", "lambda=1"])
    values = [float(v) for v in text.split()]
    assert any(v != int(v) for v in values)


def _per_value_text(draws) -> str:
    """The per-draw form the sample command used before it formatted whole arrays."""
    return "".join((str(int(x)) if isinstance(x, np.integer) else f"{float(x):.17g}") + "\n"
                   for x in draws)


EXACT = 2 ** 53  # float64 holds every integer below it in magnitude


@pytest.mark.parametrize("draws", [
    np.array([0, -1, 7, -123456789012, 2 ** 62, -(2 ** 63)], dtype=np.int64),
    np.array([0.0, -0.0, 5e-324, 1e17, 2.0 ** 53 + 2, math.inf, -math.inf, math.nan,
              0.1, -2.5, 1.0 / 3.0, 3.0]),
    np.array([], dtype=np.int64),
    np.array([], dtype=float),
    np.array([-3.0, 0.0, 2.0, -1.0, 2.0, -3.0]),
    np.array([EXACT - 1, EXACT - 2, EXACT - 1], dtype=float),
    np.array([-(EXACT - 1), -(EXACT - 2), -(EXACT - 1)], dtype=float),
    np.array([EXACT, EXACT - 1], dtype=float),
    np.array([1e17, 1e17]),
    np.array([1.0, 0.0, -0.0, 2.0]),
    np.array([0, 10], dtype=np.int64),
    np.array([0.0, 10.0]),
    np.array([2 ** 63 - 1, 2 ** 63 - 2, 2 ** 63 - 1], dtype=np.int64),
    np.array([-(2 ** 63), -(2 ** 63) + 1], dtype=np.int64),
    np.array([5, 5, 5, 5], dtype=np.int64),
    np.array([-7], dtype=np.int64),
    np.array([-2.0]),
    np.array([-1, 3, 0, 2], dtype=np.int32),
], ids=["int64", "float64", "empty-int", "empty-float", "integral-float-negatives",
        "float-below-2^53", "float-above-minus-2^53", "float-at-2^53", "float-1e17", "minus-zero",
        "int-range-wider-than-array", "float-range-wider-than-array", "int64-top",
        "int64-bottom", "int64-constant", "int64-single", "float-single", "int32"])
def test_sample_formatter_matches_per_value_form(draws):
    assert _format_draws(draws) == _per_value_text(draws)


_INTS = st.one_of(st.integers(-30, 30), st.integers(-(2 ** 63), 2 ** 63 - 1))
_FLOATS = st.one_of(st.integers(-30, 30).map(float),
                    st.sampled_from([-0.0, 0.5, float(EXACT - 1), -float(EXACT - 1), 1e17]),
                    st.floats(allow_nan=True, allow_infinity=True))


@given(st.one_of(hnp.arrays(np.int64, st.integers(0, 40), elements=_INTS),
                 hnp.arrays(np.float64, st.integers(0, 40), elements=_FLOATS)))
@settings(max_examples=300, deadline=None)
def test_sample_formatter_property(draws):
    assert _format_draws(draws) == _per_value_text(draws)


@pytest.mark.parametrize("command, settings", [
    ("sample", ["model=PRF", "lambda=1", "s=inf", "t=1"]),
    ("sample", ["model=FSRF1", "lambda1=1", "lambda2=0.5", "alpha=0.7", "beta=0.7",
                "s=1", "t=nan"]),
    ("pmf", ["model=FSRF1", "lambda1=1", "lambda2=0.5", "alpha=0.7", "beta=0.7",
             "s=nan", "t=1"]),
    ("moments", ["model=FPRF", "lambda=1", "alpha=0.7", "beta=0.7", "s=1", "t=-inf"]),
], ids=["sample-inf", "sample-nan", "pmf-nan", "moments-minus-inf"])
def test_non_finite_times_are_config_errors(command, settings, capsys):
    code = main([command, *(arg for kv in settings for arg in ("--set", kv))])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be finite" in err
    assert "Traceback" not in err


def test_sample_zero_replicates_rejected(capsys):
    code = main(["sample", "--set", "model=SRF", "--set", "lambda1=1", "--set", "lambda2=1",
                 "--set", "s=1", "--set", "t=1", "--set", "replicates=0"])
    assert code == 2
    assert "replicates" in capsys.readouterr().err


def test_fsrf1_unit_orders_matches_srf(tmp_path):
    common = ["--set", "lambda1=2", "--set", "lambda2=1", "--set", "s=1", "--set", "t=1",
              "--set", "replicates=20000", "--seed", "7"]
    f_frak = tmp_path / "frak.txt"
    f_srf = tmp_path / "srf.txt"
    assert main(["sample", "--set", "model=FSRF1", "--set", "alpha=1", "--set", "beta=1",
                 *common, "--output", str(f_frak)]) == 0
    assert main(["sample", "--set", "model=SRF", *common, "--output", str(f_srf)]) == 0
    a = np.array([float(v) for v in f_frak.read_text().split()])
    b = np.array([float(v) for v in f_srf.read_text().split()])
    from skellam_fields import empirical_pmf, tv_distance

    tv = tv_distance(empirical_pmf(a, -15, 15), empirical_pmf(b, -15, 15))
    assert tv < 0.05


def test_moments_json(capsys):
    code = main(["moments", "--set", "model=FSRF2", "--set", "lambda1=2",
                 "--set", "lambda2=1", "--set", "alpha=0.5", "--set", "s=1", "--set", "t=1",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mean"] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)


def test_cf_command(capsys):
    code = main(["cf", "--set", "model=INTEGRAL", "--set", "lambda=1",
                 "--set", "s=1", "--set", "t=1", "--set", "xi=0,1", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"xi": 0.0, "re": 1.0, "im": 0.0}
    assert rows[1]["re"] == pytest.approx(0.92039561879573, rel=1e-10)


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = SRF\nlambda1 = 2.0\nlambda2 = 1.0\ns = 1\nt = 1\n"
                   "n_min = -2\nn_max = 2\n")
    code = main(["pmf", "--config", str(cfg), "--set", "n_max=3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 6  # header + n in [-2, 3]


def test_converge_command(capsys):
    code = main(["converge", "--set", "model=SRF", "--set", "lambda1=2",
                 "--set", "lambda2=1", "--set", "s=1", "--set", "t=1",
                 "--set", "k_values=8,16", "--set", "replicates=20000", "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,tv,threshold,noise_floor,pass"
    assert len(lines) == 3


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "nope"])
    assert code == 2
    err = capsys.readouterr().err
    assert "srf-oracle" in err and "theorem31" in err


def test_verify_fast_suite(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--suite", "srf-oracle", "--output", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data[0]["suite"] == "srf-oracle"
    assert data[0]["pass"] is True
    out = capsys.readouterr().out
    assert "[pass]" in out


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "skellam_fields.cli", "pmf",
                           "--set", "model=SRF", "--set", "lambda1=1",
                           "--set", "lambda2=1", "--set", "s=1", "--set", "t=1",
                           "--set", "n_min=0", "--set", "n_max=0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,prob\n")


def test_cli_calls_import_no_scipy():
    # numpy is the only runtime dependency: scipy is for the tests alone
    script = "\n".join([
        "import contextlib, io, sys",
        "from skellam_fields.cli import main",
        "at = ['--set', 's=1', '--set', 't=1']",
        "fprf = ['--set', 'lambda=1', '--set', 'alpha=0.7', '--set', 'beta=0.7', *at]",
        "calls = [['pmf', '--set', 'model=FPRF', *fprf, '--set', 'n_min=0'],",
        "         ['sample', '--set', 'model=FSRF1', '--set', 'lambda1=1', '--set', 'lambda2=0.5',",
        "          '--set', 'alpha=0.7', '--set', 'beta=0.7', *at, '--set', 'replicates=10'],",
        "         ['moments', '--set', 'model=FPRF', *fprf, '--set', 's2=1.5', '--set', 't2=1.2'],",
        "         ['cf', '--set', 'model=PRF', '--set', 'lambda=1', *at],",
        "         ['verify', '--suite', 'specfun']]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(argv) for argv in calls]",
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0] []\n"


@pytest.mark.parametrize("argv, cause", [
    (["sample", "--set", "model=FSRF1", "--set", "lambda1=1", "--set", "lambda2=0.5",
      "--set", "alpha=0.7", "--set", "beta=0.7", "--set", "s=1e300", "--set", "t=1e300",
      "--set", "replicates=3"], "Poisson mean"),
    (["moments", "--set", "model=FPRF", "--set", "lambda=1", "--set", "alpha=0.7",
      "--set", "beta=0.7", "--set", "s=1e300", "--set", "t=1", "--set", "s2=1e300",
      "--set", "t2=1"], "double range"),
    (["moments", "--set", "model=PRF", "--set", "lambda=1", "--set", "s=1e300",
      "--set", "t=1e300"], "double range"),
], ids=["sample-FSRF1", "moments-FPRF", "moments-PRF"])
def test_out_of_range_stderr_is_one_error_line(argv, cause):
    # a fresh process, so that numpy warnings reach stderr as they would
    proc = subprocess.run([sys.executable, "-m", "skellam_fields.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and cause in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("settings, cause", [
    (["model=FPRF", "lambda=1", "alpha=0.5", "beta=0.3", "s=1", "n_min=0"], "alpha + beta"),
    (["model=FPRF", "lambda=2", "alpha=0.7", "beta=0.7", "s=1", "n_min=0", "n_max=12"],
     "cancellation noise"),
    (["model=FSRF2", "lambda1=1", "lambda2=0.5", "alpha=0.7", "s=7", "n_min=-3", "n_max=3"],
     "cancellation noise"),
    (["model=FSRF2", "lambda1=1", "lambda2=0.5", "alpha=0.7", "s=50", "n_min=0", "n_max=0"],
     "fsrf2_pmf(n=0)"),
    (["model=FPRF", "lambda=0.3", "alpha=0.5", "beta=0.5", "s=1e300", "n_min=3", "n_max=3"],
     "fprf_pmf(n=3)"),
], ids=["divergent-orders", "cancellation-noise", "fsrf2-cancellation-noise",
        "fsrf2-wright-range", "fprf-wright-range-before-overflow"])
def test_fprf_divergent_orders_exit_cleanly(settings, cause, capsys):
    settings = [*settings, "t=1"]
    code = main(["pmf", *(arg for kv in settings for arg in ("--set", kv))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and cause in err
    assert "Traceback" not in err



@pytest.mark.parametrize("settings", [
    ["model=FPRF", "lambda=1e-300", "alpha=0.5", "beta=0.5"],
    ["model=FSRF1", "lambda1=1e-300", "lambda2=1e-300", "alpha=0.5", "beta=0.5"],
    ["model=FSRF3", "lambda1=1e-300", "lambda2=1e-300", "alpha=0.5", "beta=0.5",
     "alpha2=0.5", "beta2=0.5"],
], ids=["FPRF", "FSRF1", "FSRF3"])
def test_pmf_underflowed_means_are_a_point_mass(settings, capsys):
    settings = [*settings, "s=1e-300", "t=1", "n_min=0", "n_max=3"]
    code = main(["pmf", *(arg for kv in settings for arg in ("--set", kv)), "--format", "json"])
    assert code == 0
    assert list(PmfTable.from_json(capsys.readouterr().out).probs) == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("settings", [
    ["model=PRF", "lambda=1"],
    ["model=SRF", "lambda1=1", "lambda2=1"],
    ["model=GSRF", "jumps=1:1,-1:1"],
    ["model=INTEGRAL", "lambda=1"],
], ids=["PRF", "SRF", "GSRF", "INTEGRAL"])
def test_sample_poisson_mean_out_of_range(settings, capsys):
    settings = [*settings, "s=1e10", "t=1e10", "replicates=3"]
    code = main(["sample", *(arg for kv in settings for arg in ("--set", kv))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Poisson mean" in err
    assert "Traceback" not in err

def test_workers_flag_only_on_mc_commands():
    parser = build_parser()
    assert parser.parse_args(["converge", "--workers", "2"]).workers == 2
    assert parser.parse_args(["verify", "--suite", "all", "--workers", "2"]).workers == 2
    for command in ("pmf", "sample", "moments", "cf"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--workers", "2"])


DESK_MODELS = {
    "PRF": ["lambda=1"],
    "FPRF": ["lambda=1", "alpha=0.7", "beta=0.7"],
    "GSRF": ["jumps=1:2,-1:1"],
    "SRF": ["lambda1=2", "lambda2=1"],
    "FSRF1": ["lambda1=1", "lambda2=0.5", "alpha=0.7", "beta=0.7"],
    "FSRF2": ["lambda1=1", "lambda2=0.5", "alpha=0.7"],
    "FSRF3": ["lambda1=1", "lambda2=0.5", "alpha=0.7", "beta=0.7", "alpha2=0.9", "beta2=0.9"],
    "INTEGRAL": ["lambda=1", "nu1=0.5", "nu2=1.5"],
}
COMMAND_SETTINGS = {
    "pmf": ["n_min=0", "n_max=3"],
    "sample": ["replicates=200"],
    "moments": ["s2=1.5", "t2=1.2"],
    "cf": ["xi=0,1"],
    "converge": ["k_values=8", "replicates=20000"],
}
# (model, command) pairs the paper defines nothing for.
UNDEFINED = {("GSRF", "pmf"), ("INTEGRAL", "pmf"),
             *((m, "cf") for m in ("FPRF", "SRF", "FSRF1", "FSRF2", "FSRF3")),
             *((m, "converge") for m in ("PRF", "FPRF", "FSRF1", "FSRF2", "FSRF3",
                                         "INTEGRAL"))}


def test_registry_lists_every_model():
    assert MODELS == tuple(DESK_MODELS)


@pytest.mark.parametrize("command", list(COMMAND_SETTINGS))
@pytest.mark.parametrize("model", MODELS)
def test_every_model_command_pair(model, command, capsys):
    settings = [f"model={model}", "s=1", "t=1", *DESK_MODELS[model],
                *COMMAND_SETTINGS[command]]
    code = main([command, *(arg for kv in settings for arg in ("--set", kv)), "--seed", "3"])
    err = capsys.readouterr().err
    if (model, command) in UNDEFINED:
        assert code == 2
        assert f"{command} is not defined for {model}" in err
    else:
        assert code == 0, err
