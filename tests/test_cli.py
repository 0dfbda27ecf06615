"""CLI: schemas, exit codes, determinism, batch isolation, formats."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gammasum import cli
from gammasum.cli import JobSpec, run

from helpers import large_shape_sum

# Recorded stdout and exit code of every command x method, the three
# formats, non-convergence records, argv and batch validation errors and
# one multi-line batch file ("<file>" stands for a file holding the
# case's "batch" lines). Output must stay byte-identical.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

RESULT_KEYS = {
    "command",
    "input_echo",
    "err_estimate",
    "converged",
    "r_used",
    "nodes_used",
    "warnings",
}


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    return code, json.loads(text)


def test_exponential_median_example():
    code, rec = _run_json(
        ["gamma-sum", "--alphas", "1", "--lambdas", "1", "--x", "0.6931471806"]
    )
    assert code == 0
    assert set(rec) == RESULT_KEYS | {"cdf"}
    assert abs(rec["cdf"] - 0.5) <= 1e-9
    assert rec["converged"] is True
    assert rec["warnings"] == []


def test_chi_square_median_example():
    code, rec = _run_json(
        ["qform", "--sigma", "I2", "--c", "diag:1,1", "--x", "1.3862943611"]
    )
    assert code == 0
    assert abs(rec["cdf"] - 0.5) <= 1e-9


def test_quantile_command():
    code, rec = _run_json(
        ["quantile", "--alphas", "1", "1", "--lambdas", "1", "3",
         "--prob", "0.75"]
    )
    assert code == 0
    assert set(rec) == RESULT_KEYS | {"quantile"}
    assert rec["err_estimate"] <= 1e-7
    assert rec["quantile"] > 0.0


def test_determinism_byte_identical():
    argv = ["gamma-sum", "--alphas", "0.7", "1.3", "--lambdas", "1", "4",
            "--x", "5"]
    _, a = _run(argv)
    _, b = _run(argv)
    assert a == b
    argv_mc = argv + ["--method", "mc", "--n-samples", "20000", "--seed", "7"]
    _, c = _run(argv_mc)
    _, d = _run(argv_mc)
    assert c == d


def test_method_series_and_mc_schema():
    base = ["gamma-sum", "--alphas", "1", "1", "--lambdas", "1", "3",
            "--x", "2"]
    code, rec = _run_json(base + ["--method", "series"])
    assert code == 0
    assert rec["r_used"] is None
    assert rec["nodes_used"] >= 1
    assert abs(rec["cdf"] - 0.29754196306941830564) <= 1e-9
    code, rec = _run_json(
        base + ["--method", "mc", "--n-samples", "50000", "--seed", "3"]
    )
    assert code == 0
    assert rec["r_used"] is None
    assert rec["nodes_used"] == 50000
    assert rec["input_echo"]["seed"] == 3
    assert abs(rec["cdf"] - 0.2975) <= 0.02


def test_mvgamma_command_and_warning():
    code, rec = _run_json(
        ["mvgamma", "--alpha", "1", "--sigma", "[[2,1],[1,2]]",
         "--xs", "3", "3"]
    )
    assert code == 0
    assert abs(rec["cdf"] - 0.63203702656483023935) <= 1e-9
    assert rec["warnings"] == []
    code, rec = _run_json(
        ["mvgamma", "--alpha", "0.3", "--sigma", "I3", "--xs", "1", "1", "1"]
    )
    assert code == 0
    assert len(rec["warnings"]) == 1


def test_validation_errors_exit_2():
    code, rec = _run_json(
        ["gamma-sum", "--alphas", "1", "--lambdas", "-1", "--x", "1"]
    )
    assert code == 2
    assert rec["error_type"] == "validation"
    code, rec = _run_json(
        ["qform", "--sigma", "[[1,2],[2,1]]", "--c", "I2", "--x", "1"]
    )
    assert code == 2  # indefinite sigma
    code, rec = _run_json(
        ["gamma-sum", "--alphas", "1", "--lambdas", "1", "--x", "1",
         "--r", "2.0"]
    )
    assert code == 2  # radius outside (0, 1)
    code, _ = _run(["gamma-sum", "--alphas", "1", "--x", "1"])
    assert code == 2  # missing required flag (argparse)
    code, _ = _run(["no-such-command"])
    assert code == 2


def test_nonconvergence_exit_3_with_partial_result():
    code, rec = _run_json(
        ["gamma-sum", "--alphas", "1", "1", "--lambdas", "1", "50",
         "--x", "30", "--n-max", "32", "--tol", "1e-14"]
    )
    assert code == 3
    assert rec["converged"] is False
    assert rec["cdf"] is not None
    assert len(rec["warnings"]) == 1


def _large_shape_argv(alpha, method):
    alphas, lambdas, x = large_shape_sum(alpha)
    return ["gamma-sum", "--alphas", *map(repr, alphas),
            "--lambdas", *map(repr, lambdas), "--x", repr(x), "--method", method]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [_large_shape_argv(12, "series"), _large_shape_argv(10, "integral"),
     _large_shape_argv(12, "integral"),
     ["mvgamma", "--alpha", "200",
      "--sigma", "[[1.7582332266320866,-1.793390227248807],"
                 "[-1.7933902272488071,5.241766773367914]]",
      "--xs", repr(200 * 1.7582332266320866), repr(200 * 5.241766773367914)]],
    ids=["series-12", "integral-10", "integral-12", "mvgamma-200"],
)
def test_beyond_double_precision_exits_3(argv):
    # no null cdf marked converged and no internal error: a typed
    # precision record with exit 3
    code, rec = _run_json(argv)
    assert code == 3
    assert rec["error_type"] == "precision"
    assert "not finite in double precision" in rec["error"]


def test_large_shape_series_still_sums():
    code, rec = _run_json(_large_shape_argv(10, "series"))
    assert code == 0
    assert rec["cdf"] == 0.509521638839016 and rec["converged"] is True


def test_matrix_shorthands_agree():
    code_a, rec_a = _run_json(["qform", "--sigma", "I2", "--c", "I2", "--x", "3"])
    code_b, rec_b = _run_json(
        ["qform", "--sigma", "[[1,0],[0,1]]", "--c", "diag:1,1", "--x", "3"]
    )
    assert code_a == code_b == 0
    assert rec_a["cdf"] == rec_b["cdf"]


def test_formats():
    base = ["gamma-sum", "--alphas", "1", "--lambdas", "1", "--x", "1"]
    code, text = _run(base + ["--format", "plain"])
    assert code == 0
    assert "cdf = " in text
    code, text = _run(base + ["--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("command,")


def test_fifteen_significant_digits():
    code, text = _run(
        ["gamma-sum", "--alphas", "1", "1", "--lambdas", "1", "3", "--x", "2"]
    )
    rec = json.loads(text)
    # printed value is accurate and survives a 15-significant-digit round
    # trip, i.e. it carries no more than 15 significant digits
    assert abs(rec["cdf"] - 0.29754196306941830564) <= 1e-9
    assert float(f"{rec['cdf']:.15g}") == rec["cdf"]


def test_batch_isolation_and_exit_layering(tmp_path):
    lines = [
        json.dumps({"command": "gamma-sum",
                    "params": {"alphas": [1], "lambdas": [1], "x": 0.5}}),
        "this is not json",
        json.dumps({"command": "gamma-sum",
                    "params": {"alphas": [1], "lambdas": [-1], "x": 0.5}}),
        # too deep for json.loads (RecursionError), then a byte that is not UTF-8
        "[" * 200000,
        json.dumps({"command": "gamma-sum",
                    "params": {"alphas": [1], "lambdas": [1], "x": 0.5}}) + "\xff",
        json.dumps({"command": "qform",
                    "params": {"sigma": "I2", "c": "I2", "x": 2.0}}),
    ]
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    code, text = _run(["batch", str(path)])
    assert code == 2
    records = [json.loads(line) for line in text.strip().splitlines()]
    assert len(records) == 6
    assert "cdf" in records[0]
    for rec in records[1:5]:
        assert rec["error_type"] == "validation"
    assert "too deep" in records[3]["error"]
    assert "UTF-8" in records[4]["error"]
    assert "cdf" in records[5]


def test_batch_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, text = _run(["batch", str(path)])
    assert code == 0
    assert text == ""


def test_batch_nonconvergence_exit_3(tmp_path):
    rec = {"command": "gamma-sum",
           "params": {"alphas": [1, 1], "lambdas": [1, 50], "x": 30},
           "quadrature": {"n_max": 32, "tol": 1e-14}}
    path = tmp_path / "jobs.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code, text = _run(["batch", str(path)])
    assert code == 3
    out = json.loads(text)
    assert out["converged"] is False


def test_batch_missing_file():
    code, text = _run(["batch", "/no/such/file.jsonl"])
    assert code == 2
    assert json.loads(text)["error_type"] == "validation"


def test_jobspec_validation():
    try:
        JobSpec("frobnicate")
        raise AssertionError("unknown command accepted")
    except Exception:
        pass
    try:
        JobSpec("gamma-sum", quadrature={"bogus": 1})
        raise AssertionError("unknown quadrature key accepted")
    except Exception:
        pass


def test_env_var_enables_stderr_logging():
    env = dict(os.environ)
    env["GAMMASUM_LOG"] = "DEBUG"
    proc = subprocess.run(
        [sys.executable, "-m", "gammasum", "gamma-sum", "--alphas", "1", "1",
         "--lambdas", "1", "3", "--x", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "gammasum" in proc.stderr
    json.loads(proc.stdout)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gammasum", "gamma-sum", "--alphas", "1",
         "--lambdas", "1", "--x", "0.6931471805599453"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["cdf"] - 0.5) <= 1e-9


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)]
)
def test_golden_output(case, tmp_path):
    argv = case["argv"]
    if "batch" in case:
        path = tmp_path / "jobs.jsonl"
        path.write_text("\n".join(case["batch"]) + "\n")
        argv = ["batch", str(path)]
    assert _run(argv) == (case["exit"], case["stdout"])


def test_batch_missing_params_message_ignores_hash_seed():
    line = json.dumps({"command": "quantile", "params": {}}) + "\n"
    outputs = set()
    for seed in ("1", "4", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "gammasum", "batch", "-"], input=line,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert "quantile requires 'alphas'" in outputs.pop()


def test_series_route_validates_tolerance():
    base = ["gamma-sum", "--alphas", "1", "1", "--lambdas", "1", "3", "--x", "2",
            "--method", "series"]
    for tol in ("0", "-1"):
        code, rec = _run_json(base + ["--tol", tol])
        assert code == 2
        assert rec["error_type"] == "validation"
        assert "tol must be positive" in rec["error"]


def _run_batch_lines(tmp_path, lines):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, text = _run(["batch", str(path)])
    return code, [json.loads(line) for line in text.strip().splitlines()]


def test_every_route_validates_quadrature(tmp_path):
    mv = ["mvgamma", "--alpha", "1", "--sigma", "[[2,1],[1,2]]", "--xs", "2", "3",
          "--n-max", "4096", "--n-start"]
    for argv in (
        ["gamma-sum", "--alphas", "1", "1", "--lambdas", "1", "3", "--x", "2",
         "--method", "mc", "--n-samples", "100", "--r", "2.0"],
        # mvgamma caps the nodes per axis at 512, below n_max
        mv + ["1024"],
        mv + ["512"],
    ):
        code, rec = _run_json(argv)
        assert code == 2, argv
        assert rec["error_type"] == "validation", argv
    # a non-string r and a non-integral node count arrive only through batch
    head = '{"command": "gamma-sum", "params": {"alphas": [1], "lambdas": [1], "x": 1'
    lines = [
        head + ', "method": "%s"}, "quadrature": %s}' % (method, quad)
        for method in ("integral", "series", "mc")
        for quad in ('{"r": [0.8]}', '{"n_start": 8.5}', '{"n_max": 1e400}')
    ]
    code, records = _run_batch_lines(tmp_path, lines)
    assert code == 2
    assert [r.get("error_type") for r in records] == ["validation"] * len(lines)


def test_monte_carlo_routes_validate_like_integral(tmp_path):
    mc = ["--method", "mc", "--n-samples", "100"]
    cases = [
        ["qform", "--sigma", "[[2,1],[0,2]]", "--c", "I2", "--x", "1"],
        ["qform", "--sigma", "I2", "--c", "I3", "--x", "1"],
        ["mvgamma", "--alpha", "1", "--sigma", "[[2,1],[1,2]]", "--xs", "1"],
        ["mvgamma", "--alpha", "1", "--sigma", "[[2,1],[1,2]]", "--xs", "1", "1",
         "1"],
    ]
    for argv in cases:
        code_int, rec_int = _run_json(argv)
        code_mc, rec_mc = _run_json(argv + mc)
        assert code_int == code_mc == 2, argv
        assert rec_mc["error_type"] == "validation", argv
    # integer parameters reject fractional and infinite numbers but take
    # integral floats such as JSON 1e3
    head = '{"command": "mvgamma", "params": {"alpha": 1, "sigma": "I2", "xs": [1, 1]'
    bad = ['"method": "mc", "n_samples": 100.9', '"method": "mc", "n_samples": 1e400',
           '"method": "mc", "n_samples": 100, "seed": 0.5',
           '"method": "mc", "n_samples": 100, "seed": -1', '"max_dim": 3.5']
    code, records = _run_batch_lines(tmp_path, [f"{head}, {b}}}}}" for b in bad])
    assert code == 2
    assert [r.get("error_type") for r in records] == ["validation"] * len(bad)
    good = f'{head}, "method": "mc", "n_samples": 1e3, "seed": 2.0, "max_dim": 3.0}}}}'
    code, records = _run_batch_lines(tmp_path, [good])
    assert code == 0
    assert records[0]["input_echo"]["n_samples"] == 1000


@pytest.mark.parametrize("record", [
    {"command": "gamma-sum", "params": {"alphas": [1], "lambdas": [1], "x": True}},
    {"command": "gamma-sum", "params": {"alphas": [True], "lambdas": [1], "x": 1}},
    {"command": "gamma-sum", "params": {"alphas": [1, 1], "lambdas": [1, 2], "x": 1},
     "quadrature": {"tol": True}},
])
def test_batch_rejects_json_booleans_as_numbers(tmp_path, record):
    code, records = _run_batch_lines(tmp_path, [json.dumps(record)])
    assert code == 2
    assert records[0]["error_type"] == "validation"
    assert "must be a number, got True" in records[0]["error"]


# the golden argv cases that argparse accepts (it rejects those that
# print nothing)
_ARGV_CASES = {f"{i:02d}-{c['argv'][0]}": c["argv"] for i, c in enumerate(GOLDEN)
               if "batch" not in c and c["stdout"]}


@pytest.mark.parametrize("argv", _ARGV_CASES.values(), ids=_ARGV_CASES)
def test_argv_and_batch_record_print_the_same(tmp_path, argv):
    # the batch record built from the parsed flags prints what the argv
    # run prints, so the parser's types and defaults match batch params
    job = cli._job_from_args(cli._PARSER.parse_args(argv))
    record = {"command": job.command, "params": job.params,
              "quadrature": job.quadrature, "output_format": job.output_format}
    path = tmp_path / "job.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert _run(["batch", str(path)])[1] == _run(argv)[1]


def test_parser_is_built_once(monkeypatch):
    def fail():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", fail)
    assert _run(["gamma-sum", "--alphas", "1", "--lambdas", "1", "--x", "1"])[0] == 0
