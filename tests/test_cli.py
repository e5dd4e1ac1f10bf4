import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from svjack.cli import build_parser, main

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


def _schema():
    import importlib.resources as res
    with res.files("svjack").joinpath("data/report_schema.json").open() as fh:
        return json.load(fh)


def _validate(doc):
    if jsonschema is not None:
        jsonschema.validate(doc, _schema())


def test_uglov_subcommand_e3(capsys):
    code, doc = run_json(capsys, "uglov", "--partition", "1,1,1",
                         "--gamma", "sym", "--basis", "e")
    assert code == 0
    assert doc["schema"] == "svjack-report/1"
    assert doc["result"]["expansion"]["basis"] == "e"
    assert doc["result"]["expansion"]["terms"] == [
        {"partition": [3], "coeff": {"num": "1", "den": "1"}}]
    _validate(doc)


def test_verify_11_exit_zero(capsys):
    code, doc = run_json(capsys, "verify", "--r", "1", "--s", "1", "--t", "sym")
    assert code == 0
    assert doc["result"]["proportional"] is True
    _validate(doc)


DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


@pytest.mark.parametrize("argv", [
    "verify --r 1 --s 1 --t sym",
    "verify --r 1 --s 3 --t sym",
    "verify --r 3 --s 1 --t sym",
    "verify --r 2 --s 2 --t sym",
    # degree 8: the 22-partition monomial -> power-sum transition
    "verify --r 2 --s 4 --t 3/2",
    "verify --r 4 --s 2 --t 5/3",
    "kacdet --level 5/2",
    "kacdet --level 3",
    # every section, and with them the Bareiss determinant on Q(t)
    "reproduce-paper --bound 4",
    # the finite-variable operators and the Monte Carlo of the benchmark
    "finite-n --dmax 2 --n-range 1..6",
    "selberg integral --n 3 --alpha 1 --beta 1 --gamma 1 --method montecarlo "
    "--samples 10000000 --seed 42",
])
def test_json_output_matches_recorded_digest(capsys, argv):
    code, out = run_cli(capsys, "--json", *argv.split())
    assert code == 0
    digests = json.loads(DIGESTS.read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == digests[argv]


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _readme_cli_lines():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("svjack ")]


def test_readme_examples_parse(capsys):
    """Every README example parses, and every one but the whole suite runs
    under --json to a document the schema accepts."""
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            raise AssertionError("README example does not parse: %s" % line) from exc
        if "reproduce-paper" in argv:
            continue
        argv = argv if "--json" in argv else ["--json"] + argv
        code, out = run_cli(capsys, *argv)
        assert code == 0, line
        _validate(json.loads(out))


def test_benchmark_tracer_installs():
    """perfbench/tracer.py wraps svjack functions by name and refuses to
    install when one is missing, so renaming a traced name fails here."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "import tracer; tracer.install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_verify_rejects_removed_max_degree_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--r", "1", "--s", "1", "--max-degree", "4"])
    assert err.value.code == 2


def test_verify_parity_usage_error(capsys):
    code = main(["verify", "--r", "5", "--s", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "selberg vanish --r 2 --t 1 --m 1,x",
    "selberg vanish --r 2 --t 1 --m 1",
    "finite-n --n-range 1-3",
    "macdonald --partition 2 --q 1 --t 2",
    "selberg integral --n 3 --alpha 1 --beta 1 --gamma 1 --method quadrature",
    "finite-n --n-range 3..1",
    "finite-n --n-range 0..1",
    "finite-n --dmax -1",
    "uglov --partition 2 --gamma 0",
    "macdonald --partition 2 --q 1/2 --t 0",
    "kacdet --level 1/3",
    "kacdet --level -1",
    "selberg integral --n 2 --alpha 1 --beta 1 --gamma 1 --method montecarlo --samples 0",
    "selberg vanish --r 2 --t 1 --m 1,0 --samples 0",
    "selberg integral --n 3 --alpha 1 --beta 1 --gamma 1 --method montecarlo "
    "--samples 60000000",
    "selberg vanish --r 2 --t 1 --m 1,0 --samples 60000000",
    "selberg vanish --r 2 --t 1/3 --m 1,0",
    "selberg integral --n 2 --alpha 0 --beta 1 --gamma 1 --method closed",
])
def test_bad_argument_exits_two_without_traceback(capsys, argv):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    "finite-n --n-range 3..1",
    "verify --r 5 --s 0",
    "verify --r 2 --s 1",
    "singular --r 1 --s 2",
    "screening --s 2",
    "selberg vanish --r 2 --t 1 --m 1",
    "selberg vanish --r 2 --t 1 --m 1,0 --samples 0",
])
def test_usage_error_json_document(capsys, argv):
    code = main(["--json"] + argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage error: ")
    doc = json.loads(captured.out)
    # the command a success document of the same invocation names
    words = argv.split()
    command = {"selberg vanish": "selberg-vanish"}.get(" ".join(words[:2]), words[0])
    assert doc == {"schema": "svjack-report/1", "command": command,
                   "ok": False, "error": doc["error"]}
    assert doc["error"].startswith("UsageError: ")
    # canonical: the same compact encoding as a report
    assert captured.out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--bogus", "1"])
    assert err.value.code == 2


def test_singular_subcommand(capsys):
    code, doc = run_json(capsys, "singular", "--r", "3", "--s", "1", "--t", "sym")
    assert code == 0
    assert doc["result"]["level"] == "3/2"
    assert len(doc["result"]["terms"]) == 2
    _validate(doc)


def test_kacdet_subcommand(capsys):
    code, doc = run_json(capsys, "kacdet", "--level", "3/2")
    assert code == 0
    assert doc["result"]["degree"] == 3
    _validate(doc)


def test_screening_subcommand(capsys):
    code, doc = run_json(capsys, "screening", "--s", "3")
    assert code == 0
    _validate(doc)


def test_selberg_quadrature(capsys):
    code, doc = run_json(capsys, "selberg", "integral", "--n", "2", "--alpha", "1",
                         "--beta", "1", "--gamma", "1", "--method", "quadrature")
    assert code == 0
    assert abs(doc["result"]["value"] - 1 / 6) < 1e-8
    _validate(doc)


def test_selberg_vanish(capsys):
    code, doc = run_json(capsys, "selberg", "vanish", "--r", "2", "--t", "1",
                         "--m", "1,0", "--seed", "7", "--samples", "20000")
    assert code == 0
    assert doc["result"]["exact_moment"] == "0"
    _validate(doc)


def test_finite_n_diagnostic(capsys):
    code, doc = run_json(capsys, "finite-n", "--dmax", "1", "--n-range", "1..2")
    assert code == 0
    assert doc["result"]["status"] == "diagnostic"
    _validate(doc)


def test_json_determinism(capsys):
    _, out1 = run_cli(capsys, "--json", "uglov", "--partition", "2,1")
    _, out2 = run_cli(capsys, "--json", "uglov", "--partition", "2,1")
    assert out1 == out2
    _, out3 = run_cli(capsys, "--json", "selberg", "integral", "--n", "2",
                      "--alpha", "1", "--beta", "1", "--gamma", "1",
                      "--method", "montecarlo", "--samples", "5000", "--seed", "3")
    _, out4 = run_cli(capsys, "--json", "selberg", "integral", "--n", "2",
                      "--alpha", "1", "--beta", "1", "--gamma", "1",
                      "--method", "montecarlo", "--samples", "5000", "--seed", "3")
    assert out3 == out4


def test_human_output_mode(capsys):
    code, out = run_cli(capsys, "kacdet", "--level", "1/2")
    assert code == 0
    assert "[kacdet] ok" in out


def test_cache_dir_variable_is_ignored(tmp_path, capsys, monkeypatch):
    # transitions are recomputed on every run; nothing is persisted
    monkeypatch.setenv("SVJACK_CACHE_DIR", str(tmp_path))
    code, _ = run_json(capsys, "uglov", "--partition", "2,1")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_macdonald_and_jack_subcommands(capsys):
    code, doc = run_json(capsys, "macdonald", "--partition", "1,1",
                         "--q", "2/3", "--t", "3/5", "--basis", "e")
    assert code == 0
    assert doc["result"]["expansion"]["terms"][0]["partition"] == [2]
    code, doc = run_json(capsys, "jack", "--partition", "2", "--alpha", "1")
    assert code == 0
    _validate(doc)


def test_macdonald_eigenvalue_tie_reports_degeneracy_error(capsys):
    # at (q, t) = (-2, -1/2) the eta_0 eigenvalues of (2) and (1,1) coincide
    code, doc = run_json(capsys, "macdonald", "--partition", "2", "--q=-2", "--t=-1/2")
    assert code == 1
    assert doc["error"].startswith("KernelError: eigenvalue tie")


def test_reproduce_paper_bound_two(capsys):
    code, doc = run_json(capsys, "reproduce-paper", "--bound", "2")
    assert code == 0
    result = doc["result"]
    assert result["finite-n-limit"]["status"] == "diagnostic"
    for name, section in result.items():
        assert section["status"] in ("pass", "diagnostic"), name
    _validate(doc)


def test_reproduce_guards_each_section_it_looks_up(monkeypatch):
    """reproduce_all calls each runner through its module-level name, at the
    call, and reports a runner that raises as a failed section."""
    from svjack import reproduce
    from svjack.kernel import KernelError

    def fails(*args, **kwargs):
        raise KernelError("no pivot")

    for name in dir(reproduce):
        if name.startswith("run_"):
            monkeypatch.setattr(reproduce, name, lambda *a, **k: {"status": "pass"})
    monkeypatch.setattr(reproduce, "run_selberg", fails)
    report, ok = reproduce.reproduce_all(bound=2)
    assert not ok
    assert report.pop("selberg")["error"] == "KernelError: no pivot"
    assert len(report) == 9
    assert all(section == {"status": "pass"} for section in report.values())
