import hashlib
import json
import pathlib
import re
import shlex

import pytest

from svjack import cli, fock
from svjack.cli import build_parser, main

from fresh import run_fresh

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


def main_outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); -h exits by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def whole_tree_outcome(capsys, monkeypatch, argv):
    """main_outcome with every subparser built, whatever argv names."""
    build = cli.build_parser
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda command=None: build())
        return main_outcome(capsys, argv)


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
    # the odd-parity scalars of largest degree: sqrt(2) only in the report
    "verify --r 1 --s 5 --t sym",
    "verify --r 5 --s 1 --t sym",
    # degree 8: the 22-partition monomial -> power-sum transition
    "verify --r 2 --s 4 --t 3/2",
    "verify --r 4 --s 2 --t 5/3",
    # the other rational samples of the verify-rational workload
    "verify --r 2 --s 4 --t 5/3",
    "verify --r 2 --s 4 --t 4/3",
    "verify --r 2 --s 4 --t 5/4",
    "verify --r 2 --s 4 --t 2/3",
    "verify --r 2 --s 4 --t 3/4",
    "verify --r 4 --s 2 --t 3/2",
    "verify --r 4 --s 2 --t 4/3",
    "verify --r 4 --s 2 --t 5/4",
    "verify --r 4 --s 2 --t 2/3",
    "verify --r 4 --s 2 --t 3/4",
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


FRONTIER_DIGESTS = pathlib.Path(__file__).resolve().parent / "golden" / "frontier_digests.json"


@pytest.mark.parametrize("argv", sorted(json.loads(FRONTIER_DIGESTS.read_text())))
def test_frontier_output_matches_recorded_digest(capsys, argv):
    """The symbolic frontier, verify at rs = 8, 7, 11 and 12, the rs = 12
    singular vector and the level-7/2 Kac determinant, and larger
    eliminations, the rs = 16 singular vector over Q and over Q(t) and the
    level-4, level-9/2 and level-5 Kac determinants at symbolic t, and the Selberg
    quadrature, at alpha = beta = 1
    for n = 1, n = 2 and n = 2 at gamma = 0.37 and at (alpha, beta) = (2, 3)
    and (2, 2), print exactly what they printed when these digests were
    recorded."""
    code, out = run_cli(capsys, "--json", *argv.split())
    assert code == 0
    digests = json.loads(FRONTIER_DIGESTS.read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == digests[argv]


def test_image_caches_carry_no_field_between_runs(capsys):
    """verify at t = 3/2, then at symbolic t, then at 3/2 again in one
    process prints each recorded digest: nothing one run caches carries its
    field of scalars into the next."""
    recorded = dict(json.loads(DIGESTS.read_text()))
    recorded.update(json.loads(FRONTIER_DIGESTS.read_text()))
    for argv in ("verify --r 2 --s 4 --t 3/2", "verify --r 2 --s 4 --t sym",
                 "verify --r 2 --s 4 --t 3/2"):
        if argv.endswith("sym"):
            # every fermion monomial the second 3/2 run reads is made at sym
            fock._fermion_monomial.cache_clear()
        code, out = run_cli(capsys, "--json", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[argv], argv


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
            namespace = parser.parse_args(argv)
        except ValueError as exc:
            raise AssertionError("README example does not parse: %s" % line) from exc
        # the parser of the named subcommand alone reads the same namespace
        assert build_parser(cli._command_word(argv)).parse_args(argv) == namespace, line
        if "reproduce-paper" in argv:
            continue
        argv = argv if "--json" in argv else ["--json"] + argv
        code, out = run_cli(capsys, *argv)
        assert code == 0, line
        _validate(json.loads(out))


def test_benchmark_tracer_installs():
    """perfbench/tracer.py wraps svjack functions by name and refuses to
    install when one is missing, so renaming a traced name fails here."""
    run_fresh("import sys; sys.path.insert(0, 'perfbench'); "
              "import tracer; tracer.install()")


def test_main_freezes_start_up_heap_and_keeps_collecting():
    """main moves the objects alive at start-up out of the collector's reach
    but leaves it on, so a cycle made after a command is still freed."""
    code = ("import gc, weakref\n"
            "import svjack.cli\n"
            "code = svjack.cli.main(%r)\n"
            "class Node:\n"
            "    pass\n"
            "node = Node()\n"
            "node.cycle = node\n"
            "ref = weakref.ref(node)\n"
            "del node\n"
            "gc.collect()\n"
            "print(code, gc.get_freeze_count() > 0, gc.isenabled(), ref() is None)\n"
            % ["--json", "verify", "--r", "1", "--s", "1", "--t", "sym"])
    assert run_fresh(code).splitlines()[-1] == "0 True True True"


def test_verify_rejects_removed_max_degree_flag(capsys):
    assert main(["verify", "--r", "1", "--s", "1", "--max-degree", "4"]) == 2


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
    "selberg vanish --r -1 --t 1 --m 1",
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
    # a bound below 1 would check no conjecture case
    "reproduce-paper --bound 0",
    "reproduce-paper --bound -3",
    # an integral over no variables checks nothing
    "selberg recursion --n 0 --alpha 1 --beta 1 --gamma 1",
    "selberg recursion --n -2 --alpha 1 --beta 1 --gamma 1",
    "selberg integral --n -1 --alpha 1 --beta 1 --gamma 1 --method closed",
    "selberg integral --n -1 --alpha 1 --beta 1 --gamma 1 --method montecarlo",
    # a float that is no number, or a closed form beyond the float range,
    # has no JSON value to report
    "selberg integral --n 2 --alpha nan --beta 1 --gamma 1 --method closed",
    "selberg integral --n 2 --alpha inf --beta 1 --gamma 1 --method closed",
    "selberg recursion --n 2 --alpha nan --beta 1 --gamma 1",
    "selberg integral --n 3 --alpha 1e-300 --beta 1e-300 --gamma 1 --method closed",
    "selberg recursion --n 3 --alpha 1e-300 --beta 1e-300 --gamma 1",
    # a numeric method outside the domain it can integrate: the Beta weight
    # beyond the float range, nodes on the diagonal, a divergent integral,
    # and alpha <= 0 (not scipy's alpha - 1 <= -1)
    "selberg integral --n 3 --alpha 1e-150 --beta 1e-150 --gamma 1 --method montecarlo "
    "--samples 10",
    "selberg integral --n 2 --alpha 1 --beta 1 --gamma -0.4 --method quadrature",
    "selberg integral --n 2 --alpha 1 --beta 1 --gamma -0.6 --method montecarlo "
    "--samples 1000",
    "selberg integral --n 2 --alpha -0.5 --beta 1 --gamma 1 --method quadrature",
    # a Monte Carlo of infinite variance, whose standard error means nothing
    "selberg integral --n 2 --alpha 1 --beta 1 --gamma -0.45 --method montecarlo "
    "--samples 1000000 --seed 3",
    # a negative seed, named in the message rather than left to numpy
    "selberg integral --n 3 --alpha 1 --beta 1 --gamma 1 --method montecarlo --seed -1",
    "selberg vanish --r 2 --t 1 --m 1,0 --seed -3",
    # closed forms below the float range would read 0.0 and pass vacuously
    "selberg integral --n 25 --alpha 1 --beta 1 --gamma 1 --method closed",
    "selberg recursion --n 25 --alpha 1 --beta 1 --gamma 1",
    # argparse's own errors: a missing or mistyped option, and a negative
    # fraction read as an option (it is passed as --alpha=-1/2)
    "verify --r 2",
    "verify --r x --s 1",
    "jack --partition 2 --alpha -1/2",
    "selberg recursion --n x --alpha 1 --beta 1 --gamma 1",
    "selberg",
    # a partition out of order or with a zero part, rejected by the one
    # partition check
    "uglov --partition 1,2",
    "jack --partition 0,1 --alpha 1",
])
def test_usage_error_json_document(capsys, monkeypatch, argv):
    outcome = main_outcome(capsys, ["--json"] + argv.split())
    # byte for byte what the parser with every subcommand gives
    assert outcome == whole_tree_outcome(capsys, monkeypatch, ["--json"] + argv.split())
    code, out, err = outcome
    assert code == 2
    assert err.startswith("usage error: ")
    doc = json.loads(out)
    # the command a success document of the same invocation names
    words = argv.split()
    command = {"selberg vanish": "selberg-vanish",
               "selberg recursion": "selberg-recursion"}.get(" ".join(words[:2]), words[0])
    assert doc == {"schema": "svjack-report/1", "command": command,
                   "ok": False, "error": doc["error"]}
    assert doc["error"].startswith("UsageError: ")
    # canonical: the same compact encoding as a report
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_unknown_flag_exits_two(capsys):
    assert main(["verify", "--bogus", "1"]) == 2


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_parse_error_without_a_subcommand_names_svjack(capsys, argv):
    assert main(["--json"] + argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "svjack" and doc["error"].startswith("UsageError: ")


COMMANDS = ["uglov", "macdonald", "jack", "singular", "kacdet", "verify", "screening",
            "selberg", "finite-n", "reproduce-paper"]
SELBERG_MODES = ["selberg integral", "selberg vanish", "selberg recursion"]
SUBCOMMAND_PATHS = COMMANDS + SELBERG_MODES


@pytest.mark.parametrize("path", SUBCOMMAND_PATHS)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
def test_subcommand_help_matches_the_whole_tree(capsys, monkeypatch, path, json_flag):
    """Each subcommand's -h, built with its own parser alone, prints what
    the parser with every subcommand prints, and exits alike."""
    argv = json_flag + path.split() + ["-h"]
    outcome = main_outcome(capsys, argv)
    assert outcome == whole_tree_outcome(capsys, monkeypatch, argv)
    assert outcome[0] == 0 and outcome[1].startswith("usage: svjack %s [-h]" % path)


def _parsers_built(capsys, monkeypatch, argv):
    """The progs of the parsers main(argv) builds, in order."""
    progs = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    with monkeypatch.context() as patch:
        patch.setattr(cli._Parser, "__init__", counting)
        main_outcome(capsys, argv)
    return progs


VERIFY_11 = ["verify", "--r", "1", "--s", "1"]


def test_main_builds_only_the_parser_of_the_named_subcommand(capsys, monkeypatch):
    """CMD ... and --json CMD ... build the top-level parser and CMD's; every
    other shape builds them all, whose names the unknown-command error
    lists."""
    whole = _parsers_built(capsys, monkeypatch, ["--json"])
    after = COMMANDS.index("selberg") + 1
    assert whole == ["svjack"] + ["svjack " + path for path in
                                  COMMANDS[:after] + SELBERG_MODES + COMMANDS[after:]]
    assert _parsers_built(capsys, monkeypatch, ["--json"] + VERIFY_11) == \
        ["svjack", "svjack verify"]
    assert _parsers_built(capsys, monkeypatch, VERIFY_11) == ["svjack", "svjack verify"]
    assert _parsers_built(capsys, monkeypatch, ["selberg", "vanish", "-h"]) == \
        ["svjack", "svjack selberg"] + ["svjack " + path for path in SELBERG_MODES]
    for argv in ([], ["-h"], ["bogus"], ["--js"] + VERIFY_11, ["--json", "--json"] + VERIFY_11):
        assert set(_parsers_built(capsys, monkeypatch, argv)) == set(whole), argv
    code, out, err = main_outcome(capsys, ["--json", "bogus"])
    listed = ", ".join("'%s'" % name for name in COMMANDS)
    assert err == "usage error: argument command: invalid choice: 'bogus' " \
        "(choose from %s)\n" % listed


def test_singular_subcommand(capsys):
    code, doc = run_json(capsys, "singular", "--r", "3", "--s", "1", "--t", "sym")
    assert code == 0
    assert doc["result"]["level"] == "3/2"
    assert len(doc["result"]["terms"]) == 2
    _validate(doc)


def test_singular_11_document_keeps_the_field_of_t(capsys):
    """h_{1,1} = 0, so the only block is the 1x1 zero matrix; its kernel
    vector still lies in Q(t) at symbolic t and prints as a RatFun."""
    code, out = run_cli(capsys, "--json", "singular", "--r", "1", "--s", "1", "--t", "sym")
    assert code == 0
    assert out == (
        '{"command":"singular","ok":true,"parameters":{"r":1,"s":1,"t":"sym"},'
        '"result":{"level":"1/2","terms":[{"bosonic":[],"coeff":'
        '{"denom":[{"den":"1","num":"1"}],"numer":[{"den":"1","num":"1"}],"var":"t"},'
        '"fermionic":["1/2"]}]},"schema":"svjack-report/1"}\n')


@pytest.mark.parametrize("argv", ["verify --r 2 --s 2 --t 1", "verify --r 3 --s 1 --t -1"])
def test_verify_reports_a_vanishing_image(capsys, argv):
    """At t = +-1 the free-field image is 0: a failed check (exit 1) that
    names the vanishing image, not a missing leading monomial."""
    code, doc = run_json(capsys, *argv.split())
    words = argv.split()
    assert code == 1
    assert doc["error"] == ("VerificationFailure: the image of the (%s, %s) singular "
                            "vector vanishes" % (words[2], words[4]))


def test_a_failed_eigencheck_fails_verify_and_reproduce(capsys, monkeypatch):
    """The eigencheck is the verdict flag that can come out false without a
    raise: with the eigenvalue shifted, verify exits 1 with ok and eigencheck
    false, and the conjecture section of reproduce-paper fails."""
    from svjack import reproduce
    real = fock.eps1
    monkeypatch.setattr(fock, "eps1", lambda lam, gamma: real(lam, gamma) + 1)
    code, out = run_cli(capsys, "--json", "verify", "--r", "2", "--s", "2")
    assert code == 1
    assert '"ok":false' in out and '"eigencheck":false' in out
    assert reproduce.run_conjecture(4)["status"] == "fail"


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
