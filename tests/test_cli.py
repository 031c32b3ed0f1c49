"""End-to-end command-line behavior: files, verdicts, exit codes."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import stratabias
from stratabias import __version__, cli, datagen
from stratabias.cli import main
from stratabias.params import load_bundled
from stratabias.quadrature import null_stratum_effect

MANIFEST_KEYS = {"scenario_label", "command", "timestamp", "seed",
                 "version", "outputs", "duration_seconds"}


def scenario_file(tmp_path, name="scenario.json", **over):
    doc = load_bundled("full_null_demo").to_dict()
    doc.update(label="cli-test", n=30_000, seed=777)
    doc.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def module_env(**extra):
    """Environment in which ``python -m stratabias.cli`` imports this
    checkout's package, installed or not."""
    src = str(Path(stratabias.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_simulate_writes_tables(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", scenario_file(tmp_path), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cli-test" in text and "adherence" in text

    subjects = (out / "subjects.csv").read_text().splitlines()
    assert subjects[0].startswith("id,x,t,z0_1")
    assert len(subjects) == 1 + 30_000
    observed = (out / "observed.csv").read_text().splitlines()
    assert observed[0] == "id,x,t,z_1,z_2,z_3,a,y"


@pytest.mark.parametrize("command, extra, outputs", [
    ("simulate", [], ["subjects.csv", "observed.csv"]),
    ("true-effect", [], ["effects.csv"]),
    ("calibrate", ["--R", "4"], ["calibration.csv", "fit.csv"]),
])
def test_manifest_records_the_run(tmp_path, capsys, command, extra, outputs):
    out = tmp_path / "run"
    rc = main([command, scenario_file(tmp_path, n=6_000), *extra,
               "--out", str(out)])
    assert rc == 0
    manifest = read_manifest(out)
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["scenario_label"] == "cli-test"
    assert manifest["seed"] == 777
    assert manifest["version"] == __version__
    assert manifest["outputs"] == outputs
    printed = capsys.readouterr().out.splitlines()
    assert printed[-len(outputs):] == [f"wrote {out / name}"
                                       for name in outputs]


def test_bad_parameter_is_a_config_error(tmp_path, capsys):
    rc = main(["simulate", scenario_file(tmp_path, sigma_x=-1.0),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "sigma_x" in capsys.readouterr().err


def test_config_error_creates_no_directory(tmp_path, capsys):
    """A failing run leaves no --out directory, whether its scenario
    fails to load or the work fails after it loaded."""
    runs = [
        (["simulate", scenario_file(tmp_path, "bad.json", sigma_x=-1.0)], 2),
        (["true-effect", scenario_file(tmp_path), "--nodes", "1"], 2),
        (["calibrate", scenario_file(tmp_path, "small.json", n=6_000),
          "--R", "1"], 2),
        (["calibrate", scenario_file(tmp_path, "singular.json", n=20_000,
                                     sigma_eta=0.0), "--threads", "1"], 1),
    ]
    for args, code in runs:
        out = tmp_path / "never" / "made"
        assert main([*args, "--out", str(out)]) == code, args
        assert not (tmp_path / "never").exists(), args


def test_missing_scenario_file_is_io_failure(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_output_path_collision_is_io_failure(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    rc = main(["simulate", scenario_file(tmp_path), "--out", str(target)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_true_effect_reports_agreement(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["true-effect", scenario_file(tmp_path), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "S_++" in text and "quadrature" in text
    assert "-> AGREE" in text

    lines = (out / "effects.csv").read_text().splitlines()
    assert lines[0] == "scenario_label,stratum,n_members,value,se"
    codes = [ln.split(",")[1] for ln in lines[1:]]
    assert codes == ["S_++", "S_*+", "S_*+[quadrature]"]
    quad_row = lines[3].split(",")
    assert quad_row[2] == "0" and float(quad_row[4]) == 0.0


def test_true_effect_mc_only_skips_quadrature(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["true-effect", scenario_file(tmp_path), "--method", "mc",
               "--n", "5000", "--out", str(out)])
    assert rc == 0
    lines = (out / "effects.csv").read_text().splitlines()
    assert len(lines) == 3  # header, S_++, S_*+
    assert "quadrature" not in (out / "effects.csv").read_text()


def test_true_effect_off_the_outcome_null(tmp_path, capsys, monkeypatch):
    """beta2 and alpha2 open the outcome pathway: the closed form adds
    their patient-level effect, agrees with MC, and ``--method
    quadrature`` reports the closed form alone, drawing no subject."""
    scen = scenario_file(tmp_path, beta2=0.3, alpha2=[0.2, -0.1, 0.3])
    out = tmp_path / "both"
    assert main(["true-effect", scen, "--out", str(out)]) == 0
    assert "-> AGREE" in capsys.readouterr().out
    both_rows = (out / "effects.csv").read_text().splitlines()

    def no_draws(*args):
        raise AssertionError("--method quadrature drew subjects")
    monkeypatch.setattr(datagen, "generate_block", no_draws)
    out = tmp_path / "quad"
    assert main(["true-effect", scen, "--method", "quadrature",
                 "--out", str(out)]) == 0
    lines = (out / "effects.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["S_*+[quadrature]"]
    assert lines[1] == both_rows[3]
    # delta = beta2 + sum_k beta3_k alpha2_k plus the selection term of a
    # model whose arm 1 adheres alike: alpha2 folded into alpha0
    folded = dataclasses.replace(load_bundled("full_null_demo").params,
                                 alpha0=(0.2, -0.1, 0.3))
    want = 0.3 + 0.4 * (0.2 - 0.1 + 0.3) + null_stratum_effect(folded)
    assert abs(float(lines[1].split(",")[3]) - want) <= 1e-15


def test_calibrate_naive_flags_the_bias(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["calibrate", scenario_file(tmp_path, n=20_000),
               "--estimator", "naive", "--R", "8", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mean offset" in text
    # naive offsets sit at zero; the true stratum effect is ~0.14
    assert "MISMATCH" in text

    lines = (out / "calibration.csv").read_text().splitlines()
    assert lines[0] == ("scenario_label,estimator,R,mean_offset,"
                        "se_offset,n_failed_splits")
    assert lines[1].split(",")[1] == "naive"
    # the naive estimator fits no visit model, so there is no fit.csv
    assert not (out / "fit.csv").exists()
    assert read_manifest(out)["outputs"] == ["calibration.csv"]


def test_calibrate_plugin_small_run(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["calibrate", scenario_file(tmp_path, n=6_000), "--R", "4",
               "--out", str(out)])
    assert rc == 0
    row = (out / "calibration.csv").read_text().splitlines()[1]
    assert row.split(",")[1] == "plugin"
    assert row.split(",")[2] == "4"


def test_simulate_reruns_are_byte_identical(tmp_path):
    scen = scenario_file(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", scen, "--out", str(out1)]) == 0
    assert main(["simulate", scen, "--out", str(out2)]) == 0
    for name in ("subjects.csv", "observed.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1, m2 = read_manifest(out1), read_manifest(out2)
    for volatile in ("timestamp", "duration_seconds"):
        m1.pop(volatile), m2.pop(volatile)
    assert m1 == m2


def test_bad_choice_exits_via_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", scenario_file(tmp_path),
              "--estimator", "oracle"])
    assert exc.value.code == 2


def test_installed_entry_point():
    exe = shutil.which("stratabias")
    assert exe, "console script not installed"
    got = subprocess.run([exe, "--version"], capture_output=True,
                         text=True, check=True)
    assert __version__ in got.stdout


def test_module_help_lists_subcommands():
    helptext = subprocess.run(
        [sys.executable, "-m", "stratabias.cli", "--help"], env=module_env(),
        capture_output=True, text=True, check=True).stdout
    for sub in ("simulate", "true-effect", "calibrate", "paper-demo"):
        assert sub in helptext


@pytest.mark.parametrize("case, args, code", [
    ("refinement fails", ["--method", "quadrature", "--nodes", "2"], 1),
    ("malformed JSON", ["--method", "quadrature"], 2),
    ("one node", ["--method", "quadrature", "--nodes", "1"], 2),
    ("non-finite rule", ["--method", "quadrature", "--nodes", "186"], 2),
    ("no threads", ["--threads", "0"], 2),
])
@pytest.mark.filterwarnings("error")
def test_true_effect_exit_codes(tmp_path, capsys, case, args, code):
    scen = scenario_file(tmp_path)
    if case == "malformed JSON":
        scen = tmp_path / "broken.json"
        scen.write_text('{"label": "broken", "n": ')
    rc = main(["true-effect", str(scen), *args,
               "--out", str(tmp_path / "r")])
    assert rc == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate"])
def test_threads_only_where_used(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, scenario_file(tmp_path), "--threads", "2",
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_default_threads_are_the_usable_cpus(monkeypatch):
    """``--threads`` defaults to the CPUs this process may run on: its
    affinity set, which ``taskset`` or a cpuset narrows, not every CPU of
    the host; without an affinity call, to ``os.cpu_count()``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for argv in (["true-effect", "s.json"], ["calibrate", "s.json"],
                 ["paper-demo"]):
        assert cli._build_parser().parse_args(argv).threads == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._build_parser().parse_args(["paper-demo"]).threads == 64


@pytest.mark.parametrize("name", ["full_null_demo", "partial_null_gamma2"])
def test_true_effect_is_byte_identical_across_threads(tmp_path, monkeypatch,
                                                      name):
    """26 blocks of 777 subjects; a barrier holds each thread's first block
    until every thread has one, so each of the 1, 2 or 8 threads makes
    blocks, and ``effects.csv`` does not depend on how many there are."""
    monkeypatch.setattr(datagen, "_CHUNK", 777)
    make = datagen.generate_block
    scen = Path(stratabias.__file__).parent / "scenarios" / f"{name}.json"
    effects = []
    for threads in (1, 2, 8):
        barrier, seen = threading.Barrier(threads, timeout=60), set()

        def block(*args):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                barrier.wait()
            return make(*args)
        monkeypatch.setattr(datagen, "generate_block", block)
        out = tmp_path / str(threads)
        assert main(["true-effect", str(scen), "--n", "20011", "--threads",
                     str(threads), "--out", str(out)]) == 0
        assert len(seen) == threads
        effects.append((out / "effects.csv").read_bytes())
    assert effects[0] == effects[1] == effects[2]


@pytest.fixture
def blocks_only(monkeypatch):
    """The rows of every ``SubjectData`` made, with ``generate`` raising:
    a command that builds no potential-outcome table makes only blocks."""
    rows = []

    class Recorded(datagen.SubjectData):
        def __init__(self, ids, *columns):
            rows.append(len(ids))
            super().__init__(ids, *columns)

    def refuse(config):
        raise AssertionError("generate() builds the whole table")
    monkeypatch.setattr(datagen, "SubjectData", Recorded)
    for module in (datagen, cli):
        monkeypatch.setattr(module, "generate", refuse)
    return rows


def test_calibrate_observes_block_by_block(tmp_path, monkeypatch,
                                           blocks_only):
    """``calibrate`` projects 8 blocks of at most 777 subjects into the
    observed table, and its CSVs do not depend on the thread count."""
    monkeypatch.setattr(datagen, "_CHUNK", 777)
    scen = scenario_file(tmp_path, n=6_000)
    outs = [tmp_path / str(threads) for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        assert main(["calibrate", scen, "--R", "20", "--threads",
                     str(threads), "--out", str(out)]) == 0
    assert max(blocks_only) == 777 and sum(blocks_only) == 2 * 6_000
    for name in ("calibration.csv", "fit.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_paper_demo_builds_no_trial_table(tmp_path, blocks_only):
    """Every scenario the demo draws is generated in blocks, once per
    streamed pass: ``full_null_demo`` twice, as claim 1 streams the
    oracle's sums and then the bias decomposition's, and each other
    drawn scenario once."""
    assert main(["paper-demo", "--threads", "2",
                 "--out", str(tmp_path / "r")]) == 0
    sizes = [load_bundled(name).n
             for name in stratabias.bundled_scenario_names()]
    assert max(blocks_only) <= datagen._CHUNK < min(sizes)
    drawn = ("full_null_demo", "full_null_demo", "zero_beta3", "zero_gamma3",
             "partial_null_gamma2")
    assert sum(blocks_only) == sum(load_bundled(name).n for name in drawn)


@pytest.mark.parametrize("args, message", [
    (["--R", "1"], "R must be >= 2, got 1"),
    (["--threads", "0"], "threads must be >= 1, got 0")])
def test_calibrate_refuses_bad_rounds_before_drawing(tmp_path, capsys,
                                                      monkeypatch, args,
                                                      message):
    def refuse(*a, **k):
        raise AssertionError("observe ran before the arguments were checked")
    monkeypatch.setattr(cli, "observe", refuse)
    out = tmp_path / "r"
    assert main(["calibrate", scenario_file(tmp_path), *args,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["true-effect", "{scen}", "--method", "quadrature"],
    ["true-effect", "{scen}", "--method", "both"],
    ["calibrate", "{scen}"],
    ["paper-demo"]])
def test_zero_threads_are_refused_before_any_work(tmp_path, capsys,
                                                  monkeypatch, argv):
    """Every subcommand with ``--threads`` refuses 0 before it evaluates
    a closed form or draws a subject, and leaves no output directory."""
    def refuse(*a, **k):
        raise AssertionError("work ran before the thread count was checked")
    monkeypatch.setattr(cli, "null_stratum_effect", refuse)
    monkeypatch.setattr(cli, "observe", refuse)
    scen, out = scenario_file(tmp_path), tmp_path / "r"
    assert main([a.format(scen=scen) for a in argv]
                + ["--threads", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: threads must be >= 1, got 0\n"
    assert not out.exists()


# (code, whether it loads scipy) run in a fresh interpreter
_SCENARIOS = Path(stratabias.__file__).parent / "scenarios"
_SCIPY_FREE = {
    "import": ("import stratabias", False),
    "closed form": (
        "from stratabias import (bundled_scenario_names, load_bundled,\n"
        "                        null_stratum_effect)\n"
        "for name in bundled_scenario_names():\n"
        "    null_stratum_effect(load_bundled(name).params)", False),
    "true-effect quadrature": (
        "from stratabias import bundled_scenario_names, cli\n"
        "for name in bundled_scenario_names():\n"
        f"    path = r'{_SCENARIOS}/' + name + '.json'\n"
        "    assert cli.main(['true-effect', path, '--method', 'quadrature',\n"
        "                     '--out', 'out_' + name]) == 0", False),
    "argparse exits": (
        "from stratabias import cli\n"
        "for argv in (['--version'], ['--help'], ['calibrate']):\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass", False),
    "calibrate refusal": (
        "from stratabias import cli\n"
        f"assert cli.main(['calibrate', r'{_SCENARIOS}/full_null_demo.json',\n"
        "                 '--R', '1']) == 2", False),
    "one block drawn": (
        "import numpy as np\n"
        "from stratabias import generate_block, load_bundled\n"
        "generate_block(load_bundled('full_null_demo').params, 1,\n"
        "               np.arange(4))", True),
}


@pytest.mark.parametrize("case", sorted(_SCIPY_FREE))
def test_scipy_is_loaded_only_to_draw_or_fit(tmp_path, case):
    """The closed form and the CLI's startup run on numpy alone; drawing a
    block loads ``scipy.special``, which shows that the check can fail.
    The test process has scipy loaded, so the code runs in a fresh one."""
    code, loads = _SCIPY_FREE[case]
    script = code + ("\nimport sys\n"
                     "print('scipy' in sys.modules,"
                     " 'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=module_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{loads} {loads}"


def test_calibrate_always_keeps_outcomes(tmp_path, capsys):
    """The plug-in's arm-0 outcome line needs non-adherers' outcomes (on
    adherers only its offset collapses toward 0), so ``calibrate`` has no
    option to censor them and ``--no-keep-y`` is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", scenario_file(tmp_path, n=6_000), "--no-keep-y",
              "--R", "4", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--no-keep-y" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_calibrate_singular_design_fails_before_splitting(tmp_path, capsys):
    doc = load_bundled("sigma_eta_zero").to_dict()
    doc.update(n=20_000)
    scen = tmp_path / "sigma_eta_zero.json"
    scen.write_text(json.dumps(doc))
    rc = main(["calibrate", str(scen), "--threads", "1",
               "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "singular information matrix" in err
    assert "replicates failed" not in err


def test_calibrate_naive_needs_no_visit_fit(tmp_path, capsys):
    """The naive estimator reads no arm-1 visit model, so a design that
    the plug-in cannot fit (sigma_eta = 0) still calibrates."""
    doc = load_bundled("sigma_eta_zero").to_dict()
    doc.update(n=20_000)
    scen = tmp_path / "sigma_eta_zero.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "r"
    rc = main(["calibrate", str(scen), "--estimator", "naive", "--R", "20",
               "--threads", "1", "--out", str(out)])
    assert rc == 0
    assert "-> MATCH" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["calibration.csv",
                                                     "manifest.json"]


def test_calibration_is_independent_of_blas_threads(tmp_path):
    """No sum over subjects goes through BLAS, whose thread count would
    change the summation order and so the last bits of every offset."""
    pkg = Path(stratabias.__file__).parent
    outs = []
    for blas in ("1", "2"):
        outs.append(tmp_path / f"blas{blas}")
        subprocess.run(
            [sys.executable, "-m", "stratabias.cli", "calibrate",
             str(pkg / "scenarios" / "partial_null_gamma2.json"), "--R", "4",
             "--threads", "1", "--out", str(outs[-1])],
            env=module_env(OPENBLAS_NUM_THREADS=blas), check=True,
            capture_output=True, timeout=600)
    for name in ("calibration.csv", "fit.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_plugin_se_is_independent_of_blas_threads():
    """The plug-in's value and sandwich SE are bitwise the same whatever
    BLAS's thread count: every sum over subjects is a numpy sum."""
    # n = 2e5: OpenBLAS splits a dot product across threads only when it
    # is long enough for the order of summation to change
    code = ("from stratabias import estimate_plugin, generate, load_bundled,"
            " observe\n"
            "obs = observe(generate(load_bundled('partial_null_gamma2')),"
            " keep_y_after_dropout=True)\n"
            "est = estimate_plugin(obs)\n"
            "print(repr(est.value), repr(est.se))\n")
    runs = [subprocess.run([sys.executable, "-c", code], check=True,
                           env=module_env(OPENBLAS_NUM_THREADS=blas),
                           capture_output=True, text=True, timeout=600).stdout
            for blas in ("1", "2")]
    assert runs[0] == runs[1] and "nan" not in runs[0]
