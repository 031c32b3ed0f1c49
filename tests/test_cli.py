"""End-to-end command-line behavior: files, verdicts, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stratabias
from stratabias import __version__
from stratabias.cli import main
from stratabias.params import load_bundled

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
        (["true-effect", scenario_file(tmp_path, "beta2.json", beta2=0.3),
          "--method", "quadrature"], 2),
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


def test_true_effect_outside_closed_form_domain(tmp_path, capsys):
    rc = main(["true-effect", scenario_file(tmp_path, beta2=0.3),
               "--method", "quadrature", "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "beta2" in err and "Monte Carlo" in err


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
    fit_lines = (out / "fit.csv").read_text().splitlines()
    assert len(fit_lines) == 1 + 3
    assert read_manifest(out)["outputs"] == ["calibration.csv", "fit.csv"]


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


@pytest.mark.parametrize("command", ["simulate", "true-effect"])
def test_threads_only_where_used(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, scenario_file(tmp_path), "--threads", "2",
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


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
