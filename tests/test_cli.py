import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bpbmod
from bpbmod import pi_set
from bpbmod.cli import main


GOLDEN = Path(__file__).with_name("golden")
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(argv) -> int:
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_psi_range_rows(capsys):
    code, out = run(capsys, "psi", "--mu", "1", "--theta", "1",
                    "--delta", "0.1:0.5:0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,psi,min_bound,lower_bound,note"
    assert len(lines) == 6  # header + 5 rows, both range ends included
    for line in lines[1:]:
        delta, value = line.split(",")[:2]
        assert float(value) == pytest.approx(math.sqrt(2 * float(delta)), abs=1e-12)


def test_psi_single_value(capsys):
    code, out = run(capsys, "psi", "--mu", "0.5", "--theta", "0.8",
                    "--delta", "1.25")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(1.5, abs=1e-12)


def test_psi_regime_row_flagged_not_fatal(capsys):
    code, out = run(capsys, "psi", "--mu", "0.1", "--theta", "0.1",
                    "--delta", "0.2")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert "regime" in row
    assert row.startswith("0.2,,")


def test_bound_includes_nonsquare_column(capsys):
    code, out = run(capsys, "bound", "--mu", "1", "--theta", "1",
                    "--delta", "0.2", "--alpha-tilde", "0.58")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(
        math.sqrt(0.4) * math.sqrt(1 - 0.58 / 3), abs=1e-12)


def test_distance_json(capsys):
    code, out = run(capsys, "distance", "--space", "l2:2", "--x", "1,0",
                    "--f", "0,1", "--resolution", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bpb/1"
    assert doc["closed_form"] == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-12)
    assert doc["discrepancy"] <= 1e-3


def test_distance_linf_case(capsys):
    code, out = run(capsys, "distance", "--space", "linf:2", "--x", "1,-0.5",
                    "--f", "0,0.5", "--resolution", "200")
    assert code == 0
    assert json.loads(out)["witness"]["distance"] == pytest.approx(1.5, abs=1e-6)


def test_distance_real_line(capsys):
    code, out = run(capsys, "distance", "--space", "r:1", "--x", "0.5",
                    "--f", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["distance"] == pytest.approx(0.5, abs=1e-12)
    assert doc["closed_form"] == pytest.approx(0.5, abs=1e-12)


def test_modulus_csv(capsys):
    code, out = run(capsys, "modulus", "--space", "linf:2", "--mode", "sphere",
                    "--delta", "0.5", "--resolution", "160")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,estimate,mesh_error,sqrt_2delta,closed_form,note"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(1.0, abs=5e-3)
    assert row[2] != ""  # mesh error always emitted alongside the estimate
    assert float(row[4]) == pytest.approx(1.0, abs=1e-12)


def test_modulus_mut_sum1(capsys):
    code, out = run(capsys, "modulus", "--space", "sum1(r:1,r:1)", "--mode", "mut",
                    "--mu", "0.9", "--theta", "0.9", "--delta", "0.4",
                    "--resolution", "200")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(0.7480740698407862, abs=5e-3)
    assert float(row[4]) == pytest.approx(0.7480740698407862, abs=1e-12)


def test_modulus_mut_at_saturation_prints_the_diagonal(capsys):
    # mu * theta == 1 - delta in floating point: no mesh pair is feasible,
    # and the diagonal pairs (mu y, theta g) give the exact value
    code, out = run(capsys, "modulus", "--space", "linf:3", "--mode", "mut", "--mu", "1",
                    "--theta", "0.7", "--delta", "0.3", "--resolution", "12")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert (row[1], row[2], row[5]) == ("0.30000000000000004", "0.0", "")


def test_alpha_command(capsys):
    code, out = run(capsys, "alpha", "--space", "l2:2", "--self-dual",
                    "--resolution", "160")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(2 - math.sqrt(2), abs=1e-3)


def test_convexity_command(capsys):
    code, out = run(capsys, "convexity", "--space", "l2:2", "--eps", "1.0:2.0:0.5",
                    "--resolution", "400")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)


def test_corrector_command(capsys):
    code, out = run(capsys, "corrector", "--space", "l2:2", "--x", "1,0",
                    "--f", "1,0", "--delta", "0.1", "--alpha-tilde", "0.58",
                    "--resolution", "160")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["distance"] == pytest.approx(0.0, abs=1e-9)
    assert doc["slack_x"] >= 0 and doc["slack_f"] >= 0


def test_witness_command(capsys):
    code, out = run(capsys, "witness", "--family", "linf2", "--mu", "1",
                    "--theta", "1", "--delta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == [1.0, 0.0]
    assert doc["f"] == [0.5, 0.5]
    assert doc["predicted_distance"] == pytest.approx(1.0, abs=1e-12)


def test_verify_hilbert_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "hilbert")
    assert code == 0
    assert "OK" in out
    assert all(line.startswith(("PASS", "OK")) for line in out.strip().splitlines())


def test_poly_space_from_file(tmp_path, capsys):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps({"vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]]}))
    code, out = run(capsys, "distance", "--space", f"poly:@{path}", "--x", "0.5,0",
                    "--f", "0.5,0", "--resolution", "64")
    assert code == 0
    assert json.loads(out)["witness"]["distance"] == pytest.approx(0.5, abs=1e-9)


def test_one_dimensional_poly_space_from_file(tmp_path, capsys):
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({"vertices": [[2], [-2]]}))
    code, out = run(capsys, "distance", "--space", f"poly:@{path}", "--x", "1.9",
                    "--f", "0.5", "--resolution", "64")
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness["distance"] == pytest.approx(0.05, abs=1e-12)
    assert (witness["y"], witness["g"]) == ([2.0], [0.5])


def test_exit_code_usage_error(capsys):
    assert main(["distance", "--space", "bogus", "--x", "1", "--f", "1"]) == 2


def test_exit_code_regime_error(capsys):
    assert main(["witness", "--family", "linf2", "--mu", "0.1", "--theta", "0.1",
                 "--delta", "0.2"]) == 3
    assert main(["corrector", "--space", "l2:2", "--x", "1,0", "--f", "1,0",
                 "--delta", "0.1", "--k", "0.7", "--alpha-tilde", "0.58"]) == 3


def test_byte_identical_outputs(tmp_path):
    argv = ["modulus", "--space", "l2:2", "--mode", "sphere", "--delta",
            "0.2:0.6:0.2", "--resolution", "160"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_byte_identical_json(tmp_path):
    argv = ["distance", "--space", "linf:2", "--x", "0.9,0.1", "--f", "0.7,0.2",
            "--resolution", "120"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# (name, arguments) of each command of golden/argv
ARGV = [line.split(" ", 1) for line in (GOLDEN / "argv").read_text().splitlines()
        if line and not line.startswith("#")]
# the README's CLI examples, as the shell passes their arguments
_README_ARGS = {" ".join(shlex.split(line)[1:]) for line in README.read_text().splitlines()
           if line.startswith("bpbmod ")}
README_EXAMPLES = {name: args for name, args in ARGV if name != "usage" and args in _README_ARGS}
REFINEMENT_EXAMPLES = {name: args for name, args in ARGV
                       if name != "usage" and args not in _README_ARGS}


def _assert_golden(name, argv, capsys):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_examples_match_golden(name, capsys):
    _assert_golden(name, README_EXAMPLES[name], capsys)


@pytest.mark.parametrize("name", sorted(REFINEMENT_EXAMPLES))
def test_refinement_examples_match_golden(name, capsys):
    _assert_golden(name, REFINEMENT_EXAMPLES[name], capsys)


@pytest.mark.parametrize("argv", [args for name, args in ARGV if name == "usage"])
def test_malformed_input_exits_2(argv, capsys):
    assert exit_code(argv.split()) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err
    if "--resolution" in argv:
        assert "resolution" in err


def test_modulus_beyond_the_memory_ceiling_exits_3(capsys):
    # 160,000 sphere points a side at the default resolution: the distance
    # rows alone would take 191 GiB
    start = time.perf_counter()
    assert exit_code("modulus --space l2:3 --mode sphere --delta 0.5".split()) == 3
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("regime error:")
    assert "GiB" in lines[0] and "--resolution" in lines[0]


def test_modulus_past_a_lowered_memory_ceiling_exits_3(monkeypatch, capsys):
    # a 2-d sphere sweep at the default resolution needs about 1.2 MiB of
    # functional distance rows; a 1 MiB ceiling refuses it
    monkeypatch.setattr(pi_set, "_DF_BYTES_MAX", 1 << 20)
    assert exit_code("modulus --space l2:2 --mode sphere --delta 0.5".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("regime error: the pair sweep needs")
    assert line.endswith("lower --resolution")


def test_sphere_mesh_past_a_lowered_memory_ceiling_exits_3(monkeypatch, capsys):
    # 1,000 points of l2:4 at resolution 10 take 32,000 bytes; a 16 KiB
    # ceiling refuses them before the draw, unless a cache already holds them
    pi_set._cached_pi_sample.cache_clear()
    pi_set._sphere_mesh.cache_clear()
    monkeypatch.setattr(pi_set, "_MESH_BYTES_MAX", 1 << 14)
    argv = "distance --space l2:4 --x 1,0,0,0 --f 0,1,0,0 --resolution 10".split()
    assert exit_code(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("regime error: the unit-sphere mesh needs")
    assert line.endswith("lower --resolution")


def test_alpha_dim4_runs_at_the_capped_resolution(capsys):
    code, out = run(capsys, "alpha", "--space", "l2:4")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert abs(float(row["alpha"]) - (2.0 - math.sqrt(2.0))) <= float(row["mesh_error"])


_IMPORT_HYGIENE = """
import contextlib
import io
import json
import sys

import bpbmod
import bpbmod.cli
from bpbmod import Polytope, SpaceError
from bpbmod.verify import hexagon

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert bpbmod.cli.main(argv) == 0, argv
try:
    Polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
except SpaceError as exc:
    assert str(exc) == "vertex hull has empty interior", exc
else:
    raise AssertionError("a flat vertex list built a polytope")
hexagon()
cube = Polytope([[a, b, c] for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)])
cube.dual()
assert not any(m.partition(".")[0] == "scipy" for m in sys.modules), \
    sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_cli_and_polytopes_load_no_scipy():
    # a fresh process: this one has long since loaded scipy.  It runs every
    # README command (verify at its default resolution) and builds polytopes.
    commands = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                if line.startswith("bpbmod ") and not line.startswith("bpbmod verify")]
    commands.append(["verify", "--suite", "all"])
    src = str(Path(bpbmod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _IMPORT_HYGIENE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
