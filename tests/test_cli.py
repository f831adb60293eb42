import csv
import io
import json
import math
import time
from pathlib import Path

import pytest

from bpbmod.cli import main


GOLDEN = Path(__file__).with_name("golden")


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


def test_exit_code_usage_error(capsys):
    assert main(["distance", "--space", "bogus", "--x", "1", "--f", "1"]) == 2


def test_exit_code_regime_error(capsys):
    assert main(["witness", "--family", "linf2", "--mu", "0.1", "--theta", "0.1",
                 "--delta", "0.2"]) == 3
    assert main(["corrector", "--space", "l2:2", "--x", "1,0", "--f", "1,0",
                 "--delta", "0.1", "--k", "0.7", "--alpha-tilde", "0.58"]) == 3


def test_byte_identical_outputs(tmp_path):
    argv = ["modulus", "--space", "l2:2", "--mode", "sphere", "--delta",
            "0.2:0.6:0.2", "--resolution", "160", "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_byte_identical_json(tmp_path):
    argv = ["distance", "--space", "linf:2", "--x", "0.9,0.1", "--f", "0.7,0.2",
            "--resolution", "120", "--format", "json"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BPB_SEED", "99")
    code, _ = run(capsys, "alpha", "--space", "l2:2", "--resolution", "160")
    assert code == 0
    monkeypatch.setenv("BPB_THREADS", "2")
    code, _ = run(capsys, "alpha", "--space", "l2:2", "--resolution", "160")
    assert code == 0


# the README's CLI examples, other than verify, with their recorded stdout
README_EXAMPLES = {
    "psi": "psi --mu 1 --theta 1 --delta 0.1:0.5:0.1",
    "distance": "distance --space l2:2 --x 1,0 --f 0,1",
    "modulus_sphere": "modulus --space linf:2 --mode sphere --delta 0.5",
    "modulus_mut": "modulus --space sum1(r:1,r:1) --mode mut --mu 0.9 --theta 0.9 --delta 0.4",
    "alpha": "alpha --space l2:2 --self-dual",
    "convexity": "convexity --space l2:2 --eps 0.5:2.0:0.5",
    "corrector": "corrector --space l2:2 --x 1,0 --f 1,0 --delta 0.1 --alpha-tilde 0.58",
    "witness": "witness --family linf2 --mu 1 --theta 1 --delta 0.5",
}


# commands whose outputs pin refinement paths the README examples do not
# reach: the ball-mode and lp alpha zooms, a distance whose sweep profile
# has two basins, a distance that the dual-face stage sets (0.0065, where
# the sample alone gives 0.0191), and the corrector's sweep zoom
REFINEMENT_EXAMPLES = {
    "modulus_ball": "modulus --space linf:2 --mode ball --delta 0.5 --resolution 160",
    "alpha_lp": "alpha --space lp:2:p=1.5 --resolution 160",
    "distance_lp": "distance --space lp:2:p=1.5 --x 1,0.3 --f 0.2,1",
    "distance_l1": "distance --space l1:2 --x 0.9935,0 --f 0.9938,0.3391",
    "corrector_lp": "corrector --space lp:2:p=1.5 --x 0.7651485317423954,0.47821783233899706"
                    " --f 0.9879506340125244,0.32931687800417475 --delta 0.1 --k 0.0003"
                    " --alpha-tilde 0.58",
}


def _assert_golden(name, argv, monkeypatch, capsys):
    monkeypatch.delenv("BPB_SEED", raising=False)
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_examples_match_golden(name, monkeypatch, capsys):
    _assert_golden(name, README_EXAMPLES[name], monkeypatch, capsys)


@pytest.mark.parametrize("name", sorted(REFINEMENT_EXAMPLES))
def test_refinement_examples_match_golden(name, monkeypatch, capsys):
    _assert_golden(name, REFINEMENT_EXAMPLES[name], monkeypatch, capsys)


@pytest.mark.parametrize("argv", [
    "modulus --space l2:2 --mode sphere --delta 0.5 --resolution 4",
    "modulus --space l2:2 --mode sphere --delta 0.5 --threads 0",
    "distance --space lp:2:p=0.5 --x 1,0 --f 1,0",
    "distance --space l2:2 --x 1,0,0 --f 1,0",
    "distance --space l2:2 --x nan,0 --f 1,0",
    "alpha --space l2:5",
    "corrector --space l2:2 --x 1,0 --f 0,1 --delta 0.1 --alpha-tilde 0.58",
])
def test_malformed_input_exits_2(argv, capsys):
    assert exit_code(argv.split()) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err


def test_threads_flag_does_not_change_output(monkeypatch, capsys):
    argv = ["modulus", "--space", "linf:2", "--mode", "ball", "--delta", "0.5",
            "--resolution", "160"]
    _, one = run(capsys, *argv, "--threads", "1")
    _, two = run(capsys, *argv, "--threads", "2")
    monkeypatch.setenv("BPB_THREADS", "4")
    _, env = run(capsys, *argv)
    assert one == two == env


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


def test_alpha_dim4_runs_at_the_capped_resolution(capsys):
    code, out = run(capsys, "alpha", "--space", "l2:4")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert abs(float(row["alpha"]) - (2.0 - math.sqrt(2.0))) <= float(row["mesh_error"])
