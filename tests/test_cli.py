import json
import subprocess
import sys

import pytest

import hmpident as hi
from hmpident.cli import main
from hmpident.jsonio import write_json
from conftest import (control_distribution, fair_coin_params,
                      near_degenerate_params)
from test_identify import count_block_builds


def write_fair_coin(tmp_path):
    params_path = tmp_path / "params.json"
    hi.save_params(fair_coin_params(), params_path)
    return str(params_path)


def write_near_degenerate(tmp_path, gap=1e-9):
    path = tmp_path / "nd.json"
    hi.save_distribution(hi.full_distribution(near_degenerate_params(gap), 3), path)
    return str(path)


def test_simulate_then_identify_pipeline(tmp_path, capsys):
    params_path = write_fair_coin(tmp_path)
    dist_path = str(tmp_path / "dist.json")
    verdict_path = str(tmp_path / "verdict.json")
    assert main(["simulate", "--params", params_path, "--length", "3",
                 "--out", dist_path]) == 0
    assert main(["identify", "--dist", dist_path, "--out", verdict_path]) == 0
    payload = json.loads(open(verdict_path).read())
    assert payload["verdict"] == "hmp"
    assert payload["states"] == 1
    assert payload["max_residual"] <= 1e-6
    assert "hmp on 1 states" in capsys.readouterr().out


def test_identify_no_hmp_exit(tmp_path):
    dist_path = str(tmp_path / "control.json")
    hi.save_distribution(control_distribution(), dist_path)
    out_path = str(tmp_path / "verdict.json")
    assert main(["identify", "--dist", dist_path, "--out", out_path]) == 2
    assert json.loads(open(out_path).read())["verdict"] == "no_hmp"


def test_identify_cannot_decide_exit(tmp_path):
    assert main(["identify", "--dist", write_near_degenerate(tmp_path)]) == 3


def test_identify_prints_kind_and_reason(tmp_path, capsys):
    dist_path = str(tmp_path / "control.json")
    hi.save_distribution(control_distribution(), dist_path)
    assert main(["identify", "--dist", dist_path]) == 2
    assert main(["identify", "--dist", write_near_degenerate(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "no_hmp: no state count up to 2 fits",
        "cannot_decide: borderline rank",
    ]


def test_paper_literal_remaps_cannot_decide(tmp_path):
    dist_path = write_near_degenerate(tmp_path)
    out_path = str(tmp_path / "verdict.json")
    assert main(["identify", "--dist", dist_path, "--paper-literal",
                 "--out", out_path]) == 2
    payload = json.loads(open(out_path).read())
    assert payload["verdict"] == "no_hmp"
    assert payload["literal_remap"] is True


def test_paper_literal_leaves_clear_verdicts_alone(tmp_path):
    params_path = write_fair_coin(tmp_path)
    dist_path = str(tmp_path / "dist.json")
    out_path = str(tmp_path / "verdict.json")
    main(["simulate", "--params", params_path, "--length", "3", "--out", dist_path])
    assert main(["identify", "--dist", dist_path, "--paper-literal",
                 "--out", out_path]) == 0
    assert "literal_remap" not in json.loads(open(out_path).read())


def test_tolerance_flags_change_the_decision(tmp_path):
    # a coarser rank tolerance moves the near-degenerate input out of the
    # borderline band, and its distribution is rank 1 for all practical purposes
    dist_path = write_near_degenerate(tmp_path)
    assert main(["identify", "--dist", dist_path, "--rel-rank-tol", "1e-5"]) == 0


def test_rank_command(tmp_path, capsys):
    dist_path = str(tmp_path / "control.json")
    hi.save_distribution(control_distribution(), dist_path)
    out_path = str(tmp_path / "ranks.json")
    assert main(["rank", "--dist", dist_path, "--out", out_path]) == 0
    payload = json.loads(open(out_path).read())
    assert payload["n"] == 3
    wide = [b for b in payload["blocks"] if (b["m"], b["k"]) == (1, 2)][0]
    assert wide["rank"] == 3 and wide["confident"] is True
    assert len(wide["singular_values"]) == 3
    assert "rank 3" in capsys.readouterr().out


RANK_STDOUT = {
    9: "P_(m=0,k=0): rank 1\nP_(m=1,k=1): rank 2\nP_(m=2,k=2): rank 3\n"
       "P_(m=3,k=3): rank 3\nP_(m=4,k=4): rank 3\nP_(m=4,k=5): rank 3\n"
       "P_(m=5,k=4): rank 3\n",
    10: "P_(m=0,k=0): rank 1\nP_(m=1,k=1): rank 2\nP_(m=2,k=2): rank 3\n"
        "P_(m=3,k=3): rank 3\nP_(m=4,k=4): rank 3\nP_(m=5,k=5): rank 3\n"
        "P_(m=5,k=5): rank 3\n",
}
# (m, k, rank, confident, number of singular values) per reported block
RANK_BLOCKS = {
    9: [(0, 0, 1, True, 1), (1, 1, 2, True, 3), (2, 2, 3, True, 7), (3, 3, 3, True, 15),
        (4, 4, 3, True, 31), (4, 5, 3, True, 31), (5, 4, 3, True, 31)],
    10: [(0, 0, 1, True, 1), (1, 1, 2, True, 3), (2, 2, 3, True, 7), (3, 3, 3, True, 15),
         (4, 4, 3, True, 31), (5, 5, 3, True, 63), (5, 5, 3, True, 63)],
}


def write_three_states(tmp_path, n):
    dist = hi.full_distribution(hi.random_stochastic(3, 1), n)
    path = str(tmp_path / "d3.json")
    hi.save_distribution(dist, path)
    return dist, path


@pytest.mark.parametrize("n, builds", [(9, [(4, 5), (5, 4)]), (10, [(5, 5)])])
def test_rank_command_builds_only_the_balanced_blocks(tmp_path, monkeypatch, n, builds):
    # each small block is a corner of the wide block; at even n tall and wide are one block
    _, dist_path = write_three_states(tmp_path, n)
    built = count_block_builds(monkeypatch)
    assert main(["rank", "--dist", dist_path]) == 0
    assert built == builds


@pytest.mark.parametrize("n", [9, 10])
def test_rank_command_report(tmp_path, capsys, n):
    dist, dist_path = write_three_states(tmp_path, n)
    out_path = tmp_path / "ranks.json"
    assert main(["rank", "--dist", dist_path, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == RANK_STDOUT[n]
    payload = json.loads(out_path.read_text())
    assert payload["n"] == n
    assert [(b["m"], b["k"], b["rank"], b["confident"], len(b["singular_values"]))
            for b in payload["blocks"]] == RANK_BLOCKS[n]
    # byte for byte what ranking each block built on its own writes
    expected = []
    for m, k, *_ in RANK_BLOCKS[n]:
        report = hi.numerical_rank(hi.hankel_block(hi.marginals(dist), m, k))
        expected.append({"m": m, "k": k, "rank": report.rank, "confident": report.confident,
                         "singular_values": [float(s) for s in report.singular_values]})
    write_json({"n": n, "blocks": expected}, tmp_path / "expected.json")
    assert out_path.read_text() == (tmp_path / "expected.json").read_text()


def test_minors_command(tmp_path, capsys):
    dist_path = str(tmp_path / "vdm.json")
    hi.save_distribution(
        hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3), dist_path)
    out_path = str(tmp_path / "minors.json")
    assert main(["minors", "--dist", dist_path, "--states", "2",
                 "--out", out_path]) == 0
    payload = json.loads(open(out_path).read())
    assert payload["member"] is True
    assert payload["counts"] == {"big": 70, "small": 9}
    assert "member at d=2: True" in capsys.readouterr().out


def test_roundtrip_command_perfect_case(capsys):
    assert main(["roundtrip", "--states", "1", "--length", "1",
                 "--trials", "5", "--seed", "0"]) == 0
    assert "recovered=5 cannot_decide=0 mismatched=0" in capsys.readouterr().out


def test_roundtrip_command_two_states(capsys):
    assert main(["roundtrip", "--states", "2", "--length", "3",
                 "--trials", "20", "--seed", "7"]) == 0
    assert "mismatched=0" in capsys.readouterr().out


def test_roundtrip_length_guard():
    assert main(["roundtrip", "--states", "3", "--length", "4"]) == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_roundtrip_needs_a_trial(capsys, trials):
    assert main(["roundtrip", "--states", "2", "--length", "3", "--trials", trials]) == 1
    out = capsys.readouterr()
    assert "error: --trials" in out.err and "recovered=" not in out.out


@pytest.mark.parametrize("states", ["0", "-2"])
def test_roundtrip_needs_a_state(capsys, states):
    assert main(["roundtrip", "--states", states, "--length", "3"]) == 1
    out = capsys.readouterr()
    assert f"error: --states must be at least 1, got {states}" in out.err
    assert "recovered=" not in out.out


def test_minors_needs_a_state(tmp_path, capsys):
    dist_path = str(tmp_path / "coin.json")
    hi.save_distribution(hi.full_distribution(fair_coin_params(), 3), dist_path)
    assert main(["minors", "--dist", dist_path, "--states", "0"]) == 1
    assert "error: --states" in capsys.readouterr().err


def test_missing_file_is_an_error(tmp_path, capsys):
    assert main(["identify", "--dist", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_an_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    assert main(["identify", "--dist", str(path)]) == 1


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hmpident.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert hi.__version__ in proc.stdout


UNIFORM_3 = {format(i, "03b"): 0.125 for i in range(8)}


@pytest.mark.parametrize("payload", [
    {"n": 3.7, "probabilities": UNIFORM_3},
    {"n": [3], "probabilities": UNIFORM_3},
    {"n": True, "probabilities": {"0": 0.5, "1": 0.5}},
    {"n": 1, "probabilities": 5},
    {"n": 1, "probabilities": {"0": None, "1": 1.0}},
    {"n": 1, "probabilities": {"0": float("nan"), "1": 1.0}},
    {"n": 1, "probabilities": {"0": 0.5, "2": 0.5}},
    [1, 3],
])
def test_malformed_distribution_is_an_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["identify", "--dist", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_params_are_an_error(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"d": 1, "transition": [[1.0]], "emission": [[NaN, 0.5]], "initial": [1.0]}')
    assert main(["simulate", "--params", str(path), "--length", "2",
                 "--out", str(tmp_path / "dist.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_identify_path_builds_no_string_table(tmp_path, monkeypatch):
    # string names belong in files and error messages; reading a table and
    # deciding it must not enumerate all 2^n of them
    dist_path = str(tmp_path / "dist.json")
    hi.save_distribution(hi.full_distribution(hi.random_stochastic(2, 5), 4), dist_path)

    def refuse(length):
        raise AssertionError(f"strings_of_length({length}) called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hmpident" and hasattr(module, "strings_of_length"):
            monkeypatch.setattr(module, "strings_of_length", refuse)
    assert main(["identify", "--dist", dist_path, "--out", str(tmp_path / "verdict.json")]) == 0


def test_simulate_builds_no_string_table(tmp_path, monkeypatch):
    # the file holds the table in index order, so writing it names no string
    params_path = tmp_path / "params.json"
    hi.save_params(hi.random_stochastic(2, 5), params_path)

    def refuse(length):
        raise AssertionError(f"strings_of_length({length}) called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hmpident" and hasattr(module, "strings_of_length"):
            monkeypatch.setattr(module, "strings_of_length", refuse)
    dist_path = tmp_path / "dist.json"
    assert main(["simulate", "--params", str(params_path), "--length", "4",
                 "--out", str(dist_path)]) == 0
    assert len(json.loads(dist_path.read_text())["table"]) == 16


def test_non_finite_table_entry_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "table": [NaN, 1.0]}')
    assert main(["identify", "--dist", str(path)]) == 1
    assert "error: p(0) = nan is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "7",
    '{"d": 1.9, "transition": [[1.0]], "emission": [[0.5, 0.5]], "initial": [1.0]}',
    '{"d": true, "transition": [[1.0]], "emission": [[0.5, 0.5]], "initial": [1.0]}',
])
def test_malformed_params_are_an_error(tmp_path, capsys, text):
    path = tmp_path / "params.json"
    path.write_text(text)
    out_path = tmp_path / "dist.json"
    assert main(["simulate", "--params", str(path), "--length", "2",
                 "--out", str(out_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("transition", ['[["1.0"]]', "[[true]]", "[[1.0], [1.0]]"])
def test_params_with_non_real_or_ragged_entries_are_an_error(tmp_path, capsys, transition):
    path = tmp_path / "params.json"
    path.write_text(f'{{"d": 1, "transition": {transition}, '
                    '"emission": [[0.5, 0.5]], "initial": [1.0]}')
    out_path = tmp_path / "dist.json"
    assert main(["simulate", "--params", str(path), "--length", "2",
                 "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "transition" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    [],
    ["identify"],
    ["identify", "--dist", "d.json", "--bogus"],
    ["identify", "--dist", "d.json", "--max-states", "abc"],
    ["identify", "--dist", "d.json", "--tol-stat", "1e-3"],
    ["roundtrip", "--states", "2", "--length", "3", "--tol-stat", "1e-3"],
    ["rank", "--dist", "d.json", "--eig-gap-tol", "1e-3"],
    ["rank", "--dist", "d.json", "--tol-stochastic", "1e-3"],
    ["minors", "--dist", "d.json", "--states", "2", "--gap-ratio", "3"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["rank", "-h"])
    assert info.value.code == 0
    assert "--gap-ratio" in capsys.readouterr().out
