"""Command line front end: job files, reports, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodist import cli, lattice
from periodist import expr as ex
from periodist.errors import InputError
from periodist.sequences import DecayBound, FastSequence, constant, pairing
from periodist.stable_rank import weak_star_gap

COORD = {"kind": "coord", "axis": 0}
ONE = {"kind": "const", "re": 1.0, "im": 0.0}
ZERO = {"kind": "const", "re": 0.0, "im": 0.0}
DECAY_HALF = {
    "expr": {"kind": "expdecay", "rate": 0.6931471805599453},
    "decay": {"C": 1.0, "j": 0, "rate": 0.6931471805599453},
}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, name, job):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def test_check_growth_pass(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"dimension": 1, "inputs": {"a": {"expr": COORD, "cert": {"M": 1.0, "k": 1}}}},
    )
    code, out, _ = run(capsys, ["check-growth", "--spec", spec])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["defaults"] == {"R": 50, "dimension": 1}
    assert report["params"]["R"] == 50
    assert report["results"]["holds"] is True
    assert report["threads"] == 1


def test_corona_check_trivial_family(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": 0, "R": 100}},
    )
    code, out, _ = run(capsys, ["corona-check", "--spec", spec])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_corona_check_failure_is_exit_two(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": [{"expr": COORD}]}, "params": {"delta": 0.5, "K": 0, "R": 10}},
    )
    code, out, _ = run(capsys, ["corona-check", "--spec", spec])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["results"]["first_violation"] == [0]


def test_solve_verify_round_trip(tmp_path, capsys):
    family = [{"expr": COORD}, {"expr": ONE}]
    solve_spec = write_job(
        tmp_path,
        "solve.json",
        {"inputs": {"a": family}, "params": {"delta": 1.0, "K": 0, "R": 40}},
    )
    code, out, _ = run(capsys, ["bezout-solve", "--spec", solve_spec])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["self_residual"] <= 1e-12
    verify_spec = write_job(
        tmp_path,
        "verify.json",
        {
            "inputs": {"a": family, "b": report["results"]["cofactors"]},
            "params": {"R": 40},
        },
    )
    code, out, _ = run(capsys, ["bezout-verify", "--spec", verify_spec])
    assert code == 0
    verified = json.loads(out)
    assert verified["verdict"] == "pass"
    assert verified["results"]["max_residual"] <= 1e-12
    assert verified["results"]["recovered_witness"]["delta"] == pytest.approx(1.0)


def test_solve_without_witness_certifies(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": [{"expr": COORD}, {"expr": ONE}]}, "params": {"R": 30}},
    )
    code, out, _ = run(capsys, ["bezout-solve", "--spec", spec])
    assert code == 0
    assert json.loads(out)["results"]["witness"]["status"] == "certified"


def test_solve_witness_failure_is_math_error(tmp_path, capsys):
    # A supplied (delta, K) is checked on the window before any cofactor is built.
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": [{"expr": COORD}]}, "params": {"delta": 1.0, "K": 0}},
    )
    code, out, err = run(capsys, ["bezout-solve", "--spec", spec])
    assert (code, out) == (2, "")
    assert err == "periodist: mathematical failure: corona floor (delta=1.0, K=0) fails at lattice index (0,)\n"


def test_reduce_command(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {
            "inputs": {
                "a1": {"expr": ONE},
                "a2": {"expr": ZERO},
                "b1": {"expr": ONE},
                "b2": {"expr": ZERO},
            },
            "params": {"R": 20},
        },
    )
    code, out, _ = run(capsys, ["reduce", "--spec", spec, "--epsilon", "0.25"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["results"]["min_perturbed_identity"] >= 0.5
    assert report["results"]["factorization_residual"] <= 1e-10
    assert report["params"]["epsilon"] == 0.25


def test_approx_command(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": {"expr": ZERO}}, "params": {"epsilons": [1.0, 0.5], "R": 10}},
    )
    code, out, _ = run(capsys, ["approx", "--spec", spec])
    assert code == 0
    items = json.loads(out)["results"]["items"]
    assert [item["epsilon"] for item in items] == [1.0, 0.5]
    assert all(item["max_change_on_window"] <= 2 * item["epsilon"] for item in items)


def test_gap_command(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {
            "inputs": {
                "x": {"expr": {"kind": "clip", "arg": COORD, "eps": 0.25}},
                "y": {"expr": COORD},
                "b": DECAY_HALF,
            },
            "params": {"R": 40},
        },
    )
    code, out, _ = run(capsys, ["gap", "--spec", spec])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["gap"] == 0.25
    assert results["bound_finite"] is True
    assert results["gap"] <= results["bound"]


def test_qdemo_exit_codes(tmp_path, capsys):
    hit = write_job(
        tmp_path, "hit.json", {"params": {"rate": 1.0, "delta": 0.5, "K": 2, "nMax": 40}}
    )
    code, out, _ = run(capsys, ["qdemo", "--spec", hit])
    assert code == 0
    assert json.loads(out)["results"]["index"] == [-4]
    miss = write_job(
        tmp_path, "miss.json", {"params": {"rate": 1.0, "delta": 0.5, "K": 2, "nMax": 2}}
    )
    code, out, _ = run(capsys, ["qdemo", "--spec", miss])
    assert code == 2
    assert json.loads(out)["results"]["found"] is False


def test_pair_command(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": {"expr": ONE}, "b": DECAY_HALF}, "params": {"R": 10}},
    )
    code, out, _ = run(capsys, ["pair", "--spec", spec])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["value"][0] == 3.0 - 2.0 * 2.0**-10
    assert results["tail_bound"] > 0


def test_fourier_commands_inline_and_binary(tmp_path, capsys):
    xs = np.arange(8) / 8.0
    tone = np.exp(2j * np.pi * xs)
    inline = write_job(
        tmp_path,
        "inline.json",
        {
            "dimension": 1,
            "inputs": {
                "period_matrix": [[1.0]],
                "samples": [[v.real, v.imag] for v in tone],
            },
        },
    )
    code, out, _ = run(capsys, ["fourier-coeffs", "--spec", inline])
    assert code == 0
    report = json.loads(out)
    coeffs = report["results"]["coefficients"]["coeffs"]
    assert abs(coeffs["1"][0] - 1.0) <= 1e-13
    assert report["results"]["metadata"]["centred_window"] == [-4, 3]
    assert report["inputs"]["samples"] == {"source": "inline", "shape": [8]}

    tone.astype("<c16").tofile(tmp_path / "tone.bin")
    binary = write_job(
        tmp_path,
        "binary.json",
        {
            "dimension": 1,
            "inputs": {
                "period_matrix": [[1.0]],
                "samples": {"file": "tone.bin", "shape": [8]},
            },
        },
    )
    code, out, _ = run(capsys, ["fourier-coeffs", "--spec", binary])
    assert code == 0
    again = json.loads(out)["results"]["coefficients"]["coeffs"]
    assert again == coeffs

    synth = write_job(
        tmp_path,
        "synth.json",
        {
            "dimension": 1,
            "inputs": {
                "period_matrix": [[1.0]],
                "coeffs": {"coeffs": {"1": [1.0, 0.0]}, "dimension": 1},
                "points": [0.0, 0.5],
            },
        },
    )
    code, out, _ = run(capsys, ["fourier-synth", "--spec", synth])
    assert code == 0
    values = json.loads(out)["results"]["values"]
    assert values[0] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert values[1] == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_exp_demo(tmp_path, capsys):
    spec = write_job(tmp_path, "job.json", {"params": {"maxDegree": 3}})
    code, out, _ = run(capsys, ["exp-demo", "--spec", spec])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["identity_exact"] is True
    assert results["search"]["candidates_checked"] == 625
    assert results["search"]["units_found"] == 0


def test_exp_demo_past_the_sweep_budget_is_refused_before_it_runs(tmp_path, capsys):
    spec = write_job(tmp_path, "job.json", {"params": {"maxDegree": 12}})  # 5^13: about 1.2e9 combinations
    start = time.perf_counter()
    code, out, err = run(capsys, ["exp-demo", "--spec", spec])
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "")
    assert err.startswith("periodist: input error: params.maxDegree: 5^13 combinations to sweep exceed")
    assert "Traceback" not in err


CORONA_D3 = {"dimension": 3, "inputs": {"a": [{"expr": COORD}, {"expr": ONE}]}, "params": {"delta": 1.0, "K": 0}}


def test_a_window_past_the_budget_is_refused_before_any_ball_is_built(tmp_path, capsys):
    spec = write_job(tmp_path, "job.json", {**CORONA_D3, "params": {**CORONA_D3["params"], "R": 2000}})
    before = lattice.ball.cache_info()
    start = time.perf_counter()
    code, out, err = run(capsys, ["corona-check", "--spec", spec])
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "")
    assert err == ("periodist: input error: params.R: window of at least 10674672001 points at dimension 3 "
                   "(32024016003 coordinates) exceeds the budget of 10000000 coordinates, got 2000\n")
    assert lattice.ball.cache_info()[:2] == before[:2]
    # Under a 1 GiB cap the same job exits 1 in a fresh interpreter, where it once ran out of memory.
    code, out, err = _cli_process(["corona-check", "--spec", spec], address_space=1 << 30)
    assert (code, out) == (1, "") and "params.R: window of" in err and "Traceback" not in err
    # --window stands in for params.R, and qdemo's window is params.nMax.
    small = write_job(tmp_path, "small.json", {**CORONA_D3, "params": {**CORONA_D3["params"], "R": 2}})
    code, _, err = run(capsys, ["corona-check", "--spec", small, "--window", "2000"])
    assert code == 1 and err.startswith("periodist: input error: params.R: window of")
    qdemo = write_job(tmp_path, "qdemo.json", {"dimension": 3, "params": {"delta": 0.5, "K": 0, "nMax": 2000}})
    code, _, err = run(capsys, ["qdemo", "--spec", qdemo])
    assert code == 1 and err.startswith("periodist: input error: params.nMax: window of at least 10674672001")


def test_the_window_budget_is_exact_at_its_edge_and_cheap_far_past_it(tmp_path):
    def job(command, d, R):
        path = tmp_path / f"{command}-{d}-{R}.json"
        path.write_text(json.dumps({"dimension": d, "params": {"R": R}}))  # inputs are read later
        return cli.Job(command, str(path), cli.build_parser().parse_args([command, "--spec", str(path)]))

    assert job("corona-check", 1, 4_999_999).radius == 4_999_999  # 9,999,999 points
    assert job("corona-check", 3, 50).radius == 50  # 171,801 points, 515,403 coordinates
    with pytest.raises(InputError, match=r"^params.R: window of at least 10000001 points at dimension 1"):
        job("corona-check", 1, 5_000_000)
    start = time.perf_counter()
    with pytest.raises(InputError, match=r"^params.R: window of at least 2000000000001 points"):
        job("check-growth", 10**6, 10**6)
    assert time.perf_counter() - start < 0.1
    # A command that scans no window of radius R does not price it.
    assert job("exp-demo", 3, 2000).radius == 2000


def test_a_wide_window_is_priced_by_its_coordinates(tmp_path, capsys):
    # 2,000,001 points, but each has a million coordinates: the build is refused before it starts.
    spec = write_job(tmp_path, "job.json", {**CORONA_D3, "dimension": 10**6, "params": {**CORONA_D3["params"], "R": 1}})
    start = time.perf_counter()
    code, out, err = run(capsys, ["corona-check", "--spec", spec])
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "")
    assert err == ("periodist: input error: params.R: window of at least 2000001 points at dimension 1000000 "
                   "(2000001000000 coordinates) exceeds the budget of 10000000 coordinates, got 1\n")


# -- errors, formats, determinism ---------------------------------------


@pytest.mark.filterwarnings("error")
def test_an_overflowing_constant_modulus_ends_without_a_traceback(tmp_path, capsys):
    # Both jobs end in a report with nothing on stderr, and numpy warns of no overflow on the way.
    huge = {"expr": {"kind": "const", "re": 1.5e308, "im": 1.5e308}}
    gap = write_job(tmp_path, "gap.json", {"dimension": 1, "params": {"R": 5}, "inputs": {
        "x": huge, "y": {"expr": ZERO}, "b": DECAY_HALF}})
    growth = write_job(tmp_path, "growth.json", {"dimension": 1, "params": {"R": 5}, "inputs": {"a": huge}})
    code, out, err = run(capsys, ["gap", "--spec", gap])
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["gap"] == math.inf
    code, out, err = run(capsys, ["check-growth", "--spec", growth])
    # The growth bound is infinite, and it holds: a finite value whose modulus passes the
    # double range has ratio 0 under it, where |a| / M would read inf / inf.
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["cert"] == {"M": math.inf, "k": 0}
    assert (results["holds"], results["max_ratio"]) == (True, 0.0)


def test_an_overflowing_coefficient_modulus_ends_without_a_traceback(tmp_path, capsys):
    synth = write_job(tmp_path, "synth.json", {"dimension": 1, "inputs": {
        **SYNTH, "coeffs": {"dimension": 1, "coeffs": {"1": [1.5e308, 1.5e308]}}}})
    code, out, err = run(capsys, ["fourier-synth", "--spec", synth])
    assert code == 0
    assert json.loads(out)["results"]["values"][0] == [1.5e308, 1.5e308]
    assert "Traceback" not in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, ["check-growth", "--spec", str(path)])
    assert code == 1
    assert "line 1" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, ["check-growth", "--spec", str(tmp_path / "gone.json")])
    assert code == 1
    assert "cannot read" in err


def test_declared_command_must_match(tmp_path, capsys):
    spec = write_job(
        tmp_path, "job.json", {"command": "qdemo", "inputs": {"a": {"expr": ONE}}}
    )
    code, _, err = run(capsys, ["check-growth", "--spec", spec])
    assert code == 1
    assert "declares command" in err


def test_false_certificate_claim_is_rejected(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": {"expr": {"kind": "norm1"}, "cert": {"M": 1.0, "k": 0}}}},
    )
    code, _, err = run(capsys, ["check-growth", "--spec", spec])
    assert code == 1
    assert "input error" in err


def test_stray_empty_samples_are_echoed(tmp_path, capsys):
    spec = write_job(tmp_path, "job.json", {"inputs": {"a": {"expr": ONE}, "b": DECAY_HALF, "samples": []}})
    code, out, _ = run(capsys, ["pair", "--spec", spec])
    assert code == 0
    assert json.loads(out)["inputs"]["samples"] == {"source": "inline", "shape": [0]}


TREE_CLAIM = {"kind": "mul", "args": [{**ONE, "cert": {"M": 1.0, "k": 0}}, COORD]}


# (command, inputs, the whole message): each claim is misplaced, the last two on a tree node.
@pytest.mark.parametrize("command, inputs, message", [
    ("pair", {"a": {"expr": ONE}, "b": {**DECAY_HALF, "cert": {"M": 0.001, "k": 0}}},
     "inputs.b.cert: a fast sequence takes no growth certificate"),
    ("pair", {"a": {"expr": ONE, "decay": DECAY_HALF["decay"]}, "b": DECAY_HALF},
     "inputs.a.decay: a slow sequence takes no decay claim"),
    ("pair", {"a": {"expr": ONE, "support": 0}, "b": DECAY_HALF},
     "inputs.a.support: a slow sequence takes no support claim"),
    ("check-growth", {"a": {"expr": TREE_CLAIM}},
     "inputs.a.expr.args[0].cert: not allowed on a tree node; claim it beside 'expr'"),
    ("pair", {"a": {"expr": ONE}, "b": {**DECAY_HALF, "expr": TREE_CLAIM}},
     "inputs.b.expr.args[0].cert: not allowed on a tree node; claim it beside 'expr'"),
], ids=["cert-beside-fast", "decay-beside-slow", "support-beside-slow", "cert-in-slow-tree", "cert-in-fast-tree"])
def test_misplaced_claim_is_rejected_with_its_path(tmp_path, capsys, command, inputs, message):
    spec = write_job(tmp_path, "job.json", {"inputs": inputs, "params": {"R": 4}})
    code, out, err = run(capsys, [command, "--spec", spec])
    assert (code, out) == (1, "")
    assert err == f"periodist: input error: {message}\n"


def test_missing_required_input_names_the_field(tmp_path, capsys):
    spec = write_job(tmp_path, "job.json", {"inputs": {}})
    code, _, err = run(capsys, ["check-growth", "--spec", spec])
    assert code == 1
    assert "inputs.a" in err


EYE2 = [[1.0, 0.0], [0.0, 1.0]]
SYNTH = {"period_matrix": [[1.0]], "coeffs": {"coeffs": {"1": [1.0, 0.0]}, "dimension": 1},
         "points": [0.0, 0.5]}

# (command, JSON path the message must name, job[, test id when the path repeats])
MALFORMED_FIELDS = [
    ("corona-check", "params.R",
     {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": 0, "R": "ten"}}),
    ("pair", "dimension",
     {"dimension": "two", "inputs": {"a": {"expr": ONE}, "b": DECAY_HALF}}),
    ("check-growth", "inputs.a.cert.M",
     {"inputs": {"a": {"expr": COORD, "cert": {"M": "big", "k": 1}}}}),
    ("pair", "inputs.b.decay.rate",
     {"inputs": {"a": {"expr": ONE}, "b": {"expr": ONE, "decay": {"C": 1.0, "j": 0}}}}),
    ("pair", "inputs.b.support",
     {"inputs": {"a": {"expr": ONE}, "b": {"expr": ONE, "support": "3"}}}),
    ("corona-check", "inputs.a[1].expr",
     {"inputs": {"a": [{"expr": ONE}, {"expr": {"kind": "add"}}]},
      "params": {"delta": 1.0, "K": 0}}),
    ("check-growth", "inputs.a.expr",
     {"inputs": {"a": {"expr": {"kind": "cosine"}}}}),
    ("fourier-coeffs", "inputs.samples.shape[1]",
     {"dimension": 2, "inputs": {"period_matrix": EYE2,
                                 "samples": {"file": "s.bin", "shape": [2, "x"]}}}),
    ("fourier-coeffs", "inputs.samples.shape[0]: must be >= 1, got 0",
     {"dimension": 1, "inputs": {"period_matrix": [[1.0]], "samples": {"file": "s.bin", "shape": [0]}}},
     "inputs.samples.shape-zero"),
    ("fourier-coeffs", "inputs.samples.file",
     {"dimension": 2, "inputs": {"period_matrix": EYE2,
                                 "samples": {"file": 5, "shape": [2, 2]}}}),
    # Ranges, element types and shapes of every remaining job-file field.
    ("approx", "params.epsilons[0]",
     {"inputs": {"a": {"expr": ZERO}}, "params": {"epsilons": ["x"]}}, "params.epsilons[0]-string"),
    ("approx", "params.epsilons[0]",
     {"inputs": {"a": {"expr": ZERO}}, "params": {"epsilons": [True]}}, "params.epsilons[0]-bool"),
    ("fourier-synth", "inputs.points[1]",
     {"inputs": {**SYNTH, "period_matrix": EYE2, "coeffs": {"coeffs": {}, "dimension": 2},
                 "points": [[0.0, 0.1], [0.2]]}}),
    ("fourier-synth", "inputs.points[0]", {"inputs": {**SYNTH, "points": ["a", 0.5]}}),
    ("fourier-synth", "inputs.coeffs.dimension",
     {"inputs": {**SYNTH, "coeffs": {"coeffs": {}, "dimension": 0}}}),
    ("fourier-synth", "inputs.coeffs.coeffs",
     {"inputs": {**SYNTH, "coeffs": {"coeffs": [[1.0, 0.0]]}}}, "inputs.coeffs.coeffs-list"),
    ("fourier-synth", "inputs.coeffs.coeffs",
     {"inputs": {**SYNTH, "coeffs": {"coeffs": {"1,x": [1.0, 0.0]}}}}, "inputs.coeffs.coeffs-key"),
    ("fourier-synth", "inputs.coeffs.coeffs.0",
     {"inputs": {**SYNTH, "coeffs": {"coeffs": {"0": ["a", 0]}}}}),
    ("fourier-synth", "inputs.period_matrix[0]", {"inputs": {**SYNTH, "period_matrix": [["a"]]}}),
    ("fourier-synth", "inputs.period_matrix[1]", {"inputs": {**SYNTH, "period_matrix": [[1.0, 0.0], [0.0]]}}),
    ("gap", "inputs.x.expr.eps",
     {"inputs": {"x": {"expr": {"kind": "clip", "arg": COORD, "eps": -0.1}}, "y": {"expr": COORD},
                 "b": DECAY_HALF}}),
    ("pair", "inputs.b.decay.rate",
     {"inputs": {"a": {"expr": ONE}, "b": {"expr": ONE, "decay": {"C": 1.0, "j": 0, "rate": -1.0}}}},
     "inputs.b.decay.rate-negative"),
    ("pair", "inputs.b.support",
     {"inputs": {"a": {"expr": ONE}, "b": {"expr": ONE, "support": -2}}}, "inputs.b.support-negative"),
    ("pair", "inputs.b", {"inputs": {"a": {"expr": ONE}, "b": {"expr": ONE}}}, "inputs.b-no-decay"),
    ("bezout-verify", "inputs.b",
     {"inputs": {"a": [{"expr": ONE}, {"expr": ZERO}], "b": [{"expr": ONE}]}}, "inputs.b-short"),
    ("check-growth", "inputs.a.expr",
     {"inputs": {"a": {"expr": {"kind": "coord", "axis": 3}}}}, "inputs.a.expr-axis"),
    ("reduce", "params.epsilon",
     {"inputs": {"a1": {"expr": ONE}, "a2": {"expr": ZERO}, "b1": {"expr": ONE}, "b2": {"expr": ZERO}},
      "params": {"epsilon": 0.7}}),
    ("corona-check", "params.delta", {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": -1.0, "K": 0}}),
    ("corona-check", "params.K", {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": -1}}),
    ("pair", "dimension", {"dimension": 0, "inputs": {"a": {"expr": ONE}, "b": DECAY_HALF}},
     "dimension-zero"),
    ("corona-check", "params.R",
     {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": 0, "R": -1}}, "params.R-negative"),
    # Unknown keys, in the job, a sequence, a claim, a tree node and a node's group.
    ("check-growth", "param: unknown key", {"inputs": {"a": {"expr": ONE}}, "param": {"R": 3}},
     "param-unknown"),
    ("check-growth", "inputs.a.certificate: unknown key",
     {"inputs": {"a": {"expr": COORD, "certificate": {"M": 1.0, "k": 1}}}}, "inputs.a.certificate-unknown"),
    ("check-growth", "inputs.a.cert.kk: unknown key",
     {"inputs": {"a": {"expr": COORD, "cert": {"M": 2.0, "k": 1, "kk": 0}}}}, "inputs.a.cert.kk-unknown"),
    ("check-growth", "inputs.a.expr.imag: unknown key",
     {"inputs": {"a": {"expr": {**ONE, "imag": 1.0}}}}, "inputs.a.expr.imag-unknown"),
    ("pair", "inputs.b.decay.c: unknown key",
     {"inputs": {"a": {"expr": ONE}, "b": {"expr": ONE, "decay": {"C": 1.0, "j": 0, "rate": 0.5, "c": 2}}}},
     "inputs.b.decay.c-unknown"),
    ("pair", "inputs.b.supp: unknown key", {"inputs": {"a": {"expr": ONE}, "b": {**DECAY_HALF, "supp": 3}}},
     "inputs.b.supp-unknown"),
    ("check-growth", "inputs.a.expr.witness.k: unknown key",
     {"inputs": {"a": {"expr": {"kind": "recip", "arg": ONE, "witness": {"delta": 1.0, "K": 0, "k": 0}}}}},
     "inputs.a.expr.witness.k-unknown"),
    ("check-growth", "params.r: unknown key", {"inputs": {"a": {"expr": ONE}}, "params": {"r": 3}},
     "params.r-unknown"),
    ("fourier-synth", "inputs.coeffs.dimensoin: unknown key",
     {"inputs": {**SYNTH, "coeffs": {"coeffs": {}, "dimension": 1, "dimensoin": 2}}},
     "inputs.coeffs.dimensoin-unknown"),
    ("fourier-coeffs", "inputs.samples.dtype: unknown key",
     {"inputs": {"period_matrix": [[1.0]], "samples": {"file": "s.bin", "shape": [2], "dtype": "f4"}}},
     "inputs.samples.dtype-unknown"),
    # A sequence is an object with "expr": a bare tree is none, whatever claim it carries.
    ("pair", "inputs.b.expr: required",
     {"inputs": {"a": {"expr": ONE}, "b": {"kind": "expdecay", "rate": 1.0, "decay": DECAY_HALF["decay"]}}},
     "inputs.b-bare-tree"),
    # Checks made past the readers, by fourier, on a matrix or shape they accepted.
    ("fourier-synth", "inputs.period_matrix: period matrix is numerically singular",
     {"inputs": {**SYNTH, "period_matrix": [[1.0, 2.0], [2.0, 4.0]],
                 "coeffs": {"coeffs": {}, "dimension": 2}, "points": [[0.0, 0.1]]}},
     "inputs.period_matrix-singular"),
    ("fourier-coeffs", "inputs.samples.shape: must be cubic",
     {"dimension": 2, "inputs": {"period_matrix": EYE2, "samples": {"file": "s.bin", "shape": [2, 3]}}},
     "inputs.samples.shape-not-cubic"),
]


@pytest.mark.parametrize(
    "command, where, job",
    [case[:3] for case in MALFORMED_FIELDS],
    ids=[case[3] if len(case) > 3 else case[1] for case in MALFORMED_FIELDS],
)
def test_malformed_field_names_its_json_path(tmp_path, capsys, command, where, job):
    spec = write_job(tmp_path, "job.json", job)
    code, out, err = run(capsys, [command, "--spec", spec])
    assert code == 1
    assert out == ""
    assert where in err


# (command, job, bytes written to s.bin beside the job or None, the whole message with {dir}
# standing for the job's folder): a samples file that cannot be read or holds the wrong count,
# and a coefficient map of another dimension than its period matrix.
TONES = np.array([1.0, 1j, -1.0, -1j], "<c16").tobytes()
SAMPLES_FILE = {"period_matrix": [[1.0]], "samples": {"file": "s.bin", "shape": [4]}}
FILE_INPUTS = [
    ("fourier-coeffs", {"inputs": SAMPLES_FILE}, None,
     "inputs.samples: cannot read '{dir}/s.bin': [Errno 2] No such file or directory: '{dir}/s.bin'", "missing"),
    ("fourier-coeffs", {"inputs": SAMPLES_FILE}, TONES[:48],
     "inputs.samples: file holds 3 values, shape needs 4", "short"),
    ("fourier-coeffs", {"inputs": {**SAMPLES_FILE, "samples": {"file": "s.bin", "shape": [2]}}}, TONES[:40],
     "inputs.samples: file of 40 bytes ends inside a value (16 bytes each)", "partial-value"),
    ("fourier-synth", {"dimension": 2, "inputs": {**SYNTH, "period_matrix": EYE2, "points": [[0.0, 0.5]]}}, None,
     "inputs.coeffs.dimension: must be 2, got 1", "coeffs-dimension"),
]


@pytest.mark.parametrize("command, job, data, message", [case[:4] for case in FILE_INPUTS],
                         ids=[case[4] for case in FILE_INPUTS])
def test_a_samples_file_or_coefficient_map_that_does_not_fit_exits_one(tmp_path, capsys, command, job, data,
                                                                       message):
    if data is not None:
        (tmp_path / "s.bin").write_bytes(data)
    spec = write_job(tmp_path, "job.json", job)
    code, out, err = run(capsys, [command, "--spec", spec])
    assert (code, out) == (1, "")
    assert err == f"periodist: input error: {message.format(dir=tmp_path)}\n"


NAN = float("nan")

# (command, message, job, test id): a non-finite number, a result past the double range,
# or a negative tolerance.
NON_FINITE = [
    ("fourier-synth", "inputs.points: evaluation points must be finite",
     {"inputs": {**SYNTH, "points": [NAN, 0.5]}}, "nan-point"),
    ("fourier-synth", "inputs.points: a phase of the evaluation points passes the double range",
     {"inputs": {**SYNTH, "points": [1e308, 0.5]}}, "huge-point"),
    ("fourier-synth", "inputs.period_matrix: period matrix determinant passes the double range",
     {"dimension": 2, "inputs": {"period_matrix": [[1e200, 0.0], [0.0, 1e200]], "points": [[0.0, 0.5]],
                                 "coeffs": {"coeffs": {"1,0": [1.0, 0.0]}, "dimension": 2}}}, "huge-determinant"),
    ("fourier-coeffs", "inputs.period_matrix: period matrix determinant passes the double range",
     {"dimension": 2, "inputs": {"period_matrix": [[2.0, 1.0], [0.0, 1e308]],
                                 "samples": [[1.0, [0.0, 1.0]], [2.0, 3.0]]}}, "huge-matrix-entry"),
    ("fourier-synth", "inputs.period_matrix: period matrix entries must be finite",
     {"inputs": {**SYNTH, "period_matrix": [[NAN]]}}, "period-matrix"),
    ("fourier-coeffs", "inputs.samples[1]: must be finite, got nan",
     {"inputs": {"period_matrix": [[1.0]], "samples": [1.0, NAN, 0.0, 1.0]}}, "inline-sample"),
    ("fourier-coeffs", "inputs.samples: file value 1 is not finite",
     {"inputs": {"period_matrix": [[1.0]], "samples": {"file": "nan.bin", "shape": [4]}}}, "sample-file"),
    ("fourier-synth", "inputs.coeffs.coeffs.1[0]: must be finite, got nan",
     {"inputs": {**SYNTH, "coeffs": {"coeffs": {"1": [NAN, 0.0]}, "dimension": 1}}}, "coefficient"),
    *[
        (command, f"params.tolerance: must be >= 0, got {tolerance}",
         {"inputs": inputs, "params": {"tolerance": tolerance, "R": 3, **extra}}, f"{command}-{tolerance}")
        for tolerance in (NAN, -1)
        for command, inputs, extra in [
            ("bezout-solve", {"a": [{"expr": ONE}]}, {"delta": 1.0, "K": 0}),
            ("bezout-verify", {"a": [{"expr": ONE}], "b": [{"expr": ONE}]}, {}),
            ("reduce", {"a1": {"expr": ONE}, "a2": {"expr": ZERO}, "b1": {"expr": ONE}, "b2": {"expr": ZERO}}, {}),
        ]
    ],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, message, job", [case[:3] for case in NON_FINITE],
                         ids=[case[3] for case in NON_FINITE])
def test_a_non_finite_input_exits_one_naming_its_path(tmp_path, capsys, command, message, job):
    np.array([1.0, NAN, 0.0, 1.0], "<c16").tofile(tmp_path / "nan.bin")
    spec = write_job(tmp_path, "job.json", {"dimension": 1, **job})
    code, out, err = run(capsys, [command, "--spec", spec])
    assert (code, out) == (1, "")
    assert err == f"periodist: input error: {message}\n"


# -- bounds at the ends of the double range --------------------------------

TINY_CLIP = {"kind": "clip", "arg": COORD, "eps": 1e-200}
HUGE_PRODUCT = {"kind": "mul", "args": [{"kind": "const", "re": 1e300, "im": 0.0}] * 2}


@pytest.mark.filterwarnings("error")
def test_a_growth_product_that_rounds_to_zero_is_the_least_double(tmp_path, capsys):
    tiny = {"kind": "mul", "args": [{"kind": "const", "re": 1e-200, "im": 0.0}] * 2}
    spec = write_job(tmp_path, "job.json", {"inputs": {"a": {"expr": tiny}}, "params": {"R": 3}})
    code, out, err = run(capsys, ["check-growth", "--spec", spec])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["results"]["cert"] == {"M": 5e-324, "k": 0}
    assert report["verdict"] == "pass"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("member", [
    {"kind": "mul", "args": [TINY_CLIP, TINY_CLIP]},  # floor 1e-200 * 1e-200
    {"kind": "recip", "arg": HUGE_PRODUCT, "witness": {"delta": 1.0, "K": 0}},  # floor 1 / inf
], ids=["floor-product", "floor-of-a-reciprocal"])
def test_a_floor_that_rounds_to_zero_is_no_witness(tmp_path, capsys, member):
    spec = write_job(tmp_path, "job.json", {"inputs": {"a": [{"expr": member}]}, "params": {"R": 3}})
    code, out, err = run(capsys, ["bezout-solve", "--spec", spec])
    assert (code, out) == (2, "")
    assert err.startswith("periodist: mathematical failure: no witness")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["pair", "gap"])
def test_an_envelope_bound_past_the_double_range_is_inf(tmp_path, capsys, command):
    b = {"expr": {"kind": "expdecay", "rate": 0.5}, "decay": {"C": 1.0, "j": 0, "rate": 1e-200}}
    inputs = {"a": {"expr": ONE}} if command == "pair" else {"x": {"expr": COORD}, "y": {"expr": COORD}}
    spec = write_job(tmp_path, "job.json", {"inputs": {**inputs, "b": b}, "params": {"R": 5}})
    code, out, err = run(capsys, [command, "--spec", spec])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["tail_bound"] == math.inf
    if command == "gap":
        assert results["bound_finite"] is False


# -- fuzz: one mutated leaf of a well-formed job ---------------------------

WELL_FORMED = [
    ("check-growth", {"inputs": {"a": {"expr": {"kind": "add", "args": [COORD, ONE]},
                                       "cert": {"M": 2.0, "k": 1}}}, "params": {"R": 6}}),
    ("corona-check", {"inputs": {"a": [{"expr": COORD}, {"expr": ONE}]},
                      "params": {"delta": 0.5, "K": 0, "R": 6}}),
    ("bezout-verify", {"inputs": {"a": [{"expr": ONE}], "b": [{"expr": ONE}]}, "params": {"R": 6}}),
    ("reduce", {"inputs": {"a1": {"expr": ONE}, "a2": {"expr": ZERO}, "b1": {"expr": ONE},
                           "b2": {"expr": ZERO}}, "params": {"R": 6, "epsilon": 0.25}}),
    ("approx", {"inputs": {"a": {"expr": COORD}}, "params": {"epsilons": [1.0, 0.5], "R": 6}}),
    ("gap", {"inputs": {"x": {"expr": {"kind": "clip", "arg": COORD, "eps": 0.25}},
                        "y": {"expr": COORD}, "b": DECAY_HALF}, "params": {"R": 6}}),
    ("qdemo", {"params": {"rate": 1.0, "delta": 0.5, "K": 2, "nMax": 8}}),
    ("pair", {"dimension": 2,
              "inputs": {"a": {"expr": {"kind": "polyenv", "k": 1}},
                         "b": {"expr": {"kind": "recip", "arg": {"kind": "polyenv", "k": 4},
                                        "witness": {"delta": 1.0, "K": 4}},
                               "decay": {"C": 1.0, "j": 0, "rate": 0.5}, "support": 3}},
              "params": {"R": 6}}),
    ("fourier-coeffs", {"dimension": 2, "inputs": {"period_matrix": [[2.0, 1.0], [0.0, 1.0]],
                                                   "samples": [[1.0, [0.0, 1.0]], [2.0, 3.0]]}}),
    ("fourier-synth", {"inputs": {**SYNTH, "coeffs": {"coeffs": {"1": [1.0, 0.0], "-1": [0.5, 0.5]}}}}),
    ("exp-demo", {"params": {"maxDegree": 1}}),
]


def _leaves(value, path=()):
    """Every scalar leaf under a JSON value, as a key path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path]
    return [leaf for key, item in items for leaf in _leaves(item, path + (key,))]


def _path_text(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else (f".{k}" if i else k) for i, k in enumerate(keys))


FUZZ_LEAVES = [
    (i, leaf) for i, (_, job) in enumerate(WELL_FORMED)
    for top in ("inputs", "params") if top in job
    for leaf in _leaves(job[top], (top,))
]


# A float leaf may also become NaN, a huge or a tiny double.
FLOAT_MUTATIONS = {"nan": math.nan, "huge": 1e308, "tiny": 1e-200}


def _run_mutated(tmp_path_factory, site, mutation):
    """Run one mutated job with numpy's RuntimeWarnings as errors (pytest captures warnings,
    so stderr alone would not show them): it exits 0, 1 or 2, and an exit 1 names the leaf
    or one of its ancestors."""
    index, keys = site
    command, job = WELL_FORMED[index]
    job = json.loads(json.dumps(job))  # a copy that shares no subtree
    parent = job
    for key in keys[:-1]:
        parent = parent[key]
    leaf = parent[keys[-1]]
    if mutation == "delete" and isinstance(parent, dict):
        del parent[keys[-1]]
    elif mutation == "negative" and isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
        parent[keys[-1]] = -abs(leaf) - 1
    elif mutation in FLOAT_MUTATIONS and isinstance(leaf, float):
        parent[keys[-1]] = FLOAT_MUTATIONS[mutation]
    else:
        parent[keys[-1]] = "x"
    spec = tmp_path_factory.mktemp("fuzz") / "job.json"
    spec.write_text(json.dumps(job))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([command, "--spec", str(spec)])
    assert code in (0, 1, 2)
    if code == 1:
        ancestors = [_path_text(keys[:n]) for n in range(2, len(keys) + 1)]
        assert any(re.search(re.escape(a) + r"(?![\w])", err.getvalue()) for a in ancestors), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(site=st.sampled_from(FUZZ_LEAVES), mutation=st.sampled_from(["type", "delete", "negative", *FLOAT_MUTATIONS]))
def test_fuzzed_job_files_fail_cleanly(tmp_path_factory, site, mutation):
    _run_mutated(tmp_path_factory, site, mutation)


def test_every_float_leaf_set_to_nan_huge_or_tiny_fails_cleanly(tmp_path_factory):
    # The sampled fuzz above may miss a site; this sweep reaches every float leaf with each value.
    floats = [(i, keys) for i, keys in FUZZ_LEAVES if isinstance(_leaf_at(WELL_FORMED[i][1], keys), float)]
    assert len(floats) > 40
    for site in floats:
        for mutation in FLOAT_MUTATIONS:
            _run_mutated(tmp_path_factory, site, mutation)


def _leaf_at(job, keys):
    for key in keys:
        job = job[key]
    return job


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["definitely-not-a-command", "--spec", "x.json"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["check-growth"])
    assert info.value.code == 1
    capsys.readouterr()


def test_options_may_come_before_the_command(tmp_path, capsys):
    spec = write_job(tmp_path, "job.json", {"inputs": {"a": {"expr": ONE}, "b": DECAY_HALF}, "params": {"R": 10}})
    usual = run(capsys, ["pair", "--spec", spec])
    assert usual[0] == 0
    assert run(capsys, ["--spec", spec, "pair"]) == usual


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert len(cli._HANDLERS) == 12 and all(name in out for name in cli._HANDLERS)


@pytest.mark.parametrize("argv", [
    ["--help"], ["check-growth"], ["not-a-command", "--spec", "x.json"], ["pair", "--spec", "x", "--window", "w"],
    ["pair", "--spec", "x", "--format", "xml"], ["pair", "--spec", "x", "--bogus"],
])
def test_main_parses_with_one_parser_built_at_import(capsys, monkeypatch, argv):
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()

    def rebuilt():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == fresh.value.code == (0 if argv == ["--help"] else 1)
    assert capsys.readouterr() == expected


def test_usage_error_message_names_the_program(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check-growth"])
    assert capsys.readouterr().err == "periodist: error: the following arguments are required: --spec\n"


# Values kept between calls, such as cached balls and inner-node values, change no report.
@pytest.mark.parametrize("command, job", [
    ("corona-check", {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": 0}}),
    ("reduce", {"dimension": 2, "params": {"R": 10, "epsilon": 0.25}, "inputs": {
        "a1": {"expr": {"kind": "add", "args": [COORD, {"kind": "mul", "args": [
            {"kind": "coord", "axis": 1}, {"kind": "const", "re": 0.5, "im": -0.25}]}]}},
        "a2": {"expr": ONE}, "b1": {"expr": ZERO}, "b2": {"expr": ONE}}}),
], ids=["corona-check", "reduce"])
def test_reports_are_byte_identical(tmp_path, capsys, command, job):
    spec = write_job(tmp_path, "job.json", job)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main([command, "--spec", spec, "--out", str(first)]) == 0
    assert cli.main([command, "--spec", spec, "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_csv_format(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": 0}},
    )
    code, out, _ = run(capsys, ["corona-check", "--spec", spec, "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("holds,") for line in lines)


def test_csv_writes_a_violation_index_one_row_per_coordinate(tmp_path, capsys):
    shifted = {"kind": "add", "args": [{"kind": "coord", "axis": 1}, {"kind": "const", "re": -1.0, "im": 0.0}]}
    spec = write_job(
        tmp_path,
        "job.json",
        {"dimension": 2, "inputs": {"a": [{"expr": shifted}]}, "params": {"delta": 0.5, "K": 0, "R": 3}},
    )
    code, out, _ = run(capsys, ["corona-check", "--spec", spec, "--format", "csv"])
    assert code == 2
    assert out.splitlines()[-3:] == ["holds,false", "first_violation[0],0", "first_violation[1],1"]


def test_window_flag_overrides_params(tmp_path, capsys):
    spec = write_job(
        tmp_path,
        "job.json",
        {"inputs": {"a": [{"expr": ONE}]}, "params": {"delta": 1.0, "K": 0, "R": 80}},
    )
    code, out, _ = run(capsys, ["corona-check", "--spec", spec, "--window", "5"])
    assert code == 0
    assert json.loads(out)["params"]["R"] == 5


def test_report_bytes_ignore_thread_env(tmp_path, capsys, monkeypatch):
    spec = write_job(
        tmp_path,
        "job.json",
        {"dimension": 2, "inputs": {"a": [{"expr": COORD}, {"expr": ONE}]}, "params": {"delta": 1.0, "K": 0, "R": 30}},
    )
    reports = []
    for env in (None, "4"):
        if env is not None:
            monkeypatch.setenv("PERIODIST_THREADS", env)
        out = tmp_path / f"report-{env}.json"
        assert run(capsys, ["corona-check", "--spec", spec, "--out", str(out)])[0] == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["threads"] == 1


def _deep_job(tmp_path, depth: int) -> str:
    # Written by hand: json.dumps itself recurses once per level.
    tree = '{"kind": "neg", "arg": ' * depth + json.dumps(COORD) + "}" * depth
    path = tmp_path / f"deep-{depth}.json"
    path.write_text('{"inputs": {"a": {"expr": ' + tree + '}}, "params": {"R": 4}}')
    return str(path)


@pytest.mark.parametrize("depth", [1500, 5000])
def test_deeply_nested_job_is_an_input_error(tmp_path, capsys, depth):
    spec = _deep_job(tmp_path, depth)
    code, out, err = run(capsys, ["check-growth", "--spec", spec])
    assert code == 1
    assert out == ""
    assert "nested too deeply" in err and spec in err
    assert "Traceback" not in err


def test_deep_tree_the_decoder_accepts_but_the_parser_cannot(tmp_path, capsys, monkeypatch):
    spec = _deep_job(tmp_path, 200)
    code, out, _ = run(capsys, ["check-growth", "--spec", spec])
    assert code == 0 and json.loads(out)["results"]["holds"] is True
    # A parse that runs out of stack names the input it was reading.
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.SlowSequence, "from_json", staticmethod(too_deep))
    code, out, err = run(capsys, ["check-growth", "--spec", spec])
    assert (code, out) == (1, "")
    assert "inputs.a: nested too deeply to parse" in err


def _deep_bezout_job(tmp_path, depth: int) -> str:
    # a[0] is -(...(-n)...) nested `depth` deep, beside the constant 1.
    tree = '{"kind": "neg", "arg": ' * depth + json.dumps(COORD) + "}" * depth
    path = tmp_path / f"deep-bezout-{depth}.json"
    path.write_text('{"inputs": {"a": [{"expr": ' + tree + "}, " + json.dumps({"expr": ONE})
                    + ']}, "params": {"R": 10, "delta": 1, "K": 0}}')
    return str(path)


def _cli_process(argv, address_space: int | None = None):
    """``python -m periodist.cli`` in a fresh interpreter: the stack depth a user has.
    ``address_space`` caps its memory in bytes, so a runaway allocation fails in it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = None
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"  # few thread buffers under the cap

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    done = subprocess.run([sys.executable, "-m", "periodist.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120, preexec_fn=limit)
    return done.returncode, done.stdout, done.stderr


HUGE_SUPPORT = {"expr": {"kind": "expdecay", "rate": 1.0}, "support": 10**9}


@pytest.mark.parametrize("command", ["pair", "gap"])
def test_support_past_the_window_needs_a_decay_envelope(tmp_path, command):
    slow = {"a": {"expr": ONE}} if command == "pair" else {"x": {"expr": ONE}, "y": {"expr": ZERO}}

    def capped(name, fast):
        # At 1 GiB, a bound that scanned the declared support would fail instead of exhausting the host.
        spec = write_job(tmp_path, name, {"inputs": {**slow, "b": fast}, "params": {"R": 5}})
        return _cli_process([command, "--spec", spec], address_space=1 << 30)

    code, out, err = capped("bare.json", HUGE_SUPPORT)
    assert (code, out) == (1, "")
    assert err == ("periodist: input error: inputs.b.support: must be <= 5, the window R, "
                   "unless a decay envelope is given, got 1000000000\n")
    code, out, err = capped("decay.json", {**HUGE_SUPPORT, "decay": {"C": 1.0, "j": 0, "rate": 1.0}})
    assert (code, err) == (0, "")
    # The support claim is dropped: the bounds past R are the envelope's.
    envelope = FastSequence(ex.ExpDecay(1.0), 1, decay=DecayBound(1.0, 0, 1.0))
    results = json.loads(out)["results"]
    if command == "pair":
        assert results["tail_bound"] == pairing(constant(1.0), envelope, 5).tail_bound
    else:
        assert results["bound"] == weak_star_gap(constant(1.0), constant(0.0), envelope, 5).bound


@pytest.mark.parametrize("depth, what", [(5000, "nested too deeply to decode")])
def test_report_too_deep_to_render_is_an_input_error(tmp_path, depth, what):
    code, out, err = _cli_process(["bezout-solve", "--spec", _deep_bezout_job(tmp_path, depth)])
    assert (code, out) == (1, "")
    assert err.startswith("periodist: input error: ") and what in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_as_deep_as_the_parser_accepts_renders(tmp_path, fmt):
    # The report echoes the 980-deep tree and holds cofactors deeper still; rendering does not recurse.
    spec = _deep_bezout_job(tmp_path, 980)
    code, out, err = _cli_process(["bezout-solve", "--spec", spec, "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "json":
        assert out.count('"kind": "neg"') >= 2 * 980 and out.endswith('\n  "verdict": "pass"\n}\n')
    else:
        assert out.splitlines()[:3] == ["key,value", "command,bezout-solve", "verdict,pass"]
        assert any(key.count(".arg") >= 980 for key in out.split())


def test_deep_report_that_renders_still_passes(tmp_path):
    code, out, _ = _cli_process(["bezout-solve", "--spec", _deep_bezout_job(tmp_path, 200)])
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_report_is_rendered_without_json_dumps(tmp_path, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("json.dumps called on the report path")

    dumps, spec, report = json.dumps, _deep_bezout_job(tmp_path, 3), tmp_path / "report.json"
    monkeypatch.setattr(cli.json, "dumps", unused)
    code, out, err = run(capsys, ["bezout-solve", "--spec", spec, "--out", str(report)])
    assert (code, out, err) == (0, "", "")
    text = report.read_text()
    assert text == dumps(json.loads(text), indent=2) + "\n"


def _rows(entry):
    """One to four rows of one length, 1 to 3, of ``entry`` values."""
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))


ROW_NUMBER = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63, max_value=2**300),
    st.floats(), EDGE_FLOATS, st.floats().map(np.float64),
    st.text(max_size=6), st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é€😀\u2028"]),
)

# Rows of finite floats, as [re, im] pairs are; rows of one length that hold an
# int or a non-finite value; rows of mixed length holding ints, non-finite
# values, float subclasses or a numpy integer.
ROWS = _rows(ROW_NUMBER)
ODD_ROWS = _rows(st.one_of(ROW_NUMBER, EDGE_FLOATS, st.integers()))
RAGGED = st.lists(st.lists(st.one_of(ROW_NUMBER, st.integers(), EDGE_FLOATS, st.floats().map(np.float64),
                                     st.just(np.int64(7))), max_size=3), max_size=4)
KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none(),
                 st.tuples(st.integers()))
REPORT_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, ROWS, ODD_ROWS, RAGGED,
              ROWS.map(lambda rows: {f"{i},0": row for i, row in enumerate(rows)})),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(REPORT_VALUES)
def test_json_report_text_is_json_dumps_indent_2(value):
    try:
        expected = json.dumps(value, indent=2) + "\n"
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            cli.render_report(value, "json")
    else:
        assert cli.render_report(value, "json") == expected


# -- witnesses whose delta rounds to 0, and deep clip patterns --------------


def _clip_gap_job(tmp_path, depth: int) -> str:
    # x = clip(y, 1/4) for y = -(...(-n)...) nested `depth` deep; written by hand like _deep_job.
    tree = '{"kind": "neg", "arg": ' * depth + json.dumps(COORD) + "}" * depth
    decay = json.dumps({"expr": {"kind": "expdecay", "rate": 1.0}, "decay": {"C": 1.0, "j": 0, "rate": 1.0}})
    path = tmp_path / f"clip-gap-{depth}.json"
    path.write_text('{"dimension": 1, "params": {"R": 5}, "inputs": {"x": {"expr": {"kind": "clip", "arg": '
                    + tree + ', "eps": 0.25}}, "y": {"expr": ' + tree + '}, "b": ' + decay + "}}")
    return str(path)


def test_gap_recognises_a_clip_as_deep_as_the_parser_accepts(tmp_path, capsys):
    # The clip's argument is compared with y without recursion: at depth 900 the
    # report is the depth-300 one, in-process and in a fresh interpreter.
    code, shallow, err = run(capsys, ["gap", "--spec", _clip_gap_job(tmp_path, 300)])
    assert (code, err) == (0, "")
    results = json.loads(shallow)
    assert results["results"]["bound_finite"] is True and results["verdict"] == "pass"
    deep = _clip_gap_job(tmp_path, 900)
    code, out, err = run(capsys, ["gap", "--spec", deep])
    assert (code, err) == (0, "")
    assert json.loads(out)["results"] == results["results"]
    code, out, err = _cli_process(["gap", "--spec", deep])
    assert (code, err) == (0, "")
    assert json.loads(out)["results"] == results["results"]


def test_same_tree_is_equality_without_recursion():
    shared = ex.Clip(ex.Coord(0), 0.5)
    a, b = ex.Add((shared, shared)), ex.Add((ex.Clip(ex.Coord(0), 0.5), ex.Clip(ex.Coord(0), 0.5)))
    for x, y in [(a, b), (a, ex.Add((shared,))), (shared, ex.Clip(ex.Coord(0), 0.25)),
                 (shared, ex.Abs(ex.Coord(0))), (ex.Const(0.0), ex.Const(-0.0))]:
        assert ex.same_tree(x, y) is (x == y)
    deep_x, deep_y = ex.Coord(0), ex.Coord(0)
    for _ in range(5000):
        deep_x, deep_y = ex.Neg(deep_x), ex.Neg(deep_y)
    assert ex.same_tree(deep_x, deep_y) and not ex.same_tree(deep_x, ex.Neg(deep_y))


# b = 1 + 0 * 1e308 * 1e308 is 1 everywhere, but its composed growth is M = inf.
INF_GROWTH_ONE = {"expr": {"kind": "add", "args": [ONE, {"kind": "mul", "args": [
    ZERO, {"kind": "const", "re": 1e308, "im": 0.0}, {"kind": "const", "re": 1e308, "im": 0.0}]}]}}


def _quiet_run(tmp_path, name, job, command):
    """``cli.main`` on a job with numpy's RuntimeWarnings as errors; returns (code, report, stderr)."""
    spec, report = write_job(tmp_path, name, job), tmp_path / f"{name}.report"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([command, "--spec", spec, "--out", str(report)])
    return code, json.loads(report.read_text()) if report.exists() else None, err.getvalue()


def test_bezout_verify_with_a_cofactor_of_infinite_growth_recovers_no_witness(tmp_path):
    job = {"inputs": {"a": [{"expr": ONE}], "b": [INF_GROWTH_ONE]}}
    code, report, err = _quiet_run(tmp_path, "verify", job, "bezout-verify")
    assert (code, err) == (0, "")
    assert report["results"]["max_residual"] == 0.0 and report["results"]["recovered_witness"] is None


def test_reduce_with_a_cofactor_of_infinite_growth_has_no_inverse_witness(tmp_path):
    job = {"inputs": {"a1": {"expr": ONE}, "a2": {"expr": ZERO}, "b1": INF_GROWTH_ONE, "b2": {"expr": ZERO}}}
    code, report, err = _quiet_run(tmp_path, "reduce", job, "reduce")
    assert (code, err) == (0, "")
    results = report["results"]
    assert results["inverse_witness"] is None
    assert results["witness_factors"]["clipped_cofactor_reciprocal"] is None
    assert results["witness_factors"]["normalizer"] == {"delta": 1.0, "K": 0}


def test_bezout_solve_on_a_subnormal_clip_fails_with_a_nan_residual(tmp_path):
    job = {"inputs": {"a": [{"expr": {"kind": "clip", "arg": COORD, "eps": 1e-310}}]}}
    code, report, err = _quiet_run(tmp_path, "solve", job, "bezout-solve")
    assert (code, err) == (2, "")
    assert report["verdict"] == "fail" and math.isnan(report["results"]["self_residual"])
    assert report["results"]["witness"]["delta"] == 1e-310 and report["results"]["recovered_witness"] is None
