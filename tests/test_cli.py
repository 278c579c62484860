import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsieve import cli, fock_channel, gaussian, heralding
from photonsieve import distributions as dist
from photonsieve.errors import TooLarge


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run_cli(args, module="photonsieve.cli"):
    # the child imports photonsieve from where this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env,
    )


def rejected_as(tmp_path, capsys, config):
    """The stderr error object of an in-process run that must exit 2 and
    write no output."""
    out = tmp_path / "rejected.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 2
    assert not out.exists()
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def tmsv_circuit():
    return {
        "modes": 2,
        "squeezing": [0.6, -0.6],
        "transmission": {
            "unitary": [[[0.7071067811865476, 0.0],
                         [0.7071067811865476, 0.0]],
                        [[0.7071067811865476, 0.0],
                         [-0.7071067811865476, 0.0]]],
        },
    }


def test_total_dist_round_trip(tmp_path):
    config = {"circuit": tmsv_circuit(),
              "task": {"kind": "total-dist", "max_total": 8}}
    out = tmp_path / "result.json"
    code = cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    probs = payload["result"]["probabilities"]
    # two-mode squeezed vacuum: only even totals, geometric weights
    r = 0.6
    th, ch = math.tanh(r), math.cosh(r)
    for k in range(4):
        assert np.isclose(probs[2 * k], th ** (2 * k) / ch ** 2, atol=1e-10)
        assert abs(probs[2 * k + 1]) < 1e-12
    assert payload["version"]
    assert payload["config"]["task"]["kind"] == "total-dist"


def test_total_dist_csv(tmp_path):
    config = {"circuit": {"modes": 1, "squeezing": [0.5]},
              "task": {"kind": "total-dist", "max_total": 4}}
    out = tmp_path / "result.csv"
    code = cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,probability"
    assert np.isclose(float(lines[1].split(",")[1]), 1 / math.cosh(0.5))
    # only a total-dist result is a distribution: any other task with a
    # .csv output is rejected before it runs, and writes no file
    config["task"] = {"kind": "fine-prob", "pattern": [1]}
    out = tmp_path / "fine.csv"
    with mock.patch.object(cli, "run") as run:
        assert cli.main(["run", "--config", write_config(tmp_path, config),
                         "--output", str(out)]) == 2
    assert not run.called and not out.exists()


def fock_ready(circuit, kind):
    """``circuit`` for a task of ``kind``: a Fock task rejects the keys of
    a Gaussian state, so it gets the circuit without its squeezing."""
    if kind.startswith("fock"):
        return {k: v for k, v in circuit.items() if k != "squeezing"}
    return circuit


def fock_input(kind):
    """The ``input`` key of a task of ``kind``: only a Fock task reads it,
    and any other task rejects it."""
    return {"input": [1, 1]} if kind.startswith("fock") else {}


def test_fine_and_coarse_prob(tmp_path):
    config = {"circuit": tmsv_circuit(),
              "task": {"kind": "fine-prob", "pattern": [1, 1]}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    r = 0.6
    want = math.tanh(r) ** 2 / math.cosh(r) ** 2
    assert np.isclose(json.loads(out.read_text())["result"]["probability"],
                      want, atol=1e-10)
    config["task"] = {"kind": "coarse-prob", "blocks": [[0, 1]],
                      "counts": [2]}
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert np.isclose(json.loads(out.read_text())["result"]["probability"],
                      want, atol=1e-10)


def test_herald_task_fidelity(tmp_path):
    config = {
        "circuit": {
            "modes": 2,
            "internals": 2,
            "squeezing": [1.1, 1.1],
            "spectral_purity": 1.0,
            "transmission": {
                "unitary": [[[0.7071067811865476, 0.0],
                             [0.0, 0.7071067811865476]],
                            [[0.0, 0.7071067811865476],
                             [0.7071067811865476, 0.0]]],
                "efficiency": 0.9,
            },
        },
        "task": {
            "kind": "herald",
            "herald_modes": [0, 1],
            "measurement": {"blocks": [[0, 1]], "counts": [1]},
            "trace_out": [3],
            "cutoff": 15,
            "target": {"fock": 1},
        },
    }
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert abs(result["fidelity"] - 0.90) < 0.01
    assert result["cutoff"] == 15
    assert np.isclose(result["trace"][0], 1.0, atol=1e-9)


def test_herald_output_is_compact_json(tmp_path):
    config = {"circuit": {"modes": 2, "squeezing": [0.8, 0.0],
                          "transmission": {"haar_seed": 2,
                                           "efficiency": 0.9}},
              "task": {"kind": "herald", "herald_modes": [0],
                       "measurement": [1], "cutoff": 4,
                       "target": {"fock": 1}}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n") and "\n" not in text[:-1]
    payload = json.loads(text)
    assert set(payload) == {"version", "config", "result"}
    result = payload["result"]
    assert set(result) == {"modes", "cutoff", "trace", "entries", "fidelity"}
    assert len(result["trace"]) == 2
    assert all(isinstance(x, float) for x in result["trace"])
    assert result["entries"]
    for i, j, re, im in result["entries"]:
        assert isinstance(i, int) and isinstance(j, int)
        assert isinstance(re, float) and isinstance(im, float)


def test_herald_task_unnormalized_vector_target(tmp_path):
    """A vector target is normalized before the fidelity is read."""
    circuit = {"modes": 2, "squeezing": [0.8, 0.0],
               "transmission": {"haar_seed": 2, "efficiency": 0.9}}
    v = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
    config = {"circuit": circuit,
              "task": {"kind": "herald", "herald_modes": [0],
                       "measurement": [1], "cutoff": 4,
                       "target": v.tolist()}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    dm = heralding.herald_grouped(
        gaussian.to_adjacency(cli.build_state(circuit)),
        heralding.HeraldSpec([0], [1], 4))
    assert json.loads(out.read_text())["result"]["fidelity"] == \
        heralding.fidelity(dm.normalized(), v / np.linalg.norm(v))


def test_fock_prob_task(tmp_path):
    config = {
        "circuit": {"modes": 2,
                    "transmission": [[[0.7071067811865476, 0.0],
                                      [0.7071067811865476, 0.0]],
                                     [[0.7071067811865476, 0.0],
                                      [-0.7071067811865476, 0.0]]]},
        "task": {"kind": "fock-prob", "input": [1, 1],
                 "blocks": [[0], [1]], "counts": [1, 1]},
    }
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert abs(json.loads(out.read_text())["result"]["probability"]) < 1e-12


def test_fock_prob_task_reads_gram(tmp_path):
    """Overlap s = 0.6 + 0.3i between the two photons: the Hong-Ou-Mandel
    coincidence probability is (1 - |s|^2) / 2."""
    s = [0.6, 0.3]
    config = {
        "circuit": {"modes": 2, "transmission": tmsv_circuit()
                    ["transmission"]["unitary"]},
        "task": {"kind": "fock-prob", "input": [1, 1],
                 "blocks": [[0], [1]], "counts": [1, 1],
                 "gram": [[1, s], [[s[0], -s[1]], 1]]},
    }
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert np.isclose(json.loads(out.read_text())["result"]["probability"],
                      (1 - 0.45) / 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind, gram", [
    ("fock-prob", [[1, 2], [2, 1]]),          # not positive semidefinite
    ("fock-prob", [[1, 0.5], [0.4, 1]]),      # not Hermitian
    ("fock-herald", [[1, 0.5], [0.5, 1]]),    # heralds take no Gram matrix
])
def test_bad_gram_exit_code(tmp_path, capsys, kind, gram):
    """Each variant gives only its own task's keys, so the run reaches the
    Gram check and fails there."""
    error = "NotPositiveDefinite" if kind == "fock-prob" else "DomainError"
    own = ({"blocks": [[0], [1]], "counts": [1, 1]} if kind == "fock-prob"
           else {"herald_modes": [0], "measurement": [1], "cutoff": 1})
    config = {
        "circuit": {"modes": 2, "transmission": tmsv_circuit()
                    ["transmission"]["unitary"]},
        "task": {"kind": kind, "input": [1, 1], "gram": gram, **own},
    }
    assert rejected_as(tmp_path, capsys, config)["error"] == error


def test_moments_task(tmp_path):
    config = {"circuit": {"modes": 1, "squeezing": [0.8]},
              "task": {"kind": "moments", "blocks": [[0]],
                       "statistic": "moment"}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert np.isclose(json.loads(out.read_text())["result"]["value"],
                      math.sinh(0.8) ** 2, atol=1e-9)


def test_moments_task_cumulant(tmp_path):
    circuit = {"modes": 2, "squeezing": [0.8, 0.4],
               "transmission": {"haar_seed": 4, "efficiency": 0.9}}
    config = {"circuit": circuit,
              "task": {"kind": "moments", "blocks": [[0], [1]],
                       "statistic": "cumulant"}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["value"] == \
        dist.coarse_cumulant(cli.build_state(circuit), [[0], [1]])


def test_pp_estimate_deterministic(tmp_path):
    config = {
        "circuit": {"modes": 2, "squeezing": [0.4, 0.4],
                    "transmission": {"haar_seed": 5, "efficiency": 0.8}},
        "task": {"kind": "pp-estimate", "samples": 20000, "seed": 9,
                 "n_values": [0, 1, 2]},
    }
    path = write_config(tmp_path, config)
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["run", "--config", path, "--output", str(o1)]) == 0
    assert cli.main(["run", "--config", path, "--output", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_malformed_partition_exit_code(tmp_path, capsys):
    config = {"circuit": {"modes": 2, "squeezing": [0.3, 0.3]},
              "task": {"kind": "coarse-prob", "blocks": [[0], [0]],
                       "counts": [1, 1]}}
    proc = run_cli(["run", "--config", write_config(tmp_path, config)])
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "PartitionMismatch"
    moments = {"kind": "moments", "blocks": [[0], [1]],
               "statistic": "block-cumulant", "order": 2}
    fine = {"kind": "fine-prob", "pattern": [0]}
    for circuit, task in (
            ({"modes": 2, "squeezing": [0.3, 0.3]}, moments),
            ({"modes": 1}, fine),
            ({"modes": 1, "squeezing": [0.3], "husimi_cov": [[1, 0], [0, 1]]},
             fine)):
        err = rejected_as(tmp_path, capsys, {"circuit": circuit, "task": task})
        assert err["error"] == "PartitionMismatch"


def test_unknown_kind_and_missing_field(tmp_path, capsys):
    config = {"circuit": {"modes": 1, "squeezing": [0.1]},
              "task": {"kind": "nope"}}
    assert cli.main(["run", "--config",
                     write_config(tmp_path, config)]) == 2
    config = {"task": {"kind": "fine-prob"}}
    assert cli.main(["run", "--config",
                     write_config(tmp_path, config)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    fine = {"kind": "fine-prob", "pattern": [0, 0]}
    for config, error in (
            ([fine], "DomainError"),
            ({"circuit": tmsv_circuit()}, "DomainError"),
            ({"circuit": {"modes": 1, "squeezing": [0.1]},
              "task": {"kind": "moments", "blocks": [[0]],
                       "statistic": "median"}}, "DomainError"),
            ({"circuit": {"modes": 2, "squeezing": ["0.1", 0.1]},
              "task": fine}, "DomainError"),
            ({"circuit": {"modes": 2, "squeezing": [0.1, 0.1],
                          "transmission": {"haar_seed": 1,
                                           "efficiency": 1.5}},
              "task": fine}, "DomainError"),
            ({"circuit": {"modes": 2, "squeezing": [0.1, 0.1],
                          "transmission": np.eye(3).tolist()},
              "task": fine}, "LayoutMismatch")):
        assert rejected_as(tmp_path, capsys, config)["error"] == error


@pytest.mark.parametrize("circuit, task", [
    ({"modes": 1, "squeezing": [0.3]}, {"kind": "fine-prob"}),
    ({"modes": 1, "squeezing": 0.3}, {"kind": "fine-prob", "pattern": [1]}),
], ids=["no-pattern", "number-squeezing"])
def test_missing_or_unreadable_key_is_a_bad_config(tmp_path, capsys,
                                                   circuit, task):
    """A missing task key, or a circuit value of the wrong JSON type that
    no check of its own names, is a ``DomainError`` (exit 2), never a
    traceback."""
    err = rejected_as(tmp_path, capsys, {"circuit": circuit, "task": task})
    assert err["error"] == "DomainError"
    assert err["message"].startswith("bad config")


@pytest.mark.parametrize("circuit, task", [
    ({"modes": 1.5, "squeezing": [0.3]},
     {"kind": "fine-prob", "pattern": [1]}),
    ({"modes": 1, "internals": 1.9, "squeezing": [0.3]},
     {"kind": "fine-prob", "pattern": [1]}),
    ({"modes": 2.7},
     {"kind": "fock-prob", "input": [1, 1], "blocks": [[0], [1]],
      "counts": [1, 1]}),
    ({"modes": 2.5, "squeezing": [0.5, 0.3]},
     {"kind": "pp-estimate", "samples": 1000, "n_values": [0]}),
    ({"modes": "2"},
     {"kind": "fock-prob", "input": [1, 1], "blocks": [[0], [1]],
      "counts": [1, 1]}),
], ids=["state-modes", "state-internals", "fock-modes", "pp-modes",
        "string-modes"])
def test_fractional_mode_counts_are_rejected(tmp_path, capsys, circuit,
                                             task):
    """Mode counts reach ``ModeLayout`` as given, so a fractional or
    non-numeric one is a validation error that names the mode counts, never
    truncated or converted."""
    err = rejected_as(tmp_path, capsys, {"circuit": circuit, "task": task})
    assert err["error"] == "DomainError"
    assert "mode counts" in err["message"]


@pytest.mark.parametrize("squeezing, pattern, error", [
    ([0.3], [200], "TooLarge"),
    ([0.3, 0.2], [100, 100], "TooLarge"),
    ([0.3, 0.2], [True, False], "DomainError"),
], ids=["factorial-200", "factorials-100-100", "booleans"])
def test_unreadable_patterns_exit_code(tmp_path, capsys, squeezing, pattern,
                                       error):
    """A pattern whose prod k! exceeds the double range, or one of
    booleans, is a validation error (exit 2), not a traceback, a numeric
    failure or a read of ones and zeros."""
    config = {"circuit": {"modes": len(squeezing), "squeezing": squeezing},
              "task": {"kind": "fine-prob", "pattern": pattern}}
    assert rejected_as(tmp_path, capsys, config)["error"] == error


def test_package_runs_as_a_module(tmp_path, capsys):
    config = {"circuit": tmsv_circuit(),
              "task": {"kind": "fine-prob", "pattern": [1, 1]}}
    path = write_config(tmp_path, config)
    proc = run_cli(["run", "--config", path], module="photonsieve")
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["run", "--config", path]) == 0
    assert json.loads(proc.stdout) == json.loads(capsys.readouterr().out)


def readme_block(lang):
    """The first ``lang`` code block of the README."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path):
    """The README's library quick start runs, and its config runs through
    the command line to a fidelity: every name and key it shows is live."""
    exec(readme_block("python"), {})
    config = json.loads(readme_block("json"))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert "fidelity" in json.loads(out.read_text())["result"]


def test_state_factorization_budget():
    """build_state and to_adjacency of a 4 x 4 distinguishable circuit, a
    32 x 32 covariance: one Cholesky factor per check (two checks of the one
    state built), one eigvalsh and one inverse of the final covariance, and
    one SVD of the 4 x 4 transmission, before its product with I_4."""
    u = np.sqrt(0.85) * cli.haar_unitary(4, 11)
    xi = np.zeros(16)
    xi[[0, 5, 10, 15]] = [0.9, 0.8, 0.7, 0.6]
    circ = {"modes": 4, "internals": 4, "squeezing": xi.tolist(),
            "transmission": [[[v.real, v.imag] for v in row] for row in u]}
    names = ["cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh",
             "inv", "lstsq", "matrix_rank", "pinv", "qr", "slogdet", "solve",
             "svd"]
    calls = []

    def spy(name, real):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        return call

    with mock.patch.multiple(np.linalg, **{
            n: spy(n, getattr(np.linalg, n)) for n in names}):
        gaussian.to_adjacency(cli.build_state(circ))
    assert sorted(calls) == [("cholesky", (32, 32))] * 2 + [
        ("eigvalsh", (32, 32)), ("inv", (32, 32)), ("svd", (4, 4))]


def literal(mat):
    """A complex matrix as CLI JSON: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_build_state_is_the_public_composition(data):
    """build_state checks one state at the end; its covariance and means
    are, bit for bit, those of displace(apply_channel(source, t), alpha)
    through the public steps, each of which checks its own state.  The
    source is squeezed vacua or an impure source, and the transmission
    externals-sized (expanded by I_K) or total-sized."""
    impure = data.draw(st.booleans(), label="impure")
    k = 2 if impure else data.draw(st.integers(1, 3), label="internals")
    m = data.draw(st.integers(1, 3), label="externals")
    layout = gaussian.ModeLayout(m, k)
    n = layout.total
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    full = data.draw(st.booleans(), label="total-sized")
    eta = data.draw(st.floats(0.1, 1.0), label="efficiency")
    t = np.sqrt(eta) * cli.haar_unitary(n if full else m, rng)
    circ = {"modes": m, "internals": k, "transmission": literal(t)}
    if impure:
        xi = rng.uniform(0.0, 0.8, m)
        purity = data.draw(st.floats(0.55, 1.0), label="purity")
        circ.update(squeezing=xi.tolist(), spectral_purity=purity)
        state = gaussian.impure_source(xi, purity, layout)
    else:
        xi = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n)
        circ["squeezing"] = literal([xi])[0]
        state = gaussian.from_squeezing(xi, layout)
    state = gaussian.apply_channel(state, t if full else np.kron(t, np.eye(k)))
    if data.draw(st.booleans(), label="displaced"):
        alphas = rng.normal(size=n) + 1j * rng.normal(size=n)
        circ["displacements"] = literal([alphas])[0]
        state = gaussian.displace(state, alphas)
    built = cli.build_state(circ)
    assert built.husimi_cov.tobytes() == state.husimi_cov.tobytes()
    assert built.means.tobytes() == state.means.tobytes()


@pytest.mark.parametrize("means, channel", [
    (False, False), (True, False), (True, True),
], ids=["alone", "means", "channel-displaced"])
def test_husimi_cov_circuit_is_the_library_state(tmp_path, means, channel):
    """A ``husimi_cov`` circuit builds, bit for bit, the ``GaussianState``
    of that covariance (and means), through ``apply_channel`` and
    ``displace`` when it has a transmission and displacements; ``fine-prob``
    on it is ``prob_fine`` of that state."""
    layout = gaussian.ModeLayout(2)
    source = gaussian.from_squeezing([0.5, 0.3 + 0.2j], layout)
    mu = np.array([0.2 + 0.1j, -0.3j])
    circ = {"modes": 2, "husimi_cov": literal(source.husimi_cov)}
    z = np.concatenate([mu, mu.conj()]) if means else np.zeros(4)
    if means:
        circ["means"] = literal([z])[0]
    state = gaussian.GaussianState(source.husimi_cov, z, layout)
    if channel:
        t = np.sqrt(0.8) * cli.haar_unitary(2, 6)
        alphas = np.array([0.4, -0.1 + 0.3j])
        circ.update(transmission=literal(t),
                    displacements=literal([alphas])[0])
        state = gaussian.displace(gaussian.apply_channel(state, t), alphas)
    built = cli.build_state(circ)
    assert built.husimi_cov.tobytes() == state.husimi_cov.tobytes()
    assert built.means.tobytes() == state.means.tobytes()
    config = {"circuit": circ,
              "task": {"kind": "fine-prob", "pattern": [1, 2]}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["probability"] == \
        dist.prob_fine(gaussian.to_adjacency(state), [1, 2])


@pytest.mark.parametrize("total_sized", [False, True])
def test_transmission_above_unit_singular_value_exit_code(
        tmp_path, capsys, total_sized):
    """A transmission with a singular value above 1 is ``NotSubunitary``
    (exit 2), whether it is checked at the externals size, before its
    product with I_K, or given total-sized."""
    u = 1.05 * cli.haar_unitary(4 if total_sized else 2, 3)
    config = {"circuit": {"modes": 2, "internals": 2,
                          "squeezing": [0.3, 0.0, 0.2, 0.0],
                          "transmission": {"unitary": literal(u)}},
              "task": {"kind": "fine-prob", "pattern": [1, 0, 1, 0]}}
    assert rejected_as(tmp_path, capsys, config)["error"] == "NotSubunitary"


_FINE = {"kind": "fine-prob", "pattern": [1, 1]}
_PP = {"kind": "pp-estimate", "samples": 100, "n_values": [0]}


@pytest.mark.parametrize("circuit, task", [
    ({"modes": 2, "squeezing": [True, 0.3]}, _FINE),
    ({"modes": 2, "squeezing": [[0.2, False], 0.3]}, _FINE),
    ({"modes": 2, "squeezing": [0.2, 0.3],
      "transmission": {"unitary": [[True, 0.0], [0.0, 1.0]]}}, _FINE),
    ({"modes": 2, "squeezing": [0.2, 0.3],
      "transmission": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]},
     _FINE),
    ({"modes": 2, "squeezing": [0.2, 0.3],
      "transmission": {"haar_seed": 2, "efficiency": True}}, _FINE),
    ({"modes": 2, "squeezing": [0.2, 0.3],
      "transmission": {"haar_seed": True}}, _FINE),
    ({"modes": 2, "squeezing": [0.2, 0.3], "displacements": [True, 0.0]},
     _FINE),
    ({"modes": 2, "husimi_cov": np.eye(4).tolist(),
      "means": [True, 0.0, 1.0, 0.0]}, _FINE),
    ({"modes": 2, "husimi_cov": [[True, 0.0, 0.0, 0.0]]
      + np.eye(4)[1:].tolist()}, _FINE),
    ({"modes": 1, "internals": 2, "squeezing": [True],
      "spectral_purity": 0.9}, {"kind": "external-prob", "pattern": [1]}),
    ({"modes": 1, "internals": 2, "squeezing": [0.5],
      "spectral_purity": True}, {"kind": "external-prob", "pattern": [1]}),
    ({"modes": 2}, {"kind": "fock-prob", "input": [1, 1],
                    "blocks": [[0], [1]], "counts": [1, 1],
                    "gram": [[1.0, True], [1.0, 1.0]]}),
    ({"modes": 1, "squeezing": [0.5]},
     {"kind": "herald", "herald_modes": [0], "measurement": [0],
      "cutoff": 1, "target": [True, 0.0]}),
    ({"modes": 1, "squeezing": [True]}, _PP),
    ({"modes": 1, "squeezing": [0.5]}, {**_PP, "seed": True}),
], ids=["squeezing", "squeezing-pair", "unitary", "transmission",
        "efficiency", "haar_seed", "displacements", "means", "husimi_cov",
        "impure-squeezing", "spectral_purity", "gram", "target",
        "pp-squeezing", "pp-seed"])
def test_json_booleans_are_no_numbers(tmp_path, capsys, circuit, task):
    """JSON ``true`` and ``false`` are no numbers: Python reads them as the
    ints 1 and 0, but in a number field of the config each one is a
    ``DomainError`` (exit 2), as in counts, mode lists and blocks."""
    config = {"circuit": circuit, "task": task}
    assert rejected_as(tmp_path, capsys, config)["error"] == "DomainError"


def test_seed_override(tmp_path):
    config = {
        "circuit": {"modes": 1, "squeezing": [0.4]},
        "task": {"kind": "pp-estimate", "samples": 5000, "seed": 1,
                 "n_values": [2]},
    }
    path = write_config(tmp_path, config)
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["run", "--config", path, "--seed", "77",
                     "--output", str(o1)]) == 0
    assert cli.main(["run", "--config", path, "--seed", "78",
                     "--output", str(o2)]) == 0
    a = json.loads(o1.read_text())["result"]["estimates"]
    b = json.loads(o2.read_text())["result"]["estimates"]
    assert a != b


def test_config_round_trip_in_payload(tmp_path):
    config = {"circuit": {"modes": 1, "squeezing": [0.3]},
              "task": {"kind": "fine-prob", "pattern": [0]}}
    out = tmp_path / "r.json"
    path = write_config(tmp_path, config)
    assert cli.main(["run", "--config", path, "--output", str(out)]) == 0
    embedded = json.loads(out.read_text())["config"]
    for key in config:
        assert embedded[key] == config[key]


def test_total_dist_max_total_matches_prob_total(tmp_path):
    config = {"circuit": {"modes": 2, "squeezing": [0.5, 0.3],
                          "transmission": {"haar_seed": 3,
                                           "efficiency": 0.8}},
              "task": {"kind": "total-dist", "max_total": 6}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    rep = gaussian.to_adjacency(cli.build_state(config["circuit"]))
    want = [dist.prob_total(rep, [0, 1], n) for n in range(7)]
    assert result["support"] == list(range(7))
    assert np.allclose(result["probabilities"], want, rtol=1e-12, atol=1e-15)
    assert np.isclose(result["deficit"], 1.0 - sum(want), atol=1e-12)


def test_zero_probability_herald_exits_numeric_error(tmp_path):
    # one photon through a balanced splitter never yields two at port 1
    config = {
        "circuit": {"modes": 2, "transmission": tmsv_circuit()["transmission"]
                    ["unitary"]},
        "task": {"kind": "fock-herald", "input": [1, 0],
                 "herald_modes": [1], "measurement": [2], "cutoff": 2},
    }
    out = tmp_path / "r.json"
    proc = run_cli(["run", "--config", write_config(tmp_path, config),
                    "--output", str(out)])
    assert proc.returncode == 3
    assert not out.exists()
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "ZeroProbability"
    config["task"]["normalize"] = False
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["trace"] == [0.0, 0.0]


@pytest.mark.parametrize("kind", ["herald", "fock-herald"])
def test_herald_mode_out_of_range_exit_code(tmp_path, kind):
    config = {"circuit": fock_ready(tmsv_circuit(), kind),
              "task": {"kind": kind, **fock_input(kind), "herald_modes": [0],
                       "measurement": [1], "cutoff": 2, "trace_out": [-1]}}
    out = tmp_path / "r.json"
    proc = run_cli(["run", "--config", write_config(tmp_path, config),
                    "--output", str(out)])
    assert proc.returncode == 2
    assert not out.exists()
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "IndexOutOfRange"


@pytest.mark.parametrize("task", [
    {"kind": "coarse-prob", "blocks": [[0], [1.0]], "counts": [1, 1]},
    {"kind": "fock-prob", "input": [1, 1], "blocks": [[0.5], [1]],
     "counts": [1, 0]},
    {"kind": "moments", "blocks": [[0], [1.0]], "statistic": "moment"},
], ids=["coarse-prob", "fock-prob", "moments"])
def test_block_entries_that_are_no_indices_exit_code(tmp_path, capsys, task):
    """A block entry that is no integer index is a ``PartitionMismatch``
    (exit 2), never an ``IndexError``, before and after the same task has
    run on the integer blocks in this process."""
    config = {"circuit": fock_ready(tmsv_circuit(), task["kind"]),
              "task": task}
    assert rejected_as(tmp_path, capsys, config)["error"] == \
        "PartitionMismatch"
    ok = {**config, "task": {**task, "blocks": [[0], [1]]}}
    assert cli.main(["run", "--config",
                     write_config(tmp_path, ok, "ok.json")]) == 0
    assert rejected_as(tmp_path, capsys, config)["error"] == \
        "PartitionMismatch"


def test_herald_too_large_to_allocate_exit_code(tmp_path, capsys):
    """A herald whose density matrix could not be allocated exits 2 with
    ``TooLarge``."""
    config = {"circuit": {"modes": 3, "squeezing": [0.3, 0.2, 0.1]},
              "task": {"kind": "herald", "herald_modes": [0],
                       "measurement": [1], "cutoff": 1000}}
    assert rejected_as(tmp_path, capsys, config)["error"] == "TooLarge"


def test_cumulant_order_beyond_doubles_exit_code(tmp_path, capsys):
    """A block cumulant whose order! exceeds the double range is
    ``TooLarge`` (exit 2); order 200 once ended in a raw ``OverflowError``
    traceback."""
    circuit = {"modes": 1, "squeezing": [0.3]}
    with pytest.raises(TooLarge):
        dist.block_cumulant(cli.build_state(circuit), [0], 200)
    config = {"circuit": circuit,
              "task": {"kind": "moments", "blocks": [[0]],
                       "statistic": "block-cumulant", "order": 200}}
    assert rejected_as(tmp_path, capsys, config)["error"] == "TooLarge"


def test_non_finite_result_is_a_numeric_error(tmp_path, capsys):
    payload = {"result": {"probability": float("nan")}}
    with pytest.raises(cli.NonFinite):
        cli._write_output(payload, None)
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli._write_output({"result": {"probability": object()}}, None)
    assert capsys.readouterr().out == ""


def test_removed_threads_flag_is_rejected(tmp_path):
    config = {"circuit": tmsv_circuit(),
              "task": {"kind": "total-dist", "max_total": 2}}
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", write_config(tmp_path, config),
                  "--threads", "2"])
    assert exc.value.code == 2


def test_removed_tolerance_overrides_flag_is_rejected(tmp_path):
    config = {"circuit": tmsv_circuit(),
              "task": {"kind": "total-dist", "max_total": 2}}
    overrides = write_config(tmp_path, {}, name="overrides.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", write_config(tmp_path, config),
                  "--tolerance-overrides", overrides])
    assert exc.value.code == 2


def test_seed_flag_sets_task_seed(tmp_path):
    task = {"kind": "pp-estimate", "samples": 5000, "n_values": [2]}
    circuit = {"modes": 1, "squeezing": [0.4]}
    out = []
    for seed, argv in ((1, ["--seed", "77"]), (77, [])):
        path = write_config(tmp_path, {"circuit": circuit,
                                       "task": {**task, "seed": seed}})
        o = tmp_path / f"{seed}.json"
        assert cli.main(["run", "--config", path, "--output", str(o)]
                        + argv) == 0
        out.append(json.loads(o.read_text())["result"])
    assert out[0] == out[1]


def test_removed_bench_command_is_rejected(tmp_path):
    config = {"circuit": tmsv_circuit(),
              "task": {"kind": "total-dist", "max_total": 2}}
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--config", write_config(tmp_path, config)])
    assert exc.value.code == 2


def test_distinguishable_external_prob_rejects_displacement(tmp_path,
                                                           capsys):
    # the rank-two fast path has no loop term, so a displaced state is a
    # validation error, never a probability without its displacement
    config = {"circuit": {"modes": 3, "internals": 3,
                          "squeezing": [0.5, 0, 0, 0, 0.4, 0, 0, 0, 0.3],
                          "transmission": {"haar_seed": 2, "efficiency": 0.9},
                          "displacements": [0.3] * 9},
              "task": {"kind": "external-prob", "distinguishable": True,
                       "pattern": [1, 1, 0]}}
    out = tmp_path / "r.json"
    proc = run_cli(["run", "--config", write_config(tmp_path, config),
                    "--output", str(out)])
    assert proc.returncode == 2
    assert not out.exists()
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "LayoutMismatch"
    # nor does the phase-space estimator model anything but squeezed vacua
    # in one internal mode: it rejects the rest, never drops it
    pp = {"kind": "pp-estimate", "samples": 1000, "n_values": [0]}
    sq = {"modes": 2, "squeezing": [0.5, 0.3]}
    for circuit in ({**sq, "displacements": [1.0, 0.5]},
                    {**sq, "spectral_purity": 0.5},
                    {"modes": 2, "husimi_cov": np.eye(4).tolist()},
                    {**sq, "internals": 2}):
        err = rejected_as(tmp_path, capsys, {"circuit": circuit, "task": pp})
        assert err["error"] == "LayoutMismatch"


@pytest.mark.parametrize("extra", [
    {"squeezing": [0.5, 0.3]},
    {"husimi_cov": np.eye(4).tolist()},
    {"means": [0.1, 0.0, 0.1, 0.0]},
    {"spectral_purity": 0.9},
    {"displacements": [0.3, 0.3]},
    {"internals": 3},
], ids=["squeezing", "husimi_cov", "means", "spectral_purity",
        "displacements", "internals"])
def test_fock_tasks_reject_what_they_cannot_model(tmp_path, capsys, extra):
    # a Fock input has one internal mode per port and no Gaussian state:
    # a key it cannot model is rejected, never dropped for the value of
    # indistinguishable photons
    circuit = {"modes": 2, **extra,
               "transmission": tmsv_circuit()["transmission"]["unitary"]}
    for task in ({"kind": "fock-prob", "input": [1, 1],
                  "blocks": [[0], [1]], "counts": [1, 1]},
                 {"kind": "fock-herald", "input": [1, 1],
                  "herald_modes": [0], "measurement": [1], "cutoff": 1}):
        err = rejected_as(tmp_path, capsys, {"circuit": circuit,
                                             "task": task})
        assert err["error"] == "LayoutMismatch"


@pytest.mark.parametrize("circuit", [
    {"modes": 1, "squeezing": [0.3], "means": [2.0, 2.0]},
    {"modes": 1, "internals": 2, "squeezing": [0.3],
     "spectral_purity": 0.9, "means": [2.0] * 4},
    {"modes": 1, "husimi_cov": np.eye(2).tolist(), "spectral_purity": 0.9},
], ids=["squeezing-means", "impure-means", "husimi-purity"])
@pytest.mark.parametrize("kind", ["fine-prob", "moments"])
def test_gaussian_tasks_reject_what_their_state_cannot_model(
        tmp_path, capsys, circuit, kind):
    # a squeezed source has zero means and a Husimi covariance no spectral
    # purity: either key is rejected, never dropped (the squeezed state with
    # means [2, 2] gave P(1) = 0.0 with exit 0, the undisplaced value)
    task = ({"kind": kind, "pattern": [1] * circuit.get("internals", 1)}
            if kind == "fine-prob" else {"kind": kind, "blocks": [[0]]})
    err = rejected_as(tmp_path, capsys, {"circuit": circuit, "task": task})
    assert err["error"] == "LayoutMismatch"


def test_pp_estimate_rejects_means(tmp_path, capsys):
    config = {"circuit": {"modes": 1, "squeezing": [0.3],
                          "means": [0.0, 0.0]},
              "task": {"kind": "pp-estimate", "samples": 1000,
                       "n_values": [0]}}
    err = rejected_as(tmp_path, capsys, config)
    assert err["error"] == "LayoutMismatch"


@pytest.mark.parametrize("task", [
    {"kind": "fine-prob", "pattern": [-2, 0]},
    {"kind": "fine-prob", "pattern": [-1, 1]},
    {"kind": "herald", "herald_modes": [0], "measurement": [-1],
     "cutoff": 2},
    {"kind": "fock-herald", "input": [1, 1], "herald_modes": [0],
     "measurement": [-1], "cutoff": 2},
    {"kind": "total-dist", "max_total": -1},
    {"kind": "herald", "herald_modes": [0], "measurement": [1],
     "cutoff": -1},
    # a fractional count is an error too, never truncated
    {"kind": "fine-prob", "pattern": [1.5, 0]},
    {"kind": "coarse-prob", "blocks": [[0, 1]], "counts": [1.5]},
    {"kind": "external-prob", "pattern": [0.5, 0]},
    {"kind": "external-prob", "pattern": [0.5, 0], "distinguishable": True},
    {"kind": "total-dist", "max_total": 2.5},
    {"kind": "moments", "blocks": [[0]], "statistic": "block-cumulant",
     "order": 2.7},
    {"kind": "herald", "herald_modes": [0], "measurement": [2.9],
     "cutoff": 3},
    {"kind": "herald", "herald_modes": [0], "measurement": [1],
     "cutoff": 2.5},
    {"kind": "herald", "herald_modes": [0], "measurement": [1],
     "cutoff": 3, "target": {"fock": 1.5}},
    {"kind": "fock-prob", "input": [1.5, 0], "blocks": [[0], [1]],
     "counts": [1, 0]},
    {"kind": "pp-estimate", "samples": 100.5, "n_values": [0]},
    {"kind": "pp-estimate", "samples": 100, "n_values": [0.5]},
])
def test_negative_counts_exit_code(tmp_path, capsys, task):
    config = {"circuit": fock_ready(tmsv_circuit(), task["kind"]),
              "task": task}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DomainError"
    assert "non-negative" in err["message"]


def test_repeated_total_dist_modes_exit_code(tmp_path, capsys):
    """A mode counted twice once gave a "distribution" summing to 1.31."""
    config = {"circuit": {"modes": 2, "squeezing": [0.5, 0.3],
                          "transmission": (0.9 * np.eye(2)).tolist()},
              "task": {"kind": "total-dist", "modes": [0, 0],
                       "max_total": 4}}
    assert rejected_as(tmp_path, capsys, config)["error"] == "IndexOutOfRange"
    config["task"]["modes"] = [0]
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == 0


def test_total_dist_above_its_tail_exit_code(tmp_path, capsys):
    """A total-dist task without max_total once returned a deficit of
    1.4e-3 against its 1e-7 tail with exit 0."""
    config = {"circuit": {"modes": 1, "squeezing": [3.0]},
              "task": {"kind": "total-dist"}}
    err = rejected_as(tmp_path, capsys, config)
    assert err["error"] == "TooLarge" and "cutoff" in err["message"]


@pytest.mark.parametrize("target, code, error", [
    ([0.0] * 5, 2, "NotNormalized"),
    ([float("nan")] + [0.0] * 4, 3, "NonFinite"),
])
def test_bad_herald_target_exit_code(tmp_path, capsys, target, code, error):
    config = {"circuit": {"modes": 2, "squeezing": [0.8, 0.0],
                          "transmission": {"haar_seed": 2,
                                           "efficiency": 0.9}},
              "task": {"kind": "herald", "herald_modes": [0],
                       "measurement": [1], "cutoff": 4, "target": target}}
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", write_config(tmp_path, config),
                     "--output", str(out)]) == code
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
    assert "target" in err["message"]


@pytest.mark.parametrize("kind, target, code", [
    ("herald", [0.0] * 5, 2),
    ("herald", [float("nan")] + [0.0] * 4, 3),
    ("herald", [1.0] * 4, 2),
    ("herald", {"fock": 5}, 2),
    ("fock-herald", [1.0] * 6, 2),
    ("fock-herald", {"fock": -1}, 2),
    ("herald", ["x"] * 5, 2),
])
def test_bad_herald_target_is_rejected_before_the_herald(tmp_path, kind,
                                                         target, code):
    config = {"circuit": fock_ready({"modes": 2, "squeezing": [0.8, 0.0],
                                     "transmission": {"haar_seed": 2,
                                                      "efficiency": 0.9}},
                                    kind),
              "task": {"kind": kind, **fock_input(kind), "herald_modes": [0],
                       "measurement": [1], "cutoff": 4, "target": target}}
    path = write_config(tmp_path, config)
    with mock.patch.object(heralding, "herald_grouped",
                           wraps=heralding.herald_grouped) as grouped, \
            mock.patch.object(fock_channel, "fock_herald",
                              wraps=fock_channel.fock_herald) as fock:
        assert cli.main(["run", "--config", path]) == code
    assert not grouped.called
    assert not fock.called


_SQ = {"modes": 2, "squeezing": [0.6, 0.2]}
_HAAR = {"haar_seed": 2, "efficiency": 0.8}
_HERALD = {"kind": "herald", "herald_modes": [0], "measurement": [1],
           "cutoff": 3}


@pytest.mark.parametrize("circuit, task, error", [
    ({**_SQ, "transmision": _HAAR}, _FINE, "LayoutMismatch"),
    ({"modes": 1, "husimi_cov": np.eye(2).tolist(), "displacement": [0.5]},
     {"kind": "fine-prob", "pattern": [1]}, "LayoutMismatch"),
    ({"modes": 2, "transmision": _HAAR},
     {"kind": "fock-prob", "input": [1, 1], "blocks": [[0], [1]],
      "counts": [1, 1]}, "LayoutMismatch"),
    ({**_SQ, "transmision": _HAAR}, _PP, "LayoutMismatch"),
    ({**_SQ, "transmission": {"haar_seed": 2, "efficency": 0.5}}, _FINE,
     "DomainError"),
    ({**_SQ, "transmission": {**_HAAR, "unitary": np.eye(2).tolist()}},
     _FINE, "DomainError"),
    ({**_SQ, "transmission": _HAAR}, {**_HERALD, "trace_ot": [1]},
     "DomainError"),
    ({**_SQ, "transmission": _HAAR},
     {**_HERALD, "measurement": {"blocks": [[0]], "counts": [1],
                                 "trace_out": [1]}}, "DomainError"),
    ({**_SQ, "transmission": _HAAR}, {**_HERALD, "target": {"fock": 1,
                                                              "phase": 0.5}},
     "DomainError"),
    ({**_SQ, "transmission": _HAAR}, {**_HERALD, "normalize": "false"},
     "DomainError"),
    ({"modes": 2, "internals": 2, "squeezing": [0.6, 0.0, 0.0, 0.2],
      "transmission": _HAAR},
     {"kind": "external-prob", "pattern": [1, 1], "distinguishable": 1},
     "DomainError"),
    ({**_SQ, "transmission": _HAAR},
     {"kind": "total-dist", "tail_bound": 1e-9}, "DomainError"),
    ({"modes": 3, "transmission": {"haar_seed": 3, "efficiency": 0.9}},
     {"kind": "fock-herald", "input": [1, 1, 1], "herald_modes": [0],
      "measurement": {"blocks": [[0], []], "counts": [1, 1]}, "cutoff": 1},
     "PartitionMismatch"),
], ids=["squeezed-transmision", "husimi-displacement", "fock-transmision",
        "pp-transmision", "efficency", "haar_seed-and-unitary", "trace_ot",
        "measurement-key", "target-key", "string-normalize",
        "number-distinguishable", "tail_bound", "fock-herald-empty-block"])
def test_misspelled_and_conflicting_keys_exit_code(tmp_path, capsys, circuit,
                                                   task, error):
    """A key that the source or the task does not read, a transmission
    with both a seed and a unitary, or an empty herald block is a
    validation error (exit 2) and writes no output: a misspelled key once
    ran a different circuit with exit 0, such as a lossless identity for a
    misspelled transmission, and an empty Fock herald block a "state" with
    a negative diagonal."""
    err = rejected_as(tmp_path, capsys, {"circuit": circuit, "task": task})
    assert err["error"] == error
