"""Command-line front end.

Reads a JSON config describing a circuit and a task, dispatches to the
library, and writes structured results (JSON, or CSV for one-dimensional
distributions). Exit codes: 0 success, 2 validation error, 3 numeric error.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import distributions as dist
from . import fock_channel, gaussian, heralding, phasespace
from .errors import (
    DomainError,
    IndexOutOfRange,
    LayoutMismatch,
    LengthMismatch,
    NonFinite,
    NotNormalized,
    NumericFailure,
    PartitionMismatch,
    ValidationFailure,
)
from .heralding import HeraldSpec
from .linalg import require_counts, require_finite


# ---------------------------------------------------------------------------
# JSON <-> numpy helpers
# ---------------------------------------------------------------------------

def _complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 \
            and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise DomainError(f"expected a number or [re, im] pair, got {v!r}")


def _matrix(rows):
    return np.array([[_complex(v) for v in row] for row in rows])


def _vector(vals):
    return np.array([_complex(v) for v in vals])


def _json_default(v):
    """Encode what the JSON encoder does not know: complex numbers as
    [re, im] pairs, NumPy arrays and scalars as their Python values."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def haar_unitary(n, seed):
    """Seeded Haar-random unitary via the QR decomposition with phase fix.

    ``seed`` is anything ``np.random.default_rng`` accepts; a Generator is
    used as it is, so successive calls keep drawing from its stream."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(h)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# circuit construction
# ---------------------------------------------------------------------------

def _transmission(circ, total, externals):
    spec = circ.get("transmission")
    if spec is None:
        return None
    if isinstance(spec, dict):
        if "haar_seed" in spec:
            u = haar_unitary(externals, int(spec["haar_seed"]))
        else:
            u = _matrix(spec["unitary"])
        eta = float(spec.get("efficiency", 1.0))
        if not 0 <= eta <= 1:
            raise DomainError("efficiency must lie in [0, 1]")
        t = np.sqrt(eta) * u
    else:
        t = _matrix(spec)
    k = total // externals
    if t.shape == (externals, externals) and k > 1:
        t = np.kron(t, np.eye(k))  # internal modes do not mix
    if t.shape != (total, total):
        raise LayoutMismatch(
            f"transmission must be {externals}x{externals} or {total}x{total}"
        )
    return t


def _transmission_or_identity(circ, total, externals):
    """The transmission, or the total x total identity when it is absent."""
    t = _transmission(circ, total, externals)
    return np.eye(total) if t is None else t


def _layout(circ):
    """The mode layout of a circuit config section, its counts unconverted:
    a fractional count is rejected, never truncated."""
    return gaussian.ModeLayout(circ["modes"], circ.get("internals", 1))


def _plain_layout(circ, what, unmodeled):
    """The layout of a circuit config section for a path that models one
    internal mode per port and none of the circuit keys ``unmodeled``: any
    of them is rejected, never dropped."""
    layout = _layout(circ)
    if layout.internals_per_external != 1:
        raise LayoutMismatch(f"{what} needs one internal mode")
    for key in unmodeled:
        if key in circ:
            raise LayoutMismatch(f"{what} cannot model {key}")
    return layout


def build_state(circ):
    """Gaussian state described by a circuit config section."""
    layout = _layout(circ)
    modes, total = layout.externals, layout.total
    has_sq = "squeezing" in circ
    has_cov = "husimi_cov" in circ
    if has_sq == has_cov:
        raise PartitionMismatch(
            "exactly one of squeezing or husimi_cov must be given"
        )
    if has_cov:
        means = _vector(circ.get("means", [0.0] * (2 * total)))
        state = gaussian.GaussianState(_matrix(circ["husimi_cov"]), means,
                                       layout)
    elif "spectral_purity" in circ:
        xi = [float(x) for x in circ["squeezing"]]
        state = gaussian.impure_source(xi, float(circ["spectral_purity"]),
                                      layout)
    else:
        state = gaussian.from_squeezing(_vector(circ["squeezing"]), layout)
    t = _transmission(circ, total, modes)
    if t is not None:
        state = gaussian.apply_channel(state, t)
    if "displacements" in circ:
        state = gaussian.displace(state, _vector(circ["displacements"]))
    return state


def _measurement(task):
    m = task["measurement"]
    return (m["blocks"], m["counts"]) if isinstance(m, dict) else m


def _herald_spec(task):
    return HeraldSpec(task["herald_modes"], _measurement(task),
                      task["cutoff"], task.get("trace_out", ()))


def _herald_target(task, spec, nmodes):
    """The normalized fidelity target of a herald task, or None; checked
    before the herald runs, against the kept modes of ``spec``."""
    target = task.get("target")
    if target is None:
        return None
    shape = (spec.cutoff + 1,) * len(heralding.kept_modes(spec, nmodes))
    if isinstance(target, dict) and "fock" in target:
        (n,) = require_counts([target["fock"]], "Fock index")
        if n > spec.cutoff:
            raise IndexOutOfRange(f"Fock index {n} beyond cutoff")
        vec = np.zeros(shape)
        vec[(n,) * len(shape)] = 1.0
        return vec.reshape(-1)
    vec = require_finite(_vector(target), "target state")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise NotNormalized("target state has zero norm")
    if vec.size != np.prod(shape, dtype=int):
        raise LengthMismatch("target length must match the dm dimension")
    return vec / norm


def _herald_result(task, dm, target):
    """The herald's density matrix as nonzero [i, j, re, im] entries, and
    its fidelity to ``target`` when there is one."""
    if task.get("normalize", True):
        dm = dm.normalized()
    out = {
        "modes": dm.modes,
        "cutoff": dm.cutoff,
        "trace": [dm.trace.real, dm.trace.imag],
        "entries": [[i, j, v.real, v.imag]
                    for (i, j), v in np.ndenumerate(dm.entries) if v != 0],
    }
    if target is not None:
        out["fidelity"] = heralding.fidelity(dm.normalized(), target)
    return out


# ---------------------------------------------------------------------------
# task handlers
# ---------------------------------------------------------------------------

def _run_fine_prob(circ, task):
    rep = gaussian.to_adjacency(build_state(circ))
    return {"probability": dist.prob_fine(rep, task["pattern"])}


def _run_coarse_prob(circ, task):
    rep = gaussian.to_adjacency(build_state(circ))
    cp = dist.CoarsePattern(task["blocks"], task["counts"])
    return {"probability": dist.prob_coarse(rep, cp)}


def _run_total_dist(circ, task):
    rep = gaussian.to_adjacency(build_state(circ))
    modes = task.get("modes", list(range(rep.layout.total)))
    if "max_total" in task:
        d = dist.total_distribution(rep, modes, cutoff=task["max_total"])
        d = dist.Distribution(d.support, np.clip(d.probabilities, 0, None),
                              max(d.deficit, 0.0))
    else:
        d = dist.total_distribution(rep, modes,
                                    tail=task.get("tail_bound", 1e-7))
    return {
        "support": [int(n) for n in d.support],
        "probabilities": d.probabilities.tolist(),
        "deficit": float(d.deficit),
    }


def _run_external_prob(circ, task):
    rep = gaussian.to_adjacency(build_state(circ))
    n = task["pattern"]
    if task.get("distinguishable"):
        blocks = dist.extract_distinguishable_blocks(rep)
        return {"probability": dist.prob_external_distinguishable(blocks, n)}
    return {"probability": dist.prob_external(rep, n)}


def _run_herald(circ, task):
    rep = gaussian.to_adjacency(build_state(circ))
    spec = _herald_spec(task)
    target = _herald_target(task, spec, rep.layout.total)
    return _herald_result(task, heralding.herald_grouped(rep, spec), target)


def _fock_input(circ, task):
    modes = _plain_layout(circ, "a Fock input", (
        "squeezing", "husimi_cov", "means", "spectral_purity",
        "displacements")).externals
    t = _transmission_or_identity(circ, modes, modes)
    gram = task.get("gram")
    return fock_channel.FockInput(task["input"], t,
                                  None if gram is None else _matrix(gram))


def _run_fock_prob(circ, task):
    fi = _fock_input(circ, task)
    cp = dist.CoarsePattern(task["blocks"], task["counts"])
    return {"probability": fock_channel.fock_coarse_prob(fi, cp)}


def _run_fock_herald(circ, task):
    fi = _fock_input(circ, task)
    spec = _herald_spec(task)
    target = _herald_target(task, spec, len(fi.p))
    return _herald_result(task, fock_channel.fock_herald(fi, spec), target)


def _run_moments(circ, task):
    state = build_state(circ)
    kind = task.get("statistic", "moment")
    blocks = [list(b) for b in task["blocks"]]
    if kind == "moment":
        value = dist.coarse_moment(state, blocks)
    elif kind == "cumulant":
        value = dist.coarse_cumulant(state, blocks)
    elif kind == "block-cumulant":
        if len(blocks) != 1:
            raise PartitionMismatch("block-cumulant takes a single block")
        value = dist.block_cumulant(state, blocks[0], task["order"])
    else:
        raise DomainError(f"unknown statistic {kind!r}")
    return {"value": value}


def _run_pp_estimate(circ, task):
    modes = _plain_layout(circ, "phase-space estimation", (
        "displacements", "husimi_cov", "spectral_purity")).externals
    xi = [float(x) for x in circ["squeezing"]]
    t = _transmission_or_identity(circ, modes, modes)
    run = phasespace.PPRun(tuple(xi), t, task["samples"],
                           int(task.get("seed", 0)), task["n_values"])
    est, err = phasespace.pp_estimate(run)
    return {
        "n_values": sorted(set(run.n_values)),
        "estimates": est.tolist(),
        "standard_errors": err.tolist(),
    }


_HANDLERS = {
    "fine-prob": _run_fine_prob,
    "coarse-prob": _run_coarse_prob,
    "total-dist": _run_total_dist,
    "external-prob": _run_external_prob,
    "herald": _run_herald,
    "fock-prob": _run_fock_prob,
    "fock-herald": _run_fock_herald,
    "moments": _run_moments,
    "pp-estimate": _run_pp_estimate,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _write_output(payload, path):
    result = payload["result"]
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=_json_default) + "\n"
    except ValueError as exc:
        raise NonFinite(f"result is not finite: {exc}") from exc
    if path and path.endswith(".csv") and "support" in result:
        lines = ["N,probability"]
        for n, p in zip(result["support"], result["probabilities"]):
            lines.append(f"{n},{p!r}")
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc


def run(config):
    """Dispatch a parsed config; returns the result payload."""
    task = config["task"]
    kind = task.get("kind")
    if kind not in _HANDLERS:
        raise DomainError(f"unknown task kind {kind!r}")
    return _HANDLERS[kind](config.get("circuit", {}), task)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="photonsieve",
        description="Photon-number statistics of lossy Gaussian circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        config = _load_json(args.config)
        if not isinstance(config, dict) or "task" not in config:
            raise DomainError("config must be an object with a task section")
        task = dict(config["task"])
        if args.seed is not None:
            task["seed"] = args.seed
        result = run({**config, "task": task})
        payload = {
            "version": __version__,
            "config": {
                **config,
                **({"seed": args.seed} if args.seed is not None else {}),
            },
            "result": result,
        }
        _write_output(payload, args.output)
        return 0
    except ValidationFailure as exc:
        _report_error(exc)
        return 2
    except NumericFailure as exc:
        _report_error(exc)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        _report_error(DomainError(f"bad config: {exc}"))
        return 2


def _report_error(exc):
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)},
        allow_nan=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())
