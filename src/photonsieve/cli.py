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
from .linalg import require_counts, require_finite, require_subunitary


# ---------------------------------------------------------------------------
# JSON <-> numpy helpers
# ---------------------------------------------------------------------------

def _is_number(v):
    """Whether ``v`` is a real number: JSON's ``true`` and ``false`` are
    not, though Python's bools are ints."""
    return isinstance(v, (int, float)) and type(v) is not bool


def _complex(v):
    if _is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 \
            and _is_number(v[0]) and _is_number(v[1]):
        return complex(v[0], v[1])
    raise DomainError(f"expected a number or [re, im] pair, got {v!r}")


def _float(v, what):
    """A real number of the config as a float, or a ``DomainError``."""
    if not _is_number(v):
        raise DomainError(f"{what} must be a number, got {v!r}")
    return float(v)


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

def _given_transmission(circ, total, externals):
    """The transmission of a circuit config section as given, externals- or
    total-sized, or None when it is absent; not yet checked for
    subunitarity."""
    spec = circ.get("transmission")
    if spec is None:
        return None
    if isinstance(spec, dict):
        if "haar_seed" in spec:
            (seed,) = require_counts([spec["haar_seed"]], "haar_seed")
            u = haar_unitary(externals, seed)
        else:
            u = _matrix(spec["unitary"])
        eta = _float(spec.get("efficiency", 1.0), "efficiency")
        if not 0 <= eta <= 1:
            raise DomainError("efficiency must lie in [0, 1]")
        t = np.sqrt(eta) * u
    else:
        t = _matrix(spec)
    if t.shape not in ((externals, externals), (total, total)):
        raise LayoutMismatch(
            f"transmission must be {externals}x{externals} or {total}x{total}"
        )
    return t


def _transmission(circ, total, externals):
    """The total x total transmission of a Gaussian circuit, or None.  It is
    checked for subunitarity once, at the size given: an externals-sized t
    becomes t (x) I_K (internal modes do not mix), which has the same
    singular values."""
    t = _given_transmission(circ, total, externals)
    if t is None:
        return None
    require_subunitary(t)
    if len(t) == total:
        return t
    # np.kron(t, I_K): its one product t[i, j] * I[a, b], without its
    # shape handling
    eye = np.eye(total // externals)
    return (t[:, None, :, None] * eye[:, None]).reshape(total, total)


def _transmission_or_identity(circ, modes):
    """The transmission of a one-internal-mode circuit, or the identity when
    it is absent; ``FockInput`` and ``PPRun`` check it."""
    t = _given_transmission(circ, modes, modes)
    return np.eye(modes) if t is None else t


def _layout(circ):
    """The mode layout of a circuit config section, its counts unconverted:
    a fractional count is rejected, never truncated."""
    return gaussian.ModeLayout(circ["modes"], circ.get("internals", 1))


def _reject_unmodeled(circ, what, unmodeled):
    """Raise ``LayoutMismatch`` for any of the circuit keys ``unmodeled``
    in ``circ``: a key a path cannot model is rejected, never dropped."""
    for key in unmodeled:
        if key in circ:
            raise LayoutMismatch(f"{what} cannot model {key}")


def _plain_layout(circ, what, unmodeled):
    """The layout of a circuit config section for a path that models one
    internal mode per port and none of the circuit keys ``unmodeled``."""
    layout = _layout(circ)
    if layout.internals_per_external != 1:
        raise LayoutMismatch(f"{what} needs one internal mode")
    _reject_unmodeled(circ, what, unmodeled)
    return layout


def build_state(circ):
    """Gaussian state described by a circuit config section.

    The source covariance, the channel and the displacement are composed as
    arrays (``gaussian.squeezed_cov``, ``channel_arrays``,
    ``displaced_means``) and checked once, as the one ``GaussianState`` at
    the end; a given ``husimi_cov`` is checked as given too, since a lossy
    channel could make an unphysical covariance physical."""
    layout = _layout(circ)
    modes, total = layout.externals, layout.total
    has_sq = "squeezing" in circ
    has_cov = "husimi_cov" in circ
    if has_sq == has_cov:
        raise PartitionMismatch(
            "exactly one of squeezing or husimi_cov must be given"
        )
    if has_cov:
        _reject_unmodeled(circ, "a Husimi covariance", ("spectral_purity",))
        means = _vector(circ.get("means", [0.0] * (2 * total)))
        given = gaussian.GaussianState(_matrix(circ["husimi_cov"]), means,
                                       layout)
        if circ.get("transmission") is None and "displacements" not in circ:
            return given
        cov, means = given.husimi_cov, given.means
    else:
        _reject_unmodeled(circ, "a squeezed source", ("means",))
        if "spectral_purity" in circ:
            xi = gaussian.impure_squeezing(
                [_float(x, "squeezing") for x in circ["squeezing"]],
                _float(circ["spectral_purity"], "spectral_purity"), layout)
        else:
            xi = _vector(circ["squeezing"])
        cov = gaussian.squeezed_cov(xi, total)
        means = np.zeros(2 * total, dtype=complex)
    t = _transmission(circ, total, modes)
    if t is not None:
        cov, means = gaussian.channel_arrays(cov, means, t)
    if "displacements" in circ:
        means = gaussian.displaced_means(means,
                                         _vector(circ["displacements"]))
    return gaussian.GaussianState(cov, means, layout)


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
    d = dist.total_distribution(rep, modes, task.get("max_total"),
                                task.get("tail_bound", dist._DEFAULT_TAIL))
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
    t = _transmission_or_identity(circ, modes)
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
        "displacements", "husimi_cov", "means", "spectral_purity")).externals
    xi = [_float(x, "squeezing") for x in circ["squeezing"]]
    t = _transmission_or_identity(circ, modes)
    (seed,) = require_counts([task.get("seed", 0)], "seed")
    run = phasespace.PPRun(tuple(xi), t, task["samples"], seed,
                           task["n_values"])
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
