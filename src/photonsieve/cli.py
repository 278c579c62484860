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
from .linalg import (require_counts, require_finite, require_length,
                     require_subunitary)


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

# per source: the circuit keys it models besides modes, internals and
# transmission, and whether it models more than one internal mode per port
_SOURCES = {
    "a squeezed source": ({"squeezing", "spectral_purity", "displacements"},
                          True),
    "a Husimi covariance": ({"husimi_cov", "means", "displacements"}, True),
    "a Fock input": (set(), False),
    "phase-space estimation": ({"squeezing"}, False),
}


def _circuit(circ, source):
    """The layout of a circuit config section read as ``source`` (its mode
    counts unconverted: a fractional count is rejected, never truncated),
    and its transmission as given, externals- or total-sized, not yet
    checked for subunitarity, or None.  A key the source does not model is
    a ``LayoutMismatch``: a misspelled key is an error, never dropped."""
    keys, internal = _SOURCES[source]
    unmodeled = set(circ) - keys - {"modes", "internals", "transmission"}
    if unmodeled:
        raise LayoutMismatch(
            f"{source} cannot model {', '.join(sorted(unmodeled))}")
    layout = gaussian.ModeLayout(circ["modes"], circ.get("internals", 1))
    if not internal and layout.internals_per_external != 1:
        raise LayoutMismatch(f"{source} needs one internal mode")
    spec = circ.get("transmission")
    if spec is None:
        return layout, None
    externals, total = layout.externals, layout.total
    if isinstance(spec, dict):
        if set(spec) - {"haar_seed", "unitary", "efficiency"} or (
                ("haar_seed" in spec) == ("unitary" in spec)):
            raise DomainError("a transmission object takes exactly one of "
                              "haar_seed or unitary, and an optional "
                              "efficiency")
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
        raise LayoutMismatch(f"transmission must be {externals}x{externals}"
                             f" or {total}x{total}")
    return layout, t


def _squeezing(circ, layout):
    """The squeeze parameters of a squeezed-source circuit, one per mode of
    ``layout``: the dominant and parasite pairs of a ``spectral_purity``
    source, or the ``squeezing`` list as given."""
    if "spectral_purity" in circ:
        return gaussian.impure_squeezing(
            [_float(x, "squeezing") for x in circ["squeezing"]],
            _float(circ["spectral_purity"], "spectral_purity"), layout)
    return _vector(circ["squeezing"])


def build_state(circ):
    """Gaussian state described by a circuit config section.

    The source covariance, the channel and the displacement are composed as
    arrays (``gaussian.squeezed_cov``, ``channel_arrays``,
    ``displaced_means``) and checked once, as the one ``GaussianState`` at
    the end; a given ``husimi_cov`` is checked as given too, since a lossy
    channel could make an unphysical covariance physical.  The transmission
    is checked for subunitarity once, at the size given: an externals-sized
    t becomes t (x) I_K (internal modes do not mix), which has the same
    singular values."""
    has_sq = "squeezing" in circ
    if has_sq == ("husimi_cov" in circ):
        raise PartitionMismatch("exactly one of squeezing or husimi_cov "
                                "must be given")
    layout, t = _circuit(circ, "a squeezed source" if has_sq
                         else "a Husimi covariance")
    total = layout.total
    if not has_sq:
        means = _vector(circ.get("means", [0.0] * (2 * total)))
        given = gaussian.GaussianState(_matrix(circ["husimi_cov"]), means,
                                       layout)
        if t is None and "displacements" not in circ:
            return given
        cov, means = given.husimi_cov, given.means
    else:
        cov = gaussian.squeezed_cov(_squeezing(circ, layout), total)
        means = np.zeros(2 * total, dtype=complex)
    if t is not None:
        require_subunitary(t)
        if len(t) != total:
            # np.kron(t, I_K): its one product t[i, j] * I[a, b], without
            # its shape handling
            eye = np.eye(total // layout.externals)
            t = (t[:, None, :, None] * eye[:, None]).reshape(total, total)
        cov, means = gaussian.channel_arrays(cov, means, t)
    if "displacements" in circ:
        means = gaussian.displaced_means(means,
                                         _vector(circ["displacements"]))
    return gaussian.GaussianState(cov, means, layout)


def _internal_covs(circ):
    """The Husimi covariances Sigma_l of a circuit whose internal modes say
    by its form that they never mix, one per internal mode over the M
    external modes, as a checked (K, 2M, 2M) stack; None for any other
    circuit.  That form is a squeezed source with no displacements, whose
    transmission is absent or M x M: Sigma_l is the covariance of the l-th
    squeezer of each external mode through t, so t (x) I_K and the
    2T x 2T covariance of ``build_state`` are never formed.  The checks are
    ``build_state``'s, in its order, on the blocks."""
    if "squeezing" not in circ or "husimi_cov" in circ \
            or "displacements" in circ:
        return None
    layout, t = _circuit(circ, "a squeezed source")
    m, k = layout.externals, layout.internals_per_external
    if t is not None and len(t) != m:
        return None
    # squeezed_cov's checks, in its order, before the reshape: mode
    # e * K + l is the l-th internal mode of external e
    xi = require_finite(_squeezing(circ, layout), "squeeze parameters")
    require_length(xi, layout.total, "squeeze parameters")
    covs = gaussian.squeezed_cov(xi.reshape(m, k).T, m)
    if t is not None:
        require_subunitary(t)
        covs = gaussian.channel_arrays(covs, np.zeros((k, 2 * m)), t)[0]
    gaussian.require_physical(covs)
    return covs


def _herald(task, herald, source, nmodes):
    """The result of a herald task on ``source`` of ``nmodes`` modes,
    ``herald(source, spec)``: its density matrix as nonzero [i, j, re, im]
    entries, and its fidelity to the normalized target when there is one.
    The target is checked before the herald runs, against the kept modes
    of the spec (``heralding.kept_modes``, which also rejects a herald too
    large to build)."""
    m = task["measurement"]
    spec = HeraldSpec(task["herald_modes"],
                      (m["blocks"], m["counts"]) if isinstance(m, dict) else m,
                      task["cutoff"], task.get("trace_out", ()))
    target = task.get("target")
    if target is not None:
        shape = (spec.cutoff + 1,) * len(heralding.kept_modes(spec, nmodes))
        if isinstance(target, dict):
            (n,) = require_counts([target["fock"]], "Fock index")
            if n > spec.cutoff:
                raise IndexOutOfRange(f"Fock index {n} beyond cutoff")
            target = np.zeros(shape)
            target[(n,) * len(shape)] = 1.0
        else:
            vec = require_finite(_vector(target), "target state")
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise NotNormalized("target state has zero norm")
            if vec.size != np.prod(shape, dtype=int):
                raise LengthMismatch("target length must match the dm "
                                     "dimension")
            target = vec / norm
    dm = herald(source, spec)
    normalize = task.get("normalize", True)
    if normalize:
        dm = dm.normalized()
    rows, cols = np.nonzero(dm.entries)
    out = {
        "modes": dm.modes,
        "cutoff": dm.cutoff,
        "trace": [dm.trace.real, dm.trace.imag],
        "entries": [[i, j, v.real, v.imag] for i, j, v in zip(
            rows.tolist(), cols.tolist(), dm.entries[rows, cols].tolist())],
    }
    if target is not None:
        out["fidelity"] = heralding.fidelity(
            dm if normalize else dm.normalized(), target)
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
    d = dist.total_distribution(rep, modes, task.get("max_total"))
    return {
        "support": [int(n) for n in d.support],
        "probabilities": d.probabilities.tolist(),
        "deficit": float(d.deficit),
    }


def _run_external_prob(circ, task):
    n = task["pattern"]
    if not task.get("distinguishable"):
        rep = gaussian.to_adjacency(build_state(circ))
        return {"probability": dist.prob_external(rep, n)}
    covs = _internal_covs(circ)
    if covs is not None:
        return {"probability": dist.prob_external_covs(covs, n)}
    blocks = dist.extract_distinguishable_blocks(
        gaussian.to_adjacency(build_state(circ)))
    return {"probability": dist.prob_external_distinguishable(blocks, n)}


def _run_herald(circ, task):
    rep = gaussian.to_adjacency(build_state(circ))
    return _herald(task, heralding.herald_grouped, rep, rep.layout.total)


def _fock_input(circ, task):
    layout, t = _circuit(circ, "a Fock input")
    gram = task.get("gram")
    return fock_channel.FockInput(
        task["input"], np.eye(layout.externals) if t is None else t,
        None if gram is None else _matrix(gram))


def _run_fock_prob(circ, task):
    fi = _fock_input(circ, task)
    cp = dist.CoarsePattern(task["blocks"], task["counts"])
    return {"probability": fock_channel.fock_coarse_prob(fi, cp)}


def _run_fock_herald(circ, task):
    fi = _fock_input(circ, task)
    return _herald(task, fock_channel.fock_herald, fi, len(fi.p))


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
    layout, t = _circuit(circ, "phase-space estimation")
    xi = [_float(x, "squeezing") for x in circ["squeezing"]]
    (seed,) = require_counts([task.get("seed", 0)], "seed")
    run = phasespace.PPRun(tuple(xi),
                           np.eye(layout.externals) if t is None else t,
                           task["samples"], seed, task["n_values"])
    est, err = phasespace.pp_estimate(run)
    return {
        "n_values": sorted(set(run.n_values)),
        "estimates": est.tolist(),
        "standard_errors": err.tolist(),
    }


_HERALD_KEYS = {"herald_modes", "measurement", "cutoff", "trace_out",
                "target", "normalize"}
# per task kind: its handler and the task keys it reads besides kind and
# seed (``--seed`` sets seed on every task)
_HANDLERS = {
    "fine-prob": (_run_fine_prob, {"pattern"}),
    "coarse-prob": (_run_coarse_prob, {"blocks", "counts"}),
    "total-dist": (_run_total_dist, {"modes", "max_total"}),
    "external-prob": (_run_external_prob, {"pattern", "distinguishable"}),
    "herald": (_run_herald, _HERALD_KEYS),
    "fock-prob": (_run_fock_prob, {"input", "gram", "blocks", "counts"}),
    "fock-herald": (_run_fock_herald, {"input", "gram"} | _HERALD_KEYS),
    "moments": (_run_moments, {"statistic", "blocks", "order"}),
    "pp-estimate": (_run_pp_estimate, {"samples", "n_values"}),
}
# the keys an object value of a task reads
_TASK_OBJECTS = {"measurement": {"blocks", "counts"}, "target": {"fock"}}


def _check_task(task, keys):
    """Raise ``DomainError`` for a task key outside ``keys``, kind and
    seed, an object key outside ``_TASK_OBJECTS``, or a flag that is no
    JSON boolean: a misspelled key is an error, never dropped."""
    unread = set(task) - keys - {"kind", "seed"}
    if unread:
        raise DomainError(f"task {task['kind']} does not read "
                          f"{', '.join(sorted(unread))}")
    for key, allowed in _TASK_OBJECTS.items():
        value = task.get(key)
        if isinstance(value, dict) and not value.keys() <= allowed:
            raise DomainError(f"{key} reads only {', '.join(sorted(allowed))}")
    for key in ("distinguishable", "normalize"):
        if type(task.get(key, False)) is not bool:
            raise DomainError(f"{key} must be true or false")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _write_output(payload, path):
    """Write ``payload`` as JSON, or its distribution as CSV to a ``.csv``
    path (only a total-dist result has one; ``main`` rejects the rest)."""
    result = payload["result"]
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFinite(f"result is not finite: {exc}") from exc
    if path and path.endswith(".csv"):
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
    handler, keys = _HANDLERS[kind]
    _check_task(task, keys)
    return handler(config.get("circuit", {}), task)


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
        if args.output and args.output.endswith(".csv") \
                and task.get("kind") != "total-dist":
            raise DomainError("CSV output is for total-dist only")
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
