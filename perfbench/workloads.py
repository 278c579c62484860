"""Seeded inputs, timed items and output checks of the benchmark workloads.

Every input comes from the workload seed.  Haar unitaries enter the CLI
configs as literal ``transmission.unitary`` matrices, so the program never
sees the seed.  An item is one probability or one CLI task; a pass runs
every item of a workload once, in order.  Checks run outside the timed
region and use only long-lived public API.

Each pass gets fresh inputs: every circuit is followed by output phases
drawn from the seed and the pass id.  Output phases change every input
matrix but no photon-number probability, so the exact outputs, their
checks and the work of a pass stay the same, while no result of one pass
can be reused by a later one.
"""

import contextlib
import io
import itertools
import json
import math
import os
import traceback
from time import perf_counter

import numpy as np

from photonsieve import cli
from photonsieve import distributions as dist
from photonsieve import fock_channel, gaussian
from photonsieve.distributions import CoarsePattern

FAILED = object()  # output of an item that raised

# full sizes, and the small sizes used for warm-up and the smoke mode
SIZES = {
    "herald": (
        {"cutoff": 10, "fock_cutoff": 1},
        {"cutoff": 1, "fock_cutoff": 1},
    ),
    "fine-grid": (
        {"cutoff": 6, "states": 1, "fock_input": (2, 2, 1, 0),
         "fock_circuits": 2},
        {"cutoff": 2, "states": 2, "fock_input": (1, 1, 0, 0),
         "fock_circuits": 2},
    ),
    "stats-scan": (
        {"big_circuits": 10, "big_modes": 16, "samples": 5 * 10 ** 4,
         "dist_circuits": 10,
         "patterns": [(1, 1, 1, 0)] + [(5, 5, 5, 4)] * 5 + [(6, 6, 6, 6)]},
        {"big_circuits": 1, "big_modes": 4, "samples": 20000,
         "dist_circuits": 1, "patterns": [(1, 1, 1, 0), (2, 1, 1, 0)]},
    ),
}

_ORACLE_SAMPLE = 12  # Fock outputs per circuit checked against the oracle
_PP_PER_CIRCUIT = 2
_PP_N_VALUES = list(range(13))
_PP_SIGMAS = 5.0
_MAX_TOTAL = 27


def haar_unitary(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(h)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def pass_rng(seed, pass_id):
    """Generator of one pass's output phases; pass 0 is the warm-up."""
    return np.random.default_rng([seed, pass_id])


def output_phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def phased(rng, u):
    """``u`` followed by seeded phases on its output ports."""
    return output_phases(rng, u.shape[0])[:, None] * u


def _literal(mat):
    """A complex matrix as CLI JSON: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


class CliTask:
    """One ``photonsieve run`` task, called in-process through cli.main."""

    def __init__(self, workdir, name, config):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        self.argv = ["run", "--config", path]

    def __call__(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)  # looked up per call, for tracing
        return code, buf.getvalue()


class Checks:
    """Per-item failure flags and the largest error as a share of tolerance."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.failed = [out is FAILED for out in outputs]
        self.max_share = 0.0

    def within(self, idx, err, tol):
        """Record err against tol; a miss fails every item in idx."""
        share = float(err) / tol
        if not share <= 1.0:
            for i in idx:
                self.failed[i] = True
        self.max_share = max(self.max_share,
                             share if math.isfinite(share) else 1e30)

    def result(self, i):
        """Parsed CLI result of item i, or None after marking it failed."""
        out = self.outputs[i]
        if self.failed[i]:
            return None
        code, text = out
        try:
            if code == 0:
                return json.loads(text)["result"]
        except (ValueError, KeyError):
            pass
        self.failed[i] = True
        return None

    def number(self, i):
        """Library output of item i as a float, NaN when it failed."""
        out = self.outputs[i]
        if self.failed[i] or not np.isfinite(out):
            self.failed[i] = True
            return math.nan
        return float(out)


def _density(result):
    """Dense matrix from the sparse entries of a CLI density-matrix result."""
    dim = (result["cutoff"] + 1) ** result["modes"]
    rho = np.zeros((dim, dim), dtype=complex)
    for i, j, re, im in result["entries"]:
        rho[i, j] = complex(re, im)
    return rho


def _check_state(chk, i, rho):
    """Hermitian to 1e-9 and PSD to -1e-7, after normalizing by the trace."""
    rho = rho / np.trace(rho).real
    chk.within([i], np.max(np.abs(rho - rho.conj().T)), 1e-9)
    chk.within([i], max(-np.linalg.eigvalsh(rho).min(), 0.0), 1e-7)


def _close(chk, idx, got, want, atol, rtol=1e-9):
    chk.within(idx, abs(got - want), atol + rtol * abs(want))


# ---------------------------------------------------------------------------
# herald: two heralded-state tasks through the CLI
# ---------------------------------------------------------------------------

class Herald:
    """Cutoff-reduced acceptance herald pipeline plus a Fock-channel herald.

    Cutoff 10 (the acceptance test uses 26) and a cutoff-1 Fock herald keep
    a pass near 2 s, so one run holds enough passes for each task's fastest
    pass to miss the slow phases of a shared machine.  The 90 s cutoff-26
    pipeline stays an acceptance-test gate.
    """

    _COUNTS = (5, 7)

    def __init__(self, seed, size, workdir):
        self.seed, self.workdir = seed, workdir
        rng = np.random.default_rng(seed)
        self.u3 = haar_unitary(rng, 3)
        self.u4 = haar_unitary(rng, 4)
        self.cutoff = size["cutoff"]
        self.fock_cutoff = size["fock_cutoff"]
        self._refs = None

    def items(self, pass_id):
        rng = pass_rng(self.seed, pass_id)
        gauss = {
            "circuit": {
                "modes": 3, "internals": 2, "squeezing": [1.0] * 3,
                "spectral_purity": 0.9,
                "transmission": {"unitary": _literal(phased(rng, self.u3)),
                                 "efficiency": 0.95},
            },
            "task": {
                "kind": "herald", "herald_modes": [0, 1, 2, 3],
                "measurement": {"blocks": [[0, 1], [2, 3]],
                                "counts": list(self._COUNTS)},
                "trace_out": [5], "cutoff": self.cutoff,
            },
        }
        fock = {
            "circuit": {
                "modes": 4,
                "transmission": {"unitary": _literal(phased(rng, self.u4)),
                                 "efficiency": 0.9},
            },
            "task": {
                "kind": "fock-herald", "input": [2, 2, 2, 0],
                "herald_modes": [0, 1], "measurement": [2, 1],
                "cutoff": self.fock_cutoff, "normalize": False,
            },
        }
        return [CliTask(self.workdir, "herald-gauss", gauss),
                CliTask(self.workdir, "herald-fock", fock)]

    def _references(self):
        if self._refs is None:
            lay = gaussian.ModeLayout(3, 2)
            t = np.kron(np.sqrt(0.95) * self.u3, np.eye(2))
            state = gaussian.apply_channel(
                gaussian.impure_source([1.0] * 3, 0.9, lay), t)
            rep = gaussian.to_adjacency(gaussian.marginal_state(
                state, [0, 1, 2, 3, 4]))
            diag = np.array([
                dist.prob_coarse(rep, CoarsePattern(
                    [(0, 1), (2, 3), (4,)], self._COUNTS + (n,)))
                for n in range(self.cutoff + 1)])
            fi = fock_channel.FockInput((2, 2, 2, 0), np.sqrt(0.9) * self.u4)
            # outputs beyond the 3 unheralded photons are zero under loss
            c = self.fock_cutoff
            trace = sum(
                fock_channel.fock_perm_oracle(
                    fi, CoarsePattern([[0], [1], [2], [3]], [2, 1, u, v]))
                for u in range(c + 1) for v in range(c + 1) if u + v <= 3)
            self._refs = (diag / diag.sum(), trace)
        return self._refs

    def check(self, outputs):
        chk = Checks(outputs)
        diag, trace = self._references()
        res = chk.result(0)
        if res is not None:
            rho = _density(res)
            chk.within([0], abs(np.trace(rho).real - 1.0), 1e-9)
            _check_state(chk, 0, rho)
            got = rho.diagonal().real
            chk.within([0], np.max(np.abs(got - diag) / np.abs(diag)), 1e-9)
        res = chk.result(1)
        if res is not None:
            rho = _density(res)
            chk.within([1], abs(np.trace(rho).real - trace), 1e-12)
            _check_state(chk, 1, rho)
        return chk


# ---------------------------------------------------------------------------
# fine-grid: thousands of small sieve calls through the library
# ---------------------------------------------------------------------------

class FineGrid:
    """Full fine-grained grids of displaced lossy states, and full output
    distributions of Fock inputs through lossy interferometers.

    The state is the one of the moments acceptance test with a seeded
    unitary.  Moderate sizes keep the work of a pass nearly the same for
    every seed: the sieve's fallback folds on tiny probabilities made the
    work of one cutoff-9 grid vary up to 1.45x, and that of one (2,2,1,1)
    Fock distribution up to 1.54x, between seeds.  One cutoff-6 grid and
    two Fock circuits make 595 items.  The tail is then p95, and the 29
    items beyond it fall inside one group of Fock outputs of equal work
    for every seed.
    """

    _SQUEEZING = [0.2, 0.15, 0.1]
    _DISPLACEMENT = np.array([0.1, -0.1j, 0.05])

    def __init__(self, seed, size, workdir):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.cutoff = size["cutoff"]
        self.patterns = list(itertools.product(range(self.cutoff + 1),
                                               repeat=3))
        self.u3s = [haar_unitary(rng, 3) for _ in range(size["states"])]
        self.fock_input = size["fock_input"]
        self.u4s = [haar_unitary(rng, 4)
                    for _ in range(size["fock_circuits"])]
        p = self.fock_input
        blocks = [[0], [1], [2], [3]]
        self.outputs = [CoarsePattern(blocks, b)
                        for b in itertools.product(range(sum(p) + 1), repeat=4)
                        if sum(b) <= sum(p)]
        self.sample = [sorted(rng.choice(len(self.outputs),
                                         min(_ORACLE_SAMPLE,
                                             len(self.outputs)),
                                         replace=False))
                       for _ in self.u4s]
        self._refs = None

    def _rep(self, u, d):
        """The displaced lossy state, followed by output phases ``d``.

        ``apply_channel`` moves the displacement half of the means by
        conj(t), so the displacement takes conj(d): the state is then the
        unphased one rotated mode by mode.
        """
        s = gaussian.from_squeezing(self._SQUEEZING, gaussian.ModeLayout(3))
        s = gaussian.apply_channel(s, 0.9 * d[:, None] * u)
        s = gaussian.displace(s, d.conj() * self._DISPLACEMENT)
        return gaussian.to_adjacency(s)

    def _fock_input(self, u):
        return fock_channel.FockInput(self.fock_input, np.sqrt(0.9) * u)

    def items(self, pass_id):
        rng = pass_rng(self.seed, pass_id)
        reps = [self._rep(u, output_phases(rng, 3)) for u in self.u3s]
        fis = [self._fock_input(phased(rng, u)) for u in self.u4s]
        return ([self._fine(rep, pat) for rep in reps
                 for pat in self.patterns]
                + [self._fock(fi, cp) for fi in fis for cp in self.outputs])

    @staticmethod
    def _fine(rep, pattern):
        return lambda: dist.prob_fine(rep, pattern)

    @staticmethod
    def _fock(fi, cp):
        return lambda: fock_channel.fock_coarse_prob(fi, cp)

    def _references(self):
        if self._refs is None:
            totals = [dist.total_distribution(self._rep(u, np.ones(3)),
                                              cutoff=self.cutoff)
                      .probabilities for u in self.u3s]
            oracle = [[fock_channel.fock_perm_oracle(self._fock_input(u),
                                                     self.outputs[j])
                       for j in sample]
                      for u, sample in zip(self.u4s, self.sample)]
            self._refs = (totals, oracle)
        return self._refs

    def check(self, outputs):
        chk = Checks(outputs)
        totals, oracle = self._references()
        vals = np.array([chk.number(i) for i in range(len(outputs))])
        npat, nout = len(self.patterns), len(self.outputs)
        for k, total in enumerate(totals):
            by_n = {}
            for i, pat in enumerate(self.patterns):
                if sum(pat) <= self.cutoff:
                    by_n.setdefault(sum(pat), []).append(k * npat + i)
            for n, idx in by_n.items():
                chk.within(idx, abs(vals[idx].sum() - total[n]), 1e-9)
        for k, (sample, want) in enumerate(zip(self.sample, oracle)):
            first = len(totals) * npat + k * nout
            idx = list(range(first, first + nout))
            chk.within(idx, abs(vals[idx].sum() - 1.0), 1e-9)
            for j, w in zip(sample, want):
                _close(chk, [first + j], vals[first + j], w, 1e-12)
        return chk


# ---------------------------------------------------------------------------
# stats-scan: many small CLI tasks with no grid sieve
# ---------------------------------------------------------------------------

class StatsScan:
    """Seeded circuits through total-dist, pp-estimate and the
    distinguishable fast path of external-prob."""

    def __init__(self, seed, size, workdir):
        self.seed, self.workdir = seed, workdir
        rng = np.random.default_rng(seed)
        self.circuits = []  # (circuit config without its unitary, unitary)
        self.tasks = []  # (config name, circuit index, task config)
        self.meta = []  # per task: what its check compares against
        self.big, self.small = [], []
        m = size["big_modes"]
        for c in range(size["big_circuits"]):
            u = haar_unitary(rng, m)
            self.big.append(u)
            self.circuits.append(({"modes": m, "squeezing": [0.89] * m,
                                   "efficiency": 0.36}, u))
            self._add(f"total-{c}", ("total", c),
                      {"kind": "total-dist", "max_total": _MAX_TOTAL})
            for k in range(_PP_PER_CIRCUIT):
                self._add(f"pp-{c}-{k}", ("pp", c),
                          {"kind": "pp-estimate", "samples": size["samples"],
                           "seed": int(rng.integers(2 ** 31)),
                           "n_values": _PP_N_VALUES})
        for c in range(size["dist_circuits"]):
            u = haar_unitary(rng, 4)
            self.circuits.append(({"modes": 4, "internals": 4,
                                   "squeezing": self._dist_squeezing().tolist(),
                                   "efficiency": 0.85}, u))
            for k, counts in enumerate(size["patterns"]):
                pattern = [int(x) for x in rng.permutation(counts)]
                self._add(f"ext-{c}-{k}", ("ext", c, pattern, k == 0),
                          {"kind": "external-prob", "distinguishable": True,
                           "pattern": pattern})
                if k == 0:
                    self.small.append((u, pattern))
        self._refs = None

    def _add(self, name, meta, task):
        self.tasks.append((name, len(self.circuits) - 1, task))
        self.meta.append(meta)

    def items(self, pass_id):
        """The tasks on phased circuits.

        A pp-estimate keeps its sampling seed: its estimator is exactly
        invariant under output phases, so it repeats its estimates on the
        fresh matrices, and a run checks the same 5-sigma outcomes in every
        pass instead of drawing new chances of a false alarm.
        """
        rng = pass_rng(self.seed, pass_id)
        circuits = []
        for base, u in self.circuits:
            circuit = {k: v for k, v in base.items() if k != "efficiency"}
            circuit["transmission"] = {"unitary": _literal(phased(rng, u)),
                                       "efficiency": base["efficiency"]}
            circuits.append(circuit)
        return [CliTask(self.workdir, name,
                        {"circuit": circuits[c], "task": task})
                for name, c, task in self.tasks]

    @staticmethod
    def _dist_squeezing():
        """One squeezed internal mode per external mode, never shared."""
        xi = np.zeros(16)
        for ext in range(4):
            xi[ext * 4 + ext % 4] = 0.4 + 0.05 * ext
        return xi

    def _references(self):
        if self._refs is None:
            totals = []
            for u in self.big:
                m = u.shape[0]
                s = gaussian.from_squeezing([0.89] * m, gaussian.ModeLayout(m))
                rep = gaussian.to_adjacency(
                    gaussian.apply_channel(s, np.sqrt(0.36) * u))
                totals.append(dist.total_distribution(
                    rep, cutoff=_MAX_TOTAL).probabilities)
            small = []
            for u, pattern in self.small:
                s = gaussian.from_squeezing(self._dist_squeezing(),
                                            gaussian.ModeLayout(4, 4))
                t = np.kron(np.sqrt(0.85) * u, np.eye(4))
                rep = gaussian.to_adjacency(gaussian.apply_channel(s, t))
                small.append(dist.prob_external(rep, pattern))
            self._refs = (totals, small)
        return self._refs

    def check(self, outputs):
        chk = Checks(outputs)
        totals, small = self._references()
        for i, meta in enumerate(self.meta):
            res = chk.result(i)
            if res is None:
                continue
            if meta[0] == "total":
                p = np.array(res["probabilities"], dtype=float)
                chk.within([i], max(-p.min(), 0.0), 1e-12)
                chk.within([i], 1.0 - p.sum(), 0.01)
            elif meta[0] == "pp":
                exact = totals[meta[1]][res["n_values"]]
                err = np.maximum(np.array(res["standard_errors"]), 1e-12)
                z = np.abs(np.array(res["estimates"]) - exact) / err
                chk.within([i], z.max(), _PP_SIGMAS)
            else:
                p = float(res["probability"])
                if meta[3]:
                    _close(chk, [i], p, small[meta[1]], 1e-9)
                else:
                    chk.within([i], np.max([0.0, -p, p - 1.0]), 1e-12)
        return chk


WORKLOADS = {"herald": Herald, "fine-grid": FineGrid, "stats-scan": StatsScan}


def build(name, seed, smoke, workdir):
    """The workload at full (or smoke) size, plus its warm-up at small size."""
    full, small = SIZES[name]
    cls = WORKLOADS[name]
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir)
    return cls(seed, small if smoke else full, workdir), \
        cls(seed, small, warm_dir)


def run_items(items):
    """Run every item once, in order; returns (latencies_s, outputs)."""
    lat, outs = [], []
    for item in items:
        t0 = perf_counter()
        try:
            out = item()
        except Exception:  # a raising item is a counted failure, not a crash
            traceback.print_exc()
            out = FAILED
        lat.append(perf_counter() - t0)
        outs.append(out)
    return lat, outs
