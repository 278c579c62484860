"""Exact photon-number statistics of Gaussian optical circuits.

The package computes loop Hafnians and their blocked (grouped-detector)
generalization on a roots-of-unity sieve grid, and builds on them to
provide photon-number distributions, moments, heralded non-Gaussian density
matrices, Fock-state channels, a distinguishable-mode fast path, and a
phase-space Monte Carlo cross-check, plus a JSON-driven command line.
"""

__version__ = "0.1.0"

from .distributions import (
    CoarsePattern,
    Distribution,
    block_cumulant,
    coarse_cumulant,
    coarse_moment,
    extract_distinguishable_blocks,
    prob_coarse,
    prob_external,
    prob_external_distinguishable,
    prob_fine,
    prob_total,
    total_distribution,
)
from .fock_channel import (
    FockInput,
    fock_coarse_prob,
    fock_herald,
    fock_perm_oracle,
    perm_oracle,
)
from .gaussian import (
    AdjacencyRep,
    GaussianState,
    ModeLayout,
    apply_channel,
    displace,
    from_squeezing,
    impure_source,
    marginal_state,
    to_adjacency,
)
from .hafnian import (
    blocked_lhaf,
    blocked_lhaf_combinatorial,
    lhaf_oracle,
    lhaf_sieve,
)
from .heralding import (
    DensityMatrix,
    HeraldSpec,
    fidelity,
    herald_grouped,
)
from .phasespace import PPRun, pp_estimate
