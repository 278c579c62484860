"""Order statistics behind the benchmark's latency numbers."""

# tail percentiles tried, in per mille, lowest first
_LADDER = (500, 900, 950, 990, 999)


def percentile(values, p):
    """Linearly interpolated percentile p (0..100) of a non-empty sequence."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0) if len(values) else 0.0


def tail(values):
    """Highest ladder percentile with at least ten values beyond it.

    Returns (value, percentile).  With fewer than twenty values no ladder
    percentile qualifies, and the maximum is returned as percentile 100.
    An empty sequence gives (0.0, None).
    """
    n = len(values)
    if not n:
        return 0.0, None
    fits = [q for q in _LADDER if n * (1000 - q) >= 10000]
    p = fits[-1] / 10.0 if fits else 100.0
    return percentile(values, p), p
