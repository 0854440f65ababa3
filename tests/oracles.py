"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the Bessel oracle is a
plain termwise power series summed in mpmath at 30 significant digits, the
gamma oracle uses exact integer factorials, and the root finder is plain
bisection.
"""

import math

import mpmath


def bessel_j_series_only(nu: float, s: float, max_terms: int = 600) -> float:
    """Ascending-series-only J_nu(s); trustworthy for s up to ~12.

    The terms reach about e^s / sqrt(s) and cancel down to J_nu(s), which is
    tiny next to a zero, so the sum is carried in 30 digits, not in doubles.
    """
    if s == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    with mpmath.workdps(30):
        nu, half = mpmath.mpf(nu), mpmath.mpf(s) / 2
        term = half ** nu / mpmath.gamma(nu + 1)
        total = term
        for k in range(1, max_terms + 1):
            term *= -(half * half) / (k * (nu + k))
            total += term
            if abs(term) <= mpmath.mpf(10) ** -32 * abs(total):
                break
        return float(total)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Bisection root of fn on [lo, hi]; requires a sign change."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo = mid
            flo = fm
    return 0.5 * (lo + hi)


def gamma_half_integer(n: int) -> float:
    """Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), exact integer arithmetic."""
    num = math.factorial(2 * n)
    den = 4 ** n * math.factorial(n)
    return (num / den) * math.sqrt(math.pi)
