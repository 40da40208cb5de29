"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's own code paths: plain
double loops, scipy's adaptive quadrature and optimizer, a term-by-term
Kolmogorov series and a hand-rolled cyclic Jacobi eigensolver. Slow is
fine; these only run in tests.
"""
import math

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.stats


def pearson_loops(x, y):
    """Textbook sample correlation with population normalization."""
    t = len(x)
    mx = sum(x) / t
    my = sum(y) / t
    sxx = sum((xi - mx) ** 2 for xi in x) / t
    syy = sum((yi - my) ** 2 for yi in y) / t
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y)) / t
    return sxy / math.sqrt(sxx * syy)


def covariance_loops(block):
    """Population covariance matrix via explicit double loops."""
    n, t = block.shape
    means = [sum(block[i]) / t for i in range(n)]
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(t):
                acc += (block[i, k] - means[i]) * (block[j, k] - means[j])
            cov[i, j] = acc / t
    return cov


def density_quad(rho, rho_bar, t):
    """Sampling density of the Pearson estimator via scipy adaptive quadrature.

    The inner integral is computed relative to its r=0 peak so the
    integrand stays in [0, 1]; logs keep the outer factors finite.
    """
    a = rho * rho_bar
    peak = -(t - 1) * math.log1p(-a)

    def integrand(r):
        log_c = r - math.log(2.0) if r > 35.0 else math.log(math.cosh(r) - a)
        z = -(t - 1) * (log_c - math.log1p(-a))
        return math.exp(z) if z > -745.0 else 0.0

    tail, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
    log_d = (
        math.log(t - 2)
        - math.log(math.pi)
        + 0.5 * (t - 4) * (math.log1p(-rho) + math.log1p(rho))
        + 0.5 * (t - 1) * (math.log1p(-rho_bar) + math.log1p(rho_bar))
        + peak
        + math.log(tail)
    )
    return math.exp(log_d)


def cdf_quad(rho, rho_bar, t):
    """P(estimator <= rho): adaptive quadrature of density_quad over [-1, rho].

    Breakpoints one Gaussian-approximation sd apart around rho_bar show
    quad where the mass sits, however narrow the law.
    """
    sd = (1.0 - rho_bar * rho_bar) / math.sqrt(t)
    points = [p for p in rho_bar + sd * np.arange(-8.0, 9.0) if -1.0 < p < rho]
    value, _ = scipy.integrate.quad(
        density_quad, -1.0, rho, args=(rho_bar, t), points=points or None,
        limit=500, epsabs=1e-14, epsrel=1e-13,
    )
    return value


def numeric_moments(density, order=400):
    """(total mass, mean, variance) of a density on [-1, 1] via Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(order)
    p = density(x)
    total = float(w @ p)
    mean = float(w @ (x * p))
    second = float(w @ (x * x * p))
    return total, mean, second - mean * mean


def ks_statistic_scipy(samples, cdf):
    """Two-sided KS distance via scipy.stats.kstest."""
    return float(scipy.stats.kstest(samples, cdf).statistic)


def ks_pvalue_series(d_stat, k):
    """Kolmogorov tail at the finite-sample corrected argument, summed term by term.

    d* = D (sqrt(K) + 0.12 + 0.11/sqrt(K)), p = 2 sum_j (-1)^(j-1)
    exp(-2 j^2 d*^2), truncated once terms drop below 1e-16; the
    alternating partial sums make the truncation error one term wide.
    """
    d_star = d_stat * (math.sqrt(k) + 0.12 + 0.11 / math.sqrt(k))
    if d_star == 0.0:
        return 1.0
    total, sign, j = 0.0, 1.0, 1
    while True:
        term = math.exp(-2.0 * j * j * d_star * d_star)
        total += sign * term
        if term < 1e-16:
            return min(1.0, max(0.0, 2.0 * total))
        sign, j = -sign, j + 1


def brute_min_variance(cov):
    """Constrained minimizer of w'Cw with sum w = 1, via SLSQP."""
    n = cov.shape[0]
    w0 = np.full(n, 1.0 / n)
    result = scipy.optimize.minimize(
        lambda w: float(w @ cov @ w),
        w0,
        jac=lambda w: 2.0 * (cov @ w),
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                      "jac": lambda w: np.ones(n)}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert result.success, result.message
    return result.x


def q_band_mean(n, t1):
    """Large-T mean of q under a stationary Gaussian truth, 1 / (1 - N/T1).

    Estimation noise shrinks the in-sample risk by sqrt(1 - N/T1) and
    grows the realized risk by 1/sqrt(1 - N/T1), whatever the truth
    (Pafka & Kondor 2003, Physica A 319:487; Kondor, Pafka & Nagy 2007,
    J. Bank. Finance 31:1545).  Finite T1 and T2 add O(1/T) corrections.
    """
    return 1.0 / (1.0 - n / t1)


def q_band_second_moment(n, t1, t2):
    """Exact E[q^2] under a stationary Gaussian truth, for t1 > n + 2.

    Whiten the panel and rotate u = L^-1 1 onto the first axis; q is free of
    u's scale and the normals are rotation-invariant, so the law is one for
    every truth.  With W = T1 S ~ Wishart_N(T1 - 1, I) partitioned at its
    first row (Muirhead 1982, Thm 3.2.10), q^2 = (T1/T2) a (1 + b/c) / d for
    independent a ~ chi2(T2 - 1), b ~ chi2(N - 1), c ~ chi2(T1 - N + 1) and
    d ~ chi2(T1 - N), and E[1/chi2(k)] = 1/(k - 2).
    """
    return (t1 / t2) * (t2 - 1) * (1.0 + (n - 1) / (t1 - n - 1)) / (t1 - n - 2)


def jacobi_eig(matrix, sweeps=100, tol=1e-13):
    """Cyclic Jacobi eigensolver for small symmetric matrices.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < tol:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                sign = 1.0 if theta >= 0 else -1.0
                t = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off < tol:
            break
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]
