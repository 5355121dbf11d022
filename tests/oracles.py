"""Independent oracles for the test suite.

Everything here deliberately avoids the package's solver code paths:
expectation by exhaustive product enumeration, exact convolution of lattice
laws, and textbook Gaussian closed forms.
"""

import itertools
import math

import numpy as np

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # mean of |N(0, 1)|
TWO_OVER_ROOT_PI = 2.0 / math.sqrt(math.pi)  # mean of |N(0, 2)|


def enumerate_value(dist, payoff, n: int) -> float:
    """E payoff(sum of n iid draws / sqrt(n)) over all |support|^n outcomes."""
    root = math.sqrt(n)
    support, probs = dist.support, dist.probs
    total = 0.0
    for combo in itertools.product(range(len(support)), repeat=n):
        p = 1.0
        s = 0.0
        for i in combo:
            p *= probs[i]
            s += support[i]
        total += p * payoff(s / root)
    return total


def convolution_value(dist, payoff, n: int) -> float:
    """Same expectation via n-fold pmf convolution on an integer lattice."""
    offsets = [round(x) for x in dist.support]
    if any(abs(o - x) > 1e-12 for o, x in zip(offsets, dist.support)):
        raise ValueError("convolution oracle needs integer support")
    reach = max(abs(o) for o in offsets)
    base = np.zeros(2 * reach + 1)
    for o, p in zip(offsets, dist.probs):
        base[o + reach] = p
    pmf = base.copy()
    for _ in range(n - 1):
        pmf = np.convolve(pmf, base)
    half = (pmf.size - 1) // 2
    points = (np.arange(pmf.size) - half) / math.sqrt(n)
    return float(np.dot(pmf, payoff(points)))


def binomial_abs_mean(n: int) -> float:
    """E |S_n| / sqrt(n) for a fair +-1 walk, from the binomial pmf."""
    total = 0.0
    for k in range(n + 1):
        total += math.comb(n, k) * 0.5**n * abs(n - 2 * k)
    return total / math.sqrt(n)


def sup_recursion_value(dists, payoff, n: int, step: float) -> float:
    """Origin value of the sup-recursion over ``dists``, one point at a time.

    Plain-Python backward recursion on the lattice ``step * Z`` scaled by
    ``1/sqrt(n)``: every level keeps a dict from lattice index to value.
    """
    root = math.sqrt(n)
    laws = [([round(s / step) for s in d.support], d.probs) for d in dists]
    reach = max(abs(o) for offs, _ in laws for o in offs)
    values = {
        j: float(payoff(j * step / root)) for j in range(-n * reach, n * reach + 1)
    }
    for k in range(n - 1, -1, -1):
        values = {
            j: max(sum(p * values[j + o] for o, p in zip(offs, probs)) for offs, probs in laws)
            for j in range(-k * reach, k * reach + 1)
        }
    return values[0]
