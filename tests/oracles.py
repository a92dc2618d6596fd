"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's own computation paths: the Tustin
oracle expands the substitution with binomial products, and the random
system sampler builds transfer functions from explicit pole/zero draws.
"""

import numpy as np

from seactrl.lti import ContinuousTransferFunction


def tustin_direct(num, den, T):
    """Substitute s = (2/T)(z-1)/(z+1) term by term; clear with (z+1)^n."""
    n = len(den) - 1
    numv = np.concatenate([np.zeros(n + 1 - len(num)), np.asarray(num, float)])

    def substitute(coeffs):
        out = np.zeros(n + 1)
        for j, cj in enumerate(coeffs):
            d = n - j  # degree of this term in s
            poly = np.array([cj * (2.0 / T) ** d])
            for _ in range(d):
                poly = np.convolve(poly, [1.0, -1.0])
            for _ in range(n - d):
                poly = np.convolve(poly, [1.0, 1.0])
            out += poly
        return out

    b = substitute(numv)
    a = substitute(np.asarray(den, float))
    return b / a[0], a / a[0]


def random_stable_tf(rng, max_order=4, w_lo=0.5, w_hi=200.0, min_damp=0.3):
    """Random causal transfer function with damped left-half-plane roots."""
    n = int(rng.integers(1, max_order + 1))
    m = int(rng.integers(0, n + 1))

    def roots(count):
        out = []
        while len(out) < count:
            if count - len(out) >= 2 and rng.random() < 0.5:
                w = rng.uniform(w_lo, w_hi)
                z = rng.uniform(min_damp, 1.0)
                out += [-z * w + 1j * w * np.sqrt(1 - z * z),
                        -z * w - 1j * w * np.sqrt(1 - z * z)]
            else:
                out.append(-rng.uniform(w_lo, w_hi))
        return out

    den = np.real(np.poly(roots(n)))
    num = (np.real(np.poly(roots(m))) * rng.uniform(0.1, 10.0)
           if m else np.array([rng.uniform(0.1, 10.0)]))
    return ContinuousTransferFunction(num, den)


def observer_reference(inv_plant, q, f_measured, u_prev):
    """Disturbance estimate of two separately stepped filters, via scipy.

    Returns ``(Q/P)(f_measured) - Q(u_prev)`` with each discrete filter run
    by ``scipy.signal.lfilter`` on its own (a_hat, den) pair.
    """
    from scipy.signal import lfilter

    return (lfilter(inv_plant.a_hat, inv_plant.den, f_measured)
            - lfilter(q.a_hat, q.den, u_prev))
