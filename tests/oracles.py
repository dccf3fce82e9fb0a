"""Independent extended-precision oracle.

Direct mpmath transcription of the defining sums and closed forms, written
before and kept independent of the package implementation.  Golden values
frozen in the tests were produced by these functions at 50 significant
digits; the acceptance suite re-derives them to guard the frozen literals.
"""

import mpmath as mp

mp.mp.dps = 50


def _pairs(p, q):
    return zip([mp.mpf(x) for x in p], [mp.mpf(x) for x in q])


def chi2(p, q):
    return mp.fsum((pi - qi) ** 2 / qi for pi, qi in _pairs(p, q))


def kl(p, q):
    return mp.fsum(pi * mp.log(pi / qi) for pi, qi in _pairs(p, q))


def rel_j(p, q):
    return mp.fsum((pi - qi) * mp.log((pi + qi) / (2 * qi))
                   for pi, qi in _pairs(p, q))


def rel_js(p, q):
    return mp.fsum(pi * mp.log(2 * pi / (pi + qi)) for pi, qi in _pairs(p, q))


def rel_ag(p, q):
    return mp.fsum(((pi + qi) / 2) * mp.log((pi + qi) / (2 * pi))
                   for pi, qi in _pairs(p, q))


def triangular(p, q):
    return mp.fsum((pi - qi) ** 2 / (pi + qi) for pi, qi in _pairs(p, q))


def bhattacharyya(p, q):
    return mp.fsum(mp.sqrt(pi * qi) for pi, qi in _pairs(p, q))


def vajda(p, q, m):
    m = mp.mpf(m)
    return mp.fsum(abs(pi - qi) ** m / qi ** (m - 1) for pi, qi in _pairs(p, q))


def power_diff(p, q, m):
    m = mp.mpf(m)
    return mp.fsum(abs(pi ** m - qi ** m) / qi ** (m - 1)
                   for pi, qi in _pairs(p, q))


def phi(p, q, s):
    s = mp.mpf(s)
    if s == 0:
        return kl(q, p)
    if s == 1:
        return kl(p, q)
    total = mp.fsum(pi ** s * qi ** (1 - s) for pi, qi in _pairs(p, q))
    return (total - 1) / (s * (s - 1))


def omega(p, q, s):
    s = mp.mpf(s)
    if s == 0:
        return rel_js(p, q)
    if s == 1:
        return rel_ag(p, q)
    total = mp.fsum(pi * ((pi + qi) / (2 * pi)) ** s for pi, qi in _pairs(p, q))
    return (total - 1) / (s * (s - 1))


def psi(x, s):
    x, s = mp.mpf(x), mp.mpf(s)
    u = (x + 1) / (2 * x)
    if s == 0:
        return (1 - x) / 2 - x * mp.log(u)
    if s == 1:
        return (x - 1) / 2 + ((x + 1) / 2) * mp.log(u)
    return (x * u ** s - x - s * (1 - x) / 2) / (s * (s - 1))


def psi_d1(x, s):
    x, s = mp.mpf(x), mp.mpf(s)
    u = (x + 1) / (2 * x)
    if s == 0:
        return (1 - x) / (2 * (1 + x)) - mp.log(u)
    if s == 1:
        return (1 - 1 / x + mp.log(u)) / 2
    return ((u ** s - 1) / s + (1 - u ** (s - 1) / x) / 2) / (s - 1)


def psi_d2(x, s):
    x, s = mp.mpf(x), mp.mpf(s)
    return ((x + 1) / (2 * x)) ** (s - 2) / (4 * x ** 3)


def psi_d3(x, s):
    x, s = mp.mpf(x), mp.mpf(s)
    return -(s + 1 + 3 * x) / (x ** 2 * (x + 1) ** 3) * ((x + 1) / (2 * x)) ** s


def e_omega(p, q, s):
    return mp.fsum((pi - qi) * psi_d1(pi / qi, s) for pi, qi in _pairs(p, q))


def e_star_omega(p, q, s):
    return mp.fsum((pi - qi) * psi_d1((pi + qi) / (2 * qi), s)
                   for pi, qi in _pairs(p, q))


def a_omega(r, R, s):
    return (mp.mpf(R) - mp.mpf(r)) * (psi_d1(R, s) - psi_d1(r, s)) / 4


def b_omega(r, R, s):
    r, R = mp.mpf(r), mp.mpf(R)
    return ((R - 1) * psi(r, s) + (1 - r) * psi(R, s)) / (R - r)


def delta_omega(r, R, s):
    return psi_d2(r, s) - psi_d2(R, s)


def psi3_sup(r, s):
    return abs(psi_d3(r, s))


def lp_power(p, a, b):
    p, a, b = mp.mpf(p), mp.mpf(a), mp.mpf(b)
    if a == b:
        return a ** p
    if p == -1:
        return (mp.log(b) - mp.log(a)) / (b - a)
    if p == 0:
        return mp.mpf(1)
    return (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))


def lp_mean(p, a, b):
    p, a, b = mp.mpf(p), mp.mpf(a), mp.mpf(b)
    if a == b:
        return a
    if p == 0:
        return (b ** b / a ** a) ** (1 / (b - a)) / mp.e
    if p == -1:
        return (b - a) / (mp.log(b) - mp.log(a))
    return lp_power(p, a, b) ** (1 / p)


def as_float(x):
    return float(x)
