"""The standard normal CDF and quantile of Moshier's Cephes library, the code
behind ``scipy.special.ndtr`` and ``ndtri``, bit for bit on the inputs the
psi-truncated prior uses, so that its draws need no scipy module.

Each function is ported only over the range the prior reaches:

- ``ndtr(a)`` for ``|a| < 8 * sqrt(2)`` (Cephes's erf and erfc tables P, Q,
  T and U; past that, erfc switches to tables not ported here).  The prior
  evaluates it at its box edges ``+-2 psi``, ``psi`` in (0, 1].
- ``ndtri(y)`` for y in ``[ndtr(-2), ndtr(2)]`` (the central tables P0/Q0
  and the tail tables P1/Q1 for ``sqrt(-2 log y)`` below 8).

The tail of ``ndtri`` takes its two logs with ``math.log``, the platform's
libm ``log`` that Cephes calls, not ``np.log``: numpy may dispatch to its own
SIMD log, which rounds some inputs differently (numpy 2.4 on an AVX-512 host:
106 of the 472,043 tail entries of 2M uniforms for ``log y``, 452 for
``log x``), and that moves draws by a few ulp.  ``ndtr`` likewise takes
``math.exp``.  Every other step is one IEEE operation, the same in numpy as
in C.
"""

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440
_EXP_M2 = 0.13533528323661269189          # exp(-2)
_SQRT_2PI = 2.50662827463100050242

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# ndtri(1/2 + y) = sqrt(2 pi) (y + y y^2 P0(y^2) / Q0(y^2)) for |y| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# the tail, x = sqrt(-2 log y) in [2, 8): ndtri(y) = -(x - log(x)/x - P1(1/x) / (x Q1(1/x)))
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _polevl(x, coef):
    """``coef[0] x^n + ... + coef[n]`` by Horner's rule, as Cephes's polevl;
    in place on a new array when ``x`` is one."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """``x^n + coef[0] x^(n-1) + ... + coef[n-1]``, as Cephes's p1evl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf(x):
    """erf(x) for |x| <= 1; odd, so one branch serves both signs."""
    return x * _polevl(x * x, _T) / _p1evl(x * x, _U)


def ndtr(a):
    """The standard normal CDF at the float ``a``, ``|a| < 8 * sqrt(2)``."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    # erfc(z) / 2
    y = 0.5 * (1.0 - _erf(z) if z < 1.0 else
               math.exp(-z * z) * _polevl(z, _P) / _p1evl(z, _Q))
    return 1.0 - y if x > 0.0 else y


def _logs(x):
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _central(y):
    """ndtri over the 1-D array ``y``, in place, by the central tables."""
    y -= 0.5
    y2 = y * y
    p = _polevl(y2, _P0)
    p *= y2
    p /= _p1evl(y2, _Q0)
    p *= y
    y += p
    y *= _SQRT_2PI


def ndtri(y):
    """The standard normal quantiles of the float64 array ``y``, each entry in
    ``[ndtr(-2), ndtr(2)]``, written over ``y`` when it is contiguous."""
    shape, y = y.shape, y.reshape(-1)
    upper = y > 1.0 - _EXP_M2
    np.subtract(1.0, y, out=y, where=upper)
    tail = np.flatnonzero(y <= _EXP_M2)
    t, upper = y[tail], upper[tail]
    # every entry as central, then the tail's entries overwritten; in blocks
    # of 2^15, whose temporaries stay in cache (twice as fast at 200k entries)
    for start in range(0, y.size, 1 << 15):
        _central(y[start:start + (1 << 15)])
    x = np.sqrt(-2.0 * _logs(t))
    z = 1.0 / x
    x = x - _logs(x) / x - z * _polevl(z, _P1) / _p1evl(z, _Q1)
    y[tail] = np.where(upper, x, -x)
    return y.reshape(shape)
