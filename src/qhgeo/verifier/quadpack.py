"""``qh_calibration``'s reference integral of the density 1/d_G along a segment.

It is ``scipy.integrate.quad``'s, bitwise, but computed as QUADPACK's first QAGS step where that
step settles it, so a calibration imports ``scipy.integrate`` (and with it ``scipy.optimize``,
HiGHS and ``scipy.fft``) only for a segment that QAGS subdivides.  The scenario module imports
this one on the first ``qh_calibration`` check.
"""

from __future__ import annotations

import numpy as np

# QUADPACK's dqk21 (Piessens et al. 1983): the 21-point Kronrod abscissae (the last the centre)
# and weights, and the weights of the 10-point Gauss rule on the abscissae 1, 3, ..., 9
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208015259265, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # dqk21 sums the Gauss abscissae first
# the nodes on [0, 1] in dqk21's order: the centre, then 0.5 -+ 0.5 x for each abscissa x
_QK21_T = np.array([0.5] + [t for j in _QK21_ORDER for t in (0.5 - 0.5 * _XGK[j],
                                                             0.5 + 0.5 * _XGK[j])])
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _qk21(values):
    """dqk21 on [0, 1] from the integrand at ``_QK21_T``: (result, abserr, resasc), each
    operation in dqk21's order."""
    fc, resg = values[0], 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv = [None] * 10
    for j, f1, f2 in zip(_QK21_ORDER, values[1::2], values[2::2]):
        fv[j] = f1, f2
        fsum = f1 + f2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j, (f1, f2) in enumerate(fv):
        resasc = resasc + _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs, resasc = resabs * 0.5, resasc * 0.5
    abserr = abs((resk - resg) * 0.5)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * 0.5, abserr, resasc


def segment_oracle(domain, a, b):
    """The integral of 1/d_G along [a, b], bitwise ``quad(..., limit=200)``'s.

    QAGS (``quad``) first applies dqk21 to all of [0, 1] and stops there if abserr == 0, or if
    abserr <= max(epsabs, epsrel |result|) (1.49e-8 each) and abserr != resasc.  Where 2 abserr
    is at most both that bound and resasc (as it is if abserr == 0), so that a last-ulp difference
    in ``pow`` cannot flip the test, the rule's result is returned; otherwise ``quad`` runs."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    length = float(np.hypot(*(b - a)))
    # one call for the 21 nodes: bitwise the per-point calls (tests/test_segment_oracle.py)
    values = length / domain.boundary_distance_at(a + _QK21_T[:, None] * (b - a))
    result, abserr, resasc = _qk21(values.tolist())
    # each comparison is false on a NaN (a node with d_G = 0), which so goes on to quad
    if 2.0 * abserr <= max(1.49e-8, 1.49e-8 * abs(result)) and 2.0 * abserr <= resasc:
        return result
    from scipy.integrate import quad  # imports scipy.optimize and scipy.fft too: only here

    def integrand(t):
        p = a + t * (b - a)
        return length / float(domain.boundary_distance_at(p[None, :])[0])

    value, _ = quad(integrand, 0.0, 1.0, limit=200)
    return value
