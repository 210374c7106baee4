"""QUADPACK's QAGS (``dqagse`` with ``dqk21``, ``dqpsrt`` and ``dqelg``), in
Python.

Globally adaptive 21-point Gauss-Kronrod quadrature on a finite interval,
with Wynn's epsilon-algorithm extrapolation over the bisection sequence
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*,
Springer 1983; the Fortran is in the public domain).  The port keeps the
Fortran's order of floating-point operations, statement by statement: the
Gauss-node loop of ``dqk21`` runs before the Kronrod-only loop, ``resasc``
accumulates in node order, ``errsum`` and ``area`` are updated
incrementally, the final sum re-adds ``rlist`` in index order, and the
roundoff counters and the epsilon table take the same branches.  So it
returns the bits ``scipy.integrate.quad`` returns on a finite interval,
node for node, and every call bisects the same fixed nested grid.  Each
test keeps the Fortran's comparison (``not abseps >= abserr`` for
``if(abseps.ge.abserr) go to 70``) rather than its negation, so a NaN takes
the same branch.

Arrays are 1-based, as in the Fortran: index 0 is unused.
"""
from __future__ import annotations

import math

_EPMACH = 2.0 ** -52  # d1mach(4)
_UFLOW = 2.0 ** -1022  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)

# 21-point Kronrod abscissae and weights (xgk, wgk) and the 10-point Gauss
# weights (wg); xgk[1], xgk[3], ... are the Gauss abscissae
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980223048, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# (Kronrod index, Gauss weight) for the Gauss loop, then the Kronrod-only loop
_GAUSS_NODES = tuple(zip(range(1, 10, 2), _WG))
_KRONROD_NODES = tuple(range(0, 10, 2))


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, wg in _GAUSS_NODES:
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    for j in _KRONROD_NODES:
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = float(f(centr - absc))
        fval2 = fv2[j] = float(f(centr + absc))
        fsum = fval1 + fval2
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord descending in elist after a bisection; returns
    (maxerr, errmax, nrmax) for the interval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: one step of the epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:  # irregular behaviour: omit part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _ratio(x: float, y: float) -> float:
    # IEEE x / y, where Python raises on y == 0
    if y:
        return x / y
    return math.copysign(math.inf, x) * math.copysign(1.0, y) if x else math.nan


def _qags(f, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int, int]:
    """dqagse: (value, abserr, neval, ier) of the integral of f over [a, b],
    a < b, as ``scipy.integrate.quad`` computes it on a finite interval.
    ier is QUADPACK's: 0 converged, 1 subdivision limit, 2 roundoff, 3 bad
    integrand behaviour, 4 extrapolation roundoff, 5 probably divergent.
    An exception raised by f propagates."""
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        raise ValueError("qags needs limit >= 1, and epsrel > max(50 eps, 5e-29) where epsabs <= 0")
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # leave by the final re-summation of rlist (label 115)

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while any is left in the ordered list
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (label 100)
    if not summed:
        if abserr == _OFLOW:
            summed = True
        else:
            test_divergence = True
            if ier + ierro != 0:
                if ierro == 3:
                    abserr = abserr + correc
                if ier == 0:
                    ier = 3
                if result != 0.0 and area != 0.0:
                    summed = abserr / abs(result) > errsum / abs(area)
                    test_divergence = not summed
                elif abserr > errsum:
                    summed = True
                    test_divergence = False
                elif area == 0.0:
                    test_divergence = False
            if test_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = _ratio(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if summed:
        # a plain loop, not sum(): from Python 3.12 sum() compensates its rounding
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier

