"""QUADPACK's QAGS in pure Python: adaptive Gauss-Kronrod with extrapolation.

A port of ``dqagse``, ``dqk21``, ``dqpsrt`` and ``dqelg`` (Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*, Springer 1983),
the routine behind ``scipy.integrate.quad`` on a finite interval; the
control flow follows the Fortran's, with ``dqk21``'s loops unrolled.
Every floating-point operation keeps the Fortran's order and
operands, and the 21-point rule keeps the ``dqk21`` data-statement
constants, so on binary64 without fused multiply-add the value, the error
estimate and the return code are those of scipy's ``quad`` bit for bit
(``tests/test_quadrature.py`` checks this where scipy is installed).

Arrays are 0-based; ``iord`` holds 0-based interval indices.  The
epsilon table of ``dqelg`` and its three last results stay 1-based, as
in the Fortran, with a dead slot 0.
"""

from __future__ import annotations

import sys

__all__ = ["qags"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # dqelg: the epsilon table holds at most 50 entries

# dqk21 data: abscissae xgk(1..11) of the 21-point Kronrod rule (xgk(2),
# xgk(4), ... are the 10-point Gauss nodes, xgk(11) the centre), its
# weights wgk(1..11), and the Gauss weights wg(1..5) of the nodes xgk(2j).
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208058940463, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9, _X10 = _XGK[:10]
_K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10, _K11 = _WGK
_G2, _G4, _G6, _G8, _G10 = _WG  # named by the node xgk(2j) they weight


def _qk21(f, a, b):
    """dqk21: the 21-point rule on [a, b] -> (result, abserr, resabs, resasc).

    Unrolled: f runs at the centre, then at each Gauss node pair
    centr -+ hlgth xgk(2j), then at each Kronrod-only pair; every sum is
    written out left to right in the order dqk21's loops accumulate it.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    h1 = hlgth * _X1
    h2 = hlgth * _X2
    h3 = hlgth * _X3
    h4 = hlgth * _X4
    h5 = hlgth * _X5
    h6 = hlgth * _X6
    h7 = hlgth * _X7
    h8 = hlgth * _X8
    h9 = hlgth * _X9
    h10 = hlgth * _X10
    (fc, l2, r2, l4, r4, l6, r6, l8, r8, l10, r10,
     l1, r1, l3, r3, l5, r5, l7, r7, l9, r9) = map(f, (
        centr, centr - h2, centr + h2, centr - h4, centr + h4, centr - h6, centr + h6,
        centr - h8, centr + h8, centr - h10, centr + h10,
        centr - h1, centr + h1, centr - h3, centr + h3, centr - h5, centr + h5,
        centr - h7, centr + h7, centr - h9, centr + h9,
    ))
    s1 = l1 + r1
    s2 = l2 + r2
    s3 = l3 + r3
    s4 = l4 + r4
    s5 = l5 + r5
    s6 = l6 + r6
    s7 = l7 + r7
    s8 = l8 + r8
    s9 = l9 + r9
    s10 = l10 + r10
    resg = 0.0 + _G2 * s2 + _G4 * s4 + _G6 * s6 + _G8 * s8 + _G10 * s10
    resk = (
        _K11 * fc + _K2 * s2 + _K4 * s4 + _K6 * s6 + _K8 * s8 + _K10 * s10
        + _K1 * s1 + _K3 * s3 + _K5 * s5 + _K7 * s7 + _K9 * s9
    )
    resabs = (
        abs(_K11 * fc) + _K2 * (abs(l2) + abs(r2)) + _K4 * (abs(l4) + abs(r4))
        + _K6 * (abs(l6) + abs(r6)) + _K8 * (abs(l8) + abs(r8)) + _K10 * (abs(l10) + abs(r10))
        + _K1 * (abs(l1) + abs(r1)) + _K3 * (abs(l3) + abs(r3)) + _K5 * (abs(l5) + abs(r5))
        + _K7 * (abs(l7) + abs(r7)) + _K9 * (abs(l9) + abs(r9))
    )
    reskh = resk * 0.5
    resasc = (
        _K11 * abs(fc - reskh)
        + _K1 * (abs(l1 - reskh) + abs(r1 - reskh)) + _K2 * (abs(l2 - reskh) + abs(r2 - reskh))
        + _K3 * (abs(l3 - reskh) + abs(r3 - reskh)) + _K4 * (abs(l4 - reskh) + abs(r4 - reskh))
        + _K5 * (abs(l5 - reskh) + abs(r5 - reskh)) + _K6 * (abs(l6 - reskh) + abs(r6 - reskh))
        + _K7 * (abs(l7 - reskh) + abs(r7 - reskh)) + _K8 * (abs(l8 - reskh) + abs(r8 - reskh))
        + _K9 * (abs(l9 - reskh) + abs(r9 - reskh)) + _K10 * (abs(l10 - reskh) + abs(r10 - reskh))
    )
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, (200 abserr / resasc)^1.5); the power exceeds 1
        # exactly when its base does, and is skipped there, so it cannot
        # overflow (Python's ** raises where C's pow returns inf)
        scale = 0.2e3 * abserr / resasc
        abserr = resasc * (1.0 if scale > 1.0 else scale**1.5)
    if resabs > _UFLOW / (0.5e2 * _EPMACH):
        abserr = max((_EPMACH * 0.5e2) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` in descending error order -> (maxerr, errmax, nrmax).

    ``last`` counts the intervals, so the newest is ``last - 1``; ``nrmax``
    is a 0-based position in ``iord``.  Positions ``i`` below are the
    Fortran's 1-based ones, read as ``iord[i - 1]``.
    """
    if last <= 2:
        iord[0] = 0
        iord[1] = 1
    else:
        errmax = elist[maxerr]
        # a difficult integrand raised the error of the bisected interval:
        # move it up past the entries it now exceeds
        for _ in range(nrmax):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the first jupbn entries are kept in order: no more are
        # needed for the subdivisions still allowed
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last - 1]
        jbnd = jupbn - 1
        for i in range(nrmax + 2, jbnd + 1):
            isucc = iord[i - 1]
            if errmax >= elist[isucc]:
                break
            iord[i - 2] = isucc
        else:
            iord[jbnd - 1] = maxerr
            iord[jupbn - 1] = last - 1
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        # insert errmax at position i - 1, then errmin bottom-up
        iord[i - 2] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k - 1]
            if errmin < elist[isucc]:
                iord[k] = last - 1
                break
            iord[k] = isucc
            k -= 1
        else:
            iord[i - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on ``epstab[1..n]``.

    Returns (n, result, abserr, nres); ``epstab`` and ``res3la`` (both
    1-based) are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres
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
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two close elements or an irregular table: drop its tail
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 0.1e1 / delta1 + 0.1e1 / delta2 - 0.1e1 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 0.1e-3:
            n = i + i - 1
            break
        res = e1 + 0.1e1 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
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
    return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres


def qags(f, a, b, epsabs, epsrel, limit):
    """dqagse: integrate f over the finite [a, b] -> (result, abserr, ier).

    Stops once the error estimate is below max(epsabs, epsrel |result|),
    or at ``limit`` subintervals.  ``ier`` is scipy's code: 0 success,
    1 the subdivision limit, 2 roundoff, 3 bad integrand behaviour,
    4 roundoff in the extrapolation table, 5 probably divergent, 6 invalid
    tolerances.  An exception raised by f propagates.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if epsabs <= 0.0 and epsrel < max(0.5e2 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 6
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    # test on accuracy
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 0.1e3 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    alist = [a]
    blist = [b]
    rlist = [result]
    elist = [abserr]
    iord = [0] * limit
    rlist2 = [0.0] * (_LIMEXP + 3)  # epstab(1..52), 1-based
    res3la = [0.0] * 4  # 1-based
    rlist2[1] = result
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 0
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (0.1e1 - 0.5e2 * _EPMACH) * defabs else -1

    sum_rlist = False  # True where the Fortran jumps to label 115
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
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (0.1e1 + 0.1e3 * _EPMACH) * (abs(a2) + 0.1e4 * _UFLOW):
            ier = 4
        # append the new intervals, the one with the larger error at maxerr
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_rlist = True
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
            # go on bisecting until the next interval is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: first bisect
            # the larger intervals whose errors sum to erlarg
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax + 1, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if abseps < abserr:
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
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100-130)
    if abserr == _OFLOW:
        sum_rlist = True
    if not sum_rlist and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                sum_rlist = True
        elif abserr > errsum:
            sum_rlist = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier
    if sum_rlist:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-1):
        # test on divergence
        if area == 0.0:
            # result / area is +-inf or, for result 0, NaN
            diverges = result != 0.0 or errsum > 0.0
        else:
            ratio = result / area
            diverges = 0.1e-1 > ratio or ratio > 0.1e3 or errsum > abs(area)
        if diverges:
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier
