"""Stream v1 of the scan sampler, drawn in numpy a chunk of points at a time.

Point i of a scan drawn with seed s is Generator.binomial(shots, p_i) on a new
Philox(key=s mod 2**64, counter=[0, 0, 0, i]).  Its b-th output block is the
Philox4x64-10 block at counter [b, 0, 0, i] (Salmon et al., SC'11), which uint64
arithmetic computes for many points at once.  numpy's binomial reads that stream
one double per word.  Where min(p, 1 - p) shots <= 30 it searches by inversion
from the first word; elsewhere it runs BTPE (Kachitvichyanukul & Schmeiser,
CACM 31 (1988) 216), two words per iteration, so block b feeds iterations 2b - 1
and 2b.  Both are mirrored from numpy's C code (random_binomial_inversion and
steps 10-60 of random_binomial_btpe) expression by expression, in its order of
evaluation.  exp, log and log1p go through math, which calls the libm the C code
calls; np.log and np.exp have their own SIMD code.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 4096  # points per pass; a pass's arrays peak near 1.5 MB
_BLOCKS = 16  # Philox blocks, 32 BTPE iterations, before a point takes the per-point draw
_DRAWS = 256  # per-point draws per block of Python ints and floats
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # Philox4x64 round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # and key increments
_MUL = [np.array([[m0], [m1]], np.uint64) for m0, m1 in
        ((_M0 & 0xFFFFFFFF, _M1 & 0xFFFFFFFF), (_M0 >> 32, _M1 >> 32), (_M0, _M1))]
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _philox_block(key, index, block):
    """The Philox4x64-10 block at counter [block, 0, 0, index] under key [key, 0]: 4 rows.

    key and index are uint64 arrays.  Words (c0, c2) and (c1, c3) are held as two
    (2, n) arrays, so that one 32-bit schoolbook product serves both multipliers of
    a round.  Round 1 maps the counter to (key, 0, index ^ high, low) with high, low
    the words of M0 * block.
    """
    a_lo, a_hi, a = _MUL
    high, low = divmod(_M0 * block, 2 ** 64)
    x = np.stack([key, index ^ np.uint64(high)])  # (c0, c2)
    y = np.empty_like(x)  # (c1, c3)
    y[0], y[1] = 0, low
    cross, low, mid, high = (np.empty_like(x) for _ in range(4))
    for r in range(1, 10):
        # the high words of a * x; no partial sum passes 2**64
        np.bitwise_and(x, _LOW32, out=cross)
        np.multiply(cross, a_lo, out=low)
        cross *= a_hi
        low >>= _32
        cross += low
        np.right_shift(x, _32, out=mid)
        np.multiply(mid, a_hi, out=high)
        mid *= a_lo
        np.bitwise_and(cross, _LOW32, out=low)
        mid += low
        cross >>= _32
        mid >>= _32
        high += cross
        high += mid
        np.multiply(x, a, out=low)  # the low words
        np.bitwise_xor(high[::-1], y, out=x)
        x[0] ^= key + np.uint64(r * _W0 % 2 ** 64)
        x[1] ^= np.uint64(r * _W1 % 2 ** 64)
        y, low = low[::-1], y
    return x[0], y[0], x[1], y[1]


def _unit(raw):
    """numpy's next_double of a raw Philox word: its top 53 bits times 2**-53."""
    return (raw >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)


def _libm(fn, x):
    """fn of each value: math's functions call the libm that numpy's C code calls."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _log(x):
    """C's log of each value: math.log where positive, -inf at 0, NaN below."""
    out = np.where(x == 0.0, -math.inf, math.nan)
    pos = np.flatnonzero(x > 0.0)
    out[pos] = _libm(math.log, x[pos])
    return out


def _inversion(n, r, u_raw):
    """numpy's random_binomial_inversion(n, r) from a raw first uniform: X, NaN on a restart.

    The search runs over the points still searching, one X at a time.
    """
    q = 1.0 - r
    qn = _libm(math.exp, n * _libm(math.log1p, -r))
    np_ = n * r
    bound = np.floor(np.minimum(n, np_ + 10.0 * np.sqrt(np_ * q + 1.0)))
    u = _unit(u_raw)
    x = np.zeros(len(r))
    px = qn
    i = np.flatnonzero(u > px)
    while i.size:
        x[i] += 1.0
        restart = x[i] > bound[i]  # C draws a new uniform; left to the per-point draw
        x[i[restart]] = math.nan
        i = i[~restart]
        u[i] -= px[i]
        px[i] = ((n - x[i] + 1.0) * r[i] * px[i]) / (x[i] * q[i])
        i = i[u[i] > px[i]]
    return x


def _btpe_setup(n, r):
    """The per-point constants of random_binomial_btpe(n, r), 0 < r <= 1/2."""
    q = 1.0 - r
    fm = n * r + r
    m = np.floor(fm)
    nrq = n * r * q
    p1 = np.floor(2.195 * np.sqrt(nrq) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    return r, q, nrq, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4


def _pmf_ratio(n, r, q, m, y, k):
    """Step 50's F = f(y)/f(m), C's running product laid out as a table.

    Row j - 1 holds the factor of i = min(m, y) + j, rows past k an exact 1.
    Reductions over axis 0 from an initial 1 run row by row: the order of C's loop.
    """
    s = r / q
    a = s * (n + 1.0)
    rows = np.arange(1.0, float(k.max()) + 1.0)[:, None]
    terms = a / (np.minimum(m, y) + rows) - s
    terms[rows > k] = 1.0
    return np.where(m < y, np.multiply.reduce(terms, initial=1.0),
                    np.divide.reduce(terms, initial=1.0))


def _btpe_step(n, consts, u_raw, v_raw):
    """One iteration of steps 10-60 from raw words u, v: y, or NaN where it rejects.

    n is the shot count as a float, exact up to 2**53; so is every integer of
    the C code, held here as a whole-number float.
    """
    r, q, nrq, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4 = consts
    u = _unit(u_raw) * p4
    v = _unit(v_raw)
    y = np.floor(xm - p1 * v + u)  # step 10, the triangle: accepted where u <= p1
    rest = np.flatnonzero(u > p1)
    if not rest.size:
        return y
    r, q, nrq, m, p1, xm, xl, xr, c, laml, lamr, p2, p3, p4 = (a[rest] for a in consts)
    u, v = u[rest], v[rest]
    par = u <= p2  # step 20, the parallelogram
    left = ~par & (u <= p3)  # step 30, the left exponential tail
    right = u > p3  # step 40, the right one
    log_v = np.zeros(len(rest))
    log_v[~par] = _log(v[~par])
    x = xl + (u - p1) / c
    ys = np.where(par, np.floor(x),
                  np.where(left, np.floor(xl + log_v / laml), np.floor(xr - log_v / lamr)))
    vs = np.where(par, v * c + 1.0 - np.abs(m - x + 0.5) / p1,
                  np.where(left, v * (u - p2) * laml, v * (u - p3) * lamr))
    ok = np.where(par, ~(vs > 1.0), (left & (ys >= 0.0) | right & (ys <= n)) & (v != 0.0))
    k = np.abs(ys - m)  # step 50
    far = k > 20.0
    squeeze = ok & far & (k < nrq / 2.0 - 1.0)
    for i in (np.flatnonzero(ok & ~far), np.flatnonzero(ok & far & ~squeeze)):
        if i.size:  # two tables, as k > 20 takes the far tails of a small n r q
            ok[i] = ~(vs[i] > _pmf_ratio(n, r[i], q[i], m[i], ys[i], k[i]))
    i = np.flatnonzero(squeeze)
    if i.size:  # step 52, the squeeze on log f(y)/f(m)
        k_i, nrq_i = k[i], nrq[i]
        rho = (k_i / nrq_i) * ((k_i * (k_i / 3.0 + 0.625) + 0.16666666666666666) / nrq_i + 0.5)
        t = -k_i * k_i / (2.0 * nrq_i)
        big_a = _log(vs[i])
        keep = ~(big_a > t + rho)
        mid = np.flatnonzero(keep & ~(big_a < t - rho))
        if mid.size:  # the Stirling bound
            j = i[mid]
            y_j, m_j = ys[j], m[j]
            x1, f1, z, w = y_j + 1.0, m_j + 1.0, (n - m_j) + 1.0, (n - y_j) + 1.0
            bound = (xm[j] * _log(f1 / x1) + ((n - m_j) + 0.5) * _log(z / w)
                     + (y_j - m_j) * _log(w * r[j] / (x1 * q[j])))
            for g in (f1, z, x1, w):
                g2 = g * g
                bound = bound + ((13680. - (462. - (132. - (99. - 140. / g2) / g2) / g2) / g2)
                                 / g / 166320.)
            keep[mid] = ~(big_a[mid] > bound)
        ok[i] = keep
    y[rest] = np.where(ok, ys, np.nan)
    return y


def _draw(out, p, n, keys, starts, i, block):
    """Draw points i from their Philox block `block` into out; returns those left undecided.

    Points with r n <= 30 take numpy's inversion from lane 0; it is their first
    uniform, so they come here with block 1 only.  The others take two BTPE
    iterations, from lanes 0-1 and 2-3.
    """
    r = np.minimum(p[i], 1.0 - p[i])  # the p numpy's samplers see; NaN stays undecided
    scan = np.searchsorted(starts, i, side="right") - 1
    lanes = _philox_block(keys[scan], (i - starts[scan]).astype(np.uint64), block)
    y = np.full(len(i), math.nan)
    rn = r * n
    j = np.flatnonzero(rn <= 30.0)
    if j.size:
        y[j] = _inversion(n, r[j], lanes[0][j])
    j = np.flatnonzero(rn > 30.0)
    if j.size:
        consts = _btpe_setup(n, r[j])
        y_j = _btpe_step(n, consts, lanes[0][j], lanes[1][j])
        k = np.flatnonzero(np.isnan(y_j))
        if k.size:
            y_j[k] = _btpe_step(n, [a[k] for a in consts], lanes[2][j[k]], lanes[3][j[k]])
        y[j] = y_j
    done = ~np.isnan(y)
    out[i[done]] = np.where(p[i[done]] > 0.5, n - y[done], y[done])
    return i[~done]


def counts(p, shots, seeds, starts):
    """Stream v1 counts at p in [0, 1] for scans laid end to end, scan j from starts[j].

    BTPE points that a block leaves undecided go on to the next block, as the C
    loop does, up to _BLOCKS blocks.  The rest take the per-point draw: all points
    when shots > 2**53, where floats no longer hold the C code's integers; NaN p,
    for which it raises ValueError; inversion restarts; and BTPE points still
    undecided after _BLOCKS blocks.
    """
    keys = np.array([seed % 2 ** 64 for seed in seeds], np.uint64)
    starts = np.asarray(starts)
    n = float(shots)
    out = np.empty(len(p), dtype=np.int64)
    if shots > 2 ** 53:
        rest = np.arange(len(p))
    else:
        # a mask, not a list of per-chunk index arrays: those would stay allocated
        # between the chunks' arrays and keep the heap from shrinking
        undecided = np.zeros(len(p), dtype=bool)
        for start in range(0, len(p), _CHUNK):
            i = np.arange(start, min(start + _CHUNK, len(p)))
            undecided[_draw(out, p, n, keys, starts, i, 1)] = True
        rest = np.flatnonzero(undecided)
        btpe = np.minimum(p[rest], 1.0 - p[rest]) * n > 30.0
        rest, pending = rest[~btpe], rest[btpe]
        for block in range(2, _BLOCKS + 1):
            if not pending.size:
                break
            pending = np.concatenate([_draw(out, p, n, keys, starts, pending[s:s + _CHUNK], block)
                                      for s in range(0, len(pending), _CHUNK)])
        rest = np.concatenate([rest, pending])
    if rest.size:
        # one bit generator, reset before each draw to the fresh state (empty buffer) of
        # Philox(key, counter=[0, 0, 0, i]); plain ints, which the state setter takes
        # fastest, made _DRAWS at a time
        bitgen = np.random.Philox()
        binomial = np.random.Generator(bitgen).binomial
        key, counter = [0, 0], [0, 0, 0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for start in range(0, len(rest), _DRAWS):
            i = rest[start:start + _DRAWS]
            scan = np.searchsorted(starts, i, side="right") - 1
            for k, index, p_i, at in zip(keys[scan].tolist(), (i - starts[scan]).tolist(),
                                         p[i].tolist(), i.tolist()):
                key[0], counter[3] = k, index
                bitgen.state = state
                out[at] = binomial(shots, p_i)
    return out
