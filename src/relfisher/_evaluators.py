"""The unit-scale evaluators of the families in systems.py, each in two
forms built from the same terms, the log-normalization of
systems._oscillator_terms or _momentum_terms and the bound polynomial:

    point form  an Evaluator s -> (value, derivative), for compile_state and
                normalization_defect: radial_oscillator, for every Laguerre
                state, with hydrogen_position over it, and hydrogen_momentum
    panel form  the oracle's integrand 4 x^2 (f' - f L)^2, L the
                log-derivative of the state's reference, as a
                quadrature.Panel: oscillator_panel and momentum_panel;
                for hydrogen in u = s^2 (the D = 4 oscillator) and y = n p

A panel loop runs, at each of a GK31 panel's 31 nodes, the t-map, the steps
of its point form in their order, then L, the integrand and the weight
scale / (1-t)^2. So every sample is bit for bit that of the point form put
through quadrature.point_panel. Both loops run their recurrence inline,
with no Python call per node, and in a degree sweep continue it from their
family's column, where each looks a panel up once: oscillator_panel in its
Laguerre column (specfun.laguerre_column), momentum_panel in its Gegenbauer
column (specfun.gegenbauer_column). L is coded in the loops,
apart from the point forms, so the oracle stays an independent route. A
node where the point form cuts value and slope is skipped: its sample,
(0 - 0 L)^2 times the weight, is 0 and adds nothing.

Normalizations are assembled in log space and exponentiated once, and
derivatives are analytic: nothing differentiates numerically.
"""
from __future__ import annotations

import math
import struct
from array import array
from typing import Callable

from .quadrature import _GK31, Panel, sample_error
from .specfun import Column, Kernel

# A point -> (value, derivative).
Evaluator = Callable[[float], tuple[float, float]]

# exp(LN_TINY) is far below every tolerance in use; beyond it the evaluators
# return exact zeros instead of risking underflow-times-overflow products.
LN_TINY = -700.0

_ZERO = (0.0, 0.0)

_NODES, _KRONROD, _GAUSS = zip(*_GK31)
# The Laguerre (degree, prev, cur) and Gegenbauer (degree, before, prev,
# cur) recurrence states of a node no degree has reached, and of a panel.
_FROM_ZERO = (0, 0.0, 1.0)
_GEGENBAUER_FROM_ZERO = (0, 0.0, 0.0, 1.0)
_PANEL_FROM_ZERO = (_GEGENBAUER_FROM_ZERO,) * len(_GK31)
# The prev or cur terms of a panel's nodes as packed doubles: an entry keeps
# 8 bytes a value, and packing and unpacking them costs less than building an
# array from a list.
_TERMS = struct.Struct(f"{len(_GK31)}d")


def radial_oscillator(ln_norm: float, laguerre: Kernel, kappa: float, ln_factor: float = 0.0) -> Evaluator:
    """The D-dimensional radial oscillator exp(ln_norm) s^kappa exp(-s^2/2)
    laguerre(s^2) of systems._oscillator_terms times exp(ln_factor), cut where
    its log-envelope without ln_factor is below LN_TINY."""
    ln_norm += ln_factor
    tiny = LN_TINY + ln_factor

    def radial(s: float) -> tuple[float, float]:
        if not s > 0.0:
            raise ValueError(f"radial argument must be > 0, got {s!r}")
        u = s * s
        ln_env = ln_norm - 0.5 * u
        # d/ds log(s^kappa exp(-s^2/2)); at kappa = 0, -s is kappa / s - s exactly.
        slope = -s
        if kappa != 0.0:
            ln_env += kappa * math.log(s)
            slope = kappa / s - s
        # Written `not >=` so that the nan of s = inf at kappa > 0, inf - inf, is cut too.
        if not ln_env >= tiny:
            # The value is cut; the derivative only where env/s is cut too,
            # as near the origin f ~ A s^kappa keeps its slope at kappa = 1.
            if s >= 1.0 or ln_env - math.log(s) < tiny:
                return _ZERO
            lag, dlag = laguerre(u)
            return 0.0, math.exp(ln_env - math.log(s)) * ((kappa - u) * lag + 2.0 * u * dlag)
        env = math.exp(ln_env)
        lag, dlag = laguerre(u)
        return env * lag, env * (slope * lag + 2.0 * s * dlag)

    return radial


def hydrogen_position(oscillator: Evaluator, n: int) -> Evaluator:
    """Radial hydrogen function at unit charge: at xi = 2r/n = s^2 it is
    sqrt(2)/n^2 times the D = 4 radial oscillator, kappa = 2l, alpha = 2l + 1."""
    root = math.sqrt(2.0 / n)
    factor = math.sqrt(2.0) / (n * n)
    # ds/dr = 1 / (n s)
    slope_factor = factor / n

    def radial(r: float) -> tuple[float, float]:
        if not r > 0.0:
            raise ValueError(f"radial argument must be > 0, got {r!r}")
        # sqrt(r) first, so that s > 0 even where 2r/n underflows.
        s = root * math.sqrt(r)
        value, derivative = oscillator(s)
        return factor * value, slope_factor * derivative / s

    return radial


def hydrogen_momentum(
    ln_norm: float, gegenbauer: Kernel, overflow: Callable[[float], Exception], n: int, l: int
) -> Evaluator:
    """The momentum-space function exp(ln_norm) t^l (1+t^2)^-(l+2)
    gegenbauer(q) of systems._momentum_terms, at t = n p, with v = 1/(1+t^2)
    and q = (t^2-1) v; past t ~ 1.3e154, t*t is inf, v = 0 and the cutoff
    returns zeros. Raises overflow(p) at the first point whose value or
    derivative is not finite: no bound on the Gegenbauer factor tells the
    states where it overflows from the rest."""
    decay_power = l + 2.0
    two_decay_power = 2.0 * (l + 2.0)

    def radial(p: float) -> tuple[float, float]:
        if not p > 0.0:
            raise ValueError(f"radial argument must be > 0, got {p!r}")
        t = n * p
        v = 1.0 / (1.0 + t * t)
        q = (t * t - 1.0) * v
        dq_dt = 4.0 * t * v * v
        # d/dt log(1+t^2)^(l+2), rounded as the reference log-derivative rounds it.
        rational_decay = two_decay_power * t * v
        ln_env = ln_norm - decay_power * math.log1p(t * t)
        if l:
            ln_env += l * math.log(t)
        # `not >=` also cuts the nan of p = inf at l > 0, inf - inf.
        if not ln_env >= LN_TINY:
            # As in radial_oscillator, f ~ A t^l keeps its slope at l = 1.
            if t >= 1.0 or ln_env - math.log(t) < LN_TINY:
                return _ZERO
            geg, dgeg = gegenbauer(q)
            over = math.exp(ln_env - math.log(t))
            value, derivative = 0.0, n * over * ((l - t * rational_decay) * geg + t * dgeg * dq_dt)
        else:
            env = math.exp(ln_env)
            geg, dgeg = gegenbauer(q)
            value, derivative = env * geg, n * (env * ((l / t - rational_decay) * geg + dgeg * dq_dt))
        if math.isfinite(value) and math.isfinite(derivative):
            return value, derivative
        raise overflow(p)

    return radial


def oscillator_panel(
    ln_norm: float, column: Column, kappa: float, reference: float, radial: bool, squared: bool, ln_factor: float = 0.0
) -> Panel:
    """The panel of radial_oscillator(ln_norm, L_degree, kappa, ln_factor),
    column = (degree, steps, table) from specfun.laguerre_column, with L =
    reference / s - s, the log-derivative of s^reference exp(-s^2/2): at
    x = s, with the integrand's x^2 only if radial, or if squared at x = u,
    where the D = 4 integrand 4 s^3 (f' - f L)^2 ds is 2u (f' - f L)^2 du.

    Without a table each panel runs from degree 0 at every node (fresh).
    With one, a panel is looked up once by its key (c, h, scale, kappa,
    reference, radial, squared), the inputs of its entry: the rows u = s^2,
    s, kappa log s, the slope, L, the weight and (1-t)^2 as arrays, and each
    node's recurrence state of alpha + 1, its degree and the packed terms
    L_{degree-1} and L_degree. A live node continues its state, or restarts
    from degree 0 when the state's degree is above degree; a node the
    envelope cuts keeps its state. t and log s are taken again only where
    an error message or the near-origin branch needs them; every value is
    rounded as fresh rounds it. The panel is stored back as one new tuple,
    so a thread can lose another's store but never see half of one.
    """
    exp, log, sqrt, inf = math.exp, math.log, math.sqrt, math.inf
    ln_norm += ln_factor
    tiny = LN_TINY + ln_factor
    degree, steps, table = column
    last = degree - 1
    run = steps[:degree]
    # The step a degree sweep takes at nearly every node.
    a_last, c_last, b_last = steps[last] if degree else (0.0, 0.0, 0.0)

    # fresh is a loop of its own, not continued's loop over rows computed
    # first: that made panels without a table, most of the default validate
    # sweep's, 15 to 25% slower.
    def fresh(c: float, h: float, scale: float, key: tuple | None = None) -> tuple[float, float]:
        """The panel from degree 0 at every node; with a key, it is stored
        in table under it."""
        keep = key is not None
        if keep:
            rows, states = [], []
        kron = 0.0
        gauss = 0.0
        for node, wk, wg in _GK31:
            t = c + h * node
            one_minus = 1.0 - t
            x = scale * t / one_minus
            s = sqrt(x) if squared else x
            u = s * s
            if kappa != 0.0:
                kappa_log_s = kappa * log(s)
                ln_env = ln_norm - 0.5 * u + kappa_log_s
                slope = kappa / s - s
            else:
                kappa_log_s = 0.0
                ln_env = ln_norm - 0.5 * u
                slope = -s
            ref = reference / s - s
            weight = 2.0 * x if squared else (4.0 * x * x if radial else 4.0)
            square = one_minus * one_minus
            if keep:
                rows += u, s, kappa_log_s, slope, ref, weight, square
            if ln_env >= tiny:
                env = exp(ln_env)
            elif s >= 1.0 or ln_env - log(s) < tiny:
                if keep:
                    states.append(_FROM_ZERO)
                continue
            else:
                env = None
            prev, cur = 0.0, 1.0
            for a_k, c_k, b_k in run:
                prev, cur = cur, (a_k - c_k * u) * cur - b_k * prev
            if keep:
                states.append((degree, prev, cur))
            lag, dlag = cur - prev, -prev
            if env is None:
                value, derivative = 0.0, exp(ln_env - log(s)) * ((kappa - u) * lag + 2.0 * u * dlag)
            else:
                value, derivative = env * lag, env * (slope * lag + 2.0 * s * dlag)
            difference = derivative - value * ref
            sample = weight * difference * difference
            weighted = sample * scale / square
            # weighted is >= 0 or nan: this is not isfinite(weighted).
            if not weighted < inf:
                raise sample_error(sample, x, t, weighted)
            kron += wk * weighted
            gauss += wg * weighted
        if keep:
            degrees, prevs, curs = zip(*states)
            table[key] = (tuple(array("d", rows[i::7]) for i in range(7)), degrees, _TERMS.pack(*prevs), _TERMS.pack(*curs))
        return kron, gauss

    def continued(c: float, h: float, scale: float) -> tuple[float, float]:
        """fresh's loop over the rows and states of the panel's entry, or
        fresh, storing it, for a panel the table does not hold."""
        key = (c, h, scale, kappa, reference, radial, squared)
        entry = table.get(key)
        if entry is None:
            return fresh(c, h, scale, key)
        nodes, degrees, prevs, curs = entry
        prevs, curs = _TERMS.unpack(prevs), _TERMS.unpack(curs)
        to_degrees, to_prevs, to_curs = [], [], []
        kron = 0.0
        gauss = 0.0
        for node, wk, wg, u, s, kappa_log_s, slope, ref, weight, square, k, prev, cur in zip(
            _NODES, _KRONROD, _GAUSS, *nodes, degrees, prevs, curs
        ):
            # ln_norm - u/2 + kappa log s; at kappa = 0 the + 0.0 leaves it as it is.
            ln_env = ln_norm - 0.5 * u + kappa_log_s
            if ln_env >= tiny:
                env = exp(ln_env)
            elif s >= 1.0 or ln_env - log(s) < tiny:
                to_degrees.append(k)
                to_prevs.append(prev)
                to_curs.append(cur)
                continue
            else:
                env = None
            if k == last:
                prev, cur = cur, (a_last - c_last * u) * cur - b_last * prev
            elif k != degree:
                if k > degree:
                    k, prev, cur = 0, 0.0, 1.0
                for a_k, c_k, b_k in (steps[k:degree] if k else run):
                    prev, cur = cur, (a_k - c_k * u) * cur - b_k * prev
            to_degrees.append(degree)
            to_prevs.append(prev)
            to_curs.append(cur)
            lag, dlag = cur - prev, -prev
            if env is None:
                value, derivative = 0.0, exp(ln_env - log(s)) * ((kappa - u) * lag + 2.0 * u * dlag)
            else:
                value, derivative = env * lag, env * (slope * lag + 2.0 * s * dlag)
            difference = derivative - value * ref
            sample = weight * difference * difference
            weighted = sample * scale / square
            if not weighted < inf:  # as in fresh
                t = c + h * node
                raise sample_error(sample, scale * t / (1.0 - t), t, weighted)
            kron += wk * weighted
            gauss += wg * weighted
        table[key] = (nodes, tuple(to_degrees), _TERMS.pack(*to_prevs), _TERMS.pack(*to_curs))
        return kron, gauss

    return fresh if table is None else continued


def momentum_panel(ln_norm: float, column: Column, overflow: Callable[[float], Exception], n: int, l: int) -> Panel:
    """The panel of hydrogen_momentum(ln_norm, C_degree^(l+1), overflow, n,
    l) in y = n p, column = (degree, steps, table) from gegenbauer_column:
    4 p^2 (f' - f L)^2 dp is (4/n) y^2 (F' - F L_y)^2 dy, F(y) = f(y/n) and
    L_y = l/y - 2(l+2) y / (1+y^2), so no node depends on n. Raises
    overflow(p) where hydrogen_momentum does. A table holds under (c, h,
    scale) each node's state (degree, before, prev, cur), continued and
    stored back as in oscillator_panel."""
    exp, log, log1p, isfinite = math.exp, math.log, math.log1p, math.isfinite
    degree, steps, table = column
    run = steps[:degree]
    alpha = l + 1.0
    ratio, two_alpha = alpha / (degree + alpha), 2.0 * alpha
    decay_power = l + 2.0
    two_decay_power = 2.0 * (l + 2.0)
    four_over_n = 4.0 / n

    def panel(c: float, h: float, scale: float) -> tuple[float, float]:
        states = _PANEL_FROM_ZERO if table is None else table.get((c, h, scale), _PANEL_FROM_ZERO)
        reached = []
        kron = 0.0
        gauss = 0.0
        for (node, wk, wg), state in zip(_GK31, states):
            t = c + h * node
            one_minus = 1.0 - t
            y = scale * t / one_minus
            v = 1.0 / (1.0 + y * y)
            q = (y * y - 1.0) * v
            dq_dy = 4.0 * y * v * v
            rational_decay = two_decay_power * y * v
            ln_env = ln_norm - decay_power * log1p(y * y)
            if l:
                ln_env += l * log(y)
            if ln_env >= LN_TINY:
                env = exp(ln_env)
            elif y >= 1.0 or ln_env - log(y) < LN_TINY:
                reached.append(state)
                continue
            else:
                env = None
            k, before, prev, cur = state if state[0] <= degree else _GEGENBAUER_FROM_ZERO
            for a_k, b_k in steps[k:degree] if k else run:
                before, prev, cur = prev, cur, a_k * q * cur - b_k * prev
            reached.append((degree, before, prev, cur))
            geg, dgeg = ratio * (cur - before), two_alpha * prev
            if env is None:
                value, derivative = 0.0, exp(ln_env - log(y)) * ((l - y * rational_decay) * geg + y * dgeg * dq_dy)
            else:
                value, derivative = env * geg, env * ((l / y - rational_decay) * geg + dgeg * dq_dy)
            if not (isfinite(value) and isfinite(derivative)):
                raise overflow(y / n)
            difference = derivative - value * (l / y - 2.0 * (l + 2.0) * y * (1.0 / (1.0 + y * y)))
            sample = four_over_n * y * y * difference * difference
            weighted = sample * scale / (one_minus * one_minus)
            if not isfinite(weighted):
                raise sample_error(sample, y / n, t, weighted)
            kron += wk * weighted
            gauss += wg * weighted
        if table is not None:
            table[c, h, scale] = tuple(reached)
        return kron, gauss

    return panel
