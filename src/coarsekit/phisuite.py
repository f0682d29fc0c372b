"""Randomized finite checks of the nine height-distortion properties, over
a fixed family of parameter functions.

Sampling ranges: t, t', delta in [0, 10]; r, r' in [0, 100]; lambda in
[0, 1]; M in [1, 10].  Tolerance 1e-6 unless a property is exact by
construction.  The limit statements are finitized: growth is tested along
r = 4^k for k <= 40 against a fixed bound, and decay (proper rho only) by
doubling t up to 1e6.
"""

from __future__ import annotations

import numpy as np

from .cone import RhoFunction, phi
from .report import CheckItem, Verdict, verdict

GROWTH_BOUND = 50.0
GROWTH_EXPONENTS = 41  # r = 4^k, k = 0..40
DECAY_TARGET = 1e-3
DECAY_T_LIMIT = 1e6
INVERSE_TOL = 1e-4
STRICT_GAP = 1e-3


def standard_rho_family() -> list[RhoFunction]:
    """The seven parameter functions every suite run covers."""
    table = tuple((0.5 * k, 0.1 * k * k) for k in range(50))
    return [
        RhoFunction.constant(0.0),
        RhoFunction.constant(5.0),
        RhoFunction.affine(1.0, 0.0),
        RhoFunction.affine(3.0, 2.0),
        RhoFunction.exponential(),
        RhoFunction.step(((0.0, 0.5), (2.0, 3.0), (5.0, 40.0), (9.0, 200.0))),
        RhoFunction.table(table),
    ]


def _margin_item(path: str, margin: np.ndarray, fields: dict, strict: bool = False) -> CheckItem:
    """A property that holds where every margin is >= 0 (> 0 when
    ``strict``); a failure names the sample of least margin."""
    if ((margin > 0) if strict else (margin >= 0)).all():
        return CheckItem(path, True)
    k = int(np.argmin(margin))
    parts = [f"{name}={np.asarray(val).ravel()[k]:.6g}" for name, val in fields.items()]
    return CheckItem(path, False,
                     "worst sample: " + ", ".join(parts) + f", margin={margin.ravel()[k]:.3g}")


def run_phi_suite(
    rhos: list[RhoFunction] | None = None,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-6,
) -> Verdict:
    rhos = rhos if rhos is not None else standard_rho_family()
    items: list[CheckItem] = []
    for rho in rhos:
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 10.0, samples)
        t2 = rng.uniform(0.0, 10.0, samples)
        delta = rng.uniform(0.0, 10.0, samples)
        r = rng.uniform(0.0, 100.0, samples)
        r2 = rng.uniform(0.0, 100.0, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        big_m = rng.uniform(1.0, 10.0, samples)
        name = rho.literal()

        t_lo = np.minimum(t, t2)
        t_hi = np.maximum(t, t2)
        r_lo = np.minimum(r, r2)
        r_hi = np.maximum(r, r2)

        # 1: larger heights never increase the distortion
        margin = phi(rho, t_lo, r) + tol - phi(rho, t_hi, r)
        items.append(_margin_item(f"{name}.monotone-in-t", margin, {"t": t_lo, "t2": t_hi, "r": r}))

        # 2: strictly increasing in r, resolvable at input gaps >= 1e-3
        r_up = r_lo + STRICT_GAP + (r_hi - r_lo)
        lo_vals = phi(rho, t, r_lo)
        up_vals = phi(rho, t, r_up)
        items.append(_margin_item(f"{name}.strictly-increasing", up_vals - lo_vals,
                                  {"t": t, "r": r_lo, "r2": r_up}, strict=True))

        # 3: unbounded growth along r = 4^k, monotone in k
        radii = 4.0 ** np.arange(GROWTH_EXPONENTS)
        grid = phi(rho, t[:, None], radii[None, :])
        steps = np.diff(grid, axis=1)
        mono = bool((steps >= -1e-9).all())
        grown = bool((grid.max(axis=1) > GROWTH_BOUND).all())
        ok = mono and grown
        items.append(CheckItem(f"{name}.unbounded-growth", ok,
                               "" if ok else f"monotone={mono}, exceeded {GROWTH_BOUND}={grown}"))

        # 4: Lipschitz with constant 1 / max(rho(t), 1)
        lip = np.abs(phi(rho, t, r_hi) - phi(rho, t, r_lo))
        allowed = (r_hi - r_lo) / np.maximum(rho(t), 1.0) + tol
        items.append(_margin_item(f"{name}.lipschitz", allowed - lip, {"t": t, "r": r_lo, "r2": r_hi}))

        # 5: decay in t for proper rho, found by doubling
        if rho.proper:
            found = np.zeros(samples, dtype=bool)
            height = 1.0
            while height <= DECAY_T_LIMIT and not found.all():
                vals = phi(rho, np.full(samples, height), r)
                found |= vals <= DECAY_TARGET
                height *= 2.0
            ok = bool(found.all())
            items.append(CheckItem(f"{name}.decay-in-t", ok,
                                   "" if ok else f"{int((~found).sum())} samples never reached {DECAY_TARGET}"))
        else:
            items.append(CheckItem(f"{name}.decay-in-t", True, "skipped: rho not proper"))

        # 6: numeric inverse by bisection recovers r
        target = phi(rho, t, r)
        lo = np.zeros(samples)
        hi = np.full(samples, 200.0)
        for _ in range(70):
            mid = (lo + hi) / 2.0
            below = phi(rho, t, mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        rec = (lo + hi) / 2.0
        items.append(_margin_item(f"{name}.bijection", INVERSE_TOL - np.abs(rec - r), {"t": t, "r": r}))

        # 7: concavity
        mix = lam * r + (1.0 - lam) * r2
        margin = phi(rho, t, mix) - (lam * phi(rho, t, r) + (1.0 - lam) * phi(rho, t, r2)) + tol
        items.append(_margin_item(f"{name}.concave", margin, {"t": t, "r": r, "r2": r2, "lam": lam}))

        # 8: subadditive, and phi(M r) <= M phi(r)
        sub = phi(rho, t, r) + phi(rho, t, r2) + tol - phi(rho, t, r + r2)
        scal = big_m * phi(rho, t, r) + tol - phi(rho, t, big_m * r)
        items.append(_margin_item(f"{name}.subadditive", np.minimum(sub, scal),
                                  {"t": t, "r": r, "r2": r2, "M": big_m}))

        # 9: phi_t <= phi_{t+delta} + 2 delta
        margin = phi(rho, t + delta, r) + 2.0 * delta + tol - phi(rho, t, r)
        items.append(_margin_item(f"{name}.shift-bound", margin, {"t": t, "delta": delta, "r": r}))
    return verdict(items)
