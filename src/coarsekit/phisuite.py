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

from .cone import RhoFunction, _phi_inverse, phi
from .errors import PreconditionError
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


def _bisect_inverse(rho: RhoFunction, t: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The r in [0, 200] with phi_t(r) = target, by 70 bisection steps."""
    lo = np.zeros_like(target)
    hi = np.full_like(target, 200.0)
    for _ in range(70):
        mid = (lo + hi) / 2.0
        below = phi(rho, t, mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2.0


def run_phi_suite(
    rhos: list[RhoFunction] | None = None,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-6,
) -> Verdict:
    if samples < 1:  # with nothing sampled, every property would pass
        raise PreconditionError("the phi suite needs at least one sample")
    rhos = rhos if rhos is not None else standard_rho_family()
    items: list[CheckItem] = []
    for rho in rhos:
        rng = np.random.default_rng(seed)
        t, t2, delta = rng.uniform(0.0, 10.0, (3, samples))
        r, r2 = rng.uniform(0.0, 100.0, (2, samples))
        lam = rng.uniform(0.0, 1.0, samples)
        big_m = rng.uniform(1.0, 10.0, samples)
        name = rho.literal()

        t_lo = np.minimum(t, t2)
        t_hi = np.maximum(t, t2)
        r_lo = np.minimum(r, r2)
        r_hi = np.maximum(r, r2)
        r_up = r_lo + STRICT_GAP + (r_hi - r_lo)
        mix = lam * r + (1.0 - lam) * r2

        # phi is elementwise: one evaluation per height vector serves all
        phi_r, phi_lo, phi_up, phi_hi, phi_r2, phi_mix, phi_sum, phi_mr = phi(
            rho, t, np.stack([r, r_lo, r_up, r_hi, r2, mix, r + r2, big_m * r]))
        phi_t_lo, phi_t_hi, phi_shift = phi(rho, np.stack([t_lo, t_hi, t + delta]), r)

        # 1: larger heights never increase the distortion
        margin = phi_t_lo + tol - phi_t_hi
        items.append(_margin_item(f"{name}.monotone-in-t", margin, {"t": t_lo, "t2": t_hi, "r": r}))

        # 2: strictly increasing in r, resolvable at input gaps >= 1e-3
        items.append(_margin_item(f"{name}.strictly-increasing", phi_up - phi_lo,
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
        lip = np.abs(phi_hi - phi_lo)
        allowed = (r_hi - r_lo) / np.maximum(rho(t), 1.0) + tol
        items.append(_margin_item(f"{name}.lipschitz", allowed - lip, {"t": t, "r": r_lo, "r2": r_hi}))

        # 5: decay in t for proper rho, at the doubling heights 1, 2, 4, ...
        if rho.proper:
            heights = 2.0 ** np.arange(int(np.log2(DECAY_T_LIMIT)) + 1)
            found = (phi(rho, heights[:, None], r) <= DECAY_TARGET).any(axis=0)
            ok = bool(found.all())
            items.append(CheckItem(f"{name}.decay-in-t", ok,
                                   "" if ok else f"{int((~found).sum())} samples never reached {DECAY_TARGET}"))
        else:
            items.append(CheckItem(f"{name}.decay-in-t", True, "skipped: rho not proper"))

        # 6: the closed-form inverse recovers r; where it does not, the
        # bisection gives the item's verdict and worst sample
        for inverse in (_phi_inverse, _bisect_inverse):
            rec = inverse(rho, t, phi_r)
            item = _margin_item(f"{name}.bijection", INVERSE_TOL - np.abs(rec - r), {"t": t, "r": r})
            if item.passed:
                break
        items.append(item)

        # 7: concavity
        margin = phi_mix - (lam * phi_r + (1.0 - lam) * phi_r2) + tol
        items.append(_margin_item(f"{name}.concave", margin, {"t": t, "r": r, "r2": r2, "lam": lam}))

        # 8: subadditive, and phi(M r) <= M phi(r)
        sub = phi_r + phi_r2 + tol - phi_sum
        scal = big_m * phi_r + tol - phi_mr
        items.append(_margin_item(f"{name}.subadditive", np.minimum(sub, scal),
                                  {"t": t, "r": r, "r2": r2, "M": big_m}))

        # 9: phi_t <= phi_{t+delta} + 2 delta
        margin = phi_shift + 2.0 * delta + tol - phi_r
        items.append(_margin_item(f"{name}.shift-bound", margin, {"t": t, "delta": delta, "r": r}))
    return verdict(items)
