"""Workload definitions shared by the benchmark driver and its worker.

A family workload is `tmb verify` on a committed preset; it ignores the
seed.  The curve workload evaluates lambda(s) on a log grid whose interior
points the seed shifts (see curve_grid).
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Family:
    config: str  # relative to the checkout root

    def schedule(self, root: Path) -> tuple:
        """(k, alpha, [(lambda_n, beta_n), ...]) read from the preset itself,
        so the member count and targets do not come from the program."""
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read_string((root / self.config).read_text())
        k = cp.getint("problem", "k", fallback=0)
        alpha = cp.getfloat("problem", "alpha", fallback=1.0)
        beta = cp.getfloat("problem", "beta", fallback=1.0)
        fam = cp["family"]
        if "lambda_schedule" in fam:
            lams = [float(x) for x in fam["lambda_schedule"].split()]
        else:
            start, ratio, count = (float(x) for x in fam["lambda_geometric"].split())
            lams = [start * ratio ** n for n in range(int(count))]
        if "beta_schedule" in fam:
            betas = [float(x) for x in fam["beta_schedule"].split()]
        else:
            betas = [float(fam.get("beta_constant", beta))] * len(lams)
        return k, alpha, list(zip(lams, betas))


@dataclass(frozen=True)
class Curve:
    k: int
    alpha: float
    beta: float
    s_lo: float
    s_hi: float
    cells: int


WORKLOADS = {
    "family_k0": Family("configs/reference_family.cfg"),
    "family_k1_weak": Family("configs/weak_limit_preset.cfg"),
    "curve_k1": Curve(k=1, alpha=1.0, beta=1.3, s_lo=0.1, s_hi=24.0, cells=8),
}


def curve_grid(curve: Curve, seed: int) -> list:
    """Amplitudes for one curve run.

    The two ends of [s_lo, s_hi] are always present.  Each of the `cells`
    equal cells in ln s holds two points, at the seed-drawn fraction phi of
    the cell and at 1 - phi.  The mirrored pair keeps the total work nearly
    independent of phi, since the cost of one point grows steadily with s.
    """
    phi = random.Random(seed).random()
    a, b = math.log(curve.s_lo), math.log(curve.s_hi)
    width = (b - a) / curve.cells
    interior = sorted(math.exp(a + (i + f) * width)
                      for i in range(curve.cells) for f in (phi, 1.0 - phi))
    return [curve.s_lo] + interior + [curve.s_hi]
