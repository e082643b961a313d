"""The benchmark's workloads: inputs from a seed, one item, its checks.

Every workload draws its inputs from a fixed catalog, and the seed picks the
order in which a run walks it.  The catalog is fixed
so that every item has a reference output recorded by ``reference.py``; the
same seed always gives the same inputs.

An item calls only the public ``gapbound`` API, through ``api`` (a namespace
of entry points that the tracer may replace by wrappers).  ``check`` returns
the values compared against the reference and a list of problems; an item
that raises or has a problem counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import gapbound
from gapbound.bounds import THEOREM1
from gapbound.eigensolver import DEFAULT_RESIDUAL_TOL, spectral_scale
from gapbound.fuzz import FAMILIES, FuzzConfig
from gapbound.sweep import SweepConfig, default_h0_grid

# Relative tolerance of every reference comparison: |v - ref| <= RTOL * max(|ref|, 1).
# Loose enough for a different LAPACK eigenvector routine (measured drift
# below 4e-10 on the impurity sweep), tight enough to catch a changed formula.
RTOL = 1e-6
# E0 of the impurity chain against the infinite-chain bound state -sqrt(h0^2 + 4),
# applied where the bound state is well inside the L=500 box.
CLOSED_FORM_RTOL = 1e-12
CLOSED_FORM_MIN_ABS_H0 = 0.2

API_NAMES = (
    "run_sweep", "run_fuzz", "load_model", "assemble", "lowest_two",
    "density", "position_stats", "fit_envelope", "check_nearest_neighbor",
    "theorem1_bound", "theorem2_bound", "verify_envelope", "trapezoid_g",
    "g_expectations", "verify_appendixB",
)


def default_api() -> SimpleNamespace:
    """The public entry points the benchmark calls directly."""
    return SimpleNamespace(**{name: getattr(gapbound, name) for name in API_NAMES})


@dataclass(frozen=True)
class Item:
    key: str  # catalog key of the reference output
    args: tuple


def compare(values: dict, ref: dict | None) -> list[str]:
    """Problems found comparing an item's values against its reference."""
    if ref is None:
        return ["no reference output for this item"]
    problems = []
    for name, want in ref.items():
        got = values.get(name)
        if want is None or got is None:  # NaN is stored as null
            if not (want is None and (got is None or math.isnan(got))):
                problems.append(f"{name}={got!r}, reference {want!r}")
        elif abs(got - want) > RTOL * max(abs(want), 1.0):
            problems.append(f"{name}={got!r}, reference {want!r} (rtol {RTOL:g})")
    return problems


def _finite_or_none(v: float) -> float | None:
    return None if math.isnan(v) else float(v)


class _Catalog:
    """A workload whose items are a fixed catalog walked in a seeded order.

    ``setup`` with any seed returns every catalog item once.
    """

    round_size = 1

    def setup(self, seed: int, workdir: Path) -> list[Item]:
        cat = self.catalog()
        keys = list(cat)
        return [Item(keys[i], cat[keys[i]]) for i in np.random.default_rng(seed).permutation(len(keys))]


class ImpuritySweep(_Catalog):
    """The paper's experiment: L=500, the default 100-point grid, s=1/2, mu=1.

    An item is one defect strength h0.
    """

    name = "impurity-sweep"
    length = 500
    trace_items = 20

    def catalog(self):
        return {str(i): (float(h0),) for i, h0 in enumerate(default_h0_grid())}

    def run(self, api, item: Item):
        config = SweepConfig(L=self.length, h0_grid=np.array(item.args), s=0.5, mu=1.0)
        (row,) = api.run_sweep(config, write=False)
        return row

    def check(self, item: Item, row, ref):
        values = {
            name: _finite_or_none(getattr(row, name))
            for name in ("e0", "e1", "gap", "delta_x", "xi_fit", "xi1", "xi2",
                         "ratio1", "ratio2", "fit_r_squared")
        }
        problems = []
        if row.violations1 or row.violations2:
            problems.append(
                f"envelope violations: theorem1 {row.violations1}, theorem2 {row.violations2}"
            )
        (h0,) = item.args
        if abs(h0) >= CLOSED_FORM_MIN_ABS_H0:
            exact = -math.sqrt(h0 * h0 + 4.0)
            if abs(row.e0 - exact) > CLOSED_FORM_RTOL * abs(exact):
                problems.append(f"E0={row.e0!r} differs from bound state {exact!r}")
        return values, problems + compare(values, ref)


class FuzzMixed(_Catalog):
    """The fuzz suite: 500 one-trial runs per family at the default ranges."""

    name = "fuzz-mixed"
    trace_items = 1000
    trials_per_family = 500

    def catalog(self):
        n = len(FAMILIES) * self.trials_per_family
        return {str(i): (FAMILIES[i % len(FAMILIES)], i // len(FAMILIES)) for i in range(n)}

    def run(self, api, item: Item):
        family, fuzz_seed = item.args
        return api.run_fuzz(FuzzConfig(seed=fuzz_seed, trials=1, family=family))

    def check(self, item: Item, report, ref):
        values = {"skipped": float(report.skipped_degenerate)}
        problems = []
        if report.failures:
            problems.append(f"fuzz status FAIL: {report.first_failure}")
        if report.passed + report.skipped_degenerate != report.config.trials:
            problems.append(
                f"passed {report.passed} + skipped {report.skipped_degenerate} "
                f"!= trials {report.config.trials}"
            )
        return values, problems + compare(values, ref)


@dataclass(frozen=True)
class StripOutput:
    h: object
    res: object
    stats: object
    checks: tuple
    complementary: object
    appendix_b: object


class StripCertify:
    """Disordered N0>1 strips read from model files and certified end to end.

    A round is one strip of each width, so a run always holds the same mix of
    sizes and the median item stays the width-6 strip.  ``setup`` with any
    seed writes every realization once, starting at ``seed % realizations``.
    """

    name = "strip-certify"
    widths = (4, 5, 6, 7, 8)
    length = 100
    realizations = 6
    disorder = 6.0  # on-site energies uniform in [-disorder/2, disorder/2]
    round_size = len(widths)
    trace_items = len(widths)
    s = 0.5
    mu = 1.0
    # trapezoid of the complementary and Appendix-B checks: g = clip(u - 2, 0, 2)
    r_inner = 0.0
    delta_r = 6.0

    def model(self, width: int, realization: int) -> gapbound.ModelSpec:
        base = gapbound.strip_model(self.length, width)
        rng = np.random.default_rng([width, realization])
        onsite = []
        for x in range(1, self.length + 1):
            b = np.array(base.onsite.get(x, np.zeros((width, width))), dtype=complex)
            b += np.diag(rng.uniform(-self.disorder / 2, self.disorder / 2, size=width))
            onsite.append((x, b))
        hops = [(x, xp, b) for (x, xp), b in base.offdiag.items()]
        return gapbound.ModelSpec(
            self.length, width, hops, onsite, label=f"disordered strip w={width} r={realization}"
        )

    def setup(self, seed: int, workdir: Path) -> list[Item]:
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for k in range(self.realizations):
            r = (seed + k) % self.realizations
            for w in self.widths:
                path = workdir / f"strip-w{w}-r{r}.txt"
                gapbound.dump_model(self.model(w, r), path)
                items.append(Item(f"w{w}-r{r}", (str(path),)))
        return items

    def run(self, api, item: Item) -> StripOutput:
        (path,) = item.args
        spec = api.load_model(path)
        h = api.assemble(spec)
        res = api.lowest_two(h)
        prof = api.density(res.psi0, spec)
        stats = api.position_stats(prof)
        env = api.fit_envelope(spec, self.mu)
        b1 = api.theorem1_bound(env, res.gap, self.s, stats.delta_x)
        b2 = api.theorem2_bound(
            api.check_nearest_neighbor(spec).v0, res.gap, self.s, stats.delta_x
        )
        checks = (api.verify_envelope(prof, stats.mean, b1),
                  api.verify_envelope(prof, stats.mean, b2))
        region = (self.r_inner, self.delta_r, stats.mean)
        g = api.trapezoid_g(spec.length, stats.mean, self.r_inner, self.delta_r, THEOREM1)
        rep = api.g_expectations(res.psi0, spec, g, res.gap)
        app = api.verify_appendixB(spec, env, g, res.psi0, region)
        return StripOutput(h, res, stats, checks, rep, app)

    def check(self, item: Item, out: StripOutput, ref):
        res, rep, app = out.res, out.complementary, out.appendix_b
        values = {
            "e0": res.e0, "e1": res.e1, "gap": res.gap,
            "mean": out.stats.mean, "delta_x": out.stats.delta_x,
            "var_g": rep.var_g, "hod_explicit": rep.hod_explicit,
            "bound_direct": app.bound_direct, "bound_piecewise": app.bound_piecewise,
        }
        problems = []
        limit = DEFAULT_RESIDUAL_TOL * max(1.0, spectral_scale(out.h))
        if max(res.residual0, res.residual1) > limit:
            problems.append(f"residuals {res.residual0:.3e}, {res.residual1:.3e} exceed {limit:.3e}")
        for chk in out.checks:
            if not chk.ok:
                problems.append(f"{chk.violations.size} envelope violations")
        if not rep.ok:
            problems.append(f"complementary check failed: slack {rep.slack:.3e}")
        if not app.ok:
            problems.append("Appendix-B coupling bound failed")
        return values, problems + compare(values, ref)


WORKLOADS = {w.name: w for w in (ImpuritySweep(), FuzzMixed(), StripCertify())}
