"""The benchmark's workloads: seeded inputs, one timed pass, and the
correctness gate for a pass.

The library receives only families and matrices; the seed stays here.
Every workload calls the package through attributes of the `spindles`
module looked up at call time, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import spindles
import spindles.cli  # noqa: F401  (loaded so the tracer can patch its bindings)

CATALOG_CAP = 6
VERIFY_CAP = 6

# Eight N=40 spaces, dim g from 780 to 1599: large enough that the d x d
# linear algebra and the (d, N, N) basis dominate the Python-level grid.
LARGE_FAMILIES = (
    ("AI", 19, 21),
    ("AIII", 20),
    ("BDI_split", 20),
    ("CII", 10),
    ("DIII", 10),
    ("GRP_c", 20),
    ("GRP_d", 20),
    ("GRP_bd", 41),
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digest(row: dict) -> str:
    return _digest(json.dumps(row, sort_keys=True))


def checks_digest(results) -> str:
    """Digest of the (check name, ok) pairs; the float detail text is left out."""
    return _digest("\n".join(f"{r.name}\t{bool(r.ok)}" for r in results))


@dataclass
class PassResult:
    wall_s: float
    item_s: list  # latency of each space, seconds, in the same order every pass
    attempted: int = 0
    failed: int = 0
    checks: int = 0  # checks the library evaluated and returned
    errors: list = field(default_factory=list)


class SpaceSweep:
    """One pass analyses each (family, xi) the way `spindles table` does:
    build_space, then spindle_number, then to_json_dict."""

    def __init__(self, items: list):
        self.items = items

    def run_pass(self, tracer=None) -> tuple:
        clock = time.perf_counter
        outcomes = []
        start = clock()
        for family, xi in self.items:
            if tracer is not None:
                tracer.item = str(family)
            t0 = clock()
            try:
                space = spindles.build_space(family)
                row = spindles.spindle_number(space, xi).to_json_dict()
            except Exception as exc:  # a failing item is counted, not fatal
                row = exc
            outcomes.append((family, row, clock() - t0))
        wall = clock() - start
        return wall, outcomes

    def check(self, run: tuple, expected: dict) -> PassResult:
        wall, outcomes = run
        result = PassResult(wall, [t for _, _, t in outcomes], attempted=len(outcomes))
        for family, row, _ in outcomes:
            problems = self._problems(family, row, expected)
            if isinstance(row, dict):
                result.checks += sum(v is not None for v in row["checks"].values())
            if problems:
                result.failed += 1
                result.errors.append(f"{family}: {'; '.join(problems)}")
        return result

    @staticmethod
    def _problems(family, row, expected: dict) -> list:
        if isinstance(row, Exception):
            return ["raised " + "".join(traceback.format_exception(row)).rstrip()]
        problems = []
        table = spindles.closed_form_lambda(family)
        if row["lambda"] != table:
            problems.append(f"lambda {row['lambda']} != closed form {table}")
        if row["method_exact"] != row["method_numeric"]:
            problems.append(
                f"method_exact {row['method_exact']} != method_numeric {row['method_numeric']}"
            )
        failed_checks = sorted(k for k, v in row["checks"].items() if v is not None and not v)
        if failed_checks:
            problems.append(f"checks failed: {', '.join(failed_checks)}")
        if row_digest(row) != expected.get(str(family)):
            problems.append("row digest differs from bench/expected.json")
        return problems


def catalog_items(seed: int) -> list:
    """Every family with parameters <= 6 and its canonical element, in a
    seeded order."""
    families = list(spindles.sweep_families(CATALOG_CAP))
    random.Random(seed).shuffle(families)
    return [(family, None) for family in families]


def large_items(seed: int | None) -> list:
    """The N=40 spaces, each with xi = Ad(k) of the canonical element for a
    seeded random k = exp(X), X in k. Every report field is invariant under
    K-conjugation, so the expected rows are those of the canonical element.
    seed=None gives the canonical elements themselves."""
    rng = np.random.default_rng(None if seed is None else seed % (1 << 64))
    items = []
    for params in LARGE_FAMILIES:
        family = spindles.SpaceFamily.make(*params)
        if seed is None:
            items.append((family, None))
            continue
        space = spindles.build_space(family)
        coords = rng.standard_normal(space.dim_g)
        x = space.from_coords((coords + space.sigma_coords @ coords) / 2.0)
        del space
        k = spindles.exp_generic(x)
        items.append((family, k @ spindles.canonical_element(family) @ k.conj().T))
    return items


class Verify:
    """One pass is run_verification(cap=6). Its inputs are fixed by the
    library, so the seed changes nothing."""

    def __init__(self):
        self.spaces = sum(1 for _ in spindles.sweep_families(VERIFY_CAP))

    def run_pass(self, tracer=None) -> tuple:
        if tracer is not None:
            tracer.item = f"verify(cap={VERIFY_CAP})"
        start = time.perf_counter()
        try:
            results, _ = spindles.run_verification(cap=VERIFY_CAP)
        except Exception as exc:  # a failing pass is counted, not fatal
            results = exc
        return time.perf_counter() - start, results

    def check(self, run: tuple, expected: dict) -> PassResult:
        wall, results = run
        # The battery is one call, so each space it sweeps is given an equal
        # share of the pass time.
        result = PassResult(wall, [wall / self.spaces] * self.spaces)
        want = expected["checks"]
        if isinstance(results, Exception):
            result.attempted = result.failed = want
            result.errors.append(
                "run_verification raised " + "".join(traceback.format_exception(results)).rstrip()
            )
            return result
        result.attempted = result.checks = len(results)
        bad = [r for r in results if not r.ok]
        result.failed = len(bad)
        result.errors.extend(str(r) for r in bad)
        if len(results) != want or checks_digest(results) != expected["digest"]:
            result.failed = len(results)
            result.errors.append(
                f"{len(results)} checks, digest {checks_digest(results)}; "
                f"bench/expected.json has {want}, {expected['digest']}"
            )
        return result


def make(name: str, seed: int):
    if name == "catalog":
        return SpaceSweep(catalog_items(seed))
    if name == "large_conj":
        return SpaceSweep(large_items(seed))
    if name == "verify":
        return Verify()
    raise ValueError(f"unknown workload {name!r}")

