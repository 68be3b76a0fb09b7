"""Seeded inputs shared by every workload.

Every problem is a manufactured one: the benchmark draws a polynomial
exact solution (degree 10, coefficient of t^k of size 1/k! with a random
sign, so every forcing costs the same to evaluate) plus, in every third problem of the grid, one fractional power t^p
with p = max(n, ceil(alpha)) + 1.5 or + 2.5, so that y^(n) and D^alpha y
stay smooth enough to converge; initial values follow from the exact
solution.  The solver only ever sees the generated problem.

Each workload is a parameter study: the operator (alpha, n, a_0..a_n,
kernel) of every problem comes from a fixed grid, and the seed draws the
exact solutions, hence the forcings, and the order in which (problem, N)
cases run.  Every seed therefore costs the same work and the medians stay
comparable between seeds.
Everything here uses `random.Random`, whose stream is fixed across Python
versions, so one seed gives byte-identical problems, configs and N order.
"""

import json
import math
import random
from dataclasses import asdict, dataclass

ALPHAS = (0.25, 0.5, 1.5, 1.9, 2.7)
DEGREE = 10
FRACTIONAL_OFFSETS = (None, 1.5, 2.5)  # by grid position: none, +1.5, +2.5
DERIVATIVE_ORDERS = (1, 2, 3)
# a_0..a_n per derivative order n (n = 3 is the operator of catalog 5.4).
OPERATORS = {1: (1.0, 2.0), 2: (1.0, -0.5, 2.0), 3: (1.0, 0.0, -1.0, 3.0)}
# The catalog's numpy-vectorised kernels, by the example that carries them:
# t*s (5.1), t^2*s^2 (5.2), t^2*sqrt(s) with kernel_s_power 2 (5.3),
# exp(t - s) (5.4).
CATALOG_KERNELS = ("5.1", "5.2", "5.3", "5.4")
# exprlang kernel templates for configs: (family, source template, kernel_s_power).
CONFIG_KERNELS = (
    ("poly", "{0}*t*s + {1}*t^2*s^2", 1),
    ("exp", "{0}*exp({1}*(t - s))", 1),
    ("sin", "{0}*sin(t*s) + {1}*t", 1),
    ("sqrt", "{0}*t^2*sqrt(s) + {1}*s", 2),
)
CATALOG_IDS = ("5.1", "5.2", "5.3", "5.4")

WARM_NS = (16, 32, 48)
# Two solves at N = 16 for each at N = 32: with an even split the median
# would fall in the gap between the two clusters of solve times.
CONFIG_NS = (16, 16, 32)
SWEEP_NS = tuple(range(4, 33, 4))
CLI_N = 16
CLI_SWEEP = "4:16:4"


@dataclass(frozen=True)
class Case:
    """One manufactured problem: exact solution as (coefficient, exponent) terms."""

    name: str
    n: int
    a: tuple[float, ...]
    alpha: float
    kernel: str
    kernel_s_power: int
    exact: tuple[tuple[float, float], ...]
    ics: tuple[float, ...]


def _magnitude(rng: random.Random) -> float:
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0), 6)


def exact_terms(rng: random.Random, n: int, alpha: float,
                offset: float | None) -> tuple[tuple[float, float], ...]:
    terms = [(round(_magnitude(rng) / math.factorial(k), 9), float(k))
             for k in range(DEGREE + 1)]
    if offset is not None:
        p = max(n, math.ceil(alpha)) + offset
        terms.append((round(_magnitude(rng) / math.gamma(p + 1.0), 9), p))
    return tuple(terms)


def initial_values(terms, n: int) -> tuple[float, ...]:
    """y^(i)(0) for i < n: only the integer term t^i contributes (every
    fractional exponent exceeds n - 1)."""
    return tuple(sum(q * math.factorial(i) for q, p in terms if p == i) for i in range(n))


def draw_case(rng: random.Random, index: int, prefix: str, n: int, alpha: float,
              kernel: str, kernel_s_power: int) -> Case:
    """Problem number `index` of a grid; its position fixes the fractional term."""
    offset = FRACTIONAL_OFFSETS[index % len(FRACTIONAL_OFFSETS)]
    terms = exact_terms(rng, n, alpha, offset)
    return Case(f"{prefix}-{index}", n, OPERATORS[n], alpha, kernel, kernel_s_power, terms,
                initial_values(terms, n))


def _schedule(rng: random.Random, count: int, ns) -> tuple[tuple[int, int], ...]:
    pairs = [(index, N) for index in range(count) for N in ns]
    rng.shuffle(pairs)
    return tuple(pairs)


def warm_cases(seed: int) -> tuple[tuple[Case, ...], tuple[tuple[int, int], ...]]:
    """solve-warm: one problem per (alpha, n, catalog kernel) and a shuffled
    (problem index, N) schedule over N in WARM_NS."""
    rng = random.Random(f"solve-warm:{seed}")
    cases = []
    for alpha in ALPHAS:
        for n in DERIVATIVE_ORDERS:
            for kernel in CATALOG_KERNELS:
                s_power = 2 if kernel == "5.3" else 1
                cases.append(draw_case(rng, len(cases), "warm", n, alpha, kernel, s_power))
    return tuple(cases), _schedule(rng, len(cases), WARM_NS)


def config_case(rng: random.Random, index: int, prefix: str, n: int, alpha: float,
                family) -> Case:
    _, template, s_power = family
    kernel = template.format(*(f"{rng.uniform(0.5, 1.0):.4f}" for _ in range(2)))
    return draw_case(rng, index, prefix, n, alpha, kernel, s_power)


def to_config(case: Case) -> dict:
    """The case as a `cltau` problem config (exact solution under mms_exact)."""
    config = {"name": case.name, "n": case.n, "a": list(case.a), "alpha": case.alpha,
              "kernel": case.kernel, "mms_exact": [[q, p] for q, p in case.exact],
              "ics": list(case.ics)}
    if case.kernel_s_power != 1:
        config["kernel_s_power"] = case.kernel_s_power
    return config


def config_cases(seed: int) -> tuple[tuple[Case, ...], tuple[tuple[int, int], ...]]:
    """config-warm: one exprlang-kernel problem per (alpha, n, kernel family)
    and a shuffled schedule over N in CONFIG_NS."""
    rng = random.Random(f"config-warm:{seed}")
    cases = []
    for alpha in ALPHAS:
        for n in DERIVATIVE_ORDERS:
            for family in CONFIG_KERNELS:
                cases.append(config_case(rng, len(cases), "config", n, alpha, family))
    return tuple(cases), _schedule(rng, len(cases), CONFIG_NS)


def sweep_case(seed: int) -> Case:
    """sweep-cold: the seeded alpha = 2.7, n = 3 problem run next to 5.1-5.4."""
    rng = random.Random(f"sweep-cold:{seed}")
    return draw_case(rng, 1, "sweep", 3, 2.7, "5.4", 1)


@dataclass(frozen=True)
class Invocation:
    """One `cltau` command line.  `config` is written to a file and passed
    as --config; `example` names a catalog id instead."""

    key: str
    command: str
    example: str | None
    config: dict | None


# (command, n, alpha, kernel family) of the seeded cli configs.
CLI_CONFIGS = (("solve", 2, 1.9, 1), ("solve", 1, 0.5, 3), ("convergence", 3, 2.7, 0))


def cli_invocations(seed: int) -> tuple[tuple[Invocation, ...], tuple[int, ...]]:
    """cli: solve on every catalog id and on two seeded configs at N = 16,
    plus one convergence sweep 4:16:4 on a third seeded config.  The
    invocation order is a seeded shuffle, repeated."""
    rng = random.Random(f"cli:{seed}")
    invocations = [Invocation(f"solve-{eid}", "solve", eid, None) for eid in CATALOG_IDS]
    for index, (command, n, alpha, family) in enumerate(CLI_CONFIGS):
        case = config_case(rng, index, "cli", n, alpha, CONFIG_KERNELS[family])
        invocations.append(Invocation(f"{command}-{case.name}", command, None, to_config(case)))
    order = list(range(len(invocations)))
    rng.shuffle(order)
    return tuple(invocations), tuple(order)


def fingerprint(seed: int) -> str:
    """Canonical JSON of every input the seed generates (used by the tests)."""
    warm, warm_order = warm_cases(seed)
    configs, config_order = config_cases(seed)
    invocations, cli_order = cli_invocations(seed)
    return json.dumps({
        "solve-warm": [[asdict(c) for c in warm], warm_order],
        "config-warm": [[to_config(c) for c in configs], config_order],
        "sweep-cold": asdict(sweep_case(seed)),
        "cli": [[asdict(i) for i in invocations], cli_order],
    }, sort_keys=True)
