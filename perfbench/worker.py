"""One benchmark process: set up a workload, then run its timed operations.

Usage (started by run.py, from the root of a checkout, with src/ on
PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD --seed S --seconds T --trace 0|1 --out DIR

The worker prints READY when set-up is done, just before the first timed
operation; the parent times process start to READY as one set-up sample.
It then runs operations in a closed loop (one caller, each operation
waits for the previous one) for T seconds, checks every output, and
prints one JSON line with the op times and check results.  For
sweep-cold one worker runs exactly one sweep.

With --trace 1 the worker alternates untraced and traced operations (the
difference of their medians is the tracing overhead) and writes the spans
of its set-up and traced operations to DIR.
"""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _provenance() -> dict:
    import cltau
    import mpmath
    import numpy
    import scipy

    source = Path(cltau.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"cltau imported from {source}, not from {ROOT / 'src'}")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def manufactured_problem(solver, case):
    """A FIDEProblem for a generated case on a catalog kernel, with the
    forcing manufactured from the case's exact solution."""
    from cltau.orthopoly import MonomialSeries

    kernel = solver.builtin_example(case.kernel, "printed").problem.kernel
    forcing = solver.mms_forcing(MonomialSeries(case.exact), case.n, case.a, case.alpha, kernel)
    return solver.FIDEProblem(n=case.n, a=case.a, order=case.alpha, kernel=kernel,
                              forcing=forcing, ics=case.ics,
                              kernel_s_power=case.kernel_s_power)


def traced_problem(tracer, problem):
    """`problem` with its kernel and forcing callables wrapped in spans."""
    return replace(
        problem,
        kernel=tracing.trace_callable(tracer, "solver.kernel_fn", problem.kernel),
        forcing=tracing.trace_callable(tracer, "solver.forcing_fn", problem.forcing))


class Workload:
    """A list of schedule items, an operation on one item and its check.

    A traced operation runs under the span wrappers in this process unless
    `traces_in_child` is set (the operation then traces itself in a child).
    """

    traces_in_child = False

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, item, traced: bool):
        raise NotImplementedError

    def check(self, item, output) -> tuple[bool, float | None]:
        """(passed, l2 digits or None) for an operation's output."""
        raise NotImplementedError


class SolveWarm(Workload):
    """Manufactured problems on the catalog's numpy kernels, solved warm."""

    def __init__(self, seed, tracer):
        super().__init__(seed)
        import cltau.solver as solver

        self.solver = solver
        self.cases, self.schedule = self.generate()
        self.problems = []
        for case in self.cases:
            problem = self.build(case)
            self.problems.append(
                (problem, traced_problem(tracer, problem) if tracer is not None else None))
        self.warm_up()

    def generate(self):
        return inputs.warm_cases(self.seed)

    def build(self, case):
        return manufactured_problem(self.solver, case)

    def warm_up(self):
        """Solve once per new (alpha, N) or (n, N): fills the operational
        matrix, Gauss rule and transform caches for every timed case."""
        seen = set()
        for item in self.schedule:
            case = self.cases[item[0]]
            keys = {("alpha", case.alpha, item[1]), ("n", case.n, item[1])}
            if not keys <= seen:
                seen |= keys
                ok, _ = self.check(item, self.op(item, False))
                if not ok:
                    raise SystemExit(f"warm-up solve failed its check: {case.name} N={item[1]}")

    def op(self, item, traced):
        problem = self.problems[item[0]][1 if traced else 0]
        return self.solver.solve_fide(problem, item[1])

    def check(self, item, output):
        case = self.cases[item[0]]
        ok, error = checks.accurate(output.coeffs.coeffs, case.exact, case.alpha, item[1],
                                    case.n, case.kernel_s_power > 1)
        return ok and math.isfinite(output.condition_estimate), checks.digits(error)


class ConfigWarm(SolveWarm):
    """The same loop on problems built from seeded JSON configs through
    `cli.ProblemConfig.from_dict(...).build()` (exprlang kernels)."""

    def generate(self):
        return inputs.config_cases(self.seed)

    def build(self, case):
        from cltau.cli import ProblemConfig

        problem, _ = ProblemConfig.from_dict(inputs.to_config(case)).build()
        return problem


class SweepCold(Workload):
    """One `convergence_study` sweep over N = 4..32 on catalog problems
    5.1-5.4 and one seeded alpha = 2.7, n = 3 problem, in a fresh process."""

    def __init__(self, seed, tracer):
        super().__init__(seed)
        import cltau.solver as solver
        from cltau.orthopoly import MonomialSeries

        self.solver = solver
        self.problems = []
        for eid in inputs.CATALOG_IDS:
            example = solver.builtin_example(eid)
            config = solver.example_config(eid)
            terms = tuple((q, p) for q, p in config["mms_exact"])
            self.problems.append((eid, example.problem, example.exact, terms))
        case = inputs.sweep_case(seed)
        self.problems.append((case.name, manufactured_problem(solver, case),
                              MonomialSeries(case.exact), case.exact))
        if tracer is not None:
            # A sweep process is traced or untraced as a whole.
            self.problems = [(name, traced_problem(tracer, problem), exact, terms)
                             for name, problem, exact, terms in self.problems]
        self.schedule = (None,)

    def op(self, item, traced):
        return [self.solver.convergence_study(problem, exact, inputs.SWEEP_NS)
                for _, problem, exact, _ in self.problems]

    def check(self, item, output):
        ok, worst = True, math.inf
        for (_, problem, _, terms), report in zip(self.problems, output):
            for entry in report.entries:
                if entry.failure is not None or not math.isfinite(entry.l2_error):
                    ok = False
                    continue
                bound = checks.l2_bound(terms, problem.order.alpha, entry.truncation, problem.n,
                                        problem.kernel_s_power > 1)
                ok = ok and entry.l2_error <= bound
                worst = min(worst, checks.digits(entry.l2_error))
        return ok, worst


_SUMMARY_L2 = re.compile(r"l2_error=([0-9.eE+-]+)")


class Cli(Workload):
    """Sequential `cltau` processes: solve on the catalog ids and on seeded
    configs, plus one convergence sweep."""

    traces_in_child = True

    def __init__(self, seed, out_dir: Path):
        super().__init__(seed)
        from cltau.cli import ProblemConfig
        from cltau.solver import example_config

        self.out_dir = out_dir
        invocations, order = inputs.cli_invocations(seed)
        self.expected = {}
        self.commands = []
        for inv in invocations:
            config = inv.config if inv.config is not None else example_config(inv.example)
            if inv.config is not None:
                path = out_dir / f"cli-seed{seed}-{inv.key}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                argv = [inv.command, "--config", str(path)]
            else:
                argv = [inv.command, "--example", inv.example]
            argv += (["--N", str(inputs.CLI_N)] if inv.command == "solve"
                     else ["--N-sweep", inputs.CLI_SWEEP])
            terms = tuple((q, p) for q, p in config["mms_exact"])
            self.expected[inv.key] = (ProblemConfig.from_dict(config).digest(), terms,
                                      config["alpha"], config["n"],
                                      config.get("kernel_s_power", 1) > 1)
            self.commands.append((inv.key, inv.command, argv))
        self.schedule = tuple(self.commands[i] for i in order)
        self.stdout = {}
        self.stdout_sha256 = {}
        self.span_files = []

    def op(self, item, traced):
        key, _, argv = item
        if traced:
            spans = self.out_dir / f"spans-cli-seed{self.seed}-{len(self.span_files)}.json"
            self.span_files.append(str(spans))
            command = [sys.executable, str(Path(__file__).with_name("cli_traced.py")),
                       str(spans), *argv]
        else:
            command = [sys.executable, "-m", "cltau.cli", *argv]
        return subprocess.run(command, capture_output=True, cwd=ROOT, timeout=120)

    def check(self, item, output):
        key, command, _ = item
        digest, terms, alpha, n, sqrt_kernel = self.expected[key]
        if output.returncode != 0:
            return False, None
        first = self.stdout.setdefault(key, output.stdout)
        if first != output.stdout:
            return False, None
        self.stdout_sha256[key] = hashlib.sha256(first).hexdigest()
        text = output.stdout.decode("utf-8")
        if command == "convergence":
            return self._check_sweep(text, terms, alpha, n, sqrt_kernel), None
        try:
            payload = json.loads(text)
            summary = float(_SUMMARY_L2.search(output.stderr.decode("utf-8")).group(1))
        except (ValueError, AttributeError):
            return False, None
        if not isinstance(payload, dict):
            return False, None
        ok, _ = checks.accurate(payload.get("legendre_coeffs", []), terms, alpha,
                                inputs.CLI_N, n, sqrt_kernel)
        ok = (ok and payload.get("N") == inputs.CLI_N
              and payload.get("problem_digest") == digest
              and summary <= checks.l2_bound(terms, alpha, inputs.CLI_N, n, sqrt_kernel))
        return ok, checks.digits(summary)

    @staticmethod
    def _check_sweep(text, terms, alpha, n, sqrt_kernel) -> bool:
        lines = text.splitlines()
        start, stop, step = (int(v) for v in inputs.CLI_SWEEP.split(":"))
        if lines[:1] != ["N,l2_error,max_error"] or len(lines) != 1 + len(range(start, stop + 1, step)):
            return False
        for line, N in zip(lines[1:], range(start, stop + 1, step)):
            fields = line.split(",")
            try:
                row_n, l2 = int(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                return False
            if row_n != N or not l2 <= checks.l2_bound(terms, alpha, N, n, sqrt_kernel):
                return False
        return True


def timed_loop(workload: Workload, seconds: float, tracer, minimum: int = 1,
               phase: int = 1) -> dict:
    """Closed loop over whole passes of the schedule, so every run times the
    same mix of cases: after the first pass, as many passes as fit in
    `seconds` at that pace (at least one, and at least `minimum`
    operations; a traced run stops early when its span buffer is full).
    With a tracer, operations with index % 2 == phase are traced."""
    times, traced_times, worst = [], [], math.inf
    attempted = failed = 0
    size = len(workload.schedule)
    passes = None
    begin = time.perf_counter()
    while attempted < minimum or passes is None or attempted < passes * size:
        if tracer is not None and tracer.full and attempted >= minimum:
            break
        item = workload.schedule[attempted % size]
        traced = tracer is not None and attempted % 2 == phase
        here = traced and not workload.traces_in_child
        undo = tracing.install(tracer) if here else None
        start = time.perf_counter()
        try:
            with tracer.operation() if here else nullcontext():
                output = workload.op(item, traced)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            output, error = None, exc
        elapsed = time.perf_counter() - start
        if undo is not None:
            tracing.uninstall(undo)
        attempted += 1
        if attempted == size:
            passes = max(1, round(seconds / (time.perf_counter() - begin)))
        (traced_times if traced else times).append(elapsed)
        ok, digits = (False, None) if error is not None else workload.check(item, output)
        if not ok:
            failed += 1
            print(f"failed operation {attempted}: {error!r}" if error else
                  f"failed check on operation {attempted}", file=sys.stderr)
        if digits is not None:
            worst = min(worst, digits)
    return {"times": times, "traced_times": traced_times, "attempted": attempted,
            "failed": failed, "digits_min": worst if math.isfinite(worst) else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("sweep-cold", "solve-warm", "config-warm", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    provenance = _provenance()
    import cltau.cli  # noqa: F401  every module loaded before the wrappers go in

    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.install(tracer) if tracer is not None else None
    with tracer.operation(tracing.SETUP_ROOT) if tracer is not None else nullcontext():
        if args.workload == "solve-warm":
            workload = SolveWarm(args.seed, tracer)
        elif args.workload == "config-warm":
            workload = ConfigWarm(args.seed, tracer)
        elif args.workload == "sweep-cold":
            workload = SweepCold(args.seed, tracer)
        else:
            workload = Cli(args.seed, args.out)
    if undo is not None:
        tracing.uninstall(undo)
    print("READY", flush=True)

    if args.workload == "sweep-cold":
        # One sweep per process; the parent alternates traced and untraced processes.
        result = timed_loop(workload, 0.0, tracer, minimum=1, phase=0)
    else:
        result = timed_loop(workload, args.seconds, tracer, minimum=2 if tracer else 1)
    span_files = list(getattr(workload, "span_files", []))
    if tracer is not None:
        path = args.out / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tracer.write(path)
        span_files.insert(0, str(path))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(provenance=provenance, span_files=span_files,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
                  stdout_sha256=getattr(workload, "stdout_sha256", {}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
