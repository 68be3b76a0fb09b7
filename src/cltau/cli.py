"""Command-line front end: JSON problem configs, solve/convergence runs,
operational-matrix dumps, and the built-in problem catalog.

Commands and file formats:

    solve        --config FILE | --example ID [--variant V] --N K
                 writes solution JSON {N, legendre_coeffs, condition_estimate,
                 problem_digest} to --out or stdout, and with --emit-config
                 PATH the problem's canonical config (what the digest hashes)
    convergence  --config FILE | --example ID [--variant V]
                 --N-sweep FROM:TO:STEP, writes CSV `N,l2_error,max_error`
                 to --csv or stdout (empty error fields for truncations
                 whose solve failed)
    opmatrix     --alpha A --N K, row-major CSV dump of the operational matrix
    examples     lists the catalog with variants and discrepancy notes

All numbers are written with 17 significant digits, '.' decimal separator,
LF line endings.  Identical invocations produce byte-identical output on the
same numpy/BLAS build with the same BLAS thread count; solve_fide, called from
Python too, depends on that thread count in its last bits.
Exit codes: 0 success, 2 configuration, argument or output error, 3 solver
error.  Each is decided in `main` alone: a ValueError (a bad config, flag or
sweep, or a problem the solver rejects as posed) exits 2, an OSError (an
output path that cannot be written) exits 2 with `error: cannot write: ...`,
a SolverError (a gate of the solve tripped, a non-finite solution included)
exits 3.  A solve that exits 3, or 2 on a ValueError, writes nothing to
stdout, --out or --emit-config: its error norms are taken before either
file is written.  A solve writes --emit-config first, then the solution to
--out or stdout, and its summary to stderr last.  So when --emit-config
cannot be written it writes nothing; when --out cannot be written the
--emit-config file is complete and stays, stdout gets nothing and no
summary is printed.  A convergence run whose --csv cannot be written
prints only the catalog note, if any, and no fit.  A path that opens but
fails mid-write (a full disk) may be left with part of its text.

Config schema (JSON object): name (text), n (integer >= 1), a (n+1 reals),
alpha (real > 0), kernel (expression in t and s), exactly one of forcing
(expression in t) or mms_exact (list of [coefficient, exponent] monomial
terms for the exact solution, from which the forcing is rebuilt), ics
(n reals; with mms_exact, the exact solution's derivatives at 0), optional
kernel_s_power (integer >= 1, see FIDEProblem).  A config holds the problem
alone: the truncation comes from --N and the sweep from --N-sweep.

A kernel with a fractional power of s needs kernel_s_power = p, with the
kernel smooth in s**(1/p) (p = 2 for t^2*sqrt(s)).  Without it the kernel
term is integrated inexactly and the solve still exits 0, with no warning:
the catalog's 5.3 config (t^2*sqrt(s)) errs by 9.6e-11 in L2 at N = 8 and
1.3e-12 at N = 32 without the key, and by 6.8e-16 and 6.6e-16 with
"kernel_s_power": 2.

A convergence sweep assembles once, at its largest truncation N_max, so
below N_max an entry integrates the kernel term with N_max's rules.  For
kernels that neither rule integrates exactly (|t-s|, ln|t-s|,
1/(1+c(t-s)^2)) an entry can read far below the error of `solve --N` at
that N.  On y' + y with kernel |t-s|, alpha = 0.5 and exact solution
t^2 + t^3, every entry of the sweep N = 8, 16, ..., 256 errs by 7.8e-7 in
L2, while the solve at N = 8 errs by 9.95e-5.  So a sweep of more than
one truncation whose smallest N0 solved also runs solve_fide at N0 alone
(_standalone_gap).  When that L2 error is off the entry's by more than
0.1 * max(entry, 1e-12), or that solve raises, stderr gets one note naming
N0, both errors (or the failure) and the cause, before the fit line, which
then says it is of the sweep entries, not of standalone solves.  The CSV
is the same either way.  The catalog's kernels are exact on both rules,
so their entries are the standalone solves to round-off and print no note.

The problem digest is the SHA-256 of ProblemConfig.fields, the canonical
problem fields (name, n, a, alpha, kernel, forcing or mms_exact, ics,
kernel_s_power), so it identifies the problem independently of the
truncation being solved.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .fracderiv import operational_matrix
from .solver import (
    _ERROR_FLOOR,
    FIDEProblem,
    SolverError,
    _catalog_entry,
    _config_problem,
    builtin_example,
    builtin_example_ids,
    convergence_study,
    error_norms,
    example_config,
    solve_fide,
)

__all__ = ["ProblemConfig", "main", "console_main"]

_CONFIG_KEYS = ("name", "n", "a", "alpha", "kernel", "forcing", "mms_exact",
                "ics", "kernel_s_power")


def _format_number(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return format(value, ".17g")


def _dumps_json(value) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit
    floats, no locale dependence."""
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_dumps_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dumps_json(v) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    return _format_number(value)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def _as_real(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float64 range
        real = math.inf
    _require(math.isfinite(real), f"{what} must be finite, got {value!r}")
    return real


def _as_reals(value, count: int, what: str) -> list[float]:
    _require(isinstance(value, list) and len(value) == count,
             f"{what} must be a list of {count} numbers")
    return [_as_real(v, f"{what} entry") for v in value]


def _as_int(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ProblemConfig:
    """Validated problem configuration (see the module docstring schema):
    the canonical problem fields, which the digest hashes and build reads."""

    fields: dict

    @staticmethod
    def from_dict(raw: dict) -> "ProblemConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        for key in raw:
            _require(key in _CONFIG_KEYS, f"unknown config key {key!r}")
        name = raw.get("name", "")
        _require(isinstance(name, str), "name must be text")
        n = _as_int(raw.get("n"), "n")
        _require(n >= 1, f"n must be >= 1, got {n}")
        fields = {"name": name, "n": n, "a": _as_reals(raw.get("a"), n + 1, "a"),
                  "alpha": _as_real(raw.get("alpha"), "alpha"), "kernel": raw.get("kernel")}
        _require(isinstance(fields["kernel"], str), "kernel must be expression text")
        forcing, mms_raw = raw.get("forcing"), raw.get("mms_exact")
        _require((forcing is None) != (mms_raw is None),
                 "config needs exactly one of forcing / mms_exact")
        if mms_raw is not None:
            _require(isinstance(mms_raw, list) and mms_raw, "mms_exact must be a non-empty list")
            fields["mms_exact"] = []
            for item in mms_raw:
                _require(isinstance(item, list) and len(item) == 2,
                         "mms_exact terms must be [coefficient, exponent] pairs")
                fields["mms_exact"].append([_as_real(item[0], "mms_exact coefficient"),
                                            _as_real(item[1], "mms_exact exponent")])
        else:
            _require(isinstance(forcing, str), "forcing must be expression text")
            fields["forcing"] = forcing
        fields["ics"] = _as_reals(raw.get("ics"), n, "ics")
        fields["kernel_s_power"] = _as_int(raw.get("kernel_s_power", 1), "kernel_s_power")
        _require(fields["kernel_s_power"] >= 1, "kernel_s_power must be >= 1")
        return ProblemConfig(fields)

    def digest(self) -> str:
        return hashlib.sha256(_dumps_json(self.fields).encode()).hexdigest()

    def build(self) -> tuple[FIDEProblem, object]:
        """(problem, exact) by solver._config_problem, which compiles the
        expressions and checks an mms_exact config's ics; exact is the
        manufactured solution for mms_exact configs and None otherwise."""
        return _config_problem(self.fields)


def _load_config_file(path: str) -> ProblemConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path!r} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ValueError(f"config {path!r} cannot be read: {exc}") from None
    return ProblemConfig.from_dict(raw)


def _resolve_problem(args) -> tuple[ProblemConfig, FIDEProblem, object]:
    """Turn --config/--example flags into (config, problem, exact)."""
    _require((args.config is None) != (args.example is None),
             "need exactly one of --config PATH or --example ID")
    if args.example is not None:
        try:
            ex = builtin_example(args.example, args.variant)
        except KeyError as exc:  # str(KeyError) would quote the message
            raise ValueError(exc.args[0]) from None
        if ex.note is not None:
            print(f"note ({ex.example_id}, {args.variant} forcing): {ex.note}",
                  file=sys.stderr)
        config = ProblemConfig.from_dict(example_config(args.example, args.variant))
        return config, ex.problem, ex.exact
    _require(args.variant == "corrected", "--variant applies only to --example")
    config = _load_config_file(args.config)
    return config, *config.build()


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _sweep_truncations(text: str) -> list[int]:
    parts = text.split(":")
    _require(len(parts) == 3, f"sweep must be FROM:TO:STEP, got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"sweep must be three integers, got {text!r}") from None
    _require(step >= 1, f"sweep step must be >= 1, got {step}")
    truncations = list(range(start, stop + 1, step))
    _require(bool(truncations), f"sweep {start}:{stop}:{step} is empty")
    return truncations


def cmd_solve(args) -> int:
    config, problem, exact = _resolve_problem(args)
    solution = solve_fide(problem, args.N)
    text = _dumps_json({
        "N": solution.truncation,
        "legendre_coeffs": list(solution.coeffs.coeffs),
        "condition_estimate": solution.condition_estimate,
        "problem_digest": config.digest(),
    }) + "\n"
    summary = (f"solved {config.fields['name'] or 'problem'} at N={solution.truncation}, "
               f"condition_estimate={solution.condition_estimate:.6e}")
    if exact is not None:  # before any output, so a failed norm writes none
        l2, largest = error_norms(solution, exact)
        summary += f", l2_error={l2:.6e}, max_error={largest:.6e}"
    if args.emit_config is not None:
        _write_text(args.emit_config, _dumps_json(config.fields) + "\n")
    _write_text(args.out, text)
    print(summary, file=sys.stderr)
    return 0


def _standalone_gap(problem: FIDEProblem, exact, report) -> str | None:
    """The note of a sweep whose smallest entry, N0, is not what solve --N N0
    gives: one solve_fide(problem, N0), whose L2 error must lie within 0.1 *
    max(entry, 1e-12) of the entry's, or which raised.  None when it does,
    when the sweep has one truncation, or when N0 failed in the sweep."""
    first, top = report.entries[0], report.entries[-1].truncation
    if first.truncation == top or first.failure is not None:
        return None
    try:  # N0's own rules may sample the kernel where N_max's did not
        l2 = error_norms(solve_fide(problem, first.truncation), exact)[0]
    except (SolverError, ValueError) as exc:
        standalone = f"fails ({exc})"
    else:
        if abs(l2 - first.l2_error) <= 0.1 * max(first.l2_error, _ERROR_FLOOR):
            return None
        standalone = f"gives l2_error={l2:.6e}"
    return (f"note: at N={first.truncation} the sweep reads l2_error={first.l2_error:.6e}, "
            f"but solve --N {first.truncation} {standalone}: below N={top} the sweep "
            f"integrates the kernel term on the rules of N={top}")


def cmd_convergence(args) -> int:
    _, problem, exact = _resolve_problem(args)
    _require(exact is not None,
             "convergence needs a known exact solution: use --example or an mms_exact config")
    truncations = _sweep_truncations(args.N_sweep)
    report = convergence_study(problem, exact, truncations)
    lines = ["N,l2_error,max_error"]
    for entry in report.entries:
        if entry.failure is not None:
            lines.append(f"{entry.truncation},,")
        else:
            lines.append(f"{entry.truncation},{_format_number(entry.l2_error)},"
                         f"{_format_number(entry.max_error)}")
    _write_text(args.csv, "\n".join(lines) + "\n")
    gap = _standalone_gap(problem, exact, report)
    fit = report.fitted_decay
    if fit.kind == "stagnated":
        described = "stagnated"
    elif fit.kind == "resolved":
        described = f"resolved at N={fit.resolved_at}"
    else:
        described = f"{fit.kind} (rate {fit.rate:.6g}, R^2 {fit.r_squared:.6g})"
    if gap is not None:
        print(gap, file=sys.stderr)
        described += ", of the sweep entries, not of standalone solves"
    print(f"fitted decay: {described}", file=sys.stderr)
    for entry in report.entries:
        if entry.failure is not None:
            print(f"N={entry.truncation} failed: {entry.failure}", file=sys.stderr)
    if all(entry.failure is not None for entry in report.entries):
        raise SolverError("every truncation in the sweep failed")
    return 0


def cmd_opmatrix(args) -> int:
    _require(args.alpha > 0, f"derivative order must be > 0, got {args.alpha!r}")
    matrix = operational_matrix(args.alpha, args.N)
    lines = [",".join(_format_number(v) for v in row) for row in matrix]
    _write_text(args.csv, "\n".join(lines) + "\n")
    return 0


def cmd_examples(args) -> int:
    lines = []
    for example_id in builtin_example_ids():
        entry = _catalog_entry(example_id, "printed")
        lines.append(f"{example_id}  {entry['description']}")
        if entry["note"] is None:
            lines.append("     variants: printed == corrected (transcribed forcing is consistent)")
        else:
            lines.append(f"     variants: printed, corrected (default); {entry['note']}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltau",
        description="Spectral tau solver for linear Fredholm fractional "
                    "integro-differential equations on [0, 1].")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(sub):
        sub.add_argument("--config", help="problem config JSON path")
        sub.add_argument("--example", help="built-in problem id (see `examples`)")
        sub.add_argument("--variant", choices=("printed", "corrected"),
                         default="corrected",
                         help="forcing variant for --example (default corrected)")

    solve = commands.add_parser("solve", help="solve at one truncation")
    add_problem_flags(solve)
    solve.add_argument("--N", type=int, required=True, help="truncation")
    solve.add_argument("--out", help="solution JSON path (default stdout)")
    solve.add_argument("--emit-config", dest="emit_config",
                       help="also write the problem config JSON (what the digest hashes) here")
    solve.set_defaults(handler=cmd_solve)

    conv = commands.add_parser("convergence", help="error sweep over truncations")
    add_problem_flags(conv)
    conv.add_argument("--N-sweep", dest="N_sweep", required=True,
                      help="FROM:TO:STEP inclusive sweep")
    conv.add_argument("--csv", help="CSV output path (default stdout)")
    conv.set_defaults(handler=cmd_convergence)

    opmat = commands.add_parser("opmatrix", help="dump an operational matrix")
    opmat.add_argument("--alpha", type=float, required=True, help="derivative order > 0")
    opmat.add_argument("--N", type=int, required=True, help="matrix truncation >= 0")
    opmat.add_argument("--csv", help="CSV output path (default stdout)")
    opmat.set_defaults(handler=cmd_opmatrix)

    examples = commands.add_parser("examples", help="list the built-in problem catalog")
    examples.set_defaults(handler=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
