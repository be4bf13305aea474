"""Command-line interface.

Subcommands::

    ah-coeffs   print Artin-Hasse coefficients mod p (or exact rationals)
    exp         Artin-Hasse exponential of a nilpotent matrix (JSON in/out)
    log         its inverse on unipotent matrices
    embed       Witt-vector product embedding at a nilpotent matrix
    witt        add | neg | pow-p | order | from-int on Witt vectors
    parabolic   eps | class for block compositions of GL_n
    verify      run named property suites and write a JSON report

Exit codes: 0 success / all properties pass, 1 any property failed,
2 usage error (bad arguments, malformed input files, a report path that
cannot be written) or a requested suite that ran no case.

A call builds the parser of its own command only, and imports only the
modules it runs, after its arguments are parsed: ``ah-coeffs``, ``witt``
and ``parabolic class`` never load numpy, ``exp`` and ``log`` load none
of the samplers, only ``verify`` loads the suites, and it loads ``witt``
only for the Witt suites; no command loads ``dataclasses``.

``run`` is the process entry point (the ``ahspringer`` script and
``python -m ahspringer.cli``); ``main`` is the command itself, for
callers that stay in one process.
"""

from __future__ import annotations

import argparse
import os
import sys

# The verify --suite help text lists the registry without importing
# suites (and numpy with it); a test keeps this tuple equal to
# tuple(suites.SUITES).
SUITE_NAMES = (
    "ah-integrality", "witt-group", "witt-hom", "frobenius-compat", "form-preservation",
    "order-preservation", "eps-parabolic", "commuting-pairs", "centralizer-equality",
    "frobenius-descent", "one-parameter", "equivariance",
)


def _coeffs_args(cmd) -> None:
    cmd.add_argument("--p", type=int, required=True, help="prime")
    cmd.add_argument("--n", type=int, required=True, help="truncation degree")
    cmd.add_argument("--rational", action="store_true", help="print exact rationals instead of mod-p values")


def _matrix_args(cmd) -> None:
    cmd.add_argument("--matrix", required=True, help="input matrix JSON file")


def _embed_args(cmd) -> None:
    _matrix_args(cmd)
    cmd.add_argument("--vector", required=True, help="Witt entries, e.g. 1,0,1")


def _witt_args(witt) -> None:
    witt_sub = witt.add_subparsers(dest="witt_command", required=True)
    for wname in ("add", "neg", "pow-p", "order", "from-int"):
        cmd = witt_sub.add_parser(wname)
        cmd.add_argument("--p", type=int, required=True, help="prime")
        cmd.add_argument("--m", type=int, required=True, help="Witt length (<= 3)")
        cmd.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
        if wname == "add":
            cmd.add_argument("--lhs", required=True, help="left Witt vector, e.g. 1,0")
            cmd.add_argument("--rhs", required=True, help="right Witt vector")
        elif wname == "from-int":
            cmd.add_argument("--int", dest="value", type=int, required=True, help="integer to embed")
        else:
            cmd.add_argument("--vector", required=True, help="Witt vector, e.g. 1,0")


def _parabolic_args(para) -> None:
    para_sub = para.add_subparsers(dest="parabolic_command", required=True)
    eps_cmd = para_sub.add_parser("eps", help="block exponential on the nilradical")
    eps_cmd.add_argument("--comp", required=True, help="block sizes, e.g. 2,1")
    _matrix_args(eps_cmd)
    class_cmd = para_sub.add_parser("class", help="nilpotence class of the unipotent radical")
    class_cmd.add_argument("--comp", required=True, help="block sizes, e.g. 2,1")
    class_cmd.add_argument("--p", type=int, default=2, help="prime (class is independent of it)")


def _verify_args(verify) -> None:
    verify.add_argument(
        "--suite", required=True,
        help="comma-separated suite names, or 'all' (known: %s)" % ", ".join(SUITE_NAMES),
    )
    verify.add_argument("--p", default="2,3,5,7", help="comma-separated primes")
    verify.add_argument("--trials", type=int, default=None, help="override per-suite trial counts")
    verify.add_argument("--seed", type=int, default=0, help="base seed")
    verify.add_argument("--report", default=None, help="write the JSON report here")
    verify.add_argument("--max-dim", type=int, default=8, help="cap matrix dimensions")
    verify.add_argument("--kinds", default="GL,SL,SO,Sp", help="comma-separated group kinds to exercise")


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv[0]'s command alone, which parses argv as the
    parser of all seven does (its usage, which an unrecognized argument
    prints, names all seven); of all seven when argv[0] names none."""
    parser = argparse.ArgumentParser(
        prog="ahspringer",
        description="Exact Artin-Hasse exponentials, Witt vectors, and "
        "verification suites over small finite fields.",
    )
    names = [a for a in argv[:1] if a in _COMMANDS]
    usage = "{%s}" % ",".join(_COMMANDS) if names else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    for name in names or _COMMANDS:
        help_text, add_args, _ = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def _cmd_ah_coeffs(args) -> int:
    from .series import ah_coeffs_mod_p, ah_rational_coeffs

    coeffs = (ah_rational_coeffs if args.rational else ah_coeffs_mod_p)(args.p, args.n)
    print(" ".join(str(c) for c in coeffs))
    return 0


def _cmd_exp(args) -> int:
    from .expmaps import ah_exp
    from .matrices import load_matrix

    print(ah_exp(load_matrix(args.matrix)).dumps())
    return 0


def _cmd_log(args) -> int:
    from .expmaps import ah_log
    from .matrices import load_matrix

    print(ah_log(load_matrix(args.matrix)).dumps())
    return 0


def _cmd_embed(args) -> int:
    from .expmaps import witt_embed
    from .groups import nilpotent_order
    from .matrices import load_matrix
    from .witt import witt_entries_from_string

    x = load_matrix(args.matrix)
    m = nilpotent_order(x)
    if m == 0:
        raise ValueError("embed needs a nonzero nilpotent matrix: the zero matrix has "
                         "nilpotent order 0, and Witt lengths start at 1")
    w = witt_entries_from_string(x.p, m, args.vector, x.e)
    print(witt_embed(x, w).dumps())
    return 0


def _cmd_witt(args) -> int:
    from .witt import (
        witt_add, witt_entries_from_string, witt_from_integer, witt_neg, witt_order, witt_pow_p,
    )

    p, m, e = args.p, args.m, args.e
    if args.witt_command == "add":
        lhs = witt_entries_from_string(p, m, args.lhs, e)
        rhs = witt_entries_from_string(p, m, args.rhs, e)
        print(witt_add(lhs, rhs))
    elif args.witt_command == "neg":
        print(witt_neg(witt_entries_from_string(p, m, args.vector, e)))
    elif args.witt_command == "pow-p":
        print(witt_pow_p(witt_entries_from_string(p, m, args.vector, e)))
    elif args.witt_command == "order":
        print(witt_order(witt_entries_from_string(p, m, args.vector, e)))
    else:  # from-int
        if e != 1:
            raise ValueError("from-int is defined over the base field only (e = 1)")
        print(witt_from_integer(p, m, args.value))
    return 0


def _cmd_parabolic(args) -> int:
    from .compositions import Composition, ParabolicGL, nilpotence_class

    comp = Composition.parse(args.comp)
    if args.parabolic_command == "class":
        print(nilpotence_class(ParabolicGL(comp, args.p)))
        return 0
    from .matrices import load_matrix
    from .parabolic import eps_p

    x = load_matrix(args.matrix)
    par = ParabolicGL(comp, x.p, x.e)
    print(eps_p(par, x).dumps())
    return 0


def _cmd_verify(args) -> int:
    from .suites import SuiteConfig, run_suite

    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    primes = tuple(int(s) for s in args.p.split(",") if s.strip())
    kinds = tuple(s.strip() for s in args.kinds.split(",") if s.strip())
    cfg = SuiteConfig(suites=suites, primes=primes, kinds=kinds, max_dim=args.max_dim,
                      trials=args.trials, seed=args.seed)
    fd = None
    if args.report:  # opened before any suite runs, so a path that cannot be written costs no run
        try:
            fd = os.open(args.report, os.O_WRONLY | os.O_CREAT, 0o666)
        except OSError as exc:
            raise ValueError(f"{args.report}: cannot write ({exc.strerror or exc})") from exc
    try:
        report = run_suite(cfg)
        if fd is not None:
            # rewritten in place, then cut to length: truncating to zero first
            # would free and reallocate every block of the old report
            with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                fh.write(report.dumps())
                fh.write("\n")
                fh.truncate()
    finally:
        if fd is not None:
            os.close(fd)
    skipped = False
    for record in report.suites:
        if record["cases"] == 0:
            skipped = True
            print(f"SKIP {record['name']}: 0 cases (no grid point for the requested primes, kinds and --max-dim)")
            continue
        status = "PASS" if record["failed"] == 0 else "FAIL"
        print(f"{status} {record['name']}: {record['passed']}/{record['cases']} cases")
    if args.report:
        print(f"report written to {args.report}")
    if report.failed:
        return 1
    return 2 if skipped else 0


# name -> (help, arguments, command), in help order
_COMMANDS = {
    "ah-coeffs": ("Artin-Hasse series coefficients", _coeffs_args, _cmd_ah_coeffs),
    "exp": ("Artin-Hasse exponential of a nilpotent matrix", _matrix_args, _cmd_exp),
    "log": ("inverse Artin-Hasse map of a unipotent matrix", _matrix_args, _cmd_log),
    "embed": ("Witt-vector embedding at a nilpotent matrix", _embed_args, _cmd_embed),
    "witt": ("Witt vector arithmetic", _witt_args, _cmd_witt),
    "parabolic": ("standard parabolics of GL_n", _parabolic_args, _cmd_parabolic),
    "verify": ("run property suites", _verify_args, _cmd_verify),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ValueError as exc:  # includes DomainError and file-format errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """main() on the process's own arguments, for a process that exits next.

    No kernel multiplies floats, the only products numpy hands to BLAS, so
    OpenBLAS gets one thread (a value the user set stays) and starts no
    worker at import.  The cycle collector stays off (a run leaves under a
    thousand cyclic objects whatever its size), and freezing the heap before
    exit spares the shutdown collections a scan of every object still alive.
    """
    import gc

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
