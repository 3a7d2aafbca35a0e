"""Command-line entry points: single runs and convergence studies."""

import argparse
import os
import sys

from .harness import (StudySpec, _resolution_for, parse_fraction,
                      records_to_csv, records_to_table, run_case, run_study,
                      study_line, study_records)
from .mms import CASES, make_case
from .scheme import CUTOFF_MODES, horizon_steps


def fraction_list(text):
    """Comma-separated ``parse_fraction`` values, e.g. '1/8,1/10'."""
    return [parse_fraction(tok) for tok in text.split(",") if tok]


def mesh_size(text):
    """A ``parse_fraction`` value that is 1/n for an integer n."""
    h = parse_fraction(text)
    _resolution_for(h, "mesh size")
    return h


def output_path(text):
    """A path that is not a directory, in a directory that exists, so a run
    cannot die on writing its output after it has done the work."""
    if os.path.isdir(text) or not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(
            f"{text}: not a file in an existing directory")
    return text


def _add_common(p):
    p.add_argument("--T", type=parse_fraction, default=StudySpec.T)
    p.add_argument("--mu", type=parse_fraction, default=StudySpec.mu)
    p.add_argument("--cutoff", choices=CUTOFF_MODES,
                   default=StudySpec.cutoff_mode)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vardens",
        description="Variable-density incompressible flow solver and "
                    "convergence harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="time-march one manufactured case")
    runp.add_argument("--case", required=True, choices=list(CASES))
    runp.add_argument("--h", type=mesh_size, required=True,
                      help="mesh size as 1/n")
    runp.add_argument("--tau", type=parse_fraction, required=True)
    runp.add_argument("--trace", type=output_path, default=None,
                      help="write one JSON record per step here")
    _add_common(runp)

    studyp = sub.add_parser("study", help="run a convergence study")
    studyp.add_argument("--case", required=True, choices=list(CASES))
    studyp.add_argument("--mode", required=True, choices=["space", "time"])
    studyp.add_argument("--params", type=fraction_list, required=True,
                        help="comma-separated h (space) or tau (time) values,"
                             " e.g. 1/8,1/10,1/12")
    studyp.add_argument("--tau", type=parse_fraction, default=StudySpec.tau,
                        help="fixed time step for space mode")
    studyp.add_argument("--out", type=output_path, default=None,
                        help="CSV output path; the rows of this study that "
                             "it already holds and that did not fail are "
                             "not run again, and a file of another study is "
                             "refused")
    _add_common(studyp)

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            horizon_steps(args.T, args.tau)
        except ValueError as exc:
            parser.error(str(exc))
        case = make_case(args.case)
        trace = open(args.trace, "w") if args.trace else None
        try:
            result = run_case(
                case, args.h, args.tau, T=args.T, mu=args.mu,
                cutoff_mode=args.cutoff, trace=trace,
            )
        finally:
            if trace:
                trace.close()
        print(f"case={args.case} h={args.h:.6g} tau={args.tau:.6g} "
              f"T={args.T} mu={args.mu}")
        print(f"E_rho={result['E_rho']:.6e} E_u={result['E_u']:.6e} "
              f"seconds={result['seconds']:.2f}")
        return 0

    try:
        spec = StudySpec(
            case=args.case, mode=args.mode, params=args.params, tau=args.tau,
            T=args.T, mu=args.mu, cutoff_mode=args.cutoff,
        )
    except ValueError as exc:
        parser.error(str(exc))
    finished = []
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            try:
                finished = study_records(spec, fh.read())
            except ValueError as exc:
                parser.error(f"--out {args.out}: {exc}")
    done = []

    def progress(r):
        print(f"  h={r.h:.6g} tau={r.tau:.6g} "
              + (f"FAILED: {r.message}" if r.failed
                 else f"E_rho={r.E_rho:.3e} E_u={r.E_u:.3e} "
                      f"({r.seconds:.1f}s)"),
              file=sys.stderr)
        done.append(r)
        if args.out:  # rewritten per row, so a killed study keeps its rows
            with open(args.out, "w") as fh:
                fh.write(study_line(spec) + records_to_csv(done))

    records = run_study(spec, progress=progress, finished=finished)
    print(records_to_table(records))
    return 2 if any(r.failed for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
