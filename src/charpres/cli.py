"""Command line front end.

    charpres [run|monomial-track|strong-check|resolve] --scene FILE
             [--trace-out FILE] [--verify GOLDEN]
             [--tau-oracle-field-extension M]

Runs the scene script, emits the canonical JSON trace (stdout, or the
--trace-out path), and optionally byte-compares it against a golden trace.
Fixed budgets, each a command error: 64*n cleaning substitutions per section
polynomial of degree n (DegenerateSlopeError), 10^6 tau-oracle vectors,
10^6 experiment trace rows, 10^7 units of saturation work, derivatives
formed times the terms of their generator, and 10^5 Macaulay rows of the
multi-term tangent forms in one graded piece of tau (BudgetError).  The parse
budget, a parse error: per polynomial, 10^5 terms in any product or sum,
10^6 term products in all, over Q 10^6 bits in the coefficients of a power,
and 100 levels of nested parentheses (BudgetError).
Exit codes: 0 success, 1 command error, verification mismatch, or a trace
that cannot be written or golden that cannot be read, 2 parse error, 3
internal error (a bug: one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import sys

from .errors import SceneParseError
from .scene import (RunOptions, canonical_json, load_scene, run_scene,
                    verify_canonical_trace)

_EXTRA = {"monomial-track", "strong-check", "resolve"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charpres",
        description="exact invariants of hypersurface singularities in "
                    "positive characteristic")
    parser.add_argument("command", nargs="?", default="run",
                        choices=["run"] + sorted(_EXTRA),
                        help="run the scene script, optionally followed by one "
                             "extra terminal command")
    parser.add_argument("--scene", required=True, help="scene file to execute")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the canonical trace here instead of stdout")
    parser.add_argument("--verify", metavar="GOLDEN",
                        help="compare the trace against this golden file")
    # the ASCII strings themselves: int() would also read "٢" or "0_2" as 2
    parser.add_argument("--tau-oracle-field-extension", default=None,
                        metavar="M", choices=["1", "2", "3"],
                        help="cross-check tau by counting translations over "
                             "the degree-M extension field")
    return parser


def _internal_error(exc: Exception) -> int:
    print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scene = load_scene(args.scene)
    except (OSError, UnicodeDecodeError) as exc:   # missing, or not UTF-8
        print("cannot read scene: %s" % exc, file=sys.stderr)
        return 2
    except SceneParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)

    m = args.tau_oracle_field_extension
    options = RunOptions(tau_oracle_extension=None if m is None else int(m))
    extra = [args.command] if args.command in _EXTRA else []
    try:
        doc = run_scene(scene, options, extra_commands=extra)
        text = canonical_json(doc)
    except Exception as exc:
        return _internal_error(exc)

    if args.trace_out:
        try:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("cannot write trace: %s" % exc, file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)

    status = 0 if doc["status"] == "ok" else 1
    if status != 0:
        bad = doc["records"][-1]
        print("command failed: %s: %s" % (bad.get("command"), bad.get("error")),
              file=sys.stderr)

    if args.verify is not None:
        try:
            with open(args.verify, "r", encoding="utf-8") as fh:
                golden = fh.read()
        except (OSError, UnicodeDecodeError) as exc:   # missing, or not UTF-8
            print("cannot read golden trace: %s" % exc, file=sys.stderr)
            return 1
        ok, report = verify_canonical_trace(text, golden)
        if not ok:
            print("trace mismatch: %s" % report, file=sys.stderr)
            return 1
        print("verified against %s" % args.verify, file=sys.stderr)

    return status


if __name__ == "__main__":
    sys.exit(main())
