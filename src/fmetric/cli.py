"""Command-line front end.

Subcommands: verify, min-alpha, solve, check, reproduce, profile-alpha.
Exit codes: 0 all checks pass, 1 a mathematical violation was found
(or an iteration failed to converge), 2 usage or input error, 141 the
reader closed stdout. Text mode prints numbers with 10 significant
digits; structured mode emits one JSON document per run with top-level
"command" and "passed" fields.
Same inputs and seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction

import numpy as np

from . import conditions, corpus, solver
from .errors import DomainError, FmetricError
from .fclass import lookup_function, registered_altering, registered_generators
from .fspace import (
    AnalyticSpace,
    FiniteSpace,
    Witness,
    alpha_divergence_profile,
    check_identity_symmetry,
    distance_table,
    min_alpha,
)
from .fspace import verify_D3 as _verify_D3
from .reports import dumps
from .spaceio import load_space_file

_SHOWN_VIOLATIONS = 5


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{float(value):.10g}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _emit_json(doc: dict) -> None:
    print(dumps(doc))


def _materialize(space) -> FiniteSpace:
    """Turn an enumerable space into an explicit matrix for axiom checks."""
    if isinstance(space, FiniteSpace):
        return space
    pts = space.points()  # DomainError if there is no finite enumeration
    return FiniteSpace(labels=pts, dist=distance_table(space, pts))


def _load_input(args) -> corpus.NamedExample:
    """--input or --example as one example; a file's id is its path, and
    it carries no altering distance. Size flags size an example only."""
    sizes = {k: getattr(args, k) for k in ("n", "depth", "N") if getattr(args, k) is not None}
    if args.input is None:
        return corpus.build_example(args.example, **sizes)
    if sizes:
        raise DomainError(f"--{next(iter(sizes))} sizes a bundled example, not an --input file")
    space, witness, T = load_space_file(args.input)
    return corpus.NamedExample(args.input, space, T, witness=witness)


def _parse_point(text: str, space):
    """Parse an x0 argument ("2", "0.25", "7/3") into a carrier point.

    Finite spaces snap numeric values to the nearest label (see
    FiniteSpace.nearest_label). Basis-index carriers require integers.
    """
    if isinstance(space, FiniteSpace) and space.contains(text):
        return text
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse point {text!r}") from None
    if isinstance(space, AnalyticSpace) and space.point_kind == "basis_index":
        if frac.denominator != 1:
            raise DomainError(f"points of this space are integers, got {text!r}")
        return int(frac)
    try:
        val = float(frac)
    except OverflowError:
        raise DomainError(f"point {text!r} is beyond the float range") from None
    if isinstance(space, FiniteSpace):
        best, within = space.nearest_label(val)
        if best is None:
            raise DomainError(f"carrier has no numeric points to match {text!r}")
        if not within:
            raise DomainError(
                f"{text!r} is not in the carrier (nearest point {best!r})"
            )
        return best
    return val


def _function(name, kind, inherited, default):
    """The function the flag names, else the input's own, else default."""
    if name is None:
        return inherited or lookup_function(default, kind)
    return lookup_function(name, kind)


def _generator(args, witness):
    return _function(args.f, "generator", witness and witness.f, "ln")


def _resolve_witness(args, file_witness) -> Witness:
    f = _generator(args, file_witness)
    alpha = args.alpha
    if alpha is None:
        if file_witness is None:
            raise DomainError("no alpha: pass --alpha or provide a witness in the input")
        alpha = file_witness.alpha
    return Witness(f, float(alpha))


def _violation_lines(violations, line) -> list:
    """The first violations, one line(v) each, then a line counting the
    rest: the listing verify and check print."""
    lines = [line(v) for v in violations.records(_SHOWN_VIOLATIONS)]
    if len(violations) > _SHOWN_VIOLATIONS:
        lines.append(f"  ... and {len(violations) - _SHOWN_VIOLATIONS} more")
    return lines


# Each cmd_* returns (passed, doc, lines): doc holds the structured
# document's fields after "command" and "passed", which main adds, and
# lines the text form. main writes one of the two, as --output asks.

def cmd_verify(args) -> tuple:
    ex = _load_input(args)
    space = _materialize(ex.space)
    witness = _resolve_witness(args, ex.witness)
    reports = check_identity_symmetry(space, margin=args.margin)
    axioms_ok = all(r.passed for r in reports)
    if axioms_ok:
        reports.append(_verify_D3(space, witness, margin=args.margin))
    passed = all(r.passed for r in reports)
    names = {"D1": "identity", "D2": "symmetry", "D3": "chain inequality"}
    lines = []
    for r in reports:
        extra = f" (f={witness.f.name}, alpha={_fmt(witness.alpha)})" if r.axiom == "D3" else ""
        lines.append(f"{r.axiom} {names[r.axiom]}{extra}: {'pass' if r.passed else 'FAIL'}")
        lines += _violation_lines(
            r.violations, lambda v: f"  {_fmt(v['pair'])}: lhs={_fmt(v['lhs'])} rhs={_fmt(v['rhs'])}")
    if not axioms_ok:
        lines.append("D3 chain inequality: skipped (identity or symmetry failed)")
    doc = {"input": ex.id, "f": witness.f.name, "alpha": witness.alpha, "axioms": reports}
    return passed, doc, lines


def cmd_min_alpha(args) -> tuple:
    ex = _load_input(args)
    space = _materialize(ex.space)
    f = _generator(args, ex.witness)
    value = min_alpha(space, f)
    return True, {"input": ex.id, "f": f.name, "min_alpha": value}, [_fmt(value)]


def cmd_solve(args) -> tuple:
    ex = _load_input(args)
    if ex.map is None:
        raise DomainError(f"{ex.id} carries no map; solve needs one")
    x0 = _parse_point(args.x0, ex.space)
    rep = solver.picard(ex.space, ex.map, x0, tol=args.tol, max_iter=args.max_iter)
    doc = rep.doc()
    lines = [f"{key}: {_fmt(value)}" for key, value in doc.items() if value is not None]
    return rep.status == solver.STATUS_CONVERGED, {"input": ex.id, **doc}, lines


def _make_sample(args, space) -> conditions.PairSample:
    if args.all_pairs:
        return conditions.all_pairs(space)
    if args.seed is not None:
        return conditions.random_pairs(space, args.pairs, seed=args.seed)
    return conditions.grid_pairs(space, args.pairs)


def cmd_check(args) -> tuple:
    ex = _load_input(args)
    if ex.map is None:
        raise DomainError(f"{ex.id} carries no map; check needs one")
    phi = _function(args.phi, "altering", ex.phi, "id")
    rep = args.check(args, ex.space, ex.map, phi)  # set by the condition's parser
    lines = [
        f"condition: {rep.condition}",
        f"sample: {rep.source}",
        f"checked: {rep.checked}",
        f"margin_min: {_fmt(rep.margin_min)}",
        f"passed: {_fmt(rep.passed)}",
    ]
    lines += _violation_lines(rep.violations, lambda v: "  " + " ".join(f"{k}={_fmt(val)}" for k, val in v.items()))
    return rep.passed, {"input": ex.id, **rep.doc()}, lines


def cmd_reproduce(args) -> tuple:
    rows = corpus.reproduce(args.example_id)
    lines = []
    for name, ok, detail in rows:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        lines.append(line)
    done = sum(1 for _, ok, _ in rows if ok)
    lines.append(f"{done}/{len(rows)} expectations hold")
    doc = {
        "example": args.example_id,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in rows],
    }
    return done == len(rows), doc, lines


def cmd_profile_alpha(args) -> tuple:
    if args.from_n < 2 or args.from_n > args.to_n:
        raise DomainError(f"bad range {args.from_n}..{args.to_n} (need 2 <= from <= to)")
    f = lookup_function(args.f, "generator")
    rows = alpha_divergence_profile(corpus.rect_b_family, f, (args.from_n, args.to_n))
    return True, {"f": f.name, "rows": rows}, [f"{n} {_fmt(a)}" for n, a in rows]


def _add_input_group(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", help="space file (JSON or CSV)")
    g.add_argument("--example", choices=corpus.example_ids(), help="bundled example id")
    p.add_argument("--n", type=int, help="family parameter for rect-b")
    p.add_argument("--depth", type=int, help="tail depth for oscillating-orbit")
    p.add_argument("--N", type=int, help="truncation bound for sequence-space")


def _eps_levels(text: str) -> list:
    """The --eps-grid levels: comma-separated floats, blank items skipped."""
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser() -> argparse.ArgumentParser:
    gen_names = ", ".join(g.name for g in registered_generators())
    phi_names = ", ".join(a.name for a in registered_altering())
    parser = argparse.ArgumentParser(
        prog="fmetric",
        description="Verify F-metric axioms, hunt fixed points, and check "
        "contraction conditions on finite and closed-form spaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("text", "structured"), default="text",
        help="text prints 10 significant digits; structured emits one JSON document",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="check axioms D1, D2, D3")
    _add_input_group(p)
    p.add_argument("--f", help=f"generator name ({gen_names}); default ln or the input witness")
    p.add_argument("--alpha", type=float, help="witness constant; default from the input")
    p.add_argument("--margin", type=float, default=0.0, help="slack added to every comparison")
    p.set_defaults(fn=cmd_verify, leaf=p)

    p = sub.add_parser("min-alpha", parents=[common], help="smallest admissible alpha")
    _add_input_group(p)
    p.add_argument("--f", help=f"generator name ({gen_names}); default ln or the input witness")
    p.set_defaults(fn=cmd_min_alpha, leaf=p)

    p = sub.add_parser("solve", parents=[common], help="run the fixed-point iteration")
    _add_input_group(p)
    p.add_argument("--x0", required=True, help='starting point ("0", "2", "7/3")')
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(fn=cmd_solve, leaf=p)

    p = sub.add_parser("check", help="test a contraction-style condition")
    p.set_defaults(fn=cmd_check)
    conds = p.add_subparsers(dest="condition", required=True)
    cond = argparse.ArgumentParser(add_help=False, parents=[common])
    _add_input_group(cond)
    cond.add_argument("--phi", help=f"altering distance ({phi_names}); default id or the example's")
    pairwise = argparse.ArgumentParser(add_help=False, parents=[cond])
    size = pairwise.add_mutually_exclusive_group()
    size.add_argument("--pairs", type=int, default=1000, help="sample size")
    size.add_argument("--all-pairs", action="store_true", help="use every pair of the carrier")
    pairwise.add_argument("--seed", type=int, help="draw pairs at random; omit for the deterministic grid")
    orbit = argparse.ArgumentParser(add_help=False, parents=[cond])
    orbit.add_argument("--x0", default="0", help="orbit start")
    p = conds.add_parser("edelstein", parents=[pairwise])
    p.set_defaults(leaf=p, check=lambda args, space, T, phi: conditions.edelstein_check(space, T, phi, _make_sample(args, space)))
    p = conds.add_parser("kannan", parents=[pairwise])
    p.set_defaults(leaf=p, check=lambda args, space, T, phi: conditions.kannan_check(space, T, phi, _make_sample(args, space)))
    p = conds.add_parser("orbital-kannan", parents=[orbit])
    p.add_argument("--count", type=int, default=200)
    p.set_defaults(leaf=p, check=lambda args, space, T, phi: conditions.orbital_kannan_check(
        space, T, phi, _parse_point(args.x0, space), args.count))
    p = conds.add_parser("shift", parents=[orbit])
    p.add_argument("--eps-grid", type=_eps_levels, default="0.5,0.1,0.01", help="comma-separated eps levels")
    p.add_argument("--delta-scale", type=float, default=1.0, help="delta = scale * eps")
    p.add_argument("--horizon", type=int, default=50, help="orbit length")
    p.set_defaults(leaf=p, check=lambda args, space, T, phi: conditions.shift_condition_check(
        space, T, phi, _parse_point(args.x0, space), delta_rule=lambda e: args.delta_scale * e,
        eps_grid=args.eps_grid, horizon=args.horizon))

    p = sub.add_parser("reproduce", parents=[common], help="re-derive an example's documented behavior")
    p.add_argument("example_id", choices=corpus.example_ids())
    p.set_defaults(fn=cmd_reproduce, leaf=p)

    p = sub.add_parser("profile-alpha", parents=[common], help="alpha growth across the rect-b family")
    p.add_argument("--f", default="ln", help=f"generator name ({gen_names})")
    p.add_argument("--from", dest="from_n", type=int, required=True, metavar="N")
    p.add_argument("--to", dest="to_n", type=int, required=True, metavar="N")
    p.set_defaults(fn=cmd_profile_alpha, leaf=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unread = parser.parse_known_args(argv)
        if unread:  # reported with the usage of the command invoked
            args.leaf.error(f"unrecognized arguments: {' '.join(unread)}")
        # --seed goes with --pairs, so argparse's exclusive group cannot hold it
        if getattr(args, "all_pairs", False) and args.seed is not None:
            args.leaf.error("argument --seed: not allowed with argument --all-pairs")
    except SystemExit as e:  # argparse exits itself on usage errors and --help
        return int(e.code or 0)
    try:
        with np.errstate(all="ignore"):  # an overflow or nan shows in the output, not as a warning
            passed, doc, lines = args.fn(args)
        if args.output == "structured":
            _emit_json({"command": args.command, "passed": passed, **doc})
        else:
            sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
    except BrokenPipeError:  # the reader closed stdout, say `| head`
        # what is still buffered goes to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe killed
    except (FmetricError, ValueError, OSError, MemoryError) as e:  # MemoryError: numpy refused a table
        # Python's own MemoryError, say for a carrier tuple, carries no message
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def run(argv=None) -> int:
    """main(argv), for a process that exits with its code: the console
    script and `python -m fmetric.cli` start here.

    Everything alive when main returns dies with the process, so it is
    frozen: the collections at interpreter shutdown then skip the ~22,000
    objects the imports made instead of walking them again. Shutdown is
    otherwise unchanged, so atexit handlers run and stdout and stderr are
    flushed.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
