"""Command-line interface: basis dumps, conversions, classification, and scans.

Exit codes: 0 success, 2 domain/input error, 3 numeric error.  Every JSON
output embeds a run manifest; every CSV output carries it as a leading
comment line.  Set SOURCE_DATE_EPOCH to pin the manifest timestamp when
byte-reproducible output files are required.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .antipode import antipodal_family, antipode_of_boundary
from .basis import build_basis
from .direction import direction_report, direction_reports
from .errors import DomainError, NumericError
from .sampling import (
    SamplerConfig,
    _blocks,
    _direction_block,
    _state_block,
    _tuple_block,
    sample_direction,
)
from .serialize import (
    bloch_from_dict,
    bloch_to_dict,
    format_bool,
    format_float,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
)
from .states import DEFAULT_ZERO_TOL, _check_zero_tol, from_bloch, to_bloch
from .stratification import (
    StratumReport,
    harriman_check,
    harriman_checks,
    stratum_report,
    stratum_reports,
)

STRATA_HEADER = "N,p,distance,radius_p,on_sphere,satisfied"
DIRECTION_HEADER = "N,mu_min,mu_max,max_length,cap_zero_count"
ANTIPODE_HEADER = "N,q,max_len,match"
LEMMA_HEADER = "size,sum_of_squares,bound,slack,equality"


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        moment = datetime.datetime.now(datetime.timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _manifest(args: argparse.Namespace) -> dict:
    # "out" is where the result lands, not a parameter of the computation;
    # leaving it out keeps repeat runs byte-identical wherever they write
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command", "out")
    }
    return {
        "command": args.command,
        "params": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    _write(json.dumps(payload, indent=2) + "\n", args.out)


def _csv_text(manifest: dict, header: str, rows, trailing_comments=()) -> str:
    lines = ["# manifest " + json.dumps(manifest, separators=(",", ":"))]
    lines.append(header)
    lines.extend(rows)
    lines.extend(trailing_comments)
    return "\n".join(lines) + "\n"


def _stratum_dict(report: StratumReport) -> dict:
    return {
        "dim": report.dim,
        "p": report.zero_count,
        "distance": report.distance,
        "radius_p": report.radius,
        "on_sphere": report.on_sphere,
        "satisfied": report.satisfied,
    }


def _stratum_row(report: StratumReport) -> str:
    return ",".join(
        [
            str(report.dim),
            str(report.zero_count),
            format_float(report.distance),
            format_float(report.radius),
            format_bool(report.on_sphere),
            format_bool(report.satisfied),
        ]
    )


def cmd_basis(args: argparse.Namespace) -> None:
    b = build_basis(args.dim)
    manifest = _manifest(args)
    if args.format == "json":
        elements = [
            [[float(z.real), float(z.imag)] for z in e.ravel()] for e in b.elements
        ]
        _emit_json({"manifest": manifest, "dim": b.dim, "elements": elements}, args)
        return
    header = "element," + ",".join(
        f"re_{r}_{c},im_{r}_{c}" for r in range(b.dim) for c in range(b.dim)
    )
    rows = []
    for j, e in enumerate(b.elements):
        cells = [str(j)]
        for z in e.ravel():
            cells.append(format_float(float(z.real)))
            cells.append(format_float(float(z.imag)))
        rows.append(",".join(cells))
    _write(_csv_text(manifest, header, rows), args.out)


def cmd_convert(args: argparse.Namespace) -> None:
    data = load_json(args.infile)
    manifest = _manifest(args)
    if isinstance(data, dict) and "coords" in data:
        dim, coords = bloch_from_dict(data)
        m = from_bloch(build_basis(dim), coords)
        _emit_json({"manifest": manifest, **matrix_to_dict(m)}, args)
    elif isinstance(data, dict) and ("re" in data or "im" in data):
        m = matrix_from_dict(data)
        dim = m.shape[0]
        v = to_bloch(build_basis(dim), m)
        _emit_json({"manifest": manifest, **bloch_to_dict(dim, v)}, args)
    else:
        raise DomainError("input JSON is neither a matrix nor a Bloch vector")


def cmd_classify(args: argparse.Namespace) -> None:
    m = matrix_from_dict(load_json(args.infile))
    report = stratum_report(m, zero_tol=args.zero_tol)
    if args.format == "csv":
        _write(_csv_text(_manifest(args), STRATA_HEADER, [_stratum_row(report)]), args.out)
        return
    _emit_json({"manifest": _manifest(args), **_stratum_dict(report)}, args)


def cmd_strata_scan(args: argparse.Namespace) -> None:
    n = args.dim
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if args.count < 0:
        raise DomainError(f"count must be >= 0, got {args.count}")
    rows: list[str] = []
    comments: list[str] = []
    for rank in range(1, n + 1):
        config = SamplerConfig(seed=args.seed, dim=n, rank=rank, count=args.count)
        min_slack = None
        for stack in _blocks(args.count, lambda idx: _state_block(config, idx)):
            for report in stratum_reports(stack, zero_tol=args.zero_tol):
                rows.append(_stratum_row(report))
                slack = report.distance - report.radius
                if min_slack is None or slack < min_slack:
                    min_slack = slack
        if min_slack is not None:
            comments.append(f"# min_slack rank={rank} {format_float(min_slack)}")
    _write(_csv_text(_manifest(args), STRATA_HEADER, rows, comments), args.out)


def _direction_dict(dim: int, report) -> dict:
    return {
        "dim": dim,
        "direction": report.direction.tolist(),
        "mu": report.mu.tolist(),
        "max_length": report.max_length,
        "cap_state_class": report.cap_state_class.label,
        "cap_zero_count": report.cap_zero_count,
    }


def cmd_direction(args: argparse.Namespace) -> None:
    n = args.dim
    basis = build_basis(n)
    manifest = _manifest(args)
    if args.vector is not None:
        file_dim, coords = bloch_from_dict(load_json(args.vector))
        if file_dim != n:
            raise DomainError(
                f"--dim {n} does not match the vector file dimension {file_dim}"
            )
        report = direction_report(basis, coords, zero_tol=args.zero_tol)
        _emit_json({"manifest": manifest, **_direction_dict(n, report)}, args)
        return
    if args.seed is None:
        raise DomainError("direction requires --vector FILE or --seed S")
    if args.scan is None:
        v = sample_direction(args.seed, n * n - 1, 0)
        report = direction_report(basis, v, zero_tol=args.zero_tol)
        _emit_json({"manifest": manifest, **_direction_dict(n, report)}, args)
        return
    if args.scan < 0:
        raise DomainError(f"--scan must be >= 0, got {args.scan}")
    rows = []
    for stack in _blocks(args.scan, lambda idx: _direction_block(args.seed, n * n - 1, idx)):
        for r in direction_reports(basis, stack, zero_tol=args.zero_tol):
            rows.append(
                ",".join(
                    [
                        str(n),
                        format_float(float(r.mu[-1])),
                        format_float(float(r.mu[0])),
                        format_float(r.max_length),
                        str(r.cap_zero_count),
                    ]
                )
            )
    _write(_csv_text(manifest, DIRECTION_HEADER, rows), args.out)


def cmd_antipode(args: argparse.Namespace) -> None:
    if args.table:
        if args.max_dim is None:
            raise DomainError("--table requires --max-dim M")
        ignored = [f"--{k}" for k in ("dim", "q", "length") if getattr(args, k) is not None]
        if ignored:
            raise DomainError(f"--table does not take {', '.join(ignored)}")
        if args.max_dim < 2:
            raise DomainError(f"--max-dim must be >= 2, got {args.max_dim}")
        rows = []
        for n in range(2, args.max_dim + 1):
            for q in range(1, n):
                rep = antipode_of_boundary(n, q)
                rows.append(
                    ",".join(
                        [
                            str(n),
                            str(q),
                            format_float(rep.max_antipodal_length),
                            format_bool(rep.matches_complement),
                        ]
                    )
                )
        _write(_csv_text(_manifest(args), ANTIPODE_HEADER, rows), args.out)
        return
    if args.dim is None or args.q is None:
        raise DomainError("antipode requires --dim N and --q Q (or --table --max-dim M)")
    if args.max_dim is not None:
        raise DomainError("--max-dim requires --table")
    rep = antipode_of_boundary(args.dim, args.q)
    payload = {
        "manifest": _manifest(args),
        "dim": args.dim,
        "q": rep.rank,
        "max_antipodal_length": rep.max_antipodal_length,
        "direction_state": matrix_to_dict(rep.direction_state),
        "antipodal_cap": matrix_to_dict(rep.antipodal_cap),
        "matches_R_p": rep.matches_complement,
    }
    if args.length is not None:
        state, cls = antipodal_family(args.dim, args.q, args.length)
        payload["family_length"] = args.length
        payload["family_state"] = matrix_to_dict(state)
        payload["family_class"] = cls.label
    _emit_json(payload, args)


def cmd_lemma(args: argparse.Namespace) -> None:
    if args.tuples is not None:
        data = load_json(args.tuples)
        if not isinstance(data, list) or not all(isinstance(t, list) for t in data):
            raise DomainError("tuple file must contain a JSON list of lists of reals")
        # tuples from a file may differ in length, so each is one check
        checked = [(len(t), harriman_check(t)) for t in data]
    else:
        if args.seed is None or args.count is None or args.size is None:
            raise DomainError("lemma requires --tuples FILE or --count K --size n --seed S")
        if args.count < 0:
            raise DomainError(f"count must be >= 0, got {args.count}")
        checked = [
            (args.size, res)
            for stack in _blocks(args.count, lambda idx: _tuple_block(args.seed, args.size, idx))
            for res in harriman_checks(stack)
        ]
    rows = [
        ",".join(
            [
                str(size),
                format_float(res.sum_of_squares),
                format_float(res.bound),
                format_float(res.slack),
                format_bool(res.equality),
            ]
        )
        for size, res in checked
    ]
    _write(_csv_text(_manifest(args), LEMMA_HEADER, rows), args.out)


def cmd_sample(args: argparse.Namespace) -> None:
    config = SamplerConfig(seed=args.seed, dim=args.dim, rank=args.rank, count=args.count)
    manifest = _manifest(args)
    stacks = _blocks(config.count, lambda idx: _state_block(config, idx))
    if args.format == "json":
        states = [matrix_to_dict(rho) for stack in stacks for rho in stack]
        _emit_json({"manifest": manifest, "states": states}, args)
        return
    rows = [
        _stratum_row(report)
        for stack in stacks
        for report in stratum_reports(stack, zero_tol=args.zero_tol)
    ]
    _write(_csv_text(manifest, STRATA_HEADER, rows), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochstrata",
        description=(
            "Bloch-vector geometry of N x N density matrices: orthonormal "
            "traceless bases, state/vector conversion, stratification of "
            "boundary states by concentric spheres, per-direction admissible "
            "lengths, and antipodal boundary states."
        ),
        epilog=(
            "Exit codes: 0 success, 2 domain/input error, 3 numeric error. "
            "Set SOURCE_DATE_EPOCH to pin the manifest timestamp for "
            "byte-reproducible output files."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    # only the commands that count zero eigenvalues take --zero-tol
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--zero-tol",
        type=float,
        default=DEFAULT_ZERO_TOL,
        metavar="T",
        help="absolute tolerance for zero eigenvalues (default 1e-9)",
    )

    p = sub.add_parser("basis", parents=[common], help="dump a basis as JSON or CSV")
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_basis)

    p = sub.add_parser(
        "convert", parents=[common], help="convert matrix JSON <-> Bloch vector JSON"
    )
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser(
        "classify", parents=[common, tol], help="stratum report of a density matrix file"
    )
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "strata-scan",
        parents=[common, tol],
        help="sample states of every rank and report distances vs. sphere radii",
    )
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--count", type=int, required=True, metavar="M", help="samples per rank")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.set_defaults(handler=cmd_strata_scan)

    p = sub.add_parser(
        "direction",
        parents=[common, tol],
        help="mu-spectrum, admissible length, and cap state of a direction",
    )
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--vector", metavar="FILE", help="unit direction as Bloch-vector JSON")
    p.add_argument("--seed", type=int, metavar="S", help="sample the direction instead")
    p.add_argument("--scan", type=int, metavar="K", help="emit a CSV scan of K directions")
    p.set_defaults(handler=cmd_direction)

    p = sub.add_parser(
        "antipode",
        parents=[common],
        help="maximal antipodal state of a boundary state R(q)",
    )
    p.add_argument("--dim", type=int, metavar="N")
    p.add_argument("--q", type=int, metavar="Q", help="number of equal nonzero eigenvalues")
    p.add_argument("--length", type=float, metavar="R", help="also emit the state at this length")
    p.add_argument("--table", action="store_true", help="CSV table over all (N, q)")
    p.add_argument("--max-dim", type=int, metavar="M", help="largest N for --table")
    p.set_defaults(handler=cmd_antipode)

    p = sub.add_parser(
        "lemma",
        parents=[common],
        help="sum-of-squares lower bound checks for unit-sum tuples",
    )
    p.add_argument("--tuples", metavar="FILE", help="JSON list of unit-sum tuples")
    p.add_argument("--count", type=int, metavar="K", help="number of random tuples")
    p.add_argument("--size", type=int, metavar="n", help="entries per random tuple")
    p.add_argument("--seed", type=int, metavar="S")
    p.set_defaults(handler=cmd_lemma)

    p = sub.add_parser(
        "sample", parents=[common, tol], help="sample rank-constrained density matrices"
    )
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--rank", type=int, required=True, metavar="K")
    p.add_argument("--count", type=int, required=True, metavar="M")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked before the handler runs, so no count, format or early exit skips it
        if hasattr(args, "zero_tol"):
            _check_zero_tol(args.zero_tol)
        args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
