"""Command-line interface: basis dumps, conversions, classification, and scans.

Each cmd_* handler returns its output and writes nothing: a JSON payload as a
dict, or a CSV header and its blocks of lines.  main reads the run manifest
once, before the handler runs, puts it first in a JSON output or as the
leading comment line of a CSV one, and writes the text once.  Exit codes: 0
success, 2 domain/input error or a failed write, 3 numeric error.  Set
SOURCE_DATE_EPOCH to pin the manifest timestamp when byte-reproducible output
files are required.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import astuple, replace
from itertools import chain, islice, repeat

import numpy as np

from . import __version__
from .antipode import antipodal_family, antipode_of_boundary
from .basis import _read_only, build_basis
from .direction import _direction_columns, direction_report
from .errors import DomainError, NumericError, _integer, _real, _shown
from .sampling import (
    SamplerConfig,
    _blocks,
    _direction_block,
    _state_block,
    _tuple_block,
    sample_direction,
    sample_states,
)
from .serialize import (
    bloch_from_dict,
    bloch_to_dict,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
)
from .states import DEFAULT_ZERO_TOL, from_bloch, to_bloch
from .stratification import (
    _harriman_columns,
    _stratum_columns,
    _tuple,
    stratum_radius,
    stratum_report,
)

STRATA_HEADER = "N,p,distance,radius_p,on_sphere,satisfied"
DIRECTION_HEADER = "N,mu_min,mu_max,max_length,cap_zero_count"
ANTIPODE_HEADER = "N,q,max_len,match"
LEMMA_HEADER = "size,sum_of_squares,bound,slack,equality"

# %.17g writes a float with full round-trip precision; a bool cell is a _CSV_BOOL entry.
# A strata row is written from _strata_cells, which split this one around its distance.
_STRATA_ROW = "%d,%d,%.17g,%.17g,%s,%s"
_DIRECTION_ROW = "%d,%.17g,%.17g,%.17g,%d"
_ANTIPODE_ROW = "%d,%d,%.17g,%s"
_LEMMA_ROW = "%d,%.17g,%.17g,%.17g,%s"
_CSV_BOOL = ("false", "true")
_BOOL_CELLS = np.array(_CSV_BOOL, dtype=object)
# the JSON keys of the fields of a StratumReport, in order
_STRATUM_KEYS = ("dim", "p", "distance", "radius_p", "on_sphere", "satisfied")


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = datetime.datetime.now(datetime.timezone.utc)
    else:
        try:  # not an integer, or past the platform's time_t or datetime's years
            moment = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise DomainError(
                f"SOURCE_DATE_EPOCH must be integer seconds since 1970 in the date range, "
                f"got {_shown(epoch)}"
            ) from None
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
    """Write text to the file out, or to standard output if out is None: the CLI's one write.

    An OSError from the open, the write or the flush on closing (a missing
    directory, no permission, a full disk, a closed pipe) is a DomainError.
    The target is left as the failure left it: a file may hold part of text.
    Standard output takes the bytes through its binary layer, which may write
    short when unbuffered (PYTHONUNBUFFERED); one with none, such as an
    io.StringIO under contextlib.redirect_stdout, takes the text.
    """
    try:
        if out is None:
            binary = getattr(sys.stdout, "buffer", None)
            if binary is None:
                sys.stdout.write(text)
            else:
                data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
                sys.stdout.flush()  # what the text layer holds goes first
                while data:
                    data = data[binary.write(data):]
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:  # what stdout still holds goes nowhere, not to a failing flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "standard output" if out is None else _shown(out, path=True)
        raise DomainError(f"cannot write {where}: {exc}") from exc


# The table costs about as much as 30 to 40 float reprs, whatever the size, so a
# smaller matrix is written row by row: the two ways break even at about 8 x 8
# for one part of a Hermitian matrix.
_TABLE_ENTRIES = 64


def _finite_floats(items) -> bool:
    """Whether every item is a finite float of exact type float (np.float64 is not)."""
    return set(map(type, items)) == {float} and all(map(math.isfinite, items))


def _float_rows(rows, pad: str) -> list[str] | None:
    """The JSON text of each row of a matrix, float.__repr__ called once per magnitude.

    A matrix is a list of non-empty lists of finite floats, with at least
    _TABLE_ENTRIES entries; for any other rows this returns None.  A density
    matrix is Hermitian, so its real part is symmetric and its imaginary part
    antisymmetric: about half its entries repeat a magnitude.  repr(-x) is
    "-" + repr(x) for x >= 0, -0.0 included, so each entry is looked up in a
    table of the distinct magnitudes' texts and their negations.
    """
    if not (set(map(type, rows)) <= {list, tuple} and all(rows)):
        return None
    entries = list(chain.from_iterable(rows))
    if len(entries) < _TABLE_ENTRIES or not _finite_floats(entries):
        return None
    flat = np.array(entries)
    magnitudes, where = np.unique(np.abs(flat), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.tolist()))
    table = texts + ["-" + text for text in texts]
    cells = map(table.__getitem__, (where + len(texts) * np.signbit(flat)).tolist())
    inner = pad + "  "
    return ["[" + inner + ("," + inner).join(islice(cells, len(row))) + pad + "]" for row in rows]


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte; pad is the newline and indent of value's line.

    With indent set, json.dumps takes its pure-Python encoder (CPython < 3.14).
    Here a dict of str keys and a non-empty list or tuple are written item by
    item, a list of finite floats with one join of float.__repr__ (what json
    writes for a float), a large enough matrix of such floats from one table
    of texts (_float_rows), and every other value by json.dumps itself.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (json.dumps(key) + ": " + _json_text(item, inner) for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if _finite_floats(value):
            items = map(float.__repr__, value)
        else:
            items = _float_rows(value, inner) or (_json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    # a scalar, an empty container or non-str keys; a non-finite float is NaN or Infinity
    return json.dumps(value, indent=2).replace("\n", pad)


def _rows(template: str, *columns) -> str:
    """The CSV lines of a block, one per item: template filled from the columns.

    A column is an array with one cell per line (a bool array gives its
    _CSV_BOOL text), or one value that every line repeats.  Each line is
    its own small %: one % over a template repeated for the whole block was
    no faster end to end, and its large buffers fragmented the heap of a
    long-running process.
    """
    cells = [
        (_BOOL_CELLS.take(c) if c.dtype == bool else c).tolist()
        if isinstance(c, np.ndarray) else repeat(c)
        for c in columns
    ]
    return "".join(map((template + "\n").__mod__, zip(*cells)))


def _reject_ignored(args: argparse.Namespace, form: str, names) -> None:
    """DomainError naming the options of names that the chosen form would ignore."""
    ignored = [f"--{name}" for name in names if getattr(args, name) is not None]
    if ignored:
        raise DomainError(f"{form} does not take {', '.join(ignored)}")


def _scan(header, parts, columns, rows, tally=None, count_name="count") -> tuple[str, list]:
    """A CSV scan, the CLI's one block loop: (header, its blocks of rows, then its notes).

    A part is (count, draw, note); each block of its indices goes draw(indices)
    -> columns(stack) -> rows(*columns) (see sampling._blocks).  With a tally,
    the part's note line is note % the least tally(*columns) of its blocks.
    main writes the scan once every block is done.  A negative count is a
    DomainError, raised after the empty draw that checks the draw's arguments.
    """
    blocks, notes = [], []
    for count, draw, note in parts:
        least = math.inf
        for stack in _blocks(count, draw):
            cells = columns(stack)
            blocks.append(rows(*cells))
            if tally is not None:
                least = min(least, tally(*cells))
        _integer(count, count_name, 0)
        if tally is not None:
            notes.append(note % least)
    return header, blocks + notes


@functools.lru_cache(maxsize=64)
def _strata_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The texts of a strata row at dimension n around its distance, read-only.

    heads[p] is "N,p," and tails[4p + 2 on_sphere + satisfied] is
    ",r_p,on_sphere,satisfied" and the newline, as _STRATA_ROW writes them,
    for p = 0..n-1 (r_p = 0 at p = 0); only the distance varies by row.
    """
    radii = [stratum_radius(n, p) if p else 0.0 for p in range(n)]
    heads = np.array(["%d,%d," % (n, p) for p in range(n)], dtype=object)
    tails = np.array(
        [",%.17g,%s,%s\n" % (r, on, ok) for r in radii for on in _CSV_BOOL for ok in _CSV_BOOL],
        dtype=object,
    )
    return _read_only(heads, tails)


def _strata_rows(n, zeros, distance, radius, on_sphere, satisfied) -> str:
    """The CSV lines of _stratum_columns' columns: each formats its distance alone.

    The radius of a row is a function of (N, p), so its text comes from
    _strata_cells with N and p, not from the radius column.
    """
    heads, tails = _strata_cells(n)
    cells = heads.take(zeros).tolist(), distance.tolist()
    tail = tails.take(4 * zeros + 2 * on_sphere + satisfied).tolist()
    return "".join(map("%s%.17g%s".__mod__, zip(*cells, tail)))


def _least_slack(n, zeros, distance, radius, on_sphere, satisfied) -> float:
    """The least distance - radius of _stratum_columns' columns: strata-scan's tally."""
    return (distance - radius).min()


def _direction_rows(directions, mu, max_length, smallest, cap_zero_count, zero_tol) -> str:
    """The CSV lines of _direction_columns' columns."""
    return _rows(_DIRECTION_ROW, mu.shape[1], mu[:, -1], mu[:, 0], max_length, cap_zero_count)


def _file_tuple(values, indices) -> np.ndarray:
    """The one-item stack of a --tuples file's tuple, a part of its own."""
    return _tuple(values)[None]


def cmd_basis(args: argparse.Namespace) -> dict | tuple[str, list]:
    b = build_basis(args.dim)
    # one row per element: the real and the imaginary part of each entry, row-major
    cells = np.stack((b.elements.real, b.elements.imag), axis=-1).reshape(len(b), -1)
    if args.format == "json":
        return {"dim": b.dim, "elements": cells.reshape(len(b), -1, 2).tolist()}
    header = "element," + ",".join(
        f"re_{r}_{c},im_{r}_{c}" for r in range(b.dim) for c in range(b.dim)
    )
    return header, [_rows("%d" + ",%.17g" * cells.shape[1], np.arange(len(b)), *cells.T)]


def cmd_convert(args: argparse.Namespace) -> dict:
    data = load_json(args.infile)
    if isinstance(data, dict) and "coords" in data:
        dim, coords = bloch_from_dict(data)
        return matrix_to_dict(from_bloch(build_basis(dim), coords))
    if isinstance(data, dict) and ("re" in data or "im" in data):
        m = matrix_from_dict(data)
        dim = m.shape[0]
        return bloch_to_dict(dim, to_bloch(build_basis(dim), m))
    raise DomainError("input JSON is neither a matrix nor a Bloch vector")


def cmd_classify(args: argparse.Namespace) -> dict | tuple[str, list]:
    m = matrix_from_dict(load_json(args.infile))
    if args.format == "csv":
        return STRATA_HEADER, [_strata_rows(*_stratum_columns(m[None], args.zero_tol))]
    return dict(zip(_STRATUM_KEYS, astuple(stratum_report(m, zero_tol=args.zero_tol))))


def cmd_strata_scan(args: argparse.Namespace) -> tuple[str, list]:
    # rank 1 fits every dimension: this checks seed, dimension and count before the ranks,
    # of which a count of 0 takes none, as no rank could add a row
    config = SamplerConfig(seed=args.seed, dim=args.dim, rank=1, count=args.count)
    ranks = range(1, config.dim + 1) if config.count else ()
    parts = [
        (config.count, functools.partial(_state_block, replace(config, rank=k)),
         f"# min_slack rank={k} %.17g\n") for k in ranks
    ]
    columns = functools.partial(_stratum_columns, zero_tol=args.zero_tol)
    return _scan(STRATA_HEADER, parts, columns, _strata_rows, tally=_least_slack)


def cmd_direction(args: argparse.Namespace) -> dict | tuple[str, list]:
    n = args.dim
    basis = build_basis(n)
    if args.vector is not None:
        _reject_ignored(args, "--vector", ("seed", "scan"))
        file_dim, v = bloch_from_dict(load_json(args.vector))
        if file_dim != n:
            raise DomainError(
                f"--dim {n} does not match the vector file dimension {file_dim}"
            )
    elif args.seed is None:
        raise DomainError("direction requires --vector FILE or --seed S")
    elif args.scan is None:
        v = sample_direction(args.seed, n * n - 1, 0)
    else:
        draw = functools.partial(_direction_block, args.seed, n * n - 1)
        columns = functools.partial(_direction_columns, basis, zero_tol=args.zero_tol)
        parts = [(args.scan, draw, None)]
        return _scan(DIRECTION_HEADER, parts, columns, _direction_rows, count_name="--scan")
    report = direction_report(basis, v, zero_tol=args.zero_tol)
    return {
        "dim": n,
        "direction": report.direction.tolist(),
        "mu": report.mu.tolist(),
        "max_length": report.max_length,
        "cap_state_class": report.cap_state_class.label,
        "cap_zero_count": report.cap_zero_count,
    }


def cmd_antipode(args: argparse.Namespace) -> dict | tuple[str, list]:
    if args.table:
        if args.max_dim is None:
            raise DomainError("--table requires --max-dim M")
        _reject_ignored(args, "--table", ("dim", "q", "length"))
        _integer(args.max_dim, "--max-dim", 2)
        rows = []
        for n in range(2, args.max_dim + 1):
            for q in range(1, n):
                rep = antipode_of_boundary(n, q)
                values = (n, q, rep.max_antipodal_length, _CSV_BOOL[rep.matches_complement])
                rows.append(_ANTIPODE_ROW % values + "\n")
        return ANTIPODE_HEADER, rows
    if args.dim is None or args.q is None:
        raise DomainError("antipode requires --dim N and --q Q (or --table --max-dim M)")
    if args.max_dim is not None:
        raise DomainError("--max-dim requires --table")
    rep = antipode_of_boundary(args.dim, args.q)
    payload = {
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
    return payload


def cmd_lemma(args: argparse.Namespace) -> tuple[str, list]:
    if args.tuples is not None:
        _reject_ignored(args, "--tuples", ("count", "size", "seed"))
        data = load_json(args.tuples)
        if not isinstance(data, list) or not all(isinstance(t, list) for t in data):
            raise DomainError("tuple file must contain a JSON list of lists of reals")
        # tuples from a file may differ in length, so each is a part
        parts = [(1, functools.partial(_file_tuple, t), None) for t in data]
    else:
        if args.seed is None or args.count is None or args.size is None:
            raise DomainError("lemma requires --tuples FILE or --count K --size n --seed S")
        parts = [(args.count, functools.partial(_tuple_block, args.seed, args.size), None)]
    return _scan(LEMMA_HEADER, parts, _harriman_columns, functools.partial(_rows, _LEMMA_ROW))


def cmd_sample(args: argparse.Namespace) -> dict | tuple[str, list]:
    config = SamplerConfig(seed=args.seed, dim=args.dim, rank=args.rank, count=args.count)
    if args.format == "json":
        return {"states": [matrix_to_dict(rho) for rho in sample_states(config)]}
    parts = [(config.count, functools.partial(_state_block, config), None)]
    columns = functools.partial(_stratum_columns, zero_tol=args.zero_tol)
    return _scan(STRATA_HEADER, parts, columns, _strata_rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    parse_args leaves the parser as it was, and no argument has a mutable
    default.  Each subcommand's handler is bound when the parser is built, so
    patching a cmd_* function after the first main call has no effect.
    """
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
            _real(args.zero_tol, "zero_tol", positive=True)
        # read before the handler runs, so a bad SOURCE_DATE_EPOCH fails every command first
        manifest = _manifest(args)
        output = args.handler(args)  # a JSON payload, or a CSV header and its blocks of lines
        if isinstance(output, dict):
            text = _json_text({"manifest": manifest, **output}) + "\n"
        else:
            header, blocks = output
            head = "# manifest " + json.dumps(manifest, separators=(",", ":"))
            text = "\n".join((head, header, "".join(blocks)))
        _write(text, args.out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
