"""Command-line interface: basis dumps, conversions, classification, and scans.

Each cmd_* handler returns its output and writes nothing: a JSON payload as a
dict, or a CSV header and its blocks of lines.  Every output of many items is a
scan, which draws its blocks as main joins them: a CSV one's lines, or a JSON
list that is a payload value.  A scan's blocks are a _Scan, which also holds a
record of what each part of the scan did, whole once main has joined them; main
writes no record.  main reads the run manifest once, before the handler runs,
puts it first in a JSON output or as the leading comment line of a CSV one, and
writes the text once.
Exit codes: 0 success, 2 domain/input error or a failed write, 3 numeric error.
Set SOURCE_DATE_EPOCH to pin the manifest timestamp when byte-reproducible
output files are required.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import functools
import json
import os
import sys
from dataclasses import astuple, dataclass, replace
from itertools import chain, groupby, repeat
from operator import attrgetter
from time import perf_counter
from typing import Iterator

import numpy as np

from . import __version__
from .antipode import antipodal_family, antipode_of_boundary
from .basis import _read_only, _traceless_part, build_basis
from .direction import _direction_columns, direction_report
from .errors import DomainError, NumericError, _integer, _real, _shown, _zeros
from .sampling import (
    SamplerConfig,
    _blocks,
    _direction_block,
    _state_block,
    _tuple_block,
    sample_direction,
)
from .serialize import _bloch_payload, _matrix_payload, bloch_from_dict, load_json, matrix_from_dict
from .states import DEFAULT_ZERO_TOL, from_bloch, to_bloch
from .stratification import (
    _harriman_columns,
    _stratum_columns,
    _tuples,
    stratum_radius,
    stratum_report,
)

STRATA_HEADER = "N,p,distance,radius_p,on_sphere,satisfied"
DIRECTION_HEADER = "N,mu_min,mu_max,max_length,cap_zero_count"
ANTIPODE_HEADER = "N,q,max_len,match"
LEMMA_HEADER = "size,sum_of_squares,bound,slack,equality"

# %.17g writes a float with full round-trip precision; a bool cell is a _CSV_BOOL entry.
# A strata row is written from _strata_cells: this one, split at its distance.
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
    io.StringIO under contextlib.redirect_stdout, takes the text.  A closed
    descriptor 1 at startup leaves sys.stdout None: a bad file descriptor.
    """
    try:
        if out is None:
            if sys.stdout is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
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
        # what stdout still holds goes nowhere, not to a failing flush at exit
        if out is None and sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "standard output" if out is None else _shown(out, path=True)
        raise DomainError(f"cannot write {where}: {exc}") from exc


def _float_rows(a: np.ndarray, pad: str) -> list[str]:
    """The JSON text of each row of a non-empty, finite 2-D float array, float.__repr__
    called once per magnitude.

    A density matrix is Hermitian, so its real part is symmetric and its
    imaginary part antisymmetric: about half its entries repeat a magnitude.
    repr(-x) is "-" + repr(x) for x >= 0, -0.0 included, so each entry is
    looked up in a table of the distinct magnitudes' texts and their negations.
    """
    flat = a.ravel()
    magnitudes, where = np.unique(np.abs(flat), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.tolist()))
    table = np.array(texts + ["-" + text for text in texts], dtype=object)
    cells = table.take(where + len(texts) * np.signbit(flat)).reshape(a.shape).tolist()
    inner = pad + "  "
    return ["[" + inner + ("," + inner).join(row) + pad + "]" for row in cells]


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, where each array is its .tolist(); pad is
    the newline and indent of value's line.

    With indent set, json.dumps takes its pure-Python encoder (CPython < 3.14).
    Here a dict of str keys and a non-empty list or tuple are written item by
    item, and a non-empty, finite float64 array of one or two axes as numpy
    made it: a 1-D one with one join of float.__repr__ (what json writes for
    a float), a 2-D one from one table of texts (_float_rows).  Any other
    array is written as its .tolist(), and every other value by json.dumps
    itself, with each array in it as its .tolist().  A _Scan is the list of its
    blocks' texts, each written at the pad of an item of a list that is a
    top-level payload value (_json_items), or [] if it had no items.
    """
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        if value.dtype == float and value.ndim in (1, 2) and value.size and np.isfinite(value).all():
            if value.ndim == 1:
                items = map(float.__repr__, value.tolist())
            else:
                items = _float_rows(value, inner)
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        value = value.tolist()
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (json.dumps(key) + ": " + _json_text(item, inner) for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        items = (_json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, _Scan):  # one expression: no local holds a third copy of the text
        text = "[" + inner + ("," + inner).join(value) + pad + "]"
        return text if any(part.items for part in value.records) else "[]"
    # a scalar, an empty container or non-str keys; a non-finite float is NaN or Infinity
    return json.dumps(value, indent=2, default=np.ndarray.tolist).replace("\n", pad)


def _json_items(*items) -> str:
    """The JSON text of a JSON scan's block, its items at the pad of an item of a list
    that is a top-level payload value, as _json_text joins a _Scan's blocks."""
    return ",\n    ".join(_json_text(item, "\n    ") for item in items)


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


@dataclass
class _Part:
    """What _scan did in one part of a scan: its items and blocks, the perf_counter
    seconds spent drawing (inside next() on sampling._blocks), in columns and in rows,
    and the least summary of its blocks' columns (None without a summary)."""

    items: int = 0
    blocks: int = 0
    draw_s: float = 0.0
    columns_s: float = 0.0
    rows_s: float = 0.0
    summary: object = None


@dataclass
class _Scan:
    """A scan's texts, each block drawn as they are iterated, and its records: one
    _Part per part, filled as its blocks are drained, so whole once the texts are."""

    texts: Iterator[str]
    records: list[_Part]

    def __iter__(self) -> Iterator[str]:
        return self.texts


def _count(count, draw, name: str) -> int:
    """count checked as name, >= 0; one <= 0 first draws range(0): it fails as a count of 1 would."""
    if count <= 0:
        draw(range(0))
    return _integer(count, name, 0)


def _scan(parts, columns, rows, summary=None) -> _Scan:
    """A scan, the CLI's one block loop: its texts yield each block's rows when done.

    A part is (count, draw, item_bytes), its count an int >= 0; each block of its indices
    (sampling._blocks sizes it from item_bytes) goes draw(indices) -> columns(stack) ->
    rows(*columns), and the part's record counts the block and adds the seconds of each
    stage.  With a summary the record keeps the least summary(*columns) of the part's
    blocks, timed with the columns.  main joins the texts into its one write: a CSV
    output's lines, or a JSON list that is a payload value (_json_text).
    """
    records = [_Part() for _ in parts]

    def texts():
        for (count, draw, item_bytes), record in zip(parts, records):
            start = perf_counter()
            for indices, stack in _blocks(count, draw, item_bytes):
                drawn = perf_counter()
                cells = columns(stack)
                if summary is not None:
                    value = summary(*cells)
                    record.summary = value if record.summary is None else min(record.summary, value)
                made = perf_counter()
                text = rows(*cells)
                done = perf_counter()
                record.items += len(indices)
                record.blocks += 1
                record.draw_s += drawn - start
                record.columns_s += made - drawn
                record.rows_s += done - made
                yield text
                start = perf_counter()
            record.draw_s += perf_counter() - start  # the next() that ends the blocks

    return _Scan(texts(), records)


@functools.lru_cache(maxsize=64)
def _strata_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The texts of a strata row at dimension n around its distance, read-only.

    heads[p] is "N,p," and tails[4p + 2 on_sphere + satisfied] is ",r_p,on_sphere,satisfied":
    _STRATA_ROW split at its distance and filled for p = 0..n-1 (r_p = 0 at p = 0).
    """
    head, tail = _STRATA_ROW.split("%.17g", 1)
    radii = [stratum_radius(n, p) if p else 0.0 for p in range(n)]
    heads = np.array([head % (n, p) for p in range(n)], dtype=object)
    tails = np.array(
        [tail % (r, on, ok) for r in radii for on in _CSV_BOOL for ok in _CSV_BOOL], dtype=object
    )
    return _read_only(heads, tails)


def _strata_rows(n, zeros, distance, radius, on_sphere, satisfied) -> str:
    """The CSV lines of _stratum_columns' columns: each formats its distance alone.

    The radius of a row is a function of (N, p), so its text comes from
    _strata_cells with N and p, not from the radius column.
    """
    heads, tails = _strata_cells(n)
    return _rows("%s%.17g%s", heads[zeros], distance, tails[4 * zeros + 2 * on_sphere + satisfied])


def _least_slack(n, zeros, distance, radius, on_sphere, satisfied) -> float:
    """The least distance - radius of _stratum_columns' columns: strata-scan's summary.

    The radius is r_p, but satisfied compares the distance with d_min(zero_tol)
    (stratification._min_distance), which is below r_p.  So the least slack is above
    -1e-9 only where that relaxation does not act, as at the default zero_tol; at
    zero_tol 0.2, N = 3, it can read -0.225 on rows that all satisfy.
    """
    return (distance - radius).min()


def _direction_rows(directions, mu, max_length, smallest, cap_zero_count, zero_tol) -> str:
    """The CSV lines of _direction_columns' columns."""
    return _rows(_DIRECTION_ROW, mu.shape[1], mu[:, -1], mu[:, 0], max_length, cap_zero_count)


def _basis_block(n: int, indices: range) -> tuple[np.ndarray, np.ndarray]:
    """(indices, cells) of the basis elements indices: row r of cells holds element
    indices[r], the real and the imaginary part of each entry, row-major.  An element is
    the one builder of T_n applied to a row of the identity, BasisSet.elements bit for bit,
    and its cells are its complex entries read as floats, not a copy."""
    t = _traceless_part(np.eye(len(indices), n * n - 1, k=indices.start), n)
    return np.array(indices), t.view(float).reshape(len(indices), -1)


def cmd_basis(args: argparse.Namespace) -> dict | tuple[str, _Scan]:
    n = build_basis(args.dim).dim
    # a dump fails where its dense tensor cannot be had, before any header text or block is
    # built; np.zeros leaves the pages it gets untouched, and the tensor is dropped at once
    _zeros((n * n - 1, n, n), f"basis tensor of dimension {n}", complex)
    parts = [(n * n - 1, functools.partial(_basis_block, n), 16 * n**2)]
    if args.format == "json":  # an element is its N**2 x 2 cells
        return {"dim": n, "elements": _scan(parts, lambda b: b[1].reshape(-1, n * n, 2), _json_items)}
    header = "element," + ",".join(f"re_{r}_{c},im_{r}_{c}" for r in range(n) for c in range(n))
    rows = functools.partial(_rows, "%d" + ",%.17g" * (2 * n * n))
    # the columns of a block: the element index, then each cell
    return header, _scan(parts, lambda b: (b[0], *b[1].T), rows)


def cmd_convert(args: argparse.Namespace) -> dict:
    data = load_json(args.infile)
    if isinstance(data, dict) and "coords" in data:
        dim, coords = bloch_from_dict(data)
        return _matrix_payload(from_bloch(build_basis(dim), coords))
    if isinstance(data, dict) and ("re" in data or "im" in data):
        m = matrix_from_dict(data)
        dim = m.shape[0]
        return _bloch_payload(dim, to_bloch(build_basis(dim), m))
    raise DomainError("input JSON is neither a matrix nor a Bloch vector")


def cmd_classify(args: argparse.Namespace) -> dict | tuple[str, _Scan]:
    m = matrix_from_dict(load_json(args.infile))
    if args.format == "csv":
        columns = functools.partial(_stratum_columns, zero_tol=args.zero_tol)
        return STRATA_HEADER, _scan([(1, lambda indices: m[None], m.nbytes)], columns, _strata_rows)
    return dict(zip(_STRATUM_KEYS, astuple(stratum_report(m, zero_tol=args.zero_tol))))


def cmd_strata_scan(args: argparse.Namespace) -> tuple[str, _Scan]:
    # rank 1 fits every dimension: this checks seed, dimension and count before the ranks,
    # of which a count of 0 takes none, as no rank could add a row
    config = SamplerConfig(seed=args.seed, dim=args.dim, rank=1, count=args.count)
    ranks = range(1, config.dim + 1) if config.count else ()
    draws = [functools.partial(_state_block, replace(config, rank=k)) for k in ranks]
    parts = [(config.count, draw, 16 * config.dim**2) for draw in draws]
    columns = functools.partial(_stratum_columns, zero_tol=args.zero_tol)
    scan = _scan(parts, columns, _strata_rows, summary=_least_slack)
    # rank k's note is rendered from the k-th record, when the rows are drained and it is whole
    notes = ("# min_slack rank=%d %.17g\n" % (k, r.summary) for k, r in enumerate(scan.records, 1))
    return STRATA_HEADER, replace(scan, texts=chain(scan.texts, notes))


def cmd_direction(args: argparse.Namespace) -> dict | tuple[str, _Scan]:
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
        parts = [(_count(args.scan, draw, "--scan"), draw, 16 * n**2)]  # cap states are N x N
        return DIRECTION_HEADER, _scan(parts, columns, _direction_rows)
    report = direction_report(basis, v, zero_tol=args.zero_tol)
    return {
        "dim": n,
        "direction": report.direction,
        "mu": report.mu,
        "max_length": report.max_length,
        "cap_state_class": report.cap_state_class.label,
        "cap_zero_count": report.cap_zero_count,
    }


def _antipode_columns(block: tuple[int, range]) -> tuple:
    """The columns of antipode --table for a block (N, ranks): N, then q, max_len and match
    of antipode_of_boundary(N, q) for each q of ranks.  A report holds two N x N matrices,
    so each is dropped once its two cells are taken, before the next report is made."""
    n, ranks = block
    reports = map(antipode_of_boundary, repeat(n), ranks)
    cells = map(attrgetter("max_antipodal_length", "matches_complement"), reports)
    lengths, matches = map(np.array, zip(*cells))
    return n, np.array(ranks), lengths, matches


def cmd_antipode(args: argparse.Namespace) -> dict | tuple[str, _Scan]:
    if args.table:
        if args.max_dim is None:
            raise DomainError("--table requires --max-dim M")
        _reject_ignored(args, "--table", ("dim", "q", "length"))
        max_dim = _integer(args.max_dim, "--max-dim", 2)
        # a part per N, whose items are q = 1..N-1; a block keeps two cells per item
        parts = [
            (n - 1, lambda i, n=n: (n, range(i.start + 1, i.stop + 1)), 16)
            for n in range(2, max_dim + 1)
        ]
        rows = functools.partial(_rows, _ANTIPODE_ROW)
        return ANTIPODE_HEADER, _scan(parts, _antipode_columns, rows)
    if args.dim is None or args.q is None:
        raise DomainError("antipode requires --dim N and --q Q (or --table --max-dim M)")
    if args.max_dim is not None:
        raise DomainError("--max-dim requires --table")
    rep = antipode_of_boundary(args.dim, args.q)
    payload = {
        "dim": args.dim,
        "q": rep.rank,
        "max_antipodal_length": rep.max_antipodal_length,
        "direction_state": _matrix_payload(rep.direction_state),
        "antipodal_cap": _matrix_payload(rep.antipodal_cap),
        "matches_R_p": rep.matches_complement,
    }
    if args.length is not None:
        state, cls = antipodal_family(args.dim, args.q, args.length)
        payload["family_length"] = args.length
        payload["family_state"] = _matrix_payload(state)
        payload["family_class"] = cls.label
    return payload


def cmd_lemma(args: argparse.Namespace) -> tuple[str, _Scan]:
    if args.tuples is not None:
        _reject_ignored(args, "--tuples", ("count", "size", "seed"))
        data = load_json(args.tuples)
        if not isinstance(data, list) or not all(isinstance(t, list) for t in data):
            raise DomainError("tuple file must contain a JSON list of lists of reals")
        # each run of equal-length tuples is a part, each block of it read when drawn
        runs = [(n, list(run)) for n, run in groupby(data, len)]
        parts = [(len(r), lambda i, r=r: _tuples(r[i.start : i.stop], 2), 8 * n) for n, r in runs]
    else:
        if args.seed is None or args.count is None or args.size is None:
            raise DomainError("lemma requires --tuples FILE or --count K --size n --seed S")
        draw = functools.partial(_tuple_block, args.seed, args.size)
        parts = [(_count(args.count, draw, "count"), draw, 8 * args.size)]
    return LEMMA_HEADER, _scan(parts, _harriman_columns, functools.partial(_rows, _LEMMA_ROW))


def cmd_sample(args: argparse.Namespace) -> dict | tuple[str, _Scan]:
    config = SamplerConfig(seed=args.seed, dim=args.dim, rank=args.rank, count=args.count)
    parts = [(config.count, functools.partial(_state_block, config), 16 * config.dim**2)]
    if args.format == "json":
        return {"states": _scan(parts, lambda stack: map(_matrix_payload, stack), _json_items)}
    columns = functools.partial(_stratum_columns, zero_tol=args.zero_tol)
    return STRATA_HEADER, _scan(parts, columns, _strata_rows)


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
    except (NumericError, MemoryError) as exc:  # Python's own MemoryError has no text
        print(f"numeric error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
