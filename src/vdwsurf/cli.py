"""Batch command-line interface.

    vdw spectrum|enhancement|peaks|validate --config <file> [--points N] [--out <path>]

Exit codes: 0 ok, 1 config error, 2 I/O error, 3 quadrature failure,
4 validation failure.  :func:`main` writes at most one line to stderr: the
error of a nonzero exit, or the warnings of a run that exits 0.  Nothing
is read from the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, _config_error, load_config, resolve_config_path
from .errors import ConfigError, ParameterError, QuadratureError, SingularityError, VdwError
from .materials import AtomPositions
from .spectra import _find_peaks, _scan_blocks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_QUADRATURE = 3
EXIT_VALIDATION = 4


def _write(path: str, pieces) -> None:
    """Write the text ``pieces`` to ``path``: the whole file, or no change at all.

    The pieces go to ``<target>.<pid>.part`` beside the file ``target`` that
    ``path`` resolves to, and replace it after the last piece.  On any error
    the part file is deleted, so ``path`` keeps its old bytes or stays
    absent, and an OSError names ``path``.  The output is a new file: an old
    file's hard links and permission bits are not kept.  A path to something
    that exists and is not a regular file (a FIFO, a device, /dev/stdout) is
    written in place.
    """
    target = os.path.realpath(path)
    part = path if os.path.exists(path) and not os.path.isfile(path) else "%s.%d.part" % (target, os.getpid())
    try:
        with open(part, "wb") as out:
            out.writelines(map(str.encode, pieces))  # map frees each piece of text once encoded
        if part != path:
            os.replace(part, target)
    except BaseException as exc:
        if part != path and os.path.lexists(part):
            os.remove(part)
        if isinstance(exc, OSError) and exc.filename == part:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _json_cell(x) -> str:
    """JSON table cell: 12 significant digits like CSV; null for NaN or inf."""
    return repr(float("%.12g" % x)) if math.isfinite(x) else "null"


def _table(fmt: str, header: list, blocks):
    """The text of a table of float columns in header order, as CSV or a JSON array, one piece per block.

    ``blocks`` is any iterable of blocks, each a list of equal-length float
    arrays, one per header entry, with at least one row.  Each block's rows
    are formatted from one template (``template % row``) into one piece, so
    no copy of the table is held as text.  CSV cells hold up to 12
    significant digits, trailing zeros trimmed, and ``nan`` for a missing
    value; JSON cells hold the same digits and null, and the text is
    ``json.dumps(payload, indent=2) + "\n"`` of the list of row objects.
    """
    if fmt == "json":
        fields = ",\n".join("    %s: %%s" % json.dumps(name).replace("%", "%%") for name in header)
        template = "  {\n" + fields + "\n  }"

        def line(row):
            return template % tuple(map(_json_cell, row))

        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        line = ",".join(["%.12g"] * len(header)).__mod__
        head, sep, tail = ",".join(header) + "\n", "\n", "\n"
    for block in blocks:
        # the first row follows the header line or the "[" line, the others a separator
        yield head + sep.join(map(line, zip(*(column.tolist() for column in block))))
        head = sep
    yield tail


def _scan(cfg: RunConfig, notes: list, atom_b=None, atom_a=None):
    """The blocks of :func:`~vdwsurf.spectra._scan_blocks`; then one note in ``notes`` if a grid point was flagged.

    A scan flagged at every grid point has no value to write: it raises
    SingularityError with the text of that note instead.
    """
    flagged, first = 0, None
    for columns, terms in _scan_blocks(cfg.system, cfg.scan, atom_b, atom_a, cfg.quadrature):
        if first is None and terms.flagged.any():
            first = terms.errors[terms.flagged.argmax()]
        flagged += np.count_nonzero(terms.flagged)
        yield columns, terms
    if flagged:
        message = "%d of %d grid points are on a pole and have no value; the first: %s"
        message %= (flagged, cfg.scan.n_points, first)
        if flagged == cfg.scan.n_points:
            raise SingularityError(message)
        notes.append(message)


_SPECTRUM_HEADER = ["omega_over_ref", "u_resonant", "u_resonant_no_lf", "g", "g_no_lf", "u_offresonant"]


def cmd_spectrum(cfg: RunConfig, notes: list) -> tuple:
    """The potential table over the scan grid, block by block."""
    header = _SPECTRUM_HEADER[: 6 if cfg.scan.include_offresonant else 5]
    blocks = (columns for columns, _ in _scan(cfg, notes, cfg.atom_b, cfg.atom_a))
    fmt = cfg.output.format if cfg.output else "csv"
    return "vdw_spectrum.csv", _table(fmt, header, blocks), None


def cmd_enhancement(cfg: RunConfig, notes: list) -> tuple:
    """The rows of :func:`~vdwsurf.spectra.scan_enhancement`, block by block."""
    blocks = ([terms.omega, terms.g, terms.g_no_lf] for _, terms in _scan(cfg, notes))
    fmt = cfg.output.format if cfg.output else "csv"
    return "vdw_enhancement.csv", _table(fmt, ["omega_over_ref", "g", "g_no_lf"], blocks), None


def cmd_peaks(cfg: RunConfig, notes: list) -> tuple:
    """The refined, classified peaks as a JSON array; ``output.format`` does not apply.

    Flagged grid points and grid maxima left out at a pole are notes of the one warning line.
    """
    omegas, metric = [], []  # the unflagged grid points of each block
    for _, terms in _scan(cfg, notes, cfg.atom_b):
        omegas.append(terms.omega[~terms.flagged])
        metric.append(abs(terms.u[~terms.flagged]))
    peaks, left_out = _find_peaks(cfg.system, cfg.atom_b, np.concatenate(omegas), np.concatenate(metric))
    if left_out:
        notes.append("grid maxima left out for a pole between their grid neighbours: %d" % left_out)
    payload = [
        {
            "location": peak.location,
            "height": peak.height,
            "width_fwhm": None if math.isnan(peak.width_fwhm) else peak.width_fwhm,
            "kind": peak.kind.value,
        }
        for peak in peaks
    ]
    return "vdw_peaks.json", [json.dumps(payload, indent=2) + "\n"], None


def cmd_validate(cfg: RunConfig, notes: list) -> tuple:
    """The convergence table as CSV, whatever ``output.format``, and the line of exit 4 when it fails.

    greens is imported here: no other command runs it.
    """
    from .greens import nonretarded_limit_check

    v = cfg.validate
    pos = AtomPositions(v.r_a, v.r_b)
    report = nonretarded_limit_check(cfg.system, v.omega, pos, v.scales, cfg.quadrature)
    lines = ["scale,component,ratio_re,ratio_im"]
    lines.extend(
        "%.12g,%s,%.12g,%.12g" % (row.scale, row.component, row.ratio.real, row.ratio.imag)
        for row in report.rows
    )
    smallest = min(v.scales)
    deviation = report.max_deviation(smallest)
    failure = f"validation FAILED: ratios at scale {smallest} deviate by up to {deviation:.3e} (> {v.tolerance})"
    return "vdw_validate.csv", ["\n".join(lines) + "\n"], None if report.passed(v.tolerance) else failure


# Each command maps the config and the list of its warnings to (default file
# name, text pieces, the line of exit 4 or None); main writes and prints.
_COMMANDS = {
    "spectrum": cmd_spectrum,
    "enhancement": cmd_enhancement,
    "peaks": cmd_peaks,
    "validate": cmd_validate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="vdw",
        description="Interface-enhanced van der Waals interaction tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "scan the excited atom's transition frequency, write the potential table"),
        ("enhancement", "write the enhancement-factor table over the scan grid"),
        ("peaks", "locate, refine and classify resonance peaks, write a JSON report"),
        ("validate", "check the Sommerfeld integral against the near-field closed form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration (path or bundled name such as 'fig2')")
        p.add_argument("--points", type=int, default=None, help="override scan.n_points")
        p.add_argument("--out", default=None, help="override the output path")
    return parser


def main(argv=None) -> int:
    """Run one command, print its one stderr line, if any, to ``sys.stderr`` as it is now, and return the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(resolve_config_path(args.config))
        if args.points is not None:
            try:
                cfg = replace(cfg, scan=replace(cfg.scan, n_points=args.points))
            except ParameterError as exc:
                error = _config_error(exc, "config.scan")
                raise ConfigError(f"--points: {error}", field=error.field) from None
        notes = []  # the command's warnings: one line, once its output is written
        default, pieces, failure = _COMMANDS[args.command](cfg, notes)
        _write(args.out or (cfg.output.path if cfg.output else default), pieces)
        code = EXIT_VALIDATION if failure else EXIT_OK
        line = failure or (notes and "WARNING vdwsurf: " + "; ".join(notes))
    except ConfigError as exc:
        code, line = EXIT_CONFIG, f"config error: {exc}"
    except QuadratureError as exc:
        code, line = EXIT_QUADRATURE, f"quadrature error: {exc}"
    except OSError as exc:
        code, line = EXIT_IO, f"i/o error: {exc}"
    except VdwError as exc:
        code, line = EXIT_CONFIG, f"error: {exc}"
    if line:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
