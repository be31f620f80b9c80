import ast
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vdwsurf
from vdwsurf import interaction, quadrature, spectra
from vdwsurf.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_VALIDATION,
    _SPECTRUM_HEADER,
    _build_parser,
    _table,
    main,
)
from vdwsurf.config import load_config, resolve_config_path
from vdwsurf.errors import QuadratureError
from vdwsurf.interaction import resonant_terms
from vdwsurf.spectra import find_peaks, scan_enhancement, scan_spectrum


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "system": {"upper": "vacuum", "lower": "sapphire-ir", "omega_max": 3.0},
        "atom_a": {"omega0": 1.0},
        "atom_b": {"omega0": 0.9, "gamma": 0.001},
        "scan": {"omega_min": 0.7, "omega_max": 1.3, "n_points": 400},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_spectrum_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_over_ref,u_resonant,u_resonant_no_lf,g,g_no_lf"
    assert len(lines) == 401


def test_spectrum_points_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "two.csv"
    assert main(["spectrum", "--config", str(cfg), "--points", "2", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 3


def test_spectrum_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["spectrum", "--config", str(cfg), "--out", str(out1)])
    main(["spectrum", "--config", str(cfg), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_offresonant_column(tmp_path):
    cfg = write_config(
        tmp_path,
        scan={
            "omega_min": 0.8,
            "omega_max": 1.0,
            "n_points": 3,
            "include_offresonant": True,
        },
    )
    out = tmp_path / "off.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",u_offresonant")
    assert len(lines[1].split(",")) == 6


def test_spectrum_json_format(tmp_path):
    cfg = write_config(tmp_path, output={"path": "ignored.json", "format": "json"})
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--config", str(cfg), "--points", "5", "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert len(rows) == 5 and set(rows[0]) == {
        "omega_over_ref",
        "u_resonant",
        "u_resonant_no_lf",
        "g",
        "g_no_lf",
    }


def test_enhancement_values(tmp_path):
    cfg = write_config(tmp_path, scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": 2000})
    out = tmp_path / "enh.csv"
    assert main(["enhancement", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_over_ref,g,g_no_lf"
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    g_max = max(r[1] for r in rows)
    assert abs(g_max / 2947.6 - 1.0) < 0.02
    # the grid row nearest the cavity mode carries its enhancement
    near_cavity = min(rows, key=lambda r: abs(r[0] - 1.038953727971774))
    assert abs(near_cavity[1] / 1217.9 - 1.0) < 0.02


def test_enhancement_vacuum_all_ones(tmp_path):
    cfg = write_config(
        tmp_path,
        system={"upper": "vacuum", "lower": "vacuum"},
        scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": 50},
    )
    out = tmp_path / "enh.csv"
    main(["enhancement", "--config", str(cfg), "--out", str(out)])
    for line in out.read_text().splitlines()[1:]:
        assert line.split(",")[1] == "1"


def test_peaks_classification(tmp_path):
    cfg = write_config(tmp_path, scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": 2000})
    out = tmp_path / "peaks.json"
    assert main(["peaks", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    peaks = json.loads(out.read_text())
    kinds = [p["kind"] for p in peaks]
    assert kinds.count("surface_mode") == 1
    assert kinds.count("cavity_mode") == 1
    assert kinds.count("atomic_resonance") == 1


def test_peaks_empty_when_no_feature_in_window(tmp_path):
    cfg = write_config(
        tmp_path,
        system={"upper": "vacuum", "lower": "vacuum"},
        atom_b={"omega0": 5.0, "gamma": 0.001},
    )
    out = tmp_path / "peaks.json"
    assert main(["peaks", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == []


def test_validate_pass(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "scale,component,ratio_re,ratio_im"
    final = [line for line in lines[1:] if line.startswith("0.001,")]
    assert final
    for line in final:
        _, _, re_s, im_s = line.split(",")
        assert abs(complex(float(re_s), float(im_s)) - 1.0) < 0.01


def test_validate_vacuum_pass(tmp_path):
    cfg = write_config(tmp_path, system={"upper": "vacuum", "lower": "vacuum"})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]) == EXIT_OK


def test_validate_fails_at_large_scale(tmp_path, capsys):
    cfg = write_config(tmp_path, validate={"scales": [1.0]})
    rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert rc == EXIT_VALIDATION
    assert "FAILED" in capsys.readouterr().err


def test_permeability_pole_exits_1_with_an_error_line(tmp_path, capsys):
    # mu_u + mu_l = 0 is a pole of the Sommerfeld integrand's quasi-static limit
    lower = {"kind": "constant", "eps": [2.0, 0.1], "mu": -1.0}
    cfg = write_config(tmp_path, system={"upper": "vacuum", "lower": lower, "omega_max": 3.0})
    rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert rc == EXIT_CONFIG
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def test_quadrature_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, quadrature={"rel_tol": 1e-13, "max_panels": 2})
    rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert rc == EXIT_QUADRATURE


@pytest.mark.parametrize(
    "quadrature, message",
    [
        ({"max_panels": 2}, "4 seeded panels exceed the budget of 2"),
        ({"max_panels": 4, "rel_tol": 1e-10}, "no convergence within 4 panels (error estimate 5.190e-10, "),
    ],
    ids=["seeded", "bisection"],
)
def test_offresonant_column_failure_exits_3_with_the_blocks_error(tmp_path, capsys, quadrature, message):
    # the 200 rows are one integral, seeded at the smallest and largest row
    # frequency and at atom B's: its error is the one the command reports
    scan = {"omega_min": 0.7, "omega_max": 1.3, "n_points": 200, "include_offresonant": True}
    cfg = write_config(tmp_path, scan=scan, quadrature=quadrature)
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "off.csv")])
    assert rc == EXIT_QUADRATURE
    assert capsys.readouterr().err.startswith(f"quadrature error: {message}")
    # the scan's only block failed before the file was opened
    assert not (tmp_path / "off.csv").exists()


def test_validate_with_an_integrand_not_finite_exits_3_at_once(tmp_path, capsys, monkeypatch):
    # matched vacuum light lines at a tight rel_tol: bisection reaches an
    # abscissa where the kernel is NaN, and used to spend 985 _panel calls of
    # the 1,000-panel budget there, with six RuntimeWarnings on stderr
    count, panel = [0], quadrature._panel

    def counted(*args):
        count[0] += 1
        return panel(*args)

    monkeypatch.setattr(quadrature, "_panel", counted)
    cfg = write_config(
        tmp_path,
        system={"upper": "vacuum", "lower": "vacuum", "omega_max": 5.0},
        quadrature={"rel_tol": 3e-10, "max_panels": 1000},
        validate={"omega": 4.3},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert rc == EXIT_QUADRATURE
    err = capsys.readouterr().err
    assert err.startswith("quadrature error: integrand not finite on the panel [") and err.count("\n") == 1
    assert count[0] < 50


def test_config_error_exit_and_message(tmp_path, capsys):
    cfg = write_config(tmp_path, system={"upper": "vacuum", "lower": "sapphirr"})
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config.system.lower" in err and "sapphirr" in err


def test_missing_config_file(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_bad_points_override(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--points", "1"]) == EXIT_CONFIG


def test_points_override_error_names_the_config_field(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--points", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: --points: config.scan.n_points: n_points must be an integer in [2, 1000000], got 1\n"
    )


def test_io_error_exit_code(tmp_path, capsys, monkeypatch):
    # the message names the path as given, not the file written before the rename
    cfg = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    for command in ("spectrum", "enhancement", "peaks", "validate"):
        assert main([command, "--config", str(cfg), "--out", "no_such_dir/x.csv"]) == EXIT_IO
        assert capsys.readouterr().err == "i/o error: [Errno 2] No such file or directory: 'no_such_dir/x.csv'\n"


def test_bundled_config_runs(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["spectrum", "--config", "fig2", "--points", "50", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 51


def test_numeric_format_is_12_significant_digits(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "fmt.csv"
    main(["spectrum", "--config", str(cfg), "--points", "2", "--out", str(out)])
    first_row = out.read_text().splitlines()[1].split(",")
    for cell in first_row:
        mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 12


def test_non_finite_config_number_exits_1_naming_field(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace('"omega0": 0.9', '"omega0": Infinity'))
    out = tmp_path / "x.csv"
    rc = main(["spectrum", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "config.atom_b.omega0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_validate_scale_exits_1_naming_field(tmp_path, capsys):
    cfg = write_config(tmp_path, validate={"scales": [0.1, -0.1]})
    rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")])
    assert rc == EXIT_CONFIG
    assert "config.validate.scales[1]" in capsys.readouterr().err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("no_lf_curve", [True, False])
def test_json_tables_are_strict_with_null_cells(tmp_path, no_lf_curve):
    # lossless medium whose bulk resonance sits on the middle grid point
    cfg = write_config(
        tmp_path,
        system={
            "upper": "vacuum",
            "lower": {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_t": 1.0, "gamma": 0.0},
        },
        scan={"omega_min": 0.5, "omega_max": 1.5, "n_points": 3, "include_no_lf_curve": no_lf_curve},
        output={"path": "ignored.json", "format": "json"},
    )
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = _strict_json(out.read_text())
    assert [r["omega_over_ref"] for r in rows] == [0.5, 1.0, 1.5]
    assert all(v is None for k, v in rows[1].items() if k != "omega_over_ref")
    for row in (rows[0], rows[2]):
        assert (row["u_resonant_no_lf"] is None) is (not no_lf_curve)
        assert math.isfinite(row["g"]) and math.isfinite(row["u_resonant"])
    out = tmp_path / "enh.json"
    assert main(["enhancement", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = _strict_json(out.read_text())
    assert rows[1]["g"] is None and rows[1]["g_no_lf"] is None


def test_json_cells_match_csv_digits(tmp_path):
    json_cfg = write_config(tmp_path, "j.json", output={"path": "ignored.json", "format": "json"})
    csv_cfg = write_config(tmp_path, "c.json")
    main(["spectrum", "--config", str(json_cfg), "--points", "7", "--out", str(tmp_path / "s.json")])
    main(["spectrum", "--config", str(csv_cfg), "--points", "7", "--out", str(tmp_path / "s.csv")])
    rows = _strict_json((tmp_path / "s.json").read_text())
    lines = (tmp_path / "s.csv").read_text().splitlines()
    header = lines[0].split(",")
    for row, line in zip(rows, lines[1:]):
        assert [row[k] for k in header] == [float(c) for c in line.split(",")]


def _rowwise_write_table(path, fmt, header, rows):
    """The table writer as it was before either format was streamed: rows, then lines, then one text."""
    if fmt == "json":

        def cell(x):
            return float("%.12g" % x) if math.isfinite(x) else None

        payload = [dict(zip(header, map(cell, row))) for row in rows]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        template = ",".join(["%.12g"] * len(header))
        lines = [",".join(header)]
        lines.extend(template % tuple(row) for row in rows)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_AWKWARD_CELLS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2,
    # each rounds at the 12th significant digit, up, down or to a carry
    0.1234567890125, 1.99999999999951, 999999999999.5, 9.9999999999995e-05, 123456789012.45, 2.5e-12,
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_columns", range(1, 7))
def test_streamed_table_equals_the_rowwise_writer_byte_for_byte(tmp_path, fmt, n_columns):
    header = ["c%d" % j for j in range(n_columns)]
    cells = _AWKWARD_CELLS * n_columns
    # every cell in every column, in blocks of 1 to 2001 rows; no command makes an empty block
    columns = [np.array(((cells[j:] + cells[:j]) * 300)[:4257]) for j in range(n_columns)]
    for sizes in ([1], [len(cells)], [255], [2000], [2001], [1, 255, 2000, 2001]):
        edges = np.cumsum([0] + sizes).tolist()
        blocks = [[column[a:b] for column in columns] for a, b in zip(edges[:-1], edges[1:])]
        want = tmp_path / "want"
        _rowwise_write_table(want, fmt, header, list(zip(*(column[: edges[-1]].tolist() for column in columns))))
        assert "".join(_table(fmt, header, iter(blocks))).encode() == want.read_bytes(), sizes


def test_no_command_imports_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rules are constants: no command needs numpy.polynomial;
    # peaks takes its median grid step by a sort, not by np.median, which
    # loads numpy.ma; and main prints its one stderr line without logging
    script = """
import json, sys, vdwsurf.cli
from vdwsurf.config import resolve_config_path

cfg = json.loads(resolve_config_path("fig2").read_text())
cfg["scan"]["include_offresonant"] = True
offresonant = sys.argv[1] + "offresonant.json"
json.dump(cfg, open(offresonant, "w"))
for command, config in (
    ("spectrum", offresonant), ("enhancement", "fig2"), ("peaks", "fig2"), ("validate", "fig2")
):
    if vdwsurf.cli.main([command, "--config", config, "--out", sys.argv[1] + command]) != 0:
        sys.exit(command + " failed on " + config)
for module in ("numpy.polynomial", "numpy.ma", "logging"):
    if module in sys.modules:
        sys.exit(module + " was loaded")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fig2-")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len((tmp_path / "fig2-spectrum").read_text().splitlines()[1].split(",")) == 6


# what would run on BLAS: numpy's linear-algebra entry points, and einsum
# with optimize=, which may hand its contractions to tensordot
_BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "linalg"}


def _blas_uses(tree):
    """(line, what) of every use in ``tree`` of the @ operator or of a _BLAS_NAMES entry point."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _BLAS_NAMES:
            yield node.lineno, node.func.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            yield from ((node.lineno, name) for name in names if _BLAS_NAMES & set(name.split(".")))
        if isinstance(node, ast.Call) and any(keyword.arg == "optimize" for keyword in node.keywords):
            yield node.lineno, "optimize="


def test_no_module_calls_blas():
    # every command runs on numpy's own loops: a BLAS call would fault the
    # OpenBLAS library's pages into the process for a few tiny products
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(Path(vdwsurf.__file__).parent.glob("*.py"))
        for line, what in _blas_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_the_blas_scan_sees_each_form():
    source = """
a @ b
a @= b
np.matmul(a, b)
x.dot(y)
np.linalg.norm(x)
from numpy import inner
import numpy.linalg
np.einsum("ij,jk", a, b, optimize=True)
"""
    assert [what for _, what in sorted(_blas_uses(ast.parse(source)))] == [
        "@", "@", "matmul", "dot", "linalg", "inner", "numpy.linalg", "optimize="
    ]
    assert not list(_blas_uses(ast.parse("inner = x[1:-1]\nnp.einsum('ij,jk', a, b)")))


_FIG2 = json.loads(resolve_config_path("fig2").read_text())


def _key_sites(obj, path="config"):
    """Map the dotted path of every key in ``obj`` to (owning dict, key)."""
    sites = {}
    for key, value in obj.items():
        sites[f"{path}.{key}"] = (obj, key)
        if isinstance(value, dict):
            sites.update(_key_sites(value, f"{path}.{key}"))
    return sites


def _junk():
    """Wrong types, null, negatives, zero, nested objects and overflow."""
    return st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=6),
        st.integers(min_value=-10, max_value=5000),
        st.floats(),
        st.just(0),
        st.just(-1.0),
        st.just(10**400),
        st.lists(st.integers(min_value=-10, max_value=10), max_size=3),
        st.dictionaries(st.text(max_size=4), st.integers(min_value=-10, max_value=10), max_size=2),
    )


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_fig2_config_exits_0_or_1_naming_the_field(data):
    # one leaf replaced, one key deleted or one stray key added: the CLI must
    # run or report a config error that names the mutated entry
    cfg = copy.deepcopy(_FIG2)
    sites = _key_sites(cfg)
    mutation = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if mutation == "add":
        sections = {"config": cfg}
        sections.update({p: obj[key] for p, (obj, key) in sites.items() if isinstance(obj[key], dict)})
        owner = data.draw(st.sampled_from(sorted(sections)))
        key = data.draw(st.sampled_from(["extra", "n_pts", "Omega0", ""]))
        path = f"{owner}.{key}"
        sections[owner][key] = data.draw(_junk())
    else:
        if mutation == "replace":
            sites = {p: site for p, site in sites.items() if not isinstance(site[0][site[1]], dict)}
        path = data.draw(st.sampled_from(sorted(sites)))
        obj, key = sites[path]
        if mutation == "delete":
            del obj[key]
        else:
            obj[key] = data.draw(_junk())
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.json"
        config_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["spectrum", "--config", str(config_path), "--out", str(Path(tmp) / "out.csv")])
    assert rc in (EXIT_OK, EXIT_CONFIG)
    if rc == EXIT_CONFIG:
        assert err.getvalue().startswith("config error:") and path in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("n_points", [10**9, 10**400], ids=["1e9", "1e400"])
def test_huge_scan_exits_1_naming_the_field(tmp_path, capsys, n_points):
    cfg = write_config(tmp_path, scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": n_points})
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config.scan.n_points" in capsys.readouterr().err
    assert not out.exists()
    # the --points override is bounded by the same rule
    assert main(["spectrum", "--config", "fig2", "--points", str(10**9), "--out", str(out)]) == EXIT_CONFIG
    assert "n_points" in capsys.readouterr().err


def test_integer_literal_beyond_the_digit_limit_exits_1_naming_the_config(tmp_path, capsys):
    # json.loads refuses integer literals of more than 4,300 digits with a
    # ValueError that is not a JSONDecodeError
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace('"n_points": 400', '"n_points": 1' + "0" * 5000))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err
    assert not out.exists()


def test_peaks_does_not_evaluate_the_offresonant_column(tmp_path, monkeypatch):
    # peaks reads only omega and |u_resonant|; the off-resonant integral it
    # used to evaluate for every grid point was thrown away
    plain = write_config(tmp_path, "plain.json")
    with_off = write_config(
        tmp_path,
        "off.json",
        scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": 400, "include_offresonant": True},
    )
    expected = tmp_path / "plain_peaks.json"
    assert main(["peaks", "--config", str(plain), "--out", str(expected)]) == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("peaks evaluated the off-resonant integral")

    monkeypatch.setattr(spectra, "_offresonant_many", refuse)
    monkeypatch.setattr(interaction, "adaptive_gauss", refuse)
    out = tmp_path / "off_peaks.json"
    assert main(["peaks", "--config", str(with_off), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected.read_bytes()


def _row_api_table(config_path, command):
    """The table as written by formatting the row API one row at a time."""
    cfg = load_config(config_path)
    if command == "spectrum":
        rows = scan_spectrum(cfg.system, cfg.atom_a, cfg.atom_b, cfg.scan, cfg.quadrature)
        header = ["omega_over_ref", "u_resonant", "u_resonant_no_lf", "g", "g_no_lf"]
        if cfg.scan.include_offresonant:
            header.append("u_offresonant")
        table = []
        for row in rows:
            cells = (row.omega, row.u_resonant, row.u_resonant_no_lf, row.g, row.g_no_lf)
            if cfg.scan.include_offresonant:
                cells += (math.nan if row.u_offresonant is None else row.u_offresonant,)
            table.append(cells)
    else:
        header = ["omega_over_ref", "g", "g_no_lf"]
        table = scan_enhancement(cfg.system, cfg.scan)
    if cfg.output.format == "json":
        payload = [
            {k: float("%.12g" % x) if math.isfinite(x) else None for k, x in zip(header, row)}
            for row in table
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join("%.12g" % x for x in row) for row in table)
    return "\n".join(lines) + "\n"


_POLE_GRID = (0.7, 1.3, 7)


@pytest.mark.parametrize(
    "fmt, no_lf_curve, offresonant, pole",
    [
        ("csv", True, False, False),
        ("json", True, False, False),
        ("csv", False, False, False),
        ("json", False, False, False),
        ("csv", True, True, False),
        ("json", False, True, False),
        ("csv", True, False, True),
        ("json", True, True, True),
    ],
)
def test_cli_tables_equal_the_row_api_byte_for_byte(tmp_path, fmt, no_lf_curve, offresonant, pole):
    atom_b = {"omega0": 0.9, "gamma": 0.001}
    pole_index = 2
    if pole:
        # undamped atom B exactly on a grid point: that row is flagged
        atom_b = {"omega0": float(np.linspace(*_POLE_GRID)[pole_index]), "gamma": 0.0}
    cfg = write_config(
        tmp_path,
        atom_b=atom_b,
        scan={
            "omega_min": _POLE_GRID[0],
            "omega_max": _POLE_GRID[1],
            "n_points": 400,
            "include_offresonant": offresonant,
            "include_no_lf_curve": no_lf_curve,
        },
        output={"path": "ignored", "format": fmt},
    )
    points = ["--points", "7"] if offresonant or pole else []
    if points:
        # the row API reads the config, so it gets the same grid there
        data = json.loads(cfg.read_text())
        data["scan"]["n_points"] = 7
        cfg.write_text(json.dumps(data))
    for command in ("spectrum", "enhancement"):
        out = tmp_path / f"{command}.{fmt}"
        assert main([command, "--config", str(cfg), *points, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == _row_api_table(cfg, command)
    if pole:
        out = tmp_path / f"spectrum.{fmt}"
        if fmt == "json":
            row = _strict_json(out.read_text())[pole_index]
            cells = [v for k, v in row.items() if k != "omega_over_ref"]
            assert cells and all(v is None for v in cells)
        else:
            cells = out.read_text().splitlines()[1 + pole_index].split(",")[1:]
            assert cells and all(c == "nan" for c in cells)


def _fresh_run(args):
    """``main(args)`` in a new interpreter, for a parser with no history."""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "vdwsurf", *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_OK, proc.stderr


def test_one_parser_per_process_keeps_no_state_between_calls(tmp_path):
    assert _build_parser() is _build_parser()
    cfg = write_config(tmp_path)
    first, second, fresh = (tmp_path / name for name in ("first.csv", "second.csv", "fresh.csv"))
    assert main(["spectrum", "--config", str(cfg), "--points", "7", "--out", str(first)]) == EXIT_OK
    assert main(["spectrum", "--config", str(cfg), "--out", str(second)]) == EXIT_OK
    assert len(first.read_text().splitlines()) == 1 + 7
    assert len(second.read_text().splitlines()) == 1 + 400
    _fresh_run(["spectrum", "--config", str(cfg), "--out", str(fresh)])
    assert second.read_bytes() == fresh.read_bytes()

    val, val_fresh = tmp_path / "val.csv", tmp_path / "val_fresh.csv"
    assert main(["peaks", "--config", str(cfg), "--points", "7", "--out", str(tmp_path / "p.json")]) == EXIT_OK
    assert main(["validate", "--config", str(cfg), "--out", str(val)]) == EXIT_OK
    _fresh_run(["validate", "--config", str(cfg), "--out", str(val_fresh)])
    assert val.read_bytes() == val_fresh.read_bytes()


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test dependency only: importing the package, the resonant
    # commands, the off-resonant column and the Sommerfeld integrand of
    # vdw validate must not load it; the resonant commands do not read the
    # Bessel table either
    script = """
import sys, vdwsurf, vdwsurf.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

if scipy_modules():
    sys.exit("loaded by the import: %s" % scipy_modules()[:5])
for i, (command, config) in enumerate(
    (("spectrum", "fig2"), ("enhancement", "fig2"), ("peaks", "fig2"), ("spectrum", sys.argv[2]))
):
    if vdwsurf.cli.main([command, "--config", config, "--out", sys.argv[1] + command + str(i)]) != 0:
        sys.exit(command + " failed on " + config)
if vdwsurf.greens._bessel_table.cache_info().currsize:
    sys.exit("the Bessel table was read by the resonant commands")
if vdwsurf.cli.main(["validate", "--config", "fig2", "--out", sys.argv[1] + "validate"]) != 0:
    sys.exit("validate failed on fig2")
if scipy_modules():
    sys.exit("loaded by the commands: %s" % scipy_modules()[:5])
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    scan = {"omega_min": 0.7, "omega_max": 1.3, "n_points": 50, "include_offresonant": True}
    offresonant = write_config(tmp_path, "offresonant.json", scan=scan)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fig2-"), str(offresonant)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "fig2-validate").read_text().startswith("scale,component,ratio_re,ratio_im")


def test_table_commands_do_not_import_greens(tmp_path):
    # only validate runs the Green-function layer: the table commands must not
    # compile or hold it, and validate imports it when it runs
    script = """
import sys, vdwsurf.cli

for command in ("spectrum", "enhancement", "peaks"):
    if vdwsurf.cli.main([command, "--config", "fig2", "--out", sys.argv[1] + command]) != 0:
        sys.exit(command + " failed on fig2")
if "vdwsurf.greens" in sys.modules:
    sys.exit("vdwsurf.greens was loaded by the table commands")
if vdwsurf.cli.main(["validate", "--config", "fig2", "--out", sys.argv[1] + "validate"]) != 0:
    sys.exit("validate failed on fig2")
if "vdwsurf.greens" not in sys.modules:
    sys.exit("validate ran without vdwsurf.greens")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fig2-")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_OK, proc.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("pole", [False, True])
def test_enhancement_equals_the_writer_over_scan_enhancement(tmp_path, fmt, pole):
    # fig2, or an undamped oscillator medium whose resonance is a grid point: that row is flagged
    overrides = {"scan": {"omega_min": 0.5, "omega_max": 1.5, "n_points": 11}}
    if pole:
        lower = {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "gamma": 0.0, "omega_t": 1.0}
        overrides["system"] = {"upper": "vacuum", "lower": lower, "omega_max": 3.0}
    data = json.loads(resolve_config_path("fig2").read_text())
    data.update(overrides, output={"path": "ignored", "format": fmt})
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    loaded = load_config(cfg)
    rows = scan_enhancement(loaded.system, loaded.scan)
    assert any(math.isnan(row[1]) for row in rows) == pole
    got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
    assert main(["enhancement", "--config", str(cfg), "--out", str(got)]) == EXIT_OK
    _rowwise_write_table(want, fmt, ["omega_over_ref", "g", "g_no_lf"], rows)
    assert got.read_bytes() == want.read_bytes()


def test_output_format_applies_to_the_tables_only(tmp_path):
    # validate writes CSV and peaks writes JSON, to the configured path, whatever the format says
    validate = write_config(tmp_path, "v.json", output={"path": str(tmp_path / "v-out.json"), "format": "json"})
    assert main(["validate", "--config", str(validate)]) == EXIT_OK
    assert (tmp_path / "v-out.json").read_text().startswith("scale,component,ratio_re,ratio_im\n")
    peaks = write_config(tmp_path, "p.json", output={"path": str(tmp_path / "p-out.csv"), "format": "csv"})
    assert main(["peaks", "--config", str(peaks)]) == EXIT_OK
    assert {p["kind"] for p in json.loads((tmp_path / "p-out.csv").read_text())} >= {"surface_mode", "cavity_mode"}


def test_every_command_evaluates_the_grid_one_block_at_a_time(tmp_path, monkeypatch):
    # two whole blocks and one point: each command gives the bytes of one whole-grid evaluation
    n = 2 * spectra._BLOCK + 1
    cfg = load_config(resolve_config_path("fig2"))
    scan = dataclasses.replace(cfg.scan, n_points=n)
    whole, plain = (resonant_terms(cfg.system, scan.grid(), atom_b) for atom_b in (cfg.atom_b, None))
    peaks = find_peaks(cfg.system, cfg.atom_b, scan_spectrum(cfg.system, cfg.atom_a, cfg.atom_b, scan))
    sizes, terms = [], spectra.resonant_terms

    def spy(system, omega, atom_b=None):
        sizes.append(len(omega))
        return terms(system, omega, atom_b)

    monkeypatch.setattr(spectra, "resonant_terms", spy)
    for command in ("spectrum", "enhancement", "peaks"):
        sizes.clear()
        assert main([command, "--config", "fig2", "--points", str(n), "--out", str(tmp_path / command)]) == EXIT_OK
        assert sizes == [spectra._BLOCK, spectra._BLOCK, 1], command
    want = tmp_path / "want"
    columns = (whole.omega, whole.u, whole.u_no_lf, whole.g, whole.g_no_lf)
    _rowwise_write_table(want, "csv", _SPECTRUM_HEADER[:5], zip(*(column.tolist() for column in columns)))
    assert (tmp_path / "spectrum").read_bytes() == want.read_bytes()
    columns = (plain.omega, plain.g, plain.g_no_lf)
    _rowwise_write_table(want, "csv", ["omega_over_ref", "g", "g_no_lf"], zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "enhancement").read_bytes() == want.read_bytes()
    assert json.loads((tmp_path / "peaks").read_text()) == [
        {
            "location": peak.location,
            "height": peak.height,
            "width_fwhm": None if math.isnan(peak.width_fwhm) else peak.width_fwhm,
            "kind": peak.kind.value,
        }
        for peak in peaks
    ]


def test_offresonant_failure_in_a_later_block_leaves_the_output_as_it_was(tmp_path, capsys, monkeypatch):
    # the first block's rows are formatted before the second block's integral
    # fails: a new path stays absent, an old file keeps its bytes
    integrate, calls = spectra._offresonant_many, []

    def fail_second(*args):
        calls.append(args)
        if len(calls) % 2 == 0:
            raise QuadratureError("no convergence in the second block")
        return integrate(*args)

    monkeypatch.setattr(spectra, "_offresonant_many", fail_second)
    scan = {"omega_min": 0.7, "omega_max": 1.3, "n_points": spectra._BLOCK + 1, "include_offresonant": True}
    args = ["spectrum", "--config", str(write_config(tmp_path, scan=scan)), "--out", str(tmp_path / "off.csv")]
    assert main(args) == EXIT_QUADRATURE
    assert capsys.readouterr().err == "quadrature error: no convergence in the second block\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    (tmp_path / "off.csv").write_bytes(b"old,table\n")
    assert main(args) == EXIT_QUADRATURE
    assert len(calls) == 4
    assert (tmp_path / "off.csv").read_bytes() == b"old,table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["off.csv", "run.json"]


def test_flagged_grid_points_give_one_warning_line_per_command(tmp_path):
    # an undamped oscillator medium whose resonance is the middle grid point;
    # the exit code and the output bytes do not change, and fig2 warns of nothing
    lower = {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_t": 1.0, "gamma": 0.0}
    pole = write_config(
        tmp_path,
        system={"upper": "vacuum", "lower": lower, "omega_max": 3.0},
        scan={"omega_min": 0.5, "omega_max": 1.5, "n_points": 3},
    )
    script = """
import sys, vdwsurf.cli

for config in sys.argv[2:]:
    for command in ("spectrum", "enhancement", "peaks"):
        print("==", command, file=sys.stderr, flush=True)
        if vdwsurf.cli.main([command, "--config", config, "--out", sys.argv[1] + command]) != 0:
            sys.exit(command + " failed on " + config)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out-"), str(pole), "fig2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    warning = (
        "WARNING vdwsurf: 1 of 3 grid points are on a pole and have no value;"
        " the first: undamped oscillator evaluated at its resonance 1.0\n"
    )
    commands = ("spectrum", "enhancement", "peaks")
    assert proc.stderr == "".join(f"== {c}\n{warning}" for c in commands) + "".join(f"== {c}\n" for c in commands)


_FIG2_SPECTRUM_SHA256 = "760132c283236107eb363c7ed1509eecacb359e335e19c1194d9abe2ff82ebb3"  # bench/golden.json


@pytest.mark.parametrize("kind", ["fifo", "proc-fd"])
def test_a_fifo_or_pipe_at_out_is_written_in_place(tmp_path, kind):
    # not replaced by a regular file: the reader gets the table.  A pipe named
    # by /proc/self/fd/N is what /dev/stdout is when stdout is a pipe; its
    # real path, /proc/<pid>/fd/pipe:[inode], names no file
    if kind == "fifo":
        out = tmp_path / "fifo"
        os.mkfifo(out)
        open_reader, write_end = (lambda: open(out, "rb")), None
    else:
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd")
        read_end, write_end = os.pipe()
        out, open_reader = f"/proc/self/fd/{write_end}", (lambda: os.fdopen(read_end, "rb"))
    received = []

    def read():
        with open_reader() as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert main(["spectrum", "--config", "fig2", "--out", str(out)]) == EXIT_OK
    finally:
        if write_end is not None:
            os.close(write_end)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert hashlib.sha256(received[0]).hexdigest() == _FIG2_SPECTRUM_SHA256
    if kind == "fifo":
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["fifo"] if kind == "fifo" else [])


def test_a_symlink_at_out_stays_a_link_to_the_new_table(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"old,table\n")
    link.symlink_to(target)
    assert main(["spectrum", "--config", "fig2", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _FIG2_SPECTRUM_SHA256
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_a_scan_flagged_at_every_grid_point_exits_1_and_writes_nothing(tmp_path):
    # a constant medium at the Onsager cavity pole (-0.5) or at the screening
    # pole against vacuum (-1.0) has no value at any frequency
    configs, reasons = [], []
    for eps, reason in ((-0.5, "Onsager cavity pole"), (-1.0, "average permittivity vanishes")):
        for offresonant in (False, True):
            system = {"upper": "vacuum", "lower": {"kind": "constant", "eps": eps}, "omega_max": 3.0}
            scan = {"omega_min": 0.7, "omega_max": 1.3, "n_points": 5, "include_offresonant": offresonant}
            configs.append(str(write_config(tmp_path, f"{eps}-{offresonant}.json", system=system, scan=scan)))
            reasons.append(reason)
    script = """
import os, sys, vdwsurf.cli

for config in sys.argv[2:]:
    for command in ("spectrum", "enhancement", "peaks"):
        print("==", file=sys.stderr, flush=True)
        rc = vdwsurf.cli.main([command, "--config", config, "--out", sys.argv[1]])
        print(rc, os.path.lexists(sys.argv[1]), flush=True)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(vdwsurf.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), *configs],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout == "1 False\n" * 12, proc.stderr
    errors = proc.stderr.split("==\n")[1:]
    message = "error: 5 of 5 grid points are on a pole and have no value; the first: %s at omega_a = 0.7\n"
    assert errors == [message % reason for reason in reasons for _ in range(3)]
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


_BEYOND_FLOAT_RANGE = {"kind": "lorentz", "eta": 2.0, "eps0": 1e160, "omega_t": 1.0, "gamma": 0.01}


@pytest.mark.parametrize(
    "overrides, flagged, reason",
    [
        (
            {"system": {"upper": "vacuum", "lower": _BEYOND_FLOAT_RANGE, "omega_max": 3.0}},
            ("spectrum", "enhancement", "peaks"),
            "the enhancement is not finite",
        ),
        (
            {"atom_b": {"omega0": 1e10, "gamma": 0.001, "alpha0": 1e300}},
            ("spectrum", "peaks"),
            "the resonant potential is not finite",
        ),
    ],
    ids=["eps0-1e160", "atom_b-alpha0-1e300"],
)
def test_a_scan_beyond_the_float_range_exits_1_without_nan_or_warnings(tmp_path, overrides, flagged, reason):
    # the coupling's products, or atom B's alpha0*omega0**2, overflow at every
    # grid point: once nan tables with exit 0 and numpy warnings
    cfg = write_config(tmp_path, **overrides)
    for command in ("spectrum", "enhancement", "peaks"):
        out = tmp_path / command
        rc, lines = _main_and_stderr([command, "--config", str(cfg), "--out", str(out)])
        if command in flagged:
            message = "error: 400 of 400 grid points are on a pole and have no value; the first: %s at omega_a = 0.7"
            assert (rc, lines, out.exists()) == (EXIT_CONFIG, [message % reason], False)
        else:  # enhancement does not evaluate atom B
            assert (rc, lines) == (EXIT_OK, [])


@pytest.mark.parametrize(
    "section, entry, field",
    [
        ("atom_b", {"omega0": 1e160, "gamma": 0.001}, "config.atom_b.omega0"),
        (
            "system",
            {"upper": "vacuum", "lower": {**_BEYOND_FLOAT_RANGE, "eps0": 6.57, "omega_t": 1e160}, "omega_max": 3.0},
            "config.system.lower.omega_t",
        ),
    ],
    ids=["omega0-1e160", "omega_t-1e160"],
)
def test_a_frequency_whose_square_overflows_exits_1_naming_the_field(tmp_path, section, entry, field):
    # once a polarizability (or oscillator) pole at every grid point, and for
    # validate an omega**2 error that blamed validate.omega
    cfg = write_config(tmp_path, **{section: entry})
    for command in ("spectrum", "enhancement", "peaks", "validate"):
        rc, lines = _main_and_stderr([command, "--config", str(cfg), "--out", str(tmp_path / command)])
        assert rc == EXIT_CONFIG and len(lines) == 1 and lines[0].startswith("config error: " + field), lines


@pytest.mark.parametrize(
    "validate, field",
    [
        ({"omega": 1e160}, "omega"),
        ({"omega": 1e300}, "omega"),
        ({"omega": 1e-300}, "omega"),
        ({"scales": [1e-300]}, "scales[0]"),
        ({"scales": [0.1, 1e-120]}, "scales[1]"),
        ({"scales": [1e300]}, "scales[0]"),
        ({"scales": [1e20]}, "scales[0]"),
        ({"omega": 1e50}, "scales[0]"),
    ],
    ids=[
        "omega-1e160", "omega-1e300", "omega-1e-300", "scale-1e-300", "scale-1e-120", "scale-1e300", "far-scale-1e20",
        "far-omega-1e50",
    ],
)
def test_validate_beyond_the_float_range_exits_1_naming_the_field(tmp_path, validate, field):
    # once an OverflowError or ZeroDivisionError traceback from the kernel, numpy
    # warnings and an abs_tol error from a closed form that is not finite, or a
    # ValueError from the head's seeds when the envelope left no head
    cfg = write_config(tmp_path, validate=validate)
    out = tmp_path / "v.csv"
    rc, lines = _main_and_stderr(["validate", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_CONFIG and len(lines) == 1 and not out.exists(), lines
    assert lines[0].startswith("error: ") and field in lines[0], lines


def test_validate_at_a_tiny_omega_exits_0_or_1_naming_omega(tmp_path):
    # on fig2 every omega from 1e-103 to 1e-154 once exited 3, "integrand not
    # finite on the panel": p = 2/(omega^2 den_p) ~ 0.85/omega^3 overflowed
    cfg = json.loads(resolve_config_path("fig2").read_text())
    codes = []
    for e in range(95, 161):
        cfg["validate"] = {"omega": float(f"1e-{e}")}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        rc, lines = _main_and_stderr(["validate", "--config", str(path), "--out", str(tmp_path / "v.csv")])
        assert (rc, lines) == (EXIT_OK, []) or rc == EXIT_CONFIG and len(lines) == 1, (e, rc, lines)
        assert rc == EXIT_OK or lines[0].startswith(f"error: omega = 1e-{e} puts p") or (
            lines[0] == f"error: omega**2 and (n*omega)**2 must be within the float range, got 1e-{e}"
        ), lines
        codes.append(rc)
    assert codes == [EXIT_OK] * 8 + [EXIT_CONFIG] * 58


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_validate_with_a_zero_permittivity_exits_1_naming_it(tmp_path, side):
    # a medium with eps = 0 has an Onsager factor of 0, so the closed form is 0:
    # once a ZeroDivisionError traceback from the kernel, which divided by its
    # index; spectrum does not run the kernel and exits 0 as before
    system = {"upper": "vacuum", "lower": "sapphire-ir", "omega_max": 3.0, side: {"kind": "constant", "eps": 0.0}}
    cfg = write_config(tmp_path, system=system)
    out = tmp_path / "v.csv"
    rc, lines = _main_and_stderr(["validate", "--config", str(cfg), "--out", str(out)])
    assert (rc, len(lines), out.exists()) == (EXIT_CONFIG, 1, False), lines
    assert lines[0].startswith(f"error: |system.{side}.eps| = 0 at omega = 0.5: "), lines
    assert _main_and_stderr(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == (EXIT_OK, [])


def test_validate_with_a_coupling_beyond_the_float_range_exits_1(tmp_path, capsys):
    # under sapphire, a lower eps of -1e300 overflows the coupling: once a table
    # of nan ratios, numpy RuntimeWarnings and exit 4
    system = {"upper": "sapphire-ir", "lower": {"kind": "constant", "eps": -1e300}, "omega_max": 3.0}
    cfg = write_config(tmp_path, system=system)
    out = tmp_path / "v.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate", "--config", str(cfg), "--out", str(out)])
    assert (rc, capsys.readouterr().err, out.exists()) == (
        EXIT_CONFIG, "error: the near-field coupling is not finite at omega = 0.5\n", False
    )


@st.composite
def _physical_config(draw):
    """A valid config: vacuum, sapphire, constant and undamped Lorentz media, poles on and off the grid."""
    n = draw(st.integers(2, 30))
    lo = draw(st.floats(0.3, 1.2))
    hi = lo + draw(st.floats(0.05, 1.0))
    # a frequency on a grid point, where an undamped resonance is flagged, or anywhere in the scan
    frequency = st.sampled_from(np.linspace(lo, hi, n).tolist()) | st.floats(lo, hi)
    constant = st.sampled_from([2.25, 9.0, -0.5, -1.0, -2.0, [2.0, 0.1], [-1.0, 0.5]])
    medium = st.one_of(
        st.sampled_from(["vacuum", "sapphire-ir"]),
        constant.map(lambda eps: {"kind": "constant", "eps": eps}),
        frequency.map(lambda w: {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "gamma": 0.0, "omega_t": w}),
    )
    return {
        "system": {"upper": draw(medium), "lower": draw(medium), "omega_max": 3.0},
        "atom_a": {"omega0": draw(frequency), "gamma": 0.0},
        "atom_b": {"omega0": draw(frequency), "gamma": draw(st.sampled_from([0.0, 1e-3]))},
        "scan": {
            "omega_min": lo,
            "omega_max": hi,
            "n_points": n,
            "include_offresonant": draw(st.booleans()),
            "include_no_lf_curve": draw(st.booleans()),
        },
        "quadrature": {"rel_tol": 10.0 ** draw(st.floats(-12, -3)), "max_panels": draw(st.integers(50, 1000))},
        "validate": {"omega": draw(frequency)},
        "output": {"path": "ignored", "format": draw(st.sampled_from(["csv", "json"]))},
    }


_ERROR_LINES = {
    EXIT_CONFIG: ("config error: ", "error: "),
    EXIT_QUADRATURE: ("quadrature error: ",),
    EXIT_VALIDATION: ("validation FAILED: ",),
}
_WARNING = re.compile(r"WARNING vdwsurf: (\d+) of (\d+) grid points are on a pole and have no value; the first: \S")
# peaks may append the count of grid maxima it left out at a pole, or warn of them alone
_PEAKS_WARNING = re.compile(
    r"WARNING vdwsurf: (.+; )?grid maxima left out for a pole between their grid neighbours: [1-9]\d*$"
)
_ALL_FLAGGED = re.compile(r"error: (\d+) of \1 grid points are on a pole and have no value; the first: \S")


def _main_and_stderr(args):
    """``main(args)`` and the lines it writes to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, err.getvalue().splitlines()


_POLE_WARNING = (
    "WARNING vdwsurf: 1 of 3 grid points are on a pole and have no value;"
    " the first: undamped oscillator evaluated at its resonance 1.0"
)


def _warning_run(tmp_path):
    """spectrum over 3 grid points, the middle one an undamped resonance: exit 0 and the line _POLE_WARNING."""
    lower = {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_t": 1.0, "gamma": 0.0}
    cfg = write_config(
        tmp_path,
        system={"upper": "vacuum", "lower": lower, "omega_max": 3.0},
        scan={"omega_min": 0.5, "omega_max": 1.5, "n_points": 3},
    )
    return ["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]


def test_each_in_process_run_writes_its_warning_to_the_stderr_of_its_call(tmp_path):
    # the warning was a log record, and the root handler that a first call set
    # up stayed bound to that call's stderr: a later redirect caught nothing
    args = _warning_run(tmp_path)
    assert [_main_and_stderr(args) for _ in range(2)] == [(EXIT_OK, [_POLE_WARNING])] * 2


def test_a_root_logger_at_error_does_not_swallow_the_warning_line(tmp_path, caplog):
    caplog.set_level(logging.ERROR)  # the root logger's level, as a host application may set it
    assert _main_and_stderr(_warning_run(tmp_path)) == (EXIT_OK, [_POLE_WARNING])


def test_a_failed_validation_that_cannot_be_written_exits_2_with_one_line(tmp_path):
    # the validation FAILED line was printed before the write, and the i/o error after it
    cfg = write_config(tmp_path, validate={"scales": [1.0]})
    rc, lines = _main_and_stderr(["validate", "--config", str(cfg), "--out", str(tmp_path / "no_dir" / "v.csv")])
    assert rc == EXIT_IO and len(lines) == 1 and lines[0].startswith("i/o error: "), lines


def test_main_leaves_the_root_logger_without_handlers(tmp_path):
    # main once called logging.basicConfig, which gave the root logger a handler
    root = logging.getLogger()
    handlers, root.handlers = root.handlers, []  # as in a process that has not set up logging
    try:
        for args in (_warning_run(tmp_path), ["validate", "--config", str(tmp_path / "missing.json")]):
            _main_and_stderr(args)
        assert root.handlers == []
    finally:
        root.handlers = handlers


def _table_rows(text, fmt):
    """A table as a list of {column: float} rows, NaN for a missing value."""
    if fmt == "json":
        return [{k: math.nan if v is None else v for k, v in row.items()} for row in _strict_json(text)]
    header, *lines = text.splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


_CAVITY_POLE = {
    "system": {"upper": "vacuum", "lower": {"kind": "constant", "eps": -0.5}, "omega_max": 3.0},
    "atom_a": {"omega0": 1.0, "gamma": 0.0},
    "atom_b": {"omega0": 0.9, "gamma": 0.0},
    "scan": {"omega_min": 0.7, "omega_max": 1.3, "n_points": 5, "include_offresonant": True},
    "output": {"path": "ignored", "format": "json"},
}


@given(cfg=_physical_config())
@example(cfg=_CAVITY_POLE)  # on a pole at every grid point: once an all-nan table with exit 0
@settings(max_examples=60, deadline=None)
def test_physical_configs_exit_0_with_finite_values_or_report_an_error(cfg):
    # every command exits 0, 1, 3 or 4 without a traceback and with only the
    # documented lines on stderr; on exit 0 a value is missing only in a whole
    # row flagged at a pole (reported in one warning line) or in an unused column
    scan = cfg["scan"]
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.json"
        config_path.write_text(json.dumps(cfg))
        for command in ("spectrum", "enhancement", "peaks", "validate"):
            out = Path(tmp) / command
            rc, lines = _main_and_stderr([command, "--config", str(config_path), "--out", str(out)])
            assert not list(Path(tmp).glob("*.part")), command
            peaks = command == "peaks"
            warned = [line for line in lines if _WARNING.match(line) or peaks and _PEAKS_WARNING.match(line)]
            # peaks warns once, after its refinement, which leaves out the maxima next to a pole
            assert len(warned) <= 1, (command, rc, lines)
            errors = [line for line in lines if line not in warned]
            if rc != EXIT_OK:
                assert len(errors) == 1 and errors[0].startswith(_ERROR_LINES[rc]), (command, rc, lines)
                # the search never refines onto a pole: peaks stops only on a scan without a value
                assert not peaks or _ALL_FLAGGED.match(errors[0]), lines
                assert out.exists() == (rc == EXIT_VALIDATION), command
                continue
            assert not errors, (command, lines)
            if command == "peaks":
                for peak in json.loads(out.read_text()):
                    assert math.isfinite(peak["location"]) and math.isfinite(peak["height"]), peak
                    assert peak["width_fwhm"] is None or 0.0 < peak["width_fwhm"] < math.inf, peak
            elif command == "validate":
                for line in out.read_text().splitlines()[1:]:
                    assert all(math.isfinite(float(c)) for c in line.split(",")[2:]), line
            else:
                rows = _table_rows(out.read_text(), cfg["output"]["format"])
                assert len(rows) == scan["n_points"]
                flagged = 0
                for row in rows:
                    values = {k: v for k, v in row.items() if k != "omega_over_ref"}
                    if math.isnan(row["g"]):
                        flagged += 1
                        assert all(math.isnan(v) for v in values.values()), (command, row)
                        continue
                    if not scan["include_no_lf_curve"] and "u_resonant_no_lf" in values:
                        assert math.isnan(values.pop("u_resonant_no_lf")), row
                    assert all(math.isfinite(v) for v in values.values()), (command, row)
                assert 0 <= flagged < scan["n_points"]
                counts = [tuple(map(int, _WARNING.match(line).groups())) for line in warned]
                assert counts == ([(flagged, scan["n_points"])] if flagged else []), (command, lines)


# 7-point scans of [1, 2] over which peaks used to refine onto a pole and exit 1,
# while spectrum exits 0: vacuum over an undamped Lorentz medium (eta, eps0, and
# omega_s or omega_t) and an undamped atom B (omega0), fig2 otherwise; 1 + i/6 is
# a grid point
_LOSSLESS_PEAK_SCANS = [
    (2.0, 2.5, "omega_s", 1.25, 1 + 1 / 6),
    (1.5, 4.5, "omega_s", 1.25, 1 + 1 / 6),
    (2.0, 10.0, "omega_t", 1 + 5 / 6, 1 + 4 / 6),
    (1.5, 4.5, "omega_t", 1 + 5 / 6, 1 + 4 / 6),
    (1.5, 9.5, "omega_s", 1 + 4 / 6, 1.5),
    (2.0, 10.0, "omega_s", 1 + 4 / 6, 1.5),
    (1.5, 2.0, "omega_s", 1 + 4 / 6, 1.5),
]


@pytest.mark.parametrize("eta, eps0, key, frequency, omega0", _LOSSLESS_PEAK_SCANS)
def test_peaks_leaves_out_a_grid_maximum_with_a_pole_in_its_bracket(tmp_path, eta, eps0, key, frequency, omega0):
    # golden-section refinement over [omega_{i-1}, omega_{i+1}] converges onto a
    # pole inside it; such a maximum is counted on the one warning line instead
    cfg = json.loads(resolve_config_path("fig2").read_text())
    cfg["system"]["lower"] = {"kind": "lorentz", "eta": eta, "eps0": eps0, "gamma": 0.0, key: frequency}
    cfg["atom_b"].update(omega0=omega0, gamma=0.0)
    cfg["scan"].update(omega_min=1.0, omega_max=2.0, n_points=7)
    config, out = tmp_path / "run.json", tmp_path / "peaks.json"
    config.write_text(json.dumps(cfg))
    rc, lines = _main_and_stderr(["peaks", "--config", str(config), "--out", str(out)])
    assert rc == EXIT_OK, lines
    assert len(lines) == 1 and _PEAKS_WARNING.match(lines[0]) and lines[0].endswith(": 1"), lines
    assert _WARNING.match(lines[0]), lines  # atom B's pole is a flagged grid point
    for peak in json.loads(out.read_text()):
        assert math.isfinite(peak["location"]) and math.isfinite(peak["height"]), peak
        assert peak["width_fwhm"] is None or math.isfinite(peak["width_fwhm"]), peak


# 8-point scans over which the upper medium moves the screening pole eps_u + eps_l = 0
# off the vacuum surface mode: a constant eps 2.25, or an undamped oscillator, over an
# undamped Lorentz medium (eta 2.71, eps0 6.57, omega_t 1); the pole lies between grid points
_SCREENING_POLE_SCANS = {
    "constant-upper": ({"kind": "constant", "eps": 2.25}, 1.2335, 1.3335013335020003),
    "two-oscillators": (
        {"kind": "lorentz", "eta": 1.5, "eps0": 3.0, "omega_t": 1.4, "gamma": 0.0},
        1.0856,
        1.1856277233637502,
    ),
}


@pytest.mark.parametrize("upper, omega_min, pole", _SCREENING_POLE_SCANS.values(), ids=_SCREENING_POLE_SCANS)
def test_peaks_leaves_out_a_grid_maximum_at_the_screening_pole_of_two_media(tmp_path, upper, omega_min, pole):
    cfg = json.loads(resolve_config_path("fig2").read_text())
    lower = {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_t": 1.0, "gamma": 0.0}
    cfg["system"].update(upper=upper, lower=lower)
    cfg["scan"].update(omega_min=omega_min, omega_max=omega_min + 0.2, n_points=8)
    config, out = tmp_path / "run.json", tmp_path / "peaks.json"
    config.write_text(json.dumps(cfg))
    rc, lines = _main_and_stderr(["peaks", "--config", str(config), "--out", str(out)])
    assert rc == EXIT_OK, lines
    assert lines == ["WARNING vdwsurf: grid maxima left out for a pole between their grid neighbours: 1"], lines
    grid = np.linspace(omega_min, omega_min + 0.2, 8)
    # grid[i - 1] < pole < grid[i]: the brackets holding it span grid[i - 2] to grid[i + 1]
    i = int(np.searchsorted(grid, pole))
    for peak in json.loads(out.read_text()):
        assert not grid[i - 2] <= peak["location"] <= grid[i + 1], peak
        assert math.isfinite(peak["height"]) and (peak["width_fwhm"] is None or peak["width_fwhm"] > 0), peak
